//! # lsga-serve — in-memory analytic tile serving
//!
//! The paper's motivating deployments are interactive: KDV heatmaps and
//! K-function dashboards that "serve heavy traffic from millions of
//! users". Raw kernel throughput (lsga-kdv, lsga-core::par) is not a
//! serving story on its own — every pan/zoom would recompute full
//! rasters. This crate adds the missing layer on top of the existing
//! exact analytics:
//!
//! - a **multi-resolution tile pyramid** ([`tile`]): at zoom `z` the
//!   layer window splits into `2^z × 2^z` tiles, each a fixed-size
//!   raster evaluated by the grid-pruned exact KDV path;
//! - a **sharded, byte-budgeted LRU cache** ([`cache`]): per-shard
//!   mutexes keep unrelated requests from contending, and eviction is
//!   charged in bytes so memory is bounded regardless of tile size;
//! - **single-flight coalescing** ([`flight`]): N concurrent misses on
//!   one tile trigger exactly one computation, the rest wait;
//! - **append-driven invalidation** ([`server`]): inserting points
//!   dirties exactly the cached tiles whose kernel-support-inflated
//!   bounding boxes the new data intersects — every other tile is
//!   provably still bit-exact (see the proof sketch in [`server`]);
//! - **deadline-aware quality tiers** ([`policy`]): a request carrying
//!   a [`QualityPolicy`] degrades to a guaranteed-ε approximate tile
//!   (the paper's Eq. 6 bound-refinement or Eq. 7 sampling) when the
//!   admission controller judges the exact queue too deep for the
//!   deadline, every tile is stamped with its [`TileTier`], and a
//!   background refinement queue upgrades degraded cache
//!   entries to the exact, bit-identical tile off the request path.
//!
//! The crate inherits the repo's determinism discipline: a served
//! exact-tier tile is **bit-identical** to [`compute_tile_direct`] on
//! the layer's current point sequence, under any cache state, eviction
//! pressure, thread count, and request interleaving — and a degraded
//! tile is a deterministic, seeded function of the same sequence with
//! a machine-checkable error bound. `tests/serve_coherence.rs` drives
//! randomized interleavings against that oracle,
//! `tests/serve_singleflight.rs` pins the coalescing accounting via
//! the `lsga-obs` counter table (`serve.*`), and
//! `tests/serve_tiers.rs` proves the tier state machine: exact and
//! post-refinement bits identical to the oracle, degraded bits within
//! their stamped ε.

pub mod cache;
pub mod cluster;
pub mod compute;
pub mod flight;
pub mod policy;
pub(crate) mod refine;
pub(crate) mod segment;
pub mod server;
pub mod tile;

pub use cache::ShardedTileCache;
pub use cluster::{home_node, z_order_key, ClusterConfig, ClusterServer, SupervisedTiles};
pub use compute::{
    hotspot_overlay, nkdv_snap_index, rasterize_lixel_values, resample_overlay, snap_batch,
    AppendBatch, DirtyRegion, HotspotCompute, HotspotStat, KdvCompute, LayerKind, NkdvCompute,
    StkdvCompute, TileCompute,
};
pub use policy::{ApproxMode, QualityPolicy, TileTier};
pub use server::{compute_tile_direct, tile_grid_spec, HookPoint, TileServer, TileServerConfig};
pub use tile::{tile_bbox, tile_spec, LayerId, Tile, TileCoord, TileKey};
