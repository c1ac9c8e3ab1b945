//! Multi-node tile serving: shard ownership, invalidation broadcast,
//! and fault re-homing over the `lsga-dist` failure machinery.
//!
//! A [`ClusterServer`] simulates an N-node serving tier in-process.
//! Each node runs its own full [`TileServer`] — its own cache shards,
//! flight tables, and admission controller — over a **replicated
//! store**: `add_layer` and `insert_points` apply the same batch
//! sequence to every live node, so every live replica holds identical
//! layer state at the same generation. What the cluster *shards* is
//! the serving work: caches, single-flight coalescing, and tile
//! compute are partitioned by an ownership map so that each tile's
//! working set lives on exactly one node.
//!
//! # Ownership map
//!
//! Tiles are laid on the linearized-quadtree Z-order curve:
//! [`z_order_key`] is the level offset `(4^z − 1)/3` plus the Morton
//! interleave of `(x, y)`. The home node of a tile is that key modulo
//! the node count ([`home_node`]) — contiguous Z-order runs stripe
//! round-robin across nodes, which balances any spatially-coherent
//! request storm without coordination. Routing ([`ClusterServer::route`])
//! sends a tile to the first *live* node in the rotation
//! `(home, home+1, …) mod n`, so a dead node's entire tile range
//! re-homes to the survivors deterministically, with no routing table
//! to rebuild.
//!
//! # Invalidation broadcast
//!
//! An append ([`ClusterServer::insert_points`]) is delivered to every
//! live node in node order. Each delivery runs that node's own
//! append path — segment build, generation bump, dirty-region cache
//! sweep — so cross-node cache coherence falls out of the per-node
//! invariant rather than a separate protocol. The cluster stamps each
//! committed broadcast with a monotone generation
//! ([`ClusterServer::generation`]); because every live node sees the
//! same batch sequence, per-node snapshot generations advance in
//! lockstep and a router never needs to compare them. A dead node
//! misses broadcasts and its replica goes stale — which is safe,
//! because routing never selects a dead node and there is no rejoin.
//!
//! # Fault re-homing
//!
//! [`ClusterServer::get_tiles_supervised`] serves a batch under a
//! seeded [`FaultPlan`], reusing the two-phase determinism argument of
//! `lsga_dist::supervisor` (DESIGN.md §3.13):
//!
//! 1. **Planning** *is* `lsga_dist`'s planner
//!    ([`plan_routed`]) with [`home_node`] as the home map and the
//!    current dead nodes as the dead-at-start mask — a sequential, pure
//!    function of `(plan, policy, ownership, alive set)`. It charges
//!    halo re-shipments whenever a tile is adopted by a node that does
//!    not hold its serving state, kills nodes on crash faults, and
//!    abandons tiles whose retry budget is exhausted. A tile's halo
//!    weight is [`TileCompute::halo_points`] read from the newest
//!    replica of the layer, at `BYTES_PER_POINT` each.
//! 2. **Execution** serves each scheduled-successful tile from its
//!    final node's exact path. A tile is a pure function of the layer
//!    replica, every live replica is identical, and the per-node exact
//!    tier is bit-stable — so any recoverable schedule yields tiles
//!    bit-identical to [`crate::server::compute_tile_direct`], for
//!    every thread count. Doomed plans degrade to a partial result
//!    with an exact [`CoverageReport`] instead of an error.
//!
//! All `cluster.*` counters are published from the sequential schedule
//! (or from sequential routing), so observability is invariant
//! under `LSGA_THREADS` — the property `tests/obs_invariance.rs`
//! checks for the rest of the registry and
//! `tests/cluster_coherence.rs` checks here.

use crate::compute::{KdvCompute, TileCompute};
use crate::policy::QualityPolicy;
use crate::server::{TileServer, TileServerConfig};
use crate::tile::{tile_bbox, LayerId, Tile, TileCoord};
use lsga_core::error::{LsgaError, Result};
use lsga_core::{AnyKernel, BBox, Point, TimedPoint};
use lsga_dist::{first_live_from, plan_routed, CoverageReport, FaultPlan, RetryPolicy, Schedule};
use lsga_obs::{self as obs, Counter, Hist};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spread the low 32 bits of `v` so they occupy the even bit
/// positions of the result (Morton/Z-order bit interleave half).
fn spread_bits(v: u32) -> u64 {
    let mut x = u64::from(v);
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Linearized-quadtree Z-order key of a tile: the level offset
/// `(4^z − 1)/3` (total tiles above level `z`) plus the Morton
/// interleave of `(x, y)` within the level. Distinct tiles of the
/// pyramid get distinct keys, and keys within one zoom level follow
/// the Z-order space-filling curve.
#[must_use]
pub fn z_order_key(coord: TileCoord) -> u64 {
    // Zoom is clamped to `TileCoord::MAX_ZOOM` only to keep the shift
    // defined; the server rejects any deeper request.
    let z = u32::from(coord.z.min(TileCoord::MAX_ZOOM));
    let offset = ((1u64 << (2 * z)) - 1) / 3;
    offset + (spread_bits(coord.x) | (spread_bits(coord.y) << 1))
}

/// The home (owning) node of a tile in an `nodes`-node cluster:
/// [`z_order_key`] modulo the node count.
#[must_use]
pub fn home_node(coord: TileCoord, nodes: usize) -> usize {
    debug_assert!(nodes > 0);
    (z_order_key(coord) % nodes as u64) as usize
}

/// Routing key of a `(coordinate, time-bin)` pair: the spatial Z-order
/// key mixed with a golden-ratio multiple of the bin, so an STKDV
/// layer's bins of one tile stripe across nodes instead of piling onto
/// the spatial home. `bin == 0` reproduces [`z_order_key`] exactly —
/// spatial-only layers route as they always did.
#[must_use]
pub fn route_key(coord: TileCoord, bin: u32) -> u64 {
    z_order_key(coord) ^ u64::from(bin).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Configuration of a simulated serving cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of simulated nodes (>= 1).
    pub nodes: usize,
    /// Per-node tile-server configuration; every node gets its own
    /// independent instance (cache budget is *per node*).
    pub node: TileServerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            node: TileServerConfig::default(),
        }
    }
}

/// A batch served under a fault plan: per-tile results (abandoned
/// tiles are `None`), the exact coverage report, and the full
/// simulated schedule for auditing.
pub struct SupervisedTiles {
    /// One entry per requested coordinate, in request order.
    pub tiles: Vec<Option<Arc<Tile>>>,
    /// Exact account of what the partial result covers; complete iff
    /// every tile executed.
    pub report: CoverageReport,
    /// The simulated failure/recovery schedule (attempts, re-homings,
    /// re-shipped bytes, node deaths).
    pub schedule: Schedule,
}

/// An N-node simulated tile-serving cluster. See the module docs for
/// the ownership, broadcast, and re-homing model.
pub struct ClusterServer {
    nodes: Vec<TileServer>,
    /// Liveness mask; `false` nodes are never routed to and miss
    /// broadcasts. Guarded by a mutex so routing, broadcast,
    /// registration, and planning observe a consistent membership.
    alive: Mutex<Vec<bool>>,
    /// Monotone broadcast generation, bumped once per committed
    /// append.
    generation: AtomicU64,
}

impl ClusterServer {
    /// Build a cluster of `cfg.nodes` independent tile servers.
    pub fn new(cfg: ClusterConfig) -> Result<Self> {
        if cfg.nodes == 0 {
            return Err(LsgaError::InvalidParameter {
                name: "nodes",
                message: "a cluster needs at least one node".into(),
            });
        }
        let nodes = (0..cfg.nodes).map(|_| TileServer::new(cfg.node)).collect();
        Ok(ClusterServer {
            nodes,
            alive: Mutex::new(vec![true; cfg.nodes]),
            generation: AtomicU64::new(0),
        })
    }

    /// Number of nodes (live and dead).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Direct access to one node's server — tests use this to inspect
    /// per-node caches and to compare against single-node behaviour.
    #[must_use]
    pub fn node(&self, i: usize) -> &TileServer {
        &self.nodes[i]
    }

    /// Indices of the currently live nodes, ascending.
    #[must_use]
    pub fn alive_nodes(&self) -> Vec<usize> {
        let alive = self.alive.lock().unwrap();
        (0..alive.len()).filter(|&i| alive[i]).collect()
    }

    /// Whether node `i` is live.
    #[must_use]
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive.lock().unwrap()[i]
    }

    /// The cluster broadcast generation: number of committed appends.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Register a KDV layer on **every** node (dead nodes included, so
    /// layer ids stay aligned across the cluster).
    pub fn add_layer(
        &self,
        points: Vec<Point>,
        window: BBox,
        kernel: AnyKernel,
        tail_eps: f64,
    ) -> Result<LayerId> {
        self.add_compute_layer(Arc::new(KdvCompute::new(
            &points, window, kernel, tail_eps,
        )?))
    }

    /// Register any [`TileCompute`] on every node. All replicas share
    /// the generation-zero state `Arc` (it is immutable); appends then
    /// evolve each node's snapshot independently but identically.
    pub fn add_compute_layer(&self, compute: Arc<dyn TileCompute>) -> Result<LayerId> {
        // Hold the membership lock for the whole registration so two
        // concurrent registrations cannot interleave per-node
        // registrations and hand out diverged ids.
        let _alive = self.alive.lock().unwrap();
        let mut id: Option<LayerId> = None;
        for node in &self.nodes {
            let lid = node.add_compute_layer(Arc::clone(&compute))?;
            match id {
                None => id = Some(lid),
                Some(prev) => assert_eq!(prev, lid, "layer ids diverged across nodes"),
            }
        }
        Ok(id.expect("cluster has at least one node"))
    }

    /// The node a tile is routed to right now: the first live node in
    /// the rotation starting at its home. Errs only when every node is
    /// dead.
    pub fn route(&self, coord: TileCoord) -> Result<usize> {
        let alive = self.alive.lock().unwrap();
        Self::route_from(&alive, z_order_key(coord))
    }

    /// The same rotation dist's planner re-assigns tiles by.
    fn route_from(alive: &[bool], key: u64) -> Result<usize> {
        let home = (key % alive.len() as u64) as usize;
        first_live_from(home, alive.len(), |w| alive[w]).ok_or_else(|| LsgaError::TaskFailed {
            tile: (key % usize::MAX as u64) as usize,
            attempts: 0,
            message: "no live cluster nodes to route to".into(),
        })
    }

    /// Serve one tile at the exact tier from its owning node.
    pub fn get_tile(&self, layer: LayerId, z: u8, x: u32, y: u32) -> Result<Arc<Tile>> {
        self.get_tile_binned(layer, z, x, y, 0)
    }

    /// Serve one time-binned tile from its owning node — ownership is
    /// [`route_key`], so each bin of a tile may live on a different
    /// node (`bin == 0` routes exactly like [`get_tile`](Self::get_tile)).
    pub fn get_tile_binned(
        &self,
        layer: LayerId,
        z: u8,
        x: u32,
        y: u32,
        bin: u32,
    ) -> Result<Arc<Tile>> {
        let coord = TileCoord::new(z, x, y);
        let w = {
            let alive = self.alive.lock().unwrap();
            Self::route_from(&alive, route_key(coord, bin))?
        };
        obs::incr(Counter::ClusterRoutedRequests);
        self.nodes[w].get_tile_binned(layer, z, x, y, bin)
    }

    /// Serve one tile under a quality policy from its owning node.
    pub fn get_tile_with_policy(
        &self,
        layer: LayerId,
        z: u8,
        x: u32,
        y: u32,
        policy: &QualityPolicy,
    ) -> Result<Arc<Tile>> {
        let coord = TileCoord::new(z, x, y);
        let w = self.route(coord)?;
        obs::incr(Counter::ClusterRoutedRequests);
        self.nodes[w].get_tile_with_policy(layer, z, x, y, policy)
    }

    /// Serve a batch, each tile from its owning node, in request
    /// order.
    pub fn get_tiles(&self, layer: LayerId, coords: &[TileCoord]) -> Result<Vec<Arc<Tile>>> {
        coords
            .iter()
            .map(|&c| self.get_tile(layer, c.z, c.x, c.y))
            .collect()
    }

    /// Append points to a layer and broadcast the invalidation to
    /// every live node in node order. Each delivery runs the node's
    /// own append path (segment build, generation bump, dirty-region
    /// cache sweep), so all live replicas stay bit-identical. Dead
    /// nodes miss the broadcast and go stale — safe, because routing
    /// never selects them and there is no rejoin. With no live node
    /// the append is refused: no replica would store it.
    pub fn insert_points(&self, layer: LayerId, points: &[Point]) -> Result<()> {
        self.broadcast(|node| node.insert_points(layer, points))
    }

    /// Append timed points to an STKDV layer on every live node, with
    /// the same broadcast protocol as
    /// [`insert_points`](Self::insert_points).
    pub fn insert_timed_points(&self, layer: LayerId, points: &[TimedPoint]) -> Result<()> {
        self.broadcast(|node| node.insert_timed_points(layer, points))
    }

    /// Deliver one append to every live node and commit it to the
    /// cluster generation. Replicas are identical, so a batch a node
    /// rejects is rejected by the first live node, before any state
    /// changes.
    fn broadcast(&self, insert: impl Fn(&TileServer) -> Result<()>) -> Result<()> {
        // Hold the membership lock across the whole broadcast so a
        // concurrent kill cannot split one append between replicas.
        let alive = self.alive.lock().unwrap();
        if !alive.contains(&true) {
            return Err(LsgaError::TaskFailed {
                tile: 0,
                attempts: 0,
                message: "no live cluster nodes to store the append".into(),
            });
        }
        for (w, node) in self.nodes.iter().enumerate() {
            if !alive[w] {
                continue;
            }
            insert(node)?;
            obs::incr(Counter::ClusterInvalidationsBroadcast);
        }
        self.generation.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Kill node `w`: it drops its serving state, is removed from
    /// routing, and misses all future broadcasts. Idempotent; returns
    /// whether the node was live.
    pub fn kill_node(&self, w: usize) -> bool {
        let mut alive = self.alive.lock().unwrap();
        if !alive[w] {
            return false;
        }
        alive[w] = false;
        // A crash loses the node's in-memory serving state.
        self.nodes[w].clear_cache();
        obs::incr(Counter::ClusterNodeDeaths);
        true
    }

    /// Each tile's halo weight — the layer records within its
    /// support-inflated bbox, the shipment an adopting node must
    /// receive and the unit the coverage report weighs tiles by. Read
    /// from the replica with the newest layer generation: a live node
    /// whenever one exists, and with every node dead still one that
    /// holds every acked append.
    fn halo_sizes(&self, layer: LayerId, coords: &[TileCoord]) -> Result<Vec<usize>> {
        let states = self
            .nodes
            .iter()
            .map(|node| node.layer_state(layer))
            .collect::<Result<Vec<_>>>()?;
        // Replicas at the same generation hold the same records.
        let (_, compute) = states
            .into_iter()
            .max_by_key(|&(generation, _)| generation)
            .expect("cluster has at least one node");
        let window = compute.window();
        Ok(coords
            .iter()
            .map(|&c| compute.halo_points(tile_bbox(&window, c)))
            .collect())
    }

    /// Serve a batch under a seeded fault plan with deterministic
    /// re-homing. Planning (sequential, pure) decides every attempt,
    /// node death, and halo re-shipment; execution then serves each
    /// scheduled-successful tile from its final node's exact path —
    /// bit-identical to the fault-free run for any recoverable plan.
    /// Tiles whose retry budget is exhausted come back `None`, listed
    /// in the exact [`CoverageReport`]. Node deaths scheduled here are
    /// applied to the cluster (routing + broadcasts) before returning.
    pub fn get_tiles_supervised(
        &self,
        layer: LayerId,
        coords: &[TileCoord],
        plan: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<SupervisedTiles> {
        let n = self.nodes.len();
        // ---- Phase 1: dist's sequential planner, routed by tile
        // ownership from the current membership.
        let (shipment_sizes, schedule, was_dead) = {
            let alive = self.alive.lock().unwrap();
            let shipment_sizes = self.halo_sizes(layer, coords)?;
            let was_dead: Vec<bool> = alive.iter().map(|&a| !a).collect();
            let home = |t: usize| home_node(coords[t], n);
            let schedule = plan_routed(&shipment_sizes, n, &was_dead, home, plan, policy);
            (shipment_sizes, schedule, was_dead)
        };

        // Publish the schedule's recovery activity. The planner is
        // sequential, so these totals are identical for every
        // thread count.
        let mut adopted = vec![0u64; n];
        for o in &schedule.tiles {
            obs::add(Counter::ClusterReshippedBytes, o.reshipped_bytes);
            for _ in 0..o.reshipments {
                obs::instant("cluster.reshipment");
            }
            if o.executed() && o.final_worker != Some(o.initial_worker) {
                obs::incr(Counter::ClusterTilesRehomed);
                adopted[o.final_worker.unwrap()] += 1;
            }
        }
        for (w, &count) in adopted.iter().enumerate() {
            if count > 0 && !schedule.dead_workers.contains(&w) {
                obs::record(Hist::ClusterRehomeBatch, count);
            }
        }

        // Apply scheduled deaths to the live cluster (routing and
        // future broadcasts) exactly once each.
        for &w in &schedule.dead_workers {
            if !was_dead[w] {
                self.kill_node(w);
            }
        }

        // ---- Phase 2: serve every scheduled-successful tile from its
        // final node. All live replicas are bit-identical, so the node
        // choice cannot change bits — only whose cache warms.
        let mut tiles = Vec::with_capacity(coords.len());
        for (o, &coord) in schedule.tiles.iter().zip(coords) {
            match o.final_worker {
                Some(w) => {
                    obs::incr(Counter::ClusterRoutedRequests);
                    let _rehome = (w != o.initial_worker).then(|| obs::span("cluster.rehome"));
                    tiles.push(Some(
                        self.nodes[w].get_tile(layer, coord.z, coord.x, coord.y)?,
                    ));
                }
                None => tiles.push(None),
            }
        }

        let report = CoverageReport::from_schedule(&schedule, &shipment_sizes);
        Ok(SupervisedTiles {
            tiles,
            report,
            schedule,
        })
    }
}
