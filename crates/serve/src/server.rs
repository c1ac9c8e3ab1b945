//! The tile server: layers, request path, batching, invalidation.
//!
//! Since PR 10 a layer is any [`TileCompute`] — KDV, STKDV, NKDV, or a
//! Gi*/LISA hotspot overlay — and everything below (cache, flights,
//! tiers, serialized ingest) is analytic-agnostic. The per-kind compute
//! and dirty-region obligations live in [`crate::compute`]; this module
//! keeps the serving-side argument, written for the original KDV layer
//! but carried by each kind's trait contract.
//!
//! # Bit-identity
//!
//! The headline invariant is that a served tile is bit-identical to
//! its layer's direct compute (for KDV, [`compute_tile_direct`]) over
//! the layer's current point sequence, no matter what the cache did in
//! between. For KDV, three facts make that hold:
//!
//! 1. **Fixed decomposition.** Every layer index is built with
//!    `GridIndex::with_bbox` over the layer's *fixed window* and the
//!    kernel's effective radius, so the cell grid never depends on
//!    where the points happen to sit. The pruned KDV sweep folds each
//!    pixel's candidates in (cell row, cell column, entry order); with
//!    the decomposition pinned, that order is a pure function of the
//!    point sequence.
//! 2. **Appends preserve entry order.** The index's counting sort is
//!    stable in input order within each cell, and `insert_points`
//!    appends new points after the existing sequence — so for every
//!    cell, old candidates keep their order and new ones come after.
//! 3. **Masked adds are bit-inert.** Candidates past the kernel cutoff
//!    contribute `0.0 · K_raw(d²)` = ±0.0 to a non-negative
//!    accumulator, which cannot change its bits. Hence a tile farther
//!    than the kernel radius from every inserted point produces the
//!    exact bits it produced before the insert.
//!
//! (1)+(2)+(3) give the invalidation bound: after an insert with
//! bounding box `B`, a cached tile is stale **iff** `B.inflate(radius)`
//! intersects its bbox. `insert_points` drops exactly those tiles;
//! everything else in the cache is still bit-exact, so serving it is
//! indistinguishable from recomputing.
//!
//! # Locking
//!
//! Lock order is `ingest → layers → cache shard → flight table`;
//! flight-table and per-flight mutexes are leaves (never held across
//! another acquisition), and only appends take `ingest`. Tile
//! computation runs with no locks held: a leader captures its layer
//! snapshot (an `Arc` — inserts swap the slot, they never mutate) and
//! computes against it.
//!
//! `layers` is an `RwLock`: the hot read path (every snapshot capture
//! and every leader commit) takes it shared, so concurrent requests —
//! including commits for *different* tiles — never serialize on the
//! layer table; single-flight already guarantees at most one leader
//! per key, so two shared-mode commits can never race on the same
//! cache entry. Only `add_layer` and the `insert_points` swap+sweep
//! take it exclusively, which preserves the atomic-commit argument
//! below verbatim: an exclusive swap still cannot interleave with any
//! shared commit's generation re-check.
//!
//! The leader **commit** is one atomic step under the layers lock:
//! re-check the layer generation, insert into the cache, and retire
//! the flight. Because `insert_points` swaps the snapshot and sweeps
//! the cache under the same lock, every insert either completes before
//! the commit (the generation re-check fails and the leader recomputes
//! against the fresh snapshot — `serve.stale_discards`) or after it
//! (the sweep removes the just-cached tile iff dirty, and any request
//! arriving later starts a fresh flight because the old one is already
//! retired). That closes the stale-join window: a request that begins
//! after an insert has completed can never receive pre-insert bits —
//! it hits the post-commit cache or leads a fresh flight; only
//! requests that genuinely overlap the insert may observe either side,
//! which is linearizable. The tile is published to waiters *after* the
//! commit; waiters joined before the flight was retired, hence before
//! the generation re-check, so the published bits are current for all
//! of them.
//!
//! Every leader exit path deposits a terminal flight outcome: success
//! publishes the tile, an error (unknown layer) fails the flight with
//! that error, and a panic in the compute path is caught by a drop
//! guard that retires the flight and fails it with
//! [`LsgaError::Panicked`] — so waiters can never be left parked on an
//! abandoned flight.
//!
//! # Ingest: the tiered segment stack
//!
//! A layer's index is not one monolithic `GridIndex` but a
//! [`SegmentedGrid`] — an ordered stack of immutable segments sharing
//! the layer's fixed cell decomposition. `insert_points` indexes only
//! its own batch (an O(batch) counting sort), pushes it as a new
//! segment, and lets size-tiered compaction ([`crate::segment`]) keep
//! the stack logarithmic — so a batch append is amortized
//! O(batch · log n) instead of the O(n) clone-and-rebuild the previous
//! design paid. Reads fold each candidate cell segment-by-segment in
//! stack order, which reproduces the monolithic fold bit for bit (the
//! proof lives on [`SegmentedGrid`] and
//! [`lsga_kdv::grid_pruned_kdv_segmented`]); compaction is a pure CSR
//! merge that never recomputes a float, so no served bit ever depends
//! on how far compaction has progressed.
//!
//! Writers are serialized: an append holds the server's `ingest`
//! mutex from reading the current snapshot to swapping in its
//! successor, so each batch is validated, indexed and accounted once,
//! on top of the state it will commit to. The successor stack (shared
//! `Arc`s + the one new segment, plus any compaction merge) is
//! assembled *outside* the layers lock; the exclusive critical section
//! is just the swap and the invalidation sweep. Readers never touch
//! `ingest`, so they are blocked only by that short section.
//!
//! # Quality tiers: degrade now, refine later
//!
//! Every tile request takes one routine, `ServerCore::serve`: validate
//! the coordinate, look up the cache, count the miss, and — for a
//! request carrying a [`QualityPolicy`]
//! ([`TileServer::get_tile_with_policy`]) — run deadline-aware
//! admission control in front of the exact path. The server keeps an
//! EWMA of recent foreground exact-tile compute times and counts the
//! exact leaders currently computing; a policy request is admitted to
//! the exact path only while
//! `(inflight + 1) × ewma ≤ deadline`. The estimate deliberately
//! ignores how many workers drain the queue — it is a conservative
//! serialized-queue model, which keeps the degrade/admit decision (and
//! therefore the `serve.*` tier counters) independent of the host's
//! thread count. While the EWMA is still unseeded (`ewma == 0`) the
//! wait behind in-flight leaders is unknown but non-zero, so a
//! deadline request degrades whenever any exact leader is already
//! computing; with zero leaders in flight the request is admitted and
//! its own compute seeds the estimate. Every decision records its
//! estimate in the `serve.queue_wait` histogram, whatever the layer's
//! kind.
//!
//! Past the budget, the request is served whatever degraded tier the
//! layer's [`TileCompute::degrade`] offers, computed **inline, without
//! joining any flight** and stamped with its [`TileTier`] metadata.
//! KDV offers an O(sample) seeded Eq. 7 evaluation
//! ([`lsga_kdv::sampling_kdv_segmented`]) or an Eq. 6 bound-refined
//! evaluation; the other kinds offer none, so a rejected request on
//! them falls through to the exact flight path like an admitted one.
//! Degraded computes skip the flight table on purpose — coalescing
//! behind an exact leader is exactly the queue the caller asked to
//! bypass, and duplicate O(sample) computes are the cheap, bounded
//! price of never waiting.
//!
//! The tier state machine per cache entry is `absent → degraded →
//! exact` (or `absent → exact` directly): a degraded insert never
//! replaces an exact tile ([`ShardedTileCache::insert_degraded`]), the
//! plain exact path looks up with
//! [`ShardedTileCache::get_exact`] so an exact request can never
//! receive approximate bits, and every committed degraded serve
//! enqueues a background **refinement** that recomputes the tile
//! exactly and upgrades the entry. Refinements are generation-checked
//! twice — at dequeue against the generation observed when the
//! degraded tile was served, and again under the layers lock at commit
//! — and a mismatch discards the task (`serve.refine_discards`),
//! exactly like a stale flight; the entry stays degraded until the
//! next degraded cache hit re-enqueues it at the current generation. A
//! refinement may race a foreground exact leader on the same key; both
//! commit under the same generation check, so they write identical
//! bits and the race is benign. Degraded serves themselves commit to
//! the cache only if the generation is unchanged since their snapshot
//! (otherwise `serve.stale_discards`, no retry — the caller still gets
//! the tile, which is linearizable for a request that overlapped the
//! insert, but the stale approximation is never published).

use crate::cache::ShardedTileCache;
use crate::compute::{AppendBatch, DirtyRegion, KdvCompute, LayerKind, TileCompute};
use crate::flight::{Flight, FlightTable};
use crate::policy::{QualityPolicy, TileTier};
use crate::refine::RefineQueue;
use crate::tile::{tile_bbox, tile_spec, LayerId, Tile, TileCoord, TileKey};
use lsga_core::error::{LsgaError, Result};
use lsga_core::par::{par_map, Threads};
use lsga_core::{AnyKernel, BBox, DensityGrid, GridSpec, Kernel, Point, TimedPoint};
use lsga_index::GridIndex;
use lsga_kdv::grid_pruned_kdv_with_index;
use lsga_obs::{self as obs, Counter, Hist};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-wide knobs. The defaults suit a city-scale layer on a
/// workstation; tests shrink the budget to force eviction.
#[derive(Clone, Copy, Debug)]
pub struct TileServerConfig {
    /// Pixels per tile side; every tile is `tile_px × tile_px`.
    pub tile_px: usize,
    /// Deepest zoom level served (level `z` has `4^z` tiles).
    pub max_zoom: u8,
    /// Cache shard count, rounded up to a power of two.
    pub shards: usize,
    /// Total cache budget in bytes, split evenly across shards.
    pub byte_budget: usize,
    /// Pool used for batched requests and tile sweeps.
    pub threads: Threads,
    /// Dedicated background threads upgrading degraded cache entries
    /// to exact tiles (clamped to at least 1).
    pub refine_workers: usize,
    /// Bound on queued refinement tasks; pushes past the cap are
    /// dropped and charged to `serve.refine_discards`.
    pub refine_queue_cap: usize,
}

impl Default for TileServerConfig {
    fn default() -> Self {
        TileServerConfig {
            tile_px: 256,
            max_zoom: 8,
            shards: 16,
            byte_budget: 256 << 20,
            threads: Threads::auto(),
            refine_workers: 1,
            refine_queue_cap: 1024,
        }
    }
}

/// Immutable view of a layer at one generation. Appends replace the
/// whole snapshot; readers clone the `Arc` and compute lock-free
/// against a consistent analytic state. Successive snapshots share the
/// bulk of their state (KDV segment `Arc`s, the NKDV network, …), so a
/// swap never clones the layer's point data.
struct LayerSnapshot {
    compute: Arc<dyn TileCompute>,
    generation: u64,
}

/// Where the server calls its hook (see [`TileServer::set_hook`]).
/// Blocking in the hook parks that code path, which lets tests pin
/// request interleavings deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookPoint {
    /// A flight leader won its flight and is about to compute (e.g.
    /// hold the leader until all coalescing waiters have parked).
    Compute(TileKey),
    /// An append is about to queue for the server's writer lock,
    /// before it reads the layer or validates the batch (e.g. park one
    /// writer so another commits first and the parked one lands on top
    /// of it).
    Insert {
        /// The layer appended to.
        layer: LayerId,
        /// Points in the batch.
        batch_len: usize,
    },
    /// A refinement worker dequeued a task, before any generation
    /// check (e.g. let an insert land under it to force the discard
    /// path).
    Refine(TileKey),
}

type Hook = Arc<dyn Fn(HookPoint) + Send + Sync>;

/// In-memory analytic tile server over layers of any [`TileCompute`]
/// kind: KDV, STKDV, NKDV and Gi*/LISA hotspots.
///
/// ```
/// use lsga_core::{BBox, KernelKind, Point};
/// use lsga_serve::{TileServer, TileServerConfig};
///
/// let window = BBox::new(0.0, 0.0, 100.0, 100.0);
/// let points = vec![Point::new(40.0, 60.0), Point::new(42.0, 58.0)];
/// let server = TileServer::new(TileServerConfig {
///     tile_px: 32,
///     ..TileServerConfig::default()
/// });
/// let layer = server
///     .add_layer(points, window, KernelKind::Quartic.with_bandwidth(10.0), 1e-9)
///     .unwrap();
/// let tile = server.get_tile(layer, 2, 1, 2).unwrap(); // cold: computed
/// let again = server.get_tile(layer, 2, 1, 2).unwrap(); // warm: cached
/// assert!(std::ptr::eq(&*tile, &*again));
/// ```
pub struct TileServer {
    core: Arc<ServerCore>,
    /// The refinement worker threads; joined on drop.
    workers: Vec<JoinHandle<()>>,
}

/// Everything the request path and the refinement workers share. The
/// public [`TileServer`] is a thin handle over one `Arc` of this.
struct ServerCore {
    cfg: TileServerConfig,
    /// Serializes appends; guards no data (see module docs, Locking).
    ingest: Mutex<()>,
    layers: RwLock<Vec<Arc<LayerSnapshot>>>,
    cache: ShardedTileCache,
    flights: FlightTable,
    refine: RefineQueue,
    /// EWMA (ns) of foreground exact-tile compute times; 0 = no
    /// estimate yet, which disables degrading (the first requests must
    /// run exact to seed it). Updated with relaxed RMW — the estimate
    /// is advisory, not a synchronization point.
    ewma_tile_ns: AtomicU64,
    /// Foreground exact leaders currently computing.
    inflight_exact: AtomicUsize,
    hook: Mutex<Option<Hook>>,
}

/// A refinement worker's whole life: pop, process, report done —
/// `task_done` fires even if processing unwinds, so `drain` can never
/// hang on a lost task.
fn refine_worker(core: Arc<ServerCore>) {
    struct Done<'a>(&'a RefineQueue);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.task_done();
        }
    }
    while let Some((key, generation)) = core.refine.pop() {
        let _done = Done(&core.refine);
        core.process_refinement(key, generation);
    }
}

impl TileServer {
    /// Create an empty server, spawning its refinement workers.
    #[must_use]
    pub fn new(cfg: TileServerConfig) -> Self {
        let core = Arc::new(ServerCore {
            cfg,
            ingest: Mutex::new(()),
            layers: RwLock::new(Vec::new()),
            cache: ShardedTileCache::new(cfg.shards, cfg.byte_budget),
            flights: FlightTable::new(),
            refine: RefineQueue::new(cfg.refine_queue_cap),
            ewma_tile_ns: AtomicU64::new(0),
            inflight_exact: AtomicUsize::new(0),
            hook: Mutex::new(None),
        });
        let workers = (0..cfg.refine_workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("lsga-refine-{i}"))
                    .spawn(move || refine_worker(core))
                    .expect("spawn refinement worker")
            })
            .collect();
        TileServer { core, workers }
    }

    /// The configuration this server was built with.
    #[must_use]
    pub fn config(&self) -> &TileServerConfig {
        &self.core.cfg
    }

    /// Register a KDV layer over a fixed `window` and return its id.
    ///
    /// The window is the pyramid's extent *and* the index frame every
    /// future append reuses, so it must be non-empty and contain every
    /// point — including points inserted later.
    pub fn add_layer(
        &self,
        points: Vec<Point>,
        window: BBox,
        kernel: AnyKernel,
        tail_eps: f64,
    ) -> Result<LayerId> {
        let compute = KdvCompute::new(&points, window, kernel, tail_eps)?;
        self.add_compute_layer(Arc::new(compute))
    }

    /// Register any [`TileCompute`] as a layer at generation zero and
    /// return its id — the generic entry point behind
    /// [`add_layer`](Self::add_layer) that STKDV/NKDV/hotspot layers
    /// use directly.
    pub fn add_compute_layer(&self, compute: Arc<dyn TileCompute>) -> Result<LayerId> {
        let mut layers = self.core.layers.write().expect("layers poisoned");
        layers.push(Arc::new(LayerSnapshot {
            compute,
            generation: 0,
        }));
        Ok(layers.len() - 1)
    }

    /// The analytic kind of a registered layer.
    pub fn layer_kind(&self, layer: LayerId) -> Result<LayerKind> {
        Ok(self.core.snapshot(layer)?.compute.kind())
    }

    /// Number of time bins a layer serves (1 for spatial-only kinds).
    pub fn time_bins(&self, layer: LayerId) -> Result<u32> {
        Ok(self.core.snapshot(layer)?.compute.time_bins())
    }

    /// Serve one tile at the **exact** tier: cache hit, coalesced
    /// wait, or leader compute. A degraded cache entry is a miss for
    /// this path — it never returns approximate bits.
    pub fn get_tile(&self, layer: LayerId, z: u8, x: u32, y: u32) -> Result<Arc<Tile>> {
        self.core
            .serve(TileKey::new(layer, TileCoord::new(z, x, y)), None)
    }

    /// Serve one tile of a time-binned layer at the exact tier.
    /// Spatial-only layers accept only `bin == 0` (where this is
    /// exactly [`get_tile`](Self::get_tile)); any other bin fails with
    /// `InvalidParameter`.
    pub fn get_tile_binned(
        &self,
        layer: LayerId,
        z: u8,
        x: u32,
        y: u32,
        bin: u32,
    ) -> Result<Arc<Tile>> {
        self.core
            .serve(TileKey::binned(layer, TileCoord::new(z, x, y), bin), None)
    }

    /// Serve one tile under a deadline: exact while the estimated
    /// queue wait fits the budget, otherwise the layer's degraded tier
    /// computed inline, if its kind has one (see the module docs' tier
    /// section). The returned tile's [`Tile::tier`] says which
    /// happened.
    pub fn get_tile_with_policy(
        &self,
        layer: LayerId,
        z: u8,
        x: u32,
        y: u32,
        policy: &QualityPolicy,
    ) -> Result<Arc<Tile>> {
        self.core
            .serve(TileKey::new(layer, TileCoord::new(z, x, y)), Some(policy))
    }

    /// Serve a batch of tiles for one layer: deduplicates, schedules
    /// the unique tiles across the pool, and returns tiles aligned
    /// with `coords` (duplicates share one `Arc`).
    pub fn get_tiles(&self, layer: LayerId, coords: &[TileCoord]) -> Result<Vec<Arc<Tile>>> {
        self.core.get_tiles(layer, coords, None)
    }

    /// [`get_tiles`](Self::get_tiles) with a per-request
    /// [`QualityPolicy`] applied to every tile in the batch.
    pub fn get_tiles_with_policy(
        &self,
        layer: LayerId,
        coords: &[TileCoord],
        policy: &QualityPolicy,
    ) -> Result<Vec<Arc<Tile>>> {
        self.core.get_tiles(layer, coords, Some(policy))
    }

    /// Append points to a layer, dirtying exactly the cached tiles the
    /// layer's [`DirtyRegion`] covers (for KDV: the kernel-inflated
    /// bbox of the batch). NKDV layers snap the points onto their road
    /// network; STKDV layers reject planar batches — use
    /// [`insert_timed_points`](Self::insert_timed_points).
    pub fn insert_points(&self, layer: LayerId, points: &[Point]) -> Result<()> {
        self.core.insert(layer, AppendBatch::Planar(points))
    }

    /// Append timed points to an STKDV layer; spatial-only layers
    /// reject the batch with `InvalidParameter`.
    pub fn insert_timed_points(&self, layer: LayerId, points: &[TimedPoint]) -> Result<()> {
        self.core.insert(layer, AppendBatch::Timed(points))
    }

    /// Resident segment count of a KDV layer's index stack — bounded
    /// by `log_3 n + O(1)` under the tier policy (see
    /// [`crate::segment`]). Kinds without a segment stack
    /// ([`TileCompute::segment_depth`] is `None`) fail with
    /// `InvalidParameter`.
    pub fn segment_count(&self, layer: LayerId) -> Result<usize> {
        let snap = self.core.snapshot(layer)?;
        snap.compute
            .segment_depth()
            .ok_or_else(|| LsgaError::InvalidParameter {
                name: "layer",
                message: format!(
                    "segment_count applies to kdv layers, not {}",
                    snap.compute.kind().name()
                ),
            })
    }

    /// Drop every cached tile (counts as eviction).
    pub fn clear_cache(&self) {
        let dropped = self.core.cache.clear();
        if dropped > 0 {
            obs::add(Counter::ServeTilesEvicted, dropped);
        }
    }

    /// Resident cache bytes (snapshot, for reporting).
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.core.cache.bytes()
    }

    /// Cached tile count (snapshot, for reporting).
    #[must_use]
    pub fn cached_tiles(&self) -> usize {
        self.core.cache.len()
    }

    /// Tier of the cached tile at `(layer, z, x, y)`, if resident —
    /// observability for tests and dashboards, no LRU side effects.
    #[must_use]
    pub fn cached_tier(&self, layer: LayerId, z: u8, x: u32, y: u32) -> Option<TileTier> {
        let key = TileKey::new(layer, TileCoord::new(z, x, y));
        self.core.cache.peek(&key).map(|t| t.tier)
    }

    /// Seed (or override) the exact-compute cost estimate admission
    /// control multiplies by the in-flight depth. Operationally this
    /// warms the controller before traffic arrives; tests use it to
    /// pin the degrade decision deterministically.
    /// `Duration::ZERO` clears the estimate, which disables degrading
    /// until the next foreground exact compute re-seeds it.
    pub fn set_compute_estimate(&self, estimate: Duration) {
        let ns = estimate.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.core.ewma_tile_ns.store(ns, Ordering::Relaxed);
    }

    /// The admission controller's current serialized-queue estimate:
    /// `(inflight + 1) · ewma`, i.e. what an exact request arriving now
    /// would be predicted to wait. Zero while the EWMA is unseeded.
    /// Front-ends use this to derive honest backoff hints
    /// (`Retry-After`) instead of a hardcoded constant.
    #[must_use]
    pub fn estimated_queue_wait(&self) -> Duration {
        let ewma = self.core.ewma_tile_ns.load(Ordering::Relaxed);
        let depth = self.core.inflight_exact.load(Ordering::Relaxed) as u64;
        Duration::from_nanos((depth + 1).saturating_mul(ewma))
    }

    /// Block until every queued refinement has committed or been
    /// discarded. Makes the asynchronous upgrade observable: after
    /// this returns (with no concurrent traffic), every cache entry a
    /// degraded serve left behind is either refined to exact bits or
    /// accounted in `serve.refine_discards`.
    pub fn drain_refinements(&self) {
        self.core.refine.drain();
    }

    /// Install (or clear) the hook called at every [`HookPoint`].
    /// Test-oriented.
    pub fn set_hook(&self, hook: Option<Arc<dyn Fn(HookPoint) + Send + Sync>>) {
        *self.core.hook.lock().expect("hook poisoned") = hook;
    }

    /// A layer's current generation and analytic state.
    pub(crate) fn layer_state(&self, layer: LayerId) -> Result<(u64, Arc<dyn TileCompute>)> {
        let snap = self.core.snapshot(layer)?;
        Ok((snap.generation, Arc::clone(&snap.compute)))
    }
}

impl Drop for TileServer {
    fn drop(&mut self) {
        self.core.refine.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl ServerCore {
    /// Call the installed hook, if any, outside the hook lock (so the
    /// hook may block, or reinstall itself, without deadlocking).
    fn fire_hook(&self, point: HookPoint) {
        let hook = self.hook.lock().expect("hook poisoned").clone();
        if let Some(hook) = hook {
            hook(point);
        }
    }

    fn snapshot(&self, layer: LayerId) -> Result<Arc<LayerSnapshot>> {
        let layers = self.layers.read().expect("layers poisoned");
        layers
            .get(layer)
            .cloned()
            .ok_or(LsgaError::InvalidParameter {
                name: "layer",
                message: format!("unknown layer id {layer} ({} registered)", layers.len()),
            })
    }

    /// Reject a zoom past `max_zoom` or past [`TileCoord::MAX_ZOOM`]
    /// (whichever is lower), and a tile outside its level's grid.
    fn validate_coord(&self, coord: TileCoord) -> Result<()> {
        let max_zoom = self.cfg.max_zoom.min(TileCoord::MAX_ZOOM);
        if coord.z > max_zoom {
            return Err(LsgaError::InvalidParameter {
                name: "z",
                message: format!("zoom {} exceeds max_zoom {max_zoom}", coord.z),
            });
        }
        let n = coord.tiles_per_axis();
        if coord.x >= n || coord.y >= n {
            return Err(LsgaError::InvalidParameter {
                name: "tile",
                message: format!(
                    "tile ({}, {}) out of range at zoom {} ({n} per axis)",
                    coord.x, coord.y, coord.z
                ),
            });
        }
        Ok(())
    }

    /// The one tile request path (see module docs). Without a policy a
    /// resident degraded tile is a miss ([`ShardedTileCache::get_exact`])
    /// and the leader's exact commit replaces it.
    fn serve(&self, key: TileKey, policy: Option<&QualityPolicy>) -> Result<Arc<Tile>> {
        self.validate_coord(key.coord)?;
        let hit = match policy {
            None => self.cache.get_exact(&key),
            Some(_) => self.cache.get(&key),
        };
        if let Some(tile) = hit {
            obs::incr(Counter::ServeCacheHits);
            if !tile.tier.is_exact() {
                // A degraded hit re-arms the upgrade: if an earlier
                // refinement was discarded under a racing insert, this
                // retries it at the current generation.
                let generation = self.snapshot(key.layer)?.generation;
                self.enqueue_refinement(key, generation);
            }
            return Ok(tile);
        }
        obs::incr(Counter::ServeCacheMisses);

        if let Some(policy) = policy {
            if !self.admit(policy) {
                if let Some(tile) = self.serve_degraded(key, policy)? {
                    return Ok(tile);
                }
            }
        }

        let (flight, leader) = self.flights.join(key);
        if !leader {
            // Counted before parking so a test (or dashboard) watching
            // the counter knows how many requests are already waiting.
            obs::incr(Counter::ServeCoalescedWaits);
            return flight.wait();
        }
        self.lead_flight(key, &flight)
    }

    /// Admission control: record the serialized-queue estimate of
    /// joining the exact path and check it against the deadline. Not
    /// divided by any worker count — see module docs.
    fn admit(&self, policy: &QualityPolicy) -> bool {
        let ewma = self.ewma_tile_ns.load(Ordering::Relaxed);
        let depth = self.inflight_exact.load(Ordering::Relaxed) as u64;
        let est_ns = (depth + 1).saturating_mul(ewma);
        obs::record(Hist::ServeQueueWait, est_ns / 1_000);
        let deadline_ns = policy.deadline().as_nanos().min(u128::from(u64::MAX)) as u64;
        // An unseeded controller (`ewma == 0`) with exact leaders already
        // in flight must not wave a deadline request onto the queue: the
        // wait is unknown but provably non-zero, so reject. With no
        // in-flight leaders the request itself becomes the seeding
        // compute, which is the bootstrap path.
        if ewma == 0 {
            depth == 0
        } else {
            est_ns <= deadline_ns
        }
    }

    /// Serve the layer's degraded tier inline — no flight, no queue —
    /// or `None` if its kind has none. Commits to the cache (and
    /// enqueues the refinement) only if the layer generation is
    /// unchanged since the snapshot; the caller gets the tile anyway.
    fn serve_degraded(&self, key: TileKey, policy: &QualityPolicy) -> Result<Option<Arc<Tile>>> {
        let snap = self.snapshot(key.layer)?;
        let spec = tile_spec(&snap.compute.window(), self.cfg.tile_px, key.coord);
        let Some((grid, tier)) = snap.compute.degrade(spec, policy) else {
            return Ok(None);
        };
        obs::incr(Counter::ServeDegradedTiles);
        let tile = Arc::new(Tile { key, grid, tier });
        // `insert_degraded` refuses when an exact tile is already
        // resident (a foreground leader beat us): nothing to refine.
        match self.commit_at(key.layer, snap.generation, || {
            self.cache.insert_degraded(key, Arc::clone(&tile))
        }) {
            Some(true) => self.enqueue_refinement(key, snap.generation),
            Some(false) => {}
            // A racing insert landed mid-compute: these bits are still
            // linearizable for this caller but must not be published.
            None => obs::incr(Counter::ServeStaleDiscards),
        }
        Ok(Some(tile))
    }

    /// Queue `key`'s background upgrade at `generation`; a full or
    /// shut-down queue drops it (`serve.refine_discards`).
    fn enqueue_refinement(&self, key: TileKey, generation: u64) {
        if !self.refine.push(key, generation) {
            obs::incr(Counter::ServeRefineDiscards);
        }
    }

    /// One dequeued refinement task: recompute `key` exactly against
    /// the current snapshot and upgrade the cache entry, unless a
    /// generation move, an eviction, or an already-exact entry makes
    /// the task moot (every such exit counts `serve.refine_discards`).
    fn process_refinement(&self, key: TileKey, enqueue_generation: u64) {
        self.fire_hook(HookPoint::Refine(key));
        // An insert raced the degraded serve: discarded like a stale
        // flight, and the entry stays degraded until the next degraded
        // cache hit re-enqueues at the current generation. An entry
        // already upgraded or evicted needs nothing.
        let snap = match self.snapshot(key.layer) {
            Ok(snap)
                if snap.generation == enqueue_generation
                    && self.cache.peek(&key).is_some_and(|t| !t.tier.is_exact()) =>
            {
                snap
            }
            _ => {
                obs::incr(Counter::ServeRefineDiscards);
                return;
            }
        };
        let tile = self.compute_exact(&snap, key, "serve.refine_tile");
        // May race a foreground exact leader on the same key: both
        // passed the same generation check, so both hold identical
        // bits and either commit order serves the same tile.
        match self.commit_at(key.layer, snap.generation, || self.cache.insert(key, tile)) {
            Some(()) => obs::incr(Counter::ServeRefinedTiles),
            None => obs::incr(Counter::ServeRefineDiscards),
        }
    }

    /// Compute `key` exactly against `snap` under the span `span`,
    /// charging `serve.tiles_computed` and the kind's counter — the one
    /// exact compute behind flight leaders and refinements alike.
    fn compute_exact(&self, snap: &LayerSnapshot, key: TileKey, span: &'static str) -> Arc<Tile> {
        let _span = obs::span(span);
        obs::incr(Counter::ServeTilesComputed);
        obs::incr(snap.compute.kind().computed_counter());
        let spec = tile_spec(&snap.compute.window(), self.cfg.tile_px, key.coord);
        Arc::new(Tile {
            key,
            grid: snap.compute.compute(spec, key.bin),
            tier: TileTier::Exact,
        })
    }

    /// Run `commit` under the layers lock iff `layer` is still at
    /// `generation`; `None` means an insert landed in between. Shared
    /// mode suffices: the only writer a commit must not interleave
    /// with is the insert swap, which holds the lock exclusively.
    fn commit_at<R>(
        &self,
        layer: LayerId,
        generation: u64,
        commit: impl FnOnce() -> R,
    ) -> Option<R> {
        let layers = self.layers.read().expect("layers poisoned");
        (layers[layer].generation == generation).then(commit)
    }

    /// Fold one foreground exact compute's duration into the EWMA
    /// (`new = old·7/8 + sample/8`; the first sample seeds it). Relaxed
    /// RMW — a lost update under contention only delays convergence.
    fn observe_exact_cost(&self, elapsed: Duration) {
        let sample = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let _ = self
            .ewma_tile_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some(if old == 0 {
                    sample
                } else {
                    old - old / 8 + sample / 8
                })
            });
    }

    /// Leader side of a flight: compute, commit, publish. Guaranteed
    /// to deposit a terminal outcome on the flight on **every** exit —
    /// success, error return, or panic — so waiters are never left
    /// parked and the key never wedges (see module docs).
    fn lead_flight(&self, key: TileKey, flight: &Flight) -> Result<Arc<Tile>> {
        /// On unwind (or any exit before `disarm`), retire the flight
        /// and fail it so current waiters wake with an error and
        /// future requests lead a fresh flight.
        struct AbortGuard<'a> {
            flights: &'a FlightTable,
            flight: &'a Flight,
            key: TileKey,
            armed: bool,
        }
        impl Drop for AbortGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    self.flights.complete(&self.key);
                    self.flight.fail(LsgaError::Panicked("tile computation"));
                }
            }
        }
        let mut guard = AbortGuard {
            flights: &self.flights,
            flight,
            key,
            armed: true,
        };

        // Depth accounting for admission control: this thread is now a
        // foreground exact leader; decremented on every exit path.
        struct DepthGuard<'a>(&'a AtomicUsize);
        impl Drop for DepthGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.inflight_exact.fetch_add(1, Ordering::Relaxed);
        let _depth = DepthGuard(&self.inflight_exact);

        let tile = loop {
            // Snapshot the layer; compute runs with no locks held. A bin
            // past the layer's time axis can never be cached, so such a
            // request always lands here and fails like an unknown layer.
            // Spatial-only layers serve exactly bin 0.
            let snap = self.snapshot(key.layer).and_then(|snap| {
                let bins = snap.compute.time_bins();
                if key.bin < bins {
                    Ok(snap)
                } else {
                    Err(LsgaError::InvalidParameter {
                        name: "bin",
                        message: format!("time bin {} out of range ({bins} bins)", key.bin),
                    })
                }
            });
            let snap = match snap {
                Ok(snap) => snap,
                Err(e) => {
                    // Retire first so racing requests lead fresh
                    // flights, then wake parked waiters with the real
                    // error (`fail` before the guard's generic one).
                    guard.armed = false;
                    self.flights.complete(&key);
                    flight.fail(e.clone());
                    return Err(e);
                }
            };
            self.fire_hook(HookPoint::Compute(key));
            let started = Instant::now();
            let tile = self.compute_exact(&snap, key, "serve.compute_tile");
            self.observe_exact_cost(started.elapsed());
            // Commit: generation re-check, cache insert, and flight
            // retirement form one atomic step against `insert_points`'
            // swap+invalidate. Same-key commits cannot coexist
            // (single-flight — this thread is the key's only leader). A
            // request arriving after this point finds the tile in the
            // cache or leads a fresh flight — it can no longer join this
            // one, so no insert completing after the commit can make
            // these bits stale for anyone who receives them.
            let committed = self.commit_at(key.layer, snap.generation, || {
                self.cache.insert(key, Arc::clone(&tile));
                self.flights.complete(&key);
            });
            if committed.is_some() {
                break tile;
            }
            // An insert completed between snapshot and commit: a
            // waiter may have joined *after* that insert, so these
            // bits must not be published. Recompute against the fresh
            // snapshot and try to commit again.
            obs::incr(Counter::ServeStaleDiscards);
        };
        guard.armed = false;
        flight.publish(Arc::clone(&tile));
        Ok(tile)
    }

    /// Serve a batch of tiles for one layer: deduplicates, schedules
    /// the unique tiles across the pool, and returns tiles aligned
    /// with `coords` (duplicates share one `Arc`). With a policy, each
    /// unique tile takes the deadline-checked path independently.
    fn get_tiles(
        &self,
        layer: LayerId,
        coords: &[TileCoord],
        policy: Option<&QualityPolicy>,
    ) -> Result<Vec<Arc<Tile>>> {
        for &c in coords {
            self.validate_coord(c)?;
        }
        let _span = obs::span("serve.batch");
        let mut unique: Vec<TileCoord> = Vec::new();
        let mut slot: HashMap<TileCoord, usize> = HashMap::new();
        for &c in coords {
            slot.entry(c).or_insert_with(|| {
                unique.push(c);
                unique.len() - 1
            });
        }
        obs::record(Hist::ServeBatchUniqueTiles, unique.len() as u64);
        let fetched: Vec<Result<Arc<Tile>>> = par_map(unique.len(), 1, self.cfg.threads, |i| {
            self.serve(TileKey::new(layer, unique[i]), policy)
        });
        let mut tiles: Vec<Option<Arc<Tile>>> = vec![None; unique.len()];
        for (i, r) in fetched.into_iter().enumerate() {
            tiles[i] = Some(r?);
        }
        Ok(coords
            .iter()
            .map(|c| Arc::clone(tiles[slot[c]].as_ref().expect("slot filled")))
            .collect())
    }

    /// Append a batch to a layer, dirtying exactly the cached tiles
    /// the layer's [`DirtyRegion`] covers.
    ///
    /// Holds `ingest` throughout, so this is the only writer: the
    /// successor built by [`TileCompute::append`] (for KDV: an
    /// O(batch) counting sort into its own immutable segment plus any
    /// compaction; for NKDV: snapping the points onto the network) is
    /// built outside the layers lock and always commits. The exclusive
    /// layers section is only the snapshot swap and the sweep.
    fn insert(&self, layer: LayerId, batch: AppendBatch<'_>) -> Result<()> {
        if batch.is_empty() {
            return Err(LsgaError::EmptyDataset("insert_points batch"));
        }
        self.fire_hook(HookPoint::Insert {
            layer,
            batch_len: batch.len(),
        });
        let _span = obs::span("ingest.append");
        let _ingest = self.ingest.lock().unwrap_or_else(PoisonError::into_inner);
        let old = self.snapshot(layer)?;
        let applied = old.compute.append(batch, self.cfg.threads)?;
        obs::add(Counter::IngestPointsAppended, batch.len() as u64);
        let next = Arc::clone(&applied.next);
        let window = next.window();

        let mut layers = self.layers.write().expect("layers poisoned");
        layers[layer] = Arc::new(LayerSnapshot {
            compute: applied.next,
            generation: old.generation + 1,
        });
        // Still under the exclusive layers lock (order: layers →
        // shard): dirty exactly the tiles the batch can have touched,
        // atomically with the swap (see module docs).
        let dropped = match applied.dirty {
            DirtyRegion::All => self.cache.invalidate(layer, |_, _| true),
            DirtyRegion::Planar(dirty) => self.cache.invalidate(layer, |coord, _| {
                dirty.intersects(&tile_bbox(&window, coord))
            }),
            DirtyRegion::SpaceTime { bbox, t_lo, t_hi } => {
                self.cache.invalidate(layer, |coord, bin| {
                    let t = next.bin_time(bin);
                    t >= t_lo && t <= t_hi && bbox.intersects(&tile_bbox(&window, coord))
                })
            }
        };
        if dropped > 0 {
            obs::add(Counter::ServeTilesInvalidated, dropped);
            obs::add(next.kind().invalidated_counter(), dropped);
        }
        Ok(())
    }
}

/// The oracle the test suites compare against: compute the tile's
/// region from scratch — fresh index over the same fixed window, same
/// pruned sweep — with no server, cache, or flight in the loop.
/// A served tile must match this bit for bit.
#[must_use]
pub fn compute_tile_direct(
    points: &[Point],
    window: &BBox,
    kernel: AnyKernel,
    tail_eps: f64,
    tile_px: usize,
    coord: TileCoord,
) -> DensityGrid {
    let radius = kernel.effective_radius(tail_eps);
    let index = GridIndex::with_bbox(points, radius.max(1e-12), *window);
    grid_pruned_kdv_with_index(&index, tile_spec(window, tile_px, coord), kernel, tail_eps)
}

/// Convenience for callers that want a one-off spec without a server
/// (e.g. to rasterize the direct answer at tile geometry).
#[must_use]
pub fn tile_grid_spec(window: &BBox, tile_px: usize, coord: TileCoord) -> GridSpec {
    tile_spec(window, tile_px, coord)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsga_core::KernelKind;

    fn window() -> BBox {
        BBox::new(0.0, 0.0, 100.0, 100.0)
    }

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Point::new(
                    50.0 + (f * 0.831).sin() * 45.0,
                    50.0 + (f * 0.557).cos() * 45.0,
                )
            })
            .collect()
    }

    fn server(budget: usize) -> TileServer {
        TileServer::new(TileServerConfig {
            tile_px: 16,
            max_zoom: 5,
            shards: 4,
            byte_budget: budget,
            threads: Threads::exact(2),
            ..TileServerConfig::default()
        })
    }

    #[test]
    fn served_tile_matches_direct_computation() {
        let pts = scatter(200);
        let s = server(1 << 20);
        let kernel = KernelKind::Quartic.with_bandwidth(12.0);
        let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
        for (z, x, y) in [(0, 0, 0), (1, 1, 0), (3, 5, 2), (5, 31, 31)] {
            let tile = s.get_tile(layer, z, x, y).unwrap();
            let direct =
                compute_tile_direct(&pts, &window(), kernel, 1e-9, 16, TileCoord::new(z, x, y));
            assert_eq!(
                tile.grid
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                direct
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "tile ({z},{x},{y}) diverged from direct computation"
            );
        }
    }

    #[test]
    fn warm_request_returns_cached_arc() {
        let s = server(1 << 20);
        let layer = s
            .add_layer(
                scatter(50),
                window(),
                KernelKind::Epanechnikov.with_bandwidth(8.0),
                1e-9,
            )
            .unwrap();
        let a = s.get_tile(layer, 2, 1, 1).unwrap();
        let b = s.get_tile(layer, 2, 1, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm hit must share the cached tile");
    }

    #[test]
    fn insert_only_invalidates_tiles_within_kernel_reach() {
        let s = server(1 << 24);
        let kernel = KernelKind::Quartic.with_bandwidth(5.0);
        let layer = s.add_layer(scatter(100), window(), kernel, 1e-9).unwrap();
        // Warm all 16 tiles at zoom 2 (tile side 25 > radius 5).
        for x in 0..4 {
            for y in 0..4 {
                let _ = s.get_tile(layer, 2, x, y).unwrap();
            }
        }
        assert_eq!(s.cached_tiles(), 16);
        // A point in the middle of tile (0,0) reaches only the 25-unit
        // tiles adjacent to its 5-unit radius — i.e. tile (0,0) alone
        // here, since 12.5 ± 5 stays inside [0, 25).
        s.insert_points(layer, &[Point::new(12.5, 12.5)]).unwrap();
        assert_eq!(s.cached_tiles(), 15, "exactly one tile dirtied");
        assert!(s.get_tile(layer, 2, 3, 3).is_ok());
    }

    #[test]
    fn post_insert_tiles_reflect_new_points() {
        let mut pts = scatter(80);
        let s = server(1 << 22);
        let kernel = KernelKind::Gaussian.with_bandwidth(6.0);
        let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
        let _ = s.get_tile(layer, 1, 0, 0).unwrap();
        let extra = vec![Point::new(20.0, 20.0), Point::new(21.0, 19.0)];
        s.insert_points(layer, &extra).unwrap();
        pts.extend_from_slice(&extra);
        let tile = s.get_tile(layer, 1, 0, 0).unwrap();
        let direct =
            compute_tile_direct(&pts, &window(), kernel, 1e-9, 16, TileCoord::new(1, 0, 0));
        for (a, b) in tile.grid.values().iter().zip(direct.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_dedupes_and_aligns_output() {
        let s = server(1 << 22);
        let layer = s
            .add_layer(
                scatter(60),
                window(),
                KernelKind::Triangular.with_bandwidth(10.0),
                1e-9,
            )
            .unwrap();
        let coords = vec![
            TileCoord::new(1, 0, 0),
            TileCoord::new(1, 1, 1),
            TileCoord::new(1, 0, 0), // duplicate
            TileCoord::new(1, 1, 0),
        ];
        let tiles = s.get_tiles(layer, &coords).unwrap();
        assert_eq!(tiles.len(), 4);
        assert!(Arc::ptr_eq(&tiles[0], &tiles[2]), "duplicate shares Arc");
        for (t, c) in tiles.iter().zip(&coords) {
            assert_eq!(t.key.coord, *c);
        }
    }

    #[test]
    fn rejects_bad_requests() {
        let s = server(1 << 20);
        let layer = s
            .add_layer(
                scatter(10),
                window(),
                KernelKind::Uniform.with_bandwidth(5.0),
                1e-9,
            )
            .unwrap();
        assert!(s.get_tile(layer, 6, 0, 0).is_err(), "zoom beyond max");
        assert!(s.get_tile(layer, 2, 4, 0).is_err(), "column out of range");
        assert!(s.get_tile(layer + 1, 0, 0, 0).is_err(), "unknown layer");
        assert!(
            s.insert_points(layer, &[Point::new(-1.0, 0.0)]).is_err(),
            "outside window"
        );
        assert!(s.insert_points(layer, &[]).is_err(), "empty batch");
        assert!(
            s.add_layer(
                vec![],
                BBox::empty(),
                KernelKind::Uniform.with_bandwidth(1.0),
                1e-9
            )
            .is_err(),
            "empty window"
        );
    }

    #[test]
    fn zoom_past_the_coordinate_width_is_rejected_whatever_max_zoom_says() {
        let s = TileServer::new(TileServerConfig {
            tile_px: 4,
            max_zoom: 40,
            shards: 1,
            threads: Threads::exact(1),
            ..TileServerConfig::default()
        });
        let layer = s
            .add_layer(
                scatter(10),
                window(),
                KernelKind::Quartic.with_bandwidth(5.0),
                1e-9,
            )
            .unwrap();
        let deepest = TileCoord::MAX_ZOOM;
        assert!(s.get_tile(layer, deepest, 0, 0).is_ok(), "deepest level");
        for z in [deepest + 1, 40, u8::MAX] {
            let err = s.get_tile(layer, z, 0, 0).unwrap_err();
            assert!(
                matches!(err, LsgaError::InvalidParameter { name: "z", .. }),
                "zoom {z}: {err:?}"
            );
            assert!(s.get_tiles(layer, &[TileCoord::new(z, 0, 0)]).is_err());
        }
        assert_eq!(s.cached_tiles(), 1, "no tile cached under a bad zoom");
    }

    #[test]
    fn sustained_appends_tier_the_stack_and_keep_identity() {
        let mut pts = scatter(64);
        let s = server(1 << 22);
        let kernel = KernelKind::Quartic.with_bandwidth(10.0);
        let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
        assert_eq!(s.segment_count(layer).unwrap(), 1);
        for batch_no in 0..40 {
            let batch: Vec<Point> = (0..3)
                .map(|i| {
                    let f = (batch_no * 3 + i) as f64;
                    Point::new(
                        50.0 + (f * 0.413).sin() * 40.0,
                        50.0 + (f * 0.739).cos() * 40.0,
                    )
                })
                .collect();
            s.insert_points(layer, &batch).unwrap();
            pts.extend_from_slice(&batch);
            let n = pts.len() as f64;
            assert!(
                s.segment_count(layer).unwrap() <= n.log2() as usize + 2,
                "stack depth {} after batch {batch_no} exceeds log bound",
                s.segment_count(layer).unwrap()
            );
        }
        // Compaction has provably run (40 batches, depth stayed ≤ 9)
        // and the served bits still match the monolithic oracle.
        for (z, x, y) in [(0, 0, 0), (2, 1, 2), (4, 9, 7)] {
            let tile = s.get_tile(layer, z, x, y).unwrap();
            let direct =
                compute_tile_direct(&pts, &window(), kernel, 1e-9, 16, TileCoord::new(z, x, y));
            for (a, b) in tile.grid.values().iter().zip(direct.values()) {
                assert_eq!(a.to_bits(), b.to_bits(), "tile ({z},{x},{y})");
            }
        }
    }

    #[test]
    fn concurrent_writers_lose_no_update() {
        // Appends are serialized, so every batch commits on top of the
        // one before it: one generation per batch and every point
        // present at the end, whatever the interleaving.
        let s = server(1 << 20);
        let kernel = KernelKind::Quartic.with_bandwidth(5.0);
        let layer = s.add_layer(scatter(10), window(), kernel, 1e-9).unwrap();
        let (writers, batches) = (4, 25);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let s = &s;
                scope.spawn(move || {
                    for b in 0..batches {
                        let p = scatter(writers * batches)[w * batches + b];
                        s.insert_points(layer, &[p]).unwrap();
                    }
                });
            }
        });
        let (generation, compute) = s.layer_state(layer).unwrap();
        assert_eq!(generation, (writers * batches) as u64);
        assert_eq!(compute.halo_points(window()), 10 + writers * batches);
    }

    #[test]
    fn eviction_pressure_never_breaks_identity() {
        let pts = scatter(120);
        let kernel = KernelKind::Epanechnikov.with_bandwidth(9.0);
        // Budget fits ~2 tiles: nearly every request recomputes.
        let s = server(2 * (16 * 16 * 8 + 128));
        let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
        for pass in 0..3 {
            for x in 0..4 {
                for y in 0..4 {
                    let tile = s.get_tile(layer, 2, x, y).unwrap();
                    let direct = compute_tile_direct(
                        &pts,
                        &window(),
                        kernel,
                        1e-9,
                        16,
                        TileCoord::new(2, x, y),
                    );
                    for (a, b) in tile.grid.values().iter().zip(direct.values()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "pass {pass} tile ({x},{y})");
                    }
                }
            }
        }
    }
}
