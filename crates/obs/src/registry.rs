//! The counter / histogram registry: a fixed set of named work
//! counters backed by relaxed atomics.
//!
//! A fixed enum (not a string-keyed map) keeps the enabled fast path
//! at one array index plus one relaxed `fetch_add`, and keeps the
//! crate dependency-free. Counts are integers, so accumulation
//! commutes: any counter fed a thread-count-invariant quantity reads
//! identically for every `LSGA_THREADS`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Work counters the algorithm crates bump. Each counts a quantity
/// that is a pure function of the input (never of thread count or
/// timing), except the `Dist*` counters which mirror the seeded —
/// hence equally deterministic — fault schedule, and the `Serve*`
/// counters which mirror cache dynamics: hit/miss/eviction totals are
/// deterministic for a fixed request sequence, but coalesced waits and
/// stale discards depend on genuine request concurrency (they count
/// how often the serving layer saved work, not how much algorithmic
/// work was done).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Point–pixel kernel evaluations across all KDV variants.
    KdvPairs,
    /// Candidate grid cells skipped (empty, or serving no pixel) by
    /// the pruned KDV row sweep.
    KdvCellsPruned,
    /// Point pairs examined across all K-function variants.
    KfuncPairs,
    /// Sample–query weight evaluations across IDW and kriging.
    InterpPairs,
    /// Weighted cross-products across Moran / Getis-Ord / LISA.
    StatsPairs,
    /// Neighbour-list entries gathered by DBSCAN ε-queries.
    StatsNeighbors,
    /// Candidate entries scanned inside bucket-grid queries.
    IndexEntriesScanned,
    /// Tree nodes visited by kd-tree queries (range + knn).
    IndexNodesVisited,
    /// Ordinary-kriging linear systems solved.
    KrigingSolves,
    /// Non-finite intermediates detected **and repaired** (IDW weight
    /// overflow, kriging weight blow-up). Zero on every
    /// well-conditioned input — `tests/finiteness.rs` asserts it.
    NumericAnomalies,
    /// Failed attempts the dist supervisor retried.
    DistRetries,
    /// Per-task deadlines that fired in the dist supervisor.
    DistTimeouts,
    /// Halo re-shipments during recovery.
    DistReshipments,
    /// Bytes those re-shipments cost.
    DistReshippedBytes,
    /// Tile requests answered straight from the serving cache.
    ServeCacheHits,
    /// Tile requests that missed the cache.
    ServeCacheMisses,
    /// Tiles actually computed by the serving layer (one per
    /// single-flight group, however many requests coalesced onto it).
    ServeTilesComputed,
    /// Requests that waited on another request's in-flight computation
    /// instead of recomputing (single-flight coalescing).
    ServeCoalescedWaits,
    /// Tiles evicted by the byte-budgeted LRU (explicit cache clears
    /// included).
    ServeTilesEvicted,
    /// Cached tiles dropped because an append intersected their
    /// kernel-support-inflated bounding box.
    ServeTilesInvalidated,
    /// Computed tiles discarded instead of cached because the layer
    /// changed while they were being computed.
    ServeStaleDiscards,
    /// Tiles served at a degraded (ε-guaranteed approximate) quality
    /// tier because the admission controller judged the exact queue
    /// too deep for the request's deadline. Counts fresh degraded
    /// computes only; a degraded tile served again from the cache is a
    /// regular `serve.cache_hits`.
    ServeDegradedTiles,
    /// Background refinements that committed: a cached degraded tile
    /// upgraded to the exact, bit-identical one.
    ServeRefinedTiles,
    /// Refinement tasks dropped without committing — the layer
    /// generation moved under them (like stale flights), the cache
    /// entry was already exact, or the bounded queue overflowed.
    ServeRefineDiscards,
    /// Append segments built by the ingest path — exactly one per
    /// committed KDV `insert_points` batch (a server runs one append at
    /// a time, and a validated append always commits).
    IngestSegmentsCreated,
    /// Segments consumed by tier compactions (a k-way merge counts k).
    IngestSegmentsMerged,
    /// Bytes of segment payload (points + entry permutation + the
    /// entry-ordered coordinate columns) rewritten by tier compactions.
    IngestMergeBytes,
    /// Points appended across all `insert_points` batches.
    IngestPointsAppended,
    /// TCP connections accepted by the HTTP front-end's acceptors.
    HttpConnsAccepted,
    /// Requests a worker pulled off its queue and handled (malformed
    /// ones included — every parse attempt counts).
    HttpRequests,
    /// HTTP responses written with a 2xx status.
    HttpResponses2xx,
    /// HTTP responses written with a 4xx status (malformed requests,
    /// unknown routes/layers, out-of-pyramid coordinates).
    HttpResponses4xx,
    /// HTTP responses written with a 5xx status (queue-full 503s and
    /// shutdown sheds included).
    HttpResponses5xx,
    /// Connections refused with `503 + Retry-After` because every
    /// bounded worker queue was full at accept time.
    HttpQueueRejections,
    /// Queued-but-unstarted connections answered `503` during graceful
    /// shutdown (in-flight requests complete instead).
    HttpShedShutdown,
    /// Response bytes written to sockets (status line + headers + body).
    HttpBytesOut,
    /// Tile requests routed by the cluster front to an owner node
    /// (every routed `get_tile`/`get_tiles` element counts one).
    ClusterRoutedRequests,
    /// Per-node invalidation deliveries: one per *alive* node for each
    /// cluster `insert_points` broadcast.
    ClusterInvalidationsBroadcast,
    /// Simulated node deaths observed by the cluster planner (a node
    /// killed by several faults still dies once).
    ClusterNodeDeaths,
    /// Tiles whose serving re-homed from a dead owner to a survivor.
    ClusterTilesRehomed,
    /// Bytes of halo data re-shipped to the adopting node for each
    /// re-homed tile (`points_in_inflated_bbox × BYTES_PER_POINT`).
    ClusterReshippedBytes,
    /// `serve.tiles_computed` restricted to KDV layers. The per-kind
    /// quartet always sums to the aggregate counter.
    ServeKdvTilesComputed,
    /// `serve.tiles_computed` restricted to STKDV layers.
    ServeStkdvTilesComputed,
    /// `serve.tiles_computed` restricted to NKDV layers.
    ServeNkdvTilesComputed,
    /// `serve.tiles_computed` restricted to Gi*/LISA hotspot layers.
    ServeHotspotTilesComputed,
    /// `serve.tiles_invalidated` restricted to KDV layers.
    ServeKdvTilesInvalidated,
    /// `serve.tiles_invalidated` restricted to STKDV layers.
    ServeStkdvTilesInvalidated,
    /// `serve.tiles_invalidated` restricted to NKDV layers.
    ServeNkdvTilesInvalidated,
    /// `serve.tiles_invalidated` restricted to hotspot layers.
    ServeHotspotTilesInvalidated,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 49] = [
        Counter::KdvPairs,
        Counter::KdvCellsPruned,
        Counter::KfuncPairs,
        Counter::InterpPairs,
        Counter::StatsPairs,
        Counter::StatsNeighbors,
        Counter::IndexEntriesScanned,
        Counter::IndexNodesVisited,
        Counter::KrigingSolves,
        Counter::NumericAnomalies,
        Counter::DistRetries,
        Counter::DistTimeouts,
        Counter::DistReshipments,
        Counter::DistReshippedBytes,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeTilesComputed,
        Counter::ServeCoalescedWaits,
        Counter::ServeTilesEvicted,
        Counter::ServeTilesInvalidated,
        Counter::ServeStaleDiscards,
        Counter::ServeDegradedTiles,
        Counter::ServeRefinedTiles,
        Counter::ServeRefineDiscards,
        Counter::IngestSegmentsCreated,
        Counter::IngestSegmentsMerged,
        Counter::IngestMergeBytes,
        Counter::IngestPointsAppended,
        Counter::HttpConnsAccepted,
        Counter::HttpRequests,
        Counter::HttpResponses2xx,
        Counter::HttpResponses4xx,
        Counter::HttpResponses5xx,
        Counter::HttpQueueRejections,
        Counter::HttpShedShutdown,
        Counter::HttpBytesOut,
        Counter::ClusterRoutedRequests,
        Counter::ClusterInvalidationsBroadcast,
        Counter::ClusterNodeDeaths,
        Counter::ClusterTilesRehomed,
        Counter::ClusterReshippedBytes,
        Counter::ServeKdvTilesComputed,
        Counter::ServeStkdvTilesComputed,
        Counter::ServeNkdvTilesComputed,
        Counter::ServeHotspotTilesComputed,
        Counter::ServeKdvTilesInvalidated,
        Counter::ServeStkdvTilesInvalidated,
        Counter::ServeNkdvTilesInvalidated,
        Counter::ServeHotspotTilesInvalidated,
    ];

    /// Stable dotted name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::KdvPairs => "kdv.pairs_evaluated",
            Counter::KdvCellsPruned => "kdv.cells_pruned",
            Counter::KfuncPairs => "kfunc.pairs_evaluated",
            Counter::InterpPairs => "interp.pairs_evaluated",
            Counter::StatsPairs => "stats.pairs_evaluated",
            Counter::StatsNeighbors => "stats.neighbors_gathered",
            Counter::IndexEntriesScanned => "index.entries_scanned",
            Counter::IndexNodesVisited => "index.nodes_visited",
            Counter::KrigingSolves => "interp.kriging_solves",
            Counter::NumericAnomalies => "numeric.anomalies_repaired",
            Counter::DistRetries => "dist.retries",
            Counter::DistTimeouts => "dist.timeouts",
            Counter::DistReshipments => "dist.halo_reshipments",
            Counter::DistReshippedBytes => "dist.reshipped_bytes",
            Counter::ServeCacheHits => "serve.cache_hits",
            Counter::ServeCacheMisses => "serve.cache_misses",
            Counter::ServeTilesComputed => "serve.tiles_computed",
            Counter::ServeCoalescedWaits => "serve.coalesced_waits",
            Counter::ServeTilesEvicted => "serve.tiles_evicted",
            Counter::ServeTilesInvalidated => "serve.tiles_invalidated",
            Counter::ServeStaleDiscards => "serve.stale_discards",
            Counter::ServeDegradedTiles => "serve.degraded_tiles",
            Counter::ServeRefinedTiles => "serve.refined_tiles",
            Counter::ServeRefineDiscards => "serve.refine_discards",
            Counter::IngestSegmentsCreated => "ingest.segments_created",
            Counter::IngestSegmentsMerged => "ingest.segments_merged",
            Counter::IngestMergeBytes => "ingest.merge_bytes",
            Counter::IngestPointsAppended => "ingest.points_appended",
            Counter::HttpConnsAccepted => "http.connections_accepted",
            Counter::HttpRequests => "http.requests",
            Counter::HttpResponses2xx => "http.responses_2xx",
            Counter::HttpResponses4xx => "http.responses_4xx",
            Counter::HttpResponses5xx => "http.responses_5xx",
            Counter::HttpQueueRejections => "http.queue_rejections",
            Counter::HttpShedShutdown => "http.shed_on_shutdown",
            Counter::HttpBytesOut => "http.bytes_out",
            Counter::ClusterRoutedRequests => "cluster.routed_requests",
            Counter::ClusterInvalidationsBroadcast => "cluster.invalidations_broadcast",
            Counter::ClusterNodeDeaths => "cluster.node_deaths",
            Counter::ClusterTilesRehomed => "cluster.tiles_rehomed",
            Counter::ClusterReshippedBytes => "cluster.reshipped_bytes",
            Counter::ServeKdvTilesComputed => "serve.tiles_computed{kind=kdv}",
            Counter::ServeStkdvTilesComputed => "serve.tiles_computed{kind=stkdv}",
            Counter::ServeNkdvTilesComputed => "serve.tiles_computed{kind=nkdv}",
            Counter::ServeHotspotTilesComputed => "serve.tiles_computed{kind=hotspot}",
            Counter::ServeKdvTilesInvalidated => "serve.tiles_invalidated{kind=kdv}",
            Counter::ServeStkdvTilesInvalidated => "serve.tiles_invalidated{kind=stkdv}",
            Counter::ServeNkdvTilesInvalidated => "serve.tiles_invalidated{kind=nkdv}",
            Counter::ServeHotspotTilesInvalidated => "serve.tiles_invalidated{kind=hotspot}",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

#[allow(clippy::declare_interior_mutable_const)] // array-init idiom
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];

/// Add `n` to a counter (no-op while the collector is disabled).
#[inline]
pub fn add(c: Counter, n: u64) {
    if crate::enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Add one (no-op while disabled).
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Current value of a counter (0 while nothing was recorded).
pub fn counter_value(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

/// Histograms over per-item sizes, log₂-bucketed: bucket `b` holds
/// values in `[2^(b−1)+1 … 2^b]` with bucket 0 holding `{0, 1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Rows+columns of each ordinary-kriging system (`k + 1`).
    KrigingSystemSize,
    /// Neighbours returned per DBSCAN ε-query.
    DbscanNeighborsPerQuery,
    /// Attempts per supervised dist tile (1 on the happy path).
    DistTileAttempts,
    /// Unique tiles per batched multi-tile request, after dedup.
    ServeBatchUniqueTiles,
    /// Layer segment-stack depth observed after each committed append
    /// (the tier invariant keeps this logarithmic in layer size).
    IngestSegmentCount,
    /// Estimated exact-path response time (µs) observed by each
    /// deadline-checked admission decision: `(inflight + 1) × EWMA`
    /// of recent exact tile computes.
    ServeQueueWait,
    /// Connections resident in the chosen worker's bounded queue at
    /// each successful enqueue (depth after the push).
    HttpQueueDepth,
    /// Tiles adopted per surviving node in each re-home pass (how
    /// evenly a dead node's range spreads over the survivors).
    ClusterRehomeBatch,
}

impl Hist {
    /// Every histogram, in export order.
    pub const ALL: [Hist; 8] = [
        Hist::KrigingSystemSize,
        Hist::DbscanNeighborsPerQuery,
        Hist::DistTileAttempts,
        Hist::ServeBatchUniqueTiles,
        Hist::IngestSegmentCount,
        Hist::ServeQueueWait,
        Hist::HttpQueueDepth,
        Hist::ClusterRehomeBatch,
    ];

    /// Stable dotted name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Hist::KrigingSystemSize => "interp.kriging_system_size",
            Hist::DbscanNeighborsPerQuery => "stats.dbscan_neighbors_per_query",
            Hist::DistTileAttempts => "dist.tile_attempts",
            Hist::ServeBatchUniqueTiles => "serve.batch_unique_tiles",
            Hist::IngestSegmentCount => "ingest.segment_count",
            Hist::ServeQueueWait => "serve.queue_wait",
            Hist::HttpQueueDepth => "http.queue_depth",
            Hist::ClusterRehomeBatch => "cluster.rehome_batch",
        }
    }
}

const N_HISTS: usize = Hist::ALL.len();
/// log₂ buckets cover the full `u64` range.
const N_BUCKETS: usize = 64;

struct HistSlot {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-init idiom
const EMPTY_SLOT: HistSlot = HistSlot {
    buckets: [ZERO; N_BUCKETS],
    count: ZERO,
    sum: ZERO,
};
static HISTS: [HistSlot; N_HISTS] = [EMPTY_SLOT; N_HISTS];

#[inline]
fn bucket_of(value: u64) -> usize {
    // 0 and 1 land in bucket 0; 2^(b-1)+1 ..= 2^b in bucket b; the
    // top bucket absorbs everything past 2^63.
    ((64 - value.saturating_sub(1).leading_zeros()) as usize).min(N_BUCKETS - 1)
}

/// Record one observation into a histogram (no-op while disabled).
#[inline]
pub fn record(h: Hist, value: u64) {
    if crate::enabled() {
        let slot = &HISTS[h as usize];
        slot.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub name: &'static str,
    pub count: u64,
    pub sum: u64,
    /// `(bucket_upper_bound, count)` for non-empty buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Copy-and-reset every counter, returning `(name, value)` pairs in
/// [`Counter::ALL`] order.
pub(crate) fn take_counters() -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .map(|c| (c.name(), COUNTERS[*c as usize].swap(0, Ordering::Relaxed)))
        .collect()
}

/// Copy-and-reset every histogram.
pub(crate) fn take_hists() -> Vec<HistSnapshot> {
    Hist::ALL
        .iter()
        .map(|h| {
            let slot = &HISTS[*h as usize];
            let mut buckets = Vec::new();
            for (b, cell) in slot.buckets.iter().enumerate() {
                let n = cell.swap(0, Ordering::Relaxed);
                if n > 0 {
                    let hi = if b == 0 { 1 } else { 1u64 << b.min(63) };
                    buckets.push((hi, n));
                }
            }
            HistSnapshot {
                name: h.name(),
                count: slot.count.swap(0, Ordering::Relaxed),
                sum: slot.sum.swap(0, Ordering::Relaxed),
                buckets,
            }
        })
        .collect()
}

/// Zero every counter and histogram.
pub(crate) fn reset() {
    let _ = take_counters();
    let _ = take_hists();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(9), 4);
        assert_eq!(bucket_of(1u64 << 62), 62);
        assert_eq!(bucket_of(u64::MAX), 63); // clamped into the top bucket
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn hist_records_gated_and_aggregated() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::enable();
        for v in [1u64, 1, 4, 9] {
            record(Hist::KrigingSystemSize, v);
        }
        let snap = crate::drain();
        crate::disable();
        let h = snap
            .histograms()
            .iter()
            .find(|h| h.name == "interp.kriging_system_size")
            .unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 15);
        assert_eq!(h.buckets, vec![(1, 2), (4, 1), (16, 1)]);
        assert!((h.mean() - 3.75).abs() < 1e-12);
    }
}
