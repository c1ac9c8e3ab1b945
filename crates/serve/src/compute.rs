//! The analytic behind a layer: the [`TileCompute`] trait and its four
//! implementations (KDV, STKDV, NKDV, Gi*/LISA hotspots).
//!
//! PRs 5–9 built the serving machinery — sharded cache, single-flight,
//! LSM ingest with support-inflated invalidation, quality tiers, HTTP,
//! cluster re-homing — for exactly one analytic. The paper's product
//! surface (Table 1) is a *suite*: animated STKDV heatmaps, network
//! NKDV, and Gi*/LISA hot-spot maps sit beside plain KDV. This module
//! generalizes the server over an object-safe trait so every one of
//! those analytics flows through the *unchanged* cache / flight /
//! invalidation / tier code paths.
//!
//! # The trait contract
//!
//! A [`TileCompute`] is an **immutable snapshot** of one layer's state.
//! Three obligations make the serving invariants carry over:
//!
//! 1. **Pure, bit-stable compute.** [`TileCompute::compute`] must be a
//!    pure function of `(layer state, spec, bin)` — same bits on every
//!    call, for every thread count. Each implementation below
//!    discharges this with a fixed fold order (see the per-kind notes).
//! 2. **Sound dirty regions.** [`TileCompute::append`] returns a
//!    [`DirtyRegion`] that *over-approximates* every tile whose bits
//!    the batch can change. A cached tile outside the region is
//!    provably still exact, so the server's sweep-on-append coherence
//!    argument (see [`crate::server`]) holds verbatim per kind.
//! 3. **Append = successor snapshot.** Appends never mutate; one
//!    [`TileCompute::append`] call validates the batch and builds the
//!    successor compute. The server runs one append at a time and
//!    always commits its result, so each batch is validated, indexed
//!    and accounted exactly once.
//!
//! Two capabilities are optional and default to `None`:
//! [`TileCompute::degrade`], the degraded tier a rejected deadline
//! request is served (only KDV has one: Eq. 7 sampling and Eq. 6
//! bounds are KDV approximations; other kinds serve such a request
//! exactly), and [`TileCompute::segment_depth`], the depth of KDV's
//! index segment stack.
//!
//! # Per-kind bit-identity
//!
//! * **KDV** ([`KdvCompute`]) — byte-for-byte the pre-trait path:
//!   `grid_pruned_kdv_segmented` over the same [`SegmentedGrid`] stack,
//!   same fixed window decomposition. Refactoring onto the trait moves
//!   fields, not floats; the pinned golden digests prove it.
//! * **STKDV** ([`StkdvCompute`]) — [`lsga_kdv::stkdv_sweep_threads`]
//!   over the layer's point sequence; the function is documented (and
//!   property-tested) bit-identical across thread counts, and the tile
//!   is one time slice of that cube. The tile key's `bin` selects the
//!   slice.
//! * **NKDV** ([`NkdvCompute`]) — [`lsga_kdv::nkdv_forward`] once per
//!   snapshot (events in insertion order), then a deterministic
//!   lixel-order rasterization ([`rasterize_lixel_values`]).
//! * **Hotspots** ([`HotspotCompute`]) — quadrat counts on a fixed
//!   cell grid, `distance_band` weights over the cell centres, then
//!   Gi* or LISA per cell (both thread-invariant); tiles resample the
//!   per-cell overlay ([`resample_overlay`]).
//!
//! The oracle helpers ([`rasterize_lixel_values`], [`hotspot_overlay`],
//! [`resample_overlay`], [`nkdv_snap_index`], [`snap_batch`]) are `pub`
//! on purpose: the coherence tests call the *same* functions the server
//! does, so "bit-identical to the direct compute" is checked against
//! shared code, not a reimplementation that could drift.

use lsga_core::error::{LsgaError, Result};
use lsga_core::par::Threads;
use lsga_core::{AnyKernel, BBox, DensityGrid, GridSpec, Kernel, Point, PolyKernel, TimedPoint};
use lsga_index::{GridIndex, SegmentedGrid};
use lsga_kdv::{
    grid_pruned_kdv_segmented, nkdv_forward, sampling_kdv_segmented, stkdv_sweep_threads,
    validate_nkdv_inputs, BoundsKdv, NetworkDensity,
};
use lsga_network::{EdgePosition, Lixels, RoadNetwork, SegmentIndex};
use lsga_obs::{self as obs, Counter, Hist};
use lsga_stats::{local_gi_star_threads, local_morans_i_threads, SpatialWeights};
use std::sync::{Arc, OnceLock};

use crate::policy::{ApproxMode, QualityPolicy, TileTier};
use crate::segment::compact_tiers;

/// Stable discriminant of a layer's analytic. Part of the cache key
/// (via the layer id → kind binding), the HTTP URL path, and the
/// per-kind `serve.*{kind=…}` counter labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Planar kernel density (the original pyramid).
    Kdv,
    /// Spatiotemporal KDV; tile keys carry a time-bin dimension.
    Stkdv,
    /// Network-constrained KDV rasterized from lixels.
    Nkdv,
    /// Gi* / LISA hot-spot overlay over grid-aggregated counts.
    Hotspot,
}

impl LayerKind {
    /// Every kind, in registration/display order.
    pub const ALL: [LayerKind; 4] = [
        LayerKind::Kdv,
        LayerKind::Stkdv,
        LayerKind::Nkdv,
        LayerKind::Hotspot,
    ];

    /// Stable lowercase name — the HTTP path segment and the obs label.
    /// Deliberately non-numeric, so a URL that puts a number where the
    /// kind belongs can never parse as a kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LayerKind::Kdv => "kdv",
            LayerKind::Stkdv => "stkdv",
            LayerKind::Nkdv => "nkdv",
            LayerKind::Hotspot => "hotspot",
        }
    }

    /// Inverse of [`name`](Self::name); `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<LayerKind> {
        LayerKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// `serve.tiles_computed{kind=…}` counter for this kind.
    #[must_use]
    pub fn computed_counter(self) -> Counter {
        match self {
            LayerKind::Kdv => Counter::ServeKdvTilesComputed,
            LayerKind::Stkdv => Counter::ServeStkdvTilesComputed,
            LayerKind::Nkdv => Counter::ServeNkdvTilesComputed,
            LayerKind::Hotspot => Counter::ServeHotspotTilesComputed,
        }
    }

    /// `serve.tiles_invalidated{kind=…}` counter for this kind.
    #[must_use]
    pub fn invalidated_counter(self) -> Counter {
        match self {
            LayerKind::Kdv => Counter::ServeKdvTilesInvalidated,
            LayerKind::Stkdv => Counter::ServeStkdvTilesInvalidated,
            LayerKind::Nkdv => Counter::ServeNkdvTilesInvalidated,
            LayerKind::Hotspot => Counter::ServeHotspotTilesInvalidated,
        }
    }
}

/// One append batch, as handed to the server's insert entry points.
/// Spatial-only layers take `Planar`; STKDV layers take `Timed`.
#[derive(Clone, Copy)]
pub enum AppendBatch<'a> {
    /// `(x, y)` points (KDV, NKDV — snapped to the network — and
    /// hotspot layers).
    Planar(&'a [Point]),
    /// `(x, y, t)` points (STKDV layers).
    Timed(&'a [TimedPoint]),
}

impl AppendBatch<'_> {
    /// Number of points in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            AppendBatch::Planar(p) => p.len(),
            AppendBatch::Timed(p) => p.len(),
        }
    }

    /// True for a zero-point batch.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The set of tile keys an append may have dirtied — always an
/// over-approximation, never an under-approximation (soundness is what
/// the coherence proptests check).
#[derive(Debug, Clone, Copy)]
pub enum DirtyRegion {
    /// Every tile of the layer (hotspot appends shift the global mean
    /// and variance, so no tile's bits are safe).
    All,
    /// Tiles whose bbox intersects this support-inflated box. For NKDV
    /// the box is inflated around the *snapped* event positions; the
    /// network distance dominates the Euclidean one, so the planar
    /// inflation covers every lixel within kernel reach.
    Planar(BBox),
    /// STKDV: tiles whose bbox intersects `bbox` **and** whose bin
    /// centre lies in `[t_lo, t_hi]` (batch time range inflated by the
    /// temporal bandwidth).
    SpaceTime { bbox: BBox, t_lo: f64, t_hi: f64 },
}

/// Result of appending a batch to a snapshot: the successor compute
/// and the tiles the batch dirtied.
pub struct AppliedAppend {
    /// The successor snapshot state.
    pub next: Arc<dyn TileCompute>,
    /// Over-approximation of the dirtied tile keys.
    pub dirty: DirtyRegion,
}

/// An immutable snapshot of one layer's analytic state. See the module
/// docs for the three obligations (pure compute, sound dirty regions,
/// append-as-successor) that let the serving machinery stay unchanged.
pub trait TileCompute: Send + Sync {
    /// The stable analytic discriminant.
    fn kind(&self) -> LayerKind;

    /// The fixed pyramid window (also the index frame appends reuse).
    fn window(&self) -> BBox;

    /// Number of time bins; spatial-only analytics have exactly 1.
    fn time_bins(&self) -> u32 {
        1
    }

    /// Centre time of `bin` (meaningful only when `time_bins() > 1`).
    fn bin_time(&self, _bin: u32) -> f64 {
        0.0
    }

    /// Rasterize the tile at `spec` for time bin `bin`. Must be a pure
    /// function of the snapshot — same bits for every call, cache
    /// state, and thread count.
    fn compute(&self, spec: GridSpec, bin: u32) -> DensityGrid;

    /// Validate `batch` and build the successor snapshot with it
    /// appended. An error rejects the whole append before any state
    /// changes; on success the server always commits the result.
    fn append(&self, batch: AppendBatch<'_>, threads: Threads) -> Result<AppliedAppend>;

    /// Records whose planar position lies in `tile_bbox` inflated by
    /// the layer's own support — the halo a node needs to serve the
    /// tile, which the cluster's re-homing planner weighs shipments by.
    fn halo_points(&self, tile_bbox: BBox) -> usize;

    /// A degraded raster of the tile at `spec` under `policy`'s
    /// approximation mode, stamped with its tier; `None` if this
    /// analytic has none, and a rejected deadline request is served
    /// exactly.
    fn degrade(&self, _spec: GridSpec, _policy: &QualityPolicy) -> Option<(DensityGrid, TileTier)> {
        None
    }

    /// Depth of the layer's index segment stack, if it keeps one.
    fn segment_depth(&self) -> Option<usize> {
        None
    }
}

fn validate_finite_in_window(points: &[Point], window: &BBox) -> Result<()> {
    for (i, p) in points.iter().enumerate() {
        if !(p.x.is_finite() && p.y.is_finite()) {
            return Err(LsgaError::InvalidParameter {
                name: "points",
                message: format!("point {i} is non-finite: ({}, {})", p.x, p.y),
            });
        }
        if !window.contains(p) {
            return Err(LsgaError::InvalidParameter {
                name: "points",
                message: format!("point {i} ({}, {}) lies outside the layer window", p.x, p.y),
            });
        }
    }
    Ok(())
}

fn count_in(points: impl Iterator<Item = Point>, halo: BBox) -> usize {
    points.filter(|p| halo.contains(p)).count()
}

// ---------------------------------------------------------------------
// KDV
// ---------------------------------------------------------------------

/// The original planar-KDV layer state, moved field-for-field out of
/// the pre-trait `LayerSnapshot`. Compute, ingest, and the degraded
/// tiers all run the exact code they ran before the trait existed.
pub struct KdvCompute {
    window: BBox,
    kernel: AnyKernel,
    tail_eps: f64,
    /// Kernel effective radius at `tail_eps` — the invalidation
    /// inflation margin and the index cell size.
    radius: f64,
    segments: SegmentedGrid,
    /// Lazily built Eq. 6 kd-tree for `ApproxMode::Bounds` degraded
    /// serves; per-snapshot, so an append naturally invalidates it.
    bounds: OnceLock<BoundsKdv>,
}

impl KdvCompute {
    /// Generation-zero state: the registration points become the
    /// stack's base segment.
    pub fn new(points: &[Point], window: BBox, kernel: AnyKernel, tail_eps: f64) -> Result<Self> {
        if window.is_empty() {
            return Err(LsgaError::InvalidParameter {
                name: "window",
                message: "layer window must be non-empty".into(),
            });
        }
        if !(tail_eps.is_finite() && tail_eps > 0.0) {
            return Err(LsgaError::InvalidParameter {
                name: "tail_eps",
                message: format!("tail_eps must be finite and positive, got {tail_eps}"),
            });
        }
        validate_finite_in_window(points, &window)?;
        let radius = kernel.effective_radius(tail_eps);
        let index = GridIndex::with_bbox(points, radius.max(1e-12), window);
        Ok(KdvCompute {
            window,
            kernel,
            tail_eps,
            radius,
            segments: SegmentedGrid::single(index),
            bounds: OnceLock::new(),
        })
    }

    /// The Eq. 6 index over this snapshot's logical point sequence.
    fn bounds_index(&self) -> &BoundsKdv {
        self.bounds
            .get_or_init(|| BoundsKdv::new(&self.segments.collect_points()))
    }
}

impl TileCompute for KdvCompute {
    fn kind(&self) -> LayerKind {
        LayerKind::Kdv
    }

    fn window(&self) -> BBox {
        self.window
    }

    fn compute(&self, spec: GridSpec, _bin: u32) -> DensityGrid {
        grid_pruned_kdv_segmented(&self.segments, spec, self.kernel, self.tail_eps)
    }

    /// Indexes the batch as one new segment (window, kernel and
    /// tail_eps are fixed at registration, so its geometry is valid for
    /// every later generation), then runs tier compaction.
    fn append(&self, batch: AppendBatch<'_>, threads: Threads) -> Result<AppliedAppend> {
        let AppendBatch::Planar(points) = batch else {
            return Err(LsgaError::InvalidParameter {
                name: "batch",
                message: "kdv layers take planar points, not timed points".into(),
            });
        };
        validate_finite_in_window(points, &self.window)?;
        let mut segs: Vec<Arc<GridIndex>> = self.segments.segments().to_vec();
        segs.push(Arc::new(GridIndex::with_bbox(
            points,
            self.radius.max(1e-12),
            self.window,
        )));
        obs::incr(Counter::IngestSegmentsCreated);
        let stats = compact_tiers(&mut segs, threads);
        if stats.merged_segments > 0 {
            obs::add(Counter::IngestSegmentsMerged, stats.merged_segments as u64);
            obs::add(Counter::IngestMergeBytes, stats.merged_bytes() as u64);
        }
        obs::record(Hist::IngestSegmentCount, segs.len() as u64);
        Ok(AppliedAppend {
            next: Arc::new(KdvCompute {
                segments: SegmentedGrid::from_segments(segs),
                bounds: OnceLock::new(),
                ..*self
            }),
            dirty: DirtyRegion::Planar(BBox::of_points(points).inflate(self.radius)),
        })
    }

    fn halo_points(&self, tile_bbox: BBox) -> usize {
        let halo = tile_bbox.inflate(self.radius);
        self.segments
            .segments()
            .iter()
            .map(|s| count_in(s.points().iter().copied(), halo))
            .sum()
    }

    /// Eq. 7 seeded sampling or the Eq. 6 bound-refined kd-tree, as
    /// the policy asks; see [`TileTier`] for what each stamp promises.
    fn degrade(&self, spec: GridSpec, policy: &QualityPolicy) -> Option<(DensityGrid, TileTier)> {
        let _span = obs::span("serve.degraded_tile");
        Some(match policy.mode() {
            ApproxMode::Sampling { eps, delta, seed } => {
                let n = self.segments.total_len();
                let m = policy.sample_size();
                (
                    sampling_kdv_segmented(&self.segments, spec, self.kernel, m, seed),
                    TileTier::Sampled {
                        eps,
                        delta,
                        seed,
                        sample_size: m.min(n),
                        n,
                    },
                )
            }
            ApproxMode::Bounds { eps } => (
                self.bounds_index().compute(spec, self.kernel, eps),
                TileTier::Bounds { eps },
            ),
        })
    }

    fn segment_depth(&self) -> Option<usize> {
        Some(self.segments.depth())
    }
}

// ---------------------------------------------------------------------
// STKDV
// ---------------------------------------------------------------------

/// Spatiotemporal KDV layer: a fixed `[t_min, t_max]` range split into
/// `nt` bins; each tile key's `bin` selects one slice of the
/// [`lsga_kdv::stkdv_sweep_threads`] cube evaluated at the tile's spec.
pub struct StkdvCompute {
    window: BBox,
    spatial: AnyKernel,
    temporal: PolyKernel,
    tail_eps: f64,
    /// Spatial kernel support — the planar half of the dirty region.
    radius: f64,
    t_min: f64,
    t_max: f64,
    nt: usize,
    /// The layer's point sequence, registration order then append
    /// order — the fold order `stkdv_sweep_threads` consumes.
    points: Vec<TimedPoint>,
}

impl StkdvCompute {
    /// Register an STKDV layer over a fixed window and time range.
    #[allow(clippy::too_many_arguments)] // mirrors the analytic's parameters
    pub fn new(
        points: &[TimedPoint],
        window: BBox,
        spatial: AnyKernel,
        temporal: PolyKernel,
        t_min: f64,
        t_max: f64,
        nt: usize,
        tail_eps: f64,
    ) -> Result<Self> {
        if window.is_empty() {
            return Err(LsgaError::InvalidParameter {
                name: "window",
                message: "layer window must be non-empty".into(),
            });
        }
        if !(tail_eps.is_finite() && tail_eps > 0.0) {
            return Err(LsgaError::InvalidParameter {
                name: "tail_eps",
                message: format!("tail_eps must be finite and positive, got {tail_eps}"),
            });
        }
        if !(t_min.is_finite() && t_max.is_finite() && t_max >= t_min) {
            return Err(LsgaError::InvalidParameter {
                name: "t_range",
                message: format!("invalid time range [{t_min}, {t_max}]"),
            });
        }
        if nt == 0 || nt > u32::MAX as usize {
            return Err(LsgaError::InvalidParameter {
                name: "nt",
                message: format!("need 1..=u32::MAX time bins, got {nt}"),
            });
        }
        let me = StkdvCompute {
            window,
            spatial,
            temporal,
            tail_eps,
            radius: spatial.effective_radius(tail_eps),
            t_min,
            t_max,
            nt,
            points: Vec::new(),
        };
        me.validate_timed(points)?;
        Ok(StkdvCompute {
            points: points.to_vec(),
            ..me
        })
    }

    fn validate_timed(&self, points: &[TimedPoint]) -> Result<()> {
        for (i, p) in points.iter().enumerate() {
            if !(p.point.x.is_finite() && p.point.y.is_finite() && p.t.is_finite()) {
                return Err(LsgaError::InvalidParameter {
                    name: "points",
                    message: format!("timed point {i} is non-finite"),
                });
            }
            if !self.window.contains(&p.point) {
                return Err(LsgaError::InvalidParameter {
                    name: "points",
                    message: format!("timed point {i} lies outside the layer window"),
                });
            }
            if p.t < self.t_min || p.t > self.t_max {
                return Err(LsgaError::InvalidParameter {
                    name: "points",
                    message: format!(
                        "timed point {i} at t={} outside the layer range [{}, {}]",
                        p.t, self.t_min, self.t_max
                    ),
                });
            }
        }
        Ok(())
    }
}

impl TileCompute for StkdvCompute {
    fn kind(&self) -> LayerKind {
        LayerKind::Stkdv
    }

    fn window(&self) -> BBox {
        self.window
    }

    fn time_bins(&self) -> u32 {
        self.nt as u32
    }

    fn bin_time(&self, bin: u32) -> f64 {
        // Same arithmetic as `SpaceTimeGrid::zeros`, so the dirty-range
        // check sees exactly the slice centres the cube evaluates at.
        let dt = (self.t_max - self.t_min) / self.nt as f64;
        self.t_min + (f64::from(bin) + 0.5) * dt
    }

    fn compute(&self, spec: GridSpec, bin: u32) -> DensityGrid {
        // The full sweep is thread-invariant (row slabs written back in
        // row order), so the oracle may call it with any `Threads`;
        // inside a tile compute we stay single-threaded because the
        // batch path already parallelizes across tiles.
        let cube = stkdv_sweep_threads(
            &self.points,
            spec,
            self.t_min,
            self.t_max,
            self.nt,
            self.spatial,
            self.temporal,
            self.tail_eps,
            Threads::exact(1),
        );
        cube.slice(bin as usize)
    }

    fn append(&self, batch: AppendBatch<'_>, _threads: Threads) -> Result<AppliedAppend> {
        let AppendBatch::Timed(batch) = batch else {
            return Err(LsgaError::InvalidParameter {
                name: "batch",
                message: "stkdv layers take timed points; use insert_timed_points".into(),
            });
        };
        self.validate_timed(batch)?;
        let mut points = self.points.clone();
        points.extend_from_slice(batch);
        let spatial: Vec<Point> = batch.iter().map(|p| p.point).collect();
        let (mut t_lo, mut t_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in batch {
            t_lo = t_lo.min(p.t);
            t_hi = t_hi.max(p.t);
        }
        let bt = self.temporal.bandwidth();
        Ok(AppliedAppend {
            next: Arc::new(StkdvCompute { points, ..*self }),
            dirty: DirtyRegion::SpaceTime {
                bbox: BBox::of_points(&spatial).inflate(self.radius),
                t_lo: t_lo - bt,
                t_hi: t_hi + bt,
            },
        })
    }

    fn halo_points(&self, tile_bbox: BBox) -> usize {
        count_in(
            self.points.iter().map(|p| p.point),
            tile_bbox.inflate(self.radius),
        )
    }
}

// ---------------------------------------------------------------------
// NKDV
// ---------------------------------------------------------------------

/// The snap index every NKDV layer (and its test oracle) uses: cell
/// size tied to the lixel resolution so server and oracle snap
/// identically.
#[must_use]
pub fn nkdv_snap_index(net: &RoadNetwork, lixels: &Lixels) -> SegmentIndex {
    SegmentIndex::build(net, lixels.target_len().max(1e-9) * 4.0)
}

/// Snap a planar batch onto the network, in batch order. Errors on
/// non-finite points; a network with edges always snaps.
pub fn snap_batch(
    net: &RoadNetwork,
    index: &SegmentIndex,
    points: &[Point],
) -> Result<Vec<EdgePosition>> {
    let mut events = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        if !(p.x.is_finite() && p.y.is_finite()) {
            return Err(LsgaError::InvalidParameter {
                name: "points",
                message: format!("point {i} is non-finite: ({}, {})", p.x, p.y),
            });
        }
        let (pos, _) = index.snap(net, p).ok_or(LsgaError::InvalidParameter {
            name: "points",
            message: format!("point {i} cannot snap onto an edge-less network"),
        })?;
        events.push(pos);
    }
    Ok(events)
}

/// Rasterize per-lixel values onto a tile spec: each lixel's midpoint
/// deposits its value into the pixel containing it, folding in lixel
/// index order — a pure function of `(network, lixels, values, spec)`,
/// hence bit-stable. Midpoints outside the spec's bbox contribute
/// nothing.
#[must_use]
pub fn rasterize_lixel_values(
    net: &RoadNetwork,
    lixels: &Lixels,
    values: &[f64],
    spec: GridSpec,
) -> DensityGrid {
    let mut grid = DensityGrid::zeros(spec);
    for (lx, &v) in lixels.all().iter().zip(values) {
        let mid = net.point_on_edge(lx.edge, lx.center_offset());
        if spec.bbox.contains(&mid) {
            let (ix, iy) = spec.pixel_of(&mid);
            grid.add(ix, iy, v);
        }
    }
    grid
}

/// Network-KDV layer: a fixed road network and lixelization, an event
/// sequence in insertion order, and a per-snapshot
/// [`lsga_kdv::nkdv_forward`] density rasterized per tile.
pub struct NkdvCompute {
    net: Arc<RoadNetwork>,
    lixels: Arc<Lixels>,
    snap: Arc<SegmentIndex>,
    kernel: AnyKernel,
    /// Kernel support at [`lsga_kdv::DEFAULT_TAIL_EPS`] (what
    /// `nkdv_forward` truncates at) — the dirty-box inflation margin.
    /// Network distance ≥ Euclidean distance, so the planar inflation
    /// over-approximates the set of affected lixels.
    radius: f64,
    window: BBox,
    events: Vec<EdgePosition>,
    /// Per-lixel density, computed once per snapshot on first use.
    density: OnceLock<Arc<NetworkDensity>>,
}

impl NkdvCompute {
    /// Register an NKDV layer. The pyramid window is the network bbox
    /// inflated by the kernel support, so every lixel midpoint —
    /// boundary edges included — rasterizes strictly inside it.
    pub fn new(
        net: Arc<RoadNetwork>,
        lixels: Arc<Lixels>,
        events: &[EdgePosition],
        kernel: AnyKernel,
    ) -> Result<Self> {
        // The check `nkdv_forward` runs, so the lazy `density()` can
        // never fail on registered (or snapped) events.
        let radius = kernel.effective_radius(lsga_kdv::DEFAULT_TAIL_EPS);
        validate_nkdv_inputs(&net, &lixels, events, radius)?;
        let window = net.bbox().inflate(radius.max(1e-9));
        if window.is_empty() || window.width() <= 0.0 || window.height() <= 0.0 {
            return Err(LsgaError::InvalidParameter {
                name: "network",
                message: "network bbox is degenerate; cannot frame a tile pyramid".into(),
            });
        }
        let snap = Arc::new(nkdv_snap_index(&net, &lixels));
        Ok(NkdvCompute {
            net,
            lixels,
            snap,
            kernel,
            radius,
            window,
            events: events.to_vec(),
            density: OnceLock::new(),
        })
    }

    fn density(&self) -> &Arc<NetworkDensity> {
        self.density.get_or_init(|| {
            Arc::new(
                nkdv_forward(&self.net, &self.lixels, &self.events, self.kernel)
                    .expect("nkdv inputs validated at registration"),
            )
        })
    }
}

impl TileCompute for NkdvCompute {
    fn kind(&self) -> LayerKind {
        LayerKind::Nkdv
    }

    fn window(&self) -> BBox {
        self.window
    }

    fn compute(&self, spec: GridSpec, _bin: u32) -> DensityGrid {
        rasterize_lixel_values(&self.net, &self.lixels, self.density().values(), spec)
    }

    fn append(&self, batch: AppendBatch<'_>, _threads: Threads) -> Result<AppliedAppend> {
        let AppendBatch::Planar(points) = batch else {
            return Err(LsgaError::InvalidParameter {
                name: "batch",
                message: "nkdv layers take planar points (snapped to the network)".into(),
            });
        };
        let batch = snap_batch(&self.net, &self.snap, points)?;
        let world: Vec<Point> = batch.iter().map(|ev| ev.point(&self.net)).collect();
        let mut events = self.events.clone();
        events.extend_from_slice(&batch);
        Ok(AppliedAppend {
            next: Arc::new(NkdvCompute {
                net: Arc::clone(&self.net),
                lixels: Arc::clone(&self.lixels),
                snap: Arc::clone(&self.snap),
                events,
                density: OnceLock::new(),
                ..*self
            }),
            dirty: DirtyRegion::Planar(BBox::of_points(&world).inflate(self.radius)),
        })
    }

    /// Counts events at their snapped world positions.
    fn halo_points(&self, tile_bbox: BBox) -> usize {
        count_in(
            self.events.iter().map(|ev| ev.point(&self.net)),
            tile_bbox.inflate(self.radius),
        )
    }
}

// ---------------------------------------------------------------------
// Gi* / LISA hotspots
// ---------------------------------------------------------------------

/// Which local statistic a hotspot layer overlays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HotspotStat {
    /// Getis-Ord Gi* z-scores (analytic inference).
    GiStar,
    /// Local Moran's I with a seeded conditional permutation test.
    Lisa {
        /// Permutation replicates (0 skips inference).
        permutations: usize,
        /// Base seed of the replicate RNG streams.
        seed: u64,
    },
}

/// The distance-band weight matrix over the quadrat-cell centres —
/// shared between [`hotspot_overlay`] and the eager registration check
/// in [`HotspotCompute::new`], so "degenerate at serve time" and
/// "degenerate at registration" are decided by the same bits.
fn hotspot_cell_weights(window: BBox, cells: usize, band: f64) -> (GridSpec, SpatialWeights) {
    let spec = GridSpec::new(window, cells, cells);
    let centres: Vec<Point> = (0..cells * cells)
        .map(|i| spec.pixel_center(i % cells, i / cells))
        .collect();
    (spec, SpatialWeights::distance_band(&centres, band))
}

fn reject_degenerate_band(w: &SpatialWeights, band: f64) -> Result<()> {
    let s0 = w.s0();
    if !(s0.is_finite() && s0 > 0.0) {
        return Err(LsgaError::InvalidParameter {
            name: "band",
            message: format!("distance band {band} connects no pair of quadrat cells (S0 = {s0})"),
        });
    }
    Ok(())
}

/// The per-cell hotspot overlay the server resamples tiles from:
/// quadrat counts on a `cells × cells` grid over `window`, binary
/// distance-band weights (radius `band`) over the cell centres, then
/// the chosen local statistic per cell. Both statistics are
/// thread-invariant, and the quadrat fold is in point order — so the
/// overlay is a pure function of `(points, window, cells, band, stat)`.
pub fn hotspot_overlay(
    points: &[Point],
    window: BBox,
    cells: usize,
    band: f64,
    stat: HotspotStat,
) -> Result<DensityGrid> {
    if cells < 2 {
        return Err(LsgaError::InvalidParameter {
            name: "cells",
            message: format!("need at least a 2×2 quadrat grid, got {cells}"),
        });
    }
    let (spec, w) = hotspot_cell_weights(window, cells, band);
    reject_degenerate_band(&w, band)?;
    let mut counts = DensityGrid::zeros(spec);
    for p in points {
        let (ix, iy) = spec.pixel_of(p);
        counts.add(ix, iy, 1.0);
    }
    let values: Vec<f64> = match stat {
        HotspotStat::GiStar => local_gi_star_threads(counts.values(), &w, Threads::exact(1))
            .into_iter()
            .map(|r| r.value)
            .collect(),
        HotspotStat::Lisa { permutations, seed } => {
            local_morans_i_threads(counts.values(), &w, permutations, seed, Threads::exact(1))?
                .into_iter()
                .map(|r| r.value)
                .collect()
        }
    };
    Ok(DensityGrid::from_values(spec, values))
}

/// Resample a per-cell overlay at a tile spec: every tile pixel takes
/// the value of the overlay cell containing its centre.
#[must_use]
pub fn resample_overlay(overlay: &DensityGrid, spec: GridSpec) -> DensityGrid {
    let mut grid = DensityGrid::zeros(spec);
    for iy in 0..spec.ny {
        for ix in 0..spec.nx {
            let q = spec.pixel_center(ix, iy);
            let (cx, cy) = overlay.spec().pixel_of(&q);
            grid.set(ix, iy, overlay.at(cx, cy));
        }
    }
    grid
}

/// Hot-spot overlay layer: Gi* or LISA per quadrat cell, resampled to
/// tiles. Appends dirty **every** tile — the statistics normalize by
/// the global mean and variance, so one new point can move every
/// cell's z-score.
pub struct HotspotCompute {
    window: BBox,
    cells: usize,
    band: f64,
    stat: HotspotStat,
    points: Vec<Point>,
    /// Per-snapshot overlay, computed once on first use.
    overlay: OnceLock<Arc<DensityGrid>>,
}

impl HotspotCompute {
    /// Register a hotspot layer over a fixed window.
    pub fn new(
        points: &[Point],
        window: BBox,
        cells: usize,
        band: f64,
        stat: HotspotStat,
    ) -> Result<Self> {
        if window.is_empty() {
            return Err(LsgaError::InvalidParameter {
                name: "window",
                message: "layer window must be non-empty".into(),
            });
        }
        if cells < 2 {
            return Err(LsgaError::InvalidParameter {
                name: "cells",
                message: format!("need at least a 2×2 quadrat grid, got {cells}"),
            });
        }
        if !(band.is_finite() && band > 0.0) {
            return Err(LsgaError::InvalidParameter {
                name: "band",
                message: format!("distance band must be finite and positive, got {band}"),
            });
        }
        if let HotspotStat::Lisa { permutations, .. } = stat {
            if permutations > 100_000 {
                return Err(LsgaError::InvalidParameter {
                    name: "permutations",
                    message: format!("{permutations} permutation replicates is unreasonable"),
                });
            }
        }
        validate_finite_in_window(points, &window)?;
        // Eager: the overlay is computed lazily with an `expect`, so
        // every input it can reject must be rejected here. Points are
        // validated above; the weight matrix depends only on the
        // registration-fixed (window, cells, band).
        let (_, w) = hotspot_cell_weights(window, cells, band);
        reject_degenerate_band(&w, band)?;
        Ok(HotspotCompute {
            window,
            cells,
            band,
            stat,
            points: points.to_vec(),
            overlay: OnceLock::new(),
        })
    }

    fn overlay(&self) -> &Arc<DensityGrid> {
        self.overlay.get_or_init(|| {
            Arc::new(
                hotspot_overlay(&self.points, self.window, self.cells, self.band, self.stat)
                    .expect("hotspot inputs validated at registration"),
            )
        })
    }
}

impl TileCompute for HotspotCompute {
    fn kind(&self) -> LayerKind {
        LayerKind::Hotspot
    }

    fn window(&self) -> BBox {
        self.window
    }

    fn compute(&self, spec: GridSpec, _bin: u32) -> DensityGrid {
        resample_overlay(self.overlay(), spec)
    }

    fn append(&self, batch: AppendBatch<'_>, _threads: Threads) -> Result<AppliedAppend> {
        let AppendBatch::Planar(batch) = batch else {
            return Err(LsgaError::InvalidParameter {
                name: "batch",
                message: "hotspot layers take planar points, not timed points".into(),
            });
        };
        validate_finite_in_window(batch, &self.window)?;
        let mut points = self.points.clone();
        points.extend_from_slice(batch);
        Ok(AppliedAppend {
            next: Arc::new(HotspotCompute {
                points,
                overlay: OnceLock::new(),
                ..*self
            }),
            dirty: DirtyRegion::All,
        })
    }

    /// The distance band is the hotspot layer's support.
    fn halo_points(&self, tile_bbox: BBox) -> usize {
        count_in(self.points.iter().copied(), tile_bbox.inflate(self.band))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip_and_reject_numbers() {
        for k in LayerKind::ALL {
            assert_eq!(LayerKind::parse(k.name()), Some(k));
        }
        for bad in ["0", "3", "KDV", "kdv2", "", "tiles"] {
            assert_eq!(LayerKind::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn stkdv_bin_times_match_the_cube() {
        let window = BBox::new(0.0, 0.0, 10.0, 10.0);
        let c = StkdvCompute::new(
            &[],
            window,
            lsga_core::KernelKind::Quartic.with_bandwidth(2.0),
            PolyKernel::new(lsga_core::KernelKind::Epanechnikov, 1.5).unwrap(),
            -3.0,
            9.0,
            5,
            1e-9,
        )
        .unwrap();
        let cube = lsga_core::SpaceTimeGrid::zeros(GridSpec::new(window, 2, 2), -3.0, 9.0, 5);
        for bin in 0..5u32 {
            assert_eq!(
                c.bin_time(bin).to_bits(),
                cube.time(bin as usize).to_bits(),
                "bin {bin}"
            );
        }
    }

    #[test]
    fn hotspot_overlay_rejects_degenerate_parameters() {
        let w = BBox::new(0.0, 0.0, 10.0, 10.0);
        assert!(hotspot_overlay(&[], w, 1, 2.0, HotspotStat::GiStar).is_err());
        assert!(HotspotCompute::new(&[], w, 4, f64::NAN, HotspotStat::GiStar).is_err());
        assert!(HotspotCompute::new(&[], w, 4, -1.0, HotspotStat::GiStar).is_err());
        assert!(HotspotCompute::new(&[], BBox::empty(), 4, 1.0, HotspotStat::GiStar).is_err());
        // Band narrower than the cell pitch: the weight matrix is all
        // zeros, and both entry points must refuse it up front.
        assert!(hotspot_overlay(&[], w, 4, 0.1, HotspotStat::GiStar).is_err());
        assert!(HotspotCompute::new(&[], w, 4, 0.1, HotspotStat::GiStar).is_err());
    }
}
