//! Exact KDV baselines.
//!
//! [`naive_kdv`] is the literal `O(X·Y·n)` double loop of Definition 1 —
//! the algorithm the paper says off-the-shelf packages run and domain
//! experts complain about. [`grid_pruned_kdv`] is the strongest *simple*
//! exact method: a bucket grid restricts each pixel to the points inside
//! the kernel's (effective) support, which is exact for finite-support
//! kernels and truncated to a caller-chosen tail for Gaussian/exponential.

use lsga_core::soa::{accumulate_density_row, PointsSoA};
use lsga_core::{DensityGrid, GridSpec, Kernel, Point};
use lsga_index::{GridIndex, SegmentedGrid};
use lsga_obs::{self as obs, Counter};

/// Pixel-centre abscissae of a raster row, shared by every row sweep.
pub(crate) fn pixel_xs(spec: &GridSpec) -> Vec<f64> {
    (0..spec.nx).map(|ix| spec.col_x(ix)).collect()
}

/// Literal Definition 1: evaluate `F_P(q) = Σ_p K(q, p)` at every pixel
/// centre by scanning all points. Exact for every kernel, `O(X·Y·n)`.
///
/// The point set is columnarized once and each raster row runs through
/// the cache-blocked masked microkernel; per pixel the fold stays in
/// point order, so the output is bit-identical to the scalar double loop.
pub fn naive_kdv<K: Kernel>(points: &[Point], spec: GridSpec, kernel: K) -> DensityGrid {
    let _span = obs::span("kdv.naive");
    let mut grid = DensityGrid::zeros(spec);
    let soa = PointsSoA::from_points(points);
    let cutoff = kernel.support_sq();
    let qxs = pixel_xs(&spec);
    for iy in 0..spec.ny {
        let qy = spec.row_y(iy);
        accumulate_density_row(
            &kernel,
            cutoff,
            &qxs,
            qy,
            &soa.xs,
            &soa.ys,
            grid.row_mut(iy),
        );
        obs::add(Counter::KdvPairs, (qxs.len() * soa.xs.len()) as u64);
    }
    grid
}

/// Compute one raster row of the grid-pruned KDV into `row`, over an
/// ordered stack of segment indexes sharing one cell decomposition (a
/// monolithic index is the one-segment stack `&[&index]`).
///
/// Shared by every grid-pruned entry point and the row-parallel variant
/// so all produce bit-identical grids. Instead of gathering candidates
/// per pixel, the row is swept cell-by-cell: the per-pixel candidate
/// cell-column bounds are monotone non-decreasing across the row, so
/// each candidate cell serves one contiguous pixel interval, found by
/// binary search, and contributes through one tiled microkernel call.
/// Every pixel still folds its candidates in exactly
/// `GridIndex::for_each_candidate` order (cell row asc, cell column asc,
/// entry order), so the result matches the scalar per-pixel loop bit for
/// bit.
///
/// Each candidate cell is folded **segment-minor** — oldest segment's
/// entries first, then the next segment's, and so on. That order is
/// not a convention, it is the bit-identity proof: the monolithic index
/// over the concatenated point sequence buckets each cell's entries in
/// input order (stable counting sort), which *is* segment order
/// followed by within-segment entry order. The SoA microkernel is a
/// strict per-pixel left-fold with the accumulator carried in `row`, so
/// folding a cell's span as k back-to-back segment spans produces the
/// same bits as one monolithic span. Hence k segments reproduce the
/// monolithic rebuild exactly.
///
/// Work accounting also matches the monolithic sweep: pair counts sum
/// to the same total, and a cell counts as pruned iff it serves no
/// pixel or is empty in *every* segment.
pub(crate) fn pruned_kdv_row_multi<K: Kernel>(
    segments: &[&GridIndex],
    kernel: &K,
    radius: f64,
    cutoff_r2: f64,
    qxs: &[f64],
    qy: f64,
    row: &mut [f64],
) {
    let nx = qxs.len();
    if nx == 0 {
        return;
    }
    let geom = segments[0];
    let (cy0, cy1) = geom.cell_row_range(qy - radius, qy + radius);
    let mut cx0s = Vec::with_capacity(nx);
    let mut cx1s = Vec::with_capacity(nx);
    for qx in qxs {
        let (c0, c1) = geom.cell_col_range(qx - radius, qx + radius);
        cx0s.push(c0);
        cx1s.push(c1);
    }
    let mut pairs: u64 = 0;
    let mut pruned: u64 = 0;
    for cy in cy0..=cy1 {
        for cx in cx0s[0]..=cx1s[nx - 1] {
            // Pixels whose candidate column interval contains `cx`.
            let lo = cx1s.partition_point(|&c| c < cx);
            let hi = cx0s.partition_point(|&c| c <= cx);
            if lo >= hi {
                pruned += 1;
                continue;
            }
            let mut occupied = false;
            for seg in segments {
                let span = seg.row_span(cy, cx, cx);
                if span.is_empty() {
                    continue;
                }
                occupied = true;
                pairs += ((hi - lo) * span.len()) as u64;
                accumulate_density_row(
                    kernel,
                    cutoff_r2,
                    &qxs[lo..hi],
                    qy,
                    &seg.entry_xs()[span.clone()],
                    &seg.entry_ys()[span],
                    &mut row[lo..hi],
                );
            }
            if !occupied {
                pruned += 1;
            }
        }
    }
    obs::add(Counter::KdvPairs, pairs);
    obs::add(Counter::KdvCellsPruned, pruned);
}

/// The whole-raster sweep behind every grid-pruned entry point: one
/// [`pruned_kdv_row_multi`] call per row over the segment stack. An
/// all-empty stack yields the zero grid.
fn pruned_sweep<K: Kernel>(
    segments: &[&GridIndex],
    spec: GridSpec,
    kernel: K,
    tail_eps: f64,
) -> DensityGrid {
    let mut grid = DensityGrid::zeros(spec);
    if segments.iter().all(|s| s.is_empty()) {
        return grid;
    }
    let radius = kernel.effective_radius(tail_eps);
    // The mask cutoff must not exceed the support: past it the raw
    // formula goes negative, which the branchy code never added.
    let cutoff = (radius * radius).min(kernel.support_sq());
    let qxs = pixel_xs(&spec);
    for iy in 0..spec.ny {
        let qy = spec.row_y(iy);
        pruned_kdv_row_multi(
            segments,
            &kernel,
            radius,
            cutoff,
            &qxs,
            qy,
            grid.row_mut(iy),
        );
    }
    grid
}

/// Grid-pruned exact KDV: bucket the points with cell size equal to the
/// kernel's effective radius, then evaluate each pixel only against the
/// ≤ 3×3 cells its support overlaps.
///
/// Exact for finite-support kernels. For infinite-support kernels the
/// kernel tail below `tail_eps · K(0)` is truncated (use
/// [`crate::DEFAULT_TAIL_EPS`] for a practically exact result).
pub fn grid_pruned_kdv<K: Kernel>(
    points: &[Point],
    spec: GridSpec,
    kernel: K,
    tail_eps: f64,
) -> DensityGrid {
    let _span = obs::span("kdv.grid_pruned");
    if points.is_empty() {
        return DensityGrid::zeros(spec);
    }
    let radius = kernel.effective_radius(tail_eps);
    let index = GridIndex::build(points, radius.max(1e-12));
    pruned_sweep(&[&index], spec, kernel, tail_eps)
}

/// Grid-pruned exact KDV over a caller-supplied bucket index.
///
/// Identical numerics to [`grid_pruned_kdv`], but the candidate index is
/// built once by the caller and reused across many rasters — the serving
/// layer evaluates every tile of a pyramid against one shared index. The
/// bit pattern of each pixel depends on the index's cell decomposition
/// (it fixes the candidate fold order), so callers that require
/// bit-identical results across calls must hold the index's bounding box
/// and cell size fixed; `GridIndex::with_bbox` over a fixed window does
/// exactly that.
pub fn grid_pruned_kdv_with_index<K: Kernel>(
    index: &GridIndex,
    spec: GridSpec,
    kernel: K,
    tail_eps: f64,
) -> DensityGrid {
    let _span = obs::span("kdv.grid_pruned");
    pruned_sweep(&[index], spec, kernel, tail_eps)
}

/// Grid-pruned exact KDV over a tiered segment stack — the entry point
/// the incremental ingest engine serves tiles through.
///
/// Numerically this **is** [`grid_pruned_kdv_with_index`] over the
/// monolithic index of the stack's concatenated point sequence, bit for
/// bit: all segments share one cell decomposition, each candidate cell
/// is folded oldest-segment-first (matching the stable counting sort's
/// within-cell input order), and the SoA microkernel's per-pixel fold
/// is a strict left-fold — see [`pruned_kdv_row_multi`]. The caller
/// never pays the monolithic rebuild, only the fold.
pub fn grid_pruned_kdv_segmented<K: Kernel>(
    segments: &SegmentedGrid,
    spec: GridSpec,
    kernel: K,
    tail_eps: f64,
) -> DensityGrid {
    let _span = obs::span("kdv.grid_pruned");
    let refs: Vec<&GridIndex> = segments.segments().iter().map(|s| s.as_ref()).collect();
    pruned_sweep(&refs, spec, kernel, tail_eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsga_core::{BBox, Epanechnikov, Gaussian, KernelKind, Quartic, Uniform};

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Point::new(
                    50.0 + (f * 0.831).sin() * 30.0,
                    50.0 + (f * 0.557).cos() * 30.0,
                )
            })
            .collect()
    }

    fn spec() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 100.0, 100.0), 32, 32)
    }

    #[test]
    fn naive_single_point_profile() {
        let spec = GridSpec::new(BBox::new(0.0, 0.0, 4.0, 4.0), 4, 4);
        let k = Epanechnikov::new(2.0);
        let grid = naive_kdv(&[Point::new(2.0, 2.0)], spec, k);
        // Pixel (1,1) centre is (1.5, 1.5): d² = 0.5.
        assert!((grid.at(1, 1) - (1.0 - 0.5 / 4.0)).abs() < 1e-12);
        // Far corner (0.5,0.5): d² = 4.5 > b² -> 0.
        assert_eq!(grid.at(0, 0), 0.0);
        // Symmetry about the data point.
        assert_eq!(grid.at(1, 1), grid.at(2, 2));
        assert_eq!(grid.at(1, 2), grid.at(2, 1));
    }

    #[test]
    fn naive_empty_dataset_gives_zero_grid() {
        let grid = naive_kdv(&[], spec(), Gaussian::new(5.0));
        assert_eq!(grid.max(), 0.0);
        assert_eq!(grid.sum(), 0.0);
    }

    #[test]
    fn grid_pruned_matches_naive_for_finite_support() {
        let pts = scatter(300);
        for b in [3.0, 10.0, 40.0] {
            for kind in [
                KernelKind::Uniform,
                KernelKind::Epanechnikov,
                KernelKind::Quartic,
                KernelKind::Triangular,
                KernelKind::Cosine,
            ] {
                let k = kind.with_bandwidth(b);
                let exact = naive_kdv(&pts, spec(), k);
                let pruned = grid_pruned_kdv(&pts, spec(), k, 1e-9);
                assert!(
                    exact.linf_diff(&pruned) < 1e-9,
                    "{kind:?} b={b}: {}",
                    exact.linf_diff(&pruned)
                );
            }
        }
    }

    #[test]
    fn grid_pruned_gaussian_within_tail_tolerance() {
        let pts = scatter(200);
        let k = Gaussian::new(8.0);
        let exact = naive_kdv(&pts, spec(), k);
        let tail = 1e-9;
        let pruned = grid_pruned_kdv(&pts, spec(), k, tail);
        // Error bounded by n · tail_eps · K(0).
        let bound = pts.len() as f64 * tail * 1.0;
        assert!(exact.linf_diff(&pruned) <= bound + 1e-12);
    }

    /// The segmented fold must be bit-identical to the monolithic
    /// rebuild for every way of slicing the point sequence into
    /// consecutive batches — including empty batches and a pre-merged
    /// (compacted) suffix. This is the serving layer's headline
    /// invariant, pinned at the kdv layer where it is proven.
    #[test]
    fn segmented_fold_bit_identical_to_monolithic() {
        use lsga_core::par::Threads;
        use lsga_index::SegmentedGrid;
        use std::sync::Arc;

        let all = scatter(400);
        let window = BBox::new(0.0, 0.0, 100.0, 100.0);
        for kind in [KernelKind::Quartic, KernelKind::Gaussian] {
            for b in [4.0, 18.0] {
                let k = kind.with_bandwidth(b);
                let tail = 1e-7;
                let radius = k.effective_radius(tail).max(1e-12);
                let mono = GridIndex::with_bbox(&all, radius, window);
                let want = grid_pruned_kdv_with_index(&mono, spec(), k, tail);
                for splits in [vec![400], vec![1, 399], vec![130, 0, 200, 70]] {
                    let mut segs = Vec::new();
                    let mut off = 0;
                    for n in &splits {
                        segs.push(Arc::new(GridIndex::with_bbox(
                            &all[off..off + n],
                            radius,
                            window,
                        )));
                        off += n;
                    }
                    let stack = SegmentedGrid::from_segments(segs.clone());
                    let got = grid_pruned_kdv_segmented(&stack, spec(), k, tail);
                    for (a, w) in got.values().iter().zip(want.values()) {
                        assert_eq!(a.to_bits(), w.to_bits(), "{kind:?} b={b} {splits:?}");
                    }
                    // A compacted suffix (CSR merge of the newest
                    // segments) must not move a bit either.
                    if segs.len() >= 2 {
                        let tail_refs: Vec<&GridIndex> =
                            segs[1..].iter().map(|s| s.as_ref()).collect();
                        let merged = GridIndex::merged_threads(&tail_refs, Threads::exact(2));
                        let compacted = SegmentedGrid::from_segments(vec![
                            Arc::clone(&segs[0]),
                            Arc::new(merged),
                        ]);
                        let got = grid_pruned_kdv_segmented(&compacted, spec(), k, tail);
                        for (a, w) in got.values().iter().zip(want.values()) {
                            assert_eq!(a.to_bits(), w.to_bits(), "compacted {kind:?} b={b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn density_increases_with_point_mass() {
        let mut pts = scatter(100);
        let base = naive_kdv(&pts, spec(), Quartic::new(20.0));
        pts.extend(scatter(100)); // double every point
        let doubled = naive_kdv(&pts, spec(), Quartic::new(20.0));
        for (a, b) in base.values().iter().zip(doubled.values()) {
            assert!((b - 2.0 * a).abs() < 1e-9);
        }
    }

    #[test]
    fn hotspot_found_at_data_concentration() {
        // 50 points at one spot, 5 scattered far away.
        let mut pts = vec![Point::new(20.0, 80.0); 50];
        pts.push(Point::new(90.0, 10.0));
        pts.push(Point::new(10.0, 10.0));
        let grid = naive_kdv(&pts, spec(), Quartic::new(10.0));
        let hot = grid.hotspot();
        assert!(hot.dist(&Point::new(20.0, 80.0)) < 5.0);
        // The flat uniform kernel still puts its plateau over the mass.
        let flat = naive_kdv(&pts, spec(), Uniform::new(10.0));
        assert!(flat.hotspot().dist(&Point::new(20.0, 80.0)) <= 10.0 + 5.0);
    }
}
