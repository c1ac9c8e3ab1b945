//! Thread-parallel KDV (parallel/distributed family, paper §2.2).
//!
//! The paper's fourth solution family throws parallel hardware (threads,
//! GPU, FPGA, clusters) at the pixel loop, which is embarrassingly
//! parallel across pixels. This module is the single-machine thread
//! representative: a thin wrapper over [`lsga_core::par`] — pixel rows
//! are claimed dynamically by the shared scoped-thread pool, each
//! running the grid-pruned exact evaluation against a shared immutable
//! index. Output is bit-identical to [`crate::naive::grid_pruned_kdv`]
//! for every thread count. The *simulated-cluster* distributed version
//! (with partitioning and halo accounting) lives in `lsga-dist`.

use crate::naive::{pixel_xs, pruned_kdv_row_multi};
use lsga_core::par::{par_map_rows, Threads};
use lsga_core::{DensityGrid, GridSpec, Kernel, Point};
use lsga_index::GridIndex;

/// Row-parallel exact KDV over `n_threads` workers (clamped to ≥ 1).
/// `tail_eps` truncates infinite-support kernels exactly as in
/// [`crate::naive::grid_pruned_kdv`].
pub fn parallel_kdv<K: Kernel>(
    points: &[Point],
    spec: GridSpec,
    kernel: K,
    tail_eps: f64,
    n_threads: usize,
) -> DensityGrid {
    parallel_kdv_threads(points, spec, kernel, tail_eps, Threads::exact(n_threads))
}

/// [`parallel_kdv`] with an explicit [`Threads`] config (use
/// [`Threads::auto`] to respect `LSGA_THREADS` / the machine size).
pub fn parallel_kdv_threads<K: Kernel>(
    points: &[Point],
    spec: GridSpec,
    kernel: K,
    tail_eps: f64,
    threads: Threads,
) -> DensityGrid {
    let _span = lsga_obs::span("kdv.parallel");
    let mut grid = DensityGrid::zeros(spec);
    if points.is_empty() {
        return grid;
    }
    let radius = kernel.effective_radius(tail_eps);
    let index = GridIndex::build(points, radius.max(1e-12));
    let cutoff = (radius * radius).min(kernel.support_sq());
    let qxs = pixel_xs(&spec);

    // Rows are claimed dynamically: clustered data makes hot rows cost
    // more, and the claim counter lets fast workers absorb the slack.
    // Each row runs the same tiled routine as the sequential version,
    // so the grid is bit-identical for every thread count.
    let nx = spec.nx;
    par_map_rows(grid.values_mut(), nx, threads, |iy, row| {
        let qy = spec.row_y(iy);
        pruned_kdv_row_multi(&[&index], &kernel, radius, cutoff, &qxs, qy, row);
    });
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::grid_pruned_kdv;
    use lsga_core::{BBox, Epanechnikov, Gaussian};

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Point::new(
                    50.0 + (f * 0.831).sin() * 40.0,
                    50.0 + (f * 0.557).cos() * 40.0,
                )
            })
            .collect()
    }

    fn spec() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 100.0, 100.0), 30, 31)
    }

    #[test]
    fn identical_to_sequential_for_any_thread_count() {
        let pts = scatter(400);
        let k = Epanechnikov::new(12.0);
        let seq = grid_pruned_kdv(&pts, spec(), k, 1e-9);
        for threads in [1, 2, 3, 8, 64] {
            let par = parallel_kdv(&pts, spec(), k, 1e-9, threads);
            assert_eq!(par.values(), seq.values(), "threads={threads}");
        }
    }

    #[test]
    fn gaussian_truncation_consistent() {
        let pts = scatter(200);
        let k = Gaussian::new(9.0);
        let seq = grid_pruned_kdv(&pts, spec(), k, 1e-6);
        let par = parallel_kdv(&pts, spec(), k, 1e-6, 4);
        assert_eq!(par.values(), seq.values());
    }

    #[test]
    fn zero_threads_clamped() {
        let pts = scatter(50);
        let k = Epanechnikov::new(10.0);
        let g = parallel_kdv(&pts, spec(), k, 1e-9, 0);
        assert!(g.max() > 0.0);
    }

    #[test]
    fn empty_dataset() {
        let k = Epanechnikov::new(10.0);
        assert_eq!(parallel_kdv(&[], spec(), k, 1e-9, 4).sum(), 0.0);
    }
}
