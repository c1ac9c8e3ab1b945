//! # lsga-kdv
//!
//! Kernel density visualization (paper Definition 1) and its variants,
//! with one representative implementation of every solution family the
//! paper surveys in §2.2:
//!
//! | family | module | representative of |
//! |---|---|---|
//! | exact baselines | [`naive`] | the O(X·Y·n) loop every off-the-shelf package runs |
//! | function approximation | [`bounds`] | QUAD/KARL-style LB/UB refinement over a kd-tree (Eq. 6) |
//! | data sampling | [`sampling`] | coreset-style subset KDE with a Hoeffding guarantee (Eq. 7) |
//! | computational sharing | [`slam`], [`safe`] | SLAM sweep-line \[32\]; SAFE multi-bandwidth sharing \[26\] |
//! | parallel / distributed | [`parallel`] | row-parallel tiles (the thread analogue of the GPU methods) |
//!
//! The variants:
//!
//! * [`nkdv`] — network KDV (§2.2, Fig. 3): density over road-network
//!   lixels under shortest-path distance, plus the Okabe–Sugihara
//!   equal-split discontinuous estimator ([`equal_split`]) whose kernel
//!   mass is junction-invariant;
//! * [`stkdv`] — spatiotemporal KDV (§2.2, Fig. 4): an `X × Y × T` raster
//!   under a product space–time kernel, with an SWS-style temporal sweep.
//!
//! [`binned`] implements the paper's §2.4 *future work* on
//! complexity-reduced algorithms for the Gaussian kernel: binning +
//! separable 1-D convolutions, `O(n + X·Y·k)` instead of `O(X·Y·n)`.
//!
//! ## Conventions
//!
//! Every planar method returns the **raw kernel sum** `Σ_p K(q, p)` per
//! pixel — the paper's Eq. 1 with `w = 1`. Apply a normalization of your
//! choice with [`lsga_core::DensityGrid::scale`] (e.g. `1/n`, or the
//! kernel's integral for a true density estimate); keeping `w` external
//! makes the exact/approximate cross-checks in the test-suite direct.
//!
//! Infinite-support kernels (Gaussian, exponential) are handled exactly by
//! [`naive::naive_kdv`] and to a caller-chosen tail tolerance by the
//! pruned/accelerated methods, mirroring the truncation every surveyed
//! package applies.

pub mod adaptive;
pub mod binned;
pub mod bounds;
pub mod equal_split;
pub mod naive;
pub mod nkdv;
pub mod parallel;
pub mod safe;
pub mod sampling;
pub mod slam;
pub mod stkdv;

pub use adaptive::{adaptive_bandwidths, adaptive_kdv};
pub use binned::{binned_gaussian_kdv, binned_gaussian_kdv_threads};
pub use bounds::BoundsKdv;
pub use equal_split::nkdv_equal_split;
pub use naive::{
    grid_pruned_kdv, grid_pruned_kdv_segmented, grid_pruned_kdv_with_index, naive_kdv,
};
pub use nkdv::{nkdv_forward, nkdv_naive, validate_nkdv_inputs, NetworkDensity};
pub use parallel::{parallel_kdv, parallel_kdv_threads};
pub use safe::{independent_multi_bandwidth, safe_multi_bandwidth};
pub use sampling::{sample_size_for_guarantee, sampling_kdv, sampling_kdv_segmented};
pub use slam::slam_kdv;
pub use stkdv::{stkdv_naive, stkdv_sweep, stkdv_sweep_threads};

/// Default tail tolerance used when truncating infinite-support kernels:
/// contributions below `DEFAULT_TAIL_EPS · K(0)` are dropped.
pub const DEFAULT_TAIL_EPS: f64 = 1e-9;
