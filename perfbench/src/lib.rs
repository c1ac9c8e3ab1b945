//! The repository benchmark for `lsga`: open-loop HTTP tile serving
//! (`tiles-hot`, `tiles-mixed`) and batch library analytics
//! (`analytics-batch`), driven from outside through the public API.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod batch;
pub mod layers;
pub mod load;
pub mod report;
pub mod sys;
pub mod tiles;
pub mod trace;
pub mod util;
