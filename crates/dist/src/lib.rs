//! # lsga-dist
//!
//! A **simulated distributed cluster** for the parallel/distributed
//! solution family the paper surveys (§2.2/§2.3: Spark-style KDV \[76\],
//! cloud K-function of Zhang et al. \[106\]).
//!
//! Real cluster deployments are unavailable in this environment, so the
//! substitution (DESIGN.md §1.5) reproduces the *algorithmic* content of
//! distributed geospatial analytics in-process:
//!
//! * **spatial partitioning** — [`partition`]: uniform pixel-row bands or
//!   balanced kd tiles (point-weighted median splits);
//! * **halo replication** — each worker receives its tile's owned points
//!   plus the boundary points within one kernel radius / distance
//!   threshold, exactly like a cluster broadcast of boundary data;
//! * **workers** — scoped OS threads, one per tile;
//! * **communication accounting** — [`metrics`]: per-worker shipped
//!   points, bytes (16 B per point: two `f64` coordinates), compute
//!   time, and load-imbalance summaries;
//! * **failure model** — [`fault`]: deterministic, seeded fault plans
//!   (worker crashes, stragglers, lost halo shipments, transient task
//!   errors) injected at named interception points;
//! * **recovery** — [`supervisor`]: per-task timeouts, bounded
//!   deterministic exponential backoff on a simulated clock,
//!   re-assignment of dead workers' tiles to survivors (halo re-shipped
//!   and charged to the metrics), and graceful degradation to a partial
//!   result with an exact [`CoverageReport`] when retries are exhausted.
//!
//! Every distributed driver is *exact*: [`distributed_kdv`] matches the
//! single-node grid-pruned KDV bit-for-bit and [`distributed_k`] matches
//! the single-node K-function count, which the integration tests assert.
//! The supervised variants ([`supervised_kdv`], [`supervised_k`]) extend
//! that guarantee through failures: **any recoverable fault schedule
//! yields output bit-identical to the fault-free run** — the headline
//! invariant property-tested by `tests/chaos_recovery.rs`.

pub mod fault;
pub mod kdv;
pub mod kfunc;
pub mod metrics;
pub mod partition;
pub mod supervisor;

pub use fault::{FaultEvent, FaultKind, FaultPlan, Interception, RetryPolicy, SimClock};
pub use kdv::{distributed_kdv, supervised_kdv, PartialKdv};
pub use kfunc::{distributed_k, partition_spec_for_k, supervised_k, PartialK};
pub use metrics::{RunMetrics, WorkerMetrics};
pub use partition::{make_tiles, PartitionStrategy, PixelRect};
pub use supervisor::{
    first_live_from, plan_routed, plan_schedule, run_supervised, validate_points, CoverageReport,
    Schedule, Supervised, TileOutcome,
};
