//! The supervisor: deterministic failure detection and recovery.
//!
//! Wraps the distributed drivers with per-task timeouts, bounded
//! exponential-backoff retry, re-assignment of a dead worker's tile to a
//! survivor (re-shipping the halo and charging the bytes), and graceful
//! degradation — when a tile exhausts its retry budget the run still
//! returns, with the tile listed in an exact [`CoverageReport`] instead
//! of a panic.
//!
//! # Determinism argument
//!
//! Recovery never changes results because the two phases are separated:
//!
//! 1. **Scheduling** ([`plan_schedule`]) is a *sequential* simulation
//!    over tiles in index order, driven only by the [`FaultPlan`], the
//!    [`RetryPolicy`], and the injected [`SimClock`] — no wall-clock, no
//!    thread timing. Which attempts fail, which workers die, where tiles
//!    are re-assigned, and what backoff accrues are all pure data.
//! 2. **Execution** runs each *scheduled-successful* tile's task on the
//!    shared thread pool. A task is a pure function of its shipment, so
//!    re-running it on any worker, after any number of simulated
//!    failures, produces the same bits. Results merge in tile order.
//!
//! Hence **any recoverable fault schedule yields output bit-identical to
//! the fault-free run**, for every thread count — the invariant
//! `tests/chaos_recovery.rs` property-tests.

use crate::fault::{FaultKind, FaultPlan, RetryPolicy, SimClock};
use crate::metrics::BYTES_PER_POINT;
use lsga_core::par::{par_map, Threads};
use lsga_core::{LsgaError, Point, Result};
use lsga_obs::{self as obs, Counter, Hist};
use std::time::{Duration, Instant};

/// What happened to one tile over the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct TileOutcome {
    pub tile: usize,
    /// Worker the tile (and its halo) was initially assigned to.
    pub initial_worker: usize,
    /// Worker whose attempt finally succeeded; `None` = abandoned.
    pub final_worker: Option<usize>,
    /// Attempts started (>= 1 unless no worker survived to try).
    pub attempts: u32,
    /// Failed attempts that were retried or exhausted the budget.
    pub retries: u32,
    /// Per-attempt deadlines that fired (crash detection, lost-shipment
    /// acknowledgement, straggler abandonment).
    pub timeouts: u32,
    /// Halo re-shipments (re-assignment to a new worker, or replacement
    /// of a dropped shipment).
    pub reshipments: u32,
    /// Bytes those re-shipments cost.
    pub reshipped_bytes: u64,
    /// Simulated elapsed ticks for this tile (attempt durations,
    /// timeouts, and backoff delays).
    pub ticks: u64,
    /// Every failure observed along the way, in order.
    pub errors: Vec<LsgaError>,
}

impl TileOutcome {
    /// True when some attempt succeeded.
    pub fn executed(&self) -> bool {
        self.final_worker.is_some()
    }

    /// True when the tile needed at least one retry but succeeded.
    pub fn recovered(&self) -> bool {
        self.executed() && self.retries > 0
    }
}

/// The deterministic recovery schedule of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    pub tiles: Vec<TileOutcome>,
    /// Workers that died during the run, ascending.
    pub dead_workers: Vec<usize>,
    /// Simulated wall-clock: the slowest tile's tick count (tiles run on
    /// distinct workers concurrently).
    pub sim_ticks: u64,
}

/// Exact account of what a partial result covers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageReport {
    pub total_tiles: usize,
    /// Tiles whose task ran to completion.
    pub executed_tiles: usize,
    /// Executed tiles that needed at least one retry.
    pub recovered_tiles: usize,
    /// Abandoned tile indices, ascending.
    pub abandoned: Vec<usize>,
    /// Work units covered (pixels for KDV, owned points for the
    /// K-function).
    pub covered_work: usize,
    pub total_work: usize,
    /// Final error of each abandoned tile, aligned with `abandoned`.
    pub failures: Vec<LsgaError>,
}

impl CoverageReport {
    /// True when every tile executed: the result equals the fault-free
    /// run bit-for-bit.
    pub fn is_complete(&self) -> bool {
        self.abandoned.is_empty()
    }

    /// Fraction of work units covered (1.0 for an empty run).
    pub fn fraction(&self) -> f64 {
        if self.total_work == 0 {
            1.0
        } else {
            self.covered_work as f64 / self.total_work as f64
        }
    }

    /// Build from a schedule plus per-tile work-unit sizes.
    pub fn from_schedule(schedule: &Schedule, work: &[usize]) -> Self {
        assert_eq!(schedule.tiles.len(), work.len());
        let mut report = CoverageReport {
            total_tiles: work.len(),
            total_work: work.iter().sum(),
            ..CoverageReport::default()
        };
        for (outcome, w) in schedule.tiles.iter().zip(work) {
            if outcome.executed() {
                report.executed_tiles += 1;
                report.covered_work += w;
                if outcome.recovered() {
                    report.recovered_tiles += 1;
                }
            } else {
                report.abandoned.push(outcome.tile);
                report
                    .failures
                    .push(
                        outcome
                            .errors
                            .last()
                            .cloned()
                            .unwrap_or(LsgaError::TaskFailed {
                                tile: outcome.tile,
                                attempts: outcome.attempts,
                                message: "abandoned".into(),
                            }),
                    );
            }
        }
        report
    }
}

/// Phase 1: simulate the failure/recovery schedule. Sequential over
/// tiles in index order; the outcome is a pure function of
/// `(shipment_sizes, plan, policy)`.
///
/// The simulated cluster pairs worker `t` with tile `t`; when a worker
/// dies its tile retries on the next surviving worker in rotation
/// `(t+1, t+2, …) mod n`, which requires re-shipping the halo. When no
/// worker survives, the tile is abandoned. This is [`plan_routed`] with
/// the identity home map and every worker live at the start; the
/// schedule's recovery activity is published to the `dist.*` counters.
pub fn plan_schedule(shipment_sizes: &[usize], plan: &FaultPlan, policy: &RetryPolicy) -> Schedule {
    let n = shipment_sizes.len();
    let schedule = plan_routed(shipment_sizes, n, &vec![false; n], |t| t, plan, policy);
    // The simulation is sequential, so these totals are trivially
    // identical for every thread count.
    for o in &schedule.tiles {
        obs::add(Counter::DistRetries, o.retries as u64);
        obs::add(Counter::DistTimeouts, o.timeouts as u64);
        obs::add(Counter::DistReshipments, o.reshipments as u64);
        obs::add(Counter::DistReshippedBytes, o.reshipped_bytes);
        obs::record(Hist::DistTileAttempts, o.attempts as u64);
        for _ in 0..o.reshipments {
            obs::instant("dist.reshipment");
        }
    }
    schedule
}

/// The first worker in the rotation `(home, home+1, …) mod workers`
/// for which `live` holds — where a tile is (re-)assigned, and where
/// the serving cluster routes. `None` when no worker is live.
pub fn first_live_from(home: usize, workers: usize, live: impl Fn(usize) -> bool) -> Option<usize> {
    (0..workers)
        .map(|k| (home + k) % workers)
        .find(|&w| live(w))
}

/// The routed planner behind [`plan_schedule`]: the same sequential
/// simulation over an arbitrary `tile → home worker` map and a cluster
/// whose workers in `dead_at_start` are already down. It publishes
/// nothing; callers account the schedule under their own counters.
///
/// Tile `t` is first assigned to the first worker live at the start in
/// the rotation `(home(t), home(t)+1, …) mod workers` — that worker
/// holds its halo. Every attempt runs on the first worker *still* live
/// in the same rotation; an attempt on any worker other than the
/// current halo holder re-ships the halo first. Crashes kill workers
/// for every later tile too. `workers` must be at least 1 whenever
/// there are tiles.
pub fn plan_routed(
    shipment_sizes: &[usize],
    workers: usize,
    dead_at_start: &[bool],
    home: impl Fn(usize) -> usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> Schedule {
    assert_eq!(dead_at_start.len(), workers, "one liveness flag per worker");
    let mut dead = dead_at_start.to_vec();
    let mut tiles = Vec::with_capacity(shipment_sizes.len());
    for (t, &size) in shipment_sizes.iter().enumerate() {
        let home = home(t);
        let entry = first_live_from(home, workers, |w| !dead_at_start[w]);
        let mut out = TileOutcome {
            tile: t,
            initial_worker: entry.unwrap_or(home),
            final_worker: None,
            attempts: 0,
            retries: 0,
            timeouts: 0,
            reshipments: 0,
            reshipped_bytes: 0,
            ticks: 0,
            errors: Vec::new(),
        };
        let mut clock = SimClock::default();
        let bytes = size as u64 * BYTES_PER_POINT;
        // The initial shipment is only valid if its worker has not died
        // under an earlier tile and it is not dropped en route.
        let mut halo_holder = entry.filter(|&w| !dead[w]);
        for attempt in 0..policy.max_attempts {
            let Some(worker) = first_live_from(home, workers, |w| !dead[w]) else {
                out.errors.push(LsgaError::TaskFailed {
                    tile: t,
                    attempts: out.attempts,
                    message: "no surviving workers to re-assign to".into(),
                });
                break;
            };
            if halo_holder != Some(worker) {
                out.reshipments += 1;
                out.reshipped_bytes += bytes;
                halo_holder = Some(worker);
            }
            out.attempts += 1;
            let fault = plan.fault_at(t, attempt);
            match fault {
                None => {
                    clock.advance(policy.task_ticks);
                    out.final_worker = Some(worker);
                    break;
                }
                Some(FaultKind::Straggle { ticks }) if ticks <= policy.timeout_ticks => {
                    // Slow but within the deadline: pure latency.
                    clock.advance(ticks);
                    out.final_worker = Some(worker);
                    break;
                }
                Some(kind) => {
                    let error = match kind {
                        FaultKind::Straggle { .. } => {
                            out.timeouts += 1;
                            clock.advance(policy.timeout_ticks);
                            LsgaError::Timeout {
                                what: "straggling task abandoned",
                                ticks: policy.timeout_ticks,
                            }
                        }
                        FaultKind::CrashBeforeTask | FaultKind::CrashMidTask => {
                            dead[worker] = true;
                            halo_holder = None; // died with the data
                            out.timeouts += 1;
                            clock.advance(policy.timeout_ticks);
                            LsgaError::WorkerLost { worker, tile: t }
                        }
                        FaultKind::DropHaloShipment => {
                            halo_holder = None;
                            out.timeouts += 1;
                            clock.advance(policy.timeout_ticks);
                            LsgaError::ShipmentLost { tile: t }
                        }
                        FaultKind::TaskError => {
                            // The task ran and reported failure itself.
                            clock.advance(policy.task_ticks);
                            LsgaError::TaskFailed {
                                tile: t,
                                attempts: out.attempts,
                                message: "transient task error".into(),
                            }
                        }
                    };
                    out.errors.push(error);
                    out.retries += 1;
                    if attempt + 1 < policy.max_attempts {
                        clock.advance(policy.backoff_after(attempt));
                    } else {
                        out.errors.push(LsgaError::TaskFailed {
                            tile: t,
                            attempts: out.attempts,
                            message: "retry budget exhausted".into(),
                        });
                    }
                }
            }
        }
        out.ticks = clock.now();
        tiles.push(out);
    }
    let dead_workers: Vec<usize> = (0..workers).filter(|&w| dead[w]).collect();
    let sim_ticks = tiles.iter().map(|o| o.ticks).max().unwrap_or(0);
    Schedule {
        tiles,
        dead_workers,
        sim_ticks,
    }
}

/// Per-tile result of a supervised run: the computed value and its
/// measured compute time, or `None` for abandoned tiles.
pub struct Supervised<T> {
    pub per_tile: Vec<Option<(T, Duration)>>,
    pub schedule: Schedule,
}

/// Phase 2: run `compute(tile)` for every scheduled-successful tile on
/// the shared thread pool and merge with the schedule. A task returning
/// `Err` (a real, non-injected failure) demotes its tile to abandoned —
/// a supervisor-visible failure, never a panic.
pub fn run_supervised<T, F>(
    shipment_sizes: &[usize],
    plan: &FaultPlan,
    policy: &RetryPolicy,
    compute: F,
) -> Supervised<T>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let _span = obs::span("dist.run_supervised");
    let mut schedule = plan_schedule(shipment_sizes, plan, policy);
    let raw: Vec<Option<(Result<T>, Duration)>> =
        par_map(shipment_sizes.len(), 1, Threads::auto(), |t| {
            if schedule.tiles[t].executed() {
                let start = Instant::now();
                let r = compute(t);
                Some((r, start.elapsed()))
            } else {
                None
            }
        });
    let mut per_tile = Vec::with_capacity(raw.len());
    for (t, slot) in raw.into_iter().enumerate() {
        match slot {
            Some((Ok(v), d)) => per_tile.push(Some((v, d))),
            Some((Err(e), _)) => {
                schedule.tiles[t].final_worker = None;
                schedule.tiles[t].errors.push(e);
                per_tile.push(None);
            }
            None => per_tile.push(None),
        }
    }
    Supervised { per_tile, schedule }
}

/// Reject non-finite coordinates up front: on the worker path they
/// would silently corrupt rasters (KDV) or panic while deriving the
/// partition raster (K-function). Converted from a panic/corruption
/// site to a structured error.
pub fn validate_points(points: &[Point]) -> Result<()> {
    for (i, p) in points.iter().enumerate() {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(LsgaError::InvalidParameter {
                name: "points",
                message: format!("point {i} has non-finite coordinates ({}, {})", p.x, p.y),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy::default()
    }

    #[test]
    fn fault_free_schedule_is_trivial() {
        let s = plan_schedule(&[10, 20, 30], &FaultPlan::none(), &policy());
        assert_eq!(s.tiles.len(), 3);
        for (t, o) in s.tiles.iter().enumerate() {
            assert_eq!(o.final_worker, Some(t));
            assert_eq!(o.attempts, 1);
            assert_eq!(o.retries, 0);
            assert_eq!(o.reshipped_bytes, 0);
            assert_eq!(o.ticks, policy().task_ticks);
            assert!(o.errors.is_empty());
        }
        assert!(s.dead_workers.is_empty());
        assert_eq!(s.sim_ticks, policy().task_ticks);
    }

    #[test]
    fn crash_reassigns_to_survivor_and_reships() {
        let plan = FaultPlan::none().with(1, 0, FaultKind::CrashMidTask);
        let s = plan_schedule(&[5, 7, 9], &plan, &policy());
        let o = &s.tiles[1];
        assert_eq!(o.final_worker, Some(2), "next live worker in rotation");
        assert_eq!(o.attempts, 2);
        assert_eq!(o.retries, 1);
        assert_eq!(o.timeouts, 1);
        assert_eq!(o.reshipments, 1);
        assert_eq!(o.reshipped_bytes, 7 * BYTES_PER_POINT);
        assert_eq!(
            o.ticks,
            policy().timeout_ticks + policy().backoff_after(0) + policy().task_ticks
        );
        assert!(matches!(
            o.errors[0],
            LsgaError::WorkerLost { worker: 1, tile: 1 }
        ));
        assert_eq!(s.dead_workers, vec![1]);
        assert!(o.recovered());
    }

    #[test]
    fn tile_whose_initial_worker_died_earlier_reships_at_first_attempt() {
        // Tile 0 crashes worker 0's replacement chain: kill worker 1 via
        // tile 0's first retry landing there.
        let plan = FaultPlan::none()
            .with(0, 0, FaultKind::CrashBeforeTask) // kills worker 0
            .with(0, 1, FaultKind::CrashBeforeTask); // retry on worker 1 dies too
        let s = plan_schedule(&[4, 4, 4], &plan, &policy());
        assert_eq!(s.tiles[0].final_worker, Some(2));
        assert_eq!(s.dead_workers, vec![0, 1]);
        // Tile 1's initial worker (1) is dead before it ever ran: its
        // first attempt must re-ship to worker 2.
        let o1 = &s.tiles[1];
        assert_eq!(o1.final_worker, Some(2));
        assert_eq!(o1.attempts, 1);
        assert_eq!(o1.reshipments, 1);
        assert!(!o1.recovered(), "no failed attempts, just a re-ship");
    }

    #[test]
    fn dropped_shipment_is_reshipped_to_same_worker() {
        let plan = FaultPlan::none().with(0, 0, FaultKind::DropHaloShipment);
        let s = plan_schedule(&[11], &plan, &policy());
        let o = &s.tiles[0];
        assert_eq!(o.final_worker, Some(0));
        assert_eq!(o.reshipments, 1);
        assert_eq!(o.reshipped_bytes, 11 * BYTES_PER_POINT);
        assert!(matches!(o.errors[0], LsgaError::ShipmentLost { tile: 0 }));
        assert!(s.dead_workers.is_empty());
    }

    #[test]
    fn straggler_below_timeout_is_latency_only() {
        let plan = FaultPlan::none().with(0, 0, FaultKind::Straggle { ticks: 33 });
        let s = plan_schedule(&[3, 3], &plan, &policy());
        let o = &s.tiles[0];
        assert_eq!(o.retries, 0);
        assert_eq!(o.timeouts, 0);
        assert_eq!(o.ticks, 33);
        assert!(o.executed() && !o.recovered());
        assert_eq!(s.sim_ticks, 33, "slowest tile dominates");
    }

    #[test]
    fn straggler_over_timeout_fires_and_retries() {
        let plan = FaultPlan::none().with(0, 0, FaultKind::Straggle { ticks: 1000 });
        let s = plan_schedule(&[3], &plan, &policy());
        let o = &s.tiles[0];
        assert_eq!(o.timeouts, 1);
        assert_eq!(o.retries, 1);
        assert!(o.executed());
        assert_eq!(
            o.ticks,
            policy().timeout_ticks + policy().backoff_after(0) + policy().task_ticks
        );
        assert!(matches!(o.errors[0], LsgaError::Timeout { .. }));
    }

    #[test]
    fn exhausted_budget_abandons_with_structured_errors() {
        let mut plan = FaultPlan::none();
        for attempt in 0..policy().max_attempts {
            plan.push(0, attempt, FaultKind::TaskError);
        }
        let s = plan_schedule(&[2], &plan, &policy());
        let o = &s.tiles[0];
        assert!(!o.executed());
        assert_eq!(o.attempts, policy().max_attempts);
        assert!(matches!(
            o.errors.last(),
            Some(LsgaError::TaskFailed { .. })
        ));
        let report = CoverageReport::from_schedule(&s, &[100]);
        assert_eq!(report.abandoned, vec![0]);
        assert_eq!(report.covered_work, 0);
        assert_eq!(report.fraction(), 0.0);
        assert!(!report.is_complete());
        assert_eq!(report.failures.len(), 1);
    }

    #[test]
    fn no_survivors_abandons_remaining_tiles() {
        // Single worker; it crashes: nothing left to retry on.
        let plan = FaultPlan::none().with(0, 0, FaultKind::CrashBeforeTask);
        let s = plan_schedule(&[6], &plan, &policy());
        let o = &s.tiles[0];
        assert!(!o.executed());
        assert_eq!(o.attempts, 1, "one attempt, then no survivors");
        assert_eq!(s.dead_workers, vec![0]);
        assert!(o
            .errors
            .iter()
            .any(|e| matches!(e, LsgaError::TaskFailed { .. })));
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan::seeded(99, 4, 9);
        let a = plan_schedule(&[8, 9, 10, 11], &plan, &policy());
        let b = plan_schedule(&[8, 9, 10, 11], &plan, &policy());
        assert_eq!(a, b);
    }

    #[test]
    fn run_supervised_demotes_compute_errors() {
        let sizes = [1usize, 1, 1];
        let sup = run_supervised(&sizes, &FaultPlan::none(), &policy(), |t| {
            if t == 1 {
                Err(LsgaError::TaskFailed {
                    tile: t,
                    attempts: 1,
                    message: "real failure".into(),
                })
            } else {
                Ok(t * 10)
            }
        });
        assert_eq!(sup.per_tile[0].as_ref().map(|(v, _)| *v), Some(0));
        assert!(sup.per_tile[1].is_none());
        assert_eq!(sup.per_tile[2].as_ref().map(|(v, _)| *v), Some(20));
        assert!(!sup.schedule.tiles[1].executed());
        let report = CoverageReport::from_schedule(&sup.schedule, &[1, 1, 1]);
        assert_eq!(report.abandoned, vec![1]);
    }

    #[test]
    fn validate_points_flags_non_finite() {
        assert!(validate_points(&[Point::new(1.0, 2.0)]).is_ok());
        let err = validate_points(&[Point::new(1.0, f64::NAN)]).unwrap_err();
        assert!(matches!(err, LsgaError::InvalidParameter { .. }));
        let err = validate_points(&[Point::new(f64::INFINITY, 0.0)]).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn coverage_report_complete_run() {
        let s = plan_schedule(&[1, 1], &FaultPlan::none(), &policy());
        let r = CoverageReport::from_schedule(&s, &[30, 70]);
        assert!(r.is_complete());
        assert_eq!(r.fraction(), 1.0);
        assert_eq!(r.covered_work, 100);
        assert_eq!(r.recovered_tiles, 0);
        // Empty run counts as fully covered.
        let empty = CoverageReport::from_schedule(&Schedule::default(), &[]);
        assert!(empty.is_complete());
        assert_eq!(empty.fraction(), 1.0);
    }
}
