//! The routed planner (`plan_routed`) under a non-identity home map and
//! a cluster with a worker already dead at the start.
//!
//! This is its own test binary because it drains the process-global
//! obs registry: no other test may publish `dist.*` counters while it
//! checks that the routed planner publishes none.

use lsga_core::LsgaError;
use lsga_dist::metrics::BYTES_PER_POINT;
use lsga_dist::{plan_routed, plan_schedule, FaultKind, FaultPlan, RetryPolicy};

const DIST_COUNTERS: [&str; 4] = [
    "dist.retries",
    "dist.timeouts",
    "dist.halo_reshipments",
    "dist.reshipped_bytes",
];

#[test]
fn routed_planner_starts_at_the_first_live_home_and_publishes_nothing() {
    // Four workers, worker 1 dead before planning starts.
    let dead_at_start = [false, true, false, false];
    let homes = [1usize, 3, 2, 0];
    let sizes = [5usize, 6, 7, 8];
    // Tile 0 crashes the worker it starts on (2), killing tile 2's home.
    let plan = FaultPlan::none().with(0, 0, FaultKind::CrashBeforeTask);
    let policy = RetryPolicy::default();

    lsga_obs::reset();
    lsga_obs::enable();
    let s = plan_routed(&sizes, 4, &dead_at_start, |t| homes[t], &plan, &policy);
    let snap = lsga_obs::drain();

    // The first node live at the start, in rotation from the home, is
    // the initial worker: tile 0's home (1) is dead, so it starts on 2.
    let o0 = &s.tiles[0];
    assert_eq!(o0.initial_worker, 2);
    assert_eq!(o0.attempts, 2);
    assert!(matches!(
        o0.errors[0],
        LsgaError::WorkerLost { worker: 2, tile: 0 }
    ));
    assert_eq!(o0.final_worker, Some(3), "retry on the next survivor");
    assert_eq!(o0.reshipments, 1);
    // Live homes keep their tiles, with no re-shipment.
    for t in [1, 3] {
        assert_eq!(s.tiles[t].initial_worker, homes[t]);
        assert_eq!(s.tiles[t].final_worker, Some(homes[t]));
        assert_eq!(s.tiles[t].reshipments, 0);
    }
    // Tile 2's home died under tile 0: its first attempt re-ships.
    let o2 = &s.tiles[2];
    assert_eq!(o2.initial_worker, 2);
    assert_eq!(o2.final_worker, Some(3));
    assert_eq!(o2.attempts, 1);
    assert_eq!(o2.reshipments, 1);
    assert_eq!(o2.reshipped_bytes, 7 * BYTES_PER_POINT);
    assert!(!o2.recovered(), "no failed attempt, just a re-ship");
    assert_eq!(s.dead_workers, vec![1, 2]);

    // The routed planner publishes nothing under `dist.*`.
    for name in DIST_COUNTERS {
        assert_eq!(snap.counter(name), 0, "{name} moved");
    }
    let attempts = snap
        .histograms()
        .iter()
        .find(|h| h.name == "dist.tile_attempts")
        .expect("registered histogram");
    assert_eq!(attempts.count, 0);
    assert!(snap.events().iter().all(|e| e.name != "dist.reshipment"));

    // While dist's own wrapper, on the same collector, does.
    let _ = plan_schedule(&sizes, &plan, &policy);
    let snap = lsga_obs::drain();
    lsga_obs::disable();
    assert_eq!(snap.counter("dist.retries"), 1);
    assert_eq!(snap.counter("dist.halo_reshipments"), 1);
}
