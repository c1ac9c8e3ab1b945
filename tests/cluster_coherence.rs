//! Coherence property suite for the multi-node serving cluster.
//!
//! The headline invariant of `lsga_serve::cluster`: **every tile a
//! cluster serves is bit-identical to [`compute_tile_direct`] on the
//! layer's current point sequence**, under any ownership map, any
//! append/broadcast interleaving, and any *recoverable* fault schedule
//! — while doomed schedules degrade to a partial result with an exact
//! [`CoverageReport`] instead of wrong bits or a panic.
//!
//! Every scenario runs the per-node pools at 1 and 8 threads; CI
//! repeats the binary under `LSGA_THREADS` {1, 8} which additionally
//! covers the `Threads::auto()` default path. All `cluster.*`
//! counters come from sequential routing/planning loops, so the
//! thread-invariance test asserts exact equality of drained snapshots.

use lsga::core::par::Threads;
use lsga::dist::{CoverageReport, FaultKind, FaultPlan, RetryPolicy};
use lsga::obs::{self as obs, Counter};
use lsga::prelude::*;
use lsga::serve::{
    compute_tile_direct, home_node, tile_bbox, z_order_key, ClusterConfig, ClusterServer,
    StkdvCompute, TileCoord, TileServerConfig,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

// The obs registry is process-global; tests that enable/drain it (or
// emit counters while another test has it enabled) must not overlap,
// so every test in this binary serializes here.
static LOCK: Mutex<()> = Mutex::new(());

const TILE_PX: usize = 8;
const MAX_ZOOM: u8 = 2;
const TAIL_EPS: f64 = 1e-6;

fn window() -> BBox {
    BBox::new(0.0, 0.0, 100.0, 100.0)
}

fn kernel_for(idx: usize, b: f64) -> AnyKernel {
    KernelKind::ALL[idx % KernelKind::ALL.len()].with_bandwidth(b)
}

/// Deterministic scatter inside the window.
fn scatter(n: usize, salt: u64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let f = (i as f64) + (salt as f64) * 0.618;
            Point::new(
                50.0 + (f * 0.831).sin() * 49.0,
                50.0 + (f * 0.557).cos() * 49.0,
            )
        })
        .collect()
}

/// Every tile of the pyramid up to `MAX_ZOOM`, in Z-order-friendly
/// scan order.
fn pyramid() -> Vec<TileCoord> {
    let mut coords = Vec::new();
    for z in 0..=MAX_ZOOM {
        let n = 1u32 << z;
        for y in 0..n {
            for x in 0..n {
                coords.push(TileCoord::new(z, x, y));
            }
        }
    }
    coords
}

fn cluster(nodes: usize, threads: usize) -> ClusterServer {
    ClusterServer::new(ClusterConfig {
        nodes,
        node: TileServerConfig {
            tile_px: TILE_PX,
            max_zoom: MAX_ZOOM,
            shards: 2,
            byte_budget: 1 << 20,
            threads: Threads::exact(threads),
            ..TileServerConfig::default()
        },
    })
    .expect("cluster")
}

fn assert_bits(
    served: &lsga::serve::Tile,
    mirror: &[Point],
    kernel: AnyKernel,
    c: TileCoord,
) -> Result<(), TestCaseError> {
    let direct = compute_tile_direct(mirror, &window(), kernel, TAIL_EPS, TILE_PX, c);
    for (i, (a, b)) in served.grid.values().iter().zip(direct.values()).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "pixel {} of tile ({},{},{}) diverged from the oracle",
            i,
            c.z,
            c.x,
            c.y
        );
    }
    Ok(())
}

#[test]
fn ownership_map_is_total_deterministic_and_distinct() {
    let _g = LOCK.lock().unwrap();
    // Distinct tiles get distinct Z-order keys across the pyramid.
    let coords = pyramid();
    let mut keys: Vec<u64> = coords.iter().map(|&c| z_order_key(c)).collect();
    keys.sort_unstable();
    let before = keys.len();
    keys.dedup();
    assert_eq!(
        before,
        keys.len(),
        "z_order_key collided inside the pyramid"
    );

    // Homes are total and stable, and with all nodes alive the route
    // is the home.
    for nodes in 1..=5 {
        let c = cluster(nodes, 1);
        for &coord in &coords {
            let home = home_node(coord, nodes);
            assert!(home < nodes);
            assert_eq!(home, home_node(coord, nodes), "home not deterministic");
            assert_eq!(c.route(coord).expect("route"), home);
        }
    }
}

#[test]
fn routing_rehomes_a_dead_nodes_range_to_survivors() {
    let _g = LOCK.lock().unwrap();
    let c = cluster(3, 1);
    let coords = pyramid();
    c.kill_node(1);
    assert_eq!(c.alive_nodes(), vec![0, 2]);
    for &coord in &coords {
        let w = c.route(coord).expect("route with survivors");
        assert_ne!(w, 1, "routed to a dead node");
        let home = home_node(coord, 3);
        if home == 1 {
            // The rotation re-homes node 1's range to node 2 first.
            assert_eq!(w, 2);
        } else {
            assert_eq!(w, home, "live homes must keep their range");
        }
    }
    c.kill_node(2);
    for &coord in &coords {
        assert_eq!(c.route(coord).expect("one survivor"), 0);
    }
    c.kill_node(0);
    assert!(c.route(coords[0]).is_err(), "no survivors must refuse");
}

/// Appends broadcast to every live node; a node killed between
/// appends goes stale but is never routed to, so every served tile —
/// including the dead node's re-homed range — reflects the full point
/// sequence.
#[test]
fn node_death_mid_invalidation_keeps_survivors_coherent() {
    let _g = LOCK.lock().unwrap();
    let kernel = kernel_for(2, 9.0);
    let c = cluster(3, 4);
    let mut mirror = scatter(160, 1);
    let layer = c
        .add_layer(mirror.clone(), window(), kernel, TAIL_EPS)
        .expect("layer");
    let coords = pyramid();

    // Warm every node's cache, then append (broadcast #1).
    let served = c.get_tiles(layer, &coords).expect("warm");
    assert_eq!(served.len(), coords.len());
    let batch1 = scatter(40, 7);
    c.insert_points(layer, &batch1).expect("append 1");
    mirror.extend_from_slice(&batch1);
    assert_eq!(c.generation(), 1);

    // Kill a node mid-stream, then append again (broadcast #2 reaches
    // only the survivors).
    c.kill_node(1);
    let batch2 = scatter(40, 13);
    c.insert_points(layer, &batch2).expect("append 2");
    mirror.extend_from_slice(&batch2);
    assert_eq!(c.generation(), 2);

    // Every tile — the dead node's re-homed range included — serves
    // post-append bits.
    for &coord in &coords {
        let tile = c
            .get_tile(layer, coord.z, coord.x, coord.y)
            .expect("survivor serve");
        let direct = compute_tile_direct(&mirror, &window(), kernel, TAIL_EPS, TILE_PX, coord);
        for (a, b) in tile.grid.values().iter().zip(direct.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "stale bits after node death");
        }
    }
}

/// An append to a cluster with no live node is refused — no replica
/// would store it, so acking it would lose the write — and the
/// cluster generation does not move. A supervised batch on the dead
/// cluster still weighs each tile by every acked append: the halo
/// counts come from the newest replica, not from a stale one.
#[test]
fn appends_to_a_fully_dead_cluster_are_refused() {
    let _g = LOCK.lock().unwrap();
    let kernel = kernel_for(1, 10.0);
    let radius = kernel.effective_radius(TAIL_EPS);
    let c = cluster(3, 1);
    let mut mirror = scatter(80, 21);
    let layer = c
        .add_layer(mirror.clone(), window(), kernel, TAIL_EPS)
        .expect("layer");
    let timed = |n: usize, salt: u64| -> Vec<TimedPoint> {
        scatter(n, salt)
            .into_iter()
            .map(|p| TimedPoint::new(p.x, p.y, 5.0))
            .collect()
    };
    let st = c
        .add_compute_layer(Arc::new(
            StkdvCompute::new(
                &timed(20, 24),
                window(),
                kernel,
                PolyKernel::new(KernelKind::Quartic, 4.0).expect("temporal kernel"),
                0.0,
                10.0,
                2,
                TAIL_EPS,
            )
            .expect("stkdv compute"),
        ))
        .expect("stkdv layer");

    // Node 0 dies first, so its replica misses the one acked append.
    c.kill_node(0);
    let batch = scatter(30, 22);
    c.insert_points(layer, &batch)
        .expect("append with survivors");
    mirror.extend_from_slice(&batch);
    assert_eq!(c.generation(), 1);

    c.kill_node(1);
    c.kill_node(2);
    assert!(c.alive_nodes().is_empty());
    assert!(
        c.insert_points(layer, &scatter(5, 23)).is_err(),
        "a planar append with no live node must be refused"
    );
    assert!(
        c.insert_timed_points(st, &timed(5, 25)).is_err(),
        "a timed append with no live node must be refused"
    );
    assert_eq!(c.generation(), 1, "a refused append must not commit");

    let coords = pyramid();
    let out = c
        .get_tiles_supervised(layer, &coords, &FaultPlan::none(), &RetryPolicy::default())
        .expect("fully dead cluster still degrades");
    let acked_halos: usize = coords
        .iter()
        .map(|&coord| {
            let halo = tile_bbox(&window(), coord).inflate(radius);
            mirror.iter().filter(|p| halo.contains(p)).count()
        })
        .sum();
    assert_eq!(out.report.total_work, acked_halos);
    assert_eq!(out.report.covered_work, 0);
}

/// A schedule that exhausts one tile's retry budget degrades to a
/// partial batch with that tile `None` and an exact coverage report —
/// and every tile that *did* execute still carries oracle bits.
#[test]
fn doomed_plan_degrades_to_a_coverage_report() {
    let _g = LOCK.lock().unwrap();
    let kernel = kernel_for(0, 8.0);
    let c = cluster(3, 2);
    let mirror = scatter(120, 3);
    let layer = c
        .add_layer(mirror.clone(), window(), kernel, TAIL_EPS)
        .expect("layer");
    let coords = pyramid();
    let policy = RetryPolicy::default();

    let doomed = 2usize;
    let mut plan = FaultPlan::none();
    for attempt in 0..policy.max_attempts {
        plan.push(doomed, attempt, FaultKind::TaskError);
    }

    let out = c
        .get_tiles_supervised(layer, &coords, &plan, &policy)
        .expect("supervised");
    assert_eq!(out.tiles.len(), coords.len());
    assert!(out.tiles[doomed].is_none(), "doomed tile must be absent");
    assert!(!out.report.is_complete());
    assert!(out.report.fraction() < 1.0);
    assert!(out.report.abandoned.contains(&doomed));
    assert!(!out.schedule.tiles[doomed].executed());
    for (t, (tile, &coord)) in out.tiles.iter().zip(&coords).enumerate() {
        if t == doomed {
            continue;
        }
        let tile = tile.as_ref().expect("non-doomed tile executed");
        let direct = compute_tile_direct(&mirror, &window(), kernel, TAIL_EPS, TILE_PX, coord);
        for (a, b) in tile.grid.values().iter().zip(direct.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // The degenerate doom: kill every node, and a supervised batch
    // reports zero coverage instead of erroring.
    for w in 0..3 {
        c.kill_node(w);
    }
    let out = c
        .get_tiles_supervised(layer, &coords, &FaultPlan::none(), &policy)
        .expect("fully dead cluster still degrades");
    assert!(out.tiles.iter().all(Option::is_none));
    assert_eq!(out.report.fraction(), 0.0);
    assert_eq!(
        CoverageReport::from_schedule(&out.schedule, &vec![1; coords.len()]).executed_tiles,
        0
    );
}

/// A crash fault kills the owning node; its tiles re-home to the next
/// survivor with the halo re-shipped, and the cluster counters account
/// the re-homing exactly (they are planned sequentially, so the audit
/// is an equality, not a bound).
#[test]
fn crash_rehoming_charges_halo_bytes_exactly() {
    let _g = LOCK.lock().unwrap();
    let kernel = kernel_for(1, 10.0);
    let radius = kernel.effective_radius(TAIL_EPS);
    let c = cluster(3, 2);
    let mirror = scatter(140, 5);
    let layer = c
        .add_layer(mirror.clone(), window(), kernel, TAIL_EPS)
        .expect("layer");
    let coords = pyramid();
    let policy = RetryPolicy::default();

    // Crash the home of coords[4] on its first attempt.
    let victim_tile = 4usize;
    let victim_node = home_node(coords[victim_tile], 3);
    let plan = FaultPlan::none().with(victim_tile, 0, FaultKind::CrashBeforeTask);

    obs::reset();
    obs::enable();
    let out = c
        .get_tiles_supervised(layer, &coords, &plan, &policy)
        .expect("supervised");
    let rehomed_planned: u64 = out
        .schedule
        .tiles
        .iter()
        .filter(|o| o.executed() && o.final_worker != Some(o.initial_worker))
        .count() as u64;
    let reshipped_planned: u64 = out.schedule.tiles.iter().map(|o| o.reshipped_bytes).sum();
    let snap = obs::drain();
    obs::disable();

    // The schedule: victim node dead, victim tile recovered elsewhere.
    assert_eq!(out.schedule.dead_workers, vec![victim_node]);
    assert!(!c.is_alive(victim_node));
    let vo = &out.schedule.tiles[victim_tile];
    assert!(vo.executed() && vo.recovered());
    assert_ne!(vo.final_worker, Some(victim_node));
    assert_eq!(vo.reshipments, 1);

    // Exact byte audit: the halo of the victim tile is the points in
    // its kernel-inflated bbox at 16 bytes each.
    let halo = tile_bbox(&window(), coords[victim_tile]).inflate(radius);
    let halo_points = mirror.iter().filter(|p| halo.contains(p)).count() as u64;
    assert_eq!(vo.reshipped_bytes, halo_points * 16);

    // Counters mirror the schedule exactly.
    assert_eq!(snap.counter("cluster.node_deaths"), 1);
    assert_eq!(snap.counter("cluster.tiles_rehomed"), rehomed_planned);
    assert_eq!(snap.counter("cluster.reshipped_bytes"), reshipped_planned);
    assert!(rehomed_planned >= 1);
    assert_eq!(snap.counter("cluster.routed_requests"), coords.len() as u64);
    // The re-home span was emitted for each re-homed serve.
    let spans = snap.spans();
    let rehome = spans
        .iter()
        .find(|s| s.name == "cluster.rehome")
        .expect("cluster.rehome span");
    assert_eq!(rehome.count, rehomed_planned);

    // And the recovered tiles are still oracle bits.
    for (tile, &coord) in out.tiles.iter().zip(&coords) {
        let tile = tile.as_ref().expect("recoverable plan covers all");
        let direct = compute_tile_direct(&mirror, &window(), kernel, TAIL_EPS, TILE_PX, coord);
        for (a, b) in tile.grid.values().iter().zip(direct.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert!(out.report.is_complete());
}

/// One randomized cluster storm at a given pool width: seeded appends,
/// a seeded fault schedule, and a full-pyramid supervised batch, every
/// served tile checked against the oracle.
#[allow(clippy::too_many_arguments)]
fn run_storm(
    threads: usize,
    nodes: usize,
    kidx: usize,
    bandwidth: f64,
    n0: usize,
    appends: usize,
    seed: u64,
    crashes: bool,
) -> Result<(), TestCaseError> {
    let kernel = kernel_for(kidx, bandwidth);
    let c = cluster(nodes, threads);
    let mut mirror = scatter(n0, seed);
    let layer = c
        .add_layer(mirror.clone(), window(), kernel, TAIL_EPS)
        .expect("layer");
    let coords = pyramid();
    let policy = RetryPolicy::default();

    for a in 0..appends {
        let batch = scatter(20 + a * 7, seed ^ (a as u64 + 11));
        c.insert_points(layer, &batch).expect("broadcast append");
        mirror.extend_from_slice(&batch);
        // Interleave plain routed reads with the appends.
        let probe = coords[(seed as usize + a * 5) % coords.len()];
        let tile = c
            .get_tile(layer, probe.z, probe.x, probe.y)
            .expect("routed read");
        assert_bits(&tile, &mirror, kernel, probe)?;
    }

    let plan = if crashes {
        // May kill nodes and may doom tiles: served bits must still be
        // oracle bits, and misses must be reported exactly.
        FaultPlan::seeded(seed, coords.len(), 4)
    } else {
        // Never kills a node and always recoverable: full coverage.
        FaultPlan::seeded_recoverable(seed, coords.len(), 6)
    };
    let out = c
        .get_tiles_supervised(layer, &coords, &plan, &policy)
        .expect("supervised storm");
    prop_assert_eq!(out.tiles.len(), coords.len());

    let mut absent = Vec::new();
    for (t, (tile, &coord)) in out.tiles.iter().zip(&coords).enumerate() {
        match tile {
            Some(tile) => assert_bits(tile, &mirror, kernel, coord)?,
            None => absent.push(t),
        }
    }
    prop_assert_eq!(absent.clone(), out.report.abandoned.clone());
    prop_assert_eq!(out.report.is_complete(), absent.is_empty());
    if !crashes {
        prop_assert!(
            absent.is_empty(),
            "recoverable schedule must cover every tile"
        );
    }

    // After the storm the cluster keeps serving: every tile from a
    // plain routed read still matches the oracle (dead homes re-homed).
    if !c.alive_nodes().is_empty() {
        for &coord in coords.iter().step_by(3) {
            let tile = c
                .get_tile(layer, coord.z, coord.x, coord.y)
                .expect("post-storm read");
            assert_bits(&tile, &mirror, kernel, coord)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: seeded fault plans × ownership maps ×
    /// pool widths {1, 8}, every served tile bit-identical to the
    /// single-node oracle, every miss reported.
    fn supervised_storms_serve_oracle_bits(
        nodes in 1usize..=5,
        kidx in 0usize..7,
        bandwidth in 6.0f64..14.0,
        n0 in 60usize..160,
        appends in 0usize..3,
        seed in 0u64..1_000_000,
        crashes in any::<bool>(),
    ) {
        let _g = LOCK.lock().unwrap();
        for &threads in &[1usize, 8] {
            run_storm(threads, nodes, kidx, bandwidth, n0, appends, seed, crashes)?;
        }
    }
}

/// The `cluster.*` observability is planned sequentially, so drained
/// snapshots are exactly equal across per-node pool widths.
#[test]
fn cluster_counters_are_thread_invariant() {
    let _g = LOCK.lock().unwrap();
    let run = |threads: usize| {
        obs::reset();
        obs::enable();
        let kernel = kernel_for(3, 8.5);
        let c = cluster(4, threads);
        let mut mirror = scatter(130, 9);
        let layer = c
            .add_layer(mirror.clone(), window(), kernel, TAIL_EPS)
            .expect("layer");
        let coords = pyramid();
        let batch = scatter(30, 21);
        c.insert_points(layer, &batch).expect("append");
        mirror.extend_from_slice(&batch);
        let plan = FaultPlan::seeded(77, coords.len(), 5);
        let out = c
            .get_tiles_supervised(layer, &coords, &plan, &RetryPolicy::default())
            .expect("supervised");
        let snap = obs::drain();
        obs::disable();
        let mut values: Vec<(String, u64)> = [
            "cluster.routed_requests",
            "cluster.invalidations_broadcast",
            "cluster.node_deaths",
            "cluster.tiles_rehomed",
            "cluster.reshipped_bytes",
        ]
        .iter()
        .map(|&n| (n.to_string(), snap.counter(n)))
        .collect();
        values.push(("abandoned".into(), out.report.abandoned.len() as u64));
        values
    };
    assert_eq!(run(1), run(8), "cluster.* diverged across pool widths");
}

#[test]
fn cluster_counters_are_registered() {
    let _g = LOCK.lock().unwrap();
    let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    for n in [
        "cluster.routed_requests",
        "cluster.invalidations_broadcast",
        "cluster.node_deaths",
        "cluster.tiles_rehomed",
        "cluster.reshipped_bytes",
    ] {
        assert!(names.contains(&n), "missing counter {n}");
    }
}
