//! The quality-tier state machine, proven against the exact oracle.
//!
//! Contracts pinned here:
//!
//! - **Exact tier**: a request without a policy, or one the admission
//!   controller admits, serves bits identical to [`compute_tile_direct`]
//!   — and an exact request treats a degraded cache entry as a miss,
//!   never as an answer.
//! - **Degraded tier**: a forced-degrade request serves a tile stamped
//!   with its tier metadata (mode, ε, seed, sample size), whose raster
//!   respects the stamped guarantee — additive `ε·n·K(0)` for sampling
//!   (Eq. 7), relative `(1±ε)` for bound-refinement (Eq. 6).
//! - **Refinement**: a committed degraded entry is upgraded in the
//!   background to the bit-exact tile; a refinement racing an append
//!   (generation bump) or a foreground exact compute is discarded, never
//!   applied — counted in `serve.refine_discards`.
//!
//! Degrade decisions are made deterministic the same way the CI job
//! does it: `set_compute_estimate` seeds the admission EWMA and a zero
//! deadline makes every cold policy request degrade.

use lsga::core::par::Threads;
use lsga::network;
use lsga::obs;
use lsga::prelude::*;
use lsga::serve::{
    compute_tile_direct, ApproxMode, HookPoint, HotspotCompute, HotspotStat, LayerId, NkdvCompute,
    QualityPolicy, StkdvCompute, TileCoord, TileServer, TileServerConfig, TileTier,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

// The obs registry is process-global, and a refinement from one test's
// server can land in another test's counter snapshot, so every test
// that builds a server serializes here.
static LOCK: Mutex<()> = Mutex::new(());

/// Take `LOCK`, ignoring poison: a failed test must stay one failure
/// instead of failing every test that runs after it.
fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const TILE_PX: usize = 32;

fn window() -> BBox {
    BBox::new(0.0, 0.0, 100.0, 100.0)
}

fn points(n: usize) -> Vec<Point> {
    lsga::data::uniform_points(n, window(), 77)
}

fn server() -> TileServer {
    TileServer::new(TileServerConfig {
        tile_px: TILE_PX,
        max_zoom: 3,
        shards: 4,
        byte_budget: 1 << 22,
        threads: Threads::exact(2),
        ..TileServerConfig::default()
    })
}

fn sampling_policy(eps: f64) -> QualityPolicy {
    QualityPolicy::new(
        Duration::ZERO,
        ApproxMode::Sampling {
            eps,
            delta: 0.01,
            seed: 5,
        },
    )
    .unwrap()
}

/// Park the refinement worker until the gate opens, so tests can
/// observe the cache in its degraded state and stage races on purpose.
fn gate_refinements(s: &TileServer) -> Arc<AtomicBool> {
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    s.set_hook(Some(Arc::new(move |point| {
        if !matches!(point, HookPoint::Refine(_)) {
            return;
        }
        while !g.load(Ordering::Acquire) {
            thread::yield_now();
        }
    })));
    gate
}

#[test]
fn policy_constructor_rejects_nonsense_parameters() {
    let d = Duration::from_millis(10);
    for (eps, delta) in [
        (0.0, 0.1),
        (-0.5, 0.1),
        (f64::NAN, 0.1),
        (f64::INFINITY, 0.1),
        (0.1, 0.0),
        (0.1, 1.0),
        (0.1, -1.0),
        (0.1, f64::NAN),
    ] {
        assert!(
            QualityPolicy::new(
                d,
                ApproxMode::Sampling {
                    eps,
                    delta,
                    seed: 1
                }
            )
            .is_err(),
            "Sampling eps={eps} delta={delta} must be rejected"
        );
    }
    for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(
            QualityPolicy::new(d, ApproxMode::Bounds { eps }).is_err(),
            "Bounds eps={eps} must be rejected"
        );
    }
    // The valid case precomputes the Eq. 7 sample size.
    let p = QualityPolicy::new(
        d,
        ApproxMode::Sampling {
            eps: 0.05,
            delta: 0.01,
            seed: 1,
        },
    )
    .unwrap();
    assert_eq!(
        p.sample_size(),
        lsga::kdv::sample_size_for_guarantee(0.05, 0.01).unwrap()
    );
}

#[test]
fn degraded_tile_is_stamped_bounded_and_then_refined_to_exact_bits() {
    let _g = serialize();
    let pts = points(4_000);
    let kernel = KernelKind::Quartic.with_bandwidth(8.0);
    let s = server();
    let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
    let gate = gate_refinements(&s);
    s.set_compute_estimate(Duration::from_secs(1));
    let eps = 0.1;
    let policy = sampling_policy(eps);

    let c = TileCoord::new(1, 1, 0);
    let tile = s
        .get_tile_with_policy(layer, c.z, c.x, c.y, &policy)
        .unwrap();

    // Tier metadata records exactly how the raster was produced.
    match tile.tier {
        TileTier::Sampled {
            eps: e,
            delta,
            seed,
            sample_size,
            n,
        } => {
            assert_eq!(e, eps);
            assert_eq!(delta, 0.01);
            assert_eq!(seed, 5);
            assert_eq!(n, pts.len());
            assert_eq!(sample_size, policy.sample_size().min(pts.len()));
        }
        ref t => panic!("expected a Sampled tier, got {t:?}"),
    }

    // The raster respects the stamped additive bound (2× slack for δ).
    let oracle = compute_tile_direct(&pts, &window(), kernel, 1e-9, TILE_PX, c);
    let bound = eps * pts.len() as f64 * kernel.max_value();
    let linf = tile
        .grid
        .values()
        .iter()
        .zip(oracle.values())
        .map(|(a, e)| (a - e).abs())
        .fold(0.0f64, f64::max);
    assert!(linf <= 2.0 * bound, "L∞ {linf} exceeds 2×bound {bound}");

    // While the refinement worker is parked the cache entry stays at the
    // degraded tier...
    let cached = s.cached_tier(layer, c.z, c.x, c.y).expect("cached entry");
    assert!(
        !cached.is_exact(),
        "entry must still be degraded: {cached:?}"
    );

    // ...and once released, the background upgrade lands the bit-exact
    // tile without any further request.
    gate.store(true, Ordering::Release);
    s.drain_refinements();
    assert!(matches!(
        s.cached_tier(layer, c.z, c.x, c.y),
        Some(TileTier::Exact)
    ));
    s.set_compute_estimate(Duration::ZERO);
    let refined = s.get_tile(layer, c.z, c.x, c.y).unwrap();
    for (a, b) in refined.grid.values().iter().zip(oracle.values()) {
        assert_eq!(a.to_bits(), b.to_bits(), "refined tile must be bit-exact");
    }
}

#[test]
fn bounds_mode_respects_the_relative_guarantee() {
    let _g = serialize();
    let pts = points(3_000);
    let kernel = KernelKind::Quartic.with_bandwidth(10.0);
    let s = server();
    let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
    s.set_compute_estimate(Duration::from_secs(1));
    let eps = 0.05;
    let policy = QualityPolicy::new(Duration::ZERO, ApproxMode::Bounds { eps }).unwrap();

    let c = TileCoord::new(1, 0, 1);
    let tile = s
        .get_tile_with_policy(layer, c.z, c.x, c.y, &policy)
        .unwrap();
    assert!(matches!(tile.tier, TileTier::Bounds { eps: e } if e == eps));

    let oracle = compute_tile_direct(&pts, &window(), kernel, 1e-9, TILE_PX, c);
    for (a, e) in tile.grid.values().iter().zip(oracle.values()) {
        assert!(
            (a - e).abs() <= eps * e + 1e-9,
            "pixel {a} outside (1±{eps}) of exact {e}"
        );
    }
    s.drain_refinements();
}

#[test]
fn exact_requests_treat_degraded_entries_as_misses() {
    let _g = serialize();
    obs::reset();
    obs::enable();

    let pts = points(2_500);
    let kernel = KernelKind::Quartic.with_bandwidth(8.0);
    let s = server();
    let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
    let gate = gate_refinements(&s);
    s.set_compute_estimate(Duration::from_secs(1));

    let c = TileCoord::new(2, 3, 1);
    let t = s
        .get_tile_with_policy(layer, c.z, c.x, c.y, &sampling_policy(0.1))
        .unwrap();
    assert!(!t.tier.is_exact());

    // An exact request must not accept the degraded entry: it recomputes
    // and its answer is the oracle, which also upgrades the cache.
    let exact = s.get_tile(layer, c.z, c.x, c.y).unwrap();
    let oracle = compute_tile_direct(&pts, &window(), kernel, 1e-9, TILE_PX, c);
    for (a, b) in exact.grid.values().iter().zip(oracle.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(matches!(
        s.cached_tier(layer, c.z, c.x, c.y),
        Some(TileTier::Exact)
    ));

    // The parked refinement now targets an exact entry → discarded.
    gate.store(true, Ordering::Release);
    s.drain_refinements();

    let snap = obs::drain();
    obs::disable();
    assert_eq!(snap.counter("serve.degraded_tiles"), 1);
    assert_eq!(
        snap.counter("serve.refine_discards"),
        1,
        "refinement of an already-exact entry must be discarded"
    );
    assert_eq!(snap.counter("serve.refined_tiles"), 0);
    // Exact path computed once (degraded computes are not tiles_computed).
    assert_eq!(snap.counter("serve.tiles_computed"), 1);
}

#[test]
fn refinement_racing_an_append_is_discarded_not_applied() {
    let _g = serialize();
    obs::reset();
    obs::enable();

    let mut pts = points(2_500);
    let kernel = KernelKind::Quartic.with_bandwidth(8.0);
    let s = server();
    let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
    let gate = gate_refinements(&s);
    s.set_compute_estimate(Duration::from_secs(1));

    // Degrade a tile; its refinement is enqueued at generation g and
    // parked at the gate.
    let c = TileCoord::new(1, 0, 0);
    let t = s
        .get_tile_with_policy(layer, c.z, c.x, c.y, &sampling_policy(0.1))
        .unwrap();
    assert!(!t.tier.is_exact());

    // Append inside the tile's footprint: generation becomes g+1 and the
    // degraded entry is invalidated.
    let batch = vec![Point::new(10.0, 10.0), Point::new(12.0, 11.0)];
    s.insert_points(layer, &batch).unwrap();
    pts.extend_from_slice(&batch);

    // The stale refinement must be dropped, not committed over g+1 data.
    gate.store(true, Ordering::Release);
    s.drain_refinements();
    let snap = obs::drain();
    obs::disable();
    assert!(
        snap.counter("serve.refine_discards") >= 1,
        "stale refinement must be discarded"
    );
    assert_eq!(snap.counter("serve.refined_tiles"), 0);

    // A fresh exact read serves the post-append oracle.
    s.set_compute_estimate(Duration::ZERO);
    let exact = s.get_tile(layer, c.z, c.x, c.y).unwrap();
    let oracle = compute_tile_direct(&pts, &window(), kernel, 1e-9, TILE_PX, c);
    for (a, b) in exact.grid.values().iter().zip(oracle.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn warm_exact_entries_short_circuit_the_policy_path() {
    let _g = serialize();
    let pts = points(2_000);
    let kernel = KernelKind::Quartic.with_bandwidth(8.0);
    let s = server();
    let layer = s.add_layer(pts, window(), kernel, 1e-9).unwrap();

    // Warm the tile exact, then ask again with a policy that would
    // otherwise always degrade: the hit answers at the exact tier.
    let c = TileCoord::new(2, 1, 1);
    let warm = s.get_tile(layer, c.z, c.x, c.y).unwrap();
    s.set_compute_estimate(Duration::from_secs(1));
    let hit = s
        .get_tile_with_policy(layer, c.z, c.x, c.y, &sampling_policy(0.1))
        .unwrap();
    assert!(
        hit.tier.is_exact(),
        "warm exact entry must win over degrade"
    );
    assert!(Arc::ptr_eq(&warm, &hit), "must be the cached tile itself");
}

#[test]
fn unseeded_controller_degrades_behind_inflight_leaders_and_bootstraps_when_idle() {
    let _g = serialize();
    let pts = points(2_500);
    let kernel = KernelKind::Quartic.with_bandwidth(8.0);
    let s = server();
    let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();

    // Regression (cold-start admission hole): with the EWMA unseeded —
    // no `set_compute_estimate`, no exact compute yet — and one exact
    // leader parked mid-compute, the old `ewma > 0` guard admitted
    // every deadline request straight onto the exact path, behind a
    // queue of unknown depth. It must degrade instead.
    let a = TileCoord::new(1, 0, 0);
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    {
        let gate = Arc::clone(&gate);
        let entered = Arc::clone(&entered);
        s.set_hook(Some(Arc::new(move |point| {
            let HookPoint::Compute(key) = point else {
                return;
            };
            if key.coord == a {
                entered.store(true, Ordering::Release);
                while !gate.load(Ordering::Acquire) {
                    thread::yield_now();
                }
            }
        })));
    }
    thread::scope(|scope| {
        let leader = scope.spawn(|| s.get_tile(layer, a.z, a.x, a.y).unwrap());
        while !entered.load(Ordering::Acquire) {
            thread::yield_now();
        }
        // Unseeded: the estimate reads zero even with a leader in flight.
        assert_eq!(s.estimated_queue_wait(), Duration::ZERO);
        let b = TileCoord::new(1, 1, 1);
        let t = s
            .get_tile_with_policy(layer, b.z, b.x, b.y, &sampling_policy(0.1))
            .unwrap();
        assert!(
            !t.tier.is_exact(),
            "unseeded controller with an in-flight leader must degrade, got {:?}",
            t.tier
        );
        gate.store(true, Ordering::Release);
        let warm = leader.join().unwrap();
        assert!(warm.tier.is_exact());
    });
    s.set_hook(None);
    s.drain_refinements();

    // Bootstrap path: with zero leaders in flight the same unseeded
    // controller admits the request — its own compute becomes the seed.
    let s2 = server();
    let layer2 = s2.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
    assert_eq!(s2.estimated_queue_wait(), Duration::ZERO);
    let c = TileCoord::new(1, 1, 0);
    let tile = s2
        .get_tile_with_policy(layer2, c.z, c.x, c.y, &sampling_policy(0.1))
        .unwrap();
    assert!(
        tile.tier.is_exact(),
        "idle unseeded controller must admit (and seed itself)"
    );
    let oracle = compute_tile_direct(&pts, &window(), kernel, 1e-9, TILE_PX, c);
    for (x, y) in tile.grid.values().iter().zip(oracle.values()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert!(
        s2.estimated_queue_wait() > Duration::ZERO,
        "the admitted compute must seed the EWMA"
    );
}

#[test]
fn admitted_requests_serve_exact_bits_under_generous_deadlines() {
    let _g = serialize();
    let pts = points(2_000);
    let kernel = KernelKind::Quartic.with_bandwidth(8.0);
    let s = server();
    let layer = s.add_layer(pts.clone(), window(), kernel, 1e-9).unwrap();
    // Tiny estimate, huge deadline: the controller admits everything.
    s.set_compute_estimate(Duration::from_nanos(1));
    let policy = QualityPolicy::new(
        Duration::from_secs(60),
        ApproxMode::Sampling {
            eps: 0.1,
            delta: 0.01,
            seed: 5,
        },
    )
    .unwrap();
    let c = TileCoord::new(2, 0, 2);
    let tile = s
        .get_tile_with_policy(layer, c.z, c.x, c.y, &policy)
        .unwrap();
    assert!(tile.tier.is_exact());
    let oracle = compute_tile_direct(&pts, &window(), kernel, 1e-9, TILE_PX, c);
    for (a, b) in tile.grid.values().iter().zip(oracle.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Register one STKDV, one NKDV and one Gi* hotspot layer — the kinds
/// whose `TileCompute::degrade` offers no degraded tier.
fn add_non_kdv_layers(s: &TileServer) -> [(&'static str, LayerId); 3] {
    let timed: Vec<TimedPoint> = points(300)
        .into_iter()
        .enumerate()
        .map(|(i, p)| TimedPoint::new(p.x, p.y, (i % 50) as f64))
        .collect();
    let stkdv = StkdvCompute::new(
        &timed,
        window(),
        KernelKind::Epanechnikov.with_bandwidth(12.0),
        PolyKernel::new(KernelKind::Quartic, 8.0).unwrap(),
        0.0,
        50.0,
        4,
        1e-6,
    )
    .unwrap();
    let net = Arc::new(network::grid_network(6, 6, 20.0));
    let lixels = Arc::new(Lixels::build(&net, 5.0));
    let events: Vec<EdgePosition> = (0..net.edge_count())
        .step_by(3)
        .map(|e| EdgePosition::new(&net, EdgeId(e as u32), 1.0))
        .collect();
    let nkdv = NkdvCompute::new(
        net,
        lixels,
        &events,
        KernelKind::Quartic.with_bandwidth(15.0),
    )
    .unwrap();
    let hotspot =
        HotspotCompute::new(&points(300), window(), 5, 25.0, HotspotStat::GiStar).unwrap();
    [
        ("stkdv", s.add_compute_layer(Arc::new(stkdv)).unwrap()),
        ("nkdv", s.add_compute_layer(Arc::new(nkdv)).unwrap()),
        ("hotspot", s.add_compute_layer(Arc::new(hotspot)).unwrap()),
    ]
}

#[test]
fn rejected_deadline_requests_on_kinds_without_a_degraded_tier_serve_exact() {
    let _g = serialize();
    // The twin answers the same requests without a policy: the bits
    // every rejected deadline request must reproduce.
    let (s, twin) = (server(), server());
    let layers = add_non_kdv_layers(&s);
    let twin_layers = add_non_kdv_layers(&twin);
    let bounds = QualityPolicy::new(Duration::ZERO, ApproxMode::Bounds { eps: 0.1 }).unwrap();
    obs::reset();
    obs::enable();

    let mut requests = 0;
    for ((kind, layer), (_, twin_layer)) in layers.into_iter().zip(twin_layers) {
        for (c, policy) in [
            (TileCoord::new(1, 0, 1), sampling_policy(0.1)),
            (TileCoord::new(2, 2, 1), bounds),
        ] {
            // Re-pinned per request: each exact compute folds into the
            // estimate, and the zero deadline must reject every time.
            s.set_compute_estimate(Duration::from_secs(1));
            let tile = s
                .get_tile_with_policy(layer, c.z, c.x, c.y, &policy)
                .unwrap();
            requests += 1;
            assert!(tile.tier.is_exact(), "{kind}: got {:?}", tile.tier);
            let exact = twin.get_tile(twin_layer, c.z, c.x, c.y).unwrap();
            assert_eq!(tile.grid.values().len(), exact.grid.values().len());
            for (a, b) in tile.grid.values().iter().zip(exact.grid.values()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind}: tile {c:?}");
            }
            assert!(
                matches!(s.cached_tier(layer, c.z, c.x, c.y), Some(TileTier::Exact)),
                "{kind}: cached entry must be exact"
            );
        }
    }
    s.drain_refinements();
    let snap = obs::drain();
    obs::disable();
    assert_eq!(snap.counter("serve.degraded_tiles"), 0);
    assert_eq!(snap.counter("serve.refined_tiles"), 0);
    // Every rejected request still recorded its admission estimate.
    let queue_wait = snap
        .histograms()
        .iter()
        .find(|h| h.name == "serve.queue_wait")
        .map_or(0, |h| h.count);
    assert_eq!(queue_wait, requests);
}
