//! Thread-count invariance of the `lsga-obs` work counters.
//!
//! The counters account for algorithmic work (pairs evaluated, cells
//! pruned, index nodes visited, solves), and every instrumented hot
//! path accumulates into per-chunk locals inside the same deterministic
//! decomposition the output computation uses. Integer adds commute, so
//! the drained totals must be **identical** for every `LSGA_THREADS` —
//! the telemetry obeys the same discipline `tests/parallel_determinism.rs`
//! enforces on the results themselves. This suite runs a cross-crate
//! workload at 1 and 8 threads and diffs the full counter tables.

use lsga::core::par::Threads;
use lsga::core::{BBox, Epanechnikov, GridSpec, Point, PolyKernel};
use lsga::interp::{VariogramModel, VariogramModelKind};
use lsga::kfunc::KConfig;
use lsga::prelude::KernelKind;
use lsga::stats::SpatialWeights;
use lsga::{data, dist, interp, kdv, kfunc, obs, stats};
use std::sync::Mutex;

// The obs registry is process-global; every test that enables/drains it
// serializes here.
static LOCK: Mutex<()> = Mutex::new(());

fn window() -> BBox {
    BBox::new(0.0, 0.0, 100.0, 100.0)
}

type CounterTable = Vec<(&'static str, u64)>;
type HistTotals = Vec<(&'static str, u64, u64)>;

/// Run the instrumented cross-crate workload at a given thread count
/// and return the drained counter table and histogram totals.
fn workload_counters(t: usize) -> (CounterTable, HistTotals) {
    let threads = Threads::exact(t);
    obs::reset();
    obs::enable();

    // KDV: naive per-row pairs + grid-pruned pairs/pruned cells.
    let pts = data::uniform_points(600, window(), 11);
    let spec = GridSpec::new(window(), 32, 20);
    let _ = kdv::parallel_kdv_threads(&pts, spec, Epanechnikov::new(9.0), 1e-9, threads);
    let tpts = data::uniform_timed_points(250, window(), 0.0, 50.0, 3);
    let kt = PolyKernel::new(KernelKind::Quartic, 8.0).unwrap();
    let _ = kdv::stkdv_sweep_threads(
        &tpts,
        GridSpec::new(window(), 10, 10),
        0.0,
        50.0,
        8,
        Epanechnikov::new(12.0),
        kt,
        1e-9,
        threads,
    );

    // K-function: histogram pair sweep + index-backed range counts.
    let _ = kfunc::histogram_k_all_threads(&pts, &[2.0, 8.0, 20.0], KConfig::default(), threads);
    let _ = kfunc::parallel_k_threads(&pts, 8.0, KConfig::default(), threads);

    // Stats: weight-matrix sweeps + DBSCAN ε-queries.
    let k = 8;
    let wpts: Vec<Point> = (0..k * k)
        .map(|i| Point::new((i % k) as f64, (i / k) as f64))
        .collect();
    let w = SpatialWeights::distance_band(&wpts, 1.0);
    let values: Vec<f64> = (0..k * k).map(|i| ((i * 7) % 13) as f64).collect();
    let _ = stats::morans_i_threads(&values, &w, 49, 5, threads);
    let _ = stats::general_g_threads(&values, &w, 49, 5, threads);
    let _ = stats::dbscan_threads(&pts, 3.0, 5, threads);

    // Interpolation: IDW pair scans + kriging solves.
    let samples: Vec<(Point, f64)> = data::uniform_points(80, window(), 13)
        .into_iter()
        .map(|p| (p, 3.0 + 0.08 * p.x - 0.05 * p.y))
        .collect();
    let ispec = GridSpec::new(window(), 12, 10);
    let _ = interp::idw_naive_threads(&samples, ispec, 2.0, threads);
    let _ = interp::idw_knn_threads(&samples, ispec, 2.0, 8, threads);
    let _ = interp::idw_radius_threads(&samples, ispec, 2.0, 15.0, threads);
    let model = VariogramModel {
        kind: VariogramModelKind::Spherical,
        nugget: 0.1,
        psill: 8.0,
        range: 25.0,
    };
    let _ = interp::ordinary_kriging_threads(&samples, ispec, &model, 10, threads);

    // Distributed recovery: the schedule simulation is sequential, so
    // its counters are trivially invariant — included to pin that the
    // wiring stays on this path.
    let plan = dist::FaultPlan::none()
        .with(1, 0, dist::FaultKind::CrashMidTask)
        .with(2, 0, dist::FaultKind::DropHaloShipment);
    let _ = dist::plan_schedule(&[40, 40, 40, 40], &plan, &dist::RetryPolicy::default());

    let snap = obs::drain();
    obs::disable();
    let hists = snap
        .histograms()
        .iter()
        .map(|h| (h.name, h.count, h.sum))
        .collect();
    (snap.counters().to_vec(), hists)
}

#[test]
fn counters_identical_across_thread_counts() {
    let _g = LOCK.lock().unwrap();
    let (c1, h1) = workload_counters(1);
    let (c8, h8) = workload_counters(8);
    assert_eq!(c1, c8, "counter tables diverged between 1 and 8 threads");
    assert_eq!(h1, h8, "histogram totals diverged between 1 and 8 threads");

    // The workload must actually exercise every counter family.
    let get = |name: &str| {
        c1.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("unknown counter {name}"))
    };
    for name in [
        "kdv.pairs_evaluated",
        "kfunc.pairs_evaluated",
        "interp.pairs_evaluated",
        "interp.kriging_solves",
        "stats.pairs_evaluated",
        "stats.neighbors_gathered",
        "index.entries_scanned",
        "dist.retries",
        "dist.halo_reshipments",
        "dist.reshipped_bytes",
    ] {
        assert!(get(name) > 0, "workload never bumped {name}");
    }
}

#[test]
fn kdv_pair_counter_matches_complexity_model() {
    // The naive KDV pair counter must equal exactly X·Y·n — the O(X·Y·n)
    // cost the paper quotes, audited from the run's own telemetry.
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let pts = data::uniform_points(321, window(), 17);
    let spec = GridSpec::new(window(), 23, 19);
    let _ = kdv::naive_kdv(&pts, spec, Epanechnikov::new(9.0));
    let snap = obs::drain();
    obs::disable();
    assert_eq!(snap.counter("kdv.pairs_evaluated"), (23 * 19 * 321) as u64);
}

#[test]
fn pruned_kdv_accounts_pairs_plus_pruned_cells() {
    // Grid-pruned KDV must report strictly fewer pairs than the naive
    // bound and a non-zero pruned-cell count on clustered data.
    let _g = LOCK.lock().unwrap();
    let pts = data::gaussian_mixture(
        500,
        &[lsga::prelude::Hotspot {
            center: Point::new(25.0, 25.0),
            sigma: 4.0,
            weight: 1.0,
        }],
        window(),
        29,
    );
    let spec = GridSpec::new(window(), 40, 40);
    obs::reset();
    obs::enable();
    let _ = kdv::grid_pruned_kdv(&pts, spec, Epanechnikov::new(6.0), 1e-9);
    let snap = obs::drain();
    obs::disable();
    let pairs = snap.counter("kdv.pairs_evaluated");
    let pruned = snap.counter("kdv.cells_pruned");
    assert!(pairs > 0);
    assert!(pruned > 0, "clustered data must prune empty regions");
    assert!(
        pairs < (40 * 40 * 500) as u64,
        "pruning must beat the naive O(X·Y·n) bound: {pairs}"
    );
}

#[test]
fn dist_counters_mirror_schedule_outcomes() {
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let plan = dist::FaultPlan::none()
        .with(0, 0, dist::FaultKind::CrashMidTask)
        .with(2, 0, dist::FaultKind::DropHaloShipment);
    let policy = dist::RetryPolicy::default();
    let schedule = dist::plan_schedule(&[10, 20, 30], &plan, &policy);
    let snap = obs::drain();
    obs::disable();
    let sum = |f: fn(&dist::TileOutcome) -> u64| schedule.tiles.iter().map(f).sum::<u64>();
    assert_eq!(snap.counter("dist.retries"), sum(|o| o.retries as u64));
    assert_eq!(snap.counter("dist.timeouts"), sum(|o| o.timeouts as u64));
    assert_eq!(
        snap.counter("dist.halo_reshipments"),
        sum(|o| o.reshipments as u64)
    );
    assert_eq!(
        snap.counter("dist.reshipped_bytes"),
        sum(|o| o.reshipped_bytes)
    );
    // One instant marker per re-shipment.
    let markers = snap
        .events()
        .iter()
        .filter(|e| e.name == "dist.reshipment")
        .count() as u64;
    assert_eq!(markers, sum(|o| o.reshipments as u64));
}

#[test]
fn disabled_collector_records_nothing_across_the_workspace() {
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::disable();
    let pts = data::uniform_points(200, window(), 3);
    let spec = GridSpec::new(window(), 10, 10);
    let _ = kdv::parallel_kdv_threads(&pts, spec, Epanechnikov::new(9.0), 1e-9, Threads::exact(4));
    let _ = kfunc::histogram_k_all(&pts, &[5.0], KConfig::default());
    let snap = obs::drain();
    assert!(snap.is_empty(), "disabled collector must stay silent");
}

#[test]
fn ingest_tables_identical_across_server_pool_widths() {
    // The ingest counters account batches, appended points, and
    // compaction rewrites. Compaction is a deterministic function of
    // the committed batch sequence and its CSR merge is filled on the
    // `par` pool with a fixed decomposition — so for a single-writer
    // batch sequence the whole `ingest.*` table (and the segment-count
    // histogram) must not depend on the server's pool width.
    let _g = LOCK.lock().unwrap();
    let run = |t: usize| {
        use lsga::serve::{TileServer, TileServerConfig};
        obs::reset();
        obs::enable();
        let s = TileServer::new(TileServerConfig {
            tile_px: 16,
            max_zoom: 3,
            shards: 2,
            byte_budget: 1 << 20,
            threads: Threads::exact(t),
            ..TileServerConfig::default()
        });
        let layer = s
            .add_layer(
                data::uniform_points(300, window(), 19),
                window(),
                KernelKind::Quartic.with_bandwidth(8.0),
                1e-9,
            )
            .expect("layer");
        for b in 0..24u64 {
            let batch = data::uniform_points(5 + (b as usize % 9), window(), 100 + b);
            s.insert_points(layer, &batch).expect("insert");
            let _ = s.get_tile(layer, 1, (b % 2) as u32, ((b / 2) % 2) as u32);
        }
        let snap = obs::drain();
        obs::disable();
        let ingest: Vec<(&'static str, u64)> = snap
            .counters()
            .iter()
            .copied()
            .filter(|(n, _)| n.starts_with("ingest."))
            .collect();
        let hist = snap
            .histograms()
            .iter()
            .find(|h| h.name == "ingest.segment_count")
            .map(|h| (h.count, h.sum))
            .expect("segment-count histogram recorded");
        (ingest, hist)
    };
    let (c1, h1) = run(1);
    let (c8, h8) = run(8);
    assert_eq!(c1, c8, "ingest counter tables diverged across pool widths");
    assert_eq!(
        h1, h8,
        "segment-count histogram diverged across pool widths"
    );

    // And the workload genuinely exercised the whole family.
    let get = |name: &str| {
        c1.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("unknown counter {name}"))
    };
    assert_eq!(get("ingest.segments_created"), 24);
    assert_eq!(
        get("ingest.points_appended"),
        (0..24u64).map(|b| 5 + (b % 9)).sum::<u64>()
    );
    assert!(get("ingest.segments_merged") >= 2, "compaction never ran");
    assert!(get("ingest.merge_bytes") > 0);
}

#[test]
fn per_kind_serve_tables_identical_across_server_pool_widths() {
    // Every layer kind accounts its computes and invalidations under a
    // `{kind=…}`-labelled counter. Tile computes happen inside the
    // single-flight slot and invalidation walks the cache under the
    // shard lock, so for a sequential request/insert sequence the full
    // per-kind table is a function of that sequence alone and must not
    // depend on the server's pool width.
    let _g = LOCK.lock().unwrap();
    let run = |t: usize| {
        use lsga::network::{self, Lixels};
        use lsga::serve::{
            HotspotCompute, HotspotStat, NkdvCompute, StkdvCompute, TileServer, TileServerConfig,
        };
        use std::sync::Arc;
        obs::reset();
        obs::enable();
        let s = TileServer::new(TileServerConfig {
            tile_px: 8,
            max_zoom: 2,
            shards: 2,
            byte_budget: 1 << 20,
            threads: Threads::exact(t),
            ..TileServerConfig::default()
        });
        let kdv_layer = s
            .add_layer(
                data::uniform_points(120, window(), 31),
                window(),
                KernelKind::Quartic.with_bandwidth(10.0),
                1e-9,
            )
            .expect("kdv layer");
        let tpts = data::uniform_timed_points(100, window(), 0.0, 40.0, 37);
        let st = s
            .add_compute_layer(Arc::new(
                StkdvCompute::new(
                    &tpts,
                    window(),
                    KernelKind::Epanechnikov.with_bandwidth(12.0),
                    PolyKernel::new(KernelKind::Quartic, 8.0).unwrap(),
                    0.0,
                    40.0,
                    4,
                    1e-9,
                )
                .expect("stkdv compute"),
            ))
            .expect("stkdv layer");
        let net = Arc::new(network::grid_network(5, 5, 25.0));
        let lixels = Arc::new(Lixels::build(&net, 6.0));
        let events = network::sample_on_network(&net, 60, 41);
        let nk = s
            .add_compute_layer(Arc::new(
                NkdvCompute::new(
                    net,
                    lixels,
                    &events,
                    KernelKind::Quartic.with_bandwidth(15.0),
                )
                .expect("nkdv compute"),
            ))
            .expect("nkdv layer");
        let hot = s
            .add_compute_layer(Arc::new(
                HotspotCompute::new(
                    &data::uniform_points(150, window(), 43),
                    window(),
                    5,
                    25.0,
                    HotspotStat::GiStar,
                )
                .expect("hotspot compute"),
            ))
            .expect("hotspot layer");

        // Cold sweep: every get is one compute accounted to its kind.
        for (x, y) in [(0, 0), (1, 1)] {
            for &l in &[kdv_layer, nk, hot] {
                let _ = s.get_tile(l, 1, x, y).expect("cold get");
            }
            for bin in 0..2u32 {
                let _ = s.get_tile_binned(st, 1, x, y, bin).expect("cold stkdv get");
            }
        }
        // Inserts dirty cached tiles of their own layer only, so each
        // kind's invalidation counter moves exactly for its own batch.
        let kdv_batch = data::uniform_points(5, window(), 59);
        let st_batch = data::uniform_timed_points(5, window(), 0.0, 40.0, 61);
        let nk_batch = [Point::new(30.0, 30.0)];
        let hot_batch = data::uniform_points(5, window(), 67);
        s.insert_points(kdv_layer, &kdv_batch).expect("kdv insert");
        s.insert_timed_points(st, &st_batch).expect("stkdv insert");
        s.insert_points(nk, &nk_batch).expect("nkdv insert");
        s.insert_points(hot, &hot_batch).expect("hotspot insert");
        let appended = kdv_batch.len() + st_batch.len() + nk_batch.len() + hot_batch.len();
        // Warm re-gets recompute exactly the invalidated entries.
        for &l in &[kdv_layer, nk, hot] {
            let _ = s.get_tile(l, 1, 0, 0).expect("warm get");
        }
        let _ = s.get_tile_binned(st, 1, 0, 0, 1).expect("warm stkdv get");

        let snap = obs::drain();
        obs::disable();
        let table: CounterTable = snap
            .counters()
            .iter()
            .copied()
            .filter(|(n, _)| n.contains("{kind="))
            .collect();
        // Counter laws, from the same drained snapshot: the per-kind
        // counters partition their totals, and every appended point
        // is accounted once.
        for family in ["serve.tiles_computed", "serve.tiles_invalidated"] {
            let per_kind: u64 = table
                .iter()
                .filter(|(n, _)| n.starts_with(&format!("{family}{{kind=")))
                .map(|(_, v)| v)
                .sum();
            assert_eq!(per_kind, snap.counter(family), "{family}: Σ per kind");
        }
        assert_eq!(snap.counter("ingest.points_appended"), appended as u64);
        table
    };
    let t1 = run(1);
    let t8 = run(8);
    assert_eq!(t1, t8, "per-kind serve tables diverged across pool widths");

    let get = |name: &str| {
        t1.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing from the per-kind table"))
    };
    for kind in ["kdv", "stkdv", "nkdv", "hotspot"] {
        assert!(
            get(&format!("serve.tiles_computed{{kind={kind}}}")) > 0,
            "workload never computed a {kind} tile"
        );
        assert!(
            get(&format!("serve.tiles_invalidated{{kind={kind}}}")) > 0,
            "workload never invalidated a {kind} tile"
        );
    }
}

#[test]
fn tier_tables_identical_across_server_pool_widths() {
    // The admission model is a serialized-queue estimate — `(inflight +
    // 1) × EWMA` — deliberately *not* divided by the pool width, so for
    // a sequential request sequence with a pinned compute estimate the
    // degrade decisions, the whole `serve.*` counter table, and the
    // `serve.queue_wait` histogram must not depend on `Threads::exact`.
    let _g = LOCK.lock().unwrap();
    let run = |t: usize| {
        use lsga::serve::{ApproxMode, QualityPolicy, TileServer, TileServerConfig};
        use std::time::Duration;
        obs::reset();
        obs::enable();
        let s = TileServer::new(TileServerConfig {
            tile_px: 16,
            max_zoom: 3,
            shards: 2,
            byte_budget: 1 << 20,
            threads: Threads::exact(t),
            ..TileServerConfig::default()
        });
        let layer = s
            .add_layer(
                data::uniform_points(400, window(), 23),
                window(),
                KernelKind::Quartic.with_bandwidth(8.0),
                1e-9,
            )
            .expect("layer");
        // Pin the EWMA: with a 1 ms estimate and a zero deadline every
        // cold policy request degrades; the generous-deadline policy
        // always admits. Sequential requests keep inflight at 0. The
        // estimate is re-pinned before every request because admitted
        // exact computes fold their *measured* (pool-width-dependent)
        // wall time into the EWMA, and the queue-wait histogram must
        // stay a function of the request sequence alone.
        let pin = || s.set_compute_estimate(Duration::from_millis(1));
        let degrade = QualityPolicy::new(
            Duration::ZERO,
            ApproxMode::Sampling {
                eps: 0.2,
                delta: 0.1,
                seed: 3,
            },
        )
        .unwrap();
        let admit = QualityPolicy::new(
            Duration::from_secs(60),
            ApproxMode::Sampling {
                eps: 0.2,
                delta: 0.1,
                seed: 3,
            },
        )
        .unwrap();
        for i in 0..12u32 {
            let (x, y) = (i % 4, (i / 4) % 4);
            let p = if i % 3 == 0 { &admit } else { &degrade };
            pin();
            let _ = s
                .get_tile_with_policy(layer, 2, x, y, p)
                .expect("policy get");
        }
        // Settle the refinement queue, then revisit a prefix: every
        // entry is exact by now, so the revisits are plain hits and the
        // table stays a deterministic function of the request sequence.
        s.drain_refinements();
        for i in 0..6u32 {
            pin();
            let _ = s
                .get_tile_with_policy(layer, 2, i % 4, (i / 4) % 4, &degrade)
                .expect("revisit");
        }
        s.drain_refinements();
        let snap = obs::drain();
        obs::disable();
        let serve: Vec<(&'static str, u64)> = snap
            .counters()
            .iter()
            .copied()
            .filter(|(n, _)| n.starts_with("serve."))
            .collect();
        let hist = snap
            .histograms()
            .iter()
            .find(|h| h.name == "serve.queue_wait")
            .map(|h| (h.count, h.sum))
            .expect("queue-wait histogram recorded");
        (serve, hist)
    };
    let (c1, h1) = run(1);
    let (c8, h8) = run(8);
    assert_eq!(c1, c8, "serve counter tables diverged across pool widths");
    assert_eq!(h1, h8, "queue-wait histogram diverged across pool widths");

    // The workload exercised every leg of the tier machinery.
    let get = |name: &str| {
        c1.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("unknown counter {name}"))
    };
    assert_eq!(
        get("serve.degraded_tiles"),
        8,
        "8 of 12 cold requests degrade"
    );
    assert_eq!(
        get("serve.refined_tiles"),
        8,
        "every committed degraded entry is refined"
    );
    assert_eq!(get("serve.refine_discards"), 0);
    assert_eq!(get("serve.stale_discards"), 0);
    assert_eq!(get("serve.cache_misses"), 12);
    assert_eq!(
        get("serve.cache_hits"),
        6,
        "revisits must hit exact entries"
    );
    assert_eq!(
        get("serve.tiles_computed"),
        12,
        "4 admitted + 8 refinement exact computes"
    );
    assert_eq!(h1.0, 12, "one queue-wait sample per admission decision");
}
