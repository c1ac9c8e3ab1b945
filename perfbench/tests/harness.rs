//! Tests of the benchmark harness itself: seeded determinism of the
//! operation trace and inputs, the order-statistic percentile helper,
//! and the shape of the result line.

use lsga::serve::LayerKind;
use lsga_perfbench::report::Report;
use lsga_perfbench::tiles::{self, Inputs, Sizes, MIXED};
use lsga_perfbench::trace::{self, Target};
use lsga_perfbench::util::{percentile, quantile, share_within, window_median, Rng, Zipf, WINDOWS};

fn mixed_layers() -> Vec<(usize, LayerKind)> {
    vec![
        (0, LayerKind::Kdv),
        (1, LayerKind::Stkdv),
        (2, LayerKind::Nkdv),
        (3, LayerKind::Hotspot),
    ]
}

#[test]
fn same_seed_yields_an_identical_operation_trace() {
    let universe = tiles::universe(&mixed_layers());
    let spec = tiles::trace_spec(&MIXED, universe.len(), 2);
    let a = trace::generate(&spec, 42, 3.0);
    let b = trace::generate(&spec, 42, 3.0);
    assert_eq!(a, b);
    assert_eq!(a.len(), (MIXED.rate_rps * 3.0) as usize);
    // The wire bytes are a pure function of the trace too.
    let pa = tiles::plan(&MIXED, &a, &universe, 0);
    let pb = tiles::plan(&MIXED, &b, &universe, 0);
    assert!(pa
        .iter()
        .zip(&pb)
        .all(|(x, y)| x.request == y.request && x.at_ns == y.at_ns));
    // Another seed is another trace.
    assert_ne!(a, trace::generate(&spec, 43, 3.0));
}

#[test]
fn trace_schedule_is_fixed_rate_and_appends_stay_on_thread_zero() {
    let universe = tiles::universe(&mixed_layers());
    let spec = tiles::trace_spec(&MIXED, universe.len(), 2);
    let ops = trace::generate(&spec, 9, 20.0);
    assert_eq!(ops.len(), (MIXED.rate_rps * 20.0) as usize);
    let gap = 1e9 / MIXED.rate_rps;
    let mut appends = 0;
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(op.at_ns, (i as f64 * gap) as u64, "fixed spacing");
        match &op.target {
            Target::Append { layer, points } => {
                appends += 1;
                assert_eq!(op.thread, 0);
                assert!([0, 2, 3].contains(layer), "appends skip the stkdv layer");
                assert_eq!(points.len(), tiles::APPEND_BATCH);
                assert!(points.iter().all(|p| tiles::window().contains(p)));
            }
            Target::Read(u) => assert!(*u < universe.len()),
        }
    }
    assert!(appends > 0);
}

#[test]
fn same_seed_yields_identical_inputs() {
    let sizes = Sizes {
        kdv_points: 500,
        st_points: 200,
        net_blocks: 6,
        net_events: 64,
        hot_points: 300,
    };
    let (a, b) = (Inputs::generate(sizes, 5), Inputs::generate(sizes, 5));
    assert_eq!(a.kdv, b.kdv);
    assert_eq!(a.st, b.st);
    assert_eq!(a.hot, b.hot);
    assert_eq!(a.events, b.events);
    assert_ne!(a.kdv, Inputs::generate(sizes, 6).kdv);
}

#[test]
fn percentile_picks_nearest_rank_order_statistics() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.0), Some(1));
    assert_eq!(percentile(&v, 0.5), Some(50));
    assert_eq!(percentile(&v, 0.9), Some(90));
    assert_eq!(percentile(&v, 0.99), Some(99));
    assert_eq!(percentile(&v, 1.0), Some(100));
    // Ten samples: p99 is the largest; p50 the fifth.
    let ten: Vec<u64> = (1..=10).map(|x| x * 10).collect();
    assert_eq!(percentile(&ten, 0.99), Some(100));
    assert_eq!(percentile(&ten, 0.5), Some(50));
    assert_eq!(percentile::<u64>(&[], 0.5), None);
    // Always a member of the sample, never an interpolation.
    let odd = [3.0, 1.0, 2.0, 10.0];
    assert_eq!(quantile(&odd, 0.5), Some(2.0));
    assert_eq!(quantile(&odd, 0.75), Some(3.0));
}

#[test]
fn window_median_summarizes_contiguous_windows() {
    assert_eq!(WINDOWS, 10);
    // 1..=100 in ten windows; each window's max is 10, 20, ..., 100.
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let max = |w: &[f64]| w.iter().copied().fold(f64::MIN, f64::max);
    assert_eq!(window_median(&v, max), 50.0);
    // With five windows spoiled the median is still an unspoiled
    // window's value; with six it is spoiled.
    let mut spoiled = v.clone();
    for w in [0, 1, 3, 6, 8] {
        spoiled[w * 10 + 5] = 1e9;
    }
    assert_eq!(window_median(&spoiled, max), 100.0);
    spoiled[25] = 1e9;
    assert_eq!(window_median(&spoiled, max), 1e9);
}

#[test]
fn share_within_counts_failures_as_misses() {
    let v = [0.5, 1.0, 2.0, f64::INFINITY];
    assert_eq!(share_within(&v, 1.0), 0.5);
    assert_eq!(share_within(&v, 2.0), 0.75);
    assert_eq!(share_within(&v, f64::MAX), 0.75);
}

#[test]
fn zipf_favours_the_top_rank() {
    let mut rng = Rng::new(1);
    let z = Zipf::new(50, 1.1, &mut rng);
    let mut counts = [0usize; 50];
    for _ in 0..20_000 {
        counts[z.draw(&mut rng)] += 1;
    }
    let top = *counts.iter().max().unwrap();
    assert!(
        top > 20_000 / 10,
        "the most popular item takes a large share"
    );
    assert!(
        counts.iter().filter(|&&c| c > 0).count() > 40,
        "the tail is still drawn"
    );
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut r = Report::default();
    r.metric("setup_s", "s", 0.5);
    r.metric("op_p50_ms", "ms", 1.25);
    let line = r.result_json(true, 10, 1);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
         {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
         \"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
    );
}
