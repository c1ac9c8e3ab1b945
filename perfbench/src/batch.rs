//! `analytics-batch`: a fixed sequence of library calls with no server
//! in the loop, repeated back to back (a closed loop of one caller)
//! for the measured time. One pass of the sequence is one operation.

use crate::layers::{ClientSpans, RunOut, Traced};
use crate::report::{ObsTotals, Report};
use crate::sys::{self, ProcWindow};
use crate::tiles::{
    self, crime_points, kdv_kernel, nkdv_kernel, st_spatial, st_temporal, window, Inputs, TAIL_EPS,
    T_MAX,
};
use crate::util::{median, percentile, repeat_timed, window_median, Rng, WINDOWS};
use lsga::core::par::Threads;
use lsga::core::{DensityGrid, GridSpec, Kernel, Point, SpaceTimeGrid};
use lsga::data;
use lsga::interp::{
    empirical_variogram, fit_variogram, idw_naive_threads, ordinary_kriging_threads,
    VariogramModel, VariogramModelKind,
};
use lsga::kdv::{grid_pruned_kdv, nkdv_forward, nkdv_naive, stkdv_naive, stkdv_sweep_threads};
use lsga::kfunc::{grid_k, histogram_k_all_threads, naive_k, KConfig};
use lsga::network::Lixels;
use lsga::obs;
use lsga::stats::{local_gi_star_threads, morans_i_threads, quadrat_counts, SpatialWeights};
use std::time::Instant;

/// Grid sizes and extra inputs of one pass, recorded in the run
/// metadata. The KDV, STKDV and NKDV inputs are the tile workloads'
/// ([`tiles::FULL`]).
#[derive(Clone, Copy, Debug)]
pub struct BatchSizes {
    pub kdv_px: usize,
    pub st_px: usize,
    pub st_bins: usize,
    pub k_points: usize,
    pub k_thresholds: usize,
    pub stat_cells: usize,
    pub moran_perms: usize,
    pub interp_samples: usize,
    pub idw_px: usize,
    pub krige_px: usize,
}

pub const SIZES: BatchSizes = BatchSizes {
    kdv_px: 128,
    st_px: 48,
    st_bins: 12,
    k_points: 4_000,
    k_thresholds: 8,
    stat_cells: 32,
    moran_perms: 99,
    interp_samples: 400,
    idw_px: 96,
    krige_px: 40,
};

/// Tools of a pass, in call order.
pub const TOOLS: [&str; 6] = ["kdv", "stkdv", "nkdv", "kfunc", "stats", "interp"];

/// Latency limit of one pass behind `slo_frac`.
pub const SLO_MS: f64 = 400.0;
const K_STEP: f64 = 120.0;
const IDW_POWER: f64 = 2.0;
const KRIGE_NEIGHBOURS: usize = 16;
const STAT_BAND_CELLS: f64 = 2.5;

/// Generated inputs: a pure function of the sizes and the seed.
pub struct BatchInputs {
    sizes: BatchSizes,
    base: Inputs,
    k_points: Vec<Point>,
    samples: Vec<(Point, f64)>,
}

impl BatchInputs {
    #[must_use]
    pub fn generate(sizes: BatchSizes, seed: u64) -> Self {
        // A smooth field with two plumes, sampled at uniform sites.
        let field = |p: &Point| {
            12.0 + 0.0005 * p.x
                + 60.0 * (-p.dist_sq(&Point::new(3_000.0, 6_000.0)) / 4.0e6).exp()
                + 40.0 * (-p.dist_sq(&Point::new(7_000.0, 2_500.0)) / 9.0e6).exp()
        };
        let samples = data::uniform_points(sizes.interp_samples, window(), seed ^ 0x77)
            .into_iter()
            .map(|p| (p, field(&p)))
            .collect();
        BatchInputs {
            sizes,
            base: Inputs::generate(tiles::FULL, seed),
            k_points: crime_points(sizes.k_points, seed ^ 0x88),
            samples,
        }
    }
}

/// What set-up builds once and every pass reuses.
pub struct Prepared {
    lixels: Lixels,
    cell_spec: GridSpec,
    weights: SpatialWeights,
    variogram: VariogramModel,
}

/// Set-up: the lixelization, the quadrat-cell weight matrix and the
/// fitted variogram.
#[must_use]
pub fn prepare(inp: &BatchInputs) -> Prepared {
    let lixels = Lixels::build(&inp.base.net, 25.0);
    let cells = inp.sizes.stat_cells;
    let cell_spec = GridSpec::new(window(), cells, cells);
    let centres: Vec<Point> = (0..cells * cells)
        .map(|i| cell_spec.pixel_center(i % cells, i / cells))
        .collect();
    let band = STAT_BAND_CELLS * cell_spec.dx().max(cell_spec.dy());
    let weights = SpatialWeights::distance_band(&centres, band);
    let bins = empirical_variogram(&inp.samples, 4_000.0, 12);
    let variogram =
        fit_variogram(&bins, VariogramModelKind::Spherical).expect("variogram has enough bins");
    Prepared {
        lixels,
        cell_spec,
        weights,
        variogram,
    }
}

/// Outputs of one pass, kept for the correctness gate.
pub struct PassOut {
    kdv: DensityGrid,
    stkdv: SpaceTimeGrid,
    nkdv: Vec<f64>,
    k_grid: u64,
    k_hist: Vec<u64>,
    counts: Vec<f64>,
    moran_i: f64,
    gi: Vec<f64>,
    idw: DensityGrid,
    krige: DensityGrid,
}

fn spec(px: usize) -> GridSpec {
    GridSpec::with_width(window(), px)
}

fn thresholds(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64 * K_STEP).collect()
}

/// Run the fixed call sequence once, timing each tool (seconds).
pub fn pass(inp: &BatchInputs, prep: &Prepared, threads: Threads) -> (PassOut, [f64; 6]) {
    let s = inp.sizes;
    let mut times = [0.0; 6];
    let mut timed = |i: usize, t: Instant| times[i] = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let kdv = grid_pruned_kdv(&inp.base.kdv, spec(s.kdv_px), kdv_kernel(), TAIL_EPS);
    timed(0, t);

    let t = Instant::now();
    let stkdv = stkdv_sweep_threads(
        &inp.base.st,
        spec(s.st_px),
        0.0,
        T_MAX,
        s.st_bins,
        st_spatial(),
        st_temporal(),
        TAIL_EPS,
        threads,
    );
    timed(1, t);

    let t = Instant::now();
    let nkdv = nkdv_forward(&inp.base.net, &prep.lixels, &inp.base.events, nkdv_kernel())
        .expect("network events are valid")
        .values()
        .to_vec();
    timed(2, t);

    let t = Instant::now();
    let cfg = KConfig::default();
    let k_grid = grid_k(&inp.k_points, K_STEP * 2.5, cfg);
    let k_hist = histogram_k_all_threads(&inp.k_points, &thresholds(s.k_thresholds), cfg, threads);
    timed(3, t);

    let t = Instant::now();
    let counts = quadrat_counts(&inp.base.kdv, prep.cell_spec)
        .values()
        .to_vec();
    let moran_i = morans_i_threads(&counts, &prep.weights, s.moran_perms, 7, threads)
        .expect("quadrat counts vary")
        .i;
    let gi = local_gi_star_threads(&counts, &prep.weights, threads)
        .into_iter()
        .map(|r| r.value)
        .collect();
    timed(4, t);

    let t = Instant::now();
    let idw = idw_naive_threads(&inp.samples, spec(s.idw_px), IDW_POWER, threads);
    let krige = ordinary_kriging_threads(
        &inp.samples,
        spec(s.krige_px),
        &prep.variogram,
        KRIGE_NEIGHBOURS,
        threads,
    )
    .expect("distinct sample sites keep kriging non-singular")
    .prediction;
    timed(5, t);

    let out = PassOut {
        kdv,
        stkdv,
        nkdv,
        k_grid,
        k_hist,
        counts,
        moran_i,
        gi,
        idw,
        krige,
    };
    (out, times)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-12
}

/// Check a pass's outputs against brute-force oracles on a seeded
/// sample. Returns the mismatches.
#[must_use]
pub fn check(inp: &BatchInputs, prep: &Prepared, out: &PassOut, seed: u64) -> (Vec<String>, usize) {
    let s = inp.sizes;
    let mut rng = Rng::derive(seed, 0x0063_686b);
    let mut bad = Vec::new();
    let mut checked = 0usize;
    let mut expect = |what: &str, ok: bool| {
        checked += 1;
        if !ok {
            bad.push(what.to_string());
        }
    };

    // KDV: direct kernel sums at sampled pixels.
    let ks = spec(s.kdv_px);
    let kernel = kdv_kernel();
    for _ in 0..16 {
        let (ix, iy) = (rng.below(ks.nx), rng.below(ks.ny));
        let q = ks.pixel_center(ix, iy);
        let direct: f64 = inp
            .base
            .kdv
            .iter()
            .map(|p| kernel.eval_sq(p.dist_sq(&q)))
            .sum();
        let got = out.kdv.at(ix, iy);
        // The pruned sweep drops kernel tails below TAIL_EPS.
        let tol = 1e-9 * direct.abs() + inp.base.kdv.len() as f64 * TAIL_EPS;
        expect(
            &format!("kdv pixel ({ix},{iy}): {got} vs {direct}"),
            (got - direct).abs() <= tol,
        );
    }

    // STKDV: the naive space-time sum over the whole cube.
    let naive = stkdv_naive(
        &inp.base.st,
        spec(s.st_px),
        0.0,
        T_MAX,
        s.st_bins,
        st_spatial(),
        st_temporal(),
    );
    for _ in 0..16 {
        let st_spec = spec(s.st_px);
        let (ix, iy, it) = (
            rng.below(st_spec.nx),
            rng.below(st_spec.ny),
            rng.below(s.st_bins),
        );
        let (got, want) = (out.stkdv.at(ix, iy, it), naive.at(ix, iy, it));
        let tol = 1e-9 * want.abs() + inp.base.st.len() as f64 * TAIL_EPS;
        expect(
            &format!("stkdv voxel ({ix},{iy},{it}): {got} vs {want}"),
            (got - want).abs() <= tol,
        );
    }

    // NKDV: per-source Dijkstra against the forward sweep.
    let naive = nkdv_naive(&inp.base.net, &prep.lixels, &inp.base.events, nkdv_kernel())
        .expect("network events are valid");
    for _ in 0..32 {
        let i = rng.below(out.nkdv.len());
        let (got, want) = (out.nkdv[i], naive.values()[i]);
        expect(
            &format!("nkdv lixel {i}: {got} vs {want}"),
            close(got, want),
        );
    }

    // K-function: exact pair counts against the O(n²) scan.
    let cfg = KConfig::default();
    let want = naive_k(&inp.k_points, K_STEP * 2.5, cfg);
    expect(
        &format!("grid_k: {} vs {want}", out.k_grid),
        out.k_grid == want,
    );
    let th = thresholds(s.k_thresholds);
    let j = rng.below(th.len());
    let want = naive_k(&inp.k_points, th[j], cfg);
    expect(
        &format!("histogram_k[{j}]: {} vs {want}", out.k_hist[j]),
        out.k_hist[j] == want,
    );

    // Moran's I and Gi*: the textbook formulas over the weight rows.
    let n = out.counts.len() as f64;
    let mean = out.counts.iter().sum::<f64>() / n;
    let z: Vec<f64> = out.counts.iter().map(|v| v - mean).collect();
    let (mut num, mut s0) = (0.0, 0.0);
    for (i, zi) in z.iter().enumerate() {
        let (cols, ws) = prep.weights.row(i);
        for (c, w) in cols.iter().zip(ws) {
            num += w * zi * z[*c as usize];
            s0 += w;
        }
    }
    let den: f64 = z.iter().map(|v| v * v).sum();
    let moran = n / s0 * num / den;
    expect(
        &format!("moran i: {} vs {moran}", out.moran_i),
        close(out.moran_i, moran),
    );
    let sd = (out.counts.iter().map(|v| v * v).sum::<f64>() / n - mean * mean).sqrt();
    for _ in 0..16 {
        let i = rng.below(out.counts.len());
        let (cols, ws) = prep.weights.row(i);
        let (mut lag, mut w_sum, mut w_sq) = (out.counts[i], 1.0, 1.0);
        for (c, w) in cols.iter().zip(ws) {
            lag += w * out.counts[*c as usize];
            w_sum += w;
            w_sq += w * w;
        }
        let gi = (lag - mean * w_sum) / (sd * ((n * w_sq - w_sum * w_sum) / (n - 1.0)).sqrt());
        expect(
            &format!("gi* cell {i}: {} vs {gi}", out.gi[i]),
            close(out.gi[i], gi),
        );
    }

    // IDW: the weighted mean at sampled pixels.
    let is = spec(s.idw_px);
    for _ in 0..16 {
        let (ix, iy) = (rng.below(is.nx), rng.below(is.ny));
        let q = is.pixel_center(ix, iy);
        let (mut wz, mut ws) = (0.0, 0.0);
        for (p, v) in &inp.samples {
            let w = 1.0 / p.dist_sq(&q).sqrt().powf(IDW_POWER);
            wz += w * v;
            ws += w;
        }
        let got = out.idw.at(ix, iy);
        expect(
            &format!("idw pixel ({ix},{iy}): {got} vs {}", wz / ws),
            close(got, wz / ws),
        );
    }

    // Kriging: each sampled pixel re-solved alone on a one-pixel grid.
    let kspec = spec(s.krige_px);
    for _ in 0..8 {
        let (ix, iy) = (rng.below(kspec.nx), rng.below(kspec.ny));
        let c = kspec.pixel_center(ix, iy);
        let (hx, hy) = (kspec.dx() / 2.0, kspec.dy() / 2.0);
        let one = GridSpec::new(
            lsga::core::BBox::new(c.x - hx, c.y - hy, c.x + hx, c.y + hy),
            1,
            1,
        );
        let want = ordinary_kriging_threads(
            &inp.samples,
            one,
            &prep.variogram,
            KRIGE_NEIGHBOURS,
            Threads::exact(1),
        )
        .expect("distinct sample sites keep kriging non-singular")
        .prediction
        .at(0, 0);
        let got = out.krige.at(ix, iy);
        let tol = 1e-7 * want.abs().max(1.0);
        expect(
            &format!("kriging pixel ({ix},{iy}): {got} vs {want}"),
            (got - want).abs() <= tol,
        );
    }
    (bad, checked)
}

/// Passes repeated for `seconds`.
struct Passes {
    pass_ms: Vec<f64>,
    tool_ms: Vec<[f64; 6]>,
    wall_s: f64,
    last: PassOut,
}

/// Repeat passes until `seconds` are spent. With `totals`, the
/// collector is on and drained into them after every pass.
fn passes(
    inp: &BatchInputs,
    prep: &Prepared,
    threads: Threads,
    seconds: f64,
    mut totals: Option<&mut ObsTotals>,
) -> Passes {
    if totals.is_some() {
        obs::reset();
        obs::enable();
    }
    let mut pass_ms = Vec::new();
    let mut tool_ms = Vec::new();
    let t0 = Instant::now();
    let last = loop {
        let t = Instant::now();
        let (out, times) = pass(inp, prep, threads);
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tool_ms.push(times.map(|s| s * 1e3));
        if let Some(t) = totals.as_deref_mut() {
            t.drain_into();
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break out;
        }
    };
    if totals.is_some() {
        obs::disable();
    }
    Passes {
        pass_ms,
        tool_ms,
        wall_s: t0.elapsed().as_secs_f64(),
        last,
    }
}

/// Run `analytics-batch` for `seconds`: set up repeatedly (see
/// [`repeat_timed`]), repeat passes until the time is spent, set up
/// repeatedly again, and check the last pass. Traced runs spend half
/// the time untraced and half traced.
pub fn run(seed: u64, seconds: f64, traced: bool, nproc: usize, report: &mut Report) -> RunOut {
    let inp = BatchInputs::generate(SIZES, seed);
    let threads = Threads::exact(nproc);
    let (mut setups, prep) = repeat_timed(|| prepare(&inp));

    let mut totals = ObsTotals::default();
    let mut baseline_p50 = 0.0;
    let proc_window;
    let run = if traced {
        let base = passes(&inp, &prep, threads, seconds / 2.0, None);
        baseline_p50 = median(&base.pass_ms).unwrap_or(0.0);
        proc_window = ProcWindow::start();
        passes(&inp, &prep, threads, seconds / 2.0, Some(&mut totals))
    } else {
        proc_window = ProcWindow::start();
        passes(&inp, &prep, threads, seconds, None)
    };
    let (cpu_util, invol) = proc_window.finish();
    if !traced {
        // Time set-up again after the passes, so the median spans the
        // run rather than its first seconds.
        setups.extend(repeat_timed(|| prepare(&inp)).0);
    }
    let (bad, checked) = check(&inp, &prep, &run.last, seed);
    for e in bad.iter().take(8) {
        eprintln!("correctness: {e}");
    }

    let mut sorted = run.pass_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let attempted = sorted.len() as u64;
    let per_tool: [f64; 6] = std::array::from_fn(|i| {
        median(&run.tool_ms.iter().map(|t| t[i]).collect::<Vec<_>>()).unwrap_or(0.0)
    });
    let p50 = percentile(&sorted, 0.5).unwrap_or(0.0);
    if !traced {
        report.metric(
            "setup_s",
            "s",
            median(&setups).expect("at least one set-up"),
        );
        report.latency_metrics(&run.pass_ms, &run.pass_ms, SLO_MS);
        let rate = |w: &[f64]| w.len() as f64 * 1e3 / w.iter().sum::<f64>();
        report.metric("served_rps", "1/s", window_median(&run.pass_ms, rate));
        report.metric("ok_frac", "frac", 1.0);
        report.metric("peak_rss_mb", "MiB", sys::peak_rss_mb());
    }
    report.meta_str("loop", "closed");
    report.meta_num("clients", 1.0);
    report.meta_num("pool_threads", nproc as f64);
    report.meta_num("latency_limit_ms", SLO_MS);
    report.meta_num("samples_op_latency", attempted as f64);
    report.meta_num("windows", WINDOWS as f64);
    report.meta_num("run_served_rps", attempted as f64 / run.wall_s);
    report.meta_num("samples_beyond_p90", (attempted as f64 * 0.1).floor());
    report.meta_num("run_op_p99_ms", percentile(&sorted, 0.99).unwrap_or(0.0));
    report.meta_num("samples_beyond_p99", (attempted as f64 * 0.01).floor());
    report.meta_num("setup_repeats", setups.len() as f64);
    report.meta_str("input_sizes", &format!("{SIZES:?}"));
    for (name, v) in TOOLS.iter().zip(per_tool) {
        report.meta_num(&format!("tool_{name}_ms_p50"), v);
    }
    report.meta_num("gate_values_checked", checked as f64);
    RunOut {
        correct: bad.is_empty(),
        attempted,
        failed: 0,
        traced: traced.then(|| Traced {
            spans: ClientSpans::default(),
            totals,
            cpu_util,
            invol,
            overhead_frac: (p50 - baseline_p50) / baseline_p50.max(1e-9),
            tool_ms: Some(per_tool),
        }),
    }
}
