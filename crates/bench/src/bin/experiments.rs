//! Regenerate every experiment table of `EXPERIMENTS.md`.
//!
//! Usage:
//! ```text
//! cargo run --release -p lsga-bench --bin experiments -- all
//! cargo run --release -p lsga-bench --bin experiments -- e3 e5 e12
//! ```
//!
//! Each experiment prints a self-contained markdown table; EXPERIMENTS.md
//! records one captured run with commentary. Sizes are chosen so the full
//! suite completes in a few minutes in release mode.

use lsga::dist::{self, PartitionStrategy};
use lsga::prelude::*;
use lsga::stats::{self, areal, SpatialWeights};
use lsga::{data, interp, kdv, kfunc, viz};
use lsga_bench::report;
use lsga_bench::workloads::{crime, csr, road_scenario, sensors, taxi, waves, window};
use std::time::{Duration, Instant};

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

fn msf(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);

    let experiments: &[(&str, &str, fn())] = &[
        ("e1", "KDV heatmap & hotspot recovery (Fig. 1)", e1),
        ("e2", "kernel functions (Table 2 + extensions)", e2),
        ("e3", "KDV method scaling (naive vs accelerated)", e3),
        ("e4", "K-function plot & regimes (Fig. 2)", e4),
        ("e5", "K-function method scaling (O(n^2) claim)", e5),
        ("e6", "NKDV vs planar KDV (Fig. 3)", e6),
        ("e7", "STKDV waves (Fig. 4)", e7),
        ("e8", "spatiotemporal K surface (Fig. 6)", e8),
        ("e9", "network K-function vs planar (Yamada-Thill)", e9),
        ("e10", "IDW & kriging (O(XYn) claim)", e10),
        ("e11", "Moran's I & General G", e11),
        ("e12", "distributed scaling & communication", e12),
        ("e13", "approximation quality (Eq. 6-7 guarantees)", e13),
        ("e14", "SAFE multi-bandwidth sharing ablation", e14),
        ("e15", "clustering recovery (DBSCAN / K-means)", e15),
        ("e16", "future work: sampled & border-corrected K", e16),
        ("e17", "future work: binned separable Gaussian KDV", e17),
        ("e18", "extension: local Gi* / LISA hot-spot maps", e18),
        ("e19", "fault injection & recovery overhead", e19),
        ("e20", "observability overhead & counter audit", e20),
        (
            "e21",
            "serving layer: tile cache, single-flight, invalidation",
            e21,
        ),
        (
            "e22",
            "incremental ingest: segment stack vs monolithic rebuild",
            e22,
        ),
        (
            "e23",
            "quality tiers: deadline-aware degradation under Zipfian overload",
            e23,
        ),
        (
            "e24",
            "served tiers: HTTP front-end under overload, exact vs tiered",
            e24,
        ),
        (
            "e25",
            "multi-node cluster: shard routing, node-death re-homing, coverage degradation",
            e25,
        ),
        (
            "e26",
            "multi-analytic serving: per-kind cost, coalescing, insert isolation",
            e26,
        ),
    ];

    let mut ran = 0;
    for (id, title, f) in experiments {
        if want(id) {
            println!("\n## {} — {title}\n", id.to_uppercase());
            let t = Instant::now();
            report::start(id, title);
            // Every experiment runs traced; whatever its hot paths
            // account for lands in OBS_<ID>.json next to BENCH_<ID>.json.
            // (E20 toggles the collector itself to measure the overhead.)
            lsga::obs::reset();
            lsga::obs::enable();
            f();
            let elapsed = t.elapsed();
            let snap = lsga::obs::drain();
            lsga::obs::disable();
            if !snap.is_empty() {
                let path = format!("OBS_{}.json", id.to_uppercase());
                if std::fs::write(&path, snap.to_json(id)).is_ok() {
                    println!("\n[wrote {path}]");
                }
            }
            if let Some(path) = report::finish(msf(elapsed)) {
                println!("\n[wrote {}]", path.display());
            }
            println!("\n[{} completed in {:.1?}]", id.to_uppercase(), elapsed);
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("unknown experiment id; use e1..e26 or all (e16-e18 are the implemented future-work extensions)");
        std::process::exit(2);
    }
}

// ---------------------------------------------------------------- E1 ----
fn e1() {
    let n = 200_000;
    let points = crime(n);
    let spec = GridSpec::new(window(), 512, 410);
    let kernel = PolyKernel::new(KernelKind::Quartic, 250.0).unwrap();
    let (grid, t) = time(|| kdv::slam_kdv(&points, spec, kernel));
    let truth = Point::new(2_500.0, 2_000.0);
    println!("| quantity | value |");
    println!("|---|---|");
    println!("| points | {n} |");
    println!("| raster | {}x{} px |", spec.nx, spec.ny);
    println!("| method | SLAM sweep-line (exact) |");
    println!("| time | {} ms |", ms(t));
    println!(
        "| hotspot found | ({:.0}, {:.0}) |",
        grid.hotspot().x,
        grid.hotspot().y
    );
    println!(
        "| true heaviest hotspot | ({:.0}, {:.0}) |",
        truth.x, truth.y
    );
    println!(
        "| recovery error | {:.0} m ({}x pixel) |",
        grid.hotspot().dist(&truth),
        (grid.hotspot().dist(&truth) / spec.dx()).round()
    );
    let out = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(out).expect("create output dir");
    viz::write_heatmap_png(out.join("e1_heatmap.png"), &grid, Colormap::Heat).expect("write png");
    println!("| image | target/experiments/e1_heatmap.png |");
}

// ---------------------------------------------------------------- E2 ----
fn e2() {
    let points = crime(50_000);
    let spec = GridSpec::new(window(), 256, 205);
    println!("| kernel | K(0) | K(b/2) | K(b) | K(2b) | support | rasterize (ms) | max density |");
    println!("|---|---|---|---|---|---|---|---|");
    let b = 300.0;
    for kind in KernelKind::ALL {
        let k = kind.with_bandwidth(b);
        let (grid, t) = time(|| kdv::grid_pruned_kdv(&points, spec, k, 1e-9));
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {} | {:.1} |",
            kind.name(),
            k.eval(0.0),
            k.eval(b / 2.0),
            k.eval(b),
            k.eval(2.0 * b),
            k.support()
                .map_or("infinite".to_string(), |s| format!("{s:.0}")),
            ms(t),
            grid.max()
        );
    }
}

// ---------------------------------------------------------------- E3 ----
fn e3() {
    let spec = GridSpec::new(window(), 256, 205);
    let b = 250.0;
    let quartic = Quartic::new(b);
    let poly = PolyKernel::new(KernelKind::Quartic, b).unwrap();
    let threads = hw_threads();
    println!(
        "### runtime vs n (quartic, b = {b}, {}x{} px)\n",
        spec.nx, spec.ny
    );
    println!("| n | naive O(XYn) | grid-pruned | SLAM | bounds eps=0.1 | sampling m=4096 | parallel x{threads} |");
    println!("|---|---|---|---|---|---|---|");
    for n in [10_000usize, 30_000, 100_000, 300_000] {
        let pts = crime(n);
        let nf = n as f64;
        let res = (spec.nx * spec.ny) as f64;
        let naive_col = if n <= 30_000 {
            let (_, t) = time(|| kdv::naive_kdv(&pts, spec, quartic));
            report::row("naive", &[("n", nf), ("pixels", res)], msf(t));
            format!("{} ms", ms(t))
        } else {
            "— (extrapolates to minutes)".to_string()
        };
        let (_, t_grid) = time(|| kdv::grid_pruned_kdv(&pts, spec, quartic, 1e-9));
        report::row("grid-pruned", &[("n", nf), ("pixels", res)], msf(t_grid));
        let (_, t_slam) = time(|| kdv::slam_kdv(&pts, spec, poly));
        report::row("slam", &[("n", nf), ("pixels", res)], msf(t_slam));
        let engine = kdv::BoundsKdv::new(&pts);
        let (_, t_bounds) = time(|| engine.compute(spec, quartic, 0.1));
        report::row("bounds", &[("n", nf), ("pixels", res)], msf(t_bounds));
        let (_, t_samp) = time(|| kdv::sampling_kdv(&pts, spec, quartic, 4096, 1));
        report::row("sampling", &[("n", nf), ("pixels", res)], msf(t_samp));
        let (_, t_par) = time(|| kdv::parallel_kdv(&pts, spec, quartic, 1e-9, threads));
        report::row(
            "parallel",
            &[("n", nf), ("pixels", res), ("threads", threads as f64)],
            msf(t_par),
        );
        println!(
            "| {n} | {naive_col} | {} ms | {} ms | {} ms | {} ms | {} ms |",
            ms(t_grid),
            ms(t_slam),
            ms(t_bounds),
            ms(t_samp),
            ms(t_par)
        );
    }
    println!("\n### runtime vs resolution (n = 100k)\n");
    println!("| raster | grid-pruned | SLAM | parallel x{threads} |");
    println!("|---|---|---|---|");
    let pts = crime(100_000);
    for nx in [128usize, 256, 512, 1024] {
        let spec = GridSpec::with_width(window(), nx);
        let res = (spec.nx * spec.ny) as f64;
        let (_, t_grid) = time(|| kdv::grid_pruned_kdv(&pts, spec, quartic, 1e-9));
        report::row("grid-pruned", &[("n", 1e5), ("pixels", res)], msf(t_grid));
        let (_, t_slam) = time(|| kdv::slam_kdv(&pts, spec, poly));
        report::row("slam", &[("n", 1e5), ("pixels", res)], msf(t_slam));
        let (_, t_par) = time(|| kdv::parallel_kdv(&pts, spec, quartic, 1e-9, threads));
        report::row(
            "parallel",
            &[("n", 1e5), ("pixels", res), ("threads", threads as f64)],
            msf(t_par),
        );
        println!(
            "| {}x{} | {} ms | {} ms | {} ms |",
            spec.nx,
            spec.ny,
            ms(t_grid),
            ms(t_slam),
            ms(t_par)
        );
    }
}

// ---------------------------------------------------------------- E4 ----
fn e4() {
    let thresholds: Vec<f64> = (1..=10).map(|i| i as f64 * 100.0).collect();
    let cfg = KConfig::default();
    let sims = 40;
    let datasets: [(&str, Vec<Point>); 3] = [
        ("clustered (crime)", crime(2_000)),
        ("CSR", csr(2_000)),
        (
            "dispersed (hard-core 180 m)",
            data::hardcore_points(2_000, 180.0, window(), 5),
        ),
    ];
    for (name, pts) in &datasets {
        let plot = kfunc::k_function_plot(pts, window(), &thresholds, sims, 7, cfg, hw_threads());
        println!("\n**{name}** (n = {}, {sims} CSR simulations)\n", pts.len());
        println!("| s (m) | K_P(s) | L(s) | U(s) | verdict |");
        println!("|---|---|---|---|---|");
        for (i, s) in plot.thresholds.iter().enumerate() {
            println!(
                "| {s:.0} | {} | {} | {} | {:?} |",
                plot.observed[i],
                plot.lower[i],
                plot.upper[i],
                plot.regimes()[i]
            );
        }
    }
}

// ---------------------------------------------------------------- E5 ----
fn e5() {
    let s = 300.0;
    let cfg = KConfig::default();
    let thresholds: Vec<f64> = (1..=10).map(|i| i as f64 * 60.0).collect();
    let threads = hw_threads();
    println!("| n | naive O(n^2) | grid | kd-tree | ball-tree | histogram (10 s) | parallel x{threads} |");
    println!("|---|---|---|---|---|---|---|");
    for n in [5_000usize, 20_000, 80_000, 320_000] {
        let pts = taxi(n);
        let nf = n as f64;
        let naive_col = if n <= 20_000 {
            let (k, t) = time(|| kfunc::naive_k(&pts, s, cfg));
            let _ = k;
            report::row("naive", &[("n", nf), ("s", s)], msf(t));
            format!("{} ms", ms(t))
        } else {
            "—".to_string()
        };
        let (k_grid, t_grid) = time(|| kfunc::grid_k(&pts, s, cfg));
        report::row("grid", &[("n", nf), ("s", s)], msf(t_grid));
        let (k_kd, t_kd) = time(|| kfunc::kd_tree_k(&pts, s, cfg));
        report::row("kd-tree", &[("n", nf), ("s", s)], msf(t_kd));
        let (k_ball, t_ball) = time(|| kfunc::ball_tree_k(&pts, s, cfg));
        report::row("ball-tree", &[("n", nf), ("s", s)], msf(t_ball));
        let (_, t_hist) = time(|| kfunc::histogram_k_all(&pts, &thresholds, cfg));
        report::row(
            "histogram",
            &[("n", nf), ("thresholds", thresholds.len() as f64)],
            msf(t_hist),
        );
        let (k_par, t_par) = time(|| kfunc::parallel_k(&pts, s, cfg, threads));
        report::row(
            "parallel",
            &[("n", nf), ("s", s), ("threads", threads as f64)],
            msf(t_par),
        );
        assert!(k_grid == k_kd && k_kd == k_ball && k_ball == k_par);
        println!(
            "| {n} | {naive_col} | {} ms | {} ms | {} ms | {} ms | {} ms |",
            ms(t_grid),
            ms(t_kd),
            ms(t_ball),
            ms(t_hist),
            ms(t_par)
        );
    }
}

// ---------------------------------------------------------------- E6 ----
fn e6() {
    let (net, events) = road_scenario(25, 3_000);
    let lixels = Lixels::build(&net, 25.0);
    let kernel = Quartic::new(500.0);
    println!(
        "network: {} vertices, {} edges, {:.0} km; {} events; {} lixels\n",
        net.vertex_count(),
        net.edge_count(),
        net.total_length() / 1000.0,
        events.len(),
        lixels.len()
    );
    let (fwd, t_fwd) = time(|| kdv::nkdv_forward(&net, &lixels, &events, kernel).unwrap());
    let lix_sub = Lixels::build(&net, 100.0); // coarser for the slow baseline
    let (_, t_naive_sub) = time(|| kdv::nkdv_naive(&net, &lix_sub, &events, kernel).unwrap());
    println!("| method | lixels | time |");
    println!("|---|---|---|");
    println!(
        "| per-lixel Dijkstra (naive) | {} | {} ms |",
        lix_sub.len(),
        ms(t_naive_sub)
    );
    println!(
        "| per-event forward scatter | {} | {} ms |",
        lixels.len(),
        ms(t_fwd)
    );

    // Fig. 3 quantification: planar density at lixel midpoints vs NKDV.
    let planar_events: Vec<Point> = events.iter().map(|e| e.point(&net)).collect();
    let spec = GridSpec::with_width(net.bbox().inflate(100.0), 200);
    let planar = kdv::grid_pruned_kdv(&planar_events, spec, kernel, 1e-9);
    let mids = lixels.midpoints(&net);
    let mut over = 0usize;
    let mut max_ratio: f64 = 1.0;
    for (i, mid) in mids.iter().enumerate() {
        let (ix, iy) = spec.pixel_of(mid);
        let p = planar.at(ix, iy);
        let nv = fwd.values()[i];
        if p > nv + 1e-9 {
            over += 1;
            if nv > 1.0 {
                max_ratio = max_ratio.max(p / nv);
            }
        }
    }
    println!("\n| Fig. 3 quantity | value |");
    println!("|---|---|");
    println!(
        "| lixels where planar density > network density | {over}/{} ({:.0}%) |",
        mids.len(),
        100.0 * over as f64 / mids.len() as f64
    );
    println!("| max planar/network overestimation ratio | {max_ratio:.1}x |");
}

// ---------------------------------------------------------------- E7 ----
fn e7() {
    let points = waves(100_000);
    let spec = GridSpec::new(window(), 125, 100);
    let (t0, t1, nt) = (0.0, 100.0, 10);
    let ks = Epanechnikov::new(400.0);
    let kt = PolyKernel::new(KernelKind::Epanechnikov, 8.0).unwrap();
    let (cube, t_sweep) = time(|| kdv::stkdv_sweep(&points, spec, t0, t1, nt, ks, kt, 1e-9));
    let small = waves(10_000);
    let (_, t_naive_small) = time(|| kdv::stkdv_naive(&small, spec, t0, t1, nt, ks, kt));
    println!("| method | n | cube | time |");
    println!("|---|---|---|---|");
    println!(
        "| naive O(XYTn) | 10000 | {}x{}x{nt} | {} ms |",
        spec.nx,
        spec.ny,
        ms(t_naive_small)
    );
    println!(
        "| temporal sweep (SWS-style) | 100000 | {}x{}x{nt} | {} ms |",
        spec.nx,
        spec.ny,
        ms(t_sweep)
    );
    println!("\n| day | hotspot (x, y) | peak density |");
    println!("|---|---|---|");
    for it in 0..nt {
        let slice = cube.slice(it);
        let hot = slice.hotspot();
        println!(
            "| {:.0} | ({:.0}, {:.0}) | {:.1} |",
            cube.time(it),
            hot.x,
            hot.y,
            slice.max()
        );
    }
    println!("\n(true wave 1 at (2500, 5500) day 20; wave 2 at (7500, 2500) day 75)");
}

// ---------------------------------------------------------------- E8 ----
fn e8() {
    let points = waves(4_000);
    let ss: Vec<f64> = (1..=5).map(|i| i as f64 * 150.0).collect();
    let ts: Vec<f64> = (1..=5).map(|i| i as f64 * 5.0).collect();
    let (plot, t) = time(|| {
        kfunc::st_k_plot(
            &points,
            window(),
            0.0,
            100.0,
            &ss,
            &ts,
            15,
            7,
            KConfig::default(),
        )
    });
    println!(
        "n = {}, {}x{} thresholds, 15 simulations, {} ms\n",
        points.len(),
        ss.len(),
        ts.len(),
        ms(t)
    );
    print!("| s \\ t |");
    for tt in &ts {
        print!(" {tt:.0} d |");
    }
    println!();
    print!("|---|");
    for _ in &ts {
        print!("---|");
    }
    println!();
    for (a, s) in ss.iter().enumerate() {
        print!("| {s:.0} m |");
        for b in 0..ts.len() {
            let obs = plot.at(a, b);
            let hot = obs > plot.upper[a * ts.len() + b];
            print!(" {obs}{} |", if hot { "\\*" } else { "" });
        }
        println!();
    }
    println!("\n(\\* = above the CSR envelope: meaningful space-time clustering)");
    println!(
        "clustered at {}/{} cells",
        plot.clustered_cells().len(),
        ss.len() * ts.len()
    );
}

// ---------------------------------------------------------------- E9 ----
fn e9() {
    let (net, events) = road_scenario(20, 1_600);
    let thresholds: Vec<f64> = (1..=8).map(|i| i as f64 * 200.0).collect();
    let cfg = KConfig::default();
    let (shared, t_shared) = time(|| kfunc::network_k_shared(&net, &events, &thresholds, cfg));
    let (naive, t_naive) = time(|| kfunc::network_k_naive(&net, &events, &thresholds, cfg));
    assert_eq!(shared, naive);
    let planar_events: Vec<Point> = events.iter().map(|e| e.point(&net)).collect();
    let planar = kfunc::histogram_k_all(&planar_events, &thresholds, cfg);
    println!("| method | time |");
    println!("|---|---|");
    println!("| per-event Dijkstra (naive) | {} ms |", ms(t_naive));
    println!("| per-vertex shared Dijkstra | {} ms |", ms(t_shared));
    println!("\n| s (m) | K_network | K_planar | planar/network |");
    println!("|---|---|---|---|");
    for (i, s) in thresholds.iter().enumerate() {
        println!(
            "| {s:.0} | {} | {} | {:.2}x |",
            shared[i],
            planar[i],
            planar[i] as f64 / shared[i].max(1) as f64
        );
    }
}

// --------------------------------------------------------------- E10 ----
fn e10() {
    let readings = sensors(800);
    let spec = GridSpec::new(window(), 200, 160);
    let field = |p: &Point| {
        12.0 + 0.0005 * p.x
            + 60.0 * (-p.dist_sq(&Point::new(3_000.0, 6_000.0)) / 4.0e6).exp()
            + 40.0 * (-p.dist_sq(&Point::new(7_000.0, 2_500.0)) / 9.0e6).exp()
    };
    let rmse = |g: &DensityGrid| {
        let mut acc = 0.0;
        for (_, _, q, v) in g.iter_pixels() {
            let e = v - field(&q);
            acc += e * e;
        }
        (acc / g.spec().len() as f64).sqrt()
    };
    println!("| method | time | RMSE |");
    println!("|---|---|---|");
    let (g, t) = time(|| interp::idw_naive(&readings, spec, 2.0));
    println!("| IDW naive O(XYn) | {} ms | {:.2} |", ms(t), rmse(&g));
    let (g, t) = time(|| interp::idw_knn(&readings, spec, 2.0, 12));
    println!("| IDW kNN (k=12) | {} ms | {:.2} |", ms(t), rmse(&g));
    let (g, t) = time(|| interp::idw_radius(&readings, spec, 2.0, 1_500.0));
    println!("| IDW radius (1.5 km) | {} ms | {:.2} |", ms(t), rmse(&g));
    let ((bins, model), t_fit) = time(|| {
        let bins = interp::empirical_variogram(&readings, 5_000.0, 15);
        let model =
            interp::fit_variogram(&bins, interp::VariogramModelKind::Exponential).expect("fit");
        (bins, model)
    });
    let (kriged, t_k) =
        time(|| interp::ordinary_kriging(&readings, spec, &model, 16).expect("solve"));
    println!(
        "| ordinary kriging (16-NN, {} fit {} bins, {} ms) | {} ms | {:.2} |",
        model.kind.name(),
        bins.len(),
        ms(t_fit),
        ms(t_k),
        rmse(&kriged.prediction)
    );
    println!(
        "\nfitted variogram: nugget {:.1}, sill {:.1}, range {:.0} m",
        model.nugget,
        model.sill(),
        model.range
    );
}

// --------------------------------------------------------------- E11 ----
fn e11() {
    let spec = GridSpec::new(window(), 20, 16);
    let centers = areal::cell_centers(&spec);
    let w = SpatialWeights::distance_band(&centers, 700.0);
    println!("| dataset | Moran I | E[I] | z | p_perm | General G / E[G] | G z | G p_perm |");
    println!("|---|---|---|---|---|---|---|---|");
    for (name, pts) in [("clustered (crime)", crime(30_000)), ("CSR", csr(30_000))] {
        let counts = areal::quadrat_counts(&pts, spec);
        let moran = stats::morans_i(counts.values(), &w, 499, 1).expect("lattice");
        let g = stats::general_g(counts.values(), &w, 499, 2).expect("lattice");
        println!(
            "| {name} | {:.3} | {:.4} | {:.1} | {:.4} | {:.2} | {:.1} | {:.4} |",
            moran.i,
            moran.expected,
            moran.z_norm,
            moran.p_perm.unwrap(),
            g.g / g.expected,
            g.z,
            g.p_perm
        );
    }
}

// --------------------------------------------------------------- E12 ----
fn e12() {
    let points = taxi(1_000_000);
    let spec = GridSpec::new(window(), 256, 205);
    let kernel = Epanechnikov::new(150.0);
    println!("### distributed KDV (n = 1M, {}x{} px)\n", spec.nx, spec.ny);
    println!(
        "| workers | strategy | wall | slowest worker | imbalance | halo points | MB shipped |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut base_wall = None;
    for workers in [1usize, 2, 4, 8] {
        for strategy in [
            PartitionStrategy::UniformBands,
            PartitionStrategy::BalancedKd,
        ] {
            let (_, m) = dist::distributed_kdv(&points, spec, kernel, 1e-9, workers, strategy);
            if workers == 1 && base_wall.is_none() {
                base_wall = Some(m.wall);
            }
            println!(
                "| {workers} | {strategy:?} | {} ms | {} ms | {:.2} | {} | {:.1} |",
                ms(m.wall),
                ms(m.compute_max()),
                m.load_imbalance(),
                m.replicated_points(),
                m.total_bytes() as f64 / 1e6
            );
        }
    }
    println!("\n### halo volume vs bandwidth (8 workers, BalancedKd)\n");
    println!("| bandwidth (m) | halo points | MB shipped |");
    println!("|---|---|---|");
    for b in [50.0, 150.0, 450.0] {
        let (_, m) = dist::distributed_kdv(
            &points,
            spec,
            Epanechnikov::new(b),
            1e-9,
            8,
            PartitionStrategy::BalancedKd,
        );
        println!(
            "| {b:.0} | {} | {:.1} |",
            m.replicated_points(),
            m.total_bytes() as f64 / 1e6
        );
    }
    println!("\n### distributed K-function (n = 300k, s = 200 m)\n");
    let kp = taxi(300_000);
    println!("| workers | wall | count |");
    println!("|---|---|---|");
    for workers in [1usize, 2, 4, 8] {
        let (k, m) = dist::distributed_k(
            &kp,
            200.0,
            KConfig::default(),
            workers,
            PartitionStrategy::BalancedKd,
        );
        println!("| {workers} | {} ms | {k} |", ms(m.wall));
    }
}

// --------------------------------------------------------------- E13 ----
fn e13() {
    let points = crime(100_000);
    let spec = GridSpec::new(window(), 128, 102);
    let kernel = Gaussian::new(400.0);
    let exact = kdv::grid_pruned_kdv(&points, spec, kernel, 1e-12);
    println!("### bounds method (Eq. 6): guarantee vs observed\n");
    println!("| eps | time | observed max relative error |");
    println!("|---|---|---|");
    let engine = kdv::BoundsKdv::new(&points);
    for eps in [0.01, 0.05, 0.2, 0.5] {
        let (approx, t) = time(|| engine.compute(spec, kernel, eps));
        let rel = approx.rel_diff(&exact, exact.max() * 1e-6);
        assert!(rel <= eps + 1e-9, "guarantee violated: {rel} > {eps}");
        println!("| {eps} | {} ms | {rel:.4} |", ms(t));
    }
    println!("\n### sampling method (Eq. 7): Hoeffding bound vs observed\n");
    println!("| m | implied (eps, delta=0.01) | time | observed Linf / (n K(0)) |");
    println!("|---|---|---|---|");
    for m in [500usize, 2_000, 8_000, 32_000] {
        // Invert m = ln(2/delta)/(2 eps^2).
        let eps = ((2.0f64 / 0.01).ln() / (2.0 * m as f64)).sqrt();
        let (approx, t) = time(|| kdv::sampling_kdv(&points, spec, kernel, m, 9));
        let obs = approx.linf_diff(&exact) / (points.len() as f64 * kernel.max_value());
        println!("| {m} | eps = {eps:.4} | {} ms | {obs:.5} |", ms(t));
    }
}

// --------------------------------------------------------------- E14 ----
fn e14() {
    let points = crime(100_000);
    let spec = GridSpec::new(window(), 128, 102);
    println!("| bandwidths B | independent passes | SAFE shared | speedup |");
    println!("|---|---|---|---|");
    for nb in [1usize, 2, 4, 8, 16] {
        let bws: Vec<f64> = (1..=nb).map(|i| 60.0 * i as f64).collect();
        let (indep, t_ind) = time(|| {
            kdv::independent_multi_bandwidth(&points, spec, KernelKind::Epanechnikov, &bws)
        });
        let (shared, t_sh) =
            time(|| kdv::safe_multi_bandwidth(&points, spec, KernelKind::Epanechnikov, &bws));
        for (a, b) in indep.iter().zip(&shared) {
            assert!(a.rel_diff(b, a.max().max(1e-9) * 1e-3) < 1e-9);
        }
        println!(
            "| {nb} | {} ms | {} ms | {:.2}x |",
            ms(t_ind),
            ms(t_sh),
            t_ind.as_secs_f64() / t_sh.as_secs_f64()
        );
    }
}

// --------------------------------------------------------------- E15 ----
fn e15() {
    let hotspots = [
        Hotspot {
            center: Point::new(2_000.0, 2_000.0),
            sigma: 250.0,
            weight: 1.0,
        },
        Hotspot {
            center: Point::new(8_000.0, 3_000.0),
            sigma: 250.0,
            weight: 1.0,
        },
        Hotspot {
            center: Point::new(5_000.0, 6_500.0),
            sigma: 250.0,
            weight: 1.0,
        },
    ];
    println!("| n | DBSCAN time | clusters | DBSCAN ARI | K-means time | K-means ARI |");
    println!("|---|---|---|---|---|---|");
    for n in [3_000usize, 30_000, 100_000] {
        let (pts, truth) = data::gaussian_mixture_labeled(n, &hotspots, window(), 5);
        let want: Vec<i64> = truth.iter().map(|l| *l as i64).collect();
        let (db, t_db) = time(|| stats::dbscan(&pts, 220.0, 10));
        let got_db: Vec<i64> = db.labels.iter().map(|l| *l as i64).collect();
        let (km, t_km) = time(|| stats::kmeans(&pts, 3, 100, 1));
        let got_km: Vec<i64> = km.labels.iter().map(|l| *l as i64).collect();
        println!(
            "| {n} | {} ms | {} | {:.3} | {} ms | {:.3} |",
            ms(t_db),
            db.n_clusters,
            stats::adjusted_rand_index(&got_db, &want),
            ms(t_km),
            stats::adjusted_rand_index(&got_km, &want)
        );
    }
}

// --------------------------------------------------------------- E16 ----
fn e16() {
    let points = taxi(200_000);
    let thresholds = [150.0, 300.0];
    let cfg = KConfig::default();
    let (truth, t_exact) = time(|| kfunc::histogram_k_all(&points, &thresholds, cfg));
    println!("### sampling estimator for the K-function (paper §2.4 future work)\n");
    println!(
        "exact histogram K at n = {}: {} ms, K(150) = {}, K(300) = {}\n",
        points.len(),
        ms(t_exact),
        truth[0],
        truth[1]
    );
    println!("| m | time | est. K(150) | rel. err | est. K(300) | rel. err |");
    println!("|---|---|---|---|---|---|");
    for m in [2_000usize, 8_000, 32_000] {
        let (est, t) = time(|| kfunc::sampled_k(&points, &thresholds, m, 7, cfg));
        println!(
            "| {m} | {} ms | {:.3e} | {:.3} | {:.3e} | {:.3} |",
            ms(t),
            est[0],
            (est[0] - truth[0] as f64).abs() / truth[0] as f64,
            est[1],
            (est[1] - truth[1] as f64).abs() / truth[1] as f64
        );
    }
    println!("\n### border edge correction (CSR, theory K(s) = pi s^2)\n");
    let unif = csr(30_000);
    println!("| s | raw Ripley K^ | border-corrected K^ | theory | sources kept |");
    println!("|---|---|---|---|---|");
    for s in [200.0, 500.0, 1_000.0] {
        let raw =
            kfunc::ripley_normalization(kfunc::grid_k(&unif, s, cfg), unif.len(), window().area());
        let corr = kfunc::border_corrected_k(&unif, window(), &[s]);
        let theory = std::f64::consts::PI * s * s;
        println!(
            "| {s:.0} | {raw:.0} | {:.0} | {theory:.0} | {} |",
            corr[0].0, corr[0].1
        );
    }
}

// --------------------------------------------------------------- E17 ----
fn e17() {
    let spec = GridSpec::new(window(), 256, 205);
    let b = 400.0;
    let kernel = Gaussian::new(b);
    println!("| n | exact grid-pruned | binned os=4 | binned os=8 | rel err (os=8) |");
    println!("|---|---|---|---|---|");
    for n in [30_000usize, 100_000, 300_000] {
        let pts = crime(n);
        let (exact, t_exact) = time(|| kdv::grid_pruned_kdv(&pts, spec, kernel, 1e-9));
        let (_, t4) = time(|| kdv::binned_gaussian_kdv(&pts, spec, kernel, 4, 1e-9));
        let (g8, t8) = time(|| kdv::binned_gaussian_kdv(&pts, spec, kernel, 8, 1e-9));
        println!(
            "| {n} | {} ms | {} ms | {} ms | {:.4} |",
            ms(t_exact),
            ms(t4),
            ms(t8),
            g8.rel_diff(&exact, exact.max() * 1e-2)
        );
    }
}

// --------------------------------------------------------------- E18 ----
fn e18() {
    let points = crime(50_000);
    let spec = GridSpec::new(window(), 20, 16);
    let counts = areal::quadrat_counts(&points, spec);
    let centers = areal::cell_centers(&spec);
    let w = SpatialWeights::distance_band(&centers, 700.0);
    let (gi, t_gi) = time(|| stats::local_gi_star(counts.values(), &w));
    let (lisa, t_lisa) = time(|| stats::local_morans_i(counts.values(), &w, 199, 3).unwrap());
    let hot = gi.iter().filter(|r| r.value > 1.96).count();
    let cold = gi.iter().filter(|r| r.value < -1.96).count();
    let sig_lisa = lisa.iter().filter(|r| r.p < 0.05).count();
    println!("| quantity | value |");
    println!("|---|---|");
    println!("| quadrats | {} |", spec.len());
    println!("| Gi* time | {} ms |", ms(t_gi));
    println!("| hot spots (z > 1.96) | {hot} |");
    println!("| cold spots (z < -1.96) | {cold} |");
    println!("| LISA time (199 perms) | {} ms |", ms(t_lisa));
    println!("| significant LISA cells (p < 0.05) | {sig_lisa} |");
    // The generating hotspot cells must be flagged hot.
    let (hx, hy) = spec.pixel_of(&Point::new(2_500.0, 2_000.0));
    let z = gi[hy * spec.nx + hx].value;
    println!("| Gi* z at true hotspot cell | {z:.1} |");
    assert!(z > 1.96, "hotspot not detected");
}

// --------------------------------------------------------------- E19 ----
fn e19() {
    use lsga::dist::{FaultKind, FaultPlan, RetryPolicy};
    let points = taxi(300_000);
    let spec = GridSpec::new(window(), 256, 205);
    let kernel = Epanechnikov::new(150.0);
    let workers = 8usize;
    let strategy = PartitionStrategy::BalancedKd;
    let policy = RetryPolicy::default();

    let (reference, base) = dist::distributed_kdv(&points, spec, kernel, 1e-9, workers, strategy);
    let scenarios: [(&str, FaultPlan); 5] = [
        ("fault-free", FaultPlan::none()),
        (
            "1 worker crash",
            FaultPlan::none().with(0, 0, FaultKind::CrashMidTask),
        ),
        (
            "straggler past deadline",
            FaultPlan::none().with(1, 0, FaultKind::Straggle { ticks: 1_000 }),
        ),
        (
            "dropped halo shipment",
            FaultPlan::none().with(2, 0, FaultKind::DropHaloShipment),
        ),
        (
            "seeded chaos (12 faults)",
            FaultPlan::seeded_recoverable(7, workers, 12),
        ),
    ];

    println!(
        "### supervised distributed KDV (n = {}, {}x{} px, {workers} workers, BalancedKd)\n",
        points.len(),
        spec.nx,
        spec.ny
    );
    println!("| scenario | retries | timeouts | recovered tiles | dead workers | re-shipped MB | total MB | sim ticks | wall | identical |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for (name, plan) in &scenarios {
        let (partial, m) = dist::supervised_kdv(
            &points, spec, kernel, 1e-9, workers, strategy, plan, &policy,
        )
        .expect("finite inputs");
        assert!(partial.coverage.is_complete(), "{name}: not recovered");
        let identical = partial
            .grid
            .values()
            .iter()
            .zip(reference.values())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "{name}: recovery changed bits");
        report::row(
            name,
            &[
                ("workers", workers as f64),
                ("retries", f64::from(m.total_retries())),
                ("reshipped_mb", m.total_reshipped_bytes() as f64 / 1e6),
                ("total_mb", m.total_bytes() as f64 / 1e6),
                ("sim_ticks", m.sim_ticks as f64),
            ],
            msf(m.wall),
        );
        println!(
            "| {name} | {} | {} | {} | {} | {:.1} | {:.1} | {} | {} ms | yes |",
            m.total_retries(),
            m.total_timeouts(),
            m.recovered_tiles,
            m.dead_workers,
            m.total_reshipped_bytes() as f64 / 1e6,
            m.total_bytes() as f64 / 1e6,
            m.sim_ticks,
            ms(m.wall)
        );
    }
    println!(
        "\nbaseline comms (fault-free): {:.1} MB shipped, wall {} ms",
        base.total_bytes() as f64 / 1e6,
        ms(base.wall)
    );

    // Graceful degradation: exhaust one tile's retry budget.
    let mut doomed = FaultPlan::none();
    for attempt in 0..policy.max_attempts {
        doomed.push(3, attempt, FaultKind::TaskError);
    }
    let (partial, m) = dist::supervised_kdv(
        &points, spec, kernel, 1e-9, workers, strategy, &doomed, &policy,
    )
    .expect("finite inputs");
    report::row(
        "degraded (tile abandoned)",
        &[
            ("workers", workers as f64),
            ("retries", f64::from(m.total_retries())),
            ("covered_fraction", partial.coverage.fraction()),
            ("sim_ticks", m.sim_ticks as f64),
        ],
        msf(m.wall),
    );
    println!(
        "\ndegraded run: {}/{} tiles executed, {:.1}% of pixels covered, abandoned tiles {:?}",
        partial.coverage.executed_tiles,
        partial.coverage.total_tiles,
        100.0 * partial.coverage.fraction(),
        partial.coverage.abandoned
    );
}

// ---------------------------------------------------------------- E20 ----
fn e20() {
    use lsga::obs::{self, Counter};
    let threads = hw_threads();
    let cfg = KConfig::default();

    // Part 1 — overhead: identical hot-path workloads with the collector
    // off, then on. The main loop enabled the collector before calling
    // us, so the untraced leg explicitly disables it.
    let points = crime(150_000);
    let spec = GridSpec::new(window(), 512, 410);
    let kernel = Epanechnikov::new(150.0);
    let kpts = taxi(30_000);
    let thresholds: Vec<f64> = (1..=8).map(|i| f64::from(i) * 60.0).collect();
    let readings = sensors(2_000);
    let ispec = GridSpec::new(window(), 256, 205);

    type Workload<'a> = (&'a str, Box<dyn Fn() + 'a>);
    let workloads: Vec<Workload> = vec![
        (
            "parallel KDV (n=150k, 512x410)",
            Box::new(|| {
                let _ = kdv::parallel_kdv(&points, spec, kernel, 1e-9, threads);
            }),
        ),
        (
            "histogram K (n=30k, 8 thresholds)",
            Box::new(|| {
                let _ = kfunc::histogram_k_all(&kpts, &thresholds, cfg);
            }),
        ),
        (
            "IDW k-NN (2k sensors, 256x205)",
            Box::new(|| {
                let _ = interp::idw_knn(&readings, ispec, 2.0, 12);
            }),
        ),
    ];
    // Interleave the legs (off, on, off, on, ...) so slow clock drift on
    // a shared machine cancels instead of landing entirely on one leg;
    // best-of-reps then discards transient contention.
    let reps = 5;
    println!("### collector overhead ({threads} threads, best of {reps}, interleaved)\n");
    println!("| workload | untraced | traced | overhead |");
    println!("|---|---|---|---|");
    obs::reset();
    for (name, f) in &workloads {
        let mut un = Duration::MAX;
        let mut tr = Duration::MAX;
        for _ in 0..reps {
            obs::disable();
            un = un.min(time(f).1);
            obs::enable();
            tr = tr.min(time(f).1);
        }
        let pct = 100.0 * (tr.as_secs_f64() / un.as_secs_f64() - 1.0);
        println!("| {name} | {} ms | {} ms | {pct:+.1}% |", ms(un), ms(tr));
        report::row(
            name,
            &[("untraced_ms", msf(un)), ("overhead_pct", pct)],
            msf(tr),
        );
    }
    let snap = obs::drain();
    println!("\n### collector summary (traced leg)\n");
    println!("{}", snap.summary());
    if std::fs::write("OBS_E20_trace.json", snap.chrome_trace()).is_ok() {
        println!(
            "[wrote OBS_E20_trace.json — {} events, load in chrome://tracing]",
            snap.events().len()
        );
    }

    // Part 2 — audit: work counters vs the closed-form cost models the
    // paper quotes. Left in the registry so the main loop exports them
    // as OBS_E20.json.
    obs::enable();
    let apts = crime(20_000);
    let n = apts.len() as u64;
    let aspec = GridSpec::new(window(), 64, 51);
    let _ = kdv::naive_kdv(&apts, aspec, kernel);
    let _ = kfunc::naive_k(&apts, 300.0, cfg);
    let kdv_pairs = obs::counter_value(Counter::KdvPairs);
    let k_pairs = obs::counter_value(Counter::KfuncPairs);
    let kdv_expect = 64 * 51 * n;
    let k_expect = n * (n - 1) / 2;
    assert_eq!(kdv_pairs, kdv_expect, "naive KDV must count X·Y·n pairs");
    assert_eq!(k_pairs, k_expect, "naive K must count n(n-1)/2 pairs");
    println!("\n### counter audit (n = {n})\n");
    println!("| counter | measured | analytic model | match |");
    println!("|---|---|---|---|");
    println!("| kdv.pairs_evaluated | {kdv_pairs} | X·Y·n = {kdv_expect} | yes |");
    println!("| kfunc.pairs_evaluated | {k_pairs} | n(n−1)/2 = {k_expect} | yes |");
    report::row(
        "counter audit",
        &[
            ("kdv_pairs", kdv_pairs as f64),
            ("kfunc_pairs", k_pairs as f64),
        ],
        0.0,
    );
}

// ---------------------------------------------------------------- E21 ----
fn e21() {
    use lsga::core::par::Threads;
    use lsga::obs::{self, Counter};
    use lsga::serve::{HookPoint, TileCoord, TileServer, TileServerConfig};
    use std::sync::{Arc, Barrier};

    let n = 150_000;
    let points = crime(n);
    let kernel = KernelKind::Quartic.with_bandwidth(250.0);
    let tile_px = 256;
    let server = Arc::new(TileServer::new(TileServerConfig {
        tile_px,
        max_zoom: 5,
        shards: 16,
        // Generous: the experiment's working set (~81 × 0.5 MB tiles)
        // must fit even in the worst-hashed shard, or eviction would
        // blur the invalidation accounting below.
        byte_budget: 256 << 20,
        threads: Threads::exact(hw_threads()),
        ..TileServerConfig::default()
    }));
    let layer = server
        .add_layer(points, window(), kernel, 1e-9)
        .expect("crime layer");
    let delta = |c: Counter, before: u64| obs::counter_value(c) - before;

    // Part 1 — cold vs warm: a 16-tile zoom-2 viewport, first from an
    // empty cache (every tile computed), then repeated (every tile a
    // cache hit).
    let viewport: Vec<TileCoord> = (0..4)
        .flat_map(|x| (0..4).map(move |y| TileCoord::new(2, x, y)))
        .collect();
    let h0 = obs::counter_value(Counter::ServeCacheHits);
    let m0 = obs::counter_value(Counter::ServeCacheMisses);
    let c0 = obs::counter_value(Counter::ServeTilesComputed);
    let (_, t_cold) = time(|| server.get_tiles(layer, &viewport).expect("cold batch"));
    let cold_computed = delta(Counter::ServeTilesComputed, c0);
    let (_, t_warm) = time(|| server.get_tiles(layer, &viewport).expect("warm batch"));
    let hits = delta(Counter::ServeCacheHits, h0);
    let misses = delta(Counter::ServeCacheMisses, m0);
    let hit_rate = 100.0 * hits as f64 / (hits + misses) as f64;
    let speedup = t_cold.as_secs_f64() / t_warm.as_secs_f64();
    println!("| phase | tiles | time | per tile |");
    println!("|---|---|---|---|");
    println!(
        "| cold viewport (z=2, 16 tiles, {cold_computed} computed) | 16 | {} ms | {:.1} ms |",
        ms(t_cold),
        msf(t_cold) / 16.0
    );
    println!(
        "| warm viewport ({hits} hits / {} requests, {hit_rate:.0}% hit rate) | 16 | {} ms | {:.3} ms |",
        hits + misses,
        ms(t_warm),
        msf(t_warm) / 16.0
    );
    println!("| warm speedup | | {speedup:.0}x | |");
    report::row(
        "cold viewport z2",
        &[("tiles", 16.0), ("computed", cold_computed as f64)],
        msf(t_cold),
    );
    report::row(
        "warm viewport z2",
        &[("hit_rate_pct", hit_rate), ("speedup_x", speedup)],
        msf(t_warm),
    );

    // Part 2 — single-flight: 16 threads storm one cold zoom-4 tile.
    // The compute hook holds the leader until all 15 followers have
    // parked, so the coalescing factor is exact, not racy.
    let w0 = obs::counter_value(Counter::ServeCoalescedWaits);
    let c1 = obs::counter_value(Counter::ServeTilesComputed);
    server.set_hook(Some(Arc::new(move |point| {
        if !matches!(point, HookPoint::Compute(_)) {
            return;
        }
        while obs::counter_value(Counter::ServeCoalescedWaits) - w0 < 15 {
            std::thread::yield_now();
        }
    })));
    let barrier = Arc::new(Barrier::new(16));
    let (_, t_storm) = time(|| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    server.get_tile(0, 4, 9, 7).expect("storm tile")
                })
            })
            .collect();
        for h in handles {
            h.join().expect("storm thread");
        }
    });
    server.set_hook(None);
    let storm_computed = delta(Counter::ServeTilesComputed, c1);
    let coalesced = delta(Counter::ServeCoalescedWaits, w0);
    println!("\n| single-flight storm | value |");
    println!("|---|---|");
    println!("| concurrent requests | 16 |");
    println!("| computations | {storm_computed} |");
    println!("| coalesced waits | {coalesced} |");
    println!(
        "| coalescing factor | {:.0}x |",
        16.0 / storm_computed as f64
    );
    assert_eq!(storm_computed, 1, "single-flight must compute once");
    assert_eq!(coalesced, 15, "15 requests must coalesce");
    report::row(
        "single-flight storm",
        &[("requests", 16.0), ("computed", storm_computed as f64)],
        msf(t_storm),
    );

    // Part 3 — append-driven invalidation: warm all of zoom 2 and 3
    // (16 + 64 tiles), then land 1 000 new points in one hotspot.
    // Only tiles within kernel reach of the batch's bbox recompute.
    let z3: Vec<TileCoord> = (0..8)
        .flat_map(|x| (0..8).map(move |y| TileCoord::new(3, x, y)))
        .collect();
    let _ = server.get_tiles(layer, &z3).expect("warm z3");
    let cached_before = server.cached_tiles();
    let fresh = data::gaussian_mixture(
        1_000,
        &[Hotspot {
            center: Point::new(2_500.0, 2_000.0),
            sigma: 200.0,
            weight: 1.0,
        }],
        window(),
        777,
    );
    let i0 = obs::counter_value(Counter::ServeTilesInvalidated);
    let (_, t_insert) = time(|| server.insert_points(layer, &fresh).expect("insert"));
    let invalidated = delta(Counter::ServeTilesInvalidated, i0);
    let c2 = obs::counter_value(Counter::ServeTilesComputed);
    let (_, t_reheat) = time(|| {
        server.get_tiles(layer, &viewport).expect("reheat z2");
        server.get_tiles(layer, &z3).expect("reheat z3");
    });
    let recomputed = delta(Counter::ServeTilesComputed, c2);
    println!("\n| post-insert | value |");
    println!("|---|---|");
    println!("| cached tiles before insert | {cached_before} |");
    println!("| points inserted | 1000 |");
    println!("| tiles invalidated | {invalidated} |");
    println!(
        "| insert (rebuild index + invalidate) | {} ms |",
        ms(t_insert)
    );
    println!(
        "| re-request both viewports | {} ms ({recomputed} recomputed) |",
        ms(t_reheat)
    );
    assert_eq!(
        invalidated, recomputed,
        "exactly the invalidated tiles recompute"
    );
    assert!(
        invalidated < cached_before as u64,
        "localized insert must not dirty the whole pyramid"
    );
    report::row(
        "insert 1k points",
        &[
            ("invalidated", invalidated as f64),
            ("cached_before", cached_before as f64),
        ],
        msf(t_insert),
    );
    report::row(
        "re-request after insert",
        &[("recomputed", recomputed as f64)],
        msf(t_reheat),
    );
    println!(
        "\ncache: {} tiles resident, {:.1} MB",
        server.cached_tiles(),
        server.cache_bytes() as f64 / (1024.0 * 1024.0)
    );
}

// ---------------------------------------------------------------- E22 ----
fn e22() {
    use lsga::core::par::Threads;
    use lsga::index::GridIndex;
    use lsga::obs::{self, Counter};
    use lsga::serve::{compute_tile_direct, TileCoord, TileServer, TileServerConfig};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let n0 = 100_000;
    let batch_len = 1_000;
    let batches = 50usize;
    let mut points = crime(n0);
    let kernel = KernelKind::Quartic.with_bandwidth(250.0);
    let radius = kernel.effective_radius(1e-9);
    let server = Arc::new(TileServer::new(TileServerConfig {
        tile_px: 256,
        max_zoom: 5,
        shards: 16,
        byte_budget: 256 << 20,
        threads: Threads::exact(hw_threads()),
        ..TileServerConfig::default()
    }));
    let layer = server
        .add_layer(points.clone(), window(), kernel, 1e-9)
        .expect("crime layer");
    let fresh: Vec<Vec<Point>> = (0..batches)
        .map(|b| {
            data::gaussian_mixture(
                batch_len,
                &[Hotspot {
                    center: Point::new(2_500.0, 2_000.0),
                    sigma: 300.0,
                    weight: 1.0,
                }],
                window(),
                900 + b as u64,
            )
        })
        .collect();

    // Baseline — what every batch cost before the segment stack: clone
    // the n-point sequence and rebuild the monolithic index over
    // n + batch points. Measured directly (no server) at n = 100k.
    let (_, t_mono) = time(|| {
        let mut all = points.clone();
        all.extend_from_slice(&fresh[0]);
        GridIndex::with_bbox(&all, radius, window())
    });

    // Part 1 — sustained ingest: land the 50 batches, timing each
    // `insert_points` (batch index + tier compaction + swap + sweep).
    let s0 = obs::counter_value(Counter::IngestSegmentsCreated);
    let m0 = obs::counter_value(Counter::IngestSegmentsMerged);
    let b0 = obs::counter_value(Counter::IngestMergeBytes);
    let mut append_ms: Vec<f64> = Vec::with_capacity(batches);
    for batch in &fresh {
        let (_, t) = time(|| server.insert_points(layer, batch).expect("insert"));
        append_ms.push(msf(t));
        points.extend_from_slice(batch);
    }
    let avg_append = append_ms.iter().sum::<f64>() / batches as f64;
    let max_append = append_ms.iter().cloned().fold(0.0, f64::max);
    let speedup = msf(t_mono) / avg_append;
    let depth = server.segment_count(layer).expect("depth");
    let merged = obs::counter_value(Counter::IngestSegmentsMerged) - m0;
    let merge_mb = (obs::counter_value(Counter::IngestMergeBytes) - b0) as f64 / (1024.0 * 1024.0);
    assert_eq!(
        obs::counter_value(Counter::IngestSegmentsCreated) - s0,
        batches as u64,
        "one segment per batch, never a rebuild"
    );
    println!("| append path (batch = {batch_len} pts onto {n0}) | value |");
    println!("|---|---|");
    println!(
        "| monolithic rebuild (seed design, measured) | {} ms |",
        ms(t_mono)
    );
    println!("| segmented append, mean of {batches} | {avg_append:.3} ms |");
    println!("| segmented append, max (compaction batch) | {max_append:.3} ms |");
    println!("| speedup vs rebuild | {speedup:.0}x |");
    println!("| final stack depth | {depth} segments |");
    println!("| segments merged / bytes rewritten | {merged} / {merge_mb:.1} MB |");
    report::row(
        "append 1k batch",
        &[
            ("mono_rebuild_ms", msf(t_mono)),
            ("max_append_ms", max_append),
            ("speedup_x", speedup),
            ("final_depth", depth as f64),
        ],
        avg_append,
    );

    // Part 2 — read cost across the stack: the same cold zoom-3 tile
    // computed against depth-1 (fresh monolithic oracle) vs the final
    // multi-segment stack, plus bit-identity of the served result.
    let c = TileCoord::new(3, 1, 1);
    let (direct, t_direct) = time(|| compute_tile_direct(&points, &window(), kernel, 1e-9, 256, c));
    server.clear_cache();
    let (tile, t_seg) = time(|| server.get_tile(layer, c.z, c.x, c.y).expect("cold tile"));
    for (a, b) in tile.grid.values().iter().zip(direct.values()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "segmented read diverged from oracle"
        );
    }
    println!("\n| cold read, zoom-3 hotspot tile | value |");
    println!("|---|---|");
    println!(
        "| monolithic rebuild + compute (oracle) | {} ms |",
        ms(t_direct)
    );
    println!("| served from {depth}-segment stack | {} ms |", ms(t_seg));
    println!("| bit-identical | yes ({} px) |", tile.grid.values().len());
    report::row(
        "cold read depth vs mono",
        &[("oracle_ms", msf(t_direct)), ("depth", depth as f64)],
        msf(t_seg),
    );

    // Part 3 — reads during sustained ingest: 4 reader threads hammer a
    // warm far-corner viewport (outside kernel reach of the hotspot
    // batches, so never invalidated) while the writer lands 20 more
    // batches. Warm hits check the cache before any lock and the layer
    // table is an RwLock, so reader latency must not degrade behind
    // the writer — the contention note in EXPERIMENTS.md E22.
    let far: Vec<TileCoord> = (6..8)
        .flat_map(|x| (6..8).map(move |y| TileCoord::new(3, x, y)))
        .collect();
    let _ = server.get_tiles(layer, &far).expect("warm far viewport");
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let h1 = obs::counter_value(Counter::ServeCacheHits);
    let readers: Vec<_> = (0..4)
        .map(|t: usize| {
            let server = Arc::clone(&server);
            let far = far.clone();
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let c = far[i % far.len()];
                    let _ = server.get_tile(layer, c.z, c.x, c.y).expect("warm get");
                    reads.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();
    let (_, t_ingest) = time(|| {
        for b in 0..20usize {
            let batch = data::gaussian_mixture(
                batch_len,
                &[Hotspot {
                    center: Point::new(2_500.0, 2_000.0),
                    sigma: 300.0,
                    weight: 1.0,
                }],
                window(),
                2_000 + b as u64,
            );
            server
                .insert_points(layer, &batch)
                .expect("insert under read");
        }
    });
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }
    let warm_reads = reads.load(Ordering::Relaxed);
    let warm_hits = obs::counter_value(Counter::ServeCacheHits) - h1;
    let reads_per_s = warm_reads as f64 / t_ingest.as_secs_f64();
    println!("\n| reads during sustained ingest (20 batches) | value |");
    println!("|---|---|");
    println!("| warm reads completed | {warm_reads} ({warm_hits} cache hits) |");
    println!("| read throughput under writer | {reads_per_s:.0} tiles/s |");
    println!("| ingest wall time | {} ms |", ms(t_ingest));
    assert!(
        warm_hits >= warm_reads,
        "far viewport must never be invalidated by hotspot batches"
    );
    report::row(
        "reads under ingest",
        &[
            ("reads_per_s", reads_per_s),
            ("warm_reads", warm_reads as f64),
        ],
        msf(t_ingest),
    );
}

// ---------------------------------------------------------------- E23 ---
fn e23() {
    use lsga::core::par::Threads;
    use lsga::serve::{
        compute_tile_direct, ApproxMode, QualityPolicy, TileCoord, TileServer, TileServerConfig,
        TileTier,
    };
    use lsga_bench::load::{run_load, LoadConfig};

    let n = 100_000;
    let points = crime(n);
    let kernel = KernelKind::Quartic.with_bandwidth(250.0);
    let (eps, delta) = (0.1, 0.01);
    let tile_px = 128u32;
    // ~45 tiles of 128² f64 fit the budget, out of a 341-tile pyramid:
    // the Zipf head stays resident, the tail thrashes, so cold exact
    // computes keep arriving for the whole run instead of only during a
    // fill phase.
    let cfg = || TileServerConfig {
        tile_px: tile_px as usize,
        max_zoom: 4,
        shards: 8,
        byte_budget: 6 << 20,
        threads: Threads::exact(hw_threads()),
        ..TileServerConfig::default()
    };
    let zipf_s = 1.1;
    let workers = 32;
    let seed = 4242;

    // Calibration on a throwaway server: one cold exact tile for the
    // deadline, then a closed-loop run for the sustainable exact-path
    // throughput under this exact trace (cache hits, misses, eviction
    // churn included). 2.5× that rate is the overload point.
    let calib = TileServer::new(cfg());
    let layer = calib
        .add_layer(points.clone(), window(), kernel, 1e-9)
        .expect("calibration layer");
    let (_, t_tile) = time(|| calib.get_tile(layer, 4, 7, 7).expect("cold tile"));
    let closed = LoadConfig {
        workers,
        rate_rps: None,
        warmup: 200,
        requests: 600,
        zipf_s,
        seed,
    };
    let cap = run_load(&calib, layer, &closed, None);
    drop(calib);
    let overload_rps = cap.achieved_rps * 2.5;
    println!("| calibration | value |");
    println!("|---|---|");
    println!(
        "| points / pyramid | {n} pts, zoom ≤ 4 ({} px tiles) |",
        tile_px
    );
    println!("| cold exact tile | {} ms |", ms(t_tile));
    println!(
        "| closed-loop capacity ({workers} workers) | {:.0} req/s |",
        cap.achieved_rps
    );
    println!("| open-loop overload rate (2.5×) | {overload_rps:.0} req/s |");
    report::row(
        "calibration",
        &[
            ("capacity_rps", cap.achieved_rps),
            ("overload_rps", overload_rps),
        ],
        msf(t_tile),
    );

    // The two head-to-head runs replay the *same* seeded trace at the
    // same overload rate against fresh servers; only the policy differs.
    let open = LoadConfig {
        workers,
        rate_rps: Some(overload_rps),
        warmup: 300,
        requests: 2_000,
        zipf_s,
        seed,
    };

    let exact_srv = TileServer::new(cfg());
    let layer_a = exact_srv
        .add_layer(points.clone(), window(), kernel, 1e-9)
        .expect("exact-run layer");
    let exact_rep = run_load(&exact_srv, layer_a, &open, None);
    drop(exact_srv);

    let deadline = t_tile.mul_f64(2.0);
    let policy = QualityPolicy::new(
        deadline,
        ApproxMode::Sampling {
            eps,
            delta,
            seed: 7,
        },
    )
    .expect("tier policy");
    let tiered_srv = TileServer::new(cfg());
    let layer_b = tiered_srv
        .add_layer(points.clone(), window(), kernel, 1e-9)
        .expect("tiered-run layer");
    // Seed the admission EWMA so the controller is armed from the first
    // measured request instead of only after its first exact compute.
    tiered_srv.set_compute_estimate(t_tile);
    let tiered_rep = run_load(&tiered_srv, layer_b, &open, Some(&policy));

    println!(
        "\n| open loop @ {overload_rps:.0} req/s, {} reqs | p50 | p99 | p999 | max | degraded |",
        open.requests
    );
    println!("|---|---|---|---|---|---|");
    println!(
        "| exact only | {:.1} ms | {:.1} ms | {:.1} ms | {:.1} ms | 0% |",
        exact_rep.p50_ms, exact_rep.p99_ms, exact_rep.p999_ms, exact_rep.max_ms
    );
    println!(
        "| tiered (deadline {:.1} ms, ε = {eps}) | {:.1} ms | {:.1} ms | {:.1} ms | {:.1} ms | {:.1}% |",
        deadline.as_secs_f64() * 1e3,
        tiered_rep.p50_ms,
        tiered_rep.p99_ms,
        tiered_rep.p999_ms,
        tiered_rep.max_ms,
        tiered_rep.degraded_frac * 100.0
    );
    println!(
        "| p999 ratio (tiered / exact) | {:.3} |  |  |  |  |",
        tiered_rep.p999_ms / exact_rep.p999_ms
    );
    report::row(
        "exact only",
        &[
            ("p50_ms", exact_rep.p50_ms),
            ("p99_ms", exact_rep.p99_ms),
            ("p999_ms", exact_rep.p999_ms),
            ("degraded_frac", 0.0),
            ("achieved_rps", exact_rep.achieved_rps),
        ],
        exact_rep.p999_ms,
    );
    report::row(
        "tiered",
        &[
            ("p50_ms", tiered_rep.p50_ms),
            ("p99_ms", tiered_rep.p99_ms),
            ("p999_ms", tiered_rep.p999_ms),
            ("degraded_frac", tiered_rep.degraded_frac),
            ("achieved_rps", tiered_rep.achieved_rps),
        ],
        tiered_rep.p999_ms,
    );
    assert!(
        tiered_rep.degraded > 0,
        "overload must push some requests onto the degraded tier"
    );
    assert!(
        tiered_rep.p999_ms <= 0.5 * exact_rep.p999_ms,
        "tiered p999 {:.1} ms must be ≤ 0.5× exact-only p999 {:.1} ms",
        tiered_rep.p999_ms,
        exact_rep.p999_ms
    );

    // Guarantee audit on a fresh server: force every miss onto the
    // degraded tier, check each degraded raster against the exact
    // oracle within the Hoeffding bound ε·n·K(0), then drain the
    // refinement queue and require the cache to hold bit-identical
    // exact tiles.
    let verif = TileServer::new(cfg());
    let layer_v = verif
        .add_layer(points.clone(), window(), kernel, 1e-9)
        .expect("verification layer");
    verif.set_compute_estimate(Duration::from_secs(1));
    let force = QualityPolicy::new(
        Duration::ZERO,
        ApproxMode::Sampling {
            eps,
            delta,
            seed: 7,
        },
    )
    .expect("forced-degrade policy");
    let probes = [
        TileCoord::new(0, 0, 0),
        TileCoord::new(2, 1, 1),
        TileCoord::new(4, 8, 7),
    ];
    let bound = eps * n as f64 * kernel.max_value();
    let mut max_linf = 0.0f64;
    for c in probes {
        let tile = verif
            .get_tile_with_policy(layer_v, c.z, c.x, c.y, &force)
            .expect("degraded probe");
        assert!(
            !tile.tier.is_exact(),
            "forced degrade must stamp a degraded tier"
        );
        let oracle = compute_tile_direct(&points, &window(), kernel, 1e-9, tile_px as usize, c);
        let linf = tile
            .grid
            .values()
            .iter()
            .zip(oracle.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        // 2× slack absorbs the δ = 1% failure probability; a broken
        // estimator overshoots by orders of magnitude, not 2×.
        assert!(
            linf <= 2.0 * bound,
            "degraded tile {c:?} L∞ {linf:.3} exceeds Hoeffding bound {bound:.3}"
        );
        max_linf = max_linf.max(linf);
    }
    verif.set_compute_estimate(Duration::ZERO);
    verif.drain_refinements();
    for c in probes {
        assert!(
            matches!(
                verif.cached_tier(layer_v, c.z, c.x, c.y),
                Some(TileTier::Exact)
            ),
            "refinement must upgrade {c:?} to the exact tier"
        );
        let tile = verif
            .get_tile(layer_v, c.z, c.x, c.y)
            .expect("refined tile");
        let oracle = compute_tile_direct(&points, &window(), kernel, 1e-9, tile_px as usize, c);
        for (a, b) in tile.grid.values().iter().zip(oracle.values()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "refined tile diverged from oracle"
            );
        }
    }
    println!(
        "\n| guarantee audit ({} probe tiles) | value |",
        probes.len()
    );
    println!("|---|---|");
    println!("| Hoeffding bound ε·n·K(0) | {bound:.3} |");
    println!("| worst degraded L∞ vs oracle | {max_linf:.3} |");
    println!("| post-refinement tiles | bit-identical to direct compute |");
    report::row(
        "guarantee audit",
        &[("bound", bound), ("max_linf", max_linf)],
        0.0,
    );
}

// ---------------------------------------------------------------- E24 ---
fn e24() {
    use lsga::core::par::Threads;
    use lsga::http::{client, HttpServer, HttpServerConfig};
    use lsga::serve::{compute_tile_direct, TileCoord, TileServer, TileServerConfig};
    use lsga_bench::load::{run_load_http, LoadConfig};
    use std::sync::Arc;

    let n = 50_000;
    let points = crime(n);
    let kernel = KernelKind::Quartic.with_bandwidth(250.0);
    let eps = 0.1;
    let tile_px = 64usize;
    // Same shape as E23 but sized down one notch: every request now
    // pays a TCP connect + parse + encode round trip, so the pyramid
    // uses 64 px tiles and the byte budget keeps only the Zipf head
    // resident (~32 of 341 tiles) to preserve a steady cold-compute mix.
    let cfg = || TileServerConfig {
        tile_px,
        max_zoom: 4,
        shards: 8,
        byte_budget: 1 << 20,
        threads: Threads::exact(hw_threads()),
        ..TileServerConfig::default()
    };
    let http_cfg = || HttpServerConfig {
        workers: 4,
        queue_cap: 64,
        ..HttpServerConfig::default()
    };
    let timeout = Duration::from_secs(30);
    let zipf_s = 1.1;
    let gen_workers = 16;
    let seed = 2424;

    // Calibration through the full stack: one cold served tile for the
    // deadline, then closed-loop capacity over sockets. 2.5× that is
    // the overload point, identical in spirit to E23's but measured
    // with the wire in the loop.
    let calib_tiles = Arc::new(TileServer::new(cfg()));
    let layer = calib_tiles
        .add_layer(points.clone(), window(), kernel, 1e-9)
        .expect("calibration layer");
    let calib = HttpServer::start(Arc::clone(&calib_tiles), http_cfg()).expect("calibration bind");
    let t0 = Instant::now();
    let cold =
        client::get(calib.local_addr(), "/tiles/0/4/7/7", &[], timeout).expect("cold served tile");
    let t_tile = t0.elapsed();
    assert_eq!(cold.status, 200, "calibration GET failed");
    let closed = LoadConfig {
        workers: gen_workers,
        rate_rps: None,
        warmup: 150,
        requests: 450,
        zipf_s,
        seed,
    };
    let cap = run_load_http(calib.local_addr(), layer, 4, &closed, None);
    calib.shutdown();
    let overload_rps = cap.achieved_rps * 2.5;
    println!("| calibration (served) | value |");
    println!("|---|---|");
    println!("| points / pyramid | {n} pts, zoom ≤ 4 ({tile_px} px tiles) |");
    println!(
        "| cold served tile (connect + compute + wire) | {} ms |",
        ms(t_tile)
    );
    println!(
        "| closed-loop capacity ({gen_workers} client workers) | {:.0} req/s |",
        cap.achieved_rps
    );
    println!("| open-loop overload rate (2.5×) | {overload_rps:.0} req/s |");
    report::row(
        "calibration",
        &[
            ("capacity_rps", cap.achieved_rps),
            ("overload_rps", overload_rps),
        ],
        msf(t_tile),
    );

    // Head to head over sockets: identical seeded trace, fresh server
    // each run, only the query string differs.
    let open = LoadConfig {
        workers: gen_workers,
        rate_rps: Some(overload_rps),
        warmup: 200,
        requests: 1_200,
        zipf_s,
        seed,
    };

    let exact_tiles = Arc::new(TileServer::new(cfg()));
    let layer_a = exact_tiles
        .add_layer(points.clone(), window(), kernel, 1e-9)
        .expect("exact-run layer");
    let exact_http = HttpServer::start(exact_tiles, http_cfg()).expect("exact bind");
    let exact_rep = run_load_http(exact_http.local_addr(), layer_a, 4, &open, None);
    exact_http.shutdown();

    let deadline_ms = ((t_tile.as_secs_f64() * 2e3).ceil() as u64).max(1);
    let tier_query = format!("deadline_ms={deadline_ms}&eps={eps}&delta=0.01&seed=7");
    let tiered_tiles = Arc::new(TileServer::new(cfg()));
    let layer_b = tiered_tiles
        .add_layer(points.clone(), window(), kernel, 1e-9)
        .expect("tiered-run layer");
    // Arm the admission EWMA before the first request, as in E23.
    tiered_tiles.set_compute_estimate(t_tile);
    let tiered_http =
        HttpServer::start(Arc::clone(&tiered_tiles), http_cfg()).expect("tiered bind");
    let tiered_rep = run_load_http(
        tiered_http.local_addr(),
        layer_b,
        4,
        &open,
        Some(&tier_query),
    );

    println!(
        "\n| served open loop @ {overload_rps:.0} req/s, {} reqs | p50 | p99 | p999 | max | degraded | rejected |",
        open.requests
    );
    println!("|---|---|---|---|---|---|---|");
    println!(
        "| exact only | {:.1} ms | {:.1} ms | {:.1} ms | {:.1} ms | 0% | {:.1}% |",
        exact_rep.p50_ms,
        exact_rep.p99_ms,
        exact_rep.p999_ms,
        exact_rep.max_ms,
        exact_rep.rejected_frac * 100.0
    );
    println!(
        "| tiered (?deadline_ms={deadline_ms}, ε = {eps}) | {:.1} ms | {:.1} ms | {:.1} ms | {:.1} ms | {:.1}% | {:.1}% |",
        tiered_rep.p50_ms,
        tiered_rep.p99_ms,
        tiered_rep.p999_ms,
        tiered_rep.max_ms,
        tiered_rep.degraded_frac * 100.0,
        tiered_rep.rejected_frac * 100.0
    );
    println!(
        "| p999 ratio (tiered / exact) | {:.3} |  |  |  |  |  |",
        tiered_rep.p999_ms / exact_rep.p999_ms
    );
    report::row(
        "exact only",
        &[
            ("p50_ms", exact_rep.p50_ms),
            ("p99_ms", exact_rep.p99_ms),
            ("p999_ms", exact_rep.p999_ms),
            ("degraded_frac", 0.0),
            ("rejected_frac", exact_rep.rejected_frac),
            ("achieved_rps", exact_rep.achieved_rps),
        ],
        exact_rep.p999_ms,
    );
    report::row(
        "tiered",
        &[
            ("p50_ms", tiered_rep.p50_ms),
            ("p99_ms", tiered_rep.p99_ms),
            ("p999_ms", tiered_rep.p999_ms),
            ("degraded_frac", tiered_rep.degraded_frac),
            ("rejected_frac", tiered_rep.rejected_frac),
            ("achieved_rps", tiered_rep.achieved_rps),
        ],
        tiered_rep.p999_ms,
    );
    assert!(
        tiered_rep.degraded > 0,
        "served overload must push some requests onto the degraded tier"
    );
    // The wire adds the same constant cost to both runs, which
    // compresses the ratio relative to E23's in-process 0.5 floor.
    assert!(
        tiered_rep.p999_ms <= 0.6 * exact_rep.p999_ms,
        "served tiered p999 {:.1} ms must be ≤ 0.6× exact-only p999 {:.1} ms",
        tiered_rep.p999_ms,
        exact_rep.p999_ms
    );

    // Wire audit on the still-running tiered server, estimate cleared
    // so the exact path serves: the f64 payload must be bit-identical
    // to the direct computation, and the u8 payload within half a
    // quantization step.
    tiered_tiles.set_compute_estimate(Duration::ZERO);
    tiered_tiles.clear_cache();
    let probes = [
        TileCoord::new(0, 0, 0),
        TileCoord::new(2, 1, 1),
        TileCoord::new(4, 8, 7),
    ];
    let addr = tiered_http.local_addr();
    let mut bits_checked = 0usize;
    let mut u8_max_err_steps = 0.0f64;
    for c in probes {
        let oracle = compute_tile_direct(&points, &window(), kernel, 1e-9, tile_px, c);
        let f64_resp = client::get(
            addr,
            &format!("/tiles/{layer_b}/{}/{}/{}", c.z, c.x, c.y),
            &[],
            timeout,
        )
        .expect("f64 probe");
        assert_eq!(f64_resp.status, 200);
        let served = f64_resp.decode_f64();
        assert_eq!(served.len(), oracle.values().len());
        for (a, b) in served.iter().zip(oracle.values()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "served f64 tile {c:?} diverged from direct compute"
            );
        }
        bits_checked += served.len();

        let u8_resp = client::get(
            addr,
            &format!("/tiles/{layer_b}/{}/{}/{}?fmt=u8", c.z, c.x, c.y),
            &[],
            timeout,
        )
        .expect("u8 probe");
        assert_eq!(u8_resp.status, 200);
        let dec = u8_resp.decode_u8().expect("u8 range headers");
        let min: f64 = u8_resp.header("x-lsga-min").unwrap().parse().unwrap();
        let max: f64 = u8_resp.header("x-lsga-max").unwrap().parse().unwrap();
        let step = ((max - min) / 255.0).max(f64::MIN_POSITIVE);
        for (a, b) in dec.iter().zip(oracle.values()) {
            let err_steps = (a - b).abs() / step;
            assert!(
                err_steps <= 0.5 + 1e-9,
                "u8 tile {c:?} dequantization off by {err_steps:.3} steps"
            );
            u8_max_err_steps = u8_max_err_steps.max(err_steps);
        }
    }
    tiered_http.shutdown();
    println!("\n| wire audit ({} probe tiles) | value |", probes.len());
    println!("|---|---|");
    println!("| f64 pixels bit-compared | {bits_checked} (all identical) |");
    println!(
        "| worst u8 dequantization error | {u8_max_err_steps:.3} quantization steps (bound 0.5) |"
    );
    report::row(
        "wire audit",
        &[
            ("f64_bits_checked", bits_checked as f64),
            ("u8_max_err_steps", u8_max_err_steps),
        ],
        0.0,
    );
}

// ---------------------------------------------------------------- E25 ---
/// Multi-node tile serving over the dist fault machinery: Z-order shard
/// routing, a node death mid-storm with the dead range re-homed to the
/// survivors, an exactly-audited supervised recovery, and a doomed plan
/// degrading to a coverage report. Every served tile in every leg is
/// checked bit-identical against the single-node oracle.
fn e25() {
    use lsga::core::par::Threads;
    use lsga::dist::{FaultKind, FaultPlan, RetryPolicy};
    use lsga::obs::Counter;
    use lsga::serve::{
        compute_tile_direct, home_node, ClusterConfig, ClusterServer, TileCoord, TileServerConfig,
    };

    let n = 30_000;
    let points = crime(n);
    let kernel = KernelKind::Quartic.with_bandwidth(250.0);
    let tail_eps = 1e-9;
    let tile_px = 64usize;
    let max_zoom = 3u8;
    let nodes = 4usize;
    let cfg = ClusterConfig {
        nodes,
        node: TileServerConfig {
            tile_px,
            max_zoom,
            shards: 4,
            byte_budget: 8 << 20,
            threads: Threads::exact(hw_threads()),
            ..TileServerConfig::default()
        },
    };
    let pyramid: Vec<TileCoord> = (0..=max_zoom)
        .flat_map(|z| {
            let side = 1u32 << z;
            (0..side).flat_map(move |y| (0..side).map(move |x| TileCoord::new(z, x, y)))
        })
        .collect();
    let n_tiles = pyramid.len();
    let pct = |lat: &mut Vec<f64>, q: f64| -> f64 {
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() as f64 * q).ceil() as usize).clamp(1, lat.len()) - 1;
        lat[idx]
    };

    // The oracle the whole experiment is audited against; recomputed
    // after the mid-storm append.
    let oracle_for = |pts: &[Point]| -> Vec<Vec<f64>> {
        pyramid
            .iter()
            .map(|&c| {
                compute_tile_direct(pts, &window(), kernel, tail_eps, tile_px, c)
                    .values()
                    .to_vec()
            })
            .collect()
    };
    let assert_oracle = |tile: &lsga::serve::Tile, oracle: &[f64], what: &str| {
        for (a, b) in tile.grid.values().iter().zip(oracle) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: served bits diverged");
        }
    };

    // ---- Leg 1: routed storm, fault-free vs node-death-mid-storm.
    // Identical request trace (16 passes over the pyramid with one
    // broadcast append after pass 2); run B kills a node after pass 4
    // and its whole range re-homes to the survivors.
    let passes = 16usize;
    let kill_after_pass = 4usize;
    let append = crime(2_000)
        .iter()
        .map(|p| Point::new(p.x * 0.5 + 1_000.0, p.y * 0.5 + 800.0))
        .collect::<Vec<_>>();
    let run_storm = |kill: Option<usize>| -> (Vec<f64>, Vec<f64>, ClusterServer) {
        let cluster = ClusterServer::new(cfg).expect("cluster");
        let layer = cluster
            .add_layer(points.clone(), window(), kernel, tail_eps)
            .expect("layer");
        let mut oracle = oracle_for(&points);
        let mut mirror = points.clone();
        let victim = kill.unwrap_or(usize::MAX);
        let mut all_ms = Vec::with_capacity(passes * n_tiles);
        let mut rehomed_ms = Vec::new();
        for pass in 0..passes {
            if pass == 3 {
                cluster.insert_points(layer, &append).expect("broadcast");
                mirror.extend_from_slice(&append);
                oracle = oracle_for(&mirror);
            }
            if kill == Some(victim) && pass == kill_after_pass && cluster.is_alive(victim) {
                cluster.kill_node(victim);
            }
            for (t, &c) in pyramid.iter().enumerate() {
                let t0 = Instant::now();
                let tile = cluster
                    .get_tile(layer, c.z, c.x, c.y)
                    .expect("routed serve");
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                all_ms.push(dt);
                if pass >= kill_after_pass && kill.is_some() && home_node(c, nodes) == victim {
                    rehomed_ms.push(dt);
                }
                assert_oracle(&tile, &oracle[t], "storm");
            }
        }
        (all_ms, rehomed_ms, cluster)
    };

    let routed_before = lsga::obs::counter_value(Counter::ClusterRoutedRequests);
    let (mut ff_all, _, _) = run_storm(None);
    let victim = 2usize;
    let (mut nd_all, mut nd_rehomed, survivors) = run_storm(Some(victim));
    let routed_delta = lsga::obs::counter_value(Counter::ClusterRoutedRequests) - routed_before;
    assert_eq!(
        routed_delta,
        (2 * passes * n_tiles) as u64,
        "routed_requests must count every storm request"
    );
    assert_eq!(survivors.alive_nodes().len(), nodes - 1);

    let ff = (
        pct(&mut ff_all, 0.50),
        pct(&mut ff_all, 0.99),
        pct(&mut ff_all, 0.999),
    );
    let nd = (
        pct(&mut nd_all, 0.50),
        pct(&mut nd_all, 0.99),
        pct(&mut nd_all, 0.999),
    );
    let re = (
        pct(&mut nd_rehomed, 0.50),
        pct(&mut nd_rehomed, 0.99),
        pct(&mut nd_rehomed, 0.999),
    );
    println!(
        "| routed storm ({passes} passes × {n_tiles} tiles, {nodes} nodes) | p50 | p99 | p999 |"
    );
    println!("|---|---|---|---|");
    println!(
        "| fault-free | {:.3} ms | {:.3} ms | {:.3} ms |",
        ff.0, ff.1, ff.2
    );
    println!(
        "| node {victim} killed after pass {kill_after_pass} | {:.3} ms | {:.3} ms | {:.3} ms |",
        nd.0, nd.1, nd.2
    );
    println!(
        "| re-homed range only (post-death) | {:.3} ms | {:.3} ms | {:.3} ms |",
        re.0, re.1, re.2
    );
    println!(
        "| re-homed p999 / fault-free p999 | {:.2}× |  |  |",
        re.2 / ff.2.max(1e-9)
    );
    report::row(
        "faultfree storm",
        &[("p50_ms", ff.0), ("p99_ms", ff.1), ("p999_ms", ff.2)],
        ff.2,
    );
    report::row(
        "node death storm",
        &[
            ("p50_ms", nd.0),
            ("p99_ms", nd.1),
            ("p999_ms", nd.2),
            ("rehomed_p50_ms", re.0),
            ("rehomed_p999_ms", re.2),
            ("rehomed_vs_faultfree_p999", re.2 / ff.2.max(1e-9)),
        ],
        nd.2,
    );

    // ---- Leg 2: supervised recovery with an exact re-home audit. A
    // directed crash plus recoverable noise; the obs counters must
    // equal the schedule's own sums, and coverage must be complete.
    let cluster = ClusterServer::new(cfg).expect("audit cluster");
    let layer = cluster
        .add_layer(points.clone(), window(), kernel, tail_eps)
        .expect("audit layer");
    let oracle = oracle_for(&points);
    let policy = RetryPolicy::default();
    let mut plan = FaultPlan::seeded_recoverable(2525, n_tiles, 6);
    let crash_tile = 7usize;
    let crash_home = home_node(pyramid[crash_tile], nodes);
    plan.push(crash_tile, 0, FaultKind::CrashBeforeTask);
    let before = (
        lsga::obs::counter_value(Counter::ClusterTilesRehomed),
        lsga::obs::counter_value(Counter::ClusterReshippedBytes),
        lsga::obs::counter_value(Counter::ClusterNodeDeaths),
    );
    let t0 = Instant::now();
    let out = cluster
        .get_tiles_supervised(layer, &pyramid, &plan, &policy)
        .expect("supervised");
    let t_sup = t0.elapsed();
    let rehomed: u64 = out
        .schedule
        .tiles
        .iter()
        .filter(|o| o.executed() && o.final_worker != Some(o.initial_worker))
        .count() as u64;
    let reshipped: u64 = out.schedule.tiles.iter().map(|o| o.reshipped_bytes).sum();
    let after = (
        lsga::obs::counter_value(Counter::ClusterTilesRehomed),
        lsga::obs::counter_value(Counter::ClusterReshippedBytes),
        lsga::obs::counter_value(Counter::ClusterNodeDeaths),
    );
    assert_eq!(after.0 - before.0, rehomed, "tiles_rehomed audit");
    assert_eq!(after.1 - before.1, reshipped, "reshipped_bytes audit");
    assert_eq!(after.2 - before.2, 1, "exactly the directed crash dies");
    assert_eq!(out.schedule.dead_workers, vec![crash_home]);
    assert!(out.report.is_complete(), "recoverable plan must cover all");
    assert!(rehomed >= 1 && reshipped > 0);
    let mut bits = 0usize;
    for (t, tile) in out.tiles.iter().enumerate() {
        let tile = tile.as_ref().expect("covered");
        assert_oracle(tile, &oracle[t], "supervised");
        bits += tile.grid.values().len();
    }
    println!("\n| supervised recovery (directed crash + 6 recoverable faults) | value |");
    println!("|---|---|");
    println!(
        "| schedule | {} tiles, node {crash_home} dead, {} sim ticks |",
        n_tiles, out.schedule.sim_ticks
    );
    println!("| tiles re-homed / halo bytes re-shipped | {rehomed} / {reshipped} B |");
    println!("| served pixels bit-checked vs oracle | {bits} |");
    println!("| wall time | {} ms |", ms(t_sup));
    report::row(
        "supervised audit",
        &[
            ("tiles_rehomed", rehomed as f64),
            ("reshipped_bytes", reshipped as f64),
            ("node_deaths", 1.0),
            ("pixels_bit_checked", bits as f64),
            ("coverage_fraction", out.report.fraction()),
        ],
        msf(t_sup),
    );

    // ---- Leg 3: a doomed plan degrades to an exact coverage report.
    let doomed_tiles = [3usize, 11];
    let mut doom = FaultPlan::seeded_recoverable(77, n_tiles, 4);
    for &t in &doomed_tiles {
        for attempt in 0..policy.max_attempts {
            doom.push(t, attempt, FaultKind::TaskError);
        }
    }
    let out = cluster
        .get_tiles_supervised(layer, &pyramid, &doom, &policy)
        .expect("doomed plan still returns");
    assert_eq!(out.report.abandoned, doomed_tiles.to_vec());
    assert!(!out.report.is_complete());
    assert!(out.report.fraction() < 1.0);
    for (t, tile) in out.tiles.iter().enumerate() {
        match tile {
            Some(tile) => assert_oracle(tile, &oracle[t], "doomed-plan survivor"),
            None => assert!(doomed_tiles.contains(&t)),
        }
    }
    println!(
        "\n| doomed plan (retry budget exhausted on {} tiles) | value |",
        doomed_tiles.len()
    );
    println!("|---|---|");
    println!(
        "| coverage | {:.4} ({} of {n_tiles} tiles) |",
        out.report.fraction(),
        out.report.executed_tiles
    );
    println!("| abandoned tile indices | {:?} |", out.report.abandoned);
    report::row(
        "doomed degradation",
        &[
            ("coverage_fraction", out.report.fraction()),
            ("abandoned_tiles", out.report.abandoned.len() as f64),
            ("executed_tiles", out.report.executed_tiles as f64),
        ],
        0.0,
    );
}

// ---------------------------------------------------------------- E26 ----
fn e26() {
    use lsga::core::par::Threads;
    use lsga::obs::{self, Counter};
    use lsga::serve::{
        HotspotCompute, HotspotStat, NkdvCompute, StkdvCompute, TileCoord, TileServer,
        TileServerConfig,
    };
    use std::sync::{Arc, Barrier};

    let tile_px = 64usize;
    let max_zoom = 2u8;
    let tail_eps = 1e-9;
    let nt = 6usize;
    let new_server = || {
        Arc::new(TileServer::new(TileServerConfig {
            tile_px,
            max_zoom,
            shards: 4,
            byte_budget: 64 << 20,
            threads: Threads::exact(hw_threads()),
            ..TileServerConfig::default()
        }))
    };

    // One server, four analytics, one cache. Registration order fixes
    // the layer ids (0..=3) so the twin server below lines up.
    let kdv_pts = crime(20_000);
    // The wave generator's temporal gaussians have tails outside the
    // nominal 100-day span; the layer range is strict, so clip to it.
    let in_range = |p: &TimedPoint| (0.0..=100.0).contains(&p.t);
    let st_pts: Vec<TimedPoint> = waves(8_000).into_iter().filter(in_range).collect();
    let (net, events) = road_scenario(25, 3_000);
    let net = Arc::new(net);
    let lixels = Arc::new(Lixels::build(&net, 25.0));
    let hot_pts = taxi(15_000);
    let kdv_kernel = KernelKind::Quartic.with_bandwidth(250.0);
    let register = |s: &TileServer| -> [lsga::serve::LayerId; 4] {
        let kdv = s
            .add_layer(kdv_pts.clone(), window(), kdv_kernel, tail_eps)
            .expect("kdv layer");
        let st = s
            .add_compute_layer(Arc::new(
                StkdvCompute::new(
                    &st_pts,
                    window(),
                    KernelKind::Epanechnikov.with_bandwidth(400.0),
                    PolyKernel::new(KernelKind::Quartic, 10.0).expect("temporal kernel"),
                    0.0,
                    100.0,
                    nt,
                    tail_eps,
                )
                .expect("stkdv compute"),
            ))
            .expect("stkdv layer");
        let nk = s
            .add_compute_layer(Arc::new(
                NkdvCompute::new(
                    Arc::clone(&net),
                    Arc::clone(&lixels),
                    &events,
                    KernelKind::Quartic.with_bandwidth(500.0),
                )
                .expect("nkdv compute"),
            ))
            .expect("nkdv layer");
        let hot = s
            .add_compute_layer(Arc::new(
                HotspotCompute::new(&hot_pts, window(), 24, 600.0, HotspotStat::GiStar)
                    .expect("hotspot compute"),
            ))
            .expect("hotspot layer");
        [kdv, st, nk, hot]
    };
    let s = new_server();
    let layers = register(&s);
    let computed = [
        Counter::ServeKdvTilesComputed,
        Counter::ServeStkdvTilesComputed,
        Counter::ServeNkdvTilesComputed,
        Counter::ServeHotspotTilesComputed,
    ];
    let invalidated = [
        Counter::ServeKdvTilesInvalidated,
        Counter::ServeStkdvTilesInvalidated,
        Counter::ServeNkdvTilesInvalidated,
        Counter::ServeHotspotTilesInvalidated,
    ];
    let names = ["kdv", "stkdv", "nkdv", "hotspot"];
    // The stkdv sweep serves the middle time bin so the temporal kernel
    // does real discrimination work (bin 0 sits before the first wave).
    let probe_bin = (nt / 2) as u32;
    let serve = move |s: &TileServer, k: usize, c: TileCoord| {
        if k == 1 {
            s.get_tile_binned(layers[k], c.z, c.x, c.y, probe_bin)
        } else {
            s.get_tile(layers[k], c.z, c.x, c.y)
        }
    };

    // ---- Leg 1: cold/warm pyramid sweep per kind through the shared
    // cache. Cold pays one accounted compute per tile; warm is pure
    // cache traffic, so its per-kind computed delta must be zero.
    let pyramid: Vec<TileCoord> = (0..=max_zoom)
        .flat_map(|z| {
            let side = 1u32 << z;
            (0..side).flat_map(move |y| (0..side).map(move |x| TileCoord::new(z, x, y)))
        })
        .collect();
    let n_tiles = pyramid.len();
    println!("| kind | tiles | cold | warm | cold/tile | computed cold/warm |");
    println!("|---|---|---|---|---|---|");
    for k in 0..4 {
        let c0 = obs::counter_value(computed[k]);
        let (_, t_cold) = time(|| {
            for &c in &pyramid {
                serve(&s, k, c).expect("cold serve");
            }
        });
        let cold_computed = obs::counter_value(computed[k]) - c0;
        let (_, t_warm) = time(|| {
            for &c in &pyramid {
                serve(&s, k, c).expect("warm serve");
            }
        });
        let warm_computed = obs::counter_value(computed[k]) - c0 - cold_computed;
        assert_eq!(cold_computed, n_tiles as u64, "{}: cold sweep", names[k]);
        assert_eq!(
            warm_computed, 0,
            "{}: warm sweep must be all hits",
            names[k]
        );
        println!(
            "| {} | {n_tiles} | {} ms | {} ms | {:.2} ms | {cold_computed}/{warm_computed} |",
            names[k],
            ms(t_cold),
            ms(t_warm),
            msf(t_cold) / n_tiles as f64,
        );
        report::row(
            &format!("{} pyramid", names[k]),
            &[
                ("tiles", n_tiles as f64),
                ("cold_ms", msf(t_cold)),
                ("warm_ms", msf(t_warm)),
                ("computed", cold_computed as f64),
            ],
            msf(t_cold),
        );
    }

    // ---- Leg 2: single-flight coalescing holds per kind — 16 threads
    // storm one evicted tile of each kind; exactly one accounted
    // compute each, 15 parked waiters.
    s.clear_cache();
    println!("\n| storm kind | requests | computed | coalesced | time |");
    println!("|---|---|---|---|---|");
    for k in 0..4 {
        let c0 = obs::counter_value(computed[k]);
        let w0 = obs::counter_value(Counter::ServeCoalescedWaits);
        let barrier = Arc::new(Barrier::new(16));
        let (_, t_storm) = time(|| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let s = Arc::clone(&s);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        serve(&s, k, TileCoord::new(1, 1, 0)).expect("storm serve")
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("storm thread");
            }
        });
        let storm_computed = obs::counter_value(computed[k]) - c0;
        let coalesced = obs::counter_value(Counter::ServeCoalescedWaits) - w0;
        assert_eq!(storm_computed, 1, "{}: single-flight", names[k]);
        println!(
            "| {} | 16 | {storm_computed} | {coalesced} | {} ms |",
            names[k],
            ms(t_storm)
        );
        report::row(
            &format!("{} storm", names[k]),
            &[("requests", 16.0), ("computed", storm_computed as f64)],
            msf(t_storm),
        );
    }

    // ---- Leg 3: insert isolation — with every kind's pyramid warm,
    // each kind's append dirties only its own layer's tiles. The 4×4
    // invalidation matrix must be diagonal.
    for k in 0..4 {
        for &c in &pyramid {
            serve(&s, k, c).expect("re-warm");
        }
    }
    let kdv_batch = crime(500);
    let st_batch: Vec<TimedPoint> = waves(500).into_iter().filter(in_range).collect();
    let nk_batch: Vec<Point> = events[..200].iter().map(|e| e.point(&net)).collect();
    let hot_batch = taxi(500);
    let mut matrix = [[0u64; 4]; 4];
    let mut diag_ms = [0f64; 4];
    for k in 0..4 {
        let before: Vec<u64> = invalidated.iter().map(|&c| obs::counter_value(c)).collect();
        let (_, t_ins) = time(|| match k {
            0 => s.insert_points(layers[0], &kdv_batch).expect("kdv insert"),
            1 => s
                .insert_timed_points(layers[1], &st_batch)
                .expect("stkdv insert"),
            2 => s.insert_points(layers[2], &nk_batch).expect("nkdv insert"),
            _ => s.insert_points(layers[3], &hot_batch).expect("hot insert"),
        });
        diag_ms[k] = msf(t_ins);
        for j in 0..4 {
            matrix[k][j] = obs::counter_value(invalidated[j]) - before[j];
        }
    }
    println!(
        "\n| insert into | kdv inval | stkdv inval | nkdv inval | hotspot inval | insert time |"
    );
    println!("|---|---|---|---|---|---|");
    for k in 0..4 {
        println!(
            "| {} | {} | {} | {} | {} | {:.2} ms |",
            names[k], matrix[k][0], matrix[k][1], matrix[k][2], matrix[k][3], diag_ms[k]
        );
        let cross: u64 = (0..4).filter(|&j| j != k).map(|j| matrix[k][j]).sum();
        assert!(matrix[k][k] > 0, "{}: insert never invalidated", names[k]);
        assert_eq!(cross, 0, "{}: insert leaked into other kinds", names[k]);
        report::row(
            &format!("{} insert", names[k]),
            &[
                ("own_invalidated", matrix[k][k] as f64),
                ("cross_invalidated", cross as f64),
            ],
            diag_ms[k],
        );
    }

    // ---- Leg 4: bit-identity audit — a twin server receives the same
    // registrations and appends, then serves the probe tiles *cold*.
    // Warm-after-invalidation bits on the stormed server must equal the
    // twin's cold bits: the cache state never leaks into the pixels.
    let twin = new_server();
    let twin_layers = register(&twin);
    assert_eq!(layers, twin_layers, "registration order fixes layer ids");
    twin.insert_points(layers[0], &kdv_batch).expect("twin kdv");
    twin.insert_timed_points(layers[1], &st_batch)
        .expect("twin stkdv");
    twin.insert_points(layers[2], &nk_batch).expect("twin nkdv");
    twin.insert_points(layers[3], &hot_batch).expect("twin hot");
    let mut bits = 0usize;
    for (k, name) in names.iter().enumerate() {
        for &c in &pyramid {
            let warm = serve(&s, k, c).expect("audited serve");
            let cold = serve(&twin, k, c).expect("twin serve");
            for (a, b) in warm.grid.values().iter().zip(cold.grid.values()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}: cache state leaked into tile {c:?}"
                );
            }
            bits += warm.grid.values().len();
        }
    }
    println!("\n| bit-identity audit | value |");
    println!("|---|---|");
    println!("| pixels checked (warm-after-insert vs twin cold) | {bits} |");
    report::row(
        "bit identity audit",
        &[("pixels_checked", bits as f64)],
        0.0,
    );
}
