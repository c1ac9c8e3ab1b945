//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two JSON lines on stdout: the run's
//! metadata, then (last) the result object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics with the collector off; `--trace 1` reports the
//! per-layer metrics of a traced run.

use lsga_perfbench::layers::{self, Probe};
use lsga_perfbench::report::Report;
use lsga_perfbench::{batch, sys, tiles};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            f => return Err(format!("unknown flag {f:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <tiles-hot|tiles-mixed|analytics-batch> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = sys::nproc();
    let mut report = Report::default();
    report.meta_str("workload", &args.workload);
    report.meta_str("git_rev", &sys::git_rev());
    report.meta_num("nproc", nproc as f64);
    report.meta_num("seed", args.seed as f64);
    report.meta_num("seconds", args.seconds);
    report.meta_num("trace", f64::from(u8::from(args.trace)));

    let tile_cfg = [&tiles::HOT, &tiles::MIXED]
        .into_iter()
        .find(|c| c.name == args.workload);
    let (correct, attempted, failed, traced) = if let Some(cfg) = tile_cfg {
        let r = tiles::run(cfg, args.seed, args.seconds, args.trace, &mut report);
        (r.correct, r.attempted, r.failed, r.traced)
    } else if args.workload == "analytics-batch" {
        let r = batch::run(args.seed, args.seconds, args.trace, nproc, &mut report);
        (r.correct, r.attempted, r.failed, r.traced)
    } else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let mut correct = correct;
    if let Some(t) = traced {
        let probe = Probe::run(args.seed, nproc);
        layers::emit(&mut report, &t, &probe);
        correct &= report.metrics.iter().all(|m| m.value.is_finite());
    }
    println!("{}", report.meta_json());
    println!("{}", report.result_json(correct, attempted, failed));
}
