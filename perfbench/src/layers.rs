//! Per-layer metrics of a traced run.
//!
//! Three sources, all recorded by the benchmark around its own calls
//! into each layer's public functions:
//!
//! * the traced workload phase: client-side spans (connect, time to
//!   first byte, tile and ingest latency, generator lateness) and the
//!   `lsga_obs` counters the layers keep;
//! * the layer probe: per-call costs of each layer, measured in process
//!   on the run's own seed (`parse_head` + `route`, `tile_response`, a
//!   cached `get_tile`, `TileCompute::compute` on twin snapshots,
//!   `insert_points`, a pruned KDV and a K-function sweep with their
//!   pair counts, `GridIndex` and `Lixels` builds, one batch pass);
//! * a short HTTP exchange against the probe's server, whose client
//!   spans stand in for any span the workload itself never produces
//!   (`analytics-batch` sends no requests, `tiles-hot` no appends), so
//!   every per-layer metric is reported on every workload.

use crate::batch;
use crate::load::{self, Outcome};
use crate::report::{ObsTotals, Report};
use crate::tiles::{self, pct_ms, sorted_ns, Deployed, Inputs, TileTarget, MIXED, TILE_PX};
use crate::trace::{self, Target, TraceOp};
use crate::util::median;
use lsga::core::par::Threads;
use lsga::http::{parse_head, route, tile_response, PayloadFmt};
use lsga::index::GridIndex;
use lsga::kdv::grid_pruned_kdv;
use lsga::kfunc::{histogram_k_all_threads, KConfig};
use lsga::network::Lixels;
use lsga::obs::{self, Counter};
use lsga::serve::{
    tile_grid_spec, HotspotCompute, HotspotStat, KdvCompute, NkdvCompute, StkdvCompute,
    TileCompute, TileCoord,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side span summaries (ms) of one replayed trace; zero where
/// the trace had no samples.
#[derive(Clone, Copy, Default, Debug)]
pub struct ClientSpans {
    pub connect_p50: f64,
    pub connect_p99: f64,
    pub ttfb_p50: f64,
    pub ttfb_p99: f64,
    pub tile_p50: f64,
    pub tile_p99: f64,
    pub ingest_p50: f64,
    pub ingest_p90: f64,
    pub gen_late_p99: f64,
    pub overhead_p50: f64,
}

impl ClientSpans {
    /// Summarize the client-side spans of one replayed trace.
    #[must_use]
    pub fn of(ops: &[TraceOp], outcomes: &[Outcome], overhead_p50: f64) -> ClientSpans {
        let reads = |i: usize, o: &Outcome| matches!(ops[i].target, Target::Read(_)) && o.ok();
        let appends =
            |i: usize, o: &Outcome| matches!(ops[i].target, Target::Append { .. }) && o.ok();
        let connect = sorted_ns(outcomes, |_, o| o.sent, |o| o.connect_ns);
        let ttfb = sorted_ns(outcomes, |_, o| o.ok(), |o| o.ttfb_ns);
        let tile = sorted_ns(outcomes, reads, |o| o.latency_ns);
        let ingest = sorted_ns(outcomes, appends, |o| o.latency_ns);
        let late = sorted_ns(outcomes, |_, _| true, |o| o.late_ns);
        ClientSpans {
            connect_p50: pct_ms(&connect, 0.5),
            connect_p99: pct_ms(&connect, 0.99),
            ttfb_p50: pct_ms(&ttfb, 0.5),
            ttfb_p99: pct_ms(&ttfb, 0.99),
            tile_p50: pct_ms(&tile, 0.5),
            tile_p99: pct_ms(&tile, 0.99),
            ingest_p50: pct_ms(&ingest, 0.5),
            ingest_p90: pct_ms(&ingest, 0.9),
            gen_late_p99: pct_ms(&late, 0.99),
            overhead_p50,
        }
    }
}

/// Results of one run of any workload.
pub struct RunOut {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The traced half's measurements (traced runs only).
    pub traced: Option<Traced>,
}

/// What a workload's traced phase measured.
pub struct Traced {
    /// Client spans (all zero for a workload without HTTP).
    pub spans: ClientSpans,
    pub totals: ObsTotals,
    pub cpu_util: f64,
    pub invol: u64,
    /// `(traced p50 − untraced p50) / untraced p50` of the operation
    /// latency.
    pub overhead_frac: f64,
    /// Per-tool batch call medians (ms), when the workload ran them.
    pub tool_ms: Option<[f64; 6]>,
}

/// Per-call layer costs from the probe.
pub struct Probe {
    spans: ClientSpans,
    parse_us: f64,
    encode_f64_us: f64,
    encode_u8_us: f64,
    hit_us: f64,
    compute_ms: [f64; 4],
    insert_us: f64,
    kdv_ns_per_pair: f64,
    kfunc_ns_per_pair: f64,
    index_build_ms: f64,
    lixel_build_ms: f64,
    tool_ms: [f64; 6],
}

/// Median per-call time (µs) of `f` over 7 rounds of `reps` calls.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    median(&rounds).expect("seven rounds")
}

/// Median wall time (ms) of `f` over `reps` calls.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v).expect("at least one call")
}

/// Nanoseconds per counted pair of one call, with the collector on
/// only for that call; median over three calls.
fn ns_per_pair<T>(counter: Counter, mut f: impl FnMut() -> T) -> f64 {
    let v: Vec<f64> = (0..3)
        .map(|_| {
            obs::reset();
            obs::enable();
            let t = Instant::now();
            std::hint::black_box(f());
            let ns = t.elapsed().as_secs_f64() * 1e9;
            obs::disable();
            let pairs = obs::counter_value(counter);
            obs::reset();
            ns / pairs.max(1) as f64
        })
        .collect();
    median(&v).expect("three calls")
}

/// The exact head bytes the server hands `parse_head` (everything
/// before the newline that precedes the empty line).
fn head_of(request: &[u8]) -> &[u8] {
    let end = request
        .windows(3)
        .position(|w| w == b"\n\r\n")
        .unwrap_or(request.len());
    &request[..end]
}

/// Twin snapshots of the probe deployment's four layers, built from
/// the same inputs through the public constructors.
fn twins(inputs: &Inputs, lixels: &Arc<Lixels>) -> [Box<dyn TileCompute>; 4] {
    [
        Box::new(
            KdvCompute::new(
                &inputs.kdv,
                tiles::window(),
                tiles::kdv_kernel(),
                tiles::TAIL_EPS,
            )
            .expect("kdv twin"),
        ),
        Box::new(
            StkdvCompute::new(
                &inputs.st,
                tiles::window(),
                tiles::st_spatial(),
                tiles::st_temporal(),
                0.0,
                tiles::T_MAX,
                tiles::ST_BINS,
                tiles::TAIL_EPS,
            )
            .expect("stkdv twin"),
        ),
        Box::new(
            NkdvCompute::new(
                Arc::clone(&inputs.net),
                Arc::clone(lixels),
                &inputs.events,
                tiles::nkdv_kernel(),
            )
            .expect("nkdv twin"),
        ),
        Box::new(
            HotspotCompute::new(
                &inputs.hot,
                tiles::window(),
                tiles::HOT_CELLS,
                tiles::HOT_BAND,
                HotspotStat::GiStar,
            )
            .expect("hotspot twin"),
        ),
    ]
}

/// A short open-loop HTTP exchange (reads and appends) against the
/// probe deployment.
fn exchange(d: &Deployed, universe: &[TileTarget], seed: u64, nproc: usize) -> ClientSpans {
    let mut spec = tiles::trace_spec(&MIXED, universe.len(), nproc);
    spec.rate_rps = 100.0;
    spec.threads = 1;
    spec.append_share = 0.2;
    let ops: Vec<TraceOp> = trace::generate(&spec, seed ^ 0x70_726f, 0.8);
    let planned = tiles::plan(&MIXED, &ops, universe, 0);
    let outcomes = load::run(d.http.local_addr(), &planned, 1, Duration::from_secs(3));
    let overhead = tiles::replay_overhead(&d.tiles, &ops, &outcomes, universe);
    ClientSpans::of(&ops, &outcomes, overhead)
}

impl Probe {
    /// Measure every layer's per-call costs on the run's seed.
    #[must_use]
    pub fn run(seed: u64, nproc: usize) -> Probe {
        let inputs = Inputs::generate(tiles::FULL, seed);
        let d = tiles::deploy(&MIXED, &inputs, nproc);
        let universe = tiles::universe(&d.layers);
        let spans = exchange(&d, &universe, seed, nproc);

        // http: parse + route of a real tile request; encode of a tile.
        let target = universe[universe.len() / 3];
        let request = format!(
            "GET {} HTTP/1.1\r\nHost: lsga\r\nConnection: close\r\n\r\n",
            tiles::tile_path(&target, false)
        );
        let head = head_of(request.as_bytes()).to_vec();
        let parse_us = per_call_us(2_000, || {
            let req = parse_head(std::hint::black_box(&head)).expect("probe request parses");
            std::hint::black_box(route(&req).expect("probe request routes"));
        });
        let (layer, c) = (d.layers[0].0, TileCoord::new(2, 1, 1));
        let tile = d.tiles.get_tile(layer, c.z, c.x, c.y).expect("probe tile");
        let encode_f64_us = per_call_us(200, || {
            std::hint::black_box(tile_response(&tile, PayloadFmt::F64).encode(false));
        });
        let encode_u8_us = per_call_us(200, || {
            std::hint::black_box(tile_response(&tile, PayloadFmt::U8).encode(false));
        });

        // serve: cached lookups, twin-snapshot computes, appends.
        let hit_us = per_call_us(1_000, || {
            std::hint::black_box(d.tiles.get_tile(layer, c.z, c.x, c.y).expect("cached tile"));
        });
        let lixels = d.lixels.clone().expect("mixed deployments have lixels");
        let twins = twins(&inputs, &lixels);
        let compute_ms: [f64; 4] = std::array::from_fn(|k| {
            let twin = &twins[k];
            let coords = [(2, 1, 1), (2, 2, 1), (3, 3, 2), (1, 0, 1), (3, 4, 4)];
            let mut i = 0;
            median_ms(coords.len(), || {
                let (z, x, y) = coords[i];
                i += 1;
                let spec = tile_grid_spec(&twin.window(), TILE_PX, TileCoord::new(z, x, y));
                twin.compute(spec, twin.time_bins() / 2)
            })
        });
        let mut rng = crate::util::Rng::derive(seed, 0x0069_6e73);
        let batches: Vec<_> = (0..12)
            .map(|_| trace::clustered_points(&mut rng, tiles::APPEND_BATCH, tiles::window()))
            .collect();
        let mut i = 0;
        let insert_ms = median_ms(batches.len(), || {
            let layer = [0, 2, 3][i % 3];
            d.tiles
                .insert_points(layer, &batches[i])
                .expect("probe append");
            i += 1;
        });
        d.http.shutdown();

        // kernels, indexes and the batch tools.
        let kspec = tile_grid_spec(&tiles::window(), 128, TileCoord::new(1, 0, 0));
        let kdv_ns_per_pair = ns_per_pair(Counter::KdvPairs, || {
            grid_pruned_kdv(&inputs.kdv, kspec, tiles::kdv_kernel(), tiles::TAIL_EPS)
        });
        let kpts = &inputs.kdv[..3_000];
        let th: Vec<f64> = (1..=8).map(|i| f64::from(i) * 120.0).collect();
        let kfunc_ns_per_pair = ns_per_pair(Counter::KfuncPairs, || {
            histogram_k_all_threads(kpts, &th, KConfig::default(), Threads::exact(1))
        });
        let radius = lsga::core::Kernel::effective_radius(&tiles::kdv_kernel(), tiles::TAIL_EPS);
        let index_build_ms = median_ms(5, || {
            GridIndex::with_bbox(&inputs.kdv, radius, tiles::window())
        });
        let lixel_build_ms = median_ms(5, || Lixels::build(&inputs.net, 25.0));
        let binp = batch::BatchInputs::generate(batch::SIZES, seed);
        let prep = batch::prepare(&binp);
        let (_, times) = batch::pass(&binp, &prep, Threads::exact(nproc));

        Probe {
            spans,
            parse_us,
            encode_f64_us,
            encode_u8_us,
            hit_us,
            compute_ms,
            insert_us: insert_ms * 1e3,
            kdv_ns_per_pair,
            kfunc_ns_per_pair,
            index_build_ms,
            lixel_build_ms,
            tool_ms: times.map(|s| s * 1e3),
        }
    }
}

/// Emit every per-layer metric, in a fixed order.
pub fn emit(report: &mut Report, t: &Traced, p: &Probe) {
    let s = &t.spans;
    let f = |own: f64, probe: f64| if own > 0.0 { own } else { probe };
    let ps = &p.spans;
    report.metric(
        "http.connect_ms.p50",
        "ms",
        f(s.connect_p50, ps.connect_p50),
    );
    report.metric(
        "http.connect_ms.p99",
        "ms",
        f(s.connect_p99, ps.connect_p99),
    );
    report.metric("http.ttfb_ms.p50", "ms", f(s.ttfb_p50, ps.ttfb_p50));
    report.metric("http.ttfb_ms.p99", "ms", f(s.ttfb_p99, ps.ttfb_p99));
    report.metric(
        "http.overhead_ms.p50",
        "ms",
        f(s.overhead_p50, ps.overhead_p50),
    );
    report.metric("http.parse_us", "us", p.parse_us);
    report.metric("http.encode_us.f64", "us", p.encode_f64_us);
    report.metric("http.encode_us.u8", "us", p.encode_u8_us);
    report.metric("tile.p50_ms", "ms", f(s.tile_p50, ps.tile_p50));
    report.metric("tile.p99_ms", "ms", f(s.tile_p99, ps.tile_p99));
    report.metric("ingest.p50_ms", "ms", f(s.ingest_p50, ps.ingest_p50));
    report.metric("ingest.p90_ms", "ms", f(s.ingest_p90, ps.ingest_p90));
    report.metric(
        "bench.gen_late_p99_ms",
        "ms",
        f(s.gen_late_p99, ps.gen_late_p99),
    );

    let c = |n: &str| t.totals.counter(n) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.metric("http.requests", "count", c("http.requests"));
    report.metric(
        "http.conns_accepted",
        "count",
        c("http.connections_accepted"),
    );
    report.metric("http.responses_5xx", "count", c("http.responses_5xx"));
    report.metric("http.queue_rejections", "count", c("http.queue_rejections"));
    report.metric("http.bytes_out", "bytes", c("http.bytes_out"));
    let (qmean, qmax) = t.totals.hist("http.queue_depth");
    report.metric("http.queue_depth.mean", "count", qmean);
    report.metric("http.queue_depth.max", "count", qmax as f64);

    let (hits, misses) = (c("serve.cache_hits"), c("serve.cache_misses"));
    report.metric("serve.hit_ratio", "frac", ratio(hits, hits + misses));
    report.metric("serve.hit_us", "us", p.hit_us);
    report.metric("serve.tiles_evicted", "count", c("serve.tiles_evicted"));
    report.metric("serve.coalesced_waits", "count", c("serve.coalesced_waits"));
    let computed = c("serve.tiles_computed");
    report.metric(
        "serve.useful_compute_ratio",
        "frac",
        ratio(computed - c("serve.stale_discards"), computed),
    );
    for (k, kind) in ["kdv", "stkdv", "nkdv", "hotspot"].iter().enumerate() {
        report.metric(&format!("serve.compute_ms.{kind}"), "ms", p.compute_ms[k]);
        report.metric(
            &format!("serve.tiles_computed.{kind}"),
            "count",
            c(&format!("serve.tiles_computed{{kind={kind}}}")),
        );
        report.metric(
            &format!("serve.tiles_invalidated.{kind}"),
            "count",
            c(&format!("serve.tiles_invalidated{{kind={kind}}}")),
        );
    }
    report.metric("serve.insert_us", "us", p.insert_us);
    report.metric(
        "ingest.segments_created",
        "count",
        c("ingest.segments_created"),
    );
    report.metric(
        "ingest.segments_merged",
        "count",
        c("ingest.segments_merged"),
    );
    report.metric(
        "ingest.merge_bytes_per_byte",
        "ratio",
        ratio(c("ingest.merge_bytes"), c("ingest.points_appended") * 16.0),
    );
    report.metric(
        "ingest.segment_depth_max",
        "count",
        t.totals.hist("ingest.segment_count").1 as f64,
    );

    report.metric("kdv.pairs", "count", c("kdv.pairs_evaluated"));
    report.metric("kdv.cells_pruned", "count", c("kdv.cells_pruned"));
    report.metric("kdv.ns_per_pair", "ns", p.kdv_ns_per_pair);
    report.metric("kfunc.pairs", "count", c("kfunc.pairs_evaluated"));
    report.metric("kfunc.ns_per_pair", "ns", p.kfunc_ns_per_pair);
    report.metric("index.entries_scanned", "count", c("index.entries_scanned"));
    report.metric("index.nodes_visited", "count", c("index.nodes_visited"));
    report.metric("index.build_ms", "ms", p.index_build_ms);
    report.metric("stats.pairs", "count", c("stats.pairs_evaluated"));
    report.metric("interp.pairs", "count", c("interp.pairs_evaluated"));
    report.metric("interp.kriging_solves", "count", c("interp.kriging_solves"));
    report.metric("network.lixel_build_ms", "ms", p.lixel_build_ms);
    let tools = t.tool_ms.unwrap_or(p.tool_ms);
    for (name, v) in batch::TOOLS.iter().zip(tools) {
        report.metric(&format!("batch.{name}_ms"), "ms", v);
    }

    report.metric("proc.cpu_util", "frac", t.cpu_util);
    report.metric("proc.invol_ctx_switches", "count", t.invol as f64);
    report.metric("obs.overhead_frac", "frac", t.overhead_frac);
}
