//! The two open-loop HTTP workloads: `tiles-hot` (one pre-warmed KDV
//! layer, u8 payloads, nearly every request a cache hit) and
//! `tiles-mixed` (KDV, STKDV, NKDV and Gi* layers on one server, a
//! cache that holds a fraction of the working set, f64 payloads, and
//! point appends beside the reads).

use crate::layers::{ClientSpans, RunOut, Traced};
use crate::load::{self, Expect, Failure, Outcome, Planned};
use crate::report::{ObsTotals, Report};
use crate::sys::{self, ProcWindow};
use crate::trace::{self, Target, TraceOp, TraceSpec};
use crate::util::{median, ms, percentile, repeat_timed, Rng, WINDOWS};
use lsga::core::par::Threads;
use lsga::core::{AnyKernel, BBox, KernelKind, Point, PolyKernel, TimedPoint};
use lsga::data::{self, Hotspot, Wave};
use lsga::http::client;
use lsga::http::{HttpServer, HttpServerConfig};
use lsga::network::{self, EdgePosition, Lixels, RoadNetwork};
use lsga::obs;
use lsga::serve::{
    compute_tile_direct, nkdv_snap_index, snap_batch, tile_grid_spec, HotspotCompute, HotspotStat,
    LayerId, LayerKind, NkdvCompute, StkdvCompute, TileCompute, TileCoord, TileServer,
    TileServerConfig,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A tile workload's fixed parameters. `mixed` decides everything
/// else that differs: four layers instead of one KDV layer, f64 instead
/// of u8 payloads, appends at [`APPEND_SHARE`] of operations, and a
/// pre-warm of zoom 0 instead of the whole pyramid.
pub struct TilesConfig {
    pub name: &'static str,
    /// Offered operations per second; never re-calibrated.
    pub rate_rps: f64,
    /// Latency limit behind `slo_frac`.
    pub slo_ms: f64,
    pub cache_bytes: usize,
    pub mixed: bool,
}

/// Capacity of each tile workload on the reference host (a 2-vCPU VM):
/// the operations per second served when the benchmark's own generator
/// (two threads, a fresh connection per request) offers far more than
/// the server can take. Measured once; the offered rates derive from
/// these numbers and are never re-calibrated.
pub const HOT_CAPACITY_RPS: f64 = 1810.0;
pub const MIXED_CAPACITY_RPS: f64 = 1020.0;

/// Offered load as a share of capacity: light enough that requests
/// seldom wait for each other, so latencies are service times and no
/// request is refused.
pub const LOAD_SHARE: f64 = 0.2;

pub const HOT: TilesConfig = TilesConfig {
    name: "tiles-hot",
    rate_rps: LOAD_SHARE * HOT_CAPACITY_RPS,
    // Several times a cached tile's round trip (about 0.9 ms).
    slo_ms: 5.0,
    cache_bytes: 64 << 20,
    mixed: false,
};

pub const MIXED: TilesConfig = TilesConfig {
    name: "tiles-mixed",
    rate_rps: LOAD_SHARE * MIXED_CAPACITY_RPS,
    // A cached f64 tile's round trip (about 1.1 ms) plus a typical
    // STKDV tile compute (about 1.5 ms): a miss of any kind usually
    // fits, and a slower compute pushes misses past the limit.
    slo_ms: 3.0,
    // About 256 f64 tiles, 3% of the 9207 readable targets; traced runs
    // measure a hit ratio near 0.6.
    cache_bytes: 8 << 20,
    mixed: true,
};

/// Share of `tiles-mixed` operations that append points. Like
/// [`APPEND_BATCH`], an assumed write mix, not one measured from a
/// deployment.
pub const APPEND_SHARE: f64 = 0.05;

/// Zipf exponent of read popularity (both tile workloads).
pub const ZIPF_S: f64 = 1.1;
/// Points per append batch.
pub const APPEND_BATCH: usize = 16;
pub const TILE_PX: usize = 64;
pub const MAX_ZOOM: u8 = 4;
pub(crate) const TAIL_EPS: f64 = 1e-9;
pub(crate) const ST_BINS: usize = 24;
pub(crate) const T_MAX: f64 = 100.0;
pub(crate) const HOT_CELLS: usize = 24;
pub(crate) const HOT_BAND: f64 = 600.0;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(3);

/// Sizes of the generated layer inputs.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub kdv_points: usize,
    pub st_points: usize,
    pub net_blocks: usize,
    pub net_events: usize,
    pub hot_points: usize,
}

pub const FULL: Sizes = Sizes {
    kdv_points: 20_000,
    st_points: 1_000,
    net_blocks: 25,
    net_events: 3_000,
    hot_points: 15_000,
};

/// The standard 10 km × 8 km evaluation window.
#[must_use]
pub fn window() -> BBox {
    BBox::new(0.0, 0.0, 10_000.0, 8_000.0)
}

pub(crate) fn kdv_kernel() -> AnyKernel {
    KernelKind::Quartic.with_bandwidth(250.0)
}

pub(crate) fn st_spatial() -> AnyKernel {
    KernelKind::Epanechnikov.with_bandwidth(300.0)
}

pub(crate) fn st_temporal() -> PolyKernel {
    PolyKernel::new(KernelKind::Quartic, 10.0).expect("temporal bandwidth is positive")
}

pub(crate) fn nkdv_kernel() -> AnyKernel {
    KernelKind::Quartic.with_bandwidth(500.0)
}

/// The generated inputs of one run: a pure function of the seed.
pub struct Inputs {
    pub kdv: Vec<Point>,
    pub st: Vec<TimedPoint>,
    pub net: Arc<RoadNetwork>,
    pub events: Vec<EdgePosition>,
    pub hot: Vec<Point>,
}

/// Crime-like clustered points: two sharp hotspots over a diffuse
/// background (fixed shape; the seed draws the points).
#[must_use]
pub fn crime_points(n: usize, seed: u64) -> Vec<Point> {
    let hotspots = [
        Hotspot {
            center: Point::new(2_500.0, 2_000.0),
            sigma: 300.0,
            weight: 2.0,
        },
        Hotspot {
            center: Point::new(7_500.0, 5_500.0),
            sigma: 500.0,
            weight: 1.0,
        },
        Hotspot {
            center: Point::new(5_000.0, 4_000.0),
            sigma: 2_500.0,
            weight: 1.0,
        },
    ];
    data::gaussian_mixture(n, &hotspots, window(), seed ^ 0x11)
}

impl Inputs {
    #[must_use]
    pub fn generate(sizes: Sizes, seed: u64) -> Self {
        let waves = [
            Wave {
                hotspot: Hotspot {
                    center: Point::new(2_500.0, 5_500.0),
                    sigma: 1_200.0,
                    weight: 1.0,
                },
                t_peak: 20.0,
                t_sigma: 6.0,
            },
            Wave {
                hotspot: Hotspot {
                    center: Point::new(7_500.0, 2_500.0),
                    sigma: 1_000.0,
                    weight: 1.4,
                },
                t_peak: 75.0,
                t_sigma: 5.0,
            },
        ];
        // The waves' temporal tails leave the layer's strict range; clip.
        let st = data::epidemic_waves(sizes.st_points, &waves, window(), seed ^ 0x22)
            .into_iter()
            .filter(|p| (0.0..=T_MAX).contains(&p.t))
            .collect();
        let net = network::grid_network(sizes.net_blocks, sizes.net_blocks, 200.0);
        let per_cluster = (sizes.net_events / 8).max(1);
        let events = data::clustered_on_network(&net, 8, per_cluster, 250.0, seed ^ 0x33);
        Inputs {
            kdv: crime_points(sizes.kdv_points, seed),
            st,
            net: Arc::new(net),
            events,
            hot: data::taxi_like(sizes.hot_points, window(), 0.7, seed ^ 0x44),
        }
    }
}

/// One readable `(layer, tile, bin)` target.
#[derive(Clone, Copy, Debug)]
pub struct TileTarget {
    pub layer: LayerId,
    pub kind: LayerKind,
    pub coord: TileCoord,
    pub bin: u32,
}

/// A running server with its layers registered.
pub struct Deployed {
    pub tiles: Arc<TileServer>,
    pub http: HttpServer,
    pub layers: Vec<(LayerId, LayerKind)>,
    pub lixels: Option<Arc<Lixels>>,
}

fn tile_server(cache_bytes: usize, nproc: usize) -> Arc<TileServer> {
    Arc::new(TileServer::new(TileServerConfig {
        tile_px: TILE_PX,
        max_zoom: MAX_ZOOM,
        byte_budget: cache_bytes,
        threads: Threads::exact(nproc),
        ..TileServerConfig::default()
    }))
}

/// Build the server, register the layers, bind HTTP, and pre-warm the
/// top of the pyramid (all of it for `tiles-hot`; zoom 0 of every
/// layer and bin for `tiles-mixed`, which also computes each layer's
/// lazy state): everything `setup_s` times.
pub fn deploy(cfg: &TilesConfig, inputs: &Inputs, nproc: usize) -> Deployed {
    let tiles = tile_server(cfg.cache_bytes, nproc);
    let mut layers = Vec::new();
    let kdv = tiles
        .add_layer(inputs.kdv.clone(), window(), kdv_kernel(), TAIL_EPS)
        .expect("kdv layer registers");
    layers.push((kdv, LayerKind::Kdv));
    let mut lixels = None;
    if cfg.mixed {
        let st = StkdvCompute::new(
            &inputs.st,
            window(),
            st_spatial(),
            st_temporal(),
            0.0,
            T_MAX,
            ST_BINS,
            TAIL_EPS,
        )
        .expect("stkdv layer inputs are valid");
        layers.push((
            tiles.add_compute_layer(Arc::new(st)).expect("stkdv layer"),
            LayerKind::Stkdv,
        ));
        let lx = Arc::new(Lixels::build(&inputs.net, 25.0));
        let nk = NkdvCompute::new(
            Arc::clone(&inputs.net),
            Arc::clone(&lx),
            &inputs.events,
            nkdv_kernel(),
        )
        .expect("nkdv layer inputs are valid");
        layers.push((
            tiles.add_compute_layer(Arc::new(nk)).expect("nkdv layer"),
            LayerKind::Nkdv,
        ));
        let hs = HotspotCompute::new(
            &inputs.hot,
            window(),
            HOT_CELLS,
            HOT_BAND,
            HotspotStat::GiStar,
        )
        .expect("hotspot layer inputs are valid");
        layers.push((
            tiles
                .add_compute_layer(Arc::new(hs))
                .expect("hotspot layer"),
            LayerKind::Hotspot,
        ));
        lixels = Some(lx);
    }
    let http = HttpServer::start(
        Arc::clone(&tiles),
        HttpServerConfig {
            workers: nproc,
            ..HttpServerConfig::default()
        },
    )
    .expect("http server binds to a loopback port");
    let prewarm_zoom = if cfg.mixed { 0 } else { MAX_ZOOM };
    for t in universe(&layers) {
        if t.coord.z <= prewarm_zoom {
            tiles
                .get_tile_binned(t.layer, t.coord.z, t.coord.x, t.coord.y, t.bin)
                .expect("pre-warm tile");
        }
    }
    Deployed {
        tiles,
        http,
        layers,
        lixels,
    }
}

/// Every readable target of the deployed layers, in a fixed order.
#[must_use]
pub fn universe(layers: &[(LayerId, LayerKind)]) -> Vec<TileTarget> {
    let mut out = Vec::new();
    for &(layer, kind) in layers {
        let bins = if kind == LayerKind::Stkdv {
            ST_BINS as u32
        } else {
            1
        };
        for z in 0..=MAX_ZOOM {
            let side = 1u32 << z;
            for y in 0..side {
                for x in 0..side {
                    for bin in 0..bins {
                        out.push(TileTarget {
                            layer,
                            kind,
                            coord: TileCoord::new(z, x, y),
                            bin,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The request line target of a tile read.
#[must_use]
pub fn tile_path(t: &TileTarget, u8_payload: bool) -> String {
    let fmt = if u8_payload { "u8" } else { "f64" };
    let c = t.coord;
    match t.kind {
        // `tiles-hot` reads the legacy kindless route, as map clients do.
        LayerKind::Kdv if u8_payload => {
            format!("/tiles/{}/{}/{}/{}?fmt={fmt}", t.layer, c.z, c.x, c.y)
        }
        LayerKind::Stkdv => format!(
            "/tiles/{}/stkdv/{}/{}/{}?t={}&fmt={fmt}",
            t.layer, c.z, c.x, c.y, t.bin
        ),
        k => format!(
            "/tiles/{}/{}/{}/{}/{}?fmt={fmt}",
            t.layer,
            k.name(),
            c.z,
            c.x,
            c.y
        ),
    }
}

fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: lsga\r\nConnection: close\r\n\r\n").into_bytes()
}

fn post_request(layer: LayerId, points: &[Point]) -> Vec<u8> {
    let body = client::encode_points(points);
    let mut req = format!(
        "POST /layers/{layer}/points HTTP/1.1\r\nHost: lsga\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(&body);
    req
}

/// Generator threads: at most `nproc`, and never more than two, so the
/// load has the same shape on every host.
#[must_use]
pub fn generator_threads(nproc: usize) -> usize {
    nproc.clamp(1, 2)
}

/// The trace knobs of a workload over a deployed universe.
#[must_use]
pub fn trace_spec(cfg: &TilesConfig, universe: usize, nproc: usize) -> TraceSpec {
    TraceSpec {
        rate_rps: cfg.rate_rps,
        threads: generator_threads(nproc),
        zipf_s: ZIPF_S,
        universe,
        append_share: if cfg.mixed { APPEND_SHARE } else { 0.0 },
        // Appends go to the KDV, NKDV and hotspot layers (ids 0, 2, 3);
        // HTTP appends are planar, which STKDV layers reject.
        append_layers: if cfg.mixed { vec![0, 2, 3] } else { Vec::new() },
        batch_len: APPEND_BATCH,
        append_box: window(),
    }
}

/// Encode a trace into wire requests. Every `keep_every`-th read keeps
/// its response for the correctness check (0 keeps none).
pub fn plan(
    cfg: &TilesConfig,
    ops: &[TraceOp],
    universe: &[TileTarget],
    keep_every: usize,
) -> Vec<Planned> {
    let px_bytes = if cfg.mixed { 8 } else { 1 };
    ops.iter()
        .enumerate()
        .map(|(i, op)| match &op.target {
            Target::Read(u) => Planned {
                at_ns: op.at_ns,
                thread: op.thread,
                request: get_request(&tile_path(&universe[*u], !cfg.mixed)),
                expect: Expect::Tile {
                    body_len: TILE_PX * TILE_PX * px_bytes,
                },
                keep: keep_every > 0 && i % keep_every == 0,
            },
            Target::Append { layer, points } => Planned {
                at_ns: op.at_ns,
                thread: op.thread,
                request: post_request(*layer, points),
                expect: Expect::Append {
                    points: points.len(),
                },
                keep: false,
            },
        })
        .collect()
}

/// The measured part of one phase.
struct Phase {
    outcomes: Vec<Outcome>,
    wall_s: f64,
    cpu_util: f64,
    invol: u64,
    /// Counters of the phase when the collector was on.
    obs: Option<ObsTotals>,
}

/// Replay the plan; with `traced`, run the collector and drain it
/// every half second into the phase totals.
fn drive(d: &Deployed, plan: &[Planned], nproc: usize, traced: bool) -> Phase {
    let addr: SocketAddr = d.http.local_addr();
    let totals = Mutex::new(ObsTotals::default());
    let done = AtomicBool::new(false);
    if traced {
        obs::reset();
        obs::enable();
    }
    let proc_window = ProcWindow::start();
    let t0 = Instant::now();
    let outcomes = std::thread::scope(|s| {
        if traced {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(500));
                    totals.lock().expect("obs totals lock").drain_into();
                }
            });
        }
        let out = load::run(addr, plan, generator_threads(nproc), REQUEST_TIMEOUT);
        done.store(true, Ordering::Release);
        out
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu_util, invol) = proc_window.finish();
    let obs_totals = traced.then(|| {
        let mut t = totals.into_inner().expect("obs totals lock");
        t.drain_into();
        obs::disable();
        t
    });
    Phase {
        outcomes,
        wall_s,
        cpu_util,
        invol,
        obs: obs_totals,
    }
}

/// Latency samples (ns, sorted) of the outcomes matching `pick`.
pub(crate) fn sorted_ns(
    outcomes: &[Outcome],
    pick: impl Fn(usize, &Outcome) -> bool,
    f: impl Fn(&Outcome) -> u64,
) -> Vec<u64> {
    let mut v: Vec<u64> = outcomes
        .iter()
        .enumerate()
        .filter(|(i, o)| pick(*i, o))
        .map(|(_, o)| f(o))
        .collect();
    v.sort_unstable();
    v
}

pub(crate) fn pct_ms(sorted: &[u64], q: f64) -> f64 {
    percentile(sorted, q).map_or(0.0, ms)
}

/// Per-run record of what the correctness gate checked.
#[derive(Default)]
struct Gate {
    checked_tiles: usize,
    checked_pixels: usize,
    errors: Vec<String>,
}

/// `tiles-hot` rule: every dequantized u8 pixel is within half a
/// quantization step of the direct compute.
fn check_u8(
    gate: &mut Gate,
    inputs: &Inputs,
    ops: &[TraceOp],
    universe: &[TileTarget],
    phase: &Phase,
) {
    let mut oracle: std::collections::HashMap<usize, Vec<f64>> = std::collections::HashMap::new();
    for (op, o) in ops.iter().zip(&phase.outcomes) {
        let (Target::Read(u), Some(resp)) = (&op.target, &o.response) else {
            continue;
        };
        if !o.ok() {
            continue;
        }
        let t = universe[*u];
        let direct = oracle.entry(*u).or_insert_with(|| {
            compute_tile_direct(
                &inputs.kdv,
                &window(),
                kdv_kernel(),
                TAIL_EPS,
                TILE_PX,
                t.coord,
            )
            .values()
            .to_vec()
        });
        let Some(decoded) = resp.decode_u8() else {
            gate.errors
                .push(format!("tile {:?}: u8 range headers missing", t.coord));
            continue;
        };
        let (lo, hi) = direct
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let half_step = (hi - lo) / 255.0 / 2.0;
        let slack = 1e-12 * hi.abs().max(lo.abs()).max(f64::MIN_POSITIVE);
        if let Some((i, (a, b))) = decoded
            .iter()
            .zip(direct.iter())
            .enumerate()
            .find(|(_, (a, b))| (*a - *b).abs() > half_step + slack)
        {
            gate.errors.push(format!(
                "tile {:?} pixel {i}: u8 decodes to {a}, direct compute {b} (half step {half_step})",
                t.coord
            ));
        }
        gate.checked_tiles += 1;
        gate.checked_pixels += decoded.len();
    }
}

/// `tiles-mixed` rule: after the load has quiesced, a seeded sample of
/// tiles of every kind, fetched over HTTP as f64, is bit-identical to
/// the per-kind oracle rebuilt from the inputs plus the acknowledged
/// appends in order.
fn check_f64(
    gate: &mut Gate,
    d: &Deployed,
    inputs: &Inputs,
    ops: &[TraceOp],
    universe: &[TileTarget],
    phase: &Phase,
    seed: u64,
) {
    let mut kdv = inputs.kdv.clone();
    let mut hot = inputs.hot.clone();
    let mut nk_points: Vec<Point> = Vec::new();
    for (op, o) in ops.iter().zip(&phase.outcomes) {
        if let Target::Append { layer, points } = &op.target {
            if !o.ok() {
                continue;
            }
            match d.layers[*layer].1 {
                LayerKind::Kdv => kdv.extend_from_slice(points),
                LayerKind::Hotspot => hot.extend_from_slice(points),
                LayerKind::Nkdv => nk_points.extend_from_slice(points),
                LayerKind::Stkdv => unreachable!("appends never target the stkdv layer"),
            }
        }
    }
    let lixels = Arc::clone(d.lixels.as_ref().expect("mixed deployments have lixels"));
    let snap = nkdv_snap_index(&inputs.net, &lixels);
    let mut events = inputs.events.clone();
    events.extend(snap_batch(&inputs.net, &snap, &nk_points).expect("appended points snap"));
    let oracles: Vec<Box<dyn TileCompute>> = vec![
        Box::new(
            StkdvCompute::new(
                &inputs.st,
                window(),
                st_spatial(),
                st_temporal(),
                0.0,
                T_MAX,
                ST_BINS,
                TAIL_EPS,
            )
            .expect("stkdv oracle"),
        ),
        Box::new(
            NkdvCompute::new(Arc::clone(&inputs.net), lixels, &events, nkdv_kernel())
                .expect("nkdv oracle"),
        ),
        Box::new(
            HotspotCompute::new(&hot, window(), HOT_CELLS, HOT_BAND, HotspotStat::GiStar)
                .expect("hotspot oracle"),
        ),
    ];
    let mut rng = Rng::derive(seed, 0x6761_7465);
    let addr = d.http.local_addr();
    for &(layer, kind) in &d.layers {
        let candidates: Vec<&TileTarget> = universe.iter().filter(|t| t.layer == layer).collect();
        for _ in 0..4 {
            let t = *candidates[rng.below(candidates.len())];
            let expected = match kind {
                LayerKind::Kdv => {
                    compute_tile_direct(&kdv, &window(), kdv_kernel(), TAIL_EPS, TILE_PX, t.coord)
                }
                _ => {
                    let oracle = oracles
                        .iter()
                        .find(|o| o.kind() == kind)
                        .expect("one oracle per kind");
                    oracle.compute(tile_grid_spec(&oracle.window(), TILE_PX, t.coord), t.bin)
                }
            };
            match client::get(addr, &tile_path(&t, false), &[], REQUEST_TIMEOUT) {
                Ok(resp) if resp.status == 200 => {
                    let got = resp.decode_f64();
                    let same = got.len() == expected.values().len()
                        && got
                            .iter()
                            .zip(expected.values())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        gate.errors.push(format!(
                            "{} tile {:?} bin {}: served f64 bits differ from the oracle",
                            kind.name(),
                            t.coord,
                            t.bin
                        ));
                    }
                    gate.checked_tiles += 1;
                    gate.checked_pixels += got.len();
                }
                Ok(resp) => gate.errors.push(format!(
                    "audit read of {:?} answered {}",
                    t.coord, resp.status
                )),
                Err(e) => gate
                    .errors
                    .push(format!("audit read of {:?} failed: {e}", t.coord)),
            }
        }
    }
}

/// Conservation laws over a traced phase's counters. Returns the
/// violations.
fn conservation(t: &ObsTotals, ops: &[TraceOp], phase: &Phase) -> Vec<String> {
    let mut bad = Vec::new();
    let mut law = |name: &str, lhs: u64, rhs: u64| {
        if lhs != rhs {
            bad.push(format!("{name}: {lhs} != {rhs}"));
        }
    };
    let c = |n: &str| t.counter(n);
    // Acceptor 503s and shutdown sheds answer without a worker reading
    // a request, so they sit on the response side only.
    law(
        "2xx + 4xx + 5xx = http.requests + queue_rejections + shed",
        c("http.responses_2xx") + c("http.responses_4xx") + c("http.responses_5xx"),
        c("http.requests") + c("http.queue_rejections") + c("http.shed_on_shutdown"),
    );
    let sent = phase.outcomes.iter().filter(|o| o.sent).count() as u64;
    law(
        "http.requests + queue_rejections = operations sent",
        c("http.requests") + c("http.queue_rejections"),
        sent,
    );
    // Every read that reached a worker is one lookup; the only 503 is
    // the acceptor's queue-full answer, which never reaches one.
    let tile_reads = ops
        .iter()
        .zip(&phase.outcomes)
        .filter(|(op, o)| {
            matches!(op.target, Target::Read(_))
                && o.sent
                && o.failure != Some(Failure::Status(503))
        })
        .count() as u64;
    law(
        "serve.cache_hits + serve.cache_misses = tile reads reaching a worker",
        c("serve.cache_hits") + c("serve.cache_misses"),
        tile_reads,
    );
    let per_kind: u64 = ["kdv", "stkdv", "nkdv", "hotspot"]
        .iter()
        .map(|k| c(&format!("serve.tiles_computed{{kind={k}}}")))
        .sum();
    law(
        "sum of per-kind tiles_computed = serve.tiles_computed",
        per_kind,
        c("serve.tiles_computed"),
    );
    let acked = |kdv_only: bool| {
        ops.iter()
            .zip(&phase.outcomes)
            .filter_map(|(op, o)| match &op.target {
                Target::Append { layer, points } if o.ok() && (!kdv_only || *layer == 0) => {
                    Some(points.len() as u64)
                }
                _ => None,
            })
            .fold((0u64, 0u64), |(n, p), len| (n + 1, p + len))
    };
    // Only KDV layers keep a segment stack, so only KDV appends build
    // a segment.
    law(
        "ingest.segments_created = acked KDV appends",
        c("ingest.segments_created"),
        acked(true).0,
    );
    law(
        "ingest.points_appended = points acked",
        c("ingest.points_appended"),
        acked(false).1,
    );
    bad
}

struct Measured {
    ops: Vec<TraceOp>,
    phase: Phase,
    deployed: Deployed,
    universe: Vec<TileTarget>,
}

/// Drive one trace against a deployment.
fn measure(
    cfg: &TilesConfig,
    deployed: Deployed,
    seed: u64,
    seconds: f64,
    traced: bool,
    nproc: usize,
) -> Measured {
    let universe = universe(&deployed.layers);
    let ops = trace::generate(&trace_spec(cfg, universe.len(), nproc), seed, seconds);
    let keep_every = if cfg.mixed { 0 } else { 25 };
    let planned = plan(cfg, &ops, &universe, keep_every);
    let phase = drive(&deployed, &planned, nproc, traced);
    Measured {
        ops,
        phase,
        deployed,
        universe,
    }
}

/// Run a tile workload. Untraced: set up repeatedly (see
/// [`repeat_timed`]), drive the trace for `seconds`, check, set up
/// repeatedly again, and report the end-to-end metrics. Traced: an
/// untraced half and a traced half, each on a fresh deployment, so
/// `obs.overhead_frac` compares like with like.
pub fn run(
    cfg: &TilesConfig,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> RunOut {
    let nproc = sys::nproc();
    let inputs = Inputs::generate(FULL, seed);
    let mut baseline_p50 = 0.0;
    let (mut setups, m) = if traced {
        let base = measure(
            cfg,
            deploy(cfg, &inputs, nproc),
            seed,
            seconds / 2.0,
            false,
            nproc,
        );
        baseline_p50 = pct_ms(
            &sorted_ns(&base.phase.outcomes, |_, _| true, |o| o.latency_ns),
            0.5,
        );
        base.deployed.http.shutdown();
        let deployed = deploy(cfg, &inputs, nproc);
        (
            Vec::new(),
            measure(cfg, deployed, seed, seconds / 2.0, true, nproc),
        )
    } else {
        let (setups, deployed) = repeat_timed(|| deploy(cfg, &inputs, nproc));
        (setups, measure(cfg, deployed, seed, seconds, false, nproc))
    };
    let outcomes = &m.phase.outcomes;

    let mut gate = Gate::default();
    if cfg.mixed {
        check_f64(
            &mut gate,
            &m.deployed,
            &inputs,
            &m.ops,
            &m.universe,
            &m.phase,
            seed,
        );
    } else {
        check_u8(&mut gate, &inputs, &m.ops, &m.universe, &m.phase);
    }
    if let Some(t) = &m.phase.obs {
        gate.errors.extend(conservation(t, &m.ops, &m.phase));
    }

    let attempted = outcomes.len() as u64;
    let failed = outcomes.iter().filter(|o| !o.ok()).count() as u64;
    let all = sorted_ns(outcomes, |_, _| true, |o| o.latency_ns);
    let late = sorted_ns(outcomes, |_, _| true, |o| o.late_ns);
    // Latency per operation in schedule order; a failure is a miss.
    let lat_ms: Vec<f64> = outcomes.iter().map(|o| ms(o.latency_ns)).collect();
    let slo_ms: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            if o.ok() {
                ms(o.latency_ns)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let served = attempted - failed;

    if !traced {
        report.latency_metrics(&lat_ms, &slo_ms, cfg.slo_ms);
        report.metric("served_rps", "1/s", served as f64 / m.phase.wall_s);
        report.metric("ok_frac", "frac", served as f64 / attempted as f64);
    }

    // Run metadata: the load's shape and the sample behind every number.
    report.meta_str("loop", "open");
    report.meta_num("offered_rps", cfg.rate_rps);
    report.meta_num("generator_threads", generator_threads(nproc) as f64);
    report.meta_num("max_open_connections", generator_threads(nproc) as f64);
    report.meta_num("http_workers", nproc as f64);
    report.meta_num("latency_limit_ms", cfg.slo_ms);
    report.meta_num("zipf_s", ZIPF_S);
    report.meta_num("cache_budget_bytes", cfg.cache_bytes as f64);
    report.meta_num("universe_tiles", m.universe.len() as f64);
    report.meta_num("samples_op_latency", all.len() as f64);
    report.meta_num("windows", WINDOWS as f64);
    report.meta_num("samples_beyond_p90", (all.len() as f64 * 0.1).floor());
    report.meta_num("run_op_p99_ms", pct_ms(&all, 0.99));
    report.meta_num("samples_beyond_p99", (all.len() as f64 * 0.01).floor());
    report.meta_num("gen_late_p50_ms", pct_ms(&late, 0.5));
    report.meta_num("gen_late_p99_ms", pct_ms(&late, 0.99));
    for (label, read) in [("read", true), ("append", false)] {
        let idx: Vec<usize> = (0..outcomes.len())
            .filter(|&i| matches!(m.ops[i].target, Target::Read(_)) == read)
            .collect();
        let ok = idx.iter().filter(|&&i| outcomes[i].ok()).count();
        report.meta_num(&format!("{label}_attempted"), idx.len() as f64);
        report.meta_num(&format!("{label}_succeeded"), ok as f64);
        report.meta_num(&format!("{label}_failed"), (idx.len() - ok) as f64);
    }
    let mut kinds: Vec<String> = outcomes
        .iter()
        .filter_map(|o| o.failure.map(|f| format!("{f:?}")))
        .collect();
    kinds.sort();
    kinds.dedup();
    report.meta_str("failure_kinds", &kinds.join(","));
    report.meta_num("gate_tiles_checked", gate.checked_tiles as f64);
    report.meta_num("gate_pixels_checked", gate.checked_pixels as f64);
    for e in gate.errors.iter().take(8) {
        eprintln!("correctness: {e}");
    }

    let layer_run = m.phase.obs.clone().map(|totals| Traced {
        spans: ClientSpans::of(&m.ops, outcomes, http_overhead(&m)),
        totals,
        cpu_util: m.phase.cpu_util,
        invol: m.phase.invol,
        overhead_frac: (pct_ms(&all, 0.5) - baseline_p50) / baseline_p50.max(1e-9),
        tool_ms: None,
    });
    m.deployed.http.shutdown();
    drop(m.deployed.tiles);
    if !traced {
        // Time set-up again after the load, with the measured server
        // gone, so the median spans the run rather than its first
        // seconds and no two deployments are alive at once.
        setups.extend(repeat_timed(|| deploy(cfg, &inputs, nproc)).0);
        report.metric(
            "setup_s",
            "s",
            median(&setups).expect("untraced runs time set-up"),
        );
        report.meta_num("setup_repeats", setups.len() as f64);
        report.metric("peak_rss_mb", "MiB", sys::peak_rss_mb());
    }
    RunOut {
        correct: gate.errors.is_empty() && gate.checked_tiles > 0,
        attempted,
        failed,
        traced: layer_run,
    }
}

/// Client service time minus an in-process `get_tile` replay of the
/// same targets on the same (now quiet) server, median over a sample.
fn http_overhead(m: &Measured) -> f64 {
    replay_overhead(&m.deployed.tiles, &m.ops, &m.phase.outcomes, &m.universe)
}

/// [`http_overhead`] over any replayed trace.
pub fn replay_overhead(
    tiles: &TileServer,
    ops: &[TraceOp],
    outcomes: &[Outcome],
    universe: &[TileTarget],
) -> f64 {
    let mut client = Vec::new();
    let mut local = Vec::new();
    for (op, o) in ops.iter().zip(outcomes).step_by(7).take(400) {
        let Target::Read(u) = op.target else { continue };
        if !o.ok() {
            continue;
        }
        let tt = universe[u];
        let t = Instant::now();
        let _ = std::hint::black_box(
            tiles.get_tile_binned(tt.layer, tt.coord.z, tt.coord.x, tt.coord.y, tt.bin),
        );
        local.push(t.elapsed().as_secs_f64() * 1e3);
        client.push(ms(o.service_ns));
    }
    match (median(&client), median(&local)) {
        (Some(c), Some(l)) => c - l,
        _ => 0.0,
    }
}
