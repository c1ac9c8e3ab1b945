//! The seeded operation trace of the open-loop tile workloads.
//!
//! A trace is a pure function of its [`TraceSpec`], the seed, and the
//! run length: operation `i` is due `i / rate` seconds after the start
//! (fixed spacing at the offered rate, never re-calibrated), reads draw
//! a `(layer, tile, bin)` target from a Zipf law over the workload's
//! universe, and a fixed share of operations are point appends. Appends always go to
//! generator thread 0, so the server applies them in trace order and
//! the correctness oracle can replay exactly the acknowledged batches.

use crate::util::{Rng, Zipf};
use lsga::core::{BBox, Point};

/// What one operation does.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// Read the universe entry with this index.
    Read(usize),
    /// Append a point batch to a layer.
    Append { layer: usize, points: Vec<Point> },
}

/// One scheduled operation.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceOp {
    /// Due time, nanoseconds after the run's start.
    pub at_ns: u64,
    /// Generator thread that sends it.
    pub thread: usize,
    pub target: Target,
}

/// The knobs a trace is generated from.
#[derive(Clone, Debug)]
pub struct TraceSpec {
    /// Offered operations per second (reads and appends together).
    pub rate_rps: f64,
    /// Generator threads.
    pub threads: usize,
    /// Zipf exponent of read popularity.
    pub zipf_s: f64,
    /// Number of readable `(layer, tile, bin)` targets.
    pub universe: usize,
    /// Share of operations that are appends (0 for read-only).
    pub append_share: f64,
    /// Layers appends rotate over.
    pub append_layers: Vec<usize>,
    /// Points per append batch.
    pub batch_len: usize,
    /// Region appended points are drawn from (clustered inside it).
    pub append_box: BBox,
}

/// Generate the trace for a run of `seconds`.
#[must_use]
pub fn generate(spec: &TraceSpec, seed: u64, seconds: f64) -> Vec<TraceOp> {
    let n = (spec.rate_rps * seconds).round().max(1.0) as usize;
    let mut rng = Rng::derive(seed, 0x7472_6163);
    let zipf = Zipf::new(spec.universe, spec.zipf_s, &mut rng);
    let mut reads = 0usize;
    let mut appends = 0usize;
    (0..n)
        .map(|i| {
            let at_ns = (i as f64 * 1e9 / spec.rate_rps) as u64;
            let append = !spec.append_layers.is_empty() && rng.unit() < spec.append_share;
            if append {
                let layer = spec.append_layers[appends % spec.append_layers.len()];
                appends += 1;
                TraceOp {
                    at_ns,
                    thread: 0,
                    target: Target::Append {
                        layer,
                        points: clustered_points(&mut rng, spec.batch_len, spec.append_box),
                    },
                }
            } else {
                let thread = reads % spec.threads;
                reads += 1;
                TraceOp {
                    at_ns,
                    thread,
                    target: Target::Read(zipf.draw(&mut rng)),
                }
            }
        })
        .collect()
}

/// `n` points around one random centre inside `area` (σ = 3% of the
/// box width), clamped into the box: a small geographic burst, like a
/// batch of incident reports from one neighbourhood.
pub fn clustered_points(rng: &mut Rng, n: usize, area: BBox) -> Vec<Point> {
    let (w, h) = (area.max_x - area.min_x, area.max_y - area.min_y);
    let cx = area.min_x + w * (0.1 + 0.8 * rng.unit());
    let cy = area.min_y + h * (0.1 + 0.8 * rng.unit());
    let sigma = 0.03 * w;
    (0..n)
        .map(|_| {
            Point::new(
                (cx + sigma * rng.normal()).clamp(area.min_x, area.max_x),
                (cy + sigma * rng.normal()).clamp(area.min_y, area.max_y),
            )
        })
        .collect()
}
