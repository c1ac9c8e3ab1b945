//! Run results, the one-line JSON the benchmark prints, and the
//! accumulated `lsga_obs` tables of a traced phase.

use crate::util::{quantile, share_within, window_median};
use lsga::obs;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Accumulates metrics and run metadata in insertion order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// `(key, already-encoded JSON value)` pairs for the metadata line.
    pub meta: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), num(value)));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), json_str(value)));
    }

    /// `op_p50_ms` and `slo_frac` of one run as the median over
    /// [`WINDOWS`](crate::util::WINDOWS) windows, plus the whole-run
    /// p50, p90 and share as metadata: `lat_ms` is each operation's
    /// latency in schedule order, `slo_ms` the same with failures as
    /// infinite latency, and `limit_ms` the latency limit.
    pub fn latency_metrics(&mut self, lat_ms: &[f64], slo_ms: &[f64], limit_ms: f64) {
        let p50 = |w: &[f64]| quantile(w, 0.5).unwrap_or(0.0);
        let share = |w: &[f64]| share_within(w, limit_ms);
        self.metric("op_p50_ms", "ms", window_median(lat_ms, p50));
        self.metric("slo_frac", "frac", window_median(slo_ms, share));
        self.meta_num("run_op_p50_ms", p50(lat_ms));
        // The tail is reported, not bounded: see the README.
        self.meta_num("run_op_p90_ms", quantile(lat_ms, 0.9).unwrap_or(0.0));
        self.meta_num("run_slo_frac", share(slo_ms));
    }

    /// The metadata as one JSON object.
    #[must_use]
    pub fn meta_json(&self) -> String {
        object(self.meta.iter().map(|(k, v)| (k.as_str(), v.clone())))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    #[must_use]
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics = object(self.metrics.iter().map(|m| {
            (
                m.name.as_str(),
                format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    num(m.value),
                    json_str(m.unit)
                ),
            )
        }));
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
        )
    }
}

fn object<'a>(pairs: impl Iterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {v}", json_str(k));
    }
    out.push('}');
    out
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (never expected) become 0.
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Counters and histogram summaries summed over several
/// [`obs::drain`] calls, so a long traced phase can empty the span
/// buffers at intervals without losing counts.
#[derive(Default, Debug, Clone)]
pub struct ObsTotals {
    pub counters: BTreeMap<&'static str, u64>,
    /// Histogram name → `(count, sum, max bucket upper bound)`.
    pub hists: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl ObsTotals {
    /// Drain the registry and fold it into the totals.
    pub fn drain_into(&mut self) {
        let snap = obs::drain();
        for &(name, v) in snap.counters() {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for h in snap.histograms() {
            let e = self.hists.entry(h.name).or_insert((0, 0, 0));
            e.0 += h.count;
            e.1 += h.sum;
            e.2 = e.2.max(h.buckets.last().map_or(0, |b| b.0));
        }
    }

    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `(mean, max bucket bound)` of a histogram, zeros when empty.
    #[must_use]
    pub fn hist(&self, name: &str) -> (f64, u64) {
        match self.hists.get(name) {
            Some(&(count, sum, max)) if count > 0 => (sum as f64 / count as f64, max),
            _ => (0.0, 0),
        }
    }
}
