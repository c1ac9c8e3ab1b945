//! Seeded randomness, Zipf popularity, and order statistics.
//!
//! The benchmark owns its random numbers (SplitMix64) so that a seed
//! names the same inputs whatever the program's own generators do.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// A child stream: the same parent seed and salt always give the
    /// same child.
    #[must_use]
    pub fn derive(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf popularity over `n` items: the items are ranked by a seeded
/// shuffle and rank `r` (0-based) is drawn with probability
/// proportional to `1 / (r + 1)^s`.
pub struct Zipf {
    order: Vec<usize>,
    cdf: Vec<f64>,
}

impl Zipf {
    #[must_use]
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "zipf over an empty universe");
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { order, cdf }
    }

    /// Draw one item index.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }
}

/// The `q`-quantile of `sorted` by the nearest-rank rule: the
/// `ceil(q·n)`-th smallest value (the minimum for `q = 0`). `None` for
/// an empty sample.
#[must_use]
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a copy of `values` and take its nearest-rank `q`-quantile.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Nearest-rank median of unsorted values.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Each [`repeat_timed`] call spends at least this long. Untraced runs
/// call it before and after the measured load.
pub const SETUP_BUDGET_S: f64 = 1.5;

/// Run a set-up step repeatedly, timing each run: at least five times
/// and until [`SETUP_BUDGET_S`] has been spent on it, so a set-up of a
/// few milliseconds is timed hundreds of times. Returns every duration
/// (seconds) and the last run's result; earlier results are dropped as
/// the next run starts.
pub fn repeat_timed<T>(mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let out = f();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 5 && times.iter().sum::<f64>() >= SETUP_BUDGET_S {
            return (times, out);
        }
    }
}

/// Windows a run's operations are split into for its latency, share
/// and rate metrics.
pub const WINDOWS: usize = 10;

/// Split `values` (in schedule order) into [`WINDOWS`] contiguous
/// chunks, summarize each with `stat`, and return the median summary
/// (the 5th smallest). While a host stall spoils at most half of the
/// windows the result is still an unspoiled window's summary; by the
/// same rule, anything else confined to fewer than half of the run
/// moves it little.
#[must_use]
pub fn window_median(values: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per = values.len().div_ceil(WINDOWS).max(1);
    let summaries: Vec<f64> = values.chunks(per).map(stat).collect();
    median(&summaries).unwrap_or(0.0)
}

/// Share of `latencies` at or below `limit` (failed operations carry
/// an infinite latency).
#[must_use]
pub fn share_within(latencies: &[f64], limit: f64) -> f64 {
    latencies.iter().filter(|&&l| l <= limit).count() as f64 / latencies.len().max(1) as f64
}
