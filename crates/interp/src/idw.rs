//! Inverse distance weighting (Shepard interpolation).
//!
//! `F(q) = Σ_i w_i·z_i / Σ_i w_i` with `w_i = 1 / dist(q, p_i)^power`.
//! A query coinciding with a sample returns that sample's value exactly
//! (the limit of the weights).
//!
//! # Weights
//!
//! Every accumulation loop takes its weight `w(d²) = d²^(−power/2)`
//! from `with_weight!`, which picks the form once per call, outside
//! the per-pair loop. At `power == 2.0` the weight is the reciprocal
//! `1.0 / d2`: one IEEE division, correctly rounded, where libm's `pow`
//! is not (glibc documents up to 0.52 ULP) and costs about ten times as
//! much. Estimates therefore differ from a `powf` fold in the last bit
//! of a few weights, well inside 1e-12 relative. Every other power
//! keeps `d2.powf(−power/2)`. `1/d2` overflows and underflows exactly
//! where `d2^(−1)` does, so the repair pass below fires on the same
//! inputs.
//!
//! # Numeric robustness
//!
//! `w = d2^(−power/2)` overflows to `+inf` once `d2` drops below
//! ~`1e-308^(2/power)` — two near-coincident samples then accumulate
//! `num = den = inf` and the estimate collapses to `inf/inf = NaN`.
//! The accumulation loops below keep their fast form bit-for-bit, but
//! a non-finite (or vanished) accumulator triggers a repair pass
//! ([`idw_stable`]) that forms the weights in log space, so no public
//! IDW entry point returns a non-finite value for finite inputs. Every
//! repair bumps [`Counter::NumericAnomalies`].
//!
//! A squared distance that *underflows* to `0.0` (separation below
//! ~`1.5e-162`) is deliberately treated as an exact hit: the first
//! such sample in fold order wins. This keeps the exact-hit branch a
//! single comparison and is the limit behaviour anyway.

use lsga_core::par::{par_map_rows, Threads};
use lsga_core::soa::PointsSoA;
use lsga_core::{DensityGrid, GridSpec, Point};
use lsga_index::{GridIndex, KdTree};
use lsga_obs::{self as obs, Counter};

/// Binds `$w` to the IDW weight `d2 ↦ d2^(−power/2)` and evaluates
/// `$body` with it. The body is instantiated once per weight form, so
/// the power-2 test runs once per call and the per-pair loop calls a
/// closure the compiler can inline.
macro_rules! with_weight {
    ($power:expr, |$w:ident| $body:expr) => {{
        let power: f64 = $power;
        if power == 2.0 {
            let $w = |d2: f64| 1.0 / d2;
            $body
        } else {
            let e = -0.5 * power;
            let $w = move |d2: f64| d2.powf(e);
            $body
        }
    }};
}

/// Exact global IDW — the `O(X·Y·n)` baseline of \[20\].
pub fn idw_naive(samples: &[(Point, f64)], spec: GridSpec, power: f64) -> DensityGrid {
    idw_naive_threads(samples, spec, power, Threads::auto())
}

/// [`idw_naive`] with an explicit [`Threads`] config. Grid rows are
/// computed in parallel; output is bit-identical for any thread count.
pub fn idw_naive_threads(
    samples: &[(Point, f64)],
    spec: GridSpec,
    power: f64,
    threads: Threads,
) -> DensityGrid {
    assert!(power > 0.0, "power must be positive");
    let _span = obs::span("interp.idw_naive");
    let mut grid = DensityGrid::zeros(spec);
    if samples.is_empty() {
        return grid;
    }
    let soa = PointsSoA::from_samples(samples);
    with_weight!(power, |weight| {
        par_map_rows(grid.values_mut(), spec.nx, threads, |iy, row| {
            let qy = spec.row_y(iy);
            // (qy − y_i)² is shared by every pixel of the row; hoist it.
            let dy2: Vec<f64> = soa
                .ys
                .iter()
                .map(|y| {
                    let dy = qy - *y;
                    dy * dy
                })
                .collect();
            for (ix, out) in row.iter_mut().enumerate() {
                *out = idw_from_cols(&soa.xs, &dy2, &soa.ws, spec.col_x(ix), weight, power);
            }
            obs::add(Counter::InterpPairs, (soa.xs.len() * row.len()) as u64);
        })
    });
    grid
}

/// IDW estimate at one query from columnar samples, with the y-leg of
/// the squared distance precomputed. Same fold order and exact-hit
/// short-circuit as the point-at-a-time loop it replaced; a non-finite
/// or vanished accumulator diverts to the [`idw_stable`] repair pass.
fn idw_from_cols(
    xs: &[f64],
    dy2: &[f64],
    zs: &[f64],
    qx: f64,
    weight: impl Fn(f64) -> f64,
    power: f64,
) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for ((x, d), z) in xs.iter().zip(dy2).zip(zs) {
        let dx = qx - *x;
        let d2 = dx * dx + *d;
        if d2 == 0.0 {
            return *z;
        }
        let w = weight(d2);
        num += w * z;
        den += w;
    }
    if num.is_finite() && den.is_finite() && den > 0.0 {
        num / den
    } else {
        obs::incr(Counter::NumericAnomalies);
        let pairs: Vec<(f64, f64)> = xs
            .iter()
            .zip(dy2)
            .zip(zs)
            .map(|((x, d), z)| {
                let dx = qx - *x;
                (dx * dx + *d, *z)
            })
            .collect();
        idw_stable(&pairs, power)
    }
}

/// Numerically robust IDW fallback, used only after the fast
/// accumulation over- or underflowed. Weights are formed in log space
/// (`ln w = −(power/2)·ln d2`, finite for every positive `d2`) and
/// rescaled by the maximum, which preserves weight *ratios* even where
/// `d2^(−power/2)` itself is `inf` or `0`. Callers guarantee `pairs`
/// is non-empty and every `d2 > 0` (exact hits short-circuit earlier).
fn idw_stable(pairs: &[(f64, f64)], power: f64) -> f64 {
    debug_assert!(!pairs.is_empty());
    let lw = |d2: f64| -0.5 * power * d2.ln();
    let lmax = pairs
        .iter()
        .map(|(d2, _)| lw(*d2))
        .fold(f64::NEG_INFINITY, f64::max);
    if lmax == f64::NEG_INFINITY {
        // Every d2 overflowed to +inf: all weights vanish together, so
        // the only defensible estimate left is the unweighted mean.
        let n = pairs.len() as f64;
        return pairs.iter().map(|(_, z)| *z).sum::<f64>() / n;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (d2, z) in pairs {
        let r = (lw(*d2) - lmax).exp(); // in [0, 1]; the nearest sample gets 1
        num += r * z;
        den += r;
    }
    num / den
}

/// Local IDW over the `k` nearest samples (Shepard's local method) via a
/// kd-tree: `O(X·Y·(k + log n))`.
pub fn idw_knn(samples: &[(Point, f64)], spec: GridSpec, power: f64, k: usize) -> DensityGrid {
    idw_knn_threads(samples, spec, power, k, Threads::auto())
}

/// [`idw_knn`] with an explicit [`Threads`] config. Grid rows are
/// computed in parallel; output is bit-identical for any thread count.
pub fn idw_knn_threads(
    samples: &[(Point, f64)],
    spec: GridSpec,
    power: f64,
    k: usize,
    threads: Threads,
) -> DensityGrid {
    assert!(power > 0.0, "power must be positive");
    assert!(k >= 1, "k must be at least 1");
    let _span = obs::span("interp.idw_knn");
    let mut grid = DensityGrid::zeros(spec);
    if samples.is_empty() {
        return grid;
    }
    let pts: Vec<Point> = samples.iter().map(|(p, _)| *p).collect();
    let tree = KdTree::build(&pts);
    with_weight!(power, |weight| {
        par_map_rows(grid.values_mut(), spec.nx, threads, |iy, row| {
            let qy = spec.row_y(iy);
            // Row-local neighbour columns, reused across the row's pixels.
            let mut nxs: Vec<f64> = Vec::with_capacity(k);
            let mut nys: Vec<f64> = Vec::with_capacity(k);
            let mut nzs: Vec<f64> = Vec::with_capacity(k);
            let mut gathered: u64 = 0;
            for (ix, out) in row.iter_mut().enumerate() {
                let q = Point::new(spec.col_x(ix), qy);
                let nbrs = tree.knn(&q, k);
                gathered += nbrs.len() as u64;
                nxs.clear();
                nys.clear();
                nzs.clear();
                for (i, _) in &nbrs {
                    let (p, z) = samples[*i as usize];
                    nxs.push(p.x);
                    nys.push(p.y);
                    nzs.push(z);
                }
                *out = idw_gathered(&nxs, &nys, &nzs, q.x, q.y, weight, power);
            }
            obs::add(Counter::InterpPairs, gathered);
        })
    });
    grid
}

/// IDW estimate at one query from gathered neighbour columns —
/// bit-identical to [`idw_from_cols`] for the same sample order.
fn idw_gathered(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qx: f64,
    qy: f64,
    weight: impl Fn(f64) -> f64,
    power: f64,
) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for ((x, y), z) in xs.iter().zip(ys).zip(zs) {
        let dx = qx - *x;
        let dy = qy - *y;
        let d2 = dx * dx + dy * dy;
        if d2 == 0.0 {
            return *z;
        }
        let w = weight(d2);
        num += w * z;
        den += w;
    }
    if num.is_finite() && den.is_finite() && den > 0.0 {
        num / den
    } else {
        obs::incr(Counter::NumericAnomalies);
        let pairs: Vec<(f64, f64)> = xs
            .iter()
            .zip(ys)
            .zip(zs)
            .map(|((x, y), z)| {
                let dx = qx - *x;
                let dy = qy - *y;
                (dx * dx + dy * dy, *z)
            })
            .collect();
        idw_stable(&pairs, power)
    }
}

/// Local IDW over the samples within `radius` (bucket grid). Pixels with
/// no sample in range fall back to the single nearest sample, so the
/// surface is total.
pub fn idw_radius(
    samples: &[(Point, f64)],
    spec: GridSpec,
    power: f64,
    radius: f64,
) -> DensityGrid {
    idw_radius_threads(samples, spec, power, radius, Threads::auto())
}

/// [`idw_radius`] with an explicit [`Threads`] config. Grid rows are
/// computed in parallel, each with its own candidate scratch buffer;
/// output is bit-identical for any thread count.
pub fn idw_radius_threads(
    samples: &[(Point, f64)],
    spec: GridSpec,
    power: f64,
    radius: f64,
    threads: Threads,
) -> DensityGrid {
    assert!(power > 0.0, "power must be positive");
    assert!(radius > 0.0, "radius must be positive");
    let _span = obs::span("interp.idw_radius");
    let mut grid = DensityGrid::zeros(spec);
    if samples.is_empty() {
        return grid;
    }
    let pts: Vec<Point> = samples.iter().map(|(p, _)| *p).collect();
    let index = GridIndex::build(&pts, radius);
    let tree = KdTree::build(&pts); // nearest-sample fallback
    let r2 = radius * radius;
    // Sample values in entry order, parallel to the index's coordinate
    // columns — the in-range filter and accumulation fuse into one scan.
    let ezs: Vec<f64> = index
        .entries()
        .iter()
        .map(|&i| samples[i as usize].1)
        .collect();
    let (exs, eys) = (index.entry_xs(), index.entry_ys());
    with_weight!(power, |weight| {
        par_map_rows(grid.values_mut(), spec.nx, threads, |iy, row| {
            let qy = spec.row_y(iy);
            let mut scanned: u64 = 0;
            for (ix, out) in row.iter_mut().enumerate() {
                let qx = spec.col_x(ix);
                let (cx0, cx1) = index.cell_col_range(qx - radius, qx + radius);
                let (cy0, cy1) = index.cell_row_range(qy - radius, qy + radius);
                let mut num = 0.0;
                let mut den = 0.0;
                let mut any = false;
                let mut exact = None;
                'cells: for cy in cy0..=cy1 {
                    for k in index.row_span(cy, cx0, cx1) {
                        scanned += 1;
                        let dx = qx - exs[k];
                        let dy = qy - eys[k];
                        let d2 = dx * dx + dy * dy;
                        if d2 <= r2 {
                            let z = ezs[k];
                            if d2 == 0.0 {
                                exact = Some(z);
                                break 'cells;
                            }
                            any = true;
                            let w = weight(d2);
                            num += w * z;
                            den += w;
                        }
                    }
                }
                *out = if let Some(z) = exact {
                    z
                } else if !any {
                    let q = Point::new(qx, qy);
                    let nn = tree.knn(&q, 1);
                    samples[nn[0].0 as usize].1
                } else if num.is_finite() && den.is_finite() && den > 0.0 {
                    num / den
                } else {
                    // Rare repair pass: rescan the same spans with the
                    // log-space accumulation. `exact` is None here, so
                    // every in-range d2 is positive.
                    obs::incr(Counter::NumericAnomalies);
                    let mut pairs: Vec<(f64, f64)> = Vec::new();
                    for cy in cy0..=cy1 {
                        for k in index.row_span(cy, cx0, cx1) {
                            let dx = qx - exs[k];
                            let dy = qy - eys[k];
                            let d2 = dx * dx + dy * dy;
                            if d2 <= r2 {
                                pairs.push((d2, ezs[k]));
                            }
                        }
                    }
                    idw_stable(&pairs, power)
                };
            }
            obs::add(Counter::InterpPairs, scanned);
        })
    });
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsga_core::BBox;

    fn samples() -> Vec<(Point, f64)> {
        (0..60)
            .map(|i| {
                let f = i as f64;
                let p = Point::new(
                    50.0 + (f * 0.831).sin() * 45.0,
                    50.0 + (f * 0.557).cos() * 45.0,
                );
                // A smooth underlying field.
                let z = 10.0 + 0.1 * p.x + 0.05 * p.y;
                (p, z)
            })
            .collect()
    }

    fn spec() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 100.0, 100.0), 20, 20)
    }

    #[test]
    fn prediction_within_sample_range() {
        let s = samples();
        let grid = idw_naive(&s, spec(), 2.0);
        let zmin = s.iter().map(|(_, z)| *z).fold(f64::INFINITY, f64::min);
        let zmax = s.iter().map(|(_, z)| *z).fold(f64::NEG_INFINITY, f64::max);
        for v in grid.values() {
            assert!(*v >= zmin - 1e-9 && *v <= zmax + 1e-9);
        }
    }

    #[test]
    fn exact_hit_returns_sample_value() {
        // Put a sample exactly on a pixel centre.
        let spec = GridSpec::new(BBox::new(0.0, 0.0, 4.0, 4.0), 4, 4);
        let s = vec![(Point::new(1.5, 2.5), 7.0), (Point::new(3.0, 3.0), 1.0)];
        let grid = idw_naive(&s, spec, 2.0);
        assert_eq!(grid.at(1, 2), 7.0);
    }

    #[test]
    fn knn_with_full_k_equals_naive() {
        let s = samples();
        let naive = idw_naive(&s, spec(), 2.0);
        let knn = idw_knn(&s, spec(), 2.0, s.len());
        assert!(naive.linf_diff(&knn) < 1e-9);
    }

    #[test]
    fn knn_close_to_naive_for_moderate_k() {
        let s = samples();
        let naive = idw_naive(&s, spec(), 3.0);
        let knn = idw_knn(&s, spec(), 3.0, 12);
        // Distant samples carry little weight at power 3.
        let rel = knn.rel_diff(&naive, 1.0);
        assert!(rel < 0.1, "rel {rel}");
    }

    #[test]
    fn radius_variant_total_and_reasonable() {
        let s = samples();
        let grid = idw_radius(&s, spec(), 2.0, 20.0);
        let zmin = s.iter().map(|(_, z)| *z).fold(f64::INFINITY, f64::min);
        let zmax = s.iter().map(|(_, z)| *z).fold(f64::NEG_INFINITY, f64::max);
        for v in grid.values() {
            assert!(*v >= zmin - 1e-9 && *v <= zmax + 1e-9);
        }
    }

    #[test]
    fn empty_samples_give_zero_grid() {
        assert_eq!(idw_naive(&[], spec(), 2.0).sum(), 0.0);
        assert_eq!(idw_knn(&[], spec(), 2.0, 3).sum(), 0.0);
        assert_eq!(idw_radius(&[], spec(), 2.0, 5.0).sum(), 0.0);
    }

    #[test]
    fn single_sample_constant_surface() {
        let s = vec![(Point::new(50.0, 50.0), 42.0)];
        let grid = idw_naive(&s, spec(), 2.0);
        for v in grid.values() {
            assert!((*v - 42.0).abs() < 1e-9, "got {v}");
        }
    }

    #[test]
    fn near_coincident_samples_do_not_produce_nan() {
        // The headline bug: samples at x = 1e-160 and 2e-160 give the
        // centre pixel (query at the origin) d² ≈ 1e-320, so
        // w = d2^(−power/2) overflows to +inf for power ≥ 2 and the
        // old accumulation returned inf/inf = NaN. The repair path
        // must keep every pixel finite and within the sample range.
        for power in [1.0, 2.0, 4.0] {
            let s = vec![
                (Point::new(1e-160, 0.0), 3.0),
                (Point::new(2e-160, 0.0), 5.0),
            ];
            let spec = GridSpec::new(BBox::new(-1.0, -1.0, 1.0, 1.0), 3, 3);
            let naive = idw_naive(&s, spec, power);
            let knn = idw_knn(&s, spec, power, 2);
            let radius = idw_radius(&s, spec, power, 4.0);
            for g in [&naive, &knn, &radius] {
                for v in g.values() {
                    assert!(v.is_finite(), "power {power}: got {v}");
                    assert!(
                        *v >= 3.0 - 1e-9 && *v <= 5.0 + 1e-9,
                        "power {power}: got {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn repair_preserves_weight_ratios() {
        // At the origin, d₁² ≈ 1e-320 and d₂² ≈ 4e-320: the power-2
        // weight ratio is ≈ 4:1, i.e. the estimate ≈ (4·3 + 5)/5 =
        // 3.4. The log-space repair must reproduce the ratio between
        // the actual (subnormal) squared distances even though both
        // raw weights are +inf.
        let s = vec![
            (Point::new(1e-160, 0.0), 3.0),
            (Point::new(2e-160, 0.0), 5.0),
        ];
        let spec = GridSpec::new(BBox::new(-1.0, -1.0, 1.0, 1.0), 3, 3);
        let grid = idw_naive(&s, spec, 2.0);
        let s1 = 1e-160_f64 * 1e-160;
        let s2 = 2e-160_f64 * 2e-160;
        let r = (s1.ln() - s2.ln()).exp(); // w₂/w₁ at power 2
        let expect = (3.0 + r * 5.0) / (1.0 + r);
        assert!((expect - 3.4).abs() < 1e-3, "repro drifted: {expect}");
        assert!(
            (grid.at(1, 1) - expect).abs() < 1e-12,
            "got {}, expect {expect}",
            grid.at(1, 1)
        );
    }

    #[test]
    fn underflowing_separation_is_an_exact_hit() {
        // |q − p| = 1e-200 ⇒ d² underflows to exactly 0.0. Documented
        // semantics: treated as an exact hit, first sample in fold
        // order wins.
        let spec = GridSpec::new(BBox::new(-1.0, -1.0, 1.0, 1.0), 3, 3);
        let s = vec![
            (Point::new(1e-200, 0.0), 7.0),
            (Point::new(-1e-200, 0.0), 9.0),
        ];
        let grid = idw_naive(&s, spec, 2.0);
        assert_eq!(grid.at(1, 1), 7.0);
    }

    #[test]
    fn all_weights_underflowing_fall_back_to_mean() {
        // Samples ~1e170 away: d² overflows to +inf, every weight is
        // exactly 0, and the old code returned the bogus constant 0.0.
        // The repair yields the unweighted mean instead.
        let spec = GridSpec::new(BBox::new(-1.0, -1.0, 1.0, 1.0), 3, 3);
        let s = vec![
            (Point::new(1e170, 0.0), 2.0),
            (Point::new(-1e170, 0.0), 4.0),
        ];
        let grid = idw_naive(&s, spec, 2.0);
        for v in grid.values() {
            assert!((*v - 3.0).abs() < 1e-9, "got {v}");
        }
    }

    #[test]
    fn recovers_smooth_field_approximately() {
        let s = samples();
        let grid = idw_knn(&s, spec(), 2.0, 8);
        // Check the centre pixel against the generating field.
        let q = spec().pixel_center(10, 10);
        let truth = 10.0 + 0.1 * q.x + 0.05 * q.y;
        let got = grid.at(10, 10);
        assert!((got - truth).abs() < 2.0, "got {got}, truth {truth}");
    }
}
