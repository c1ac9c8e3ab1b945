//! Property tests: interpolation laws on arbitrary inputs.

use lsga_core::{BBox, GridSpec, Point};
use lsga_interp::{
    empirical_variogram, fit_variogram, idw_knn, idw_naive, idw_radius, ordinary_kriging,
    VariogramModel, VariogramModelKind,
};
use proptest::prelude::*;

fn arb_samples(min: usize, max: usize) -> impl Strategy<Value = Vec<(Point, f64)>> {
    prop::collection::vec(
        (0.0f64..100.0, 0.0f64..100.0, -50.0f64..50.0).prop_map(|(x, y, z)| (Point::new(x, y), z)),
        min..max,
    )
    .prop_map(|mut v| {
        // Kriging requires distinct locations: drop near-duplicates.
        v.sort_by(|a, b| a.0.x.total_cmp(&b.0.x).then(a.0.y.total_cmp(&b.0.y)));
        v.dedup_by(|a, b| a.0.dist(&b.0) < 1e-6);
        v
    })
}

fn spec() -> GridSpec {
    GridSpec::new(BBox::new(0.0, 0.0, 100.0, 100.0), 8, 8)
}

/// The `powf` fold that power-2 IDW replaced with reciprocal weights,
/// over `samples` in order. The exponent goes through `black_box` so
/// the compiler cannot rewrite `pow(d2, -1)` as `1 / d2` here too.
fn powf_idw(samples: &[(Point, f64)], q: Point) -> f64 {
    let e = std::hint::black_box(-0.5 * 2.0f64);
    let (mut num, mut den) = (0.0, 0.0);
    for (p, z) in samples {
        let d2 = p.dist_sq(&q);
        if d2 == 0.0 {
            return *z;
        }
        let w = d2.powf(e);
        num += w * z;
        den += w;
    }
    num / den
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn idw_is_a_convex_combination(samples in arb_samples(1, 40), power in 0.5f64..4.0) {
        let zmin = samples.iter().map(|(_, z)| *z).fold(f64::INFINITY, f64::min);
        let zmax = samples.iter().map(|(_, z)| *z).fold(f64::NEG_INFINITY, f64::max);
        for grid in [
            idw_naive(&samples, spec(), power),
            idw_knn(&samples, spec(), power, 5),
        ] {
            for v in grid.values() {
                prop_assert!(*v >= zmin - 1e-9 && *v <= zmax + 1e-9);
            }
        }
    }

    #[test]
    fn idw_power_two_matches_powf_fold(
        samples in arb_samples(1, 40),
        hits in prop::collection::vec(0usize..64, 0..4),
    ) {
        // Some samples sit exactly on pixel centres: those pixels must
        // return the sample bit for bit.
        let mut samples = samples;
        let mut hits = hits;
        hits.sort_unstable();
        hits.dedup();
        for (n, h) in hits.iter().enumerate() {
            samples.push((spec().pixel_center(h % 8, h / 8), 0.1 - 7.3 * n as f64));
        }
        let zscale = samples.iter().map(|(_, z)| z.abs()).fold(1.0, f64::max);
        let (k, radius) = (5, 30.0);
        let naive = idw_naive(&samples, spec(), 2.0);
        let knn = idw_knn(&samples, spec(), 2.0, k);
        let local = idw_radius(&samples, spec(), 2.0, radius);
        for iy in 0..8 {
            for ix in 0..8 {
                let q = spec().pixel_center(ix, iy);
                let mut by_dist = samples.clone();
                by_dist.sort_by(|a, b| a.0.dist_sq(&q).total_cmp(&b.0.dist_sq(&q)));
                // Hits sit on the pixel lattice and can tie in distance;
                // a tie at the cut leaves the neighbour set undefined.
                let cut_ties = |n: usize| {
                    n < by_dist.len() && by_dist[n - 1].0.dist_sq(&q) == by_dist[n].0.dist_sq(&q)
                };
                let in_range: Vec<(Point, f64)> = samples
                    .iter()
                    .filter(|(p, _)| p.dist_sq(&q) <= radius * radius)
                    .copied()
                    .collect();
                let mut checks = vec![("naive", naive.at(ix, iy), powf_idw(&samples, q))];
                if !cut_ties(k) {
                    checks.push(("knn", knn.at(ix, iy), powf_idw(&by_dist[..k.min(by_dist.len())], q)));
                }
                if !in_range.is_empty() {
                    checks.push(("radius", local.at(ix, iy), powf_idw(&in_range, q)));
                } else if !cut_ties(1) {
                    checks.push(("radius", local.at(ix, iy), by_dist[0].1));
                }
                if let Some(h) = hits.iter().position(|h| *h == iy * 8 + ix) {
                    let z = samples[samples.len() - hits.len() + h].1;
                    for got in [naive.at(ix, iy), knn.at(ix, iy), local.at(ix, iy)] {
                        prop_assert_eq!(got.to_bits(), z.to_bits(), "hit ({}, {})", ix, iy);
                    }
                }
                // 1e-12 relative to the largest |z|, which bounds every
                // estimate (each is a convex combination of samples).
                for (name, got, want) in checks {
                    prop_assert!(
                        (got - want).abs() <= 1e-12 * zscale,
                        "{} ({}, {}): {} vs powf {}", name, ix, iy, got, want
                    );
                }
            }
        }
    }

    #[test]
    fn idw_translation_equivariant_in_values(
        samples in arb_samples(2, 30),
        power in 1.0f64..3.0,
        shift in -20.0f64..20.0,
    ) {
        let shifted: Vec<(Point, f64)> = samples.iter().map(|(p, z)| (*p, z + shift)).collect();
        let a = idw_naive(&samples, spec(), power);
        let b = idw_naive(&shifted, spec(), power);
        for (x, y) in a.values().iter().zip(b.values()) {
            prop_assert!((y - x - shift).abs() < 1e-7);
        }
    }

    #[test]
    fn variogram_models_well_behaved(
        nugget in 0.0f64..10.0,
        psill in 0.0f64..50.0,
        range in 0.5f64..100.0,
        kind_i in 0usize..3,
    ) {
        let kinds = [
            VariogramModelKind::Spherical,
            VariogramModelKind::Exponential,
            VariogramModelKind::Gaussian,
        ];
        let m = VariogramModel { kind: kinds[kind_i], nugget, psill, range };
        let mut last = m.gamma(0.0);
        prop_assert!((last - nugget).abs() < 1e-12);
        let mut h = 0.0;
        while h < 3.0 * range {
            h += range / 25.0;
            let g = m.gamma(h);
            prop_assert!(g >= last - 1e-9, "gamma not monotone");
            prop_assert!(g <= m.sill() + 1e-9);
            last = g;
        }
    }

    #[test]
    fn kriging_exact_at_samples_and_bounded_variance(samples in arb_samples(3, 25)) {
        prop_assume!(samples.len() >= 3);
        let bins = empirical_variogram(&samples, 80.0, 8);
        prop_assume!(bins.len() >= 3);
        let model = fit_variogram(&bins, VariogramModelKind::Exponential);
        prop_assume!(model.is_some());
        let model = model.unwrap();
        prop_assume!(model.sill() > 1e-9);
        if let Ok(out) = ordinary_kriging(&samples, spec(), &model, 8) {
            for v in out.variance.values() {
                prop_assert!(*v >= 0.0);
                prop_assert!(v.is_finite());
            }
            for v in out.prediction.values() {
                prop_assert!(v.is_finite());
            }
        }
    }
}
