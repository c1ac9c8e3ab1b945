//! Ordinary kriging with local neighbourhoods.
//!
//! For each query, the `k` nearest samples form the ordinary kriging
//! system (semivariogram matrix bordered by the unbiasedness constraint);
//! solving it yields the BLUE weights and the kriging variance. Local
//! neighbourhoods keep the dense solve at `O(k³)` per pixel — the
//! standard scalability device that the GPU-kriging papers the paper
//! cites (\[36, 53, 109\]) also build on.

use crate::variogram::VariogramModel;
use lsga_core::linalg::{solve, Matrix};
use lsga_core::par::{par_map, Threads};
use lsga_core::soa::distances_sq_tile;
use lsga_core::{DensityGrid, GridSpec, LsgaError, Point, Result};
use lsga_index::KdTree;
use lsga_obs::{self as obs, Counter, Hist};

/// Kriging output: predicted surface and per-pixel kriging variance.
#[derive(Debug, Clone, PartialEq)]
pub struct KrigingPrediction {
    pub prediction: DensityGrid,
    pub variance: DensityGrid,
}

/// Ordinary kriging of `samples` onto `spec` using a fitted variogram
/// `model` and `neighborhood`-nearest samples per pixel.
///
/// Duplicate sample locations make the kriging matrix singular; such
/// inputs surface as [`LsgaError::SingularSystem`]. Fewer samples than
/// `neighborhood` simply uses them all; at least one sample is required
/// ([`LsgaError::EmptyDataset`]) and `neighborhood == 0` is
/// [`LsgaError::InvalidParameter`].
pub fn ordinary_kriging(
    samples: &[(Point, f64)],
    spec: GridSpec,
    model: &VariogramModel,
    neighborhood: usize,
) -> Result<KrigingPrediction> {
    ordinary_kriging_threads(samples, spec, model, neighborhood, Threads::auto())
}

/// [`ordinary_kriging`] with an explicit [`Threads`] config. Rows of
/// per-pixel solves run in parallel; a singular system anywhere reports
/// the error of the first failing row in row order, so both the surface
/// and the error are bit-identical for any thread count.
pub fn ordinary_kriging_threads(
    samples: &[(Point, f64)],
    spec: GridSpec,
    model: &VariogramModel,
    neighborhood: usize,
    threads: Threads,
) -> Result<KrigingPrediction> {
    if samples.is_empty() {
        return Err(LsgaError::EmptyDataset("kriging samples"));
    }
    if neighborhood == 0 {
        return Err(LsgaError::InvalidParameter {
            name: "neighborhood",
            message: "must be at least 1".into(),
        });
    }
    let _span = obs::span("interp.kriging");
    let pts: Vec<Point> = samples.iter().map(|(p, _)| *p).collect();
    let tree = KdTree::build(&pts);
    let mut prediction = DensityGrid::zeros(spec);
    let mut variance = DensityGrid::zeros(spec);
    let k = neighborhood.min(samples.len());

    let pts_ref = &pts;
    let tree_ref = &tree;
    let rows: Vec<Result<(Vec<f64>, Vec<f64>)>> = par_map(spec.ny, 1, threads, |iy| {
        let qy = spec.row_y(iy);
        let mut pred_row = vec![0.0; spec.nx];
        let mut var_row = vec![0.0; spec.nx];
        // Row-local neighbour coordinate columns and squared-distance
        // scratch, reused across the row's pixels.
        let mut nxs: Vec<f64> = Vec::with_capacity(k);
        let mut nys: Vec<f64> = Vec::with_capacity(k);
        let mut d2row: Vec<f64> = vec![0.0; k];
        let mut solves: u64 = 0;
        let mut weighed: u64 = 0;
        for ix in 0..spec.nx {
            let q = Point::new(spec.col_x(ix), qy);
            let nbrs = tree_ref.knn(&q, k);
            // Exact hit: prediction is the sample, variance the nugget.
            if let Some((i0, d0)) = nbrs.first() {
                if *d0 == 0.0 {
                    pred_row[ix] = samples[*i0 as usize].1;
                    var_row[ix] = model.nugget;
                    continue;
                }
            }
            let m = nbrs.len();
            if m == 1 {
                // Single sample: OK weights degenerate to copying it.
                let (i0, d0) = nbrs[0];
                pred_row[ix] = samples[i0 as usize].1;
                var_row[ix] = 2.0 * model.gamma(d0);
                continue;
            }
            // Ordinary kriging system:
            // [ Γ  1 ] [λ]   [γ(q)]
            // [ 1ᵀ 0 ] [μ] = [ 1  ]
            let mut a = Matrix::zeros(m + 1, m + 1);
            let mut rhs = vec![0.0; m + 1];
            nxs.clear();
            nys.clear();
            for (idx, _) in &nbrs {
                let p = pts_ref[*idx as usize];
                nxs.push(p.x);
                nys.push(p.y);
            }
            for r in 0..m {
                // One batched distance row per matrix row; γ stays on
                // d = √d², matching the scalar assembly bit-for-bit.
                distances_sq_tile(nxs[r], nys[r], &nxs, &nys, &mut d2row[..m]);
                for (c, d2) in d2row[..m].iter().enumerate() {
                    a.set(r, c, model.gamma(d2.sqrt()));
                }
                a.set(r, m, 1.0);
                a.set(m, r, 1.0);
                rhs[r] = model.gamma(nbrs[r].1);
            }
            rhs[m] = 1.0;
            let sol = solve(a, rhs.clone())?;
            solves += 1;
            weighed += m as u64;
            obs::record(Hist::KrigingSystemSize, (m + 1) as u64);
            let mut pred = 0.0;
            let mut var = sol[m]; // Lagrange multiplier μ
            for (r, (idx, _)) in nbrs.iter().enumerate() {
                pred += sol[r] * samples[*idx as usize].1;
                var += sol[r] * rhs[r];
            }
            if pred.is_finite() && var.is_finite() {
                pred_row[ix] = pred;
                var_row[ix] = var.max(0.0);
            } else {
                // Near-singular system: the solve succeeded but the
                // weights blew up. Repair like the m == 1 branch —
                // nearest sample, distance-based variance. (`var.max`
                // alone would silently turn a NaN variance into 0.)
                obs::incr(Counter::NumericAnomalies);
                let (i0, d0) = nbrs[0];
                pred_row[ix] = samples[i0 as usize].1;
                var_row[ix] = 2.0 * model.gamma(d0);
            }
        }
        obs::add(Counter::KrigingSolves, solves);
        obs::add(Counter::InterpPairs, weighed);
        Ok((pred_row, var_row))
    });
    for (iy, row) in rows.into_iter().enumerate() {
        let (pred_row, var_row) = row?;
        prediction.row_mut(iy).copy_from_slice(&pred_row);
        variance.row_mut(iy).copy_from_slice(&var_row);
    }
    Ok(KrigingPrediction {
        prediction,
        variance,
    })
}

/// Leave-one-out cross-validation of an interpolator over the samples:
/// for each sample, predict its value from all the others and return
/// the RMSE. `predict(training, location)` abstracts over IDW/kriging —
/// see [`loo_kriging_rmse`] and `lsga-interp::idw` for ready closures.
pub fn leave_one_out_rmse(
    samples: &[(Point, f64)],
    mut predict: impl FnMut(&[(Point, f64)], &Point) -> Result<f64>,
) -> Result<f64> {
    if samples.len() < 2 {
        return Err(LsgaError::EmptyDataset("need at least two samples for LOO"));
    }
    let mut sum_sq = 0.0;
    let mut held_out = Vec::with_capacity(samples.len() - 1);
    for i in 0..samples.len() {
        held_out.clear();
        held_out.extend_from_slice(&samples[..i]);
        held_out.extend_from_slice(&samples[i + 1..]);
        let pred = predict(&held_out, &samples[i].0)?;
        let e = pred - samples[i].1;
        sum_sq += e * e;
    }
    Ok((sum_sq / samples.len() as f64).sqrt())
}

/// LOO RMSE of ordinary kriging with the given model and neighbourhood —
/// the standard variogram-model selection criterion.
pub fn loo_kriging_rmse(
    samples: &[(Point, f64)],
    model: &VariogramModel,
    neighborhood: usize,
) -> Result<f64> {
    leave_one_out_rmse(samples, |training, q| {
        // One-pixel grid centred on the held-out location.
        let eps = 1e-6;
        let spec = lsga_core::GridSpec::new(
            lsga_core::BBox::new(q.x - eps, q.y - eps, q.x + eps, q.y + eps),
            1,
            1,
        );
        let out = ordinary_kriging(training, spec, model, neighborhood)?;
        Ok(out.prediction.at(0, 0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variogram::{empirical_variogram, fit_variogram, VariogramModelKind};
    use lsga_core::BBox;

    fn model() -> VariogramModel {
        VariogramModel {
            kind: VariogramModelKind::Spherical,
            nugget: 0.0,
            psill: 10.0,
            range: 30.0,
        }
    }

    fn smooth_samples() -> Vec<(Point, f64)> {
        let mut out = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let x = i as f64 * 10.0 + 2.0 * (((i * 3 + j) % 5) as f64 / 5.0);
                let y = j as f64 * 10.0 + 2.0 * (((i + j * 7) % 5) as f64 / 5.0);
                out.push((Point::new(x, y), 5.0 + 0.2 * x - 0.1 * y));
            }
        }
        out
    }

    fn spec() -> GridSpec {
        GridSpec::new(BBox::new(0.0, 0.0, 95.0, 95.0), 12, 12)
    }

    #[test]
    fn constant_field_reproduced_exactly() {
        let samples: Vec<(Point, f64)> = smooth_samples()
            .into_iter()
            .map(|(p, _)| (p, 3.5))
            .collect();
        let out = ordinary_kriging(&samples, spec(), &model(), 8).unwrap();
        for v in out.prediction.values() {
            assert!((v - 3.5).abs() < 1e-8, "got {v}");
        }
    }

    #[test]
    fn weights_sum_to_one_implies_mean_unbiasedness() {
        // Shifting all values by a constant must shift predictions by
        // the same constant (direct consequence of Σλ = 1).
        let s1 = smooth_samples();
        let s2: Vec<(Point, f64)> = s1.iter().map(|(p, z)| (*p, z + 100.0)).collect();
        let m = model();
        let a = ordinary_kriging(&s1, spec(), &m, 8).unwrap();
        let b = ordinary_kriging(&s2, spec(), &m, 8).unwrap();
        for (x, y) in a.prediction.values().iter().zip(b.prediction.values()) {
            assert!((y - x - 100.0).abs() < 1e-7);
        }
        // Variance is translation-invariant.
        assert!(a.variance.linf_diff(&b.variance) < 1e-7);
    }

    #[test]
    fn recovers_linear_trend() {
        let samples = smooth_samples();
        let out = ordinary_kriging(&samples, spec(), &model(), 12).unwrap();
        let q = spec().pixel_center(6, 6);
        let truth = 5.0 + 0.2 * q.x - 0.1 * q.y;
        let got = out.prediction.at(6, 6);
        assert!((got - truth).abs() < 1.0, "got {got}, truth {truth}");
    }

    #[test]
    fn variance_grows_away_from_samples() {
        // Samples only in the left half: variance must be larger on the
        // right edge than amid the samples.
        let samples: Vec<(Point, f64)> = smooth_samples()
            .into_iter()
            .filter(|(p, _)| p.x < 45.0)
            .collect();
        let out = ordinary_kriging(&samples, spec(), &model(), 8).unwrap();
        let near = out.variance.at(2, 6);
        let far = out.variance.at(11, 6);
        assert!(far > near, "near {near}, far {far}");
        for v in out.variance.values() {
            assert!(*v >= 0.0);
        }
    }

    #[test]
    fn end_to_end_with_fitted_variogram() {
        let samples = smooth_samples();
        let bins = empirical_variogram(&samples, 50.0, 12);
        let fitted = fit_variogram(&bins, VariogramModelKind::Exponential).unwrap();
        let out = ordinary_kriging(&samples, spec(), &fitted, 10).unwrap();
        // Predictions stay within a loose hull of the sample values.
        let zmin = samples
            .iter()
            .map(|(_, z)| *z)
            .fold(f64::INFINITY, f64::min);
        let zmax = samples
            .iter()
            .map(|(_, z)| *z)
            .fold(f64::NEG_INFINITY, f64::max);
        for v in out.prediction.values() {
            assert!(*v > zmin - 5.0 && *v < zmax + 5.0);
        }
    }

    #[test]
    fn loo_prefers_the_better_model() {
        // LOO RMSE must be small for a sensible fitted model and finite.
        let samples = smooth_samples();
        let bins = empirical_variogram(&samples, 50.0, 12);
        let good = fit_variogram(&bins, VariogramModelKind::Spherical).unwrap();
        let rmse = loo_kriging_rmse(&samples, &good, 10).unwrap();
        assert!(rmse < 1.0, "LOO RMSE {rmse}");
        // A nonsense model (tiny range -> pure nugget behaviour) is worse.
        let bad = VariogramModel {
            kind: VariogramModelKind::Spherical,
            nugget: 50.0,
            psill: 0.1,
            range: 0.5,
        };
        let rmse_bad = loo_kriging_rmse(&samples, &bad, 10).unwrap();
        assert!(rmse_bad > rmse, "good {rmse} vs bad {rmse_bad}");
    }

    #[test]
    fn loo_needs_two_samples() {
        let one = vec![(Point::new(0.0, 0.0), 1.0)];
        assert!(leave_one_out_rmse(&one, |_, _| Ok(0.0)).is_err());
    }

    #[test]
    fn empty_samples_error() {
        assert!(matches!(
            ordinary_kriging(&[], spec(), &model(), 4),
            Err(LsgaError::EmptyDataset(_))
        ));
    }

    #[test]
    fn zero_neighborhood_is_invalid_parameter() {
        let r = ordinary_kriging(&smooth_samples(), spec(), &model(), 0);
        assert!(
            matches!(
                r,
                Err(LsgaError::InvalidParameter {
                    name: "neighborhood",
                    ..
                })
            ),
            "{r:?}"
        );
    }

    #[test]
    fn duplicate_samples_reported_singular() {
        let dup = vec![
            (Point::new(10.0, 10.0), 1.0),
            (Point::new(10.0, 10.0), 2.0),
            (Point::new(30.0, 30.0), 3.0),
        ];
        let r = ordinary_kriging(&dup, spec(), &model(), 3);
        assert!(matches!(r, Err(LsgaError::SingularSystem(_))), "{r:?}");
    }

    #[test]
    fn exact_hits_have_nugget_variance() {
        let spec = GridSpec::new(BBox::new(0.0, 0.0, 4.0, 4.0), 4, 4);
        let samples = vec![
            (Point::new(0.5, 0.5), 2.0),
            (Point::new(3.5, 3.5), 4.0),
            (Point::new(0.5, 3.5), 6.0),
        ];
        let m = model();
        let out = ordinary_kriging(&samples, spec, &m, 3).unwrap();
        assert_eq!(out.prediction.at(0, 0), 2.0);
        assert_eq!(out.variance.at(0, 0), m.nugget);
    }
}
