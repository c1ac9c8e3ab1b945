//! Range-query-based K-function methods (paper §2.3).
//!
//! The paper frames the K-function as `K_P(s) = Σ_i |R(p_i)|` over range
//! sets `R(p_i) = {p_j : dist ≤ s}` served by an index. Three index
//! back-ends are provided (grid, kd-tree, ball-tree), plus the
//! *distance-histogram* evaluation that answers **all `D` thresholds of a
//! K-function plot in one pass** — the computational sharing that makes
//! Definition 3's `(L+1) × D` evaluations tractable.

use crate::parallel::POINT_CHUNK;
use crate::KConfig;
use lsga_core::par::{par_reduce, Threads};
use lsga_core::soa::{distances_sq_tile, TILE};
use lsga_core::Point;
use lsga_index::{BallTree, GridIndex, KdTree, RTree};
use lsga_obs::{self as obs, Counter};

/// K-function via a bucket-grid range count per point.
pub fn grid_k(points: &[Point], s: f64, cfg: KConfig) -> u64 {
    if points.is_empty() {
        return 0;
    }
    let index = GridIndex::build(points, s.max(1e-12));
    let mut count = 0u64;
    for p in points {
        count += index.count_within(p, s) as u64;
    }
    finish_ordered_count(count, points.len(), cfg)
}

/// K-function via kd-tree range counts.
pub fn kd_tree_k(points: &[Point], s: f64, cfg: KConfig) -> u64 {
    let tree = KdTree::build(points);
    let mut count = 0u64;
    for p in points {
        count += tree.range_count(p, s) as u64;
    }
    finish_ordered_count(count, points.len(), cfg)
}

/// K-function via STR R-tree range counts.
pub fn rtree_k(points: &[Point], s: f64, cfg: KConfig) -> u64 {
    let tree = RTree::build(points);
    let mut count = 0u64;
    for p in points {
        count += tree.range_count(p, s) as u64;
    }
    finish_ordered_count(count, points.len(), cfg)
}

/// K-function via ball-tree range counts.
pub fn ball_tree_k(points: &[Point], s: f64, cfg: KConfig) -> u64 {
    let tree = BallTree::build(points);
    let mut count = 0u64;
    for p in points {
        count += tree.range_count(p, s) as u64;
    }
    finish_ordered_count(count, points.len(), cfg)
}

/// Per-point range counts include the query point itself (distance 0);
/// correct to the configured self-pair convention.
#[inline]
fn finish_ordered_count(raw: u64, n: usize, cfg: KConfig) -> u64 {
    if cfg.include_self {
        raw
    } else {
        raw - n as u64
    }
}

/// Evaluate the K-function at **every** threshold in one shared pass.
///
/// `thresholds` may be in any order; results are returned in input
/// order. One grid-pruned sweep enumerates each unordered pair within
/// `max(thresholds)` once, buckets its distance, and a cumulative sum
/// yields all `D` values — `O(pairs(s_max) + D)` instead of
/// `O(D · pairs(s_max))`.
pub fn histogram_k_all(points: &[Point], thresholds: &[f64], cfg: KConfig) -> Vec<u64> {
    histogram_k_all_threads(points, thresholds, cfg, Threads::auto())
}

/// [`histogram_k_all`] with an explicit [`Threads`] config. The pair
/// sweep runs over parallel chunks of source points, taken in the
/// index's entry order, whose per-chunk histograms are summed in chunk
/// order — integer counts, so the result is identical for any thread
/// count. A source scans only the candidates after it in entry order;
/// two points within `s_max` lie in each other's cell window, so each
/// unordered pair is still seen exactly once.
pub fn histogram_k_all_threads(
    points: &[Point],
    thresholds: &[f64],
    cfg: KConfig,
    threads: Threads,
) -> Vec<u64> {
    if thresholds.is_empty() {
        return Vec::new();
    }
    let _span = obs::span("kfunc.histogram");
    let n = points.len();
    let self_term = if cfg.include_self { n as u64 } else { 0 };
    if n == 0 {
        return vec![0; thresholds.len()];
    }

    // Ascending thresholds with input-order mapping.
    let mut order: Vec<usize> = (0..thresholds.len()).collect();
    order.sort_by(|a, b| thresholds[*a].total_cmp(&thresholds[*b]));
    let sorted: Vec<f64> = order.iter().map(|&i| thresholds[i]).collect();
    let s_max = *sorted.last().unwrap();
    let s_max2 = s_max * s_max;

    // Histogram over "first threshold covering this pair distance".
    let index = GridIndex::build(points, s_max.max(1e-12));
    let sorted_ref = &sorted;
    let index_ref = &index;
    let hist = par_reduce(
        n,
        POINT_CHUNK,
        threads,
        vec![0u64; sorted.len()],
        |range| {
            let mut local = vec![0u64; sorted_ref.len()];
            let mut scanned: u64 = 0;
            // Tile scratch for batched squared distances. Bucketing
            // still compares on d = sqrt(d2), exactly as the scalar
            // loop did — switching the comparison to d² could flip
            // boundary ties through sqrt rounding.
            let mut d2s = [0.0f64; TILE];
            let exs = index_ref.entry_xs();
            let eys = index_ref.entry_ys();
            for k in range {
                let (px, py) = (exs[k], eys[k]);
                let (cx0, cx1) = index_ref.cell_col_range(px - s_max, px + s_max);
                let (cy0, cy1) = index_ref.cell_row_range(py - s_max, py + s_max);
                for cy in cy0..=cy1 {
                    // Each unordered pair once: partners after the source.
                    let span = index_ref.row_span(cy, cx0, cx1);
                    let mut s0 = span.start.max(k + 1);
                    while s0 < span.end {
                        let s1 = (s0 + TILE).min(span.end);
                        let len = s1 - s0;
                        scanned += len as u64;
                        distances_sq_tile(px, py, &exs[s0..s1], &eys[s0..s1], &mut d2s[..len]);
                        for &d2 in &d2s[..len] {
                            if d2 <= s_max2 {
                                let d = d2.sqrt();
                                let bucket = sorted_ref.partition_point(|t| *t < d);
                                if bucket < local.len() {
                                    local[bucket] += 2; // ordered pairs
                                }
                            }
                        }
                        s0 = s1;
                    }
                }
            }
            obs::add(Counter::KfuncPairs, scanned);
            local
        },
        |mut acc, part| {
            for (a, p) in acc.iter_mut().zip(&part) {
                *a += p;
            }
            acc
        },
    );
    // Cumulate and un-permute.
    let mut out = vec![0u64; thresholds.len()];
    let mut acc = self_term;
    for (rank, &input_pos) in order.iter().enumerate() {
        acc += hist[rank];
        out[input_pos] = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_k;

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                Point::new((f * 0.831).sin() * 30.0, (f * 0.557).cos() * 30.0)
            })
            .collect()
    }

    #[test]
    fn all_backends_match_naive() {
        let pts = scatter(250);
        for cfg in [
            KConfig {
                include_self: false,
            },
            KConfig { include_self: true },
        ] {
            for s in [0.1, 2.0, 11.0, 100.0] {
                let want = naive_k(&pts, s, cfg);
                assert_eq!(grid_k(&pts, s, cfg), want, "grid s={s}");
                assert_eq!(kd_tree_k(&pts, s, cfg), want, "kd s={s}");
                assert_eq!(ball_tree_k(&pts, s, cfg), want, "ball s={s}");
                assert_eq!(rtree_k(&pts, s, cfg), want, "rtree s={s}");
            }
        }
    }

    #[test]
    fn histogram_matches_naive_at_every_threshold() {
        let pts = scatter(200);
        let thresholds = [0.5, 1.0, 3.0, 7.0, 15.0, 40.0];
        for cfg in [
            KConfig {
                include_self: false,
            },
            KConfig { include_self: true },
        ] {
            let all = histogram_k_all(&pts, &thresholds, cfg);
            for (t, got) in thresholds.iter().zip(&all) {
                assert_eq!(*got, naive_k(&pts, *t, cfg), "t={t}");
            }
        }
    }

    #[test]
    fn histogram_handles_unsorted_thresholds() {
        let pts = scatter(100);
        let cfg = KConfig::default();
        let shuffled = [15.0, 0.5, 7.0];
        let got = histogram_k_all(&pts, &shuffled, cfg);
        assert_eq!(got[0], naive_k(&pts, 15.0, cfg));
        assert_eq!(got[1], naive_k(&pts, 0.5, cfg));
        assert_eq!(got[2], naive_k(&pts, 7.0, cfg));
    }

    #[test]
    fn histogram_monotone_when_sorted() {
        let pts = scatter(150);
        let ts: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let ks = histogram_k_all(&pts, &ts, KConfig::default());
        for w in ks.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn empty_inputs() {
        let cfg = KConfig::default();
        assert_eq!(grid_k(&[], 1.0, cfg), 0);
        assert_eq!(kd_tree_k(&[], 1.0, cfg), 0);
        assert_eq!(ball_tree_k(&[], 1.0, cfg), 0);
        assert_eq!(histogram_k_all(&[], &[1.0], cfg), vec![0]);
        assert!(histogram_k_all(&scatter(5), &[], cfg).is_empty());
    }

    #[test]
    fn duplicates_and_boundary_distances() {
        // Points at exact threshold distances.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(0.0, 4.0),
            Point::new(0.0, 0.0), // duplicate
        ];
        let cfg = KConfig::default();
        for s in [0.0, 3.0, 4.0, 5.0] {
            assert_eq!(grid_k(&pts, s, cfg), naive_k(&pts, s, cfg), "s={s}");
            assert_eq!(
                histogram_k_all(&pts, &[s], cfg)[0],
                naive_k(&pts, s, cfg),
                "hist s={s}"
            );
        }
    }
}
