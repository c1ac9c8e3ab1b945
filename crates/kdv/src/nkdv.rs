//! Network kernel density visualization (NKDV; paper §2.2, Fig. 3).
//!
//! Events constrained to a road network (traffic accidents, street crime)
//! are misrepresented by planar KDV: two locations close in Euclidean
//! distance can be far apart along the network (Fig. 3), so NKDV replaces
//! `dist(q, p)` with the shortest-path distance `dist_G(q, p)` and
//! rasterizes over *lixels* instead of pixels.
//!
//! Two implementations with identical output:
//!
//! * [`nkdv_naive`] — one bounded Dijkstra **per lixel** (the obvious
//!   reverse formulation; cost grows with the raster resolution);
//! * [`nkdv_forward`] — one bounded Dijkstra **per event**, scattering
//!   each event's kernel mass onto the lixels of every reached edge
//!   analytically (the direction the fast NKDV literature \[30, 96\] takes:
//!   events are typically far fewer than lixels).

use lsga_core::{Kernel, LsgaError, Result};
use lsga_network::{DijkstraEngine, EdgeId, EdgePosition, Lixels, RoadNetwork};

/// A computed network density: one value per lixel, parallel to
/// [`Lixels::all`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDensity {
    values: Vec<f64>,
}

impl NetworkDensity {
    /// Wrap precomputed per-lixel values (parallel to [`Lixels::all`]).
    pub fn from_values(values: Vec<f64>) -> Self {
        NetworkDensity { values }
    }

    /// Per-lixel density values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Maximum lixel density (0 for an empty network).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Index of the hottest lixel.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, v) in self.values.iter().enumerate() {
            if *v > self.values[best] {
                best = i;
            }
        }
        best
    }

    /// Largest absolute difference against another density of the same
    /// lixelization.
    pub fn linf_diff(&self, other: &NetworkDensity) -> f64 {
        assert_eq!(self.values.len(), other.values.len());
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Shortest network distance from the position the engine was seeded from
/// to `to`, given that the engine already ran with `to`'s radius bound.
/// `same_edge_direct` carries the along-edge distance when source and
/// target share an edge.
#[inline]
fn dist_via_endpoints(
    net: &RoadNetwork,
    engine: &DijkstraEngine<'_>,
    to: &EdgePosition,
    same_edge_direct: Option<f64>,
) -> f64 {
    let e = net.edge(to.edge);
    let mut d = f64::INFINITY;
    if let Some(du) = engine.dist(e.u) {
        d = d.min(du + to.to_u());
    }
    if let Some(dv) = engine.dist(e.v) {
        d = d.min(dv + to.to_v(net));
    }
    if let Some(direct) = same_edge_direct {
        d = d.min(direct);
    }
    d
}

/// Reject inputs that would make an NKDV evaluation panic or silently
/// produce NaN: an empty lixelization (no raster to write), a kernel
/// whose effective support is non-finite or non-positive (a non-finite
/// or degenerate bandwidth), and events referencing edges outside the
/// network or carrying non-finite offsets. `radius` is the kernel's
/// effective radius at [`crate::DEFAULT_TAIL_EPS`], the support every
/// NKDV method truncates at.
pub fn validate_nkdv_inputs(
    net: &RoadNetwork,
    lixels: &Lixels,
    events: &[EdgePosition],
    radius: f64,
) -> Result<()> {
    if lixels.is_empty() {
        return Err(LsgaError::InvalidParameter {
            name: "lixels",
            message: "NKDV needs a non-empty lixelization".to_string(),
        });
    }
    if !radius.is_finite() || radius <= 0.0 {
        return Err(LsgaError::InvalidParameter {
            name: "bandwidth",
            message: format!("kernel effective radius must be finite and positive, got {radius}"),
        });
    }
    for (i, ev) in events.iter().enumerate() {
        if ev.edge.0 as usize >= net.edge_count() {
            return Err(LsgaError::InvalidParameter {
                name: "events",
                message: format!(
                    "event {i} references edge {} but the network has {} edges",
                    ev.edge.0,
                    net.edge_count()
                ),
            });
        }
        if !ev.offset.is_finite() {
            return Err(LsgaError::InvalidParameter {
                name: "events",
                message: format!("event {i} has non-finite offset {}", ev.offset),
            });
        }
    }
    Ok(())
}

/// NKDV by one bounded Dijkstra per lixel (`O(L · (Dijkstra + n))`).
/// The baseline the fast methods are measured against.
///
/// Returns [`LsgaError::InvalidParameter`] for an empty lixelization, a
/// degenerate kernel bandwidth, or out-of-network / non-finite events.
pub fn nkdv_naive<K: Kernel>(
    net: &RoadNetwork,
    lixels: &Lixels,
    events: &[EdgePosition],
    kernel: K,
) -> Result<NetworkDensity> {
    let radius = kernel.effective_radius(crate::DEFAULT_TAIL_EPS);
    validate_nkdv_inputs(net, lixels, events, radius)?;
    let mut engine = DijkstraEngine::new(net);
    let mut values = vec![0.0f64; lixels.len()];
    for (li, lx) in lixels.all().iter().enumerate() {
        let pos = EdgePosition {
            edge: lx.edge,
            offset: lx.center_offset(),
        };
        let e = net.edge(pos.edge);
        engine.run(&[(e.u, pos.to_u()), (e.v, pos.to_v(net))], radius);
        let mut sum = 0.0;
        for ev in events {
            let direct = if ev.edge == pos.edge {
                Some((ev.offset - pos.offset).abs())
            } else {
                None
            };
            let d = dist_via_endpoints(net, &engine, ev, direct);
            if d <= radius {
                sum += kernel.eval(d);
            }
        }
        values[li] = sum;
    }
    Ok(NetworkDensity { values })
}

/// NKDV by one bounded Dijkstra per event (`O(n · (Dijkstra + touched
/// lixels))`), the forward-scatter formulation. Identical output to
/// [`nkdv_naive`].
///
/// Returns [`LsgaError::InvalidParameter`] for an empty lixelization, a
/// degenerate kernel bandwidth, or out-of-network / non-finite events.
pub fn nkdv_forward<K: Kernel>(
    net: &RoadNetwork,
    lixels: &Lixels,
    events: &[EdgePosition],
    kernel: K,
) -> Result<NetworkDensity> {
    let radius = kernel.effective_radius(crate::DEFAULT_TAIL_EPS);
    validate_nkdv_inputs(net, lixels, events, radius)?;
    let mut engine = DijkstraEngine::new(net);
    let mut values = vec![0.0f64; lixels.len()];
    // Edge de-duplication stamps, one slot per edge, epoch per event.
    let mut stamp = vec![u32::MAX; net.edge_count()];
    for (ev_round, ev) in events.iter().enumerate() {
        let round = ev_round as u32;
        let e = net.edge(ev.edge);
        engine.run(&[(e.u, ev.to_u()), (e.v, ev.to_v(net))], radius);
        let scatter = |edge: EdgeId, values: &mut Vec<f64>, engine: &DijkstraEngine<'_>| {
            let rec = net.edge(edge);
            let du = engine.dist(rec.u).unwrap_or(f64::INFINITY);
            let dv = engine.dist(rec.v).unwrap_or(f64::INFINITY);
            let same_edge = edge == ev.edge;
            if !same_edge && du == f64::INFINITY && dv == f64::INFINITY {
                return;
            }
            let (first, count) = lixels.edge_range(edge);
            for k in 0..count {
                let li = (first + k) as usize;
                let lx = lixels.all()[li];
                let o = lx.center_offset();
                let mut d = (du + o).min(dv + (rec.length - o));
                if same_edge {
                    d = d.min((o - ev.offset).abs());
                }
                if d <= radius {
                    values[li] += kernel.eval(d);
                }
            }
        };
        // The event's own edge is always in range.
        stamp[ev.edge.0 as usize] = round;
        scatter(ev.edge, &mut values, &engine);
        // Every edge incident to a reached vertex is a candidate.
        for &v in engine.reached() {
            for (_, edge) in net.neighbors(v) {
                let ei = edge.0 as usize;
                if stamp[ei] != round {
                    stamp[ei] = round;
                    scatter(edge, &mut values, &engine);
                }
            }
        }
    }
    Ok(NetworkDensity { values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsga_core::{Epanechnikov, Point, Triangular};
    use lsga_network::{grid_network, sample_on_network, NetworkBuilder};

    fn parallel_roads() -> RoadNetwork {
        // Fig. 3 topology: two long parallel roads joined at one end.
        let mut b = NetworkBuilder::new();
        let a0 = b.add_vertex(Point::new(0.0, 0.0));
        let a1 = b.add_vertex(Point::new(20.0, 0.0));
        let c0 = b.add_vertex(Point::new(0.0, 2.0));
        let c1 = b.add_vertex(Point::new(20.0, 2.0));
        b.add_edge(a0, a1, None).unwrap();
        b.add_edge(c0, c1, None).unwrap();
        b.add_edge(a0, c0, None).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn forward_equals_naive_on_grid() {
        let net = grid_network(6, 6, 5.0);
        let lixels = Lixels::build(&net, 1.0);
        let events = sample_on_network(&net, 40, 11);
        let k = Epanechnikov::new(8.0);
        let naive = nkdv_naive(&net, &lixels, &events, k).unwrap();
        let forward = nkdv_forward(&net, &lixels, &events, k).unwrap();
        assert!(
            naive.linf_diff(&forward) < 1e-9,
            "diff {}",
            naive.linf_diff(&forward)
        );
        assert!(naive.max() > 0.0);
    }

    #[test]
    fn forward_equals_naive_other_kernel() {
        let net = grid_network(5, 4, 3.0);
        let lixels = Lixels::build(&net, 0.7);
        let events = sample_on_network(&net, 25, 5);
        let k = Triangular::new(5.0);
        let naive = nkdv_naive(&net, &lixels, &events, k).unwrap();
        let forward = nkdv_forward(&net, &lixels, &events, k).unwrap();
        assert!(naive.linf_diff(&forward) < 1e-9);
    }

    #[test]
    fn fig3_network_distance_suppresses_cross_road_density() {
        let net = parallel_roads();
        let lixels = Lixels::build(&net, 0.5);
        // All events near the far end of the bottom road.
        let events: Vec<EdgePosition> = (0..10)
            .map(|i| EdgePosition {
                edge: EdgeId(0),
                offset: 18.0 + 0.2 * i as f64,
            })
            .collect();
        let k = Epanechnikov::new(4.0);
        let density = nkdv_forward(&net, &lixels, &events, k).unwrap();
        // Hot lixel: on the bottom road near the events.
        let hot = density.argmax();
        assert_eq!(lixels.all()[hot].edge, EdgeId(0));
        // The top-road lixel Euclidean-closest to the events (x ≈ 18.8,
        // 2 units away in the plane, ~40 along the network) gets zero.
        let top_far = lixels
            .all()
            .iter()
            .position(|lx| lx.edge == EdgeId(1) && lx.center_offset() > 18.0)
            .unwrap();
        assert_eq!(density.values()[top_far], 0.0);
    }

    #[test]
    fn event_in_isolated_area_only_affects_own_edge() {
        // Event with bandwidth smaller than the distance to any vertex.
        let net = parallel_roads();
        let lixels = Lixels::build(&net, 0.5);
        let events = [EdgePosition {
            edge: EdgeId(0),
            offset: 10.0,
        }];
        let k = Epanechnikov::new(1.0);
        let density = nkdv_forward(&net, &lixels, &events, k).unwrap();
        for (lx, v) in lixels.all().iter().zip(density.values()) {
            if lx.edge != EdgeId(0) {
                assert_eq!(*v, 0.0);
            }
        }
        let naive = nkdv_naive(&net, &lixels, &events, k).unwrap();
        assert!(naive.linf_diff(&density) < 1e-12);
    }

    #[test]
    fn no_events_gives_zero_density() {
        let net = grid_network(3, 3, 2.0);
        let lixels = Lixels::build(&net, 0.5);
        let density = nkdv_forward(&net, &lixels, &[], Epanechnikov::new(3.0)).unwrap();
        assert_eq!(density.max(), 0.0);
    }

    #[test]
    fn rejects_empty_lixelization() {
        // A vertex-only network builds, but lixelizes to nothing.
        let mut b = NetworkBuilder::new();
        b.add_vertex(Point::new(0.0, 0.0));
        let net = b.build().unwrap();
        let lixels = Lixels::build(&net, 1.0);
        assert!(lixels.is_empty());
        let err = nkdv_forward(&net, &lixels, &[], Epanechnikov::new(2.0)).unwrap_err();
        assert!(
            matches!(
                err,
                lsga_core::LsgaError::InvalidParameter { name: "lixels", .. }
            ),
            "{err:?}"
        );
    }

    /// A kernel whose effective radius is whatever the test plants —
    /// the library constructors refuse non-finite bandwidths up front,
    /// so the NKDV guard against degenerate radii needs a hand-rolled
    /// kernel to exercise it.
    #[derive(Clone, Copy)]
    struct BadRadiusKernel(f64);

    impl Kernel for BadRadiusKernel {
        fn bandwidth(&self) -> f64 {
            self.0
        }
        fn eval_sq(&self, _d2: f64) -> f64 {
            1.0
        }
        fn support(&self) -> Option<f64> {
            None
        }
        fn effective_radius(&self, _tail_eps: f64) -> f64 {
            self.0
        }
        fn integral_2d(&self) -> f64 {
            1.0
        }
        fn kind(&self) -> lsga_core::KernelKind {
            lsga_core::KernelKind::Uniform
        }
    }

    #[test]
    fn rejects_non_finite_bandwidth() {
        let net = grid_network(3, 3, 2.0);
        let lixels = Lixels::build(&net, 0.5);
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = nkdv_forward(&net, &lixels, &[], BadRadiusKernel(bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    lsga_core::LsgaError::InvalidParameter {
                        name: "bandwidth",
                        ..
                    }
                ),
                "radius {bad}: {err:?}"
            );
            let err = nkdv_naive(&net, &lixels, &[], BadRadiusKernel(bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    lsga_core::LsgaError::InvalidParameter {
                        name: "bandwidth",
                        ..
                    }
                ),
                "radius {bad}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_invalid_events() {
        let net = grid_network(3, 3, 2.0);
        let lixels = Lixels::build(&net, 0.5);
        let out_of_range = [EdgePosition {
            edge: EdgeId(net.edge_count() as u32),
            offset: 0.5,
        }];
        let err = nkdv_forward(&net, &lixels, &out_of_range, Epanechnikov::new(2.0)).unwrap_err();
        assert!(
            matches!(
                err,
                lsga_core::LsgaError::InvalidParameter { name: "events", .. }
            ),
            "{err:?}"
        );
        let nan_offset = [EdgePosition {
            edge: EdgeId(0),
            offset: f64::NAN,
        }];
        let err = nkdv_naive(&net, &lixels, &nan_offset, Epanechnikov::new(2.0)).unwrap_err();
        assert!(
            matches!(
                err,
                lsga_core::LsgaError::InvalidParameter { name: "events", .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn density_additive_in_events() {
        let net = grid_network(4, 4, 2.0);
        let lixels = Lixels::build(&net, 0.5);
        let ev = sample_on_network(&net, 10, 3);
        let k = Epanechnikov::new(4.0);
        let d1 = nkdv_forward(&net, &lixels, &ev, k).unwrap();
        let mut doubled = ev.clone();
        doubled.extend(ev.iter().copied());
        let d2 = nkdv_forward(&net, &lixels, &doubled, k).unwrap();
        for (a, b) in d1.values().iter().zip(d2.values()) {
            assert!((b - 2.0 * a).abs() < 1e-9);
        }
    }
}
