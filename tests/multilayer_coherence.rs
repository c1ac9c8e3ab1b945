//! Multi-analytic serving coherence: every [`TileCompute`] kind served
//! through the *same* cache/flight/invalidation machinery must be
//! **bit-identical** to its direct analytic under any cache state,
//! eviction pressure, insert interleaving, node death, and pool width.
//!
//! The proptest drives randomized get/batch/insert/kill interleavings
//! against a 3-node cluster carrying all four layer kinds — KDV,
//! STKDV (time-binned), NKDV (network raster), and Gi*/LISA hotspot
//! overlays — simultaneously, at pool widths 1 and 8, checking every
//! read bit-for-bit against the per-kind direct oracle over the mirror
//! of committed appends. The directed tests pin the cross-kind cache
//! contracts: an insert into one layer must never invalidate another
//! kind's tiles unless its dirty region actually reaches them, and an
//! STKDV time-bin key must never collide with a spatial-only key.

use lsga::core::par::Threads;
use lsga::dist::metrics::BYTES_PER_POINT;
use lsga::dist::{FaultKind, FaultPlan, RetryPolicy};
use lsga::prelude::*;
use lsga::serve::{
    compute_tile_direct, hotspot_overlay, nkdv_snap_index, rasterize_lixel_values,
    resample_overlay, snap_batch, tile_bbox, tile_grid_spec, ClusterConfig, ClusterServer,
    HotspotCompute, HotspotStat, LayerId, LayerKind, NkdvCompute, StkdvCompute, TileCoord, TileKey,
    TileServer, TileServerConfig,
};
use lsga::{kdv, network, obs};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

// The obs registry is process-global and some tests below drain it, so
// every test in this binary serializes here.
static LOCK: Mutex<()> = Mutex::new(());

const TILE_PX: usize = 8;
const MAX_ZOOM: u8 = 2;
const TAIL_EPS: f64 = 1e-6;
const T_MIN: f64 = 0.0;
const T_MAX: f64 = 50.0;
const NT: u32 = 4;
const CELLS: usize = 5;
const BAND: f64 = 25.0;

fn window() -> BBox {
    BBox::new(0.0, 0.0, 100.0, 100.0)
}

fn kdv_kernel() -> AnyKernel {
    KernelKind::Quartic.with_bandwidth(8.0)
}

fn st_spatial() -> AnyKernel {
    KernelKind::Epanechnikov.with_bandwidth(12.0)
}

fn st_temporal() -> PolyKernel {
    PolyKernel::new(KernelKind::Quartic, 8.0).expect("temporal kernel")
}

fn nkdv_kernel() -> AnyKernel {
    KernelKind::Quartic.with_bandwidth(15.0)
}

fn scatter(n: usize, salt: u64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let f = (i as f64) + (salt as f64) * 0.618;
            Point::new(
                50.0 + (f * 0.831).sin() * 49.0,
                50.0 + (f * 0.557).cos() * 49.0,
            )
        })
        .collect()
}

fn timed_scatter(n: usize, salt: u64) -> Vec<TimedPoint> {
    scatter(n, salt)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let f = (i as f64) + (salt as f64) * 0.917;
            TimedPoint::new(p.x, p.y, 25.0 + (f * 0.433).sin() * 24.9)
        })
        .collect()
}

/// The registration-fixed pieces every oracle needs: the NKDV network
/// and lixelization (shared `Arc`s with the server), the snap index the
/// server uses, and the hotspot statistic under test.
struct Fixture {
    net: Arc<RoadNetwork>,
    lixels: Arc<Lixels>,
    snap: network::SegmentIndex,
    stat: HotspotStat,
}

impl Fixture {
    fn new(stat: HotspotStat) -> Self {
        // A 6×6 grid with 20-unit blocks spans exactly the 0..100
        // window the planar layers use.
        let net = Arc::new(network::grid_network(6, 6, 20.0));
        let lixels = Arc::new(Lixels::build(&net, 5.0));
        let snap = nkdv_snap_index(&net, &lixels);
        Fixture {
            net,
            lixels,
            snap,
            stat,
        }
    }

    /// The NKDV layer's pyramid window (same arithmetic as
    /// `NkdvCompute::new`).
    fn nkdv_window(&self) -> BBox {
        let radius = nkdv_kernel().effective_radius(kdv::DEFAULT_TAIL_EPS);
        self.net.bbox().inflate(radius.max(1e-9))
    }
}

/// The committed append prefix per layer — what each oracle recomputes
/// from scratch.
struct Mirrors {
    kdv: Vec<Point>,
    st: Vec<TimedPoint>,
    events: Vec<EdgePosition>,
    hot: Vec<Point>,
}

struct Layers {
    kdv: LayerId,
    st: LayerId,
    nkdv: LayerId,
    hot: LayerId,
}

fn node_config(threads: usize) -> TileServerConfig {
    TileServerConfig {
        tile_px: TILE_PX,
        max_zoom: MAX_ZOOM,
        shards: 2,
        byte_budget: 64 * 1024, // small: eviction pressure is part of the test
        threads: Threads::exact(threads),
        ..TileServerConfig::default()
    }
}

/// Register all four kinds on a cluster, in a fixed order.
fn add_all_layers(c: &ClusterServer, fx: &Fixture, m: &Mirrors) -> Layers {
    let kdv = c
        .add_layer(m.kdv.clone(), window(), kdv_kernel(), TAIL_EPS)
        .expect("kdv layer");
    let st = c
        .add_compute_layer(Arc::new(
            StkdvCompute::new(
                &m.st,
                window(),
                st_spatial(),
                st_temporal(),
                T_MIN,
                T_MAX,
                NT as usize,
                TAIL_EPS,
            )
            .expect("stkdv compute"),
        ))
        .expect("stkdv layer");
    let nkdv = c
        .add_compute_layer(Arc::new(
            NkdvCompute::new(
                Arc::clone(&fx.net),
                Arc::clone(&fx.lixels),
                &m.events,
                nkdv_kernel(),
            )
            .expect("nkdv compute"),
        ))
        .expect("nkdv layer");
    let hot = c
        .add_compute_layer(Arc::new(
            HotspotCompute::new(&m.hot, window(), CELLS, BAND, fx.stat).expect("hotspot compute"),
        ))
        .expect("hotspot layer");
    Layers { kdv, st, nkdv, hot }
}

fn assert_tile_bits(
    tile: &lsga::serve::Tile,
    expected: &DensityGrid,
    what: &str,
    c: TileCoord,
) -> Result<(), TestCaseError> {
    let a = tile.grid.values();
    let b = expected.values();
    prop_assert_eq!(a.len(), b.len(), "{}: pixel count", what);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: pixel {} of tile ({},{},{}) diverged from the direct oracle",
            what,
            i,
            c.z,
            c.x,
            c.y
        );
    }
    Ok(())
}

fn oracle_kdv(m: &Mirrors, c: TileCoord) -> DensityGrid {
    compute_tile_direct(&m.kdv, &window(), kdv_kernel(), TAIL_EPS, TILE_PX, c)
}

fn oracle_st(m: &Mirrors, c: TileCoord, bin: u32) -> DensityGrid {
    let spec = tile_grid_spec(&window(), TILE_PX, c);
    let cube = kdv::stkdv_sweep_threads(
        &m.st,
        spec,
        T_MIN,
        T_MAX,
        NT as usize,
        st_spatial(),
        st_temporal(),
        TAIL_EPS,
        Threads::exact(1),
    );
    cube.slice(bin as usize)
}

fn oracle_nkdv(fx: &Fixture, m: &Mirrors, c: TileCoord) -> DensityGrid {
    let spec = tile_grid_spec(&fx.nkdv_window(), TILE_PX, c);
    let density =
        kdv::nkdv_forward(&fx.net, &fx.lixels, &m.events, nkdv_kernel()).expect("valid events");
    rasterize_lixel_values(&fx.net, &fx.lixels, density.values(), spec)
}

fn oracle_hot(fx: &Fixture, m: &Mirrors, c: TileCoord) -> DensityGrid {
    let overlay =
        hotspot_overlay(&m.hot, window(), CELLS, BAND, fx.stat).expect("valid hotspot inputs");
    resample_overlay(&overlay, tile_grid_spec(&window(), TILE_PX, c))
}

fn coord(z_raw: u32, x_raw: u32, y_raw: u32) -> TileCoord {
    let z = (z_raw % u32::from(MAX_ZOOM + 1)) as u8;
    let per = 1u32 << z;
    TileCoord::new(z, x_raw % per, y_raw % per)
}

/// One randomized interleaving over a cluster carrying all four kinds.
#[allow(clippy::too_many_lines)]
fn run_multilayer_interleaving(
    threads: usize,
    lisa: bool,
    ops: &[(u32, u32, u32, u32, u32)],
) -> Result<(), TestCaseError> {
    let stat = if lisa {
        HotspotStat::Lisa {
            permutations: 19,
            seed: 7,
        }
    } else {
        HotspotStat::GiStar
    };
    let fx = Fixture::new(stat);
    let mut m = Mirrors {
        kdv: scatter(40, 1),
        st: timed_scatter(30, 2),
        events: network::sample_on_network(&fx.net, 25, 8),
        hot: scatter(35, 3),
    };
    let cluster = ClusterServer::new(ClusterConfig {
        nodes: 3,
        node: node_config(threads),
    })
    .expect("cluster");
    let layers = add_all_layers(&cluster, &fx, &m);

    // Registration must stamp each layer with its kind on every node.
    for w in 0..cluster.node_count() {
        let n = cluster.node(w);
        prop_assert_eq!(n.layer_kind(layers.kdv).unwrap(), LayerKind::Kdv);
        prop_assert_eq!(n.layer_kind(layers.st).unwrap(), LayerKind::Stkdv);
        prop_assert_eq!(n.layer_kind(layers.nkdv).unwrap(), LayerKind::Nkdv);
        prop_assert_eq!(n.layer_kind(layers.hot).unwrap(), LayerKind::Hotspot);
        prop_assert_eq!(n.time_bins(layers.st).unwrap(), NT);
    }

    for &(sel, a, b, yr, n) in ops {
        let len = 1 + (n as usize % 4);
        match sel % 10 {
            0 => {
                let batch = scatter(len, u64::from(a) * 131 + 11);
                cluster
                    .insert_points(layers.kdv, &batch)
                    .expect("kdv insert");
                m.kdv.extend_from_slice(&batch);
            }
            1 => {
                let batch = timed_scatter(len, u64::from(a) * 157 + 13);
                cluster
                    .insert_timed_points(layers.st, &batch)
                    .expect("stkdv insert");
                m.st.extend_from_slice(&batch);
            }
            2 => {
                let batch = scatter(len, u64::from(a) * 173 + 17);
                cluster
                    .insert_points(layers.nkdv, &batch)
                    .expect("nkdv insert");
                // Mirror snaps through the same index the server built.
                m.events
                    .extend(snap_batch(&fx.net, &fx.snap, &batch).expect("snap"));
            }
            3 => {
                let batch = scatter(len, u64::from(a) * 193 + 19);
                cluster
                    .insert_points(layers.hot, &batch)
                    .expect("hotspot insert");
                m.hot.extend_from_slice(&batch);
            }
            4 => {
                // Kill a node, but never the last one.
                let w = a as usize % cluster.node_count();
                if cluster.alive_nodes().len() > 1 {
                    cluster.kill_node(w);
                }
            }
            5 => {
                let c = coord(a, b, yr);
                let tile = cluster
                    .get_tile(layers.kdv, c.z, c.x, c.y)
                    .expect("kdv get");
                assert_tile_bits(&tile, &oracle_kdv(&m, c), "kdv", c)?;
            }
            6 => {
                let c = coord(a, b, yr);
                let bin = n % NT;
                let tile = cluster
                    .get_tile_binned(layers.st, c.z, c.x, c.y, bin)
                    .expect("stkdv get");
                assert_tile_bits(&tile, &oracle_st(&m, c, bin), "stkdv", c)?;
            }
            7 => {
                let c = coord(a, b, yr);
                let tile = cluster
                    .get_tile(layers.nkdv, c.z, c.x, c.y)
                    .expect("nkdv get");
                assert_tile_bits(&tile, &oracle_nkdv(&fx, &m, c), "nkdv", c)?;
            }
            8 => {
                let c = coord(a, b, yr);
                let tile = cluster
                    .get_tile(layers.hot, c.z, c.x, c.y)
                    .expect("hotspot get");
                assert_tile_bits(&tile, &oracle_hot(&fx, &m, c), "hotspot", c)?;
            }
            _ => {
                // Batch read across zooms on the KDV layer.
                let coords: Vec<TileCoord> = (0..3u32).map(|d| coord(a + d, b + d, yr)).collect();
                let tiles = cluster.get_tiles(layers.kdv, &coords).expect("get_tiles");
                for (tile, &c) in tiles.iter().zip(&coords) {
                    assert_tile_bits(tile, &oracle_kdv(&m, c), "kdv batch", c)?;
                }
            }
        }
    }

    // Final sweep: the zoom-1 pyramid of every kind, every STKDV bin.
    for x in 0..2u32 {
        for y in 0..2u32 {
            let c = TileCoord::new(1, x, y);
            let t = cluster.get_tile(layers.kdv, 1, x, y).expect("final kdv");
            assert_tile_bits(&t, &oracle_kdv(&m, c), "final kdv", c)?;
            for bin in 0..NT {
                let t = cluster
                    .get_tile_binned(layers.st, 1, x, y, bin)
                    .expect("final stkdv");
                assert_tile_bits(&t, &oracle_st(&m, c, bin), "final stkdv", c)?;
            }
            let t = cluster.get_tile(layers.nkdv, 1, x, y).expect("final nkdv");
            assert_tile_bits(&t, &oracle_nkdv(&fx, &m, c), "final nkdv", c)?;
            let t = cluster
                .get_tile(layers.hot, 1, x, y)
                .expect("final hotspot");
            assert_tile_bits(&t, &oracle_hot(&fx, &m, c), "final hotspot", c)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    fn all_kinds_bit_identical_under_interleaving(
        lisa in any::<bool>(),
        ops in prop::collection::vec(
            (0u32..10, 0u32..64, 0u32..64, 0u32..64, 0u32..8),
            1..22,
        ),
    ) {
        let _g = LOCK.lock().unwrap();
        for threads in [1usize, 8] {
            run_multilayer_interleaving(threads, lisa, &ops)?;
        }
    }
}

/// A single-server (non-cluster) pass over all four kinds: the plain
/// `TileServer` path must serve the same bits the oracle computes, warm
/// and cold.
#[test]
fn single_server_serves_every_kind_exactly() {
    let _g = LOCK.lock().unwrap();
    let fx = Fixture::new(HotspotStat::GiStar);
    let m = Mirrors {
        kdv: scatter(50, 4),
        st: timed_scatter(40, 5),
        events: network::sample_on_network(&fx.net, 30, 9),
        hot: scatter(45, 6),
    };
    for threads in [1usize, 8] {
        let s = TileServer::new(node_config(threads));
        let kdv = s
            .add_layer(m.kdv.clone(), window(), kdv_kernel(), TAIL_EPS)
            .expect("kdv layer");
        let st = s
            .add_compute_layer(Arc::new(
                StkdvCompute::new(
                    &m.st,
                    window(),
                    st_spatial(),
                    st_temporal(),
                    T_MIN,
                    T_MAX,
                    NT as usize,
                    TAIL_EPS,
                )
                .expect("stkdv compute"),
            ))
            .expect("stkdv layer");
        let nk = s
            .add_compute_layer(Arc::new(
                NkdvCompute::new(
                    Arc::clone(&fx.net),
                    Arc::clone(&fx.lixels),
                    &m.events,
                    nkdv_kernel(),
                )
                .expect("nkdv compute"),
            ))
            .expect("nkdv layer");
        let hot = s
            .add_compute_layer(Arc::new(
                HotspotCompute::new(&m.hot, window(), CELLS, BAND, fx.stat)
                    .expect("hotspot compute"),
            ))
            .expect("hotspot layer");

        for pass in 0..2 {
            // Pass 0 is cold (computes), pass 1 warm (cache hits) —
            // both must produce identical bits.
            for x in 0..2u32 {
                for y in 0..2u32 {
                    let c = TileCoord::new(1, x, y);
                    let t = s.get_tile(kdv, 1, x, y).expect("kdv");
                    assert_tile_bits(&t, &oracle_kdv(&m, c), "kdv", c).unwrap();
                    for bin in 0..NT {
                        let t = s.get_tile_binned(st, 1, x, y, bin).expect("stkdv");
                        assert_tile_bits(&t, &oracle_st(&m, c, bin), "stkdv", c).unwrap();
                    }
                    let t = s.get_tile(nk, 1, x, y).expect("nkdv");
                    assert_tile_bits(&t, &oracle_nkdv(&fx, &m, c), "nkdv", c).unwrap();
                    let t = s.get_tile(hot, 1, x, y).expect("hotspot");
                    assert_tile_bits(&t, &oracle_hot(&fx, &m, c), "hotspot", c).unwrap();
                }
            }
            let _ = pass;
        }
    }
}

/// Cross-kind cache isolation: an insert into the KDV layer must sweep
/// only KDV cache entries, leaving the NKDV layer's tiles warm — and
/// an NKDV insert must invalidate exactly the NKDV tiles whose bbox
/// its inflated dirty region reaches.
#[test]
fn inserts_do_not_invalidate_other_kinds() {
    let _g = LOCK.lock().unwrap();
    let fx = Fixture::new(HotspotStat::GiStar);
    let s = TileServer::new(node_config(2));
    let kdv = s
        .add_layer(scatter(40, 1), window(), kdv_kernel(), TAIL_EPS)
        .expect("kdv layer");
    let nk = s
        .add_compute_layer(Arc::new(
            NkdvCompute::new(
                Arc::clone(&fx.net),
                Arc::clone(&fx.lixels),
                &network::sample_on_network(&fx.net, 20, 3),
                nkdv_kernel(),
            )
            .expect("nkdv compute"),
        ))
        .expect("nkdv layer");

    obs::reset();
    obs::enable();
    // Warm one KDV tile and two NKDV tiles (opposite quadrants).
    let _ = s.get_tile(kdv, 1, 0, 0).expect("warm kdv");
    let _ = s.get_tile(nk, 1, 0, 0).expect("warm nkdv ll");
    let _ = s.get_tile(nk, 1, 1, 1).expect("warm nkdv ur");
    assert_eq!(s.cached_tiles(), 3);

    // A KDV batch in the lower-left quadrant: the KDV tile dies, both
    // NKDV tiles must survive.
    s.insert_points(kdv, &[Point::new(20.0, 20.0)])
        .expect("kdv insert");
    assert!(
        s.cached_tier(kdv, 1, 0, 0).is_none(),
        "kdv tile must be invalidated by its own layer's insert"
    );
    assert!(
        s.cached_tier(nk, 1, 0, 0).is_some() && s.cached_tier(nk, 1, 1, 1).is_some(),
        "kdv insert must not touch nkdv entries"
    );

    // An NKDV batch near the lower-left corner: its dirty region
    // (snap + kernel support 15) cannot reach the upper-right tile.
    s.insert_points(nk, &[Point::new(10.0, 10.0)])
        .expect("nkdv insert");
    assert!(
        s.cached_tier(nk, 1, 0, 0).is_none(),
        "overlapping nkdv tile must be invalidated"
    );
    assert!(
        s.cached_tier(nk, 1, 1, 1).is_some(),
        "nkdv tile outside the dirty bbox must stay warm"
    );

    let snap = obs::drain();
    obs::disable();
    assert_eq!(snap.counter("serve.tiles_computed{kind=kdv}"), 1);
    assert_eq!(snap.counter("serve.tiles_computed{kind=nkdv}"), 2);
    assert_eq!(snap.counter("serve.tiles_invalidated{kind=kdv}"), 1);
    assert_eq!(snap.counter("serve.tiles_invalidated{kind=nkdv}"), 1);
    assert_eq!(snap.counter("serve.tiles_invalidated{kind=stkdv}"), 0);
    assert_eq!(snap.counter("serve.tiles_invalidated{kind=hotspot}"), 0);
}

/// STKDV time-bin keys are first-class cache keys: distinct bins of one
/// coordinate are distinct entries, and bin 0 *is* the spatial-only
/// key — `get_tile` and `get_tile_binned(.., 0)` share one entry.
#[test]
fn stkdv_bins_key_the_cache_without_colliding() {
    let _g = LOCK.lock().unwrap();
    let m = timed_scatter(40, 11);
    let s = TileServer::new(node_config(2));
    let st = s
        .add_compute_layer(Arc::new(
            StkdvCompute::new(
                &m,
                window(),
                st_spatial(),
                st_temporal(),
                T_MIN,
                T_MAX,
                NT as usize,
                TAIL_EPS,
            )
            .expect("stkdv compute"),
        ))
        .expect("stkdv layer");

    // The key arithmetic itself: bin 0 collapses onto the spatial key.
    let c = TileCoord::new(1, 0, 1);
    assert_eq!(TileKey::binned(st, c, 0), TileKey::new(st, c));
    assert_ne!(TileKey::binned(st, c, 1), TileKey::new(st, c));

    // Four bins of one coordinate: four distinct cache entries.
    for bin in 0..NT {
        let _ = s.get_tile_binned(st, 0, 0, 0, bin).expect("binned get");
    }
    assert_eq!(s.cached_tiles(), NT as usize, "each bin caches separately");

    // The spatial-only read of the same coordinate is bin 0's entry —
    // a hit, not a fifth entry.
    let spatial = s.get_tile(st, 0, 0, 0).expect("spatial get");
    assert_eq!(s.cached_tiles(), NT as usize);
    let binned = s.get_tile_binned(st, 0, 0, 0, 0).expect("bin 0 get");
    for (a, b) in spatial.grid.values().iter().zip(binned.grid.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // And the bins carry genuinely different data: at least one pair
    // of slices must differ (the timed scatter spreads across bins).
    let bits: Vec<Vec<u64>> = (0..NT)
        .map(|bin| {
            s.get_tile_binned(st, 0, 0, 0, bin)
                .expect("reread")
                .grid
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    assert!(
        bits.windows(2).any(|w| w[0] != w[1]),
        "all time slices identical — the bin dimension is inert"
    );

    // Out-of-range bins are a client error, not a panic.
    assert!(s.get_tile_binned(st, 0, 0, 0, NT).is_err());
}

/// Bad batches are rejected cleanly at the append boundary, per kind:
/// shape mismatches (planar into STKDV, timed into planar layers),
/// non-finite coordinates, points outside the layer window and, for
/// STKDV, times outside the layer range. Each rejection is an
/// `InvalidParameter` that leaves the cache, a warm tile and the
/// ingest counters exactly as they were.
#[test]
fn wrong_batch_shape_is_rejected_per_kind() {
    let _g = LOCK.lock().unwrap();
    let fx = Fixture::new(HotspotStat::GiStar);
    let s = TileServer::new(node_config(1));
    let kdv = s
        .add_layer(scatter(10, 1), window(), kdv_kernel(), TAIL_EPS)
        .expect("kdv layer");
    let st = s
        .add_compute_layer(Arc::new(
            StkdvCompute::new(
                &timed_scatter(10, 2),
                window(),
                st_spatial(),
                st_temporal(),
                T_MIN,
                T_MAX,
                NT as usize,
                TAIL_EPS,
            )
            .expect("stkdv compute"),
        ))
        .expect("stkdv layer");
    let nkdv = s
        .add_compute_layer(Arc::new(
            NkdvCompute::new(
                Arc::clone(&fx.net),
                Arc::clone(&fx.lixels),
                &network::sample_on_network(&fx.net, 10, 4),
                nkdv_kernel(),
            )
            .expect("nkdv compute"),
        ))
        .expect("nkdv layer");
    let hot = s
        .add_compute_layer(Arc::new(
            HotspotCompute::new(&scatter(10, 3), window(), CELLS, BAND, fx.stat)
                .expect("hotspot compute"),
        ))
        .expect("hotspot layer");
    let warm: Vec<_> = [kdv, st, nkdv, hot]
        .iter()
        .map(|&l| s.get_tile(l, 0, 0, 0).expect("warm get"))
        .collect();
    let cached = s.cached_tiles();

    // A valid point first, so a half-applied batch would show.
    let ok = Point::new(10.0, 10.0);
    let planar_bad = [
        vec![ok, Point::new(f64::NAN, 5.0)],
        vec![ok, Point::new(5.0, f64::INFINITY)],
        vec![ok, Point::new(150.0, 50.0)],
    ];
    let timed_bad = [
        vec![TimedPoint::new(10.0, 10.0, f64::NAN)],
        vec![TimedPoint::new(f64::NEG_INFINITY, 10.0, 20.0)],
        vec![TimedPoint::new(-5.0, 10.0, 20.0)],
        vec![TimedPoint::new(10.0, 10.0, T_MAX + 1.0)],
        vec![TimedPoint::new(10.0, 10.0, T_MIN - 1.0)],
    ];
    obs::reset();
    obs::enable();
    let mut rejections: Vec<(&str, lsga::core::error::Result<()>)> = vec![
        ("planar into stkdv", s.insert_points(st, &scatter(2, 9))),
        (
            "timed into kdv",
            s.insert_timed_points(kdv, &timed_scatter(2, 9)),
        ),
        (
            "timed into nkdv",
            s.insert_timed_points(nkdv, &timed_scatter(2, 9)),
        ),
        (
            "timed into hotspot",
            s.insert_timed_points(hot, &timed_scatter(2, 9)),
        ),
    ];
    for batch in &planar_bad {
        rejections.push(("bad planar into kdv", s.insert_points(kdv, batch)));
        rejections.push(("bad planar into hotspot", s.insert_points(hot, batch)));
    }
    // NKDV snaps every finite point onto its network, so only the
    // non-finite batches are errors there.
    for batch in &planar_bad[..2] {
        rejections.push(("non-finite into nkdv", s.insert_points(nkdv, batch)));
    }
    for batch in &timed_bad {
        rejections.push(("bad timed into stkdv", s.insert_timed_points(st, batch)));
    }
    for (what, r) in rejections {
        let err = r.expect_err(what);
        assert!(
            matches!(err, lsga::core::error::LsgaError::InvalidParameter { .. }),
            "{what}: {err:?}"
        );
    }
    assert_eq!(s.cached_tiles(), cached, "a rejection dropped cached tiles");
    for (&l, tile) in [kdv, st, nkdv, hot].iter().zip(&warm) {
        let again = s.get_tile(l, 0, 0, 0).expect("re-get");
        assert!(Arc::ptr_eq(tile, &again), "layer {l}: warm tile recomputed");
    }
    let snap = obs::drain();
    obs::disable();
    assert_eq!(snap.counter("ingest.points_appended"), 0);
    assert_eq!(snap.counter("ingest.segments_created"), 0);

    // Valid batches still land after the rejections.
    s.insert_points(kdv, &scatter(2, 10)).expect("kdv insert");
    s.insert_timed_points(st, &timed_scatter(2, 10))
        .expect("stkdv insert");
    s.insert_points(nkdv, &scatter(2, 10)).expect("nkdv insert");
    s.insert_points(hot, &scatter(2, 10)).expect("hot insert");
}

/// Supervised re-homing on the STKDV, NKDV and hotspot layers weighs
/// each tile by the layer's own halo: the records within the tile bbox
/// inflated by the layer's support. `report.total_work` and every
/// re-shipment must match the counts derived from the mirrors — NKDV
/// events (appends included) at their *snapped* world positions — and
/// every executed tile must still match its oracle bit-for-bit.
#[test]
fn supervised_halo_weights_match_each_layers_records() {
    let _g = LOCK.lock().unwrap();
    let fx = Fixture::new(HotspotStat::GiStar);
    let mut m = Mirrors {
        kdv: scatter(20, 31),
        st: timed_scatter(30, 32),
        events: network::sample_on_network(&fx.net, 25, 33),
        hot: scatter(35, 34),
    };
    let cluster = ClusterServer::new(ClusterConfig {
        nodes: 3,
        node: node_config(2),
    })
    .expect("cluster");
    let layers = add_all_layers(&cluster, &fx, &m);

    let st_batch = timed_scatter(6, 35);
    cluster
        .insert_timed_points(layers.st, &st_batch)
        .expect("stkdv insert");
    m.st.extend_from_slice(&st_batch);
    let nk_batch = scatter(6, 36);
    cluster
        .insert_points(layers.nkdv, &nk_batch)
        .expect("nkdv insert");
    m.events
        .extend(snap_batch(&fx.net, &fx.snap, &nk_batch).expect("snap"));
    let hot_batch = scatter(6, 37);
    cluster
        .insert_points(layers.hot, &hot_batch)
        .expect("hotspot insert");
    m.hot.extend_from_slice(&hot_batch);
    // A node dead before planning: its tiles re-home and re-ship.
    cluster.kill_node(1);

    let coords: Vec<TileCoord> = (0..=MAX_ZOOM)
        .flat_map(|z| {
            let side = 1u32 << z;
            (0..side).flat_map(move |y| (0..side).map(move |x| TileCoord::new(z, x, y)))
        })
        .collect();
    let halo_counts = |points: &[Point], window: BBox, support: f64| -> Vec<usize> {
        coords
            .iter()
            .map(|&c| {
                let halo = tile_bbox(&window, c).inflate(support);
                points.iter().filter(|p| halo.contains(p)).count()
            })
            .collect()
    };
    let st_points: Vec<Point> = m.st.iter().map(|p| p.point).collect();
    let nk_points: Vec<Point> = m.events.iter().map(|ev| ev.point(&fx.net)).collect();
    let cases = [
        (
            layers.st,
            "stkdv",
            halo_counts(
                &st_points,
                window(),
                st_spatial().effective_radius(TAIL_EPS),
            ),
        ),
        (
            layers.nkdv,
            "nkdv",
            halo_counts(
                &nk_points,
                fx.nkdv_window(),
                nkdv_kernel().effective_radius(kdv::DEFAULT_TAIL_EPS),
            ),
        ),
        (layers.hot, "hotspot", halo_counts(&m.hot, window(), BAND)),
    ];
    let plan =
        FaultPlan::seeded_recoverable(41, coords.len(), 5).with(0, 0, FaultKind::DropHaloShipment);
    for (layer, what, expected) in cases {
        let out = cluster
            .get_tiles_supervised(layer, &coords, &plan, &RetryPolicy::default())
            .expect("supervised");
        assert!(out.report.is_complete(), "{what}: recoverable plan");
        assert_eq!(
            out.report.total_work,
            expected.iter().sum::<usize>(),
            "{what}: total halo weight"
        );
        assert!(
            out.schedule.tiles.iter().any(|o| o.reshipments > 0),
            "{what}: the plan must re-ship something"
        );
        for (o, &n) in out.schedule.tiles.iter().zip(&expected) {
            assert_eq!(
                o.reshipped_bytes,
                u64::from(o.reshipments) * n as u64 * BYTES_PER_POINT,
                "{what}: tile {} re-shipped its halo",
                o.tile
            );
        }
        for (tile, &c) in out.tiles.iter().zip(&coords) {
            let tile = tile.as_ref().expect("covered");
            let oracle = match what {
                "stkdv" => oracle_st(&m, c, 0),
                "nkdv" => oracle_nkdv(&fx, &m, c),
                _ => oracle_hot(&fx, &m, c),
            };
            assert_tile_bits(tile, &oracle, what, c).unwrap();
        }
    }
}
