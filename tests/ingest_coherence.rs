//! Ingest coherence for the tiered segment stack.
//!
//! `insert_points` no longer rebuilds a layer's index — each batch
//! becomes an immutable segment and size-tiered compaction rewrites
//! suffixes of the stack as CSR merges. None of that machinery is
//! allowed to move a served bit: a tile computed against any segment
//! stack must be **bit-identical** to [`compute_tile_direct`] over the
//! monolithic rebuild of the same prefix of batches. This suite drives
//! randomized insert/get interleavings at pool widths 1 and 8 against
//! that oracle, pins the nasty interleavings directly (compaction
//! completing under a mid-flight reader; two writers racing for the
//! same layer), and checks the tier policy's logarithmic depth bound
//! from the outside through `segment_count`.
//!
//! The directed tests also certify the ingest accounting: racing
//! writers are serialized, so the later one indexes its batch once on
//! top of the earlier one's committed stack (`ingest.segments_created`
//! stays at one per batch), and a compaction completing under a reader
//! must surface as a stale discard plus a merge, never as wrong bits.

use lsga::core::par::Threads;
use lsga::prelude::*;
use lsga::serve::{compute_tile_direct, HookPoint, TileCoord, TileServer, TileServerConfig};
use lsga::{data, obs};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

// The obs registry is process-global, and every server op bumps ingest
// counters once collection is enabled — so *all* tests in this binary
// serialize here, not just the ones that drain.
static LOCK: Mutex<()> = Mutex::new(());

const TILE_PX: usize = 8;
const MAX_ZOOM: u8 = 3;
const TAIL_EPS: f64 = 1e-6;

fn window() -> BBox {
    BBox::new(0.0, 0.0, 100.0, 100.0)
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

fn server(threads: usize) -> TileServer {
    TileServer::new(TileServerConfig {
        tile_px: TILE_PX,
        max_zoom: MAX_ZOOM,
        shards: 2,
        byte_budget: 1 << 20,
        threads: Threads::exact(threads),
        ..TileServerConfig::default()
    })
}

fn assert_tile_matches(
    served: &lsga::serve::Tile,
    mirror: &[Point],
    kernel: AnyKernel,
    c: TileCoord,
) -> Result<(), TestCaseError> {
    let direct = compute_tile_direct(mirror, &window(), kernel, TAIL_EPS, TILE_PX, c);
    for (i, (a, b)) in served.grid.values().iter().zip(direct.values()).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "pixel {} of tile ({},{},{}) diverged from monolithic rebuild",
            i,
            c.z,
            c.x,
            c.y
        );
    }
    Ok(())
}

/// One randomized insert/get interleaving: the mirror accumulates the
/// same prefix of batches the server ingests, and every read is checked
/// against the monolithic-rebuild oracle over that prefix.
fn run_ingest_interleaving(
    threads: usize,
    kidx: usize,
    bandwidth: f64,
    n0: usize,
    ops: &[(u32, u32, u32, u32, u32)],
) -> Result<(), TestCaseError> {
    let kernel = KernelKind::ALL[kidx % KernelKind::ALL.len()].with_bandwidth(bandwidth);
    let mut mirror = scatter(n0, 7);
    let s = server(threads);
    let layer = s
        .add_layer(mirror.clone(), window(), kernel, TAIL_EPS)
        .expect("layer");

    for &(kind, z, xr, yr, n) in ops {
        match kind % 3 {
            // Insert a small batch; compaction decides for itself.
            0 => {
                let batch: Vec<Point> = (0..=(n % 6) as usize)
                    .map(|i| {
                        let f = f64::from(xr.wrapping_mul(31) ^ yr) + i as f64 * 0.43;
                        Point::new(
                            50.0 + (f * 0.389).sin() * 49.0,
                            50.0 + (f * 0.677).cos() * 49.0,
                        )
                    })
                    .collect();
                s.insert_points(layer, &batch).expect("insert");
                mirror.extend_from_slice(&batch);
                // The tier invariant caps the stack logarithmically.
                let depth = s.segment_count(layer).expect("depth");
                let bound = (mirror.len() as f64).log2() as usize + 2;
                prop_assert!(depth <= bound, "depth {depth} exceeds log bound {bound}");
            }
            // Single get, checked bit-for-bit.
            1 => {
                let z = (z % u32::from(MAX_ZOOM + 1)) as u8;
                let per = 1u32 << z;
                let c = TileCoord::new(z, xr % per, yr % per);
                let tile = s.get_tile(layer, c.z, c.x, c.y).expect("get");
                assert_tile_matches(&tile, &mirror, kernel, c)?;
            }
            // Batch get across zooms, every tile checked.
            _ => {
                let coords: Vec<TileCoord> = (0..3u32)
                    .map(|dz| {
                        let z = ((z + dz) % u32::from(MAX_ZOOM + 1)) as u8;
                        let per = 1u32 << z;
                        TileCoord::new(z, (xr + dz) % per, yr % per)
                    })
                    .collect();
                let tiles = s.get_tiles(layer, &coords).expect("get_tiles");
                for (tile, &c) in tiles.iter().zip(&coords) {
                    assert_tile_matches(tile, &mirror, kernel, c)?;
                }
            }
        }
    }

    // Final sweep over zooms 0..=1: the whole pyramid root must match
    // the full batch prefix after the interleaving settles.
    for zz in 0..=1u8 {
        for x in 0..(1u32 << zz) {
            for y in 0..(1u32 << zz) {
                let tile = s.get_tile(layer, zz, x, y).expect("final get");
                assert_tile_matches(&tile, &mirror, kernel, TileCoord::new(zz, x, y))?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn ingested_tiles_bit_identical_to_monolithic_rebuild(
        kidx in 0usize..7,
        bandwidth in 2.0f64..15.0,
        n0 in 1usize..80,
        ops in prop::collection::vec(
            (0u32..9, 0u32..8, 0u32..64, 0u32..64, 0u32..8),
            1..28,
        ),
    ) {
        let _g = LOCK.lock().unwrap();
        for threads in [1usize, 8] {
            run_ingest_interleaving(threads, kidx, bandwidth, n0, &ops)?;
        }
    }
}

#[test]
fn sustained_small_batches_keep_depth_logarithmic() {
    let _g = LOCK.lock().unwrap();
    for threads in [1usize, 8] {
        let kernel = KernelKind::Quartic.with_bandwidth(9.0);
        let mut pts = scatter(64, 2);
        let s = server(threads);
        let layer = s
            .add_layer(pts.clone(), window(), kernel, TAIL_EPS)
            .expect("layer");
        for b in 0..32u64 {
            let batch = scatter(8, 100 + b);
            s.insert_points(layer, &batch).expect("insert");
            pts.extend_from_slice(&batch);
            assert!(
                s.segment_count(layer).expect("depth") <= 7,
                "batch {b}: depth {} breached the tier bound",
                s.segment_count(layer).unwrap()
            );
        }
        for zz in 0..=1u8 {
            for x in 0..(1u32 << zz) {
                for y in 0..(1u32 << zz) {
                    let tile = s.get_tile(layer, zz, x, y).expect("get");
                    let direct = compute_tile_direct(
                        &pts,
                        &window(),
                        kernel,
                        TAIL_EPS,
                        TILE_PX,
                        TileCoord::new(zz, x, y),
                    );
                    for (a, b) in tile.grid.values().iter().zip(direct.values()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}");
                    }
                }
            }
        }
    }
}

#[test]
fn compaction_completing_under_reader_discards_stale_tile() {
    // Pin the interleaving the tier machinery makes possible: a leader
    // snapshots the stack, an insert lands *and compacts* while the
    // leader computes, and the leader's commit must notice the
    // generation bump — the pre-compaction bits are discarded and the
    // recompute serves the post-insert stack. The drained table then
    // certifies a real merge happened under the reader's feet.
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let s = Arc::new(server(2));
    let kernel = KernelKind::Epanechnikov.with_bandwidth(8.0);
    let mut pts = data::uniform_points(64, window(), 23);
    let layer = s
        .add_layer(pts.clone(), window(), kernel, TAIL_EPS)
        .expect("layer");
    // Stack [64, 8]: the *next* batch of 8 will absorb its equal-sized
    // sibling (8 ≤ 2·8) and merge — deterministic tier arithmetic.
    let first = scatter(8, 51);
    s.insert_points(layer, &first).expect("first insert");
    pts.extend_from_slice(&first);
    assert_eq!(s.segment_count(layer).unwrap(), 2);

    // Hold the first leader mid-flight (snapshot taken, nothing
    // computed); later invocations pass through for the recompute.
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let once = Arc::new(AtomicBool::new(true));
    let (entered_h, release_h, once_h) = (
        Arc::clone(&entered),
        Arc::clone(&release),
        Arc::clone(&once),
    );
    s.set_hook(Some(Arc::new(move |point| {
        if !matches!(point, HookPoint::Compute(_)) {
            return;
        }
        if once_h.swap(false, Ordering::SeqCst) {
            entered_h.store(true, Ordering::SeqCst);
            while !release_h.load(Ordering::SeqCst) {
                thread::yield_now();
            }
        }
    })));

    let reader = {
        let s = Arc::clone(&s);
        thread::spawn(move || s.get_tile(0, 1, 0, 0).expect("get"))
    };
    while !entered.load(Ordering::SeqCst) {
        thread::yield_now();
    }
    // Leader parked on the [64, 8] snapshot: land the merging insert.
    let second = scatter(8, 52);
    s.insert_points(layer, &second).expect("second insert");
    pts.extend_from_slice(&second);
    assert_eq!(s.segment_count(layer).unwrap(), 2, "suffix [8,8] merged");
    release.store(true, Ordering::SeqCst);

    let tile = reader.join().expect("reader panicked");
    s.set_hook(None);
    let direct = compute_tile_direct(
        &pts,
        &window(),
        kernel,
        TAIL_EPS,
        TILE_PX,
        TileCoord::new(1, 0, 0),
    );
    for (i, (a, b)) in tile.grid.values().iter().zip(direct.values()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pixel {i} served stale bits");
    }

    let snap = obs::drain();
    obs::disable();
    assert_eq!(snap.counter("serve.stale_discards"), 1, "one discard");
    assert_eq!(snap.counter("ingest.segments_created"), 2, "two batches");
    assert_eq!(snap.counter("ingest.segments_merged"), 2, "[8,8] absorbed");
    assert_eq!(snap.counter("ingest.merge_bytes"), 16 * 36);
    assert_eq!(snap.counter("ingest.points_appended"), 16);
}

#[test]
fn racing_writers_are_serialized() {
    // Two writers race for the same layer. Appends are serialized, so
    // whichever takes the writer lock second builds its successor on
    // top of the first one's committed state: one segment per batch,
    // no lost update, and the served bits follow the commit order.
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let s = Arc::new(server(2));
    let kernel = KernelKind::Quartic.with_bandwidth(10.0);
    let base = data::uniform_points(64, window(), 41);
    let layer = s
        .add_layer(base.clone(), window(), kernel, TAIL_EPS)
        .expect("layer");

    // Writer A (batch of 2) parks on the insert hook, which fires
    // before the writer lock, so writer B (batch of 5) commits first.
    let a_parked = Arc::new(AtomicBool::new(false));
    let b_done = Arc::new(AtomicBool::new(false));
    let (a_parked_h, b_done_h) = (Arc::clone(&a_parked), Arc::clone(&b_done));
    s.set_hook(Some(Arc::new(move |point| {
        let HookPoint::Insert { batch_len, .. } = point else {
            return;
        };
        if batch_len == 2 {
            a_parked_h.store(true, Ordering::SeqCst);
            while !b_done_h.load(Ordering::SeqCst) {
                thread::yield_now();
            }
        }
    })));

    let batch_a = vec![Point::new(20.0, 30.0), Point::new(22.0, 31.0)];
    let batch_b = scatter(5, 77);
    let writer_a = {
        let s = Arc::clone(&s);
        let batch_a = batch_a.clone();
        thread::spawn(move || s.insert_points(layer, &batch_a).expect("insert A"))
    };
    while !a_parked.load(Ordering::SeqCst) {
        thread::yield_now();
    }
    s.insert_points(layer, &batch_b).expect("insert B");
    b_done.store(true, Ordering::SeqCst);
    writer_a.join().expect("writer A panicked");
    s.set_hook(None);

    // Neither batch triggers a merge (64 > 2·7, 5 > 2·2), so each
    // append leaves exactly one new segment on the stack.
    let snap = obs::drain();
    obs::disable();
    assert_eq!(
        snap.counter("ingest.segments_created"),
        2,
        "one segment per batch"
    );
    assert_eq!(snap.counter("ingest.segments_merged"), 0);
    assert_eq!(snap.counter("ingest.points_appended"), 7);
    assert_eq!(
        s.segment_count(layer).unwrap(),
        3,
        "[64, 5, 2]: A landed on top of B"
    );

    // Commit order is B then A; the monolithic oracle over that
    // sequence must match the served bits exactly.
    let mut pts = base;
    pts.extend_from_slice(&batch_b);
    pts.extend_from_slice(&batch_a);
    let tile = s.get_tile(layer, 1, 0, 0).expect("get");
    let direct = compute_tile_direct(
        &pts,
        &window(),
        kernel,
        TAIL_EPS,
        TILE_PX,
        TileCoord::new(1, 0, 0),
    );
    for (a, b) in tile.grid.values().iter().zip(direct.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
