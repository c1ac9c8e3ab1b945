//! Single-flight coalescing, proven by the obs counter table.
//!
//! The contract: N concurrent requests for one cold tile trigger
//! exactly **one** computation; the other N−1 park on the flight's
//! condvar and receive the leader's tile. The headline test makes the
//! race deterministic with the server's compute hook — the leader spins
//! until `serve.coalesced_waits` reaches 15 (each waiter increments the
//! counter *before* parking), so by the time the computation starts,
//! all 15 followers are provably coalesced onto the flight. The obs
//! table then certifies the accounting: 16 misses, 1 tile computed,
//! 15 coalesced waits, 0 hits.

use lsga::core::error::LsgaError;
use lsga::core::par::Threads;
use lsga::obs::Counter;
use lsga::prelude::*;
use lsga::serve::{compute_tile_direct, HookPoint, TileCoord, TileServer, TileServerConfig};
use lsga::{data, obs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

// The obs registry is process-global; every test that enables/drains it
// serializes here.
static LOCK: Mutex<()> = Mutex::new(());

fn window() -> BBox {
    BBox::new(0.0, 0.0, 100.0, 100.0)
}

fn server() -> TileServer {
    TileServer::new(TileServerConfig {
        tile_px: 32,
        max_zoom: 4,
        shards: 4,
        byte_budget: 1 << 22,
        threads: Threads::exact(1),
        ..TileServerConfig::default()
    })
}

#[test]
fn sixteen_concurrent_requests_coalesce_to_one_computation() {
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();

    let s = Arc::new(server());
    let layer = s
        .add_layer(
            data::uniform_points(400, window(), 9),
            window(),
            KernelKind::Quartic.with_bandwidth(10.0),
            1e-9,
        )
        .expect("layer");

    // Leader-side interception: refuse to compute until the other 15
    // requests have counted themselves as coalesced waiters. Waiters
    // bump `serve.coalesced_waits` before parking on the condvar, so
    // spinning on the counter pins the interleaving exactly.
    s.set_hook(Some(Arc::new(|point| {
        if !matches!(point, HookPoint::Compute(_)) {
            return;
        }
        while obs::counter_value(Counter::ServeCoalescedWaits) < 15 {
            thread::yield_now();
        }
    })));

    let barrier = Arc::new(Barrier::new(16));
    let handles: Vec<_> = (0..16)
        .map(|_| {
            let s = Arc::clone(&s);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                s.get_tile(0, 3, 2, 5).expect("get_tile")
            })
        })
        .collect();
    let tiles: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("request thread panicked"))
        .collect();
    s.set_hook(None);
    let _ = layer;

    // Everyone got the same physical tile (leader's Arc, fanned out).
    for t in &tiles[1..] {
        assert!(
            Arc::ptr_eq(&tiles[0], t),
            "waiter received a different tile"
        );
    }

    let snap = obs::drain();
    obs::disable();
    assert_eq!(
        snap.counter("serve.tiles_computed"),
        1,
        "exactly one compute"
    );
    assert_eq!(snap.counter("serve.coalesced_waits"), 15, "15 coalesced");
    assert_eq!(snap.counter("serve.cache_misses"), 16, "all 16 missed cold");
    assert_eq!(snap.counter("serve.cache_hits"), 0);
    assert_eq!(snap.counter("serve.stale_discards"), 0);

    // The computation happened under a span, once.
    let compute_spans = snap
        .spans()
        .iter()
        .filter(|sp| sp.name == "serve.compute_tile")
        .map(|sp| sp.count)
        .sum::<u64>();
    assert_eq!(compute_spans, 1, "one serve.compute_tile span");
}

#[test]
fn leader_panic_fails_waiters_and_unwedges_the_key() {
    // A panic in the leader's compute path must not strand coalesced
    // waiters on the condvar or wedge the key: the abort guard fails
    // the flight (waiters get `LsgaError::Panicked`) and retires it
    // (the next request leads a fresh, working flight).
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let s = Arc::new(server());
    let pts = data::uniform_points(200, window(), 17);
    let layer = s
        .add_layer(
            pts.clone(),
            window(),
            KernelKind::Quartic.with_bandwidth(10.0),
            1e-9,
        )
        .expect("layer");

    // First hook invocation (the doomed leader): wait until the other
    // request has provably parked as a coalesced waiter, then panic.
    // Later invocations are no-ops so the retry below computes.
    let fired = Arc::new(AtomicBool::new(false));
    let fired_hook = Arc::clone(&fired);
    s.set_hook(Some(Arc::new(move |point| {
        if !matches!(point, HookPoint::Compute(_)) {
            return;
        }
        if !fired_hook.swap(true, Ordering::SeqCst) {
            while obs::counter_value(Counter::ServeCoalescedWaits) < 1 {
                thread::yield_now();
            }
            panic!("injected leader panic");
        }
    })));

    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let s = Arc::clone(&s);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                s.get_tile(0, 2, 1, 1)
            })
        })
        .collect();
    let mut panicked = 0;
    let mut failed_waits = 0;
    for h in handles {
        match h.join() {
            Err(_) => panicked += 1, // the leader: panic propagates in its thread
            Ok(Err(LsgaError::Panicked(_))) => failed_waits += 1,
            Ok(other) => panic!("expected panic or Panicked error, got {other:?}"),
        }
    }
    assert_eq!(panicked, 1, "exactly one request led and panicked");
    assert_eq!(failed_waits, 1, "the waiter woke with the leader's failure");

    // The key is not wedged: a fresh request leads a new flight and
    // serves exact bits.
    let tile = s.get_tile(0, 2, 1, 1).expect("post-panic request");
    let direct = compute_tile_direct(
        &pts,
        &window(),
        KernelKind::Quartic.with_bandwidth(10.0),
        1e-9,
        32,
        TileCoord::new(2, 1, 1),
    );
    for (a, b) in tile.grid.values().iter().zip(direct.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    s.set_hook(None);
    let _ = layer;
    obs::disable();
}

#[test]
fn insert_completing_before_publish_forces_recompute() {
    // The stale-publish race from the review: a leader snapshots, an
    // insert completes while it computes, and a fresh request could
    // join the still-running flight *after* the insert. The commit
    // protocol must detect the generation bump and recompute before
    // publishing — nobody may receive pre-insert bits.
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let s = Arc::new(server());
    let kernel = KernelKind::Epanechnikov.with_bandwidth(8.0);
    let mut pts = data::uniform_points(150, window(), 23);
    let layer = s
        .add_layer(pts.clone(), window(), kernel, 1e-9)
        .expect("layer");

    // First hook invocation: hold the leader mid-flight (snapshot
    // taken, nothing computed) until the insert below has completed.
    // The recompute iteration passes through untouched.
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let first = Arc::new(AtomicBool::new(true));
    let (entered_h, release_h, first_h) = (
        Arc::clone(&entered),
        Arc::clone(&release),
        Arc::clone(&first),
    );
    s.set_hook(Some(Arc::new(move |point| {
        if !matches!(point, HookPoint::Compute(_)) {
            return;
        }
        if first_h.swap(false, Ordering::SeqCst) {
            entered_h.store(true, Ordering::SeqCst);
            while !release_h.load(Ordering::SeqCst) {
                thread::yield_now();
            }
        }
    })));

    let reader = {
        let s = Arc::clone(&s);
        thread::spawn(move || s.get_tile(0, 2, 0, 0).expect("get_tile"))
    };
    while !entered.load(Ordering::SeqCst) {
        thread::yield_now();
    }
    // Leader is parked on its pre-insert snapshot; complete an insert.
    let batch = vec![Point::new(10.0, 12.0), Point::new(11.0, 9.0)];
    s.insert_points(layer, &batch).expect("insert");
    pts.extend_from_slice(&batch);
    release.store(true, Ordering::SeqCst);

    let tile = reader.join().expect("reader panicked");
    s.set_hook(None);

    // The served tile reflects the post-insert point set, bit for bit.
    let direct = compute_tile_direct(&pts, &window(), kernel, 1e-9, 32, TileCoord::new(2, 0, 0));
    for (i, (a, b)) in tile.grid.values().iter().zip(direct.values()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pixel {i} served pre-insert bits");
    }

    let snap = obs::drain();
    obs::disable();
    assert_eq!(
        snap.counter("serve.stale_discards"),
        1,
        "the pre-insert computation was discarded"
    );
    assert_eq!(
        snap.counter("serve.tiles_computed"),
        2,
        "one stale compute + one recompute"
    );
}

#[test]
fn post_flight_requests_hit_the_cache() {
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let s = server();
    let layer = s
        .add_layer(
            data::uniform_points(100, window(), 4),
            window(),
            KernelKind::Epanechnikov.with_bandwidth(8.0),
            1e-9,
        )
        .expect("layer");
    let a = s.get_tile(layer, 2, 1, 3).expect("cold");
    let b = s.get_tile(layer, 2, 1, 3).expect("warm");
    assert!(Arc::ptr_eq(&a, &b));
    let snap = obs::drain();
    obs::disable();
    assert_eq!(snap.counter("serve.tiles_computed"), 1);
    assert_eq!(snap.counter("serve.cache_misses"), 1);
    assert_eq!(snap.counter("serve.cache_hits"), 1);
    assert_eq!(snap.counter("serve.coalesced_waits"), 0);
}

#[test]
fn request_accounting_balances_under_concurrent_hammering() {
    // No hook: genuine racing. The exact hit/miss split is timing-
    // dependent, but conservation laws must hold: every request is a
    // hit, a computed miss, or a coalesced miss; and computations never
    // exceed misses.
    let _g = LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let s = Arc::new(server());
    let _ = s
        .add_layer(
            data::uniform_points(200, window(), 31),
            window(),
            KernelKind::Triangular.with_bandwidth(7.0),
            1e-9,
        )
        .expect("layer");
    let per_thread = 40u32;
    let handles: Vec<_> = (0..8)
        .map(|t: u32| {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                for i in 0..per_thread {
                    // Overlapping little working set → plenty of both
                    // hits and races onto the same cold tiles.
                    let z = 2u8;
                    let x = (i + t) % 4;
                    let y = (i * 3 + t) % 4;
                    let _ = s.get_tile(0, z, x, y).expect("get");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hammer thread panicked");
    }
    let snap = obs::drain();
    obs::disable();
    let total = u64::from(per_thread) * 8;
    let hits = snap.counter("serve.cache_hits");
    let misses = snap.counter("serve.cache_misses");
    let computed = snap.counter("serve.tiles_computed");
    let coalesced = snap.counter("serve.coalesced_waits");
    assert_eq!(hits + misses, total, "every request is a hit or a miss");
    assert_eq!(
        computed + coalesced,
        misses,
        "every miss either computed or coalesced"
    );
    assert!(computed >= 1, "something must have been computed");
}
