//! End-to-end coherence suite for the HTTP tile front-end.
//!
//! Everything here goes over real sockets — `TcpStream` to a bound
//! [`HttpServer`](lsga::http::HttpServer) — and checks the three
//! serving guarantees at the wire level:
//!
//! 1. **Bit-identity**: the f64 payload of a served tile decodes to
//!    exactly the pixels of [`compute_tile_direct`] — fresh index, no
//!    server, no cache — compared with `to_bits`, not epsilon. The u8
//!    payload dequantizes to within half a quantization step.
//! 2. **Prefix consistency under racing ingest**: while a writer POSTs
//!    point batches, every concurrently served tile equals the direct
//!    computation over *some* prefix of the batch sequence, never a
//!    torn mixture — and never a prefix older than what the writer had
//!    already seen acknowledged.
//! 3. **503 iff the queue is full**: with the single worker parked on
//!    a gated compute and the connection queue filled to capacity, the
//!    next connection is refused with `503` + `Retry-After`; once the
//!    gate opens every queued request completes exactly; an idle
//!    server never emits `503`.

use lsga::core::par::Threads;
use lsga::http::{client, HttpServer, HttpServerConfig};
use lsga::prelude::*;
use lsga::serve::{compute_tile_direct, HookPoint, TileServer, TileServerConfig};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TILE_PX: usize = 8;
const MAX_ZOOM: u8 = 3;
const TAIL_EPS: f64 = 1e-6;
const TIMEOUT: Duration = Duration::from_secs(10);

fn window() -> BBox {
    BBox::new(0.0, 0.0, 100.0, 100.0)
}

fn kernel() -> AnyKernel {
    KernelKind::Quartic.with_bandwidth(18.0)
}

/// Deterministic scatter inside the window.
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

/// A tile server with one layer over `points`, fronted by HTTP.
fn serve(points: Vec<Point>, http_cfg: HttpServerConfig) -> (HttpServer, usize) {
    let tiles = Arc::new(TileServer::new(TileServerConfig {
        tile_px: TILE_PX,
        max_zoom: MAX_ZOOM,
        shards: 2,
        threads: Threads::exact(2),
        ..TileServerConfig::default()
    }));
    let layer = tiles
        .add_layer(points, window(), kernel(), TAIL_EPS)
        .expect("layer");
    let server = HttpServer::start(tiles, http_cfg).expect("bind");
    (server, layer)
}

fn direct_bits(points: &[Point], c: TileCoord) -> Vec<u64> {
    compute_tile_direct(points, &window(), kernel(), TAIL_EPS, TILE_PX, c)
        .values()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn get_tile_bits(addr: SocketAddr, layer: usize, c: TileCoord) -> Vec<u64> {
    let target = format!("/tiles/{layer}/{}/{}/{}", c.z, c.x, c.y);
    let resp = client::get(addr, &target, &[], TIMEOUT).expect("GET tile");
    assert_eq!(
        resp.status,
        200,
        "{target}: {:?}",
        String::from_utf8_lossy(&resp.body)
    );
    assert_eq!(resp.header("x-lsga-tier"), Some("exact"));
    assert_eq!(resp.header("content-type"), Some("application/x-lsga-f64"));
    resp.decode_f64().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn served_f64_bytes_are_bit_identical_to_direct_compute() {
    let points = scatter(400, 3);
    let (server, layer) = serve(points.clone(), HttpServerConfig::default());
    let addr = server.local_addr();

    let mut coords = vec![TileCoord::new(0, 0, 0)];
    for z in 1..=MAX_ZOOM {
        let n = 1u32 << z;
        coords.push(TileCoord::new(z, 0, 0));
        coords.push(TileCoord::new(z, n - 1, n - 1));
        coords.push(TileCoord::new(z, n / 2, n - 1));
    }
    for c in coords {
        // Twice per coordinate: the second GET is a cache hit and must
        // serve the same bits.
        let first = get_tile_bits(addr, layer, c);
        assert_eq!(first, direct_bits(&points, c), "tile {c:?}");
        let second = get_tile_bits(addr, layer, c);
        assert_eq!(first, second, "cache hit diverged for {c:?}");
    }
    server.shutdown();
}

#[test]
fn u8_payload_dequantizes_within_half_step_of_direct() {
    let points = scatter(300, 9);
    let (server, layer) = serve(points.clone(), HttpServerConfig::default());
    let addr = server.local_addr();
    let c = TileCoord::new(1, 1, 0);
    let direct = compute_tile_direct(&points, &window(), kernel(), TAIL_EPS, TILE_PX, c);

    // Once via ?fmt=, once via Accept — the two negotiation paths must
    // agree byte-for-byte.
    let via_query =
        client::get(addr, &format!("/tiles/{layer}/1/1/0?fmt=u8"), &[], TIMEOUT).expect("GET u8");
    let via_accept = client::get(
        addr,
        &format!("/tiles/{layer}/1/1/0"),
        &[("Accept", "application/x-lsga-u8")],
        TIMEOUT,
    )
    .expect("GET u8 via accept");
    for resp in [&via_query, &via_accept] {
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/x-lsga-u8"));
        assert_eq!(resp.body.len(), TILE_PX * TILE_PX);
    }
    assert_eq!(via_query.body, via_accept.body);

    let decoded = via_query.decode_u8().expect("range headers");
    let min: f64 = via_query.header("x-lsga-min").unwrap().parse().unwrap();
    let max: f64 = via_query.header("x-lsga-max").unwrap().parse().unwrap();
    assert!(max >= min);
    let half_step = (max - min) / 255.0 / 2.0;
    for (i, (&got, &want)) in decoded.iter().zip(direct.values()).enumerate() {
        assert!(
            (got - want).abs() <= half_step + 1e-12,
            "pixel {i}: dequantized {got} vs direct {want} (half step {half_step})"
        );
    }
    server.shutdown();
}

#[test]
fn keep_alive_and_pipelined_requests_serve_in_order() {
    let points = scatter(200, 5);
    let (server, layer) = serve(points.clone(), HttpServerConfig::default());
    let addr = server.local_addr();
    let a = TileCoord::new(1, 0, 0);
    let b = TileCoord::new(1, 1, 1);

    // Two requests written back-to-back before reading anything: the
    // server must answer both, in order, on the same connection.
    let mut conn = client::connect(addr, TIMEOUT).expect("connect");
    let req = |c: &TileCoord| {
        format!(
            "GET /tiles/{layer}/{}/{}/{} HTTP/1.1\r\nHost: lsga\r\n\r\n",
            c.z, c.x, c.y
        )
    };
    let pipelined = format!("{}{}", req(&a), req(&b));
    conn.write_all(pipelined.as_bytes()).expect("write");
    let first = client::read_response(&mut conn).expect("first response");
    let second = client::read_response(&mut conn).expect("second response");
    for (resp, c) in [(&first, &a), (&second, &b)] {
        assert_eq!(resp.status, 200);
        let bits: Vec<u64> = resp.decode_f64().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, direct_bits(&points, *c), "pipelined tile {c:?}");
    }

    // Sequential keep-alive on the same connection still works after
    // the pipelined pair.
    for c in [a, b, TileCoord::new(0, 0, 0)] {
        conn.write_all(req(&c).as_bytes()).expect("write");
        let resp = client::read_response(&mut conn).expect("keep-alive response");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    server.shutdown();
}

#[test]
fn racing_ingest_is_prefix_consistent_over_the_wire() {
    const BATCH: usize = 12;
    const BATCHES: usize = 6;
    let base = scatter(150, 7);
    let batches: Vec<Vec<Point>> = (0..BATCHES)
        .map(|b| scatter(BATCH, 100 + b as u64))
        .collect();

    // Oracle: the direct tile bits for every prefix of the sequence.
    let c = TileCoord::new(0, 0, 0);
    let mut prefix_bits = Vec::new();
    let mut acc = base.clone();
    prefix_bits.push(direct_bits(&acc, c));
    for b in &batches {
        acc.extend_from_slice(b);
        prefix_bits.push(direct_bits(&acc, c));
    }

    let (server, layer) = serve(base, HttpServerConfig::default());
    let addr = server.local_addr();
    let acked = Arc::new(AtomicUsize::new(0));
    let writer = {
        let acked = Arc::clone(&acked);
        let batches = batches.clone();
        std::thread::spawn(move || {
            for b in &batches {
                let resp = client::post(
                    addr,
                    &format!("/layers/{layer}/points"),
                    &client::encode_points(b),
                    TIMEOUT,
                )
                .expect("POST points");
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                acked.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut seen_max = 0usize;
    while acked.load(Ordering::SeqCst) < BATCHES && Instant::now() < deadline {
        let before = acked.load(Ordering::SeqCst);
        let bits = get_tile_bits(addr, layer, c);
        let k = prefix_bits
            .iter()
            .position(|p| *p == bits)
            .unwrap_or_else(|| panic!("served tile matches no batch prefix (acked {before})"));
        assert!(
            k >= before,
            "served prefix {k} is older than the {before} already-acked batches"
        );
        seen_max = seen_max.max(k);
    }
    writer.join().expect("writer");

    // Quiesced: the final tile is exactly the full sequence.
    assert_eq!(get_tile_bits(addr, layer, c), prefix_bits[BATCHES]);
    assert!(seen_max <= BATCHES);
    server.shutdown();
}

#[test]
fn rejects_with_503_iff_the_queue_is_full() {
    let points = scatter(100, 11);
    let (server, layer) = serve(
        points,
        HttpServerConfig {
            workers: 1,
            queue_cap: 2,
            ..HttpServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let target = format!("/tiles/{layer}/1/0/0");

    // Idle server: no 503, ever.
    for _ in 0..4 {
        let resp = client::get(addr, &target, &[], TIMEOUT).expect("idle GET");
        assert_eq!(resp.status, 200);
    }
    server.tiles().clear_cache();

    // Park the single worker: the compute hook spins until the gate
    // opens, so the first GET occupies the worker indefinitely.
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    {
        let gate = Arc::clone(&gate);
        let entered = Arc::clone(&entered);
        server.tiles().set_hook(Some(Arc::new(move |point| {
            if !matches!(point, HookPoint::Compute(_)) {
                return;
            }
            entered.store(true, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        })));
    }

    let mut leader = client::connect(addr, TIMEOUT).expect("leader connect");
    leader
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: lsga\r\n\r\n").as_bytes())
        .expect("leader write");
    let spin_deadline = Instant::now() + TIMEOUT;
    while !entered.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < spin_deadline,
            "worker never reached compute"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Fill the worker's queue to capacity with pending connections.
    let mut queued = Vec::new();
    for _ in 0..2 {
        let mut conn = client::connect(addr, TIMEOUT).expect("queued connect");
        conn.write_all(format!("GET {target} HTTP/1.1\r\nHost: lsga\r\n\r\n").as_bytes())
            .expect("queued write");
        queued.push(conn);
    }
    let spin_deadline = Instant::now() + TIMEOUT;
    while server.queue_depths().iter().sum::<usize>() < 2 {
        assert!(Instant::now() < spin_deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Now the system is saturated: the next connection must be
    // refused, and the backoff hint must be derived from the live
    // admission estimate, not hardcoded. With the leader parked inside
    // its compute (inflight = 1) and the estimate pinned at 3.5 s, the
    // serialized-queue wait is (1 + 1) · 3.5 s, rounded up → 7.
    server
        .tiles()
        .set_compute_estimate(Duration::from_millis(3500));
    let resp = client::get(addr, &target, &[], TIMEOUT).expect("overflow GET");
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.header("retry-after"), Some("7"));
    assert_eq!(resp.header("connection"), Some("close"));
    server.tiles().set_compute_estimate(Duration::ZERO);

    // Open the gate: the leader and every queued request complete with
    // full-quality answers.
    gate.store(true, Ordering::SeqCst);
    let first = client::read_response(&mut leader).expect("leader response");
    assert_eq!(first.status, 200);
    for mut conn in queued {
        let resp = client::read_response(&mut conn).expect("queued response");
        assert_eq!(resp.status, 200);
    }
    server.tiles().set_hook(None);

    // Back under capacity: no more 503s.
    let resp = client::get(addr, &target, &[], TIMEOUT).expect("recovered GET");
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn deadline_requests_flow_through_the_admission_controller() {
    let points = scatter(250, 13);
    let (server, layer) = serve(points.clone(), HttpServerConfig::default());
    let addr = server.local_addr();

    // A huge compute estimate forces the EWMA controller to degrade
    // any request with a tight deadline.
    server
        .tiles()
        .set_compute_estimate(Duration::from_millis(250));
    let resp = client::get(
        addr,
        &format!("/tiles/{layer}/1/0/0?deadline_ms=1&eps=0.2&seed=5"),
        &[],
        TIMEOUT,
    )
    .expect("degraded GET");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-lsga-tier"), Some("sampled"));
    let vals = resp.decode_f64();
    assert_eq!(vals.len(), TILE_PX * TILE_PX);
    assert!(vals.iter().all(|v| v.is_finite()));

    // Same deadline via header, bounds mode.
    server.tiles().clear_cache();
    let resp = client::get(
        addr,
        &format!("/tiles/{layer}/1/1/0?deadline_ms=1&mode=bounds&eps=0.3"),
        &[],
        TIMEOUT,
    )
    .expect("bounds GET");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-lsga-tier"), Some("bounds"));

    // Clearing the estimate restores exact service under a deadline —
    // and the bits are again direct-compute identical.
    server.tiles().set_compute_estimate(Duration::ZERO);
    server.tiles().clear_cache();
    let c = TileCoord::new(1, 0, 1);
    let resp = client::get(
        addr,
        &format!("/tiles/{layer}/1/0/1?deadline_ms=60000"),
        &[],
        TIMEOUT,
    )
    .expect("relaxed GET");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-lsga-tier"), Some("exact"));
    let bits: Vec<u64> = resp.decode_f64().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, direct_bits(&points, c));
    server.shutdown();
}
