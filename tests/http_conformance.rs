//! Wire-level conformance suite for `lsga-http`.
//!
//! The contract under test: **any** byte sequence arriving on the
//! socket produces a well-formed HTTP response with the documented
//! status — never a panic, never a hang, never a connection that the
//! server silently wedges. Three layers of evidence:
//!
//! - a **directed matrix** of malformed inputs, one per parse/route
//!   error branch, each pinned to its expected 4xx status over a real
//!   socket (the in-process halves of these branches are unit-tested
//!   next to the code; here the same inputs travel the wire);
//! - **proptest byte-mangling**: valid requests are truncated, bit
//!   flipped, stuffed with junk, and doubled, then fired at a live
//!   server; the only legal outcomes are a `2xx..5xx` response or a
//!   clean close within the server's read-timeout budget;
//! - **lifecycle tests**: graceful shutdown completes the in-flight
//!   request, sheds queued connections with `503`, joins every thread
//!   the server spawned (verified against `/proc/self/task` by thread
//!   name prefix), and releases the listening port.

use lsga::core::par::Threads;
use lsga::http::{client, HttpServer, HttpServerConfig};
use lsga::obs::{self, Counter};
use lsga::prelude::*;
use lsga::serve::{HookPoint, TileServer, TileServerConfig};
use proptest::prelude::*;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const TILE_PX: usize = 8;
const MAX_ZOOM: u8 = 2;
const TAIL_EPS: f64 = 1e-6;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn window() -> BBox {
    BBox::new(0.0, 0.0, 100.0, 100.0)
}

fn points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let f = i as f64;
            Point::new(
                50.0 + (f * 0.831).sin() * 49.0,
                50.0 + (f * 0.557).cos() * 49.0,
            )
        })
        .collect()
}

fn start_server(cfg: HttpServerConfig) -> HttpServer {
    let tiles = Arc::new(TileServer::new(TileServerConfig {
        tile_px: TILE_PX,
        max_zoom: MAX_ZOOM,
        shards: 2,
        threads: Threads::exact(2),
        ..TileServerConfig::default()
    }));
    tiles
        .add_layer(
            points(60),
            window(),
            KernelKind::Quartic.with_bandwidth(20.0),
            TAIL_EPS,
        )
        .expect("layer");
    HttpServer::start(tiles, cfg).expect("bind")
}

/// One shared server for the stateless directed cases (cheaper than a
/// server per case; each case uses its own connection).
fn shared_server() -> &'static HttpServer {
    static SERVER: OnceLock<HttpServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        start_server(HttpServerConfig {
            read_timeout: Duration::from_millis(300),
            max_body_bytes: 4096,
            ..HttpServerConfig::default()
        })
    })
}

#[test]
fn directed_malformed_requests_yield_their_documented_4xx() {
    let addr = shared_server().local_addr();
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(5000));
    let mut many_headers = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..70 {
        many_headers.push_str(&format!("x-h{i}: v\r\n"));
    }
    many_headers.push_str("\r\n");
    let huge_head = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "b".repeat(9000)
    );

    let cases: Vec<(&str, String, u16)> = vec![
        ("empty request line", "\r\n\r\n".into(), 400),
        ("one-token request line", "GARBAGE\r\n\r\n".into(), 400),
        (
            "four-token request line",
            "GET /healthz HTTP/1.1 extra\r\n\r\n".into(),
            400,
        ),
        (
            "unknown method",
            "BREW /healthz HTTP/1.1\r\n\r\n".into(),
            405,
        ),
        (
            "unsupported protocol",
            "GET /healthz HTCPCP/1.0\r\n\r\n".into(),
            400,
        ),
        (
            "non-origin-form target",
            "GET healthz HTTP/1.1\r\n\r\n".into(),
            400,
        ),
        (
            "header without colon",
            "GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n".into(),
            400,
        ),
        (
            "header name with space",
            "GET /healthz HTTP/1.1\r\nBad Name: v\r\n\r\n".into(),
            400,
        ),
        ("unknown path", "GET /nope HTTP/1.1\r\n\r\n".into(), 404),
        (
            "short tile path",
            "GET /tiles/0/1/0 HTTP/1.1\r\n\r\n".into(),
            404,
        ),
        (
            "non-numeric z",
            "GET /tiles/0/zoom/0/0 HTTP/1.1\r\n\r\n".into(),
            400,
        ),
        (
            "negative x",
            "GET /tiles/0/1/-1/0 HTTP/1.1\r\n\r\n".into(),
            400,
        ),
        (
            "zoom past the pyramid",
            format!("GET /tiles/0/{}/0/0 HTTP/1.1\r\n\r\n", MAX_ZOOM + 1),
            404,
        ),
        (
            "column outside the level",
            "GET /tiles/0/1/2/0 HTTP/1.1\r\n\r\n".into(),
            404,
        ),
        (
            "unknown layer",
            "GET /tiles/9/0/0/0 HTTP/1.1\r\n\r\n".into(),
            404,
        ),
        (
            "unknown query key",
            "GET /tiles/0/0/0/0?zoom=1 HTTP/1.1\r\n\r\n".into(),
            400,
        ),
        (
            "duplicate query key",
            "GET /tiles/0/0/0/0?fmt=f64&fmt=f64 HTTP/1.1\r\n\r\n".into(),
            400,
        ),
        (
            "approximation knob without deadline",
            "GET /tiles/0/0/0/0?eps=0.1 HTTP/1.1\r\n\r\n".into(),
            400,
        ),
        (
            "non-numeric deadline",
            "GET /tiles/0/0/0/0?deadline_ms=soon HTTP/1.1\r\n\r\n".into(),
            400,
        ),
        (
            "illegal eps for the policy",
            "GET /tiles/0/0/0/0?deadline_ms=5&eps=-1 HTTP/1.1\r\n\r\n".into(),
            400,
        ),
        (
            "unacceptable accept",
            "GET /tiles/0/0/0/0 HTTP/1.1\r\nAccept: image/png\r\n\r\n".into(),
            406,
        ),
        (
            "method not allowed on tiles",
            "POST /tiles/0/0/0/0 HTTP/1.1\r\nContent-Length: 0\r\n\r\n".into(),
            405,
        ),
        (
            "method not allowed on points",
            "GET /layers/0/points HTTP/1.1\r\n\r\n".into(),
            405,
        ),
        ("request line too long", long_line, 414),
        ("too many header fields", many_headers, 431),
        ("head past the byte cap", huge_head, 431),
    ];

    for (what, raw, expected) in cases {
        let resp = client::send(addr, raw.as_bytes(), CLIENT_TIMEOUT)
            .unwrap_or_else(|e| panic!("{what}: no response ({e})"));
        assert_eq!(
            resp.status,
            expected,
            "{what}: got {} — body {:?}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        );
        // Every error closes the connection so a poisoned byte stream
        // can never smear into a next request.
        assert_eq!(resp.header("connection"), Some("close"), "{what}");
        assert!(!resp.body.is_empty(), "{what}: error body must say why");
    }
}

#[test]
fn truncated_and_stalled_heads_get_400_and_408() {
    let addr = shared_server().local_addr();

    // Half-close after a partial head: EOF mid-request is a 400.
    let mut conn = client::connect(addr, CLIENT_TIMEOUT).expect("connect");
    conn.write_all(b"GET /tiles/0/0").expect("partial write");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let resp = client::read_response(&mut conn).expect("response to truncated head");
    assert_eq!(resp.status, 400);

    // Stalling mid-head past the server's read timeout is a 408.
    let mut conn = client::connect(addr, CLIENT_TIMEOUT).expect("connect");
    conn.write_all(b"GET /tiles/0/0").expect("partial write");
    let t0 = Instant::now();
    let resp = client::read_response(&mut conn).expect("response to stalled head");
    assert_eq!(resp.status, 408);
    assert!(
        t0.elapsed() >= Duration::from_millis(250),
        "408 must wait out the read timeout, got it after {:?}",
        t0.elapsed()
    );

    // Connecting and saying nothing at all: the server just closes.
    let mut conn = client::connect(addr, CLIENT_TIMEOUT).expect("connect");
    let err = client::read_response(&mut conn).expect_err("silent connection closes quietly");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn post_body_framing_is_strictly_validated() {
    let addr = shared_server().local_addr();

    // No Content-Length: 411.
    let resp = client::send(
        addr,
        b"POST /layers/0/points HTTP/1.1\r\nHost: lsga\r\n\r\n",
        CLIENT_TIMEOUT,
    )
    .expect("411 response");
    assert_eq!(resp.status, 411);

    // Non-numeric Content-Length: 400.
    let resp = client::send(
        addr,
        b"POST /layers/0/points HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        CLIENT_TIMEOUT,
    )
    .expect("400 response");
    assert_eq!(resp.status, 400);

    // Not a multiple of the 16-byte point stride: 400, body unread.
    let resp = client::send(
        addr,
        b"POST /layers/0/points HTTP/1.1\r\nContent-Length: 15\r\n\r\n0123456789abcde",
        CLIENT_TIMEOUT,
    )
    .expect("400 response");
    assert_eq!(resp.status, 400);

    // Declared length past the cap (4096 here): 413 without reading.
    let resp = client::send(
        addr,
        b"POST /layers/0/points HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
        CLIENT_TIMEOUT,
    )
    .expect("413 response");
    assert_eq!(resp.status, 413);

    // Unknown layer with a well-formed body: 404.
    let body = client::encode_points(&[Point::new(50.0, 50.0)]);
    let resp = client::post(addr, "/layers/9/points", &body, CLIENT_TIMEOUT).expect("404");
    assert_eq!(resp.status, 404);

    // And the happy path, to prove the validations above are the only
    // gate: a correct POST appends and reports the count.
    let resp = client::post(addr, "/layers/0/points", &body, CLIENT_TIMEOUT).expect("200");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.header("x-lsga-points"), Some("1"));
}

#[test]
fn pipelined_garbage_after_a_valid_request_answers_then_closes() {
    let addr = shared_server().local_addr();
    let mut conn = client::connect(addr, CLIENT_TIMEOUT).expect("connect");
    let mut bytes = b"GET /tiles/0/0/0/0 HTTP/1.1\r\nHost: lsga\r\n\r\n".to_vec();
    bytes.extend_from_slice(b"\x00\x01\xffnot http at all\r\n\r\n");
    conn.write_all(&bytes).expect("write");

    let first = client::read_response(&mut conn).expect("valid request served");
    assert_eq!(first.status, 200);
    assert_eq!(first.body.len(), TILE_PX * TILE_PX * 8);
    let second = client::read_response(&mut conn).expect("garbage answered");
    assert_eq!(second.status, 400);
    assert_eq!(second.header("connection"), Some("close"));
    // After the error the server hangs up.
    let end = client::read_response(&mut conn).expect_err("closed after error");
    assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Byte-mangling fuzz: start from a valid request, apply a random
    /// mutation, fire it at a live server. The server must answer with
    /// some status or close the connection — within the client timeout,
    /// which is generous against the server's 300 ms read timeout — and
    /// must never hang or crash. (A panic in a worker would surface as
    /// every later case timing out.)
    fn mangled_requests_never_hang_the_server(
        corpus in 0usize..4,
        op in 0usize..4,
        pos in 0usize..120,
        val32 in 0u32..256,
        extra32 in prop::collection::vec(0u32..256, 0..24),
    ) {
        let val = val32 as u8;
        let extra: Vec<u8> = extra32.iter().map(|&b| b as u8).collect();
        let addr = shared_server().local_addr();
        let base: Vec<u8> = match corpus {
            0 => b"GET /tiles/0/1/1/0?fmt=u8 HTTP/1.1\r\nHost: lsga\r\n\r\n".to_vec(),
            1 => b"GET /tiles/0/0/0/0?deadline_ms=50 HTTP/1.1\r\nAccept: */*\r\n\r\n".to_vec(),
            2 => {
                let body = client::encode_points(&[Point::new(10.0, 10.0)]);
                let mut req = format!(
                    "POST /layers/0/points HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                ).into_bytes();
                req.extend_from_slice(&body);
                req
            }
            _ => b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        };
        let mut bytes = base.clone();
        match op {
            // Flip one byte.
            0 => {
                let i = pos % bytes.len();
                bytes[i] = val;
            }
            // Truncate.
            1 => bytes.truncate(pos % (bytes.len() + 1)),
            // Insert junk.
            2 => {
                let i = pos % (bytes.len() + 1);
                bytes.splice(i..i, extra.iter().copied());
            }
            // Pipeline the request after itself, then mangle the tail.
            _ => {
                bytes.extend_from_slice(&base);
                let i = base.len() + pos % base.len();
                bytes[i] = val;
            }
        }

        let mut conn = client::connect(addr, CLIENT_TIMEOUT).expect("connect");
        // A write error just means the server already rejected us.
        let _ = conn.write_all(&bytes);
        let _ = conn.shutdown(Shutdown::Write);
        loop {
            match client::read_response(&mut conn) {
                Ok(resp) => {
                    prop_assert!(
                        (200..600).contains(&resp.status),
                        "nonsense status {}",
                        resp.status
                    );
                    if resp.header("connection") == Some("close") {
                        break;
                    }
                }
                Err(e) => {
                    prop_assert!(
                        !matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ),
                        "server hung on mangled input ({e})"
                    );
                    break;
                }
            }
        }
    }
}

/// Threads of this process whose name starts with `prefix`, via
/// `/proc/self/task`. `None` when the platform has no procfs.
fn threads_with_prefix(prefix: &str) -> Option<usize> {
    let dir = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        dir.filter_map(|e| {
            let comm = std::fs::read_to_string(e.ok()?.path().join("comm")).ok()?;
            comm.trim().starts_with(prefix).then_some(())
        })
        .count(),
    )
}

#[test]
fn graceful_shutdown_completes_inflight_sheds_queued_and_joins() {
    let server = start_server(HttpServerConfig {
        workers: 1,
        queue_cap: 4,
        read_timeout: Duration::from_millis(500),
        ..HttpServerConfig::default()
    });
    let addr = server.local_addr();
    let prefix = server.thread_prefix();
    let tiles = Arc::clone(server.tiles());
    // Names are set by each spawned thread itself, so give them a
    // moment to appear before counting.
    if threads_with_prefix(&prefix).is_some() {
        let spin = Instant::now() + CLIENT_TIMEOUT;
        while threads_with_prefix(&prefix) != Some(2) {
            assert!(
                Instant::now() < spin,
                "expected 1 acceptor + 1 worker running, saw {:?}",
                threads_with_prefix(&prefix)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Park the worker inside a compute so we control what "in flight"
    // means.
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    {
        let gate = Arc::clone(&gate);
        let entered = Arc::clone(&entered);
        tiles.set_hook(Some(Arc::new(move |point| {
            if !matches!(point, HookPoint::Compute(_)) {
                return;
            }
            entered.store(true, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        })));
    }
    let mut inflight = client::connect(addr, CLIENT_TIMEOUT).expect("connect");
    inflight
        .write_all(b"GET /tiles/0/1/0/0 HTTP/1.1\r\nHost: lsga\r\n\r\n")
        .expect("write");
    let spin = Instant::now() + CLIENT_TIMEOUT;
    while !entered.load(Ordering::SeqCst) {
        assert!(Instant::now() < spin, "request never reached compute");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Two more connections sit in the worker's queue.
    let mut queued = Vec::new();
    for _ in 0..2 {
        let mut conn = client::connect(addr, CLIENT_TIMEOUT).expect("connect");
        conn.write_all(b"GET /tiles/0/1/1/0 HTTP/1.1\r\nHost: lsga\r\n\r\n")
            .expect("write");
        queued.push(conn);
    }
    let spin = Instant::now() + CLIENT_TIMEOUT;
    while server.queue_depths().iter().sum::<usize>() < 2 {
        assert!(Instant::now() < spin, "queue never filled");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Shut down while the worker is parked; release the gate shortly
    // after so the in-flight request can finish.
    let (tx, rx) = std::sync::mpsc::channel();
    let shutter = std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    std::thread::sleep(Duration::from_millis(100));
    gate.store(true, Ordering::SeqCst);

    // In-flight request completes — with a close, since we're draining.
    let resp = client::read_response(&mut inflight).expect("in-flight response");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    // Queued connections are shed with 503. Retry-After is derived
    // from the live admission estimate (here a sub-second EWMA seeded
    // by the just-released compute), so assert the clamp envelope
    // rather than a hardcoded constant.
    for mut conn in queued {
        let resp = client::read_response(&mut conn).expect("queued response");
        assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
        let retry: u64 = resp
            .header("retry-after")
            .expect("shed 503 carries Retry-After")
            .parse()
            .expect("Retry-After is integral seconds");
        assert!(
            (1..=8).contains(&retry),
            "Retry-After {retry} outside 1..=8"
        );
    }

    // The whole teardown joins within the watchdog budget.
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown did not join within 10s");
    shutter.join().expect("shutter thread");
    tiles.set_hook(None);

    // No leaked threads, and the port is released.
    if let Some(n) = threads_with_prefix(&prefix) {
        assert_eq!(n, 0, "server threads leaked past shutdown");
    }
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut conn) => {
            // Extremely unlikely (port reuse), but if something
            // accepted, it must not be our server still alive.
            let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            assert!(
                client::read_response(&mut conn).is_err(),
                "listener still serving after shutdown"
            );
        }
    }
}

/// Serializes the tests that enable the process-global obs registry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn metrics_endpoint_drains_the_obs_tables_as_json() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::enable();
    obs::reset();
    // Dedicated server so the traffic below is the dominant signal
    // (other tests' servers also count while obs is enabled, so the
    // assertions are lower bounds, not exact).
    let server = start_server(HttpServerConfig::default());
    let addr = server.local_addr();

    for _ in 0..3 {
        let resp = client::get(addr, "/tiles/0/1/0/0", &[], CLIENT_TIMEOUT).expect("GET");
        assert_eq!(resp.status, 200);
    }
    let resp = client::get(addr, "/tiles/9/0/0/0", &[], CLIENT_TIMEOUT).expect("404 GET");
    assert_eq!(resp.status, 404);

    let resp = client::get(addr, "/metrics", &[], CLIENT_TIMEOUT).expect("metrics");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let body = String::from_utf8(resp.body.clone()).expect("json is utf-8");
    for needle in [
        "\"http.connections_accepted\"",
        "\"http.requests\"",
        "\"http.responses_2xx\"",
        "\"http.responses_4xx\"",
        "\"http.queue_depth\"",
    ] {
        assert!(
            body.contains(needle),
            "metrics JSON missing {needle}: {body}"
        );
    }
    let count_of = |name: &str| -> u64 {
        body.lines()
            .find(|l| l.contains(&format!("\"{name}\"")))
            .and_then(|l| l.rsplit(':').next())
            .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
            .unwrap_or_else(|| panic!("counter {name} not parseable from {body}"))
    };
    assert!(count_of("http.requests") >= 5, "3 tiles + 1 miss + metrics");
    assert!(count_of("http.responses_2xx") >= 3);
    assert!(count_of("http.responses_4xx") >= 1);

    // Draining means a quiesced second scrape starts over near zero.
    let resp2 = client::get(addr, "/metrics", &[], CLIENT_TIMEOUT).expect("second scrape");
    assert_eq!(resp2.status, 200);
    let body2 = String::from_utf8(resp2.body).expect("utf-8");
    let requests_after: u64 = body2
        .lines()
        .find(|l| l.contains("\"http.requests\""))
        .and_then(|l| l.rsplit(':').next())
        .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
        .unwrap_or(0);
    assert!(
        requests_after <= count_of("http.requests"),
        "drain did not reset the request counter"
    );
    obs::disable();
    obs::reset();
    server.shutdown();

    // Branch audit rider: the counter enum names the metrics suite
    // depends on exist and are distinct.
    let names: Vec<&str> = [
        Counter::HttpConnsAccepted,
        Counter::HttpRequests,
        Counter::HttpResponses2xx,
        Counter::HttpResponses4xx,
        Counter::HttpResponses5xx,
        Counter::HttpQueueRejections,
        Counter::HttpShedShutdown,
        Counter::HttpBytesOut,
    ]
    .iter()
    .map(|c| c.name())
    .collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate counter names");
}

// ---------------------------------------------------------------------------
// Kind-bearing tile routes: `GET /tiles/{layer}/{kind}/{z}/{x}/{y}[?t=bin]`.
// The kind segment is a *claim* about what the layer serves — matching
// claims return exactly the legacy route's bytes, mismatched or unknown
// claims are missing resources (404), and the `t` slider selects the
// time bin of an STKDV layer (out-of-range bins are bad parameters, 400,
// because the route exists — the argument is wrong).

/// One shared four-kind server: layer 0 KDV, 1 STKDV (4 bins over
/// t∈[0,40]), 2 NKDV on a 5×5 grid network, 3 Gi* hotspot overlay.
fn kinds_server() -> &'static HttpServer {
    static SERVER: OnceLock<HttpServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        use lsga::network::{self, Lixels};
        use lsga::serve::{HotspotCompute, HotspotStat, NkdvCompute, StkdvCompute};
        let tiles = Arc::new(TileServer::new(TileServerConfig {
            tile_px: TILE_PX,
            max_zoom: MAX_ZOOM,
            shards: 2,
            threads: Threads::exact(2),
            ..TileServerConfig::default()
        }));
        tiles
            .add_layer(
                points(60),
                window(),
                KernelKind::Quartic.with_bandwidth(20.0),
                TAIL_EPS,
            )
            .expect("kdv layer");
        let tpts: Vec<TimedPoint> = points(80)
            .into_iter()
            .enumerate()
            .map(|(i, p)| TimedPoint::new(p.x, p.y, 20.0 + ((i as f64) * 0.433).sin() * 19.9))
            .collect();
        tiles
            .add_compute_layer(Arc::new(
                StkdvCompute::new(
                    &tpts,
                    window(),
                    KernelKind::Epanechnikov.with_bandwidth(15.0),
                    PolyKernel::new(KernelKind::Quartic, 8.0).expect("temporal kernel"),
                    0.0,
                    40.0,
                    4,
                    TAIL_EPS,
                )
                .expect("stkdv compute"),
            ))
            .expect("stkdv layer");
        let net = Arc::new(network::grid_network(5, 5, 25.0));
        let lixels = Arc::new(Lixels::build(&net, 6.0));
        let events = network::sample_on_network(&net, 70, 19);
        tiles
            .add_compute_layer(Arc::new(
                NkdvCompute::new(
                    net,
                    lixels,
                    &events,
                    KernelKind::Quartic.with_bandwidth(18.0),
                )
                .expect("nkdv compute"),
            ))
            .expect("nkdv layer");
        tiles
            .add_compute_layer(Arc::new(
                HotspotCompute::new(&points(90), window(), 5, 25.0, HotspotStat::GiStar)
                    .expect("hotspot compute"),
            ))
            .expect("hotspot layer");
        HttpServer::start(
            tiles,
            HttpServerConfig {
                read_timeout: Duration::from_millis(300),
                ..HttpServerConfig::default()
            },
        )
        .expect("bind")
    })
}

#[test]
fn kind_routes_serve_the_legacy_routes_bytes() {
    let addr = kinds_server().local_addr();
    for (layer, kind) in [(0u32, "kdv"), (2, "nkdv"), (3, "hotspot")] {
        let legacy = client::get(addr, &format!("/tiles/{layer}/1/0/1"), &[], CLIENT_TIMEOUT)
            .expect("legacy GET");
        let kinded = client::get(
            addr,
            &format!("/tiles/{layer}/{kind}/1/0/1"),
            &[],
            CLIENT_TIMEOUT,
        )
        .expect("kinded GET");
        assert_eq!(legacy.status, 200, "{kind}: legacy route");
        assert_eq!(kinded.status, 200, "{kind}: kind route");
        assert_eq!(
            legacy.body, kinded.body,
            "{kind}: kind route bytes diverge from the legacy route"
        );
    }
    // The legacy route on a binned layer is exactly the bin-0 slice.
    let legacy = client::get(addr, "/tiles/1/1/0/1", &[], CLIENT_TIMEOUT).expect("legacy stkdv");
    let bin0 =
        client::get(addr, "/tiles/1/stkdv/1/0/1?t=0", &[], CLIENT_TIMEOUT).expect("stkdv t=0");
    assert_eq!(legacy.status, 200);
    assert_eq!(bin0.status, 200);
    assert_eq!(legacy.body, bin0.body, "legacy route must be the t=0 slice");
}

#[test]
fn stkdv_time_slider_selects_distinct_bins() {
    let addr = kinds_server().local_addr();
    let slices: Vec<Vec<f64>> = (0..4u32)
        .map(|bin| {
            let resp = client::get(
                addr,
                &format!("/tiles/1/stkdv/0/0/0?t={bin}"),
                &[],
                CLIENT_TIMEOUT,
            )
            .expect("slider GET");
            assert_eq!(resp.status, 200, "bin {bin}");
            resp.decode_f64()
        })
        .collect();
    // The temporal kernel genuinely discriminates: adjacent slices of a
    // root tile over spread-out timestamps cannot be bit-identical.
    for w in slices.windows(2) {
        assert_ne!(w[0], w[1], "adjacent time bins served identical slices");
    }
}

#[test]
fn kind_mismatch_and_unknown_kinds_are_404() {
    let addr = kinds_server().local_addr();
    let missing = [
        ("/tiles/0/stkdv/1/0/0", "KDV layer claimed as stkdv"),
        ("/tiles/1/kdv/1/0/0", "STKDV layer claimed as kdv"),
        ("/tiles/2/hotspot/1/0/0", "NKDV layer claimed as hotspot"),
        ("/tiles/3/nkdv/1/0/0", "hotspot layer claimed as nkdv"),
        ("/tiles/0/voronoi/1/0/0", "no such analytic"),
        ("/tiles/0/KDV/1/0/0", "kind names are case-sensitive"),
        ("/tiles/9/kdv/1/0/0", "kind route on an absent layer"),
    ];
    for (path, why) in missing {
        let resp = client::get(addr, path, &[], CLIENT_TIMEOUT).expect("GET");
        assert_eq!(resp.status, 404, "{why}: {path}");
    }
    let bad = [
        ("/tiles/1/stkdv/1/0/0?t=99", "bin beyond the layer's nt"),
        ("/tiles/0/kdv/1/0/0?t=1", "non-zero bin on a spatial layer"),
        ("/tiles/1/1/0/0?t=1", "t is not a legacy-route key"),
        ("/tiles/1/stkdv/1/0/0?t=-1", "negative bin"),
        (
            "/tiles/1/stkdv/1/0/0?t=2&deadline_ms=5&eps=0.2&delta=0.1&seed=1",
            "deadline policies are spatial-only",
        ),
    ];
    for (path, why) in bad {
        let resp = client::get(addr, path, &[], CLIENT_TIMEOUT).expect("GET");
        assert_eq!(resp.status, 400, "{why}: {path}");
    }
}

#[test]
fn u8_round_trips_within_a_step_for_every_kind() {
    let addr = kinds_server().local_addr();
    for (layer, kind, query) in [
        (0u32, "kdv", ""),
        (1, "stkdv", "?t=2"),
        (2, "nkdv", ""),
        (3, "hotspot", ""),
    ] {
        let sep = if query.is_empty() { "?" } else { "&" };
        let exact = client::get(
            addr,
            &format!("/tiles/{layer}/{kind}/1/1/0{query}"),
            &[],
            CLIENT_TIMEOUT,
        )
        .expect("f64 GET");
        let coarse = client::get(
            addr,
            &format!("/tiles/{layer}/{kind}/1/1/0{query}{sep}fmt=u8"),
            &[],
            CLIENT_TIMEOUT,
        )
        .expect("u8 GET");
        assert_eq!(exact.status, 200, "{kind}: f64 route");
        assert_eq!(coarse.status, 200, "{kind}: u8 route");
        assert_eq!(
            coarse.header("content-type"),
            Some("application/x-lsga-u8"),
            "{kind}"
        );
        let values = exact.decode_f64();
        assert_eq!(
            coarse.body.len(),
            values.len(),
            "{kind}: one byte per pixel"
        );
        let decoded = coarse.decode_u8().expect("range headers present");
        let min: f64 = coarse.header("x-lsga-min").unwrap().parse().unwrap();
        let max: f64 = coarse.header("x-lsga-max").unwrap().parse().unwrap();
        let step = (max - min) / 255.0;
        assert!(
            step.is_finite() && step >= 0.0,
            "{kind}: range {min}..{max}"
        );
        for (i, (&v, &d)) in values.iter().zip(&decoded).enumerate() {
            assert!(
                (d - v).abs() <= step * 0.501 + 1e-12,
                "{kind}: pixel {i} decoded {d}, expected {v} ± {step}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// u8 quantization totality over extreme tile ranges (the wire-encoder
// edition of PR 4's finiteness sweep). The historical bug: a tile whose
// min/max differ by a *subnormal* amount passed the old `scale > 0.0`
// guard, `(v - min) / scale` overflowed to inf, and every pixel
// saturated to 255 — the dequantized tile read as `max` instead of
// `min`. The encoder must stay total and invertible-within-a-step for
// magnitudes from deep subnormals to ranges wider than f64 itself.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    fn u8_quantization_is_total_over_extreme_ranges(
        raw in prop::collection::vec((-320i32..=307, 1.0f64..10.0, any::<bool>()), 4usize..=16),
    ) {
        use lsga::http::{dequantize, tile_response, PayloadFmt};
        use lsga::serve::{Tile, TileCoord, TileKey, TileTier};
        let values: Vec<f64> = raw
            .iter()
            .map(|&(exp, m, neg)| {
                let v = m * 10f64.powi(exp);
                if neg { -v } else { v }
            })
            .collect();
        let px = values.len();
        let spec = lsga::core::GridSpec::new(BBox::new(0.0, 0.0, 1.0, 1.0), px, 1);
        let tile = Tile {
            key: TileKey { layer: 0, coord: TileCoord::new(0, 0, 0), bin: 0 },
            grid: lsga::core::DensityGrid::from_values(spec, values.clone()),
            tier: TileTier::Exact,
        };
        let resp = tile_response(&tile, PayloadFmt::U8);
        prop_assert_eq!(resp.status, 200);
        prop_assert_eq!(resp.body.len(), px);
        let hdr = |name: &str| -> f64 {
            resp.headers
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(f64::NAN)
        };
        let (min, max) = (hdr("X-Lsga-Min"), hdr("X-Lsga-Max"));
        let true_min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let true_max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // The range headers round-trip through Display bit-exactly.
        prop_assert_eq!(min.to_bits(), true_min.to_bits());
        prop_assert_eq!(max.to_bits(), true_max.to_bits());

        let scale = max - min;
        for (&q, &v) in resp.body.iter().zip(&values) {
            let d = dequantize(q, min, max);
            prop_assert!(d.is_finite(), "dequantize({q}, {min}, {max}) = {d}");
            if scale.is_finite() && scale >= f64::MIN_POSITIVE {
                // Within half a step, plus the rounding granularity of
                // values whose magnitude dwarfs the range.
                let bound = scale / 255.0 * 0.501
                    + min.abs().max(max.abs()) * f64::EPSILON * 2.0;
                prop_assert!(
                    (d - v).abs() <= bound,
                    "q={q} v={v} d={d} scale={scale}: off by {}",
                    (d - v).abs()
                );
            } else if scale.is_finite() {
                // Sub-resolution (or zero) range: constant-tile coding.
                prop_assert_eq!(q, 0u8, "subnormal scale must encode as 0");
                prop_assert_eq!(d.to_bits(), min.to_bits());
            } else {
                // Range wider than f64: halved-space quantization.
                let half = (max / 2.0 - min / 2.0) / 255.0;
                prop_assert!(
                    (d / 2.0 - v / 2.0).abs() <= half * 1.001,
                    "q={q} v={v} d={d}: halved-space error {}",
                    (d / 2.0 - v / 2.0).abs()
                );
            }
        }
    }
}
