//! The HTTP server: thread-per-shard acceptors feeding bounded
//! per-worker connection queues.
//!
//! ```text
//!          ┌ acceptor 0 ┐   round-robin,    ┌ worker 0: [c,c,c] ┐
//!  TCP ──► │ acceptor 1 │ ──try-all-then──► │ worker 1: [c]     │ ──► TileServer
//!          └ …          ┘      503          └ …                 ┘
//! ```
//!
//! Admission happens at two layers. This module's layer is *load*
//! admission: every worker owns a bounded queue of accepted
//! connections, the acceptor places each connection on the first
//! non-full queue starting from a round-robin cursor, and when every
//! queue is full the acceptor itself answers `503` with `Retry-After`
//! — the connection never ties up a worker. *Quality* admission is the
//! tile server's: a request carrying a deadline parses into a
//! [`QualityPolicy`](lsga_serve::QualityPolicy) and PR 7's EWMA
//! controller decides exact-vs-degraded per tile. The two compose:
//! queue-full says "come back later", the EWMA controller says "here's
//! a coarser answer now".
//!
//! Shutdown protocol (exercised by the lifecycle tests in
//! `tests/http_conformance.rs`):
//!
//! 1. `stop` flips, then each acceptor, blocked in `accept`, is woken
//!    by a loopback connection to the listening port (repeated until
//!    that acceptor has exited). An acceptor checks `stop` after every
//!    `accept` returns; once it is set, the acceptor drops that
//!    connection uncounted and exits. The acceptors are joined, and no
//!    new connections enter the system.
//! 2. `draining` flips → a worker mid-connection finishes the request
//!    in flight, then closes instead of reading the next one.
//! 3. Each queue's lock is taken and its worker notified, so a worker
//!    about to wait cannot miss the flip; workers shed every
//!    still-queued connection with a `503` (counted under
//!    `http.shed_on_shutdown`), then exit when their queue is empty.
//! 4. Workers are joined. Every thread the server spawned carries a
//!    `lh{instance}-` name prefix so tests can prove none leak.

use crate::error::{HttpError, HttpResult};
use crate::parse::{self, RawRequest, Route};
use crate::wire::{error_response, retry_after_secs, tile_response, Response};
use lsga_core::{LsgaError, Point};
use lsga_obs as obs;
use lsga_serve::TileServer;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for the HTTP front-end.
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Accept threads sharing one listening socket.
    pub acceptors: usize,
    /// Worker threads, one bounded connection queue each.
    pub workers: usize,
    /// Per-worker queue capacity; with every queue full, new
    /// connections get a `503` whose `Retry-After` comes from the tile
    /// server's live queue-wait estimate, clamped to 1..=8 s.
    pub queue_cap: usize,
    /// Socket read/write timeout. A request head that stalls past this
    /// is answered `408`; an idle keep-alive connection is closed
    /// silently.
    pub read_timeout: Duration,
    /// Keep-alive budget: requests served per connection before the
    /// server closes it (starvation bound — one chatty client cannot
    /// hold a worker forever).
    pub max_requests_per_conn: usize,
    /// Cap on a `POST` body; larger declared lengths get `413` without
    /// reading the body.
    pub max_body_bytes: usize,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        HttpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            acceptors: 1,
            workers: 4,
            queue_cap: 64,
            read_timeout: Duration::from_secs(2),
            max_requests_per_conn: 64,
            max_body_bytes: parse::DEFAULT_MAX_BODY,
        }
    }
}

/// One worker's bounded connection queue.
struct WorkerQueue {
    deque: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

struct Shared {
    tiles: Arc<TileServer>,
    cfg: HttpServerConfig,
    queues: Vec<WorkerQueue>,
    /// Acceptors stop accepting.
    stop: AtomicBool,
    /// Workers shed queued connections and exit on empty.
    draining: AtomicBool,
    /// Round-robin dispatch cursor.
    next: AtomicUsize,
}

/// Distinguishes concurrent server instances in thread names, so the
/// leak test can count exactly this server's threads via
/// `/proc/self/task/*/comm` even while other tests run in parallel.
static INSTANCE: AtomicU32 = AtomicU32::new(0);

/// The running front-end. Dropping it (or calling
/// [`shutdown`](HttpServer::shutdown)) runs the full drain protocol.
pub struct HttpServer {
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    addr: SocketAddr,
    instance: u32,
}

impl HttpServer {
    /// Bind and start accepting. Fails only on bind/clone errors,
    /// surfaced as [`LsgaError::Io`].
    pub fn start(tiles: Arc<TileServer>, cfg: HttpServerConfig) -> Result<HttpServer, LsgaError> {
        assert!(cfg.acceptors >= 1, "need at least one acceptor");
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.queue_cap >= 1, "queue capacity must be positive");
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let instance = INSTANCE.fetch_add(1, Ordering::Relaxed);

        let queues = (0..cfg.workers)
            .map(|_| WorkerQueue {
                deque: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            })
            .collect();
        let shared = Arc::new(Shared {
            tiles,
            cfg,
            queues,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            next: AtomicUsize::new(0),
        });

        let mut acceptors = Vec::new();
        for i in 0..shared.cfg.acceptors {
            let l = listener.try_clone()?;
            let s = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("lh{instance}-a{i}"))
                .spawn(move || accept_loop(&l, &s))
                .map_err(LsgaError::from)?;
            acceptors.push(h);
        }
        let mut workers = Vec::new();
        for i in 0..shared.cfg.workers {
            let s = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("lh{instance}-w{i}"))
                .spawn(move || worker_loop(&s, i))
                .map_err(LsgaError::from)?;
            workers.push(h);
        }
        Ok(HttpServer {
            shared,
            acceptors,
            workers,
            addr,
            instance,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `lh{instance}-` prefix on every thread this server spawned.
    #[must_use]
    pub fn thread_prefix(&self) -> String {
        format!("lh{}-", self.instance)
    }

    /// Current depth of each worker queue (observability; racy by
    /// nature, exact under a quiesced server).
    #[must_use]
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared
            .queues
            .iter()
            .map(|q| q.deque.lock().unwrap().len())
            .collect()
    }

    /// The tile server behind this front-end.
    #[must_use]
    pub fn tiles(&self) -> &Arc<TileServer> {
        &self.shared.tiles
    }

    /// Graceful shutdown: run the drain protocol and join every
    /// thread. Idempotent with `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Any acceptor may take a wake connection, so keep connecting
        // until this one has exited; a failed connect just retries.
        let wake = loopback(self.addr);
        for h in self.acceptors.drain(..) {
            while !h.is_finished() {
                let _ = TcpStream::connect_timeout(&wake, WAKE_CONNECT_TIMEOUT);
                std::thread::yield_now();
            }
            let _ = h.join();
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        for q in &self.shared.queues {
            // Taking the lock orders the flip before the worker's next
            // check-then-wait, so its wakeup cannot be lost.
            drop(q.deque.lock().unwrap());
            q.ready.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// How long one shutdown wake connect may take before it is retried.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// The address a wake connection dials: the bound address, with an
/// unspecified IP replaced by the loopback of the same family.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Block in `accept` until `stop`; dispatch each connection to a worker
/// queue or answer `503` inline when every queue is full. A connection
/// accepted after `stop` (the shutdown wake, or a late client) is
/// dropped uncounted.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((conn, _)) => {
                obs::incr(obs::Counter::HttpConnsAccepted);
                dispatch(conn, shared);
            }
            // Transient accept errors (e.g. ECONNABORTED, EMFILE): back
            // off briefly and keep serving.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn dispatch(conn: TcpStream, shared: &Shared) {
    let n = shared.queues.len();
    let start = shared.next.fetch_add(1, Ordering::Relaxed) % n;
    for i in 0..n {
        let q = &shared.queues[(start + i) % n];
        let mut deque = q.deque.lock().unwrap();
        if deque.len() < shared.cfg.queue_cap {
            deque.push_back(conn);
            obs::record(obs::Hist::HttpQueueDepth, deque.len() as u64);
            drop(deque);
            q.ready.notify_one();
            return;
        }
    }
    // Every queue full: the acceptor answers so the overload never
    // consumes worker time.
    obs::incr(obs::Counter::HttpQueueRejections);
    respond_and_close(
        conn,
        shared,
        &HttpError {
            status: 503,
            source: LsgaError::Io("all request queues are full".to_string()),
        },
    );
}

/// Write one error response on a connection we are about to drop. The
/// `Retry-After` hint on a 503 comes from the tile server's live
/// queue-wait estimate, so a backed-up server tells clients to stay
/// away longer than an idle one.
fn respond_and_close(mut conn: TcpStream, shared: &Shared, e: &HttpError) {
    let _ = conn.set_write_timeout(Some(shared.cfg.read_timeout));
    let retry = retry_after_secs(shared.tiles.estimated_queue_wait());
    let bytes = error_response(e, retry).encode(false);
    count_response(e.status, bytes.len());
    let _ = conn.write_all(&bytes);
}

fn count_response(status: u16, bytes: usize) {
    let c = match status / 100 {
        2 => obs::Counter::HttpResponses2xx,
        4 => obs::Counter::HttpResponses4xx,
        _ => obs::Counter::HttpResponses5xx,
    };
    obs::incr(c);
    obs::add(obs::Counter::HttpBytesOut, bytes as u64);
}

fn worker_loop(shared: &Shared, idx: usize) {
    let q = &shared.queues[idx];
    loop {
        let conn = {
            let mut deque = q.deque.lock().unwrap();
            loop {
                if let Some(c) = deque.pop_front() {
                    break Some(c);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                deque = q.ready.wait(deque).unwrap();
            }
        };
        let Some(conn) = conn else { return };
        if shared.draining.load(Ordering::SeqCst) {
            obs::incr(obs::Counter::HttpShedShutdown);
            respond_and_close(
                conn,
                shared,
                &HttpError {
                    status: 503,
                    source: LsgaError::Io("server is shutting down".to_string()),
                },
            );
        } else {
            serve_conn(conn, shared);
        }
    }
}

/// Serve one connection: keep-alive loop with pipelining support (the
/// buffer carries bytes past the current request into the next read).
fn serve_conn(mut conn: TcpStream, shared: &Shared) {
    let cfg = &shared.cfg;
    let _ = conn.set_read_timeout(Some(cfg.read_timeout));
    let _ = conn.set_write_timeout(Some(cfg.read_timeout));
    let mut buf = ConnBuf::new();
    for _ in 0..cfg.max_requests_per_conn {
        let head = match buf.read_head(&mut conn) {
            Ok(Some(h)) => h,
            // Clean EOF / idle timeout between requests: close quietly.
            Ok(None) => return,
            Err(e) => {
                obs::incr(obs::Counter::HttpRequests);
                let bytes = error_response(&e, 1).encode(false);
                count_response(e.status, bytes.len());
                let _ = conn.write_all(&bytes);
                return;
            }
        };
        obs::incr(obs::Counter::HttpRequests);
        let (resp, keep_alive) = match parse::parse_head(&head) {
            Err(e) => (error_response(&e, 1), false),
            Ok(req) => {
                let wants_keep_alive = req.keep_alive;
                match execute(&req, &mut buf, &mut conn, shared) {
                    Ok(resp) => (resp, wants_keep_alive),
                    // 4xx/5xx close the connection: after a framing or
                    // routing error we cannot trust the byte stream.
                    // (These paths never carry a 503, so the backoff
                    // hint argument is inert here.)
                    Err(e) => (error_response(&e, 1), false),
                }
            }
        };
        let draining = shared.draining.load(Ordering::SeqCst);
        let keep_alive = keep_alive && !draining;
        let bytes = resp.encode(keep_alive);
        count_response(resp.status, bytes.len());
        if conn.write_all(&bytes).is_err() || !keep_alive {
            return;
        }
    }
}

/// Execute a parsed head against the tile server.
fn execute(
    req: &RawRequest,
    buf: &mut ConnBuf,
    conn: &mut TcpStream,
    shared: &Shared,
) -> HttpResult<Response> {
    match parse::route(req)? {
        Route::Tile {
            layer,
            kind,
            z,
            x,
            y,
            bin,
            fmt,
            policy,
        } => {
            if let Some(kind) = kind {
                // A kind-bearing path asserts what analytic the layer
                // runs; a mismatch means the named resource does not
                // exist, exactly like an out-of-range layer id.
                let actual = shared
                    .tiles
                    .layer_kind(layer)
                    .map_err(HttpError::from_lsga)?;
                if actual != kind {
                    return Err(HttpError::not_found(format!(
                        "layer {layer} serves {:?} tiles, not {:?}",
                        actual.name(),
                        kind.name()
                    )));
                }
            }
            let tile = match &policy {
                Some(p) => shared.tiles.get_tile_with_policy(layer, z, x, y, p),
                None => shared.tiles.get_tile_binned(layer, z, x, y, bin),
            }
            .map_err(HttpError::from_lsga)?;
            Ok(tile_response(&tile, fmt))
        }
        Route::IngestPoints { layer } => {
            let len = req.content_length()?.ok_or(HttpError {
                status: 411,
                source: LsgaError::InvalidParameter {
                    name: "content-length",
                    message: "POST /layers/{layer}/points requires Content-Length".to_string(),
                },
            })?;
            if len > shared.cfg.max_body_bytes {
                return Err(HttpError {
                    status: 413,
                    source: LsgaError::InvalidParameter {
                        name: "content-length",
                        message: format!(
                            "body of {len} bytes exceeds the {} byte cap",
                            shared.cfg.max_body_bytes
                        ),
                    },
                });
            }
            if len % 16 != 0 {
                return Err(HttpError::bad_request(format!(
                    "body must be little-endian (x, y) f64 pairs; {len} bytes is not a multiple of 16"
                )));
            }
            let body = buf.read_exact(conn, len)?;
            let points: Vec<Point> = body
                .chunks_exact(16)
                .map(|c| {
                    Point::new(
                        f64::from_le_bytes(c[..8].try_into().unwrap()),
                        f64::from_le_bytes(c[8..].try_into().unwrap()),
                    )
                })
                .collect();
            shared
                .tiles
                .insert_points(layer, &points)
                .map_err(HttpError::from_lsga)?;
            Ok(Response::new(200)
                .header("X-Lsga-Points", points.len())
                .body("text/plain; charset=utf-8", b"appended\n".to_vec()))
        }
        Route::Metrics => {
            let snap = obs::drain();
            Ok(Response::new(200).body("application/json", snap.to_json("http").into_bytes()))
        }
        Route::Health => Ok(Response::new(200).body("text/plain; charset=utf-8", b"ok\n".to_vec())),
    }
}

/// Buffered reader for one connection. Keeps leftover bytes between
/// requests so pipelined requests are served in order, and enforces the
/// head-size cap while the bytes arrive (a slowly-trickled giant head
/// is rejected at the cap, not buffered forever).
struct ConnBuf {
    buf: Vec<u8>,
}

impl ConnBuf {
    fn new() -> Self {
        ConnBuf { buf: Vec::new() }
    }

    /// Read until a complete head (terminated by an empty line) is
    /// buffered. Returns:
    /// - `Ok(Some(head))` — head bytes, terminator consumed;
    /// - `Ok(None)` — EOF or idle timeout with nothing buffered: the
    ///   peer simply went away between requests;
    /// - `Err(400)` — EOF mid-head (truncated request);
    /// - `Err(408)` — timeout mid-head (stalled request);
    /// - `Err(431)` — no terminator within [`parse::MAX_HEAD_BYTES`].
    fn read_head(&mut self, conn: &mut TcpStream) -> HttpResult<Option<Vec<u8>>> {
        loop {
            if let Some((head_len, consumed)) = find_head_end(&self.buf) {
                let head = self.buf[..head_len].to_vec();
                self.buf.drain(..consumed);
                return Ok(Some(head));
            }
            if self.buf.len() > parse::MAX_HEAD_BYTES {
                return Err(HttpError {
                    status: 431,
                    source: LsgaError::Parse {
                        line: 0,
                        message: format!("no end of head within {} bytes", parse::MAX_HEAD_BYTES),
                    },
                });
            }
            let mut chunk = [0u8; 4096];
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(HttpError::bad_request("connection closed mid-request-head"))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) && self.buf.is_empty() =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(HttpError::io(e, "reading request head")),
            }
        }
    }

    /// Read exactly `n` body bytes (buffered leftovers first).
    fn read_exact(&mut self, conn: &mut TcpStream, n: usize) -> HttpResult<Vec<u8>> {
        while self.buf.len() < n {
            let mut chunk = [0u8; 16 * 1024];
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return Err(HttpError::bad_request(format!(
                        "connection closed after {} of {n} body bytes",
                        self.buf.len()
                    )))
                }
                Ok(got) => self.buf.extend_from_slice(&chunk[..got]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(HttpError::io(e, "reading request body")),
            }
        }
        let body = self.buf[..n].to_vec();
        self.buf.drain(..n);
        Ok(body)
    }
}

/// Locate the head terminator (first empty line). Returns
/// `(head_len, bytes_consumed)`; the head excludes the final newline
/// and the empty line. Handles CRLF, bare LF, and mixes.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let rest = &buf[i + 1..];
        if rest.first() == Some(&b'\n') {
            return Some((i, i + 2));
        }
        if rest.len() >= 2 && rest[0] == b'\r' && rest[1] == b'\n' {
            return Some((i, i + 3));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_scanner_handles_all_line_ending_mixes() {
        // CRLF throughout.
        let b = b"GET / HTTP/1.1\r\nHost: x\r\n\r\nrest";
        let (head, consumed) = find_head_end(b).unwrap();
        assert_eq!(&b[..head], b"GET / HTTP/1.1\r\nHost: x\r");
        assert_eq!(&b[consumed..], b"rest");
        // Bare LF throughout.
        let b = b"GET / HTTP/1.1\nHost: x\n\nrest";
        let (head, consumed) = find_head_end(b).unwrap();
        assert_eq!(&b[..head], b"GET / HTTP/1.1\nHost: x");
        assert_eq!(&b[consumed..], b"rest");
        // LF line then CRLF empty line.
        let b = b"GET / HTTP/1.1\n\r\nrest";
        let (head, consumed) = find_head_end(b).unwrap();
        assert_eq!(&b[..head], b"GET / HTTP/1.1");
        assert_eq!(&b[consumed..], b"rest");
        // No terminator yet.
        assert!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n").is_none());
        assert!(find_head_end(b"").is_none());
    }

    #[test]
    fn wake_address_maps_unspecified_ips_to_loopback() {
        let a = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(loopback(a("0.0.0.0:8080")), a("127.0.0.1:8080"));
        assert_eq!(loopback(a("[::]:8080")), a("[::1]:8080"));
        assert_eq!(loopback(a("10.1.2.3:8080")), a("10.1.2.3:8080"));
        assert_eq!(loopback(a("[fe80::1]:8080")), a("[fe80::1]:8080"));
    }

    #[test]
    fn default_config_is_sane() {
        let c = HttpServerConfig::default();
        assert!(c.workers >= 1 && c.queue_cap >= 1 && c.acceptors >= 1);
        assert!(c.max_body_bytes >= 16);
    }
}
