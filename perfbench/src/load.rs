//! The open-loop HTTP generator.
//!
//! Every request is sent at its scheduled time on a fresh TCP
//! connection by one of a few generator threads (at most one open
//! connection each). Latency is measured from the *scheduled* send
//! time, so a stall delays and is charged to every request behind it.
//! Unlike the experiments' `run_load_http`, nothing panics and nothing
//! is dropped: a connect error, timeout, non-200 status or malformed
//! payload is a recorded failure, and failures count against the
//! latency limit.

use lsga::http::client::{read_response, ClientResponse};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What a correct response looks like.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// A 200 exact tile whose body is this many bytes.
    Tile { body_len: usize },
    /// A 200 acknowledging this many appended points.
    Append { points: usize },
}

/// One request, fully encoded before the run starts.
pub struct Planned {
    pub at_ns: u64,
    pub thread: usize,
    pub request: Vec<u8>,
    pub expect: Expect,
    /// Keep the response for the after-run correctness check.
    pub keep: bool,
}

/// Why a request failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    Connect,
    Timeout,
    Io,
    Status(u16),
    Payload,
}

/// What happened to one request.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The request bytes were written (the server may have counted it).
    pub sent: bool,
    /// Scheduled send → response fully read.
    pub latency_ns: u64,
    /// Actual send → response fully read.
    pub service_ns: u64,
    /// Actual send − scheduled send.
    pub late_ns: u64,
    pub connect_ns: u64,
    /// Request written → first response byte.
    pub ttfb_ns: u64,
    pub failure: Option<Failure>,
    pub response: Option<ClientResponse>,
}

impl Outcome {
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Records when the first byte of a response arrives.
struct FirstByte<'a> {
    inner: &'a mut TcpStream,
    first: Option<Instant>,
}

impl Read for FirstByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 && self.first.is_none() {
            self.first = Some(Instant::now());
        }
        Ok(n)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn io_failure(e: &std::io::Error) -> Failure {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Failure::Timeout,
        _ => Failure::Io,
    }
}

fn validate(resp: &ClientResponse, expect: Expect) -> Option<Failure> {
    if resp.status != 200 {
        return Some(Failure::Status(resp.status));
    }
    let good = match expect {
        Expect::Tile { body_len } => {
            resp.body.len() == body_len && resp.header("x-lsga-tier") == Some("exact")
        }
        Expect::Append { points } => {
            resp.header("x-lsga-points")
                .and_then(|v| v.parse::<usize>().ok())
                == Some(points)
        }
    };
    (!good).then_some(Failure::Payload)
}

fn execute(addr: SocketAddr, op: &Planned, due: Instant, timeout: Duration) -> Outcome {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
    let send = Instant::now();
    let mut out = Outcome {
        late_ns: nanos(send.saturating_duration_since(due)),
        ..Outcome::default()
    };
    let finish = |mut out: Outcome, failure: Option<Failure>| {
        let end = Instant::now();
        out.latency_ns = nanos(end.saturating_duration_since(due));
        out.service_ns = nanos(end - send);
        out.failure = failure;
        out
    };
    let mut stream = match TcpStream::connect_timeout(&addr, timeout) {
        Ok(s) => s,
        Err(_) => return finish(out, Some(Failure::Connect)),
    };
    let connected = Instant::now();
    out.connect_ns = nanos(connected - send);
    if let Err(e) = stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .and_then(|()| stream.write_all(&op.request))
    {
        return finish(out, Some(io_failure(&e)));
    }
    out.sent = true;
    let written = Instant::now();
    let mut reader = FirstByte {
        inner: &mut stream,
        first: None,
    };
    let read = read_response(&mut reader);
    if let Some(first) = reader.first {
        out.ttfb_ns = nanos(first.saturating_duration_since(written));
    }
    match read {
        Ok(resp) => {
            let failure = validate(&resp, op.expect);
            if op.keep {
                out.response = Some(resp);
            }
            finish(out, failure)
        }
        Err(e) => finish(out, Some(io_failure(&e))),
    }
}

/// How long past the schedule's end a generator keeps sending: a server
/// that stops answering fails the remaining operations instead of
/// holding the run open for a timeout per request.
const GRACE: Duration = Duration::from_secs(10);

/// Replay `plan` against `addr` with `threads` generator threads
/// (each sends the operations assigned to it, in order). Returns one
/// outcome per planned operation, aligned with `plan`; operations still
/// unsent [`GRACE`] after the last due time fail, unsent, as timeouts.
#[must_use]
pub fn run(addr: SocketAddr, plan: &[Planned], threads: usize, timeout: Duration) -> Vec<Outcome> {
    // A short lead lets every generator thread start before the first
    // due time.
    let start = Instant::now() + Duration::from_millis(20);
    let last_due = plan.iter().map(|op| op.at_ns).max().unwrap_or(0);
    let stop = start + Duration::from_nanos(last_due) + GRACE;
    let mut merged: Vec<Option<Outcome>> = (0..plan.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    plan.iter()
                        .enumerate()
                        .filter(|(_, op)| op.thread == t)
                        .map(|(i, op)| {
                            let due = start + Duration::from_nanos(op.at_ns);
                            if Instant::now() > stop {
                                let late = nanos(Instant::now() - due);
                                let skipped = Outcome {
                                    latency_ns: late,
                                    late_ns: late,
                                    failure: Some(Failure::Timeout),
                                    ..Outcome::default()
                                };
                                return (i, skipped);
                            }
                            (i, execute(addr, op, due, timeout))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, o) in h.join().expect("generator thread panicked") {
                merged[i] = Some(o);
            }
        }
    });
    merged
        .into_iter()
        .map(|o| o.expect("every planned operation belongs to a generator thread"))
        .collect()
}
