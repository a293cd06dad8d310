//! # mlscale-serve — planner-as-a-service
//!
//! The paper's framework answers "how many workers should this job
//! get?" — exactly the query a scheduler asks thousands of times per
//! hour. This crate keeps the engine resident behind a socket:
//! `mlscale serve` binds a `std::net::TcpListener`, fans connections out
//! across a worker pool sized by `mlscale_core::par`'s thread
//! resolution, and answers scenario-spec JSON on three endpoints:
//!
//! * `POST /gd`    — one gradient-descent configuration (no sweep axes);
//!   the response is the same pretty-printed `ExperimentResult` JSON
//!   `mlscale gd` writes;
//! * `POST /plan`  — like `/gd` but requires `workload.plan`, so the
//!   response carries the fastest/cheapest provisioning stats;
//! * `POST /sweep` — any valid scenario (grids, bp, exhibits); the
//!   response envelope `{"name", "points", "rollup"}` embeds every
//!   per-point result byte-identically to the files `mlscale sweep`
//!   writes.
//!
//! Validation is exactly `ScenarioSpec::from_json` — the CLI's exit-2
//! diagnostics become `400` bodies naming the offending key path:
//! `{"error": {"path": "workload.latancy", "message": "unknown field…"}}`.
//!
//! Two caches are shared process-wide: an
//! [`mlscale_core::straggler::OrderStatCachePool`]
//! (straggler order-statistic quadratures, reused across requests that
//! share a delay model) and a rendered-response LRU ([`lru::ResponseLru`])
//! keyed on `(endpoint, body)`, so a hot preset is answered without
//! re-evaluating anything. Responses carry `x-mlscale-cache: hit|miss`
//! and `x-mlscale-micros` (server-side handling time) so clients and the
//! load-generator bench can separate cold from cached latency. Cached
//! and cold responses are byte-identical.
//!
//! ## Failure behavior
//!
//! The daemon is hardened against the three ways a socket peer (or the
//! operator) can hurt it:
//!
//! * **Slow or silent peers** — every accepted connection carries a read
//!   deadline ([`Limits::read_timeout`], answered with `408` when it
//!   expires mid-wait) and a write deadline ([`Limits::write_timeout`],
//!   so a stalled reader cannot pin a worker); a keep-alive exchange
//!   that blows [`Limits::request_deadline`] closes the connection after
//!   its response.
//! * **Overload** — one dedicated acceptor feeds a bounded queue
//!   ([`Limits::queue_limit`]); when it is full the acceptor sheds the
//!   connection immediately with `503` + `Retry-After: 1` instead of
//!   queueing unboundedly. perfbench's `serve-mix` client retries shed
//!   requests with a growing backoff.
//! * **Shutdown** — `mlscale serve` installs SIGTERM/SIGINT handlers
//!   ([`signal`]); on either, the acceptor stops accepting, idle
//!   keep-alive reads are unblocked, in-flight requests finish and are
//!   answered, and [`Server::run`] returns so the binary exits 0. An
//!   embedded server drains the same way via [`Server::drain_handle`].
//!
//! The request path threads a [`mlscale_core::faultpoint`] hook
//! (`serve.write_response`) so crash tests can drop a response on the
//! floor at a deterministic point.

// `deny` rather than `forbid` so exactly one audited `#[allow]` can
// exist: the two-line `signal(2)` FFI in [`signal`] (the workspace
// builds without crates.io, so there is no libc crate to call instead).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod http;
pub mod lru;
pub mod signal;

use http::{is_timeout, read_request, Request, Response};
use lru::ResponseLru;
use mlscale_core::straggler::OrderStatCachePool;
use mlscale_core::{faultpoint, par};
use mlscale_scenario::{run_adaptive_pooled, run_pooled, ScenarioSpec, SpecError, WorkloadSpec};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Rendered responses kept in the LRU; a handful of hot scenarios is the
/// expected working set, and entries are small (tens of KiB).
const RESPONSE_CACHE_CAPACITY: usize = 64;

/// Default per-read deadline: idle keep-alive connections are answered
/// `408` and dropped after this long so a silent peer cannot pin a
/// worker. Tune per-server via [`Limits`].
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Default per-write deadline on accepted connections: a peer that
/// stops reading its response blocks a worker for at most this long.
/// Tune per-server via [`Limits`].
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Default total budget for one keep-alive exchange (parse + evaluate +
/// write). A connection whose exchange exceeds it is closed after its
/// response rather than served again.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(120);

/// Default bound on connections accepted but not yet picked up by a
/// worker; beyond it the acceptor sheds with `503` + `Retry-After`.
pub const ACCEPT_QUEUE_LIMIT: usize = 128;

/// How often blocked accept/dequeue loops re-check the drain flag.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// Write deadline for the tiny `503` shed response — the acceptor pays
/// at most this to tell an unlucky peer to retry.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// The endpoints the daemon serves.
const ENDPOINTS: [&str; 3] = ["/gd", "/plan", "/sweep"];

/// Socket deadlines and backpressure bounds, tunable per server (tests
/// shrink them to make timeout and shed paths deterministic).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Per-read socket deadline; expiry answers `408`.
    pub read_timeout: Duration,
    /// Per-write socket deadline on accepted connections.
    pub write_timeout: Duration,
    /// Total budget for one exchange; exceeding it closes the
    /// connection after its response.
    pub request_deadline: Duration,
    /// Accepted-but-unserved connection bound; beyond it, shed with 503.
    pub queue_limit: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            read_timeout: READ_TIMEOUT,
            write_timeout: WRITE_TIMEOUT,
            request_deadline: REQUEST_DEADLINE,
            queue_limit: ACCEPT_QUEUE_LIMIT,
        }
    }
}

/// The bounded hand-off between the acceptor and the workers.
struct ConnQueue {
    inner: Mutex<std::collections::VecDeque<TcpStream>>,
    ready: Condvar,
}

impl ConnQueue {
    fn new() -> Self {
        Self {
            inner: Mutex::new(std::collections::VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    /// Enqueues unless full; on overflow the stream is handed back for
    /// shedding.
    fn push(&self, stream: TcpStream, limit: usize) -> Result<(), TcpStream> {
        let mut queue = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= limit {
            return Err(stream);
        }
        queue.push_back(stream);
        drop(queue);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next connection; `None` once `done()` holds and the
    /// queue is empty (workers drain what was already accepted). The
    /// wait re-checks on a short deadline so a missed notification can
    /// never stall shutdown.
    fn pop(&self, done: impl Fn() -> bool) -> Option<TcpStream> {
        let mut queue = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(stream) = queue.pop_front() {
                return Some(stream);
            }
            if done() {
                return None;
            }
            queue = self
                .ready
                .wait_timeout(queue, DRAIN_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn notify_all(&self) {
        self.ready.notify_all();
    }
}

/// Live connections, registered so drain can unblock their idle reads
/// (an in-flight request's bytes are fully consumed before evaluation,
/// so shutting down the read half never disturbs a pending response).
#[derive(Default)]
struct ConnRegistry {
    next_id: AtomicU64,
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnRegistry {
    fn register(&self, stream: &TcpStream, draining: bool) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, clone);
        if draining {
            // Drain may already have swept the registry; close the race
            // by shutting this connection's read half ourselves.
            stream.shutdown(Shutdown::Read).ok();
        }
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    fn shutdown_reads(&self) {
        let live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        for stream in live.values() {
            stream.shutdown(Shutdown::Read).ok();
        }
    }
}

/// Process-wide state every worker shares.
struct State {
    caches: OrderStatCachePool,
    responses: ResponseLru,
    queue: ConnQueue,
    conns: ConnRegistry,
    draining: AtomicBool,
    limits: Limits,
}

/// Requests a graceful drain of the server it came from — the embedded
/// equivalent of sending the daemon SIGTERM.
#[derive(Clone)]
pub struct DrainHandle {
    state: Arc<State>,
}

impl DrainHandle {
    /// Stops accepting, unblocks idle keep-alive reads, lets in-flight
    /// requests finish; the server's [`Server::run`] then returns.
    pub fn request_shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.conns.shutdown_reads();
        self.state.queue.notify_all();
    }
}

/// The planner daemon: a bound listener plus the shared caches.
pub struct Server {
    listener: Arc<TcpListener>,
    threads: usize,
    state: Arc<State>,
}

impl Server {
    /// Binds `addr` (`HOST:PORT`; port 0 asks the OS for a free port)
    /// with a pool of `threads` request workers and default [`Limits`].
    pub fn bind(addr: &str, threads: usize) -> std::io::Result<Self> {
        Ok(Self {
            listener: Arc::new(TcpListener::bind(addr)?),
            threads: threads.max(1),
            state: Arc::new(State {
                caches: OrderStatCachePool::new(),
                responses: ResponseLru::new(RESPONSE_CACHE_CAPACITY),
                queue: ConnQueue::new(),
                conns: ConnRegistry::default(),
                draining: AtomicBool::new(false),
                limits: Limits::default(),
            }),
        })
    }

    /// Replaces the socket deadlines and backpressure bounds (call
    /// before [`Self::run`]/[`Self::start`]).
    #[must_use]
    pub fn with_limits(mut self, limits: Limits) -> Self {
        let state = Arc::get_mut(&mut self.state);
        if let Some(state) = state {
            state.limits = limits;
        }
        self
    }

    /// The bound address (reports the OS-chosen port after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Number of request-worker threads the pool will run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A handle that can later drain this server gracefully.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until drained: the pool is a `mlscale_core::par` map over
    /// worker indices — index 0 is the acceptor feeding the bounded
    /// queue, the rest serve connections. (Inside a pool worker nested
    /// `par` maps run serial — concurrency comes from serving many
    /// requests at once, and results are bit-identical either way.)
    ///
    /// Returns after a SIGTERM/SIGINT (when [`signal::install`] was
    /// called) or a [`DrainHandle::request_shutdown`]: accepting stops,
    /// already-accepted requests finish and are answered, workers exit.
    pub fn run(&self) {
        let ids: Vec<usize> = (0..=self.threads).collect();
        par::with_thread_count(self.threads + 1, || {
            par::map(&ids, |&id| match id {
                0 => self.acceptor(),
                _ => self.worker(),
            });
        });
    }

    /// Spawns [`Self::run`] on a background thread and returns once the
    /// listener is accepting — for in-process embedding (the bench, unit
    /// tests). The workers run until the process exits or a previously
    /// obtained [`Self::drain_handle`] shuts them down.
    pub fn start(self) -> std::io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        // lint: allow(par-only-threads): the detached accept-loop host thread lives for the whole process; par::map has no fire-and-forget mode
        std::thread::spawn(move || self.run());
        Ok(addr)
    }

    fn draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst) || signal::requested()
    }

    /// Accepts on a non-blocking listener (a blocking `accept` would
    /// restart across signals and never observe the drain flag), feeding
    /// the bounded queue and shedding the overflow.
    fn acceptor(&self) {
        self.listener.set_nonblocking(true).ok();
        loop {
            if self.draining() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Accepted sockets inherit the listener's
                    // non-blocking flag on some platforms; request
                    // workers expect blocking reads with deadlines.
                    stream.set_nonblocking(false).ok();
                    if let Err(rejected) =
                        self.state.queue.push(stream, self.state.limits.queue_limit)
                    {
                        Self::shed(rejected);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(DRAIN_POLL);
                }
                Err(_) => continue, // transient accept failure
            }
        }
        // Drain: unblock idle keep-alive reads so busy workers notice,
        // and wake idle workers so they observe the flag and exit.
        self.state.conns.shutdown_reads();
        self.state.queue.notify_all();
    }

    /// Tells one over-capacity peer to come back, cheaply: a `503` with
    /// `Retry-After` under a short write deadline, then close.
    fn shed(mut stream: TcpStream) {
        stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT)).ok();
        stream.set_read_timeout(Some(SHED_WRITE_TIMEOUT)).ok();
        let body = error_body(
            "server",
            "overloaded: the accept queue is full — retry after a moment",
        );
        let mut writer = BufWriter::new(&stream);
        let _ = Response::json(503, body)
            .with_header("Retry-After", "1")
            .write_to(&mut writer);
        drop(writer);
        // Lingering close: the shed request's bytes were never read, and
        // closing with unread data RSTs the 503 out of the peer's buffer.
        // Discard what was sent (bounded by the short deadlines above).
        stream.shutdown(Shutdown::Write).ok();
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    }

    fn worker(&self) {
        while let Some(stream) = self.state.queue.pop(|| self.draining()) {
            self.serve_connection(stream);
        }
    }

    /// Serial keep-alive loop over one connection. Every malformed HTTP
    /// exchange is answered with a 400 and the connection closed; a read
    /// deadline expiry is answered with a 408; a panic out of evaluation
    /// becomes a 500, never a dead worker.
    fn serve_connection(&self, stream: TcpStream) {
        let limits = self.state.limits;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(limits.read_timeout)).ok();
        stream.set_write_timeout(Some(limits.write_timeout)).ok();
        let registered = self.state.conns.register(&stream, self.draining());
        let Ok(read_half) = stream.try_clone() else {
            if let Some(id) = registered {
                self.state.conns.deregister(id);
            }
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        loop {
            let request = match read_request(&mut reader) {
                Ok(Some(request)) => request,
                Ok(None) => break, // clean EOF (or an idle read drained)
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    let body = error_body("request", &e.to_string());
                    let _ = Response::json(400, body).write_to(&mut writer);
                    break;
                }
                Err(e) if is_timeout(&e) => {
                    // The read deadline expired while the peer held the
                    // connection open: say so instead of silently
                    // dropping, then close.
                    let body = error_body(
                        "request",
                        &format!(
                            "no request within the {:.0?} read deadline",
                            limits.read_timeout
                        ),
                    );
                    let _ = Response::json(408, body).write_to(&mut writer);
                    break;
                }
                Err(_) => break, // peer reset/aborted: nothing to answer
            };
            let close = request.wants_close();
            // lint: allow(determinism): x-mlscale-micros is a diagnostic latency header, not model output
            let started = Instant::now();
            let response =
                catch_unwind(AssertUnwindSafe(|| self.route(&request))).unwrap_or_else(|_| {
                    Response::json(500, error_body("internal", "evaluation panicked"))
                });
            let micros = started.elapsed().as_micros();
            let response = response.with_header("x-mlscale-micros", micros.to_string());
            if faultpoint::hit(faultpoint::points::SERVE_WRITE_RESPONSE).is_err() {
                break; // injected mid-response crash: drop the connection
            }
            if response.write_to(&mut writer).is_err() || close {
                break;
            }
            if started.elapsed() > limits.request_deadline {
                break; // over the per-exchange budget: no more keep-alive
            }
            if self.draining() {
                break; // in-flight request answered; now drain
            }
        }
        if let Some(id) = registered {
            self.state.conns.deregister(id);
        }
    }

    /// Maps one request to its response (no socket I/O here).
    fn route(&self, request: &Request) -> Response {
        if !ENDPOINTS.contains(&request.path.as_str()) {
            return Response::json(
                404,
                error_body(
                    &request.path,
                    "unknown endpoint (expected POST /gd, /plan or /sweep)",
                ),
            );
        }
        if request.method != "POST" {
            return Response::json(
                405,
                error_body(
                    &request.path,
                    &format!(
                        "{} not allowed (scenario JSON goes in a POST body)",
                        request.method
                    ),
                ),
            )
            .with_header("Allow", "POST");
        }
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Response::json(400, error_body("request", "body is not valid UTF-8"));
        };
        if let Some(cached) = self.state.responses.get(&request.path, body) {
            return Response::json(200, cached.as_str()).with_header("x-mlscale-cache", "hit");
        }
        match self.respond(&request.path, body) {
            Ok(rendered) => {
                self.state
                    .responses
                    .put(&request.path, body, Arc::clone(&rendered));
                Response::json(200, rendered.as_str()).with_header("x-mlscale-cache", "miss")
            }
            Err(err) => Response::json(400, error_body(&err.path, &err.message)),
        }
    }

    /// Validates and evaluates one request body — exactly the CLI's
    /// validation, so every exit-2 diagnostic surfaces here as the 400
    /// error path.
    fn respond(&self, path: &str, body: &str) -> Result<Arc<String>, SpecError> {
        let spec = ScenarioSpec::from_json(body)?;
        let rendered = match path {
            "/sweep" => {
                // `"adaptive": true` scenarios evaluate only around the
                // (cost, time) Pareto frontier; the envelope then carries
                // the frontier and the evaluated subset instead of the
                // full grid.
                let (outcome, frontier) = if spec.adaptive {
                    let adaptive = run_adaptive_pooled(&spec, &self.state.caches)?;
                    (adaptive.outcome, Some(adaptive.frontier))
                } else {
                    (run_pooled(&spec, &self.state.caches)?, None)
                };
                let mut fields = vec![
                    ("name".to_string(), Value::Str(outcome.name.clone())),
                    (
                        "points".to_string(),
                        Value::Seq(outcome.points.iter().map(|p| p.to_value()).collect()),
                    ),
                    ("rollup".to_string(), outcome.rollup.to_value()),
                ];
                if let Some(frontier) = frontier {
                    fields.push((
                        "frontier".to_string(),
                        Value::Seq(
                            frontier
                                .iter()
                                .map(|f| {
                                    Value::Map(vec![
                                        ("id".to_string(), Value::Str(f.id.clone())),
                                        ("cost".to_string(), Value::F64(f.cost)),
                                        ("time".to_string(), Value::F64(f.time)),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                }
                let envelope = Value::Map(fields);
                serde_json::to_string_pretty(&envelope)
                    .map_err(|e| SpecError::new(path, format!("cannot render sweep JSON: {e}")))?
            }
            _ => {
                // /gd and /plan: one configuration, answered with the
                // same pretty ExperimentResult JSON the CLI emits.
                let WorkloadSpec::Gd(gd) = &spec.workload else {
                    return Err(SpecError::new(
                        "workload.kind",
                        format!("{path} serves gd workloads; POST this scenario to /sweep"),
                    ));
                };
                if !spec.sweep.is_empty() {
                    return Err(SpecError::new(
                        "sweep",
                        format!("{path} answers a single configuration; POST grids to /sweep"),
                    ));
                }
                if path == "/plan" && gd.plan.is_none() {
                    return Err(SpecError::new(
                        "workload.plan",
                        "required by /plan (set iterations and price)",
                    ));
                }
                let outcome = run_pooled(&spec, &self.state.caches)?;
                serde_json::to_string_pretty(&outcome.points[0])
                    .map_err(|e| SpecError::new(path, format!("cannot render result JSON: {e}")))?
            }
        };
        Ok(Arc::new(rendered))
    }
}

/// `{"error": {"path": …, "message": …}}` — the serve-side rendering of
/// a [`SpecError`], naming the offending key path.
fn error_body(path: &str, message: &str) -> String {
    serde_json::to_string(&Value::Map(vec![(
        "error".to_string(),
        Value::Map(vec![
            ("path".to_string(), Value::Str(path.to_string())),
            ("message".to_string(), Value::Str(message.to_string())),
        ]),
    )]))
    .unwrap_or_else(|_| {
        // Rendering a flat string map cannot fail, but a 500 must never
        // panic the worker — fall back to a hand-assembled body.
        r#"{"error":{"path":"internal","message":"error rendering failed"}}"#.to_string()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn start_server() -> SocketAddr {
        Server::bind("127.0.0.1:0", 2)
            .expect("bind")
            .start()
            .expect("start")
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("recv");
        response
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        roundtrip(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    const FIG2: &str = r#"{"name": "fig2-exhibit",
        "workload": {"kind": "exhibit", "id": "fig2", "max_n": 16}}"#;

    #[test]
    fn sweep_endpoint_serves_and_caches() {
        let addr = start_server();
        let cold = post(addr, "/sweep", FIG2);
        assert!(cold.starts_with("HTTP/1.1 200"), "{cold}");
        assert!(cold.contains("x-mlscale-cache: miss"));
        assert!(cold.contains("\"rollup\""));
        let warm = post(addr, "/sweep", FIG2);
        assert!(warm.contains("x-mlscale-cache: hit"));
        let body = |r: &str| r.split("\r\n\r\n").nth(1).unwrap().to_string();
        assert_eq!(body(&cold), body(&warm), "cached must be byte-identical");
    }

    #[test]
    fn adaptive_sweep_envelope_carries_the_frontier() {
        let addr = start_server();
        let scenario = r#"{"name": "adaptive-serve", "adaptive": true,
            "workload": {"kind": "gd", "params": 12e6, "cost_per_example": 72e6,
                         "batch": 60000, "flops": 84.48e9, "max_n": 12},
            "sweep": [{"param": "latency", "values": [0.0, 1e-5, 1e-4, 1e-3]}]}"#;
        let response = post(addr, "/sweep", scenario);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("\"frontier\""), "{response}");
        assert!(response.contains("\"cost\""), "{response}");
        assert!(response.contains("\"rollup\""), "{response}");
    }

    #[test]
    fn gd_and_plan_endpoints_answer_single_points() {
        let addr = start_server();
        let gd = r#"{"name": "q", "workload": {"kind": "gd", "preset": "fig2", "max_n": 13}}"#;
        let response = post(addr, "/gd", gd);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("\"optimal n\""));

        let no_plan = post(addr, "/plan", gd);
        assert!(no_plan.starts_with("HTTP/1.1 400"), "{no_plan}");
        assert!(no_plan.contains("workload.plan"));

        let plan = r#"{"name": "q", "workload": {"kind": "gd", "preset": "fig2", "max_n": 16,
            "plan": {"iterations": 1000, "price": 2.0}}}"#;
        let planned = post(addr, "/plan", plan);
        assert!(planned.starts_with("HTTP/1.1 200"), "{planned}");
        assert!(planned.contains("cheapest cost"));
    }

    #[test]
    fn validation_errors_name_the_key_path() {
        let addr = start_server();
        let bad = r#"{"name": "x", "workload": {"kind": "gd", "preset": "fig2",
                      "latancy": 1e-4, "max_n": 4}}"#;
        let response = post(addr, "/sweep", bad);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("workload.latancy"), "{response}");

        let not_json = post(addr, "/gd", "{nope");
        assert!(not_json.starts_with("HTTP/1.1 400"));

        let exhibit_on_gd = post(addr, "/gd", FIG2);
        assert!(exhibit_on_gd.starts_with("HTTP/1.1 400"));
        assert!(exhibit_on_gd.contains("workload.kind"));
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let addr = start_server();
        let missing = post(addr, "/nope", "{}");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let get = roundtrip(
            addr,
            "GET /sweep HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(get.starts_with("HTTP/1.1 405"), "{get}");
        assert!(get.contains("Allow: POST"));
        let garbage = roundtrip(addr, "garbage\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let addr = start_server();
        let gd = r#"{"name": "k", "workload": {"kind": "gd", "preset": "fig2", "max_n": 4}}"#;
        let request = format!(
            "POST /gd HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{gd}",
            gd.len()
        );
        let mut stream = TcpStream::connect(addr).expect("connect");
        for round in 0..3 {
            stream.write_all(request.as_bytes()).expect("send");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let response = read_one_response(&mut reader);
            assert!(response.starts_with("HTTP/1.1 200"), "round {round}");
        }
    }

    #[test]
    fn zero_capacity_queue_sheds_everything_with_503() {
        // queue_limit 0 makes every accept an overflow — the
        // deterministic way to observe the shed path.
        let server = Server::bind("127.0.0.1:0", 1)
            .expect("bind")
            .with_limits(Limits {
                queue_limit: 0,
                ..Limits::default()
            });
        let handle = server.drain_handle();
        let addr = server.start().expect("start");
        let shed = post(addr, "/gd", "{}");
        assert!(
            shed.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{shed}"
        );
        assert!(shed.contains("Retry-After: 1"), "{shed}");
        assert!(shed.contains("accept queue is full"), "{shed}");
        handle.request_shutdown();
    }

    #[test]
    fn expired_read_deadline_answers_408() {
        let server = Server::bind("127.0.0.1:0", 1)
            .expect("bind")
            .with_limits(Limits {
                read_timeout: Duration::from_millis(80),
                ..Limits::default()
            });
        let handle = server.drain_handle();
        let addr = server.start().expect("start");
        // Connect and send nothing: the read deadline must expire and be
        // answered, not silently dropped.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("recv");
        assert!(
            response.starts_with("HTTP/1.1 408 Request Timeout"),
            "{response}"
        );
        assert!(response.contains("read deadline"), "{response}");
        handle.request_shutdown();
    }

    #[test]
    fn drain_finishes_in_flight_requests_and_run_returns() {
        let server = Server::bind("127.0.0.1:0", 2).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.drain_handle();
        // Tests may host the pool thread directly (the lint's test
        // exemption): run() must return once drained.
        let host = std::thread::spawn(move || server.run());

        // One served request, then the connection idles in keep-alive.
        let gd = r#"{"name": "d", "workload": {"kind": "gd", "preset": "fig2", "max_n": 4}}"#;
        let request = format!(
            "POST /gd HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{gd}",
            gd.len()
        );
        let mut idle = TcpStream::connect(addr).expect("connect");
        idle.write_all(request.as_bytes()).expect("send");
        let mut reader = BufReader::new(idle.try_clone().unwrap());
        let response = read_one_response(&mut reader);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");

        handle.request_shutdown();
        host.join().expect("run() must return after drain");

        // The drained server closed the idle keep-alive connection.
        let mut rest = String::new();
        idle.read_to_string(&mut rest).expect("clean close");
        assert_eq!(rest, "", "no bytes after drain");
    }

    /// Reads exactly one HTTP response (headers + Content-Length body).
    fn read_one_response<R: std::io::BufRead>(reader: &mut R) -> String {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            head.push_str(&line);
            if line == "\r\n" {
                break;
            }
        }
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("length header")
            .trim()
            .parse()
            .expect("numeric length");
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("body");
        head + &String::from_utf8(body).expect("utf8 body")
    }
}
