//! The daemon proper: acceptor, bounded admission queue, worker pool,
//! request dispatch, and graceful drain.
//!
//! Thread model (no async runtime — the whole daemon is `std` threads over
//! blocking sockets):
//!
//! * **acceptor** — polls a non-blocking listener; every accepted socket
//!   either enters the bounded admission queue or is shed on the spot with
//!   `429` + `Retry-After` (admission control happens *before* a worker is
//!   tied up);
//! * **workers** (`DaemonConfig::workers` of them) — pop connections, run a
//!   keep-alive request loop, and dispatch. Each request executes under
//!   [`std::panic::catch_unwind`]: a handler panic kills *that connection*
//!   (with a best-effort `500`), bumps `handler_panics`, and the worker —
//!   and the process — live on;
//! * **micro-batcher** — no thread: a worker that finds no flush in flight
//!   leads one; workers arriving meanwhile are the next batch ([`crate::batch`]).
//!
//! Deadlines: each request gets `min(x-sigma-deadline-ms, default)` of
//! budget measured from the instant its bytes finished parsing. A request
//! found expired is shed with `504` **before any engine work** — under
//! overload the daemon spends kernel time only on requests someone is still
//! waiting for.
//!
//! Drain: [`Daemon::shutdown`] stops the acceptor, waits up to the drain
//! deadline for queued + in-flight work to finish (responses during a drain
//! advertise `connection: close`), then hard-stops: workers exit at their
//! next loop edge and any connection still queued is answered `503`.

use crate::backend::Backend;
use crate::batch::{BatchFailure, MicroBatcher, SubmitError};
use crate::http::{self, HttpError, HttpLimits, Request, Response};
use crate::json::{self, Json};
use crate::metrics::{DaemonMetrics, DaemonStats};
use crate::status::{kind_for, status_for};
use sigma_serve::{MappedSnapshot, Prediction, ServeError};
use sigma_simrank::{DynamicSimRank, EdgeUpdate};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables for one daemon instance. `Default` is sized for tests and small
/// deployments; production configs mostly raise `workers` and
/// `queue_capacity`.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Port to bind on `127.0.0.1` (0 = OS-assigned, read back via
    /// [`Daemon::local_addr`]).
    pub port: u16,
    /// Worker threads serving accepted connections.
    pub workers: usize,
    /// Admission-queue bound: connections waiting for a worker beyond this
    /// are shed with `429`.
    pub queue_capacity: usize,
    /// Default per-request deadline when the client sends no
    /// `x-sigma-deadline-ms` header.
    pub default_deadline_ms: u64,
    /// How long [`Daemon::shutdown`] waits for queued + in-flight work
    /// before hard-stopping.
    pub drain_deadline_ms: u64,
    /// Socket read timeout — bounds how long a slow-loris writer can hold a
    /// worker (also the keep-alive idle timeout).
    pub read_timeout_ms: u64,
    /// Socket write timeout — bounds slow readers.
    pub write_timeout_ms: u64,
    /// Wire limits (request line, header count, body bytes).
    pub limits: HttpLimits,
    /// The longest a `POST /v1/predict` waits behind a flush in flight
    /// for its micro-batch to form, in microseconds; a predict that finds
    /// none in flight never waits. `0` = never wait.
    pub micro_batch_window_us: u64,
    /// Largest coalesced batch one flush may serve.
    pub micro_batch_max: usize,
    /// Bound on predicts waiting in the micro-batch queue.
    pub micro_batch_capacity: usize,
    /// Upper bound on `nodes` per `POST /v1/predict_batch`.
    pub max_batch_nodes: usize,
    /// Enables `POST /v1/panic` (fault injection for the e2e suite).
    pub debug_endpoints: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            port: 0,
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 2_000,
            drain_deadline_ms: 5_000,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            limits: HttpLimits::default(),
            micro_batch_window_us: 200,
            micro_batch_max: 64,
            micro_batch_capacity: 256,
            max_batch_nodes: 4_096,
            debug_endpoints: false,
        }
    }
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum DaemonError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// The configuration is unusable as given.
    Config(&'static str),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "daemon io: {e}"),
            DaemonError::Config(reason) => write!(f, "daemon config: {reason}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}

/// What [`Daemon::shutdown`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether all queued + in-flight work finished inside the drain
    /// deadline.
    pub drained_cleanly: bool,
    /// Connections still queued at hard-stop, answered `503`.
    pub queued_rejected: usize,
}

struct Shared {
    config: DaemonConfig,
    backend: Arc<Backend>,
    maintainer: Option<Mutex<DynamicSimRank>>,
    metrics: Arc<DaemonMetrics>,
    batcher: MicroBatcher,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_arrived: Condvar,
    /// Soft stop: acceptor closes, responses advertise close, drain begins.
    draining: AtomicBool,
    /// Hard stop: workers exit at the next loop edge.
    hard_stop: AtomicBool,
}

/// A running serving daemon. Dropping it performs a full
/// [`Daemon::shutdown`].
pub struct Daemon {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds `127.0.0.1:port` and starts the acceptor, workers, and
    /// micro-batcher.
    pub fn start(
        backend: Backend,
        maintainer: Option<DynamicSimRank>,
        config: DaemonConfig,
    ) -> Result<Daemon, DaemonError> {
        if config.workers == 0 {
            return Err(DaemonError::Config("workers must be >= 1"));
        }
        if config.queue_capacity == 0 {
            return Err(DaemonError::Config("queue_capacity must be >= 1"));
        }
        if config.micro_batch_max == 0 || config.micro_batch_capacity == 0 {
            return Err(DaemonError::Config("micro-batch sizing must be >= 1"));
        }
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let backend = Arc::new(backend);
        let metrics = Arc::new(DaemonMetrics::new());
        let batcher = MicroBatcher::start(
            backend.clone(),
            metrics.clone(),
            Duration::from_micros(config.micro_batch_window_us),
            config.micro_batch_max,
            config.micro_batch_capacity,
        );
        let shared = Arc::new(Shared {
            config: config.clone(),
            backend,
            maintainer: maintainer.map(Mutex::new),
            metrics,
            batcher,
            queue: Mutex::new(VecDeque::new()),
            queue_arrived: Condvar::new(),
            draining: AtomicBool::new(false),
            hard_stop: AtomicBool::new(false),
        });

        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("sigma-daemon-accept".into())
                .spawn(move || acceptor_loop(shared, listener))
                .map_err(DaemonError::Io)?
        };
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sigma-daemon-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .map_err(DaemonError::Io)?,
            );
        }
        Ok(Daemon {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the daemon's own counters.
    pub fn stats(&self) -> DaemonStats {
        self.shared.metrics.snapshot()
    }

    /// Stops accepting, drains queued + in-flight work within the drain
    /// deadline, then hard-stops and joins every thread.
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Drain phase: nothing new is arriving; wait for the queue to empty
        // and in-flight requests to finish.
        let deadline = Instant::now() + Duration::from_millis(self.shared.config.drain_deadline_ms);
        let drained_cleanly = loop {
            let queued = self
                .shared
                .queue
                .lock()
                .expect("daemon queue poisoned")
                .len();
            let inflight = self.shared.metrics.inflight.get();
            if queued == 0 && inflight == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        self.shared.hard_stop.store(true, Ordering::Release);
        self.shared.queue_arrived.notify_all();
        // Anything still queued past the deadline gets a clean 503 instead
        // of a silent RST.
        let leftovers: Vec<TcpStream> = {
            let mut queue = self.shared.queue.lock().expect("daemon queue poisoned");
            queue.drain(..).collect()
        };
        let queued_rejected = leftovers.len();
        for mut stream in leftovers {
            self.shared.metrics.queue_depth.add(-1);
            let mut resp = Response::error(503, "draining", "daemon is shutting down");
            resp.close = true;
            let _ = http::write_response(&mut stream, &resp);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.batcher.shutdown();
        DrainReport {
            drained_cleanly,
            queued_rejected,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}

fn acceptor_loop(shared: Arc<Shared>, listener: TcpListener) {
    let read_timeout = Duration::from_millis(shared.config.read_timeout_ms.max(1));
    let write_timeout = Duration::from_millis(shared.config.write_timeout_ms.max(1));
    while !shared.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(read_timeout));
                let _ = stream.set_write_timeout(Some(write_timeout));
                let _ = stream.set_nodelay(true);
                let shed = {
                    let mut queue = shared.queue.lock().expect("daemon queue poisoned");
                    if queue.len() >= shared.config.queue_capacity {
                        Some(stream)
                    } else {
                        queue.push_back(stream);
                        None
                    }
                };
                match shed {
                    None => {
                        shared.metrics.connections_accepted.inc();
                        shared.metrics.queue_depth.add(1);
                        shared.queue_arrived.notify_one();
                    }
                    Some(mut stream) => {
                        // Shed at the door: the worker pool never sees this
                        // connection, so overload cannot consume engine
                        // time.
                        shared.metrics.connections_shed.inc();
                        let mut resp =
                            Response::error(429, "admission_queue_full", "daemon at capacity");
                        resp.extra_headers.push(("retry-after", "1".to_string()));
                        resp.close = true;
                        shared.metrics.count_response(resp.status);
                        let _ = http::write_response(&mut stream, &resp);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("daemon queue poisoned");
            loop {
                if shared.hard_stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(stream) = queue.pop_front() {
                    shared.metrics.queue_depth.add(-1);
                    break stream;
                }
                let (guard, _) = shared
                    .queue_arrived
                    .wait_timeout(queue, Duration::from_millis(25))
                    .expect("daemon queue poisoned");
                queue = guard;
            }
        };
        handle_connection(&shared, stream);
    }
}

/// Runs the keep-alive request loop for one admitted connection.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        if shared.hard_stop.load(Ordering::Acquire) {
            return;
        }
        let request = http::read_request(&mut reader, &shared.config.limits);
        let arrival = Instant::now();
        let request = match request {
            Ok(request) => request,
            Err(HttpError::Closed) => return,
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                match e {
                    HttpError::Timeout => shared.metrics.read_timeouts.inc(),
                    _ => shared.metrics.parse_rejects.inc(),
                }
                if let Some(status) = e.status() {
                    let mut resp = Response::error(status, "bad_request", &e.to_string());
                    resp.close = true;
                    shared.metrics.count_response(resp.status);
                    let _ = http::write_response(&mut writer, &resp);
                }
                return;
            }
        };
        shared.metrics.requests.inc();
        shared.metrics.inflight.add(1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(shared, &request, arrival)
        }));
        shared.metrics.inflight.add(-1);
        match outcome {
            Ok(mut resp) => {
                // Drains and client wishes both force close; a handler can
                // also force it (e.g. after a state-changing failure).
                resp.close = resp.close
                    || request.close
                    || shared.draining.load(Ordering::Acquire)
                    || shared.hard_stop.load(Ordering::Acquire);
                shared.metrics.count_response(resp.status);
                if sigma_obs::ENABLED {
                    shared
                        .metrics
                        .request_ns
                        .record(arrival.elapsed().as_nanos() as u64);
                }
                if http::write_response(&mut writer, &resp).is_err() {
                    return;
                }
                if resp.close {
                    return;
                }
            }
            Err(_) => {
                // The panic is contained to this connection: respond 500 if
                // we still can (headers are never streamed early, so we
                // can), close, and let the worker carry on.
                shared.metrics.handler_panics.inc();
                let mut resp = Response::error(500, "handler_panic", "request handler panicked");
                resp.close = true;
                shared.metrics.count_response(resp.status);
                let _ = http::write_response(&mut writer, &resp);
                return;
            }
        }
    }
}

/// Parses the per-request deadline: `min(header, default)` of budget from
/// `arrival`. A malformed header is a `400`, not a silent default.
fn request_deadline(
    shared: &Shared,
    request: &Request,
    arrival: Instant,
) -> Result<Instant, Response> {
    let default_ms = shared.config.default_deadline_ms;
    let budget_ms = match request.header("x-sigma-deadline-ms") {
        None => default_ms,
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(0) | Err(_) => {
                return Err(Response::error(
                    400,
                    "bad_deadline",
                    "x-sigma-deadline-ms must be a positive integer",
                ))
            }
            Ok(ms) => ms,
        },
    };
    Ok(arrival + Duration::from_millis(budget_ms))
}

/// Sheds the request with `504` if its deadline has already expired —
/// called immediately before any engine work.
fn check_deadline(shared: &Shared, deadline: Instant) -> Option<Response> {
    if Instant::now() >= deadline {
        shared.metrics.deadline_shed.inc();
        Some(Response::error(
            504,
            "deadline_expired",
            "deadline expired before the engine was invoked",
        ))
    } else {
        None
    }
}

fn handle_request(shared: &Shared, request: &Request, arrival: Instant) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/predict") => handle_predict(shared, request, arrival),
        ("POST", "/v1/predict_batch") => handle_predict_batch(shared, request, arrival),
        ("POST", "/v1/similar") => handle_similar(shared, request, arrival),
        ("POST", "/v1/edges") => handle_edges(shared, request, arrival),
        ("POST", "/v1/repair") => handle_repair(shared, request, arrival),
        ("POST", "/v1/reload") => handle_reload(shared, request),
        ("GET", "/v1/stats") => handle_stats(shared),
        ("GET", "/metrics") => handle_metrics(),
        ("GET", "/healthz") => handle_healthz(shared),
        ("POST", "/v1/panic") if shared.config.debug_endpoints => {
            panic!("injected panic (debug endpoint)")
        }
        (
            _,
            "/v1/predict" | "/v1/predict_batch" | "/v1/similar" | "/v1/edges" | "/v1/repair"
            | "/v1/reload" | "/v1/stats" | "/metrics" | "/healthz",
        ) => Response::error(405, "method_not_allowed", "wrong method for this path"),
        _ => Response::error(404, "unknown_path", "no such endpoint"),
    }
}

/// Parses the request body as a JSON object, mapping parse failures to a
/// typed `400`.
fn parse_body(request: &Request) -> Result<Json, Response> {
    json::parse(&request.body)
        .map_err(|e| Response::error(400, "bad_json", &format!("request body: {e}")))
}

fn engine_error(error: &ServeError) -> Response {
    Response::error(status_for(error), kind_for(error), &error.to_string())
}

fn prediction_json(p: &Prediction) -> String {
    let mut out = String::with_capacity(64 + 16 * p.logits.len());
    prediction_json_into(&mut out, p);
    out
}

fn prediction_json_into(out: &mut String, p: &Prediction) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"node\": {}, \"label\": {}, \"cached\": {}, \"stale\": {}, \"logits\": [",
        p.node, p.label, p.cached, p.stale
    );
    for (i, logit) in p.logits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Rust's shortest-roundtrip float formatting keeps this bitwise
        // exact across the wire (see json::tests::float_roundtrip_is_bitwise).
        let _ = write!(out, "{logit}");
    }
    out.push_str("]}");
}

fn handle_predict(shared: &Shared, request: &Request, arrival: Instant) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let node = match body.get("node").and_then(Json::as_index) {
        Some(node) => node,
        None => {
            return Response::error(
                400,
                "bad_json",
                "field `node` (non-negative integer) required",
            )
        }
    };
    let deadline = match request_deadline(shared, request, arrival) {
        Ok(deadline) => deadline,
        Err(resp) => return resp,
    };
    if let Some(resp) = check_deadline(shared, deadline) {
        return resp;
    }
    let reply = match shared.batcher.submit(node, deadline) {
        Ok(rx) => rx.recv().unwrap_or(Err(BatchFailure::Stopped)),
        Err(SubmitError::Stopped) => Err(BatchFailure::Stopped),
        Err(SubmitError::Shed) => {
            shared.metrics.batch_shed.inc();
            let mut resp =
                Response::error(429, "batch_queue_full", "micro-batch queue at capacity");
            resp.extra_headers.push(("retry-after", "1".to_string()));
            return resp;
        }
    };
    match reply {
        Ok(p) => Response::json(200, prediction_json(&p)),
        Err(BatchFailure::Deadline) => Response::error(
            504,
            "deadline_expired",
            "deadline expired in the micro-batch queue",
        ),
        Err(BatchFailure::Engine(e)) => engine_error(&e),
        Err(BatchFailure::Stopped) => {
            Response::error(503, "batcher_stopped", "daemon is shutting down")
        }
    }
}

fn handle_predict_batch(shared: &Shared, request: &Request, arrival: Instant) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let nodes = match body.get("nodes").and_then(Json::as_arr) {
        Some(arr) => arr,
        None => return Response::error(400, "bad_json", "field `nodes` (array) required"),
    };
    if nodes.len() > shared.config.max_batch_nodes {
        return Response::error(
            413,
            "batch_too_large",
            &format!(
                "{} nodes exceeds the per-request cap of {}",
                nodes.len(),
                shared.config.max_batch_nodes
            ),
        );
    }
    let mut ids = Vec::with_capacity(nodes.len());
    for value in nodes {
        match value.as_index() {
            Some(id) => ids.push(id),
            None => {
                return Response::error(
                    400,
                    "bad_json",
                    "`nodes` entries must be non-negative integers",
                )
            }
        }
    }
    let deadline = match request_deadline(shared, request, arrival) {
        Ok(deadline) => deadline,
        Err(resp) => return resp,
    };
    if let Some(resp) = check_deadline(shared, deadline) {
        return resp;
    }
    match shared.backend.predict_batch(&ids) {
        Ok(predictions) => {
            let mut out = String::with_capacity(64 * predictions.len().max(1));
            out.push_str("{\"predictions\": [");
            for (i, p) in predictions.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                prediction_json_into(&mut out, p);
            }
            use std::fmt::Write as _;
            let _ = write!(out, "], \"count\": {}}}", predictions.len());
            Response::json(200, out)
        }
        Err(e) => engine_error(&e),
    }
}

/// `POST /v1/similar` — `{"node": n, "k": k}` → a top-level JSON array
/// `[{"node": m, "score": s}, ...]` ranked score-desc / id-asc (the
/// engine's pinned determinism contract). Scores use the same
/// shortest-roundtrip decimal formatting as logits, so a sharded and a
/// single-engine daemon answer with bitwise-identical bodies.
///
/// Similarity is a pure read with no completion obligation, so a draining
/// daemon refuses new queries outright with `503` (mirroring the 503 the
/// leftover queue gets) rather than racing the worker teardown.
fn handle_similar(shared: &Shared, request: &Request, arrival: Instant) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let node = match body.get("node").and_then(Json::as_index) {
        Some(node) => node,
        None => {
            return Response::error(
                400,
                "bad_json",
                "field `node` (non-negative integer) required",
            )
        }
    };
    let k = match body.get("k").and_then(Json::as_index) {
        Some(k) if k > 0 => k,
        _ => return Response::error(400, "bad_json", "field `k` (positive integer) required"),
    };
    let deadline = match request_deadline(shared, request, arrival) {
        Ok(deadline) => deadline,
        Err(resp) => return resp,
    };
    if let Some(resp) = check_deadline(shared, deadline) {
        return resp;
    }
    if shared.draining.load(Ordering::Acquire) {
        return Response::error(503, "draining", "daemon is shutting down");
    }
    match shared.backend.most_similar(node, k) {
        Ok(similar) => {
            use std::fmt::Write as _;
            let mut out = String::with_capacity(2 + 32 * similar.len());
            out.push('[');
            for (i, s) in similar.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                // Shortest-roundtrip float formatting, like logits: the
                // score bits survive the wire exactly.
                let _ = write!(out, "{{\"node\": {}, \"score\": {}}}", s.node, s.score);
            }
            out.push(']');
            Response::json(200, out)
        }
        Err(e) => engine_error(&e),
    }
}

fn handle_edges(shared: &Shared, request: &Request, arrival: Instant) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let raw = match body.get("updates").and_then(Json::as_arr) {
        Some(arr) => arr,
        None => return Response::error(400, "bad_json", "field `updates` (array) required"),
    };
    let mut updates = Vec::with_capacity(raw.len());
    for entry in raw {
        let op = entry.get("op").and_then(Json::as_str);
        let u = entry.get("u").and_then(Json::as_index);
        let v = entry.get("v").and_then(Json::as_index);
        let num_nodes = shared.backend.num_nodes();
        match (op, u, v) {
            (Some(_), Some(u), Some(v)) if u >= num_nodes || v >= num_nodes => {
                return engine_error(&ServeError::InvalidQuery {
                    node: u.max(v),
                    num_nodes,
                })
            }
            (Some("insert"), Some(u), Some(v)) => updates.push(EdgeUpdate::Insert(u, v)),
            (Some("delete"), Some(u), Some(v)) => updates.push(EdgeUpdate::Delete(u, v)),
            _ => {
                return Response::error(
                    400,
                    "bad_json",
                    "each update needs op (insert|delete), u, v",
                )
            }
        }
    }
    let deadline = match request_deadline(shared, request, arrival) {
        Ok(deadline) => deadline,
        Err(resp) => return resp,
    };
    if let Some(resp) = check_deadline(shared, deadline) {
        return resp;
    }
    // Keep the maintainer's graph in lockstep with the engine's staleness
    // tracker, so a later /v1/repair starts from a consistent lineage. A
    // maintainer rejection (e.g. an out-of-range endpoint) aborts the whole
    // request *before* the engine tracker sees anything — the two sides
    // never diverge.
    if let Some(maintainer) = &shared.maintainer {
        let mut maintainer = maintainer.lock().expect("maintainer poisoned");
        if let Err(e) = maintainer.apply_batch(&updates) {
            return engine_error(&ServeError::from(e));
        }
    }
    match shared.backend.apply_edge_updates(&updates) {
        Ok(invalidated) => Response::json(
            200,
            format!(
                "{{\"applied\": {}, \"invalidated\": {}, \"maintainer\": {}}}",
                updates.len(),
                invalidated,
                shared.maintainer.is_some()
            ),
        ),
        Err(e) => engine_error(&e),
    }
}

fn handle_repair(shared: &Shared, request: &Request, arrival: Instant) -> Response {
    let maintainer = match &shared.maintainer {
        Some(maintainer) => maintainer,
        None => {
            return Response::error(
                409,
                "no_maintainer",
                "daemon was started without a SimRank maintainer; /v1/repair unavailable",
            )
        }
    };
    let deadline = match request_deadline(shared, request, arrival) {
        Ok(deadline) => deadline,
        Err(resp) => return resp,
    };
    if let Some(resp) = check_deadline(shared, deadline) {
        return resp;
    }
    let mut maintainer = maintainer.lock().expect("maintainer poisoned");
    match shared.backend.repair_from(&mut maintainer) {
        Ok(summary) => {
            let fanout = match summary.fanout {
                Some((touched, skipped)) => format!("[{touched}, {skipped}]"),
                None => "null".to_string(),
            };
            Response::json(
                200,
                format!(
                    "{{\"full_refresh\": {}, \"operator_rows\": {}, \"embedding_rows\": {}, \
                     \"fanout\": {}}}",
                    summary.full_refresh, summary.operator_rows, summary.embedding_rows, fanout
                ),
            )
        }
        Err(e) => engine_error(&e),
    }
}

fn handle_reload(shared: &Shared, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let path = match body.get("path").and_then(Json::as_str) {
        Some(path) => path.to_string(),
        None => return Response::error(400, "bad_json", "field `path` (string) required"),
    };
    let result = MappedSnapshot::open(&path)
        .and_then(|mapped| shared.backend.hot_reload_mapped(Arc::new(mapped)));
    match result {
        Ok(()) => {
            shared.metrics.reloads.inc();
            Response::json(200, format!("{{\"reloaded\": {}}}", json::quote(&path)))
        }
        Err(e) => engine_error(&e),
    }
}

/// `{"field": value, …}` out of a stats struct's generated `fields()`.
fn stats_object(fields: impl Iterator<Item = (&'static str, i128)>) -> String {
    let pairs: Vec<String> = fields.map(|(key, v)| format!("\"{key}\": {v}")).collect();
    format!("{{{}}}", pairs.join(", "))
}

fn handle_stats(shared: &Shared) -> Response {
    let body = format!(
        "{{\n\"daemon\": {},\n\"engine\": {},\n\"registry\": {}}}",
        stats_object(shared.metrics.snapshot().fields()),
        stats_object(shared.backend.engine_stats().fields()),
        sigma_obs::snapshot().to_json(),
    );
    Response::json(200, body)
}

fn handle_metrics() -> Response {
    Response::text(200, sigma_obs::snapshot().to_prometheus())
}

fn handle_healthz(shared: &Shared) -> Response {
    let status = if shared.draining.load(Ordering::Acquire) {
        "draining"
    } else {
        "ok"
    };
    Response::json(
        200,
        format!(
            "{{\"status\": \"{status}\", \"nodes\": {}, \"classes\": {}}}",
            shared.backend.num_nodes(),
            shared.backend.num_classes()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_serve::{EngineConfig, InferenceEngine};
    use sigma_testutil::{random_graph, serving_fixture};

    /// `Daemon::shutdown` stops the batcher itself rather than leaving it
    /// to whoever drops the last `Arc<Shared>`: a handle that outlives the
    /// daemon is refused, it does not reach the engine.
    #[test]
    fn shutdown_stops_the_batcher_for_handles_that_outlive_the_daemon() {
        let fixture = serving_fixture(&random_graph(12, 6, 7), 4, 7);
        let engine = Arc::new(
            InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine"),
        );
        let daemon = Daemon::start(
            Backend::Engine(engine.clone()),
            None,
            DaemonConfig::default(),
        )
        .expect("daemon");
        let shared = daemon.shared.clone();
        let far = Instant::now() + Duration::from_secs(60);
        let served = shared
            .batcher
            .submit(0, far)
            .expect("a live daemon accepts");
        assert!(matches!(served.recv(), Ok(Ok(_))));
        daemon.shutdown();
        assert!(matches!(
            shared.batcher.submit(0, far),
            Err(SubmitError::Stopped)
        ));
        assert_eq!(engine.stats().nodes_served, 1);
    }
}
