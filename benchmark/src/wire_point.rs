//! `wire_point` — online point lookups through real sockets: the
//! 32 000-node snapshot served by the `sigma-daemon` binary as a child
//! process (`--workers 2 --window-us 200`, address read from its stdout
//! line, stdin-EOF drain at the end), driven by one keep-alive connection
//! sending Zipf(1.25) `POST /v1/predict`. `daemon.http`/`json`/`batch`/
//! `server` dominate (the engine is a few percent of the p50 and the cache
//! hit rate is high), so it exposes the coalescing window, thread hand-off
//! and float formatting, and bypasses the kernels.
//!
//! Phase A is a closed loop (one request in flight); phase B is an open
//! loop at `WIRE_OPEN_RATE_PER_S`, each request timed from its due time.
//! The end-to-end metrics all come from phase A, so a timed run gives it
//! the whole of `--seconds` and only a traced run goes on to phase B.
//!
//! A request is a ping-pong of sleeping threads (generator, worker,
//! flusher), never two running at once, so the generator and the daemon
//! are pinned to one CPU and an idle-priority spinner keeps it awake: see
//! `host::pin_to_one_cpu` and `host::IdleSpinner` for what that removes.

use crate::gen::{self, sub_seed, ZipfSampler};
use crate::report::{gate, set_up_repeatedly, Outcome, RunArgs, RunError};
use crate::spec::*;
use crate::trace::Tracer;
use crate::{host, stats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sigma_daemon::{http, json, Backend, DaemonMetrics, Json, MicroBatcher};
use sigma_serve::{EngineConfig, InferenceEngine, MappedSnapshot, Prediction};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn io_err(what: &str, e: std::io::Error) -> RunError {
    RunError::Setup(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------------
// The daemon under test, as a child process.
// ---------------------------------------------------------------------------

struct DaemonChild {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl DaemonChild {
    fn spawn(binary: &Path, snapshot: &Path, workers: usize) -> Result<Self, RunError> {
        let mut child = Command::new(binary)
            .arg(snapshot)
            .args(["--workers", &workers.to_string()])
            .args(["--window-us", &WIRE_WINDOW_US.to_string()])
            .env("SIGMA_NUM_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io_err(&format!("spawning {}", binary.display()), e))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout was piped"))
            .read_line(&mut line)
            .map_err(|e| io_err("reading the daemon's address line", e))?;
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Self { child, stdin, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(RunError::Setup(format!(
                    "the daemon did not print its address (got {line:?})"
                )))
            }
        }
    }

    /// Closes stdin, which the daemon takes as the signal to drain, and
    /// waits for a clean exit.
    fn stop(mut self) -> Result<(), RunError> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| io_err("waiting for the daemon", e))?;
        gate(status.success(), || {
            format!("the daemon exited with {status}")
        })
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        // Reached with the child still running when a run is abandoned or
        // a repeated set-up replaces it; the measured daemon is `stop`ped.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ---------------------------------------------------------------------------
// A keep-alive HTTP/1.1 client, lean enough not to show in the latency.
// ---------------------------------------------------------------------------

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
    line: Vec<u8>,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let timeout = Duration::from_secs(5);
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            request: Vec::new(),
            line: Vec::new(),
            body: Vec::new(),
        })
    }

    /// One exchange; returns the status, and leaves the body in `self.body`.
    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nhost: sigma-daemon\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        self.writer.write_all(&self.request)?;
        let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
        let mut status = None;
        let mut length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Err(bad("connection closed mid-response"));
            }
            let line = std::str::from_utf8(&self.line)
                .map_err(|_| bad("non-utf8 header"))?
                .trim_end();
            if line.is_empty() {
                break;
            }
            if status.is_none() {
                status = line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
                if status.is_none() {
                    return Err(bad("bad status line"));
                }
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        status.ok_or_else(|| bad("empty response"))
    }

    fn predict(&mut self, node: usize) -> std::io::Result<u16> {
        self.exchange("POST", "/v1/predict", predict_body(node).as_bytes())
    }
}

fn predict_body(node: usize) -> String {
    format!("{{\"node\": {node}}}")
}

// ---------------------------------------------------------------------------
// The open loop, written against a clock so it can be tested without one.
// ---------------------------------------------------------------------------

pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until(&mut self, ns: u64);
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&mut self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

#[derive(Debug, Default, PartialEq)]
pub struct OpenLoop {
    /// Completion minus *due* time of every request sent, nanoseconds.
    pub from_due_ns: Vec<u64>,
    /// How late the generator woke, for requests it was idle before: the
    /// scheduler's share of lateness, not the system's.
    pub gen_late_ns: Vec<u64>,
    /// Requests due, sent or not.
    pub due: u64,
    pub on_time: u64,
    pub failed: u64,
}

/// Sends one request per entry of `schedule` (due times from the phase
/// start), never before it is due and never two at once. A request that
/// stalls delays the ones due behind it, and because each is timed from its
/// due time that delay is charged to them. Requests still unsent at
/// `give_up_ns` are due but unanswered: they miss.
pub fn drive_open_loop(
    schedule: &[u64],
    limit_ns: u64,
    give_up_ns: u64,
    clock: &mut impl Clock,
    mut send: impl FnMut(usize) -> bool,
) -> OpenLoop {
    let mut run = OpenLoop {
        due: schedule.len() as u64,
        ..OpenLoop::default()
    };
    for (i, &due) in schedule.iter().enumerate() {
        let before = clock.now_ns();
        if before.max(due) >= give_up_ns {
            break;
        }
        if before < due {
            clock.sleep_until(due);
            run.gen_late_ns.push(clock.now_ns().saturating_sub(due));
        }
        let ok = send(i);
        let from_due = clock.now_ns().saturating_sub(due);
        run.from_due_ns.push(from_due);
        if !ok {
            run.failed += 1;
        } else if from_due <= limit_ns {
            run.on_time += 1;
        }
    }
    run
}

// ---------------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------------

struct Served {
    daemon: DaemonChild,
    client: Client,
    spawn_to_first_reply_ms: f64,
}

impl Served {
    /// Hangs up first: a worker blocked reading an idle keep-alive
    /// connection would hold the drain until its read timeout.
    fn stop(self) -> Result<(), RunError> {
        drop(self.client);
        self.daemon.stop()
    }
}

/// Starts the daemon on the saved snapshot and times process start to the
/// first `200`.
fn start_daemon(binary: &Path, snapshot: &Path, workers: usize) -> Result<Served, RunError> {
    let start = Instant::now();
    let daemon = DaemonChild::spawn(binary, snapshot, workers)?;
    let mut client = Client::connect(daemon.addr).map_err(|e| io_err("connecting", e))?;
    let status = client.predict(0).map_err(|e| io_err("first request", e))?;
    let spawn_to_first_reply_ms = start.elapsed().as_secs_f64() * 1e3;
    gate(status == 200, || format!("first reply was {status}"))?;
    Ok(Served {
        daemon,
        client,
        spawn_to_first_reply_ms,
    })
}

/// Fills the daemon's row cache with the hottest nodes and runs the
/// connection warm.
fn warm_up(served: &mut Served, sampler: &ZipfSampler, seed: u64) -> Result<(), RunError> {
    let hot: Vec<String> = sampler
        .hottest(EngineConfig::default().cache_capacity)
        .iter()
        .map(usize::to_string)
        .collect();
    let body = format!("{{\"nodes\": [{}]}}", hot.join(", "));
    let status = served
        .client
        .exchange("POST", "/v1/predict_batch", body.as_bytes())
        .map_err(|e| io_err("warm-up batch", e))?;
    gate(status == 200, || {
        format!("warm-up batch was answered {status}")
    })?;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    for _ in 0..WIRE_WARMUP_REQUESTS {
        let status = served
            .client
            .predict(sampler.sample(&mut rng))
            .map_err(|e| io_err("warm-up request", e))?;
        gate(status == 200, || {
            format!("warm-up request was answered {status}")
        })?;
    }
    Ok(())
}

/// Counters and quantiles scraped from the daemon's `GET /metrics`.
struct Scrape(String);

impl Scrape {
    fn take(client: &mut Client) -> Result<Self, RunError> {
        let status = client
            .exchange("GET", "/metrics", b"")
            .map_err(|e| io_err("GET /metrics", e))?;
        gate(status == 200, || format!("/metrics was answered {status}"))?;
        Ok(Self(String::from_utf8_lossy(&client.body).into_owned()))
    }

    fn value(&self, series: &str) -> f64 {
        self.0
            .lines()
            .find_map(|l| {
                l.strip_prefix(series)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse()
                    .ok()
            })
            .unwrap_or(0.0)
    }
}

struct ClosedLoop {
    lat_ns: Vec<u64>,
    replies: stats::Marks,
    think_ns: u64,
    failed: u64,
    /// `(node, reply body)` of every `WIRE_CHECK_EVERY`-th reply.
    sampled: Vec<(usize, Vec<u8>)>,
}

fn closed_loop(client: &mut Client, sampler: &ZipfSampler, seed: u64, seconds: f64) -> ClosedLoop {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run = ClosedLoop {
        lat_ns: Vec::new(),
        replies: stats::Marks::new(seconds / RUN_SLICES as f64),
        think_ns: 0,
        failed: 0,
        sampled: Vec::new(),
    };
    let phase = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut last_end = phase.elapsed();
    while last_end < budget {
        let node = sampler.sample(&mut rng);
        let start = phase.elapsed();
        run.think_ns += (start - last_end).as_nanos() as u64;
        let reply = client.predict(node);
        last_end = phase.elapsed();
        match reply {
            Ok(200) => {
                if run.lat_ns.len().is_multiple_of(WIRE_CHECK_EVERY) {
                    run.sampled.push((node, client.body.clone()));
                }
                run.lat_ns.push((last_end - start).as_nanos() as u64);
                run.replies
                    .tick(last_end.as_secs_f64(), run.lat_ns.len() as u64);
            }
            Ok(_) => run.failed += 1,
            Err(_) => {
                run.failed += 1;
                break;
            }
        }
    }
    run
}

/// The reply body the daemon writes for a prediction. A copy of the
/// private `prediction_json` in `crates/daemon/src/server.rs`, so the
/// traced replay can time float formatting from outside; `serialise_copy_ok`
/// says whether it still matches what comes over the wire.
fn prediction_json(p: &Prediction) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + 16 * p.logits.len());
    let _ = write!(
        out,
        "{{\"node\": {}, \"label\": {}, \"cached\": {}, \"stale\": {}, \"logits\": [",
        p.node, p.label, p.cached, p.stale
    );
    for (i, logit) in p.logits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{logit}");
    }
    out.push_str("]}");
    out
}

/// Every sampled reply must carry exactly the logits and label an
/// in-process engine computes from the same snapshot file.
fn check_replies(engine: &InferenceEngine, sampled: &[(usize, Vec<u8>)]) -> Result<(), RunError> {
    for (node, body) in sampled {
        let reply = json::parse(body).map_err(|e| RunError::Gate(format!("node {node}: {e}")))?;
        let expected = engine.predict(*node).expect("reference query");
        let logits: Option<Vec<u32>> = reply.get("logits").and_then(Json::as_arr).map(|arr| {
            arr.iter()
                .map(|v| (v.as_num().unwrap_or(f64::NAN) as f32).to_bits())
                .collect()
        });
        let want: Vec<u32> = expected.logits.iter().map(|v| v.to_bits()).collect();
        gate(logits.as_deref() == Some(&want[..]), || {
            format!("node {node}: wire logits differ from the in-process engine's")
        })?;
        gate(
            reply.get("label").and_then(Json::as_index) == Some(expected.label),
            || format!("node {node}: wire label differs from the in-process engine's"),
        )?;
    }
    Ok(())
}

struct Replay {
    parse_us: f64,
    json_us: f64,
    engine_us: f64,
    serialise_us: f64,
    batch_wait_us: f64,
}

/// Replays the generated request stream in process through the daemon's
/// own stages, one span each, so the wire p50 decomposes into them.
fn replay(
    tracer: &mut Tracer,
    engine: Arc<InferenceEngine>,
    sampler: &ZipfSampler,
    seed: u64,
) -> Replay {
    let mut rng = StdRng::seed_from_u64(seed);
    let limits = http::HttpLimits::default();
    let (mut parse, mut js, mut eng, mut ser) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sink = Vec::new();
    for id in 0..WIRE_REPLAY_REQUESTS as u64 {
        let node = sampler.sample(&mut rng);
        let body = predict_body(node);
        let bytes = format!(
            "POST /v1/predict HTTP/1.1\r\nhost: sigma-daemon\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let root = tracer.begin("request", None, id);
        let t0 = Instant::now();
        let request = tracer.scope("daemon.http_parse", Some(root), id, || {
            http::read_request(&mut bytes.as_bytes(), &limits).expect("generated request parses")
        });
        let t1 = Instant::now();
        let parsed = tracer.scope("daemon.json_parse", Some(root), id, || {
            json::parse(&request.body)
                .ok()
                .and_then(|b| b.get("node").and_then(Json::as_index))
                .expect("generated body carries a node")
        });
        let t2 = Instant::now();
        let prediction = tracer.scope("serve.predict", Some(root), id, || {
            engine.predict(parsed).expect("replayed query")
        });
        let t3 = Instant::now();
        tracer.scope("daemon.serialise", Some(root), id, || {
            sink.clear();
            let response = http::Response::json(200, prediction_json(&prediction));
            http::write_response(&mut sink, &response).expect("write into memory");
        });
        let t4 = Instant::now();
        tracer.end(root);
        parse.push((t1 - t0).as_secs_f64() * 1e6);
        js.push((t2 - t1).as_secs_f64() * 1e6);
        eng.push((t3 - t2).as_secs_f64() * 1e6);
        ser.push((t4 - t3).as_secs_f64() * 1e6);
    }

    // The coalescing window's cost to a lone request: a round trip through
    // the micro-batcher against the same call made directly.
    let backend = Arc::new(Backend::Engine(engine.clone()));
    let batcher = MicroBatcher::start(
        backend,
        Arc::new(DaemonMetrics::new()),
        Duration::from_micros(WIRE_WINDOW_US),
        64,
        256,
    );
    let mut through = Vec::new();
    for id in 0..WIRE_BATCHER_ROUND_TRIPS as u64 {
        let node = sampler.sample(&mut rng);
        let start = Instant::now();
        tracer.scope("daemon.batch_round_trip", None, id, || {
            let reply = batcher
                .submit(node, Instant::now() + Duration::from_secs(2))
                .expect("an idle batcher accepts")
                .recv();
            std::hint::black_box(
                reply
                    .expect("the flusher replies")
                    .expect("a lone predict succeeds"),
            );
        });
        through.push(start.elapsed().as_secs_f64() * 1e6);
    }
    batcher.shutdown();
    let engine_us = stats::median(&eng);
    Replay {
        parse_us: stats::median(&parse),
        json_us: stats::median(&js),
        engine_us,
        serialise_us: stats::median(&ser),
        batch_wait_us: stats::median(&through) - engine_us,
    }
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, RunError> {
    let n = SNAPSHOT_NODES;
    let path = gen::snapshot_file(&args.out, "wire_point");
    let sampler = ZipfSampler::new(n, WIRE_ZIPF, sub_seed(args.seed, 1));
    if !args.daemon.is_file() {
        return Err(RunError::Setup(format!(
            "{} is not built; run benchmark/run.sh",
            args.daemon.display()
        )));
    }
    // Sized to the host before pinning narrows what this process may use.
    let workers = WIRE_WORKERS.min(host::cores());
    match host::pin_to_one_cpu() {
        Some(cpu) => eprintln!(
            "sigma-benchmark: generator and daemon ({workers} workers) pinned to cpu {cpu}, 1 connection"
        ),
        None => eprintln!(
            "sigma-benchmark: could not pin to one cpu; the scheduler places the threads"
        ),
    }
    // Spins, at idle priority, until this function returns.
    let spinner = host::IdleSpinner::start();
    if spinner.is_none() {
        eprintln!("sigma-benchmark: no idle-priority spinner; the cpu halts between requests");
    }

    // Set-up: generate and save the snapshot, start the daemon, connect,
    // fill its cache.
    let mut spawn_ms = Vec::new();
    let (mut served, setup_s) = set_up_repeatedly(args.trace, || {
        gen::save_snapshot(n, args.seed, &path)?;
        let mut fresh = start_daemon(&args.daemon, &path, workers)?;
        warm_up(&mut fresh, &sampler, args.seed)?;
        spawn_ms.push(fresh.spawn_to_first_reply_ms);
        Ok(fresh)
    })?;
    let client = &mut served.client;
    let before = Scrape::take(client)?;

    // Phase A, closed loop, for the whole of a timed run. A traced run
    // splits three quarters of the time between it and phase B, open loop,
    // and keeps the last quarter for the in-process replay.
    let (closed_s, open_s) = if args.trace {
        let closed_s = args.seconds * 0.75 * WIRE_CLOSED_SHARE;
        (closed_s, args.seconds * 0.75 - closed_s)
    } else {
        (args.seconds, 0.0)
    };
    let closed = closed_loop(client, &sampler, sub_seed(args.seed, 10), closed_s);
    let limit_ns = WIRE_ONTIME_LIMIT_US * 1_000;
    let open = if args.trace {
        let schedule = gen::poisson_schedule(WIRE_OPEN_RATE_PER_S, open_s, sub_seed(args.seed, 20));
        let give_up_ns = ((open_s + 1.0) * 1e9) as u64;
        let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 30));
        let mut clock = WallClock(Instant::now());
        drive_open_loop(&schedule, limit_ns, give_up_ns, &mut clock, |_| {
            matches!(client.predict(sampler.sample(&mut rng)), Ok(200))
        })
    } else {
        OpenLoop::default()
    };
    let after = Scrape::take(client)?;
    let peak_rss_mb = host::peak_rss_mb(served.daemon.child.id())?;
    served.stop()?;
    if !args.trace {
        // More restarts for a steadier `operator_ms`, each drained again.
        while spawn_ms.len() < WIRE_SPAWNS {
            let extra = start_daemon(&args.daemon, &path, workers)?;
            spawn_ms.push(extra.spawn_to_first_reply_ms);
            extra.stop()?;
        }
    }

    // Gates: every reply was a 200, and the sampled ones carry the bits an
    // in-process engine computes from the same file.
    let mapped = Arc::new(MappedSnapshot::open(&path).expect("open the saved snapshot"));
    let _ = std::fs::remove_file(&path);
    let engine = Arc::new(
        InferenceEngine::from_mapped(mapped, EngineConfig::default()).expect("reference engine"),
    );
    let sent_closed = closed.lat_ns.len() as u64 + closed.failed;
    let sent_open = open.from_due_ns.len() as u64;
    let failed = closed.failed + open.failed;
    gate(failed == 0, || {
        format!("{failed} requests were not answered 200")
    })?;
    check_replies(&engine, &closed.sampled)?;

    let mut gen_late = open.gen_late_ns.clone();
    gen_late.sort_unstable();
    let gen_late_p99_us = if gen_late.is_empty() {
        0.0
    } else {
        stats::quantile_sorted(&gen_late, 0.99) as f64 / 1e3
    };
    if gen_late_p99_us > NOISY_LATE_SHARE * WIRE_ONTIME_LIMIT_US as f64 {
        return Err(RunError::Noisy(format!(
            "the open-loop generator woke {gen_late_p99_us:.0} us late at p99, over {} of the {} us \
             on-time limit: the numbers would measure the scheduler",
            NOISY_LATE_SHARE, WIRE_ONTIME_LIMIT_US
        )));
    }

    let lat_ns = &closed.lat_ns;
    gate(!lat_ns.is_empty(), || "phase A completed no request".into())?;
    let p50_us = stats::quiet_quantile(lat_ns, RUN_SLICES, 0.5) / 1e3;
    let ok_per_s = closed.replies.quiet_rate();
    eprintln!("sigma-benchmark: closed loop 1 connection {ok_per_s:.0} req/s p50 {p50_us:.0} us");
    if args.trace {
        let mut from_due = open.from_due_ns.clone();
        from_due.sort_unstable();
        let from_due_us = |q: f64| stats::quantile_sorted(&from_due, q) as f64 / 1e3;
        eprintln!(
            "sigma-benchmark: open loop {} due at {WIRE_OPEN_RATE_PER_S} req/s, {} on time within \
             {WIRE_ONTIME_LIMIT_US} us (from due: p50 {:.0} p90 {:.0} p95 {:.0} p99 {:.0} us), \
             generator p99 lateness {gen_late_p99_us:.0} us",
            open.due,
            open.on_time,
            from_due_us(0.5),
            from_due_us(0.9),
            from_due_us(0.95),
            from_due_us(0.99),
        );
    }

    let mut out = Outcome {
        attempted: sent_closed + sent_open,
        failed,
        ..Outcome::default()
    };
    if args.trace {
        let delta = |series: &str| after.value(series) - before.value(series);
        let (hits, misses) = (
            delta("sigma_serve_cache_hits_total"),
            delta("sigma_serve_cache_misses_total"),
        );
        let copy_ok = closed.sampled.iter().all(|(node, body)| {
            let mut p = engine.predict(*node).expect("reference query");
            // The cache flag depends on who asked first, not on the format.
            p.cached = body.windows(14).any(|w| w == b"\"cached\": true");
            prediction_json(&p).as_bytes() == &body[..]
        });
        let r = replay(tracer, engine, &sampler, sub_seed(args.seed, 40));
        out.set("req_per_s", ok_per_s);
        out.set("ontime_share", open.on_time as f64 / open.due.max(1) as f64);
        out.set(
            "fail_rate",
            failed as f64 / (sent_closed + sent_open) as f64,
        );
        out.set("coldstart_ms", stats::median(&spawn_ms));
        out.set("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
        out.set(
            "serve.cache_evictions",
            delta("sigma_serve_cache_evictions_total"),
        );
        out.set("serve.predict_us", r.engine_us);
        out.set("daemon.http_parse_us", r.parse_us);
        out.set("daemon.json_parse_us", r.json_us);
        out.set("daemon.serialise_us", r.serialise_us);
        out.set("daemon.serialise_copy_ok", f64::from(u8::from(copy_ok)));
        out.set("daemon.batch_wait_us", r.batch_wait_us);
        out.set(
            "daemon.batch_size_mean",
            delta("sigma_daemon_batch_size_sum") / delta("sigma_daemon_batch_size_count").max(1.0),
        );
        out.set(
            "daemon.batch_flushes",
            delta("sigma_daemon_batch_flushes_total"),
        );
        out.set(
            "daemon.coalesced_predicts",
            delta("sigma_daemon_coalesced_predicts_total"),
        );
        out.set(
            "daemon.connections_shed",
            delta("sigma_daemon_connections_shed_total"),
        );
        out.set(
            "daemon.deadline_shed",
            delta("sigma_daemon_deadline_shed_total"),
        );
        out.set(
            "daemon.request_ns_p50",
            after.value("sigma_daemon_request_ns{quantile=\"0.5\"}"),
        );
        out.set(
            "daemon.unattributed_us",
            p50_us - (r.parse_us + r.json_us + r.engine_us + r.serialise_us + r.batch_wait_us),
        );
        out.set("gen_late_p99_us", gen_late_p99_us);
        out.set(
            "client_think_us",
            closed.think_ns as f64 / 1e3 / sent_closed.max(1) as f64,
        );
        out.set("trace.lat_p50_us", p50_us);
    } else {
        out.set("setup_s", setup_s);
        out.set("operator_ms", stats::quiet(&spawn_ms));
        out.set("nodes_per_s", ok_per_s);
        out.set("lat_p50_us", p50_us);
        out.set(
            "lat_p99_us",
            stats::quiet_quantile(lat_ns, RUN_SLICES, 0.99) / 1e3,
        );
        out.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to, shared with the fake `send`.
    struct FakeClock<'a>(&'a std::cell::Cell<u64>);

    impl Clock for FakeClock<'_> {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }

        fn sleep_until(&mut self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    #[test]
    fn a_stalled_request_is_charged_to_the_requests_queued_behind_it() {
        // Due every 100; service takes 50, except request 1, which stalls 400.
        let schedule = [0u64, 100, 200, 300, 700];
        let now = std::cell::Cell::new(0u64);
        let run = drive_open_loop(&schedule, 120, u64::MAX, &mut FakeClock(&now), |i| {
            now.set(now.get() + if i == 1 { 400 } else { 50 });
            true
        });
        // Request 1 is sent at 100 and ends at 500. Request 2 was due at
        // 200 but leaves at 500: 350 from its due time, not 50. Request 3
        // leaves at 550: 300. Request 4 (due 700) finds the queue empty again.
        assert_eq!(run.from_due_ns, vec![50, 400, 350, 300, 50]);
        assert_eq!(run.on_time, 2);
        assert_eq!(run.due, 5);
        // The generator slept only before requests 1 and 4: the wait of 2
        // and 3 is the system's, not the scheduler's.
        assert_eq!(run.gen_late_ns, vec![0, 0]);
    }

    #[test]
    fn requests_still_unsent_when_the_loop_gives_up_miss() {
        let schedule = [0u64, 10, 20, 30];
        let now = std::cell::Cell::new(0u64);
        let mut sent = 0;
        let run = drive_open_loop(&schedule, 5, 15, &mut FakeClock(&now), |_| {
            sent += 1;
            true
        });
        // Requests due at 0 and 10 go out; the one due at 20 is past 15.
        assert_eq!(sent, 2);
        assert_eq!(run.due, 4);
        assert_eq!(run.on_time, 2);
    }

    #[test]
    fn prediction_json_copy_round_trips_bits() {
        let p = Prediction {
            node: 7,
            logits: vec![0.1, -2.5e-8, 3.0],
            label: 2,
            cached: true,
            stale: false,
        };
        let parsed = json::parse(prediction_json(&p).as_bytes()).unwrap();
        let logits: Vec<u32> = parsed
            .get("logits")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| (v.as_num().unwrap() as f32).to_bits())
            .collect();
        assert_eq!(
            logits,
            p.logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
