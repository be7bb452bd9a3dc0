//! The `sigma-daemon` binary: load a snapshot, serve it, drain on stdin
//! EOF or SIGTERM-via-closed-stdin.
//!
//! ```text
//! sigma-daemon <snapshot-path> [--port N] [--workers N] [--shards N]
//!              [--window-us N] [--deadline-ms N] [--queue N] [--debug]
//! ```
//!
//! `--window-us` is the longest a `/v1/predict` waits behind a micro-batch
//! flush already in flight for its own batch to form (default 200); a
//! request that finds none in flight is served at once, and `0` means
//! never wait.
//!
//! The process serves until stdin reaches EOF (the conventional
//! supervisor-friendly shutdown signal for a process with no signal
//! handling of its own), then drains gracefully and exits 0.

use sigma_daemon::{Backend, Daemon, DaemonConfig};
use sigma_serve::{EngineConfig, InferenceEngine, MappedSnapshot, ShardRouter};
use std::io::Read;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: sigma-daemon <snapshot-path> [--port N] [--workers N] [--shards N] \
         [--window-us N] [--deadline-ms N] [--queue N] [--debug]\n  \
         --window-us N  longest a predict waits behind a flush in flight for its \
         micro-batch to form (default 200; 0 = never wait)"
    );
    std::process::exit(2);
}

fn parse_flag(args: &mut std::iter::Peekable<std::env::Args>, what: &str) -> usize {
    match args.next().map(|v| v.parse::<usize>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("sigma-daemon: {what} needs an integer argument");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args = std::env::args().peekable();
    let _argv0 = args.next();
    let mut snapshot_path: Option<String> = None;
    let mut config = DaemonConfig::default();
    let mut shards = 1usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => config.port = parse_flag(&mut args, "--port") as u16,
            "--workers" => config.workers = parse_flag(&mut args, "--workers"),
            "--shards" => shards = parse_flag(&mut args, "--shards"),
            "--window-us" => {
                config.micro_batch_window_us = parse_flag(&mut args, "--window-us") as u64
            }
            "--deadline-ms" => {
                config.default_deadline_ms = parse_flag(&mut args, "--deadline-ms") as u64
            }
            "--queue" => config.queue_capacity = parse_flag(&mut args, "--queue"),
            "--debug" => config.debug_endpoints = true,
            "--help" | "-h" => usage(),
            other if snapshot_path.is_none() && !other.starts_with('-') => {
                snapshot_path = Some(other.to_string())
            }
            other => {
                eprintln!("sigma-daemon: unknown argument {other}");
                usage();
            }
        }
    }
    let snapshot_path = snapshot_path.unwrap_or_else(|| usage());

    let backend = match build_backend(&snapshot_path, shards) {
        Ok(backend) => backend,
        Err(e) => {
            eprintln!("sigma-daemon: failed to load {snapshot_path}: {e}");
            std::process::exit(1);
        }
    };

    let daemon = match Daemon::start(backend, None, config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("sigma-daemon: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("sigma-daemon listening on http://{}", daemon.local_addr());

    // Block until the supervisor closes stdin, then drain.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    let report = daemon.shutdown();
    if report.drained_cleanly {
        eprintln!("sigma-daemon: drained cleanly");
    } else {
        eprintln!(
            "sigma-daemon: drain deadline hit; {} queued connection(s) answered 503",
            report.queued_rejected
        );
    }
}

fn build_backend(path: &str, shards: usize) -> Result<Backend, sigma_serve::ServeError> {
    let mapped = Arc::new(MappedSnapshot::open(path)?);
    let config = EngineConfig::default();
    if shards > 1 {
        let router = ShardRouter::from_mapped(vec![mapped; shards], config)?;
        return Ok(Backend::Router(Arc::new(router)));
    }
    let engine = InferenceEngine::from_mapped(mapped, config)?;
    Ok(Backend::Engine(Arc::new(engine)))
}
