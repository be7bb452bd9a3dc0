//! `sigma-daemon` — a fault-tolerant serving daemon over the SIGMA
//! inference engine.
//!
//! The daemon turns the in-process serving stack ([`sigma_serve`]'s
//! `InferenceEngine` and `ShardRouter`) into a long-running network
//! process speaking strict HTTP/1.1 on a `std::net::TcpListener` — no
//! network crates, no async runtime, just an acceptor thread, a bounded
//! admission queue, and a small worker pool.
//!
//! # Endpoints
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /v1/predict` | one node → logits (micro-batched) |
//! | `POST /v1/predict_batch` | many nodes → logits, request order |
//! | `POST /v1/similar` | top-k similar nodes off the operator row |
//! | `POST /v1/edges` | graph edits → staleness invalidations |
//! | `POST /v1/repair` | one incremental repair round |
//! | `POST /v1/reload` | hot snapshot swap (either backend) |
//! | `GET /v1/stats` | JSON counters (daemon + engine + registry) |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /healthz` | liveness + serving shape |
//!
//! # Robustness contract
//!
//! * **Deadlines** — `x-sigma-deadline-ms` (or the server default); expired
//!   requests are shed with `504` *before* any engine work.
//! * **Admission control** — a bounded connection queue; when full, new
//!   connections get `429` + `Retry-After` at the door.
//! * **Micro-batching** — single-node predicts that arrive while a flush is
//!   in flight coalesce into one row-sliced `predict_batch`; a lone predict
//!   waits for nobody (see [`batch`]).
//! * **Graceful drain** — [`Daemon::shutdown`] stops accepting, drains
//!   in-flight work within a deadline, then answers stragglers `503`.
//! * **Panic isolation** — a handler panic kills that connection only
//!   (`500` if still possible) and bumps a counter; the process lives.
//! * **Malformed-input hardening** — typed [`http::HttpError`]s, bounded
//!   lines/headers/bodies, socket read/write timeouts (slow-loris defence).
//!
//! Responses carry logits — and `/v1/similar` scores — through Rust's
//! shortest-roundtrip float formatting, which keeps the wire
//! bitwise-faithful to the engine — the e2e suite asserts equality against
//! in-process calls bit for bit.

#![deny(missing_docs)]

pub mod backend;
pub mod batch;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod status;

pub use backend::{Backend, RepairSummary};
pub use batch::{BatchFailure, BatchReply, MicroBatcher, SubmitError};
pub use http::{HttpError, HttpLimits, Request, Response};
pub use json::{Json, JsonError};
pub use metrics::{DaemonMetrics, DaemonStats};
pub use server::{Daemon, DaemonConfig, DaemonError, DrainReport};
pub use status::{kind_for, status_for, status_for_snapshot};
