//! Daemon-level metric families: one `metric_set!` table, so
//! [`crate::Daemon::stats`] counts with the `obs` feature off and the same
//! handles appear as `sigma_daemon_*` in the `GET /metrics` exposition the
//! daemon itself serves when it is on.

sigma_obs::metric_set! {
    /// Live daemon counters; snapshot with [`DaemonMetrics::snapshot`].
    pub struct DaemonMetrics;
    /// A torn-but-monotone snapshot of [`DaemonMetrics`] — same per-field
    /// guarantees as the engine's `EngineStats` (each field individually
    /// exact and monotone; no cross-field consistency while traffic is in
    /// flight).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DaemonStats {}
    counters {
        /// Connections accepted into the admission queue.
        connections_accepted: "sigma_daemon_connections_accepted_total",
            "connections admitted into the bounded queue";
        /// Connections refused with `429` because the queue was full.
        connections_shed: "sigma_daemon_connections_shed_total",
            "connections refused with 429 because the admission queue was full";
        /// Requests fully parsed off a connection.
        requests: "sigma_daemon_requests_total", "requests fully parsed off accepted connections";
        /// 2xx responses written.
        responses_2xx: "sigma_daemon_responses_2xx_total", "successful responses written";
        /// 4xx responses written.
        responses_4xx: "sigma_daemon_responses_4xx_total", "client-error responses written";
        /// 5xx responses written.
        responses_5xx: "sigma_daemon_responses_5xx_total", "server-error responses written";
        /// Requests shed with `504` because their deadline expired before
        /// any engine work was done.
        deadline_shed: "sigma_daemon_deadline_shed_total",
            "requests shed with 504 before any engine work";
        /// Requests shed with `429` at the micro-batch queue.
        batch_shed: "sigma_daemon_batch_shed_total",
            "requests shed with 429 at the micro-batch queue";
        /// Malformed requests rejected with a typed 4xx/5xx parse status.
        parse_rejects: "sigma_daemon_parse_rejects_total",
            "malformed requests rejected with a typed status";
        /// Slow-loris style read timeouts (`408` or silent close).
        read_timeouts: "sigma_daemon_read_timeouts_total",
            "socket reads that timed out mid-request (slow-loris defence)";
        /// Connection-handler panics contained (connection killed, process
        /// alive).
        handler_panics: "sigma_daemon_handler_panics_total",
            "connection-handler panics contained without killing the process";
        /// Single-node predicts that went through the micro-batcher.
        coalesced_predicts: "sigma_daemon_coalesced_predicts_total",
            "single-node predicts served through the micro-batcher";
        /// Micro-batch flushes (engine `predict_batch` calls made on behalf
        /// of coalesced predicts).
        batch_flushes: "sigma_daemon_batch_flushes_total",
            "micro-batch flushes (one engine predict_batch per flush)";
        /// Coalesced predicts served by a flush another request led
        /// (0 while nothing coalesces).
        batch_joins: "sigma_daemon_batch_joins_total",
            "coalesced predicts served by a flush another request led";
        /// Snapshot hot reloads served through `POST /v1/reload`.
        reloads: "sigma_daemon_reloads_total",
            "snapshot hot reloads served through POST /v1/reload";
    }
    gauges {
        /// Queued connections awaiting a worker (admission queue depth).
        queue_depth: "sigma_daemon_queue_depth", "connections waiting in the admission queue";
        /// Requests currently being served by workers.
        inflight: "sigma_daemon_inflight_requests", "requests currently being served";
    }
    histograms {
        /// End-to-end request wall time (parse → response flushed), ns.
        request_ns: "sigma_daemon_request_ns", "end-to-end request wall time in nanoseconds";
        /// Coalesced micro-batch sizes (1 = a predict that rode alone).
        batch_size: "sigma_daemon_batch_size", "coalesced micro-batch sizes";
        /// Submit → start of the flush that served it, ns (near zero for
        /// a predict that led its own flush).
        batch_wait_ns: "sigma_daemon_batch_wait_ns",
            "nanoseconds a coalesced predict waited for its flush to start";
    }
}

impl DaemonMetrics {
    /// Bumps the response-class counter for `status`.
    pub fn count_response(&self, status: u16) {
        match status / 100 {
            2 => self.responses_2xx.inc(),
            4 => self.responses_4xx.inc(),
            5 => self.responses_5xx.inc(),
            _ => {}
        }
    }
}
