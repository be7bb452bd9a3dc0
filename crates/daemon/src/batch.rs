//! Demand-driven micro-batching for single-node predicts.
//!
//! SIGMA's row-sliced kernel amortises per-call overhead across the rows of
//! one batch (`kernel_microopt`'s `spmm_rows` rows measure it), so concurrent
//! `POST /v1/predict` requests are worth coalescing — when there is something
//! to coalesce with. There is no batching thread and no timer: submitters
//! run the flushes, and a batch is whatever queued up behind the last one.
//!
//! * **Leader.** A submitter that finds no flush in flight takes the leader
//!   role, drains the front of the queue (its own entry included, up to
//!   `max_batch`) and makes that flush's **one** engine `predict_batch` call
//!   on its own thread — no hand-off, no wait. It drains again only while
//!   its own entry is still queued, then releases the role.
//! * **Follower.** A submitter that finds a flush in flight queues behind it
//!   and parks until a leader has drained its entry (the reply arrives on
//!   its channel when that flush completes), or the role is free and it is
//!   still queued (it leads; what queued behind the last flush is its
//!   batch), or it has waited `window` — then it flushes the front of the
//!   queue itself, beside the flush in flight. `window` is the most a
//!   request waits for a batch to form; `0` means never wait.
//!
//! Replies keep submission order. Robustness rules:
//!
//! * the pending queue is **bounded** — a full queue sheds the new arrival
//!   with [`SubmitError::Shed`] (`429` on the wire);
//! * entries whose deadline expired while queued are answered
//!   [`BatchFailure::Deadline`] (`504`) at flush time, *before* the engine
//!   sees them — a backlog buys no kernel time for abandoned requests;
//! * an engine error fails every request of that flush with the same
//!   shared cause (errors here are query-shaped, not state-shaped);
//! * the leader role is released by a drop guard: a flush that unwinds
//!   (the server contains handler panics) hangs up on the entries it had
//!   drained — `recv` fails at once, `503` on the wire — and the next
//!   queued follower leads.

use crate::backend::Backend;
use crate::metrics::DaemonMetrics;
use sigma_serve::{Prediction, ServeError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a coalesced predict did not produce a prediction.
#[derive(Debug, Clone)]
pub enum BatchFailure {
    /// The request's deadline expired while it waited in the queue.
    Deadline,
    /// The engine call serving this flush failed; the cause is shared by
    /// every request of the flush.
    Engine(Arc<ServeError>),
    /// The batcher stopped while the request was queued — the request was
    /// never served.
    Stopped,
}

/// The reply a waiting connection receives.
pub type BatchReply = Result<Prediction, BatchFailure>;

/// Why a submit was refused synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded pending queue is full — shed with `429`.
    Shed,
    /// The batcher has shut down.
    Stopped,
}

struct Pending {
    node: usize,
    deadline: Instant,
    submitted: Instant,
    ticket: u64,
    reply: mpsc::Sender<BatchReply>,
}

struct State {
    queue: VecDeque<Pending>,
    /// Entries taken off the queue so far. Tickets are issued in FIFO
    /// order, so this is the front's ticket, and an entry is still queued
    /// exactly when its ticket is not below it.
    drained_upto: u64,
    /// A leader's flush is in flight: new arrivals park behind it.
    leading: bool,
    stop: bool,
}

/// The engine call of one flush — [`Backend::predict_batch`] outside tests.
type EngineCall = Box<dyn Fn(&[usize]) -> Result<Vec<Prediction>, ServeError> + Send + Sync>;

/// The coalescing front end over a [`Backend`]; owned by the daemon, run by
/// the threads that submit to it.
pub struct MicroBatcher {
    state: Mutex<State>,
    /// Signalled whenever a flusher finishes, and at shutdown.
    moved: Condvar,
    engine: EngineCall,
    metrics: Arc<DaemonMetrics>,
    window: Duration,
    max_batch: usize,
    capacity: usize,
}

/// One submitter's turn at flushing. Dropping it — also when the flush
/// unwinds — frees the leader role if this turn took it and wakes the
/// parked followers, so none is left behind a role nobody holds.
struct Turn<'a> {
    batcher: &'a MicroBatcher,
    leads: bool,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        if self.leads {
            self.batcher.lock().leading = false;
        }
        self.batcher.moved.notify_all();
    }
}

impl MicroBatcher {
    /// Builds the batcher over `backend`. `window` is the longest a
    /// request waits behind a flush in flight for its batch to form;
    /// `max_batch` caps one flush; `capacity` bounds the pending queue.
    pub fn start(
        backend: Arc<Backend>,
        metrics: Arc<DaemonMetrics>,
        window: Duration,
        max_batch: usize,
        capacity: usize,
    ) -> Self {
        let engine = Box::new(move |nodes: &[usize]| backend.predict_batch(nodes));
        Self::over(engine, metrics, window, max_batch, capacity)
    }

    fn over(
        engine: EngineCall,
        metrics: Arc<DaemonMetrics>,
        window: Duration,
        max_batch: usize,
        capacity: usize,
    ) -> Self {
        Self {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                drained_upto: 0,
                leading: false,
                stop: false,
            }),
            moved: Condvar::new(),
            engine,
            metrics,
            window,
            max_batch,
            capacity,
        }
    }

    /// Nothing can panic while this lock is held, so a poisoned one still
    /// guards a valid queue — and refusing it would strand parked followers.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one node and returns once it has been drained into a flush
    /// — by this call itself whenever no other flush was in flight, and then
    /// the reply is already waiting. The returned receiver yields the
    /// prediction (or failure) when that flush completes.
    pub fn submit(
        &self,
        node: usize,
        deadline: Instant,
    ) -> Result<mpsc::Receiver<BatchReply>, SubmitError> {
        let (reply, rx) = mpsc::channel();
        let submitted = Instant::now();
        let mut state = self.lock();
        // `stop` lives under the queue lock: in the lock's total order a
        // submit either precedes `shutdown` — and is flushed or answered
        // `Stopped` by it — or follows it and is refused here.
        if state.stop {
            return Err(SubmitError::Stopped);
        }
        if state.queue.len() >= self.capacity {
            return Err(SubmitError::Shed);
        }
        let ticket = state.drained_upto + state.queue.len() as u64;
        state.queue.push_back(Pending {
            node,
            deadline,
            submitted,
            ticket,
            reply,
        });
        // Follower: a flush is in flight, and what queues up behind it is
        // the next batch. Wait for it to form, at most `window`.
        while state.leading && ticket >= state.drained_upto {
            let left = self.window.saturating_sub(submitted.elapsed());
            if left.is_zero() {
                break;
            }
            let waited = self.moved.wait_timeout(state, left);
            state = waited.unwrap_or_else(PoisonError::into_inner).0;
        }
        if ticket < state.drained_upto {
            return Ok(rx);
        }
        // Still queued: flush — as the leader if the role is free, beside
        // the leader if `window` ran out.
        let turn = Turn {
            batcher: self,
            leads: !state.leading,
        };
        state.leading = true;
        while ticket >= state.drained_upto {
            let take = state.queue.len().min(self.max_batch);
            let batch: Vec<Pending> = state.queue.drain(..take).collect();
            state.drained_upto += take as u64;
            drop(state);
            self.flush(batch, ticket);
            state = self.lock();
        }
        drop(state);
        drop(turn);
        Ok(rx)
    }

    /// Refuses every later submit and answers whatever is still queued
    /// [`BatchFailure::Stopped`]; a flush in flight completes. Idempotent
    /// and callable from any thread.
    pub fn shutdown(&self) {
        let mut state = self.lock();
        state.stop = true;
        state.drained_upto += state.queue.len() as u64;
        for pending in state.queue.drain(..) {
            let _ = pending.reply.send(Err(BatchFailure::Stopped));
        }
        self.moved.notify_all();
    }

    /// Serves one drained batch: expired entries are answered `Deadline`
    /// without engine work; the rest ride one engine call. `leader` is the
    /// flushing submitter's own ticket.
    fn flush(&self, batch: Vec<Pending>, leader: u64) {
        let now = Instant::now();
        let (live, expired): (Vec<Pending>, Vec<Pending>) =
            batch.into_iter().partition(|p| now < p.deadline);
        for pending in expired {
            self.metrics.deadline_shed.inc();
            let _ = pending.reply.send(Err(BatchFailure::Deadline));
        }
        if live.is_empty() {
            return;
        }
        let nodes: Vec<usize> = live.iter().map(|p| p.node).collect();
        self.metrics.batch_flushes.inc();
        self.metrics.coalesced_predicts.add(live.len() as u64);
        let joins = live.iter().filter(|p| p.ticket != leader).count() as u64;
        self.metrics.batch_joins.add(joins);
        if sigma_obs::ENABLED {
            self.metrics.batch_size.record(live.len() as u64);
            for pending in &live {
                let waited = now.saturating_duration_since(pending.submitted);
                self.metrics.batch_wait_ns.record(waited.as_nanos() as u64);
            }
        }
        match (self.engine)(&nodes).map_err(Arc::new) {
            Ok(predictions) => {
                for (pending, prediction) in live.into_iter().zip(predictions) {
                    let _ = pending.reply.send(Ok(prediction));
                }
            }
            Err(cause) => {
                for pending in live {
                    let _ = pending.reply.send(Err(BatchFailure::Engine(cause.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_serve::{EngineConfig, InferenceEngine};
    use sigma_testutil::{random_graph, serving_fixture};
    use std::sync::mpsc::RecvTimeoutError;

    fn backend() -> Arc<Backend> {
        let fixture = serving_fixture(&random_graph(12, 6, 7), 4, 7);
        let engine =
            InferenceEngine::new(&fixture.snapshot, EngineConfig::default()).expect("engine");
        Arc::new(Backend::Engine(Arc::new(engine)))
    }

    /// Regression for the shutdown race: `submit` once checked `stop`
    /// *before* taking the queue lock, so a push could land after the
    /// flusher observed an empty queue and exited — never flushed, its
    /// sender alive inside the queue, the waiting connection hung in
    /// `rx.recv()` forever. With the check under the lock, every accepted
    /// submit is answered and every refused one returns `Stopped`; this
    /// loops the race and fails by timeout (not deadlock) on the old code.
    #[test]
    fn submit_racing_shutdown_never_hangs() {
        let backend = backend();
        let metrics = Arc::new(DaemonMetrics::new());
        for _ in 0..2000 {
            let batcher =
                MicroBatcher::start(backend.clone(), metrics.clone(), Duration::ZERO, 8, 64);
            std::thread::scope(|s| {
                let b = &batcher;
                s.spawn(move || b.shutdown());
                match b.submit(0, Instant::now() + Duration::from_secs(5)) {
                    Ok(rx) => {
                        // Any reply is fine — a prediction, a deadline, or
                        // the terminal `Stopped`. Silence is the bug.
                        let _reply = rx
                            .recv_timeout(Duration::from_secs(5))
                            .expect("an accepted submit must be answered, not hang");
                    }
                    Err(SubmitError::Stopped) => {}
                    Err(SubmitError::Shed) => panic!("an empty queue cannot shed"),
                }
            });
        }
    }

    // ---- Schedule tests -------------------------------------------------
    //
    // The engine call is a rendezvous: every flush announces its nodes and
    // then blocks until the test says how it ends, so each test below walks
    // one exact interleaving. Nothing is asserted on elapsed time; `PATIENCE`
    // only turns a protocol bug into a failure instead of a hung suite, and
    // `FOREVER` is a window no follower outlasts.

    const PATIENCE: Duration = Duration::from_secs(10);
    const FOREVER: Duration = Duration::from_secs(3600);

    /// How a held flush ends.
    enum Then {
        Serve,
        Fail,
        Panic,
    }

    type Submitted = std::thread::Result<Result<mpsc::Receiver<BatchReply>, SubmitError>>;

    struct Rig {
        batcher: Arc<MicroBatcher>,
        metrics: Arc<DaemonMetrics>,
        entered: mpsc::Receiver<Vec<usize>>,
        then: mpsc::Sender<Then>,
    }

    /// A deadline nothing here outlives.
    fn far() -> Instant {
        Instant::now() + FOREVER
    }

    fn fake(node: usize) -> Prediction {
        Prediction {
            node,
            logits: vec![node as f32],
            label: 0,
            cached: false,
            stale: false,
        }
    }

    impl Rig {
        fn new(window: Duration, max_batch: usize, capacity: usize) -> Rig {
            let (entered_tx, entered) = mpsc::channel();
            let (then, then_rx) = mpsc::channel();
            let then_rx = Mutex::new(then_rx);
            let engine = Box::new(move |nodes: &[usize]| {
                entered_tx.send(nodes.to_vec()).expect("rig alive");
                let then = then_rx.lock().expect("rig lock").recv_timeout(PATIENCE);
                match then.expect("the test ends every flush it lets start") {
                    Then::Serve => Ok(nodes.iter().map(|&n| fake(n)).collect()),
                    Then::Fail => Err(ServeError::NoOperator),
                    Then::Panic => panic!("injected flush panic"),
                }
            });
            let metrics = Arc::new(DaemonMetrics::new());
            let batcher = MicroBatcher::over(engine, metrics.clone(), window, max_batch, capacity);
            Rig {
                batcher: Arc::new(batcher),
                metrics,
                entered,
                then,
            }
        }

        /// Submits on a thread of its own (a follower blocks in `submit`).
        fn submit(&self, node: usize) -> mpsc::Receiver<Submitted> {
            self.submit_due(node, far())
        }

        fn submit_due(&self, node: usize, deadline: Instant) -> mpsc::Receiver<Submitted> {
            let (tx, rx) = mpsc::channel();
            let batcher = self.batcher.clone();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    batcher.submit(node, deadline)
                }));
                let _ = tx.send(outcome);
            });
            rx
        }

        /// Submits a follower and returns once it is parked as the `n`th
        /// queued entry. (Push and park happen under one hold of the state
        /// lock, so seeing the entry queued is seeing its thread parked.)
        fn park(&self, node: usize, n: usize) -> mpsc::Receiver<Submitted> {
            self.park_due(node, far(), n)
        }

        fn park_due(&self, node: usize, deadline: Instant, n: usize) -> mpsc::Receiver<Submitted> {
            let rx = self.submit_due(node, deadline);
            let give_up = Instant::now() + PATIENCE;
            while self.batcher.lock().queue.len() != n {
                assert!(Instant::now() < give_up, "node {node} never queued");
                std::thread::yield_now();
            }
            rx
        }

        /// The nodes of the next flush to reach the engine.
        fn flush_entered(&self) -> Vec<usize> {
            self.entered
                .recv_timeout(PATIENCE)
                .expect("a flush reaches the engine")
        }

        fn end_flush(&self, then: Then) {
            self.then.send(then).expect("rig alive");
        }

        fn no_flush_pending(&self) {
            assert!(self.entered.try_recv().is_err(), "an unexpected flush ran");
        }
    }

    /// Waits for `submit` to return and for the one reply on its channel.
    fn reply_of(submitted: &mpsc::Receiver<Submitted>) -> BatchReply {
        let rx = submitted
            .recv_timeout(PATIENCE)
            .expect("submit returns")
            .expect("submit does not panic")
            .expect("submit is accepted");
        let reply = rx.recv_timeout(PATIENCE).expect("exactly one reply");
        assert!(rx.try_recv().is_err(), "a second reply arrived");
        reply
    }

    fn served(submitted: &mpsc::Receiver<Submitted>) -> usize {
        reply_of(submitted).expect("served").node
    }

    /// (1) Batching emerges from contention: what queues up behind a flush
    /// in flight is the next flush, whole and in submission order.
    #[test]
    fn followers_behind_a_held_leader_become_one_batch_in_submission_order() {
        let rig = Rig::new(FOREVER, 8, 16);
        let a = rig.submit(10);
        assert_eq!(rig.flush_entered(), [10], "a lone submit leads at once");
        let b = rig.park(11, 1);
        let c = rig.park(12, 2);
        let d = rig.park(13, 3);
        rig.end_flush(Then::Serve);
        assert_eq!(served(&a), 10);
        assert_eq!(rig.flush_entered(), [11, 12, 13]);
        rig.end_flush(Then::Serve);
        assert_eq!([served(&b), served(&c), served(&d)], [11, 12, 13]);
        rig.no_flush_pending();
        let stats = rig.metrics.snapshot();
        assert_eq!(stats.batch_flushes, 2);
        assert_eq!(stats.coalesced_predicts, 4);
        assert_eq!(
            stats.batch_joins, 2,
            "one of the three led the second flush"
        );
    }

    /// (2) An entry whose deadline passes while it is parked is answered
    /// `Deadline` at flush time and the engine never sees its node.
    #[test]
    fn deadline_expiring_behind_a_held_leader_is_shed_before_the_engine() {
        let rig = Rig::new(FOREVER, 8, 16);
        let a = rig.submit(10);
        assert_eq!(rig.flush_entered(), [10]);
        let soon = Instant::now() + Duration::from_millis(5);
        let b = rig.park_due(11, soon, 1);
        let c = rig.park(12, 2);
        while Instant::now() < soon {
            std::thread::yield_now();
        }
        rig.end_flush(Then::Serve);
        assert_eq!(served(&a), 10);
        assert_eq!(rig.flush_entered(), [12], "the expired node is not served");
        rig.end_flush(Then::Serve);
        assert!(matches!(reply_of(&b), Err(BatchFailure::Deadline)));
        assert_eq!(served(&c), 12);
        let stats = rig.metrics.snapshot();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.coalesced_predicts, 2);
    }

    /// (3) The parked queue is bounded: `capacity` followers fit, the next
    /// arrival is shed synchronously (429 `batch_queue_full` on the wire).
    #[test]
    fn a_full_queue_behind_a_held_leader_sheds_the_next_submit() {
        let rig = Rig::new(FOREVER, 8, 3);
        let a = rig.submit(10);
        assert_eq!(rig.flush_entered(), [10]);
        let parked: Vec<_> = (0..3).map(|i| rig.park(11 + i, i + 1)).collect();
        assert!(matches!(
            rig.batcher.submit(14, far()),
            Err(SubmitError::Shed)
        ));
        rig.end_flush(Then::Serve);
        assert_eq!(served(&a), 10);
        assert_eq!(rig.flush_entered(), [11, 12, 13]);
        rig.end_flush(Then::Serve);
        let nodes: Vec<usize> = parked.iter().map(served).collect();
        assert_eq!(nodes, [11, 12, 13]);
        // Room again once the queue has drained.
        let e = rig.submit(14);
        assert_eq!(rig.flush_entered(), [14]);
        rig.end_flush(Then::Serve);
        assert_eq!(served(&e), 14);
    }

    /// (4) Shutdown with a flush in flight and followers parked: every
    /// accepted submit gets exactly one reply, every later one is refused.
    #[test]
    fn shutdown_answers_parked_followers_and_lets_the_flush_in_flight_finish() {
        let rig = Rig::new(FOREVER, 8, 16);
        let a = rig.submit(10);
        assert_eq!(rig.flush_entered(), [10]);
        let b = rig.park(11, 1);
        let c = rig.park(12, 2);
        rig.batcher.shutdown();
        assert!(matches!(reply_of(&b), Err(BatchFailure::Stopped)));
        assert!(matches!(reply_of(&c), Err(BatchFailure::Stopped)));
        assert!(matches!(
            rig.batcher.submit(13, far()),
            Err(SubmitError::Stopped)
        ));
        rig.end_flush(Then::Serve);
        assert_eq!(served(&a), 10, "the flush in flight completes");
        assert!(matches!(
            rig.batcher.submit(14, far()),
            Err(SubmitError::Stopped)
        ));
        rig.batcher.shutdown();
        rig.no_flush_pending();
    }

    /// (5) A flush that unwinds releases the role: the entry it had drained
    /// beside the leader's own is hung up on at once, the follower parked
    /// behind it is promoted and served, and fresh submits keep working.
    #[test]
    fn a_panicking_flush_releases_the_role_and_the_next_follower_leads() {
        let rig = Rig::new(FOREVER, 8, 16);
        let a = rig.submit(10);
        assert_eq!(rig.flush_entered(), [10]);
        let b = rig.park(11, 1);
        let c = rig.park(12, 2);
        rig.end_flush(Then::Serve);
        assert_eq!(served(&a), 10);
        // Whichever of b / c woke first leads both; d parks behind them.
        assert_eq!(rig.flush_entered(), [11, 12]);
        let d = rig.park(13, 1);
        rig.end_flush(Then::Panic);
        let mut panicked = 0;
        for submitted in [&b, &c] {
            match submitted.recv_timeout(PATIENCE).expect("submit returns") {
                Err(_panic) => panicked += 1,
                Ok(accepted) => {
                    let rx = accepted.expect("the co-rider was accepted");
                    assert_eq!(
                        rx.recv_timeout(PATIENCE).err(),
                        Some(RecvTimeoutError::Disconnected),
                        "the co-rider is hung up on, not left waiting"
                    );
                }
            }
        }
        assert_eq!(panicked, 1, "only the leader's own call unwinds");
        assert_eq!(rig.flush_entered(), [13], "the parked follower is promoted");
        rig.end_flush(Then::Serve);
        assert_eq!(served(&d), 13);
        let e = rig.submit(14);
        assert_eq!(rig.flush_entered(), [14]);
        rig.end_flush(Then::Serve);
        assert_eq!(served(&e), 14);
    }

    /// (6) `window` is the most a follower waits: past it, it flushes the
    /// front of the queue itself while the leader's flush is still held —
    /// and a zero window never parks at all.
    #[test]
    fn a_follower_out_of_patience_flushes_beside_the_held_leader() {
        for window in [Duration::from_millis(2), Duration::ZERO] {
            let rig = Rig::new(window, 8, 16);
            let a = rig.submit(10);
            assert_eq!(rig.flush_entered(), [10]);
            let b = rig.submit(11);
            // `a`'s flush has not been ended, so this one runs beside it.
            assert_eq!(rig.flush_entered(), [11], "window {window:?}");
            rig.end_flush(Then::Serve);
            rig.end_flush(Then::Serve);
            assert_eq!([served(&a), served(&b)], [10, 11]);
            let stats = rig.metrics.snapshot();
            assert_eq!((stats.batch_flushes, stats.batch_joins), (2, 0));
        }
    }

    /// (7) An engine error fails exactly the entries of that flush, with
    /// one shared cause, and nobody before or after it.
    #[test]
    fn an_engine_error_fails_its_own_flush_with_one_shared_cause() {
        let rig = Rig::new(FOREVER, 8, 16);
        let a = rig.submit(10);
        assert_eq!(rig.flush_entered(), [10]);
        let b = rig.park(11, 1);
        let c = rig.park(12, 2);
        rig.end_flush(Then::Serve);
        assert_eq!(served(&a), 10);
        assert_eq!(rig.flush_entered(), [11, 12]);
        rig.end_flush(Then::Fail);
        match (reply_of(&b), reply_of(&c)) {
            (Err(BatchFailure::Engine(x)), Err(BatchFailure::Engine(y))) => {
                assert!(Arc::ptr_eq(&x, &y), "one cause, shared");
                assert!(matches!(*x, ServeError::NoOperator));
            }
            other => panic!("both entries of the failed flush fail: {other:?}"),
        }
        let d = rig.submit(13);
        assert_eq!(rig.flush_entered(), [13]);
        rig.end_flush(Then::Serve);
        assert_eq!(served(&d), 13);
    }

    /// A leader whose own entry sits beyond the first `max_batch` keeps
    /// draining, in order and back to back, until it has been served — and
    /// no further. The backlog is queued by hand: it is what a newcomer
    /// finds when it beats just-woken followers to the lock.
    #[test]
    fn a_leader_queued_beyond_max_batch_drains_in_order_until_served() {
        let rig = Rig::new(FOREVER, 2, 16);
        let backlog: Vec<_> = (11..=13)
            .map(|node| {
                let (reply, rx) = mpsc::channel();
                let mut state = rig.batcher.lock();
                let ticket = state.drained_upto + state.queue.len() as u64;
                state.queue.push_back(Pending {
                    node,
                    deadline: far(),
                    submitted: Instant::now(),
                    ticket,
                    reply,
                });
                rx
            })
            .collect();
        let d = rig.submit(14);
        assert_eq!(rig.flush_entered(), [11, 12]);
        let e = rig.park(15, 3);
        rig.end_flush(Then::Serve);
        assert_eq!(rig.flush_entered(), [13, 14]);
        rig.end_flush(Then::Serve);
        assert_eq!(served(&d), 14);
        let nodes: Vec<usize> = backlog
            .iter()
            .map(|rx| {
                rx.recv_timeout(PATIENCE)
                    .expect("reply")
                    .expect("served")
                    .node
            })
            .collect();
        assert_eq!(nodes, [11, 12, 13]);
        // What queued up behind is the next leader's, not this one's.
        assert_eq!(rig.flush_entered(), [15]);
        rig.end_flush(Then::Serve);
        assert_eq!(served(&e), 15);
        rig.no_flush_pending();
        let stats = rig.metrics.snapshot();
        assert_eq!((stats.batch_flushes, stats.batch_joins), (3, 3));
    }
}
