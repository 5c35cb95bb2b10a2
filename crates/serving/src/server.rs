//! The continuous-batching serving front-end — the crate's one front door.
//!
//! Requests arrive independently and the **server** forms the batches, the
//! way Orca-style continuous-batching systems do; the cross-request column
//! coalescing of the fused panel sweep is not bounded by any caller-side
//! batch:
//!
//! * [`Server::submit`] hands in one request and returns a [`Ticket`]
//!   immediately. Submission is non-blocking: a full bounded queue rejects
//!   with the typed [`SubmitError::QueueFull`] backpressure signal instead of
//!   blocking or buffering without bound. [`Server::submit_batch`] admits a
//!   whole batch atomically, so a zero-window server plans it in one
//!   admission round.
//! * A **dispatcher thread** holds an *admission window*
//!   ([`ServerConfig::admission_window_us`]): the first undispatched arrival
//!   opens the window, later arrivals join it, and when it closes everything
//!   queued is planned at once — same-layer, same-class requests are
//!   column-concatenated ([`shfl_core::matrix::DenseMatrix::concat_cols`])
//!   into shared fused executes (first-fit-decreasing under the width cap).
//!   A zero window dispatches whatever has accumulated immediately
//!   (opportunistic batching only).
//! * Ready groups are ordered by a pluggable [`QueuePolicy`] (FIFO, LPT,
//!   shortest-job-first, deadline-class SLO scheduling) and executed by a
//!   fixed worker pool over the server's [`ReplicaSet`].
//! * [`Ticket::wait`] blocks on a condvar until the response lands — no
//!   async runtime, consistent with the offline compatibility shims.
//!   [`Ticket::cancel`] (or just dropping the ticket) withdraws a request
//!   that has not been claimed for dispatch yet; the race against the
//!   dispatcher is resolved deterministically by the ticket slot's state
//!   machine: `cancel` returns `true` *iff* the request will never execute.
//! * [`Server::drain`] stops admission and waits until every outstanding
//!   ticket is delivered; [`Server::shutdown`] drains and joins the threads.
//!
//! ## Overload behavior
//!
//! Under saturation the server degrades by SLO class instead of degrading
//! everyone equally:
//!
//! * **Deadline admission bypass** — a deadline-class arrival whose absolute
//!   deadline lands before the admission window's scheduled close closes the
//!   window immediately ([`ServerStats::deadline_bypasses`]): tight
//!   deadlines never pay the coalescing tax.
//! * **Per-class queue bounds** ([`ServerConfig::with_class_queue_depth`]) —
//!   each SLO class can hold at most its own share of the bounded queue, so
//!   bulk backlog cannot starve deadline admission.
//! * **Bulk load-shedding** — when the queue is full, a latency-sensitive
//!   submission evicts the *oldest queued bulk* request (its ticket resolves
//!   with the typed [`ServingError::Shed`]), and a bulk submission that
//!   finds its bound full is itself rejected with [`SubmitError::Shed`].
//!   Only bulk-class work is ever shed.
//! * **Worker fault containment** — a panic while serving a group fails only
//!   that group's tickets with [`ServingError::WorkerPanic`]; the worker
//!   respawns and `drain()` still terminates. With the `chaos` feature, a
//!   scripted [`crate::chaos::FaultPlan`] drives these paths
//!   deterministically in the test suite.
//!
//! Per-completion latency records (queue wait, service time, end-to-end,
//! deadline verdict) are bucketed by [`SloKind`] in [`ServerStats`], which is
//! where the per-class p50/p95/p99 of the serving benchmark come from.
//!
//! ## Live weight updates
//!
//! [`Server::update_layer`] / [`Server::rollback_layer`] publish new weights
//! for a registered layer **while traffic keeps flowing**: the engine
//! side-builds and probe-validates the candidate version, then swaps the
//! layer's versioned slot atomically. Because the server makes exactly one
//! engine call per dispatched group, every request — and every coalesced
//! group — observes exactly one weight version end to end; in-flight groups
//! finish bit-identically on their `Arc`-held snapshot. A failed update (or
//! an update-path fault injected by the chaos plan) surfaces as a typed
//! [`UpdateError`] with the old version still serving; a panic at the swap
//! point is contained into the same typed error.
//!
//! ## Replicated serving
//!
//! Every server executes over a [`ReplicaSet`] of data-parallel engines:
//! [`Server::start`] wraps a lone engine in a single-replica set (routing,
//! stealing and hedging are degenerate with one replica), and
//! [`Server::start_replicated`] takes a set of many. Groups are routed to
//! each layer's consistent-hash home replica (plan caches stay warm), stolen
//! to a lighter replica under queue pressure, failed over with bounded
//! backoff when a replica dies, and optionally hedged for deadline-class
//! work about to miss. [`ServerStats::replicas`] carries the per-replica
//! health/failover plane, and [`Server::update_layer`] fans out to every
//! replica under a per-layer version barrier so no coalesced group ever
//! observes two replicas on different weight versions. See
//! [`crate::replica`] for the routing and health model.

use crate::engine::{ServingEngine, UpdateError, UpdateReport};
use crate::policy::{Fifo, GroupMeta, QueuePolicy};
use crate::replica::{ReplicaSet, ReplicaSetStats};
use crate::session::{DecodeModel, SessionHandle, SessionManager, SessionStats};
use crate::ServingError;
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::{SloClass, SloKind};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One serving request: a layer id and an activation operand of any width.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen request id, echoed in the [`Response`].
    pub id: u64,
    /// The registered layer the request addresses.
    pub layer: usize,
    /// Activation operand (`k × n`, `n` arbitrary).
    pub activations: DenseMatrix,
}

/// The outcome of one request.
#[derive(Debug)]
pub struct Response {
    /// The id of the request this responds to.
    pub id: u64,
    /// The layer output (`m × n`), or a typed serving error.
    pub result: Result<DenseMatrix, ServingError>,
    /// Wall-clock service time of the request in milliseconds (queue wait
    /// excluded; this is the execute latency on the worker).
    pub service_ms: f64,
    /// Modeled GPU time of the bucket launches the request mapped onto (µs);
    /// zero when the request failed.
    pub modeled_us: f64,
}

/// Configuration of a [`Server`] (the builder the roadmap's "make the cap a
/// knob" item asked for). Fields are public; the `with_*` methods chain.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing ready groups (minimum 1).
    pub workers: usize,
    /// Admission window in µs: how long the dispatcher holds the first
    /// undispatched arrival open for later arrivals to coalesce with. Zero
    /// dispatches immediately (whatever has already accumulated in the queue
    /// still batches together).
    pub admission_window_us: u64,
    /// Bound of the submission queue; a submit beyond it is rejected with
    /// [`SubmitError::QueueFull`] (the backpressure contract: the caller
    /// sheds or retries, the server never buffers without bound). When the
    /// total bound is hit by a latency-sensitive submission while bulk work
    /// is queued, the oldest queued bulk request is shed instead (see the
    /// module's *Overload behavior* notes).
    pub queue_depth: usize,
    /// Per-SLO-class queue bounds, indexed by [`SloKind::rank`]; `None`
    /// falls back to [`ServerConfig::queue_depth`]. A class at its bound
    /// rejects its own submissions ([`SubmitError::Shed`] for bulk,
    /// [`SubmitError::QueueFull`] for the rest) without consuming room the
    /// other classes still have.
    pub class_queue_depth: [Option<usize>; SloKind::COUNT],
    /// Whether same-layer, same-class requests coalesce into shared fused
    /// executes. Disabled, every request is its own dispatch unit.
    pub coalesce: bool,
    /// Width cap of a coalesced group, in activation columns. `None` uses
    /// each layer's `max_bucket` (the measured sweet spot on a small-cache
    /// box); a larger override lets big-L3 hosts trade activation re-reads
    /// for fewer panel sweeps — groups wider than the largest bucket are
    /// served by one fused multi-segment sweep.
    pub coalesce_cap: Option<usize>,
    /// Dispatch order of ready groups.
    pub policy: Arc<dyn QueuePolicy>,
    /// Bound on concurrently live decode sessions (minimum 1). At the bound,
    /// opening another session evicts the Bulk-class session with the most
    /// unconsumed tokens — or is rejected when no Bulk session is live (see
    /// [`Server::open_session`]).
    pub session_capacity: usize,
    /// Scripted fault schedule for chaos testing (`chaos` feature only):
    /// the server's submit and execute paths poll the plan and inject the
    /// scripted faults deterministically. Attach a fresh plan per server —
    /// the plan owns the sequence counters the schedule indexes.
    #[cfg(feature = "chaos")]
    pub fault_plan: Option<Arc<crate::chaos::FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            admission_window_us: 0,
            queue_depth: 1024,
            class_queue_depth: [None; SloKind::COUNT],
            coalesce: true,
            coalesce_cap: None,
            policy: Arc::new(Fifo),
            session_capacity: 64,
            #[cfg(feature = "chaos")]
            fault_plan: None,
        }
    }
}

impl ServerConfig {
    /// The default configuration: 4 workers, zero window, depth 1024,
    /// coalescing on at the per-layer `max_bucket` cap, FIFO order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission window in µs.
    pub fn with_admission_window_us(mut self, us: u64) -> Self {
        self.admission_window_us = us;
        self
    }

    /// Sets the submission-queue bound (clamped to ≥ 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Bounds one SLO class's share of the submission queue (clamped to
    /// ≥ 1). Classes without an explicit bound share the total
    /// [`ServerConfig::queue_depth`].
    pub fn with_class_queue_depth(mut self, kind: SloKind, depth: usize) -> Self {
        self.class_queue_depth[kind.rank() as usize] = Some(depth.max(1));
        self
    }

    /// The effective queue bound of one SLO class: its explicit bound, or
    /// the total queue depth when none was set.
    pub fn class_depth(&self, kind: SloKind) -> usize {
        self.class_queue_depth[kind.rank() as usize].unwrap_or(self.queue_depth)
    }

    /// Attaches a scripted fault schedule (`chaos` feature): the server's
    /// submit and execute paths poll the plan and inject its faults at the
    /// scripted sequence points.
    #[cfg(feature = "chaos")]
    pub fn with_fault_plan(mut self, plan: Arc<crate::chaos::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables or disables cross-request coalescing.
    pub fn with_coalesce(mut self, coalesce: bool) -> Self {
        self.coalesce = coalesce;
        self
    }

    /// Overrides the coalesced-group width cap (columns). Without an
    /// override the cap is each layer's largest bucket.
    pub fn with_coalesce_cap(mut self, cap: usize) -> Self {
        self.coalesce_cap = Some(cap.max(1));
        self
    }

    /// Sets the dispatch-order policy.
    pub fn with_policy(mut self, policy: Arc<dyn QueuePolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Bounds the number of concurrently live decode sessions (clamped to
    /// ≥ 1).
    pub fn with_session_capacity(mut self, capacity: usize) -> Self {
        self.session_capacity = capacity.max(1);
        self
    }

    /// The admission window as a [`Duration`].
    pub fn admission_window(&self) -> Duration {
        Duration::from_micros(self.admission_window_us)
    }
}

/// Typed backpressure: why a submission was rejected. Rejection is
/// synchronous and allocation-cheap — the request never entered the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full (`queue_depth` requests are
    /// already waiting for admission). Shed load or retry after a response.
    QueueFull {
        /// The configured queue bound that was hit.
        depth: usize,
    },
    /// The server is draining or shut down and accepts no new work.
    NotAccepting,
    /// A bulk-class submission was shed by overload protection: the queue
    /// (or the bulk class's own bound) is full, and bulk is the class that
    /// absorbs overload. Unlike [`SubmitError::QueueFull`] this is not a
    /// "retry soon" signal — the server is saturated and bulk work should
    /// back off. Only bulk-class submissions are ever shed.
    Shed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "submission queue is full ({depth} requests queued)")
            }
            SubmitError::NotAccepting => f.write_str("server is draining or shut down"),
            SubmitError::Shed => f.write_str("bulk submission shed by overload protection"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One completion record: how one request moved through the server.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// The submission's SLO class kind.
    pub kind: SloKind,
    /// Time from submission to the start of the executing group, ms.
    pub queue_ms: f64,
    /// Execute wall-clock of the (possibly shared) group, ms.
    pub service_ms: f64,
    /// End-to-end latency from submission to response delivery, ms.
    pub total_ms: f64,
    /// For deadline-class requests: whether the end-to-end latency met the
    /// submitted deadline budget. `None` for other classes.
    pub deadline_met: Option<bool>,
}

/// A snapshot of the server's counters and completion log.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests whose ticket has been fulfilled (including typed errors).
    pub completed: u64,
    /// Submissions rejected by backpressure: queue full, not accepting, or
    /// shed at the door (door-sheds are *also* counted in
    /// [`ServerStats::shed_submissions`]).
    pub rejected: u64,
    /// Bulk submissions rejected with [`SubmitError::Shed`] at the door
    /// (also counted in [`ServerStats::rejected`]).
    pub shed_submissions: u64,
    /// Queued bulk requests evicted (oldest first) to admit
    /// latency-sensitive work into a full queue; their tickets resolved with
    /// [`ServingError::Shed`](crate::ServingError::Shed).
    pub shed_queued: u64,
    /// Admitted requests withdrawn before dispatch — [`Ticket::cancel`] or a
    /// dropped ticket. They count toward [`ServerStats::completed`] (the
    /// drain accounting) but leave no completion record.
    pub cancelled: u64,
    /// Admission windows closed early because a queued deadline-class
    /// request's absolute deadline fell before the scheduled close.
    pub deadline_bypasses: u64,
    /// Group executes that panicked mid-service; each failed only its own
    /// group's tickets with
    /// [`ServingError::WorkerPanic`](crate::ServingError::WorkerPanic).
    pub worker_panics: u64,
    /// Worker threads respawned after a panic unwound them (the pool never
    /// shrinks below the configured size).
    pub worker_respawns: u64,
    /// Ready groups handed to the worker pool.
    pub dispatched_groups: u64,
    /// Dispatched groups that coalesced more than one request.
    pub coalesced_groups: u64,
    /// Requests served inside shared (coalesced) executes.
    pub coalesced_requests: u64,
    /// Per-completion records in completion order — the source of the
    /// per-class percentiles. A sliding window of the most recent
    /// completions (capped at 65536 records), so a long-lived server's
    /// stats stay bounded; the counters above remain exact forever.
    pub completions: Vec<Completion>,
    /// The replica tier's aggregate stats plane — per-replica health and
    /// load plus the set-wide failover/hedging/shedding counters (one
    /// replica for a server started with [`Server::start`]).
    pub replicas: ReplicaSetStats,
}

impl ServerStats {
    /// End-to-end latencies (ms) of the completions in `kind`'s class, in
    /// completion order.
    pub fn class_latencies_ms(&self, kind: SloKind) -> Vec<f64> {
        self.completions
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.total_ms)
            .collect()
    }

    /// Nearest-rank percentile of a class's end-to-end latency. `q` is
    /// clamped into `[0, 1]` (a NaN clamps to 0, the minimum); `None` when
    /// the class has no completions — an empty class is "no data", not
    /// "0 ms", and callers must not fold the two together.
    pub fn class_percentile_ms(&self, kind: SloKind, q: f64) -> Option<f64> {
        let mut sorted = self.class_latencies_ms(kind);
        if sorted.is_empty() {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Request ids in completion order (what the ordering tests assert on).
    pub fn completion_ids(&self) -> Vec<u64> {
        self.completions.iter().map(|c| c.id).collect()
    }

    /// Deadline-class completions that missed their submitted budget.
    pub fn deadline_misses(&self) -> u64 {
        self.completions
            .iter()
            .filter(|c| c.deadline_met == Some(false))
            .count() as u64
    }
}

/// The lifecycle of one ticket slot — the state machine that makes the
/// cancel-versus-dispatch race deterministic: the slot's mutex serialises
/// the transitions, so exactly one of [`Ticket::cancel`] (`Queued →
/// Cancelled`) and the dispatcher's claim (`Queued → Claimed`) wins.
#[derive(Debug, Default)]
enum SlotState {
    /// Admitted, not yet claimed for dispatch; cancellable.
    #[default]
    Queued,
    /// Claimed by the dispatcher: the request will execute (or be failed
    /// with a typed error); cancellation now returns `false`.
    Claimed,
    /// The response has been delivered and awaits the ticket.
    Done(Response),
    /// The response was taken by [`Ticket::wait`] / [`Ticket::try_take`].
    Taken,
    /// Withdrawn before dispatch; the request never executes and no
    /// response is ever delivered.
    Cancelled,
}

/// The write-once response slot a [`Ticket`] waits on.
#[derive(Debug, Default)]
struct TicketSlot {
    state: Mutex<SlotState>,
    done: Condvar,
}

impl TicketSlot {
    fn fulfil(&self, response: Response) {
        let mut state = self.state.lock().expect("ticket slot poisoned");
        debug_assert!(
            matches!(*state, SlotState::Queued | SlotState::Claimed),
            "a ticket is fulfilled exactly once and never after cancellation"
        );
        *state = SlotState::Done(response);
        self.done.notify_all();
    }

    /// Dispatcher-side claim: `Queued → Claimed` commits the request to
    /// execution. Returns `false` when the ticket was cancelled first — the
    /// pending entry must be discarded without executing.
    fn claim(&self) -> bool {
        let mut state = self.state.lock().expect("ticket slot poisoned");
        match *state {
            SlotState::Queued => {
                *state = SlotState::Claimed;
                true
            }
            SlotState::Cancelled => false,
            _ => unreachable!("a pending request is claimed at most once"),
        }
    }
}

/// The caller's handle to one submitted request. Obtained from
/// [`Server::submit`]; redeemed with [`Ticket::wait`], or withdrawn with
/// [`Ticket::cancel`] (dropping the ticket cancels implicitly — the
/// dispatcher discards abandoned requests at claim time).
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    class: SloClass,
    slot: Arc<TicketSlot>,
}

impl Ticket {
    /// The id of the submitted request (echoed in the [`Response`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The SLO class the request was submitted under.
    pub fn class(&self) -> SloClass {
        self.class
    }

    /// Blocks (thread/condvar, no async runtime) until the response is
    /// delivered and returns it. Every admitted request is eventually
    /// fulfilled — with its output, a typed [`ServingError`], or
    /// [`ServingError::ShutDown`] if the server was dropped without
    /// draining.
    pub fn wait(self) -> Response {
        let mut state = self.slot.state.lock().expect("ticket slot poisoned");
        loop {
            if matches!(*state, SlotState::Done(_)) {
                let SlotState::Done(response) = std::mem::replace(&mut *state, SlotState::Taken)
                else {
                    unreachable!("matched Done above");
                };
                return response;
            }
            state = self.slot.done.wait(state).expect("ticket slot poisoned");
        }
    }

    /// Bounded wait: blocks until the response is delivered or `timeout`
    /// elapses. On timeout the typed [`ServingError::WaitTimeout`] is
    /// returned and the ticket stays **live** — the request still executes
    /// (or resolves with its own error) and the response can be collected
    /// later with another `wait_timeout`, [`Ticket::wait`], or
    /// [`Ticket::try_take`].
    ///
    /// # Errors
    ///
    /// [`ServingError::WaitTimeout`] when the deadline passes first.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Response, ServingError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().expect("ticket slot poisoned");
        loop {
            if matches!(*state, SlotState::Done(_)) {
                let SlotState::Done(response) = std::mem::replace(&mut *state, SlotState::Taken)
                else {
                    unreachable!("matched Done above");
                };
                return Ok(response);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServingError::WaitTimeout);
            }
            let (guard, _) = self
                .slot
                .done
                .wait_timeout(state, deadline - now)
                .expect("ticket slot poisoned");
            state = guard;
        }
    }

    /// Non-blocking probe: takes the response if it has already been
    /// delivered.
    pub fn try_take(&self) -> Option<Response> {
        let mut state = self.slot.state.lock().expect("ticket slot poisoned");
        if matches!(*state, SlotState::Done(_)) {
            let SlotState::Done(response) = std::mem::replace(&mut *state, SlotState::Taken) else {
                unreachable!("matched Done above");
            };
            Some(response)
        } else {
            None
        }
    }

    /// Withdraws the request if it has not been claimed for dispatch yet.
    ///
    /// Returns `true` *iff* the request will never execute: the queued entry
    /// is discarded at the dispatcher's next claim pass and no response is
    /// delivered. Returns `false` when the dispatcher claimed the request
    /// first (it will execute — or already has — and its response is simply
    /// dropped with this ticket). The race against dispatch is resolved
    /// deterministically by the slot's internal state machine; there is no
    /// window where `cancel` returns `true` but the request still runs.
    pub fn cancel(self) -> bool {
        let mut state = self.slot.state.lock().expect("ticket slot poisoned");
        if matches!(*state, SlotState::Queued) {
            *state = SlotState::Cancelled;
            true
        } else {
            false
        }
    }
}

/// One admitted, not-yet-executed request.
struct Pending {
    request: Request,
    class: SloClass,
    seq: u64,
    submitted_at: Instant,
    slot: Arc<TicketSlot>,
}

/// Whether the server accepts new submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    Open,
    Draining,
    Stopped,
}

struct SubmitQueue {
    pending: VecDeque<Pending>,
    gate: Gate,
    next_seq: u64,
    /// Queued requests per SLO kind, indexed by [`SloKind::rank`] — the
    /// per-class bound and shed decisions are O(1) per submit.
    class_counts: [usize; SloKind::COUNT],
}

/// A planned dispatch unit: one request, or a same-layer same-class group
/// served by one coalesced execute.
struct ReadyGroup {
    meta: GroupMeta,
    members: Vec<Pending>,
}

struct ReadyQueue {
    /// Kept sorted by the configured [`QueuePolicy`]; workers pop the front.
    groups: VecDeque<ReadyGroup>,
    /// The dispatcher has exited; workers drain the queue and stop.
    done: bool,
}

/// Whether the dispatcher should keep waiting before planning the next
/// admission round (see [`ServerCore::dispatch_loop`]'s ready-drain wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainWait {
    Proceed,
    Stopped,
}

/// Upper bound of the retained completion log. The counters stay exact for
/// the server's whole lifetime; the per-completion records (the percentile
/// source) are a sliding window of the most recent completions, so a
/// long-lived server does not grow without bound (~80 B per record ⇒ ~5 MB
/// at the cap).
const COMPLETION_LOG_CAP: usize = 1 << 16;

#[derive(Default)]
struct Recorder {
    submitted: u64,
    completed: u64,
    rejected: u64,
    shed_submissions: u64,
    shed_queued: u64,
    cancelled: u64,
    deadline_bypasses: u64,
    worker_panics: u64,
    worker_respawns: u64,
    dispatched_groups: u64,
    coalesced_groups: u64,
    coalesced_requests: u64,
    completions: VecDeque<Completion>,
}

impl Recorder {
    /// Counts one delivered response and appends its record to the sliding
    /// completion window.
    fn record_completion(&mut self, completion: Completion) {
        if self.completions.len() == COMPLETION_LOG_CAP {
            self.completions.pop_front();
        }
        self.completions.push_back(completion);
        self.completed += 1;
    }
}

/// The shared state of one server: the replica set it executes on, the
/// submission queue, the ready queue and the stats. Shared (`Arc`) between
/// [`Server`] and its dispatcher and worker threads.
struct ServerCore {
    cfg: ServerConfig,
    replicas: ReplicaSet,
    started_at: Instant,
    queue: Mutex<SubmitQueue>,
    queue_cv: Condvar,
    ready: Mutex<ReadyQueue>,
    ready_cv: Condvar,
    /// Signalled by workers when the ready queue runs dry (and by `stop`):
    /// the dispatcher's iteration-level pacing waits on it.
    ready_drained_cv: Condvar,
    /// Set by [`ServerCore::stop`] so waits that are not guarded by the
    /// queue's gate (the ready-drain wait) terminate.
    stopping: std::sync::atomic::AtomicBool,
    recorder: Mutex<Recorder>,
    idle_cv: Condvar,
}

impl ServerCore {
    fn new(cfg: ServerConfig, replicas: ReplicaSet) -> Self {
        ServerCore {
            cfg,
            replicas,
            started_at: Instant::now(),
            queue: Mutex::new(SubmitQueue {
                pending: VecDeque::new(),
                gate: Gate::Open,
                next_seq: 0,
                class_counts: [0; SloKind::COUNT],
            }),
            queue_cv: Condvar::new(),
            ready: Mutex::new(ReadyQueue {
                groups: VecDeque::new(),
                done: false,
            }),
            ready_cv: Condvar::new(),
            ready_drained_cv: Condvar::new(),
            stopping: std::sync::atomic::AtomicBool::new(false),
            recorder: Mutex::new(Recorder::default()),
            idle_cv: Condvar::new(),
        }
    }

    fn make_ticket(request: &Request, class: SloClass) -> (Ticket, Arc<TicketSlot>) {
        let slot = Arc::new(TicketSlot::default());
        (
            Ticket {
                id: request.id,
                class,
                slot: Arc::clone(&slot),
            },
            slot,
        )
    }

    /// Sheds the oldest queued bulk-class request to make room in a full
    /// queue for a latency-sensitive submission. Called with the queue lock
    /// held; returns whether a victim was found and evicted.
    fn shed_oldest_bulk(&self, q: &mut SubmitQueue) -> bool {
        let Some(pos) = q
            .pending
            .iter()
            .position(|p| p.class.kind() == SloKind::Bulk)
        else {
            return false;
        };
        let victim = q.pending.remove(pos).expect("position found above");
        q.class_counts[SloKind::Bulk.rank() as usize] -= 1;
        // Deterministic against cancellation: claiming the slot decides
        // whether the victim still has an observer. An already-cancelled or
        // abandoned victim just counts as cancelled.
        let live = Arc::strong_count(&victim.slot) > 1 && victim.slot.claim();
        if live {
            victim.slot.fulfil(Response {
                id: victim.request.id,
                result: Err(ServingError::Shed),
                service_ms: 0.0,
                modeled_us: 0.0,
            });
        }
        let mut rec = self.recorder.lock().expect("recorder poisoned");
        if live {
            rec.shed_queued += 1;
        } else {
            rec.cancelled += 1;
        }
        rec.completed += 1;
        drop(rec);
        self.idle_cv.notify_all();
        true
    }

    /// Admits one request (non-blocking; typed rejection on backpressure).
    fn submit(&self, request: Request, class: SloClass) -> Result<Ticket, SubmitError> {
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.cfg.fault_plan {
            if plan.poll_submit() {
                self.recorder.lock().expect("recorder poisoned").rejected += 1;
                return Err(SubmitError::QueueFull {
                    depth: self.cfg.queue_depth,
                });
            }
        }
        let kind = class.kind();
        let rank = kind.rank() as usize;
        let mut q = self.queue.lock().expect("submit queue poisoned");
        if q.gate != Gate::Open {
            drop(q);
            self.recorder.lock().expect("recorder poisoned").rejected += 1;
            return Err(SubmitError::NotAccepting);
        }
        // Per-class bound first: a class at its own bound rejects without
        // looking at (or shedding from) the shared queue.
        if q.class_counts[rank] >= self.cfg.class_depth(kind) {
            drop(q);
            let mut rec = self.recorder.lock().expect("recorder poisoned");
            rec.rejected += 1;
            return Err(if kind == SloKind::Bulk {
                rec.shed_submissions += 1;
                SubmitError::Shed
            } else {
                SubmitError::QueueFull {
                    depth: self.cfg.class_depth(kind),
                }
            });
        }
        if q.pending.len() >= self.cfg.queue_depth {
            // The shared queue is full. Latency-sensitive work evicts the
            // oldest queued bulk request; bulk work is shed at the door; a
            // latency-sensitive submission with no bulk to evict gets the
            // retryable QueueFull.
            let made_room = kind != SloKind::Bulk && self.shed_oldest_bulk(&mut q);
            if !made_room {
                drop(q);
                let mut rec = self.recorder.lock().expect("recorder poisoned");
                rec.rejected += 1;
                return Err(if kind == SloKind::Bulk {
                    rec.shed_submissions += 1;
                    SubmitError::Shed
                } else {
                    SubmitError::QueueFull {
                        depth: self.cfg.queue_depth,
                    }
                });
            }
        }
        let (ticket, slot) = Self::make_ticket(&request, class);
        let seq = q.next_seq;
        q.next_seq += 1;
        q.pending.push_back(Pending {
            request,
            class,
            seq,
            submitted_at: Instant::now(),
            slot,
        });
        q.class_counts[rank] += 1;
        // `submitted` is incremented while the queue lock is held so
        // `completed` can never race ahead of it (drain's idle condition).
        self.recorder.lock().expect("recorder poisoned").submitted += 1;
        drop(q);
        self.queue_cv.notify_all();
        Ok(ticket)
    }

    /// Admits a whole batch atomically: either every request is queued (the
    /// dispatcher cannot observe a partial batch) or none is. Batches never
    /// shed queued work to make room — a batch that does not fit (total
    /// bound or its class's bound) is rejected whole.
    fn submit_batch(
        &self,
        requests: Vec<Request>,
        class: SloClass,
    ) -> Result<Vec<Ticket>, SubmitError> {
        let rank = class.kind().rank() as usize;
        let mut q = self.queue.lock().expect("submit queue poisoned");
        if q.gate != Gate::Open {
            drop(q);
            self.recorder.lock().expect("recorder poisoned").rejected += requests.len() as u64;
            return Err(SubmitError::NotAccepting);
        }
        if q.pending.len() + requests.len() > self.cfg.queue_depth
            || q.class_counts[rank] + requests.len() > self.cfg.class_depth(class.kind())
        {
            drop(q);
            self.recorder.lock().expect("recorder poisoned").rejected += requests.len() as u64;
            return Err(SubmitError::QueueFull {
                depth: self.cfg.queue_depth,
            });
        }
        let now = Instant::now();
        let mut tickets = Vec::with_capacity(requests.len());
        for request in requests {
            let (ticket, slot) = Self::make_ticket(&request, class);
            let seq = q.next_seq;
            q.next_seq += 1;
            q.pending.push_back(Pending {
                request,
                class,
                seq,
                submitted_at: now,
                slot,
            });
            q.class_counts[rank] += 1;
            tickets.push(ticket);
        }
        self.recorder.lock().expect("recorder poisoned").submitted += tickets.len() as u64;
        drop(q);
        self.queue_cv.notify_all();
        Ok(tickets)
    }

    /// Stops admission and blocks until every admitted request has been
    /// fulfilled.
    ///
    /// Closing the gate and snapshotting the outstanding work happen in one
    /// combined critical section (queue lock, then recorder lock — the same
    /// order `submit` uses): a concurrent `submit` either completed before
    /// the gate closed (its ticket is covered by the `completed ==
    /// submitted` wait below) or observes `Draining` and is rejected with
    /// [`SubmitError::NotAccepting`]. There is no interleaving in which a
    /// ticket is accepted but the drain returns without it being delivered.
    fn drain(&self) {
        let mut rec = {
            let mut q = self.queue.lock().expect("submit queue poisoned");
            if q.gate == Gate::Open {
                q.gate = Gate::Draining;
            }
            self.recorder.lock().expect("recorder poisoned")
            // queue lock released here, after the recorder is held
        };
        self.queue_cv.notify_all();
        while rec.completed < rec.submitted {
            rec = self.idle_cv.wait(rec).expect("recorder poisoned");
        }
    }

    /// Stops the server: admission closes, still-queued requests are failed
    /// with [`ServingError::ShutDown`], dispatched work finishes, threads
    /// exit. Call [`ServerCore::drain`] first for a graceful stop.
    fn stop(&self) {
        self.stopping
            .store(true, std::sync::atomic::Ordering::SeqCst);
        {
            let mut q = self.queue.lock().expect("submit queue poisoned");
            q.gate = Gate::Stopped;
        }
        self.queue_cv.notify_all();
        // Wake a dispatcher parked in the ready-drain wait (lock the ready
        // mutex first so the flag store cannot race past a sleeping waiter).
        drop(self.ready.lock().expect("ready queue poisoned"));
        self.ready_drained_cv.notify_all();
    }

    fn stats(&self) -> ServerStats {
        // Snapshot the replica plane first, outside the recorder lock the
        // workers record completions under.
        let replicas = self.replicas.stats();
        let rec = self.recorder.lock().expect("recorder poisoned");
        ServerStats {
            submitted: rec.submitted,
            completed: rec.completed,
            rejected: rec.rejected,
            shed_submissions: rec.shed_submissions,
            shed_queued: rec.shed_queued,
            cancelled: rec.cancelled,
            deadline_bypasses: rec.deadline_bypasses,
            worker_panics: rec.worker_panics,
            worker_respawns: rec.worker_respawns,
            dispatched_groups: rec.dispatched_groups,
            coalesced_groups: rec.coalesced_groups,
            coalesced_requests: rec.coalesced_requests,
            completions: rec.completions.iter().cloned().collect(),
            replicas,
        }
    }

    /// Iteration-level pacing: before planning an admission round, wait
    /// until the workers have drained the previous round's ready groups (or
    /// the server is stopping). Without this, a dispatcher that is faster
    /// than the worker pool — always, since planning is µs and executes are
    /// ms — would plan each arrival into its own group the moment its window
    /// expired, and a saturated server would never coalesce; with it, work
    /// admitted while the workers are busy accumulates in the submission
    /// queue and the next round batches it together, which is exactly the
    /// continuous-batching behaviour (the busier the server, the wider the
    /// groups).
    fn wait_ready_drained(&self) -> DrainWait {
        let mut ready = self.ready.lock().expect("ready queue poisoned");
        loop {
            if self.stopping.load(std::sync::atomic::Ordering::SeqCst) {
                return DrainWait::Stopped;
            }
            if ready.groups.is_empty() {
                return DrainWait::Proceed;
            }
            ready = self
                .ready_drained_cv
                .wait(ready)
                .expect("ready queue poisoned");
        }
    }

    /// The dispatcher: waits for arrivals, holds the admission window,
    /// plans ready groups, and pushes them policy-ordered for the workers.
    fn dispatch_loop(&self) {
        let window = self.cfg.admission_window();
        loop {
            // Phase 1: wait for an arrival and hold its admission window.
            let mut stopped = {
                let mut q = self.queue.lock().expect("submit queue poisoned");
                loop {
                    if q.gate == Gate::Stopped {
                        break true;
                    }
                    if q.pending.is_empty() {
                        q = self.queue_cv.wait(q).expect("submit queue poisoned");
                        continue;
                    }
                    // The oldest undispatched arrival opened the admission
                    // window; dispatch when it closes (or immediately while
                    // draining — latency is all that matters then).
                    if q.gate == Gate::Open && !window.is_zero() {
                        let opened = q.pending.front().expect("non-empty").submitted_at;
                        let close_at = opened + window;
                        // Deadline admission bypass: a queued deadline-class
                        // request whose absolute deadline falls before the
                        // scheduled close cannot afford the rest of the
                        // window — close it now. Checked on every wake, so a
                        // tight-deadline arrival joining a held window
                        // triggers the bypass immediately.
                        let urgent = q.pending.iter().any(|p| {
                            p.class.deadline_us().is_some_and(|budget| {
                                p.submitted_at + Duration::from_micros(budget) < close_at
                            })
                        });
                        if urgent {
                            self.recorder
                                .lock()
                                .expect("recorder poisoned")
                                .deadline_bypasses += 1;
                            break false;
                        }
                        let now = Instant::now();
                        if now < close_at {
                            let (guard, _) = self
                                .queue_cv
                                .wait_timeout(q, close_at - now)
                                .expect("submit queue poisoned");
                            q = guard;
                            continue;
                        }
                    }
                    break false;
                }
            };
            // Phase 2: iteration-level pacing — let the workers drain the
            // previous round first, so everything that arrives meanwhile
            // joins this round's groups.
            stopped = stopped || self.wait_ready_drained() == DrainWait::Stopped;
            // Phase 3: take everything queued by now as one admission round.
            let (batch, stopped_late) = {
                let mut q = self.queue.lock().expect("submit queue poisoned");
                let batch: Vec<Pending> = q.pending.drain(..).collect();
                q.class_counts = [0; SloKind::COUNT];
                (batch, q.gate == Gate::Stopped)
            };
            if stopped || stopped_late {
                self.fail_pending(batch);
                break;
            }
            // Claim pass: commit each pending request to execution, or
            // discard it if its ticket was cancelled or dropped. This is
            // the deterministic resolution point of the cancel-vs-dispatch
            // race — from here on `Ticket::cancel` returns `false`.
            let batch = self.claim_batch(batch);
            if batch.is_empty() {
                continue;
            }
            let groups = self.plan_groups(batch);
            {
                let mut rec = self.recorder.lock().expect("recorder poisoned");
                rec.dispatched_groups += groups.len() as u64;
                for group in &groups {
                    if group.members.len() > 1 {
                        rec.coalesced_groups += 1;
                        rec.coalesced_requests += group.members.len() as u64;
                    }
                }
            }
            {
                let mut ready = self.ready.lock().expect("ready queue poisoned");
                ready.groups.extend(groups);
                let policy = Arc::clone(&self.cfg.policy);
                ready
                    .groups
                    .make_contiguous()
                    .sort_by(|a, b| policy.compare(&a.meta, &b.meta));
            }
            self.ready_cv.notify_all();
        }
        {
            let mut ready = self.ready.lock().expect("ready queue poisoned");
            ready.done = true;
        }
        self.ready_cv.notify_all();
    }

    /// Claims an admission round's requests for execution, discarding the
    /// cancelled and abandoned ones (ticket dropped: the server holds the
    /// only slot reference). Discarded requests count toward `completed` —
    /// they were admitted, so drain's idle condition must account for them —
    /// but leave no completion record.
    fn claim_batch(&self, batch: Vec<Pending>) -> Vec<Pending> {
        let mut live = Vec::with_capacity(batch.len());
        let mut discarded = 0u64;
        for pending in batch {
            let abandoned = Arc::strong_count(&pending.slot) == 1;
            if !abandoned && pending.slot.claim() {
                live.push(pending);
            } else {
                discarded += 1;
            }
        }
        if discarded > 0 {
            {
                let mut rec = self.recorder.lock().expect("recorder poisoned");
                rec.cancelled += discarded;
                rec.completed += discarded;
            }
            self.idle_cv.notify_all();
        }
        live
    }

    /// Fails still-queued requests on a non-drained stop so every ticket
    /// resolves. Tickets are fulfilled **before** `completed` advances —
    /// `drain` treats `completed == submitted` as "every ticket delivered",
    /// so counting first would let a drain return while responses are still
    /// in flight.
    fn fail_pending(&self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let count = batch.len() as u64;
        let mut discarded = 0u64;
        for pending in batch {
            // Cancelled or abandoned requests cannot be fulfilled (their
            // slot already left the Queued state, or nobody is listening).
            let abandoned = Arc::strong_count(&pending.slot) == 1;
            if !abandoned && pending.slot.claim() {
                pending.slot.fulfil(Response {
                    id: pending.request.id,
                    result: Err(ServingError::ShutDown),
                    service_ms: 0.0,
                    modeled_us: 0.0,
                });
            } else {
                discarded += 1;
            }
        }
        {
            let mut rec = self.recorder.lock().expect("recorder poisoned");
            rec.completed += count;
            rec.cancelled += discarded;
        }
        self.idle_cv.notify_all();
    }

    /// Turns one admission batch into ready groups: singles when coalescing
    /// is off or a request is malformed (it surfaces its own typed error);
    /// otherwise same-layer, same-class requests packed first-fit-decreasing
    /// under the width cap ([`ServerConfig::coalesce_cap`], default the
    /// layer's largest bucket — groups wider than the largest bucket are
    /// legal and run as one fused multi-segment sweep).
    fn plan_groups(&self, batch: Vec<Pending>) -> Vec<ReadyGroup> {
        let engine = self.replicas.primary();
        if !self.cfg.coalesce {
            return batch
                .into_iter()
                .map(|p| self.make_group(vec![p]))
                .collect();
        }
        let mut invalid = Vec::new();
        let mut by_key: Vec<((usize, SloKind), Vec<Pending>)> = Vec::new();
        for pending in batch {
            let valid = engine
                .layer_k(pending.request.layer)
                .is_ok_and(|k| pending.request.activations.rows() == k);
            if !valid {
                invalid.push(pending);
                continue;
            }
            let key = (pending.request.layer, pending.class.kind());
            match by_key.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(pending),
                None => by_key.push((key, vec![pending])),
            }
        }
        let mut groups = Vec::new();
        for ((layer, _), mut members) in by_key {
            let cap = self
                .cfg
                .coalesce_cap
                .unwrap_or_else(|| {
                    engine
                        .layer_policy(layer)
                        .expect("validated layer")
                        .max_bucket()
                })
                .max(1);
            // First-fit-decreasing: widest requests open chunks, narrower
            // ones fill the gaps up to the cap.
            members.sort_by_key(|p| std::cmp::Reverse(p.request.activations.cols()));
            let mut chunks: Vec<(usize, Vec<Pending>)> = Vec::new();
            for pending in members {
                let width = pending.request.activations.cols();
                match chunks.iter_mut().find(|(total, _)| *total + width <= cap) {
                    Some((total, chunk)) => {
                        *total += width;
                        chunk.push(pending);
                    }
                    None => chunks.push((width, vec![pending])),
                }
            }
            groups.extend(chunks.into_iter().map(|(_, chunk)| self.make_group(chunk)));
        }
        // Malformed requests error out without compute; they ride along as
        // singles with zero estimated cost.
        groups.extend(invalid.into_iter().map(|p| self.make_group(vec![p])));
        groups
    }

    fn make_group(&self, members: Vec<Pending>) -> ReadyGroup {
        let engine = self.replicas.primary();
        debug_assert!(!members.is_empty());
        let layer = members[0].request.layer;
        let kind = members[0].class.kind();
        let arrival_seq = members.iter().map(|p| p.seq).min().unwrap_or(0);
        let due_us = members
            .iter()
            .filter_map(|p| {
                p.class.deadline_us().map(|budget| {
                    p.submitted_at.duration_since(self.started_at).as_micros() as u64 + budget
                })
            })
            .min();
        let columns: usize = members.iter().map(|p| p.request.activations.cols()).sum();
        let per_column = 2u128
            * engine.layer_m(layer).unwrap_or(0) as u128
            * engine.layer_k(layer).unwrap_or(0) as u128;
        let requests = members.len();
        ReadyGroup {
            meta: GroupMeta {
                layer,
                kind,
                arrival_seq,
                due_us,
                est_flops: per_column * columns as u128,
                columns,
                requests,
            },
            members,
        }
    }

    /// One worker: pops policy-ordered ready groups and executes them until
    /// the dispatcher has exited and the queue is dry.
    fn worker_loop(&self) {
        loop {
            let group = {
                let mut ready = self.ready.lock().expect("ready queue poisoned");
                loop {
                    if let Some(group) = ready.groups.pop_front() {
                        if ready.groups.is_empty() {
                            // The round is drained: wake the dispatcher's
                            // iteration-level pacing wait.
                            self.ready_drained_cv.notify_all();
                        }
                        break group;
                    }
                    if ready.done {
                        return;
                    }
                    ready = self.ready_cv.wait(ready).expect("ready queue poisoned");
                }
            };
            self.execute_group(group);
        }
    }

    /// Executes one ready group and fulfils its tickets. A singleton runs
    /// straight through the engine; a coalesced group column-concatenates
    /// its operands, executes once, and scatters the output columns back —
    /// bit-identical to individual service because every output column of an
    /// SpMM depends only on its own activation column.
    ///
    /// A panic during service is contained: only this group's tickets fail
    /// (with the typed [`ServingError::WorkerPanic`]), `completed` still
    /// advances so `drain()` terminates, and the panic is then re-raised so
    /// the worker supervisor ([`ServerCore::worker_entry`]) respawns the
    /// thread. No lock is held across the engine call, so the unwind cannot
    /// poison the server's mutexes.
    fn execute_group(&self, group: ReadyGroup) {
        let ReadyGroup { meta, members } = group;
        let exec_start = Instant::now();
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.compute_responses(&meta, &members, exec_start)
        }));
        let responses = match computed {
            Ok(responses) => responses,
            Err(payload) => {
                let context = panic_message(payload.as_ref());
                let service_ms = exec_start.elapsed().as_secs_f64() * 1e3;
                // Fail only this group's tickets, keep the drain accounting
                // exact, then hand the panic to the worker supervisor.
                for pending in &members {
                    pending.slot.fulfil(Response {
                        id: pending.request.id,
                        result: Err(ServingError::WorkerPanic {
                            context: context.clone(),
                        }),
                        service_ms,
                        modeled_us: 0.0,
                    });
                }
                {
                    let mut rec = self.recorder.lock().expect("recorder poisoned");
                    rec.worker_panics += 1;
                    rec.completed += members.len() as u64;
                }
                self.idle_cv.notify_all();
                std::panic::resume_unwind(payload);
            }
        };

        let completed_at = Instant::now();
        let records: Vec<Completion> = members
            .iter()
            .zip(&responses)
            .map(|(pending, response)| {
                let total_ms = completed_at
                    .duration_since(pending.submitted_at)
                    .as_secs_f64()
                    * 1e3;
                Completion {
                    id: pending.request.id,
                    kind: pending.class.kind(),
                    queue_ms: exec_start
                        .duration_since(pending.submitted_at)
                        .as_secs_f64()
                        * 1e3,
                    service_ms: response.service_ms,
                    total_ms,
                    deadline_met: pending
                        .class
                        .deadline_us()
                        .map(|budget| total_ms * 1e3 <= budget as f64),
                }
            })
            .collect();
        // Fulfil the tickets **before** advancing `completed`: `drain`
        // treats `completed == submitted` as "every ticket delivered", so a
        // concurrent worker's increment must never let a drain return while
        // this group's responses are still undelivered.
        for (pending, response) in members.into_iter().zip(responses) {
            pending.slot.fulfil(response);
        }
        {
            let mut rec = self.recorder.lock().expect("recorder poisoned");
            for record in records {
                rec.record_completion(record);
            }
        }
        self.idle_cv.notify_all();
    }

    /// Computes one response per group member: the (possibly fused) routed
    /// execute plus the per-member scatter. May panic (the chaos layer
    /// injects panics here on purpose) — [`ServerCore::execute_group`]
    /// contains the unwind. The group's remaining deadline slack rides along
    /// so the replica set can hedge deadline-class dispatches that are about
    /// to miss.
    fn compute_responses(
        &self,
        meta: &GroupMeta,
        members: &[Pending],
        exec_start: Instant,
    ) -> Vec<Response> {
        // Remaining deadline slack at dispatch time, µs: the group's
        // earliest absolute deadline minus "now" on the server clock.
        let slack_us = meta.due_us.map(|due| {
            due.saturating_sub(exec_start.duration_since(self.started_at).as_micros() as u64)
        });
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.cfg.fault_plan {
            let (stall, fault) = plan.poll_exec();
            if let Some(delay) = stall {
                std::thread::sleep(delay);
            }
            match fault {
                crate::chaos::ExecFault::Panic => {
                    panic!("injected worker panic (chaos fault plan)")
                }
                crate::chaos::ExecFault::FailBuild => {
                    let err = ServingError::Kernel(shfl_kernels::KernelError::ShapeMismatch {
                        context: "injected plan-build failure (chaos fault plan)".into(),
                    });
                    let service_ms = exec_start.elapsed().as_secs_f64() * 1e3;
                    return members
                        .iter()
                        .map(|p| Response {
                            id: p.request.id,
                            result: Err(err.clone()),
                            service_ms,
                            modeled_us: 0.0,
                        })
                        .collect();
                }
                crate::chaos::ExecFault::None => {}
            }
        }
        if members.len() == 1 {
            let pending = &members[0];
            let (result, modeled_us) = match self.replicas.dispatch(
                pending.request.layer,
                &pending.request.activations,
                false,
                meta.kind,
                slack_us,
            ) {
                Ok((output, us)) => (Ok(output), us),
                Err(e) => (Err(e), 0.0),
            };
            vec![Response {
                id: pending.request.id,
                result,
                service_ms: exec_start.elapsed().as_secs_f64() * 1e3,
                modeled_us,
            }]
        } else {
            let parts: Vec<&DenseMatrix> = members.iter().map(|p| &p.request.activations).collect();
            let combined = DenseMatrix::concat_cols(&parts)
                .expect("coalesced group operands share the layer's k");
            let total_cols = combined.cols();
            // Pad-free group execution: a partially-filled group runs the
            // exact-width fused sweep instead of padding up to its bucket.
            let executed = self
                .replicas
                .dispatch(meta.layer, &combined, true, meta.kind, slack_us);
            let service_ms = exec_start.elapsed().as_secs_f64() * 1e3;
            match executed {
                Ok((output, us)) => {
                    let mut col = 0;
                    members
                        .iter()
                        .map(|p| {
                            let width = p.request.activations.cols();
                            let result = output.cols_padded(col, width, width);
                            col += width;
                            Response {
                                id: p.request.id,
                                result: Ok(result),
                                service_ms,
                                modeled_us: if total_cols == 0 {
                                    0.0
                                } else {
                                    us * width as f64 / total_cols as f64
                                },
                            }
                        })
                        .collect()
                }
                Err(e) => members
                    .iter()
                    .map(|p| Response {
                        id: p.request.id,
                        result: Err(e.clone()),
                        service_ms,
                        modeled_us: 0.0,
                    })
                    .collect(),
            }
        }
    }

    /// Runs one live weight update through the server's fault-injection and
    /// panic-containment shell: the chaos plan's update-path faults fire
    /// here (scripted candidate-build failures, and panics at the exact swap
    /// sequence point), and **any** panic in the update path — injected or
    /// real — is contained into a typed [`UpdateError`] instead of unwinding
    /// into the caller, with the old version still serving.
    fn guarded_update(
        &self,
        layer: usize,
        op: impl FnOnce() -> Result<UpdateReport, UpdateError>,
    ) -> Result<UpdateReport, UpdateError> {
        let engine = self.replicas.primary();
        #[cfg(feature = "chaos")]
        let injected_panic = match self.cfg.fault_plan.as_ref().map(|p| p.poll_update()) {
            Some(crate::chaos::ExecFault::FailBuild) => {
                let version = engine
                    .layer_version(layer)
                    .map_err(|_| UpdateError::UnknownLayer { layer })?
                    + 1;
                return Err(UpdateError::Build {
                    layer,
                    version,
                    source: shfl_kernels::KernelError::ShapeMismatch {
                        context: "injected update build failure (chaos fault plan)".into(),
                    },
                });
            }
            Some(crate::chaos::ExecFault::Panic) => true,
            _ => false,
        };
        #[cfg(not(feature = "chaos"))]
        let injected_panic = false;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if injected_panic {
                panic!("injected update panic at the swap point (chaos fault plan)");
            }
            op()
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => Err(UpdateError::Build {
                layer,
                version: engine.layer_version(layer).map(|v| v + 1).unwrap_or(0),
                source: shfl_kernels::KernelError::BuildPanicked {
                    context: panic_message(payload.as_ref()),
                },
            }),
        }
    }

    /// Worker thread entry point: runs the worker loop and respawns it (in
    /// place, on the same thread) whenever a group execute unwinds it. The
    /// pool therefore never shrinks below the configured size, and a
    /// panicking engine cannot wedge the dispatcher's pacing wait or
    /// `drain()`.
    fn worker_entry(&self) {
        loop {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.worker_loop()));
            if run.is_ok() {
                break;
            }
            self.recorder
                .lock()
                .expect("recorder poisoned")
                .worker_respawns += 1;
        }
    }
}

/// Best-effort extraction of a panic payload's message (the common `&str` /
/// `String` payloads; anything else gets a placeholder). The one renderer
/// behind every contained panic of the crate: worker, replica attempt,
/// decode step and update build.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The continuous-batching serving front-end: owns the [`ReplicaSet`] it
/// executes on and the dispatcher/worker threads. See the
/// [module docs](self) for the model.
///
/// ## Example
///
/// ```
/// use gpu_sim::GpuArch;
/// use rand::{rngs::StdRng, SeedableRng};
/// use shfl_core::bucket::BucketPolicy;
/// use shfl_core::{DenseMatrix, ShflBwMatrix};
/// use shfl_serving::engine::ServingEngine;
/// use shfl_serving::server::{Request, Server, ServerConfig};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let dense = DenseMatrix::from_fn(32, 32, |r, c| {
///     if (c + r / 8) % 4 == 0 { 0.5 } else { 0.0 }
/// });
/// let weights = ShflBwMatrix::from_dense(&dense, 8).unwrap();
/// let mut engine = ServingEngine::new(GpuArch::a100(), BucketPolicy::new(8, 64).unwrap(), 16);
/// let layer = engine.register_layer("ffn1", weights);
///
/// let server = Server::start(engine, ServerConfig::new().with_admission_window_us(200));
/// let tickets: Vec<_> = (0..8)
///     .map(|i| {
///         let acts = DenseMatrix::random(&mut rng, 32, 1 + i as usize);
///         server.submit(Request { id: i, layer, activations: acts }).unwrap()
///     })
///     .collect();
/// for ticket in tickets {
///     assert!(ticket.wait().result.is_ok());
/// }
/// server.shutdown();
/// ```
pub struct Server {
    core: Arc<ServerCore>,
    sessions: Arc<SessionManager>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server over an engine (owned, or shared via
    /// `Arc<ServingEngine>`): spawns the dispatcher and
    /// [`ServerConfig::workers`] worker threads and begins accepting
    /// submissions immediately. Equivalent to [`Server::start_replicated`]
    /// over a single-replica [`ReplicaSet`] — routing, stealing, and
    /// hedging are all degenerate with one replica.
    pub fn start(engine: impl Into<Arc<ServingEngine>>, config: ServerConfig) -> Self {
        Self::start_replicated(ReplicaSet::single(engine.into()), config)
    }

    /// Starts a server over a [`ReplicaSet`] of data-parallel replicas:
    /// every dispatched group is routed to its layer's consistent-hash home
    /// replica, with work-stealing, health-checked failover, and (when
    /// configured) hedged dispatch for deadline-class groups. With the
    /// `chaos` feature, the config's fault plan is attached to the replica
    /// set so the replica-scoped fault points (`kill_replica_at`,
    /// `slow_replica`, …) fire on the set's attempt/probe sequence counters.
    pub fn start_replicated(replicas: ReplicaSet, config: ServerConfig) -> Self {
        #[cfg(feature = "chaos")]
        let replicas = {
            let mut replicas = replicas;
            if let Some(plan) = &config.fault_plan {
                replicas.attach_fault_plan(Arc::clone(plan));
            }
            replicas
        };
        let core = Arc::new(ServerCore::new(config, replicas));
        #[allow(unused_mut)]
        let mut sessions =
            SessionManager::new(core.cfg.session_capacity, Arc::clone(&core.cfg.policy));
        #[cfg(feature = "chaos")]
        sessions.set_fault_plan(core.cfg.fault_plan.clone());
        let sessions = Arc::new(sessions);
        let mut threads = Vec::with_capacity(core.cfg.workers + 2);
        for _ in 0..core.cfg.workers.max(1) {
            let core = Arc::clone(&core);
            threads.push(std::thread::spawn(move || core.worker_entry()));
        }
        {
            let core = Arc::clone(&core);
            threads.push(std::thread::spawn(move || core.dispatch_loop()));
        }
        {
            let core = Arc::clone(&core);
            let sessions = Arc::clone(&sessions);
            threads.push(std::thread::spawn(move || sessions.drive(&core.replicas)));
        }
        Server {
            core,
            sessions,
            threads,
        }
    }

    /// The primary replica's engine — the metadata source groups are
    /// planned against (all replicas mirror the same registered layers).
    pub fn engine(&self) -> &ServingEngine {
        self.core.replicas.primary()
    }

    /// The replica set this server routes over: per-replica health, the
    /// kill/revive admin plane, and probe-driven health transitions. A
    /// server started with [`Server::start`] has a single-replica set.
    pub fn replica_set(&self) -> &ReplicaSet {
        &self.core.replicas
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.core.cfg
    }

    /// Submits one request under the default [`SloClass::Standard`] class.
    /// Non-blocking: a full queue rejects with the typed
    /// [`SubmitError::QueueFull`] backpressure signal.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when `queue_depth` requests are already
    /// waiting; [`SubmitError::NotAccepting`] after [`Server::drain`].
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        self.core.submit(request, SloClass::Standard)
    }

    /// Submits one request under an explicit SLO class.
    ///
    /// # Errors
    ///
    /// See [`Server::submit`].
    pub fn submit_classed(&self, request: Request, class: SloClass) -> Result<Ticket, SubmitError> {
        self.core.submit(request, class)
    }

    /// Submits a whole batch atomically (all-or-nothing against the queue
    /// bound; the dispatcher cannot observe a partial batch).
    ///
    /// # Errors
    ///
    /// See [`Server::submit`].
    pub fn submit_batch(&self, requests: Vec<Request>) -> Result<Vec<Ticket>, SubmitError> {
        self.core.submit_batch(requests, SloClass::Standard)
    }

    /// A snapshot of the server's counters and per-class completion log,
    /// with the replica tier's aggregate stats plane in
    /// [`ServerStats::replicas`].
    pub fn stats(&self) -> ServerStats {
        self.core.stats()
    }

    /// Publishes new weights for a registered layer **without stopping
    /// traffic**: in-flight and queued requests are untouched (they finish
    /// on their own version, bit-identically), new arrivals observe the new
    /// version, and a coalesced group never mixes versions because the
    /// server makes exactly one engine call per group. On a replicated
    /// server the update fans out to **every** replica under the layer's
    /// version barrier ([`ReplicaSet::update_layer_all`]): dispatches for
    /// the layer wait out the fan-out, so no two replicas ever serve
    /// different weight versions to the same coalesced group. See
    /// [`ServingEngine::update_layer`] for the validate-then-swap pipeline.
    ///
    /// # Errors
    ///
    /// Any [`UpdateError`] (including chaos-injected update faults) leaves
    /// the old version serving everywhere; a fan-out with a dead replica is
    /// refused whole with [`UpdateError::ReplicaDown`] (updates are not
    /// idempotent and are never retried or partially applied).
    pub fn update_layer(
        &self,
        layer: usize,
        new_weights: ShflBwMatrix,
    ) -> Result<UpdateReport, UpdateError> {
        self.core.guarded_update(layer, || {
            self.core.replicas.update_layer_all(layer, new_weights)
        })
    }

    /// Republishes the layer's previous weights under a fresh version —
    /// [`ServingEngine::rollback_layer`] fanned out to every replica behind
    /// the same fault-injection and panic-containment shell as
    /// [`Server::update_layer`].
    ///
    /// # Errors
    ///
    /// See [`Server::update_layer`]; additionally
    /// [`UpdateError::NoPreviousVersion`] for a never-updated layer.
    pub fn rollback_layer(&self, layer: usize) -> Result<UpdateReport, UpdateError> {
        self.core
            .guarded_update(layer, || self.core.replicas.rollback_layer_all(layer))
    }

    /// Opens a stateful decode session: the session driver steps it every
    /// interleave round, coalescing its per-stage columns with every other
    /// live session of the same model, and streams tokens to the returned
    /// handle's [`SessionTicket`](crate::session::SessionTicket)s. `class`
    /// is the **whole-sequence** SLO class; deadline-class budgets are split
    /// into per-token deadlines ([`SloClass::per_token`]) and every token
    /// carries its verdict. Engine-level problems (wrong prompt length,
    /// layer errors) surface as typed errors on the ticket, not here.
    ///
    /// # Errors
    ///
    /// [`SubmitError::NotAccepting`] after shutdown began; at the session
    /// capacity with no evictable Bulk session, [`SubmitError::Shed`] for a
    /// Bulk opener and [`SubmitError::QueueFull`] otherwise.
    pub fn open_session(
        &self,
        model: Arc<dyn DecodeModel>,
        prompt: Vec<f32>,
        class: SloClass,
        max_steps: usize,
    ) -> Result<SessionHandle, SubmitError> {
        self.sessions.open(model, prompt, class, max_steps)
    }

    /// Re-admits an evicted session from its parked snapshot, under the same
    /// id: the returned handle's stream continues exactly where the evicted
    /// stream stopped, bit-identical to a never-evicted run.
    ///
    /// # Errors
    ///
    /// [`ServingError::UnknownSession`] when no snapshot is parked under
    /// `id`; [`ServingError::Shed`] when the session tier is at capacity
    /// with no evictable Bulk session; [`ServingError::ShutDown`] after
    /// shutdown began.
    pub fn resume_session(&self, id: u64) -> Result<SessionHandle, ServingError> {
        self.sessions.resume(id)
    }

    /// Requests eviction of a live decode session (any class): on the next
    /// round its state is snapshotted, its ticket surfaces a typed
    /// [`ServingError::Evicted`], and [`Server::resume_session`] continues
    /// it bit-identically. Returns `false` when `id` is not live. This is
    /// the deterministic pressure lever the benches and chaos tests pull;
    /// organic capacity pressure evicts Bulk sessions on its own.
    pub fn evict_session(&self, id: u64) -> bool {
        self.sessions.evict(id)
    }

    /// Counters of the decode-session tier: sessions
    /// opened/completed/evicted/resumed/cancelled, tokens streamed, sweep
    /// counts, and the mean interleave width.
    pub fn session_stats(&self) -> SessionStats {
        self.sessions.stats()
    }

    /// Stops admission and blocks until every outstanding ticket has been
    /// delivered. The server stays alive (more `drain` calls are no-ops);
    /// submissions after a drain are rejected with
    /// [`SubmitError::NotAccepting`]. Decode sessions are not drained —
    /// they keep streaming until they finish or the server shuts down.
    pub fn drain(&self) {
        self.core.drain();
    }

    /// Graceful shutdown: drains, stops the threads, and joins them. Live
    /// decode sessions fail typed with [`ServingError::ShutDown`].
    pub fn shutdown(mut self) {
        self.core.drain();
        self.core.stop();
        self.sessions.stop();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return; // shutdown() already joined
        }
        // Non-drained drop: still-queued requests fail with
        // `ServingError::ShutDown` so no ticket waits forever.
        self.core.stop();
        self.sessions.stop();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}
