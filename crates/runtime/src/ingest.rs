//! Async ingestion front-end: typed request submission with bounded
//! admission, deadlines, priorities, and per-request completion handles.
//!
//! [`Submitter`] is the producer half of the serving pipeline: it admits
//! requests into the [`Dispatcher`](crate::Dispatcher)'s pending rounds
//! itself, under the dispatcher's queues lock, and hands back a [`Ticket`]
//! per request — a synchronous future the caller blocks on (or polls) for
//! that request's [`Outcome`]. Any number of `Submitter` clones can feed
//! the same dispatcher from any number of threads; the lock orders them,
//! and within a shard's pending round each class keeps that order.
//!
//! # The submission envelope
//!
//! [`Submitter::submit_with`] is the full entry point: a [`Request`] plus
//! [`SubmitOptions`] carrying an optional completion **deadline**, a
//! [`Priority`] class, and an optional **scheduled** arrival instant (the
//! open-loop replay stamp). [`Submitter::submit`] is the convenience
//! wrapper with default options. Admission is *bounded* when the
//! dispatcher configures
//! [`DispatchOptions::queue_capacity`](crate::DispatchOptions::queue_capacity):
//! a submit against a full home-shard queue fails fast with
//! [`SubmitRejection::WouldBlock`] and a retry hint instead of growing the
//! queue without bound — overload surfaces at the edge, typed, rather
//! than as unbounded memory and latency.
//!
//! # Outcomes, not just results
//!
//! An accepted request resolves to exactly one [`Outcome`]:
//! [`Outcome::Completed`] with its [`RunResult`], [`Outcome::Shed`] when
//! the dispatcher proved the deadline unmeetable and dropped it *before*
//! execution (a first-class serving decision, not an error), or
//! [`Outcome::Failed`] with the request's [`ServeError`].
//!
//! # Loss freedom
//!
//! A submit that returns `Ok` is **accepted** — its ticket is always
//! fulfilled with an [`Outcome`], even if the dispatcher shuts down
//! immediately after. Admission, round closing and shutdown serialize on
//! the one queues lock: `submit_with` checks that admission is open and
//! adds its job to a pending round under it, and shutdown flushes every
//! pending round and closes admission under one acquisition of it, so a
//! submit either has its job pending when the flush runs or sees
//! admission closed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dpu_sim::RunResult;

use crate::dispatch::{fail_lost, home_shard, resolve, Intake};
use crate::latency::{nanos, Timeline};
use crate::pool::{Request, ServeError};
use crate::report::ClassReport;
use crate::sched::{shed_at_ingest, TrackedJob};
use crate::wake::Waiters;

/// Urgency class of a submitted request. Interactive traffic preempts
/// lower classes in round packing, shard-queue ordering, and work
/// stealing; an aging floor
/// ([`DispatchOptions::priority_aging`](crate::DispatchOptions::priority_aging))
/// keeps [`Priority::Batch`] from starving under sustained interactive
/// load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive foreground traffic: packed first, dispatched
    /// first, stolen first.
    Interactive,
    /// The default class: rounds of it dispatch after interactive ones
    /// and before batch ones.
    #[default]
    Standard,
    /// Throughput traffic that tolerates delay; yields to the classes
    /// above until the anti-starvation floor promotes it.
    Batch,
}

impl Priority {
    /// All classes, in preemption order (index == [`Priority::index`]).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Dense index of the class (0 = interactive … 2 = batch) — the key
    /// into per-class report arrays like
    /// [`DispatchReport::classes`](crate::DispatchReport::classes).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }

    /// Lower-case class name (`"interactive"`, `"standard"`, `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

/// The submission envelope accepted by [`Submitter::submit_with`]: what
/// the bare [`Request`] payload cannot say — how urgent, how late is too
/// late, and when the request *notionally* arrived.
///
/// The default options (no deadline, [`Priority::Standard`], arrival
/// stamped at submit) are what [`Submitter::submit`] passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Completion deadline. A request the dispatcher can prove will miss
    /// it (live queueing estimate) is shed *before* execution and its
    /// ticket resolves to [`Outcome::Shed`]; a deadline already past at
    /// submit time is rejected up front
    /// ([`SubmitRejection::DeadlineAlreadyPast`]).
    pub deadline: Option<Instant>,
    /// Urgency class; see [`Priority`].
    pub priority: Priority,
    /// Scheduled arrival instant for open-loop replay: the timeline's
    /// arrival stamp is the schedule's intended instant, so reported
    /// end-to-end latency charges the system for any lag between the
    /// schedule and the actual submit.
    pub scheduled: Option<Instant>,
}

impl SubmitOptions {
    /// Options whose arrival stamp is the scheduled instant `t` — the
    /// open-loop replay constructor.
    pub fn at(t: Instant) -> Self {
        SubmitOptions::default().scheduled(t)
    }

    /// Sets the completion deadline.
    #[must_use]
    pub fn deadline(mut self, t: Instant) -> Self {
        self.deadline = Some(t);
        self
    }

    /// Sets the urgency class.
    #[must_use]
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Sets the scheduled arrival instant.
    #[must_use]
    pub fn scheduled(mut self, t: Instant) -> Self {
        self.scheduled = Some(t);
        self
    }
}

/// Typed admission verdict of [`Submitter::submit_with`]: why a request
/// was **not** accepted (no ticket exists; the request is handed back in
/// every variant). These are serving *decisions* — distinct from
/// infrastructure errors — and each tells the caller what to do next:
/// back off, fail over, or drop.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitRejection {
    /// The request's home-shard queue is at
    /// [`DispatchOptions::queue_capacity`](crate::DispatchOptions::queue_capacity).
    /// Back off for about `retry_after` (derived from the live queueing
    /// estimate) and resubmit.
    WouldBlock {
        /// Suggested backoff before retrying.
        retry_after: Duration,
        /// The rejected request, handed back.
        request: Request,
    },
    /// The dispatcher has shut down; no retry will succeed here.
    QueueClosed {
        /// The rejected request, handed back.
        request: Request,
    },
    /// The submitted deadline was already in the past — executing could
    /// only produce a result nobody can use in time.
    DeadlineAlreadyPast {
        /// The rejected request, handed back.
        request: Request,
    },
}

impl SubmitRejection {
    /// The rejected request (borrowed).
    pub fn request(&self) -> &Request {
        match self {
            SubmitRejection::WouldBlock { request, .. }
            | SubmitRejection::QueueClosed { request }
            | SubmitRejection::DeadlineAlreadyPast { request } => request,
        }
    }

    /// Recovers the rejected request for retry elsewhere.
    pub fn into_request(self) -> Request {
        match self {
            SubmitRejection::WouldBlock { request, .. }
            | SubmitRejection::QueueClosed { request }
            | SubmitRejection::DeadlineAlreadyPast { request } => request,
        }
    }

    /// The backoff hint, when the rejection is retryable
    /// ([`SubmitRejection::WouldBlock`]).
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            SubmitRejection::WouldBlock { retry_after, .. } => Some(*retry_after),
            _ => None,
        }
    }
}

impl std::fmt::Display for SubmitRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitRejection::WouldBlock { retry_after, .. } => write!(
                f,
                "home-shard queue full; retry in ~{:?} (bounded admission)",
                retry_after
            ),
            SubmitRejection::QueueClosed { .. } => write!(f, "submit on a shut-down dispatcher"),
            SubmitRejection::DeadlineAlreadyPast { .. } => {
                write!(f, "deadline already past at submit time")
            }
        }
    }
}

impl std::error::Error for SubmitRejection {}

/// Error returned by [`Submitter::submit_all`] when a request mid-batch
/// is rejected (backpressure, shutdown, or a stale deadline).
///
/// Loss-freedom requires more than a bare rejection carries: by the time
/// a batch submission is rejected, *earlier* requests of the batch were
/// already accepted and **will resolve** — dropping their tickets (as a
/// plain `collect::<Result<Vec<_>, _>>()` would) makes those outcomes
/// unreachable even though the work is done. This error hands everything
/// back: the tickets of the accepted prefix, the first rejection (request
/// inside), and the never-submitted tail.
#[derive(Debug)]
pub struct SubmitAllError {
    /// Completion tickets of the requests accepted before the rejection,
    /// in submission order. Each will resolve (shutdown is loss-free);
    /// wait on them as usual.
    pub accepted: Vec<Ticket>,
    /// The first rejection, with its request handed back for retry
    /// elsewhere (or later, after
    /// [`SubmitRejection::retry_after`]).
    pub rejected: SubmitRejection,
    /// The remaining requests of the batch, never submitted.
    pub rest: Vec<Request>,
}

impl std::fmt::Display for SubmitAllError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submit_all interrupted: {} accepted (tickets attached), \
             1 rejected ({}), {} never submitted",
            self.accepted.len(),
            self.rejected,
            self.rest.len()
        )
    }
}

impl std::error::Error for SubmitAllError {}

/// Why the dispatcher shed an accepted request instead of executing it.
/// Both variants are deadline decisions; they are counted separately in
/// [`DispatchReport`](crate::DispatchReport) because they indict
/// different stages (admission projection vs queue residence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// At admission the live queueing + service estimate projected
    /// completion past the deadline, so the request never entered a
    /// round.
    DeadlineUnmeetable {
        /// Projected completion stamp (ns from the dispatcher epoch).
        projected_ns: u64,
        /// The request's deadline stamp.
        deadline_ns: u64,
    },
    /// The deadline had passed (or service could no longer fit) by the
    /// time a shard was about to execute the request.
    DeadlineExpired {
        /// The execute-start stamp at which the check failed.
        now_ns: u64,
        /// The request's deadline stamp.
        deadline_ns: u64,
    },
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::DeadlineUnmeetable {
                projected_ns,
                deadline_ns,
            } => write!(
                f,
                "deadline unmeetable: projected completion {projected_ns}ns > deadline {deadline_ns}ns"
            ),
            ShedReason::DeadlineExpired {
                now_ns,
                deadline_ns,
            } => write!(
                f,
                "deadline expired in queue: execute start {now_ns}ns vs deadline {deadline_ns}ns"
            ),
        }
    }
}

/// How an accepted request resolved. Every ticket resolves to exactly one
/// `Outcome`; shedding is a first-class serving decision here, not an
/// error shoehorned into [`ServeError`].
#[derive(Debug)]
pub enum Outcome {
    /// The request executed; its result.
    Completed(RunResult),
    /// The dispatcher dropped the request before execution to protect
    /// its deadline (or the deadline of everyone behind it).
    Shed {
        /// The deadline decision that condemned it.
        reason: ShedReason,
    },
    /// The request executed (or tried to) and failed.
    Failed(ServeError),
}

impl Outcome {
    /// The result, panicking on [`Outcome::Shed`] / [`Outcome::Failed`] —
    /// the ergonomic unwrap for traffic submitted without deadlines,
    /// which can never be shed.
    ///
    /// # Panics
    ///
    /// If the request was shed or failed.
    #[track_caller]
    pub fn unwrap(self) -> RunResult {
        match self {
            Outcome::Completed(run) => run,
            other => panic!("called `Outcome::unwrap()` on {other:?}"),
        }
    }

    /// Like [`Outcome::unwrap`] with a caller message.
    ///
    /// # Panics
    ///
    /// If the request was shed or failed.
    #[track_caller]
    pub fn expect(self, msg: &str) -> RunResult {
        match self {
            Outcome::Completed(run) => run,
            other => panic!("{msg}: {other:?}"),
        }
    }

    /// The result, if the request completed.
    pub fn completed(self) -> Option<RunResult> {
        match self {
            Outcome::Completed(run) => Some(run),
            _ => None,
        }
    }

    /// The error, if the request failed.
    pub fn failure(&self) -> Option<&ServeError> {
        match self {
            Outcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// What a shard (or a submit that sheds its request) hands back through a
/// ticket: the request's [`Outcome`] plus the completed latency
/// [`Timeline`].
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) outcome: Outcome,
    pub(crate) timeline: Timeline,
}

/// Completion state shared between a [`Ticket`] and the thread that
/// fulfills it.
#[derive(Debug)]
pub(crate) struct TicketState {
    slot: Mutex<Option<Completion>>,
    /// Signalled on fulfilment only if a `wait*` call actually blocked.
    done: Waiters,
}

impl TicketState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Waiters::default(),
        })
    }

    /// Resolves the ticket. Called exactly once per accepted request, by
    /// whichever thread decided its outcome. `settle` runs under the
    /// ticket's lock, after the outcome is in place and before any waiter
    /// can see it: what it records is visible to whoever sees the ticket
    /// resolved, and a thread that sees what it records finds the ticket
    /// resolved.
    pub(crate) fn fulfill(
        &self,
        outcome: Outcome,
        timeline: Timeline,
        settle: impl FnOnce(&Outcome),
    ) {
        let mut slot = self.slot.lock().expect("ticket poisoned");
        debug_assert!(slot.is_none(), "ticket fulfilled twice");
        settle(&slot.insert(Completion { outcome, timeline }).outcome);
        self.done.wake_all(slot);
    }
}

/// A per-request completion handle: the synchronous future returned by
/// [`Submitter::submit`] / [`Submitter::submit_with`].
///
/// The ticket is fulfilled by whichever thread decides the request's
/// [`Outcome`] — the executing shard, or the submit itself when it sheds;
/// [`Ticket::wait`] blocks until then. Dropping a ticket is fine —
/// the request still resolves, its outcome is simply discarded.
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    pub(crate) fn new(state: Arc<TicketState>) -> Self {
        Ticket { state }
    }

    /// Blocks until the request resolves and returns its [`Outcome`]. Use
    /// [`Ticket::wait_detailed`] to also receive the per-request latency
    /// [`Timeline`].
    pub fn wait(self) -> Outcome {
        self.wait_detailed().0
    }

    /// Blocks until the request resolves and returns its [`Outcome`]
    /// together with the completed latency [`Timeline`] (arrival →
    /// accepted → round-closed → execute-start → completed stamps, the
    /// deadline, and the modelled service cycles). The timeline is
    /// present whatever the outcome — shed requests stamp completion at
    /// the moment they were shed.
    pub fn wait_detailed(self) -> (Outcome, Timeline) {
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(completion) = slot.take() {
                return (completion.outcome, completion.timeline);
            }
            slot = self.state.done.wait(slot).expect("ticket poisoned");
        }
    }

    /// The request's latency [`Timeline`], once it has resolved (`None`
    /// while in flight). Non-consuming, so it can be polled alongside
    /// [`Ticket::is_done`].
    pub fn timeline(&self) -> Option<Timeline> {
        self.state
            .slot
            .lock()
            .expect("ticket poisoned")
            .as_ref()
            .map(|c| c.timeline)
    }

    /// Like [`Ticket::wait`] with a bound: returns the ticket back as
    /// `Err` if `timeout` elapses first.
    ///
    /// # Errors
    ///
    /// `Err(self)` on timeout — the ticket remains valid.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Outcome, Ticket> {
        self.wait_timeout_detailed(timeout)
            .map(|(outcome, _)| outcome)
    }

    /// Like [`Ticket::wait_detailed`] with a bound: outcome plus
    /// completed [`Timeline`] on resolution, or the ticket back as `Err`
    /// if `timeout` elapses first — the bounded-wait + latency
    /// combination SLO enforcement needs.
    ///
    /// # Errors
    ///
    /// `Err(self)` on timeout — the ticket remains valid. A `timeout` too
    /// long to put a date on (`Duration::MAX`) never elapses.
    pub fn wait_timeout_detailed(self, timeout: Duration) -> Result<(Outcome, Timeline), Ticket> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Ok(self.wait_detailed());
        };
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(completion) = slot.take() {
                return Ok((completion.outcome, completion.timeline));
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                drop(slot);
                return Err(self);
            };
            (slot, _) = self
                .state
                .done
                .wait_timeout(slot, remaining)
                .expect("ticket poisoned");
        }
    }

    /// Whether the outcome is ready (a subsequent [`Ticket::wait`] will
    /// not block).
    pub fn is_done(&self) -> bool {
        self.state.slot.lock().expect("ticket poisoned").is_some()
    }
}

/// Exponentially weighted moving average cell (α = 1/8), racy by design:
/// readers want a cheap live estimate, not a ledger.
fn ewma_update(cell: &AtomicU64, observed: u64) {
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 {
        observed
    } else {
        old - old / 8 + observed / 8
    };
    cell.store(new, Ordering::Relaxed);
}

/// A column of the admission ledger: what became of a submit attempt. An
/// accepted request is entered twice — [`Entry::Accepted`] at the edge,
/// then the way its ticket resolved — a rejected attempt once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    Accepted,
    Completed,
    Failed,
    /// Shed at admission: the live estimate projected completion past the
    /// deadline.
    ShedUnmeetable,
    /// Shed at execute time: the deadline expired in queue.
    ShedExpired,
    WouldBlock,
    QueueClosed,
    DeadlinePast,
}

impl Entry {
    const COUNT: usize = 8;

    /// The entry a resolved ticket's outcome writes.
    fn resolved(outcome: &Outcome) -> Entry {
        match outcome {
            Outcome::Completed(_) => Entry::Completed,
            Outcome::Failed(_) => Entry::Failed,
            Outcome::Shed {
                reason: ShedReason::DeadlineUnmeetable { .. },
            } => Entry::ShedUnmeetable,
            Outcome::Shed {
                reason: ShedReason::DeadlineExpired { .. },
            } => Entry::ShedExpired,
        }
    }

    /// The entry a rejection writes.
    fn rejected(rejection: &SubmitRejection) -> Entry {
        match rejection {
            SubmitRejection::WouldBlock { .. } => Entry::WouldBlock,
            SubmitRejection::QueueClosed { .. } => Entry::QueueClosed,
            SubmitRejection::DeadlineAlreadyPast { .. } => Entry::DeadlinePast,
        }
    }
}

/// Shared admission-control state: per-home-shard depth (the bounded-queue
/// half, and the dispatcher's in-flight count), live latency estimates
/// (the shed-projection half), and the ledger of every submit attempt by
/// class and [`Entry`] that the [`DispatchReport`](crate::DispatchReport)
/// sums at shutdown.
///
/// Written from both sides of a ticket — submitters (accepts and
/// rejections) and whichever thread resolves it — through relaxed atomics:
/// the ledger is read coherently only at shutdown, after every worker has
/// been joined.
pub(crate) struct Admission {
    /// Shard count, for home-shard routing at admission time.
    shards: usize,
    /// Per-home-shard admission bound (`None` = unbounded, the default).
    capacity: Option<u64>,
    /// The dispatcher's `max_wait`, the retry-hint fallback before any
    /// latency observations exist.
    max_wait_ns: u64,
    /// Accepted-but-unresolved requests per home shard, from the submit
    /// that claims a slot to the fulfilment that releases it.
    depth: Vec<AtomicU64>,
    /// Orders a depth slot's zero crossing against [`Admission::wait_idle`]
    /// checking the depths and going to sleep.
    idle_lock: Mutex<()>,
    idle: Waiters,
    /// Submit attempts, by class ([`Priority::index`]) and [`Entry`].
    ledger: [[AtomicU64; Entry::COUNT]; 3],
    /// Live EWMA of observed queueing delay (accepted → execute start).
    queueing_estimate_ns: AtomicU64,
    /// Live EWMA of observed host-side service time.
    service_estimate_ns: AtomicU64,
    /// Hedged jobs whose *copy* won the completion claim. An overlay
    /// counter, outside the per-class balance equation.
    pub(crate) hedge_wins: AtomicU64,
}

impl Admission {
    pub(crate) fn new(shards: usize, capacity: Option<usize>, max_wait: Duration) -> Self {
        Admission {
            shards,
            capacity: capacity.map(|c| c as u64),
            max_wait_ns: nanos(max_wait),
            depth: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            idle_lock: Mutex::new(()),
            idle: Waiters::default(),
            ledger: Default::default(),
            queueing_estimate_ns: AtomicU64::new(0),
            service_estimate_ns: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
        }
    }

    /// Feeds one completed request's observed delays into the
    /// live estimates.
    pub(crate) fn observe(&self, queueing_ns: u64, service_ns: u64) {
        ewma_update(&self.queueing_estimate_ns, queueing_ns);
        ewma_update(&self.service_estimate_ns, service_ns);
    }

    /// Projected stamp at which a request accepted at `accepted_ns` would
    /// complete, per the live estimates (equal to `accepted_ns` before
    /// any observation exists — the projection is conservative, never
    /// inventing delay it has not measured).
    pub(crate) fn projected_completion_ns(&self, accepted_ns: u64) -> u64 {
        accepted_ns
            .saturating_add(self.queueing_estimate_ns.load(Ordering::Relaxed))
            .saturating_add(self.service_estimate_ns.load(Ordering::Relaxed))
    }

    /// Remaining host-side cost of a request already at execute-start.
    pub(crate) fn service_estimate(&self) -> u64 {
        self.service_estimate_ns.load(Ordering::Relaxed)
    }

    /// Backoff hint for a [`SubmitRejection::WouldBlock`]: about half the
    /// live queueing estimate (one drain quantum), floored at the
    /// dispatcher's round latency budget (`max_wait`) — a cold or
    /// near-zero EWMA must not invite busy-retry against a queue that
    /// cannot possibly drain faster than one round — and clamped to a
    /// sane [100 µs, 1 s] band so callers never spin or stall forever.
    fn retry_after(&self) -> Duration {
        let est = self.queueing_estimate_ns.load(Ordering::Relaxed);
        let ns = (est / 2).max(self.max_wait_ns);
        Duration::from_nanos(ns.clamp(100_000, 1_000_000_000))
    }

    fn note(&self, class: usize, entry: Entry) {
        self.ledger[class][entry as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Ledgers a rejection of `class` and hands it back.
    fn reject<T>(&self, class: usize, rejection: SubmitRejection) -> Result<T, SubmitRejection> {
        self.note(class, Entry::rejected(&rejection));
        Err(rejection)
    }

    /// Claims a depth slot on `home`; gives it back and returns `false`
    /// when the shard is at capacity. Submits claim under the queues lock,
    /// one at a time, so only a concurrent release can move the count.
    pub(crate) fn admit(&self, home: usize) -> bool {
        let prev = self.depth[home].fetch_add(1, Ordering::Relaxed);
        if self.capacity.is_some_and(|cap| prev >= cap) {
            self.release(home);
            return false;
        }
        true
    }

    /// Ledgers a resolved ticket of `class` under the entry its `outcome`
    /// implies and releases its depth slot on `home`, the shard its
    /// submit claimed the slot on.
    pub(crate) fn resolved(&self, class: usize, home: usize, outcome: &Outcome) {
        self.note(class, Entry::resolved(outcome));
        self.release(home);
    }

    /// Gives back a depth slot on `home` — every decrement goes through
    /// here — waking [`Admission::wait_idle`] when the slot's count
    /// reaches zero. `Release`, paired with the `Acquire` loads in
    /// [`Admission::in_flight`]: a waiter that reads zero sees everything
    /// the resolving threads did.
    fn release(&self, home: usize) {
        let prev = self.depth[home].fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "depth underflow on shard {home}");
        if prev == 1 {
            // A waiter that read the depths before this decrement holds
            // the lock until it sleeps, counted; one that locks after it
            // reads the new depth.
            self.idle
                .wake_all(self.idle_lock.lock().expect("idle lock poisoned"));
        }
    }

    /// Accepted-but-unresolved requests over every home shard.
    pub(crate) fn in_flight(&self) -> u64 {
        self.depth.iter().map(|d| d.load(Ordering::Acquire)).sum()
    }

    /// Blocks until [`Admission::in_flight`] reads zero.
    pub(crate) fn wait_idle(&self) {
        let mut held = self.idle_lock.lock().expect("idle lock poisoned");
        while self.in_flight() > 0 {
            held = self.idle.wait(held).expect("idle lock poisoned");
        }
    }

    /// Ledger entries of `class` under `entry`.
    fn count(&self, class: usize, entry: Entry) -> u64 {
        self.ledger[class][entry as usize].load(Ordering::Relaxed)
    }

    /// Ledger entries under `entry`, summed over classes.
    pub(crate) fn total(&self, entry: Entry) -> u64 {
        (0..Priority::ALL.len()).map(|c| self.count(c, entry)).sum()
    }

    /// The ledger row of `class`, its columns summed over entries.
    pub(crate) fn class_report(&self, class: usize) -> ClassReport {
        let n = |entry| self.count(class, entry);
        let accepted = n(Entry::Accepted);
        let rejected = n(Entry::WouldBlock) + n(Entry::QueueClosed) + n(Entry::DeadlinePast);
        ClassReport {
            offered: accepted + rejected,
            accepted,
            completed: n(Entry::Completed),
            failed: n(Entry::Failed),
            shed: n(Entry::ShedUnmeetable) + n(Entry::ShedExpired),
            rejected,
        }
    }
}

/// Handle for submitting requests to a running
/// [`Dispatcher`](crate::Dispatcher). Cheap to clone; clones can be moved
/// to producer threads. It holds the dispatcher's queues, clock and
/// admission state, not its engines: after shutdown it only rejects.
#[derive(Clone)]
pub struct Submitter {
    intake: Arc<Intake>,
}

impl std::fmt::Debug for Submitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let open = self.intake.queues.lock().is_open();
        f.debug_struct("Submitter")
            .field("shut_down", &!open)
            .finish()
    }
}

impl Submitter {
    pub(crate) fn new(intake: Arc<Intake>) -> Self {
        Submitter { intake }
    }

    /// Submits one request with default [`SubmitOptions`] (no deadline,
    /// [`Priority::Standard`], arrival = now) — the convenience wrapper
    /// over [`Submitter::submit_with`].
    ///
    /// # Errors
    ///
    /// [`SubmitRejection`] (with the request handed back) — under default
    /// options only [`SubmitRejection::QueueClosed`] after shutdown, plus
    /// [`SubmitRejection::WouldBlock`] when the dispatcher bounds
    /// admission. An `Ok` return means the ticket **will** resolve.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitRejection> {
        self.submit_with(request, SubmitOptions::default())
    }

    /// Submits one request under a typed [`SubmitOptions`] envelope,
    /// returning its completion [`Ticket`].
    ///
    /// Admission is decided here, at the edge: a deadline already past
    /// rejects immediately; a full home-shard queue (when
    /// [`DispatchOptions::queue_capacity`](crate::DispatchOptions::queue_capacity)
    /// bounds admission) rejects with a retry hint instead of blocking or
    /// queueing without bound. An admitted request is stamped accepted
    /// and, unless its deadline is already unmeetable, added to its home
    /// shard's pending round — under the queues lock, which also closes
    /// the round when it fills and any other round that is due.
    ///
    /// # Errors
    ///
    /// [`SubmitRejection`], with the request handed back in every
    /// variant. An `Ok` return means the request was **accepted**: its
    /// ticket always resolves to an [`Outcome`] — completed, shed, or
    /// failed — even across shutdown.
    pub fn submit_with(
        &self,
        request: Request,
        options: SubmitOptions,
    ) -> Result<Ticket, SubmitRejection> {
        let class = options.priority.index();
        let intake = &*self.intake;
        let Intake {
            queues,
            clock,
            admission,
            window,
        } = intake;
        if let Some(deadline) = options.deadline {
            if deadline <= Instant::now() {
                return admission.reject(class, SubmitRejection::DeadlineAlreadyPast { request });
            }
        }
        let arrival_ns = match options.scheduled {
            Some(t) => clock.ns_at(t),
            None => clock.now_ns(),
        };
        // A deadline stamp of 0 means "none"; a real deadline at the
        // epoch instant itself is clamped up to 1 ns.
        let deadline_ns = options.deadline.map_or(0, |t| clock.ns_at(t).max(1));
        let home = home_shard(request.dag, admission.shards);
        // Allocate before taking the lock: the critical section is shared
        // by every submitter and worker.
        let state = TicketState::new();
        let timeline = Timeline {
            arrival_ns,
            deadline_ns,
            ..Timeline::default()
        };
        let mut job = TrackedJob::new(request, Arc::clone(&state), options.priority, timeline);

        let mut core = queues.lock();
        if !core.is_open() {
            drop(core);
            let request = job.request;
            return admission.reject(class, SubmitRejection::QueueClosed { request });
        }
        // Bounded admission: claim a depth slot on the home shard, or
        // reject if the queue is at capacity.
        if !admission.admit(home) {
            drop(core);
            let retry_after = admission.retry_after();
            let request = job.request;
            return admission.reject(
                class,
                SubmitRejection::WouldBlock {
                    retry_after,
                    request,
                },
            );
        }
        admission.note(class, Entry::Accepted);
        let now_ns = clock.now_ns();
        window.mark_accept(now_ns);
        job.timeline.accepted_ns = now_ns;
        let mut lost = core.close_due(now_ns);
        let projected_ns = || admission.projected_completion_ns(now_ns);
        let shed = match shed_at_ingest(deadline_ns, projected_ns) {
            Some(reason) => Some((job, reason)),
            None => {
                lost.extend(core.add(home, job, now_ns));
                None
            }
        };
        queues.unlock(core);
        if let Some((job, reason)) = shed {
            resolve(intake, &job, home, Outcome::Shed { reason }, job.timeline);
        }
        fail_lost(intake, &lost, None);
        Ok(Ticket::new(state))
    }

    /// Submits a batch under shared `options`, returning one ticket per
    /// request (in order).
    ///
    /// # Errors
    ///
    /// [`SubmitAllError`] on the first rejected request — shutdown *or*
    /// mid-batch backpressure. The error keeps the loss-freedom contract
    /// intact across partial batches: it carries the tickets of the
    /// already-accepted prefix (those requests resolve and their outcomes
    /// stay reachable), the rejection with its request, and the
    /// unsubmitted tail.
    pub fn submit_all<I>(
        &self,
        requests: I,
        options: SubmitOptions,
    ) -> Result<Vec<Ticket>, SubmitAllError>
    where
        I: IntoIterator<Item = Request>,
    {
        let mut it = requests.into_iter();
        let mut accepted = Vec::new();
        for request in it.by_ref() {
            match self.submit_with(request, options) {
                Ok(ticket) => accepted.push(ticket),
                Err(rejected) => {
                    return Err(SubmitAllError {
                        accepted,
                        rejected,
                        rest: it.collect(),
                    })
                }
            }
        }
        Ok(accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wake::within;
    use std::thread::JoinHandle;

    const LIMIT: Duration = Duration::from_secs(30);

    fn lost() -> Outcome {
        Outcome::Failed(ServeError::ShardLost { shard: 7 })
    }

    /// Fulfils `state` from another thread once a `wait*` call has blocked
    /// on it: the wake-up, not a sleep, is what the waiter depends on.
    fn fulfil_once_blocked(state: Arc<TicketState>) -> JoinHandle<()> {
        std::thread::spawn(move || {
            while {
                let _held = state.slot.lock().expect("ticket poisoned");
                state.done.waiting() == 0
            } {
                std::thread::yield_now();
            }
            state.fulfill(lost(), Timeline::default(), |_| {});
        })
    }

    #[test]
    fn a_ticket_fulfilled_before_the_wait_returns_its_outcome() {
        let state = TicketState::new();
        let timeline = Timeline {
            completed_ns: 5,
            ..Timeline::default()
        };
        state.fulfill(lost(), timeline, |_| {});
        let ticket = Ticket::new(state);
        assert!(ticket.is_done());
        assert_eq!(ticket.timeline(), Some(timeline));
        let (outcome, got) = within(LIMIT, move || ticket.wait_detailed());
        assert!(outcome.failure().is_some());
        assert_eq!(got, timeline);
    }

    #[test]
    fn a_ticket_fulfilled_during_the_wait_wakes_the_waiter() {
        for bounded in [false, true] {
            let state = TicketState::new();
            let ticket = Ticket::new(Arc::clone(&state));
            let fulfiller = fulfil_once_blocked(state);
            let outcome = within(LIMIT, move || {
                if bounded {
                    ticket.wait_timeout(Duration::from_secs(3600)).ok()
                } else {
                    Some(ticket.wait())
                }
            });
            assert!(
                outcome.is_some_and(|o| o.failure().is_some()),
                "bounded {bounded}"
            );
            fulfiller.join().expect("fulfiller");
        }
    }

    #[test]
    fn a_ticket_survives_an_expired_wait_timeout_and_wakes_the_next_wait() {
        let state = TicketState::new();
        let ticket = Ticket::new(Arc::clone(&state))
            .wait_timeout(Duration::from_micros(100))
            .expect_err("nothing fulfilled it");
        assert_eq!(state.done.waiting(), 0, "the expired wait deregistered");
        let fulfiller = fulfil_once_blocked(state);
        assert!(within(LIMIT, move || ticket.wait()).failure().is_some());
        fulfiller.join().expect("fulfiller");
    }

    /// Every ledger cell, class-major.
    fn cells(admission: &Admission) -> Vec<u64> {
        let cells = admission.ledger.iter().flatten();
        cells.map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Runs `step` and asserts it wrote exactly one ledger cell, once.
    fn lands_in<T>(
        admission: &Admission,
        class: Priority,
        entry: Entry,
        step: impl FnOnce() -> T,
    ) -> T {
        let mut want = cells(admission);
        want[class.index() * Entry::COUNT + entry as usize] += 1;
        let out = step();
        assert_eq!(cells(admission), want, "{class:?} {entry:?}");
        out
    }

    /// The ledger, single-threaded, over two classes and two home shards:
    /// every submit attempt and every resolution — through the ticket, as
    /// a dispatcher resolves one — writes one cell, each class sees every
    /// entry, the classes balance, the by-kind totals are sums of the
    /// class columns, and the depths (so the in-flight count) come back to
    /// zero, the capacity undo included. Each shard admits one request at
    /// a time, and every submit closes its round (`max_batch` 1), which
    /// the test checks out as that shard's worker would.
    #[test]
    fn every_entry_lands_in_one_cell_and_every_class_balances() {
        use crate::sched::Checkout;
        use crate::{DagKey, DispatchOptions};
        let options = DispatchOptions {
            max_batch: 1,
            queue_capacity: Some(1),
            ..Default::default()
        };
        let intake = Arc::new(Intake::new(vec![0, 1], &options, Instant::now()));
        let admission = &intake.admission;
        let sub = Submitter::new(Arc::clone(&intake));
        let classes = [Priority::Interactive, Priority::Batch];
        let request = |home: u64| Request::new(DagKey(home), vec![1.0]);
        let resolutions: [(Entry, fn() -> Outcome); 4] = [
            (Entry::Completed, || {
                Outcome::Completed(RunResult {
                    cycles: 1,
                    outputs: vec![1.0],
                    activity: Default::default(),
                    dag_ops: 1,
                })
            }),
            (Entry::Failed, lost),
            (Entry::ShedUnmeetable, || Outcome::Shed {
                reason: ShedReason::DeadlineUnmeetable {
                    projected_ns: 2,
                    deadline_ns: 1,
                },
            }),
            (Entry::ShedExpired, || Outcome::Shed {
                reason: ShedReason::DeadlineExpired {
                    now_ns: 2,
                    deadline_ns: 1,
                },
            }),
        ];
        for round in 0..resolutions.len() {
            for (c, &class) in classes.iter().enumerate() {
                let options = SubmitOptions::default().priority(class);
                for home in 0..2u64 {
                    let ticket = lands_in(admission, class, Entry::Accepted, || {
                        sub.submit_with(request(home), options)
                            .expect("a free slot")
                    });
                    let full = lands_in(admission, class, Entry::WouldBlock, || {
                        sub.submit_with(request(home), options)
                    });
                    assert!(matches!(full, Err(SubmitRejection::WouldBlock { .. })));
                    assert_eq!(
                        admission.in_flight(),
                        1,
                        "the capacity undo gave its slot back"
                    );
                    let checkout = intake.queues.lock().checkout(home as usize, 0);
                    let Checkout::Run(queued) = checkout else {
                        panic!("the accepted request is queued on its home");
                    };
                    let job = &queued.round.jobs[0];
                    let (entry, outcome) =
                        resolutions[(round + c + home as usize) % resolutions.len()];
                    lands_in(admission, class, entry, || {
                        job.ticket
                            .fulfill(outcome(), Timeline::default(), |outcome| {
                                admission.resolved(class.index(), home as usize, outcome);
                            });
                    });
                    assert!(ticket.is_done());
                    assert_eq!(admission.in_flight(), 0);
                }
                let past = options.deadline(Instant::now() - Duration::from_millis(1));
                let stale = lands_in(admission, class, Entry::DeadlinePast, || {
                    sub.submit_with(request(0), past)
                });
                assert!(matches!(
                    stale,
                    Err(SubmitRejection::DeadlineAlreadyPast { .. })
                ));
            }
        }
        assert!(intake.queues.lock().close(0).is_empty());
        for class in classes {
            let options = SubmitOptions::default().priority(class);
            let closed = lands_in(admission, class, Entry::QueueClosed, || {
                sub.submit_with(request(1), options)
            });
            assert!(matches!(closed, Err(SubmitRejection::QueueClosed { .. })));
        }
        admission.wait_idle();
        assert_eq!(admission.in_flight(), 0);

        let rows = Priority::ALL.map(|p| admission.class_report(p.index()));
        for (p, row) in Priority::ALL.iter().zip(&rows) {
            assert_eq!(
                row.offered,
                row.completed + row.failed + row.shed + row.rejected,
                "{p:?}"
            );
            assert_eq!(row.accepted, row.completed + row.failed + row.shed, "{p:?}");
        }
        // Each class resolved 4 rounds × 2 homes, each outcome twice.
        for class in classes {
            let row = rows[class.index()];
            assert_eq!(
                (row.completed, row.failed, row.shed),
                (2, 2, 4),
                "{class:?}"
            );
        }
        let sum = |column: fn(&ClassReport) -> u64| rows.iter().map(column).sum::<u64>();
        let rejected = [Entry::WouldBlock, Entry::QueueClosed, Entry::DeadlinePast];
        let shed = [Entry::ShedUnmeetable, Entry::ShedExpired];
        assert_eq!(
            rejected.map(|e| admission.total(e)).iter().sum::<u64>(),
            sum(|r| r.rejected)
        );
        assert_eq!(
            shed.map(|e| admission.total(e)).iter().sum::<u64>(),
            sum(|r| r.shed)
        );
        assert_eq!(admission.total(Entry::Completed), sum(|r| r.completed));
        assert_eq!(admission.total(Entry::Failed), sum(|r| r.failed));
        assert_eq!(admission.total(Entry::Accepted), sum(|r| r.accepted));
    }

    /// `Instant::now() + Duration::MAX` overflows: such a timeout must
    /// block without a deadline, not panic.
    #[test]
    fn wait_timeout_of_duration_max_waits_for_a_later_fulfilment() {
        let state = TicketState::new();
        let ticket = Ticket::new(Arc::clone(&state));
        let fulfiller = fulfil_once_blocked(state);
        let outcome = within(LIMIT, move || ticket.wait_timeout(Duration::MAX).ok());
        assert!(outcome.is_some_and(|o| o.failure().is_some()));
        fulfiller.join().expect("fulfiller");
    }
}
