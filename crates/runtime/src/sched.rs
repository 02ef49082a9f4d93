//! The dispatcher's scheduling decisions as a plain state machine, with
//! no clock of its own, no lock and no thread.
//!
//! Every decision the [`Dispatcher`](crate::Dispatcher) makes about *where*
//! and *when* work runs lives here; `dispatch.rs` and `ingest.rs` only
//! drive it. Submitters and shard workers read the dispatcher's
//! [`Clock`](crate::Clock) and pass the stamp in as `now_ns`, hold the one
//! queues lock across a [`Core`] call, run rounds on the engines outside
//! it, resolve tickets and wake parked workers when the core says to. A
//! single-threaded test can therefore replay any schedule on a virtual
//! clock, the way a sans-I/O protocol state machine (`quinn-proto`) or a
//! deterministic simulation (FoundationDB) is tested.
//!
//! - [`Core`] is everything under the queues lock. Per shard: its pending
//!   round, split by priority class, and the stamp at which that round
//!   exhausts its latency budget; its queue of closed rounds; its lease
//!   (the round its worker has checked out, and since when); its `dead`
//!   flag. Over all shards: whether admission is open, the steal classes,
//!   the hedge trigger's wait histogram, the next sweep stamp and the
//!   round-close counters. [`Core::add`] admits a job to its home's
//!   pending round and closes the round once it is full,
//!   [`Core::close_due`] closes the rounds whose budget is spent,
//!   [`Core::flush`] closes them all, [`Core::checkout`] hands a worker
//!   its next round (own queue, else a steal), [`Core::kill`] recovers a
//!   dead shard's rounds, [`Core::sweep`] reclaims stalled leases and
//!   places hedges, [`Core::close`] flushes and ends admission. A state
//!   change another thread must see raises [`Core::take_wake`];
//!   [`Core::next_wake_ns`] is when a parked worker must come back on its
//!   own, for the next due round or sweep.
//! - [`shed_at_ingest`] and [`shed_at_execute`] are the two deadline
//!   decisions: whether a submit sheds its request at the door, and
//!   whether a shard sheds a job it is about to execute.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::dispatch::DispatchOptions;
use crate::ingest::{Priority, ShedReason, TicketState};
use crate::latency::{nanos, LatencyHistogram, Timeline};
use crate::pool::Request;

/// The quantile of observed queue waits past which a queued round is
/// hedged ([`DispatchOptions::hedge`]): the slowest ~5% of waits.
const HEDGE_QUANTILE: f64 = 0.95;

/// Floor under the hedge trigger, so a cold histogram (or a uniformly
/// fast one) never hedges everything at once.
const HEDGE_MIN_WAIT: Duration = Duration::from_millis(5);

/// One pending job: a request, its completion handle, its priority class,
/// its latency timeline as stamped by its submit through round close (the
/// executing shard continues it in a worker-local copy), and its claim.
pub(crate) struct TrackedJob {
    pub(crate) request: Request,
    pub(crate) ticket: Arc<TicketState>,
    pub(crate) priority: Priority,
    pub(crate) timeline: Timeline,
    /// First-completion-wins arbiter: every handle to the round (the
    /// original, a recovery requeue, a hedge) shares this job, so
    /// whichever resolves it first flips the flag and the rest stand
    /// down.
    claimed: AtomicBool,
}

impl TrackedJob {
    pub(crate) fn new(
        request: Request,
        ticket: Arc<TicketState>,
        priority: Priority,
        timeline: Timeline,
    ) -> Self {
        TrackedJob {
            request,
            ticket,
            priority,
            timeline,
            claimed: AtomicBool::new(false),
        }
    }

    /// Wins the exclusive right to resolve this job: exactly one caller
    /// ever sees `true`.
    pub(crate) fn claim(&self) -> bool {
        self.claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Whether this job is already resolved — a cheap pre-check so a
    /// losing handle skips the engine entirely.
    pub(crate) fn already_resolved(&self) -> bool {
        self.claimed.load(Ordering::Acquire)
    }
}

/// One closed round: the unit of dispatch between admission and shards.
/// Immutable once closed and shared by `Arc`: the queue entry, the
/// holder's lease and any hedge or recovery handle all point at the same
/// round, so none of them copies a request payload.
pub(crate) struct Round {
    /// The shard this round was routed to: its keys' home.
    pub(crate) home: usize,
    /// The round's dispatch class: the most urgent [`Priority`] among its
    /// jobs. Shard queues and work stealing serve interactive rounds
    /// first (subject to the aging floor).
    pub(crate) priority: Priority,
    /// When the round closed (ns on the dispatcher's clock, equal to each
    /// job's `round_closed_ns`) — the reference point for the aging floor,
    /// the hedge trigger and the recorded queue wait.
    pub(crate) closed_ns: u64,
    /// Requests in class-then-arrival order (interactive first within the
    /// round), each with its completion handle and its latency timeline
    /// as stamped through round close.
    pub(crate) jobs: Vec<TrackedJob>,
}

impl Round {
    /// Dispatch rank of the round: its class index, collapsed to the
    /// interactive rank once the round has aged past the anti-starvation
    /// floor. Lower dispatches first.
    fn effective_rank(&self, aging_ns: u64, now_ns: u64) -> usize {
        let rank = self.priority.index();
        if rank > 0 && now_ns.saturating_sub(self.closed_ns) >= aging_ns {
            0
        } else {
            rank
        }
    }

    /// Jobs no handle to this round has resolved yet.
    fn unresolved(&self) -> u64 {
        self.jobs.iter().filter(|j| !j.already_resolved()).count() as u64
    }
}

/// One queue entry: a handle to a round plus the bits that differ per
/// handle.
pub(crate) struct QueuedRound {
    pub(crate) round: Arc<Round>,
    /// Whether a hedge handle to this round has been enqueued (set on
    /// both the original and the hedge), so a round is hedged at most
    /// once.
    hedged: bool,
    /// Whether this entry *is* a hedge — wins by its jobs are counted as
    /// hedge wins.
    pub(crate) hedge: bool,
}

impl QueuedRound {
    fn new(round: Arc<Round>) -> Self {
        QueuedRound {
            round,
            hedged: false,
            hedge: false,
        }
    }
}

/// Per-shard queue state.
#[derive(Default)]
struct QueueState {
    /// The pending round: jobs homed here since its last round closed, one
    /// list per priority class. Closing drains interactive first, then
    /// standard, then batch — within a class, arrival order — so an
    /// interactive request never queues behind batch work inside its own
    /// round.
    pending: [Vec<TrackedJob>; 3],
    /// When the pending round is due: `None` while nothing is pending, or
    /// when `max_wait` is too long to put a date on — that round closes by
    /// size or flush only.
    due: Option<u64>,
    rounds: VecDeque<QueuedRound>,
    /// The lease: the round this shard's worker has checked out and when
    /// (ns), until the worker comes back for its next one. Filled and
    /// cleared by [`Core::checkout`]; taken by the recovery moves (the
    /// shard died, or held the round past
    /// [`DispatchOptions::stall_timeout`]) so a dead or stalled holder's
    /// in-hand work is requeued without its cooperation. The claim on
    /// every job keeps a late original and a requeued handle from both
    /// resolving a ticket.
    in_hand: Option<(Arc<Round>, u64)>,
    /// Set once the shard's worker died (a chaos kill or a contained
    /// panic). A dead queue is permanently empty and holds no pending
    /// round: its backlog was requeued at death, and a job [`Core::add`]
    /// homes here closes its round at once, which [`Core::push`] reroutes.
    dead: bool,
}

impl QueueState {
    /// Jobs in the pending round.
    fn pending_len(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }
}

/// What [`Core::checkout`] tells a worker to do.
pub(crate) enum Checkout {
    /// Execute this round; it is on lease until the next checkout.
    Run(QueuedRound),
    /// Nothing to run yet: park until woken (or until
    /// [`Core::next_wake_ns`], when one is set).
    Wait,
    /// Admission is closed and the steal class idle — every queue empty,
    /// no lease out — so no new work can reach this worker: exit.
    Exit,
}

/// The pending rounds, shard queues, leases and recovery state of a
/// dispatcher; see the module docs. Every method is a decision on the
/// state it is handed and the `now_ns` it is given.
pub(crate) struct Core {
    queues: Vec<QueueState>,
    /// Steal classes: shard j may steal from — and recover onto — shard k
    /// iff their engines' configurations are
    /// [`dpu_verify::steal_compatible`] (statically proven identical
    /// per-request results) — represented as the index of the first shard
    /// of the class.
    pub(crate) steal_class: Vec<usize>,
    stealing: bool,
    max_batch: usize,
    /// `None` when `max_wait` is too long to put a date on.
    max_wait_ns: Option<u64>,
    aging_ns: u64,
    stall_timeout_ns: Option<u64>,
    hedge: bool,
    /// Observed round queue waits (close → checkout, ns), feeding the
    /// hedge percentile trigger. Recorded only when hedging is on.
    waits: LatencyHistogram,
    /// Time between sweeps; a checkout runs one once `next_sweep_ns` has
    /// passed. `None` when neither stall reclaim nor hedging is on.
    tick_ns: u64,
    next_sweep_ns: Option<u64>,
    /// Whether submits are admitted; cleared once, by [`Core::close`].
    open: bool,
    /// Jobs rescued from a dead or stalled shard onto a surviving
    /// compatible one. Overlay counters — recovery moves work, it does
    /// not change any outcome, so these stay outside the per-class
    /// balance equation.
    pub(crate) recovered: u64,
    /// Jobs for which a hedge copy was enqueued on an idle
    /// identical-class shard.
    pub(crate) hedged: u64,
    /// Rounds closed because they reached `max_batch`.
    pub(crate) closed_full: u64,
    /// Rounds closed because their latency budget was spent.
    pub(crate) closed_timer: u64,
    /// Rounds closed by a flush, at the end of the stream, or at once
    /// because their home is dead.
    pub(crate) closed_flush: u64,
    wake: bool,
}

impl Core {
    /// Open, live, empty queues, one per entry of `steal_class`.
    pub(crate) fn new(steal_class: Vec<usize>, options: &DispatchOptions) -> Self {
        let hedge_wait = options.hedge.then_some(HEDGE_MIN_WAIT);
        let tick = [options.stall_timeout, hedge_wait]
            .into_iter()
            .flatten()
            .fold(Duration::from_millis(10), |t, d| t.min(d / 4))
            .max(Duration::from_micros(100));
        let sweeps = options.stall_timeout.is_some() || options.hedge;
        Core {
            queues: steal_class.iter().map(|_| QueueState::default()).collect(),
            steal_class,
            stealing: options.work_stealing,
            max_batch: options.max_batch,
            max_wait_ns: u64::try_from(options.max_wait.as_nanos()).ok(),
            aging_ns: nanos(options.priority_aging),
            stall_timeout_ns: options.stall_timeout.map(nanos),
            hedge: options.hedge,
            waits: LatencyHistogram::new(),
            tick_ns: nanos(tick),
            next_sweep_ns: sweeps.then_some(nanos(tick)),
            open: true,
            recovered: 0,
            hedged: 0,
            closed_full: 0,
            closed_timer: 0,
            closed_flush: 0,
            wake: false,
        }
    }

    /// Whether a state change since the last call needs the parked
    /// workers woken; clears the flag.
    pub(crate) fn take_wake(&mut self) -> bool {
        std::mem::take(&mut self.wake)
    }

    /// When a parked worker must come back on its own: the earliest due
    /// pending round, so that it closes on time, or the next sweep, so
    /// that its checkout runs it. `None` (wait untimed) when neither
    /// exists.
    pub(crate) fn next_wake_ns(&self) -> Option<u64> {
        let due = self.queues.iter().filter_map(|q| q.due);
        due.chain(self.next_sweep_ns).min()
    }

    /// Whether submits are admitted: until [`Core::close`].
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Whether no job is pending and no round is queued or on lease
    /// anywhere.
    pub(crate) fn is_drained(&self) -> bool {
        self.queues
            .iter()
            .all(|q| q.pending_len() == 0 && q.rounds.is_empty() && q.in_hand.is_none())
    }

    /// Appends `job`, admitted at `now_ns`, to the pending round of its
    /// home shard `home`, and closes that round at once when it is full or
    /// its home is dead. A fresh round is due `max_wait` after its first
    /// job; when that is earlier than the wake stamp the parked workers
    /// timed their waits to, they are woken to re-arm. Returns the rounds
    /// the close could not place ([`Core::push`]).
    pub(crate) fn add(&mut self, home: usize, job: TrackedJob, now_ns: u64) -> Vec<QueuedRound> {
        let q = &mut self.queues[home];
        let fresh = q.pending_len() == 0;
        q.pending[job.priority.index()].push(job);
        if q.dead {
            self.closed_flush += 1;
            return self.close_round(home, now_ns);
        }
        if q.pending_len() >= self.max_batch {
            self.closed_full += 1;
            return self.close_round(home, now_ns);
        }
        if fresh {
            let due = self.max_wait_ns.and_then(|w| now_ns.checked_add(w));
            let earlier = due.is_some_and(|due| self.next_wake_ns().is_none_or(|at| due < at));
            self.wake |= earlier;
            self.queues[home].due = due;
        }
        Vec::new()
    }

    /// Closes, at `now_ns`, every pending round due by then; returns the
    /// rounds it could not place.
    pub(crate) fn close_due(&mut self, now_ns: u64) -> Vec<QueuedRound> {
        let mut lost = Vec::new();
        for shard in 0..self.queues.len() {
            if self.queues[shard].due.is_some_and(|due| now_ns >= due) {
                self.closed_timer += 1;
                lost.extend(self.close_round(shard, now_ns));
            }
        }
        lost
    }

    /// Closes, at `now_ns`, every nonempty pending round; returns the
    /// rounds it could not place.
    pub(crate) fn flush(&mut self, now_ns: u64) -> Vec<QueuedRound> {
        let mut lost = Vec::new();
        for shard in 0..self.queues.len() {
            if self.queues[shard].pending_len() > 0 {
                self.closed_flush += 1;
                lost.extend(self.close_round(shard, now_ns));
            }
        }
        lost
    }

    /// The end of the stream: flushes at `now_ns` and closes admission,
    /// so every shard exits once its class is idle. Returns the rounds the
    /// flush could not place.
    pub(crate) fn close(&mut self, now_ns: u64) -> Vec<QueuedRound> {
        let lost = self.flush(now_ns);
        self.open = false;
        self.wake = true;
        lost
    }

    /// Closes `shard`'s pending round, which holds a job, at `now_ns` and
    /// queues it; returns what [`Core::push`] could not place.
    fn close_round(&mut self, shard: usize, now_ns: u64) -> Vec<QueuedRound> {
        let q = &mut self.queues[shard];
        let mut jobs: Vec<TrackedJob> = Vec::with_capacity(q.pending_len());
        for class in &mut q.pending {
            jobs.append(class);
        }
        q.due = None;
        let mut priority = Priority::Batch;
        for job in &mut jobs {
            job.timeline.round_closed_ns = now_ns;
            priority = priority.min(job.priority);
        }
        self.push(Round {
            home: shard,
            priority,
            closed_ns: now_ns,
            jobs,
        })
    }

    /// Queues a closed round on its home shard. When the home died after
    /// the round's jobs were routed to it, the round goes through the
    /// same requeue as [`Core::kill`]'s backlog (`home` stays, so ledger
    /// attribution is unchanged); the rounds no live same-class shard
    /// can take come back for the caller to fail.
    fn push(&mut self, round: Round) -> Vec<QueuedRound> {
        let home = round.home;
        let entry = QueuedRound::new(Arc::new(round));
        self.wake = true;
        if self.queues[home].dead {
            return self.requeue(home, vec![entry]).err().unwrap_or_default();
        }
        self.queues[home].rounds.push_back(entry);
        Vec::new()
    }

    /// Releases the round `me` holds on lease and picks its next one,
    /// running the due [`Core::sweep`] first. Selection is priority-aware
    /// on both paths:
    ///
    /// - **Own queue:** the best-ranked round, oldest first within a rank
    ///   ([`Round::effective_rank`] — interactive rounds jump ahead of
    ///   earlier-closed batch rounds, and the aging floor promotes
    ///   anything that has waited out
    ///   [`DispatchOptions::priority_aging`]).
    /// - **Stealing:** from the deepest same-class backlog, the
    ///   best-ranked round, *newest* first within a rank (the victim
    ///   drains oldest-first, so thief and victim meet in the middle).
    ///
    /// The picked round goes on lease, and its queue wait feeds the hedge
    /// trigger when hedging is on. With nothing to pick, the answer is
    /// [`Checkout::Exit`] once admission is closed and `me`'s steal class
    /// is idle — every queue in it empty, and no lease out — and
    /// [`Checkout::Wait`] before. The condition is class-wide even with stealing off —
    /// recovery and hedging requeue onto same-class peers regardless of
    /// the stealing policy — and lease-aware because a peer holding a
    /// round could still die and requeue it here. Once the class is idle
    /// no new work can materialize (every producer path starts from a
    /// queued round or a lease), so the condition is stable, and it is
    /// the same for every member: the worker whose release makes it true
    /// is the one that observes it, and it raises the wake on its way
    /// out.
    ///
    /// The released lease is usually not the last handle to its round:
    /// the worker keeps its own until it has unlocked, so a round's
    /// payloads are not freed under the lock.
    pub(crate) fn checkout(&mut self, me: usize, now_ns: u64) -> Checkout {
        self.queues[me].in_hand = None;
        if self.next_sweep_ns.is_some_and(|at| now_ns >= at) {
            self.sweep(now_ns);
        }
        let class = self.steal_class[me];
        let source = if !self.queues[me].rounds.is_empty() {
            Some(me)
        } else if self.stealing {
            (0..self.queues.len())
                .filter(|&j| j != me && self.steal_class[j] == class)
                .max_by_key(|&j| self.queues[j].rounds.len())
                .filter(|&j| !self.queues[j].rounds.is_empty())
        } else {
            None
        };
        let Some(j) = source else {
            let idle = !self.open
                && (0..self.queues.len())
                    .filter(|&j| self.steal_class[j] == class)
                    .all(|j| self.queues[j].rounds.is_empty() && self.queues[j].in_hand.is_none());
            self.wake |= idle;
            return if idle { Checkout::Exit } else { Checkout::Wait };
        };
        let aging_ns = self.aging_ns;
        let rounds = &mut self.queues[j].rounds;
        let len = rounds.len();
        let best = rounds
            .iter()
            .enumerate()
            .min_by_key(|(i, r)| {
                let tie = if j == me { *i } else { len - *i };
                (r.round.effective_rank(aging_ns, now_ns), tie)
            })
            .map(|(i, _)| i)
            .expect("nonempty queue");
        let entry = rounds.remove(best).expect("index in range");
        if self.hedge {
            let waited = now_ns.saturating_sub(entry.round.closed_ns);
            self.waits.record(waited);
        }
        self.queues[me].in_hand = Some((Arc::clone(&entry.round), now_ns));
        Checkout::Run(entry)
    }

    /// Shard `me` died (a chaos kill or a contained panic) at `now_ns`:
    /// marks it dead and moves its entire failure domain — its pending
    /// round, closed now, its queued rounds and the round on lease — onto
    /// one surviving same-class shard, in one call, so no peer can observe
    /// "class idle" between the drain and the push. Returns the rounds no
    /// survivor can take, for the caller to fail.
    ///
    /// Requeueing ignores [`DispatchOptions::work_stealing`], exactly as
    /// [`Core::push`]'s rerouting of later traffic for the dead home
    /// does: steal-class compatibility is the static proof of result
    /// identity, stealing is just a scheduling policy, and every worker's
    /// exit condition is class-wide, so the peer is still there to take
    /// the backlog.
    pub(crate) fn kill(&mut self, me: usize, now_ns: u64) -> Vec<QueuedRound> {
        self.queues[me].dead = true;
        let mut lost = Vec::new();
        if self.queues[me].pending_len() > 0 {
            self.closed_flush += 1;
            lost = self.close_round(me, now_ns);
        }
        let q = &mut self.queues[me];
        let mut stranded: Vec<QueuedRound> = q.rounds.drain(..).collect();
        if let Some((round, _)) = q.in_hand.take() {
            stranded.push(QueuedRound::new(round));
        }
        self.wake = true;
        lost.extend(self.requeue(me, stranded).err().unwrap_or_default());
        lost
    }

    /// The stalled-lease reclaim plus the hedge pass, and the next sweep
    /// stamp. Returns the jobs this sweep recovered and hedged (also added
    /// to [`Core::recovered`] and [`Core::hedged`]).
    ///
    /// - **Reclaim** (with [`DispatchOptions::stall_timeout`]): every lease
    ///   checked out at least the timeout before `now_ns` is taken out of
    ///   its slot — so each is reclaimed at most once — and a handle to
    ///   the round is requeued onto a live same-class shard. The holder is
    ///   *not* dead: it keeps running and may still resolve the round
    ///   itself; claims arbitrate. With no surviving peer the handle is
    ///   *dropped*, not failed, for the same reason.
    /// - **Hedge** (with [`DispatchOptions::hedge`]): any queued round on a
    ///   live shard that has waited past `max(observed wait at
    ///   HEDGE_QUANTILE, HEDGE_MIN_WAIT)` gets a second handle pushed to an
    ///   idle (empty-queue, live) shard of the same steal class. The
    ///   original is marked `hedged` (never hedged twice), the copy
    ///   `hedge`. A pass puts at most one hedge on each idle shard.
    pub(crate) fn sweep(&mut self, now_ns: u64) -> (u64, u64) {
        self.next_sweep_ns = self
            .next_sweep_ns
            .map(|_| now_ns.saturating_add(self.tick_ns));
        let n = self.queues.len();
        let mut recovered = 0u64;
        if let Some(timeout_ns) = self.stall_timeout_ns {
            for holder in 0..n {
                let overdue = self.queues[holder]
                    .in_hand
                    .take_if(|(_, since)| now_ns.saturating_sub(*since) >= timeout_ns);
                if let Some((round, _)) = overdue {
                    let rounds = vec![QueuedRound::new(round)];
                    recovered += self.requeue(holder, rounds).unwrap_or(0);
                }
            }
        }
        let mut hedged = 0u64;
        if self.hedge {
            // An empty histogram reads 0: the floor alone sets the trigger.
            let observed_ns = self.waits.value_at_quantile(HEDGE_QUANTILE);
            let threshold_ns = observed_ns.max(nanos(HEDGE_MIN_WAIT));
            let qs = &mut self.queues;
            let mut busy: Vec<bool> = qs.iter().map(|q| q.dead || !q.rounds.is_empty()).collect();
            for s in 0..n {
                if qs[s].dead {
                    continue;
                }
                // Plan against the immutable queue first, then apply:
                // indices stay valid because the plan only reads and the
                // apply only mutates flags and *other* shards' queues.
                let mut plan: Vec<(usize, usize)> = Vec::new();
                for (i, r) in qs[s].rounds.iter().enumerate() {
                    let waited_ns = now_ns.saturating_sub(r.round.closed_ns);
                    if r.hedged || r.hedge || waited_ns < threshold_ns {
                        continue;
                    }
                    let class = self.steal_class[s];
                    let Some(t) =
                        (0..n).find(|&t| t != s && !busy[t] && self.steal_class[t] == class)
                    else {
                        break; // no idle same-class peer left this pass
                    };
                    busy[t] = true;
                    plan.push((i, t));
                }
                for (i, t) in plan {
                    let original = &mut qs[s].rounds[i];
                    original.hedged = true;
                    let copy = QueuedRound {
                        round: Arc::clone(&original.round),
                        hedged: true,
                        hedge: true,
                    };
                    hedged += copy.round.unresolved();
                    qs[t].rounds.push_back(copy);
                    self.wake = true;
                }
            }
        }
        self.hedged += hedged;
        (recovered, hedged)
    }

    /// Pushes the still-unresolved `rounds` onto the first live shard of
    /// `from`'s steal class other than `from` — the only requeue target
    /// statically proven result-identical — and adds them to
    /// [`Core::recovered`]. Returns the recovered job count (jobs not
    /// already resolved through another handle), or the rounds back when
    /// no such shard exists, so the caller can pick its no-survivor policy
    /// (fail vs. drop).
    fn requeue(&mut self, from: usize, rounds: Vec<QueuedRound>) -> Result<u64, Vec<QueuedRound>> {
        let class = self.steal_class[from];
        let target = (0..self.queues.len())
            .find(|&t| t != from && !self.queues[t].dead && self.steal_class[t] == class);
        let Some(t) = target else {
            return Err(rounds);
        };
        let mut recovered = 0u64;
        for round in rounds {
            let unresolved = round.round.unresolved();
            if unresolved > 0 {
                recovered += unresolved;
                self.queues[t].rounds.push_back(round);
            }
        }
        self.recovered += recovered;
        self.wake |= recovered > 0;
        Ok(recovered)
    }
}

/// Shed-before-queue: a request with a deadline (`deadline_ns != 0`, 0
/// meaning none) is shed at the door when the live queueing + service
/// estimate already projects its completion past the deadline — a round
/// slot is not spent on a result nobody can use in time.
///
/// The estimates are counters every shard writes on each completion, so
/// `projected_ns` is read only for a request that has a deadline.
pub(crate) fn shed_at_ingest(
    deadline_ns: u64,
    projected_ns: impl FnOnce() -> u64,
) -> Option<ShedReason> {
    if deadline_ns == 0 {
        return None;
    }
    let projected_ns = projected_ns();
    (projected_ns > deadline_ns).then_some(ShedReason::DeadlineUnmeetable {
        projected_ns,
        deadline_ns,
    })
}

/// The last-chance check at execute-start `now_ns`: a job whose deadline
/// passed in queue, or whose remaining service estimate no longer fits
/// it, is shed instead of executed. As at ingest, the estimate is read
/// only for a job that has a deadline.
pub(crate) fn shed_at_execute(
    deadline_ns: u64,
    now_ns: u64,
    service_estimate_ns: impl FnOnce() -> u64,
) -> Option<ShedReason> {
    if deadline_ns == 0 {
        return None;
    }
    let late = now_ns.saturating_add(service_estimate_ns()) > deadline_ns;
    late.then_some(ShedReason::DeadlineExpired {
        now_ns,
        deadline_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagKey;

    const MS: u64 = 1_000_000;

    fn job() -> TrackedJob {
        TrackedJob::new(
            Request::new(DagKey(1), Vec::new()),
            TicketState::new(),
            Priority::Standard,
            Timeline::default(),
        )
    }

    /// A one-job round homed on `home`, closed at `closed_ns`.
    fn round(home: usize, closed_ns: u64) -> Round {
        Round {
            home,
            priority: Priority::Standard,
            closed_ns,
            jobs: vec![job()],
        }
    }

    /// `n` shards of one steal class.
    fn core(n: usize, options: DispatchOptions) -> Core {
        Core::new(vec![0; n], &options)
    }

    fn run(checkout: Checkout) -> QueuedRound {
        match checkout {
            Checkout::Run(entry) => entry,
            Checkout::Wait => panic!("expected a round, got Wait"),
            Checkout::Exit => panic!("expected a round, got Exit"),
        }
    }

    fn leased(core: &Core, shard: usize) -> Option<&Arc<Round>> {
        core.queues[shard].in_hand.as_ref().map(|(r, _)| r)
    }

    #[test]
    fn checkout_fills_the_lease_slot_and_the_next_call_releases_it() {
        let mut core = core(1, DispatchOptions::default());
        assert!(core.push(round(0, 0)).is_empty());
        assert!(core.push(round(0, 0)).is_empty());
        let (r1, r2) = {
            let q = &core.queues[0].rounds;
            (Arc::clone(&q[0].round), Arc::clone(&q[1].round))
        };

        let got = run(core.checkout(0, 1));
        assert!(Arc::ptr_eq(&got.round, &r1));
        assert!(Arc::ptr_eq(leased(&core, 0).expect("r1 on lease"), &r1));

        // One call releases r1 and leases r2: nobody can observe the slot
        // empty in between, and nothing copied the round.
        let got = run(core.checkout(0, 2));
        assert!(Arc::ptr_eq(&got.round, &r2));
        assert!(Arc::ptr_eq(leased(&core, 0).expect("r2 on lease"), &r2));

        assert!(core.close(3).is_empty());
        assert!(matches!(core.checkout(0, 3), Checkout::Exit));
        assert!(leased(&core, 0).is_none());
        assert!(core.is_drained());
    }

    #[test]
    fn stall_reclaim_takes_a_lease_once_and_releases_touch_only_the_own_slot() {
        let mut core = core(
            2,
            DispatchOptions {
                work_stealing: false,
                stall_timeout: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        core.push(round(0, 0));
        let original = run(core.checkout(0, 0));

        // Shard 0 stalls: the sweep moves a handle to its round onto
        // shard 1, exactly once.
        assert_eq!(core.sweep(0), (1, 0));
        assert_eq!(core.sweep(0), (0, 0));
        assert!(leased(&core, 0).is_none());
        assert_eq!(core.queues[1].rounds.len(), 1);

        let requeued = run(core.checkout(1, 0));
        assert!(Arc::ptr_eq(&requeued.round, &original.round));

        // The stalled holder comes back: its release is a no-op on its
        // own (already taken) slot and cannot clear shard 1's newer lease
        // on the same round.
        core.push(round(0, 0));
        let next = run(core.checkout(0, 0));
        assert!(!Arc::ptr_eq(&next.round, &original.round));
        let still = leased(&core, 1).expect("still leased");
        assert!(Arc::ptr_eq(still, &original.round));

        // Two handles, one job: exactly one of them resolves it.
        assert!(requeued.round.jobs[0].claim());
        assert!(!original.round.jobs[0].claim());
    }

    #[test]
    fn an_idle_worker_waits_out_a_same_class_lease() {
        for stealing in [true, false] {
            let mut core = core(
                2,
                DispatchOptions {
                    work_stealing: stealing,
                    ..Default::default()
                },
            );
            core.push(round(1, 0));
            let held = run(core.checkout(1, 0));
            assert!(core.close(0).is_empty());
            core.take_wake();

            // Shard 0's own queue is closed and empty, but shard 1 could
            // still die and requeue its in-hand round here.
            assert!(
                matches!(core.checkout(0, 1), Checkout::Wait),
                "stealing {stealing}: exited while a peer held a lease"
            );
            assert!(!core.take_wake());
            // Shard 1 comes back: its release idles the class, it exits
            // and asks for the parked peer to be woken, which exits too.
            assert!(matches!(core.checkout(1, 2), Checkout::Exit));
            assert!(core.take_wake());
            assert!(matches!(core.checkout(0, 3), Checkout::Exit));
            drop(held);
        }
    }

    /// One class of three shards on a virtual clock: a steal, a kill whose
    /// backlog is requeued, a hedge placed only once a round has waited
    /// `HEDGE_MIN_WAIT`, and a stall reclaim only once a lease has been out
    /// `stall_timeout`. A worker "finishes" its round — claims its jobs —
    /// when it next checks out; the dead worker never does. Every job's
    /// claim is won exactly once.
    #[test]
    fn a_virtual_clock_script_steals_kills_hedges_and_reclaims_each_job_once() {
        let mut core = core(
            3,
            DispatchOptions {
                stall_timeout: Some(Duration::from_millis(10)),
                hedge: true,
                ..Default::default()
            },
        );
        let mut held: [Option<QueuedRound>; 3] = [None, None, None];
        let mut wins = 0u64;
        let mut hedge_wins = 0u64;
        let mut checkout = |core: &mut Core, w: usize, now_ns: u64| {
            if let Some(done) = held[w].take() {
                let won = done.round.jobs.iter().filter(|j| j.claim()).count() as u64;
                wins += won;
                hedge_wins += if done.hedge { won } else { 0 };
            }
            let got = core.checkout(w, now_ns);
            if let Checkout::Run(entry) = &got {
                held[w] = Some(QueuedRound {
                    round: Arc::clone(&entry.round),
                    hedged: entry.hedged,
                    hedge: entry.hedge,
                });
            }
            got
        };
        for _ in 0..3 {
            core.push(round(0, 0));
        }
        let queued: Vec<Arc<Round>> = core.queues[0]
            .rounds
            .iter()
            .map(|q| Arc::clone(&q.round))
            .collect();
        let [a, b, c] = [&queued[0], &queued[1], &queued[2]];

        // Shard 0 takes its oldest round; shard 1 steals the newest.
        assert!(Arc::ptr_eq(&run(checkout(&mut core, 0, MS)).round, a));
        assert!(Arc::ptr_eq(&run(checkout(&mut core, 1, MS)).round, c));

        // Shard 1 dies holding `c`: it goes back to shard 0, the first
        // live shard of the class.
        assert!(core.kill(1, 2 * MS).is_empty());
        assert_eq!(core.recovered, 1);
        assert_eq!(core.queues[0].rounds.len(), 2);

        // Shard 2 steals `c` back from shard 0's queue.
        assert!(Arc::ptr_eq(&run(checkout(&mut core, 2, 3 * MS)).round, c));

        // `b` has waited just under `HEDGE_MIN_WAIT`: no hedge. At it, `b`
        // is hedged onto shard 2, whose queue is empty.
        assert_eq!(core.sweep(5 * MS - 1), (0, 0));
        assert_eq!(core.sweep(5 * MS), (0, 1));
        assert_eq!(core.queues[2].rounds.len(), 1);
        assert!(core.queues[2].rounds[0].hedge);

        // Shard 0 has held `a` since 1 ms: not reclaimed a nanosecond
        // before `stall_timeout`, reclaimed at it, onto shard 2.
        assert_eq!(core.sweep(11 * MS - 1), (0, 0));
        assert_eq!(core.sweep(11 * MS), (1, 0));
        assert!(leased(&core, 0).is_none());

        // Shard 2 finishes `c`, then runs the hedge copy of `b`, then `a`.
        let hedge_copy = run(checkout(&mut core, 2, 12 * MS));
        assert!(Arc::ptr_eq(&hedge_copy.round, b) && hedge_copy.hedge);
        assert!(Arc::ptr_eq(&run(checkout(&mut core, 2, 12 * MS)).round, a));

        // The stalled shard 0 comes back and finishes `a` before shard 2
        // does; its original handle to `b` finds the job already claimed,
        // and so does shard 2's late copy of `a`.
        let original = run(checkout(&mut core, 0, 13 * MS));
        assert!(Arc::ptr_eq(&original.round, b) && !original.hedge);

        assert!(core.close(14 * MS).is_empty());
        assert!(matches!(checkout(&mut core, 0, 14 * MS), Checkout::Wait));
        assert!(matches!(checkout(&mut core, 2, 14 * MS), Checkout::Exit));
        assert!(matches!(checkout(&mut core, 0, 14 * MS), Checkout::Exit));
        assert!(core.is_drained());

        assert_eq!(wins, 3, "each job's claim is won exactly once");
        assert_eq!(hedge_wins, 1);
        assert!(queued.iter().all(|r| r.jobs[0].already_resolved()));
        assert_eq!((core.recovered, core.hedged), (2, 1));
    }

    #[test]
    fn a_dead_home_reroutes_a_pushed_round_or_hands_it_back() {
        let mut pair = core(2, DispatchOptions::default());
        assert!(pair.kill(0, 0).is_empty());
        assert!(pair.push(round(0, 0)).is_empty());
        assert_eq!((pair.queues[1].rounds.len(), pair.recovered), (1, 1));

        let mut alone = core(1, DispatchOptions::default());
        assert!(alone.kill(0, 0).is_empty());
        assert_eq!(alone.push(round(0, 0)).len(), 1);
        assert_eq!(alone.recovered, 0);
    }

    #[test]
    fn checkout_runs_the_sweep_once_its_tick_has_passed() {
        // Tick: a quarter of the stall timeout, 1 ms.
        let mut core = core(
            2,
            DispatchOptions {
                stall_timeout: Some(Duration::from_millis(4)),
                ..Default::default()
            },
        );
        assert_eq!(core.next_wake_ns(), Some(MS));
        core.push(round(0, 0));
        let _stalled = run(core.checkout(0, 0));
        assert!(core.take_wake(), "a push wakes the parked workers");
        assert!(matches!(core.checkout(1, 4 * MS - 1), Checkout::Wait));
        assert_eq!(core.next_wake_ns(), Some(5 * MS - 1));
        assert!(matches!(core.checkout(1, 5 * MS - 2), Checkout::Wait));
        assert!(!core.take_wake(), "a sweep that moved nothing wakes nobody");
        let reclaimed = run(core.checkout(1, 5 * MS - 1));
        assert_eq!(core.recovered, 1);
        assert!(core.take_wake());
        drop(reclaimed);

        let untimed = Core::new(vec![0], &DispatchOptions::default());
        assert_eq!(untimed.next_wake_ns(), None);
    }

    #[test]
    fn a_max_wait_of_duration_max_never_puts_a_due_stamp_on_a_round() {
        let endless = DispatchOptions {
            max_batch: 2,
            max_wait: Duration::MAX,
            ..Default::default()
        };
        let mut alone = core(1, endless);
        assert!(alone.add(0, job(), 5).is_empty());
        assert_eq!(alone.next_wake_ns(), None);
        assert!(!alone.take_wake(), "no due stamp, no timer to re-arm");
        assert!(alone.close_due(u64::MAX).is_empty());
        assert!(alone.add(0, job(), 6).is_empty(), "full at max_batch");
        let full = run(alone.checkout(0, 7));
        assert_eq!((full.round.jobs.len(), full.round.closed_ns), (2, 6));
        assert!(full
            .round
            .jobs
            .iter()
            .all(|j| j.timeline.round_closed_ns == 6));
        assert!(alone.flush(7).is_empty());
        assert_eq!(
            (alone.closed_full, alone.closed_timer, alone.closed_flush),
            (1, 0, 0)
        );

        let mut pair = core(
            2,
            DispatchOptions {
                max_batch: 8,
                ..Default::default()
            },
        );
        pair.add(1, job(), 5);
        pair.add(1, job(), 9);
        assert_eq!(pair.next_wake_ns(), Some(MS + 5));
        assert!(pair.close_due(MS + 4).is_empty());
        assert!(pair.queues[1].rounds.is_empty());
        assert!(pair.close_due(MS + 5).is_empty());
        let due = run(pair.checkout(1, MS + 6));
        assert_eq!((due.round.home, due.round.jobs.len()), (1, 2));
        assert_eq!(pair.next_wake_ns(), None);
    }

    #[test]
    fn a_round_packs_interactive_jobs_first_and_takes_their_class() {
        let mut core = core(
            1,
            DispatchOptions {
                max_batch: 3,
                ..Default::default()
            },
        );
        for priority in [Priority::Batch, Priority::Interactive] {
            let mut j = job();
            j.priority = priority;
            assert!(core.add(0, j, 1).is_empty());
        }
        assert!(core.queues[0].rounds.is_empty());
        assert!(core.add(0, job(), 2).is_empty());
        let full = run(core.checkout(0, 3));
        let order: Vec<Priority> = full.round.jobs.iter().map(|j| j.priority).collect();
        let want = [Priority::Interactive, Priority::Standard, Priority::Batch];
        assert_eq!(order, want);
        assert_eq!(full.round.priority, Priority::Interactive);
    }

    /// Admission's side of the core on a virtual clock: the wake rule, and
    /// a round closed by each of its three causes, each counted once.
    #[test]
    fn pending_rounds_close_by_size_timer_and_flush_and_wake_only_an_early_timer() {
        let mut core = core(
            2,
            DispatchOptions {
                max_batch: 3,
                ..Default::default()
            },
        );
        // The first add dates a round where no wake stamp was: the parked
        // workers must re-arm. A second add to it changes no stamp.
        assert!(core.add(0, job(), 10).is_empty());
        assert!(core.take_wake());
        assert_eq!(core.next_wake_ns(), Some(MS + 10));
        assert!(core.add(0, job(), 20).is_empty());
        assert!(!core.take_wake());
        // A round due after the earliest stamp needs no re-arm either.
        assert!(core.add(1, job(), 30).is_empty());
        assert!(!core.take_wake());
        assert_eq!(core.next_wake_ns(), Some(MS + 10));

        // Timer: nothing closes before the due stamp; at it, shard 0's
        // round does, and is queued.
        assert!(core.close_due(MS + 9).is_empty());
        assert!(matches!(core.checkout(0, MS + 9), Checkout::Wait));
        assert!(core.close_due(MS + 10).is_empty());
        assert!(core.take_wake(), "a closed round wakes the parked workers");
        assert_eq!(
            (core.closed_full, core.closed_timer, core.closed_flush),
            (0, 1, 0)
        );
        assert_eq!(core.next_wake_ns(), Some(MS + 30));
        let timed = run(core.checkout(0, MS + 11));
        assert_eq!(timed.round.jobs.len(), 2);

        // Size: shard 1's round fills before it is due.
        assert!(core.add(1, job(), 40).is_empty());
        assert!(core.add(1, job(), 50).is_empty());
        assert_eq!(
            (core.closed_full, core.closed_timer, core.closed_flush),
            (1, 1, 0)
        );
        assert_eq!(core.next_wake_ns(), None);
        let full = run(core.checkout(1, 60));
        assert_eq!(full.round.jobs.len(), 3);

        // Flush: whatever is pending closes now, and nothing else does.
        assert!(core.add(1, job(), 70).is_empty());
        assert!(core.flush(80).is_empty());
        assert_eq!(
            (core.closed_full, core.closed_timer, core.closed_flush),
            (1, 1, 1)
        );
        assert!(core.flush(90).is_empty());
        assert_eq!(core.closed_flush, 1);
        let flushed = run(core.checkout(1, 90));
        assert_eq!((flushed.round.jobs.len(), flushed.round.closed_ns), (1, 80));
        assert_eq!(core.next_wake_ns(), None);

        // A dead home holds no pending round: its job's round closes at
        // once and is rerouted to the survivor.
        assert!(flushed.round.jobs[0].claim(), "shard 1 finished its round");
        assert!(core.kill(1, 100).is_empty());
        assert!(core.add(1, job(), 110).is_empty());
        assert_eq!((core.closed_flush, core.recovered), (2, 1));
        assert_eq!(run(core.checkout(0, 120)).round.home, 1);

        // A due stamp after the next sweep needs no re-arm: the parked
        // workers come back for the sweep first.
        let mut swept = Core::new(
            vec![0],
            &DispatchOptions {
                stall_timeout: Some(Duration::from_millis(4)),
                ..Default::default()
            },
        );
        assert!(swept.add(0, job(), 5).is_empty());
        assert!(!swept.take_wake());
        assert_eq!(swept.next_wake_ns(), Some(MS));
    }

    #[test]
    fn the_two_shed_rules_compare_against_the_deadline_strictly() {
        // 0 is no deadline, and then the shared estimate is not read.
        let unread = || -> u64 { panic!("estimate read without a deadline") };
        assert_eq!(shed_at_ingest(0, unread), None);
        assert_eq!(shed_at_ingest(10, || 10), None);
        assert_eq!(
            shed_at_ingest(10, || 11),
            Some(ShedReason::DeadlineUnmeetable {
                projected_ns: 11,
                deadline_ns: 10
            })
        );
        assert_eq!(shed_at_execute(0, u64::MAX, unread), None);
        assert_eq!(shed_at_execute(10, 4, || 6), None);
        assert_eq!(
            shed_at_execute(10, 4, || 7),
            Some(ShedReason::DeadlineExpired {
                now_ns: 4,
                deadline_ns: 10
            })
        );
        assert!(shed_at_execute(10, u64::MAX, || 1).is_some(), "saturates");
    }

    /// The steal-then-shed schedule, step by step on a virtual clock, in
    /// both orders two threads can run it. Home (shard 0) holds `busy_home`
    /// and the `doomed` round, whose deadline is 20 ms; its peer holds
    /// `busy_other`; each shard admits at most two requests.
    ///
    /// - The peer finishes first, past the deadline, and steals `doomed`
    ///   off home's backlog: the thief sheds it.
    /// - The peer steals `busy_home` before home's worker wakes: home
    ///   checks out `doomed` itself and sheds it after its own stall.
    ///
    /// Either way the shed is a `DeadlineExpired`, written to the ledger
    /// against the round's home: home's depth slot is released, so home
    /// admits again, and the peer's is untouched.
    #[test]
    fn a_stolen_round_past_its_deadline_is_shed_against_its_home() {
        use crate::ingest::{Admission, Entry, Outcome, Ticket};

        let (home, peer) = (0, 1);
        let deadline_ns = 20 * MS;
        for thief_steals_doomed in [true, false] {
            let admission = Admission::new(2, Some(2), Duration::from_millis(1));
            let mut core = core(2, DispatchOptions::default());
            let doomed_ticket = TicketState::new();
            let admit =
                |core: &mut Core, shard: usize, ticket: Arc<TicketState>, deadline_ns: u64| {
                    assert!(admission.admit(shard));
                    let timeline = Timeline {
                        deadline_ns,
                        ..Timeline::default()
                    };
                    let request = Request::new(DagKey(shard as u64), Vec::new());
                    let job = TrackedJob::new(request, ticket, Priority::Standard, timeline);
                    core.push(Round {
                        home: shard,
                        priority: Priority::Standard,
                        closed_ns: 0,
                        jobs: vec![job],
                    });
                };

            // Who sheds `doomed`, and at which stamp.
            let (shedder, now_ns, entry) = if thief_steals_doomed {
                admit(&mut core, home, TicketState::new(), 0);
                admit(&mut core, home, Arc::clone(&doomed_ticket), deadline_ns);
                admit(&mut core, peer, TicketState::new(), 0);
                // Home takes `busy_home`, the peer `busy_other`; the peer
                // finishes at 50 ms and its next checkout steals `doomed`.
                let busy_home = run(core.checkout(home, MS));
                assert_eq!(busy_home.round.jobs[0].timeline.deadline_ns, 0);
                run(core.checkout(peer, MS));
                let stolen = run(core.checkout(peer, 50 * MS));
                (peer, 50 * MS, stolen)
            } else {
                admit(&mut core, home, TicketState::new(), 0);
                // The idle peer steals `busy_home` before home wakes.
                let stolen = run(core.checkout(peer, MS));
                assert_eq!(stolen.round.home, home);
                admit(&mut core, home, Arc::clone(&doomed_ticket), deadline_ns);
                admit(&mut core, peer, TicketState::new(), 0);
                // Home's first checkout is `doomed`, from its own queue;
                // its stall ends at 240 ms, when it stamps execute-start.
                let own = run(core.checkout(home, 2 * MS));
                (home, 240 * MS, own)
            };
            assert!(Arc::ptr_eq(&entry.round.jobs[0].ticket, &doomed_ticket));
            assert_eq!(entry.round.home, home, "stealing keeps the round's home");
            assert_eq!(admission.in_flight(), 3);

            // The shard's pass-1 decision, then what `resolve` does with
            // it: claim, and fulfil with the ledger write against the
            // round's home.
            let job = &entry.round.jobs[0];
            let reason = shed_at_execute(job.timeline.deadline_ns, now_ns, || 0);
            let expected = ShedReason::DeadlineExpired {
                now_ns,
                deadline_ns,
            };
            assert_eq!(reason, Some(expected), "shed by shard {shedder}");
            assert!(job.claim());
            let outcome = Outcome::Shed { reason: expected };
            job.ticket.fulfill(outcome, job.timeline, |outcome| {
                admission.resolved(job.priority.index(), entry.round.home, outcome);
            });

            match Ticket::new(doomed_ticket).wait() {
                Outcome::Shed { reason } => assert_eq!(reason, expected),
                other => panic!("expected a DeadlineExpired shed, got {other:?}"),
            }
            assert_eq!(admission.total(Entry::ShedExpired), 1);
            assert_eq!(admission.in_flight(), 2);
            // Home's slot came back: it admits one more, then is full. The
            // peer still holds `busy_other`'s slot: one more fills it too.
            assert!(admission.admit(home) && !admission.admit(home));
            assert!(admission.admit(peer) && !admission.admit(peer));
        }
    }
}
