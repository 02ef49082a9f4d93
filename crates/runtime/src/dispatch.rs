//! Sharded dispatcher: continuous ingestion, adaptive round closing,
//! key-affinity routing and work stealing.
//!
//! The [`Dispatcher`] is the layer above the engines and the runtime's
//! one serving stack: it accepts requests **continuously** through
//! [`Submitter`] handles and serves them across `N` shards
//! ([`Engine::serve`] is a dispatcher fed a pre-collected slice, flushed
//! and waited). Each shard is a simulated DPU-v2 [`Engine`] — replicas of
//! one [`ArchConfig`], or distinct configuration points ([`engine_shards`]
//! over a list of configs, passed to [`Dispatcher::new`]). The engines own
//! their settings ([`EngineOptions`]: the modelled cores a shard prices its
//! rounds on, the program store's spill directory); the [`DispatchOptions`]
//! hold only how requests are batched, routed and recovered.
//!
//! **Decisions and threads.** Every scheduling decision below — round
//! closing, routing of a round around a dead home, pop, steal, lease,
//! recovery, stall reclaim and hedging — is made by the clock-free `Core`
//! in `sched.rs`, under the one queues lock. Admission has no thread of
//! its own: [`Submitter::submit_with`](crate::Submitter::submit_with)
//! takes the lock and adds its job to its home's pending round, closing
//! the rounds that are full or due. This file holds the threads: one
//! worker per shard, `shards` per dispatcher. They read the [`Clock`],
//! lock, close the due rounds and check out the next one, unlock, run
//! rounds on the shard's engine outside the lock, resolve tickets and
//! wake parked workers when the core asks for it. A parked worker's wait
//! is timed to the core's next wake stamp — the next due round, or the
//! next sweep when stall reclaim or hedging is configured — so a round
//! closes by its timer, and a sweep runs, at that worker's checkout; with
//! neither pending, the wait is untimed. When every worker is busy and no
//! submit arrives, a due round closes at the next checkout — the earliest
//! it could run anyway — so its batching delay can exceed
//! [`DispatchOptions::max_wait`] by exactly what its queue wait loses.
//!
//! - **One program store.** The engine shards of a dispatcher
//!   ([`engine_shards`]) share one [`ProgramStore`]:
//!   a DAG is registered, compiled and decoded once per dispatcher — by
//!   whichever shard touches it first — and every other shard, home or
//!   thief, serves from the same `Arc`s.
//! - **Routing.** Each request's [`DagKey`] fingerprint picks a *home
//!   shard* ([`home_shard`]), so repeat traffic for a DAG lands in the
//!   same shard's rounds. With one store the affinity is no longer about
//!   who holds the compiled program; what routing by key still buys is
//!   *lane grouping*: a round runs one
//!   pre-decoded program over all of its same-key requests, eight input
//!   sets per pass, so the fewer distinct keys a round holds
//!   (`groups_per_round`) the fewer passes it costs.
//! - **Adaptive round closing.** Each shard's pending requests accumulate
//!   into a *round* that closes when it reaches
//!   [`DispatchOptions::max_batch`] requests **or** its oldest request has
//!   waited [`DispatchOptions::max_wait`] — whichever comes first. Bursts
//!   get full rounds; trickles get bounded latency.
//! - **Work stealing.** An idle shard steals the most recently queued
//!   round from the deepest backlog among shards in the same *steal
//!   class*: shards whose engines' configurations are
//!   [`dpu_verify::steal_compatible`] — equal on every field code
//!   generation reads, so statically proven to produce byte-identical
//!   results. Stealing across distinct classes would change per-request
//!   results, breaking determinism. The thief finds the victim's program
//!   in the shared store: a steal costs no compile and no decode.
//! - **Overload protection.** Admission is bounded per home shard
//!   ([`DispatchOptions::queue_capacity`]): a full queue rejects at the
//!   submission edge with
//!   [`SubmitRejection::WouldBlock`](crate::SubmitRejection) instead of
//!   queueing without bound. Requests may carry a deadline and a
//!   [`Priority`](crate::Priority): a deadline the live queueing estimate proves
//!   unmeetable is shed *before* execution (the ticket resolves to
//!   [`Outcome::Shed`](crate::Outcome)), interactive rounds preempt
//!   batch rounds in packing, dispatch, and stealing, and an aging floor
//!   ([`DispatchOptions::priority_aging`]) keeps batch work from
//!   starving. [`DispatchReport::classes`] is the honest per-class
//!   ledger: `offered == completed + failed + shed + rejected`, always.
//! - **Failure containment and recovery — for every dispatcher.** A
//!   closed round is immutable and shared (`Arc`); every job in it
//!   carries an inline one-shot claim, won at the one place a ticket
//!   resolves — for a shed, a completion or a failure alike — before
//!   the ticket, the ledger or the admission depth is touched, and the round a
//!   worker has checked out stays visible in its shard's queue slot (the
//!   *lease*) until the worker comes back for the next one. A shard dies
//!   one way: a panic out of its engine, caught where the round executes
//!   — a scripted kill ([`DispatchOptions::chaos`], a seeded
//!   [`ChaosPlan`]) raises one there too. The jobs already handed to the
//!   engine fail [`ServeError::ShardLost`] (a round that panics is never
//!   retried: it could kill every peer in turn), and the dead shard's
//!   pending and queued backlog is requeued onto a surviving same-class
//!   shard, as is every later round homed on it (the
//!   moves `steal_compatible` statically proves result-identical);
//!   [`DispatchOptions::stall_timeout`] reclaims a
//!   straggler's in-hand round the same way (at the sweep a checkout runs),
//!   and optional hedging
//!   ([`DispatchOptions::hedge`]) enqueues a second handle to a
//!   straggling round on an idle identical-class shard — first completion
//!   per job wins its claim, the loser is discarded *before* ticket
//!   fulfilment. No accepted ticket is ever lost or fulfilled twice, and
//!   surviving results stay byte-identical to a serial pass.
//!   [`DispatchReport::recovered`] / [`DispatchReport::hedged`] /
//!   [`DispatchReport::hedge_wins`] report the recovery traffic.
//! - **Closed-loop latency accounting.** Every ticketed request carries a
//!   [`Timeline`] through the path (arrival → accepted →
//!   round-closed → execute-start → completed, monotonic ns from the
//!   dispatcher's epoch), from which queueing delay, batching delay and
//!   service time derive. Each shard records completed timelines into a
//!   [`LatencyReport`] of mergeable histograms;
//!   [`DispatchReport::latency`] is their order-independent merge over
//!   the shards, and every [`Ticket`](crate::Ticket) exposes its
//!   own timeline on completion
//!   ([`Ticket::wait_detailed`](crate::Ticket::wait_detailed)).
//! - **Deterministic, loss-free shutdown.** Every request accepted by
//!   [`Submitter::submit`] is executed and its [`Ticket`](crate::Ticket)
//!   fulfilled before [`Dispatcher::shutdown`] returns; per-request
//!   results are byte-identical to a serial pass regardless of shard
//!   count, stealing, or timing (a request's result depends only on its
//!   engine's configuration, its program, and its inputs).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dpu_compiler::CompileOptions;
use dpu_dag::Dag;
use dpu_isa::ArchConfig;
use dpu_sim::Machine;

use crate::chaos::ChaosPlan;
use crate::ingest::{Admission, Entry, Outcome, Submitter};
use crate::latency::{Clock, LatencyReport, Timeline};
use crate::planner::plan_rounds;
use crate::pool::{Engine, EngineOptions, ProgramStore, Request, ServeError};
use crate::report::{ClassReport, DispatchReport, ShardReport};
use crate::sched::{shed_at_execute, Checkout, Core, QueuedRound, TrackedJob};
use crate::wake::Waiters;
use crate::{dag_fingerprint, DagKey};

/// Scheduling knobs of a [`Dispatcher`]: batching, routing, admission and
/// recovery. What a shard models and where its programs live are its
/// engine's ([`EngineOptions`]). None of them selects a different
/// dispatcher: claims, leases and dead-shard recovery are always on;
/// `chaos` is a script, `hedge` a policy, `stall_timeout` a timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchOptions {
    /// Number of engine shards: how many replicas
    /// `dpu_core::Dpu::dispatcher` builds. [`Dispatcher::new`] sets it to
    /// the engines it is given.
    pub shards: usize,
    /// Close a shard's pending round once it holds this many requests.
    pub max_batch: usize,
    /// ... or once its oldest request has waited this long (the latency
    /// budget), whichever comes first.
    pub max_wait: Duration,
    /// Allow idle shards to steal queued rounds from same-class shards.
    pub work_stealing: bool,
    /// Bounded admission: maximum accepted-but-unresolved requests per
    /// home shard. A submit against a full home-shard queue fails fast
    /// with [`SubmitRejection::WouldBlock`](crate::SubmitRejection) and a
    /// retry hint instead of growing the pending rounds without bound.
    /// `None` (the default) keeps admission unbounded.
    pub queue_capacity: Option<usize>,
    /// Anti-starvation floor for priority scheduling: a queued round of
    /// any class is treated as
    /// [`Priority::Interactive`](crate::Priority::Interactive) once it has
    /// waited this long, so sustained interactive load can delay
    /// [`Priority::Batch`](crate::Priority::Batch) work but never starve it
    /// forever.
    pub priority_aging: Duration,
    /// Deterministic failure script ([`ChaosPlan`]): kill or stall
    /// specific shards at specific points. `None` (the default) injects
    /// nothing; the claims, leases and recovery the script exercises are
    /// the ones every dispatcher runs with.
    pub chaos: Option<ChaosPlan>,
    /// Straggler hedging: enqueue a second handle to a round that has
    /// waited past the 95th percentile of observed queue waits, and at
    /// least 5 ms, on an idle identical-class shard (the round is shared,
    /// not copied); first completion per job wins. `false` (the default)
    /// never hedges.
    pub hedge: bool,
    /// Stalled-shard detection: a round checked out by a worker for
    /// longer than this is presumed stalled and its lease is reclaimed —
    /// a second handle to the round is requeued on a surviving
    /// same-class shard while the original worker keeps running
    /// (whichever finishes a job first wins its claim). `None` (the
    /// default) never reclaims.
    pub stall_timeout: Option<Duration>,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions {
            shards: 2,
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            work_stealing: true,
            queue_capacity: None,
            priority_aging: Duration::from_millis(20),
            chaos: None,
            hedge: false,
            stall_timeout: None,
        }
    }
}

/// The home shard of a DAG key among `shards` shards — the
/// affinity half of the routing policy. [`DagKey`] is already a
/// structural hash, so a plain modulus spreads distinct DAGs uniformly.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn home_shard(key: DagKey, shards: usize) -> usize {
    assert!(shards > 0, "shards must be positive");
    (key.0 % shards as u64) as usize
}

/// The engine shards of a dispatcher: one [`Engine`] per entry of
/// `configs`, siblings over **one** program store ([`Engine::sharing`]),
/// all built with `options` — the modelled cores each shard prices its
/// rounds on, and the store's spill directory. Pass them to
/// [`Dispatcher::new`]: replicas of one config, or distinct configuration
/// points.
pub fn engine_shards(
    configs: &[ArchConfig],
    compile_opts: CompileOptions,
    options: &EngineOptions,
) -> Vec<Engine> {
    let Some((&first, rest)) = configs.split_first() else {
        return Vec::new();
    };
    let first = Engine::new(first, compile_opts, options.clone());
    let mut shards: Vec<Engine> = rest.iter().map(|&config| first.sharing(config)).collect();
    shards.insert(0, first);
    shards
}

/// The shared queue fabric: one lock over the scheduling [`Core`], so
/// admission, round closing, stealing, recovery, shutdown and the exit
/// condition need no lock ordering; one condvar, signalled — when a worker
/// is parked on it — whenever a core call raises its wake flag (a round
/// queued, a fresh due stamp, the end of admission, a death, a sweep that
/// moved rounds, a steal class going idle).
pub(crate) struct Queues {
    core: Mutex<Core>,
    work: Waiters,
}

impl Queues {
    pub(crate) fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("queues poisoned")
    }

    /// Releases `core`, waking every parked worker if a call made under
    /// this acquisition asked for it.
    pub(crate) fn unlock(&self, mut core: MutexGuard<'_, Core>) {
        if core.take_wake() {
            self.work.wake_all(core);
        }
    }
}

/// The serving window: first accepted request → last resolution, in
/// nanoseconds relative to the dispatcher's [`Clock`] epoch (its
/// construction instant — the same epoch every [`Timeline`] stamp uses,
/// so callers pass in stamps they already took instead of re-reading the
/// clock). Lock-free: admission stamps the first acceptance with
/// `fetch_min`, every resolved ticket stamps `fetch_max`. Throughput
/// reported over this window measures the system *while it served*,
/// not however long it happened to sit idle before traffic arrived.
pub(crate) struct ServingWindow {
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

impl ServingWindow {
    fn new() -> Self {
        ServingWindow {
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
        }
    }

    /// Stamps an accepted request, with the acceptance stamp its submit
    /// just took.
    pub(crate) fn mark_accept(&self, now_ns: u64) {
        self.first_ns.fetch_min(now_ns, Ordering::Relaxed);
    }

    /// Stamps a resolved job, with the job's completion stamp.
    fn mark_complete(&self, now_ns: u64) {
        self.last_ns.fetch_max(now_ns, Ordering::Relaxed);
    }

    /// Width of the window in seconds; 0 when nothing was served.
    fn seconds(&self) -> f64 {
        let first = self.first_ns.load(Ordering::Relaxed);
        let last = self.last_ns.load(Ordering::Relaxed);
        if first == u64::MAX || last <= first {
            0.0
        } else {
            (last - first) as f64 / 1e9
        }
    }
}

/// One engine shard plus its execution counters (written only by the
/// shard's worker thread; read at shutdown).
struct ShardState {
    engine: Engine,
    requests: AtomicU64,
    rounds: AtomicU64,
    /// Rounds this shard executed that were homed on another shard.
    stolen: AtomicU64,
    /// Simulated cycles of this shard's executed rounds, each packed onto
    /// its engine's modelled cores ([`EngineOptions::cores`]) by
    /// [`plan_rounds`].
    modelled_cycles: AtomicU64,
    dag_ops: AtomicU64,
    /// Per-request latency distributions of this shard. Written only by
    /// the shard's worker thread; read (merged) at shutdown, after every
    /// worker has been joined, so the lock is never contended.
    latency: Mutex<LatencyReport>,
}

/// What submitters share with the shard workers: the queues, the clock,
/// the admission state and the serving window — not the engines, so a
/// [`Submitter`] that outlives its dispatcher keeps none of them alive.
pub(crate) struct Intake {
    pub(crate) queues: Queues,
    pub(crate) clock: Clock,
    pub(crate) admission: Admission,
    pub(crate) window: ServingWindow,
}

impl Intake {
    /// Open, empty queues over shards of the given steal classes, with a
    /// clock whose epoch is `epoch`.
    pub(crate) fn new(steal_class: Vec<usize>, options: &DispatchOptions, epoch: Instant) -> Self {
        let n = steal_class.len();
        Intake {
            queues: Queues {
                core: Mutex::new(Core::new(steal_class, options)),
                work: Waiters::default(),
            },
            clock: Clock::from_epoch(epoch),
            admission: Admission::new(n, options.queue_capacity, options.max_wait),
            window: ServingWindow::new(),
        }
    }
}

/// Everything the shard workers share, behind one `Arc`.
struct Shared {
    shards: Vec<ShardState>,
    intake: Arc<Intake>,
    options: DispatchOptions,
}

/// The sharded async serving front-end. See the module docs for the
/// execution model.
pub struct Dispatcher {
    shared: Arc<Shared>,
    /// Empty once [`Dispatcher::stop`] has joined them.
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("shards", &self.shared.shards.len())
            .field("options", &self.shared.options)
            .finish()
    }
}

impl Dispatcher {
    /// Builds a dispatcher with one shard per engine: replicas of one
    /// configuration or distinct configuration points ([`engine_shards`]
    /// over their configs; work stealing and recovery then only move
    /// rounds between steal-compatible shards). `options.shards` is set to
    /// the number of engines.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or `options.max_batch == 0`.
    pub fn new(engines: Vec<Engine>, mut options: DispatchOptions) -> Self {
        assert!(!engines.is_empty(), "at least one shard required");
        assert!(options.max_batch > 0, "max_batch must be positive");
        let n = engines.len();
        options.shards = n;
        if let Some(max) = options.chaos.as_ref().and_then(ChaosPlan::max_shard) {
            assert!(
                max < n,
                "chaos plan targets shard {max} but only {n} shards exist"
            );
        }

        let shards: Vec<ShardState> = engines
            .into_iter()
            .map(|engine| ShardState {
                engine,
                requests: AtomicU64::new(0),
                rounds: AtomicU64::new(0),
                stolen: AtomicU64::new(0),
                modelled_cycles: AtomicU64::new(0),
                dag_ops: AtomicU64::new(0),
                latency: Mutex::new(LatencyReport::default()),
            })
            .collect();

        // Compatibility is an equivalence relation (field-wise equality
        // with `data_mem_rows` projected out), so first-match
        // classification is well defined.
        let config = |k: usize| shards[k].engine.config();
        let steal_class: Vec<usize> = (0..n)
            .map(|j| {
                (0..n)
                    .position(|k| dpu_verify::steal_compatible(config(k), config(j)))
                    .expect("self always matches")
            })
            .collect();

        let started = Instant::now();
        let shared = Arc::new(Shared {
            shards,
            intake: Arc::new(Intake::new(steal_class, &options, started)),
            options,
        });
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dpu-shard-{i}"))
                    .spawn(move || shard_loop(&shared, i))
                    .expect("spawn shard thread")
            })
            .collect();

        Dispatcher {
            shared,
            workers,
            started,
        }
    }

    /// The options this dispatcher runs with (with `shards` normalized to
    /// the actual shard count).
    pub fn options(&self) -> &DispatchOptions {
        &self.shared.options
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Registers a DAG in every shard's program store (stealing and
    /// recovery mean any shard may end up executing it) and returns its
    /// content key. The DAG is fingerprinted once and every store is
    /// handed the same `Arc`: one copy per dispatcher, and one entry per
    /// store however many shards share it.
    pub fn register(&self, dag: Dag) -> DagKey {
        let key = dag_fingerprint(&dag);
        let dag = Arc::new(dag);
        for shard in &self.shared.shards {
            let store = shard.engine.program_store();
            store.register(key, Arc::clone(&dag));
        }
        key
    }

    /// A new submission handle. Cheap; clone freely across producer
    /// threads.
    pub fn submitter(&self) -> Submitter {
        Submitter::new(Arc::clone(&self.shared.intake))
    }

    /// Pre-warms every shard's program store from its spill directory
    /// ([`Engine::prewarm`]), returning the total number of programs
    /// loaded — each once, however many shards share the store. Call
    /// before submitting traffic so the first requests hit a warm store
    /// when a previous run (or a peer fleet) already populated the spill
    /// directory.
    pub fn prewarm(&self) -> usize {
        let engines = self.shared.shards.iter().map(|s| &s.engine);
        engines.map(Engine::prewarm).sum()
    }

    /// Requests accepted and not yet resolved: the sum of the home
    /// shards' admission depths, counted from the `submit` that admits a
    /// request — so one still in a pending round counts — until its
    /// ticket is fulfilled. A submit turned away by
    /// [`DispatchOptions::queue_capacity`] counts for the instant between
    /// its claim on a slot and giving it back.
    pub fn in_flight(&self) -> u64 {
        self.shared.intake.admission.in_flight()
    }

    /// Forces every pending round closed and queued now, instead of
    /// waiting out the latency budget. Does not wait for execution —
    /// tickets do that.
    pub fn flush(&self) {
        self.close_pending(false);
    }

    /// Flushes, then blocks until every request accepted before the flush
    /// has completed (its ticket fulfilled). The dispatcher keeps
    /// serving; this is a barrier, not a shutdown.
    pub fn drain(&self) {
        self.flush();
        self.shared.intake.admission.wait_idle();
    }

    /// Closes every pending round now — and with `end`, admission too,
    /// under the same lock acquisition, so a submit that returned `Ok`
    /// already has its job in a round the workers will run — then fails
    /// what could not be placed.
    fn close_pending(&self, end: bool) {
        let intake = &*self.shared.intake;
        let mut core = intake.queues.lock();
        let now_ns = intake.clock.now_ns();
        let lost = if end {
            core.close(now_ns)
        } else {
            core.flush(now_ns)
        };
        intake.queues.unlock(core);
        fail_lost(intake, &lost, None);
    }

    /// Stops ingestion, executes everything already accepted, joins all
    /// threads, and returns the lifetime report. Loss-free: every ticket
    /// whose submit returned `Ok` is fulfilled before this returns; later
    /// submits are rejected with
    /// [`SubmitRejection::QueueClosed`](crate::SubmitRejection).
    pub fn shutdown(mut self) -> DispatchReport {
        self.stop();
        let shards: Vec<ShardReport> = self
            .shared
            .shards
            .iter()
            .map(|s| ShardReport {
                requests: s.requests.load(Ordering::Relaxed),
                rounds: s.rounds.load(Ordering::Relaxed),
                stolen_rounds: s.stolen.load(Ordering::Relaxed),
                modelled_cycles: s.modelled_cycles.load(Ordering::Relaxed),
                dag_ops: s.dag_ops.load(Ordering::Relaxed),
                latency: s.latency.lock().expect("latency poisoned").clone(),
            })
            .collect();
        // Each distinct program store, once.
        let mut stores: Vec<&Arc<ProgramStore>> = Vec::new();
        for shard in &self.shared.shards {
            let store = shard.engine.program_store();
            if !stores.iter().any(|seen| Arc::ptr_eq(seen, store)) {
                stores.push(store);
            }
        }
        let stores = stores.into_iter().map(|store| store.stats()).collect();
        // Merge the shards' latency distributions; fold order cannot
        // matter (histogram merge is associative and commutative).
        let mut latency = LatencyReport::default();
        for s in &shards {
            latency.merge(&s.latency);
        }
        // The admission ledger is coherent here: every submit admitted
        // before the close wrote its entry under the queues lock, and
        // every worker is joined.
        let adm = &self.shared.intake.admission;
        let core = self.shared.intake.queues.lock();
        let classes: [ClassReport; 3] = std::array::from_fn(|i| adm.class_report(i));
        debug_assert!(
            classes
                .iter()
                .all(|c| c.offered == c.completed + c.failed + c.shed + c.rejected),
            "admission ledger dishonest: {classes:?}"
        );
        DispatchReport {
            submitted: classes.iter().map(|c| c.accepted).sum(),
            served: shards.iter().map(|s| s.requests).sum(),
            rounds_closed_full: core.closed_full,
            rounds_closed_timer: core.closed_timer,
            rounds_closed_flush: core.closed_flush,
            shards,
            stores,
            host_seconds: self.shared.intake.window.seconds(),
            lifetime_seconds: self.started.elapsed().as_secs_f64(),
            latency,
            classes,
            rejected_would_block: adm.total(Entry::WouldBlock),
            rejected_queue_closed: adm.total(Entry::QueueClosed),
            rejected_deadline_past: adm.total(Entry::DeadlinePast),
            shed_unmeetable: adm.total(Entry::ShedUnmeetable),
            shed_expired: adm.total(Entry::ShedExpired),
            recovered: core.recovered,
            hedged: core.hedged,
            hedge_wins: adm.hedge_wins.load(Ordering::Relaxed),
        }
    }

    /// Idempotent teardown shared by [`Dispatcher::shutdown`] and `Drop`:
    /// flush and close admission under one lock acquisition, then join
    /// every worker.
    fn stop(&mut self) {
        if self.workers.is_empty() {
            return; // already stopped
        }
        self.close_pending(true);
        for w in self.workers.drain(..) {
            w.join().expect("shard thread panicked");
        }
        debug_assert_eq!(self.in_flight(), 0, "shutdown left requests in flight");
        debug_assert!(
            self.shared.intake.queues.lock().is_drained(),
            "shutdown left rounds queued or leased"
        );
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Resolves `job`, unless another handle to its round already has — the
/// one place a ticket resolves. Stamps completion, marks the serving
/// window and fulfils the ticket with `outcome`; under the ticket's lock,
/// before a waiter can see the outcome, the ledger takes the entry the
/// outcome implies and `home` — the round's home shard, whose admission
/// depth counts the job — releases its slot, so a client that saw its
/// ticket resolve finds the slot free and a `drain` that saw the slot
/// free finds the ticket resolved. Returns the completed timeline, or
/// `None` when the claim was lost.
pub(crate) fn resolve(
    intake: &Intake,
    job: &TrackedJob,
    home: usize,
    outcome: Outcome,
    mut timeline: Timeline,
) -> Option<Timeline> {
    if !job.claim() {
        return None;
    }
    timeline.completed_ns = intake.clock.now_ns();
    intake.window.mark_complete(timeline.completed_ns);
    let class = job.priority.index();
    job.ticket.fulfill(outcome, timeline, |outcome| {
        intake.admission.resolved(class, home, outcome);
    });
    Some(timeline)
}

/// Fails every still-unclaimed job of the rounds the core could not place
/// on a live shard with [`ServeError::ShardLost`], outside the queues
/// lock: naming `dead`, the shard whose death stranded them, or — for a
/// round closed onto a dead home — the round's home.
pub(crate) fn fail_lost(intake: &Intake, lost: &[QueuedRound], dead: Option<usize>) {
    for entry in lost {
        let shard = dead.unwrap_or(entry.round.home);
        for job in &entry.round.jobs {
            let outcome = Outcome::Failed(ServeError::ShardLost { shard });
            resolve(intake, job, entry.round.home, outcome, job.timeline);
        }
    }
}

/// A worker's dying act, after its in-hand jobs failed: [`Core::kill`]
/// moves its pending, queued and leased rounds onto a surviving
/// same-class shard under one lock acquisition; with no survivor, the
/// stranded jobs fail typed.
fn abandon_shard(intake: &Intake, me: usize) {
    let mut core = intake.queues.lock();
    let lost = core.kill(me, intake.clock.now_ns());
    intake.queues.unlock(core);
    fail_lost(intake, &lost, Some(me));
}

/// One shard's worker loop: pop own rounds (interactive first), steal
/// when idle, shed queue-expired deadlines, execute the rest on the
/// shard's engine, resolve tickets, record latency.
///
/// The checked-out round stays on lease in the shard's queue slot until
/// the worker comes back for the next one, a scripted stall fires at
/// checkout, and every job resolution is gated by its claim so a
/// recovered or hedged handle can never double-fulfil a ticket. A panic
/// at the execute site — the engine's, or a scripted kill's — is
/// contained here: the in-hand jobs fail typed, the shard abandons its
/// queue, the worker exits — the dispatcher keeps serving on the
/// survivors.
fn shard_loop(shared: &Shared, me: usize) {
    let intake = &*shared.intake;
    let Intake {
        clock, admission, ..
    } = intake;
    let options = &shared.options;
    let my = &shared.shards[me];
    let mut machine = Machine::new(*my.engine.config());
    let mut costs: Vec<u64> = Vec::new();
    // The executing half of each job's timeline (execute-start,
    // completed, service cycles): per handle, so it lives here and not in
    // the shared round.
    let mut timelines: Vec<Timeline> = Vec::new();
    let chaos = options.chaos.as_ref();
    let kill_after = chaos.and_then(|c| c.kill_after(me));
    let stall = chaos.and_then(|c| c.stall(me));
    let mut rounds_done: u64 = 0;
    let mut finished: Option<QueuedRound> = None;

    loop {
        let Some(entry) = next_round(intake, me, finished.take()) else {
            return; // admission is closed and my steal class empty and lease-free
        };
        let round = &*entry.round;
        if let (Some(plan), Some(base)) = (chaos, stall) {
            std::thread::sleep(plan.stall_for(me, rounds_done, base));
        }
        rounds_done += 1;
        if round.home != me {
            my.stolen.fetch_add(1, Ordering::Relaxed);
        }
        my.rounds.fetch_add(1, Ordering::Relaxed);
        costs.clear();
        timelines.clear();
        timelines.extend(round.jobs.iter().map(|j| j.timeline));
        // The latency lock is uncontended here: only this shard's worker
        // writes it, and shutdown reads it after joining every worker.
        let mut latency = my.latency.lock().expect("latency poisoned");
        // Pass 1 — admission: stamp each job's own execute-start and run
        // the last-chance deadline check ([`shed_at_execute`]). Shed jobs
        // are fully resolved here and never reach the engine. Sheds are
        // attributed to `round.home` — the shard whose backlog cost the
        // job its deadline — not the executing shard.
        let mut exec_idx: Vec<usize> = Vec::with_capacity(round.jobs.len());
        for (i, (job, timeline)) in round.jobs.iter().zip(&mut timelines).enumerate() {
            if job.already_resolved() {
                continue; // another handle won the claim while we queued
            }
            let now_ns = clock.now_ns();
            timeline.execute_start_ns = now_ns;
            let estimate = || admission.service_estimate();
            if let Some(reason) = shed_at_execute(timeline.deadline_ns, now_ns, estimate) {
                resolve(intake, job, round.home, Outcome::Shed { reason }, *timeline);
                continue;
            }
            exec_idx.push(i);
        }
        // Pass 2 — execute the survivors as one round: the engine runs
        // each program once per eight of the round's same-DAG jobs
        // ([`Engine::execute_round`]), and a stolen round flows through
        // identically to a home round. An empty survivor set never
        // reaches the engine — a round of expired deadlines (or fully
        // claimed-away jobs) must not charge its per-round setup cost for
        // zero requests, and does not fire a scripted kill either.
        let outcomes = if exec_idx.is_empty() {
            Vec::new()
        } else {
            let requests: Vec<&Request> =
                exec_idx.iter().map(|&i| &round.jobs[i].request).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if kill_after.is_some_and(|after| rounds_done > after) {
                    // A scripted kill is a panic here, silent: no hook
                    // runs for a resumed unwind.
                    resume_unwind(Box::new("scripted chaos kill"));
                }
                my.engine.execute_round(&mut machine, &requests)
            }));
            match caught {
                Ok(outcomes) => outcomes,
                Err(_) => {
                    // The one death: the in-hand jobs fail typed (the
                    // dispatcher cannot tell a scripted kill from a
                    // poison round, and requeueing a poison round would
                    // kill each same-class peer in turn — `abandon_shard`
                    // finds nothing unresolved left in the lease slot),
                    // the queue backlog recovers, the worker exits.
                    drop(latency);
                    for i in exec_idx {
                        let outcome = Outcome::Failed(ServeError::ShardLost { shard: me });
                        resolve(intake, &round.jobs[i], round.home, outcome, timelines[i]);
                    }
                    abandon_shard(intake, me);
                    return;
                }
            }
        };
        let executed = exec_idx.len() as u64;
        // Pass 3 — per-job resolution in request order: each job keeps
        // its own completion stamp, service cycles and ticket outcome,
        // exactly as when jobs executed one by one. The claim makes
        // resolution exactly-once against recovered and hedged handles;
        // whichever claims first wins, and because same-class shards are
        // result-identical the outcome bytes are the same either way. Only
        // the winner of a completion feeds the latency record, the live
        // estimates and the shard's costs.
        for (i, result) in exec_idx.into_iter().zip(outcomes) {
            let mut timeline = timelines[i];
            let run = result.as_ref().ok().map(|res| (res.cycles, res.dag_ops));
            if let Some((cycles, _)) = run {
                timeline.service_cycles = cycles;
            }
            // An engine that *returns* an error (vs. one that panics) is a
            // per-job failure, ledgered as `failed`.
            let outcome = result.map_or_else(Outcome::Failed, Outcome::Completed);
            let Some(timeline) = resolve(intake, &round.jobs[i], round.home, outcome, timeline)
            else {
                continue; // lost the race to another handle after executing
            };
            if entry.hedge {
                admission.hedge_wins.fetch_add(1, Ordering::Relaxed);
            }
            if let Some((cycles, dag_ops)) = run {
                costs.push(cycles);
                my.dag_ops.fetch_add(dag_ops, Ordering::Relaxed);
                latency.record(&timeline);
                // Feed the live estimates the shed projections run on.
                admission.observe(timeline.queueing_delay_ns(), timeline.service_ns());
            }
        }
        drop(latency);
        my.requests.fetch_add(executed, Ordering::Relaxed);
        if !costs.is_empty() {
            my.modelled_cycles.fetch_add(
                plan_rounds(&costs, my.engine.options().cores).total_cycles,
                Ordering::Relaxed,
            );
        }
        finished = Some(entry);
    }
}

/// Hands `finished` back and blocks until shard `me` has its next round
/// ([`Core::checkout`], which releases the lease and picks the next one
/// under one lock acquisition, after [`Core::close_due`] has closed the
/// rounds whose budget is spent), or returns `None` once admission is
/// closed and `me`'s steal class is idle. A parked worker waits until the
/// core's next wake stamp — a due round or a sweep — so that its next
/// checkout closes or runs it, and untimed when there is neither.
///
/// `finished` is usually the last handle to the round it names: it is
/// dropped after the unlock, because freeing a round's payloads is not
/// work to do under the lock.
fn next_round(intake: &Intake, me: usize, finished: Option<QueuedRound>) -> Option<QueuedRound> {
    let Intake { queues, clock, .. } = intake;
    let mut core = queues.lock();
    let mut lost = Vec::new();
    let next = loop {
        let now_ns = clock.now_ns();
        lost.extend(core.close_due(now_ns));
        match core.checkout(me, now_ns) {
            Checkout::Run(entry) => break Some(entry),
            Checkout::Exit => break None,
            // A sweep moved rounds onto other queues: wake their workers
            // before parking.
            Checkout::Wait if core.take_wake() => {
                queues.work.wake_all(core);
                core = queues.lock();
            }
            Checkout::Wait => {
                core = match core.next_wake_ns() {
                    None => queues.work.wait(core).expect("queues poisoned"),
                    Some(at) => {
                        let wait = Duration::from_nanos(at.saturating_sub(clock.now_ns()));
                        let woken = queues.work.wait_timeout(core, wait);
                        woken.expect("queues poisoned").0
                    }
                };
            }
        }
    };
    queues.unlock(core);
    drop(finished);
    fail_lost(intake, &lost, None);
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Ticket;
    use crate::wake::within;

    const LIMIT: Duration = Duration::from_secs(30);

    fn arch() -> ArchConfig {
        ArchConfig::new(2, 8, 16).unwrap()
    }

    fn tiny_dag() -> Dag {
        let mut b = dpu_dag::DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(dpu_dag::Op::Add, &[x, y]).unwrap();
        b.node(dpu_dag::Op::Mul, &[s, s]).unwrap();
        b.finish().unwrap()
    }

    fn dispatcher(options: DispatchOptions) -> (Dispatcher, DagKey) {
        let configs = vec![arch(); options.shards];
        let engines = engine_shards(
            &configs,
            CompileOptions::default(),
            &EngineOptions::default(),
        );
        let d = Dispatcher::new(engines, options);
        let key = d.register(tiny_dag());
        (d, key)
    }

    /// Spins until `n` shard workers are parked on the queues' condvar.
    fn until_parked(d: &Dispatcher, n: usize) {
        let queues = &d.shared.intake.queues;
        while {
            let _held = queues.lock();
            queues.work.waiting() != n
        } {
            std::thread::yield_now();
        }
    }

    /// Steal classes are the statically proven relation, not config
    /// equality: shards differing only in `data_mem_rows` (which code
    /// generation never reads) share a class; any codegen-relevant
    /// difference splits them.
    #[test]
    fn steal_classes_are_proven_compatibility_not_equality() {
        let more_rows = ArchConfig {
            data_mem_rows: arch().data_mem_rows * 2,
            ..arch()
        };
        let more_regs = ArchConfig {
            regs_per_bank: 32,
            ..arch()
        };
        let configs = [arch(), more_regs, more_rows, more_regs];
        let engines = engine_shards(
            &configs,
            CompileOptions::default(),
            &EngineOptions::default(),
        );
        let d = Dispatcher::new(engines, DispatchOptions::default());
        assert_eq!(d.shared.intake.queues.lock().steal_class, [0, 1, 0, 1]);
        d.shutdown();
    }

    #[test]
    fn parked_workers_wake_for_a_round_close_and_for_shutdown() {
        within(LIMIT, || {
            let (d, key) = dispatcher(DispatchOptions {
                max_batch: 1,
                ..Default::default()
            });
            let sub = d.submitter();
            until_parked(&d, 2);
            let ticket = sub.submit(Request::new(key, vec![1.0, 2.0])).unwrap();
            assert!(matches!(ticket.wait(), Outcome::Completed(_)));
            until_parked(&d, 2);
            assert_eq!(d.shutdown().served, 1);
        });
    }

    #[test]
    fn a_chaos_kill_wakes_the_parked_peer_that_inherits_the_round() {
        let home = home_shard(dag_fingerprint(&tiny_dag()), 2);
        let report = within(LIMIT, move || {
            let (d, key) = dispatcher(DispatchOptions {
                max_batch: 1,
                // The peer never takes work on its own: only the requeue
                // from the dying home shard, and its wake-up, reach it.
                work_stealing: false,
                // Home stalls on its first round, so the second is queued
                // behind it when the kill fires at the execute site.
                chaos: Some(
                    ChaosPlan::new(5)
                        .kill_shard(home, 0)
                        .stall_shard(home, Duration::from_millis(100)),
                ),
                ..Default::default()
            });
            let sub = d.submitter();
            until_parked(&d, 2);
            let in_hand = sub.submit(Request::new(key, vec![1.0, 2.0])).unwrap();
            let queued = sub.submit(Request::new(key, vec![2.0, 2.0])).unwrap();
            assert!(matches!(
                in_hand.wait(),
                Outcome::Failed(ServeError::ShardLost { shard }) if shard == home
            ));
            assert_eq!(queued.wait().unwrap().outputs, vec![16.0]);
            d.shutdown()
        });
        assert_eq!(report.recovered, 1);
        assert_eq!(report.shards[home].requests, 0);
        assert_eq!(report.shards[1 - home].requests, 1);
        let c = report.class(crate::Priority::Standard);
        assert_eq!((c.completed, c.failed), (1, 1));
        assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
    }

    /// With its only shard dead, no worker is left to close a round by its
    /// timer: the round pending at the death and a request submitted
    /// after it both fail `ShardLost` at once, without a flush.
    #[test]
    fn with_no_shard_left_pending_and_later_requests_fail_without_a_flush() {
        within(LIMIT, || {
            let (d, key) = dispatcher(DispatchOptions {
                shards: 1,
                max_batch: 2,
                // The worker stalls on its first round, then dies at its
                // execute site: the second round is still pending then.
                chaos: Some(
                    ChaosPlan::new(5)
                        .kill_shard(0, 0)
                        .stall_shard(0, Duration::from_millis(100)),
                ),
                ..Default::default()
            });
            let sub = d.submitter();
            let submit = |x: f32| sub.submit(Request::new(key, vec![x, 1.0])).unwrap();
            let in_hand = [submit(1.0), submit(2.0)];
            let pending = submit(3.0);
            let lost = |t: Ticket| {
                matches!(
                    t.wait(),
                    Outcome::Failed(ServeError::ShardLost { shard: 0 })
                )
            };
            assert!(in_hand.into_iter().all(lost));
            assert!(lost(pending));
            assert!(lost(submit(4.0)));
            let report = d.shutdown();
            assert_eq!(
                (
                    report.served,
                    report.class(crate::Priority::Standard).failed
                ),
                (0, 4)
            );
        });
    }

    #[test]
    fn drain_returns_while_completions_race_it() {
        within(LIMIT, || {
            let (d, key) = dispatcher(DispatchOptions {
                max_batch: 4,
                ..Default::default()
            });
            let sub = d.submitter();
            for i in 0..200_usize {
                let tickets: Vec<_> = (0..1 + i % 7)
                    .map(|j| sub.submit(Request::new(key, vec![j as f32, 1.0])).unwrap())
                    .collect();
                d.drain();
                assert_eq!(d.in_flight(), 0, "iteration {i}");
                assert!(tickets.iter().all(Ticket::is_done), "iteration {i}");
            }
            d.shutdown();
        });
    }

    /// `Instant::now() + Duration::MAX` overflows: such a budget must mean
    /// "close by size or flush only", not a worker that never parks.
    #[test]
    fn rounds_close_and_drain_returns_under_a_max_wait_of_duration_max() {
        let report = within(LIMIT, || {
            let (d, key) = dispatcher(DispatchOptions {
                shards: 1,
                max_batch: 2,
                max_wait: Duration::MAX,
                ..Default::default()
            });
            let sub = d.submitter();
            let full: Vec<_> = (0..2)
                .map(|i| sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap())
                .collect();
            for ticket in full {
                assert!(matches!(ticket.wait(), Outcome::Completed(_)));
            }
            let lone = sub.submit(Request::new(key, vec![5.0, 1.0])).unwrap();
            d.drain();
            assert!(lone.is_done());
            d.shutdown()
        });
        assert_eq!(report.rounds_closed_full, 1);
        assert_eq!(report.rounds_closed_flush, 1);
        assert_eq!(report.rounds_closed_timer, 0);
    }
}
