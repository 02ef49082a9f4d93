//! What a dispatcher run reports: per-shard counters ([`ShardReport`]),
//! the per-platform comparison ([`PlatformSummary`]), the per-class
//! admission ledger ([`ClassReport`]) and the lifetime aggregate
//! ([`DispatchReport`]) returned by [`Dispatcher::shutdown`]. Plain data
//! and arithmetic over it — nothing here knows how rounds are queued,
//! leased or recovered.

use crate::cache::CacheStats;
use crate::ingest::Priority;
use crate::latency::LatencyReport;
#[cfg(doc)]
use crate::{DispatchOptions, Dispatcher, Outcome};

/// Per-shard slice of a [`DispatchReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Platform key of the backend this shard serves (`dpu_v2`, `cpu`,
    /// ...).
    pub platform: &'static str,
    /// Whether this shard mirrored traffic instead of serving tickets.
    pub mirror: bool,
    /// Requests this shard executed.
    pub requests: u64,
    /// Rounds this shard executed.
    pub rounds: u64,
    /// Of those, rounds stolen from another shard's queue.
    pub stolen_rounds: u64,
    /// Simulated cycles of this shard's work on its modelled platform.
    pub modelled_cycles: u64,
    /// Arithmetic DAG operations served.
    pub dag_ops: u64,
    /// Declared average platform power (analytic backends), if any.
    pub power_w: Option<f64>,
    /// This shard's per-request latency distributions (successful
    /// requests only). [`DispatchReport::latency`] is the order-
    /// independent merge of these across primary shards.
    pub latency: LatencyReport,
}

/// Live per-platform aggregate over a dispatcher's shards — one row of
/// the side-by-side DPU-vs-baseline comparison
/// ([`DispatchReport::platforms`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSummary {
    /// Platform key (`dpu_v2`, `cpu`, `gpu`, `dpu_v1`, `spu`, ...).
    pub platform: &'static str,
    /// Shards of this platform.
    pub shards: usize,
    /// Whether these shards mirrored traffic (vs serving tickets).
    pub mirror: bool,
    /// Requests executed across the platform's shards.
    pub requests: u64,
    /// Arithmetic DAG operations served.
    pub dag_ops: u64,
    /// Modelled makespan: the platform's shards are independent devices
    /// running in parallel, so this is the busiest shard's cycles.
    pub modelled_cycles: u64,
    /// Declared average power **per device** (one shard), if the backend
    /// models one. Fleet-level metrics scale this by [`shards`].
    ///
    /// [`shards`]: PlatformSummary::shards
    pub power_w: Option<f64>,
}

impl PlatformSummary {
    /// Throughput in operations per second at the reference clock
    /// `freq_hz` (DAG operations over the platform's modelled makespan).
    pub fn throughput_ops(&self, freq_hz: f64) -> f64 {
        self.dag_ops as f64 * freq_hz / self.modelled_cycles.max(1) as f64
    }

    /// [`PlatformSummary::throughput_ops`] in GOPS.
    pub fn gops(&self, freq_hz: f64) -> f64 {
        self.throughput_ops(freq_hz) / 1e9
    }

    /// Energy-delay product per operation in pJ·ns — the Table III
    /// metric, `(power / throughput) × (1 / throughput)` — when the
    /// platform declares a power figure and served any work. Throughput
    /// here is the *fleet's* (ops over the parallel makespan), so power
    /// is the fleet's too: per-device [`PlatformSummary::power_w`] times
    /// [`PlatformSummary::shards`].
    pub fn edp_pj_ns(&self, freq_hz: f64) -> Option<f64> {
        let gops = self.gops(freq_hz);
        let power = self.power_w? * self.shards as f64;
        if gops <= 0.0 {
            return None;
        }
        Some((power / gops * 1e3) * (1.0 / gops))
    }
}

/// Per-priority-class slice of the admission/outcome ledger — one row of
/// [`DispatchReport::classes`]. The honesty invariant per class (and in
/// aggregate) is `offered == completed + failed + shed + rejected`:
/// every submit attempt is accounted for exactly once, never silently
/// dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassReport {
    /// Submit attempts of this class (`accepted + rejected`).
    pub offered: u64,
    /// Requests admitted past the submission edge.
    pub accepted: u64,
    /// Accepted requests executed to successful completion.
    pub completed: u64,
    /// Accepted requests that resolved
    /// [`Outcome::Failed`]: a per-request backend
    /// error, or a shard loss with no surviving compatible shard to
    /// recover onto. (Before the failure ledger these were miscounted as
    /// completions.)
    pub failed: u64,
    /// Accepted requests shed before execution to protect a deadline.
    pub shed: u64,
    /// Submit attempts rejected at the edge (backpressure, shutdown, or a
    /// stale deadline) — no ticket ever existed.
    pub rejected: u64,
}

/// Aggregate result of a dispatcher's lifetime, returned by
/// [`Dispatcher::shutdown`].
///
/// Headline aggregates ([`DispatchReport::total_dag_ops`],
/// [`DispatchReport::modelled_cycles`], [`DispatchReport::gops`],
/// [`DispatchReport::shard_balance`], [`DispatchReport::cache_totals`])
/// cover the **primary** shards — the serving system itself. Mirror
/// shards are observers; they appear in [`DispatchReport::shards`] and in
/// the per-platform comparison ([`DispatchReport::platforms`]).
///
/// Overload accounting lives in [`DispatchReport::classes`] (per
/// [`Priority`] class) plus the by-kind splits: rejected-at-shutdown
/// ([`DispatchReport::rejected_queue_closed`]) is reported separately
/// from shed-by-deadline ([`DispatchReport::shed_unmeetable`] /
/// [`DispatchReport::shed_expired`]) — an operator must be able to tell
/// "the system refused new work while stopping" from "the system dropped
/// admitted work to protect its deadlines".
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// Requests accepted over the dispatcher's lifetime.
    pub submitted: u64,
    /// Requests executed on primary shards (equals `submitted` minus
    /// [`DispatchReport::shed`](DispatchReport::shed) — and exactly
    /// `submitted` when nothing was shed: shutdown is loss-free). Under
    /// hedging this counts *executions*, so losing hedge copies can push
    /// it past `submitted`; the ticket ledger in
    /// [`DispatchReport::classes`] stays exact either way.
    pub served: u64,
    /// Shadow executions on mirror shards (`submitted ×` mirror count
    /// when mirrors are configured).
    pub mirrored: u64,
    /// Rounds closed because they reached
    /// [`DispatchOptions::max_batch`].
    pub rounds_closed_full: u64,
    /// Rounds closed by the [`DispatchOptions::max_wait`] latency budget.
    pub rounds_closed_timer: u64,
    /// Rounds closed by [`Dispatcher::flush`] / shutdown.
    pub rounds_closed_flush: u64,
    /// Per-shard execution counters (primaries first, then mirrors).
    pub shards: Vec<ShardReport>,
    /// Final program-cache statistics of each **distinct** program store
    /// behind the primary shards, in first-shard order. The engine shards
    /// a dispatcher builds share one store, so this holds one entry for
    /// them however many they are — a store's counters are the store's,
    /// not any one shard's — and one more per separately built engine
    /// passed to [`Dispatcher::with_backends`].
    pub stores: Vec<CacheStats>,
    /// Host wall-clock seconds of the **serving window**: first accepted
    /// request → last completed job. This is the denominator host-side
    /// throughput should divide by; measuring from construction (as this
    /// field did before the serving-window fix, now
    /// [`DispatchReport::lifetime_seconds`]) under-reports whenever the
    /// dispatcher idles before traffic arrives. 0.0 when nothing was
    /// served.
    pub host_seconds: f64,
    /// Host wall-clock seconds from construction to shutdown — the old
    /// `host_seconds` total, kept as its own field so dashboards and
    /// baselines switch to the serving window consciously, not silently.
    pub lifetime_seconds: f64,
    /// Per-request latency distributions over the **primary** shards,
    /// merged from [`ShardReport::latency`]. The host-time histograms
    /// (queueing, batching, service, total) measure this machine; the
    /// modelled [`LatencyReport::service_cycles`] histogram is a pure
    /// function of the request stream — byte-identical across shard
    /// counts, stealing, and timing — and is what CI gates. Mirror shards
    /// are observers and contribute nothing here.
    pub latency: LatencyReport,
    /// Per-priority-class admission/outcome ledger, indexed by
    /// [`Priority::index`]. Each class (and the aggregate) satisfies
    /// `offered == completed + failed + shed + rejected`.
    pub classes: [ClassReport; 3],
    /// Rejections at the edge because the home-shard queue was at
    /// [`DispatchOptions::queue_capacity`].
    pub rejected_would_block: u64,
    /// Rejections at the edge because the dispatcher had shut down —
    /// refused work, reported apart from deadline sheds.
    pub rejected_queue_closed: u64,
    /// Rejections at the edge because the deadline was already past at
    /// submit time.
    pub rejected_deadline_past: u64,
    /// Accepted requests shed at ingestion: the live queueing estimate
    /// projected completion past the deadline.
    pub shed_unmeetable: u64,
    /// Accepted requests shed at execute time: the deadline expired while
    /// the request sat in queue.
    pub shed_expired: u64,
    /// Jobs rescued from a dead or stalled shard: requeued onto a
    /// surviving same-class shard by the recovery path. An overlay
    /// counter — recovery moves work without changing any outcome, so it
    /// sits outside the class balance equation.
    pub recovered: u64,
    /// Jobs for which a hedge copy was enqueued on an idle
    /// identical-class shard ([`DispatchOptions::hedge`]).
    pub hedged: u64,
    /// Hedged jobs whose copy won the completion claim (the straggler
    /// original lost and was discarded before ticket fulfilment).
    pub hedge_wins: u64,
}

impl DispatchReport {
    fn primaries(&self) -> impl Iterator<Item = &ShardReport> {
        self.shards.iter().filter(|s| !s.mirror)
    }

    /// Submit attempts over the dispatcher's lifetime, all classes
    /// (`accepted + rejected`).
    pub fn offered(&self) -> u64 {
        self.classes.iter().map(|c| c.offered).sum()
    }

    /// Accepted requests shed before execution, all classes.
    pub fn shed(&self) -> u64 {
        self.classes.iter().map(|c| c.shed).sum()
    }

    /// Submit attempts rejected at the edge, all classes.
    pub fn rejected(&self) -> u64 {
        self.classes.iter().map(|c| c.rejected).sum()
    }

    /// The ledger row of one [`Priority`] class.
    pub fn class(&self, priority: Priority) -> &ClassReport {
        &self.classes[priority.index()]
    }

    /// Total arithmetic DAG operations served by primary shards.
    pub fn total_dag_ops(&self) -> u64 {
        self.primaries().map(|s| s.dag_ops).sum()
    }

    /// Simulated wall-clock of the serving system: primary shards are
    /// independent modelled devices running in parallel, so the makespan
    /// is the busiest one's cycles.
    pub fn modelled_cycles(&self) -> u64 {
        self.primaries()
            .map(|s| s.modelled_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate simulated throughput in operations per second at
    /// `freq_hz` (DAG operations over the modelled makespan).
    pub fn throughput_ops(&self, freq_hz: f64) -> f64 {
        self.total_dag_ops() as f64 * freq_hz / self.modelled_cycles().max(1) as f64
    }

    /// [`DispatchReport::throughput_ops`] in GOPS.
    pub fn gops(&self, freq_hz: f64) -> f64 {
        self.throughput_ops(freq_hz) / 1e9
    }

    /// Shard load balance over primary shards: busiest shard's requests
    /// over the per-shard mean. 1.0 is perfect balance; `k` means the
    /// busiest shard carried `k×` its fair share. 0.0 when nothing was
    /// served.
    pub fn shard_balance(&self) -> f64 {
        let n = self.primaries().count();
        let total: u64 = self.primaries().map(|s| s.requests).sum();
        if total == 0 || n == 0 {
            return 0.0;
        }
        let mean = total as f64 / n as f64;
        let max = self.primaries().map(|s| s.requests).max().unwrap_or(0);
        max as f64 / mean
    }

    /// Fraction of executed rounds (all shards) that were work-stolen.
    pub fn steal_rate(&self) -> f64 {
        let rounds: u64 = self.shards.iter().map(|s| s.rounds).sum();
        if rounds == 0 {
            return 0.0;
        }
        let stolen: u64 = self.shards.iter().map(|s| s.stolen_rounds).sum();
        stolen as f64 / rounds as f64
    }

    /// Aggregated program-cache statistics of the serving system: the sum
    /// over [`DispatchReport::stores`], each store counted once.
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.stores {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
            total.spill_hits += s.spill_hits;
            total.spill_writes += s.spill_writes;
            total.spill_rejects += s.spill_rejects;
            total.spill_unverifiable += s.spill_unverifiable;
            total.decode_count += s.decode_count;
        }
        total
    }

    /// The live side-by-side platform comparison: shards grouped by
    /// platform key (in first-appearance order, primaries before
    /// mirrors), each with its own requests / DAG-op / makespan / power
    /// aggregate. Query [`PlatformSummary::gops`] and
    /// [`PlatformSummary::edp_pj_ns`] at the reference clock to get the
    /// paper's Table III metrics per platform.
    pub fn platforms(&self) -> Vec<PlatformSummary> {
        let mut out: Vec<PlatformSummary> = Vec::new();
        for s in &self.shards {
            if let Some(p) = out
                .iter_mut()
                .find(|p| p.platform == s.platform && p.mirror == s.mirror)
            {
                p.shards += 1;
                p.requests += s.requests;
                p.dag_ops += s.dag_ops;
                p.modelled_cycles = p.modelled_cycles.max(s.modelled_cycles);
                if p.power_w.is_none() {
                    p.power_w = s.power_w;
                }
            } else {
                out.push(PlatformSummary {
                    platform: s.platform,
                    shards: 1,
                    mirror: s.mirror,
                    requests: s.requests,
                    dag_ops: s.dag_ops,
                    modelled_cycles: s.modelled_cycles,
                    power_w: s.power_w,
                });
            }
        }
        out
    }
}
