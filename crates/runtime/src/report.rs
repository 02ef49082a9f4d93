//! What a dispatcher run reports: per-shard counters ([`ShardReport`]),
//! the per-class admission ledger ([`ClassReport`]) and the lifetime
//! aggregate ([`DispatchReport`]) returned by [`Dispatcher::shutdown`];
//! and the paper's baseline platforms priced on the served traffic
//! ([`PlatformSummary::modelled`]). Plain data and arithmetic over it —
//! nothing here knows how rounds are queued, leased or recovered.

use dpu_baselines::BaselineModel;
use dpu_dag::Dag;

use crate::cache::CacheStats;
use crate::ingest::Priority;
use crate::latency::LatencyReport;
#[cfg(doc)]
use crate::{DispatchOptions, Dispatcher, Outcome};

/// Per-shard slice of a [`DispatchReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Requests this shard executed.
    pub requests: u64,
    /// Rounds this shard executed.
    pub rounds: u64,
    /// Of those, rounds stolen from another shard's queue.
    pub stolen_rounds: u64,
    /// Simulated cycles of this shard's work on its modelled DPU-v2
    /// cores.
    pub modelled_cycles: u64,
    /// Arithmetic DAG operations served.
    pub dag_ops: u64,
    /// This shard's per-request latency distributions (successful
    /// requests only). [`DispatchReport::latency`] is the order-
    /// independent merge of these across shards.
    pub latency: LatencyReport,
}

/// One platform's row of the paper's Table III comparison (§V-C) over the
/// traffic a DPU-v2 run served. A baseline's row is computed by
/// [`PlatformSummary::modelled`], not served: the analytic models are pure
/// functions of DAG shape, so a platform's cycles and operations depend
/// only on how many times each DAG completed.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSummary {
    /// Platform key (`dpu_v2`, `cpu`, `gpu`, `dpu_v1`, `spu`).
    pub platform: &'static str,
    /// Requests priced.
    pub requests: u64,
    /// Arithmetic operations of the binarized DAGs, over every request —
    /// the numerator the simulated DPU reports, so every platform divides
    /// the same work by its own time.
    pub dag_ops: u64,
    /// Modelled time in cycles of the reference clock: the platform runs
    /// its requests back to back, each occupying the whole device.
    pub modelled_cycles: u64,
    /// Average power while executing, in watts.
    pub power_w: f64,
}

impl PlatformSummary {
    /// Prices `served` — each DAG with the number of requests for it that
    /// completed — on `model`, in cycles of the reference clock
    /// `freq_hz`. A request costs the model's execution time rounded up to
    /// a whole cycle, never less than one (a sub-cycle prediction is not
    /// free), and counts the operations of the *binarized* DAG. The
    /// execution time itself is layered over the source DAG: the measured
    /// platforms ran n-ary nodes natively.
    pub fn modelled(model: &BaselineModel, served: &[(&Dag, u64)], freq_hz: f64) -> Self {
        let mut row = PlatformSummary {
            platform: model.platform(),
            requests: 0,
            dag_ops: 0,
            modelled_cycles: 0,
            power_w: model.power_w(),
        };
        for &(dag, count) in served {
            let cycles = ((model.exec_time_s(dag) * freq_hz).ceil() as u64).max(1);
            let ops = dag.binarize().0.op_count() as u64;
            row.requests += count;
            row.dag_ops += ops * count;
            row.modelled_cycles += cycles * count;
        }
        row
    }

    /// Throughput in operations per second at the reference clock
    /// `freq_hz` (DAG operations over the modelled time).
    pub fn throughput_ops(&self, freq_hz: f64) -> f64 {
        self.dag_ops as f64 * freq_hz / self.modelled_cycles.max(1) as f64
    }

    /// [`PlatformSummary::throughput_ops`] in GOPS.
    pub fn gops(&self, freq_hz: f64) -> f64 {
        self.throughput_ops(freq_hz) / 1e9
    }

    /// Energy-delay product per operation in pJ·ns — the Table III
    /// metric, `(power / throughput) × (1 / throughput)` — or `None` when
    /// no work was priced.
    pub fn edp_pj_ns(&self, freq_hz: f64) -> Option<f64> {
        let gops = self.gops(freq_hz);
        if gops <= 0.0 {
            return None;
        }
        Some((self.power_w / gops * 1e3) * (1.0 / gops))
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
    /// Accepted requests that resolved [`Outcome::Failed`]: a
    /// per-request engine error, or a shard loss — in the dying shard's
    /// hand, or with no surviving compatible shard to recover onto. Never
    /// counted under `completed`.
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
/// Overload accounting lives in [`DispatchReport::classes`] (per
/// [`Priority`] class) plus the by-kind splits, each a sum over the
/// classes of one column of the admission ledger: rejected-at-shutdown
/// ([`DispatchReport::rejected_queue_closed`]) is reported separately
/// from shed-by-deadline ([`DispatchReport::shed_unmeetable`] /
/// [`DispatchReport::shed_expired`]) — an operator must be able to tell
/// "the system refused new work while stopping" from "the system dropped
/// admitted work to protect its deadlines".
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// Requests accepted over the dispatcher's lifetime: the sum of the
    /// classes' [`ClassReport::accepted`].
    pub submitted: u64,
    /// Requests executed: run in a round that returned from its engine,
    /// to a result or an engine error. That is `submitted` minus
    /// [`DispatchReport::shed`](DispatchReport::shed) and the requests a
    /// dying shard took down ([`ServeError::ShardLost`](crate::ServeError)),
    /// so exactly `submitted` when nothing was shed or lost: shutdown is
    /// loss-free. Under hedging or stall reclaim this counts
    /// *executions*, so a losing copy can push it past `submitted`; the
    /// ticket ledger in [`DispatchReport::classes`] stays exact either way.
    pub served: u64,
    /// Rounds closed because they reached
    /// [`DispatchOptions::max_batch`].
    pub rounds_closed_full: u64,
    /// Rounds closed by the [`DispatchOptions::max_wait`] latency budget.
    pub rounds_closed_timer: u64,
    /// Rounds closed by [`Dispatcher::flush`] / shutdown, or at once
    /// because their home shard had died.
    pub rounds_closed_flush: u64,
    /// Per-shard execution counters, in shard order.
    pub shards: Vec<ShardReport>,
    /// Final program-cache statistics of each **distinct** program store
    /// behind the shards, in first-shard order. The engine shards
    /// a dispatcher builds share one store, so this holds one entry for
    /// them however many they are — a store's counters are the store's,
    /// not any one shard's — and one more per separately built engine
    /// passed to [`Dispatcher::new`].
    pub stores: Vec<CacheStats>,
    /// Host wall-clock seconds of the **serving window**: first accepted
    /// request → last resolved ticket. This is the denominator host-side
    /// throughput should divide by: unlike
    /// [`DispatchReport::lifetime_seconds`], it does not count time the
    /// dispatcher idled before traffic arrived. 0.0 when nothing was
    /// served.
    pub host_seconds: f64,
    /// Host wall-clock seconds from construction to shutdown, idle time
    /// included.
    pub lifetime_seconds: f64,
    /// Per-request latency distributions over every shard, merged from
    /// [`ShardReport::latency`]. The host-time histograms
    /// (queueing, batching, service, total) measure this machine; the
    /// modelled [`LatencyReport::service_cycles`] histogram is a pure
    /// function of the request stream — byte-identical across shard
    /// counts, stealing, and timing — and is what CI gates.
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
    /// Accepted requests shed at admission: the live queueing estimate
    /// projected completion past the deadline.
    pub shed_unmeetable: u64,
    /// Accepted requests shed at execute time: the deadline expired while
    /// the request sat in queue.
    pub shed_expired: u64,
    /// Jobs rescued from a dead shard's queue or a stalled shard's lease:
    /// requeued onto a surviving same-class shard by the recovery path. An overlay
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

    /// Total arithmetic DAG operations served.
    pub fn total_dag_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.dag_ops).sum()
    }

    /// Simulated wall-clock of the serving system: shards are independent
    /// modelled devices running in parallel, so the makespan is the
    /// busiest one's cycles.
    pub fn modelled_cycles(&self) -> u64 {
        self.shards
            .iter()
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

    /// Shard load balance: busiest shard's requests over the per-shard
    /// mean. 1.0 is perfect balance; `k` means the busiest shard carried
    /// `k×` its fair share. 0.0 when nothing was served.
    pub fn shard_balance(&self) -> f64 {
        let n = self.shards.len();
        let total: u64 = self.shards.iter().map(|s| s.requests).sum();
        if total == 0 || n == 0 {
            return 0.0;
        }
        let mean = total as f64 / n as f64;
        let max = self.shards.iter().map(|s| s.requests).max().unwrap_or(0);
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
            total.entries += s.entries;
            total.spill_hits += s.spill_hits;
            total.spill_writes += s.spill_writes;
            total.spill_rejects += s.spill_rejects;
            total.spill_unverifiable += s.spill_unverifiable;
            total.decode_count += s.decode_count;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::{DagBuilder, Op};

    const FREQ: f64 = 300e6;

    /// `(x + y)²`: binary, so its binarized op count is its own.
    fn binary_dag() -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, s]).unwrap();
        b.finish().unwrap()
    }

    /// `x²`: one operation.
    fn square_dag() -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        b.node(Op::Mul, &[x, x]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn a_request_costs_the_ceiled_model_time_and_rows_run_serially() {
        let dag = binary_dag();
        let cpu = BaselineModel::cpu();
        let row = PlatformSummary::modelled(&cpu, &[(&dag, 5)], FREQ);
        let cycles = ((cpu.exec_time_s(&dag) * FREQ).ceil() as u64).max(1);
        assert_eq!(row.platform, "cpu");
        assert_eq!(row.requests, 5);
        assert_eq!(row.modelled_cycles, 5 * cycles);
        assert_eq!(row.dag_ops, 5 * dag.op_count() as u64);
        assert_eq!(row.power_w, cpu.power_w());
    }

    /// The numerator is the binarized DAG's operations: a three-input add
    /// is one source operation but two on every platform's ledger, so
    /// baseline GOPS divide the same work the DPU reports.
    #[test]
    fn operations_are_counted_on_the_binarized_dag() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let s = b.node(Op::Add, &[x, y, z]).unwrap();
        b.node(Op::Mul, &[s, x]).unwrap();
        let dag = b.finish().unwrap();
        assert_eq!(dag.op_count(), 2);
        assert_eq!(dag.binarize().0.op_count(), 3);
        let row = PlatformSummary::modelled(&BaselineModel::gpu(), &[(&dag, 4)], FREQ);
        assert_eq!(row.dag_ops, 4 * 3);
    }

    /// A prediction shorter than a reference cycle still costs one: no
    /// DAG is modelled as free.
    #[test]
    fn a_sub_cycle_request_costs_one_cycle() {
        let dag = binary_dag();
        let model = BaselineModel::dpu_v1();
        let slow_clock = 1.0;
        assert!(model.exec_time_s(&dag) * slow_clock < 1.0);
        let row = PlatformSummary::modelled(&model, &[(&dag, 3)], slow_clock);
        assert_eq!(row.modelled_cycles, 3);
    }

    /// A row is a sum over its DAGs, so pricing a stream per family and
    /// pricing it whole agree.
    #[test]
    fn rows_add_up_over_dags() {
        let (a, b) = (binary_dag(), square_dag());
        let gpu = BaselineModel::gpu();
        let whole = PlatformSummary::modelled(&gpu, &[(&a, 3), (&b, 5)], FREQ);
        let (ra, rb) = (
            PlatformSummary::modelled(&gpu, &[(&a, 3)], FREQ),
            PlatformSummary::modelled(&gpu, &[(&b, 5)], FREQ),
        );
        assert_eq!(whole.requests, ra.requests + rb.requests);
        assert_eq!(whole.dag_ops, ra.dag_ops + rb.dag_ops);
        assert_eq!(
            whole.modelled_cycles,
            ra.modelled_cycles + rb.modelled_cycles
        );
    }

    #[test]
    fn nothing_served_prices_to_no_throughput_and_no_edp() {
        let row = PlatformSummary::modelled(&BaselineModel::spu(), &[], FREQ);
        assert_eq!((row.requests, row.dag_ops, row.modelled_cycles), (0, 0, 0));
        assert_eq!(row.gops(FREQ), 0.0);
        assert_eq!(row.edp_pj_ns(FREQ), None);
    }

    #[test]
    fn edp_is_power_over_gops_squared() {
        let (a, b) = (binary_dag(), square_dag());
        let row = PlatformSummary::modelled(&BaselineModel::cpu(), &[(&a, 7), (&b, 2)], FREQ);
        let gops = row.gops(FREQ);
        assert!(gops > 0.0);
        let want = row.power_w / (gops * gops) * 1e3;
        let got = row.edp_pj_ns(FREQ).expect("work was priced");
        assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
    }
}
