//! Serving runtime for the DPU-v2 reproduction: compile-once program
//! cache, multi-core batch engine, and round planner.
//!
//! The paper's DPU-v2 (L) configuration serves DAG workloads by running
//! parallel cores in batch mode (§V-C2: "the parallel cores can either
//! perform batch execution (used for benchmarking) or execute different
//! DAGs"). This crate turns the cycle-level simulator into that serving
//! engine:
//!
//! - [`ProgramCache`] compiles each distinct (DAG, [`ArchConfig`]) pair
//!   **once**, under concurrent access, and shares the resulting
//!   [`Arc<Compiled>`](dpu_compiler::Compiled) — and its decode — across
//!   requests, with hit/miss/decode statistics ([`CacheStats`]). Built
//!   over a [`SpillStore`] (a content-addressed spill directory,
//!   [`EngineOptions::spill_dir`]), it also persists every compile to
//!   disk and back-fills from disk on miss, so a restarted engine starts
//!   warm and a new process can pre-warm from a peer's spill
//!   ([`Engine::prewarm`]) — compile work is paid once per *fleet*, not
//!   once per process.
//! - [`ProgramStore`] is that cache plus the registry of DAGs: the
//!   paper's static-connectivity premise (§III-B, §IV — a DAG is compiled
//!   once, offline, and the program reused over every input) as a type.
//!   An [`Engine`] built with [`Engine::new`] has one of its own; the
//!   engine shards of a [`Dispatcher`] are siblings over **one**
//!   ([`Engine::sharing`], [`engine_shards`]), so a DAG is registered,
//!   compiled and decoded once per dispatcher, not once per shard.
//! - [`Engine`] is the one executor: [`Engine::execute_round`] runs a
//!   round's requests grouped by DAG, one pre-decoded program over up to
//!   eight input sets per pass, on a caller-owned
//!   [`Machine`](dpu_sim::Machine). [`Engine::serve`] spawns nothing of its
//!   own: it serves a slice of [`Request`]s on a [`Dispatcher`] of
//!   [`EngineOptions::workers`] sibling shards, so a batch runs in grouped
//!   rounds. Results are byte-identical to serial execution regardless of
//!   shard count.
//! - [`Dispatcher`] is the async layer above the engine: [`Submitter`]
//!   handles admit requests continuously into pending rounds, rounds close
//!   adaptively under a latency budget ([`DispatchOptions::max_wait`] /
//!   [`DispatchOptions::max_batch`]), each request is routed to one of N
//!   shards by its [`DagKey`] (so a round holds few distinct programs
//!   and each runs over many inputs per pass) with work
//!   stealing when a shard backs up, and results come back through
//!   per-request [`Ticket`] completion handles. Shutdown is deterministic
//!   and loss-free. Every ticketed request carries a latency [`Timeline`]
//!   (arrival → accepted → round-closed → execute-start → completed), and
//!   the dispatcher aggregates per-shard mergeable [`LatencyHistogram`]s
//!   into [`DispatchReport::latency`]
//!   — p50/p99 (any quantile) of queueing, batching, service and end-to-end response
//!   time, the closed-loop half of the serving claim.
//! - [`PlatformSummary::modelled`] prices the traffic a run served on the
//!   paper's baseline platforms (`dpu_baselines::BaselineModel` — the
//!   CPU/GPU/DPU-v1/SPU comparison points, §V-C / Table III): the models
//!   are pure functions of DAG shape, so a baseline's cycles, GOPS and EDP
//!   are computed from each DAG's completion count, not served.
//! - [`plan_rounds`] packs the heterogeneous requests into rounds over
//!   the modelled DPU-v2 (L) cores exactly the way
//!   [`BatchResult`](dpu_sim::BatchResult) models batch wall-clock:
//!   every round runs up to `cores` requests in parallel and costs its
//!   longest member's cycles. `cores` is the engine's
//!   ([`EngineOptions::cores`]) — for [`Engine::serve`]'s batch plan and
//!   for every round a dispatcher shard runs. The [`ServingReport`]
//!   therefore carries *both* clocks: simulated-hardware cycles (and GOPS as
//!   [`throughput_ops`](dpu_sim::throughput_ops) defines it — DAG
//!   operations over execution time) and host wall-clock.
//!
//! [`ArchConfig`]: dpu_isa::ArchConfig
//!
//! # Example
//!
//! ```
//! use dpu_dag::{DagBuilder, Op};
//! use dpu_isa::ArchConfig;
//! use dpu_compiler::CompileOptions;
//! use dpu_runtime::{Engine, EngineOptions, Request};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let x = b.input();
//! let y = b.input();
//! let s = b.node(Op::Add, &[x, y])?;
//! b.node(Op::Mul, &[s, s])?;
//! let dag = b.finish()?;
//!
//! let engine = Engine::new(
//!     ArchConfig::new(2, 8, 16)?,
//!     CompileOptions::default(),
//!     EngineOptions::default(),
//! );
//! let key = engine.register(dag);
//! let requests: Vec<Request> = (0..32)
//!     .map(|i| Request::new(key, vec![i as f32, 2.0]))
//!     .collect();
//! let report = engine.serve(&requests);
//! assert!(report.failures.is_empty());
//! assert_eq!(report.results.len(), 32);
//! assert_eq!(report.cache.misses, 1); // compiled exactly once
//! assert!(report.gops(300e6) > 0.0);
//! # Ok(())
//! # }
//! ```

use dpu_compiler::persist::op_tag;
use dpu_dag::Dag;
use dpu_isa::Fnv1a;

pub mod cache;
pub mod chaos;
pub mod dispatch;
pub mod ingest;
pub mod latency;
pub mod pool;
pub mod report;
mod sched;
mod wake;

pub use dpu_sim::planner;

pub use cache::{CacheKey, CacheStats, ProgramCache, SpillLookup, SpillStore};
pub use chaos::{ChaosEvent, ChaosPlan};
pub use dispatch::{engine_shards, home_shard, DispatchOptions, Dispatcher};
pub use ingest::{
    Outcome, Priority, ShedReason, SubmitAllError, SubmitOptions, SubmitRejection, Submitter,
    Ticket,
};
pub use latency::{Clock, LatencyHistogram, LatencyReport, Timeline};
pub use planner::{plan_rounds, BatchPlan, RoundPlan};
pub use pool::{Engine, EngineOptions, ProgramStore, Request, ServeError, ServingReport};
pub use report::{ClassReport, DispatchReport, PlatformSummary, ShardReport};

/// Parallel core count of the paper's DPU-v2 (L) configuration (§V-C2) —
/// the default `cores` value of [`EngineOptions`].
pub const DPU_V2_L_CORES: usize = 8;

/// Content identity of a DAG: a stable 64-bit structural fingerprint.
///
/// Two DAGs get the same key iff they have identical node count, per-node
/// operations, and per-node operand lists (operand *order* included — it
/// is semantically significant for `Sub`/`Div`). The fingerprint is
/// platform- and process-independent (FNV-1a, no randomized hashing), so
/// keys are stable across runs and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DagKey(pub u64);

impl std::fmt::Display for DagKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dag:{:016x}", self.0)
    }
}

/// Computes the [`DagKey`] of a DAG — the content-hash half of the
/// program cache key.
pub fn dag_fingerprint(dag: &Dag) -> DagKey {
    let mut h = Fnv1a::default();
    h.word(dag.len() as u64);
    for n in dag.nodes() {
        h.word(u64::from(op_tag(dag.op(n))));
        let preds = dag.preds(n);
        h.word(preds.len() as u64);
        for &p in preds {
            h.word(p.index() as u64);
        }
    }
    DagKey(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::{DagBuilder, Op};

    fn small(op: Op) -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        b.node(op, &[x, y]).unwrap();
        b.finish().unwrap()
    }

    /// Known answer, computed before the hash and the op-tag table were
    /// shared with the codec: keys of existing spill directories stay valid.
    #[test]
    fn dag_key_is_pinned() {
        assert_eq!(
            dag_fingerprint(&small(Op::Sub)),
            DagKey(0xcae0_9202_1ff0_3406)
        );
    }

    #[test]
    fn identical_structure_same_key() {
        assert_eq!(
            dag_fingerprint(&small(Op::Add)),
            dag_fingerprint(&small(Op::Add))
        );
    }

    #[test]
    fn different_op_different_key() {
        assert_ne!(
            dag_fingerprint(&small(Op::Add)),
            dag_fingerprint(&small(Op::Mul))
        );
    }

    #[test]
    fn operand_order_matters() {
        let build = |swap: bool| {
            let mut b = DagBuilder::new();
            let x = b.input();
            let y = b.input();
            let (l, r) = if swap { (y, x) } else { (x, y) };
            b.node(Op::Sub, &[l, r]).unwrap();
            b.finish().unwrap()
        };
        assert_ne!(
            dag_fingerprint(&build(false)),
            dag_fingerprint(&build(true))
        );
    }
}
