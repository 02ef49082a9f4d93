//! The [`Backend`] trait: the dispatcher's execution seam.
//!
//! A *backend* is anything that can register DAGs and execute
//! [`Request`]s deterministically: the cycle-level simulated DPU-v2
//! ([`Engine`]) or an analytic baseline platform model
//! ([`BaselineBackend`] over [`BaselineModel`] — the paper's measured
//! CPU/GPU/DPU-v1/SPU comparison points, §V-C / Table III). The
//! [`Dispatcher`](crate::Dispatcher) routes rounds to backends without
//! knowing which kind it is talking to, which is what makes **live**
//! DPU-vs-baseline serving possible: the same request stream flows
//! through heterogeneous shards, and the report carries per-platform
//! throughput/GOPS/EDP side by side.
//!
//! Contract every backend must honor (the dispatcher's determinism
//! guarantees are built on it):
//!
//! - **Pure results.** [`Backend::execute_round`]'s outcome for each
//!   request must be a pure function of (backend construction parameters,
//!   registered DAG, request inputs) — no time-, scheduling- or
//!   history-dependence, and no dependence on the round's other members:
//!   a request fails or succeeds alone, exactly as it would in a round of
//!   its own. The per-worker [`Scratch`] exists *only* to reuse
//!   allocations.
//! - **Stable keys.** [`Backend::register`] must file the DAG under the
//!   [`DagKey`] it is handed — the DAG's
//!   [`dag_fingerprint`](crate::dag_fingerprint()), computed once by the
//!   dispatcher — so the same DAG has the same key on every shard.
//! - **Honest steal classes.** Two backends may report equal
//!   [`StealClass`]es only if they produce byte-identical results for
//!   every request — the dispatcher moves rounds freely within a class.
//! - **Honest cycle counts.** The `cycles` a backend returns per request
//!   are its *modelled service time* and feed the deterministic half of
//!   the latency accounting
//!   ([`LatencyReport::service_cycles`](crate::LatencyReport)); they must
//!   be a pure function of (backend parameters, program, inputs). Mirror
//!   shards execute ticketless shadows on the shard's own thread, so they
//!   contribute nothing to primary latency — neither to ticket timelines
//!   nor to [`DispatchReport::latency`](crate::DispatchReport::latency).
//!
//! Backends stay out of admission control entirely: deadline shedding and
//! priority-aware round selection happen in the dispatcher *before* a
//! round reaches this seam. A job shed for a hopeless deadline is resolved
//! ([`Outcome::Shed`](crate::Outcome)) without ever being passed to
//! [`Backend::execute_round`], so a backend never sees — and never needs to
//! reason about — deadlines, priorities, or queue capacity.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use dpu_baselines::BaselineModel;
use dpu_dag::Dag;
use dpu_isa::ArchConfig;
use dpu_sim::{Activity, Machine, RunResult};

use crate::planner::plan_rounds;
use crate::pool::{Engine, ProgramStore, Request, ServeError};
use crate::DagKey;

/// Per-worker execution state owned by a shard thread: a reusable
/// [`Machine`] for simulated backends, nothing for analytic ones. Opaque
/// so third-party [`Backend`]s can carry whatever they need.
pub type Scratch = Box<dyn Any + Send>;

/// Work-stealing identity of a backend: the dispatcher lets one shard
/// steal another's rounds **only** when their classes are equal, because
/// within a class every shard produces byte-identical per-request
/// results. Simulated and analytic backends are never interchangeable,
/// and neither are two analytic models with different parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum StealClass {
    /// Cycle-level simulated DPU-v2 at this architecture point.
    Sim(ArchConfig),
    /// Analytic baseline with exactly these model parameters, at this
    /// reference clock (Hz) — the clock is part of the identity because
    /// it determines the per-request cycle counts.
    Analytic(BaselineModel, f64),
}

impl StealClass {
    /// Whether two classes produce byte-identical results for every
    /// request — the relation the dispatcher builds its stealing graph
    /// on.
    ///
    /// For two simulated DPU shards this is the statically proven
    /// relation [`dpu_verify::steal_compatible`]: equality on every
    /// code-generation-relevant config field (`depth`, `banks`,
    /// `regs_per_bank`, `topology`), with `data_mem_rows` exempt because
    /// the compiler never reads the capacity — only the footprint, which
    /// the verifier bounds-checks per program at compile and spill-load
    /// time. Analytic classes still require exact parameter equality.
    pub fn compatible(&self, other: &StealClass) -> bool {
        match (self, other) {
            (StealClass::Sim(a), StealClass::Sim(b)) => dpu_verify::steal_compatible(a, b),
            _ => self == other,
        }
    }
}

/// An execution backend a [`Dispatcher`](crate::Dispatcher) shard can
/// serve requests on. See the module docs for the contract.
pub trait Backend: Send + Sync {
    /// Stable machine-friendly platform key (`dpu_v2`, `cpu`, `gpu`,
    /// `dpu_v1`, `spu`, ...) — serving reports group shards by it.
    fn platform(&self) -> &'static str;

    /// Registers `dag` under `key`, its structural fingerprint. A
    /// dispatcher fingerprints a DAG once and hands every shard the same
    /// `Arc`, so registration copies nothing. Idempotent.
    fn register(&self, key: DagKey, dag: Arc<Dag>);

    /// Creates the per-worker scratch state (called once per shard
    /// thread).
    fn scratch(&self) -> Scratch;

    /// Executes one dispatcher round's worth of requests, returning one
    /// outcome per request in request order — the backend's one execution
    /// method. A backend with per-program setup cost amortizes it across
    /// the round's repeat-program requests ([`Engine`] runs one
    /// pre-decoded program over all of a group's input sets).
    ///
    /// Outcome `i` must be byte-identical to what a round of request `i`
    /// alone returns, including whether it fails (see the purity contract
    /// in the module docs). Admission control happens in the dispatcher: a
    /// round reaching this seam contains only jobs that passed the
    /// deadline gate.
    fn execute_round(
        &self,
        scratch: &mut Scratch,
        requests: &[&Request],
    ) -> Vec<Result<RunResult, ServeError>>;

    /// Modelled cycles one closed round costs on this platform, given
    /// each member's per-request cycles and the dispatcher's modelled
    /// core count. Simulated DPU shards pack the round onto `cores`
    /// parallel cores; whole-platform analytic models run members
    /// serially (each evaluation already uses the entire platform).
    fn round_cycles(&self, costs: &[u64], cores: usize) -> u64;

    /// Work-stealing identity; see [`StealClass`].
    fn steal_class(&self) -> StealClass;

    /// Average power while executing, in watts — for live EDP reporting.
    /// `None` when the backend has no flat power figure (the simulated
    /// DPU's power is activity-dependent and modelled in `dpu-energy`).
    fn power_w(&self) -> Option<f64> {
        None
    }

    /// The program store behind this backend, for backends that compile.
    /// Shards of one dispatcher may share a store; its statistics are
    /// reported once per distinct store (`Arc` identity), not per shard.
    fn program_store(&self) -> Option<&Arc<ProgramStore>> {
        None
    }

    /// Back-fills the backend's program cache from persistent storage
    /// (a spill directory a peer or a previous run populated), returning
    /// the number of programs loaded — 0 for what a shard sharing the
    /// store already loaded. Default: nothing to warm. See
    /// [`Engine::prewarm`].
    fn prewarm(&self) -> usize {
        0
    }
}

/// The simulated DPU-v2 backend: an [`Engine`] *is* a backend. Scratch is
/// the worker's reusable [`Machine`]; round costs follow the batch
/// planner's optimal packing over the modelled parallel cores.
impl Backend for Engine {
    fn platform(&self) -> &'static str {
        "dpu_v2"
    }

    fn register(&self, key: DagKey, dag: Arc<Dag>) {
        Engine::program_store(self).register(key, dag);
    }

    fn scratch(&self) -> Scratch {
        Box::new(Machine::new(*self.config()))
    }

    fn execute_round(
        &self,
        scratch: &mut Scratch,
        requests: &[&Request],
    ) -> Vec<Result<RunResult, ServeError>> {
        let machine = scratch
            .downcast_mut::<Machine>()
            .expect("engine scratch is a Machine");
        Engine::execute_round(self, machine, requests)
    }

    fn round_cycles(&self, costs: &[u64], cores: usize) -> u64 {
        plan_rounds(costs, cores).total_cycles
    }

    fn steal_class(&self) -> StealClass {
        StealClass::Sim(*self.config())
    }

    fn program_store(&self) -> Option<&Arc<ProgramStore>> {
        Some(Engine::program_store(self))
    }

    fn prewarm(&self) -> usize {
        Engine::prewarm(self)
    }
}

/// A registered DAG on a [`BaselineBackend`], with its input-independent
/// modelled cost memoized at registration (the analytic models are
/// shape-driven, so layering the DAG once per key is enough).
struct BaselineEntry {
    dag: Arc<Dag>,
    cycles: u64,
    dag_ops: u64,
}

/// An analytic baseline platform serving live traffic: wraps a
/// [`BaselineModel`] (CPU / GPU / DPU-v1 / SPU) behind the [`Backend`]
/// seam. Outputs come from the reference DAG evaluator; per-request cost
/// is the model's predicted execution time, expressed in cycles of the
/// dispatcher's reference clock so one [`DispatchReport`] can compare
/// platforms on a single time base.
///
/// [`DispatchReport`]: crate::DispatchReport
pub struct BaselineBackend {
    model: BaselineModel,
    freq_hz: f64,
    dags: RwLock<HashMap<DagKey, BaselineEntry>>,
}

impl std::fmt::Debug for BaselineBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineBackend")
            .field("model", &self.model)
            .field("freq_hz", &self.freq_hz)
            .field(
                "registered_dags",
                &self.dags.read().expect("dag registry poisoned").len(),
            )
            .finish()
    }
}

impl BaselineBackend {
    /// Wraps `model`, converting its modelled seconds to cycles at
    /// `freq_hz` — pass the same reference frequency the report's
    /// GOPS accessors will be queried with (the DPU clock,
    /// `dpu_energy::calib::FREQ_HZ`, in every shipped bench).
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not strictly positive.
    pub fn new(model: BaselineModel, freq_hz: f64) -> Self {
        assert!(freq_hz > 0.0, "reference frequency must be positive");
        BaselineBackend {
            model,
            freq_hz,
            dags: RwLock::new(HashMap::new()),
        }
    }

    /// The wrapped platform model.
    pub fn model(&self) -> &BaselineModel {
        &self.model
    }

    /// Looks up a registered DAG.
    pub fn dag(&self, key: DagKey) -> Option<Arc<Dag>> {
        let dags = self.dags.read().expect("dag registry poisoned");
        dags.get(&key).map(|e| Arc::clone(&e.dag))
    }
}

impl Backend for BaselineBackend {
    fn platform(&self) -> &'static str {
        self.model.platform()
    }

    fn register(&self, key: DagKey, dag: Arc<Dag>) {
        let mut dags = self.dags.write().expect("dag registry poisoned");
        dags.entry(key).or_insert_with(|| {
            // ceil, so no DAG is ever modelled as free: sub-cycle
            // predictions still cost one reference cycle.
            let cycles = (self.model.exec_time_s(&dag) * self.freq_hz).ceil() as u64;
            // Count operations of the *binarized* DAG — the numerator the
            // simulated DPU reports — so per-platform GOPS within one
            // dispatch report divide the same work by each platform's
            // time. (The model's exec time stays layered over the source
            // DAG: the measured platforms ran n-ary nodes natively.)
            let dag_ops = dag.binarize().0.op_count() as u64;
            BaselineEntry {
                dag_ops,
                cycles: cycles.max(1),
                dag,
            }
        });
    }

    fn scratch(&self) -> Scratch {
        Box::new(())
    }

    fn execute_round(
        &self,
        _scratch: &mut Scratch,
        requests: &[&Request],
    ) -> Vec<Result<RunResult, ServeError>> {
        let dags = self.dags.read().expect("dag registry poisoned");
        requests
            .iter()
            .map(|request| {
                let entry = dags
                    .get(&request.dag)
                    .ok_or(ServeError::UnknownDag(request.dag))?;
                let run = self
                    .model
                    .execute(&entry.dag, &request.inputs)
                    .map_err(ServeError::Inputs)?;
                Ok(RunResult {
                    cycles: entry.cycles,
                    outputs: run.outputs,
                    activity: Activity::default(),
                    dag_ops: entry.dag_ops,
                })
            })
            .collect()
    }

    fn round_cycles(&self, costs: &[u64], _cores: usize) -> u64 {
        // One evaluation occupies the whole modelled platform, so a round
        // executes its members back to back.
        costs.iter().sum()
    }

    fn steal_class(&self) -> StealClass {
        StealClass::Analytic(self.model, self.freq_hz)
    }

    fn power_w(&self) -> Option<f64> {
        Some(self.model.power_w())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_compiler::CompileOptions;
    use dpu_dag::{eval, DagBuilder, Op};

    use crate::dag_fingerprint;
    use crate::pool::EngineOptions;

    /// Registers `dag` the way a dispatcher does: fingerprinted once.
    fn register(backend: &dyn Backend, dag: Dag) -> DagKey {
        let key = dag_fingerprint(&dag);
        backend.register(key, Arc::new(dag));
        key
    }

    fn small_dag() -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, s]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn engine_backend_matches_direct_engine_calls() {
        let engine = Engine::new(
            ArchConfig::new(2, 8, 16).unwrap(),
            CompileOptions::default(),
            EngineOptions {
                workers: 1,
                cores: 4,
                ..Default::default()
            },
        );
        let backend: &dyn Backend = &engine;
        assert_eq!(backend.platform(), "dpu_v2");
        let key = register(backend, small_dag());
        let mut scratch = backend.scratch();
        let request = Request::new(key, vec![2.0, 3.0]);
        let got = backend.execute_round(&mut scratch, &[&request]);
        let mut machine = Machine::new(*engine.config());
        assert_eq!(got, engine.execute_round(&mut machine, &[&request]));
        assert_eq!(got[0].as_ref().unwrap().outputs, vec![25.0]);
        assert_eq!(
            backend.steal_class(),
            StealClass::Sim(*engine.config()),
            "engine steal class is its architecture point"
        );
        assert_eq!(backend.round_cycles(&[10, 10, 10, 10, 10], 4), 20);
        assert!(backend.power_w().is_none());
    }

    #[test]
    fn baseline_backend_serves_reference_outputs_at_model_cost() {
        let dag = small_dag();
        let backend = BaselineBackend::new(BaselineModel::cpu(), 300e6);
        let key = register(&backend, dag.clone());
        // Idempotent re-register.
        assert_eq!(register(&backend, dag.clone()), key);
        let mut scratch = backend.scratch();
        let got = backend
            .execute_round(&mut scratch, &[&Request::new(key, vec![2.0, 3.0])])
            .remove(0)
            .unwrap();
        assert_eq!(
            got.outputs,
            eval::evaluate_sinks(&dag, &[2.0, 3.0]).unwrap()
        );
        let want_cycles = (BaselineModel::cpu().exec_time_s(&dag) * 300e6).ceil() as u64;
        assert_eq!(got.cycles, want_cycles.max(1));
        assert_eq!(got.dag_ops, dag.op_count() as u64);
        // Rounds run serially on a whole-platform model.
        assert_eq!(backend.round_cycles(&[5, 7], 8), 12);
        assert_eq!(backend.power_w(), Some(BaselineModel::cpu().power_w()));
    }

    /// One round mixing good requests with an unknown DAG and a
    /// wrong-arity request: only the bad members fail, and the good ones
    /// get the reference evaluator's outputs.
    #[test]
    fn baseline_backend_rejects_unknown_dag_and_bad_arity() {
        let dag = small_dag();
        let backend = BaselineBackend::new(BaselineModel::gpu(), 300e6);
        let key = register(&backend, dag.clone());
        let round = [
            Request::new(key, vec![2.0, 3.0]),
            Request::new(DagKey(0xbad), vec![]),
            Request::new(key, vec![-1.0, 0.5]),
            Request::new(key, vec![1.0]),
            Request::new(key, vec![4.0, 4.0]),
        ];
        let refs: Vec<&Request> = round.iter().collect();
        let outcomes = backend.execute_round(&mut backend.scratch(), &refs);
        assert_eq!(outcomes.len(), round.len());
        for (i, (outcome, request)) in outcomes.into_iter().zip(&round).enumerate() {
            match i {
                1 => assert!(matches!(outcome, Err(ServeError::UnknownDag(_)))),
                3 => assert!(matches!(outcome, Err(ServeError::Inputs(_)))),
                _ => assert_eq!(
                    outcome.unwrap().outputs,
                    eval::evaluate_sinks(&dag, &request.inputs).unwrap(),
                    "member {i}"
                ),
            }
        }
    }

    #[test]
    fn steal_classes_separate_platforms_params_and_clocks() {
        let cpu_a = BaselineBackend::new(BaselineModel::cpu(), 300e6);
        let cpu_b = BaselineBackend::new(BaselineModel::cpu(), 300e6);
        let gpu = BaselineBackend::new(BaselineModel::gpu(), 300e6);
        assert_eq!(cpu_a.steal_class(), cpu_b.steal_class());
        assert_ne!(cpu_a.steal_class(), gpu.steal_class());
        // Same model at a different reference clock produces different
        // per-request cycles — it must not share a steal class.
        let cpu_fast_clock = BaselineBackend::new(BaselineModel::cpu(), 1e9);
        assert_ne!(cpu_a.steal_class(), cpu_fast_clock.steal_class());
        let tweaked = BaselineBackend::new(
            BaselineModel::Cpu(dpu_baselines::cpu::CpuModel {
                cores: 4,
                ..Default::default()
            }),
            300e6,
        );
        assert_ne!(cpu_a.steal_class(), tweaked.steal_class());
    }

    #[test]
    fn sim_compatibility_is_proven_not_exact_equality() {
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let mut more_rows = cfg;
        more_rows.data_mem_rows *= 2;
        // Unequal classes (data_mem_rows differs) that are nonetheless
        // proven result-compatible: codegen never reads the capacity.
        assert_ne!(StealClass::Sim(cfg), StealClass::Sim(more_rows));
        assert!(StealClass::Sim(cfg).compatible(&StealClass::Sim(more_rows)));
        // Any codegen-relevant difference stays incompatible.
        let mut more_regs = cfg;
        more_regs.regs_per_bank = 32;
        assert!(!StealClass::Sim(cfg).compatible(&StealClass::Sim(more_regs)));
        // Analytic classes keep exact equality.
        let cpu = BaselineBackend::new(BaselineModel::cpu(), 300e6);
        let cpu_fast = BaselineBackend::new(BaselineModel::cpu(), 1e9);
        assert!(cpu.steal_class().compatible(&cpu.steal_class()));
        assert!(!cpu.steal_class().compatible(&cpu_fast.steal_class()));
        assert!(!cpu.steal_class().compatible(&StealClass::Sim(cfg)));
    }
}
