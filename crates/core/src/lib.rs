//! High-level facade of the DPU-v2 reproduction.
//!
//! This crate re-exports every sub-crate and offers a one-call API, [`Dpu`],
//! covering the common flow: configure → compile → run → measure.
//!
//! # Quickstart
//!
//! ```
//! use dpu_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Describe a computation DAG.
//! let mut b = DagBuilder::new();
//! let x = b.input();
//! let y = b.input();
//! let s = b.node(Op::Add, &[x, y])?;
//! b.node(Op::Mul, &[s, s])?;
//! let dag = b.finish()?;
//!
//! // 2. Compile it for the paper's min-EDP design and run it.
//! let dpu = Dpu::min_edp();
//! let program = dpu.compile(&dag)?;
//! let run = dpu.execute(&program, &[1.0, 2.0])?;
//! assert_eq!(run.outputs, vec![9.0]);
//!
//! // 3. Measure.
//! let m = dpu.metrics(&run);
//! assert!(m.energy_per_op_pj > 0.0);
//! # Ok(())
//! # }
//! ```

pub use dpu_baselines as baselines;
pub use dpu_compiler as compiler;
pub use dpu_dag as dag;
pub use dpu_dse as dse;
pub use dpu_energy as energy;
pub use dpu_isa as isa;
pub use dpu_runtime as runtime;
pub use dpu_sim as sim;
pub use dpu_verify as verify;
pub use dpu_workloads as workloads;

use dpu_compiler::{compile, CompileError, CompileOptions, Compiled};
use dpu_dag::Dag;
use dpu_energy::Metrics;
use dpu_isa::ArchConfig;
use dpu_runtime::{
    engine_shards, DispatchOptions, Dispatcher, Engine, EngineOptions, Request, ServingReport,
};
use dpu_sim::{RunResult, SimError, VerifyReport};

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use crate::Dpu;
    pub use dpu_baselines::BaselineModel;
    pub use dpu_compiler::{CompileOptions, Compiled};
    pub use dpu_dag::{Dag, DagBuilder, NodeId, Op};
    pub use dpu_energy::Metrics;
    pub use dpu_isa::{ArchConfig, Topology};
    pub use dpu_runtime::{
        CacheStats, ChaosEvent, ChaosPlan, ClassReport, DagKey, DispatchOptions, DispatchReport,
        Dispatcher, Engine, EngineOptions, LatencyHistogram, LatencyReport, Outcome,
        PlatformSummary, Priority, ProgramCache, ProgramStore, Request, ServeError, ServingReport,
        ShedReason, SpillStore, SubmitAllError, SubmitOptions, SubmitRejection, Submitter, Ticket,
        Timeline,
    };
    pub use dpu_sim::{RunResult, VerifyReport};
    // The static analyzer's report type stays behind its crate path
    // (`dpu_core::verify::VerifyReport`) to avoid clashing with the
    // simulator's dynamic `VerifyReport` above.
    pub use dpu_verify::{steal_compatible, ConfigFacts, VerifyError};
}

/// A configured DPU-v2 instance: an architecture point plus compiler
/// options.
#[derive(Debug, Clone, Default)]
pub struct Dpu {
    /// Architecture configuration.
    pub config: ArchConfig,
    /// Compiler options.
    pub options: CompileOptions,
}

impl Dpu {
    /// A DPU-v2 with the given configuration and default compiler options.
    pub fn new(config: ArchConfig) -> Self {
        Dpu {
            config,
            options: CompileOptions::default(),
        }
    }

    /// The paper's min-EDP design point (`D=3, B=64, R=32`).
    pub fn min_edp() -> Self {
        Dpu::new(ArchConfig::min_edp())
    }

    /// The paper's large configuration DPU-v2 (L).
    pub fn large() -> Self {
        Dpu::new(ArchConfig::large())
    }

    /// Compiles `dag` for this instance.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile(&self, dag: &Dag) -> Result<Compiled, CompileError> {
        compile(dag, &self.config, &self.options)
    }

    /// Runs a compiled program once with the given DAG inputs (decode,
    /// fresh machine, run — [`sim::execute`]). To run one program many
    /// times, decode once and use [`sim::run_decoded_on`], or serve it
    /// through [`Dpu::engine`].
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn execute(&self, compiled: &Compiled, inputs: &[f32]) -> Result<RunResult, SimError> {
        dpu_sim::execute(compiled, inputs)
    }

    /// Runs and verifies against the reference evaluator.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn execute_verified(
        &self,
        compiled: &Compiled,
        inputs: &[f32],
    ) -> Result<VerifyReport, SimError> {
        dpu_sim::run_and_verify(compiled, inputs)
    }

    /// Latency/energy/EDP metrics of a run on this configuration.
    pub fn metrics(&self, run: &RunResult) -> Metrics {
        dpu_energy::metrics(&self.config, run)
    }

    /// Builds a serving [`Engine`] for this instance: a compile-once
    /// program cache whose `serve` runs a batch on a dispatcher of
    /// `options.workers` shards (see `dpu-runtime`).
    /// Use this form to keep the engine alive across batches so the cache
    /// stays warm.
    pub fn engine(&self, options: EngineOptions) -> Engine {
        Engine::new(self.config, self.options.clone(), options)
    }

    /// Builds an async sharded [`Dispatcher`] for this instance: requests
    /// flow in continuously through [`Submitter`](dpu_runtime::Submitter)
    /// handles, rounds close adaptively under the latency budget, and
    /// each request is routed to one of `options.shards` engine replicas
    /// by its DAG fingerprint (key affinity, work-stealing fallback); the
    /// replicas share one program store, so a DAG is compiled and decoded
    /// once per dispatcher. The replicas are built from
    /// [`EngineOptions::default()`]; for other engine settings (modelled
    /// cores, store capacity, spill directory) pass your own options to
    /// [`runtime::engine_shards`] and hand its engines to
    /// [`Dispatcher::new`]. See `dpu-runtime`'s `dispatch` module docs.
    pub fn dispatcher(&self, options: DispatchOptions) -> Dispatcher {
        let configs = vec![self.config; options.shards];
        let engines = engine_shards(&configs, self.options.clone(), &EngineOptions::default());
        Dispatcher::new(engines, options)
    }

    /// One-call batch serving: registers `dags`, then serves `requests`
    /// given as `(dag index, inputs)` pairs. Outputs are byte-identical
    /// to running each request serially through [`Dpu::execute`];
    /// failures are isolated per request in
    /// [`ServingReport::failures`](dpu_runtime::ServingReport), never
    /// fate-shared across the batch.
    ///
    /// For repeated batches over the same DAGs, build a persistent engine
    /// with [`Dpu::engine`] instead so compiled programs are reused
    /// across calls.
    ///
    /// # Panics
    ///
    /// Panics if a request's DAG index is out of range.
    pub fn serve(
        &self,
        dags: Vec<Dag>,
        requests: &[(usize, Vec<f32>)],
        options: EngineOptions,
    ) -> ServingReport {
        let engine = self.engine(options);
        let keys: Vec<_> = dags.into_iter().map(|d| engine.register(d)).collect();
        let stream: Vec<Request> = requests
            .iter()
            .map(|(which, inputs)| Request::new(keys[*which], inputs.clone()))
            .collect();
        engine.serve(&stream)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_end_to_end() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Sub, &[s, x]).unwrap();
        let dag = b.finish().unwrap();
        let dpu = Dpu::min_edp();
        let c = dpu.compile(&dag).unwrap();
        let rep = dpu.execute_verified(&c, &[4.0, 5.0]).unwrap();
        assert_eq!(rep.result.outputs, vec![5.0]);
        let m = dpu.metrics(&rep.result);
        assert!(m.latency_per_op_ns > 0.0);
    }

    #[test]
    fn large_config_has_more_registers() {
        assert!(Dpu::large().config.regs_per_bank > Dpu::min_edp().config.regs_per_bank);
    }

    #[test]
    fn facade_dispatches_async() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        b.node(Op::Mul, &[x, y]).unwrap();
        let dag = b.finish().unwrap();
        let dpu = Dpu::new(ArchConfig::new(2, 8, 16).unwrap());
        let dispatcher = dpu.dispatcher(DispatchOptions {
            shards: 2,
            max_batch: 4,
            ..Default::default()
        });
        let key = dispatcher.register(dag);
        let submitter = dispatcher.submitter();
        let tickets: Vec<Ticket> = (0..9)
            .map(|i| {
                submitter
                    .submit(Request::new(key, vec![i as f32, 3.0]))
                    .unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap().outputs, vec![i as f32 * 3.0]);
        }
        let report = dispatcher.shutdown();
        assert_eq!(report.submitted, 9);
        assert_eq!(report.served, 9);
    }

    /// The baselines are priced on what a dispatcher served, not served:
    /// every row divides the DPU's operations by its own modelled time.
    #[test]
    fn facade_prices_baselines() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        b.node(Op::Add, &[x, y]).unwrap();
        let dag = b.finish().unwrap();
        let dpu = Dpu::new(ArchConfig::new(2, 8, 16).unwrap());
        let dispatcher = dpu.dispatcher(DispatchOptions {
            shards: 2,
            max_batch: 4,
            ..Default::default()
        });
        let key = dispatcher.register(dag.clone());
        let submitter = dispatcher.submitter();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                submitter
                    .submit(Request::new(key, vec![i as f32, 1.0]))
                    .unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap().outputs, vec![i as f32 + 1.0]);
        }
        let report = dispatcher.shutdown();
        assert_eq!(report.served, 8);
        // The two DPU shards serve from one program store.
        assert_eq!(report.stores.len(), 1);
        let cache = report.cache_totals();
        assert_eq!((cache.misses, cache.decode_count, cache.entries), (1, 1, 1));
        assert_eq!(cache.hits + cache.misses, 8);
        let freq = crate::energy::calib::FREQ_HZ;
        for model in [BaselineModel::cpu(), BaselineModel::gpu()] {
            let row = PlatformSummary::modelled(&model, &[(&dag, report.served)], freq);
            assert_eq!(row.requests, 8);
            assert_eq!(row.dag_ops, report.total_dag_ops(), "{}", row.platform);
            assert!(row.gops(freq) > 0.0, "{}: no throughput", row.platform);
            assert!(row.edp_pj_ns(freq).unwrap() > 0.0);
        }
    }

    #[test]
    fn facade_serves_batches() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        b.node(Op::Add, &[x, y]).unwrap();
        let dag = b.finish().unwrap();
        let dpu = Dpu::new(ArchConfig::new(2, 8, 16).unwrap());
        let requests: Vec<(usize, Vec<f32>)> = (0..12).map(|i| (0, vec![i as f32, 1.0])).collect();
        let report = dpu.serve(vec![dag], &requests, EngineOptions::default());
        assert!(report.failures.is_empty());
        assert_eq!(report.results.len(), 12);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.outputs, vec![i as f32 + 1.0]);
        }
        assert_eq!(report.cache.misses, 1);
    }
}
