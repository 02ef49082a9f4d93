//! The [`Backend`] trait: the dispatcher's execution seam.
//!
//! Every [`Dispatcher`](crate::Dispatcher) shard serves with a simulated
//! DPU-v2 [`Engine`]. The trait exists so a shard can wrap its engine to
//! change *how* a round executes without a second path through the
//! dispatcher: the fault-injection tests wrap one to panic on a poison
//! request or to sleep before each round. Everything else the dispatcher
//! needs it reads off [`Backend::engine`]: the configuration (and so which
//! shards may steal from each other, `dpu_verify::steal_compatible`), the
//! program store a DAG is registered in, pre-warmed from and reported on.
//!
//! Contract every backend must honor (the dispatcher's determinism
//! guarantees are built on it):
//!
//! - **The engine's results.** Whatever a wrapper does around it,
//!   [`Backend::execute_round`]'s outcome for each request is what
//!   [`Engine::execute_round`] on [`Backend::engine`] returns for it, or a
//!   panic. The dispatcher moves rounds between shards whose engines'
//!   configurations are steal-compatible, and recovers a panicking shard's
//!   backlog onto them, on the promise that every such shard answers
//!   byte-identically.
//! - **Pure results.** An outcome is a pure function of (engine
//!   configuration, registered DAG, request inputs) — no time-,
//!   scheduling- or history-dependence, and no dependence on the round's
//!   other members: a request fails or succeeds alone, exactly as it would
//!   in a round of its own. The per-worker [`Machine`] exists *only* to
//!   reuse allocations.
//!
//! Backends stay out of admission control entirely: deadline shedding and
//! priority-aware round selection happen in the dispatcher *before* a
//! round reaches this seam. A job shed for a hopeless deadline is resolved
//! ([`Outcome::Shed`](crate::Outcome)) without ever being passed to
//! [`Backend::execute_round`], so a backend never sees — and never needs to
//! reason about — deadlines, priorities, or queue capacity.

use dpu_sim::{Machine, RunResult};

use crate::pool::{Engine, Request, ServeError};

/// An execution backend a [`Dispatcher`](crate::Dispatcher) shard serves
/// requests on. See the module docs for the contract.
pub trait Backend: Send + Sync {
    /// The engine behind this shard: its configuration sets the shard's
    /// steal class and its program store is where the dispatcher registers
    /// DAGs, pre-warms from and reads cache statistics.
    fn engine(&self) -> &Engine;

    /// Executes one dispatcher round's worth of requests on the shard
    /// worker's machine, returning one outcome per request in request
    /// order. Outcome `i` must be byte-identical to what a round of
    /// request `i` alone returns, including whether it fails (see the
    /// contract in the module docs). Admission control happens in the
    /// dispatcher: a round reaching this seam contains only jobs that
    /// passed the deadline gate.
    fn execute_round(
        &self,
        machine: &mut Machine,
        requests: &[&Request],
    ) -> Vec<Result<RunResult, ServeError>>;
}

/// An [`Engine`] *is* a backend: it executes its rounds itself.
impl Backend for Engine {
    fn engine(&self) -> &Engine {
        self
    }

    fn execute_round(
        &self,
        machine: &mut Machine,
        requests: &[&Request],
    ) -> Vec<Result<RunResult, ServeError>> {
        Engine::execute_round(self, machine, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_compiler::CompileOptions;
    use dpu_dag::{DagBuilder, Op};
    use dpu_isa::ArchConfig;

    use crate::pool::EngineOptions;

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
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, s]).unwrap();
        let key = engine.register(b.finish().unwrap());
        let backend: &dyn Backend = &engine;
        assert!(std::ptr::eq(backend.engine(), &engine));
        let request = Request::new(key, vec![2.0, 3.0]);
        let mut machine = Machine::new(*engine.config());
        let got = backend.execute_round(&mut machine, &[&request]);
        assert_eq!(got, engine.execute_round(&mut machine, &[&request]));
        assert_eq!(got[0].as_ref().unwrap().outputs, vec![25.0]);
    }
}
