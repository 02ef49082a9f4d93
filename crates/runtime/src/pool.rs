//! The serving engine: a program store (the registry of DAGs plus the
//! shared program cache — [`ProgramStore`], one per engine or one per
//! dispatcher) and the one executor every serving path runs through.
//!
//! Execution model: [`Engine::execute_round`] groups a round's requests
//! by DAG, compiles and decodes through the [`ProgramCache`] on first
//! touch, and runs each group's pre-decoded program over all of its input
//! sets on one caller-owned [`Machine`]. The engine spawns no thread of
//! its own: [`Engine::serve`] submits a stream to a [`Dispatcher`] of
//! `EngineOptions::workers` sibling shards over this engine's store, which
//! closes it into rounds. Only [`Engine::serve_serial`] — the reference
//! pass — interprets. The *modelled* hardware parallelism — the paper's
//! DPU-v2 (L) cores — is accounted separately by [`plan_rounds`]: shards
//! decide how fast the simulation runs on this machine, cores decide how
//! many simulated cycles the batch takes on the modelled accelerator.
//!
//! Determinism: a request's [`RunResult`] depends only on its compiled
//! program and inputs (compilation is seeded and deterministic, and a
//! group member's result is the one it would get alone), so serving the
//! same request stream with 1 or `N` shards produces byte-identical
//! outputs in the same order. `Engine::serve` relies on nothing
//! time- or scheduling-dependent except the host wall-clock it reports.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use dpu_compiler::{CompileError, CompileOptions, Compiled};
use dpu_dag::{Dag, DagError, NodeId};
use dpu_isa::ArchConfig;
use dpu_sim::{run_decoded_group, run_on, Activity, DecodedProgram, Machine, RunResult, SimError};

use crate::cache::{read, write, CacheStats, ProgramCache, SpillStore};
use crate::dispatch::{DispatchOptions, Dispatcher};
use crate::ingest::{Outcome, Ticket};
use crate::planner::{plan_rounds, BatchPlan};
use crate::{dag_fingerprint, DagKey, DPU_V2_L_CORES};

/// One serving request: which registered DAG to run, on which inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Key of a DAG previously added with [`Engine::register`].
    pub dag: DagKey,
    /// Input values, in the DAG's input-ordinal order.
    pub inputs: Vec<f32>,
}

impl Request {
    /// Convenience constructor.
    pub fn new(dag: DagKey, inputs: Vec<f32>) -> Self {
        Request { dag, inputs }
    }
}

/// Engine sizing knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOptions {
    /// Dispatcher shards [`Engine::serve`] runs a batch on, each a host
    /// thread simulating rounds in parallel.
    pub workers: usize,
    /// Modelled DPU-v2 parallel cores (the paper's (L) configuration has
    /// [`DPU_V2_L_CORES`]): [`Engine::serve`]'s batch plan and every
    /// dispatcher round this engine runs are packed onto them by
    /// [`plan_rounds`]. [`Engine::new`] reads zero as one.
    pub cores: usize,
    /// Directory to persist compiled programs in (`None` = in-memory
    /// only). With a spill directory, fresh compiles are written to disk
    /// and cache misses check the disk before compiling, so an engine
    /// restarted over the same directory starts warm and a new process
    /// can [`Engine::prewarm`] from a peer's spill. See
    /// [`SpillStore`].
    ///
    /// [`SpillStore`]: crate::cache::SpillStore
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            cores: DPU_V2_L_CORES,
            spill_dir: None,
        }
    }
}

/// Serving failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A request named a DAG that was never registered.
    UnknownDag(DagKey),
    /// Compilation of a registered DAG failed.
    Compile(CompileError),
    /// Simulation of one request failed (always a compiler/runtime bug,
    /// never a data-dependent condition — see [`SimError`]). Which request
    /// is the caller's to know: [`ServingReport::failures`] pairs each
    /// error with its stream index.
    Sim(SimError),
    /// An engine rejected the request's inputs (arity mismatch against
    /// the registered DAG) — raised by an engine before it stages a
    /// round.
    Inputs(dpu_dag::DagError),
    /// The shard holding the request died — a panic at its execute site,
    /// the engine's or a chaos-plan kill's — with the request in hand, or
    /// with it queued and no surviving shard of the same steal class to
    /// recover it onto. Raised by the dispatcher, never by an engine.
    ShardLost {
        /// Index of the lost shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownDag(k) => write!(f, "unknown DAG {k}"),
            ServeError::Compile(e) => write!(f, "compile failed: {e}"),
            ServeError::Sim(e) => write!(f, "simulation failed: {e}"),
            ServeError::Inputs(e) => write!(f, "inputs rejected: {e:?}"),
            ServeError::ShardLost { shard } => write!(
                f,
                "shard {shard} lost with no surviving compatible shard to recover onto"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CompileError> for ServeError {
    fn from(e: CompileError) -> Self {
        ServeError::Compile(e)
    }
}

/// Aggregate result of serving one request stream.
///
/// Failures do not fate-share: a failing request lands in
/// [`ServingReport::failures`] while its co-batched successes keep their
/// results: [`Engine::serve`] waits one [`Ticket`] per request. When
/// `failures` is empty (the common case), `results[i]` corresponds to
/// request `i` exactly as a serial pass would produce it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Results of the successful requests, in request order — identical
    /// to what a serial pass over the same stream produces.
    pub results: Vec<RunResult>,
    /// Failed requests as `(stream index, error)`, index-ascending.
    /// Deterministic: which requests fail depends only on the stream,
    /// never on shard interleaving.
    pub failures: Vec<(usize, ServeError)>,
    /// Sum of all per-request activity counters.
    pub activity: Activity,
    /// Total arithmetic DAG operations served.
    pub total_dag_ops: u64,
    /// How the batch packs onto the modelled cores, and its simulated
    /// wall-clock.
    pub plan: BatchPlan,
    /// Program-cache statistics accumulated on this engine so far.
    pub cache: CacheStats,
    /// Dispatcher shards used (1 for the serial pass).
    pub workers: usize,
    /// Host wall-clock seconds for the whole batch.
    pub host_seconds: f64,
}

impl ServingReport {
    /// Aggregate throughput of the batch in operations per second at
    /// `freq_hz`, defined exactly as
    /// [`throughput_ops`](dpu_sim::throughput_ops) defines it: DAG
    /// operations divided by execution time, here the planned batch
    /// wall-clock on the modelled cores.
    pub fn throughput_ops(&self, freq_hz: f64) -> f64 {
        self.total_dag_ops as f64 * freq_hz / self.plan.total_cycles.max(1) as f64
    }

    /// [`ServingReport::throughput_ops`] in GOPS.
    pub fn gops(&self, freq_hz: f64) -> f64 {
        self.throughput_ops(freq_hz) / 1e9
    }

    /// Requests served per host-second (how fast *this machine* simulated
    /// the batch, as opposed to the modelled hardware throughput).
    pub fn host_requests_per_sec(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.results.len() as f64 / self.host_seconds
        } else {
            0.0
        }
    }
}

/// What one group of a round runs: the registered DAG, its compiled
/// program and that program's decode.
type GroupProgram = (Arc<Dag>, Arc<Compiled>, Arc<DecodedProgram>);

/// One dispatcher's programs: the registry of DAGs and the compile-once
/// [`ProgramCache`] behind it. A DAG's connectivity is static, so it is
/// registered, compiled and decoded **once** and the program reused over
/// every input (the paper's §III-B / §IV premise) — by every engine shard
/// of a dispatcher, which all hold the same store ([`Engine::sharing`]),
/// whatever their [`ArchConfig`]s: the cache keys programs by
/// `(DagKey, ArchConfig)`.
///
/// Three things follow from sharing. *Determinism:* which shard compiles a
/// key first is a race, sound only because compilation is seeded and
/// byte-deterministic (see [`ProgramCache`]). *Size:* the store keeps
/// every DAG registered with it and one program per DAG and config it
/// served; it removes none. *Containment:* a shard that panics while
/// holding one of the store's locks does not fail the survivors — lock
/// poison is recovered, never propagated (see the [`cache`](crate::cache)
/// module docs).
pub struct ProgramStore {
    cache: ProgramCache,
    dags: RwLock<HashMap<DagKey, Arc<Dag>>>,
}

impl ProgramStore {
    /// Statistics of the store's program cache. They are the store's, not
    /// any one shard's: a [`DispatchReport`](crate::DispatchReport) lists
    /// each distinct store once.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Registers `dag` under `key`, its fingerprint. Idempotent; the same
    /// `Arc` again (a sibling shard registering what the dispatcher handed
    /// every shard) skips the O(nodes) collision check.
    pub(crate) fn register(&self, key: DagKey, dag: Arc<Dag>) {
        match write(&self.dags).entry(key) {
            Entry::Occupied(existing) => assert!(
                Arc::ptr_eq(existing.get(), &dag) || same_structure(existing.get(), &dag),
                "DAG fingerprint collision on {key}: distinct structures"
            ),
            Entry::Vacant(vacant) => {
                vacant.insert(dag);
            }
        }
    }
}

/// The serving engine. All methods take `&self`; an `Engine` can be
/// shared across threads (`Engine: Sync`), and every dispatcher shard is
/// one.
pub struct Engine {
    config: ArchConfig,
    options: EngineOptions,
    store: Arc<ProgramStore>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("options", &self.options)
            .field("registered_dags", &read(&self.store.dags).len())
            .field("cache", &self.store.cache)
            .finish()
    }
}

impl Engine {
    /// Builds an engine serving `config`, compiling with `compile_opts`,
    /// over a program store of its own. Zero [`EngineOptions::cores`] is
    /// read as one.
    ///
    /// # Panics
    ///
    /// Panics if [`EngineOptions::spill_dir`] is set but the directory
    /// cannot be created — a misconfigured persistence path is a
    /// deployment error worth failing loudly on.
    pub fn new(
        config: ArchConfig,
        compile_opts: CompileOptions,
        mut options: EngineOptions,
    ) -> Self {
        options.cores = options.cores.max(1);
        let spill = options.spill_dir.as_ref().map(|dir| {
            SpillStore::new(dir, &compile_opts)
                .unwrap_or_else(|e| panic!("spill dir {}: {e}", dir.display()))
        });
        let cache = ProgramCache::with_store(compile_opts, spill);
        Engine {
            config,
            options,
            store: Arc::new(ProgramStore {
                cache,
                dags: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// A sibling engine serving `config` over **this** engine's program
    /// store — how a dispatcher's engine shards are made: what one shard
    /// registered, compiled or decoded is there for every other.
    pub fn sharing(&self, config: ArchConfig) -> Engine {
        Engine {
            config,
            options: self.options.clone(),
            store: Arc::clone(&self.store),
        }
    }

    /// The program store this engine serves from.
    pub fn program_store(&self) -> &Arc<ProgramStore> {
        &self.store
    }

    /// Back-fills the program cache from the engine's spill directory
    /// without waiting for traffic, returning the number of programs
    /// loaded. A no-op (returns 0) without a spill directory, and for
    /// every program a sibling engine's prewarm already loaded.
    ///
    /// This is the scale-out warm-start for a **new process**, which an
    /// in-memory store cannot serve: build the engine over a peer's spill
    /// directory (or a copy), `prewarm`, then add it to a dispatcher — its
    /// first request finds every program the fleet has already compiled.
    /// See [`ProgramCache::prewarm`].
    pub fn prewarm(&self) -> usize {
        self.store.cache.prewarm(&self.config)
    }

    /// The architecture point this engine serves.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The sizing options this engine was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Registers a DAG and returns its content key. Registering the same
    /// structure twice is idempotent and returns the same key.
    ///
    /// # Panics
    ///
    /// Panics if a *different* structure collides with a registered key
    /// (a 2⁻⁶⁴ event per pair) — serving the wrong program silently
    /// would be far worse than failing loudly.
    pub fn register(&self, dag: Dag) -> DagKey {
        let key = dag_fingerprint(&dag);
        self.store.register(key, Arc::new(dag));
        key
    }

    /// Looks up a registered DAG.
    pub fn dag(&self, key: DagKey) -> Option<Arc<Dag>> {
        read(&self.store.dags).get(&key).cloned()
    }

    /// Pre-compiles a registered DAG (a cache warm-up), returning the
    /// shared program.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownDag`] or [`ServeError::Compile`].
    pub fn warm(&self, key: DagKey) -> Result<Arc<dpu_compiler::Compiled>, ServeError> {
        let dag = self.dag(key).ok_or(ServeError::UnknownDag(key))?;
        Ok(self.store.cache.get_or_compile(&dag, key, &self.config)?)
    }

    /// Program-cache statistics accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Serves `requests` on a [`Dispatcher`] of `workers` sibling shards
    /// over this engine's program store (no more shards than requests): the
    /// stream is submitted, flushed into rounds — each round runs a
    /// program once per eight of its same-DAG requests
    /// ([`Engine::execute_round`]) — and the tickets are waited in order.
    /// The results are packed into a batch plan over the modelled cores.
    ///
    /// Outputs are byte-identical to [`Engine::serve_serial`] on the same
    /// stream — shard count and round grouping affect only host
    /// wall-clock, and the executor (decoded here, interpreted there)
    /// affects nothing.
    ///
    /// Failures are isolated per request, never fate-shared across a
    /// batch: every failing request is reported in
    /// [`ServingReport::failures`] and every other request keeps its
    /// result. A shard that panics is contained by the dispatcher like any
    /// other: the requests it held fail as [`ServeError::ShardLost`], and
    /// its queued rounds are recovered onto a surviving shard (or fail the
    /// same way when none is left).
    pub fn serve(&self, requests: &[Request]) -> ServingReport {
        let started = Instant::now();
        let workers = self.options.workers.clamp(1, requests.len().max(1));
        let shards = (0..workers).map(|_| self.sharing(self.config)).collect();
        let dispatcher = Dispatcher::new(shards, DispatchOptions::default());
        let submitter = dispatcher.submitter();
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|request| {
                submitter
                    .submit(request.clone())
                    .expect("an open, unbounded dispatcher accepts")
            })
            .collect();
        dispatcher.flush();
        let mut results = Vec::with_capacity(requests.len());
        let mut failures = Vec::new();
        for (idx, ticket) in tickets.into_iter().enumerate() {
            match ticket.wait() {
                Outcome::Completed(result) => results.push(result),
                Outcome::Failed(e) => failures.push((idx, e)),
                Outcome::Shed { reason } => unreachable!("no deadline, yet shed: {reason}"),
            }
        }
        dispatcher.shutdown();
        self.finish_report(results, failures, workers, started)
    }

    /// Serves `requests` strictly serially on one reusable machine — *the
    /// reference pass* that [`Engine::serve`] and the dispatcher are
    /// verified against. It is deliberately the one caller of the oracle
    /// interpreter ([`dpu_sim::run_on`]) outside tests: every
    /// "byte-identical to serial" assertion in the test suite and the bench
    /// binaries is thereby also a decoded-vs-interpreted differential
    /// check, on real traffic, for free. Not a serving path — use
    /// [`Engine::serve`].
    ///
    /// # Errors
    ///
    /// The error of the first failing request (see [`ServeError`]).
    pub fn serve_serial(&self, requests: &[Request]) -> Result<ServingReport, ServeError> {
        let started = Instant::now();
        let mut machine = Machine::new(self.config);
        let mut results = Vec::with_capacity(requests.len());
        for request in requests {
            let key = request.dag;
            let dag = self.dag(key).ok_or(ServeError::UnknownDag(key))?;
            let compiled = self.store.cache.get_or_compile(&dag, key, &self.config)?;
            let run = run_on(&mut machine, &compiled, &request.inputs);
            results.push(run.map_err(ServeError::Sim)?);
        }
        Ok(self.finish_report(results, Vec::new(), 1, started))
    }

    /// Executes one request on a caller-owned machine through this
    /// engine's registry and program cache: a one-element
    /// [`Engine::execute_round`], so a single request and a dispatcher
    /// round run the same pre-decoded program through the same code. The
    /// machine is reset (not reallocated) per call.
    ///
    /// # Errors
    ///
    /// See [`ServeError`].
    pub fn execute(
        &self,
        machine: &mut Machine,
        request: &Request,
    ) -> Result<RunResult, ServeError> {
        self.execute_round(machine, &[request])
            .pop()
            .expect("one outcome per request")
    }

    /// Executes one dispatcher round's worth of requests on one
    /// caller-owned machine, returning per-request outcomes in request
    /// order — the one-program/many-inputs hot path every dispatcher
    /// shard runs its rounds on.
    ///
    /// The round is grouped by [`Request::dag`] (first-appearance order)
    /// and each group runs its **pre-decoded** program (one visit to its
    /// [`ProgramCache`] slot) across all of the group's input
    /// sets through [`run_decoded_group`]: the repeated requests of a
    /// round pay program lookup once instead of per request, the decode
    /// (which resolves the whole schedule) once per cache entry, and one
    /// walk of its tape per eight members instead of one each. Every
    /// outcome is byte-identical to calling [`Engine::execute`] per
    /// request in order — grouping changes neither results, cycle counts,
    /// activity counters, nor which requests fail (a failing group member
    /// — an unknown DAG, a wrong input count — does not fate-share its
    /// group; a program decode refuses fails all of its group, and only
    /// that).
    pub fn execute_round(
        &self,
        machine: &mut Machine,
        requests: &[&Request],
    ) -> Vec<Result<RunResult, ServeError>> {
        let mut outcomes: Vec<Option<Result<RunResult, ServeError>>> =
            requests.iter().map(|_| None).collect();
        // Group request indices by DAG key in first-appearance order. A
        // round holds at most a batch's worth of jobs, so a linear scan
        // over the group list beats hashing.
        let mut groups: Vec<(DagKey, Vec<usize>)> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            match groups.iter_mut().find(|(k, _)| *k == r.dag) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((r.dag, vec![i])),
            }
        }
        for (key, mut idxs) in groups {
            match self.decoded_for(key, idxs.len() as u64) {
                Ok((dag, compiled, decoded)) => {
                    // A request with the wrong number of inputs fails
                    // alone, before staging; the rest of its group runs.
                    idxs.retain(|&i| {
                        let got = requests[i].inputs.len();
                        let fits = got == dag.input_count();
                        if !fits {
                            outcomes[i] = Some(Err(ServeError::Inputs(DagError::ArityMismatch {
                                node: NodeId(dag.len() as u32),
                                got,
                            })));
                        }
                        fits
                    });
                    // One pass per eight members, not one per member.
                    let inputs: Vec<&[f32]> =
                        idxs.iter().map(|&i| &requests[i].inputs[..]).collect();
                    let runs = run_decoded_group(machine, &compiled, &decoded, &inputs);
                    for (i, run) in idxs.into_iter().zip(runs) {
                        outcomes[i] = Some(run.map_err(ServeError::Sim));
                    }
                }
                Err(e) => {
                    for i in idxs {
                        outcomes[i] = Some(Err(e.clone()));
                    }
                }
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every request was grouped"))
            .collect()
    }

    /// Everything a group of `requests` requests for `key` runs, in one
    /// registry read and one visit to the program's cache slot (compiled
    /// and decoded on first use), with the errors of [`Engine::execute`].
    fn decoded_for(&self, key: DagKey, requests: u64) -> Result<GroupProgram, ServeError> {
        let dag = self.dag(key).ok_or(ServeError::UnknownDag(key))?;
        let (compiled, decoded) = self.store.cache.lookup(&dag, key, &self.config, requests)?;
        let decoded = decoded.map_err(ServeError::Sim)?;
        Ok((dag, compiled, decoded))
    }

    fn finish_report(
        &self,
        results: Vec<RunResult>,
        failures: Vec<(usize, ServeError)>,
        workers: usize,
        started: Instant,
    ) -> ServingReport {
        let costs: Vec<u64> = results.iter().map(|r| r.cycles).collect();
        let plan = plan_rounds(&costs, self.options.cores);
        let mut activity = Activity::default();
        let mut total_dag_ops = 0;
        for r in &results {
            activity.absorb(&r.activity);
            total_dag_ops += r.dag_ops;
        }
        ServingReport {
            results,
            failures,
            activity,
            total_dag_ops,
            plan,
            cache: self.store.stats(),
            workers,
            host_seconds: started.elapsed().as_secs_f64(),
        }
    }
}

/// Structural equality of two DAGs — the collision check behind
/// [`Engine::register`]. (The `Dag` type itself does not implement
/// `PartialEq`.)
fn same_structure(a: &Dag, b: &Dag) -> bool {
    a.len() == b.len()
        && a.nodes()
            .all(|n| a.op(n) == b.op(n) && a.preds(n) == b.preds(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::{DagBuilder, Op};

    fn engine() -> Engine {
        Engine::new(
            ArchConfig::new(2, 8, 16).unwrap(),
            CompileOptions::default(),
            EngineOptions {
                workers: 4,
                cores: 4,
                ..Default::default()
            },
        )
    }

    fn simple_dag(extra: usize) -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let mut acc = b.node(Op::Add, &[x, y]).unwrap();
        for _ in 0..extra {
            acc = b.node(Op::Mul, &[acc, y]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn serves_and_reports() {
        let e = engine();
        let k = e.register(simple_dag(0));
        let reqs: Vec<Request> = (0..10)
            .map(|i| Request::new(k, vec![i as f32, 3.0]))
            .collect();
        let report = e.serve(&reqs);
        assert!(report.failures.is_empty());
        assert_eq!(report.results.len(), 10);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.outputs, vec![i as f32 + 3.0]);
        }
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.cache.hits, 9);
        assert_eq!(report.total_dag_ops, 10);
        // 10 equal-length requests on 4 cores: 3 rounds.
        assert_eq!(report.plan.rounds.len(), 3);
        assert!(report.gops(300e6) > 0.0);
    }

    #[test]
    fn unknown_dag_is_a_per_request_failure() {
        let e = engine();
        let report = e.serve(&[Request::new(DagKey(0xdead), vec![1.0])]);
        assert!(report.results.is_empty());
        assert_eq!(
            report.failures,
            vec![(0, ServeError::UnknownDag(DagKey(0xdead)))]
        );
    }

    #[test]
    fn failures_do_not_fate_share_the_batch() {
        // One bad request in the middle of a batch: every other request
        // keeps its result, and the failure is reported with its index —
        // the regression the old first-error-aborts `serve` had.
        let e = engine();
        let k = e.register(simple_dag(0));
        let mut reqs: Vec<Request> = (0..9)
            .map(|i| Request::new(k, vec![i as f32, 3.0]))
            .collect();
        reqs.insert(4, Request::new(DagKey(0xdead), vec![1.0]));
        let report = e.serve(&reqs);
        assert_eq!(report.results.len(), 9);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].0, 4);
        assert!(matches!(report.failures[0].1, ServeError::UnknownDag(_)));
        // Successes keep request order: 0..3 then 4..8 of the good stream.
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.outputs, vec![i as f32 + 3.0]);
        }
        assert_eq!(report.total_dag_ops, 9);
    }

    /// A program decode refuses — here `R + 1` loads into bank 0, planted
    /// behind the verifier that guards every real way into the cache —
    /// fails each member of its group with the replay's error, the one
    /// `dpu-sim`'s differential suite shows the oracle raising when it
    /// runs the program; the round's other group, the machine and the
    /// cache are untouched, and the refusal is replayed once, not per
    /// round.
    #[test]
    fn a_corrupt_cached_program_fails_its_group_and_nothing_else() {
        let e = engine();
        let (bad, good) = (e.register(simple_dag(3)), e.register(simple_dag(0)));
        let mut corrupt = (*e.warm(bad).unwrap()).clone();
        let regs = e.config().regs_per_bank;
        let mut bank0 = vec![false; e.config().banks as usize];
        bank0[0] = true;
        let load_bank0 = dpu_isa::Instr::Load {
            row: 0,
            mask: bank0,
        };
        corrupt
            .program
            .instrs
            .splice(0..0, std::iter::repeat_n(load_bank0, regs as usize + 1));
        let key = crate::cache::CacheKey {
            dag: bad,
            config: *e.config(),
        };
        e.store.cache.plant(key, corrupt);

        let requests: Vec<Request> = (0..9)
            .map(|i| Request::new(if i % 2 == 0 { bad } else { good }, vec![i as f32, 3.0]))
            .collect();
        let refs: Vec<&Request> = requests.iter().collect();
        let mut machine = Machine::new(*e.config());
        for round in 0..2 {
            for (i, outcome) in e.execute_round(&mut machine, &refs).into_iter().enumerate() {
                if i % 2 == 0 {
                    let want = SimError::BankOverflow {
                        bank: 0,
                        cycle: u64::from(regs),
                    };
                    assert_eq!(
                        outcome,
                        Err(ServeError::Sim(want)),
                        "round {round}, member {i} of the refused group"
                    );
                } else {
                    assert_eq!(outcome.unwrap().outputs, vec![i as f32 + 3.0]);
                }
            }
        }
        assert_eq!(e.cache_stats().decode_count, 2, "one replay per program");
    }

    #[test]
    fn register_is_idempotent() {
        let e = engine();
        let a = e.register(simple_dag(2));
        let b = e.register(simple_dag(2));
        assert_eq!(a, b);
        assert!(e.dag(a).is_some());
    }

    /// Sibling engines serve from one store whatever their configs: one
    /// registered copy of the DAG, one cache entry per `(DAG, config)`, and
    /// each engine's replies are its own configuration's.
    #[test]
    fn sibling_engines_share_one_store_across_configs() {
        let a = engine();
        let b = a.sharing(ArchConfig::new(3, 16, 32).unwrap());
        assert!(Arc::ptr_eq(a.program_store(), b.program_store()));
        let k = a.register(simple_dag(2));
        assert_eq!(b.register(simple_dag(2)), k);
        assert!(Arc::ptr_eq(&a.dag(k).unwrap(), &b.dag(k).unwrap()));
        let reqs: Vec<Request> = (0..10)
            .map(|i| Request::new(k, vec![i as f32, 3.0]))
            .collect();
        for e in [&a, &b] {
            let alone = Engine::new(*e.config(), CompileOptions::default(), e.options().clone());
            alone.register(simple_dag(2));
            let want = alone.serve_serial(&reqs).unwrap().results;
            assert_eq!(e.serve(&reqs).results, want, "config {:?}", e.config());
        }
        let s = a.cache_stats();
        assert_eq!(s, b.cache_stats(), "the counters are the store's");
        assert_eq!((s.misses, s.decode_count, s.entries), (2, 2, 2));
        assert_eq!(s.hits + s.misses, 20);
    }

    /// Containment, registry half: a sibling that panics while holding the
    /// registry lock leaves it usable.
    #[test]
    fn a_panic_under_the_registry_lock_fails_nobody_else() {
        let a = engine();
        let b = a.sharing(*a.config());
        let k = a.register(simple_dag(1));
        std::thread::scope(|scope| {
            let died = scope.spawn(|| {
                let _registering = b.store.dags.write().unwrap();
                panic!("shard dies mid-register");
            });
            assert!(died.join().is_err());
        });
        assert!(a.store.dags.is_poisoned());
        assert_eq!(a.register(simple_dag(1)), k);
        let report = a.serve(&[Request::new(k, vec![1.0, 2.0])]);
        assert_eq!(report.results[0].outputs, vec![6.0]);
    }

    /// Zero modelled cores are read as one, once, by `Engine::new`: the
    /// batch plan and the dispatcher `serve` runs on both price on the
    /// engine's one core.
    #[test]
    fn zero_cores_serve_as_one() {
        let e = Engine::new(
            ArchConfig::new(2, 8, 16).unwrap(),
            CompileOptions::default(),
            EngineOptions {
                workers: 2,
                cores: 0,
                ..Default::default()
            },
        );
        let k = e.register(simple_dag(0));
        let report = e.serve(&[Request::new(k, vec![1.0, 2.0])]);
        assert_eq!(report.results[0].outputs, vec![3.0]);
        assert_eq!(report.plan.cores, 1);
    }

    #[test]
    fn empty_stream_is_fine() {
        let e = engine();
        let report = e.serve(&[]);
        assert!(report.results.is_empty());
        assert!(report.failures.is_empty());
        assert_eq!(report.plan.total_cycles, 0);
        assert_eq!(report.throughput_ops(300e6), 0.0);
    }

    #[test]
    fn warm_precompiles() {
        let e = engine();
        let k = e.register(simple_dag(1));
        e.warm(k).unwrap();
        assert_eq!(e.cache_stats().misses, 1);
        let report = e.serve(&[Request::new(k, vec![1.0, 2.0])]);
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.cache.hits, 1);
    }
}
