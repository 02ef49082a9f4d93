//! Integration tests of the serving runtime over real workload DAGs:
//! threaded-vs-serial determinism and compile-once cache behavior.

use std::sync::Arc;

use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{dag_fingerprint, Engine, EngineOptions, ProgramCache, Request};
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_workloads::sparse::{generate_lower_triangular, LowerTriangularParams};
use dpu_workloads::sptrsv::SptrsvDag;

fn arch() -> ArchConfig {
    ArchConfig::new(2, 8, 32).unwrap()
}

/// A mixed fleet of workload DAGs: two PCs, one SpTRSV, one hand-built.
fn workload_dags() -> Vec<Dag> {
    let pc_a = generate_pc(&PcParams::with_targets(600, 8), 11);
    let pc_b = generate_pc(&PcParams::with_targets(400, 6), 12);
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(60, 1.5, 12), 13);
    let trsv = SptrsvDag::build(&l).dag;
    let mut b = DagBuilder::new();
    let x = b.input();
    let y = b.input();
    let z = b.input();
    let s = b.node(Op::Add, &[x, y]).unwrap();
    let p = b.node(Op::Mul, &[s, z]).unwrap();
    b.node(Op::Sub, &[p, x]).unwrap();
    let hand = b.finish().unwrap();
    vec![pc_a, pc_b, trsv, hand]
}

/// Deterministic per-request inputs for any of the fleet's DAGs.
fn inputs_for(dag: &Dag, request_idx: usize) -> Vec<f32> {
    if dag.nodes().any(|n| dag.op(n) == Op::Max) {
        // PC-style DAG: log-probabilities, varied by request index.
        pc_inputs(dag, request_idx as u64)
    } else {
        (0..dag.input_count())
            .map(|i| 0.5 + 0.4 * (((i + request_idx) as f32) * 0.7).sin())
            .collect()
    }
}

/// Builds a fresh engine with the fleet registered, plus a 200+-request
/// mixed stream over it.
fn engine_and_stream(workers: usize) -> (Engine, Vec<Request>) {
    let engine = Engine::new(
        arch(),
        CompileOptions::default(),
        EngineOptions {
            workers,
            cores: 8,
            spill_dir: None,
        },
    );
    let dags = workload_dags();
    let keys: Vec<_> = dags.iter().map(|d| engine.register(d.clone())).collect();
    let requests: Vec<Request> = (0..220)
        .map(|i| {
            let which = i % dags.len();
            Request::new(keys[which], inputs_for(&dags[which], i))
        })
        .collect();
    (engine, requests)
}

#[test]
fn threaded_serving_is_byte_identical_to_serial() {
    let (serial_engine, stream) = engine_and_stream(1);
    let reference = serial_engine.serve_serial(&stream).unwrap();

    for workers in [2, 4, 7] {
        let (engine, stream) = engine_and_stream(workers);
        let report = engine.serve(&stream);
        assert!(report.failures.is_empty());
        assert_eq!(report.results.len(), reference.results.len());
        for (i, (got, want)) in report
            .results
            .iter()
            .zip(reference.results.iter())
            .enumerate()
        {
            // Byte-identical outputs: compare f32 bit patterns, not just
            // approximate values.
            let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "request {i} with {workers} workers");
            assert_eq!(got.cycles, want.cycles, "request {i} cycles");
            assert_eq!(got.activity, want.activity, "request {i} activity");
        }
        // The batch plan is a pure function of the per-request cycles, so
        // the simulated wall-clock matches too.
        assert_eq!(report.plan, reference.plan);
        assert_eq!(report.total_dag_ops, reference.total_dag_ops);
    }
}

#[test]
fn serving_compiles_each_dag_once() {
    let (engine, stream) = engine_and_stream(4);
    let report = engine.serve(&stream);
    assert!(report.failures.is_empty());
    // 4 distinct DAGs, one compile each, no matter how the 4 workers
    // raced on first touch.
    assert_eq!(report.cache.misses, 4);
    assert_eq!(report.cache.hits, 220 - 4);
    assert_eq!(report.cache.entries, 4);
    assert!(report.cache.hit_rate() > 0.9);
}

#[test]
fn cache_compiles_once_per_key_under_concurrent_access() {
    let cache = Arc::new(ProgramCache::new(CompileOptions::default()));
    let cfg = arch();
    let dags: Arc<Vec<(Dag, dpu_runtime::DagKey)>> = Arc::new(
        workload_dags()
            .into_iter()
            .map(|d| {
                let k = dag_fingerprint(&d);
                (d, k)
            })
            .collect(),
    );

    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let dags = Arc::clone(&dags);
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    // Different threads walk the keys in different orders
                    // to maximize contention on distinct slots.
                    for i in 0..dags.len() {
                        let (dag, key) = &dags[(i + t + r) % dags.len()];
                        let compiled = cache.get_or_compile(dag, *key, &cfg).unwrap();
                        assert!(!compiled.program.is_empty());
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    let total = (THREADS * ROUNDS * dags.len()) as u64;
    assert_eq!(stats.misses, dags.len() as u64, "one compile per key");
    assert_eq!(stats.hits, total - dags.len() as u64);
    assert_eq!(stats.entries, dags.len(), "every program is kept");

    // And the cached programs are shared, not cloned: pointer-equal.
    let (dag, key) = &dags[0];
    let a = cache.get_or_compile(dag, *key, &cfg).unwrap();
    let b = cache.get_or_compile(dag, *key, &cfg).unwrap();
    assert!(Arc::ptr_eq(&a, &b));
}

#[test]
fn serving_matches_direct_simulation() {
    // The engine must agree with plain dpu_sim::run on every request.
    let (engine, stream) = engine_and_stream(3);
    let report = engine.serve(&stream);
    assert!(report.failures.is_empty());
    let dags = workload_dags();
    for (i, req) in stream.iter().enumerate().step_by(17) {
        let which = i % dags.len();
        let compiled =
            dpu_compiler::compile(&dags[which], &arch(), &CompileOptions::default()).unwrap();
        let direct = dpu_sim::run(&compiled, &req.inputs).unwrap();
        assert_eq!(report.results[i], direct, "request {i}");
    }
}
