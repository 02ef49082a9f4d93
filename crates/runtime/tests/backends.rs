//! Integration tests of multi-backend dispatch: mirror-mode determinism
//! against the serial reference, heterogeneous primary routing, steal-
//! class isolation across platforms, the `submit_all` loss-freedom
//! regression, and `Ticket::wait_timeout` deadline edge cases.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dpu_baselines::BaselineModel;
use dpu_compiler::CompileOptions;
use dpu_dag::{eval, Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    dag_fingerprint, home_shard, Backend, BaselineBackend, ChaosPlan, DispatchOptions, Dispatcher,
    Engine, EngineOptions, Request, SubmitOptions, SubmitRejection, Ticket,
};
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};

const FREQ: f64 = 300e6;

fn arch() -> ArchConfig {
    ArchConfig::new(2, 8, 32).unwrap()
}

fn engine_backend() -> Arc<dyn Backend> {
    Arc::new(Engine::new(
        arch(),
        CompileOptions::default(),
        EngineOptions {
            workers: 1,
            cores: 8,
            cache_capacity: None,
            spill_dir: None,
        },
    ))
}

/// Three real workload families plus a hand-built DAG.
fn workload_dags() -> Vec<Dag> {
    let pc = generate_pc(&PcParams::with_targets(500, 8), 71);
    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 60,
            avg_nnz_per_row: 3.0,
            band_fraction: 0.7,
            band: 8,
        },
        73,
    );
    let spmv = SpmvDag::build(&a).dag;
    let mut b = DagBuilder::new();
    let x = b.input();
    let y = b.input();
    let s = b.node(Op::Add, &[x, y]).unwrap();
    b.node(Op::Mul, &[s, s]).unwrap();
    let hand = b.finish().unwrap();
    vec![pc, spmv, hand]
}

fn inputs_for(dag: &Dag, request_idx: usize) -> Vec<f32> {
    if dag.nodes().any(|n| dag.op(n) == Op::Max) {
        pc_inputs(dag, request_idx as u64)
    } else {
        (0..dag.input_count())
            .map(|i| 0.5 + 0.4 * (((i + request_idx) as f32) * 0.7).sin())
            .collect()
    }
}

fn assert_identical(got: &dpu_sim::RunResult, want: &dpu_sim::RunResult, ctx: &str) {
    let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "{ctx}: outputs differ");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles differ");
}

/// Acceptance: mirror mode serves the ticketed stream byte-identically to
/// a serial DPU pass at 2 and 4 primary shards while ≥2 baseline
/// platforms shadow every request through the `Backend` seam.
#[test]
fn mirrored_dispatch_is_byte_identical_and_counts_platforms() {
    let dags = workload_dags();
    let stream_len = 180;

    let ref_engine = Engine::new(arch(), CompileOptions::default(), EngineOptions::default());
    let ref_keys: Vec<_> = dags
        .iter()
        .map(|d| ref_engine.register(d.clone()))
        .collect();
    let ref_stream: Vec<Request> = (0..stream_len)
        .map(|i| {
            let which = i % dags.len();
            Request::new(ref_keys[which], inputs_for(&dags[which], i))
        })
        .collect();
    let reference = ref_engine.serve_serial(&ref_stream).unwrap();

    for primaries in [2usize, 4] {
        let d = Dispatcher::with_backends(
            (0..primaries).map(|_| engine_backend()).collect(),
            vec![
                Arc::new(BaselineBackend::new(BaselineModel::cpu(), FREQ)) as Arc<dyn Backend>,
                Arc::new(BaselineBackend::new(BaselineModel::gpu(), FREQ)) as Arc<dyn Backend>,
            ],
            DispatchOptions {
                max_batch: 16,
                max_wait: Duration::from_micros(200),
                ..Default::default()
            },
        );
        assert_eq!(d.primary_shards(), primaries);
        assert_eq!(d.shards(), primaries + 2);
        let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
        assert_eq!(keys, ref_keys, "fingerprints are backend-independent");
        let sub = d.submitter();
        let tickets: Vec<Ticket> = ref_stream
            .iter()
            .map(|r| sub.submit(r.clone()).expect("accepted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_identical(
                &t.wait().expect("request succeeds"),
                &reference.results[i],
                &format!("{primaries} primaries, req {i}"),
            );
        }
        let report = d.shutdown();
        assert_eq!(report.submitted, stream_len as u64);
        assert_eq!(report.served, stream_len as u64);
        assert_eq!(
            report.mirrored,
            2 * stream_len as u64,
            "each mirror shadows the full stream"
        );
        // Per-platform summaries: DPU primaries + both baselines, each
        // having executed the whole stream's ops.
        let platforms = report.platforms();
        let names: Vec<&str> = platforms.iter().map(|p| p.platform).collect();
        assert_eq!(names, vec!["dpu_v2", "cpu", "gpu"]);
        for p in &platforms {
            assert_eq!(p.requests, stream_len as u64, "{}", p.platform);
            assert_eq!(p.dag_ops, report.total_dag_ops(), "{}", p.platform);
            assert!(p.gops(FREQ) > 0.0);
        }
        // Mirror shards carry flat power figures -> EDP is available.
        for p in platforms.iter().filter(|p| p.mirror) {
            assert!(p.edp_pj_ns(FREQ).unwrap() > 0.0);
        }
        // Primary aggregates exclude mirrors: the makespan equals the
        // busiest *primary* shard, not the (far slower) CPU mirror.
        let primary_max = report
            .shards
            .iter()
            .filter(|s| !s.mirror)
            .map(|s| s.modelled_cycles)
            .max()
            .unwrap();
        assert_eq!(report.modelled_cycles(), primary_max);
        let cpu_mirror = platforms.iter().find(|p| p.platform == "cpu").unwrap();
        assert!(
            cpu_mirror.modelled_cycles > primary_max,
            "the CPU model should be slower than the DPU fleet on this suite"
        );
    }
}

/// Mirror shards are deterministic observers: the same stream yields the
/// same per-platform cycle totals on every run, with or without work
/// stealing among the primaries.
#[test]
fn mirror_accounting_is_deterministic_across_runs() {
    let dags = workload_dags();
    let run = || {
        let d = Dispatcher::with_backends(
            (0..2).map(|_| engine_backend()).collect(),
            vec![Arc::new(BaselineBackend::new(BaselineModel::dpu_v1(), FREQ)) as Arc<dyn Backend>],
            DispatchOptions {
                max_batch: 8,
                max_wait: Duration::from_micros(100),
                ..Default::default()
            },
        );
        let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
        let sub = d.submitter();
        let tickets: Vec<Ticket> = (0..90)
            .map(|i| {
                let which = i % dags.len();
                sub.submit(Request::new(keys[which], inputs_for(&dags[which], i)))
                    .expect("accepted")
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let report = d.shutdown();
        let mirror = report
            .platforms()
            .into_iter()
            .find(|p| p.platform == "dpu_v1")
            .unwrap();
        (mirror.modelled_cycles, mirror.dag_ops, mirror.requests)
    };
    assert_eq!(
        run(),
        run(),
        "mirror totals are a pure function of the stream"
    );
}

/// Heterogeneous primaries: requests route to the platform owning their
/// DAG key; baseline-served tickets carry reference-evaluator outputs at
/// the model's cost; platforms never steal from each other.
#[test]
fn heterogeneous_primaries_route_and_never_cross_steal() {
    let dags = workload_dags();
    let cpu = BaselineModel::cpu();
    let d = Dispatcher::with_backends(
        vec![
            engine_backend(),
            Arc::new(BaselineBackend::new(cpu, FREQ)) as Arc<dyn Backend>,
        ],
        Vec::new(),
        DispatchOptions {
            max_batch: 4,
            max_wait: Duration::from_micros(100),
            work_stealing: true, // on, but classes differ -> no stealing
            ..Default::default()
        },
    );
    let sub = d.submitter();
    let mut expected: Vec<dpu_sim::RunResult> = Vec::new();
    let mut tickets = Vec::new();
    for i in 0..60 {
        let which = i % dags.len();
        let key = d.register(dags[which].clone());
        let inputs = inputs_for(&dags[which], i);
        let shard = home_shard(key, 2);
        let want = if shard == 0 {
            // DPU-owned: compile + simulate.
            let compiled =
                dpu_compiler::compile(&dags[which], &arch(), &CompileOptions::default()).unwrap();
            dpu_sim::run(&compiled, &inputs).unwrap()
        } else {
            // CPU-owned: reference evaluator at the model's cost.
            let outputs = eval::evaluate_sinks(&dags[which], &inputs).unwrap();
            let cycles = ((cpu.exec_time_s(&dags[which]) * FREQ).ceil() as u64).max(1);
            dpu_sim::RunResult {
                cycles,
                outputs,
                activity: dpu_sim::Activity::default(),
                dag_ops: dags[which].op_count() as u64,
            }
        };
        expected.push(want);
        tickets.push(sub.submit(Request::new(key, inputs)).unwrap());
    }
    for (i, t) in tickets.into_iter().enumerate() {
        assert_identical(&t.wait().unwrap(), &expected[i], &format!("req {i}"));
    }
    let report = d.shutdown();
    assert_eq!(report.served, 60);
    assert!(
        report.shards.iter().all(|s| s.stolen_rounds == 0),
        "cross-platform stealing happened: {report:?}"
    );
    assert!(
        report.shards.iter().all(|s| s.requests > 0),
        "both platforms should own some keys: {report:?}"
    );
}

/// Identical baseline shards *do* steal from each other — the steal class
/// is the model, not the platform kind. The home shard is scripted to
/// hold every round it checks out for ~2 ms, so its backlog is there for
/// the idle twin to take: the steal is forced, not hoped for.
#[test]
fn identical_baseline_shards_share_a_steal_class() {
    let dags = workload_dags();
    // One key -> one home shard; its queued rounds are what the twin
    // steals.
    let home = home_shard(dag_fingerprint(&dags[0]), 2);
    let d = Dispatcher::with_backends(
        vec![
            Arc::new(BaselineBackend::new(BaselineModel::cpu(), FREQ)) as Arc<dyn Backend>,
            Arc::new(BaselineBackend::new(BaselineModel::cpu(), FREQ)) as Arc<dyn Backend>,
        ],
        Vec::new(),
        DispatchOptions {
            max_batch: 2,
            max_wait: Duration::from_micros(50),
            work_stealing: true,
            chaos: Some(ChaosPlan::new(5).stall_shard(home, Duration::from_millis(2))),
            ..Default::default()
        },
    );
    let key = d.register(dags[0].clone());
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..80)
        .map(|i| {
            sub.submit(Request::new(key, inputs_for(&dags[0], i)))
                .unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let report = d.shutdown();
    assert_eq!(report.served, 80);
    assert!(
        report.shards[1 - home].stolen_rounds > 0,
        "idle identical-model shard never stole: {report:?}"
    );
}

/// Regression (PR 3): a mid-batch shutdown must not drop the tickets of
/// already-accepted requests — `submit_all` used to collect into
/// `Result<Vec<Ticket>, _>`, losing the accepted prefix.
#[test]
fn submit_all_mid_shutdown_keeps_accepted_tickets() {
    let dags = workload_dags();
    let d = Dispatcher::with_backends(
        vec![engine_backend()],
        Vec::new(),
        DispatchOptions {
            max_batch: 4,
            max_wait: Duration::from_micros(100),
            ..Default::default()
        },
    );
    let key = d.register(dags[2].clone());
    let sub = d.submitter();

    // An iterator that shuts the dispatcher down after yielding its first
    // request: the batch is then mid-flight when rejection begins.
    let slot = Arc::new(Mutex::new(Some(d)));
    let requests: Vec<Request> = (0..3)
        .map(|i| Request::new(key, vec![i as f32, 1.0]))
        .collect();
    let trigger = Arc::clone(&slot);
    let mut yielded = 0usize;
    let batch = requests.into_iter().inspect(move |_| {
        yielded += 1;
        if yielded == 2 {
            // First request already submitted; kill the dispatcher before
            // the second submit happens.
            let d = trigger.lock().unwrap().take().expect("dispatcher alive");
            let report = d.shutdown();
            assert_eq!(report.submitted, 1);
        }
    });

    let err = sub
        .submit_all(batch, SubmitOptions::default())
        .expect_err("shutdown mid-batch");
    // The accepted prefix keeps its tickets — and they are fulfilled.
    assert_eq!(err.accepted.len(), 1);
    assert!(matches!(err.rejected, SubmitRejection::QueueClosed { .. }));
    assert_eq!(err.rejected.request().inputs, vec![1.0, 1.0]);
    assert_eq!(err.rest.len(), 1);
    assert_eq!(err.rest[0].inputs, vec![2.0, 1.0]);
    assert!(err.to_string().contains("1 accepted"));
    for t in err.accepted {
        assert_eq!(t.wait().expect("loss-free").outputs, vec![1.0]);
    }
}

/// `submit_all` on an already-shut-down dispatcher rejects the first
/// request with nothing accepted.
#[test]
fn submit_all_after_shutdown_rejects_everything() {
    let d = Dispatcher::new(
        arch(),
        CompileOptions::default(),
        DispatchOptions::default(),
    );
    let key = d.register(workload_dags()[2].clone());
    let sub = d.submitter();
    d.shutdown();
    let err = sub
        .submit_all(
            (0..3).map(|i| Request::new(key, vec![i as f32, 0.0])),
            SubmitOptions::default(),
        )
        .expect_err("dispatcher is down");
    assert!(err.accepted.is_empty());
    assert_eq!(err.rejected.request().inputs, vec![0.0, 0.0]);
    assert_eq!(err.rest.len(), 2);
}

/// `Ticket::wait_timeout` with a zero (already-elapsed) deadline: returns
/// the ticket when pending, the result when fulfilled — never hangs, and
/// the handed-back ticket stays usable.
#[test]
fn wait_timeout_zero_and_elapsed_deadlines() {
    let dags = workload_dags();
    let d = Dispatcher::new(
        arch(),
        CompileOptions::default(),
        DispatchOptions {
            shards: 1,
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            ..Default::default()
        },
    );
    let key = d.register(dags[2].clone());
    let sub = d.submitter();

    // Pending ticket polled with a zero deadline.
    let t = sub.submit(Request::new(key, vec![2.0, 3.0])).unwrap();
    let t = match t.wait_timeout(Duration::ZERO) {
        Ok(result) => {
            // Raced to completion — still a valid outcome.
            assert_eq!(result.unwrap().outputs, vec![25.0]);
            None
        }
        Err(t) => Some(t),
    };
    if let Some(t) = t {
        assert_eq!(t.wait().unwrap().outputs, vec![25.0]);
    }

    // Fulfilled ticket polled with a zero deadline: result, not timeout.
    let t = sub.submit(Request::new(key, vec![1.0, 1.0])).unwrap();
    d.drain();
    assert!(t.is_done());
    let result = t
        .wait_timeout(Duration::ZERO)
        .expect("fulfilled ticket returns its result even at a dead deadline");
    assert_eq!(result.unwrap().outputs, vec![4.0]);
    d.shutdown();
}

/// Register once: a dispatcher fingerprints a DAG once and hands every
/// backend — engine primaries over one store, baseline mirrors — the same
/// `Arc<Dag>`; nobody holds a deep copy. (`Dpu::mirrored_dispatcher` is
/// exactly this layout: `engine_shards` primaries, baseline mirrors.)
#[test]
fn every_backend_of_a_dispatcher_holds_the_same_dag() {
    let primary = Arc::new(Engine::new(
        arch(),
        CompileOptions::default(),
        EngineOptions {
            workers: 1,
            cores: 8,
            cache_capacity: None,
            spill_dir: None,
        },
    ));
    let sibling = Arc::new(primary.sharing(arch()));
    let cpu = Arc::new(BaselineBackend::new(BaselineModel::cpu(), FREQ));
    let gpu = Arc::new(BaselineBackend::new(BaselineModel::gpu(), FREQ));
    let d = Dispatcher::with_backends(
        vec![primary.clone(), sibling.clone()],
        vec![cpu.clone(), gpu.clone()],
        DispatchOptions::default(),
    );
    for dag in workload_dags() {
        let key = d.register(dag.clone());
        let held = primary.dag(key).expect("registered on the primaries");
        for other in [sibling.dag(key), cpu.dag(key), gpu.dag(key)] {
            assert!(Arc::ptr_eq(&held, &other.expect("registered everywhere")));
        }
        // The store's copy, the two mirrors' and `held`.
        assert_eq!(Arc::strong_count(&held), 4);
        // Registering the structure again keeps the first copy.
        assert_eq!(d.register(dag), key);
        assert!(Arc::ptr_eq(&held, &cpu.dag(key).unwrap()));
        assert_eq!(Arc::strong_count(&held), 4);
    }
    d.shutdown();
}
