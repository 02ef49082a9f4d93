//! Integration tests of what a dispatcher's engine shards share and of its
//! submission edge: baseline platforms priced on the served stream, one
//! registered DAG shared by every shard, the `submit_all` loss-freedom
//! regression, and `Ticket::wait_timeout` deadline edge cases.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dpu_baselines::BaselineModel;
use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    engine_shards, DispatchOptions, Dispatcher, Engine, EngineOptions, PlatformSummary, Request,
    SubmitOptions, SubmitRejection,
};
use dpu_sim::RunResult;
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};

fn arch() -> ArchConfig {
    ArchConfig::new(2, 8, 32).unwrap()
}

/// A dispatcher of `options.shards` replica shards of [`arch`], over one
/// program store.
fn dispatcher(options: DispatchOptions) -> Dispatcher {
    let configs = vec![arch(); options.shards];
    let engines = engine_shards(
        &configs,
        CompileOptions::default(),
        &EngineOptions::default(),
    );
    Dispatcher::new(engines, options)
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

fn assert_identical(got: &RunResult, want: &RunResult, ctx: &str) {
    let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "{ctx}: outputs differ");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles differ");
}

/// The baselines are priced on what a dispatcher served: replies stay
/// byte-identical to a serial pass at 2 and 4 shards, each baseline row
/// divides the DPU's own operation count by its modelled time, the rows
/// do not depend on the shard count, and the CPU model is slower than the
/// DPU fleet on this suite.
#[test]
fn baselines_are_priced_on_the_served_stream_at_any_shard_count() {
    const FREQ: f64 = 300e6;
    let dags = workload_dags();
    let stream_len = 180;
    let reference_engine = Engine::new(arch(), CompileOptions::default(), EngineOptions::default());
    let keys: Vec<_> = dags
        .iter()
        .map(|d| reference_engine.register(d.clone()))
        .collect();
    let stream: Vec<Request> = (0..stream_len)
        .map(|i| Request::new(keys[i % dags.len()], inputs_for(&dags[i % dags.len()], i)))
        .collect();
    let reference = reference_engine.serve_serial(&stream).unwrap().results;

    let mut rows_by_layout = Vec::new();
    for shards in [2usize, 4] {
        let d = dispatcher(DispatchOptions {
            shards,
            max_batch: 16,
            max_wait: Duration::from_micros(200),
            ..Default::default()
        });
        for dag in &dags {
            d.register(dag.clone());
        }
        let sub = d.submitter();
        let tickets: Vec<_> = stream
            .iter()
            .map(|r| sub.submit(r.clone()).expect("accepted"))
            .collect();
        let mut completed = vec![0u64; dags.len()];
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t.wait().expect("request succeeds");
            assert_identical(&got, &reference[i], &format!("{shards} shards, req {i}"));
            completed[i % dags.len()] += 1;
        }
        let report = d.shutdown();
        assert_eq!(report.served, stream_len as u64);
        let served: Vec<(&Dag, u64)> = dags.iter().zip(completed).collect();
        let rows: Vec<PlatformSummary> = [BaselineModel::cpu(), BaselineModel::gpu()]
            .iter()
            .map(|m| PlatformSummary::modelled(m, &served, FREQ))
            .collect();
        for row in &rows {
            assert_eq!(row.requests, stream_len as u64, "{}", row.platform);
            assert_eq!(row.dag_ops, report.total_dag_ops(), "{}", row.platform);
            assert!(row.edp_pj_ns(FREQ).unwrap() > 0.0);
        }
        assert!(
            rows[0].modelled_cycles > report.modelled_cycles(),
            "the CPU model should be slower than the DPU fleet on this suite"
        );
        rows_by_layout.push(rows);
    }
    assert_eq!(rows_by_layout[0], rows_by_layout[1]);
}

/// Regression (PR 3): a mid-batch shutdown must not drop the tickets of
/// already-accepted requests — `submit_all` used to collect into
/// `Result<Vec<Ticket>, _>`, losing the accepted prefix.
#[test]
fn submit_all_mid_shutdown_keeps_accepted_tickets() {
    let dags = workload_dags();
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 4,
        max_wait: Duration::from_micros(100),
        ..Default::default()
    });
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
    let d = dispatcher(DispatchOptions::default());
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
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 64,
        max_wait: Duration::from_millis(2),
        ..Default::default()
    });
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
/// shard's store the same `Arc<Dag>`; nobody holds a deep copy. Two
/// separately built engines have two stores, and both hold that one
/// `Arc`.
#[test]
fn every_shard_of_a_dispatcher_holds_the_same_dag() {
    let primary = Engine::new(
        arch(),
        CompileOptions::default(),
        EngineOptions {
            workers: 1,
            cores: 8,
            spill_dir: None,
        },
    );
    let sibling = primary.sharing(arch());
    let separate = Engine::new(arch(), CompileOptions::default(), EngineOptions::default());
    // The shards are siblings of these engines: the test keeps a handle on
    // each of the two stores.
    let d = Dispatcher::new(
        vec![
            primary.sharing(arch()),
            sibling.sharing(arch()),
            separate.sharing(arch()),
        ],
        DispatchOptions::default(),
    );
    for dag in workload_dags() {
        let key = d.register(dag.clone());
        let held = primary.dag(key).expect("registered on every shard");
        for other in [sibling.dag(key), separate.dag(key)] {
            assert!(Arc::ptr_eq(&held, &other.expect("registered everywhere")));
        }
        // The shared store's copy, the separate store's and `held`.
        assert_eq!(Arc::strong_count(&held), 3);
        // Registering the structure again keeps the first copy.
        assert_eq!(d.register(dag), key);
        assert!(Arc::ptr_eq(&held, &separate.dag(key).unwrap()));
        assert_eq!(Arc::strong_count(&held), 3);
    }
    d.shutdown();
}
