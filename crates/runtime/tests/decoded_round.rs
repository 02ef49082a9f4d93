//! Integration tests of the pre-decoded round-execution path: grouped
//! `execute_round` must be observably identical to running each request
//! alone on the oracle interpreter — byte-identical results through the
//! dispatcher at 1/2/4 shards, and unchanged per-request latency
//! accounting (own timeline stamps, own `service_cycles`, deadline sheds
//! resolved before execution). A group runs eight members per pass of its
//! program (`dpu_sim::run_decoded_group`); none of the above may notice.

use std::time::{Duration, Instant};

use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    engine_shards, DispatchOptions, Dispatcher, Engine, EngineOptions, Outcome, Priority, Request,
    ShedReason, SubmitOptions, Ticket,
};
use dpu_sim::Machine;
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_workloads::sptrsv::SptrsvDag;

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

fn workload_dags() -> Vec<Dag> {
    let pc = generate_pc(&PcParams::with_targets(400, 8), 81);
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(40, 1.5, 10), 82);
    let trsv = SptrsvDag::build(&l).dag;
    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 50,
            avg_nnz_per_row: 3.0,
            band_fraction: 0.7,
            band: 8,
        },
        83,
    );
    let spmv = SpmvDag::build(&a).dag;
    let mut b = DagBuilder::new();
    let x = b.input();
    let y = b.input();
    let s = b.node(Op::Add, &[x, y]).unwrap();
    b.node(Op::Mul, &[s, s]).unwrap();
    let hand = b.finish().unwrap();
    vec![pc, trsv, spmv, hand]
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
    assert_eq!(got.activity, want.activity, "{ctx}: activity differs");
}

/// `Engine::execute_round` over a mixed, repeat-heavy request set is
/// byte-identical to running each request alone — on the oracle
/// interpreter (`dpu_sim::run_on`, the cross-executor check; `execute` is
/// itself a one-element round now) and through `Engine::execute` (grouping
/// changes nothing) — while decoding each distinct program exactly once.
#[test]
fn execute_round_matches_execute_per_request() {
    let engine = Engine::new(arch(), CompileOptions::default(), EngineOptions::default());
    let dags = workload_dags();
    let keys: Vec<_> = dags.iter().map(|d| engine.register(d.clone())).collect();
    let requests: Vec<Request> = (0..24)
        .map(|i| {
            let which = i % dags.len();
            Request::new(keys[which], inputs_for(&dags[which], i))
        })
        .collect();

    let mut one_by_one = Machine::new(arch());
    let expected: Vec<_> = requests
        .iter()
        .map(|r| {
            let compiled = engine.warm(r.dag).unwrap();
            dpu_sim::run_on(&mut one_by_one, &compiled, &r.inputs).unwrap()
        })
        .collect();
    for (i, r) in requests.iter().enumerate() {
        let alone = engine.execute(&mut one_by_one, r).unwrap();
        assert_identical(&alone, &expected[i], &format!("execute req {i}"));
    }

    let mut round_machine = Machine::new(arch());
    let refs: Vec<&Request> = requests.iter().collect();
    let outcomes = engine.execute_round(&mut round_machine, &refs);
    assert_eq!(outcomes.len(), requests.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_identical(
            outcome.as_ref().expect("request succeeds"),
            &expected[i],
            &format!("req {i}"),
        );
    }
    let stats = engine.cache_stats();
    assert_eq!(
        stats.decode_count,
        dags.len() as u64,
        "one decode per distinct program, shared across the round"
    );

    // A second round reuses every decoded program.
    let outcomes = engine.execute_round(&mut round_machine, &refs);
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_identical(
            outcome.as_ref().expect("request succeeds"),
            &expected[i],
            &format!("round 2 req {i}"),
        );
    }
    assert_eq!(engine.cache_stats().decode_count, dags.len() as u64);
}

/// A round of four families with ragged counts — 11 (a full pass plus a
/// padded one), 8 (exactly one pass), 1 (the one-lane path) and 3 (one
/// padded pass), interleaved as a dispatcher round would hold them — is
/// byte for byte what the serial reference pass produces, and the cache
/// sees what it saw when every member ran alone: one lookup per group
/// with the rest credited as hits, one decode per program.
#[test]
fn ragged_four_family_round_equals_serial_and_keeps_cache_accounting() {
    let dags = workload_dags();
    let counts = [11, 8, 1, 3];
    let engine = Engine::new(arch(), CompileOptions::default(), EngineOptions::default());
    let reference = Engine::new(arch(), CompileOptions::default(), EngineOptions::default());
    let keys: Vec<_> = dags.iter().map(|d| engine.register(d.clone())).collect();
    for d in &dags {
        reference.register(d.clone());
    }
    let mut requests = Vec::new();
    for turn in 0..*counts.iter().max().unwrap() {
        for (family, &count) in counts.iter().enumerate() {
            if turn < count {
                let inputs = inputs_for(&dags[family], requests.len());
                requests.push(Request::new(keys[family], inputs));
            }
        }
    }
    let serial = reference.serve_serial(&requests).unwrap();

    let refs: Vec<&Request> = requests.iter().collect();
    let outcomes = engine.execute_round(&mut Machine::new(arch()), &refs);
    assert_eq!(outcomes.len(), requests.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_identical(
            outcome.as_ref().expect("request succeeds"),
            &serial.results[i],
            &format!("req {i}"),
        );
    }
    // Literals read from the parent commit's per-member loop on this round.
    let stats = engine.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.decode_count),
        (19, 4, 4),
        "grouping into lanes must not change what the cache counts"
    );
}

/// Regression: a request with the wrong number of inputs used to reach
/// the simulator's input-count assertion through the public `Submitter`,
/// panic the shard thread, fail every well-formed request that shared its
/// round and abandon the shard. It now fails alone, typed, and the shard
/// keeps serving.
#[test]
fn wrong_arity_fails_alone_and_the_shard_survives() {
    let dags = workload_dags();
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 16,
        // One round holds all nine: it closes on the timer.
        max_wait: Duration::from_millis(50),
        ..Default::default()
    });
    let key = d.register(dags[3].clone());
    let sub = d.submitter();
    let good = |i: usize| Request::new(key, vec![i as f32, 1.0]);
    let mut tickets: Vec<Ticket> = (0..4).map(|i| sub.submit(good(i)).unwrap()).collect();
    let bad = sub.submit(Request::new(key, vec![1.0])).unwrap();
    tickets.extend((4..8).map(|i| sub.submit(good(i)).unwrap()));

    match bad.wait() {
        Outcome::Failed(dpu_runtime::ServeError::Inputs(dpu_dag::DagError::ArityMismatch {
            got,
            ..
        })) => assert_eq!(got, 1),
        other => panic!("expected a typed arity failure, got {other:?}"),
    }
    for (i, t) in tickets.into_iter().enumerate() {
        let want = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(t.wait().unwrap().outputs, vec![want], "good req {i}");
    }
    // The shard is still there for the next round.
    assert_eq!(sub.submit(good(8)).unwrap().wait().unwrap().outputs, [81.0]);

    let report = d.shutdown();
    let ledger = report.class(Priority::Standard);
    assert_eq!((ledger.completed, ledger.failed), (9, 1));
    assert_eq!(report.recovered, 0, "nothing died, nothing was requeued");
}

/// A failing request in a grouped round fails alone: its group members
/// and the rest of the round keep their results and their order.
#[test]
fn round_failures_do_not_fate_share_their_group() {
    let engine = Engine::new(arch(), CompileOptions::default(), EngineOptions::default());
    let dags = workload_dags();
    let key = engine.register(dags[3].clone());
    let requests = [
        Request::new(key, vec![1.0, 2.0]),
        Request::new(dpu_runtime::DagKey(0xdead_beef), vec![1.0]),
        Request::new(key, vec![2.0, 3.0]),
    ];
    let refs: Vec<&Request> = requests.iter().collect();
    let mut machine = Machine::new(arch());
    let outcomes = engine.execute_round(&mut machine, &refs);
    assert_eq!(outcomes[0].as_ref().unwrap().outputs, vec![9.0]);
    assert!(matches!(
        outcomes[1],
        Err(dpu_runtime::ServeError::UnknownDag(_))
    ));
    assert_eq!(outcomes[2].as_ref().unwrap().outputs, vec![25.0]);
}

/// Differential check across the dispatcher: 1, 2 and 4 shards (rounds
/// now executing through `execute_round`) all byte-identical to the
/// serial per-request reference.
#[test]
fn dispatched_rounds_are_byte_identical_to_serial_at_1_2_4_shards() {
    let dags = workload_dags();
    let stream_len = 240;

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

    for shards in [1, 2, 4] {
        let d = dispatcher(DispatchOptions {
            shards,
            max_batch: 16,
            max_wait: Duration::from_micros(200),
            ..Default::default()
        });
        let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
        assert_eq!(keys, ref_keys, "fingerprints are engine-independent");
        let sub = d.submitter();
        let tickets: Vec<Ticket> = ref_stream
            .iter()
            .map(|r| sub.submit(r.clone()).expect("accepted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_identical(
                &t.wait().expect("request succeeds"),
                &reference.results[i],
                &format!("{shards} shards, req {i}"),
            );
        }
        let report = d.shutdown();
        assert_eq!(report.served, stream_len as u64);
        assert!(
            report.cache_totals().decode_count >= 1,
            "dispatched rounds run the decoded path"
        );
    }
}

/// Regression (per-request latency accounting in grouped rounds): every
/// job of a round that executes as one `execute_round` call still gets
/// its own execute-start/completed stamps and its own `service_cycles`.
#[test]
fn grouped_round_preserves_per_request_latency_accounting() {
    let dags = workload_dags();
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 16,
        max_wait: Duration::from_millis(20),
        ..Default::default()
    });
    let key = d.register(dags[0].clone());
    // Expected modelled cost of each request, from a direct run.
    let compiled = dpu_compiler::compile(&dags[0], &arch(), &CompileOptions::default()).unwrap();
    let sub = d.submitter();
    let n = 8;
    let tickets: Vec<Ticket> = (0..n)
        .map(|i| {
            sub.submit(Request::new(key, inputs_for(&dags[0], i)))
                .expect("accepted")
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let (outcome, timeline) = t.wait_detailed();
        let result = match outcome {
            Outcome::Completed(r) => r,
            other => panic!("req {i}: expected Completed, got {other:?}"),
        };
        let want = dpu_sim::run(&compiled, &inputs_for(&dags[0], i)).unwrap();
        assert_identical(&result, &want, &format!("req {i}"));
        assert_eq!(
            timeline.service_cycles, want.cycles,
            "req {i}: own modelled service cost"
        );
        assert!(
            timeline.round_closed_ns <= timeline.execute_start_ns,
            "req {i}: execute-start stamped at the execution pass"
        );
        assert!(
            timeline.execute_start_ns <= timeline.completed_ns,
            "req {i}: completion stamped after execution"
        );
    }
    let report = d.shutdown();
    assert_eq!(report.served, n as u64);
}

/// Regression (admission stays ahead of the seam): a job whose deadline
/// expired while it queued is shed *before* the grouped execution — its
/// ticket resolves to `Outcome::Shed`, the shed ledger entry is intact,
/// and the round's surviving jobs complete normally.
#[test]
fn expired_deadline_inside_grouped_round_is_shed_before_execution() {
    let dags = workload_dags();
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 1024,
        // The round closes by timer after 100 ms — long past the
        // doomed job's 5 ms deadline, so it shares a round with the
        // healthy jobs and is shed inside it.
        max_wait: Duration::from_millis(100),
        ..Default::default()
    });
    let key = d.register(dags[3].clone());
    let sub = d.submitter();
    let healthy: Vec<Ticket> = (0..4)
        .map(|i| {
            sub.submit(Request::new(key, vec![i as f32, 1.0]))
                .expect("accepted")
        })
        .collect();
    let doomed = sub
        .submit_with(
            Request::new(key, vec![9.0, 9.0]),
            SubmitOptions::default()
                .deadline(Instant::now() + Duration::from_millis(5))
                .priority(Priority::Interactive),
        )
        .expect("accepted: the deadline is in the future");

    let (outcome, timeline) = doomed.wait_detailed();
    match outcome {
        Outcome::Shed { reason } => assert!(
            matches!(
                reason,
                ShedReason::DeadlineExpired { .. } | ShedReason::DeadlineUnmeetable { .. }
            ),
            "unexpected shed reason {reason:?}"
        ),
        other => panic!("expected Shed, got {other:?}"),
    }
    assert!(timeline.deadline_ns != 0 && timeline.completed_ns > timeline.deadline_ns);
    for (i, t) in healthy.into_iter().enumerate() {
        let want = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(t.wait().unwrap().outputs, vec![want], "healthy req {i}");
    }

    let report = d.shutdown();
    assert_eq!(report.shed(), 1);
    assert_eq!(report.shed_unmeetable + report.shed_expired, 1);
    assert_eq!(report.served, 4, "shed work never executed");
    let interactive = report.class(Priority::Interactive);
    assert_eq!(interactive.offered, 1);
    assert_eq!(interactive.shed, 1, "ledger entry intact");
}
