//! Integration tests of the async sharded dispatcher: determinism against
//! the serial reference, routing/stealing behavior, and the edge cases of
//! the ingestion protocol (empty stream, single request, more shards than
//! keys, skewed keys, shutdown with requests in flight).

use std::time::Duration;

use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    engine_shards, home_shard, plan_rounds, DispatchOptions, Dispatcher, Engine, EngineOptions,
    Request, Ticket,
};
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_workloads::sptrsv::SptrsvDag;

fn arch() -> ArchConfig {
    ArchConfig::new(2, 8, 32).unwrap()
}

/// A dispatcher of `options.shards` replica shards of [`arch`], over one
/// program store.
fn replicas(options: DispatchOptions) -> Dispatcher {
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
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(50, 1.5, 10), 72);
    let trsv = SptrsvDag::build(&l).dag;
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

fn dispatcher(shards: usize, max_batch: usize) -> Dispatcher {
    replicas(DispatchOptions {
        shards,
        max_batch,
        max_wait: Duration::from_micros(200),
        ..Default::default()
    })
}

fn assert_identical(got: &dpu_sim::RunResult, want: &dpu_sim::RunResult, ctx: &str) {
    let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "{ctx}: outputs differ");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles differ");
    assert_eq!(got.activity, want.activity, "{ctx}: activity differs");
}

/// Acceptance: ≥500 mixed requests over ≥3 workload families, at 2 and 4
/// shards, byte-identical to a serial reference pass.
#[test]
fn sharded_async_serving_is_byte_identical_to_serial() {
    let dags = workload_dags();
    let stream_len = 520;

    // Serial reference on a plain engine.
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

    for shards in [2, 4] {
        let d = dispatcher(shards, 16);
        let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
        assert_eq!(keys, ref_keys, "fingerprints are engine-independent");
        let sub = d.submitter();
        let tickets: Vec<Ticket> = ref_stream
            .iter()
            .map(|r| sub.submit(r.clone()).expect("accepted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t.wait().expect("request succeeds");
            assert_identical(
                &got,
                &reference.results[i],
                &format!("{shards} shards, req {i}"),
            );
        }
        let report = d.shutdown();
        assert_eq!(report.submitted, stream_len as u64);
        assert_eq!(report.served, stream_len as u64);
        assert_eq!(report.shards.len(), shards);
        let per_shard: u64 = report.shards.iter().map(|s| s.requests).sum();
        assert_eq!(per_shard, stream_len as u64, "every request counted once");
    }
}

#[test]
#[should_panic(expected = "at least one shard")]
fn zero_shards_panics() {
    let _ = dispatcher(0, 8);
}

#[test]
fn empty_stream_shuts_down_cleanly() {
    let d = dispatcher(3, 8);
    d.flush(); // flushing nothing is fine
    d.drain(); // draining nothing is fine
    let report = d.shutdown();
    assert_eq!(report.submitted, 0);
    assert_eq!(report.served, 0);
    assert_eq!(report.rounds_closed_full, 0);
    assert_eq!(report.rounds_closed_timer, 0);
    assert_eq!(report.rounds_closed_flush, 0);
    assert!(report.shards.iter().all(|s| s.rounds == 0));
    assert_eq!(report.shard_balance(), 0.0);
}

#[test]
fn single_request_round_trips() {
    let d = dispatcher(4, 32);
    let dags = workload_dags();
    let key = d.register(dags[3].clone());
    let t = d
        .submitter()
        .submit(Request::new(key, vec![2.0, 3.0]))
        .unwrap();
    // One request, far below max_batch: only the latency budget (200 µs)
    // can close the round.
    let result = t.wait().unwrap();
    assert_eq!(result.outputs, vec![25.0]);
    let report = d.shutdown();
    assert_eq!(report.served, 1);
    assert_eq!(report.rounds_closed_full, 0, "round closed by timer/flush");
}

/// A shard prices its rounds on its own engine's modelled cores, not on a
/// dispatcher-wide count: four equal-cost requests in one round on a
/// one-core engine cost four times one request's cycles.
#[test]
fn a_shard_prices_its_rounds_on_its_engines_cores() {
    let one_core = EngineOptions {
        cores: 1,
        ..Default::default()
    };
    let engine = Engine::new(arch(), CompileOptions::default(), one_core);
    let d = Dispatcher::new(
        vec![engine],
        DispatchOptions {
            // Only the flush closes the round.
            max_wait: Duration::from_secs(3600),
            ..Default::default()
        },
    );
    let key = d.register(workload_dags().remove(3));
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 3.0])).unwrap())
        .collect();
    d.flush();
    let costs: Vec<u64> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().cycles)
        .collect();
    assert_eq!(costs, [costs[0]; 4], "equal-cost requests");
    let report = d.shutdown();
    assert_eq!(
        (report.shards[0].rounds, report.rounds_closed_flush),
        (1, 1)
    );
    assert_eq!(
        report.shards[0].modelled_cycles,
        plan_rounds(&costs, 1).total_cycles
    );
}

#[test]
fn more_shards_than_distinct_keys_still_serves_everything() {
    // 6 shards, 1 distinct DAG: five shards have no home traffic at all.
    let d = dispatcher(6, 4);
    let dags = workload_dags();
    let key = d.register(dags[3].clone());
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..60)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let v = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(t.wait().unwrap().outputs, vec![v]);
    }
    let report = d.shutdown();
    assert_eq!(report.served, 60);
    // All 60 requests homed on one shard; work stealing may have spread
    // them, but nothing may be lost or duplicated.
    assert_eq!(report.shards.iter().map(|s| s.requests).sum::<u64>(), 60);
}

#[test]
fn skewed_keys_trigger_work_stealing() {
    // Every request carries the same DagKey -> one home shard; the PC
    // family is expensive enough that rounds queue up and the idle shard
    // steals. max_batch 4 over 120 requests gives ~30 rounds to fight
    // over.
    let dags = workload_dags();
    let d = dispatcher(2, 4);
    let key = d.register(dags[0].clone());
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..120)
        .map(|i| {
            sub.submit(Request::new(key, inputs_for(&dags[0], i)))
                .unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let report = d.shutdown();
    assert_eq!(report.served, 120);
    let home = home_shard(key, 2);
    let other = 1 - home;
    assert!(
        report.shards[other].stolen_rounds > 0,
        "idle shard never stole: {report:?}"
    );
    assert!(report.steal_rate() > 0.0);
    // The thief found the program in the dispatcher's one store: nobody
    // compiled or decoded it a second time, and the store is counted once.
    assert_eq!(report.stores.len(), 1);
    let cache = report.cache_totals();
    assert_eq!((cache.misses, cache.decode_count), (1, 1), "{cache:?}");
    assert_eq!(cache.hits + cache.misses, 120);
}

/// Single-flight across shards, counted once: four families over two
/// stealing shards — the first rounds of a family can reach both shards
/// at once — compile and decode each family exactly once per dispatcher,
/// every time, and every request served is one cache lookup.
#[test]
fn a_dispatcher_compiles_and_decodes_each_family_once() {
    let dags = workload_dags();
    for run in 0..50 {
        let d = dispatcher(2, 4);
        let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
        let sub = d.submitter();
        let tickets: Vec<Ticket> = (0..48)
            .map(|i| {
                let which = i % dags.len();
                sub.submit(Request::new(keys[which], inputs_for(&dags[which], i)))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let report = d.shutdown();
        let cache = report.cache_totals();
        assert_eq!(
            (cache.misses, cache.decode_count, cache.entries),
            (4, 4, 4),
            "run {run}: {report:?}"
        );
        assert_eq!(cache.hits + cache.misses, 48, "run {run}");
    }
}

/// Shards of *different* configurations share the store too — the cache
/// keys programs by `(DagKey, ArchConfig)` — and each shard still answers
/// as a serial pass on its own configuration does.
#[test]
fn shards_of_distinct_configs_share_one_store() {
    let configs = vec![arch(), ArchConfig::new(3, 16, 32).unwrap()];
    let dags = workload_dags();
    let options = DispatchOptions {
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        ..Default::default()
    };
    let engines = engine_shards(
        &configs,
        CompileOptions::default(),
        &EngineOptions::default(),
    );
    let d = Dispatcher::new(engines, options);
    let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
    let homes: Vec<usize> = keys.iter().map(|&k| home_shard(k, 2)).collect();
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..40)
        .map(|i| {
            let which = i % dags.len();
            sub.submit(Request::new(keys[which], inputs_for(&dags[which], i)))
                .unwrap()
        })
        .collect();
    let references: Vec<Engine> = configs
        .iter()
        .map(|&c| Engine::new(c, CompileOptions::default(), EngineOptions::default()))
        .collect();
    for e in &references {
        for dag in &dags {
            e.register(dag.clone());
        }
    }
    for (i, t) in tickets.into_iter().enumerate() {
        let which = i % dags.len();
        let request = Request::new(keys[which], inputs_for(&dags[which], i));
        let want = references[homes[which]]
            .serve_serial(&[request])
            .unwrap()
            .results
            .remove(0);
        assert_identical(&t.wait().unwrap(), &want, &format!("req {i}"));
    }
    let report = d.shutdown();
    assert_eq!(report.stores.len(), 1, "two configs, one store");
    let cache = report.cache_totals();
    // No stealing between distinct configs: each DAG was compiled for its
    // home's configuration only.
    assert_eq!((cache.misses, cache.entries), (4, 4));
}

#[test]
fn shutdown_with_requests_in_flight_is_loss_free() {
    let dags = workload_dags();
    let d = dispatcher(2, 8);
    let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();
    let sub = d.submitter();
    // Reference results computed serially.
    let ref_engine = Engine::new(arch(), CompileOptions::default(), EngineOptions::default());
    let ref_keys: Vec<_> = dags
        .iter()
        .map(|dag| ref_engine.register(dag.clone()))
        .collect();
    let stream: Vec<Request> = (0..100)
        .map(|i| {
            let which = i % dags.len();
            Request::new(keys[which], inputs_for(&dags[which], i))
        })
        .collect();
    let ref_stream: Vec<Request> = stream
        .iter()
        .enumerate()
        .map(|(i, r)| Request::new(ref_keys[i % dags.len()], r.inputs.clone()))
        .collect();
    let reference = ref_engine.serve_serial(&ref_stream).unwrap();

    // Submit everything and shut down immediately — no drain, no waiting.
    let tickets: Vec<Ticket> = stream
        .iter()
        .map(|r| sub.submit(r.clone()).expect("accepted"))
        .collect();
    let report = d.shutdown();

    // Loss-free: every accepted request was executed...
    assert_eq!(report.submitted, 100);
    assert_eq!(report.served, 100);
    // ...its ticket fulfilled without further blocking...
    for (i, t) in tickets.into_iter().enumerate() {
        assert!(t.is_done(), "ticket {i} unfulfilled after shutdown");
        let got = t.wait().expect("request succeeded");
        assert_identical(&got, &reference.results[i], &format!("req {i}"));
    }
    // ...and later submissions are rejected, handing the request back.
    let err = sub
        .submit(Request::new(keys[0], inputs_for(&dags[0], 0)))
        .unwrap_err();
    assert!(
        matches!(err, dpu_runtime::SubmitRejection::QueueClosed { .. }),
        "post-shutdown submit must be QueueClosed: {err:?}"
    );
    assert_eq!(err.into_request().dag, keys[0]);
}

#[test]
fn drain_is_a_barrier_not_a_shutdown() {
    let dags = workload_dags();
    let d = dispatcher(2, 8);
    let key = d.register(dags[3].clone());
    let sub = d.submitter();
    let first: Vec<Ticket> = (0..20)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 0.0])).unwrap())
        .collect();
    d.drain();
    assert_eq!(d.in_flight(), 0);
    assert!(first.iter().all(Ticket::is_done), "drain waits for all");
    // Still serving afterwards.
    let more = sub.submit(Request::new(key, vec![1.0, 1.0])).unwrap();
    assert_eq!(more.wait().unwrap().outputs, vec![4.0]);
    let report = d.shutdown();
    assert_eq!(report.served, 21);
}

#[test]
fn heterogeneous_shards_route_by_key_and_never_cross_steal() {
    // Two distinct architecture points: stealing between them would change
    // per-request cycle counts, so it must not happen.
    let configs = vec![
        ArchConfig::new(2, 8, 32).unwrap(),
        ArchConfig::new(3, 16, 32).unwrap(),
    ];
    let options = DispatchOptions {
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        work_stealing: true, // on, but classes differ -> no stealing
        ..Default::default()
    };
    let engines = engine_shards(
        &configs,
        CompileOptions::default(),
        &EngineOptions::default(),
    );
    let d = Dispatcher::new(engines, options);
    let dags = workload_dags();
    let sub = d.submitter();
    let mut expected = Vec::new();
    let mut tickets = Vec::new();
    for i in 0..40 {
        let which = i % dags.len();
        let key = d.register(dags[which].clone());
        let shard = home_shard(key, configs.len());
        let inputs = inputs_for(&dags[which], i);
        // The request executes on its home shard's config.
        let compiled =
            dpu_compiler::compile(&dags[which], &configs[shard], &CompileOptions::default())
                .unwrap();
        expected.push(dpu_sim::run(&compiled, &inputs).unwrap());
        tickets.push(sub.submit(Request::new(key, inputs)).unwrap());
    }
    for (i, t) in tickets.into_iter().enumerate() {
        assert_identical(&t.wait().unwrap(), &expected[i], &format!("req {i}"));
    }
    let report = d.shutdown();
    assert_eq!(report.served, 40);
    assert!(
        report.shards.iter().all(|s| s.stolen_rounds == 0),
        "cross-config stealing happened: {report:?}"
    );
}

#[test]
fn rounds_close_by_size_under_burst_and_by_timer_under_trickle() {
    let dags = workload_dags();
    let d = replicas(DispatchOptions {
        shards: 1,
        max_batch: 10,
        max_wait: Duration::from_millis(5),
        ..Default::default()
    });
    let key = d.register(dags[3].clone());
    let sub = d.submitter();
    // Burst: 30 requests at once -> three full rounds of 10.
    let burst: Vec<Ticket> = (0..30)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap())
        .collect();
    for t in burst {
        t.wait().unwrap();
    }
    // Trickle: two lone requests, each forced out by the 5 ms budget.
    for i in 0..2 {
        let t = sub.submit(Request::new(key, vec![i as f32, 2.0])).unwrap();
        t.wait().unwrap();
    }
    let report = d.shutdown();
    assert_eq!(report.served, 32);
    assert!(
        report.rounds_closed_full >= 3,
        "burst should close full rounds: {report:?}"
    );
    assert!(
        report.rounds_closed_timer >= 2,
        "trickle should close timer rounds: {report:?}"
    );
}

#[test]
fn unknown_dag_fails_the_ticket_not_the_dispatcher() {
    let d = dispatcher(2, 4);
    let dags = workload_dags();
    let key = d.register(dags[3].clone());
    let sub = d.submitter();
    let bad = sub
        .submit(Request::new(dpu_runtime::DagKey(0xdead_beef), vec![1.0]))
        .unwrap();
    let good = sub.submit(Request::new(key, vec![1.0, 2.0])).unwrap();
    assert!(matches!(
        bad.wait(),
        dpu_runtime::Outcome::Failed(dpu_runtime::ServeError::UnknownDag(_))
    ));
    assert_eq!(good.wait().unwrap().outputs, vec![9.0]);
    let report = d.shutdown();
    assert_eq!(report.submitted, 2, "failed request still counted");
}

#[test]
fn ticket_wait_timeout_returns_ticket_then_result() {
    let d = dispatcher(1, 64);
    let dags = workload_dags();
    let key = d.register(dags[0].clone());
    let sub = d.submitter();
    let t = sub
        .submit(Request::new(key, inputs_for(&dags[0], 0)))
        .unwrap();
    // Submit, then immediately poll with a zero timeout: the round has
    // not closed yet (max_batch 64, 200 µs budget), so this usually times
    // out — and when it does, the returned ticket must still work.
    match t.wait_timeout(Duration::from_nanos(1)) {
        Ok(result) => {
            result.unwrap();
        }
        Err(t) => {
            t.wait().unwrap();
        }
    }
    d.shutdown();
}

/// Regression (report-window accounting): `host_seconds` must cover the
/// serving window (first accepted request → last completion), not the
/// dispatcher's whole lifetime — idling before traffic arrives used to
/// deflate every host-side throughput figure derived from it. The old
/// total survives as `lifetime_seconds`.
#[test]
fn report_window_excludes_pre_traffic_idle() {
    let d = dispatcher(2, 8);
    let dags = workload_dags();
    let keys: Vec<_> = dags.iter().map(|dag| d.register(dag.clone())).collect();

    // Idle long enough that lifetime and serving window must diverge.
    let idle = Duration::from_millis(300);
    std::thread::sleep(idle);

    let submitter = d.submitter();
    let tickets: Vec<Ticket> = (0..40)
        .map(|i| {
            let which = i % dags.len();
            submitter
                .submit(Request::new(keys[which], inputs_for(&dags[which], i)))
                .expect("accepted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("request succeeds");
    }
    let report = d.shutdown();

    assert!(
        report.host_seconds > 0.0,
        "forty served requests must open a serving window"
    );
    assert!(
        report.lifetime_seconds >= idle.as_secs_f64(),
        "lifetime covers construction → shutdown"
    );
    assert!(
        report.lifetime_seconds - report.host_seconds >= idle.as_secs_f64() * 0.8,
        "serving window ({:.4}s) must exclude the {:.1}s pre-traffic idle \
         (lifetime {:.4}s)",
        report.host_seconds,
        idle.as_secs_f64(),
        report.lifetime_seconds,
    );
}

/// An empty lifetime has no serving window at all.
#[test]
fn report_window_is_zero_when_nothing_served() {
    let d = dispatcher(2, 8);
    std::thread::sleep(Duration::from_millis(30));
    let report = d.shutdown();
    assert_eq!(report.host_seconds, 0.0);
    assert!(report.lifetime_seconds >= 0.03);
}
