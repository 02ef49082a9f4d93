//! Failure-injection and hedged-recovery tests: scripted shard kills
//! with loss-free round requeue (byte-identical to the serial reference,
//! every ticket resolved exactly once), typed no-survivor failures,
//! stall-lease reclaim, hedging first-completion-wins, and contained
//! backend panics.

use std::sync::Arc;
use std::time::Duration;

use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    dag_fingerprint, home_shard, Backend, ChaosPlan, DispatchOptions, Dispatcher, Engine,
    EngineOptions, HedgeOptions, Outcome, Priority, Request, ServeError, SubmitOptions, Ticket,
};
use dpu_sim::{Machine, RunResult};
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};

fn arch() -> ArchConfig {
    ArchConfig::new(2, 8, 32).unwrap()
}

fn small_dag() -> Dag {
    let mut b = DagBuilder::new();
    let x = b.input();
    let y = b.input();
    let s = b.node(Op::Add, &[x, y]).unwrap();
    b.node(Op::Mul, &[s, s]).unwrap();
    b.finish().unwrap()
}

/// A salted variant family of [`small_dag`], to spread DagKeys (and so
/// home shards) across the fabric.
fn salted_dag(salt: usize) -> Dag {
    let mut b = DagBuilder::new();
    let x = b.input();
    let y = b.input();
    let s = b.node(Op::Add, &[x, y]).unwrap();
    let mut m = b.node(Op::Mul, &[s, s]).unwrap();
    for _ in 0..salt {
        m = b.node(Op::Add, &[m, s]).unwrap();
    }
    b.finish().unwrap()
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

fn assert_identical(got: &RunResult, want: &RunResult, ctx: &str) {
    let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "{ctx}: outputs differ");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles differ");
}

/// A seeded mixed stream of `n` requests — three salted families plus a
/// PC workload — with a priority class per request, and a serial engine's
/// replies to it.
struct MixedStream {
    dags: Vec<Dag>,
    requests: Vec<Request>,
    priorities: Vec<Priority>,
    reference: Vec<RunResult>,
}

fn mixed_stream(n: usize) -> MixedStream {
    let dags: Vec<Dag> = vec![
        salted_dag(0),
        salted_dag(1),
        salted_dag(2),
        generate_pc(&PcParams::with_targets(200, 8), 71),
    ];
    let serial = Engine::new(
        arch(),
        CompileOptions::default(),
        EngineOptions {
            workers: 1,
            cores: 8,
            cache_capacity: None,
            spill_dir: None,
        },
    );
    let keys: Vec<_> = dags.iter().map(|d| serial.register(d.clone())).collect();
    let mut state = 0x9e37_79b9u64;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut requests: Vec<Request> = Vec::new();
    let mut priorities: Vec<Priority> = Vec::new();
    for i in 0..n {
        let f = (draw() % dags.len() as u64) as usize;
        let inputs = if f == 3 {
            pc_inputs(&dags[3], i as u64)
        } else {
            vec![(i % 7) as f32 + 0.5, (i % 3) as f32 + 1.0]
        };
        requests.push(Request::new(keys[f], inputs));
        priorities.push(match draw() % 3 {
            0 => Priority::Interactive,
            1 => Priority::Standard,
            _ => Priority::Batch,
        });
    }
    let reference = serial.serve(&requests);
    assert!(reference.failures.is_empty());
    MixedStream {
        dags,
        requests,
        priorities,
        reference: reference.results,
    }
}

/// Submits the whole stream with its priorities, drains, and checks every
/// ticket `Completed` and byte-identical to the serial replies.
fn serve_mixed(d: &Dispatcher, stream: &MixedStream, ctx: &str) {
    for dag in &stream.dags {
        d.register(dag.clone());
    }
    let sub = d.submitter();
    let tickets: Vec<Ticket> = stream
        .requests
        .iter()
        .zip(&stream.priorities)
        .map(|(r, &p)| {
            sub.submit_with(r.clone(), SubmitOptions::default().priority(p))
                .expect("no capacity bound, no deadline: always accepted")
        })
        .collect();
    d.drain();
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Outcome::Completed(res) => {
                assert_identical(&res, &stream.reference[i], &format!("{ctx}, request {i}"));
            }
            other => panic!("{ctx}: request {i} resolved {other:?}"),
        }
    }
}

/// Property: killing *any* one of four shards mid-stream under a seeded
/// mixed request stream loses nothing — every ticket resolves exactly
/// once, `Completed`, with outputs byte-identical to a serial engine
/// pass; the ledger balances with zero failures.
#[test]
fn killing_any_shard_is_loss_free_and_byte_identical_to_serial() {
    const SHARDS: usize = 4;
    const REQUESTS: usize = 60;

    let stream = mixed_stream(REQUESTS);
    for victim in 0..SHARDS {
        let d = Dispatcher::new(
            arch(),
            CompileOptions::default(),
            DispatchOptions {
                shards: SHARDS,
                max_batch: 4,
                max_wait: Duration::from_micros(200),
                work_stealing: true,
                chaos: Some(ChaosPlan::new(42).kill_shard(victim, 2)),
                ..Default::default()
            },
        );
        serve_mixed(&d, &stream, &format!("victim {victim}"));
        let report = d.shutdown();
        assert_eq!(report.served, REQUESTS as u64, "victim {victim}");
        assert_eq!(report.submitted, REQUESTS as u64, "victim {victim}");
        for p in [Priority::Interactive, Priority::Standard, Priority::Batch] {
            let c = report.class(p);
            assert_eq!(c.failed, 0, "victim {victim}: {p:?}");
            assert_eq!(
                c.offered,
                c.completed + c.failed + c.shed + c.rejected,
                "victim {victim}: {p:?} ledger"
            );
        }
    }
}

/// A kill, a straggler and hedging at once, over four shards with stealing
/// off: the first family's home dies at its third round checkout while
/// its neighbour stalls ~3 ms on every round and rounds queued past the
/// hedge trigger get copies. Every ticket still completes byte-identical
/// to serial, nothing fails, the dead shard's work provably moved through
/// recovery, and the per-class ledger balances.
#[test]
fn kill_stall_and_hedging_together_lose_nothing() {
    const SHARDS: usize = 4;
    const REQUESTS: usize = 120;

    let stream = mixed_stream(REQUESTS);
    let killed = home_shard(dag_fingerprint(&stream.dags[0]), SHARDS);
    let stalled = (killed + 1) % SHARDS;
    let d = Dispatcher::new(
        arch(),
        CompileOptions::default(),
        DispatchOptions {
            shards: SHARDS,
            max_batch: 4,
            max_wait: Duration::from_micros(500),
            work_stealing: false,
            chaos: Some(
                ChaosPlan::new(42)
                    .kill_shard(killed, 2)
                    .stall_shard(stalled, Duration::from_millis(3)),
            ),
            hedge: Some(HedgeOptions {
                trigger_percentile: 95,
                min_wait: Duration::from_millis(5),
            }),
            stall_timeout: Some(Duration::from_millis(50)),
            ..Default::default()
        },
    );
    serve_mixed(&d, &stream, "kill + stall + hedge");
    let report = d.shutdown();
    let classes = [Priority::Interactive, Priority::Standard, Priority::Batch];
    let completed: u64 = classes.iter().map(|&p| report.class(p).completed).sum();
    assert_eq!(completed, REQUESTS as u64, "{report:?}");
    for p in classes {
        let c = report.class(p);
        assert_eq!(c.failed, 0, "{p:?}: survivors absorb every failure");
        assert_eq!(
            c.offered,
            c.completed + c.failed + c.shed + c.rejected,
            "{p:?} ledger"
        );
    }
    assert!(
        report.recovered >= 1,
        "the killed shard's rounds never recovered: {report:?}"
    );
    assert!(report.hedge_wins <= report.hedged, "{report:?}");
}

/// A killed shard with no surviving same-class peer cannot recover its
/// work: every stranded ticket resolves the typed
/// `Failed(ShardLost)` — never a hang, never a silent drop — and the
/// ledger counts them as failures, not completions.
#[test]
fn kill_with_no_survivor_fails_typed() {
    let d = Dispatcher::new(
        arch(),
        CompileOptions::default(),
        DispatchOptions {
            shards: 1,
            max_batch: 1,
            chaos: Some(ChaosPlan::new(1).kill_shard(0, 0)),
            ..Default::default()
        },
    );
    let key = d.register(small_dag());
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap())
        .collect();
    d.drain();
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Outcome::Failed(ServeError::ShardLost { shard }) => {
                assert_eq!(shard, 0, "ticket {i}");
            }
            other => panic!("ticket {i}: expected ShardLost, got {other:?}"),
        }
    }
    let report = d.shutdown();
    assert_eq!(report.served, 0);
    assert_eq!(report.recovered, 0);
    let c = report.class(Priority::Standard);
    assert_eq!(c.failed, 4);
    assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
}

/// A stalled (sick-but-alive) shard's checked-out round is reclaimed
/// through its lease after `stall_timeout` and re-executed by the peer —
/// stealing is off, so lease reclaim is provably the path — while the
/// atomic claims keep each ticket exactly-once.
#[test]
fn stalled_lease_is_reclaimed_onto_peer() {
    let dag = small_dag();
    let home = home_shard(dag_fingerprint(&dag), 2);
    let d = Dispatcher::new(
        arch(),
        CompileOptions::default(),
        DispatchOptions {
            shards: 2,
            max_batch: 1,
            work_stealing: false,
            chaos: Some(ChaosPlan::new(7).stall_shard(home, Duration::from_millis(100))),
            stall_timeout: Some(Duration::from_millis(25)),
            ..Default::default()
        },
    );
    let key = d.register(dag);
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap())
        .collect();
    d.drain();
    for (i, t) in tickets.into_iter().enumerate() {
        let want = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(t.wait().unwrap().outputs, vec![want], "ticket {i}");
    }
    let report = d.shutdown();
    assert_eq!(report.served, 4);
    assert!(
        report.recovered >= 1,
        "no lease was ever reclaimed: {report:?}"
    );
    let c = report.class(Priority::Standard);
    assert_eq!(c.failed, 0);
    assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
}

/// With no surviving peer, stall reclaim must *drop* the copy, never
/// fail the jobs: the stalled holder is alive and still resolves the
/// originals. Every ticket completes.
#[test]
fn stall_reclaim_with_no_survivor_drops_the_copy() {
    let d = Dispatcher::new(
        arch(),
        CompileOptions::default(),
        DispatchOptions {
            shards: 1,
            max_batch: 1,
            chaos: Some(ChaosPlan::new(3).stall_shard(0, Duration::from_millis(60))),
            stall_timeout: Some(Duration::from_millis(15)),
            ..Default::default()
        },
    );
    let key = d.register(small_dag());
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..2)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap())
        .collect();
    d.drain();
    for (i, t) in tickets.into_iter().enumerate() {
        let want = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(t.wait().unwrap().outputs, vec![want], "ticket {i}");
    }
    let report = d.shutdown();
    assert_eq!(report.served, 2);
    assert_eq!(report.class(Priority::Standard).failed, 0);
}

/// Hedging: rounds stuck behind a stalled shard past the wait trigger
/// get copies on the idle peer (stealing is off, so hedging is provably
/// the path); first completion wins per job, losers are discarded before
/// ticket fulfilment, and results stay byte-identical.
#[test]
fn hedged_rounds_win_on_the_idle_peer() {
    let dag = small_dag();
    let home = home_shard(dag_fingerprint(&dag), 2);
    let d = Dispatcher::new(
        arch(),
        CompileOptions::default(),
        DispatchOptions {
            shards: 2,
            max_batch: 1,
            work_stealing: false,
            chaos: Some(ChaosPlan::new(11).stall_shard(home, Duration::from_millis(120))),
            hedge: Some(HedgeOptions {
                trigger_percentile: 95,
                min_wait: Duration::from_millis(5),
            }),
            ..Default::default()
        },
    );
    let key = d.register(dag);
    let sub = d.submitter();
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| sub.submit(Request::new(key, vec![i as f32, 1.0])).unwrap())
        .collect();
    d.drain();
    for (i, t) in tickets.into_iter().enumerate() {
        let want = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(t.wait().unwrap().outputs, vec![want], "ticket {i}");
    }
    let report = d.shutdown();
    assert_eq!(report.served, 4);
    assert!(report.hedged >= 1, "nothing was hedged: {report:?}");
    assert!(report.hedge_wins >= 1, "no hedge copy ever won: {report:?}");
    assert!(
        report.hedge_wins <= report.hedged,
        "more wins than hedges: {report:?}"
    );
    let c = report.class(Priority::Standard);
    assert_eq!(c.failed, 0);
    assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
}

/// A pass-through backend that panics on a magic input — a buggy engine,
/// not a scripted kill.
struct PanicBackend {
    inner: Arc<dyn Backend>,
}

impl Backend for PanicBackend {
    fn engine(&self) -> &Engine {
        self.inner.engine()
    }
    fn execute_round(
        &self,
        machine: &mut Machine,
        requests: &[&Request],
    ) -> Vec<Result<RunResult, ServeError>> {
        assert!(
            requests.iter().all(|r| r.inputs.first() != Some(&666.0)),
            "poison request reached the backend"
        );
        self.inner.execute_round(machine, requests)
    }
}

/// A backend panic is contained to its round: the in-hand jobs fail
/// typed (`ShardLost`), the dead shard's backlog is requeued onto the
/// peer, later ingestion reroutes around the corpse, and the dispatcher
/// keeps serving.
#[test]
fn backend_panic_is_contained_and_recovered() {
    let dag = small_dag();
    let home = home_shard(dag_fingerprint(&dag), 2);
    let backends: Vec<Arc<dyn Backend>> = (0..2)
        .map(|_| {
            Arc::new(PanicBackend {
                inner: engine_backend(),
            }) as Arc<dyn Backend>
        })
        .collect();
    let d = Dispatcher::with_backends(
        backends,
        DispatchOptions {
            max_batch: 1,
            // Stealing off: the poison round provably executes on its
            // home shard, and recovery still requeues.
            work_stealing: false,
            ..Default::default()
        },
    );
    let key = d.register(dag);
    let sub = d.submitter();

    let good1 = sub.submit(Request::new(key, vec![1.0, 1.0])).unwrap();
    let poison = sub.submit(Request::new(key, vec![666.0, 1.0])).unwrap();
    let good2 = sub.submit(Request::new(key, vec![2.0, 2.0])).unwrap();

    // The poison round kills its home worker...
    match poison.wait() {
        Outcome::Failed(ServeError::ShardLost { shard }) => assert_eq!(shard, home),
        other => panic!("expected ShardLost, got {other:?}"),
    }
    // ...but nothing else is lost: queued work recovers on the peer, and
    // post-mortem submissions reroute around the dead home shard.
    let good3 = sub
        .submit(Request::new(key, vec![3.0, 3.0]))
        .expect("the dispatcher keeps admitting after a contained panic");
    d.drain();
    assert_eq!(good1.wait().unwrap().outputs, vec![4.0]);
    assert_eq!(good2.wait().unwrap().outputs, vec![16.0]);
    assert_eq!(good3.wait().unwrap().outputs, vec![36.0]);

    let report = d.shutdown();
    assert_eq!(report.served, 3);
    assert!(report.recovered >= 1, "backlog never recovered: {report:?}");
    let c = report.class(Priority::Standard);
    assert_eq!(c.failed, 1);
    assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
}

/// Containment over one program store: shard 0's backend panics
/// mid-stream while both shards serve from the same store. The survivor
/// takes the dead shard's backlog and later traffic, answers
/// byte-identically to a serial pass, finds every program the dead shard
/// had compiled still in the store (nothing is compiled twice), every
/// ticket resolves exactly once and the ledger balances.
#[test]
fn a_panicking_shard_leaves_the_shared_store_serving() {
    // Two families per home shard.
    let mut dags: [Vec<Dag>; 2] = [Vec::new(), Vec::new()];
    for salt in 0.. {
        let dag = salted_dag(salt);
        let home = home_shard(dag_fingerprint(&dag), 2);
        if dags[home].len() < 2 {
            dags[home].push(dag);
        }
        if dags.iter().all(|d| d.len() == 2) {
            break;
        }
    }
    let [doomed, safe] = dags;
    let families: Vec<Dag> = doomed.iter().chain(&safe).cloned().collect();

    let options = EngineOptions {
        workers: 1,
        cores: 8,
        cache_capacity: None,
        spill_dir: None,
    };
    let primary = Engine::new(arch(), CompileOptions::default(), options.clone());
    let sibling = primary.sharing(arch());
    assert!(Arc::ptr_eq(
        primary.program_store(),
        sibling.program_store()
    ));
    let backends: Vec<Arc<dyn Backend>> = vec![
        Arc::new(PanicBackend {
            inner: Arc::new(primary),
        }),
        Arc::new(sibling),
    ];
    let d = Dispatcher::with_backends(
        backends,
        DispatchOptions {
            max_batch: 1,
            // Stealing off: the poison round provably executes on shard 0.
            work_stealing: false,
            ..Default::default()
        },
    );
    let keys: Vec<_> = families.iter().map(|dag| d.register(dag.clone())).collect();
    let serial = Engine::new(arch(), CompileOptions::default(), options);
    for dag in &families {
        serial.register(dag.clone());
    }

    const REQUESTS: usize = 48;
    const POISON: usize = 8; // a request for `doomed[0]`, homed on shard 0
    let requests: Vec<Request> = (0..REQUESTS)
        .map(|i| {
            let x = if i == POISON { 666.0 } else { i as f32 + 0.5 };
            Request::new(keys[i % 2 + 2 * (i / 2 % 2)], vec![x, 1.25])
        })
        .collect();
    assert_eq!(requests[POISON].dag, keys[0]);
    let reference = serial.serve(&requests);
    let sub = d.submitter();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| sub.submit(r.clone()).expect("accepted"))
        .collect();
    d.drain();
    for (i, t) in tickets.into_iter().enumerate() {
        assert!(t.is_done(), "ticket {i} unresolved after drain");
        match t.wait() {
            Outcome::Failed(ServeError::ShardLost { shard: 0 }) if i == POISON => {}
            Outcome::Completed(got) if i != POISON => {
                assert_identical(&got, &reference.results[i], &format!("request {i}"));
            }
            other => panic!("request {i}: {other:?}"),
        }
    }
    let report = d.shutdown();
    assert_eq!(report.served, REQUESTS as u64 - 1);
    assert!(report.recovered >= 1, "backlog never recovered: {report:?}");
    assert!(report.shards[1].requests > report.shards[0].requests);
    let c = report.class(Priority::Standard);
    assert_eq!((c.completed, c.failed), (REQUESTS as u64 - 1, 1));
    assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
    assert_eq!(report.stores.len(), 1);
    let cache = report.cache_totals();
    assert_eq!((cache.misses, cache.decode_count), (4, 4), "{cache:?}");
}
