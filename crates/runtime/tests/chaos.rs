//! Failure-injection and hedged-recovery tests: scripted shard kills —
//! a panic at the execute site, contained like an engine's own — that
//! fail only the round in hand and requeue the backlog (everything else
//! byte-identical to the serial reference, every ticket resolved exactly
//! once), typed no-survivor failures, stall-lease reclaim, and hedging
//! first-completion-wins.

use std::sync::Arc;
use std::time::Duration;

use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    dag_fingerprint, engine_shards, home_shard, ChaosPlan, DispatchOptions, DispatchReport,
    Dispatcher, Engine, EngineOptions, Outcome, Priority, Request, ServeError, SubmitOptions,
    Ticket,
};
use dpu_sim::RunResult;
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};

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
/// ticket either `Failed(ShardLost)` naming `victim` or `Completed` and
/// byte-identical to the serial replies. Returns the `ShardLost` count.
fn serve_mixed(d: &Dispatcher, stream: &MixedStream, victim: usize, ctx: &str) -> u64 {
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
    let mut lost = 0;
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Outcome::Completed(res) => {
                assert_identical(&res, &stream.reference[i], &format!("{ctx}, request {i}"));
            }
            Outcome::Failed(ServeError::ShardLost { shard }) if shard == victim => lost += 1,
            other => panic!("{ctx}: request {i} resolved {other:?}"),
        }
    }
    lost
}

/// The settled kill contract on a shut-down report: the `lost` tickets
/// are the ledger's whole `failed`, they are at most one round of
/// `max_batch` — the round the victim had handed to its engine — and every
/// class balances.
fn assert_one_round_lost(report: &DispatchReport, lost: u64, max_batch: usize, ctx: &str) {
    let classes = [Priority::Interactive, Priority::Standard, Priority::Batch];
    let failed: u64 = classes.iter().map(|&p| report.class(p).failed).sum();
    assert_eq!(
        lost, failed,
        "{ctx}: ShardLost tickets vs the ledger's failed"
    );
    assert!(
        lost <= max_batch as u64,
        "{ctx}: {lost} lost, more than a round"
    );
    for p in classes {
        let c = report.class(p);
        assert_eq!(
            c.offered,
            c.completed + c.failed + c.shed + c.rejected,
            "{ctx}: {p:?} ledger"
        );
    }
}

/// Property: killing *any* one of four shards mid-stream under a seeded
/// mixed request stream costs at most the round it had handed to its
/// engine — those tickets fail `ShardLost` naming the victim — and every
/// other ticket resolves exactly once, `Completed`, with outputs
/// byte-identical to a serial engine pass; the ledger balances.
#[test]
fn killing_any_shard_loses_at_most_its_in_hand_round() {
    const SHARDS: usize = 4;
    const REQUESTS: usize = 60;
    const MAX_BATCH: usize = 4;

    let stream = mixed_stream(REQUESTS);
    for victim in 0..SHARDS {
        let d = dispatcher(DispatchOptions {
            shards: SHARDS,
            max_batch: MAX_BATCH,
            max_wait: Duration::from_micros(200),
            work_stealing: true,
            chaos: Some(ChaosPlan::new(42).kill_shard(victim, 2)),
            ..Default::default()
        });
        let ctx = format!("victim {victim}");
        let lost = serve_mixed(&d, &stream, victim, &ctx);
        let report = d.shutdown();
        assert_eq!(report.served, REQUESTS as u64 - lost, "{ctx}");
        assert_eq!(report.submitted, REQUESTS as u64, "{ctx}");
        assert_one_round_lost(&report, lost, MAX_BATCH, &ctx);
    }
}

/// A kill, a straggler and hedging at once, over four shards with stealing
/// off: the first family's home dies on its third round while its
/// neighbour stalls ~3 ms on every round and rounds queued past the hedge
/// trigger get copies. At most the dead shard's in-hand round fails
/// `ShardLost`; every other ticket completes byte-identical to serial, the
/// dead shard's backlog provably moved through recovery, and the
/// per-class ledger balances.
#[test]
fn kill_stall_and_hedging_together_lose_only_the_in_hand_round() {
    const SHARDS: usize = 4;
    const REQUESTS: usize = 120;
    const MAX_BATCH: usize = 4;

    let stream = mixed_stream(REQUESTS);
    let killed = home_shard(dag_fingerprint(&stream.dags[0]), SHARDS);
    let stalled = (killed + 1) % SHARDS;
    let d = dispatcher(DispatchOptions {
        shards: SHARDS,
        max_batch: MAX_BATCH,
        max_wait: Duration::from_micros(500),
        work_stealing: false,
        chaos: Some(
            ChaosPlan::new(42)
                .kill_shard(killed, 2)
                .stall_shard(stalled, Duration::from_millis(3)),
        ),
        hedge: true,
        stall_timeout: Some(Duration::from_millis(50)),
        ..Default::default()
    });
    let lost = serve_mixed(&d, &stream, killed, "kill + stall + hedge");
    let report = d.shutdown();
    let classes = [Priority::Interactive, Priority::Standard, Priority::Batch];
    let completed: u64 = classes.iter().map(|&p| report.class(p).completed).sum();
    assert_eq!(completed, REQUESTS as u64 - lost, "{report:?}");
    assert_one_round_lost(&report, lost, MAX_BATCH, "kill + stall + hedge");
    assert!(
        report.recovered >= 1,
        "the killed shard's rounds never recovered: {report:?}"
    );
    assert!(report.hedge_wins <= report.hedged, "{report:?}");
}

/// A killed shard with no surviving same-class peer cannot recover its
/// backlog: the round in hand and every stranded ticket resolve the typed
/// `Failed(ShardLost)` — never a hang, never a silent drop — and the
/// ledger counts them as failures, not completions.
#[test]
fn kill_with_no_survivor_fails_typed() {
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 1,
        chaos: Some(ChaosPlan::new(1).kill_shard(0, 0)),
        ..Default::default()
    });
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
    let d = dispatcher(DispatchOptions {
        shards: 2,
        max_batch: 1,
        work_stealing: false,
        chaos: Some(ChaosPlan::new(7).stall_shard(home, Duration::from_millis(100))),
        stall_timeout: Some(Duration::from_millis(25)),
        ..Default::default()
    });
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
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 1,
        chaos: Some(ChaosPlan::new(3).stall_shard(0, Duration::from_millis(60))),
        stall_timeout: Some(Duration::from_millis(15)),
        ..Default::default()
    });
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
    let d = dispatcher(DispatchOptions {
        shards: 2,
        max_batch: 1,
        work_stealing: false,
        chaos: Some(ChaosPlan::new(11).stall_shard(home, Duration::from_millis(120))),
        hedge: true,
        ..Default::default()
    });
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

/// A scripted kill is contained to its round: with one request per round
/// and stealing off, home dies on its second round — that ticket alone
/// fails `ShardLost` — the backlog behind it is requeued onto the peer,
/// later ingestion reroutes around the corpse, and the dispatcher keeps
/// serving.
#[test]
fn a_kill_is_contained_to_its_round_and_recovered() {
    let dag = small_dag();
    let home = home_shard(dag_fingerprint(&dag), 2);
    let d = dispatcher(DispatchOptions {
        shards: 2,
        max_batch: 1,
        // Stealing off: the killed round provably executes on its home
        // shard, and recovery still requeues.
        work_stealing: false,
        chaos: Some(ChaosPlan::new(1).kill_shard(home, 1)),
        ..Default::default()
    });
    let key = d.register(dag);
    let sub = d.submitter();

    let good1 = sub.submit(Request::new(key, vec![1.0, 1.0])).unwrap();
    let killed = sub.submit(Request::new(key, vec![0.5, 1.0])).unwrap();
    let good2 = sub.submit(Request::new(key, vec![2.0, 2.0])).unwrap();

    // The kill takes the round in its home worker's hand...
    match killed.wait() {
        Outcome::Failed(ServeError::ShardLost { shard }) => assert_eq!(shard, home),
        other => panic!("expected ShardLost, got {other:?}"),
    }
    // ...but nothing else is lost: queued work recovers on the peer, and
    // post-mortem submissions reroute around the dead home shard.
    let good3 = sub
        .submit(Request::new(key, vec![3.0, 3.0]))
        .expect("the dispatcher keeps admitting after a contained kill");
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

/// Containment over one program store: shard 0 is killed on its fifth
/// round mid-stream while both shards serve from the same store. The
/// survivor takes the dead shard's backlog and later traffic, answers
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
        spill_dir: None,
    };
    let primary = Engine::new(arch(), CompileOptions::default(), options.clone());
    let sibling = primary.sharing(arch());
    assert!(Arc::ptr_eq(
        primary.program_store(),
        sibling.program_store()
    ));
    let d = Dispatcher::new(
        vec![primary, sibling],
        DispatchOptions {
            max_batch: 1,
            // Stealing off: shard 0's rounds provably execute on shard 0,
            // in order, so request `KILLED` is its fifth.
            work_stealing: false,
            chaos: Some(ChaosPlan::new(1).kill_shard(0, 4)),
            ..Default::default()
        },
    );
    let keys: Vec<_> = families.iter().map(|dag| d.register(dag.clone())).collect();
    let serial = Engine::new(arch(), CompileOptions::default(), options);
    for dag in &families {
        serial.register(dag.clone());
    }

    const REQUESTS: usize = 48;
    const KILLED: usize = 8; // shard 0's fifth request: 0, 1, 4, 5, 8
    let requests: Vec<Request> = (0..REQUESTS)
        .map(|i| Request::new(keys[i % 2 + 2 * (i / 2 % 2)], vec![i as f32 + 0.5, 1.25]))
        .collect();
    assert_eq!(requests[KILLED].dag, keys[0]);
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
            Outcome::Failed(ServeError::ShardLost { shard: 0 }) if i == KILLED => {}
            Outcome::Completed(got) if i != KILLED => {
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
