//! Overload-protection tests: bounded admission (`WouldBlock` instead of
//! blocking), deadline shedding with first-class `Outcome::Shed`,
//! priority scheduling with the anti-starvation aging floor, and the
//! loss-freedom property — no accepted ticket is ever silently dropped,
//! under any interleaving of backpressure, deadline churn, drains, and
//! shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    dag_fingerprint, engine_shards, home_shard, ChaosPlan, DispatchOptions, Dispatcher,
    EngineOptions, Outcome, Priority, Request, ShedReason, SubmitOptions, SubmitRejection, Ticket,
};

fn arch() -> ArchConfig {
    ArchConfig::new(2, 8, 32).unwrap()
}

/// A tiny DAG so execution never dominates test time.
fn small_dag() -> Dag {
    let mut b = DagBuilder::new();
    let x = b.input();
    let y = b.input();
    let s = b.node(Op::Add, &[x, y]).unwrap();
    b.node(Op::Mul, &[s, s]).unwrap();
    b.finish().unwrap()
}

fn dispatcher(options: DispatchOptions) -> Dispatcher {
    let configs = vec![arch(); options.shards];
    let engines = engine_shards(
        &configs,
        CompileOptions::default(),
        &EngineOptions::default(),
    );
    Dispatcher::new(engines, options)
}

/// Regression: a full home-shard queue must reject with `WouldBlock` and
/// a sane `retry_after` — immediately, never by blocking the submitter —
/// and every ticket accepted before the wall must still be served.
#[test]
fn full_queue_returns_would_block_with_sane_retry_after() {
    let capacity = 4;
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 1024,
        // Rounds close only by timer, far in the future: accepted
        // requests provably sit in the pending round while we probe the
        // admission edge.
        max_wait: Duration::from_secs(3600),
        queue_capacity: Some(capacity),
        ..Default::default()
    });
    let key = d.register(small_dag());
    let sub = d.submitter();

    let accepted: Vec<Ticket> = (0..capacity)
        .map(|i| {
            sub.submit(Request::new(key, vec![i as f32, 1.0]))
                .expect("under capacity")
        })
        .collect();

    // The wall: rejection must be immediate (an unbounded submit used to
    // just grow the channel; a *blocking* one would hang this test).
    let probe_start = Instant::now();
    let err = sub
        .submit(Request::new(key, vec![9.0, 9.0]))
        .expect_err("queue is full");
    assert!(
        probe_start.elapsed() < Duration::from_secs(5),
        "rejection must not block"
    );
    match &err {
        SubmitRejection::WouldBlock { retry_after, .. } => {
            assert!(
                *retry_after > Duration::ZERO && *retry_after <= Duration::from_secs(1),
                "retry_after out of sane range: {retry_after:?}"
            );
            assert_eq!(err.retry_after(), Some(*retry_after));
        }
        other => panic!("expected WouldBlock, got {other:?}"),
    }
    // The rejected request is handed back intact.
    assert_eq!(err.into_request().inputs, vec![9.0, 9.0]);

    // Draining flushes the pending round; every accepted ticket resolves.
    d.drain();
    for (i, t) in accepted.into_iter().enumerate() {
        let want = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(t.wait().unwrap().outputs, vec![want], "ticket {i}");
    }

    // Completion released the capacity: admission opens again.
    let again = sub
        .submit(Request::new(key, vec![2.0, 2.0]))
        .expect("capacity released after drain");
    d.drain();
    assert_eq!(again.wait().unwrap().outputs, vec![16.0]);

    let report = d.shutdown();
    assert_eq!(report.rejected_would_block, 1);
    assert_eq!(report.rejected(), 1);
    assert_eq!(report.offered(), capacity as u64 + 2);
    assert_eq!(report.served, capacity as u64 + 1);
}

/// `submit_all` against mid-batch *backpressure* (not just shutdown):
/// the `SubmitAllError { accepted, rejected, rest }` contract must hold —
/// accepted prefix keeps live tickets, the rejection names the victim,
/// and the unsubmitted tail comes back intact.
#[test]
fn submit_all_mid_batch_backpressure_keeps_contract() {
    let capacity = 3;
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 1024,
        max_wait: Duration::from_secs(3600),
        queue_capacity: Some(capacity),
        ..Default::default()
    });
    let key = d.register(small_dag());
    let sub = d.submitter();

    let batch: Vec<Request> = (0..6)
        .map(|i| Request::new(key, vec![i as f32, 1.0]))
        .collect();
    let err = sub
        .submit_all(batch, SubmitOptions::default())
        .expect_err("batch exceeds capacity");
    assert_eq!(err.accepted.len(), capacity);
    assert!(
        matches!(err.rejected, SubmitRejection::WouldBlock { .. }),
        "mid-batch rejection must be backpressure: {:?}",
        err.rejected
    );
    assert_eq!(err.rejected.request().inputs, vec![3.0, 1.0]);
    assert_eq!(err.rest.len(), 2, "tail never submitted");
    assert_eq!(err.rest[0].inputs, vec![4.0, 1.0]);
    assert!(err.to_string().contains("3 accepted"));

    // The accepted prefix is not lost to the failed batch.
    d.drain();
    for (i, t) in err.accepted.into_iter().enumerate() {
        let want = (i as f32 + 1.0) * (i as f32 + 1.0);
        assert_eq!(t.wait().unwrap().outputs, vec![want], "ticket {i}");
    }
    d.shutdown();
}

/// A deadline already in the past is rejected at the submission edge —
/// typed, with the request handed back, and counted.
#[test]
fn stale_deadline_is_rejected_at_the_edge() {
    let d = dispatcher(DispatchOptions {
        shards: 1,
        ..Default::default()
    });
    let key = d.register(small_dag());
    let sub = d.submitter();
    let err = sub
        .submit_with(
            Request::new(key, vec![1.0, 2.0]),
            SubmitOptions::default().deadline(Instant::now() - Duration::from_millis(5)),
        )
        .expect_err("deadline already past");
    assert!(matches!(err, SubmitRejection::DeadlineAlreadyPast { .. }));
    assert_eq!(err.into_request().inputs, vec![1.0, 2.0]);
    let report = d.shutdown();
    assert_eq!(report.rejected_deadline_past, 1);
    assert_eq!(report.offered(), 1);
    assert_eq!(report.served, 0);
}

/// A request whose deadline expires while it queues is shed *before*
/// execution: its ticket resolves to a first-class `Outcome::Shed` (not
/// an error), the shed is counted apart from shutdown rejections, and
/// `served` excludes it.
#[test]
fn expired_deadline_sheds_with_first_class_outcome() {
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 1024,
        // The round holding the doomed request closes by timer after
        // 100 ms — long past its 5 ms deadline.
        max_wait: Duration::from_millis(100),
        ..Default::default()
    });
    let key = d.register(small_dag());
    let sub = d.submitter();

    let doomed = sub
        .submit_with(
            Request::new(key, vec![1.0, 1.0]),
            SubmitOptions::default()
                .deadline(Instant::now() + Duration::from_millis(5))
                .priority(Priority::Interactive),
        )
        .expect("accepted: the deadline is in the future");
    let (outcome, timeline) = doomed.wait_detailed();
    match outcome {
        Outcome::Shed { reason } => {
            assert!(
                matches!(
                    reason,
                    ShedReason::DeadlineExpired { .. } | ShedReason::DeadlineUnmeetable { .. }
                ),
                "unexpected reason {reason:?}"
            );
        }
        other => panic!("expected Shed, got {other:?}"),
    }
    assert!(timeline.deadline_ns > 0, "deadline propagated to timeline");
    assert!(
        timeline.completed_ns > timeline.deadline_ns,
        "shed implies the deadline lost"
    );

    let report = d.shutdown();
    assert_eq!(report.shed(), 1);
    assert_eq!(report.shed_unmeetable + report.shed_expired, 1);
    assert_eq!(report.rejected_queue_closed, 0, "shed is not a rejection");
    assert_eq!(report.served, 0, "shed work never executed");
    assert_eq!(report.submitted, 1, "but it was accepted");
    let interactive = report.class(Priority::Interactive);
    assert_eq!(interactive.offered, 1);
    assert_eq!(interactive.shed, 1);
}

/// Sustained interactive pressure must never starve batch work forever:
/// the aging floor promotes a waiting batch round to the interactive
/// rank, so it completes while the interactive stream is still running.
#[test]
fn batch_never_starves_under_sustained_interactive_load() {
    let d = Arc::new(dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 8,
        max_wait: Duration::from_micros(200),
        priority_aging: Duration::from_millis(10),
        ..Default::default()
    }));
    let key = d.register(small_dag());
    let sub = d.submitter();

    // Producer: a continuous interactive stream for ~300 ms.
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let sub = sub.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sent = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for i in 0..32 {
                    if sub
                        .submit_with(
                            Request::new(key, vec![i as f32, 1.0]),
                            SubmitOptions::default().priority(Priority::Interactive),
                        )
                        .is_err()
                    {
                        return sent;
                    }
                    sent += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            sent
        })
    };

    // Let the interactive stream establish itself, then ask for batch
    // work. It must complete *while the stream continues*, not after.
    std::thread::sleep(Duration::from_millis(30));
    let batch = sub
        .submit_with(
            Request::new(key, vec![3.0, 4.0]),
            SubmitOptions::default().priority(Priority::Batch),
        )
        .expect("accepted");
    let batch_result = batch
        .wait_timeout(Duration::from_secs(10))
        .expect("batch request starved under interactive load");
    assert_eq!(batch_result.unwrap().outputs, vec![49.0]);

    stop.store(true, Ordering::Relaxed);
    let sent = producer.join().unwrap();
    d.drain();
    let report = Arc::try_unwrap(d)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown();
    assert_eq!(report.class(Priority::Batch).completed, 1);
    assert_eq!(report.class(Priority::Interactive).completed, sent);
    assert_eq!(report.served, sent + 1, "loss-free under pressure");
}

/// Property: across interleavings of bounded admission, deadline churn,
/// a concurrent drain, and shutdown, no accepted ticket is ever silently
/// dropped — every `Ok` submit resolves to `Completed` or `Shed`, and the
/// ledger balances exactly: `offered == completed + shed + rejected`.
///
/// A drain waits for the in-flight count (the home shards' admission
/// depths) to reach zero, and a `WouldBlock` claims a depth slot before
/// giving it back. So a second drain starts once a producer has bounced,
/// while producers still bounce and shards still complete: if giving a
/// slot back could be the last decrement without waking the drain, the
/// drain would hang here.
///
/// The last round is a burst: rounds close only on a 50 ms timer or the
/// drain, so the 600 submissions overrun `queue_capacity` and bounce with
/// `WouldBlock`, and tight deadlines are shed. Overload must still
/// degrade, not collapse: with this seed each producer's sixth request is
/// an `Interactive` one without a deadline, and at least 16 are admitted
/// before the first bounce (at least 8 from one producer), so at least one
/// interactive request completes.
#[test]
fn no_accepted_ticket_is_ever_silently_dropped() {
    // Deterministic cheap PRNG so failures reproduce.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for round in 0..5u32 {
        let burst = round == 4;
        let d = Arc::new(dispatcher(DispatchOptions {
            shards: 2,
            max_batch: if burst { 64 } else { 8 },
            max_wait: if burst {
                Duration::from_millis(50)
            } else {
                Duration::from_micros(200)
            },
            work_stealing: round % 2 == 0,
            queue_capacity: Some(16),
            priority_aging: Duration::from_millis(5),
            ..Default::default()
        }));
        let key = d.register(small_dag());
        let bounced = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));

        // Two producers race submissions (mixed priorities, churning
        // deadlines, some already hopeless) against a concurrent drain;
        // shutdown then settles the ledger with sheds still resolving.
        let mut producers = Vec::new();
        for p in 0..2 {
            let sub = d.submitter();
            let bounced = Arc::clone(&bounced);
            let mut draw = {
                let seed = rng() | 1;
                let mut s = seed;
                move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                }
            };
            producers.push(std::thread::spawn(move || {
                let mut tickets: Vec<Ticket> = Vec::new();
                let mut accepted = 0u64;
                let mut rejected = 0u64;
                for i in 0..300u64 {
                    let priority = match draw() % 3 {
                        0 => Priority::Interactive,
                        1 => Priority::Standard,
                        _ => Priority::Batch,
                    };
                    let mut opts = SubmitOptions::default().priority(priority);
                    match draw() % 4 {
                        // Tight deadline: may be shed (or rejected as
                        // already-past if the producer falls behind).
                        0 => {
                            opts = opts
                                .deadline(Instant::now() + Duration::from_micros(draw() % 2_000));
                        }
                        // Comfortable deadline.
                        1 => {
                            opts = opts.deadline(Instant::now() + Duration::from_secs(30));
                        }
                        _ => {}
                    }
                    match sub.submit_with(
                        Request::new(key, vec![(p * 1000 + i as usize) as f32, 1.0]),
                        opts,
                    ) {
                        Ok(t) => {
                            tickets.push(t);
                            accepted += 1;
                        }
                        Err(SubmitRejection::WouldBlock { .. }) => {
                            bounced.store(true, Ordering::Relaxed);
                            rejected += 1;
                        }
                        Err(
                            SubmitRejection::DeadlineAlreadyPast { .. }
                            | SubmitRejection::QueueClosed { .. },
                        ) => rejected += 1,
                    }
                    if draw() % 32 == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                (tickets, accepted, rejected)
            }));
        }

        // A concurrent drain mid-stream: a barrier, not a shutdown. Then
        // another once a submit has bounced (or the producers are done).
        let drainer = {
            let d = Arc::clone(&d);
            let (bounced, finished) = (Arc::clone(&bounced), Arc::clone(&finished));
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                d.drain();
                while !bounced.load(Ordering::Relaxed) && !finished.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(100));
                }
                d.drain();
            })
        };

        let mut all_tickets = Vec::new();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for h in producers {
            let (tickets, a, r) = h.join().unwrap();
            all_tickets.extend(tickets);
            accepted += a;
            rejected += r;
        }
        finished.store(true, Ordering::Relaxed);
        drainer.join().unwrap();
        d.drain();
        assert_eq!(d.in_flight(), 0, "round {round}: drained, yet in flight");

        let report = Arc::try_unwrap(d)
            .unwrap_or_else(|_| panic!("sole owner"))
            .shutdown();

        // Every accepted ticket resolves — no hang, no silent drop.
        let mut completed = 0u64;
        let mut shed = 0u64;
        for (i, t) in all_tickets.into_iter().enumerate() {
            let outcome = t
                .wait_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("round {round}: ticket {i} never resolved"));
            match outcome {
                Outcome::Completed(_) => completed += 1,
                Outcome::Shed { .. } => shed += 1,
                Outcome::Failed(e) => panic!("round {round}: unexpected failure {e}"),
            }
        }

        // Client-side and dispatcher-side ledgers agree exactly.
        assert_eq!(report.submitted, accepted, "round {round}");
        assert_eq!(report.rejected(), rejected, "round {round}");
        assert_eq!(report.offered(), accepted + rejected, "round {round}");
        assert_eq!(
            completed + shed,
            accepted,
            "round {round}: a ticket vanished"
        );
        assert_eq!(report.shed(), shed, "round {round}");
        assert_eq!(report.served, completed, "round {round}");
        for p in [Priority::Interactive, Priority::Standard, Priority::Batch] {
            let c = report.class(p);
            assert_eq!(
                c.offered,
                c.completed + c.failed + c.shed + c.rejected,
                "round {round}: {p:?} ledger dishonest: {c:?}"
            );
        }
        if burst {
            assert!(report.rejected_would_block > 0, "the burst never bounced");
            assert!(
                report.class(Priority::Interactive).completed >= 1,
                "overload shed every interactive request"
            );
        }
    }
}

/// Regression: the `WouldBlock::retry_after` hint must be floored at the
/// dispatcher's round latency budget (`max_wait`) even when the queueing
/// EWMA is stone cold — a full queue physically cannot drain faster than
/// one round, so a near-zero hint would invite a busy-retry storm.
#[test]
fn cold_retry_after_is_floored_at_max_wait() {
    let max_wait = Duration::from_millis(200);
    let d = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 1024,
        // Rounds close only by the 200 ms timer, so nothing completes —
        // and no EWMA observation lands — before we probe the wall.
        max_wait,
        queue_capacity: Some(2),
        ..Default::default()
    });
    let key = d.register(small_dag());
    let sub = d.submitter();
    let accepted: Vec<Ticket> = (0..2)
        .map(|i| {
            sub.submit(Request::new(key, vec![i as f32, 1.0]))
                .expect("under capacity")
        })
        .collect();
    let err = sub
        .submit(Request::new(key, vec![9.0, 9.0]))
        .expect_err("queue is full");
    match &err {
        SubmitRejection::WouldBlock { retry_after, .. } => {
            assert!(
                *retry_after >= max_wait,
                "cold retry_after {retry_after:?} under the {max_wait:?} round budget"
            );
            assert!(*retry_after <= Duration::from_secs(1), "hint above clamp");
        }
        other => panic!("expected WouldBlock, got {other:?}"),
    }
    d.drain();
    for t in accepted {
        t.wait().unwrap();
    }
    d.shutdown();
}

/// Regression: a round stolen by a fast shard and shed there must charge
/// the shed — and release the admission depth slot — against the round's
/// *home* shard, whose backlog cost the job its deadline. Misattribution
/// leaks the home slot (the queue stays "full" forever) and underflows
/// the thief's.
///
/// Which shard sheds depends on the OS scheduler: usually the peer frees
/// first and steals the doomed round, but it can steal `busy_home` before
/// home's worker wakes, and home then sheds the doomed round itself. Both
/// are correct, so this test asserts only what holds in either order;
/// `sched.rs`'s `a_stolen_round_past_its_deadline_is_shed_against_its_home`
/// scripts each order step by step.
#[test]
fn stolen_round_shed_is_attributed_to_home_shard() {
    let dag = small_dag();
    let home = home_shard(dag_fingerprint(&dag), 2);
    // The home shard stalls 6× longer per round than its same-class peer:
    // home's jittered floor (150 ms) sits above the peer's ceiling (50 ms),
    // so the peer usually frees first and steals the doomed round off the
    // home backlog — after the round's deadline has already expired.
    let home_floor = Duration::from_millis(150);
    let d = dispatcher(DispatchOptions {
        max_batch: 1,
        work_stealing: true,
        queue_capacity: Some(2),
        chaos: Some(
            ChaosPlan::new(9)
                .stall_shard(home, 2 * home_floor)
                .stall_shard(1 - home, Duration::from_millis(50)),
        ),
        ..Default::default()
    });
    let key = d.register(dag);
    // A second family routed to the peer shard, to occupy it while the
    // doomed round's deadline burns down.
    let other_dag = {
        let mut b = DagBuilder::new();
        let mut dag;
        let mut salt = 0u32;
        loop {
            let x = b.input();
            let y = b.input();
            let s = b.node(Op::Add, &[x, y]).unwrap();
            let m = b.node(Op::Mul, &[s, s]).unwrap();
            for _ in 0..salt {
                b.node(Op::Add, &[m, m]).unwrap();
            }
            dag = b.finish().unwrap();
            if home_shard(dag_fingerprint(&dag), 2) != home {
                break dag;
            }
            salt += 1;
            b = DagBuilder::new();
        }
    };
    let other_key = d.register(other_dag);
    let sub = d.submitter();

    // Occupy both workers (each sleeps its own shard's delay), then
    // submit the doomed round against the home backlog.
    let busy_home = sub.submit(Request::new(key, vec![1.0, 1.0])).unwrap();
    let busy_other = sub.submit(Request::new(other_key, vec![1.0, 1.0])).unwrap();
    let doomed = sub
        .submit_with(
            Request::new(key, vec![2.0, 2.0]),
            SubmitOptions::default().deadline(Instant::now() + Duration::from_millis(20)),
        )
        .expect("accepted: deadline still in the future");

    // Whichever shard checks the doomed round out sheds it: the deadline
    // died at 20 ms, before either stall ends.
    match doomed.wait() {
        Outcome::Shed {
            reason: ShedReason::DeadlineExpired { .. },
        } => {}
        other => panic!("expected DeadlineExpired shed, got {other:?}"),
    }

    // The shed must have released the *home* depth slot: home offered 2
    // (busy + doomed) against capacity 2, so a third home submission is
    // admitted only if the shed came back to the home ledger.
    let probe = sub
        .submit(Request::new(key, vec![3.0, 3.0]))
        .expect("stolen shed must release the home shard's depth slot");

    d.drain();
    assert_eq!(busy_home.wait().unwrap().outputs, vec![4.0]);
    assert!(matches!(busy_other.wait(), Outcome::Completed(_)));
    assert_eq!(probe.wait().unwrap().outputs, vec![36.0]);

    let report = d.shutdown();
    assert_eq!(report.shed(), 1);
    assert_eq!(report.shed_expired, 1);
    assert_eq!(report.served, 3);
    assert!(
        report.shards[1 - home].stolen_rounds >= 1,
        "the peer never stole: {:?}",
        report.shards
    );
    let c = report.class(Priority::Standard);
    assert_eq!(c.offered, c.completed + c.failed + c.shed + c.rejected);
}
