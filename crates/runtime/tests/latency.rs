//! Closed-loop latency accounting tests: histogram properties (quantile
//! error bound, merge determinism, edge cases) and the dispatcher-level
//! guarantees built on them — `max_wait` actually bounds the reported
//! batching delay, and the merged deterministic histogram is
//! byte-identical across shard counts.

use std::time::Duration;

use dpu_compiler::CompileOptions;
use dpu_dag::{Dag, DagBuilder, Op};
use dpu_isa::ArchConfig;
use dpu_runtime::{
    engine_shards, DispatchOptions, DispatchReport, Dispatcher, Engine, EngineOptions,
    LatencyHistogram, LatencyReport, Request, Ticket,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Histogram properties
// ---------------------------------------------------------------------

/// Nearest-rank quantile of a sorted slice.
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

/// A value set mixing magnitudes: exact-region values, mid-range, and
/// full-range u64s (exercising the saturating top bucket).
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((any::<u64>(), 0u32..64), 1..300)
        .prop_map(|pairs| pairs.into_iter().map(|(raw, shift)| raw >> shift).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantile_error_is_within_the_bucket_bound(values in arb_values(), qs in proptest::collection::vec(0.0f64..=1.0, 1..8)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in qs {
            let truth = true_quantile(&sorted, q);
            let got = h.value_at_quantile(q);
            // The reported value is the bucket's upper bound (clipped to
            // the exact max), so it never under-reports the recorded
            // value at that rank and over-reports by at most the bucket's
            // relative width.
            prop_assert!(got >= truth, "q={q}: got {got} < truth {truth}");
            let slack = truth as f64 * LatencyHistogram::RELATIVE_ERROR;
            prop_assert!(
                (got - truth) as f64 <= slack,
                "q={q}: got {got}, truth {truth}, slack {slack}"
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
    }

    #[test]
    fn merge_is_associative_commutative_and_order_independent(
        values in arb_values(),
        shard_of in proptest::collection::vec(0usize..4, 1..300),
    ) {
        // Partition the values across 4 "shards", then combine the shard
        // histograms in several different orders: every fold must be
        // bit-identical to recording the whole multiset directly.
        let mut direct = LatencyHistogram::new();
        let mut shards = vec![LatencyHistogram::new(); 4];
        for (i, &v) in values.iter().enumerate() {
            direct.record(v);
            shards[shard_of[i % shard_of.len()]].record(v);
        }
        let fold = |order: &[usize]| {
            let mut acc = LatencyHistogram::new();
            for &s in order {
                acc.merge(&shards[s]);
            }
            acc
        };
        let forward = fold(&[0, 1, 2, 3]);
        let reverse = fold(&[3, 2, 1, 0]);
        let shuffled = fold(&[2, 0, 3, 1]);
        // Tree-shaped merge: (0+1) + (2+3).
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        let mut right = shards[2].clone();
        right.merge(&shards[3]);
        let mut tree = left;
        tree.merge(&right);
        for h in [&forward, &reverse, &shuffled, &tree] {
            prop_assert_eq!(h, &direct);
            prop_assert_eq!(h.to_bytes(), direct.to_bytes());
        }
    }
}

#[test]
fn empty_one_sample_and_saturating_max_edge_cases() {
    let empty = LatencyHistogram::new();
    assert!(empty.is_empty());
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.min(), 0);
    assert_eq!(empty.max(), 0);
    assert_eq!(empty.mean(), 0.0);
    assert_eq!(empty.value_at_quantile(0.5), 0);
    assert_eq!(empty.to_bytes(), LatencyHistogram::new().to_bytes());

    let mut one = LatencyHistogram::new();
    one.record(12_345);
    for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
        assert_eq!(one.value_at_quantile(q), 12_345, "q={q}");
    }
    assert_eq!(one.min(), 12_345);
    assert_eq!(one.max(), 12_345);
    assert_eq!(one.mean(), 12_345.0);

    // The top bucket holds u64::MAX without wrapping, and the exact max
    // clips the bucket's upper bound.
    let mut top = LatencyHistogram::new();
    top.record(u64::MAX);
    top.record(u64::MAX - 1);
    top.record(0);
    assert_eq!(top.max(), u64::MAX);
    assert_eq!(top.value_at_quantile(1.0), u64::MAX);
    assert_eq!(top.value_at_quantile(0.01), 0);
    // Merging an empty histogram is the identity.
    let before = top.to_bytes();
    top.merge(&LatencyHistogram::new());
    assert_eq!(top.to_bytes(), before);
}

// ---------------------------------------------------------------------
// Dispatcher-level guarantees
// ---------------------------------------------------------------------

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

fn small_dags() -> Vec<Dag> {
    (1..=3usize)
        .map(|extra| {
            let mut b = DagBuilder::new();
            let x = b.input();
            let y = b.input();
            let mut acc = b.node(Op::Add, &[x, y]).unwrap();
            for _ in 0..extra * 3 {
                acc = b.node(Op::Mul, &[acc, y]).unwrap();
            }
            b.finish().unwrap()
        })
        .collect()
}

fn engines(n: usize) -> Vec<Engine> {
    (0..n)
        .map(|_| {
            Engine::new(
                arch(),
                CompileOptions::default(),
                EngineOptions {
                    workers: 1,
                    cores: 4,
                    ..Default::default()
                },
            )
        })
        .collect()
}

/// Runs the 200-request deterministic stream (stealing off, effectively
/// infinite latency budget, rounds close by size or flush) on the given
/// shard layout and returns the shutdown report.
fn deterministic_run(shards: usize) -> DispatchReport {
    let dispatcher = Dispatcher::new(
        engines(shards),
        DispatchOptions {
            max_batch: 16,
            max_wait: Duration::from_secs(3600),
            work_stealing: false,
            ..Default::default()
        },
    );
    let keys: Vec<_> = small_dags()
        .into_iter()
        .map(|d| dispatcher.register(d))
        .collect();
    let submitter = dispatcher.submitter();
    let tickets: Vec<Ticket> = (0..200)
        .map(|i| {
            let k = keys[i % keys.len()];
            submitter
                .submit(Request::new(k, vec![i as f32, 2.0]))
                .expect("accepted")
        })
        .collect();
    dispatcher.drain();
    for t in tickets {
        let (result, timeline) = t.wait_detailed();
        let run = result.expect("request succeeds");
        // The ticket's timeline is complete, ordered, and carries the
        // modelled service cycles of the actual execution.
        assert_eq!(timeline.service_cycles, run.cycles);
        assert!(timeline.arrival_ns <= timeline.accepted_ns);
        assert!(timeline.accepted_ns <= timeline.round_closed_ns);
        assert!(timeline.round_closed_ns <= timeline.execute_start_ns);
        assert!(timeline.execute_start_ns <= timeline.completed_ns);
    }
    dispatcher.shutdown()
}

#[test]
fn merged_histograms_are_byte_identical_across_shard_counts() {
    let two = deterministic_run(2);
    let four = deterministic_run(4);
    assert_eq!(two.latency.service_cycles.count(), 200);
    assert_eq!(
        two.latency.service_cycles.to_bytes(),
        four.latency.service_cycles.to_bytes(),
        "modelled service-time histogram must not depend on sharding"
    );
    // The report's merged latency is exactly the fold of the per-shard
    // reports (merge is order-independent, so fold order is free).
    let mut refold = LatencyReport::default();
    for s in &four.shards {
        refold.merge(&s.latency);
    }
    assert_eq!(refold, four.latency);
}

#[test]
fn max_wait_bounds_reported_batching_delay() {
    // One trickle request: its round can only close by the max_wait
    // timer, so the reported batching delay must sit near the budget —
    // at least most of it (the stamp is real, not zero) and at most the
    // budget plus generous poll slack. The dispatcher idles ~1 s before
    // the submit: accounting that measured from the epoch (construction)
    // instead of from acceptance would report ≳1 s and fail the bound.
    let max_wait = Duration::from_millis(100);
    let dispatcher = dispatcher(DispatchOptions {
        shards: 1,
        max_batch: 64,
        max_wait,
        work_stealing: false,
        ..Default::default()
    });
    let key = dispatcher.register(small_dags().remove(0));
    std::thread::sleep(Duration::from_millis(1_000)); // idle gap trap
    let submitter = dispatcher.submitter();
    let ticket = submitter
        .submit(Request::new(key, vec![1.0, 2.0]))
        .expect("accepted");
    // Bounded wait + timeline in one call — the SLO-enforcement shape.
    let (result, timeline) = ticket
        .wait_timeout_detailed(Duration::from_secs(60))
        .expect("completes well within the bound");
    result.expect("request succeeds");
    let batching = Duration::from_nanos(timeline.batching_delay_ns());
    assert!(
        batching >= max_wait / 2,
        "round closed before the timer could have fired: {batching:?}"
    );
    let slack = Duration::from_millis(400);
    assert!(
        batching <= max_wait + slack,
        "batching delay {batching:?} exceeds max_wait {max_wait:?} + slack {slack:?}"
    );
    let report = dispatcher.shutdown();
    assert_eq!(report.rounds_closed_timer, 1, "the timer closed the round");
    assert_eq!(report.latency.batching_ns.count(), 1);
    assert!(report.latency.batching_ns.max() <= (max_wait + slack).as_nanos() as u64);
}
