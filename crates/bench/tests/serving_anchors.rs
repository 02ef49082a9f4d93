//! Serving anchors: the modelled numbers of the serving stack, pinned.
//!
//! One 600-request stream over three families (a probabilistic circuit, an
//! SpTRSV and an SpMV DAG) is served on DPU-v2 (L) four ways: a 4-shard
//! dispatcher with rounds closed by size or flush only, a 2-shard one whose
//! served traffic is then priced on the CPU and GPU models, fixed
//! 32-request rounds through `Engine::execute_round`, and a cold →
//! restarted → pre-warmed engine over one spill directory. Routing, round composition, the
//! program cache and the modelled clock are then pure functions of the
//! stream, so every number below is exact: floats are compared with
//! `assert_eq!`, never a tolerance. A deliberate model change updates the
//! literals here and DESIGN.md §3 together. Host time is perfbench's.
//!
//! Every reply of every phase is checked byte-identical to one
//! `serve_serial` pass.

use std::sync::OnceLock;
use std::time::Duration;

use dpu_core::energy::calib::FREQ_HZ;
use dpu_core::prelude::*;
use dpu_core::runtime::dag_fingerprint;
use dpu_core::sim::Machine;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_core::workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_core::workloads::sptrsv::SptrsvDag;
use dpu_core::workloads::traffic::{
    open_loop_schedule, ArrivalPattern, PriorityMix, TrafficParams,
};

const REQUESTS: usize = 600;
const FAMILIES: usize = 3;

/// The stream, its DAGs and the serial reference replies, built once and
/// shared by every phase.
struct Fixture {
    dags: Vec<Dag>,
    requests: Vec<Request>,
    reference: Vec<RunResult>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let pc = generate_pc(&PcParams::with_targets(1_800, 13), 51);
        let l =
            generate_lower_triangular(&LowerTriangularParams::for_target_path(120, 2.0, 20), 52);
        let trsv = SptrsvDag::build(&l);
        let a = generate_lower_triangular(
            &LowerTriangularParams {
                dim: 150,
                avg_nnz_per_row: 4.0,
                band_fraction: 0.7,
                band: 10,
            },
            53,
        );
        let spmv = SpmvDag::build(&a);
        let inputs = |family: usize, i: usize| match family {
            0 => pc_inputs(&pc, i as u64),
            1 => {
                let b: Vec<f32> = (0..l.dim)
                    .map(|j| 1.0 + 0.5 * (((i + j) as f32) * 0.37).sin())
                    .collect();
                trsv.inputs(&l, &b)
            }
            _ => {
                let x: Vec<f32> = (0..a.dim)
                    .map(|j| 0.5 + 0.3 * (((2 * i + j) as f32) * 0.23).cos())
                    .collect();
                spmv.inputs(&a, &x)
            }
        };
        let dags = vec![pc.clone(), trsv.dag.clone(), spmv.dag.clone()];
        // Only the schedule's family order and sequence numbers are used;
        // every phase submits as fast as it can.
        let schedule = open_loop_schedule(&TrafficParams {
            requests: REQUESTS,
            rate_per_sec: 3_000.0,
            pattern: ArrivalPattern::Poisson,
            families: FAMILIES,
            skew: 0.0,
            seed: 61,
            priorities: PriorityMix::default(),
        });
        let serial = Dpu::large().engine(EngineOptions::default());
        let keys: Vec<DagKey> = dags.iter().map(|d| serial.register(d.clone())).collect();
        let requests: Vec<Request> = schedule
            .iter()
            .map(|a| Request::new(keys[a.family], inputs(a.family, a.seq)))
            .collect();
        let reference = serial
            .serve_serial(&requests)
            .expect("serial reference succeeds")
            .results;
        Fixture {
            dags,
            requests,
            reference,
        }
    })
}

fn assert_identical(got: &RunResult, want: &RunResult, ctx: &str) {
    let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "{ctx}: outputs differ");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles differ");
}

/// Rounds close by size or flush only (`max_wait` never fires) and nothing
/// is stolen, so each shard's rounds are a pure function of the stream.
fn deterministic(shards: usize) -> DispatchOptions {
    DispatchOptions {
        shards,
        max_batch: 32,
        max_wait: Duration::from_secs(3600),
        work_stealing: false,
        ..Default::default()
    }
}

/// Submits the whole stream, drains, checks every reply against the serial
/// pass and returns the report.
fn serve_checked(d: Dispatcher, phase: &str) -> DispatchReport {
    let f = fixture();
    for dag in &f.dags {
        d.register(dag.clone());
    }
    let submitter = d.submitter();
    let tickets: Vec<Ticket> = f
        .requests
        .iter()
        .map(|r| submitter.submit(r.clone()).expect("accepted"))
        .collect();
    d.drain();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("request succeeds");
        assert_identical(&got, &f.reference[i], &format!("{phase} request {i}"));
    }
    let report = d.shutdown();
    assert_eq!(report.served, REQUESTS as u64, "{phase}: loss-free drain");
    report
}

#[test]
fn four_shard_dispatch_pins_gops_latency_and_routing() {
    let dpu = Dpu::large();
    let report = serve_checked(dpu.dispatcher(deterministic(4)), "4-shard");

    assert_eq!(report.gops(FREQ_HZ), 40.66166950596252);
    assert_eq!(report.modelled_cycles(), 7_044);
    assert_eq!(report.total_dag_ops(), 954_736);
    let cache = report.cache_totals();
    assert_eq!(cache.misses, 3, "one compile per family");
    assert_eq!(cache.hit_rate(), 0.995);
    let service = &report.latency.service_cycles;
    assert_eq!(service.count(), REQUESTS as u64);
    assert_eq!(
        (service.p50(), service.p99(), service.max()),
        (99, 178, 178)
    );
    let per_shard: Vec<(u64, u64, u64)> = report
        .shards
        .iter()
        .map(|s| (s.requests, s.rounds, s.modelled_cycles))
        .collect();
    assert_eq!(
        per_shard,
        [(406, 13, 7_044), (0, 0, 0), (194, 7, 2_475), (0, 0, 0)]
    );

    // The multiset of per-request modelled cycles does not depend on the
    // layout, and the histogram merge is order-independent: two shards
    // merge to the same bytes as four.
    let two = serve_checked(dpu.dispatcher(deterministic(2)), "2-shard");
    assert_eq!(
        two.latency.service_cycles.to_bytes(),
        service.to_bytes(),
        "merged service-cycle histograms differ between 2 and 4 shards"
    );
}

/// The DPU-v2 row is a 2-shard run's own; the CPU and GPU rows price the
/// same served traffic — each family's DAG times its completions — on the
/// analytic models, which is what shadowing every request on a baseline
/// shard used to measure.
#[test]
fn mirrored_cpu_and_gpu_shards_pin_per_platform_gops() {
    let f = fixture();
    let report = serve_checked(Dpu::large().dispatcher(deterministic(2)), "2-shard");
    let served: Vec<(&Dag, u64)> = f
        .dags
        .iter()
        .map(|dag| {
            let key = dag_fingerprint(dag);
            let count = f.requests.iter().filter(|r| r.dag == key).count();
            (dag, count as u64)
        })
        .collect();
    let mut rows: Vec<(&str, u64, u64, f64)> = vec![(
        "dpu_v2",
        report.modelled_cycles(),
        report.total_dag_ops(),
        report.gops(FREQ_HZ),
    )];
    for name in ["cpu", "gpu"] {
        let model = BaselineModel::by_name(name).expect("known platform");
        let p = PlatformSummary::modelled(&model, &served, FREQ_HZ);
        rows.push((p.platform, p.modelled_cycles, p.dag_ops, p.gops(FREQ_HZ)));
    }
    assert_eq!(
        rows,
        [
            ("dpu_v2", 9_691, 954_736, 29.55534000619131),
            ("cpu", 484_212, 954_736, 0.5915194171148175),
            ("gpu", 4_542_258, 954_736, 0.06305692014852525),
        ]
    );
}

#[test]
fn fixed_rounds_share_one_decoded_program_per_family() {
    let f = fixture();
    let dpu = Dpu::large();
    let engine = dpu.engine(EngineOptions::default());
    for dag in &f.dags {
        engine.register(dag.clone());
    }
    let mut machine = Machine::new(dpu.config);
    let (mut rounds, mut groups) = (0usize, 0usize);
    for (n, chunk) in f.requests.chunks(32).enumerate() {
        let mut programs: Vec<DagKey> = Vec::new();
        for r in chunk {
            if !programs.contains(&r.dag) {
                programs.push(r.dag);
            }
        }
        rounds += 1;
        groups += programs.len();
        let refs: Vec<&Request> = chunk.iter().collect();
        for (j, outcome) in engine.execute_round(&mut machine, &refs).iter().enumerate() {
            let i = n * 32 + j;
            let got = outcome.as_ref().expect("request succeeds");
            assert_identical(got, &f.reference[i], &format!("round request {i}"));
        }
    }
    assert_eq!(rounds, 19);
    assert_eq!(REQUESTS as f64 / groups as f64, 10.526315789473685);
    assert_eq!(engine.cache_stats().decode_count, FAMILIES as u64);
}

#[test]
fn restart_and_prewarm_over_a_spill_dir_compile_nothing() {
    let f = fixture();
    let dir = std::env::temp_dir().join(format!("dpu-serving-anchors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dpu = Dpu::large();
    let engine = || {
        dpu.engine(EngineOptions {
            spill_dir: Some(dir.clone()),
            ..Default::default()
        })
    };
    let serve = |engine: &Engine, phase: &str| {
        for dag in &f.dags {
            engine.register(dag.clone());
        }
        let report = engine.serve(&f.requests);
        assert!(report.failures.is_empty(), "{phase}: failures");
        for (i, r) in report.results.iter().enumerate() {
            assert_identical(r, &f.reference[i], &format!("{phase} request {i}"));
        }
        engine.cache_stats()
    };

    let cold = serve(&engine(), "cold");
    assert_eq!((cold.misses, cold.spill_writes), (3, 3));

    let warm = serve(&engine(), "warm restart");
    assert_eq!(
        (warm.misses, warm.spill_hits, warm.spill_rejects),
        (0, 3, 0)
    );
    assert_eq!(warm.hit_rate(), 1.0);

    let peer = engine();
    assert_eq!(peer.prewarm(), 3, "pre-warm loads every spilled program");
    let peer = serve(&peer, "pre-warmed peer");
    assert_eq!(peer.misses, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
