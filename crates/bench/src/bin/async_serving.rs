//! Async sharded serving benchmark — the continuous-ingestion counterpart
//! of `serving_throughput`, and the source of CI's `BENCH_serving.json`.
//!
//! Seven phases over the same 600-request, 3-family mixed stream:
//!
//! 1. **Gated phase** (deterministic): a 4-shard dispatcher with work
//!    stealing off and an effectively infinite latency budget serves the
//!    whole stream (submit → drain). Round composition, routing, cache
//!    behavior and the modelled clock are then pure functions of the
//!    stream, so `simulated_gops`, `cache_hit_rate`, `shard_balance` and
//!    the per-request **modelled service-time histogram**
//!    (`latency.deterministic`, in simulated cycles) are bit-stable
//!    across machines. The same stream is re-served on a 2-shard layout
//!    and the merged per-shard histograms are asserted *byte-identical*
//!    (`merge_invariant`) — the histogram merge is order-independent, so
//!    sharding cannot change the distribution. Of these, `bench_gate`
//!    compares `simulated_gops`, the cache miss rate, and
//!    `latency.deterministic.p50`/`p99` against `bench/baseline.json`;
//!    the rest are recorded for trajectory. (Fields prefixed `host_` —
//!    including `latency.deterministic.host_mean_queueing_delay_us` —
//!    are wall-clock observability riders and machine-dependent.)
//! 2. **Multi-backend comparison** (deterministic, gated): a 2-primary
//!    DPU-v2 dispatcher mirrored by one analytic baseline shard per
//!    `--baseline <platform>` flag (default `cpu,gpu`; also `dpu_v1`,
//!    `spu`) serves the stream once more. Tickets stay on the DPU shards
//!    (verified byte-identical to serial); the mirrors shadow every
//!    request, and the report's `baseline_compare` section carries live
//!    per-platform throughput/GOPS/EDP — the paper's §V-C comparison at
//!    serving time. Throughputs are pure functions of the stream and the
//!    platform models, so `bench_gate` ratchets them.
//! 3. **Open-loop phase** (observability): a 2-shard dispatcher with
//!    stealing on replays uniform, Poisson and bursty arrival schedules
//!    (with Zipf family skew) through `Submitter::submit_at`, so each
//!    request's timeline is charged from its *scheduled* arrival. Per
//!    pattern the report carries host-side response-time quantiles
//!    (p50/p99/p999 end-to-end, queueing/batching/service breakdowns)
//!    plus steal/close statistics. Timing-dependent, therefore the
//!    host-time numbers are recorded, not gated.
//! 4. **Decoded execution** (gated): one compiled program decoded once
//!    into its flat micro-op form and run over 200 input sets on one
//!    reused machine, every result asserted byte-identical to the oracle
//!    interpreter's. The gated stream is then re-served in fixed-size
//!    rounds through `Engine::execute_round`, which groups each round by
//!    program so one decoded form serves every request of a family —
//!    outputs byte-identical to the serial reference, the grouping ratio
//!    (jobs per program group, a pure function of the stream) gated, and
//!    the repeat-program throughput recorded. (Executor *speed* is
//!    `perfbench`'s `sim.run_decoded_ns_per_cycle`, not measured here.)
//! 5. **Cache persistence** (deterministic, gated): a cold engine over an
//!    empty spill directory serves the stream (compiling and spilling
//!    each family once), then a **restarted** engine over the same
//!    directory serves it again — the `cache_persist` section records the
//!    warm-restart hit rate (gated at 1.0: a restart must never compile)
//!    and the peer pre-warm count (`Engine::prewarm` loading every
//!    program before traffic). Warm results are verified byte-identical
//!    to the cold ones and to the serial reference.
//! 6. **Graceful degradation** (gated): a priority-annotated stream at
//!    2× the saturation rate hits a dispatcher with bounded admission
//!    (`queue_capacity`) and 40 ms deadlines on `Interactive` traffic.
//!    The `graceful_degradation` section reports per-class accepted /
//!    completed / shed / rejected counts — `bench_gate` recomputes
//!    `offered == completed + failed + shed + rejected` exactly,
//!    requires interactive p99 within its budget, and ratchets the
//!    interactive goodput ratio. Overload must degrade honestly, never
//!    silently.
//! 7. **Chaos recovery** (gated): the gated stream replays open-loop at
//!    2× saturation against four shards while a scripted
//!    `ChaosPlan` kills one shard after its second round and stalls a
//!    second one every round, with hedging covering the straggler.
//!    Recovery must be loss-free: the `chaos` section's
//!    `lost_tickets`/`failed` must be zero, `recovered ≥ 1` (the dead
//!    shard's rounds provably moved through the lease-slot/requeue path),
//!    every completion is verified byte-identical to the serial
//!    reference, and `bench_gate` re-checks the invariants and the
//!    per-class ledger.
//!
//! Every serving phase's outputs are verified byte-identical against a
//! serial reference pass. Run with
//! `cargo run --release -p dpu-bench --bin async_serving --
//! [--json <path>] [--baseline <cpu|gpu|dpu_v1|spu>]...
//! [--spill <dir>]`.

use std::time::{Duration, Instant};

use dpu_bench::report::{emit, json_path_flag, latency_row, Json};
use dpu_core::prelude::*;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_core::workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_core::workloads::sptrsv::SptrsvDag;
use dpu_core::workloads::traffic::{
    open_loop_schedule, ArrivalPattern, PriorityClass, PriorityMix, TrafficParams,
};
use dpu_core::{energy, runtime, sim};

const REQUESTS: usize = 600;
const GATED_SHARDS: usize = 4;

struct Family {
    name: &'static str,
    dag: Dag,
    inputs: Box<dyn Fn(usize) -> Vec<f32>>,
}

fn families() -> Vec<Family> {
    let mut out = Vec::new();
    let pc = generate_pc(&PcParams::with_targets(1_800, 13), 51);
    {
        let d = pc.clone();
        out.push(Family {
            name: "pc",
            dag: pc,
            inputs: Box::new(move |i| pc_inputs(&d, i as u64)),
        });
    }
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(120, 2.0, 20), 52);
    let trsv = SptrsvDag::build(&l);
    {
        let dag = trsv.dag.clone();
        out.push(Family {
            name: "sptrsv",
            dag,
            inputs: Box::new(move |i| {
                let b: Vec<f32> = (0..l.dim)
                    .map(|j| 1.0 + 0.5 * (((i + j) as f32) * 0.37).sin())
                    .collect();
                trsv.inputs(&l, &b)
            }),
        });
    }
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
    {
        let dag = spmv.dag.clone();
        out.push(Family {
            name: "sparse",
            dag,
            inputs: Box::new(move |i| {
                let x: Vec<f32> = (0..a.dim)
                    .map(|j| 0.5 + 0.3 * (((2 * i + j) as f32) * 0.23).cos())
                    .collect();
                spmv.inputs(&a, &x)
            }),
        });
    }
    out
}

/// Asserts `got` is bit-identical to `want` (outputs and cycles).
fn assert_identical(got: &RunResult, want: &RunResult, ctx: &str) {
    let got_bits: Vec<u32> = got.outputs.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u32> = want.outputs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "{ctx}: outputs differ");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles differ");
}

/// Extracts every `--baseline <p>` / `--baseline=<p>` flag (values may be
/// comma-separated). Defaults to `cpu,gpu` so `BENCH_serving.json` always
/// carries the comparison section CI gates.
fn baseline_flags() -> Vec<BaselineModel> {
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = if arg == "--baseline" {
            Some(args.next().expect("usage: --baseline <platform>"))
        } else {
            arg.strip_prefix("--baseline=").map(str::to_string)
        };
        if let Some(v) = value {
            names.extend(v.split(',').map(|s| s.trim().to_string()));
        }
    }
    if names.is_empty() {
        names = vec!["cpu".into(), "gpu".into()];
    }
    names
        .iter()
        .map(|n| {
            BaselineModel::by_name(n)
                .unwrap_or_else(|| panic!("unknown baseline `{n}` (cpu|gpu|dpu_v1|spu)"))
        })
        .collect()
}

/// `--spill <dir>` / `--spill=<dir>`: where the persistence phase keeps
/// its spill files (CI uploads this directory as an artifact). Defaults
/// to a per-process temp-dir location (unique so concurrent invocations
/// never clobber one another mid-phase).
///
/// The cold phase needs a cold start, so existing **spill files** in the
/// directory are removed — only `*.dpuc` and leftover spill temp files,
/// never the directory tree: an operator pointing `--spill` at a real
/// (or mistyped) path must not lose unrelated data to a benchmark.
fn spill_flag() -> std::path::PathBuf {
    let mut args = std::env::args().skip(1);
    let mut dir = None;
    while let Some(arg) = args.next() {
        if arg == "--spill" {
            dir = Some(args.next().expect("usage: --spill <dir>"));
        } else if let Some(v) = arg.strip_prefix("--spill=") {
            dir = Some(v.to_string());
        }
    }
    let dir = dir.map_or_else(
        || std::env::temp_dir().join(format!("dpu_async_serving_spill_{}", std::process::id())),
        std::path::PathBuf::from,
    );
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.extension().and_then(|e| e.to_str()) == Some("dpuc")
                || name.starts_with(".tmp-")
            {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    dir
}

#[allow(clippy::too_many_lines)]
fn main() {
    let json_path = json_path_flag();
    let dpu = Dpu::large();
    let freq = energy::calib::FREQ_HZ;
    let fams = families();

    // One schedule drives every phase: uniform family mix, Poisson times.
    let schedule = open_loop_schedule(&TrafficParams {
        requests: REQUESTS,
        rate_per_sec: 3_000.0,
        pattern: ArrivalPattern::Poisson,
        families: fams.len(),
        skew: 0.0,
        seed: 61,
        priorities: PriorityMix::default(),
    });
    let build_request = |engine_keys: &[DagKey], i: usize| {
        let a = &schedule[i];
        Request::new(engine_keys[a.family], (fams[a.family].inputs)(a.seq))
    };

    // Serial reference pass: one engine, one machine, arrival order.
    let ref_engine = dpu.engine(EngineOptions::default());
    let ref_keys: Vec<DagKey> = fams
        .iter()
        .map(|f| ref_engine.register(f.dag.clone()))
        .collect();
    let ref_stream: Vec<Request> = (0..REQUESTS).map(|i| build_request(&ref_keys, i)).collect();
    let reference = ref_engine
        .serve_serial(&ref_stream)
        .expect("serial reference succeeds");

    // Phase 1: deterministic gated run on GATED_SHARDS replica shards.
    let gated = dpu.dispatcher(DispatchOptions {
        shards: GATED_SHARDS,
        max_batch: 32,
        max_wait: Duration::from_secs(3600), // never: rounds close by size/flush
        work_stealing: false,                // keep routing deterministic
        ..Default::default()
    });
    let keys: Vec<DagKey> = fams.iter().map(|f| gated.register(f.dag.clone())).collect();
    let submitter = gated.submitter();
    let gated_host = Instant::now();
    let tickets: Vec<Ticket> = (0..REQUESTS)
        .map(|i| submitter.submit(build_request(&keys, i)).expect("accepted"))
        .collect();
    gated.drain();
    let gated_host_seconds = gated_host.elapsed().as_secs_f64();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("request succeeds");
        assert_identical(&got, &reference.results[i], &format!("gated request {i}"));
    }
    let gated_report = gated.shutdown();
    assert_eq!(gated_report.served, REQUESTS as u64, "loss-free drain");
    let gated_cache = gated_report.cache_totals();
    assert_eq!(
        gated_report.latency.service_cycles.count(),
        REQUESTS as u64,
        "every served request recorded a modelled service time"
    );

    // Merge invariant: the same stream on a 2-shard layout must merge to
    // a byte-identical modelled service-time histogram — the multiset of
    // per-request cycles is a pure function of the stream, and the
    // histogram merge is associative and order-independent, so shard
    // count cannot perturb the gated latency distribution.
    let two_shard = dpu.dispatcher(DispatchOptions {
        shards: 2,
        max_batch: 32,
        max_wait: Duration::from_secs(3600),
        work_stealing: false,
        ..Default::default()
    });
    let keys: Vec<DagKey> = fams
        .iter()
        .map(|f| two_shard.register(f.dag.clone()))
        .collect();
    let submitter = two_shard.submitter();
    let two_tickets: Vec<Ticket> = (0..REQUESTS)
        .map(|i| submitter.submit(build_request(&keys, i)).expect("accepted"))
        .collect();
    two_shard.drain();
    drop(two_tickets);
    let two_shard_report = two_shard.shutdown();
    assert_eq!(
        gated_report.latency.service_cycles.to_bytes(),
        two_shard_report.latency.service_cycles.to_bytes(),
        "merged per-shard latency histograms must be byte-identical \
         across 2-shard and 4-shard runs"
    );
    let merge_invariant = true;

    // Phase 2: multi-backend comparison. Two DPU-v2 primaries serve the
    // stream (tickets, verified below) while one mirror shard per
    // requested baseline platform shadows every request — live per-
    // platform throughput from one dispatcher run. Stealing off and an
    // infinite latency budget keep per-shard round composition, and
    // therefore every platform's modelled makespan, a pure function of
    // the stream.
    let baselines = baseline_flags();
    let mirror = dpu.mirrored_dispatcher(
        DispatchOptions {
            shards: 2,
            max_batch: 32,
            max_wait: Duration::from_secs(3600),
            work_stealing: false,
            ..Default::default()
        },
        &baselines,
    );
    let keys: Vec<DagKey> = fams
        .iter()
        .map(|f| mirror.register(f.dag.clone()))
        .collect();
    let submitter = mirror.submitter();
    let mirror_tickets: Vec<Ticket> = (0..REQUESTS)
        .map(|i| submitter.submit(build_request(&keys, i)).expect("accepted"))
        .collect();
    mirror.drain();
    for (i, t) in mirror_tickets.into_iter().enumerate() {
        let got = t.wait().expect("request succeeds");
        assert_identical(
            &got,
            &reference.results[i],
            &format!("mirrored request {i}"),
        );
    }
    let mirror_report = mirror.shutdown();
    assert_eq!(mirror_report.served, REQUESTS as u64, "loss-free drain");
    assert_eq!(
        mirror_report.mirrored,
        (REQUESTS * baselines.len()) as u64,
        "every baseline shadowed every request"
    );
    // The DPU has no flat power figure; derive its average from the
    // activity-based energy model over the (deterministic) reference
    // results, so the dpu_v2 row carries an EDP too.
    let dpu_power_w = {
        let total_pj: f64 = reference
            .results
            .iter()
            .map(|r| energy::energy_pj(&dpu.config, &r.activity, r.cycles))
            .sum();
        let total_s: f64 = reference.results.iter().map(|r| r.cycles).sum::<u64>() as f64 / freq;
        total_pj * 1e-12 / total_s.max(1e-30)
    };
    let baseline_compare = {
        let mut platforms = Json::obj();
        for mut p in mirror_report.platforms() {
            if p.platform == "dpu_v2" && p.power_w.is_none() {
                // Overlay the energy-model average as the per-device
                // power, so the DPU row carries an EDP too.
                p.power_w = Some(dpu_power_w);
            }
            let power_w = p.power_w;
            let gops = p.gops(freq);
            let edp = p.edp_pj_ns(freq);
            let mut row = Json::obj()
                .field("mirror", p.mirror)
                .field("shards", p.shards)
                .field("requests", p.requests)
                .field("dag_ops", p.dag_ops)
                .field("modelled_cycles", p.modelled_cycles)
                .field("throughput_gops", gops);
            row = match power_w {
                Some(w) => row.field("power_w", w),
                None => row.field("power_w", Json::Null),
            };
            row = match edp {
                Some(e) => row.field("edp_pj_ns", e),
                None => row.field("edp_pj_ns", Json::Null),
            };
            platforms = platforms.field(p.platform, row);
        }
        Json::obj()
            .field("requests", REQUESTS)
            .field(
                "primary_shards",
                mirror_report.shards.iter().filter(|s| !s.mirror).count(),
            )
            .field("mirrored", mirror_report.mirrored)
            .field("verified", true)
            .field("platforms", platforms)
    };

    let shard_arr = |r: &DispatchReport| {
        Json::Arr(
            r.shards
                .iter()
                .map(|s| {
                    Json::obj()
                        .field("requests", s.requests)
                        .field("rounds", s.rounds)
                        .field("stolen_rounds", s.stolen_rounds)
                        .field("modelled_cycles", s.modelled_cycles)
                })
                .collect(),
        )
    };

    // Phase 3: open-loop replays with stealing on, one per arrival
    // pattern × Zipf skew, each paced by its schedule and submitted with
    // `submit_at` so per-request latency is charged from the *scheduled*
    // arrival. Outputs verified against a serial pass per pattern.
    let open_patterns: [(ArrivalPattern, f64, u64); 3] = [
        (ArrivalPattern::Poisson, 0.0, 61),
        (ArrivalPattern::Uniform, 0.5, 62),
        (ArrivalPattern::Bursty { burst: 16 }, 0.8, 63),
    ];
    let mut open_loop_json = Json::obj();
    let mut open_latency_json = Json::obj();
    for (pattern, skew, seed) in open_patterns {
        let schedule = open_loop_schedule(&TrafficParams {
            requests: REQUESTS,
            rate_per_sec: 3_000.0,
            pattern,
            families: fams.len(),
            skew,
            seed,
            priorities: PriorityMix::default(),
        });
        let stream: Vec<Request> = schedule
            .iter()
            .map(|a| Request::new(ref_keys[a.family], (fams[a.family].inputs)(a.seq)))
            .collect();
        let pattern_ref = ref_engine
            .serve_serial(&stream)
            .expect("serial reference succeeds");
        let open = dpu.dispatcher(DispatchOptions {
            shards: 2,
            max_batch: 24,
            max_wait: Duration::from_micros(500),
            work_stealing: true,
            ..Default::default()
        });
        let keys: Vec<DagKey> = fams.iter().map(|f| open.register(f.dag.clone())).collect();
        let submitter = open.submitter();
        let replay_start = Instant::now();
        let mut open_tickets = Vec::with_capacity(REQUESTS);
        for arrival in &schedule {
            if let Some(wait) = arrival.at.checked_sub(replay_start.elapsed()) {
                std::thread::sleep(wait);
            }
            let request = Request::new(
                keys[arrival.family],
                (fams[arrival.family].inputs)(arrival.seq),
            );
            open_tickets.push(
                submitter
                    .submit_with(request, SubmitOptions::at(arrival.instant(replay_start)))
                    .expect("accepted"),
            );
        }
        open.drain();
        let open_host_seconds = replay_start.elapsed().as_secs_f64();
        for (i, t) in open_tickets.into_iter().enumerate() {
            let got = t.wait().expect("request succeeds");
            assert_identical(
                &got,
                &pattern_ref.results[i],
                &format!("open-loop {} request {i}", pattern.name()),
            );
        }
        let open_report = open.shutdown();
        assert_eq!(open_report.served, REQUESTS as u64, "loss-free drain");
        let lat = &open_report.latency;
        open_latency_json = open_latency_json.field(
            pattern.name(),
            Json::obj()
                .field("unit", "us")
                .field("offered_rps", 3_000.0)
                .field("skew", skew)
                .field("total", latency_row(&lat.total_ns, 1e-3))
                .field("queueing", latency_row(&lat.queueing_ns, 1e-3))
                .field("batching", latency_row(&lat.batching_ns, 1e-3))
                .field("service", latency_row(&lat.service_ns, 1e-3))
                .field("mean_queueing_delay_us", lat.queueing_ns.mean() * 1e-3),
        );
        open_loop_json = open_loop_json.field(
            pattern.name(),
            Json::obj()
                .field("shards", open_report.shards.len())
                .field("offered_rps", 3_000.0)
                .field("skew", skew)
                .field("host_seconds", open_host_seconds)
                // The dispatcher's own clocks: serving window (first
                // accept → last completion) vs construction → shutdown.
                .field("serving_window_seconds", open_report.host_seconds)
                .field("lifetime_seconds", open_report.lifetime_seconds)
                .field("rounds_closed_full", open_report.rounds_closed_full)
                .field("rounds_closed_timer", open_report.rounds_closed_timer)
                .field("rounds_closed_flush", open_report.rounds_closed_flush)
                .field("steal_rate", open_report.steal_rate())
                .field("shard_balance", open_report.shard_balance())
                .field("shards_detail", shard_arr(&open_report)),
        );
    }

    // Phase 4: decoded execution, verified. Decode one program once and
    // run it over 200 input sets on one reused machine, asserting every
    // result byte-identical to the oracle interpreter's. (How fast the
    // decoded executor is lives in `perfbench`'s
    // `sim.run_decoded_ns_per_cycle`; a ratio against the untuned oracle
    // would gate nothing.)
    let compiled = dpu.compile(&fams[0].dag).expect("compiles");
    let decoded = sim::DecodedProgram::decode(&compiled.program).expect("decodes");
    let mut machine = sim::Machine::new(*ref_engine.config());
    let decoded_runs = 200;
    for i in 0..decoded_runs {
        let inputs = (fams[0].inputs)(i);
        let want = sim::run_on(&mut machine, &compiled, &inputs).expect("runs");
        let got = sim::run_decoded_on(&mut machine, &compiled, &decoded, &inputs).expect("runs");
        assert_identical(&got, &want, &format!("decoded run {i}"));
        assert_eq!(got.activity, want.activity, "decoded run {i}: activity");
    }

    // One-program/many-inputs round execution: re-serve the gated stream
    // in fixed-size rounds through `Engine::execute_round`, which groups
    // each round by program so every request of a family runs off one
    // shared decoded form. The grouping ratio (jobs per program group) is
    // a pure function of the stream; outputs are verified byte-identical
    // to the serial reference as they are produced.
    let round_engine = dpu.engine(EngineOptions::default());
    let round_keys: Vec<DagKey> = fams
        .iter()
        .map(|f| round_engine.register(f.dag.clone()))
        .collect();
    let round_stream: Vec<Request> = (0..REQUESTS)
        .map(|i| build_request(&round_keys, i))
        .collect();
    let round_batch = 32usize;
    let mut round_machine = sim::Machine::new(*ref_engine.config());
    let (mut round_jobs, mut round_groups, mut verified_rounds) = (0usize, 0usize, 0usize);
    let t3 = Instant::now();
    for (chunk_no, chunk) in round_stream.chunks(round_batch).enumerate() {
        let mut programs: Vec<DagKey> = Vec::new();
        for r in chunk {
            if !programs.contains(&r.dag) {
                programs.push(r.dag);
            }
        }
        round_jobs += chunk.len();
        round_groups += programs.len();
        let refs: Vec<&Request> = chunk.iter().collect();
        for (j, outcome) in round_engine
            .execute_round(&mut round_machine, &refs)
            .into_iter()
            .enumerate()
        {
            let i = chunk_no * round_batch + j;
            let got = outcome.expect("request succeeds");
            assert_identical(&got, &reference.results[i], &format!("round request {i}"));
        }
        verified_rounds += 1;
    }
    let round_seconds = t3.elapsed().as_secs_f64();
    let round_grouping_ratio = round_jobs as f64 / round_groups.max(1) as f64;
    let decode_count = round_engine.cache_stats().decode_count;
    assert_eq!(
        decode_count,
        fams.len() as u64,
        "one decode per family, shared across {verified_rounds} rounds"
    );

    // Phase 5: cache persistence. Cold engine over an empty spill dir
    // (compiles once per family, spills each program), then a restarted
    // engine over the same dir (must serve with zero compiles), then a
    // peer shard pre-warming every program before traffic. All outputs
    // verified byte-identical to the serial reference, so spilled-and-
    // reloaded programs provably equal freshly compiled ones.
    let spill_dir = spill_flag();
    let persist_opts = EngineOptions {
        spill_dir: Some(spill_dir.clone()),
        ..Default::default()
    };
    let serve_and_verify = |engine: &Engine, label: &str| {
        let keys: Vec<DagKey> = fams
            .iter()
            .map(|f| engine.register(f.dag.clone()))
            .collect();
        let stream: Vec<Request> = (0..REQUESTS).map(|i| build_request(&keys, i)).collect();
        let report = engine.serve(&stream);
        assert!(report.failures.is_empty(), "{label}: failures");
        for (i, r) in report.results.iter().enumerate() {
            assert_identical(r, &reference.results[i], &format!("{label} request {i}"));
        }
    };
    let cold_engine = dpu.engine(persist_opts.clone());
    serve_and_verify(&cold_engine, "cold");
    let cold_stats = cold_engine.cache_stats();
    assert_eq!(
        cold_stats.spill_writes,
        fams.len() as u64,
        "every cold compile spilled"
    );
    drop(cold_engine);
    let warm_engine = dpu.engine(persist_opts.clone());
    serve_and_verify(&warm_engine, "warm-restart");
    let warm_stats = warm_engine.cache_stats();
    assert_eq!(warm_stats.misses, 0, "a warm restart must not compile");
    drop(warm_engine);
    let peer_engine = dpu.engine(persist_opts);
    let prewarm_loaded = peer_engine.prewarm();
    assert_eq!(
        prewarm_loaded,
        fams.len(),
        "peer pre-warm loads every spilled program"
    );
    serve_and_verify(&peer_engine, "pre-warmed peer");
    let peer_stats = peer_engine.cache_stats();
    assert_eq!(peer_stats.misses, 0, "a pre-warmed shard must not compile");

    // Phase 6: graceful degradation under overload (gated). The
    // dispatcher is driven at 2× the saturation rate established by the
    // PR-5 queueing data (at ~3000 rps mean queueing delay reaches tens
    // of milliseconds against sub-millisecond service), with bounded
    // per-shard admission, a 30/40/30 interactive/standard/batch mix,
    // and a 40 ms deadline on every interactive request. The open-loop
    // client drops `WouldBlock` rejections (no retry). The gate checks
    // that the accounting is honest (offered == completed + shed +
    // rejected, exactly, per class and in total), that served
    // interactive traffic stays inside its latency budget (p99 and the
    // goodput ratio below), and that interactive completions never drop
    // to zero — overload must degrade, not collapse or lie.
    const SATURATION_RPS: f64 = 3_000.0;
    let degraded_rps = 2.0 * SATURATION_RPS;
    let degrade_requests: usize = 900;
    let queue_capacity: usize = 96;
    let interactive_deadline = Duration::from_millis(40);
    let p99_budget_ms = 120.0;
    let degrade_schedule = open_loop_schedule(&TrafficParams {
        requests: degrade_requests,
        rate_per_sec: degraded_rps,
        pattern: ArrivalPattern::Poisson,
        families: fams.len(),
        skew: 0.0,
        seed: 64,
        priorities: PriorityMix::new(0.3, 0.3),
    });
    let degrade = dpu.dispatcher(DispatchOptions {
        shards: 2,
        max_batch: 24,
        max_wait: Duration::from_micros(500),
        work_stealing: true,
        queue_capacity: Some(queue_capacity),
        ..Default::default()
    });
    let keys: Vec<DagKey> = fams
        .iter()
        .map(|f| degrade.register(f.dag.clone()))
        .collect();
    let submitter = degrade.submitter();
    let class_index = |c: PriorityClass| match c {
        PriorityClass::Interactive => 0usize,
        PriorityClass::Standard => 1,
        PriorityClass::Batch => 2,
    };
    let to_priority = |c: PriorityClass| match c {
        PriorityClass::Interactive => Priority::Interactive,
        PriorityClass::Standard => Priority::Standard,
        PriorityClass::Batch => Priority::Batch,
    };
    let replay_start = Instant::now();
    let mut degrade_tickets: Vec<(PriorityClass, Ticket)> = Vec::with_capacity(degrade_requests);
    let mut local_rejected = [0u64; 3];
    for arrival in &degrade_schedule {
        if let Some(wait) = arrival.at.checked_sub(replay_start.elapsed()) {
            std::thread::sleep(wait);
        }
        let request = Request::new(
            keys[arrival.family],
            (fams[arrival.family].inputs)(arrival.seq),
        );
        let scheduled = arrival.instant(replay_start);
        let mut opts = SubmitOptions::at(scheduled).priority(to_priority(arrival.class));
        if arrival.class == PriorityClass::Interactive {
            // Deadline is relative to the *scheduled* arrival: a replay
            // that falls behind eats into its own budget, as a real
            // open-loop client's would.
            opts = opts.deadline(scheduled + interactive_deadline);
        }
        match submitter.submit_with(request, opts) {
            Ok(t) => degrade_tickets.push((arrival.class, t)),
            Err(SubmitRejection::WouldBlock { retry_after, .. }) => {
                assert!(
                    retry_after > Duration::ZERO && retry_after <= Duration::from_secs(1),
                    "retry_after must be sane, got {retry_after:?}"
                );
                local_rejected[class_index(arrival.class)] += 1; // dropped, no retry
            }
            Err(SubmitRejection::DeadlineAlreadyPast { .. }) => {
                local_rejected[class_index(arrival.class)] += 1;
            }
            Err(other) => panic!("unexpected rejection under overload: {other}"),
        }
    }
    degrade.drain();
    let mut local_completed = [0u64; 3];
    let mut local_shed = [0u64; 3];
    let mut interactive_ms: Vec<f64> = Vec::new();
    for (class, t) in degrade_tickets {
        let (outcome, timeline) = t.wait_detailed();
        match outcome {
            Outcome::Completed(_) => {
                local_completed[class_index(class)] += 1;
                if class == PriorityClass::Interactive {
                    interactive_ms.push(
                        timeline.completed_ns.saturating_sub(timeline.arrival_ns) as f64 * 1e-6,
                    );
                }
            }
            Outcome::Shed { .. } => local_shed[class_index(class)] += 1,
            Outcome::Failed(e) => panic!("no request may fail under overload: {e}"),
        }
    }
    let degrade_report = degrade.shutdown();
    // Cross-check the dispatcher's per-class ledger against the client's
    // own tallies — the report must never hide a shed or a rejection.
    let mut honest = degrade_report.offered() == degrade_requests as u64;
    for (i, p) in [Priority::Interactive, Priority::Standard, Priority::Batch]
        .iter()
        .enumerate()
    {
        let c = degrade_report.class(*p);
        assert_eq!(c.completed, local_completed[i], "{p:?} completed mismatch");
        assert_eq!(c.shed, local_shed[i], "{p:?} shed mismatch");
        assert_eq!(c.rejected, local_rejected[i], "{p:?} rejected mismatch");
        assert_eq!(c.failed, 0, "{p:?} must not fail under clean overload");
        honest &= c.offered == c.completed + c.failed + c.shed + c.rejected;
    }
    interactive_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let interactive_p99_ms = if interactive_ms.is_empty() {
        0.0
    } else {
        interactive_ms[(interactive_ms.len() - 1) * 99 / 100]
    };
    let within_budget = interactive_ms
        .iter()
        .filter(|&&ms| ms <= p99_budget_ms)
        .count();
    // Goodput ratio: of the interactive requests actually served, the
    // fraction inside the latency budget. Shedding keeps this near 1.0
    // under overload (that is the point); the gate ratchets it and
    // separately requires completions > 0 so "shed everything" can't
    // fake a perfect score.
    let interactive_goodput_ratio = within_budget as f64 / (interactive_ms.len().max(1)) as f64;
    assert!(
        interactive_p99_ms <= p99_budget_ms,
        "interactive p99 {interactive_p99_ms:.2} ms blew the {p99_budget_ms} ms budget"
    );
    assert!(honest, "shed/reject accounting must balance exactly");
    let degrade_classes = {
        let mut obj = Json::obj();
        for (p, name) in [
            (Priority::Interactive, "interactive"),
            (Priority::Standard, "standard"),
            (Priority::Batch, "batch"),
        ] {
            let c = degrade_report.class(p);
            obj = obj.field(
                name,
                Json::obj()
                    .field("offered", c.offered)
                    .field("accepted", c.accepted)
                    .field("completed", c.completed)
                    .field("failed", c.failed)
                    .field("shed", c.shed)
                    .field("rejected", c.rejected),
            );
        }
        obj
    };
    let graceful_degradation = Json::obj()
        .field("offered", degrade_requests)
        .field("saturation_rps", SATURATION_RPS)
        .field("offered_rps", degraded_rps)
        .field("shards", 2usize)
        .field("queue_capacity", queue_capacity)
        .field("interactive_deadline_ms", 40.0)
        .field("p99_budget_ms", p99_budget_ms)
        .field("interactive_completed", interactive_ms.len())
        .field("interactive_p99_ms", interactive_p99_ms)
        .field("interactive_goodput_ratio", interactive_goodput_ratio)
        .field("rejected_would_block", degrade_report.rejected_would_block)
        .field(
            "rejected_deadline_past",
            degrade_report.rejected_deadline_past,
        )
        .field("shed_unmeetable", degrade_report.shed_unmeetable)
        .field("shed_expired", degrade_report.shed_expired)
        .field("honest", honest)
        .field("verified", true)
        .field("classes", degrade_classes);

    // Phase 7: chaos recovery (gated). The gated 600-request stream
    // replays open-loop at 2× saturation against four shards while a
    // scripted `ChaosPlan` kills the home shard of the first family after
    // its second round and stalls a neighbour on every round; hedging
    // covers the straggler. Stealing stays off so every rescued round
    // provably moved through the lease-slot/requeue (or hedge) path —
    // the one every dispatcher runs — rather than an opportunistic
    // steal. The invariants
    // checked here and re-checked by `bench_gate`: zero lost tickets,
    // zero failures (three same-class survivors remain), at least one
    // recovered round, every completion byte-identical to the serial
    // reference, and an exactly balanced per-class ledger.
    let chaos_shards: usize = 4;
    let chaos_rps = 2.0 * SATURATION_RPS;
    let kill_after_rounds: u64 = 2;
    let killed_shard = runtime::home_shard(ref_keys[0], chaos_shards);
    let stalled_shard = (killed_shard + 1) % chaos_shards;
    let stall_per_round = Duration::from_millis(3);
    let chaos_schedule = open_loop_schedule(&TrafficParams {
        requests: REQUESTS,
        rate_per_sec: chaos_rps,
        pattern: ArrivalPattern::Poisson,
        families: fams.len(),
        skew: 0.0,
        seed: 67,
        priorities: PriorityMix::new(0.3, 0.3),
    });
    let chaos = dpu.dispatcher(DispatchOptions {
        shards: chaos_shards,
        max_batch: 16,
        max_wait: Duration::from_micros(500),
        work_stealing: false,
        chaos: Some(
            ChaosPlan::new(42)
                .kill_shard(killed_shard, kill_after_rounds)
                .stall_shard(stalled_shard, stall_per_round),
        ),
        hedge: Some(HedgeOptions {
            trigger_percentile: 95,
            min_wait: Duration::from_millis(5),
        }),
        stall_timeout: Some(Duration::from_millis(50)),
        ..Default::default()
    });
    let chaos_keys: Vec<DagKey> = fams.iter().map(|f| chaos.register(f.dag.clone())).collect();
    let chaos_submitter = chaos.submitter();
    let chaos_start = Instant::now();
    let mut chaos_tickets: Vec<Ticket> = Vec::with_capacity(REQUESTS);
    for (i, arrival) in chaos_schedule.iter().enumerate() {
        if let Some(wait) = arrival.at.checked_sub(chaos_start.elapsed()) {
            std::thread::sleep(wait);
        }
        // Request content comes from the *reference* schedule so every
        // completion can be bit-compared against the serial pass; only
        // the replay timing and priority mix follow the chaos schedule.
        let scheduled = arrival.instant(chaos_start);
        let t = chaos_submitter
            .submit_with(
                build_request(&chaos_keys, i),
                SubmitOptions::at(scheduled).priority(to_priority(arrival.class)),
            )
            .expect("chaos phase has no admission bound");
        chaos_tickets.push(t);
    }
    chaos.drain();
    let mut lost_tickets = 0u64;
    for (i, t) in chaos_tickets.into_iter().enumerate() {
        match t.wait_timeout(Duration::from_secs(60)) {
            Ok(Outcome::Completed(res)) => {
                assert_identical(&res, &reference.results[i], &format!("chaos request {i}"));
            }
            Ok(other) => panic!("chaos request {i}: survivors must complete, got {other:?}"),
            Err(_) => lost_tickets += 1,
        }
    }
    assert_eq!(lost_tickets, 0, "chaos recovery must not lose tickets");
    let chaos_report = chaos.shutdown();
    // `served` counts executions, so losing hedge copies can push it past
    // the request count; the *ticket* ledger is the loss-free invariant.
    let chaos_completed: u64 = [Priority::Interactive, Priority::Standard, Priority::Batch]
        .iter()
        .map(|&p| chaos_report.class(p).completed)
        .sum();
    assert_eq!(chaos_completed, REQUESTS as u64, "loss-free recovery");
    assert!(
        chaos_report.served >= REQUESTS as u64,
        "every ticket's winning execution is part of `served`"
    );
    assert!(
        chaos_report.recovered >= 1,
        "the killed shard's rounds must recover via the lease/requeue path"
    );
    assert!(
        chaos_report.hedge_wins <= chaos_report.hedged,
        "a hedge can only win where a hedge was placed"
    );
    let chaos_classes = {
        let mut obj = Json::obj();
        for (p, name) in [
            (Priority::Interactive, "interactive"),
            (Priority::Standard, "standard"),
            (Priority::Batch, "batch"),
        ] {
            let c = chaos_report.class(p);
            assert_eq!(
                c.offered,
                c.completed + c.failed + c.shed + c.rejected,
                "{name} ledger must balance under chaos"
            );
            obj = obj.field(
                name,
                Json::obj()
                    .field("offered", c.offered)
                    .field("accepted", c.accepted)
                    .field("completed", c.completed)
                    .field("failed", c.failed)
                    .field("shed", c.shed)
                    .field("rejected", c.rejected),
            );
        }
        obj
    };
    let chaos_failed: u64 = [Priority::Interactive, Priority::Standard, Priority::Batch]
        .iter()
        .map(|&p| chaos_report.class(p).failed)
        .sum();
    assert_eq!(chaos_failed, 0, "survivors must absorb every failure");
    let chaos_json = Json::obj()
        .field("requests", REQUESTS)
        .field("shards", chaos_shards)
        .field("offered_rps", chaos_rps)
        .field("killed_shard", killed_shard)
        .field("kill_after_rounds", kill_after_rounds)
        .field("stalled_shard", stalled_shard)
        .field("stall_per_round_ms", 3.0)
        .field("hedge_trigger_percentile", 95u64)
        .field("hedge_min_wait_ms", 5.0)
        .field("lost_tickets", lost_tickets)
        .field("completed", chaos_completed)
        .field("served", chaos_report.served)
        .field("recovered", chaos_report.recovered)
        .field("hedged", chaos_report.hedged)
        .field("hedge_wins", chaos_report.hedge_wins)
        .field("failed", chaos_failed)
        .field("classes", chaos_classes)
        .field("verified", true);

    let report = Json::obj()
        .field("bench", "async_serving")
        .field("requests", REQUESTS)
        .field(
            "families",
            Json::Arr(fams.iter().map(|f| f.name.into()).collect()),
        )
        .field("shards", GATED_SHARDS)
        .field("modelled_cores_per_shard", runtime::DPU_V2_L_CORES)
        // Gated, machine-independent fields (see bench_gate).
        .field("simulated_gops", gated_report.gops(freq))
        .field("modelled_cycles", gated_report.modelled_cycles())
        .field("total_dag_ops", gated_report.total_dag_ops())
        .field("cache_hit_rate", gated_cache.hit_rate())
        .field("compiles", gated_cache.misses)
        .field("shard_balance", gated_report.shard_balance())
        .field("verified", true)
        // Live multi-backend comparison (machine-independent, gated).
        .field("baseline_compare", baseline_compare)
        // Closed-loop latency accounting. `deterministic` is the gated
        // half: per-request modelled service time in simulated cycles,
        // a pure function of the stream (merge-invariant across shard
        // counts, asserted above); `bench_gate` ratchets its p50/p99.
        // `open_loop` carries the host-time response-time quantiles of
        // each replay pattern (machine-dependent, recorded only).
        .field(
            "latency",
            Json::obj()
                .field(
                    "deterministic",
                    latency_row(&gated_report.latency.service_cycles, 1.0)
                        .field("unit", "modelled_cycles")
                        // Host-time observability rider (machine-
                        // dependent, like host_seconds — NOT gated).
                        .field(
                            "host_mean_queueing_delay_us",
                            gated_report.latency.queueing_ns.mean() * 1e-3,
                        )
                        .field("merge_invariant", merge_invariant)
                        .field("verified", true),
                )
                .field("open_loop", open_latency_json),
        )
        // Cache persistence: warm-restart + peer pre-warm over a spill
        // dir (machine-independent; warm_restart_hit_rate is gated).
        .field(
            "cache_persist",
            Json::obj()
                .field("requests", REQUESTS)
                .field("families", fams.len())
                .field("cold_compiles", cold_stats.misses)
                .field("spill_writes", cold_stats.spill_writes)
                .field("spill_rejects", warm_stats.spill_rejects)
                .field("warm_restart_hit_rate", warm_stats.hit_rate())
                .field("warm_restart_compiles", warm_stats.misses)
                .field("warm_spill_loads", warm_stats.spill_hits)
                .field("prewarm_loaded", prewarm_loaded)
                .field("verified", true),
        )
        // Graceful degradation under 2× saturation load: per-class
        // accounting (offered == completed + shed + rejected, exactly),
        // interactive p99 vs its budget, and the goodput ratio
        // `bench_gate` ratchets. Counts are load-timing dependent, but
        // the honesty equation and the budget hold on any machine.
        .field("graceful_degradation", graceful_degradation)
        // Chaos recovery: loss-free failure injection. Counts such as
        // hedged/hedge_wins are timing dependent, but the invariants
        // (lost_tickets == 0, failed == 0, recovered ≥ 1, balanced
        // ledger, byte-identical outputs) hold on any machine.
        .field("chaos", chaos_json)
        // Host-side observability (machine-dependent, not gated).
        .field("host_seconds", gated_host_seconds)
        .field("host_rps", REQUESTS as f64 / gated_host_seconds.max(1e-9))
        .field("gated_shards", shard_arr(&gated_report))
        .field("open_loop", open_loop_json)
        // Decoded execution: the grouping ratio is a pure function of the
        // stream and the decode count a pure function of the family set
        // (both bit-stable). `repeat_program_rps` is host wall-clock,
        // recorded only.
        .field(
            "decoded_exec",
            Json::obj()
                .field("runs", decoded_runs)
                .field("round_requests", REQUESTS)
                .field("round_max_batch", round_batch)
                .field("rounds", verified_rounds)
                .field("round_grouping_ratio", round_grouping_ratio)
                .field(
                    "repeat_program_rps",
                    REQUESTS as f64 / round_seconds.max(1e-9),
                )
                .field("decode_count", decode_count)
                .field("verified", true),
        );
    emit(&report, json_path.as_deref());
}
