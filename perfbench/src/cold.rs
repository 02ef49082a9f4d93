//! `cold_start`: fresh engines over an empty spill directory (compile,
//! serialise, spill, decode, first reply) and restarted engines over the
//! filled one (spill load, deserialise, verify, decode, first reply).

use std::path::Path;
use std::time::Instant;

use dpu_core::prelude::*;
use dpu_core::sim::Machine;

use crate::items::{first_runs, references, Checker, Item, Reference, Source};
use crate::layers::{self, simulated, Probe};
use crate::rng::Rng;
use crate::run::{
    clear_spill_dir, exact_sim, further_setups, peak_rss_mb, remove_spill_dir, seconds, Report,
    RunConfig, Scale, Timed,
};
use crate::stats::median;
use crate::trace::{Spans, Tracer};

/// Warm restarts per cold start. With three, the median operation is a
/// warm restart and the 90th percentile a cold start, so `p50_us` and
/// `p90_us` read the two sides of the cache apart.
const WARM_PER_COLD: usize = 3;

/// Seeds the generator seeds of the DAGs. They are the same for every
/// `--seed` (which drives the inputs), as the serving families are: with
/// DAGs that changed with the seed the simulated figures moved by 1-2 %
/// from seed to seed, more than the compiler change they are there to show.
const DAG_SEED: u64 = 0xC01D;

fn sources(cfg: &RunConfig) -> Vec<Source> {
    let mut seeds = Rng::new(DAG_SEED);
    let per_kind = match cfg.scale {
        Scale::Full => 8,
        Scale::Smoke => 1,
    };
    // 1k-4k nodes each, evenly spread, a third of each kind.
    let mut out = Vec::new();
    for i in 0..per_kind {
        let t = i as f64 / per_kind as f64;
        let (nodes, depth, trsv, spmv) = match cfg.scale {
            Scale::Full => (
                1_000 + (3_000.0 * t) as usize,
                10 + (6.0 * t) as usize,
                120 + (330.0 * t) as usize,
                100 + (230.0 * t) as usize,
            ),
            Scale::Smoke => (80, 4, 12, 10),
        };
        out.push(Source::Pc {
            nodes,
            depth,
            seed: seeds.next_u64(),
        });
        out.push(Source::Sptrsv {
            dim: trsv,
            seed: seeds.next_u64(),
        });
        out.push(Source::Spmv {
            dim: spmv,
            seed: seeds.next_u64(),
        });
    }
    out
}

struct Setup {
    items: Vec<Item>,
    refs: Vec<Reference>,
}

fn setup(cfg: &RunConfig) -> Setup {
    let mut inputs = Rng::new(cfg.seed).fork(2);
    let items: Vec<Item> = sources(cfg)
        .into_iter()
        .map(|s| Item::new(s, 1, &mut inputs))
        .collect();
    let refs = references(&Dpu::large(), &items).unwrap_or_else(|e| panic!("reference pass: {e}"));
    Setup { items, refs }
}

/// One engine's life: built over `spill`, every DAG registered and served
/// once, dropped. Returns the seconds of the round and the engine's cache
/// statistics; per-DAG nanoseconds go to `latencies`.
fn round(
    setup: &Setup,
    spill: &Path,
    name: &'static str,
    latencies: &mut Vec<u64>,
    checker: &mut Checker,
    spans: &mut Spans,
) -> (f64, CacheStats) {
    let dpu = Dpu::large();
    // Registration takes the DAG by value and a request owns its inputs;
    // the copies are the generator's cost, made before the clock starts.
    let mut work: Vec<(Dag, Request)> = setup
        .items
        .iter()
        .zip(&setup.refs)
        .map(|(i, r)| (i.dag.clone(), Request::new(r.key, i.inputs[0].clone())))
        .collect();
    let begun = Instant::now();
    let root = spans.open(0, 0, name);
    let built = spans.open(root, 0, "runtime.pool.engine_new");
    let engine = dpu.engine(EngineOptions {
        workers: 1,
        spill_dir: Some(spill.to_path_buf()),
        ..EngineOptions::default()
    });
    let mut machine = Machine::new(dpu.config);
    spans.close(built);
    for (n, ((dag, request), r)) in work.drain(..).zip(&setup.refs).enumerate() {
        let id = n as u64 + 1;
        let op = spans.open(root, id, "bench.dag");
        let started = Instant::now();
        let span = spans.open(op, id, "runtime.pool.register");
        engine.register(dag);
        spans.close(span);
        let span = spans.open(op, id, "runtime.pool.execute_round");
        let reply = engine.execute_round(&mut machine, &[&request]).pop();
        spans.close(span);
        latencies.push(started.elapsed().as_nanos() as u64);
        let span = spans.open(op, id, "bench.check");
        let got = reply.and_then(Result::ok);
        checker.reply(
            &r.want[0].outputs,
            got.as_ref().map(|g| g.outputs.as_slice()),
        );
        spans.close(span);
        spans.close(op);
    }
    let stats = engine.cache_stats();
    drop(engine);
    spans.close(root);
    (begun.elapsed().as_secs_f64(), stats)
}

/// What the rounds of one timed region add up to.
#[derive(Default)]
struct Rounds {
    timed: Timed,
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    cold_stats: CacheStats,
    warm_stats: CacheStats,
}

impl Rounds {
    fn new(cfg: &RunConfig) -> Rounds {
        let mut out = Rounds::default();
        out.timed.checker = cfg.checker();
        out.timed.same_operations = true;
        out
    }
}

/// Adds to `out` cycles of one cold start and [`WARM_PER_COLD`] warm
/// restarts until `seconds` have passed (at least one); each cycle is one
/// part of the timed region.
fn measure(
    setup: &Setup,
    spill: &Path,
    seconds: f64,
    tracer: Option<&mut Tracer>,
    out: &mut Rounds,
) {
    let mut spans = Spans(tracer);
    let begun = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || begun.elapsed().as_secs_f64() < seconds {
        cycles += 1;
        clear_spill_dir(spill);
        let mut latencies = Vec::new();
        let cycle = Instant::now();
        let (s, stats) = round(
            setup,
            spill,
            "bench.cold_round",
            &mut latencies,
            &mut out.timed.checker,
            &mut spans,
        );
        out.cold_s.push(s);
        out.cold_stats = stats;
        for _ in 0..WARM_PER_COLD {
            let (s, stats) = round(
                setup,
                spill,
                "bench.warm_round",
                &mut latencies,
                &mut out.timed.checker,
                &mut spans,
            );
            out.warm_s.push(s);
            out.warm_stats = stats;
        }
        out.timed
            .rates
            .push(latencies.len() as f64 / cycle.elapsed().as_secs_f64());
        out.timed.latencies_ns.push(latencies);
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(cfg);
    let spill = cfg.scratch_dir("spill");
    std::fs::create_dir_all(&spill).expect("output directory is writable");
    if cfg.trace {
        traced_run(cfg, &spill, &mut report);
    } else {
        let (setup, first_s) = seconds(|| setup(cfg));
        let mut rounds = Rounds::new(cfg);
        measure(&setup, &spill, cfg.seconds, None, &mut rounds);
        let peak_rss_mb = peak_rss_mb();
        report.count(&rounds.timed.checker);
        let sim = simulated(&Dpu::large().config, first_runs(&setup.items, &setup.refs));
        drop(setup);
        let setup_parts = further_setups(cfg, first_s, || self::setup(cfg), drop);
        report.set_end_to_end(&rounds.timed, exact_sim(&sim), &setup_parts, peak_rss_mb);
        report.notes.push(format!(
            "cold_start_s {:.4}, warm_restart_s {:.4} (medians of {} and {} rounds)",
            median(&rounds.cold_s),
            median(&rounds.warm_s),
            rounds.cold_s.len(),
            rounds.warm_s.len()
        ));
    }
    remove_spill_dir(&spill);
    report
}

fn traced_run(cfg: &RunConfig, spill: &Path, report: &mut Report) {
    let dpu = Dpu::large();
    let setup = setup(cfg);
    let mut rng = Rng::new(cfg.seed).fork(3);
    let probe = Probe {
        dpu: &dpu,
        items: &setup.items,
        refs: &setup.refs,
    };
    layers::measure(cfg, &probe, &mut rng, &mut report.layers);

    // A quarter of the run each, in alternating slices: a cold start gets
    // faster as the process ages (0.28 s to 0.21 s over ten seconds, the
    // allocator keeping more of what the compiler frees), which one
    // untraced region followed by one traced region read as tracing making
    // the program a fifth faster.
    const SLICES: usize = 4;
    let slice = cfg.seconds / 4.0 / SLICES as f64;
    let (mut untraced, mut traced) = (Rounds::new(cfg), Rounds::new(cfg));
    let mut tracer = Tracer::new();
    for _ in 0..SLICES {
        measure(&setup, spill, slice, None, &mut untraced);
        measure(&setup, spill, slice, Some(&mut tracer), &mut traced);
    }
    report.count(&untraced.timed.checker);
    report.count(&traced.timed.checker);

    let m = &mut report.layers;
    m.set("runtime.cache.cold_start_s", median(&untraced.cold_s));
    m.set("runtime.cache.warm_restart_s", median(&untraced.warm_s));
    // One cold and one warm engine's counters, side by side.
    m.set_cache(&[&traced.cold_stats, &traced.warm_stats]);
    let (rate, traced_rate) = (untraced.timed.rate().value, traced.timed.rate().value);
    m.set("bench.trace_overhead_share", (rate - traced_rate) / rate);
    m.set(
        "bench.layer_sum_share",
        tracer.layer_sum_share(&["bench.cold_round", "bench.warm_round"]),
    );
    report.write_trace(&tracer);
}
