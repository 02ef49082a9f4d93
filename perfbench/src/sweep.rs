//! `dse_sweep`: the paper's own flow through the facade, no runtime. Every
//! Table I(a)+(b) DAG at each of the three Fig. 11 optima is compiled, run
//! once, checked against `dag::eval`, and measured, with the analytic
//! baselines evaluated on the same DAG.

use std::hint::black_box;
use std::time::Instant;

use dpu_core::prelude::*;
use dpu_core::workloads::suite;

use crate::items::{references, Checker, Item, Source};
use crate::layers::{self, simulated, Probe, Simulated};
use crate::rng::Rng;
use crate::run::{further_setups, peak_rss_mb, seconds, Report, RunConfig, Scale, Timed};
use crate::stats::Measured;
use crate::trace::{Spans, Tracer};

/// The min-EDP, min-energy and min-latency points of Fig. 11 as
/// `(D, B, R)`; the first is the one the simulated metrics are read at.
const CONFIGS: [(u32, u32, u32); 3] = [(3, 64, 32), (3, 64, 128), (3, 16, 64)];

/// Share of the published node counts the suite is generated at: a sweep
/// then takes about 1.5 s, so a run holds several and reports their
/// median.
const SUITE_SCALE: f64 = 0.25;

fn setup(cfg: &RunConfig) -> Vec<Item> {
    let mut inputs = Rng::new(cfg.seed).fork(2);
    let (specs, scale) = match cfg.scale {
        Scale::Full => (suite::small_suite(), SUITE_SCALE),
        Scale::Smoke => (suite::tiny_suite(), 0.1),
    };
    // The suite keeps its paper-matched generator seeds; `--seed` drives
    // the inputs.
    specs
        .into_iter()
        .map(|spec| Item::new(Source::Suite { spec, scale }, 1, &mut inputs))
        .collect()
}

fn dpus() -> Vec<Dpu> {
    CONFIGS
        .iter()
        .map(|&(d, b, r)| Dpu::new(ArchConfig::new(d, b, r).expect("paper configs are valid")))
        .collect()
}

/// One pass over every (DAG, config) cell. Returns the seconds of the
/// sweep and the simulated summary at the first config.
fn sweep(
    items: &[Item],
    latencies: &mut Vec<u64>,
    checker: &mut Checker,
    spans: &mut Spans,
) -> (f64, Simulated) {
    let models = [
        BaselineModel::cpu(),
        BaselineModel::gpu(),
        BaselineModel::dpu_v1(),
    ];
    let begun = Instant::now();
    let mut at_first = Vec::new();
    for (c, dpu) in dpus().iter().enumerate() {
        for (n, item) in items.iter().enumerate() {
            let id = (c * items.len() + n) as u64 + 1;
            let started = Instant::now();
            let cell = spans.open(0, id, "bench.cell");
            let span = spans.open(cell, id, "compiler.compile");
            let compiled = dpu.compile(&item.dag);
            spans.close(span);
            let span = spans.open(cell, id, "sim.execute");
            let run = compiled
                .as_ref()
                .ok()
                .and_then(|c| dpu.execute(c, &item.inputs[0]).ok());
            spans.close(span);
            let span = spans.open(cell, id, "bench.check");
            checker.close(
                &item.expected[0],
                run.as_ref().map(|r| r.outputs.as_slice()),
            );
            spans.close(span);
            let span = spans.open(cell, id, "energy.metrics");
            black_box(run.as_ref().map(|r| dpu.metrics(r)));
            spans.close(span);
            let span = spans.open(cell, id, "baselines.evaluate");
            for model in &models {
                black_box(model.evaluate(&item.dag));
            }
            spans.close(span);
            spans.close(cell);
            latencies.push(started.elapsed().as_nanos() as u64);
            if let (0, Some(run)) = (c, run) {
                at_first.push((&item.dag, run));
            }
        }
    }
    let seconds = begun.elapsed().as_secs_f64();
    let first = dpus()[0].config;
    let sim = simulated(&first, at_first.iter().map(|(d, r)| (*d, r)));
    (seconds, sim)
}

struct Sweeps {
    timed: Timed,
    seconds: Vec<f64>,
    sims: Vec<Simulated>,
}

/// Whole sweeps until `seconds` have passed; each is one part.
fn measure(cfg: &RunConfig, items: &[Item], seconds: f64, tracer: Option<&mut Tracer>) -> Sweeps {
    let mut spans = Spans(tracer);
    let mut out = Sweeps {
        timed: Timed {
            checker: cfg.checker(),
            same_operations: true,
            ..Timed::default()
        },
        seconds: Vec::new(),
        sims: Vec::new(),
    };
    let begun = Instant::now();
    while out.seconds.is_empty() || begun.elapsed().as_secs_f64() < seconds {
        let mut latencies = Vec::new();
        let (s, sim) = sweep(items, &mut latencies, &mut out.timed.checker, &mut spans);
        out.timed.rates.push(latencies.len() as f64 / s);
        out.timed.latencies_ns.push(latencies);
        out.seconds.push(s);
        out.sims.push(sim);
    }
    out
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(cfg);
    if cfg.trace {
        traced_run(cfg, &mut report);
        return report;
    }
    let (items, first_s) = seconds(|| setup(cfg));
    let sweeps = measure(cfg, &items, cfg.seconds, None);
    let peak_rss_mb = peak_rss_mb();
    drop(items);
    let setup_parts = further_setups(cfg, first_s, || setup(cfg), drop);
    report.count(&sweeps.timed.checker);
    // Every sweep compiles afresh, and two compiles of one DAG may differ
    // once the compiler spills: the simulated figures are medians too.
    let over = |f: &dyn Fn(&Simulated) -> f64| {
        Measured::median_of(&sweeps.sims.iter().map(f).collect::<Vec<_>>())
    };
    let sim = [
        over(&|s| s.gops),
        over(&|s| s.edp_pj_ns),
        over(&|s| s.speedup_vs_cpu),
    ];
    report.set_end_to_end(&sweeps.timed, sim, &setup_parts, peak_rss_mb);
    let speedup = sim[2].value;
    report.notes.push(format!(
        "sweep_s {:.4} (median of {}); speedup_vs_cpu {speedup:.3} against the paper's 3.5 at full scale ({:+.1} %)",
        Measured::median_of(&sweeps.seconds).value,
        sweeps.seconds.len(),
        (speedup / 3.5 - 1.0) * 100.0,
    ));
    report
}

fn traced_run(cfg: &RunConfig, report: &mut Report) {
    let items = setup(cfg);
    // The micro-phases replay the suite at the min-EDP point.
    let dpu = dpus().swap_remove(0);
    let refs = references(&dpu, &items).unwrap_or_else(|e| panic!("reference pass: {e}"));
    let mut rng = Rng::new(cfg.seed).fork(3);
    let probe = Probe {
        dpu: &dpu,
        items: &items,
        refs: &refs,
    };
    layers::measure(cfg, &probe, &mut rng, &mut report.layers);

    let quarter = cfg.seconds / 4.0;
    let untraced = measure(cfg, &items, quarter, None);
    let mut tracer = Tracer::new();
    let traced = measure(cfg, &items, quarter, Some(&mut tracer));
    report.count(&untraced.timed.checker);
    report.count(&traced.timed.checker);

    let m = &mut report.layers;
    m.set(
        "bench.sweep_s",
        Measured::median_of(&untraced.seconds).value,
    );
    let (rate, traced_rate) = (untraced.timed.rate().value, traced.timed.rate().value);
    m.set("bench.trace_overhead_share", (rate - traced_rate) / rate);
    m.set(
        "bench.layer_sum_share",
        tracer.layer_sum_share(&["bench.cell"]),
    );
    report.write_trace(&tracer);
}
