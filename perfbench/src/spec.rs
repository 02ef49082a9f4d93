//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their bounds, and the per-layer metrics with the end-to-end metric each
//! one is predicted to move. `BENCHMARK.json` at the repository root states
//! the same lists for the driver; a unit test keeps the two equal.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHeavy,
    ServeTiny,
    OpenLoop,
    ColdStart,
    DseSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeHeavy,
        Workload::ServeTiny,
        Workload::OpenLoop,
        Workload::ColdStart,
        Workload::DseSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHeavy => "serve_heavy",
            Workload::ServeTiny => "serve_tiny",
            Workload::OpenLoop => "open_loop",
            Workload::ColdStart => "cold_start",
            Workload::DseSweep => "dse_sweep",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line, also in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeHeavy => "closed loop, 64 outstanding, 4k-6k-node DAGs: the simulator is most of a request, so sim and pool changes show here and dispatch changes barely do",
            Workload::ServeTiny => "same loop, 1024 outstanding, 40-150-node DAGs: ingest, round closing, queues and ticket fulfilment are most of a request, so dispatch changes show here and per-cycle simulator speed-ups do not",
            Workload::OpenLoop => "Poisson arrivals at 2000/s, about a fifth of what serve_heavy completes, timed from the due instant: rounds close by timer, so batching delay and queue wait set the result",
            Workload::ColdStart => "fresh engines over an empty, then a filled spill directory: the cache's write side (compile, spill store) and restart side (spill load, verify, decode)",
            Workload::DseSweep => "the paper's flow without the runtime: Table I small suite x the three Fig. 11 optima, compile, run once, check, metrics; compiler passes dominate",
        }
    }
}

/// One unit of work, as `rps`, `p50_us` and `p90_us` count it.
pub fn operation(w: Workload) -> &'static str {
    match w {
        Workload::ServeHeavy | Workload::ServeTiny | Workload::OpenLoop => "request",
        Workload::ColdStart => "DAG registered and first reply served",
        Workload::DseSweep => "(DAG, config) cell compiled, run, checked and measured",
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Largest worsening, as a share of the parent's median, that is not a
    /// regression. Earned from measured spreads; see the README.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "rps", unit: "1/s", better: Higher, bound: 0.25, what: "operations completed per second of host time, median over the parts of the timed region" },
    EndToEnd { name: "p50_us", unit: "us", better: Lower, bound: 0.25, what: "median host time of one operation (requests: from the due instant to the reply; median of the segments' medians)" },
    EndToEnd { name: "p90_us", unit: "us", better: Lower, bound: 0.25, what: "90th percentile of the same" },
    EndToEnd { name: "sim_gops", unit: "GOPS", better: Higher, bound: 0.01, what: "simulated throughput at 300 MHz, mean over the workload's programs" },
    EndToEnd { name: "edp_pj_ns", unit: "pJ.ns", better: Lower, bound: 0.01, what: "simulated energy-delay product per operation from mean power and mean throughput" },
    EndToEnd { name: "speedup_vs_cpu", unit: "ratio", better: Higher, bound: 0.01, what: "simulated GOPS over the modelled CPU's GOPS on the same DAGs (paper: 3.5)" },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, what: "generation, references, construction, registration and warm-up; median of repeated set-ups" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.1, what: "VmHWM of the workload's process after one set-up and the timed region" },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Space-separated `metric@workload` pairs this metric is predicted to
    /// move (`*` = every workload); empty = none today.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SWEEP: &str = "rps@dse_sweep";
const COLD: &str = "p90_us@cold_start";
const WARM: &str = "p50_us@cold_start";
const BOTH_STARTS: &str = "p90_us@cold_start p50_us@cold_start";
const SIMULATED: &str = "sim_gops@* edp_pj_ns@*";
const TINY: &str = "rps@serve_tiny";
const SERVE: &str = "rps@serve_heavy rps@serve_tiny";
const HEAVY: &str = "rps@serve_heavy p50_us@open_loop";
const OPEN: &str = "p50_us@open_loop p90_us@open_loop";

/// A value of 0 means the workload does not exercise that layer.
pub const PER_LAYER: &[PerLayer] = &[
    l(
        "dag.binarize_ns_per_node",
        "ns",
        Lower,
        "rps@dse_sweep setup_s@*",
    ),
    l(
        "dag.eval_ns_per_node",
        "ns",
        Lower,
        "rps@dse_sweep setup_s@*",
    ),
    l("dag.fingerprint_ns_per_node", "ns", Lower, BOTH_STARTS),
    l(
        "compiler.compile_ns_per_node",
        "ns",
        Lower,
        "rps@dse_sweep p90_us@cold_start setup_s@*",
    ),
    l("compiler.step1_s", "s", Lower, SWEEP),
    l("compiler.place_s", "s", Lower, SWEEP),
    l("compiler.banks_s", "s", Lower, SWEEP),
    l("compiler.emit_s", "s", Lower, SWEEP),
    l("compiler.reorder_s", "s", Lower, SWEEP),
    l("compiler.spill_s", "s", Lower, SWEEP),
    l("compiler.finalize_s", "s", Lower, SWEEP),
    l("compiler.blocks", "count", Lower, SIMULATED),
    l("compiler.pe_utilization", "share", Higher, SIMULATED),
    l("compiler.bank_conflicts", "count", Lower, SIMULATED),
    l("compiler.reorder_nops", "count", Lower, SIMULATED),
    l("compiler.stall_nops", "count", Lower, SIMULATED),
    l("compiler.spill_stores", "count", Lower, SIMULATED),
    l("compiler.spill_reloads", "count", Lower, SIMULATED),
    l("compiler.program_bits", "bits", Lower, SIMULATED),
    l("compiler.total_cycles", "cycles", Lower, SIMULATED),
    l("compiler.recompile_identical_share", "share", Higher, ""),
    l("compiler.to_bytes_ns_per_instr", "ns", Lower, COLD),
    l("compiler.from_bytes_ns_per_instr", "ns", Lower, WARM),
    l("isa.pack_ns_per_instr", "ns", Lower, COLD),
    l("isa.unpack_ns_per_instr", "ns", Lower, WARM),
    l("verify.verify_ns_per_instr", "ns", Lower, WARM),
    l("sim.decode_ns_per_instr", "ns", Lower, BOTH_STARTS),
    l("sim.run_decoded_ns_per_cycle", "ns", Lower, HEAVY),
    l("sim.mcycles_per_s", "Mcycle/s", Higher, HEAVY),
    l("sim.run_decoded_ns_per_request", "ns", Lower, TINY),
    l("sim.interp_ns_per_cycle", "ns", Lower, SWEEP),
    l("sim.machine_new_ns", "ns", Lower, "rps@dse_sweep setup_s@*"),
    l("sim.machine_reset_ns", "ns", Lower, TINY),
    l("sim.cycles_per_request", "cycles", Lower, SIMULATED),
    l("sim.pe_arith_ops_per_request", "count", Lower, SIMULATED),
    l("sim.reg_reads_per_request", "count", Lower, SIMULATED),
    l("sim.reg_writes_per_request", "count", Lower, SIMULATED),
    l("sim.mem_reads_per_request", "count", Lower, SIMULATED),
    l("sim.mem_writes_per_request", "count", Lower, SIMULATED),
    l("sim.crossbar_hops_per_request", "count", Lower, SIMULATED),
    l("energy.metrics_ns", "ns", Lower, SWEEP),
    l("energy.energy_per_op_pj", "pJ", Lower, "edp_pj_ns@*"),
    l(
        "energy.latency_per_op_ns",
        "ns",
        Lower,
        "edp_pj_ns@* sim_gops@*",
    ),
    l("energy.power_w", "W", Lower, "edp_pj_ns@*"),
    l("baselines.cpu_gops", "GOPS", Lower, "speedup_vs_cpu@*"),
    l("baselines.gpu_gops", "GOPS", Lower, ""),
    l("baselines.dpu_v1_gops", "GOPS", Lower, ""),
    l("baselines.speedup_vs_gpu", "ratio", Higher, ""),
    l("baselines.speedup_vs_dpu_v1", "ratio", Higher, ""),
    l("baselines.eval_ns_per_dag", "ns", Lower, SWEEP),
    l("workloads.generate_ns_per_node", "ns", Lower, "setup_s@*"),
    l(
        "workloads.schedule_ns_per_arrival",
        "ns",
        Lower,
        "setup_s@open_loop",
    ),
    l("runtime.cache.hit_ns", "ns", Lower, TINY),
    l("runtime.cache.miss_compile_s", "s", Lower, COLD),
    l(
        "runtime.cache.spill_store_ns_per_program",
        "ns",
        Lower,
        COLD,
    ),
    l("runtime.cache.spill_load_ns_per_program", "ns", Lower, WARM),
    l("runtime.cache.cold_start_s", "s", Lower, COLD),
    l("runtime.cache.warm_restart_s", "s", Lower, WARM),
    l("runtime.cache.hits", "count", Higher, SERVE),
    l(
        "runtime.cache.misses",
        "count",
        Lower,
        "p90_us@cold_start setup_s@serve_heavy",
    ),
    l("runtime.cache.hit_rate", "share", Higher, SERVE),
    l("runtime.cache.decode_count", "count", Lower, BOTH_STARTS),
    l("runtime.cache.spill_writes", "count", Lower, COLD),
    l("runtime.cache.spill_hits", "count", Higher, WARM),
    l("runtime.cache.spill_rejects", "count", Lower, WARM),
    l(
        "runtime.pool.execute_round_ns_per_request",
        "ns",
        Lower,
        SERVE,
    ),
    l("runtime.pool.groups_per_round", "count", Lower, SERVE),
    l("runtime.pool.execute_ns_per_request", "ns", Lower, ""),
    l("runtime.ingest.submit_call_ns", "ns", Lower, TINY),
    l("runtime.ingest.submit_lag_ns_p50", "ns", Lower, OPEN),
    l("runtime.ingest.submit_lag_ns_p90", "ns", Lower, OPEN),
    l("runtime.ingest.batching_ns_p50", "ns", Lower, OPEN),
    l("runtime.ingest.batching_ns_p90", "ns", Lower, OPEN),
    l("runtime.ingest.rounds_closed_full", "count", Higher, SERVE),
    l("runtime.ingest.rounds_closed_timer", "count", Lower, OPEN),
    l("runtime.ingest.rounds_closed_flush", "count", Lower, ""),
    l("runtime.ingest.mean_round_size", "count", Higher, SERVE),
    l(
        "runtime.dispatch.queue_wait_ns_p50",
        "ns",
        Lower,
        "p90_us@open_loop rps@serve_heavy rps@serve_tiny",
    ),
    l(
        "runtime.dispatch.queue_wait_ns_p90",
        "ns",
        Lower,
        "p90_us@open_loop rps@serve_heavy rps@serve_tiny",
    ),
    l(
        "runtime.dispatch.service_ns_p50",
        "ns",
        Lower,
        "p50_us@open_loop rps@serve_heavy rps@serve_tiny",
    ),
    l(
        "runtime.dispatch.service_ns_p90",
        "ns",
        Lower,
        "p90_us@open_loop rps@serve_heavy rps@serve_tiny",
    ),
    l(
        "runtime.dispatch.overhead_ns_per_request",
        "ns",
        Lower,
        TINY,
    ),
    l("runtime.dispatch.ticket_wait_call_ns", "ns", Lower, SERVE),
    l("runtime.dispatch.stolen_round_share", "share", Lower, SERVE),
    l("runtime.dispatch.shard_balance", "ratio", Higher, SERVE),
    l(
        "runtime.dispatch.construct_s",
        "s",
        Lower,
        "setup_s@serve_heavy setup_s@serve_tiny setup_s@open_loop",
    ),
    l("runtime.dispatch.shutdown_s", "s", Lower, ""),
    l("runtime.dispatch.p95_us", "us", Lower, ""),
    l("runtime.dispatch.p99_us", "us", Lower, ""),
    l("runtime.dispatch.generator_late_p50_us", "us", Lower, ""),
    l("runtime.dispatch.generator_late_p99_us", "us", Lower, ""),
    l("runtime.latency.record_ns", "ns", Lower, TINY),
    l("bench.sweep_s", "s", Lower, SWEEP),
    l("bench.request_build_ns", "ns", Lower, ""),
    l("bench.layer_sum_share", "share", Higher, ""),
    l("bench.trace_overhead_share", "share", Lower, ""),
    l("bench.failed_share", "share", Lower, ""),
];

/// Seconds one run measures for, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: f64 = 15.0;

/// The document `BENCHMARK.json` holds.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("perfbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_move_names_an_end_to_end_metric_and_a_workload() {
        for m in PER_LAYER {
            for pair in m.moves.split_whitespace() {
                let (metric, workload) = pair.split_once('@').expect(pair);
                assert!(
                    END_TO_END.iter().any(|e| e.name == metric),
                    "{}: {pair}",
                    m.name
                );
                assert!(
                    workload == "*" || Workload::by_name(workload).is_some(),
                    "{}: {pair}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_states_the_same_lists() {
        let committed = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `perfbench --list json`"
        );
    }
}
