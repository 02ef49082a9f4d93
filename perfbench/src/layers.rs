//! Per-layer micro-phases: the workload's own DAGs, programs and request
//! stream replayed through one public call at a time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use dpu_core::compiler::{self, emit, finalize, reorder, spill, step1, step2, Compiled};
use dpu_core::dag::{eval, partition, Dag, NodeId};
use dpu_core::energy;
use dpu_core::isa::Program;
use dpu_core::prelude::*;
use dpu_core::runtime::{dag_fingerprint, CacheKey, SpillLookup};
use dpu_core::sim::{self, DecodedProgram, Machine};
use dpu_core::workloads::traffic::{open_loop_schedule, ArrivalPattern, TrafficParams};

use crate::items::{Item, Reference};
use crate::rng::Rng;
use crate::run::{remove_spill_dir, seconds, RunConfig};
use crate::spec::PER_LAYER;

/// Per-layer metric values by name. Setting a name the spec does not list
/// is a bug in the benchmark and panics.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The cache counters summed over `engines`; the hit rate is the last
    /// one's (the restarted engine's beside a fresh one).
    pub fn set_cache(&mut self, engines: &[&CacheStats]) {
        let sum = |f: fn(&CacheStats) -> u64| engines.iter().map(|s| f(s) as f64).sum::<f64>();
        self.set("runtime.cache.hits", sum(|s| s.hits));
        self.set("runtime.cache.misses", sum(|s| s.misses));
        self.set("runtime.cache.decode_count", sum(|s| s.decode_count));
        self.set("runtime.cache.spill_writes", sum(|s| s.spill_writes));
        self.set("runtime.cache.spill_hits", sum(|s| s.spill_hits));
        self.set("runtime.cache.spill_rejects", sum(|s| s.spill_rejects));
        if let Some(last) = engines.last() {
            self.set("runtime.cache.hit_rate", last.hit_rate());
        }
    }

    /// The value, or 0 for a layer the workload does not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The simulated figures of one set of programs, aggregated as the
/// repository's Table III is: means of throughput and power first, then
/// ratios of the means.
#[derive(Debug, Clone, Copy)]
pub struct Simulated {
    pub gops: f64,
    pub edp_pj_ns: f64,
    pub speedup_vs_cpu: f64,
    pub power_w: f64,
    pub energy_per_op_pj: f64,
    pub latency_per_op_ns: f64,
    pub cpu_gops: f64,
}

pub fn simulated<'a>(
    config: &ArchConfig,
    runs: impl IntoIterator<Item = (&'a Dag, &'a RunResult)>,
) -> Simulated {
    let cpu = BaselineModel::cpu();
    let (mut n, mut gops, mut power, mut cpu_gops, mut e_op, mut l_op) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (dag, run) in runs {
        let m = energy::metrics(config, run);
        n += 1.0;
        gops += m.throughput_ops / 1e9;
        power += m.power_w;
        e_op += m.energy_per_op_pj;
        l_op += m.latency_per_op_ns;
        cpu_gops += cpu.evaluate(dag).throughput_gops;
    }
    assert!(n > 0.0, "no runs to summarise");
    let (gops, power, cpu_gops) = (gops / n, power / n, cpu_gops / n);
    Simulated {
        gops,
        edp_pj_ns: power / gops * 1e3 / gops,
        speedup_vs_cpu: gops / cpu_gops,
        power_w: power,
        energy_per_op_pj: e_op / n,
        latency_per_op_ns: l_op / n,
        cpu_gops,
    }
}

/// Repeats `pass` until `budget` has passed (at least once) and returns
/// the mean nanoseconds per unit, `units` being the work of one pass.
fn ns_per_unit(budget: Duration, units: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        pass();
        passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * units.max(1.0))
}

/// What the micro-phases replay.
pub struct Probe<'a> {
    pub dpu: &'a Dpu,
    pub items: &'a [Item],
    pub refs: &'a [Reference],
}

/// At most this many DAGs are probed, evenly strided over the workload's.
const MAX_PROBES: usize = 12;

/// Runs every micro-phase over `p`; each repeated one gets a hundredth of
/// the run's seconds, and spill files go to a directory of the run's own.
pub fn measure(run: &RunConfig, p: &Probe, rng: &mut Rng, m: &mut Metrics) {
    let stride = p.items.len().div_ceil(MAX_PROBES).max(1);
    let probes: Vec<(&Item, &Reference)> = p.items.iter().zip(p.refs).step_by(stride).collect();
    let cfg = &p.dpu.config;
    let nodes: f64 = probes.iter().map(|(i, _)| i.dag.len() as f64).sum();
    let instrs: f64 = probes
        .iter()
        .map(|(_, r)| r.compiled.program.len() as f64)
        .sum();
    let n = probes.len() as f64;
    let b = Duration::from_secs_f64(run.seconds / 100.0);

    // dag
    m.set(
        "dag.binarize_ns_per_node",
        ns_per_unit(b, nodes, || {
            for (i, _) in &probes {
                black_box(i.dag.binarize());
            }
        }),
    );
    m.set(
        "dag.eval_ns_per_node",
        ns_per_unit(b, nodes, || {
            for (i, _) in &probes {
                black_box(eval::evaluate(&i.dag, &i.inputs[0]).expect("inputs match"));
            }
        }),
    );
    m.set(
        "dag.fingerprint_ns_per_node",
        ns_per_unit(b, nodes, || {
            for (i, _) in &probes {
                black_box(dag_fingerprint(&i.dag));
            }
        }),
    );

    // compiler: one whole compile per probe, then the passes one by one.
    let mut identical = 0.0;
    m.set(
        "compiler.compile_ns_per_node",
        ns_per_unit(Duration::ZERO, nodes, || {
            for (i, r) in &probes {
                let again = p.dpu.compile(&i.dag).expect("compiled before");
                if again.program.pack() == r.compiled.program.pack() {
                    identical += 1.0;
                }
            }
        }),
    );
    m.set("compiler.recompile_identical_share", identical / n);
    let mut pass = PassSeconds::default();
    for (i, _) in &probes {
        pass.compile(&i.dag, p.dpu);
    }
    m.set("compiler.step1_s", pass.step1);
    m.set("compiler.place_s", pass.place);
    m.set("compiler.banks_s", pass.banks);
    m.set("compiler.emit_s", pass.emit);
    m.set("compiler.reorder_s", pass.reorder);
    m.set("compiler.spill_s", pass.spill);
    m.set("compiler.finalize_s", pass.finalize);
    let stat = |f: &dyn Fn(&compiler::CompileStats) -> f64| -> f64 {
        probes.iter().map(|(_, r)| f(&r.compiled.stats)).sum()
    };
    m.set("compiler.blocks", stat(&|s| s.blocks as f64));
    m.set("compiler.pe_utilization", stat(&|s| s.pe_utilization) / n);
    m.set(
        "compiler.bank_conflicts",
        stat(&|s| s.conflicts.total() as f64),
    );
    m.set("compiler.reorder_nops", stat(&|s| s.reorder_nops as f64));
    m.set("compiler.stall_nops", stat(&|s| s.stall_nops as f64));
    m.set("compiler.spill_stores", stat(&|s| s.spill_stores as f64));
    m.set("compiler.spill_reloads", stat(&|s| s.spill_reloads as f64));
    m.set("compiler.program_bits", stat(&|s| s.program_bits as f64));
    m.set("compiler.total_cycles", stat(&|s| s.total_cycles as f64));

    // persistence, isa, verify, decode
    let bytes: Vec<Vec<u8>> = probes.iter().map(|(_, r)| r.compiled.to_bytes()).collect();
    m.set(
        "compiler.to_bytes_ns_per_instr",
        ns_per_unit(b, instrs, || {
            for (_, r) in &probes {
                black_box(r.compiled.to_bytes());
            }
        }),
    );
    m.set(
        "compiler.from_bytes_ns_per_instr",
        ns_per_unit(b, instrs, || {
            for image in &bytes {
                black_box(Compiled::from_bytes(image).expect("own bytes decode"));
            }
        }),
    );
    let packed: Vec<Vec<u8>> = probes
        .iter()
        .map(|(_, r)| r.compiled.program.pack())
        .collect();
    m.set(
        "isa.pack_ns_per_instr",
        ns_per_unit(b, instrs, || {
            for (_, r) in &probes {
                black_box(r.compiled.program.pack());
            }
        }),
    );
    m.set(
        "isa.unpack_ns_per_instr",
        ns_per_unit(b, instrs, || {
            for ((_, r), image) in probes.iter().zip(&packed) {
                let program = &r.compiled.program;
                black_box(
                    Program::unpack(program.config, image, program.len()).expect("own image"),
                );
            }
        }),
    );
    m.set(
        "verify.verify_ns_per_instr",
        ns_per_unit(b, instrs, || {
            for (_, r) in &probes {
                black_box(r.compiled.verify().expect("compiled programs verify"));
            }
        }),
    );
    m.set(
        "sim.decode_ns_per_instr",
        ns_per_unit(b, instrs, || {
            for (_, r) in &probes {
                black_box(DecodedProgram::decode(&r.compiled.program).expect("decodes"));
            }
        }),
    );

    // sim: one reused machine over every pool entry of every probe.
    let decoded: Vec<DecodedProgram> = probes
        .iter()
        .map(|(_, r)| DecodedProgram::decode(&r.compiled.program).expect("decodes"))
        .collect();
    let requests: f64 = probes.iter().map(|(i, _)| i.inputs.len() as f64).sum();
    let cycles: f64 = probes
        .iter()
        .flat_map(|(_, r)| r.want.iter().map(|w| w.cycles as f64))
        .sum();
    let mut machine = Machine::new(*cfg);
    let per_request = ns_per_unit(b, requests, || {
        for ((i, r), d) in probes.iter().zip(&decoded) {
            for inputs in &i.inputs {
                black_box(sim::run_decoded_on(&mut machine, &r.compiled, d, inputs).expect("runs"));
            }
        }
    });
    m.set("sim.run_decoded_ns_per_request", per_request);
    m.set(
        "sim.run_decoded_ns_per_cycle",
        per_request * requests / cycles,
    );
    m.set("sim.mcycles_per_s", 1e3 * cycles / (per_request * requests));
    let interp = ns_per_unit(b, requests, || {
        for (i, r) in &probes {
            for inputs in &i.inputs {
                black_box(sim::run_on(&mut machine, &r.compiled, inputs).expect("runs"));
            }
        }
    });
    m.set("sim.interp_ns_per_cycle", interp * requests / cycles);
    m.set(
        "sim.machine_new_ns",
        ns_per_unit(b, 1.0, || {
            black_box(Machine::new(*cfg));
        }),
    );
    m.set(
        "sim.machine_reset_ns",
        ns_per_unit(b, 1.0, || {
            machine.reset();
        }),
    );
    let per_request_count = |f: &dyn Fn(&RunResult) -> u64| -> f64 {
        probes
            .iter()
            .flat_map(|(_, r)| r.want.iter().map(|w| f(w) as f64))
            .sum::<f64>()
            / requests
    };
    m.set("sim.cycles_per_request", cycles / requests);
    m.set(
        "sim.pe_arith_ops_per_request",
        per_request_count(&|w| w.activity.pe_arith_ops),
    );
    m.set(
        "sim.reg_reads_per_request",
        per_request_count(&|w| w.activity.reg_reads),
    );
    m.set(
        "sim.reg_writes_per_request",
        per_request_count(&|w| w.activity.reg_writes),
    );
    m.set(
        "sim.mem_reads_per_request",
        per_request_count(&|w| w.activity.mem_reads),
    );
    m.set(
        "sim.mem_writes_per_request",
        per_request_count(&|w| w.activity.mem_writes),
    );
    m.set(
        "sim.crossbar_hops_per_request",
        per_request_count(&|w| w.activity.crossbar_hops),
    );

    // energy and baselines
    m.set(
        "energy.metrics_ns",
        ns_per_unit(b, n, || {
            for (_, r) in &probes {
                black_box(energy::metrics(cfg, &r.want[0]));
            }
        }),
    );
    let s = simulated(cfg, probes.iter().map(|(i, r)| (&i.dag, &r.want[0])));
    m.set("energy.energy_per_op_pj", s.energy_per_op_pj);
    m.set("energy.latency_per_op_ns", s.latency_per_op_ns);
    m.set("energy.power_w", s.power_w);
    let mean_gops = |model: BaselineModel| -> f64 {
        probes
            .iter()
            .map(|(i, _)| model.evaluate(&i.dag).throughput_gops)
            .sum::<f64>()
            / n
    };
    let (gpu, v1) = (
        mean_gops(BaselineModel::gpu()),
        mean_gops(BaselineModel::dpu_v1()),
    );
    m.set("baselines.cpu_gops", s.cpu_gops);
    m.set("baselines.gpu_gops", gpu);
    m.set("baselines.dpu_v1_gops", v1);
    m.set("baselines.speedup_vs_gpu", s.gops / gpu);
    m.set("baselines.speedup_vs_dpu_v1", s.gops / v1);
    let models = [
        BaselineModel::cpu(),
        BaselineModel::gpu(),
        BaselineModel::dpu_v1(),
    ];
    m.set(
        "baselines.eval_ns_per_dag",
        ns_per_unit(b, n, || {
            for (i, _) in &probes {
                for model in &models {
                    black_box(model.evaluate(&i.dag));
                }
            }
        }),
    );

    // workloads
    m.set(
        "workloads.generate_ns_per_node",
        ns_per_unit(b, nodes, || {
            for (i, _) in &probes {
                black_box(i.source.generate());
            }
        }),
    );
    let arrivals = 10_000;
    m.set(
        "workloads.schedule_ns_per_arrival",
        ns_per_unit(b, arrivals as f64, || {
            black_box(open_loop_schedule(&TrafficParams {
                requests: arrivals,
                rate_per_sec: 1_000.0,
                pattern: ArrivalPattern::Poisson,
                families: p.items.len(),
                seed: rng.next_u64(),
                ..TrafficParams::default()
            }));
        }),
    );

    let spill_dir = run.scratch_dir("probe");
    cache_phases(p, &probes, &spill_dir, b, m);
    remove_spill_dir(&spill_dir);
    pool_phases(p, b, rng, m);

    // runtime.latency: one record per timeline, as a shard does.
    let timelines: Vec<Timeline> = (0..1024u64)
        .map(|i| Timeline {
            arrival_ns: i * 1_000,
            accepted_ns: i * 1_000 + 300 + rng.below(500) as u64,
            round_closed_ns: i * 1_000 + 1_000 + rng.below(100_000) as u64,
            execute_start_ns: i * 1_000 + 120_000 + rng.below(100_000) as u64,
            completed_ns: i * 1_000 + 300_000 + rng.below(500_000) as u64,
            deadline_ns: 0,
            service_cycles: 200 + rng.below(1_000) as u64,
        })
        .collect();
    let mut report = LatencyReport::default();
    m.set(
        "runtime.latency.record_ns",
        ns_per_unit(b, timelines.len() as f64, || {
            for t in &timelines {
                report.record(t);
            }
        }),
    );
    black_box(&report);

    // bench: what building one request costs the generator.
    let keys: Vec<DagKey> = p.refs.iter().map(|r| r.key).collect();
    m.set(
        "bench.request_build_ns",
        ns_per_unit(b, requests, || {
            for (i, _) in &probes {
                for inputs in &i.inputs {
                    black_box(Request::new(keys[0], inputs.clone()));
                }
            }
        }),
    );
}

fn cache_phases(
    p: &Probe,
    probes: &[(&Item, &Reference)],
    spill_dir: &Path,
    budget: Duration,
    m: &mut Metrics,
) {
    let cfg = &p.dpu.config;
    let n = probes.len() as f64;
    let cache = ProgramCache::new(p.dpu.options.clone());
    let ((), cold) = seconds(|| {
        for (i, r) in probes {
            black_box(cache.get_or_compile(&i.dag, r.key, cfg).expect("compiles"));
        }
    });
    m.set("runtime.cache.miss_compile_s", cold);
    m.set(
        "runtime.cache.hit_ns",
        ns_per_unit(budget, n, || {
            for (i, r) in probes {
                let compiled = cache.get_or_compile(&i.dag, r.key, cfg).expect("cached");
                let key = CacheKey {
                    dag: r.key,
                    config: *cfg,
                };
                black_box(cache.get_decoded(key, &compiled).expect("decodes"));
            }
        }),
    );
    let store = SpillStore::new(spill_dir, &p.dpu.options).expect("spill dir is writable");
    let keys: Vec<CacheKey> = probes
        .iter()
        .map(|(_, r)| CacheKey {
            dag: r.key,
            config: *cfg,
        })
        .collect();
    m.set(
        "runtime.cache.spill_store_ns_per_program",
        ns_per_unit(budget, n, || {
            for ((_, r), key) in probes.iter().zip(&keys) {
                store.store(key, &r.compiled).expect("spill write");
            }
        }),
    );
    m.set(
        "runtime.cache.spill_load_ns_per_program",
        ns_per_unit(budget, n, || {
            for key in &keys {
                assert!(
                    matches!(store.load(key), SpillLookup::Loaded(_)),
                    "own spill must load"
                );
            }
        }),
    );
}

fn pool_phases(p: &Probe, budget: Duration, rng: &mut Rng, m: &mut Metrics) {
    let engine = p.dpu.engine(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    });
    for item in p.items {
        let key = engine.register(item.dag.clone());
        engine.warm(key).expect("compiled before");
    }
    // The workload's request mix, cut into rounds of the dispatcher's
    // default batch size.
    let round = DispatchOptions::default().max_batch;
    let stream: Vec<Request> = (0..round * 16)
        .map(|_| {
            let f = rng.below(p.items.len());
            let inputs = &p.items[f].inputs;
            Request::new(p.refs[f].key, inputs[rng.below(inputs.len())].clone())
        })
        .collect();
    let rounds: Vec<Vec<&Request>> = stream.chunks(round).map(|c| c.iter().collect()).collect();
    let groups: usize = rounds
        .iter()
        .map(|r| {
            let mut keys: Vec<DagKey> = r.iter().map(|q| q.dag).collect();
            keys.sort();
            keys.dedup();
            keys.len()
        })
        .sum();
    m.set(
        "runtime.pool.groups_per_round",
        groups as f64 / rounds.len() as f64,
    );
    let mut machine = Machine::new(p.dpu.config);
    m.set(
        "runtime.pool.execute_round_ns_per_request",
        ns_per_unit(budget, stream.len() as f64, || {
            for r in &rounds {
                black_box(engine.execute_round(&mut machine, r));
            }
        }),
    );
    m.set(
        "runtime.pool.execute_ns_per_request",
        ns_per_unit(budget, stream.len() as f64, || {
            for r in &stream {
                black_box(engine.execute(&mut machine, r).expect("runs"));
            }
        }),
    );
}

/// Seconds per compiler pass, the passes called in the driver's order.
#[derive(Debug, Default)]
struct PassSeconds {
    step1: f64,
    place: f64,
    banks: f64,
    emit: f64,
    reorder: f64,
    spill: f64,
    finalize: f64,
}

impl PassSeconds {
    fn compile(&mut self, dag: &Dag, dpu: &Dpu) {
        let (cfg, opts) = (&dpu.config, &dpu.options);
        let (bin, map) = dag.binarize();
        let outputs: Vec<NodeId> = {
            let mut seen = std::collections::HashSet::new();
            dag.sinks()
                .map(|s| map[s.index()])
                .filter(|o| seen.insert(*o))
                .collect()
        };
        let (raw, t) = seconds(|| {
            let mut mapped = vec![false; bin.len()];
            if bin.len() > opts.partition_threshold {
                let mut all = Vec::new();
                for part in &partition::partition(&bin, opts.partition_threshold) {
                    all.extend(step1::decompose(&bin, cfg, Some(&part.nodes), &mut mapped));
                }
                all
            } else {
                step1::decompose(&bin, cfg, None, &mut mapped)
            }
        });
        self.step1 += t;
        let (blocks, t) = seconds(|| {
            let needs = step2::compute_needs_store(&bin, &raw, &outputs);
            step2::place_blocks(&bin, cfg, raw, &needs)
        });
        self.place += t;
        let (assign, t) = seconds(|| {
            step2::assign_banks(&bin, cfg, &blocks, &outputs, opts.bank_policy, opts.seed)
        });
        self.banks += t;
        let (emitted, t) = seconds(|| emit::emit(&bin, cfg, &blocks, &assign, &outputs));
        self.emit += t;
        let emitted = emitted.expect("compiled before");
        let ((reordered, _), t) = seconds(|| reorder::reorder(cfg, emitted.instrs, opts.window));
        self.reorder += t;
        let (spilled, t) = seconds(|| {
            spill::insert_spills_with(cfg, reordered, emitted.layout.spill_base, opts.spill_policy)
        });
        self.spill += t;
        let (spilled, _) = spilled.expect("compiled before");
        let (fin, t) = seconds(|| finalize::finalize(cfg, &spilled));
        self.finalize += t;
        black_box(fin.expect("compiled before"));
    }
}
