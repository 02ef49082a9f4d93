//! One function per table/figure of the paper's evaluation.
//!
//! Each function regenerates the corresponding result from scratch
//! (workload generation → compile → simulate → measure) and renders the
//! same rows/series the paper reports, returning the text. The
//! `all_experiments` binary runs them by their [`experiments`] registry
//! names (all of them when given none).

use dpu_core::baselines::cpu::CpuModel;
use dpu_core::baselines::dpu_v1::DpuV1Model;
use dpu_core::baselines::gpu::GpuModel;
use dpu_core::baselines::spatial;
use dpu_core::baselines::spu::SpuModel;
use dpu_core::compiler::{compile, compile_with_bounds, BankPolicy, CompileOptions, SpillPolicy};
use dpu_core::dse;
use dpu_core::energy;
use dpu_core::prelude::*;
use dpu_core::sim::Machine;
use dpu_core::workloads::suite;

use crate::{
    env_scale, f1, f2, gops, load_large_suite, load_small_suite, measure, render_table, Workload,
};

/// Table I: workload statistics (published vs generated) and compile time
/// on the min-EDP design.
pub fn table1_workloads() -> String {
    let scale = env_scale(1.0);
    let dpu = Dpu::min_edp();
    let mut rows = Vec::new();
    for w in load_small_suite(scale) {
        let stats = w.spec.stats(&w.dag);
        let t0 = std::time::Instant::now();
        let _ = dpu.compile(&w.dag).expect("suite compiles");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rows.push(vec![
            w.spec.class.label().to_string(),
            w.spec.name.to_string(),
            w.spec.published_nodes.to_string(),
            stats.nodes.to_string(),
            w.spec.published_longest_path.to_string(),
            stats.longest_path.to_string(),
            format!("{:.0}", stats.n_over_l),
            f1(ms),
        ]);
    }
    for spec in suite::large_pc_suite() {
        let large_scale = env_scale(0.125);
        let dag = spec.generate_scaled(large_scale);
        let stats = spec.stats(&dag);
        rows.push(vec![
            spec.class.label().to_string(),
            format!("{} (x{large_scale})", spec.name),
            spec.published_nodes.to_string(),
            stats.nodes.to_string(),
            spec.published_longest_path.to_string(),
            stats.longest_path.to_string(),
            format!("{:.0}", stats.n_over_l),
            "-".to_string(),
        ]);
    }
    render_table(
        &format!("Table I: benchmarked DAGs (scale {scale})"),
        &[
            "class",
            "workload",
            "n(paper)",
            "n(ours)",
            "l(paper)",
            "l(ours)",
            "n/l",
            "compile ms",
        ],
        &rows,
    )
}

/// Table II: area and power breakdown of the min-EDP design, next to the
/// paper's published 28nm numbers.
pub fn table2_area_power() -> String {
    let scale = env_scale(1.0);
    let dpu = Dpu::min_edp();
    // Aggregate activity over PC workloads (the paper's Table II annotates
    // switching activity from the same benchmark mix; SpTRSV-heavy mixes
    // shift power toward the data memory).
    let picks = ["tretail", "mnist"];
    let mut act = dpu_core::sim::Activity::default();
    let mut cycles = 0u64;
    for w in load_small_suite(scale) {
        if !picks.contains(&w.spec.name) {
            continue;
        }
        let r = measure(&dpu, &w);
        act.absorb(&r.run.activity);
        cycles += r.run.cycles;
    }
    let rows_model = energy::table2(&dpu.config, &act, cycles);
    // Paper Table II values (area mm², power mW).
    let paper: &[(&str, f64, f64)] = &[
        ("PEs", 0.13, 11.9),
        ("Pipelining registers", 0.04, 8.0),
        ("Input interconnect", 0.14, 10.0),
        ("Output interconnect", 0.01, 0.5),
        ("Register banks", 0.35, 24.0),
        ("Wr addr generator", 0.03, 7.8),
        ("Instr fetch", 0.06, 7.0),
        ("Decode", 0.04, 2.6),
        ("Control pipelining registers", 0.01, 2.7),
        ("Instruction memory", 1.20, 27.7),
        ("Data memory", 1.20, 6.7),
    ];
    let mut rows = Vec::new();
    let (mut ta, mut tp, mut tap, mut tpp) = (0.0, 0.0, 0.0, 0.0);
    for (row, &(name, pa, pp)) in rows_model.iter().zip(paper) {
        debug_assert_eq!(row.name, name);
        rows.push(vec![
            name.to_string(),
            f2(row.area_mm2),
            f2(pa),
            f1(row.power_mw),
            f1(pp),
        ]);
        ta += row.area_mm2;
        tp += row.power_mw;
        tap += pa;
        tpp += pp;
    }
    rows.push(vec!["TOTAL".into(), f2(ta), f2(tap), f1(tp), f1(tpp)]);
    render_table(
        "Table II: area & power of the min-EDP design (ours vs paper)",
        &["component", "mm2", "mm2(paper)", "mW", "mW(paper)"],
        &rows,
    )
}

/// Table III + Fig. 14(a): small-suite platform comparison.
pub fn table3_small(scale: f64) -> String {
    let dpu = Dpu::min_edp();
    let cpu = CpuModel::default();
    let gpu = GpuModel::default();
    let dpu1 = DpuV1Model::default();
    let mut rows = Vec::new();
    let (mut g2, mut g1, mut gc, mut gg) = (0.0, 0.0, 0.0, 0.0);
    let (mut p2sum, mut n) = (0.0, 0.0);
    for w in load_small_suite(scale) {
        let r = measure(&dpu, &w);
        let v2 = gops(&r.run);
        let v1 = dpu1.evaluate(&w.dag).throughput_gops;
        let c = cpu.evaluate(&w.dag).throughput_gops;
        let g = gpu.evaluate(&w.dag).throughput_gops;
        rows.push(vec![w.spec.name.to_string(), f2(v2), f2(v1), f2(c), f2(g)]);
        g2 += v2;
        g1 += v1;
        gc += c;
        gg += g;
        p2sum += r.metrics.power_w;
        n += 1.0;
    }
    rows.push(vec![
        "MEAN".into(),
        f2(g2 / n),
        f2(g1 / n),
        f2(gc / n),
        f2(gg / n),
    ]);
    let mut out = render_table(
        &format!("Fig. 14(a) / Table III: throughput in GOPS (scale {scale})"),
        &["workload", "DPU-v2", "DPU", "CPU", "GPU"],
        &rows,
    );
    let cpu_gops = gc / n;
    out.push_str(&format!(
        "speedups over CPU — DPU-v2: {:.1}x  DPU: {:.1}x  GPU: {:.2}x (paper: 3.5x / 2.6x / 0.3x)\n",
        g2 / n / cpu_gops,
        g1 / n / cpu_gops,
        gg / n / cpu_gops,
    ));
    // EDP per op computed uniformly from suite-mean power and throughput,
    // matching Table III's aggregation: (P / GOPS) * (1 / GOPS) in pJ*ns.
    let edp = |power_w: f64, gops_v: f64| power_w / gops_v * 1e3 / gops_v;
    out.push_str(&format!(
        "power W — DPU-v2: {:.2} (paper 0.11)  DPU: {:.2} (paper 0.07)  CPU: {} (paper 55)  GPU: {} (paper 98)\n",
        p2sum / n,
        DpuV1Model::default().power_w,
        CpuModel::default().power_w,
        GpuModel::default().power_w,
    ));
    out.push_str(&format!(
        "EDP pJ*ns — DPU-v2: {:.1} (paper 6.0)  DPU: {:.1} (paper 7.1)  CPU: {:.0}k (paper 38k)  GPU: {:.0}k (paper 1000k)\n",
        edp(p2sum / n, g2 / n),
        edp(DpuV1Model::default().power_w, g1 / n),
        edp(CpuModel::default().power_w, gc / n) / 1e3,
        edp(GpuModel::default().power_w, gg / n) / 1e3,
    ));
    out
}

/// Table III + Fig. 14(b): large-PC platform comparison.
pub fn table3_large(scale: f64) -> String {
    let dpu = Dpu::large();
    let cpu = CpuModel::default();
    let gpu = GpuModel::large_config();
    let spu = SpuModel::default();
    let mut rows = Vec::new();
    let (mut g2, mut gs, mut gcs, mut gc, mut gg, mut n) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for w in load_large_suite(scale) {
        // The paper benchmarks DPU-v2 (L) with 4 batch-parallel cores
        // performing batch execution (§V-C2).
        let compiled = dpu
            .compile(&w.dag)
            .unwrap_or_else(|e| panic!("{}: {e}", w.spec.name));
        let batch: Vec<Vec<f32>> = (0..4)
            .map(|k| {
                crate::inputs_for(&w.spec, &w.dag)
                    .iter()
                    .map(|v| v - 0.001 * k as f32)
                    .collect()
            })
            .collect();
        let b = dpu_core::sim::run_batch(&compiled, &batch, 4)
            .unwrap_or_else(|e| panic!("{}: {e}", w.spec.name));
        let v2 = b.throughput_ops(energy::calib::FREQ_HZ) / 1e9;
        let s = spu.evaluate(&w.dag).throughput_gops;
        let cs = spu.cpu_baseline(&w.dag).throughput_gops;
        let c = cpu.evaluate(&w.dag).throughput_gops;
        let g = gpu.evaluate(&w.dag).throughput_gops;
        rows.push(vec![
            w.spec.name.to_string(),
            f2(v2),
            f2(s),
            f2(cs),
            f2(c),
            f2(g),
        ]);
        g2 += v2;
        gs += s;
        gcs += cs;
        gc += c;
        gg += g;
        n += 1.0;
    }
    rows.push(vec![
        "MEAN".into(),
        f2(g2 / n),
        f2(gs / n),
        f2(gcs / n),
        f2(gc / n),
        f2(gg / n),
    ]);
    let mut out = render_table(
        &format!("Fig. 14(b) / Table III: large PCs, GOPS (scale {scale}, DPU-v2 (L) x4 cores)"),
        &["workload", "DPU-v2(L)", "SPU", "CPU_SPU", "CPU", "GPU"],
        &rows,
    );
    out.push_str(&format!(
        "speedups over CPU_SPU — DPU-v2(L): {:.1}x  SPU: {:.1}x  GPU: {:.1}x (paper: 20.7x / 13.3x / 2.8x)\n",
        g2 / gcs,
        gs / gcs,
        gg / gcs,
    ));
    out
}

/// Fig. 1(c): CPU/GPU throughput vs DAG size.
pub fn fig01_throughput() -> String {
    let scale = env_scale(1.0);
    let cpu = CpuModel::default();
    let gpu = GpuModel::default();
    let mut rows = Vec::new();
    let mut all = load_small_suite(scale);
    all.extend(load_large_suite(env_scale(0.125)));
    all.sort_by_key(|w| w.dag.len());
    for w in &all {
        rows.push(vec![
            w.spec.name.to_string(),
            w.dag.len().to_string(),
            f2(cpu.evaluate(&w.dag).throughput_gops),
            f2(gpu.evaluate(&w.dag).throughput_gops),
        ]);
    }
    let mut out = render_table(
        "Fig. 1(c): CPU/GPU throughput vs DAG size (GOPS)",
        &["workload", "nodes", "CPU", "GPU"],
        &rows,
    );
    out.push_str(
        "paper shape: both far below peak; GPU < CPU below ~100k nodes, GPU > CPU above\n",
    );
    out
}

/// Fig. 3(c): peak utilization of systolic arrays vs PE trees.
pub fn fig03_utilization() -> String {
    let scale = env_scale(0.5);
    let dags: Vec<Dag> = load_small_suite(scale)
        .into_iter()
        .filter(|w| ["tretail", "mnist", "bp_200", "west2021"].contains(&w.spec.name))
        .map(|w| w.dag)
        .collect();
    let mut rows = Vec::new();
    for inputs in [2u32, 4, 8, 16] {
        let depth = inputs.trailing_zeros().max(1);
        let tree: f64 = dags
            .iter()
            .map(|d| spatial::tree_peak_utilization(d, depth))
            .sum::<f64>()
            / dags.len() as f64;
        let syst: f64 = dags
            .iter()
            .map(|d| spatial::systolic_peak_utilization(d, inputs, 64, 9))
            .sum::<f64>()
            / dags.len() as f64;
        rows.push(vec![
            inputs.to_string(),
            format!("{:.0}%", tree * 100.0),
            format!("{:.0}%", syst * 100.0),
        ]);
    }
    let mut out = render_table(
        "Fig. 3(c): peak datapath utilization",
        &["inputs", "tree", "systolic"],
        &rows,
    );
    out.push_str("paper shape: tree stays ~100%, systolic collapses by 8-16 inputs\n");
    out
}

/// Fig. 6(e): bank conflicts per interconnect topology.
pub fn fig06_interconnect() -> String {
    let scale = env_scale(0.5);
    let workloads: Vec<Workload> = load_small_suite(scale)
        .into_iter()
        .filter(|w| ["tretail", "mnist", "bp_200", "rdb968"].contains(&w.spec.name))
        .collect();
    let opts = CompileOptions::default();
    let mut totals: Vec<(Topology, u64, u64)> = Vec::new();
    for topo in [
        Topology::CrossbarBoth,
        Topology::CrossbarInPerLayerOut,
        Topology::CrossbarInOnePeOut,
    ] {
        let mut cfg = ArchConfig::min_edp();
        cfg.topology = topo;
        let (mut conflicts, mut cycles) = (0u64, 0u64);
        for w in &workloads {
            let c = compile(&w.dag, &cfg, &opts)
                .unwrap_or_else(|e| panic!("{}: {topo}: {e}", w.spec.name));
            conflicts += c.stats.conflicts.total();
            cycles += c.stats.total_cycles;
        }
        totals.push((topo, conflicts, cycles));
    }
    // The paper reports conflicts normalized to the crossbar design and
    // the resulting latency overhead ("(b) increases latency by 1%").
    let base_cycles = totals[0].2 as f64;
    let rows: Vec<Vec<String>> = totals
        .iter()
        .map(|&(t, c, cy)| {
            vec![
                t.to_string(),
                c.to_string(),
                cy.to_string(),
                format!("{:+.1}%", (cy as f64 / base_cycles - 1.0) * 100.0),
            ]
        })
        .collect();
    let mut out = render_table(
        "Fig. 6(e): bank conflicts & latency by output-interconnect topology",
        &["topology", "conflicts", "cycles", "latency vs (a)"],
        &rows,
    );
    out.push_str(
        "paper: conflicts (a) 1x, (b) 2.4x, (c) 19x; (b) costs +1% latency, -9% power; (d) not evaluated\n",
    );
    out
}

/// Fig. 7(a): instruction lengths for the example configuration.
pub fn fig07_instr_lengths() -> String {
    use dpu_core::isa::encode::kind_bits;
    use dpu_core::isa::InstrKind;
    let cfg = ArchConfig::new(3, 16, 32).expect("paper example config");
    let paper = [
        (InstrKind::Load, 52u32),
        (InstrKind::Store, 132),
        (InstrKind::StoreK, 56),
        (InstrKind::CopyK, 72),
        (InstrKind::Exec, 272),
        (InstrKind::Nop, 4),
    ];
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(k, p)| {
            vec![
                k.name().to_string(),
                kind_bits(&cfg, k).to_string(),
                p.to_string(),
            ]
        })
        .collect();
    render_table(
        "Fig. 7(a): instruction lengths in bits (D=3, B=16, R=32)",
        &["instruction", "ours", "paper"],
        &rows,
    )
}

/// Fig. 10(b): bank conflicts, conflict-aware vs random allocation.
pub fn fig10_conflicts() -> String {
    let scale = env_scale(0.5);
    let workloads: Vec<Workload> = load_small_suite(scale)
        .into_iter()
        .filter(|w| ["tretail", "mnist", "nltcs", "bp_200"].contains(&w.spec.name))
        .collect();
    let cfg = ArchConfig::min_edp();
    let mut rows = Vec::new();
    let (mut tot_ours, mut tot_rand) = (0u64, 0u64);
    for w in &workloads {
        let ours = compile(&w.dag, &cfg, &CompileOptions::default())
            .expect("compiles")
            .stats
            .conflicts
            .total();
        let rand_opts = CompileOptions {
            bank_policy: BankPolicy::Random,
            ..Default::default()
        };
        let random = compile(&w.dag, &cfg, &rand_opts)
            .expect("compiles")
            .stats
            .conflicts
            .total();
        rows.push(vec![
            w.spec.name.to_string(),
            ours.to_string(),
            random.to_string(),
            format!("{:.0}x", random as f64 / ours.max(1) as f64),
        ]);
        tot_ours += ours;
        tot_rand += random;
    }
    rows.push(vec![
        "TOTAL".into(),
        tot_ours.to_string(),
        tot_rand.to_string(),
        format!("{:.0}x", tot_rand as f64 / tot_ours.max(1) as f64),
    ]);
    let mut out = render_table(
        "Fig. 10(b): bank conflicts, conflict-aware vs random",
        &["workload", "ours", "random", "ratio"],
        &rows,
    );
    out.push_str("paper: random/ours = 292x\n");
    out
}

/// Fig. 10(c,d): active registers per bank over time, with and without
/// spilling pressure (R=64 vs unconstrained).
///
/// The one experiment that single-steps the oracle interpreter
/// (`Machine::step`): occupancy is sampled *between* instructions, which
/// the run-to-completion decoded executor has no hook for. It plots
/// occupancy against the issue cycle; no activity counter or output from
/// here feeds a reproduced number.
pub fn fig10_occupancy() -> String {
    let scale = env_scale(0.5);
    let w = load_small_suite(scale)
        .into_iter()
        .find(|w| w.spec.name == "msnbc")
        .expect("suite contains msnbc");
    let mut out = String::new();
    for (label, r) in [
        ("without spilling (R=512)", 512u32),
        ("with spilling (R=32)", 32),
    ] {
        let cfg = ArchConfig::new(3, 64, r).expect("valid");
        let dpu = Dpu::new(cfg);
        let compiled = dpu.compile(&w.dag).expect("compiles");
        let mut m = Machine::new(cfg);
        for (&(row, col), &v) in compiled.layout.input_slots.iter().zip(&w.inputs) {
            if row != u32::MAX {
                m.poke(row, col, v).expect("in range");
            }
        }
        let total_instrs = compiled.program.instrs.len();
        let step_size = (total_instrs / 40).max(1);
        let mut samples: Vec<(u64, u32, f64)> = Vec::new();
        for (i, ins) in compiled.program.instrs.iter().enumerate() {
            m.step(ins).expect("no hazards");
            if i % step_size == 0 {
                let occ = m.occupancy_per_bank();
                let max = occ.iter().copied().max().unwrap_or(0);
                let mean = occ.iter().sum::<u32>() as f64 / occ.len() as f64;
                samples.push((m.cycle(), max, mean));
            }
        }
        out.push_str(&format!(
            "-- {label}: spills={} peak/bank={} --\n",
            compiled.stats.spill_stores,
            samples.iter().map(|s| s.1).max().unwrap_or(0),
        ));
        out.push_str("cycle  max/bank  mean/bank\n");
        for (c, mx, mean) in samples.iter().step_by(5) {
            out.push_str(&format!("{c:>6} {mx:>8} {mean:>9.1}\n"));
        }
    }
    out.push_str("paper Fig. 10(c,d): balanced occupancy; spilling caps it at R\n");
    out
}

/// Fig. 11: the 48-point design-space exploration.
pub fn fig11_dse() -> String {
    let scale = env_scale(0.12);
    let picks = ["tretail", "mnist", "bp_200", "rdb968"];
    let workloads: Vec<(Dag, Vec<f32>)> = load_small_suite(scale)
        .into_iter()
        .filter(|w| picks.contains(&w.spec.name))
        .map(|w| (w.dag, w.inputs))
        .collect();
    let grid = dse::paper_grid();
    let points = dse::explore(&grid, &workloads, 8).expect("sweep succeeds");
    let mut rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.depth.to_string(),
                p.banks.to_string(),
                p.regs.to_string(),
                f2(p.latency_per_op_ns),
                f1(p.energy_per_op_pj),
                f1(p.edp),
                f2(p.area_mm2),
            ]
        })
        .collect();
    let opt = dse::optima(&points);
    rows.push(vec![
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    for (name, p) in [
        ("min-latency", opt.min_latency),
        ("min-energy", opt.min_energy),
        ("min-EDP", opt.min_edp),
    ] {
        rows.push(vec![
            format!("{name}: D={}", p.depth),
            format!("B={}", p.banks),
            format!("R={}", p.regs),
            f2(p.latency_per_op_ns),
            f1(p.energy_per_op_pj),
            f1(p.edp),
            f2(p.area_mm2),
        ]);
    }
    let mut out = render_table(
        &format!(
            "Fig. 11: design-space exploration (scale {scale}, {} workloads)",
            picks.len()
        ),
        &["D", "B", "R", "ns/op", "pJ/op", "EDP", "mm2"],
        &rows,
    );
    out.push_str("paper optima: min-latency (3,64,128); min-energy (3,16,64); min-EDP (3,64,32)\n");
    out
}

/// Fig. 12: latency-vs-energy view of the same sweep with the min-EDP
/// iso-curve.
pub fn fig12_pareto() -> String {
    let scale = env_scale(0.12);
    let picks = ["tretail", "mnist", "bp_200", "rdb968"];
    let workloads: Vec<(Dag, Vec<f32>)> = load_small_suite(scale)
        .into_iter()
        .filter(|w| picks.contains(&w.spec.name))
        .map(|w| (w.dag, w.inputs))
        .collect();
    let points = dse::explore(&dse::paper_grid(), &workloads, 8).expect("sweep succeeds");
    let opt = dse::optima(&points);
    let min_edp = opt.min_edp.edp;
    let mut rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let on_curve = min_edp / p.energy_per_op_pj; // latency on iso-EDP
            vec![
                format!("({},{},{})", p.depth, p.banks, p.regs),
                f1(p.energy_per_op_pj),
                f2(p.latency_per_op_ns),
                f2(on_curve),
            ]
        })
        .collect();
    rows.sort_by(|a, b| {
        a[1].parse::<f64>()
            .unwrap()
            .partial_cmp(&b[1].parse::<f64>().unwrap())
            .unwrap()
    });
    let mut out = render_table(
        "Fig. 12: energy vs latency with min-EDP iso-curve",
        &["(D,B,R)", "pJ/op", "ns/op", "iso-EDP ns/op"],
        &rows,
    );
    out.push_str(&format!(
        "min-EDP point: (D={}, B={}, R={}), EDP {:.1} pJ*ns\n",
        opt.min_edp.depth, opt.min_edp.banks, opt.min_edp.regs, min_edp
    ));
    out
}

/// Fig. 13: instruction-category breakdown per workload.
pub fn fig13_instr_breakdown() -> String {
    let scale = env_scale(1.0);
    let dpu = Dpu::min_edp();
    let mut rows = Vec::new();
    for w in load_small_suite(scale) {
        let c = dpu.compile(&w.dag).expect("compiles");
        let b = c.program.breakdown();
        let f = b.fractions();
        rows.push(vec![
            w.spec.name.to_string(),
            format!("{:.0}%", f[0] * 100.0),
            format!("{:.0}%", f[1] * 100.0),
            format!("{:.0}%", f[2] * 100.0),
            format!("{:.0}%", f[3] * 100.0),
            format!("{:.0}%", f[4] * 100.0),
            b.total().to_string(),
        ]);
    }
    render_table(
        &format!("Fig. 13: instruction breakdown (scale {scale})"),
        &["workload", "exec", "copy", "load", "store", "nop", "total"],
        &rows,
    )
}

/// The compiler's own bounds per small-suite workload on the min-EDP
/// design: how far the longest `exec` chain is from `⌈l/D⌉` (step 1),
/// how far step 3 lands from max(instructions, critical path), and how
/// much of the final count is spill traffic (step 4).
pub fn schedule_bounds() -> String {
    let scale = env_scale(1.0);
    let dpu = Dpu::min_edp();
    let d = u64::from(dpu.config.depth);
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    let mut rows = Vec::new();
    let (mut floor_sum, mut after_sum, mut final_sum) = (0u64, 0u64, 0u64);
    let (mut gops_sum, mut perfect_sum, mut n) = (0.0, 0.0, 0.0);
    for w in load_small_suite(scale) {
        let (c, b) = compile_with_bounds(&w.dag, &dpu.config, &dpu.options).expect("compiles");
        let run = dpu.execute(&c, &w.inputs).expect("runs");
        let levels = u64::from(c.bin_dag.longest_path_len());
        let execs = levels.div_ceil(d);
        let floor = b.instrs_into_reorder.max(b.critical_path_cycles);
        let after = b.instrs_into_reorder + c.stats.reorder_nops;
        let total = c.stats.total_cycles;
        rows.push(vec![
            w.spec.name.to_string(),
            levels.to_string(),
            execs.to_string(),
            b.exec_chain.to_string(),
            format!("{:.1}x", ratio(b.exec_chain, execs)),
            b.depth_bound_cycles.to_string(),
            b.critical_path_cycles.to_string(),
            b.instrs_into_reorder.to_string(),
            after.to_string(),
            total.to_string(),
            format!("{:.0}%", ratio(floor, total) * 100.0),
            format!("{:.0}%", ratio(total - after, total) * 100.0),
        ]);
        floor_sum += floor;
        after_sum += after;
        final_sum += total;
        gops_sum += gops(&run);
        // A perfect step 3 with free spills runs at the floor.
        perfect_sum += gops(&run) * ratio(total, floor);
        n += 1.0;
    }
    let dash = || "-".to_string();
    rows.push(vec![
        "SUITE".into(),
        dash(),
        dash(),
        dash(),
        dash(),
        dash(),
        dash(),
        dash(),
        after_sum.to_string(),
        final_sum.to_string(),
        format!("{:.0}%", ratio(floor_sum, final_sum) * 100.0),
        format!("{:.0}%", ratio(final_sum - after_sum, final_sum) * 100.0),
    ]);
    let cfg = &dpu.config;
    let mut out = render_table(
        &format!(
            "Schedule bounds on ({},{},{}) (scale {scale})",
            cfg.depth, cfg.banks, cfg.regs_per_bank
        ),
        &[
            "workload",
            "l",
            "l/D",
            "exec chain",
            "chain/(l/D)",
            "depth bound",
            "critical path",
            "instrs",
            "after step 3",
            "final",
            "efficiency",
            "spill share",
        ],
        &rows,
    );
    out.push_str(&format!(
        "Table III DPU-v2 mean: {:.2} GOPS; at max(instrs, critical path) per row: {:.2} GOPS\n",
        gops_sum / n,
        perfect_sum / n,
    ));
    out.push_str(
        "efficiency: max(instrs, critical path) / final; spill share: (final - after step 3) / final\n",
    );
    out
}

/// §III-B: program-size reduction from the automatic write-address policy.
pub fn autowrite_reduction() -> String {
    let scale = env_scale(0.5);
    let dpu = Dpu::min_edp();
    let mut rows = Vec::new();
    let (mut ours, mut explicit) = (0u64, 0u64);
    for w in load_small_suite(scale) {
        let c = dpu.compile(&w.dag).expect("compiles");
        let a = c.stats.program_bits;
        let b = c.stats.program_bits_explicit;
        rows.push(vec![
            w.spec.name.to_string(),
            a.to_string(),
            b.to_string(),
            format!("{:.0}%", (1.0 - a as f64 / b as f64) * 100.0),
        ]);
        ours += a;
        explicit += b;
    }
    rows.push(vec![
        "TOTAL".into(),
        ours.to_string(),
        explicit.to_string(),
        format!("{:.0}%", (1.0 - ours as f64 / explicit as f64) * 100.0),
    ]);
    let mut out = render_table(
        "Automatic write addressing: program-size reduction (§III-B)",
        &["workload", "bits (auto)", "bits (explicit)", "reduction"],
        &rows,
    );
    out.push_str("paper: ~30% average reduction\n");
    out
}

/// §IV-E: total memory footprint vs a CSR representation.
pub fn footprint_reduction() -> String {
    let scale = env_scale(0.5);
    let dpu = Dpu::min_edp();
    let mut rows = Vec::new();
    let (mut ours, mut csr) = (0u64, 0u64);
    for w in load_small_suite(scale) {
        let c = dpu.compile(&w.dag).expect("compiles");
        let fp = c.stats.footprint;
        rows.push(vec![
            w.spec.name.to_string(),
            (fp.total_bits() / 8).to_string(),
            (fp.csr_bits / 8).to_string(),
            format!("{:.0}%", fp.reduction_vs_csr() * 100.0),
        ]);
        ours += fp.total_bits();
        csr += fp.csr_bits;
    }
    rows.push(vec![
        "TOTAL".into(),
        (ours / 8).to_string(),
        (csr / 8).to_string(),
        format!("{:.0}%", (1.0 - ours as f64 / csr as f64) * 100.0),
    ]);
    let mut out = render_table(
        "Memory footprint vs CSR (§IV-E), bytes",
        &["workload", "ours", "CSR", "reduction"],
        &rows,
    );
    out.push_str("paper: 48% smaller than CSR on average\n");
    out
}

/// Ablation study of the compiler's design choices (DESIGN.md §4), each
/// knob varied in isolation on tretail and rdb968 and measured in
/// simulated cycles:
///
/// 1. reordering window (§IV-C) — 1 (off) / 8 / 64 / 300 (paper);
/// 2. spill victim policy (§IV-D) — Belady / nearest-next-use / arbitrary;
/// 3. bank allocation (§IV-B) — conflict-aware vs random;
/// 4. interconnect topology (§III-C) — crossbar vs per-layer vs one-PE.
pub fn ablations() -> String {
    let scale = env_scale(0.5);
    let workloads: Vec<Workload> = load_small_suite(scale)
        .into_iter()
        .filter(|w| ["tretail", "rdb968"].contains(&w.spec.name))
        .collect();
    // Total cycles and spill + copy traffic over both workloads.
    let totals = |cfg: &ArchConfig, opts: &CompileOptions| {
        workloads.iter().fold((0u64, 0u64), |(cy, tr), w| {
            let c = compile(&w.dag, cfg, opts).unwrap_or_else(|e| panic!("{}: {e}", w.spec.name));
            (
                cy + c.stats.total_cycles,
                tr + c.stats.spill_stores + c.stats.conflicts.copies_inserted,
            )
        })
    };
    let cfg = ArchConfig::min_edp();
    let mut out = String::new();

    // 1. Reordering window.
    let rows: Vec<Vec<String>> = [1usize, 8, 64, 300]
        .into_iter()
        .map(|window| {
            let opts = CompileOptions {
                window,
                ..Default::default()
            };
            vec![window.to_string(), totals(&cfg, &opts).0.to_string()]
        })
        .collect();
    out.push_str(&render_table(
        "Ablation 1: reordering window (§IV-C)",
        &["window", "total cycles"],
        &rows,
    ));
    out.push_str("expected: window 1 pays a nop for every hazard; 300 is the paper's choice\n\n");

    // 2. Spill policy (small R to force pressure).
    let tight = ArchConfig::new(3, 64, 16).expect("valid");
    let rows: Vec<Vec<String>> = [
        ("furthest-next-use (Belady)", SpillPolicy::FurthestNextUse),
        ("nearest-next-use", SpillPolicy::NearestNextUse),
        ("arbitrary", SpillPolicy::Arbitrary),
    ]
    .into_iter()
    .map(|(name, spill_policy)| {
        let opts = CompileOptions {
            spill_policy,
            ..Default::default()
        };
        let (total, traffic) = totals(&tight, &opts);
        vec![name.to_string(), total.to_string(), traffic.to_string()]
    })
    .collect();
    out.push_str(&render_table(
        "Ablation 2: spill victim policy at R=16 (§IV-D)",
        &["policy", "total cycles", "spill+copy traffic"],
        &rows,
    ));
    out.push_str("expected: compile-time lookahead (Belady) minimizes traffic\n\n");

    // 3. Bank allocation policy.
    let rows: Vec<Vec<String>> = [
        ("conflict-aware (Algorithm 2)", BankPolicy::ConflictAware),
        ("random", BankPolicy::Random),
    ]
    .into_iter()
    .map(|(name, bank_policy)| {
        let opts = CompileOptions {
            bank_policy,
            ..Default::default()
        };
        let (total, traffic) = totals(&cfg, &opts);
        vec![name.to_string(), total.to_string(), traffic.to_string()]
    })
    .collect();
    out.push_str(&render_table(
        "Ablation 3: bank allocation (§IV-B)",
        &["policy", "total cycles", "spill+copy traffic"],
        &rows,
    ));
    out.push('\n');

    // 4. Output interconnect.
    let rows: Vec<Vec<String>> = [
        Topology::CrossbarBoth,
        Topology::CrossbarInPerLayerOut,
        Topology::CrossbarInOnePeOut,
    ]
    .into_iter()
    .map(|topology| {
        let c = ArchConfig { topology, ..cfg };
        let total = totals(&c, &CompileOptions::default()).0;
        vec![topology.to_string(), total.to_string()]
    })
    .collect();
    out.push_str(&render_table(
        "Ablation 4: output interconnect (§III-C)",
        &["topology", "total cycles"],
        &rows,
    ));
    out.push_str(&format!("(scale {scale}; workloads: tretail, rdb968)\n"));
    out
}

/// The experiment registry: `(name, runner)` in paper order.
#[allow(clippy::type_complexity)]
pub fn experiments() -> Vec<(&'static str, fn() -> String)> {
    vec![
        ("fig01_throughput", fig01_throughput as fn() -> String),
        ("fig03_utilization", fig03_utilization),
        ("fig06_interconnect", fig06_interconnect),
        ("fig07_instr_lengths", fig07_instr_lengths),
        ("fig10_conflicts", fig10_conflicts),
        ("fig10_occupancy", fig10_occupancy),
        ("fig11_dse", fig11_dse),
        ("fig12_pareto", fig12_pareto),
        ("fig13_instr_breakdown", fig13_instr_breakdown),
        ("fig14_table3_small", || table3_small(env_scale(1.0))),
        ("fig14_table3_large", || table3_large(env_scale(0.125))),
        ("table1_workloads", table1_workloads),
        ("table2_area_power", table2_area_power),
        ("autowrite_reduction", autowrite_reduction),
        ("footprint_reduction", footprint_reduction),
        ("schedule_bounds", schedule_bounds),
    ]
}
