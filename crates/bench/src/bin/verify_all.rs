//! CI gate: runs the static verifier (`dpu-verify`) over every program
//! the workload suite compiles across the standard `ArchConfig` grid and
//! exits non-zero on any rejection — i.e. on any **false positive** of
//! the analyzer, since every compiler-emitted program is well-formed by
//! construction (the simulator would otherwise fault on it).
//!
//! Four properties are checked per `(workload, config)` point:
//!
//! 1. `Compiled::verify()` accepts the program (zero false positives);
//! 2. the replayed cycle count equals the finalizer's declared
//!    `total_cycles` (part of `Compiled::verify()`: a disagreement is
//!    its `CycleMismatch`);
//! 3. the derived [`ConfigFacts`](dpu_core::verify::ConfigFacts) admit
//!    the very configuration the program was compiled for (the
//!    steal-class fingerprint is never self-contradictory);
//! 4. a program without spill stores has no finalize stall `nop`s: step 3
//!    (`reorder`) already spaced every hazard and reserved every write
//!    port, so only traffic the spiller inserts after it may stall.
//!
//! Workloads: the full `pc` + `sptrsv` suites (scaled down for CI time)
//! plus the tiny suite at full size — `sparse` workloads are the
//! `sptrsv` family (sparse triangular solves). Configs: the paper's
//! min-EDP and large design points, smaller/edge points, and every
//! interconnect topology at one point.

use dpu_core::verify;
use dpu_core::workloads::suite;
use dpu_core::{compiler::CompileOptions, isa::ArchConfig, isa::Topology};

fn config_grid() -> Vec<ArchConfig> {
    let mut grid = vec![
        ArchConfig::min_edp(),
        ArchConfig::large(),
        ArchConfig::new(1, 4, 8).unwrap(),
        ArchConfig::new(2, 8, 16).unwrap(),
        ArchConfig::new(3, 16, 32).unwrap(),
    ];
    // Topology (d) is not a compiler target: its one-to-one input side
    // forbids the cross-bank routings the bank allocator assumes (no code
    // in the repo compiles for it), so the sweep covers the three
    // crossbar-input topologies.
    for t in [
        Topology::CrossbarBoth,
        Topology::CrossbarInPerLayerOut,
        Topology::CrossbarInOnePeOut,
    ] {
        grid.push(ArchConfig::with_topology(2, 8, 16, t).unwrap());
    }
    grid
}

fn main() {
    let mut specs: Vec<(String, dpu_core::dag::Dag)> = Vec::new();
    for spec in suite::small_suite() {
        specs.push((spec.name.to_string(), spec.generate_scaled(0.25)));
    }
    for spec in suite::tiny_suite() {
        specs.push((spec.name.to_string(), spec.generate()));
    }

    let grid = config_grid();
    let opts = CompileOptions::default();
    let (mut programs, mut failures) = (0u64, 0u64);
    for (name, dag) in &specs {
        for cfg in &grid {
            let compiled = match dpu_core::compiler::compile(dag, cfg, &opts) {
                Ok(c) => c,
                Err(e) => {
                    // Infeasible register pressure at an edge point is a
                    // compiler refusal, not a verifier false positive.
                    println!("  skip  {name} @ {cfg:?}: {e}");
                    continue;
                }
            };
            programs += 1;
            let stats = &compiled.stats;
            if stats.spill_stores == 0 && stats.stall_nops > 0 {
                failures += 1;
                println!(
                    "  FAIL  {name} @ D={} B={} R={} {}: {} stall nops without spills",
                    cfg.depth, cfg.banks, cfg.regs_per_bank, cfg.topology, stats.stall_nops
                );
            }
            match compiled.verify() {
                Ok(report) => {
                    if !report.facts.admits(cfg) {
                        failures += 1;
                        println!(
                            "  FAIL  {name} @ D={} B={} R={} {}: facts {:?} reject own config",
                            cfg.depth, cfg.banks, cfg.regs_per_bank, cfg.topology, report.facts
                        );
                    }
                }
                Err(e) => {
                    failures += 1;
                    println!(
                        "  FAIL  {name} @ D={} B={} R={} {}: false positive: {e}",
                        cfg.depth, cfg.banks, cfg.regs_per_bank, cfg.topology
                    );
                }
            }
        }
    }

    // The compatibility relation must be coherent with the facts: a config
    // differing only in data memory is steal-compatible, all others not.
    let a = ArchConfig::min_edp();
    let mut b = a;
    b.data_mem_rows *= 2;
    assert!(verify::steal_compatible(&a, &b));
    assert!(!verify::steal_compatible(&a, &ArchConfig::large()));

    println!("verify_all: {programs} programs verified, {failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}
