use std::error::Error;
use std::fmt;
use std::time::Instant;

use dpu_dag::{partition, Dag, NodeId};
use dpu_isa::{ArchConfig, InstrBreakdown, Program};

use crate::emit::{emit, EmitError};
use crate::finalize::{finalize, FinalizeError};
use crate::footprint::{footprint, Footprint};
use crate::ir::{ConflictStats, DataLayout};
use crate::reorder::{reorder, ReorderStats};
use crate::spill::{insert_spills_with, SpillError, SpillPolicy};
use crate::step1::{decompose, RawBlock};
use crate::step2::{assign_banks, compute_needs_store, place_blocks, BankPolicy};

/// Compiler options.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    /// Reordering window (§IV-C): how many of the lowest ready positions
    /// step 3 chooses among, and how far ahead of its original position an
    /// instruction may move. A window of 1 effectively disables
    /// reordering: every hazard becomes a `nop`. The paper uses 300.
    ///
    /// On the ablation's two workloads at half scale (`dpu-bench --bin
    /// ablations`, tretail and rdb968 on the min-EDP design), 300 wins:
    /// 1 832 cycles against 1 974 at a window of 8. Across the small suite
    /// at full scale, though, larger windows hoist loads so far ahead that
    /// the extra register lifetime turns into spill traffic: spill stores
    /// rise from 19 500 at 16 to 22 554 at 64 and 27 348 at 300, and the
    /// suite's total from 67 806 cycles to 73 354 and 82 501 (msnbc takes
    /// 18 169, 19 421 and 22 486 cycles; sieber and dw2048 slow down too,
    /// while west2021, which does not spill, goes 617, 592, 571). So the
    /// default stays 16 until the scheduler sees register pressure.
    pub window: usize,
    /// Spill victim-selection policy (§IV-D; the paper's live-range
    /// analysis corresponds to furthest-next-use).
    pub spill_policy: SpillPolicy,
    /// DAGs above this size are first partitioned GRAPHOPT-style into
    /// parts of this many nodes (§V-B; the paper uses 20k).
    pub partition_threshold: usize,
    /// Bank-allocation policy (conflict-aware vs the random baseline).
    pub bank_policy: BankPolicy,
    /// Seed for the allocator's randomized tie-breaking.
    pub seed: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            window: 16,
            spill_policy: SpillPolicy::FurthestNextUse,
            partition_threshold: 20_000,
            bank_policy: BankPolicy::ConflictAware,
            seed: 0xD9A6,
        }
    }
}

/// Errors from [`compile`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Emission failed (unroutable output or no free bank for a repair).
    Emit(EmitError),
    /// Spilling failed (one instruction exceeds a bank's capacity).
    Spill(SpillError),
    /// Finalization failed (internal scheduling invariant violated).
    Finalize(FinalizeError),
    /// The static verifier rejected the emitted program (a compiler bug:
    /// the pipeline produced an instruction stream that violates an ISA or
    /// layout invariant).
    Verify(dpu_verify::VerifyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Emit(e) => write!(f, "emission: {e}"),
            CompileError::Spill(e) => write!(f, "spilling: {e}"),
            CompileError::Finalize(e) => write!(f, "finalization: {e}"),
            CompileError::Verify(e) => write!(f, "verification: {e}"),
        }
    }
}

impl Error for CompileError {}

impl From<EmitError> for CompileError {
    fn from(e: EmitError) -> Self {
        CompileError::Emit(e)
    }
}
impl From<SpillError> for CompileError {
    fn from(e: SpillError) -> Self {
        CompileError::Spill(e)
    }
}
impl From<FinalizeError> for CompileError {
    fn from(e: FinalizeError) -> Self {
        CompileError::Finalize(e)
    }
}
impl From<dpu_verify::VerifyError> for CompileError {
    fn from(e: dpu_verify::VerifyError) -> Self {
        CompileError::Verify(e)
    }
}

/// Compilation statistics (feeds Table I's compile-time column, Fig. 10's
/// conflict study, Fig. 13's instruction breakdown and §IV-E's footprint).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStats {
    /// Blocks produced by step 1.
    pub blocks: u64,
    /// Mean active PEs per exec over the PE count (datapath utilization).
    pub pe_utilization: f64,
    /// Bank-conflict statistics.
    pub conflicts: ConflictStats,
    /// `nop`s inserted by reordering.
    pub reorder_nops: u64,
    /// Spill stores / reloads.
    pub spill_stores: u64,
    /// Spill reloads.
    pub spill_reloads: u64,
    /// `nop`s inserted by finalization for residual hazards.
    pub stall_nops: u64,
    /// Issue cycles including pipeline drain.
    pub total_cycles: u64,
    /// Instruction-category counts (Fig. 13).
    pub breakdown: InstrBreakdown,
    /// Program size in bits, and the counterfactual with explicit write
    /// addresses (§III-B's ~30% claim).
    pub program_bits: u64,
    /// Counterfactual program size with explicit write addresses.
    pub program_bits_explicit: u64,
    /// Memory footprint vs CSR (§IV-E).
    pub footprint: Footprint,
    /// Wall-clock compile time in milliseconds.
    pub compile_ms: f64,
}

/// A compiled workload.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The executable program.
    pub program: Program,
    /// Data-memory layout: where to place inputs, where outputs appear.
    pub layout: DataLayout,
    /// The binarized DAG the program computes.
    pub bin_dag: Dag,
    /// Mapping from the caller's DAG node ids to `bin_dag` ids.
    pub orig_to_bin: Vec<NodeId>,
    /// The output values (binarized ids) stored to
    /// [`DataLayout::output_slots`], in order: the images of the caller's
    /// DAG sinks.
    pub outputs: Vec<NodeId>,
    /// Statistics.
    pub stats: CompileStats,
}

impl Compiled {
    /// Runs the static verifier (`dpu-verify`) over the program against
    /// its own data layout, and checks the replayed cycle count against
    /// the declared [`CompileStats::total_cycles`]. Freshly compiled
    /// programs always pass (debug builds of the compiler call this on
    /// every compile; a release caller that wants the check calls it
    /// itself); the runtime calls it on programs deserialized from a spill
    /// store, where a checksum match alone does not prove well-formedness.
    ///
    /// # Errors
    ///
    /// The first invariant violation found; see [`dpu_verify::VerifyError`].
    pub fn verify(&self) -> Result<dpu_verify::VerifyReport, dpu_verify::VerifyError> {
        let facts = dpu_verify::LayoutFacts {
            input_slots: &self.layout.input_slots,
            output_slots: &self.layout.output_slots,
            spill_base: self.layout.spill_base,
            rows_used: self.layout.rows_used,
        };
        let report = dpu_verify::verify_program(&self.program, &facts)?;
        if report.cycles != self.stats.total_cycles {
            return Err(dpu_verify::VerifyError::CycleMismatch {
                replayed: report.cycles,
                declared: self.stats.total_cycles,
            });
        }
        Ok(report)
    }
}

/// What bounds a compiled program's cycles from below, read off the
/// compile that produced it. An analysis, not part of [`CompileStats`]:
/// it is not persisted with the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleBounds {
    /// The latency-weighted longest path of the dependence graph step 3
    /// schedules, in cycles.
    pub critical_path_cycles: u64,
    /// The most `exec`s on one dependence chain of that graph.
    pub exec_chain: u64,
    /// Instructions handed to step 3; with the critical path, no step-3
    /// schedule beats the larger of the two.
    pub instrs_into_reorder: u64,
    /// `⌈l/D⌉·(D+1)`, where `l` is the binarized DAG's longest path: one
    /// `exec` covers at most `D` levels, and a dependent one issues `D + 1`
    /// cycles later.
    pub depth_bound_cycles: u64,
}

/// Compiles `dag` for `cfg`: binarize → blocks → mapping → emission →
/// reorder → spill → finalize. The program stores the value of every sink
/// of `dag` to data memory (see [`DataLayout::output_slots`]).
///
/// # Errors
///
/// See [`CompileError`]; all variants indicate infeasible bank pressure or
/// an internal invariant violation, not user error.
pub fn compile(
    dag: &Dag,
    cfg: &ArchConfig,
    opts: &CompileOptions,
) -> Result<Compiled, CompileError> {
    Ok(compile_reordered(dag, cfg, opts)?.0)
}

/// [`compile`], also returning the [`ScheduleBounds`] of the program.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile_with_bounds(
    dag: &Dag,
    cfg: &ArchConfig,
    opts: &CompileOptions,
) -> Result<(Compiled, ScheduleBounds), CompileError> {
    let (c, step3) = compile_reordered(dag, cfg, opts)?;
    let d = u64::from(cfg.depth);
    let levels = u64::from(c.bin_dag.longest_path_len());
    let bounds = ScheduleBounds {
        critical_path_cycles: step3.critical_path_cycles,
        exec_chain: step3.exec_chain,
        instrs_into_reorder: step3.instrs,
        depth_bound_cycles: levels.div_ceil(d) * (d + 1),
    };
    Ok((c, bounds))
}

fn compile_reordered(
    dag: &Dag,
    cfg: &ArchConfig,
    opts: &CompileOptions,
) -> Result<(Compiled, ReorderStats), CompileError> {
    // Table I's compile-time column covers binarization too.
    let started = Instant::now();
    let (bin, map) = dag.binarize();
    let outputs: Vec<NodeId> = {
        let mut seen = vec![false; bin.len()];
        dag.sinks()
            .map(|s| map[s.index()])
            .filter(|o| !std::mem::replace(&mut seen[o.index()], true))
            .collect()
    };
    let (mut c, step3) = compile_from(started, &bin, cfg, &outputs, opts)?;
    c.orig_to_bin = map;
    Ok((c, step3))
}

/// Compiles an already-binary DAG, storing the listed `outputs`.
///
/// # Errors
///
/// See [`CompileError`].
///
/// # Panics
///
/// Panics if `bin` is not binary or `outputs` contains invalid ids.
pub fn compile_binary(
    bin: &Dag,
    cfg: &ArchConfig,
    outputs: &[NodeId],
    opts: &CompileOptions,
) -> Result<Compiled, CompileError> {
    Ok(compile_from(Instant::now(), bin, cfg, outputs, opts)?.0)
}

/// [`compile_binary`], with [`CompileStats::compile_ms`] counted from
/// `started`, and what step 3 reported.
fn compile_from(
    started: Instant,
    bin: &Dag,
    cfg: &ArchConfig,
    outputs: &[NodeId],
    opts: &CompileOptions,
) -> Result<(Compiled, ReorderStats), CompileError> {
    assert!(bin.is_binary(), "compile_binary requires a binary DAG");
    for &o in outputs {
        bin.check_node(o).expect("output id in range");
    }

    // Step 1 (with GRAPHOPT partitioning for very large DAGs, §V-B).
    let mut mapped = vec![false; bin.len()];
    let raw: Vec<RawBlock> = if bin.len() > opts.partition_threshold {
        let parts = partition::partition(bin, opts.partition_threshold);
        let mut all = Vec::new();
        for p in &parts {
            all.extend(decompose(bin, cfg, Some(&p.nodes), &mut mapped));
        }
        all
    } else {
        decompose(bin, cfg, None, &mut mapped)
    };

    // Step 2.
    let needs = compute_needs_store(bin, &raw, outputs);
    let blocks = place_blocks(bin, cfg, raw, &needs);
    let assign = assign_banks(bin, cfg, &blocks, outputs, opts.bank_policy, opts.seed);

    let n_blocks = blocks.len() as u64;
    let active_pe_sum: u64 = blocks.iter().map(|b| b.pe_config.len() as u64).sum();
    let pe_utilization = if n_blocks == 0 {
        0.0
    } else {
        active_pe_sum as f64 / (n_blocks * u64::from(cfg.pe_count())) as f64
    };

    // Emission.
    let emitted = emit(bin, cfg, &blocks, &assign, outputs)?;
    let mut layout = emitted.layout;
    let conflicts = emitted.conflicts;

    // Step 3.
    let (reordered, step3) = reorder(cfg, emitted.instrs, opts.window);

    // Step 4.
    let (spilled, spill_stats) =
        insert_spills_with(cfg, reordered, layout.spill_base, opts.spill_policy)?;
    layout.rows_used = layout.spill_base + spill_stats.rows;

    // Finalization.
    let fin = finalize(cfg, &spilled)?;

    let breakdown = fin.program.breakdown();
    let program_bits = fin.program.size_bits();
    let program_bits_explicit = fin.program.size_bits_explicit_writes();
    let fp = footprint(bin, &fin.program, layout.rows_used);

    let stats = CompileStats {
        blocks: n_blocks,
        pe_utilization,
        conflicts,
        reorder_nops: step3.nops,
        spill_stores: spill_stats.stores,
        spill_reloads: spill_stats.reloads,
        stall_nops: fin.stall_nops,
        total_cycles: fin.total_cycles,
        breakdown,
        program_bits,
        program_bits_explicit,
        footprint: fp,
        compile_ms: started.elapsed().as_secs_f64() * 1e3,
    };

    let compiled = Compiled {
        program: fin.program,
        layout,
        bin_dag: bin.clone(),
        orig_to_bin: (0..bin.len() as u32).map(NodeId).collect(),
        outputs: outputs.to_vec(),
        stats,
    };

    // Static verification in debug builds: one linear pass over the
    // instruction stream, paid once per compile and never per request.
    if cfg!(debug_assertions) {
        compiled.verify()?;
    }

    Ok((compiled, step3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::{DagBuilder, Op};

    fn random_dag(nodes: usize, seed: u64) -> Dag {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = DagBuilder::new();
        let mut ids: Vec<NodeId> = (0..10).map(|_| b.input()).collect();
        while ids.len() < nodes {
            let i = ids[rng.gen_range(0..ids.len())];
            let j = ids[rng.gen_range(0..ids.len())];
            let op = if rng.gen_bool(0.6) { Op::Add } else { Op::Mul };
            ids.push(b.node(op, &[i, j]).unwrap());
        }
        b.finish().unwrap()
    }

    #[test]
    fn compiles_small_dag() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, x]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let c = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        assert!(c.program.len() >= 3); // load + exec(s) + store at least
        assert_eq!(c.layout.output_slots.len(), 1);
        assert!(c.stats.blocks >= 1);
    }

    #[test]
    fn compiles_random_dags_across_configs() {
        let dag = random_dag(300, 5);
        for (d, b, r) in [(1u32, 8u32, 16u32), (2, 8, 16), (3, 16, 32), (3, 64, 32)] {
            let cfg = ArchConfig::new(d, b, r).unwrap();
            let c = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
            assert!(c.stats.total_cycles > 0, "D={d} B={b} R={r}");
        }
    }

    #[test]
    fn programs_without_spills_never_stall() {
        // Step 3 spaces every hazard and reserves every write port, so
        // finalize's stall is a safety net for spill traffic only.
        for seed in 0..6 {
            let dag = random_dag(200, 40 + seed);
            for (d, b, r) in [(1u32, 8u32, 16u32), (2, 8, 16), (3, 16, 32), (3, 64, 32)] {
                let cfg = ArchConfig::new(d, b, r).unwrap();
                let c = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
                if c.stats.spill_stores == 0 {
                    assert_eq!(c.stats.stall_nops, 0, "seed {seed}, D={d} B={b} R={r}");
                }
            }
        }
    }

    #[test]
    fn schedule_bounds_bound_the_schedule() {
        for seed in 0..4 {
            let dag = random_dag(300, 60 + seed);
            for (d, b, r) in [(1u32, 8u32, 16u32), (2, 8, 16), (3, 64, 32)] {
                let cfg = ArchConfig::new(d, b, r).unwrap();
                let (c, bounds) =
                    compile_with_bounds(&dag, &cfg, &CompileOptions::default()).unwrap();
                let what = format!("seed {seed}, D={d} B={b} R={r}");
                let levels = u64::from(c.bin_dag.longest_path_len());
                // Each exec covers at most D levels of the longest path.
                assert!(bounds.exec_chain >= levels.div_ceil(u64::from(d)), "{what}");
                assert!(
                    bounds.depth_bound_cycles <= bounds.critical_path_cycles,
                    "{what}"
                );
                let floor = bounds.instrs_into_reorder.max(bounds.critical_path_cycles);
                assert!(floor <= c.stats.total_cycles, "{what}");
                // The bounds are an analysis: the program is `compile`'s.
                let plain = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
                assert_eq!(plain.program, c.program, "{what}");
            }
        }
    }

    #[test]
    fn spills_kick_in_for_tiny_register_file() {
        let dag = random_dag(400, 8);
        let cfg = ArchConfig::new(2, 8, 4).unwrap();
        let c = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        assert!(c.stats.spill_stores > 0, "expected spill traffic");
        // Spilling is deterministic: which bank's victims are stored first
        // must not depend on hash-map iteration order.
        let again = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        assert_eq!(again.program, c.program);
    }

    #[test]
    fn partitioned_path_produces_program() {
        let dag = random_dag(3_000, 3);
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        let opts = CompileOptions {
            partition_threshold: 500,
            ..Default::default()
        };
        let c = compile(&dag, &cfg, &opts).unwrap();
        assert!(!c.program.is_empty());
    }

    #[test]
    fn autowrite_policy_shrinks_programs() {
        let dag = random_dag(500, 11);
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let c = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        assert!(c.stats.program_bits < c.stats.program_bits_explicit);
    }
}
