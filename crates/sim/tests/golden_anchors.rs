//! Golden anchors: `(cycles, Activity, output bits)` of three small
//! non-spilling workloads — one PC, one SpTRSV, one SpMV — at the paper's
//! min-EDP design point, pinned to literal values.
//!
//! The differential fuzz proves the oracle and the decoded executor agree
//! with *each other*; it cannot notice both drifting together, which is
//! exactly what a PR that rewrites one and re-routes every experiment
//! binary onto the other could do. These values were read from the
//! interpreter as it stood before `Machine::step` was rewritten as the
//! plain specification (commit 6ac556e); the cycle counts and
//! `instr_bits_fetched` were re-read when the compiler's step 3 took its
//! critical-path priority (fewer `nop` cycles), while the output bits and
//! every other counter held. The PC anchor's cycles and `Activity` were
//! re-read again when step 1 began to rank ready cones first (one more
//! block on this near-chain circuit); its output bits held, and the other
//! two anchors did not move. A change here is a change to the
//! reproduction's modelled numbers (cycles feed GOPS, `Activity` feeds the
//! energy model) and must be deliberate.

use dpu_compiler::{compile, CompileOptions};
use dpu_dag::Dag;
use dpu_isa::ArchConfig;
use dpu_sim::{execute, run_on, Activity, Machine};
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_workloads::sptrsv::SptrsvDag;

struct Anchor {
    cycles: u64,
    outputs: usize,
    /// FNV-1a over the outputs' bit patterns, in order.
    output_bits: u64,
    activity: Activity,
}

fn output_bits(outputs: &[f32]) -> u64 {
    outputs.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn smooth_inputs(dag: &Dag) -> Vec<f32> {
    (0..dag.input_count())
        .map(|i| 0.5 + 0.4 * (i as f32 * 0.7).sin())
        .collect()
}

fn check(name: &str, dag: &Dag, inputs: &[f32], want: &Anchor) {
    let cfg = ArchConfig::min_edp();
    let compiled = compile(dag, &cfg, &CompileOptions::default()).unwrap();
    assert_eq!(
        compiled.stats.spill_stores, 0,
        "{name}: anchor must not spill"
    );
    let oracle = run_on(&mut Machine::new(cfg), &compiled, inputs).unwrap();
    let decoded = execute(&compiled, inputs).unwrap();
    for (path, got) in [("oracle", &oracle), ("decoded", &decoded)] {
        assert_eq!(got.cycles, want.cycles, "{name} ({path}): cycles");
        assert_eq!(got.activity, want.activity, "{name} ({path}): activity");
        assert_eq!(got.outputs.len(), want.outputs, "{name} ({path}): arity");
        assert_eq!(
            output_bits(&got.outputs),
            want.output_bits,
            "{name} ({path}): output bits"
        );
    }
}

#[test]
fn pc_anchor() {
    let dag = generate_pc(&PcParams::with_targets(400, 8), 81);
    let want = Anchor {
        cycles: 80,
        outputs: 1,
        output_bits: 0x0999_eae0_5f4b_c809,
        activity: Activity {
            reg_reads: 627,
            reg_writes: 428,
            mem_reads: 6,
            mem_writes: 1,
            pe_arith_ops: 593,
            pe_bypass_ops: 272,
            execs: 20,
            crossbar_hops: 743,
            instr_bits_fetched: 100_160,
        },
    };
    check("pc", &dag, &pc_inputs(&dag, 0), &want);
}

#[test]
fn sptrsv_anchor() {
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(40, 1.5, 10), 82);
    let dag = SptrsvDag::build(&l).dag;
    let want = Anchor {
        cycles: 46,
        outputs: 19,
        output_bits: 0x414b_47a4_7f2a_8244,
        activity: Activity {
            reg_reads: 210,
            reg_writes: 208,
            mem_reads: 11,
            mem_writes: 2,
            pe_arith_ops: 156,
            pe_bypass_ops: 122,
            execs: 11,
            crossbar_hops: 219,
            instr_bits_fetched: 57_592,
        },
    };
    check("sptrsv", &dag, &smooth_inputs(&dag), &want);
}

#[test]
fn spmv_anchor() {
    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 50,
            avg_nnz_per_row: 3.0,
            band_fraction: 0.7,
            band: 8,
        },
        83,
    );
    let dag = SpmvDag::build(&a).dag;
    let want = Anchor {
        cycles: 23,
        outputs: 50,
        output_bits: 0x3b65_3963_392e_7237,
        activity: Activity {
            reg_reads: 394,
            reg_writes: 314,
            mem_reads: 8,
            mem_writes: 4,
            pe_arith_ops: 342,
            pe_bypass_ops: 33,
            execs: 8,
            crossbar_hops: 410,
            instr_bits_fetched: 28_796,
        },
    };
    check("spmv", &dag, &smooth_inputs(&dag), &want);
}
