//! Fuzzes the compiler against the static verifier: for **any** random
//! computation DAG compiled for **any** sampled architecture point, the
//! emitted program must pass `dpu-verify` with zero diagnostics, the
//! replayed cycle count must equal the finalizer's declared schedule
//! length, and the derived config facts must admit the compiling
//! configuration. A failure shrinks to a minimal counterexample — either
//! a compiler bug or a verifier false positive, both of which block the
//! trust boundaries built on the analyzer (debug-build compile checks,
//! spill-load admission, steal compatibility). The verifier and the
//! simulator run the same register-file code (`dpu_isa::RegFile`); the
//! last assertions state their agreement on a whole program outright —
//! including the third replay, the one `DecodedProgram::decode` makes to
//! resolve the schedule, whose stored cycle count and `Activity` are what
//! every production run reports.

use dpu_core::isa::{Instr, Program};
use dpu_core::prelude::*;
use dpu_core::sim::{DecodedProgram, Machine};
use proptest::prelude::*;

fn arb_dag() -> impl Strategy<Value = Dag> {
    (
        2usize..10,
        proptest::collection::vec((0usize..6, any::<u32>(), any::<u32>()), 1..160),
    )
        .prop_map(|(n_inputs, ops)| {
            let mut b = DagBuilder::new();
            let mut ids: Vec<NodeId> = (0..n_inputs).map(|_| b.input()).collect();
            for (op_sel, i, j) in ops {
                let op = match op_sel {
                    0 => Op::Add,
                    1 => Op::Mul,
                    2 => Op::Sub,
                    3 => Op::Div,
                    4 => Op::Min,
                    _ => Op::Max,
                };
                let x = ids[i as usize % ids.len()];
                let y = ids[j as usize % ids.len()];
                ids.push(b.node(op, &[x, y]).expect("operands exist"));
            }
            b.finish().expect("non-empty")
        })
}

fn arb_config() -> impl Strategy<Value = ArchConfig> {
    (1u32..=3, 0usize..3, 0usize..3).prop_map(|(d, b_sel, r_sel)| {
        let banks = [8u32, 16, 32][b_sel].max(1 << d);
        let regs = [8u32, 16, 64][r_sel];
        ArchConfig::new(d, banks, regs).expect("valid")
    })
}

proptest! {
    // Each case compiles a whole program and replays it statically; keep
    // the count moderate so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_compiled_program_verifies(dag in arb_dag(), cfg in arb_config()) {
        let dpu = Dpu::new(cfg);
        let compiled = dpu.compile(&dag).expect("random DAGs must compile");
        let verdict = compiled.verify();
        prop_assert!(verdict.is_ok(), "false positive: {:?}", verdict.err());
        let report = verdict.unwrap();
        prop_assert_eq!(report.instrs, compiled.program.len());
        // The static replay is an exact mirror of the simulator's timing.
        prop_assert_eq!(report.cycles, compiled.stats.total_cycles);
        // The steal-class facts always admit the compiling config, and
        // spare capacity in non-codegen dimensions is admitted too.
        prop_assert!(report.facts.admits(&cfg));
        let mut bigger = cfg;
        bigger.data_mem_rows *= 2;
        prop_assert!(report.facts.admits(&bigger));
        prop_assert!(dpu_core::verify::steal_compatible(&cfg, &bigger));
        // A different bank count is never admitted (instruction words
        // would not even be the right width).
        let mut other = cfg;
        other.banks *= 2;
        prop_assert!(!report.facts.admits(&other));
        // Verifier vs simulator: single-step the oracle (register traffic
        // does not depend on the data, so memory stays zero). It ends on
        // the replayed cycle, and its fullest bank peaks at exactly the
        // register count the facts demand.
        let mut m = Machine::new(cfg);
        let mut peak = 0;
        let mut sample = |m: &Machine| peak = peak.max(m.occupancy_per_bank().into_iter().max().unwrap());
        for instr in &compiled.program.instrs {
            m.step(instr).expect("verified programs never fault");
            sample(&m);
        }
        let mut drained = m.clone();
        drained.run_program(&Program { config: cfg, instrs: vec![] }).expect("drain");
        prop_assert_eq!(drained.cycle(), report.cycles);
        while m.cycle() < drained.cycle() {
            m.step(&Instr::Nop).expect("drain");
            sample(&m);
        }
        // Three replays agree: decode's stored constants are the
        // verifier's cycle count and the oracle's counters.
        let decoded = DecodedProgram::decode(&compiled.program).expect("verified programs decode");
        let mut oracle = Machine::new(cfg);
        oracle.run_program(&compiled.program).expect("verified programs never fault");
        prop_assert_eq!(decoded.cycles(), report.cycles);
        prop_assert_eq!(decoded.cycles(), oracle.cycle());
        prop_assert_eq!(decoded.activity(), oracle.activity());
        if report.facts.min_regs_per_bank > 2 {
            prop_assert_eq!(peak, report.facts.min_regs_per_bank);
        } else {
            prop_assert!(peak <= 2);
        }
    }
}
