//! `DecodedProgram::decode` is the trust boundary of the simulator: it
//! replays a program's whole schedule — indexing banks, registers, ports
//! and PEs as it goes — under the program cache's slot lock, so whatever
//! it is handed it must answer with a value, never unwind. The property:
//! for a compiled program corrupted at random (operands out of range,
//! operand vectors cut short or padded, instructions dropped, repeated
//! and swapped, the configuration itself changed under the program),
//!
//! - `decode` returns, `Ok` or `Err`;
//! - a program it accepts runs, and the walk stays inside the slot space
//!   and the data memory it sized;
//! - unless it answered [`SimError::Malformed`] — the program indexes
//!   something its configuration does not have, where the oracle's
//!   behaviour is an index panic or an accident of layout — its verdict
//!   is exactly the oracle's: the oracle steps through the same program
//!   without panicking, to `Ok` or to the same error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dpu_core::isa::{CopyMove, Instr, PeId, PeOpcode, PortRead, Program, RegRead};
use dpu_core::prelude::*;
use dpu_core::sim::{DecodedProgram, Machine, SimError};
use proptest::prelude::*;

/// A small program with every instruction kind the compiler emits for a
/// random DAG at a small configuration.
fn base_program(dag_seed: u32, cfg_sel: usize) -> Program {
    let mut b = DagBuilder::new();
    let mut ids: Vec<NodeId> = (0..5).map(|_| b.input()).collect();
    let mut state = dag_seed.wrapping_mul(2_654_435_761).wrapping_add(12_345);
    for _ in 0..60 {
        let mut draw = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as usize
        };
        let (x, y) = (ids[draw() % ids.len()], ids[draw() % ids.len()]);
        let op = [Op::Add, Op::Mul, Op::Sub, Op::Max][draw() % 4];
        ids.push(b.node(op, &[x, y]).expect("operands exist"));
    }
    let (d, banks, regs) = [(1, 4, 8), (2, 8, 16), (3, 16, 6)][cfg_sel];
    let cfg = ArchConfig::new(d, banks, regs).expect("valid");
    Dpu::new(cfg)
        .compile(&b.finish().expect("non-empty"))
        .expect("small DAGs compile")
        .program
}

/// Every register read of an instruction, whatever its kind.
fn reads_of(instr: &mut Instr) -> Vec<(&mut u32, &mut u32, &mut bool)> {
    fn of_reg(r: &mut RegRead) -> (&mut u32, &mut u32, &mut bool) {
        (&mut r.bank, &mut r.addr, &mut r.valid_rst)
    }
    match instr {
        Instr::Nop | Instr::Load { .. } => Vec::new(),
        Instr::Store { reads, .. } => reads.iter_mut().flatten().map(of_reg).collect(),
        Instr::StoreK { reads, .. } => reads.iter_mut().map(of_reg).collect(),
        Instr::CopyK { moves } => moves.iter_mut().map(|m| of_reg(&mut m.src)).collect(),
        Instr::Exec(e) => e
            .reads
            .iter_mut()
            .flatten()
            .map(|r| (&mut r.bank, &mut r.addr, &mut r.valid_rst))
            .collect(),
    }
}

/// Applies corruption `kind` to the instruction `at` picks, drawing what
/// it needs from `x` and `y`. A kind that does not apply to that
/// instruction leaves the program alone.
fn corrupt(program: &mut Program, (kind, at, x, y): (u32, u32, u32, u32)) {
    let cfg = program.config;
    if program.instrs.is_empty() {
        return;
    }
    let len = program.instrs.len();
    let at = at as usize % len;
    let read = RegRead {
        bank: x % (cfg.banks + 2),
        addr: y % (cfg.regs_per_bank + 2),
        valid_rst: x % 2 == 0,
    };
    match kind {
        // Operands: a bank, an address (small, just past the end, past the
        // valid-bit word, huge), a last-read marker.
        0..=2 => {
            let mut reads = reads_of(&mut program.instrs[at]);
            if reads.is_empty() {
                return;
            }
            let which = x as usize % reads.len();
            let (bank, addr, valid_rst) = &mut reads[which];
            match kind {
                0 => **bank = y % (2 * cfg.banks + 2),
                1 => **addr = [y % (cfg.regs_per_bank + 2), 64 + y % 70, y][x as usize % 3],
                _ => **valid_rst ^= true,
            }
        }
        // Schedule: drop, repeat, swap.
        3 => drop(program.instrs.remove(at)),
        4 => program.instrs.insert(at, program.instrs[at].clone()),
        5 => program.instrs.swap(at, x as usize % len),
        // The configuration under the program (never a larger data
        // memory: a program may touch any row its configuration has).
        6 => match x % 4 {
            0 => program.config.depth = y % 6,
            1 => program.config.banks = y % 70,
            2 => program.config.regs_per_bank = y % 70,
            _ => program.config.data_mem_rows = y % 4,
        },
        // Operand vectors and their entries, per instruction kind.
        _ => match &mut program.instrs[at] {
            Instr::Nop => {}
            Instr::Load { row, mask } => match kind % 3 {
                0 => *row = [y, y % 64][x as usize % 2],
                1 => mask.push(x % 2 == 0),
                _ => mask.truncate(y as usize % (mask.len() + 1)),
            },
            Instr::Store { row, reads } => match kind % 3 {
                0 => *row = [y, y % 64][x as usize % 2],
                1 => reads.push(Some(read)),
                _ => reads.truncate(y as usize % (reads.len() + 1)),
            },
            Instr::StoreK { row, reads } => match kind % 3 {
                0 => *row = [y, y % 64][x as usize % 2],
                _ => reads.push(read),
            },
            Instr::CopyK { moves } => match kind % 3 {
                0 => {
                    let which = x as usize % moves.len().max(1);
                    if let Some(m) = moves.get_mut(which) {
                        m.dst_bank = y % (2 * cfg.banks + 1);
                    }
                }
                _ => {
                    for k in 0..x % 7 {
                        moves.push(CopyMove {
                            src: read,
                            dst_bank: (y + k) % (cfg.banks + 1),
                        });
                    }
                }
            },
            Instr::Exec(e) => match kind % 5 {
                0 => e.pe_ops.truncate(y as usize % (e.pe_ops.len() + 1)),
                1 => e.reads.push((x % 2 == 0).then_some(PortRead {
                    bank: read.bank,
                    addr: read.addr,
                    valid_rst: read.valid_rst,
                })),
                2 => e.writes.push(Some(PeId::new(0, 1, 0))),
                3 => {
                    let bank = x as usize % e.writes.len().max(1);
                    if let Some(w) = e.writes.get_mut(bank) {
                        *w = Some(PeId::new(y % 3, (y >> 4) % (cfg.depth + 2), (y >> 8) % 5));
                    }
                }
                _ => {
                    let pe = y as usize % e.pe_ops.len().max(1);
                    if let Some(op) = e.pe_ops.get_mut(pe) {
                        *op = PeOpcode::ALL[x as usize % PeOpcode::ALL.len()];
                    }
                }
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_of_a_corrupted_program_returns_and_agrees_with_the_oracle(
        dag_seed in any::<u32>(),
        cfg_sel in 0usize..3,
        corruptions in proptest::collection::vec(
            (0u32..22, any::<u32>(), any::<u32>(), any::<u32>()),
            1..5,
        ),
    ) {
        let mut program = base_program(dag_seed, cfg_sel);
        for c in corruptions {
            corrupt(&mut program, c);
        }
        // A panic in here fails the case: decode never unwinds.
        let verdict = DecodedProgram::decode(&program);
        if let Ok(decoded) = &verdict {
            let mut m = Machine::new(program.config);
            m.run_decoded(decoded);
            prop_assert_eq!(m.cycle(), decoded.cycles());
        }
        if !matches!(verdict, Err(SimError::Malformed { .. })) {
            // Quiet while the oracle runs: were it to panic, the message
            // that matters is the assertion's below.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let oracle = catch_unwind(AssertUnwindSafe(|| {
                Machine::new(program.config).run_program(&program)
            }));
            std::panic::set_hook(hook);
            prop_assert!(
                oracle.is_ok(),
                "the oracle panicked on a program decode judged {:?}",
                verdict.map(|_| ())
            );
            prop_assert_eq!(verdict.map(|_| ()), oracle.expect("checked"));
        }
    }
}
