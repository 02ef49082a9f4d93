//! Address resolution: replaying the automatic write-address policy.
//!
//! The hardware never receives register *write* addresses: each bank writes
//! incoming data to its lowest empty register, tracked by valid bits and a
//! priority encoder (§III-B, Fig. 5(d)). Because the instruction sequence
//! is fully deterministic, the compiler can replay that policy and predict
//! every address — this module is that replay. The policy itself (lowest-
//! free write, `valid_rst` frees, an `exec` issued at cycle `c` lands at
//! the end of `c+D`, one write per bank per cycle, pipeline drain) is
//! [`dpu_isa::RegFile`], the same code the verifier and the simulator run;
//! here a register holds the [`NodeId`] of the value living in it. What is
//! the compiler's own sits on top:
//!
//! - where each live `(bank, value)` residency ended up (`addr_of`) and
//!   from which cycle it can be read (`ready_at`);
//! - `valid_rst`, computed as "last read of the residency";
//! - stalling with `nop`s while an operand has not cleared the pipeline,
//!   or while a `load`/`copy` would collide with an `exec` writeback due
//!   on the same bank — the safety net behind §IV-C/§IV-D's "inserted in a
//!   way that avoids new RAW hazards".

use std::collections::HashMap;

use dpu_dag::NodeId;
use dpu_isa::{
    ArchConfig, CopyMove, ExecInstr, Fault, Instr, PeOpcode, PortRead, Program, RegFile, RegRead,
};

use crate::ir::AInstr;

/// Finalization result.
#[derive(Debug)]
pub struct Finalized {
    /// The executable program.
    pub program: Program,
    /// `nop`s inserted for residual hazards and write-port stalls.
    pub stall_nops: u64,
    /// Issue cycles including the pipeline drain (the simulator must agree).
    pub total_cycles: u64,
}

/// Errors during finalization — all indicate an upstream compiler bug or an
/// infeasible configuration, not a user error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FinalizeError {
    /// A bank ran out of registers at writeback (the spiller's occupancy
    /// model should make this impossible).
    RegisterOverflow {
        /// Bank that overflowed.
        bank: u32,
    },
    /// An instruction waited implausibly long for an operand that no
    /// in-flight write will produce.
    OperandNeverReady {
        /// Index of the stuck instruction in the abstract list.
        index: usize,
        /// The missing `(bank, value)` residency.
        bank: u32,
        /// The value.
        value: NodeId,
    },
    /// Two values were written to the same bank in the same cycle (an
    /// `exec` naming one bank twice; reported when its writebacks land).
    WritePortClash {
        /// The bank.
        bank: u32,
    },
}

impl std::fmt::Display for FinalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FinalizeError::RegisterOverflow { bank } => {
                write!(f, "register bank {bank} overflowed at writeback")
            }
            FinalizeError::OperandNeverReady { index, bank, value } => write!(
                f,
                "instruction {index} waits forever for value {value} in bank {bank}"
            ),
            FinalizeError::WritePortClash { bank } => {
                write!(f, "two writebacks to bank {bank} in one cycle")
            }
        }
    }
}

impl std::error::Error for FinalizeError {}

impl From<Fault> for FinalizeError {
    fn from(fault: Fault) -> Self {
        match fault {
            Fault::Full { bank } => FinalizeError::RegisterOverflow { bank },
            Fault::PortClash { bank } => FinalizeError::WritePortClash { bank },
        }
    }
}

/// Replays the write-address policy over `instrs` and produces the final
/// [`Program`].
///
/// # Errors
///
/// See [`FinalizeError`].
pub fn finalize(cfg: &ArchConfig, instrs: &[AInstr]) -> Result<Finalized, FinalizeError> {
    let banks = cfg.banks as usize;
    let d = cfg.depth as u64;

    // ---- Prescan: valid_rst = last read of each residency segment.
    // Residency segments of (bank, value) are delimited by writes.
    let mut rst_at: HashMap<(usize, u32, NodeId), ()> = HashMap::new();
    {
        let mut last_read: HashMap<(u32, NodeId), usize> = HashMap::new();
        for (i, ins) in instrs.iter().enumerate() {
            for (b, v) in ins.bank_writes() {
                if let Some(li) = last_read.remove(&(b, v)) {
                    rst_at.insert((li, b, v), ());
                }
            }
            for (b, v) in ins.bank_reads() {
                last_read.insert((b, v), i);
            }
        }
        for ((b, v), li) in last_read {
            rst_at.insert((li, b, v), ());
        }
    }

    // ---- Replay.
    let mut regs = RegFile::new(cfg, NodeId(0));
    let mut addr_of: HashMap<(u32, NodeId), u32> = HashMap::new();
    let mut ready_at: HashMap<(u32, NodeId), u64> = HashMap::new();

    let mut out: Vec<Instr> = Vec::with_capacity(instrs.len());
    let mut stall_nops: u64 = 0;

    // Ends the cycle; a value landing now is readable from the next one.
    let end_cycle = |regs: &mut RegFile<NodeId>,
                     addr_of: &mut HashMap<(u32, NodeId), u32>,
                     ready_at: &mut HashMap<(u32, NodeId), u64>|
     -> Result<(), Fault> {
        let readable = regs.cycle() + 1;
        regs.end_cycle(|b, a, v| {
            addr_of.insert((b, v), a);
            ready_at.insert((b, v), readable);
        })
    };

    for (idx, ins) in instrs.iter().enumerate() {
        let reads = ins.bank_reads();
        let writes = ins.bank_writes();
        let mut waited: u64 = 0;
        loop {
            // Operand readiness.
            let cycle = regs.cycle();
            let not_ready = reads.iter().find(|&&(b, v)| {
                !addr_of.contains_key(&(b, v)) || ready_at.get(&(b, v)).is_some_and(|&t| t > cycle)
            });
            // Write-port availability for immediate (load/copy) writebacks.
            let wp_clash = !ins.is_exec()
                && regs
                    .due()
                    .iter()
                    .any(|&(b, _)| writes.iter().any(|&(wb, _)| wb == b));
            if not_ready.is_none() && !wp_clash {
                break;
            }
            // Stall one cycle.
            out.push(Instr::Nop);
            stall_nops += 1;
            end_cycle(&mut regs, &mut addr_of, &mut ready_at)?;
            waited += 1;
            if waited > d + 4 && regs.in_flight() == 0 {
                if let Some(&(b, v)) = not_ready {
                    return Err(FinalizeError::OperandNeverReady {
                        index: idx,
                        bank: b,
                        value: v,
                    });
                }
            }
            if waited > 4 * (d + 4) {
                let &(b, v) = not_ready.expect("only operands can stall this long");
                return Err(FinalizeError::OperandNeverReady {
                    index: idx,
                    bank: b,
                    value: v,
                });
            }
        }

        // Resolve reads; apply rst frees after collecting all addresses.
        let mut resolved: HashMap<(u32, NodeId), (u32, bool)> = HashMap::new();
        for &(b, v) in &reads {
            let a = addr_of[&(b, v)];
            let rst = rst_at.contains_key(&(idx, b, v));
            resolved.insert((b, v), (a, rst));
        }
        for (&(b, v), &(a, rst)) in &resolved {
            if rst {
                regs.free(b, a);
                addr_of.remove(&(b, v));
                ready_at.remove(&(b, v));
            }
        }

        // Emit the concrete instruction.
        let reg_read = |b: u32, v: NodeId| -> RegRead {
            let &(addr, rst) = resolved.get(&(b, v)).expect("read resolved");
            RegRead {
                bank: b,
                addr,
                valid_rst: rst,
            }
        };
        let concrete = match ins {
            AInstr::Nop => Instr::Nop,
            AInstr::Load { row, dests } => {
                let mut mask = vec![false; banks];
                for &(b, _) in dests {
                    mask[b as usize] = true;
                }
                Instr::Load { row: *row, mask }
            }
            AInstr::Store { row, srcs } => {
                if srcs.len() <= Instr::K {
                    Instr::StoreK {
                        row: *row,
                        reads: srcs.iter().map(|&(b, v)| reg_read(b, v)).collect(),
                    }
                } else {
                    let mut rv: Vec<Option<RegRead>> = vec![None; banks];
                    for &(b, v) in srcs {
                        rv[b as usize] = Some(reg_read(b, v));
                    }
                    Instr::Store {
                        row: *row,
                        reads: rv,
                    }
                }
            }
            AInstr::Copy { moves } => Instr::CopyK {
                moves: moves
                    .iter()
                    .map(|&(s, v, dst)| CopyMove {
                        src: reg_read(s, v),
                        dst_bank: dst,
                    })
                    .collect(),
            },
            AInstr::Exec {
                reads: rd,
                pe_ops,
                writes: wr,
            } => {
                let mut e = ExecInstr::idle(cfg);
                for &(port, b, v) in rd {
                    let r = reg_read(b, v);
                    e.reads[port as usize] = Some(PortRead {
                        bank: r.bank,
                        addr: r.addr,
                        valid_rst: r.valid_rst,
                    });
                }
                for &(pe, op) in pe_ops {
                    let fi = pe.flat_index(cfg) as usize;
                    debug_assert_eq!(e.pe_ops[fi], PeOpcode::Nop, "PE configured twice");
                    e.pe_ops[fi] = op;
                }
                for &(b, pe, _) in wr {
                    e.writes[b as usize] = Some(pe);
                }
                Instr::Exec(e)
            }
        };
        out.push(concrete);

        // Schedule / apply writebacks.
        match ins {
            AInstr::Exec { .. } => regs.schedule(writes.iter().copied()),
            AInstr::Load { .. } | AInstr::Copy { .. } => {
                for &(b, v) in &writes {
                    addr_of.insert((b, v), regs.write(b, v)?);
                    ready_at.insert((b, v), regs.cycle() + 1);
                }
            }
            _ => {}
        }
        end_cycle(&mut regs, &mut addr_of, &mut ready_at)?;
    }
    regs.drain(|_, _, _| {})?;

    // Internal invariant: finalize only emits validated shapes.
    let program = match Program::new(*cfg, out) {
        Ok(p) => p,
        Err((i, e)) => panic!("finalize produced invalid instruction {i}: {e}"),
    };

    Ok(Finalized {
        program,
        stall_nops,
        total_cycles: regs.cycle(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_isa::PeId;

    fn cfg() -> ArchConfig {
        ArchConfig::new(2, 8, 4).unwrap()
    }

    fn exec(reads: Vec<(u32, u32, NodeId)>, writes: Vec<(u32, PeId, NodeId)>) -> AInstr {
        let pe_ops = writes
            .iter()
            .map(|&(_, pe, _)| (pe, PeOpcode::Add))
            .collect();
        AInstr::Exec {
            reads,
            pe_ops,
            writes,
        }
    }

    #[test]
    fn stalls_on_raw_hazard() {
        let cfg = cfg(); // D = 2 -> distance 3
        let pe = PeId::new(0, 1, 0);
        let a = exec(
            vec![(0, 0, NodeId(10)), (1, 1, NodeId(11))],
            vec![(0, pe, NodeId(1))],
        );
        let b = exec(vec![(0, 0, NodeId(1))], vec![]);
        let ld = AInstr::Load {
            row: 0,
            dests: vec![(0, NodeId(10)), (1, NodeId(11))],
        };
        let fin = finalize(&cfg, &[ld, a, b]).unwrap();
        // load, exec a, then 2 stall nops, then exec b.
        assert_eq!(fin.stall_nops, 2);
        assert_eq!(fin.program.len(), 5);
    }

    #[test]
    fn addresses_follow_lowest_free_policy() {
        let cfg = cfg();
        let ld0 = AInstr::Load {
            row: 0,
            dests: vec![(0, NodeId(1))],
        };
        let ld1 = AInstr::Load {
            row: 1,
            dests: vec![(0, NodeId(2))],
        };
        // Read value 1 with rst, then load value 3: it must reuse addr 0.
        let st = AInstr::Store {
            row: 2,
            srcs: vec![(0, NodeId(1))],
        };
        let ld2 = AInstr::Load {
            row: 3,
            dests: vec![(0, NodeId(3))],
        };
        let st2 = AInstr::Store {
            row: 4,
            srcs: vec![(0, NodeId(3))],
        };
        let fin = finalize(&cfg, &[ld0, ld1, st, ld2, st2]).unwrap();
        // st reads value 1 at addr 0 (first allocation).
        match &fin.program.instrs[2] {
            Instr::StoreK { reads, .. } => {
                assert_eq!(reads[0].addr, 0);
                assert!(reads[0].valid_rst);
            }
            other => panic!("expected store_k, got {other:?}"),
        }
        // value 3 goes to the freed addr 0, and its store reads it there.
        match &fin.program.instrs[4] {
            Instr::StoreK { reads, .. } => assert_eq!(reads[0].addr, 0),
            other => panic!("expected store_k, got {other:?}"),
        }
    }

    #[test]
    fn write_port_stall_for_load_behind_exec() {
        let cfg = cfg(); // D = 2
        let pe = PeId::new(0, 1, 0);
        let ld0 = AInstr::Load {
            row: 0,
            dests: vec![(0, NodeId(10)), (1, NodeId(11))],
        };
        let a = exec(
            vec![(0, 0, NodeId(10)), (1, 1, NodeId(11))],
            vec![(1, pe, NodeId(1))],
        );
        // This load writes bank 1 and would land exactly when a's
        // writeback lands (2 cycles after a) -> must stall 1 cycle.
        let ld1 = AInstr::Load {
            row: 1,
            dests: vec![(1, NodeId(12))],
        };
        let nopi = AInstr::Nop;
        let fin = finalize(&cfg, &[ld0, a, nopi, ld1]).unwrap();
        assert_eq!(fin.stall_nops, 1);
    }

    #[test]
    fn register_overflow_is_detected() {
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let mut instrs = Vec::new();
        for k in 0..3u32 {
            instrs.push(AInstr::Load {
                row: k,
                dests: vec![(0, NodeId(k))],
            });
        }
        let err = finalize(&cfg, &instrs).unwrap_err();
        assert_eq!(err, FinalizeError::RegisterOverflow { bank: 0 });
    }

    #[test]
    fn missing_producer_is_detected() {
        let cfg = cfg();
        let b = exec(vec![(0, 0, NodeId(99))], vec![]);
        let err = finalize(&cfg, &[b]).unwrap_err();
        assert!(matches!(err, FinalizeError::OperandNeverReady { .. }));
    }

    #[test]
    fn broadcast_reads_share_address_and_rst() {
        let cfg = cfg();
        let pe = PeId::new(0, 1, 0);
        let ld = AInstr::Load {
            row: 0,
            dests: vec![(3, NodeId(5))],
        };
        let e = exec(
            vec![(0, 3, NodeId(5)), (1, 3, NodeId(5))],
            vec![(0, pe, NodeId(6))],
        );
        let st = AInstr::Store {
            row: 1,
            srcs: vec![(0, NodeId(6))],
        };
        let fin = finalize(&cfg, &[ld, e, st]).unwrap();
        match &fin.program.instrs[1] {
            Instr::Exec(x) => {
                let r0 = x.reads[0].unwrap();
                let r1 = x.reads[1].unwrap();
                assert_eq!(r0.addr, r1.addr);
                assert!(r0.valid_rst && r1.valid_rst);
            }
            other => panic!("expected exec, got {other:?}"),
        }
    }
}
