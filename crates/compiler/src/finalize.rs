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
//!   on the same bank. Step 3 ([`crate::reorder`]) already spaces every
//!   hazard and reserves every write port in the list it schedules, so a
//!   program without spill traffic never stalls here (`verify_all` checks
//!   it). The stall is the safety net for the stores and reloads step 4
//!   ([`crate::spill`]) inserts afterwards, which shift every later cycle —
//!   §IV-C/§IV-D's "inserted in a way that avoids new RAW hazards".

use dpu_dag::NodeId;
use dpu_isa::{
    ArchConfig, CopyMove, ExecInstr, Fault, Instr, PeOpcode, PortRead, Program, RegFile, RegRead,
};

use crate::ir::{AInstr, Residency};

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
    // Residency segments of (bank, value) are delimited by writes (an
    // instruction's writes count before its reads). `rst` holds one flag
    // per read operand in program order; walking backwards, a read is its
    // segment's last iff no later read of the pair came before a write.
    let mut rst = vec![false; instrs.iter().map(|ins| ins.bank_reads().len()).sum()];
    {
        let mut read_later: Residency<bool> = Residency::new();
        let mut at = rst.len();
        for ins in instrs.iter().rev() {
            // Broadcast reads of one pair share the flag: test them all
            // before marking any.
            for (b, v) in ins.bank_reads().rev() {
                at -= 1;
                rst[at] = !read_later.get(b, v).copied().unwrap_or(false);
            }
            for (b, v) in ins.bank_reads() {
                read_later.insert(b, v, true);
            }
            for (b, v) in ins.bank_writes() {
                read_later.insert(b, v, false);
            }
        }
    }

    // ---- Replay.
    let mut regs = RegFile::new(cfg, NodeId(0));
    // Where each live residency sits and the first cycle it can be read.
    let mut placed: Residency<(u32, u64)> = Residency::new();

    let mut out: Vec<Instr> = Vec::with_capacity(instrs.len());
    let mut stall_nops: u64 = 0;

    // Ends the cycle; a value landing now is readable from the next one.
    let end_cycle =
        |regs: &mut RegFile<NodeId>, placed: &mut Residency<(u32, u64)>| -> Result<(), Fault> {
            let readable = regs.cycle() + 1;
            regs.end_cycle(|b, a, v| {
                placed.insert(b, v, (a, readable));
            })
        };

    // `(address, valid_rst)` of the current instruction's reads, in
    // operand order.
    let mut resolved: Vec<(u32, bool)> = Vec::new();
    let mut first_read = 0usize;

    for (idx, ins) in instrs.iter().enumerate() {
        let mut waited: u64 = 0;
        loop {
            // Operand readiness.
            let cycle = regs.cycle();
            let not_ready = ins
                .bank_reads()
                .find(|&(b, v)| placed.get(b, v).is_none_or(|&(_, ready)| ready > cycle));
            // Write-port availability for immediate (load/copy) writebacks.
            let wp_clash = !ins.is_exec()
                && regs
                    .due()
                    .iter()
                    .any(|&(b, _)| ins.bank_writes().any(|(wb, _)| wb == b));
            if not_ready.is_none() && !wp_clash {
                break;
            }
            // Stall one cycle.
            out.push(Instr::Nop);
            stall_nops += 1;
            end_cycle(&mut regs, &mut placed)?;
            waited += 1;
            if waited > d + 4 && regs.in_flight() == 0 {
                if let Some((b, v)) = not_ready {
                    return Err(FinalizeError::OperandNeverReady {
                        index: idx,
                        bank: b,
                        value: v,
                    });
                }
            }
            if waited > 4 * (d + 4) {
                let (b, v) = not_ready.expect("only operands can stall this long");
                return Err(FinalizeError::OperandNeverReady {
                    index: idx,
                    bank: b,
                    value: v,
                });
            }
        }

        // Resolve reads; apply rst frees after collecting all addresses
        // (broadcast reads of one pair free it once).
        resolved.clear();
        for (k, (b, v)) in ins.bank_reads().enumerate() {
            let &(addr, _) = placed.get(b, v).expect("operand ready");
            resolved.push((addr, rst[first_read + k]));
        }
        first_read += resolved.len();
        for ((b, v), &(addr, last_read)) in ins.bank_reads().zip(&resolved) {
            if last_read && placed.remove(b, v).is_some() {
                regs.free(b, addr);
            }
        }

        // Emit the concrete instruction.
        let reg_read = |k: usize, bank: u32| -> RegRead {
            let (addr, valid_rst) = resolved[k];
            RegRead {
                bank,
                addr,
                valid_rst,
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
                let reads = srcs.iter().enumerate().map(|(k, &(b, _))| reg_read(k, b));
                if srcs.len() <= Instr::K {
                    Instr::StoreK {
                        row: *row,
                        reads: reads.collect(),
                    }
                } else {
                    let mut rv: Vec<Option<RegRead>> = vec![None; banks];
                    for r in reads {
                        rv[r.bank as usize] = Some(r);
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
                    .enumerate()
                    .map(|(k, &(s, _, dst))| CopyMove {
                        src: reg_read(k, s),
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
                for (k, &(port, b, _)) in rd.iter().enumerate() {
                    let r = reg_read(k, b);
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
            AInstr::Exec { .. } => regs.schedule(ins.bank_writes()),
            AInstr::Load { .. } | AInstr::Copy { .. } => {
                for (b, v) in ins.bank_writes() {
                    placed.insert(b, v, (regs.write(b, v)?, regs.cycle() + 1));
                }
            }
            _ => {}
        }
        end_cycle(&mut regs, &mut placed)?;
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
