//! Step 4 — register spilling (§IV-D).
//!
//! A live-range walk over the (reordered) instruction list tracks how many
//! values occupy each bank. When a write would overflow a bank's `R`
//! registers, resident values with the furthest next use are evicted to
//! data-memory spill slots (`store_4`), and a just-in-time `load` brings
//! each spilled value back into its home bank before its next read —
//! "inserted in a way that avoids new RAW pipeline hazards" is guaranteed
//! downstream by [`crate::finalize`], which stalls on any residual hazard.
//!
//! The occupancy model is intentionally conservative: writes are counted at
//! issue although the hardware commits exec writes `D` cycles later, so the
//! model's occupancy is an upper bound of the hardware's and a fit here is
//! a fit on silicon.

use dpu_dag::NodeId;
use dpu_isa::ArchConfig;

use crate::ir::{AInstr, Residency};

/// Victim-selection policy for evictions.
///
/// The default (and the paper-faithful choice) evicts the value with the
/// furthest next use — Belady's optimal policy, available here because
/// the whole schedule is known at compile time. The alternatives exist
/// for the ablation study (`dpu-bench --bin ablations`): they show how
/// much the compile-time-knowledge advantage is worth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillPolicy {
    /// Belady: evict the value whose next read is furthest away; of
    /// several that are never read again, the one with the lowest node id.
    #[default]
    FurthestNextUse,
    /// Evict the value with the *nearest* next use (pessimal; lower
    /// bound); ties as above.
    NearestNextUse,
    /// Evict the value with the smallest node id (arbitrary but
    /// deterministic — what a compiler without lookahead might do).
    Arbitrary,
}

/// Spill statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Values evicted to memory.
    pub stores: u64,
    /// Reloads of previously evicted values.
    pub reloads: u64,
    /// Spill rows allocated.
    pub rows: u32,
}

/// Errors during spilling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// A single instruction needs more simultaneous live values in one bank
    /// than the bank holds (`R` too small for the datapath width).
    BankTooSmall {
        /// The offending bank.
        bank: u32,
        /// Registers per bank.
        regs: u32,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::BankTooSmall { bank, regs } => {
                write!(f, "bank {bank} cannot hold the working set within R={regs}")
            }
        }
    }
}

impl std::error::Error for SpillError {}

/// Inserts spill `store`s and reload `load`s so no bank ever holds more
/// than `R` live values. `spill_base` is the first free data-memory row.
///
/// Returns the rewritten list, statistics, and the number of spill rows
/// used.
///
/// # Errors
///
/// [`SpillError::BankTooSmall`] if one instruction alone needs more than
/// `R` registers in one bank (cannot be fixed by spilling).
pub fn insert_spills(
    cfg: &ArchConfig,
    instrs: Vec<AInstr>,
    spill_base: u32,
) -> Result<(Vec<AInstr>, SpillStats), SpillError> {
    insert_spills_with(cfg, instrs, spill_base, SpillPolicy::FurthestNextUse)
}

/// [`insert_spills`] with an explicit victim-selection policy.
///
/// # Errors
///
/// Same as [`insert_spills`].
pub fn insert_spills_with(
    cfg: &ArchConfig,
    instrs: Vec<AInstr>,
    spill_base: u32,
    policy: SpillPolicy,
) -> Result<(Vec<AInstr>, SpillStats), SpillError> {
    let banks = cfg.banks as usize;
    let mut walk = Walk {
        regs: cfg.regs_per_bank,
        spill_base,
        policy,
        live: Residency::new(),
        resident: vec![Vec::new(); banks],
        spill_rows_per_bank: vec![0; banks],
        stats: SpillStats::default(),
        out: Vec::with_capacity(instrs.len()),
    };

    // Next-use oracle: for each (bank, value), the ordered list of original
    // positions that read it. Inserted spill code preserves relative order,
    // so original positions remain a valid priority.
    for (i, ins) in instrs.iter().enumerate() {
        for (b, v) in ins.bank_reads() {
            walk.live.entry(b, v).reads.push(i);
        }
    }

    let mut write_banks: Vec<u32> = Vec::new();
    for (pos, ins) in instrs.into_iter().enumerate() {
        // 1. Reload any evicted operands (ensuring capacity first).
        for (b, v) in ins.bank_reads() {
            let live = walk.live.get_mut(b, v).expect("indexed above");
            if live.resident {
                continue;
            }
            // Not spilled: the value is in flight (produced by an earlier
            // instruction in this list) — residency was recorded at its
            // write; reaching here means the write hasn't been walked yet,
            // which the dependence order of reorder() rules out.
            assert!(
                std::mem::take(&mut live.spilled),
                "read of value {v} never written to bank {b}"
            );
            let row = live.slot.expect("a spilled value has a slot");
            walk.ensure_capacity(b, 1, &ins)?;
            walk.out.push(AInstr::Load {
                row,
                dests: vec![(b, v)],
            });
            walk.stats.reloads += 1;
            walk.occupy(b, v);
        }

        // 2. Consume last uses: a read that has no later reads frees the
        // register (the valid_rst of §III-B, applied by finalize).
        for (b, v) in ins.bank_reads() {
            let live = walk.live.get_mut(b, v).expect("indexed above");
            while live.reads.get(live.next).is_some_and(|&u| u <= pos) {
                live.next += 1;
            }
            if live.next == live.reads.len() {
                walk.vacate(b, v);
            }
        }

        // 3. Make room for this instruction's writes, banks in ascending
        // order.
        write_banks.clear();
        write_banks.extend(ins.bank_writes().map(|(b, _)| b));
        write_banks.sort_unstable();
        for same_bank in write_banks.chunk_by(|a, b| a == b) {
            walk.ensure_capacity(same_bank[0], same_bank.len() as u32, &ins)?;
        }
        for (b, v) in ins.bank_writes() {
            // Hardware-accurate: a written value occupies its register
            // until a last read resets the valid bit — even if it is never
            // read (emission never produces such dead writes; if one
            // appears it simply becomes a first-choice eviction victim,
            // since its next use is infinitely far).
            walk.occupy(b, v);
            debug_assert!(
                walk.resident[b as usize].len() <= walk.regs as usize,
                "capacity ensured above"
            );
        }

        walk.out.push(ins);
    }

    walk.stats.rows = walk.spill_rows_per_bank.iter().copied().max().unwrap_or(0);
    Ok((walk.out, walk.stats))
}

/// One `(bank, value)` residency over the walk.
#[derive(Default)]
struct Live {
    /// Original positions of the instructions that read it, ascending.
    reads: Vec<usize>,
    /// How many of `reads` the walk has passed: `reads[next]` is the next
    /// use.
    next: usize,
    /// Whether it occupies a register of its bank right now.
    resident: bool,
    /// Whether it sits in its spill slot, waiting for a reload.
    spilled: bool,
    /// Its spill row once it has been evicted; kept across reloads.
    slot: Option<u32>,
}

/// State of the live-range walk.
struct Walk {
    regs: u32,
    spill_base: u32,
    policy: SpillPolicy,
    live: Residency<Live>,
    /// Values resident in each bank, unordered.
    resident: Vec<Vec<NodeId>>,
    /// Spill slots pack per bank: value v of bank b gets column b of row
    /// `spill_base + (b's slot counter)`, so rows are shared across banks.
    spill_rows_per_bank: Vec<u32>,
    stats: SpillStats,
    out: Vec<AInstr>,
}

impl Walk {
    fn occupy(&mut self, bank: u32, v: NodeId) {
        let live = self.live.entry(bank, v);
        if !live.resident {
            live.resident = true;
            self.resident[bank as usize].push(v);
        }
    }

    fn vacate(&mut self, bank: u32, v: NodeId) {
        let live = self
            .live
            .get_mut(bank, v)
            .expect("tracked since its first read or write");
        if live.resident {
            live.resident = false;
            let in_bank = &mut self.resident[bank as usize];
            let at = in_bank.iter().position(|&w| w == v).expect("resident");
            in_bank.swap_remove(at);
        }
    }

    /// Evicts victims from `bank` until `needed` slots are free. Operands
    /// and targets of the current instruction, `pinned`, are never
    /// evicted.
    fn ensure_capacity(
        &mut self,
        bank: u32,
        needed: u32,
        pinned: &AInstr,
    ) -> Result<(), SpillError> {
        while self.resident[bank as usize].len() + needed as usize > self.regs as usize {
            let next_use = |v: NodeId| {
                let live = self.live.get(bank, v).expect("resident");
                live.reads.get(live.next).copied().unwrap_or(usize::MAX)
            };
            let candidates = self.resident[bank as usize].iter().copied().filter(|&v| {
                let mut operands = pinned.bank_reads().chain(pinned.bank_writes());
                !operands.any(|p| p == (bank, v))
            });
            // The node id is part of every key: values that are never read
            // again tie on `usize::MAX`, and the victim must not depend on
            // the order the bank's residents happen to be listed in.
            let victim = match self.policy {
                SpillPolicy::FurthestNextUse => {
                    candidates.max_by_key(|&v| (next_use(v), std::cmp::Reverse(v)))
                }
                SpillPolicy::NearestNextUse => candidates.min_by_key(|&v| (next_use(v), v)),
                SpillPolicy::Arbitrary => candidates.min(),
            };
            let Some(victim) = victim else {
                return Err(SpillError::BankTooSmall {
                    bank,
                    regs: self.regs,
                });
            };
            self.vacate(bank, victim);
            let live = self.live.entry(bank, victim);
            let row = *live.slot.get_or_insert_with(|| {
                let rows = &mut self.spill_rows_per_bank[bank as usize];
                *rows += 1;
                self.spill_base + *rows - 1
            });
            live.spilled = true;
            self.out.push(AInstr::Store {
                row,
                srcs: vec![(bank, victim)],
            });
            self.stats.stores += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_isa::{PeId, PeOpcode};
    use std::collections::HashMap;

    fn exec(reads: Vec<(u32, u32, NodeId)>, writes: Vec<(u32, PeId, NodeId)>) -> AInstr {
        AInstr::Exec {
            reads,
            pe_ops: vec![(PeId::new(0, 1, 0), PeOpcode::Add)],
            writes,
        }
    }

    /// Max simultaneous occupancy of each bank over the walk, assuming
    /// issue-time writes and valid_rst frees at the last read of each
    /// residency segment (exactly finalize's rst rule).
    fn max_occupancy(cfg: &ArchConfig, instrs: &[AInstr]) -> Vec<usize> {
        // rst = last read of (bank, value) before its next write (or EOF).
        let mut rst: std::collections::HashSet<(usize, u32, NodeId)> =
            std::collections::HashSet::new();
        let mut last_read: HashMap<(u32, NodeId), usize> = HashMap::new();
        for (i, ins) in instrs.iter().enumerate() {
            for (b, v) in ins.bank_writes() {
                if let Some(li) = last_read.remove(&(b, v)) {
                    rst.insert((li, b, v));
                }
            }
            for (b, v) in ins.bank_reads() {
                last_read.insert((b, v), i);
            }
        }
        for ((b, v), li) in last_read {
            rst.insert((li, b, v));
        }

        let mut res: Vec<HashMap<NodeId, ()>> = vec![HashMap::new(); cfg.banks as usize];
        let mut peak = vec![0usize; cfg.banks as usize];
        for (pos, ins) in instrs.iter().enumerate() {
            for (b, v) in ins.bank_reads() {
                if rst.contains(&(pos, b, v)) {
                    res[b as usize].remove(&v);
                }
            }
            for (b, v) in ins.bank_writes() {
                res[b as usize].insert(v, ());
                peak[b as usize] = peak[b as usize].max(res[b as usize].len());
            }
        }
        peak
    }

    #[test]
    fn no_spills_when_fits() {
        let cfg = ArchConfig::new(1, 2, 16).unwrap();
        let pe = PeId::new(0, 1, 0);
        let instrs = vec![
            AInstr::Load {
                row: 0,
                dests: vec![(0, NodeId(0)), (1, NodeId(1))],
            },
            exec(
                vec![(0, 0, NodeId(0)), (1, 1, NodeId(1))],
                vec![(0, pe, NodeId(2))],
            ),
            AInstr::Store {
                row: 1,
                srcs: vec![(0, NodeId(2))],
            },
        ];
        let (out, stats) = insert_spills(&cfg, instrs.clone(), 2).unwrap();
        assert_eq!(stats.stores, 0);
        assert_eq!(stats.reloads, 0);
        assert_eq!(out.len(), instrs.len());
    }

    #[test]
    fn spills_under_pressure_and_reloads() {
        // R = 2; produce 4 values into bank 0, then read them all.
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let _pe = PeId::new(0, 1, 0);
        let mut instrs: Vec<AInstr> = Vec::new();
        for k in 0..4u32 {
            instrs.push(AInstr::Load {
                row: k,
                dests: vec![(0, NodeId(k))],
            });
        }
        for k in 0..4u32 {
            instrs.push(AInstr::Store {
                row: 10 + k,
                srcs: vec![(0, NodeId(k))],
            });
        }
        let (out, stats) = insert_spills(&cfg, instrs, 20).unwrap();
        assert!(stats.stores > 0, "expected spills");
        assert_eq!(stats.stores, stats.reloads);
        let peak = max_occupancy(&cfg, &out);
        assert!(peak[0] <= 2, "peak {peak:?}");
    }

    #[test]
    fn rejects_impossible_pressure() {
        // One exec needs 3 live values in bank 0 with R = 2: reads of the
        // same bank at 3 distinct values cannot coexist... but emission
        // guarantees distinct banks per value, so craft a write burst.
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let instrs = vec![
            AInstr::Load {
                row: 0,
                dests: vec![(0, NodeId(0)), (0, NodeId(1)), (0, NodeId(2))],
            },
            AInstr::Store {
                row: 1,
                srcs: vec![(0, NodeId(0))],
            },
            AInstr::Store {
                row: 2,
                srcs: vec![(0, NodeId(1))],
            },
            AInstr::Store {
                row: 3,
                srcs: vec![(0, NodeId(2))],
            },
        ];
        let err = insert_spills(&cfg, instrs, 10).unwrap_err();
        assert!(matches!(err, SpillError::BankTooSmall { bank: 0, .. }));
    }

    #[test]
    fn dead_writes_become_eviction_victims() {
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let pe = PeId::new(0, 1, 0);
        // Values written but never read occupy registers until evicted;
        // the spiller must keep the bank within R by spilling them.
        let mut instrs = Vec::new();
        for k in 0..8u32 {
            instrs.push(exec(vec![], vec![(0, pe, NodeId(k))]));
        }
        let (out, stats) = insert_spills(&cfg, instrs, 5).unwrap();
        assert_eq!(stats.stores, 6);
        assert!(out.len() > 8);
    }

    #[test]
    fn equal_next_use_evicts_the_lowest_node_id() {
        // Never-read values all tie on "no next use": the victim is the
        // lowest node id, whatever order the bank lists its residents in.
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let pe = PeId::new(0, 1, 0);
        let instrs = [5u32, 3, 9, 1, 7]
            .iter()
            .map(|&k| exec(vec![], vec![(0, pe, NodeId(k))]))
            .collect();
        let (out, _) = insert_spills(&cfg, instrs, 5).unwrap();
        let victims: Vec<u32> = out
            .iter()
            .filter_map(|i| match i {
                AInstr::Store { srcs, .. } => Some(srcs[0].1 .0),
                _ => None,
            })
            .collect();
        // {5,3}+9 -> 3; {5,9}+1 -> 5; {9,1}+7 -> 1.
        assert_eq!(victims, vec![3, 5, 1]);
    }
}
