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

use std::collections::{BTreeMap, HashMap};

use dpu_dag::NodeId;
use dpu_isa::ArchConfig;

use crate::ir::AInstr;

/// Victim-selection policy for evictions.
///
/// The default (and the paper-faithful choice) evicts the value with the
/// furthest next use — Belady's optimal policy, available here because
/// the whole schedule is known at compile time. The alternatives exist
/// for the ablation study (`dpu-bench --bin ablations`): they show how
/// much the compile-time-knowledge advantage is worth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillPolicy {
    /// Belady: evict the value whose next read is furthest away.
    #[default]
    FurthestNextUse,
    /// Evict the value with the *nearest* next use (pessimal; lower bound).
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
    let r = cfg.regs_per_bank as usize;
    let banks = cfg.banks as usize;

    // Next-use oracle: for each (bank, value), the ordered list of original
    // positions that read it. Inserted spill code preserves relative order,
    // so original positions remain a valid priority.
    let mut future_reads: HashMap<(u32, NodeId), Vec<usize>> = HashMap::new();
    for (i, ins) in instrs.iter().enumerate() {
        for (b, v) in ins.bank_reads() {
            future_reads.entry((b, v)).or_default().push(i);
        }
    }
    for uses in future_reads.values_mut() {
        uses.reverse(); // pop() yields the earliest remaining use
    }

    // Residency state per bank: value -> remaining-use cursor key.
    let mut resident: Vec<HashMap<NodeId, ()>> = vec![HashMap::new(); banks];
    let mut spilled: HashMap<(u32, NodeId), u32> = HashMap::new(); // -> spill row
                                                                   // Spill slots pack per bank: value v of bank b gets column b of row
                                                                   // `spill_base + (b's slot counter)`, so rows are shared across banks.
    let mut spill_rows_per_bank: Vec<u32> = vec![0; banks];
    let mut spill_slot_of: HashMap<(u32, NodeId), u32> = HashMap::new();
    let mut stats = SpillStats::default();
    let mut out: Vec<AInstr> = Vec::with_capacity(instrs.len());

    let next_use =
        |future_reads: &HashMap<(u32, NodeId), Vec<usize>>, b: u32, v: NodeId| -> usize {
            future_reads
                .get(&(b, v))
                .and_then(|u| u.last().copied())
                .unwrap_or(usize::MAX)
        };

    for (pos, ins) in instrs.into_iter().enumerate() {
        // 1. Reload any evicted operands (ensuring capacity first).
        let reads = ins.bank_reads();
        let pinned: Vec<(u32, NodeId)> = reads.iter().copied().chain(ins.bank_writes()).collect();
        for &(b, v) in &reads {
            if resident[b as usize].contains_key(&v) {
                continue;
            }
            let row = match spilled.remove(&(b, v)) {
                Some(row) => row,
                // Not spilled: the value is in flight (produced by an
                // earlier instruction in this list) — residency was
                // recorded at its write; reaching here means the write
                // hasn't been walked yet, which the dependence order of
                // reorder() rules out.
                None => unreachable!("read of value {v} never written to bank {b}"),
            };
            ensure_capacity(
                cfg,
                &mut resident,
                &mut spilled,
                &mut spill_slot_of,
                &mut spill_rows_per_bank,
                &mut stats,
                &mut out,
                &future_reads,
                b,
                1,
                &pinned,
                spill_base,
                policy,
            )?;
            out.push(AInstr::Load {
                row,
                dests: vec![(b, v)],
            });
            stats.reloads += 1;
            resident[b as usize].insert(v, ());
        }

        // 2. Consume last uses: a read that has no later reads frees the
        // register (the valid_rst of §III-B, applied by finalize).
        for &(b, v) in &reads {
            if let Some(uses) = future_reads.get_mut(&(b, v)) {
                while uses.last().is_some_and(|&u| u <= pos) {
                    uses.pop();
                }
                if uses.is_empty() {
                    resident[b as usize].remove(&v);
                }
            }
        }

        // 3. Make room for this instruction's writes.
        // (Banks in ascending order, so the spill stores of one
        // instruction never depend on hash-map iteration order.)
        let mut per_bank: BTreeMap<u32, u32> = BTreeMap::new();
        for (b, _) in ins.bank_writes() {
            *per_bank.entry(b).or_insert(0) += 1;
        }
        for (&b, &count) in &per_bank {
            ensure_capacity(
                cfg,
                &mut resident,
                &mut spilled,
                &mut spill_slot_of,
                &mut spill_rows_per_bank,
                &mut stats,
                &mut out,
                &future_reads,
                b,
                count,
                &pinned,
                spill_base,
                policy,
            )?;
        }
        for (b, v) in ins.bank_writes() {
            // Hardware-accurate: a written value occupies its register
            // until a last read resets the valid bit — even if it is never
            // read (emission never produces such dead writes; if one
            // appears it simply becomes a first-choice eviction victim,
            // since its next use is infinitely far).
            resident[b as usize].insert(v, ());
            debug_assert!(resident[b as usize].len() <= r, "capacity ensured above");
        }
        let _ = next_use;

        out.push(ins);
    }

    stats.rows = spill_rows_per_bank.iter().copied().max().unwrap_or(0);
    Ok((out, stats))
}

/// Evicts furthest-next-use victims from `bank` until `needed` slots are
/// free. Values in `pinned` (operands/targets of the current instruction)
/// are never evicted.
#[allow(clippy::too_many_arguments)]
fn ensure_capacity(
    cfg: &ArchConfig,
    resident: &mut [HashMap<NodeId, ()>],
    spilled: &mut HashMap<(u32, NodeId), u32>,
    spill_slot_of: &mut HashMap<(u32, NodeId), u32>,
    spill_rows_per_bank: &mut [u32],
    stats: &mut SpillStats,
    out: &mut Vec<AInstr>,
    future_reads: &HashMap<(u32, NodeId), Vec<usize>>,
    bank: u32,
    needed: u32,
    pinned: &[(u32, NodeId)],
    spill_base: u32,
    policy: SpillPolicy,
) -> Result<(), SpillError> {
    let r = cfg.regs_per_bank as usize;
    while resident[bank as usize].len() + needed as usize > r {
        let next_use_of = |v: &NodeId| {
            future_reads
                .get(&(bank, *v))
                .and_then(|u| u.last().copied())
                .unwrap_or(usize::MAX)
        };
        let candidates = resident[bank as usize]
            .keys()
            .filter(|v| !pinned.contains(&(bank, **v)));
        let victim = match policy {
            SpillPolicy::FurthestNextUse => candidates.max_by_key(|v| next_use_of(v)).copied(),
            SpillPolicy::NearestNextUse => candidates.min_by_key(|v| next_use_of(v)).copied(),
            SpillPolicy::Arbitrary => candidates.min().copied(),
        };
        let Some(victim) = victim else {
            return Err(SpillError::BankTooSmall {
                bank,
                regs: cfg.regs_per_bank,
            });
        };
        resident[bank as usize].remove(&victim);
        let row = *spill_slot_of.entry((bank, victim)).or_insert_with(|| {
            let row = spill_base + spill_rows_per_bank[bank as usize];
            spill_rows_per_bank[bank as usize] += 1;
            row
        });
        spilled.insert((bank, victim), row);
        out.push(AInstr::Store {
            row,
            srcs: vec![(bank, victim)],
        });
        stats.stores += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_isa::{PeId, PeOpcode};

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
}
