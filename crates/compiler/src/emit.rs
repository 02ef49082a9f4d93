//! Lowering blocks to abstract instructions.
//!
//! Emission walks the blocks in execution order and produces the abstract
//! instruction list: one `exec` per block, `load`s that bring DAG inputs
//! from data memory just in time, `copy`s that repair residual bank
//! conflicts (§III-D: "to handle bank conflicts, a copy instruction enables
//! an arbitrary shuffle of data across banks"), and `store`s that write the
//! program outputs back. Concrete register addresses are left to
//! [`crate::finalize`].
//!
//! Conflict repair:
//!
//! - **Reads** (constraint F violations): if two *distinct* input values of
//!   one exec share a bank, all but one are first copied to free banks and
//!   the exec reads the temporaries. (The same value on several ports is
//!   *not* a conflict — the input crossbar broadcasts one bank read.)
//! - **Writes** (constraint G/H violations): an output whose home bank is
//!   unreachable from its PE occurrences, or already written by another
//!   output of the same exec, is written to an alternate reachable bank
//!   and copied to its home afterwards.
//!
//! Every repaired value counts as one bank conflict (Fig. 6(e), Fig. 10(b)
//! metric); each conflict costs one stall cycle worth of `copy` bandwidth.

use dpu_dag::{Dag, NodeId, Op};
use dpu_isa::{interconnect, ArchConfig, Instr};

use crate::ir::{AInstr, BankAssignment, Block, ConflictStats, DataLayout};

/// Result of emission.
#[derive(Debug)]
pub struct Emitted {
    /// Abstract instruction list in program order.
    pub instrs: Vec<AInstr>,
    /// Data-memory layout (inputs and outputs; spill rows added later).
    pub layout: DataLayout,
    /// Conflict statistics.
    pub conflicts: ConflictStats,
}

/// Errors during emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// An output could not be routed to any bank (all banks reachable from
    /// its PE occurrences are taken by other outputs of the same exec).
    Unroutable(NodeId),
    /// No free bank was available for a read-conflict repair copy.
    NoFreeBank(NodeId),
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::Unroutable(n) => write!(f, "output {n} unroutable to any bank"),
            EmitError::NoFreeBank(n) => write!(f, "no free bank for conflict copy of {n}"),
        }
    }
}

impl std::error::Error for EmitError {}

/// Lowers `blocks` into abstract instructions.
///
/// `outputs` lists the values to store to data memory at the end of the
/// program, in the order their memory slots should be reported.
///
/// # Errors
///
/// See [`EmitError`]; both conditions require pathological bank pressure
/// and do not occur for valid step-1/step-2 results on the DSE grid.
pub fn emit(
    dag: &Dag,
    cfg: &ArchConfig,
    blocks: &[Block],
    assign: &BankAssignment,
    outputs: &[NodeId],
) -> Result<Emitted, EmitError> {
    let mut conflicts = ConflictStats::default();
    let mut instrs: Vec<AInstr> = Vec::with_capacity(blocks.len() * 2);

    // ---- Input layout: each used DAG input gets (row, col = home bank).
    // Inputs first consumed by the same block share a data-memory row, so
    // the just-in-time load path below needs roughly one `load` per block
    // instead of one per value (constraint F already guarantees a block's
    // inputs occupy distinct banks, i.e. distinct row columns).
    let input_nodes: Vec<NodeId> = dag.nodes().filter(|&v| dag.op(v) == Op::Input).collect();
    let mut slot_of: Vec<(u32, u32)> = vec![NO_SLOT; dag.len()];
    let mut next_row: u32 = 0;
    for blk in blocks {
        let mut open_rows: Vec<(u32, Vec<u32>)> = Vec::new();
        for &v in &blk.inputs {
            if dag.op(v) != Op::Input || slot_of[v.index()] != NO_SLOT {
                continue;
            }
            let bank = assign.bank(v);
            // First open row of this block whose column is free.
            let target = open_rows.iter_mut().find(|(_, cols)| !cols.contains(&bank));
            let row = match target {
                Some((row, cols)) => {
                    cols.push(bank);
                    *row
                }
                None => {
                    open_rows.push((next_row, vec![bank]));
                    next_row += 1;
                    next_row - 1
                }
            };
            slot_of[v.index()] = (row, bank);
        }
    }
    // Inputs never consumed by any block (e.g. stored directly) get
    // trailing rows.
    for &v in &input_nodes {
        if assign.bank_of[v.index()].is_some() && slot_of[v.index()] == NO_SLOT {
            slot_of[v.index()] = (next_row, assign.bank(v));
            next_row += 1;
        }
    }
    let in_rows = next_row;

    // Just-in-time masked loads: each load brings in only the columns a
    // block actually needs, so unrelated inputs sharing a row do not
    // occupy registers early (whole-row loads were measured to spill-thrash
    // on wide PCs).
    let mut value_loaded = vec![false; dag.len()];
    let mut to_load: Vec<(u32, u32, NodeId)> = Vec::new();
    let mut emit_loads_for =
        |needed: &[NodeId], instrs: &mut Vec<AInstr>, value_loaded: &mut [bool]| {
            to_load.clear();
            for &v in needed {
                let (row, col) = slot_of[v.index()];
                if (row, col) != NO_SLOT && !value_loaded[v.index()] {
                    value_loaded[v.index()] = true;
                    to_load.push((row, col, v));
                }
            }
            push_by_row(&mut to_load, |row, dests| {
                instrs.push(AInstr::Load { row, dests });
            });
        };

    // Per-block scratch. `effective_bank[v]` is the bank the exec reads
    // input `v` from (`NO_BANK` outside the block being emitted).
    let mut bank_owner: Vec<Option<NodeId>> = vec![None; cfg.banks as usize];
    let mut effective_bank: Vec<u32> = vec![NO_BANK; dag.len()];

    // ---- Emit blocks with just-in-time loads and conflict repair.
    for blk in blocks {
        let needed: Vec<NodeId> = blk
            .inputs
            .iter()
            .copied()
            .filter(|v| dag.op(*v) == Op::Input && !value_loaded[v.index()])
            .collect();
        emit_loads_for(&needed, &mut instrs, &mut value_loaded);

        // Read-conflict repair: distinct values sharing a bank. All home
        // banks are reserved up front so a repair copy never lands on the
        // home of another input of the same exec.
        bank_owner.fill(None);
        let mut pending_moves: Vec<(u32, NodeId, u32)> = Vec::new();
        let mut used_banks: Vec<bool> = vec![false; cfg.banks as usize];
        for &v in &blk.inputs {
            used_banks[assign.bank(v) as usize] = true;
        }
        for &v in &blk.inputs {
            let b = assign.bank(v);
            match bank_owner[b as usize] {
                None => {
                    bank_owner[b as usize] = Some(v);
                    effective_bank[v.index()] = b;
                }
                Some(w) if w == v => {}
                Some(_) => {
                    conflicts.read_conflicts += 1;
                    // Copy v to a free bank for this exec.
                    let dst = used_banks
                        .iter()
                        .position(|&u| !u)
                        .ok_or(EmitError::NoFreeBank(v))? as u32;
                    used_banks[dst as usize] = true;
                    pending_moves.push((b, v, dst));
                    effective_bank[v.index()] = dst;
                    bank_owner[dst as usize] = Some(v);
                }
            }
        }
        // Copies have pairwise-distinct dsts by construction; srcs can
        // repeat across moves (two conflicting values in one bank), so
        // split batches on src repetition as well as on K.
        flush_moves(&mut instrs, &mut conflicts, &pending_moves, cfg);

        // Write routing.
        let mut write_banks: Vec<bool> = vec![false; cfg.banks as usize];
        let mut writes: Vec<(u32, dpu_isa::PeId, NodeId)> = Vec::new();
        let mut post_moves: Vec<(u32, NodeId, u32)> = Vec::new();
        for (v, occ) in &blk.outputs {
            let home = assign.bank(*v);
            let direct = occ
                .iter()
                .find(|pe| interconnect::can_write(cfg, **pe, home) && !write_banks[home as usize]);
            if let Some(pe) = direct {
                write_banks[home as usize] = true;
                writes.push((home, *pe, *v));
                continue;
            }
            conflicts.write_conflicts += 1;
            // Detour: write to any reachable free bank, then copy home.
            let mut found = None;
            'occ: for pe in occ {
                for b in interconnect::writable_banks(cfg, *pe) {
                    if !write_banks[b as usize] {
                        found = Some((b, *pe));
                        break 'occ;
                    }
                }
            }
            let (alt, pe) = found.ok_or(EmitError::Unroutable(*v))?;
            write_banks[alt as usize] = true;
            writes.push((alt, pe, *v));
            post_moves.push((alt, *v, home));
        }

        // The exec itself.
        let reads: Vec<(u32, u32, NodeId)> = blk
            .port_reads
            .iter()
            .map(|&(port, v)| {
                let b = match effective_bank[v.index()] {
                    NO_BANK => assign.bank(v),
                    b => b,
                };
                (port, b, v)
            })
            .collect();
        for &v in &blk.inputs {
            effective_bank[v.index()] = NO_BANK;
        }
        instrs.push(AInstr::Exec {
            reads,
            pe_ops: blk.pe_config.clone(),
            writes,
        });

        flush_moves(&mut instrs, &mut conflicts, &post_moves, cfg);
    }

    // ---- Output layout and final stores.
    let mut out_rows_per_bank = vec![0u32; cfg.banks as usize];
    let mut output_slots = Vec::with_capacity(outputs.len());
    let mut out_slot_of: Vec<(u32, u32)> = vec![NO_SLOT; dag.len()];
    let mut to_store: Vec<(u32, u32, NodeId)> = Vec::new();
    for &v in outputs {
        if out_slot_of[v.index()] != NO_SLOT {
            output_slots.push(out_slot_of[v.index()]);
            continue;
        }
        let bank = assign.bank(v);
        let row = in_rows + out_rows_per_bank[bank as usize];
        out_rows_per_bank[bank as usize] += 1;
        out_slot_of[v.index()] = (row, bank);
        to_store.push((row, bank, v));
        output_slots.push((row, bank));

        // Degenerate case: an output that is a DAG input must be loaded
        // before it can be stored.
        if dag.op(v) == Op::Input && !value_loaded[v.index()] {
            emit_loads_for(&[v], &mut instrs, &mut value_loaded);
        }
    }
    let out_rows = out_rows_per_bank.iter().copied().max().unwrap_or(0);
    // Group stores by row.
    push_by_row(&mut to_store, |row, srcs| {
        // Split wide rows into chunks the Store instruction models as one
        // vector write each; narrow leftovers use the compact store_4 form
        // chosen at finalize time.
        for chunk in srcs.chunks(cfg.banks as usize) {
            instrs.push(AInstr::Store {
                row,
                srcs: chunk.to_vec(),
            });
        }
    });

    let spill_base = in_rows + out_rows;
    // Unused inputs keep the sentinel slot (their values are never read).
    let input_slots = input_nodes.iter().map(|v| slot_of[v.index()]).collect();
    Ok(Emitted {
        instrs,
        layout: DataLayout {
            input_slots,
            output_slots,
            spill_base,
            rows_used: spill_base,
        },
        conflicts,
    })
}

/// The slot of a value that has none: what [`DataLayout::input_slots`]
/// reports for an input no instruction reads.
const NO_SLOT: (u32, u32) = (u32::MAX, u32::MAX);
const NO_BANK: u32 = u32::MAX;

/// Hands `slots` — `(row, column, value)`, every `(row, column)` distinct —
/// to `push` one row at a time: rows ascending, each row's `(column,
/// value)` pairs in column order.
fn push_by_row(slots: &mut [(u32, u32, NodeId)], mut push: impl FnMut(u32, Vec<(u32, NodeId)>)) {
    slots.sort_unstable();
    for same_row in slots.chunk_by(|a, b| a.0 == b.0) {
        let row = same_row[0].0;
        push(row, same_row.iter().map(|&(_, c, v)| (c, v)).collect());
    }
}

/// Batches copy moves into `copy_4` instructions, splitting on the K limit
/// and on repeated source or destination banks.
fn flush_moves(
    instrs: &mut Vec<AInstr>,
    conflicts: &mut ConflictStats,
    moves: &[(u32, NodeId, u32)],
    cfg: &ArchConfig,
) {
    let mut batch: Vec<(u32, NodeId, u32)> = Vec::new();
    let mut src_used = vec![false; cfg.banks as usize];
    let mut dst_used = vec![false; cfg.banks as usize];
    for &(s, v, d) in moves {
        let full = batch.len() == Instr::K || src_used[s as usize] || dst_used[d as usize];
        if full {
            conflicts.copies_inserted += 1;
            instrs.push(AInstr::Copy {
                moves: std::mem::take(&mut batch),
            });
            src_used.fill(false);
            dst_used.fill(false);
        }
        src_used[s as usize] = true;
        dst_used[d as usize] = true;
        batch.push((s, v, d));
    }
    if !batch.is_empty() {
        conflicts.copies_inserted += 1;
        instrs.push(AInstr::Copy { moves: batch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step1::decompose;
    use crate::step2::{assign_banks, compute_needs_store, place_blocks, BankPolicy};
    use dpu_dag::DagBuilder;
    use dpu_dag::Op;
    use std::collections::HashMap;

    fn emit_dag(dag: &Dag, cfg: &ArchConfig, policy: BankPolicy) -> Emitted {
        let mut mapped = vec![false; dag.len()];
        let raw = decompose(dag, cfg, None, &mut mapped);
        let outputs: Vec<NodeId> = dag.sinks().collect();
        let needs = compute_needs_store(dag, &raw, &outputs);
        let blocks = place_blocks(dag, cfg, raw, &needs);
        let assign = assign_banks(dag, cfg, &blocks, &outputs, policy, 5);
        emit(dag, cfg, &blocks, &assign, &outputs).unwrap()
    }

    fn mid_dag() -> Dag {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(33);
        let mut b = DagBuilder::new();
        let mut ids: Vec<NodeId> = (0..12).map(|_| b.input()).collect();
        for _ in 0..150 {
            let i = ids[rng.gen_range(0..ids.len())];
            let j = ids[rng.gen_range(0..ids.len())];
            let op = if rng.gen_bool(0.5) { Op::Add } else { Op::Mul };
            ids.push(b.node(op, &[i, j]).unwrap());
        }
        b.finish().unwrap()
    }

    #[test]
    fn emits_loads_execs_stores() {
        let dag = mid_dag();
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        let e = emit_dag(&dag, &cfg, BankPolicy::ConflictAware);
        let loads = e
            .instrs
            .iter()
            .filter(|i| matches!(i, AInstr::Load { .. }))
            .count();
        let execs = e
            .instrs
            .iter()
            .filter(|i| matches!(i, AInstr::Exec { .. }))
            .count();
        let stores = e
            .instrs
            .iter()
            .filter(|i| matches!(i, AInstr::Store { .. }))
            .count();
        assert!(loads > 0 && execs > 0 && stores > 0);
    }

    #[test]
    fn exec_reads_hit_distinct_banks_per_value() {
        let dag = mid_dag();
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        let e = emit_dag(&dag, &cfg, BankPolicy::ConflictAware);
        for i in &e.instrs {
            if let AInstr::Exec { reads, .. } = i {
                let mut bank_to_val: HashMap<u32, NodeId> = HashMap::new();
                for &(_, b, v) in reads {
                    if let Some(&w) = bank_to_val.get(&b) {
                        assert_eq!(w, v, "bank {b} carries two values");
                    }
                    bank_to_val.insert(b, v);
                }
            }
        }
    }

    #[test]
    fn exec_writes_hit_distinct_banks_and_legal_pes() {
        let dag = mid_dag();
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        for policy in [BankPolicy::ConflictAware, BankPolicy::Random] {
            let e = emit_dag(&dag, &cfg, policy);
            for i in &e.instrs {
                if let AInstr::Exec { writes, .. } = i {
                    let mut seen = std::collections::HashSet::new();
                    for &(b, pe, _) in writes {
                        assert!(seen.insert(b), "bank {b} written twice");
                        assert!(interconnect::can_write(&cfg, pe, b));
                    }
                }
            }
        }
    }

    #[test]
    fn random_policy_has_more_conflicts() {
        let dag = mid_dag();
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        let smart = emit_dag(&dag, &cfg, BankPolicy::ConflictAware);
        let random = emit_dag(&dag, &cfg, BankPolicy::Random);
        assert!(
            random.conflicts.total() >= smart.conflicts.total(),
            "random {} < smart {}",
            random.conflicts.total(),
            smart.conflicts.total()
        );
    }

    #[test]
    fn layout_covers_all_sinks() {
        let dag = mid_dag();
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        let e = emit_dag(&dag, &cfg, BankPolicy::ConflictAware);
        assert_eq!(e.layout.output_slots.len(), dag.sinks().count());
        assert!(e.layout.spill_base > 0);
    }
}
