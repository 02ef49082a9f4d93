//! Step 3 — pipeline-aware reordering (§IV-C).
//!
//! The datapath has `D + 1` pipeline stages, so an instruction that reads a
//! value produced by an `exec` must issue at least `D + 1` cycles after it
//! (`load`/`copy` writebacks land at the end of their issue cycle and need
//! a distance of only 1). The paper reorders the instruction list so that
//! dependent instructions sit far enough apart, searching for independent
//! instructions within a fixed window (300) and inserting `nop`s for
//! unresolved hazards.
//!
//! This implementation is the equivalent list-scheduling formulation: walk
//! cycles forward, keep a ready set ordered by original position, and at
//! each cycle issue the first ready instruction (scanning at most `window`
//! candidates) whose operands have cleared the pipeline; if none qualifies,
//! issue a `nop`. Original order is used as the priority, which preserves
//! the emission's locality and matches the paper's "insert independent
//! instructions in between" behaviour.

use std::collections::BTreeSet;

use dpu_isa::ArchConfig;

use crate::ir::{AInstr, Residency};

/// The instructions that last touched one `(bank, value)` residency.
#[derive(Default)]
struct Touched {
    /// Most recent producer.
    writer: Option<usize>,
    /// Readers since then.
    readers: Vec<usize>,
}

/// Reorders `instrs` to minimize read-after-write stalls; returns the new
/// list (with `nop`s where no independent work was available) and the
/// number of `nop`s inserted.
pub fn reorder(cfg: &ArchConfig, instrs: Vec<AInstr>, window: usize) -> (Vec<AInstr>, u64) {
    let n = instrs.len();
    let exec_latency = cfg.pipeline_stages() as u64; // D + 1

    // Producer of each (bank, value) residency, in order: consumers depend
    // on the most recent prior producer of the pair; producers depend on
    // all prior readers of the pair they overwrite (order preservation) —
    // the latter is implied by emission (a pair is written at most once
    // between reads) and by keeping per-pair program order below.
    let mut touched: Residency<Touched> = Residency::new();
    // deps[i] = (j, min_distance) edges.
    let mut deps: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut n_unmet: Vec<usize> = vec![0; n];

    for (i, ins) in instrs.iter().enumerate() {
        for (bank, v) in ins.bank_reads() {
            let pair = touched.entry(bank, v);
            if let Some(w) = pair.writer {
                let lat = if instrs[w].is_exec() { exec_latency } else { 1 };
                deps[i].push((w, lat));
            }
            pair.readers.push(i);
        }
        for (bank, v) in ins.bank_writes() {
            // Keep write-after-read order for re-created residencies
            // (spill reloads): the new write must follow all readers of
            // the previous residency.
            let pair = touched.entry(bank, v);
            deps[i].extend(pair.readers.drain(..).map(|r| (r, 1)));
            pair.writer = Some(i);
        }
    }
    // Deduplicate and count.
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, d) in deps.iter_mut().enumerate() {
        d.sort_unstable();
        d.dedup();
        n_unmet[i] = d.len();
        for &(j, _) in d.iter() {
            rdeps[j].push(i);
        }
    }

    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| n_unmet[i] == 0).collect();
    let mut issue_cycle: Vec<u64> = vec![0; n];
    let mut earliest: Vec<u64> = vec![0; n];
    let mut out: Vec<AInstr> = Vec::with_capacity(n);
    let mut cycle: u64 = 0;
    let mut scheduled = 0usize;
    let mut nops: u64 = 0;
    let mut instrs: Vec<Option<AInstr>> = instrs.into_iter().map(Some).collect();

    while scheduled < n {
        // First ready instruction whose earliest-issue has passed, scanning
        // up to `window` candidates in original order. Displacement is also
        // bounded by the window (an instruction may not run more than
        // `window` slots before its original position): hoisting
        // independent work arbitrarily far — e.g. pulling loads to the
        // front — lengthens register lifetimes and turns into spill
        // traffic, outweighing the bubbles it fills.
        let horizon = scheduled + window.max(1);
        let pick = ready
            .iter()
            .take(window.max(1))
            .find(|&&i| i <= horizon && earliest[i] <= cycle)
            .copied();
        match pick {
            Some(i) => {
                ready.remove(&i);
                issue_cycle[i] = cycle;
                out.push(instrs[i].take().expect("scheduled once"));
                scheduled += 1;
                for &j in &rdeps[i] {
                    // Update earliest from this dependence.
                    for &(k, lat) in &deps[j] {
                        if k == i {
                            earliest[j] = earliest[j].max(cycle + lat);
                        }
                    }
                    n_unmet[j] -= 1;
                    if n_unmet[j] == 0 {
                        ready.insert(j);
                    }
                }
            }
            None => {
                out.push(AInstr::Nop);
                nops += 1;
            }
        }
        cycle += 1;
    }
    (out, nops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::NodeId;
    use dpu_isa::{PeId, PeOpcode};

    fn exec(reads: Vec<(u32, u32, NodeId)>, writes: Vec<(u32, PeId, NodeId)>) -> AInstr {
        AInstr::Exec {
            reads,
            pe_ops: vec![(PeId::new(0, 1, 0), PeOpcode::Add)],
            writes,
        }
    }

    #[test]
    fn dependent_execs_are_spaced() {
        let cfg = ArchConfig::new(2, 8, 16).unwrap(); // D+1 = 3
        let pe = PeId::new(0, 1, 0);
        let a = exec(vec![], vec![(0, pe, NodeId(1))]);
        let b = exec(vec![(0, 0, NodeId(1))], vec![(1, pe, NodeId(2))]);
        let (out, nops) = reorder(&cfg, vec![a, b], 300);
        assert_eq!(nops, 2);
        assert_eq!(out.len(), 4);
        assert!(matches!(out[1], AInstr::Nop));
        assert!(matches!(out[2], AInstr::Nop));
    }

    #[test]
    fn independent_work_fills_bubbles() {
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let pe = PeId::new(0, 1, 0);
        let a = exec(vec![], vec![(0, pe, NodeId(1))]);
        let b = exec(vec![(0, 0, NodeId(1))], vec![(1, pe, NodeId(2))]);
        let c = exec(vec![], vec![(2, pe, NodeId(3))]);
        let d = exec(vec![], vec![(3, pe, NodeId(4))]);
        let (out, nops) = reorder(&cfg, vec![a, b, c, d], 300);
        // c and d slide into the bubble between a and b.
        assert_eq!(nops, 0);
        assert_eq!(out.len(), 4);
        assert!(matches!(&out[3], AInstr::Exec { reads, .. } if reads.len() == 1));
    }

    #[test]
    fn load_to_exec_distance_is_one() {
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let ld = AInstr::Load {
            row: 0,
            dests: vec![(0, NodeId(1))],
        };
        let ex = exec(vec![(0, 0, NodeId(1))], vec![]);
        let (out, nops) = reorder(&cfg, vec![ld, ex], 300);
        assert_eq!(nops, 0);
        assert_eq!(out.len(), 2);
        let _ = out;
    }

    #[test]
    fn war_on_respawned_residency_is_preserved() {
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        // read of (0, v) then a load re-creating (0, v): load must stay after.
        let st = AInstr::Store {
            row: 5,
            srcs: vec![(0, NodeId(1))],
        };
        let ld = AInstr::Load {
            row: 5,
            dests: vec![(0, NodeId(1))],
        };
        let (out, _) = reorder(&cfg, vec![st, ld], 300);
        assert!(matches!(out[0], AInstr::Store { .. }));
        assert!(matches!(out[1], AInstr::Load { .. }));
    }

    #[test]
    fn empty_list() {
        let cfg = ArchConfig::new(1, 2, 4).unwrap();
        let (out, nops) = reorder(&cfg, vec![], 300);
        assert!(out.is_empty());
        assert_eq!(nops, 0);
    }
}
