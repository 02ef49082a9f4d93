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
//! cycles forward, keep a ready set ordered by original position (a bitset
//! over positions), and at each cycle look at the `window` lowest ready
//! positions; if none of them may issue, issue a `nop`. One may issue when
//! its operands have cleared the pipeline, it moves no more than `window`
//! slots ahead of its original position, and its register writes find a
//! free write port.
//!
//! - **Priority.** Among those that may issue, the one with the longest
//!   latency-weighted dependence path to the end of the program (its
//!   *height*) goes first, the standard list-scheduling heuristic
//!   (Gibbons and Muchnick, SIGPLAN '86); ties go to the lowest original
//!   position, which keeps the emission's locality and the output
//!   deterministic.
//! - **Write ports.** A bank takes one write per cycle. An `exec` issued
//!   at cycle `c` writes its banks at the end of `c + D`, so a ring of
//!   `D + 1` reservation slots records those banks, and a `load` or `copy`
//!   that would write one of them in the same cycle waits while other work
//!   issues. [`crate::finalize`] would otherwise stall the whole program
//!   for it.

use std::cmp::Reverse;

use dpu_isa::ArchConfig;

use crate::ir::{AInstr, Csr, PosSet, Residency};

/// The instructions that last touched one `(bank, value)` residency.
#[derive(Default)]
struct Touched {
    /// Most recent producer.
    writer: Option<usize>,
    /// The newest read since then, in the read chain.
    last_read: Option<usize>,
}

/// What step 3 did, and what its dependence graph bounds any schedule of
/// its input by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderStats {
    /// `nop`s inserted.
    pub nops: u64,
    /// Instructions handed to step 3.
    pub instrs: u64,
    /// The latency-weighted longest dependence path, in cycles: no
    /// schedule of these instructions is shorter.
    pub critical_path_cycles: u64,
    /// The most `exec`s on one dependence chain.
    pub exec_chain: u64,
}

/// Reorders `instrs` to minimize read-after-write and write-port stalls;
/// returns the new list (with `nop`s where no independent work was
/// available) and what it did.
pub fn reorder(
    cfg: &ArchConfig,
    instrs: Vec<AInstr>,
    window: usize,
) -> (Vec<AInstr>, ReorderStats) {
    let n = instrs.len();
    let exec_latency = cfg.pipeline_stages() as u64; // D + 1

    // Producer of each (bank, value) residency, in order: consumers depend
    // on the most recent prior producer of the pair; producers depend on
    // all prior readers of the pair they overwrite (order preservation) —
    // the latter is implied by emission (a pair is written at most once
    // between reads) and by keeping per-pair program order below.
    let mut touched: Residency<Touched> = Residency::new();
    // Every read as `(reader, the pair's previous read)`, chained per pair.
    let mut reads: Vec<(usize, Option<usize>)> = Vec::new();
    // Dependences `(earlier, later, min distance)` in order of `later`, one
    // per pair of instructions: only the largest distance binds. While
    // instruction `i` is scanned, `seen[j] == i` says `edges[entry[j]]` is
    // its dependence on `j`.
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    let mut seen = vec![usize::MAX; n];
    let mut entry = vec![0usize; n];
    let mut n_unmet: Vec<usize> = vec![0; n];

    for (i, ins) in instrs.iter().enumerate() {
        let first = edges.len();
        let mut depend = |j: usize, lat: u64| {
            if seen[j] == i {
                let e = &mut edges[entry[j]].2;
                *e = (*e).max(lat);
            } else {
                (seen[j], entry[j]) = (i, edges.len());
                edges.push((j, i, lat));
            }
        };
        for (bank, v) in ins.bank_reads() {
            let pair = touched.entry(bank, v);
            if let Some(w) = pair.writer {
                depend(w, if instrs[w].is_exec() { exec_latency } else { 1 });
            }
            reads.push((i, pair.last_read.replace(reads.len())));
        }
        for (bank, v) in ins.bank_writes() {
            // Keep write-after-read order for re-created residencies
            // (spill reloads): the new write must follow all readers of
            // the previous residency.
            let pair = touched.entry(bank, v);
            let mut read = pair.last_read.take();
            while let Some(at) = read {
                depend(reads[at].0, 1);
                read = reads[at].1;
            }
            pair.writer = Some(i);
        }
        n_unmet[i] = edges.len() - first;
    }
    // What each instruction's issue releases: `(later, min distance)`.
    let succs = Csr::new(n, edges.iter().map(|&(j, i, lat)| (j, (i, lat))));
    // Priority: the longest latency-weighted path to a sink. Every edge
    // points forward, so one reverse walk settles each height, and the
    // most `exec`s on a path from each instruction.
    let mut height: Vec<u64> = vec![0; n];
    let mut execs: Vec<u64> = vec![0; n];
    for j in (0..n).rev() {
        for &(i, lat) in succs.row(j) {
            height[j] = height[j].max(lat + height[i]);
            execs[j] = execs[j].max(execs[i]);
        }
        execs[j] += u64::from(instrs[j].is_exec());
    }
    let mut stats = ReorderStats {
        nops: 0,
        instrs: n as u64,
        critical_path_cycles: height.iter().max().map_or(0, |h| h + 1),
        exec_chain: execs.into_iter().max().unwrap_or(0),
    };

    let mut ready = PosSet::new(n);
    for i in (0..n).filter(|&i| n_unmet[i] == 0) {
        ready.insert(i);
    }
    // Write-port reservations: an `exec` issued at cycle `c` writes its
    // banks at the end of `c + D`, the cycle a `load` or `copy` issued
    // then would write too. `lands[slot(t) + b] == t` says an `exec`
    // writes bank `b` at the end of cycle `t`.
    let banks = cfg.banks as usize;
    let depth = u64::from(cfg.depth);
    let mut lands: Vec<u64> = vec![u64::MAX; exec_latency as usize * banks];
    let slot = |cycle: u64| (cycle % exec_latency) as usize * banks;
    let mut earliest: Vec<u64> = vec![0; n];
    let mut out: Vec<AInstr> = Vec::with_capacity(n);
    let mut cycle: u64 = 0;
    let mut scheduled = 0usize;
    let mut instrs: Vec<Option<AInstr>> = instrs.into_iter().map(Some).collect();

    while scheduled < n {
        // Displacement is bounded by the window (an instruction may not run
        // more than `window` slots before its original position): hoisting
        // independent work arbitrarily far — e.g. pulling loads to the
        // front — lengthens register lifetimes and turns into spill
        // traffic, outweighing the bubbles it fills.
        let horizon = scheduled + window.max(1);
        let now = slot(cycle);
        let issuable = |i: usize| {
            i <= horizon && earliest[i] <= cycle && {
                let ins = instrs[i]
                    .as_ref()
                    .expect("ready instructions are unscheduled");
                // An exec's own writes land `D` cycles later.
                ins.is_exec()
                    || ins
                        .bank_writes()
                        .all(|(b, _)| lands[now + b as usize] != cycle)
            }
        };
        match pick(&mut ready, window, &height, issuable) {
            Some(i) => {
                ready.remove(i);
                let ins = instrs[i].take().expect("scheduled once");
                if ins.is_exec() {
                    let due = slot(cycle + depth);
                    for (b, _) in ins.bank_writes() {
                        lands[due + b as usize] = cycle + depth;
                    }
                }
                out.push(ins);
                scheduled += 1;
                for &(j, lat) in succs.row(i) {
                    earliest[j] = earliest[j].max(cycle + lat);
                    n_unmet[j] -= 1;
                    if n_unmet[j] == 0 {
                        ready.insert(j);
                    }
                }
            }
            None => {
                out.push(AInstr::Nop);
                stats.nops += 1;
            }
        }
        cycle += 1;
    }
    (out, stats)
}

/// Among the `window` lowest ready positions, the `issuable` one with the
/// greatest `height`; ties go to the lowest position.
fn pick(
    ready: &mut PosSet,
    window: usize,
    height: &[u64],
    issuable: impl Fn(usize) -> bool,
) -> Option<usize> {
    ready
        .ascending()
        .take(window.max(1))
        .filter(|&i| issuable(i))
        .max_by_key(|&i| (height[i], Reverse(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::NodeId;
    use dpu_isa::{PeId, PeOpcode, Topology};

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
        let (out, stats) = reorder(&cfg, vec![a, b], 300);
        assert_eq!(stats.nops, 2);
        assert_eq!(out.len(), 4);
        // b issues D + 1 cycles after a, so no schedule is shorter.
        assert_eq!((stats.critical_path_cycles, stats.exec_chain), (4, 2));
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
        let (out, stats) = reorder(&cfg, vec![a, b, c, d], 300);
        // c and d slide into the bubble between a and b.
        assert_eq!(stats.nops, 0);
        assert_eq!((stats.instrs, stats.exec_chain), (4, 2));
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
        let (out, stats) = reorder(&cfg, vec![ld, ex], 300);
        assert_eq!(stats.nops, 0);
        // A load's writeback is read the next cycle; it is not an exec.
        assert_eq!((stats.critical_path_cycles, stats.exec_chain), (2, 1));
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
    fn load_waits_for_the_exec_writeback_on_its_bank() {
        // D = 2; the output crossbar lets one PE write any bank.
        let cfg = ArchConfig::with_topology(2, 8, 16, Topology::CrossbarBoth).unwrap();
        let pe = PeId::new(0, 1, 0);
        // a's writeback lands in bank 1 at the end of cycle 2; after a and
        // the independent b, the load into bank 1 would issue at cycle 2.
        let a = exec(vec![], vec![(1, pe, NodeId(1))]);
        let b = exec(vec![], vec![(2, pe, NodeId(2))]);
        let ld = AInstr::Load {
            row: 0,
            dests: vec![(1, NodeId(3))],
        };
        let c = exec(vec![], vec![(3, pe, NodeId(4))]);
        let (out, stats) = reorder(&cfg, vec![a, b, ld, c], 16);
        // c takes cycle 2 and the load the cycle after.
        assert_eq!(stats.nops, 0);
        assert!(matches!(&out[2], AInstr::Exec { writes, .. } if writes[0].0 == 3));
        assert!(matches!(out[3], AInstr::Load { .. }));
        let fin = crate::finalize::finalize(&cfg, &out).unwrap();
        assert_eq!(fin.stall_nops, 0);
    }

    #[test]
    fn chain_head_outranks_an_earlier_leaf_and_ties_go_low() {
        let cfg = ArchConfig::new(2, 8, 16).unwrap(); // D+1 = 3
        let pe = PeId::new(0, 1, 0);
        let leaf = |bank, v| exec(vec![], vec![(bank, pe, NodeId(v))]);
        // 0 and 1 are leaves; 2 heads the chain 2 -> 3 -> 4.
        let head = leaf(2, 2);
        let mid = exec(vec![(0, 2, NodeId(2))], vec![(3, pe, NodeId(3))]);
        let tail = exec(vec![(0, 3, NodeId(3))], vec![]);
        let (out, stats) = reorder(&cfg, vec![leaf(0, 0), leaf(1, 1), head, mid, tail], 16);
        assert_eq!((stats.critical_path_cycles, stats.exec_chain), (7, 3));
        let first_write = |ins: &AInstr| match ins {
            AInstr::Exec { writes, .. } => writes.first().map(|w| w.0),
            _ => None,
        };
        // The head (height 6) goes before both leaves (height 0), and the
        // leaves keep their order.
        let order: Vec<Option<u32>> = out.iter().take(3).map(first_write).collect();
        assert_eq!(order, [Some(2), Some(0), Some(1)]);
    }

    /// The ready set against the `BTreeSet<usize>` it replaced: seeded
    /// inserts and removes, each followed by a pick that must be the
    /// greatest height among the set's `window` lowest members that are
    /// within `horizon` and whose earliest cycle has passed, the lowest
    /// position on a tie.
    #[test]
    fn ready_pick_is_the_btreeset_walk() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        let steps = if cfg!(debug_assertions) {
            6_000
        } else {
            600_000
        };
        let mut rng = SmallRng::seed_from_u64(26);
        let n = 700; // eleven words
        let earliest: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..40)).collect();
        // Few distinct heights, so ties are common.
        let height: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..6)).collect();
        let mut ready = PosSet::new(n);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for step in 0..steps {
            // Dense, balanced and draining phases in turn. Draining takes
            // the lowest member, as issuing does, and empties whole words;
            // the next dense phase then inserts below the lowest non-empty
            // one.
            let i = rng.gen_range(0..n);
            match step / 1000 % 3 {
                2 => {
                    if let Some(low) = model.pop_first() {
                        ready.remove(low);
                    }
                }
                phase if rng.gen_bool([0.8, 0.5][phase]) => {
                    ready.insert(i);
                    model.insert(i);
                }
                _ => {
                    ready.remove(i);
                    model.remove(&i);
                }
            }
            let window = [0, 1, 2, 63, 64, 65, 300][rng.gen_range(0usize..7)];
            let horizon = rng.gen_range(0..n + 64);
            let cycle = rng.gen_range(0u64..45);
            let issuable = |i: usize| i <= horizon && earliest[i] <= cycle;
            let candidates: Vec<usize> = model
                .iter()
                .take(window.max(1))
                .copied()
                .filter(|&i| issuable(i))
                .collect();
            let top = candidates.iter().map(|&i| height[i]).max();
            let want = candidates.into_iter().find(|&i| Some(height[i]) == top);
            let got = pick(&mut ready, window, &height, issuable);
            assert_eq!(
                got, want,
                "window {window}, horizon {horizon}, cycle {cycle}"
            );
        }
    }

    #[test]
    fn empty_list() {
        let cfg = ArchConfig::new(1, 2, 4).unwrap();
        let (out, stats) = reorder(&cfg, vec![], 300);
        assert!(out.is_empty());
        let none = ReorderStats {
            nops: 0,
            instrs: 0,
            critical_path_cycles: 0,
            exec_chain: 0,
        };
        assert_eq!(stats, none);
    }
}
