//! Step 2 — PE mapping and conflict-aware register-bank allocation
//! (Algorithm 2, §IV-B).
//!
//! **PE mapping.** Each subgraph is unrolled onto the subtree slot chosen
//! in step 1: every node occurrence sits at tree layer = its height within
//! the cone, shared nodes are replicated (Fig. 9(c)), and height gaps are
//! padded with bypass-configured PEs so operands ripple up to their
//! consumers. The slot geometry fixes each occurrence's PE; this differs
//! from the paper's joint PE/bank search only in that the PE choice is
//! structural — the bank allocator below still sees the full set of
//! occurrences per value, which restores most of the freedom constraint H
//! is about (see DESIGN.md §4).
//!
//! **Bank allocation.** Block inputs/outputs ("io nodes") get home banks
//! from the paper's greedy allocator: values with the fewest compatible
//! banks first, random choice among compatible banks (objective J,
//! balance), compatibility shrunk by constraint F (inputs of one exec in
//! distinct banks) and G (outputs of one exec in distinct banks) as
//! neighbors are fixed, and a least-contended fallback when no compatible
//! bank remains (the residual conflicts are repaired with `copy`s at
//! emission). A [`BankPolicy::Random`] mode reproduces the paper's random
//! baseline (Fig. 10(b), 292× more conflicts).

use dpu_dag::{Dag, NodeId, Op};
use dpu_isa::{interconnect, ArchConfig, PeId, PeOpcode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ir::{BankAssignment, Block, Csr};
use crate::step1::RawBlock;

/// Bank-allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankPolicy {
    /// The paper's conflict-aware allocator (Algorithm 2).
    #[default]
    ConflictAware,
    /// Uniform-random allocation within each value's writable banks — the
    /// baseline of Fig. 10(b).
    Random,
}

/// Maps the opcode of a DAG node to the PE opcode evaluating it.
fn pe_opcode(op: Op) -> PeOpcode {
    match op {
        Op::Add => PeOpcode::Add,
        Op::Mul => PeOpcode::Mul,
        Op::Sub => PeOpcode::Sub,
        Op::Div => PeOpcode::Div,
        Op::Min => PeOpcode::Min,
        Op::Max => PeOpcode::Max,
        Op::Input => unreachable!("inputs are never placed on PEs"),
    }
}

/// Spatially places every block: fills `pe_config`, `port_reads`,
/// `outputs` and `inputs` of [`Block`].
///
/// `needs_store[v]` must be true for every value that must live in the
/// register file: values consumed by a different block than the one
/// computing them, and requested program outputs.
pub fn place_blocks(
    dag: &Dag,
    cfg: &ArchConfig,
    raw: Vec<RawBlock>,
    needs_store: &[bool],
) -> Vec<Block> {
    let mut blocks = Vec::with_capacity(raw.len());
    // Per-node scratch, reset by the nodes that touched it. `height` is a
    // node's height within the subgraph being placed (0 = not in its
    // cone); `input_seen` marks the block's register-file operands.
    let mut height = vec![0u32; dag.len()];
    let mut input_seen = vec![false; dag.len()];
    // `(node, PE)` of every occurrence placed in the block.
    let mut occurrences: Vec<(NodeId, PeId)> = Vec::new();
    // Occurrences still to place: `(node, layer, PE index at that layer)`.
    let mut stack: Vec<(NodeId, u32, u32)> = Vec::new();
    for rb in raw {
        let mut blk = Block {
            subgraphs: rb.subgraphs,
            ..Block::default()
        };
        occurrences.clear();

        for sg in &blk.subgraphs {
            // Heights within the cone: leaves (operands outside the cone)
            // count 0, so height(sink) == sg.depth.
            for &x in &sg.nodes {
                let h = dag
                    .preds(x)
                    .iter()
                    .map(|p| height[p.index()])
                    .max()
                    .unwrap_or(0)
                    + 1;
                height[x.index()] = h;
            }
            debug_assert_eq!(height[sg.sink.index()], sg.depth);

            // Recursive top-down placement of the unrolled tree. `idx` is
            // the PE index at `layer` within the whole tree.
            let tree = sg.tree;
            stack.push((sg.sink, sg.depth, sg.leaf_offset >> sg.depth));
            while let Some((node, layer, idx)) = stack.pop() {
                blk.pe_config
                    .push((PeId::new(tree, layer, idx), pe_opcode(dag.op(node))));
                occurrences.push((node, PeId::new(tree, layer, idx)));
                let preds = dag.preds(node);
                debug_assert_eq!(preds.len(), 2, "binarized compute nodes are 2-input");
                for (side, &child) in preds.iter().enumerate() {
                    let s = side as u32;
                    let child_h = height[child.index()];
                    let in_cone = child_h != 0;
                    // Bypass padding along the always-left descend path
                    // from (layer-1, 2·idx+s) down to the child's level.
                    for lv in (child_h.max(1)..layer).rev() {
                        let bp_idx = (2 * idx + s) << (layer - 1 - lv);
                        if in_cone && lv == child_h {
                            break; // the child occupies this position
                        }
                        blk.pe_config
                            .push((PeId::new(tree, lv, bp_idx), PeOpcode::BypassL));
                    }
                    if in_cone {
                        let c_idx = (2 * idx + s) << (layer - 1 - child_h);
                        stack.push((child, child_h, c_idx));
                    } else {
                        // Operand fetched from the register file at the
                        // leftmost leaf port under this side.
                        let port = (2 * idx + s) << (layer - 1);
                        blk.port_reads
                            .push((tree * cfg.ports_per_tree() + port, child));
                        if !input_seen[child.index()] {
                            input_seen[child.index()] = true;
                            blk.inputs.push(child);
                        }
                    }
                }
            }
            for &x in &sg.nodes {
                height[x.index()] = 0;
            }
        }

        // io outputs of this block. Grouped by node with the higher layers
        // first — more writable banks under the per-layer output
        // interconnect — and placement order kept within a layer.
        occurrences.sort_by_key(|&(x, pe)| (x, std::cmp::Reverse(pe.layer)));
        for sg in &blk.subgraphs {
            for &x in &sg.nodes {
                if needs_store[x.index()] {
                    let from = occurrences.partition_point(|&(y, _)| y < x);
                    let occ = occurrences[from..]
                        .iter()
                        .take_while(|&&(y, _)| y == x)
                        .map(|&(_, pe)| pe)
                        .collect();
                    blk.outputs.push((x, occ));
                }
            }
        }
        for &v in &blk.inputs {
            input_seen[v.index()] = false;
        }
        blocks.push(blk);
    }
    blocks
}

/// Assigns home banks to every io value (Algorithm 2).
///
/// `outputs_requested` marks program outputs (stored at the end); DAG
/// inputs are detected from the DAG itself. Returns the assignment for use
/// by [`crate::emit`].
pub fn assign_banks(
    dag: &Dag,
    cfg: &ArchConfig,
    blocks: &[Block],
    outputs: &[NodeId],
    policy: BankPolicy,
    seed: u64,
) -> BankAssignment {
    let n = dag.len();
    let banks = cfg.banks as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbad_c0de);

    // io universe: block inputs ∪ block outputs.
    let mut is_io = vec![false; n];
    // Sb, the compatible banks of each io value: `words` words of bitset
    // per value, bit `b` set = bank `b` is still an option. All zero once
    // the value is assigned.
    let words = banks.div_ceil(64);
    let mut sb = vec![0u64; n * words];
    let every_bank = |sb: &mut [u64], v: NodeId| {
        for (w, word) in sb[v.index() * words..][..words].iter_mut().enumerate() {
            *word = u64::MAX >> (64 - (banks - 64 * w).min(64));
        }
    };
    // Neighborhoods: the block writing each value (constraint G, outputs of
    // one block; a value has one producer) and the blocks reading it
    // (constraint F, inputs of one block), in block order.
    let mut writer: Vec<Option<u32>> = vec![None; n];
    for (bi, blk) in blocks.iter().enumerate() {
        for &(v, ref occ) in &blk.outputs {
            is_io[v.index()] = true;
            let opts = &mut sb[v.index() * words..][..words];
            opts.fill(0);
            for pe in occ {
                for b in interconnect::writable_banks(cfg, *pe) {
                    opts[b as usize / 64] |= 1 << (b % 64);
                }
            }
            debug_assert!(writer[v.index()].is_none(), "{v} output by two blocks");
            writer[v.index()] = Some(bi as u32);
        }
        for &v in &blk.inputs {
            if !is_io[v.index()] {
                debug_assert_eq!(
                    dag.op(v),
                    Op::Input,
                    "non-input io value must be a block output"
                );
                is_io[v.index()] = true;
                every_bank(&mut sb, v);
            }
        }
    }
    let readers = Csr::new(
        n,
        (blocks.iter().enumerate())
            .flat_map(|(bi, b)| b.inputs.iter().map(move |v| (v.index(), bi as u32))),
    );
    // Program outputs that never pass through a block (degenerate case:
    // a DAG input with no consumers that is still a requested output)
    // also need a home bank for their load/store path.
    for &v in outputs {
        if !is_io[v.index()] {
            is_io[v.index()] = true;
            every_bank(&mut sb, v);
        }
    }

    let mut assignment = BankAssignment {
        bank_of: vec![None; n],
    };

    if policy == BankPolicy::Random {
        // The paper's baseline allocates uniformly at random over ALL
        // banks, ignoring interconnect compatibility — incompatible picks
        // surface as write conflicts repaired by copies at emission.
        for v in dag.nodes() {
            if is_io[v.index()] {
                assignment.bank_of[v.index()] = Some(rng.gen_range(0..cfg.banks));
            }
        }
        return assignment;
    }

    // Mnodes: buckets of unassigned io values keyed by |Sb| for O(B)
    // min-compatible-bank selection (Algorithm 2 lines 9–18). A value
    // whose Sb shrinks is pushed onto its new bucket and left, stale, in
    // the old one; which entry a draw hits — stale ones included — is part
    // of the allocation, so the bucket vectors and the draw sequence are
    // exactly the list-based allocator's.
    let mut bucket_of: Vec<usize> = vec![usize::MAX; n];
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); banks + 1];
    let io_nodes: Vec<NodeId> = dag.nodes().filter(|v| is_io[v.index()]).collect();
    for &v in &io_nodes {
        let opts = &sb[v.index() * words..][..words];
        let k = opts.iter().map(|w| w.count_ones() as usize).sum();
        bucket_of[v.index()] = k;
        buckets[k].push(v);
    }
    // No bucket below `lowest` holds an entry: entries only move down, and
    // every move lowers the hint with them.
    let mut lowest = 0usize;

    let mut assigned = 0usize;
    while assigned < io_nodes.len() {
        // Lowest non-empty bucket; random member (objective J).
        let v = loop {
            // An unassigned io value exists, so a bucket is non-empty.
            while buckets[lowest].is_empty() {
                lowest += 1;
            }
            let k = lowest;
            let i = rng.gen_range(0..buckets[k].len());
            let v = buckets[k].swap_remove(i);
            // Skip stale entries (value moved buckets or already assigned).
            if assignment.bank_of[v.index()].is_some() || bucket_of[v.index()] != k {
                continue;
            }
            break v;
        };

        let n_opts = bucket_of[v.index()];
        let chosen = if n_opts != 0 {
            // Uniform over the compatible banks, taken in ascending order.
            let i = rng.gen_range(0..n_opts);
            nth_set_bit(&sb[v.index() * words..][..words], i)
        } else {
            // No compatible bank: minimize conflicts by picking the bank
            // least used by simultaneously-read/written neighbors
            // (Algorithm 2 line 24). Conflicts will be repaired by copies.
            let mut contention = vec![0u32; banks];
            if let Some(bi) = writer[v.index()] {
                for &(w, _) in &blocks[bi as usize].outputs {
                    if let Some(b) = assignment.bank_of[w.index()] {
                        contention[b as usize] += 1;
                    }
                }
            }
            for &bi in readers.row(v.index()) {
                for &r in &blocks[bi as usize].inputs {
                    if let Some(b) = assignment.bank_of[r.index()] {
                        contention[b as usize] += 1;
                    }
                }
            }
            let min = *contention.iter().min().expect("banks > 0");
            let cands: Vec<u32> = (0..banks as u32)
                .filter(|&b| contention[b as usize] == min)
                .collect();
            cands[rng.gen_range(0..cands.len())]
        };
        assignment.bank_of[v.index()] = Some(chosen);
        bucket_of[v.index()] = usize::MAX;
        sb[v.index() * words..][..words].fill(0);
        assigned += 1;

        // Constraint G: same-block outputs must avoid this bank.
        // Constraint F: co-read inputs must avoid this bank.
        // (An assigned neighbor, `v` included, has no option left to lose.)
        let (word, bit) = (chosen as usize / 64, 1u64 << (chosen % 64));
        let mut restrict = |w: NodeId| {
            let opts = &mut sb[w.index() * words + word];
            if *opts & bit != 0 {
                *opts &= !bit;
                let nk = bucket_of[w.index()] - 1;
                bucket_of[w.index()] = nk;
                buckets[nk].push(w);
                lowest = lowest.min(nk);
            }
        };
        if let Some(bi) = writer[v.index()] {
            for &(w, _) in &blocks[bi as usize].outputs {
                restrict(w);
            }
        }
        for &bi in readers.row(v.index()) {
            for &w in &blocks[bi as usize].inputs {
                restrict(w);
            }
        }
    }

    assignment
}

/// The `i`-th set bit of `words`, counting up from bit 0 of `words[0]`.
fn nth_set_bit(words: &[u64], mut i: usize) -> u32 {
    for (w, &word) in words.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if i < ones {
            let mut word = word;
            for _ in 0..i {
                word &= word - 1; // clears the lowest set bit
            }
            return 64 * w as u32 + word.trailing_zeros();
        }
        i -= ones;
    }
    unreachable!("fewer than i + 1 bits set")
}

/// Computes which values must be written back to the register file:
/// values consumed outside their producing block, plus `outputs`.
pub fn compute_needs_store(dag: &Dag, raw: &[RawBlock], outputs: &[NodeId]) -> Vec<bool> {
    let mut owner = vec![usize::MAX; dag.len()];
    for (bi, b) in raw.iter().enumerate() {
        for sg in &b.subgraphs {
            for &x in &sg.nodes {
                owner[x.index()] = bi;
            }
        }
    }
    let mut needs = vec![false; dag.len()];
    for v in dag.nodes() {
        for &p in dag.preds(v) {
            if dag.op(p) == Op::Input {
                continue;
            }
            if owner[p.index()] != owner[v.index()] {
                needs[p.index()] = true;
            }
        }
    }
    for &o in outputs {
        needs[o.index()] = true;
    }
    needs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step1::{decompose, validate_blocks};
    use dpu_dag::DagBuilder;

    fn pipeline(dag: &Dag, cfg: &ArchConfig) -> (Vec<Block>, BankAssignment) {
        let mut mapped = vec![false; dag.len()];
        let raw = decompose(dag, cfg, None, &mut mapped);
        validate_blocks(dag, cfg, &raw).unwrap();
        let outputs: Vec<NodeId> = dag.sinks().collect();
        let needs = compute_needs_store(dag, &raw, &outputs);
        let blocks = place_blocks(dag, cfg, raw, &needs);
        let assign = assign_banks(dag, cfg, &blocks, &outputs, BankPolicy::ConflictAware, 7);
        (blocks, assign)
    }

    fn small_dag() -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        let t = b.node(Op::Mul, &[s, z]).unwrap();
        let u = b.node(Op::Sub, &[t, x]).unwrap();
        b.node(Op::Div, &[u, y]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn placement_covers_all_nodes() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (blocks, _) = pipeline(&dag, &cfg);
        let placed: usize = blocks
            .iter()
            .flat_map(|b| &b.pe_config)
            .filter(|(_, op)| !matches!(op, PeOpcode::BypassL | PeOpcode::BypassR))
            .count();
        // Each compute node occurs at least once (replication may add more).
        assert!(placed >= dag.op_count());
    }

    #[test]
    fn placement_pes_are_valid_and_unique_per_block() {
        let dag = small_dag();
        let cfg = ArchConfig::new(3, 8, 16).unwrap();
        let (blocks, _) = pipeline(&dag, &cfg);
        for blk in &blocks {
            let mut seen = std::collections::HashSet::new();
            for &(pe, _) in &blk.pe_config {
                assert!(pe.is_valid(&cfg), "{pe} invalid");
                assert!(seen.insert(pe.flat_index(&cfg)), "{pe} configured twice");
            }
        }
    }

    #[test]
    fn ports_within_subgraph_slots() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (blocks, _) = pipeline(&dag, &cfg);
        for blk in &blocks {
            for &(port, _) in &blk.port_reads {
                assert!(port < cfg.banks);
                let tree = port / cfg.ports_per_tree();
                assert!(blk.subgraphs.iter().any(|sg| sg.tree == tree));
            }
        }
    }

    /// Every output's home bank is writable from one of its occurrences.
    fn assert_connectivity(cfg: &ArchConfig, blocks: &[Block], assign: &BankAssignment) {
        for blk in blocks {
            for (v, occ) in &blk.outputs {
                let bank = assign.bank(*v);
                assert!(
                    occ.iter().any(|pe| interconnect::can_write(cfg, *pe, bank)),
                    "{}: value {v} bank {bank} unreachable from {occ:?}",
                    cfg.topology
                );
            }
        }
    }

    /// The inputs of one block sit in pairwise distinct banks.
    fn assert_distinct_input_banks(cfg: &ArchConfig, blocks: &[Block], assign: &BankAssignment) {
        for blk in blocks {
            let mut used = std::collections::HashSet::new();
            for &v in &blk.inputs {
                assert!(
                    used.insert(assign.bank(v)),
                    "{}: two inputs of one block share bank {}",
                    cfg.topology,
                    assign.bank(v)
                );
            }
        }
    }

    #[test]
    fn bank_assignment_respects_connectivity() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (blocks, assign) = pipeline(&dag, &cfg);
        // Conflict-aware assignment on an uncontended DAG should always
        // find a compatible (occurrence, bank) pair.
        assert_connectivity(&cfg, &blocks, &assign);
    }

    #[test]
    fn block_inputs_get_distinct_banks() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (blocks, assign) = pipeline(&dag, &cfg);
        assert_distinct_input_banks(&cfg, &blocks, &assign);
    }

    #[test]
    fn bank_invariants_hold_at_one_and_two_bitset_words_on_every_topology() {
        // B = 8 uses the low bits of one Sb word, B = 128 two whole words.
        let dag = small_dag();
        for banks in [8, 128] {
            for topology in dpu_isa::Topology::all() {
                let cfg = ArchConfig::with_topology(2, banks, 16, topology).unwrap();
                let (blocks, assign) = pipeline(&dag, &cfg);
                assert_connectivity(&cfg, &blocks, &assign);
                assert_distinct_input_banks(&cfg, &blocks, &assign);
                assert!(assign.bank_of.iter().flatten().all(|&b| b < banks));
            }
        }
        // The second word is really drawn from: some home is above bank 63.
        let cfg = ArchConfig::new(2, 128, 16).unwrap();
        let (_, assign) = pipeline(&dag, &cfg);
        assert!(assign.bank_of.iter().flatten().any(|&b| b >= 64));
    }

    #[test]
    fn random_policy_assigns_everything() {
        let dag = small_dag();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let mut mapped = vec![false; dag.len()];
        let raw = decompose(&dag, &cfg, None, &mut mapped);
        let outputs: Vec<NodeId> = dag.sinks().collect();
        let needs = compute_needs_store(&dag, &raw, &outputs);
        let blocks = place_blocks(&dag, &cfg, raw, &needs);
        let assign = assign_banks(&dag, &cfg, &blocks, &outputs, BankPolicy::Random, 3);
        for blk in &blocks {
            for &v in &blk.inputs {
                assert!(assign.bank_of[v.index()].is_some());
            }
        }
    }
}
