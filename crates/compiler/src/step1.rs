//! Step 1 — block decomposition (Algorithm 1, §IV-A).
//!
//! The binarized DAG is greedily cut into *blocks*: sets of tree-shaped
//! subgraphs that together fit the `T` PE trees of depth `D` and whose
//! predecessors are all mapped by earlier blocks (constraints A and B).
//! Subgraph candidates are *cones*: an unmapped node together with all of
//! its unmapped ancestors; a cone is schedulable on a depth-`d` subtree iff
//! its longest internal path (in nodes) is at most `d` — shared interior
//! nodes are replicated at mapping time (Fig. 9(c)).
//!
//! The paper enumerates depth combinations per block (Fig. 9(d)); this
//! implementation realizes the same packing with buddy-style *slot
//! splitting*: placing a depth-`k` subgraph into a free depth-`d` slot
//! leaves free sibling slots of depths `k, k+1, …, d−1`.
//!
//! Blocks are list-scheduled with issue latency (Gibbons and Muchnick,
//! SIGPLAN '86), one level above step 3. Each block becomes one `exec`,
//! and an `exec` that reads another's result must issue `D + 1` slots
//! after it (§IV-C). So a cone is *ready* when none of its inputs was
//! produced by one of the last `D` blocks; DAG inputs always are. A slot
//! takes a cone as deep as itself if there is one (a shallower one leaves
//! part of its PE tree idle). Among those, and failing them among the
//! shallower ones, ready cones come first: a cone that is not ready enters
//! only when no ready one fits. Within each readiness class the paper's
//! objectives rank: larger cones (objective C, datapath utilization) close
//! in the locality sweep to the last placed one (objective D, short
//! register lifetimes). Ranked by locality alone, each block would consume
//! the one just before it and leave step 3 nothing to fill the
//! `D + 1`-cycle gaps with.

use dpu_dag::{Dag, NodeId, Op};
use dpu_isa::ArchConfig;

use crate::ir::{PosSet, Subgraph};

/// Locality key per node: `(input-space anchor) << 32 | node id`, where a
/// node's anchor is the mean of its operands' anchors and an input's
/// anchor is its own ordinal. The anchor tracks the *center* of a node's
/// ancestor cone in input space, so sweeping by anchor visits producers
/// and consumers together regardless of depth (a min/DFS key would drift
/// toward 0 as cones widen). See the comment at the use site in
/// [`decompose`].
fn locality_keys(dag: &Dag) -> Vec<u64> {
    let mut anchor = vec![0u32; dag.len()];
    for v in dag.nodes() {
        let a = if dag.op(v) == Op::Input {
            v.0
        } else {
            let preds = dag.preds(v);
            let sum: u64 = preds.iter().map(|p| u64::from(anchor[p.index()])).sum();
            (sum / preds.len().max(1) as u64) as u32
        };
        anchor[v.index()] = a;
    }
    dag.nodes()
        .map(|v| (u64::from(anchor[v.index()]) << 32) | u64::from(v.0))
        .collect()
}

/// How many candidates (per depth bucket, per direction around the DFS
/// cursor) the fitness search examines for each placement.
const SEARCH_NEIGHBORS: usize = 24;

/// Candidate sinks per depth `1..=D`, in locality order: the region's
/// workable nodes sorted once by locality key, and per depth the set of
/// positions in that order whose node is a candidate of that depth.
struct Candidates {
    /// Locality keys, ascending; a key's low 32 bits are its node.
    keys: Vec<u64>,
    /// Position of each workable node in `keys`.
    pos: Vec<u32>,
    depth: Vec<PosSet>,
}

impl Candidates {
    /// `keys`: every node that may become a candidate, by locality key.
    fn new(mut keys: Vec<u64>, nodes: usize, depths: usize) -> Self {
        keys.sort_unstable();
        let mut pos = vec![u32::MAX; nodes];
        for (i, &key) in keys.iter().enumerate() {
            pos[key as u32 as usize] = i as u32;
        }
        let depth = (0..depths).map(|_| PosSet::new(keys.len())).collect();
        Candidates { keys, pos, depth }
    }

    fn insert(&mut self, d: usize, v: NodeId) {
        self.depth[d].insert(self.pos[v.index()] as usize);
    }

    fn remove(&mut self, d: usize, v: NodeId) {
        self.depth[d].remove(self.pos[v.index()] as usize);
    }

    /// The keys a fitness search looks at for depth `d`: up to
    /// [`SEARCH_NEIGHBORS`] at or after position `cursor`, ascending, then
    /// up to as many before it, descending.
    fn around(&self, d: usize, cursor: usize) -> [impl Iterator<Item = u64> + '_; 2] {
        [true, false].map(|up| {
            let walk = self.depth[d].walk(cursor, up);
            walk.take(SEARCH_NEIGHBORS).map(|p| self.keys[p])
        })
    }

    /// The best-ranked candidate for a free depth-`slot_d` slot, among
    /// the keys [`Candidates::around`] yields for each depth `slot_d` down
    /// to 1 from `cursor` (the last sink's position and key), their cones
    /// seen through `cones`. Ties keep the first found, so the pick is the
    /// one a scan of every one of those keys makes.
    fn fittest(
        &self,
        slot_d: usize,
        (cursor_pos, cursor_key): (usize, u64),
        cones: &mut impl ConeView,
    ) -> Option<(Rank, NodeId)> {
        let mut best: Option<(Rank, NodeId)> = None;
        let beats = |rank: Rank, best: Option<(Rank, NodeId)>| best.is_none_or(|(b, _)| rank > b);
        for d in (1..=slot_d).rev() {
            // A depth-`d` cone has at most 2^d − 1 nodes, so no candidate
            // here ranks above a ready cone of this depth and that size at
            // distance `dist`, and `dist` never shrinks along a direction
            // of the scan. Where that cannot beat `best`, the direction —
            // at distance 0, this depth and every lower one — is left
            // unexamined, which leaves the pick what examining it would
            // make it. So a cone as deep as the slot ends the scan at the
            // next depth; a `best` that is not ready prunes nothing of its
            // own depth class, and only a candidate's own bound skips it.
            let fills = d == slot_d;
            // Objective C: more nodes; objective D: proximity in the
            // locality sweep. The distance term is uncapped: a far-away
            // full cone must lose to nearby work, otherwise the schedule
            // scatters across the DAG and register liveness (and with it
            // spill traffic) explodes.
            let rank = |(len, ready): (usize, bool), dist: i64| Rank {
                fills,
                ready,
                fitness: len as i64 * 256 - dist * 8,
            };
            let beaten = |best, dist| !beats(rank(((1 << d) - 1, true), dist), best);
            if beaten(best, 0) {
                break;
            }
            if self.depth[d].is_empty() {
                continue;
            }
            for direction in self.around(d, cursor_pos) {
                for key in direction {
                    let dist = ((key >> 32) as i64 - (cursor_key >> 32) as i64).abs();
                    if beaten(best, dist) {
                        break;
                    }
                    let cand = NodeId(key as u32);
                    if cones
                        .bound(cand)
                        .is_some_and(|b| !beats(rank(b, dist), best))
                    {
                        continue;
                    }
                    let Some(r) = cones.exact(cand, d).map(|c| rank(c, dist)) else {
                        continue;
                    };
                    if beats(r, best) {
                        best = Some((r, cand));
                    }
                }
            }
        }
        best
    }
}

/// A candidate's standing for one slot, compared field by field: a cone
/// as deep as the slot before a shallower one (it keeps the PE tree
/// whole), then a ready cone before one that is not, then the fitter one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    fills: bool,
    ready: bool,
    fitness: i64,
}

/// A candidate's cone as [`Candidates::fittest`] ranks it: its node count
/// and whether it is ready.
trait ConeView {
    /// What [`ConeView::exact`] may say of `v` at most, if that is known
    /// without collecting its cone: a node count it does not exceed, and
    /// `false` if it cannot be ready.
    fn bound(&self, v: NodeId) -> Option<(usize, bool)>;
    /// `v`'s cone, or `None` if it cannot take the slot; `d` is its depth.
    fn exact(&mut self, v: NodeId, d: usize) -> Option<(usize, bool)>;
}

/// Unmapped ancestor cones of the candidates looked at while one block is
/// assembled. `mapped` only changes when a block commits, so a candidate's
/// cone is the same for every slot of the block: it is collected once into
/// `arena` and found again through `at[v] = (block stamp, start, len,
/// ready at)`. A stale stamp means "not collected for this block", and 0,
/// "never collected". *Ready at* is the first block the cone may join
/// without reading a value of one of the `D` blocks before it: the latest
/// `ready_from` among its mapped predecessors.
///
/// As `mapped` grows, a cone only loses nodes, and a predecessor it stops
/// reading gives way to a later-mapped one on the same path. So a stale
/// entry still bounds the cone: no more than `len` nodes, ready no sooner.
struct Cones {
    arena: Vec<NodeId>,
    at: Vec<(u32, u32, u32, u32)>,
    stamp: u32,
    stack: Vec<NodeId>,
}

impl Cones {
    fn new(nodes: usize) -> Self {
        Cones {
            arena: Vec::new(),
            at: vec![(0, 0, 0, 0); nodes],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// Forgets every cone: a block committed and `mapped` changed.
    fn next_block(&mut self) {
        self.stamp += 1;
        self.arena.clear();
    }

    /// `v` and its unmapped ancestors in topological order (sink last), and
    /// the block the cone is ready at (`ready_from[p]`: the block from
    /// which a value `p` may be read without waiting). Cones are small: at
    /// most `2^d − 1` distinct nodes for depth `d`.
    fn of(
        &mut self,
        dag: &Dag,
        mapped: &[bool],
        ready_from: &[u32],
        v: NodeId,
    ) -> (&[NodeId], u32) {
        if self.at[v.index()].0 != self.stamp {
            let start = self.arena.len();
            let mut ready_at = 0;
            self.arena.push(v);
            self.stack.push(v);
            while let Some(x) = self.stack.pop() {
                for &p in dag.preds(x) {
                    if mapped[p.index()] {
                        ready_at = ready_at.max(ready_from[p.index()]);
                    } else if !self.arena[start..].contains(&p) {
                        self.arena.push(p);
                        self.stack.push(p);
                    }
                }
            }
            self.arena[start..].sort_unstable(); // ids are topological
            let len = self.arena.len() - start;
            self.at[v.index()] = (self.stamp, start as u32, len as u32, ready_at);
        }
        let (_, start, len, ready_at) = self.at[v.index()];
        (
            &self.arena[start as usize..(start + len) as usize],
            ready_at,
        )
    }
}

/// The cones as the block under construction sees them.
struct BlockView<'a> {
    cones: &'a mut Cones,
    dag: &'a Dag,
    mapped: &'a [bool],
    ready_from: &'a [u32],
    /// Nodes of the block so far.
    block_flag: &'a [bool],
    /// The block's index.
    block: u32,
}

impl ConeView for BlockView<'_> {
    fn bound(&self, v: NodeId) -> Option<(usize, bool)> {
        let (stamp, _, len, ready_at) = self.cones.at[v.index()];
        (stamp != 0).then_some((len as usize, ready_at <= self.block))
    }

    fn exact(&mut self, v: NodeId, d: usize) -> Option<(usize, bool)> {
        let (cone, ready_at) = self.cones.of(self.dag, self.mapped, self.ready_from, v);
        debug_assert!(cone.len() < 1 << d, "{v}: cone deeper than {d}");
        // A cone that overlaps the block under construction waits for the
        // next one.
        let free = !cone.iter().any(|x| self.block_flag[x.index()]);
        free.then_some((cone.len(), ready_at <= self.block))
    }
}

/// A block before spatial mapping: the subgraphs chosen by Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawBlock {
    /// Subgraphs with their slot placements.
    pub subgraphs: Vec<Subgraph>,
}

/// Decomposes (a region of) the binarized DAG into blocks.
///
/// `region` restricts decomposition to a node subset (used by the GRAPHOPT
/// partitioning path for very large DAGs, §V-B); pass `None` for the whole
/// DAG. Nodes outside the region and [`Op::Input`] nodes are treated as
/// already mapped, and as ready to read from the first block on. Returns
/// blocks in execution order.
///
/// # Panics
///
/// Panics if `dag` is not binary (run [`Dag::binarize`] first), or if the
/// region is not predecessor-closed w.r.t. earlier regions (a region node
/// whose predecessor is neither an input, nor outside the region, nor in
/// the region itself cannot occur with GRAPHOPT partitions).
pub fn decompose(
    dag: &Dag,
    cfg: &ArchConfig,
    region: Option<&[NodeId]>,
    already_mapped: &mut [bool],
) -> Vec<RawBlock> {
    assert!(dag.is_binary(), "step 1 requires a binarized DAG");
    let d_max = cfg.depth;
    let trees = cfg.trees();
    let n = dag.len();

    // `mapped` marks nodes whose values are available before the block being
    // assembled: inputs, nodes from earlier regions, and earlier blocks.
    let mapped = already_mapped;
    debug_assert_eq!(mapped.len(), n);
    for node in dag.nodes() {
        if dag.op(node) == Op::Input {
            mapped[node.index()] = true;
        }
    }

    let in_region: Option<Vec<bool>> = region.map(|r| {
        let mut v = vec![false; n];
        for &x in r {
            v[x.index()] = true;
        }
        v
    });
    let is_workable = |node: NodeId| -> bool {
        dag.op(node) != Op::Input && in_region.as_ref().is_none_or(|r| r[node.index()])
    };

    // Locality key for objective D (few inter-block dependencies, short
    // register lifetimes): nodes are swept in order of their leftmost
    // input ancestor. For vtree-structured circuits this is the vtree
    // sweep; for triangular solves it degenerates to row order — in both
    // cases consumers sit close to producers, unlike a plain DFS order
    // whose fanout cross-edges span the whole traversal. The node id makes
    // keys unique, so the sorted key array fixes the scan order; distances
    // compare anchors only.
    let dfs = locality_keys(dag);

    // udepth[v]: longest path (in nodes) of v's unmapped ancestor cone,
    // capped at d_max + 1 ("too deep"). 0 for mapped nodes.
    let cap = (d_max + 1) as u8;
    let mut udepth = vec![0u8; n];
    for v in dag.nodes() {
        if mapped[v.index()] || !is_workable(v) {
            continue;
        }
        let mut m = 0u8;
        for &p in dag.preds(v) {
            if !mapped[p.index()] {
                m = m.max(udepth[p.index()]);
            }
        }
        udepth[v.index()] = (m + 1).min(cap);
    }

    // Candidate buckets: per depth 1..=d_max, candidates in locality order
    // for scans around the cursor.
    let workable: Vec<u64> = dag
        .nodes()
        .filter(|&v| is_workable(v) && !mapped[v.index()])
        .map(|v| dfs[v.index()])
        .collect();
    let total_workable = workable.len();
    let mut buckets = Candidates::new(workable, n, d_max as usize + 1);
    let mut in_bucket = vec![false; n];
    for v in dag.nodes() {
        let ud = udepth[v.index()];
        if !mapped[v.index()] && is_workable(v) && ud >= 1 && ud <= d_max as u8 {
            buckets.insert(ud as usize, v);
            in_bucket[v.index()] = true;
        }
    }

    let mut cones = Cones::new(n);
    // Nodes of the block under construction.
    let mut block_flag = vec![false; n];
    // ready_from[v]: the first block that may read v without waiting on
    // the pipeline: `D + 1` after the block that produced it, 0 for values
    // mapped before this call.
    let mut ready_from = vec![0u32; n];

    let mut blocks = Vec::new();
    let mut done = 0usize;
    // The cursor: the last sink's locality key (0 before the first) and its
    // position, so "keys >= cursor" are the positions from `cursor_pos` on.
    let mut cursor_dfs: u64 = 0;
    let mut cursor_pos = 0usize;

    while done < total_workable {
        // Free subtree slots per tree: (depth, tree, leaf offset).
        let mut slots: Vec<(u32, u32, u32)> = (0..trees).map(|t| (d_max, t, 0)).collect();
        let mut block_nodes: Vec<NodeId> = Vec::new();
        let mut subgraphs: Vec<Subgraph> = Vec::new();
        cones.next_block();

        while let Some(slot_idx) = slots
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.0)
            .map(|(i, _)| i)
        {
            let (slot_d, tree, off) = slots[slot_idx];
            // The best-ranked candidate with udepth <= slot_d whose cone is
            // disjoint from the block so far.
            let mut view = BlockView {
                cones: &mut cones,
                dag,
                mapped,
                ready_from: &ready_from,
                block_flag: &block_flag,
                block: blocks.len() as u32,
            };
            let best = buckets.fittest(slot_d as usize, (cursor_pos, cursor_dfs), &mut view);

            let Some((_, sink)) = best else {
                break; // no candidate fits the remaining slots
            };
            let (cone, _) = cones.of(dag, mapped, &ready_from, sink);

            let k = udepth[sink.index()] as u32;
            debug_assert!(k >= 1 && k <= slot_d);
            // Buddy split: take the leftmost depth-k subslot, free siblings.
            slots.swap_remove(slot_idx);
            for j in k..slot_d {
                slots.push((j, tree, off + (1 << j)));
            }
            subgraphs.push(Subgraph {
                sink,
                nodes: cone.to_vec(),
                depth: k,
                tree,
                leaf_offset: off,
            });
            for &x in cone {
                block_flag[x.index()] = true;
                // Remove from candidate buckets; they are about to be mapped.
                if in_bucket[x.index()] {
                    buckets.remove(udepth[x.index()] as usize, x);
                    in_bucket[x.index()] = false;
                }
            }
            cursor_dfs = dfs[sink.index()];
            cursor_pos = buckets.pos[sink.index()] as usize;
            block_nodes.extend_from_slice(cone);
        }

        if subgraphs.is_empty() {
            // No candidate at all: every unmapped node is deeper than d_max
            // relative to the mapped set — impossible, since a ready node
            // (all preds mapped) always has udepth 1.
            unreachable!("no schedulable subgraph but {done}/{total_workable} mapped");
        }

        // Commit the block: mark mapped and propagate udepth decreases.
        let ready = blocks.len() as u32 + d_max + 1;
        let mut dirty: Vec<NodeId> = Vec::new();
        for &x in &block_nodes {
            mapped[x.index()] = true;
            ready_from[x.index()] = ready;
            block_flag[x.index()] = false;
            udepth[x.index()] = 0;
            done += 1;
            for &s in dag.succs(x) {
                if !mapped[s.index()] && is_workable(s) {
                    dirty.push(s);
                }
            }
        }
        while let Some(v) = dirty.pop() {
            if mapped[v.index()] || !is_workable(v) {
                continue;
            }
            let mut m = 0u8;
            for &p in dag.preds(v) {
                if !mapped[p.index()] {
                    m = m.max(udepth[p.index()]);
                }
            }
            let new = (m + 1).min(cap);
            let old = udepth[v.index()];
            if new < old {
                udepth[v.index()] = new;
                if in_bucket[v.index()] {
                    buckets.remove(old as usize, v);
                    in_bucket[v.index()] = false;
                }
                if new >= 1 && new <= d_max as u8 {
                    buckets.insert(new as usize, v);
                    in_bucket[v.index()] = true;
                }
                for &s in dag.succs(v) {
                    if !mapped[s.index()] && is_workable(s) {
                        dirty.push(s);
                    }
                }
            } else if !in_bucket[v.index()] && new >= 1 && new <= d_max as u8 && new == old {
                buckets.insert(new as usize, v);
                in_bucket[v.index()] = true;
            }
        }

        blocks.push(RawBlock { subgraphs });
    }

    blocks
}

/// Checks the defining invariants of a decomposition: every non-input node
/// in exactly one subgraph, subgraph depths within `D`, slots disjoint
/// within each block, and no block contains a node whose predecessor is
/// mapped by the *same* block in a different subgraph (constraint A:
/// blocks form a DAG executed in order).
pub fn validate_blocks(dag: &Dag, cfg: &ArchConfig, blocks: &[RawBlock]) -> Result<(), String> {
    let mut owner = vec![usize::MAX; dag.len()];
    for (bi, b) in blocks.iter().enumerate() {
        let mut slot_mask: Vec<u64> = vec![0; cfg.trees() as usize];
        for sg in &b.subgraphs {
            if sg.depth == 0 || sg.depth > cfg.depth {
                return Err(format!(
                    "block {bi}: subgraph depth {} out of range",
                    sg.depth
                ));
            }
            if sg.leaf_offset % (1 << sg.depth) != 0 {
                return Err(format!(
                    "block {bi}: misaligned slot offset {}",
                    sg.leaf_offset
                ));
            }
            let span = 1u64 << sg.depth;
            let mask = ((1u64 << span) - 1) << sg.leaf_offset;
            let tm = &mut slot_mask[sg.tree as usize];
            if *tm & mask != 0 {
                return Err(format!("block {bi}: overlapping slots in tree {}", sg.tree));
            }
            *tm |= mask;
            for &x in &sg.nodes {
                if dag.op(x) == Op::Input {
                    return Err(format!("block {bi}: input node {x} inside subgraph"));
                }
                if owner[x.index()] != usize::MAX {
                    return Err(format!("node {x} mapped twice"));
                }
                owner[x.index()] = bi;
            }
        }
    }
    for v in dag.nodes() {
        if dag.op(v) == Op::Input {
            continue;
        }
        if owner[v.index()] == usize::MAX {
            return Err(format!("node {v} unmapped"));
        }
        for &p in dag.preds(v) {
            if dag.op(p) == Op::Input {
                continue;
            }
            if owner[p.index()] > owner[v.index()] {
                return Err(format!(
                    "node {v} (block {}) depends on {p} (later block {})",
                    owner[v.index()],
                    owner[p.index()]
                ));
            }
            if owner[p.index()] == owner[v.index()] {
                // Must be within the same subgraph (cones are closed).
                let b = &blocks[owner[v.index()]];
                let same_sg = b
                    .subgraphs
                    .iter()
                    .any(|sg| sg.nodes.contains(&v) && sg.nodes.contains(&p));
                if !same_sg {
                    return Err(format!(
                        "intra-block dependency {p} -> {v} across subgraphs"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_dag::DagBuilder;

    fn decompose_whole(dag: &Dag, cfg: &ArchConfig) -> Vec<RawBlock> {
        let mut mapped = vec![false; dag.len()];
        decompose(dag, cfg, None, &mut mapped)
    }

    fn chain_dag(len: usize) -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let mut prev = b.node(Op::Add, &[x, x]).unwrap();
        for _ in 1..len {
            prev = b.node(Op::Mul, &[prev, x]).unwrap();
        }
        b.finish().unwrap()
    }

    fn random_dag(nodes: usize, seed: u64) -> Dag {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = DagBuilder::new();
        let mut ids: Vec<NodeId> = (0..8).map(|_| b.input()).collect();
        while ids.len() < nodes {
            let i = ids[rng.gen_range(0..ids.len())];
            let j = ids[rng.gen_range(0..ids.len())];
            let op = if rng.gen_bool(0.5) { Op::Add } else { Op::Mul };
            ids.push(b.node(op, &[i, j]).unwrap());
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_decomposes_validly() {
        let dag = chain_dag(50);
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let blocks = decompose_whole(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        // A pure chain packs at most D nodes per subgraph.
        assert!(blocks.len() >= 50 / 3);
    }

    #[test]
    fn random_dag_decomposes_validly() {
        let dag = random_dag(400, 9);
        for (d, b) in [(1u32, 8u32), (2, 8), (3, 16)] {
            let cfg = ArchConfig::new(d, b, 32).unwrap();
            let blocks = decompose_whole(&dag, &cfg);
            validate_blocks(&dag, &cfg, &blocks).unwrap();
        }
    }

    #[test]
    fn wide_dag_fills_trees() {
        // 64 independent 2-input adds: with T=2 trees of depth 3, blocks
        // should pack multiple subgraphs each.
        let mut b = DagBuilder::new();
        let ins: Vec<NodeId> = (0..64).map(|_| b.input()).collect();
        for c in ins.chunks(2) {
            b.node(Op::Add, &[c[0], c[1]]).unwrap();
        }
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let blocks = decompose_whole(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        // 32 adds; each block fits up to 2 trees × 4 depth-1 slots = 8.
        assert!(blocks.len() <= 8, "blocks = {}", blocks.len());
    }

    #[test]
    fn deep_cone_is_chunked() {
        // A perfect binary reduction tree of depth 6 on D=2 hardware.
        let mut b = DagBuilder::new();
        let mut level: Vec<NodeId> = (0..64).map(|_| b.input()).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|c| b.node(Op::Add, &[c[0], c[1]]).unwrap())
                .collect();
        }
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        let blocks = decompose_whole(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        for blk in &blocks {
            for sg in &blk.subgraphs {
                assert!(sg.depth <= 2);
            }
        }
    }

    #[test]
    fn region_restriction_respected() {
        let dag = random_dag(200, 4);
        let cfg = ArchConfig::new(2, 8, 32).unwrap();
        // Split nodes into two topological halves.
        let non_input: Vec<NodeId> = dag.nodes().filter(|&v| dag.op(v) != Op::Input).collect();
        let (lo, hi) = non_input.split_at(non_input.len() / 2);
        let mut mapped = vec![false; dag.len()];
        let blocks_lo = decompose(&dag, &cfg, Some(lo), &mut mapped);
        let blocks_hi = decompose(&dag, &cfg, Some(hi), &mut mapped);
        let mut all = blocks_lo;
        all.extend(blocks_hi);
        validate_blocks(&dag, &cfg, &all).unwrap();
    }

    /// [`Candidates`] against the per-depth `BTreeMap<u64, NodeId>` buckets
    /// it replaced: seeded inserts and removes (a node in one depth at a
    /// time, as in [`decompose`]), each followed by a scan from a cursor
    /// key, which must yield the keys `range(cursor..)` and then
    /// `range(..cursor).rev()` yield, 24 of each at most.
    #[test]
    fn candidate_scan_is_the_btreemap_range_walk() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let steps = if cfg!(debug_assertions) {
            4_000
        } else {
            400_000
        };
        let mut rng = SmallRng::seed_from_u64(25);
        // 300 nodes (five words of positions) over few anchors, so that
        // equal anchors are ordered by node id.
        let nodes = 300u32;
        let keys: Vec<u64> = (0..nodes)
            .map(|v| (rng.gen_range(0u64..80) << 32) | u64::from(v))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let depths = 4; // 1..=3 used, 0 stays empty
        let mut cands = Candidates::new(keys.clone(), nodes as usize, depths);
        let mut model: Vec<BTreeMap<u64, NodeId>> = vec![BTreeMap::new(); depths];
        let mut depth_of = vec![0usize; nodes as usize];

        let check = |cands: &Candidates, model: &[BTreeMap<u64, NodeId>], cursor: u64| {
            // Keys `>= cursor` are the positions from here on.
            let at = sorted.partition_point(|&k| k < cursor);
            for (d, bucket) in model.iter().enumerate() {
                let fwd = bucket.range(cursor..).take(SEARCH_NEIGHBORS);
                let bwd = bucket.range(..cursor).rev().take(SEARCH_NEIGHBORS);
                let want: Vec<u64> = fwd.chain(bwd).map(|(&k, _)| k).collect();
                let got: Vec<u64> = cands.around(d, at).into_iter().flatten().collect();
                assert_eq!(got, want, "depth {d}, cursor {cursor:#x} (position {at})");
                assert_eq!(cands.depth[d].is_empty(), bucket.is_empty());
            }
        };
        // Cursors the search starts from: 0 (before the first key, which
        // makes the backward scan one from position 0), past the last key,
        // and the keys at positions 0 and 63/64/65 — word boundaries.
        let fixed = [0, u64::MAX, sorted[0], sorted[63], sorted[64], sorted[65]];
        for cursor in fixed {
            check(&cands, &model, cursor); // every depth empty
        }
        for step in 0..steps {
            let v = rng.gen_range(0..nodes);
            let node = NodeId(v);
            let old = depth_of[v as usize];
            if old != 0 {
                cands.remove(old, node);
                model[old].remove(&keys[v as usize]);
                depth_of[v as usize] = 0;
            }
            // Inserts outnumber removes until the buckets are dense enough
            // for the 24-key cut-off to bite, then balance out.
            if rng.gen_bool(if step < steps / 4 { 0.8 } else { 0.5 }) {
                let d = rng.gen_range(1..depths);
                cands.insert(d, node);
                model[d].insert(keys[v as usize], node);
                depth_of[v as usize] = d;
            }
            let cursor = match rng.gen_range(0..4) {
                0 => fixed[rng.gen_range(0..fixed.len())],
                1 => keys[rng.gen_range(0..nodes) as usize],
                // Between keys: not itself a key, as a cursor never is.
                2 => keys[rng.gen_range(0..nodes) as usize] + 1 + (u64::from(nodes) << 1),
                _ => rng.gen_range(0u64..81) << 32,
            };
            check(&cands, &model, cursor);
        }
    }

    /// Cones of fixed size and readiness, with bounds that hold them.
    struct FixedCones {
        exact: Vec<Option<(usize, bool)>>,
        bound: Vec<Option<(usize, bool)>>,
    }

    impl ConeView for FixedCones {
        fn bound(&self, v: NodeId) -> Option<(usize, bool)> {
            self.bound[v.index()]
        }

        fn exact(&mut self, v: NodeId, _: usize) -> Option<(usize, bool)> {
            self.exact[v.index()]
        }
    }

    /// [`Candidates::fittest`] against a scan that ranks every key
    /// [`Candidates::around`] yields: seeded candidate sets, cone sizes,
    /// readiness, bounds and cursors, on which the pruned pick must be the
    /// unpruned one.
    #[test]
    fn fittest_is_the_unpruned_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let steps = if cfg!(debug_assertions) {
            3_000
        } else {
            300_000
        };
        let mut rng = SmallRng::seed_from_u64(49);
        let nodes = 300u32;
        // Few anchors, so that distances tie and 0 is common.
        let keys: Vec<u64> = (0..nodes)
            .map(|v| (rng.gen_range(0u64..40) << 32) | u64::from(v))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let depths = 4;
        let mut cands = Candidates::new(keys.clone(), nodes as usize, depths);
        let mut depth_of = vec![0usize; nodes as usize];
        let mut cones = FixedCones {
            exact: vec![None; nodes as usize],
            bound: vec![None; nodes as usize],
        };
        for step in 0..steps {
            // Move one node to a random depth (or out), with a new cone.
            let v = rng.gen_range(0..nodes) as usize;
            if depth_of[v] != 0 {
                cands.remove(depth_of[v], NodeId(v as u32));
                depth_of[v] = 0;
            }
            if rng.gen_bool(if step < steps / 8 { 0.9 } else { 0.6 }) {
                let d = rng.gen_range(1..depths);
                cands.insert(d, NodeId(v as u32));
                depth_of[v] = d;
                let exact = rng
                    .gen_bool(0.9)
                    .then(|| (rng.gen_range(d..1 << d), rng.gen_bool(0.3)));
                cones.exact[v] = exact;
                cones.bound[v] = match exact {
                    _ if rng.gen_bool(0.3) => None,
                    Some((len, ready)) => {
                        Some((len + rng.gen_range(0usize..3), ready || rng.gen_bool(0.3)))
                    }
                    None => Some((rng.gen_range(1usize..8), rng.gen_bool(0.5))),
                };
            }
            let cursor_key = match rng.gen_range(0..3) {
                0 => keys[rng.gen_range(0..nodes) as usize],
                1 => rng.gen_range(0u64..41) << 32,
                _ => 0,
            };
            let cursor = (sorted.partition_point(|&k| k < cursor_key), cursor_key);
            let slot_d = rng.gen_range(1..depths);

            let mut want: Option<(Rank, NodeId)> = None;
            for d in (1..=slot_d).rev() {
                for key in cands.around(d, cursor.0).into_iter().flatten() {
                    let v = NodeId(key as u32);
                    let Some((len, ready)) = cones.exact[v.index()] else {
                        continue;
                    };
                    let dist = ((key >> 32) as i64 - (cursor_key >> 32) as i64).abs();
                    let rank = Rank {
                        fills: d == slot_d,
                        ready,
                        fitness: len as i64 * 256 - dist * 8,
                    };
                    if want.is_none_or(|(b, _)| rank > b) {
                        want = Some((rank, v));
                    }
                }
            }
            let got = cands.fittest(slot_d, cursor, &mut cones);
            assert_eq!(
                got, want,
                "step {step}, slot depth {slot_d}, cursor {cursor_key:#x}"
            );
        }
    }

    #[test]
    fn independent_chains_interleave_past_the_pipeline() {
        // Four chains of twelve links on one tree of depth 3: each block
        // takes three links of one chain, and a chain's next three are
        // ready D = 3 blocks later. While a ready cone fits, no block
        // reads a value of one of the D blocks before it, so the chains
        // take turns.
        let mut b = DagBuilder::new();
        let xs: Vec<NodeId> = (0..4).map(|_| b.input()).collect();
        let mut heads: Vec<NodeId> = xs
            .iter()
            .map(|&x| b.node(Op::Add, &[x, x]).unwrap())
            .collect();
        for _ in 1..12 {
            for (h, &x) in heads.iter_mut().zip(&xs) {
                *h = b.node(Op::Mul, &[*h, x]).unwrap();
            }
        }
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(3, 8, 32).unwrap();
        assert_eq!(cfg.trees(), 1);
        let blocks = decompose_whole(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        assert_eq!(blocks.len(), 16);
        let mut made_in = vec![usize::MAX; dag.len()];
        for (i, blk) in blocks.iter().enumerate() {
            for sg in &blk.subgraphs {
                for &x in &sg.nodes {
                    made_in[x.index()] = i;
                }
            }
        }
        for (i, blk) in blocks.iter().enumerate() {
            for sg in &blk.subgraphs {
                for &x in &sg.nodes {
                    for &p in dag.preds(x) {
                        let j = made_in[p.index()];
                        if j != usize::MAX && j != i {
                            assert!(i - j > 3, "block {i} reads {p} of block {j}");
                        }
                    }
                }
            }
        }
    }

    /// `(nodes, depth, tree, leaf offset)` of one subgraph.
    type Shape = (Vec<u32>, u32, u32, u32);

    fn shape(blocks: &[RawBlock]) -> Vec<Vec<Shape>> {
        blocks
            .iter()
            .map(|b| {
                b.subgraphs
                    .iter()
                    .map(|sg| {
                        let nodes = sg.nodes.iter().map(|n| n.0).collect();
                        (nodes, sg.depth, sg.tree, sg.leaf_offset)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn chain_blocks_are_the_list_based_decomposition() {
        // The block list `chain_dag(50)` had before cones were cached per
        // block: three links per block on the last tree, two left over.
        let dag = chain_dag(50);
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let blocks = decompose_whole(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        let mut expected: Vec<_> = (0..16u32)
            .map(|k| vec![(vec![3 * k + 1, 3 * k + 2, 3 * k + 3], 3, 1, 0)])
            .collect();
        expected.push(vec![(vec![49, 50], 2, 1, 0)]);
        assert_eq!(shape(&blocks), expected);
    }

    #[test]
    fn cone_cached_in_one_block_is_rebuilt_in_the_next() {
        // s feeds two chains, s-p-q and s-t-u. The first block takes
        // {s, p, q}; its second slot then looks at u, whose cone {s, t, u}
        // overlaps and is skipped — but cached. Once the block commits, s
        // is mapped and u's cone is {t, u}: serving the cached one would
        // map s twice.
        let mut b = DagBuilder::new();
        let x = b.input();
        let s = b.node(Op::Add, &[x, x]).unwrap();
        let p = b.node(Op::Mul, &[s, x]).unwrap();
        let q = b.node(Op::Mul, &[p, x]).unwrap();
        let t = b.node(Op::Add, &[s, x]).unwrap();
        let u = b.node(Op::Mul, &[t, x]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let blocks = decompose_whole(&dag, &cfg);
        validate_blocks(&dag, &cfg, &blocks).unwrap();
        assert_eq!(
            shape(&blocks),
            vec![
                vec![(vec![s.0, p.0, q.0], 3, 1, 0)],
                vec![(vec![t.0, u.0], 2, 1, 0)]
            ]
        );
    }
}
