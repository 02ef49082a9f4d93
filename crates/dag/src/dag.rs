use crate::builder::check_row;
use crate::{DagBuilder, DagError, NodeId, Op};

/// An immutable computation DAG with CSR adjacency in both directions.
///
/// Node ids are dense and the id order is always a valid topological order
/// (guaranteed by [`DagBuilder`]). Edges carry operand *position*: the k-th
/// predecessor of a node is its k-th operand, which matters for the
/// non-commutative ops `Sub` and `Div`.
#[derive(Debug, Clone)]
pub struct Dag {
    ops: Vec<Op>,
    pred_offsets: Vec<u32>,
    pred_data: Vec<NodeId>,
    succ_offsets: Vec<u32>,
    succ_data: Vec<NodeId>,
    /// Number of `Op::Input` nodes, counted once: serving asks per request.
    inputs: usize,
}

impl Dag {
    pub(crate) fn from_csr(ops: Vec<Op>, pred_offsets: Vec<u32>, pred_data: Vec<NodeId>) -> Self {
        let n = ops.len();
        // Build the successor CSR by counting then bucketing.
        let mut succ_counts = vec![0u32; n];
        for &p in &pred_data {
            succ_counts[p.index()] += 1;
        }
        let mut succ_offsets = Vec::with_capacity(n + 1);
        succ_offsets.push(0u32);
        for i in 0..n {
            succ_offsets.push(succ_offsets[i] + succ_counts[i]);
        }
        let mut cursor: Vec<u32> = succ_offsets[..n].to_vec();
        let mut succ_data = vec![NodeId(0); pred_data.len()];
        for v in 0..n {
            let (s, e) = (pred_offsets[v] as usize, pred_offsets[v + 1] as usize);
            for &p in &pred_data[s..e] {
                succ_data[cursor[p.index()] as usize] = NodeId(v as u32);
                cursor[p.index()] += 1;
            }
        }
        Dag {
            inputs: ops.iter().filter(|&&o| o == Op::Input).count(),
            ops,
            pred_offsets,
            pred_data,
            succ_offsets,
            succ_data,
        }
    }

    /// A DAG from its predecessor CSR: node `v` is `ops[v]` reading
    /// `pred_data[pred_offsets[v]..pred_offsets[v + 1]]`. It accepts
    /// exactly what adding the rows to a [`DagBuilder`] in order and
    /// finishing it accepts, without the per-node calls.
    ///
    /// # Errors
    ///
    /// The error of the first row [`DagBuilder::node`] would refuse, or
    /// [`DagError::Empty`] for no rows.
    ///
    /// # Panics
    ///
    /// Panics if `pred_offsets` is not a CSR index over `pred_data`:
    /// `ops.len() + 1` non-decreasing offsets from 0 to `pred_data.len()`.
    pub fn from_rows(
        ops: Vec<Op>,
        pred_offsets: Vec<u32>,
        pred_data: Vec<NodeId>,
    ) -> Result<Self, DagError> {
        assert!(
            pred_offsets.len() == ops.len() + 1
                && pred_offsets[0] == 0
                && pred_offsets.windows(2).all(|w| w[0] <= w[1])
                && pred_offsets[ops.len()] as usize == pred_data.len(),
            "pred_offsets must index pred_data"
        );
        if ops.is_empty() {
            return Err(DagError::Empty);
        }
        for (v, (&op, row)) in ops.iter().zip(pred_offsets.windows(2)).enumerate() {
            let preds = &pred_data[row[0] as usize..row[1] as usize];
            check_row(NodeId(v as u32), op, preds)?;
        }
        Ok(Dag::from_csr(ops, pred_offsets, pred_data))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the DAG has no nodes (never true for a built DAG).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.pred_data.len()
    }

    /// Operation of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[inline]
    pub fn op(&self, n: NodeId) -> Op {
        self.ops[n.index()]
    }

    /// Predecessors (operands, in operand order) of node `n`.
    #[inline]
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        let (s, e) = (
            self.pred_offsets[n.index()] as usize,
            self.pred_offsets[n.index() + 1] as usize,
        );
        &self.pred_data[s..e]
    }

    /// Successors (consumers) of node `n`. A consumer using `n` for several
    /// operands appears once per use.
    #[inline]
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        let (s, e) = (
            self.succ_offsets[n.index()] as usize,
            self.succ_offsets[n.index() + 1] as usize,
        );
        &self.succ_data[s..e]
    }

    /// In-degree (operand count) of node `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.preds(n).len()
    }

    /// Iterator over all node ids in topological (= id) order.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Iterator over the source nodes (no predecessors; includes inputs).
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| self.preds(n).is_empty())
    }

    /// Iterator over the sink nodes (no successors) — the DAG outputs.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| self.succs(n).is_empty())
    }

    /// Number of `Op::Input` nodes.
    pub fn input_count(&self) -> usize {
        self.inputs
    }

    /// Number of arithmetic (non-input) nodes — the paper's "operations".
    pub fn op_count(&self) -> usize {
        self.len() - self.input_count()
    }

    /// Checks `n` is a valid id for this DAG.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::NodeOutOfRange`] otherwise.
    pub fn check_node(&self, n: NodeId) -> Result<(), DagError> {
        if n.index() < self.len() {
            Ok(())
        } else {
            Err(DagError::NodeOutOfRange(n))
        }
    }

    /// Per-node depth: 0 for sources, otherwise `1 + max(depth of preds)`.
    pub fn depths(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.len()];
        for n in self.nodes() {
            let mut m = 0;
            let mut any = false;
            for &p in self.preds(n) {
                any = true;
                m = m.max(d[p.index()]);
            }
            d[n.index()] = if any { m + 1 } else { 0 };
        }
        d
    }

    /// Longest path length in edges (the paper's `l` in Table I).
    pub fn longest_path_len(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Depth-first pre-order over the whole DAG, starting from sinks and
    /// walking predecessors. Used by the compiler's block-fitness distance
    /// metric (§IV-A: "difference in occurrences of their nodes during a
    /// depth-first traversal").
    ///
    /// Returns `order[node] = position`.
    pub fn dfs_order(&self) -> Vec<u32> {
        let n = self.len();
        let mut order = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack: Vec<NodeId> = Vec::new();
        // Visit from each sink; any unreached node (shouldn't exist) gets
        // appended at the end.
        for sink in self.nodes().rev().filter(|&v| self.succs(v).is_empty()) {
            stack.push(sink);
            while let Some(v) = stack.pop() {
                if order[v.index()] != u32::MAX {
                    continue;
                }
                order[v.index()] = next;
                next += 1;
                for &p in self.preds(v) {
                    if order[p.index()] == u32::MAX {
                        stack.push(p);
                    }
                }
            }
        }
        for slot in order.iter_mut() {
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
        }
        order
    }

    /// Groups nodes into levels by depth — the "layer-wise" schedule used by
    /// the GPU baseline and by several tests.
    pub fn layers(&self) -> Vec<Vec<NodeId>> {
        let depths = self.depths();
        let max = depths.iter().copied().max().unwrap_or(0) as usize;
        let mut layers = vec![Vec::new(); max + 1];
        for n in self.nodes() {
            layers[depths[n.index()] as usize].push(n);
        }
        layers
    }

    /// Rewrites every node with more than two inputs into a balanced tree of
    /// 2-input nodes (compiler step 0, §IV-A).
    ///
    /// Only associative ops can legally have more than two inputs (enforced
    /// by [`DagBuilder`]), so the rewrite preserves semantics up to
    /// floating-point re-association. Returns the new DAG and a mapping
    /// `orig -> new` for the node that carries each original node's result.
    pub fn binarize(&self) -> (Dag, Vec<NodeId>) {
        let mut b = DagBuilder::with_capacity(self.len(), self.edge_count());
        let mut map: Vec<NodeId> = Vec::with_capacity(self.len());
        for n in self.nodes() {
            let op = self.op(n);
            let preds = self.preds(n);
            let new_id = if preds.len() <= 2 {
                let mapped: Vec<NodeId> = preds.iter().map(|p| map[p.index()]).collect();
                if mapped.is_empty() {
                    b.input()
                } else if mapped.len() == 1 {
                    // A 1-input associative node is a pass-through; realize it
                    // with the op applied to the operand twice only for
                    // idempotent ops, otherwise keep a bypass-style copy by
                    // reusing the operand id directly.
                    map.push(mapped[0]);
                    continue;
                } else {
                    b.node(op, &mapped).expect("binarize preserves validity")
                }
            } else {
                debug_assert!(op.is_associative(), "builder enforces arity");
                // Balanced reduction tree.
                let mut level: Vec<NodeId> = preds.iter().map(|p| map[p.index()]).collect();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len().div_ceil(2));
                    let mut it = level.chunks_exact(2);
                    for pair in &mut it {
                        next.push(
                            b.node(op, &[pair[0], pair[1]])
                                .expect("binarize preserves validity"),
                        );
                    }
                    if let [odd] = it.remainder() {
                        next.push(*odd);
                    }
                    level = next;
                }
                level[0]
            };
            map.push(new_id);
        }
        (b.finish().expect("non-empty"), map)
    }

    /// Whether every non-input node has at most two inputs.
    pub fn is_binary(&self) -> bool {
        self.nodes().all(|n| self.preds(n).len() <= 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dag, [NodeId; 4]) {
        let mut b = DagBuilder::new();
        let a = b.input();
        let l = b.node(Op::Add, &[a, a]).unwrap();
        let r = b.node(Op::Mul, &[a, a]).unwrap();
        let s = b.node(Op::Add, &[l, r]).unwrap();
        (b.finish().unwrap(), [a, l, r, s])
    }

    #[test]
    fn adjacency_is_consistent() {
        let (d, [a, l, r, s]) = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.edge_count(), 6);
        assert_eq!(d.preds(s), &[l, r]);
        assert_eq!(d.succs(a), &[l, l, r, r]);
        assert_eq!(d.succs(l), &[s]);
        assert_eq!(d.in_degree(s), 2);
    }

    #[test]
    fn sources_and_sinks() {
        let (d, [a, _, _, s]) = diamond();
        assert_eq!(d.sources().collect::<Vec<_>>(), vec![a]);
        assert_eq!(d.sinks().collect::<Vec<_>>(), vec![s]);
        assert_eq!(d.input_count(), 1);
        assert_eq!(d.op_count(), 3);
    }

    #[test]
    fn depths_and_longest_path() {
        let (d, [a, l, r, s]) = diamond();
        let depth = d.depths();
        assert_eq!(depth[a.index()], 0);
        assert_eq!(depth[l.index()], 1);
        assert_eq!(depth[r.index()], 1);
        assert_eq!(depth[s.index()], 2);
        assert_eq!(d.longest_path_len(), 2);
    }

    #[test]
    fn layers_partition_all_nodes() {
        let (d, _) = diamond();
        let layers = d.layers();
        assert_eq!(layers.iter().map(Vec::len).sum::<usize>(), d.len());
        assert_eq!(layers[0].len(), 1);
        assert_eq!(layers[1].len(), 2);
        assert_eq!(layers[2].len(), 1);
    }

    #[test]
    fn dfs_order_is_a_permutation() {
        let (d, _) = diamond();
        let mut ord = d.dfs_order();
        ord.sort_unstable();
        assert_eq!(ord, vec![0, 1, 2, 3]);
    }

    #[test]
    fn binarize_splits_wide_nodes() {
        let mut b = DagBuilder::new();
        let ins: Vec<NodeId> = (0..5).map(|_| b.input()).collect();
        let wide = b.node(Op::Add, &ins).unwrap();
        let dag = b.finish().unwrap();
        assert!(!dag.is_binary());
        let (bin, map) = dag.binarize();
        assert!(bin.is_binary());
        // 5 inputs + 4 adds for a 5-way reduction.
        assert_eq!(bin.len(), 9);
        // Result node is a sink.
        assert!(bin.succs(map[wide.index()]).is_empty());
    }

    #[test]
    fn binarize_is_identity_on_binary_dags() {
        let (d, _) = diamond();
        let (bin, map) = d.binarize();
        assert_eq!(bin.len(), d.len());
        assert_eq!(map.len(), d.len());
        assert!(bin.is_binary());
    }

    #[test]
    fn check_node_bounds() {
        let (d, _) = diamond();
        assert!(d.check_node(NodeId(3)).is_ok());
        assert_eq!(
            d.check_node(NodeId(4)),
            Err(DagError::NodeOutOfRange(NodeId(4)))
        );
    }
}
