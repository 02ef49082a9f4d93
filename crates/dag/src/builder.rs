use crate::{Dag, DagError, NodeId, Op};

/// Incremental constructor for [`Dag`].
///
/// Nodes may only reference predecessors that already exist, so the builder
/// is acyclic by construction and the insertion order is a valid topological
/// order — an invariant the rest of the system relies on.
///
/// # Example
///
/// ```
/// use dpu_dag::{DagBuilder, Op};
///
/// # fn main() -> Result<(), dpu_dag::DagError> {
/// let mut b = DagBuilder::new();
/// let a = b.input();
/// let c = b.node(Op::Add, &[a, a])?;
/// let dag = b.finish()?;
/// assert_eq!(dag.preds(c), &[a, a]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    ops: Vec<Op>,
    pred_offsets: Vec<u32>,
    pred_data: Vec<NodeId>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DagBuilder {
            ops: Vec::new(),
            pred_offsets: vec![0],
            pred_data: Vec::new(),
        }
    }

    /// Creates a builder with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut pred_offsets = Vec::with_capacity(nodes + 1);
        pred_offsets.push(0);
        DagBuilder {
            ops: Vec::with_capacity(nodes),
            pred_offsets,
            pred_data: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no nodes were added yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Adds an external input (source) node and returns its id.
    pub fn input(&mut self) -> NodeId {
        let id = NodeId(self.ops.len() as u32);
        self.ops.push(Op::Input);
        self.pred_offsets.push(self.pred_data.len() as u32);
        id
    }

    /// Adds an operation node reading `preds` and returns its id.
    ///
    /// # Errors
    ///
    /// - [`DagError::UnknownPredecessor`] if any predecessor id has not been
    ///   created yet;
    /// - [`DagError::MissingInputs`] if `preds` is empty;
    /// - [`DagError::InputWithPredecessors`] if `op` is [`Op::Input`];
    /// - [`DagError::ArityMismatch`] if `op` is strictly binary and
    ///   `preds.len() != 2`.
    pub fn node(&mut self, op: Op, preds: &[NodeId]) -> Result<NodeId, DagError> {
        let id = NodeId(self.ops.len() as u32);
        check_row(id, op, preds)?;
        self.ops.push(op);
        self.pred_data.extend_from_slice(preds);
        self.pred_offsets.push(self.pred_data.len() as u32);
        Ok(id)
    }

    /// Finalizes the builder into an immutable [`Dag`].
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Empty`] if no nodes were added.
    pub fn finish(self) -> Result<Dag, DagError> {
        if self.ops.is_empty() {
            return Err(DagError::Empty);
        }
        Ok(Dag::from_csr(self.ops, self.pred_offsets, self.pred_data))
    }
}

/// The rules a node `id` reading `preds` must meet, in the order
/// [`DagBuilder::node`] reports them: what it accepts, and what
/// [`Dag::from_rows`] accepts row by row.
pub(crate) fn check_row(id: NodeId, op: Op, preds: &[NodeId]) -> Result<(), DagError> {
    if op == Op::Input {
        return match preds {
            [] => Ok(()),
            _ => Err(DagError::InputWithPredecessors(id)),
        };
    }
    if preds.is_empty() {
        return Err(DagError::MissingInputs(id));
    }
    if op.is_strictly_binary() && preds.len() != 2 {
        return Err(DagError::ArityMismatch {
            node: id,
            got: preds.len(),
        });
    }
    match preds.iter().find(|p| p.index() >= id.index()) {
        Some(&pred) => Err(DagError::UnknownPredecessor { node: id, pred }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_forward_reference() {
        let mut b = DagBuilder::new();
        let a = b.input();
        let err = b.node(Op::Add, &[a, NodeId(9)]).unwrap_err();
        assert!(matches!(err, DagError::UnknownPredecessor { .. }));
    }

    #[test]
    fn rejects_empty_preds() {
        let mut b = DagBuilder::new();
        assert!(matches!(
            b.node(Op::Add, &[]),
            Err(DagError::MissingInputs(_))
        ));
    }

    #[test]
    fn rejects_unary_sub() {
        let mut b = DagBuilder::new();
        let a = b.input();
        assert!(matches!(
            b.node(Op::Sub, &[a]),
            Err(DagError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty_dag() {
        assert_eq!(DagBuilder::new().finish().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn input_via_node_helper() {
        let mut b = DagBuilder::new();
        let a = b.node(Op::Input, &[]).unwrap();
        assert_eq!(a, NodeId(0));
        let dag = b.finish().unwrap();
        assert_eq!(dag.op(a), Op::Input);
    }

    #[test]
    fn from_rows_accepts_what_node_accepts() {
        // One row appended to two inputs: every rule, each way.
        let n = NodeId;
        let rows: [(Op, &[NodeId]); 9] = [
            (Op::Add, &[n(0), n(1)]),
            (Op::Max, &[n(1), n(0), n(1)]),
            (Op::Input, &[]),
            (Op::Input, &[n(0)]),
            (Op::Mul, &[]),
            (Op::Div, &[n(0), n(1), n(0)]),
            (Op::Sub, &[n(1)]),
            (Op::Add, &[n(0), n(2)]),
            (Op::Min, &[n(5), n(0)]),
        ];
        for (op, preds) in rows {
            let mut b = DagBuilder::new();
            b.input();
            b.input();
            let built = b.node(op, preds).and_then(|_| b.finish());
            let direct = Dag::from_rows(
                vec![Op::Input, Op::Input, op],
                vec![0, 0, 0, preds.len() as u32],
                preds.to_vec(),
            );
            assert_eq!(
                built.as_ref().map(|d| d.preds(n(2))).map_err(Clone::clone),
                direct.as_ref().map(|d| d.preds(n(2))).map_err(Clone::clone),
                "{op:?} {preds:?}"
            );
        }
        assert_eq!(
            Dag::from_rows(Vec::new(), vec![0], Vec::new()).unwrap_err(),
            DagError::Empty
        );
    }
}
