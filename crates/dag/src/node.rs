use std::fmt;

/// Identifier of a node within a [`Dag`](crate::Dag).
///
/// Node ids are dense indices assigned in insertion order by
/// [`DagBuilder`](crate::DagBuilder); they index directly into the DAG's
/// internal arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Arithmetic operation performed by a DAG node.
///
/// The paper's processing elements natively support addition and
/// multiplication plus an input bypass (§III-A). Sparse triangular solve
/// additionally requires subtraction and division (for
/// `x_i = (b_i - Σ L_ij·x_j) / L_ii`), so the reproduction's PEs support the
/// full set below; this does not change any architectural claim because all
/// ops are single-cycle two-input scalar operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// External input (a DAG source); holds no operation.
    Input,
    /// Two-or-more-input addition.
    Add,
    /// Two-or-more-input multiplication.
    Mul,
    /// Binary subtraction `lhs - rhs`.
    Sub,
    /// Binary division `lhs / rhs`.
    Div,
    /// Two-or-more-input minimum.
    Min,
    /// Two-or-more-input maximum.
    Max,
}

impl Op {
    /// Whether the operation is associative and commutative, i.e. a
    /// multi-input node of this op may be rebalanced into an arbitrary
    /// binary tree during [binarization](crate::Dag::binarize).
    pub fn is_associative(self) -> bool {
        matches!(self, Op::Add | Op::Mul | Op::Min | Op::Max)
    }

    /// Whether nodes of this op must have exactly two inputs.
    pub fn is_strictly_binary(self) -> bool {
        matches!(self, Op::Sub | Op::Div)
    }

    /// Applies the operation to two operands.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            Op::Input => a,
            Op::Add => a + b,
            Op::Mul => a * b,
            Op::Sub => a - b,
            Op::Div => a / b,
            Op::Min => a.min(b),
            Op::Max => a.max(b),
        }
    }

    /// Identity element for associative ops (used when folding >2 inputs).
    pub fn identity(self) -> Option<f32> {
        match self {
            Op::Add => Some(0.0),
            Op::Mul => Some(1.0),
            Op::Min => Some(f32::INFINITY),
            Op::Max => Some(f32::NEG_INFINITY),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Input => "in",
            Op::Add => "+",
            Op::Mul => "*",
            Op::Sub => "-",
            Op::Div => "/",
            Op::Min => "min",
            Op::Max => "max",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from(7u32);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn associativity_classification() {
        assert!(Op::Add.is_associative());
        assert!(Op::Mul.is_associative());
        assert!(Op::Min.is_associative());
        assert!(Op::Max.is_associative());
        assert!(!Op::Sub.is_associative());
        assert!(!Op::Div.is_associative());
        assert!(Op::Sub.is_strictly_binary());
        assert!(Op::Div.is_strictly_binary());
        assert!(!Op::Add.is_strictly_binary());
    }

    #[test]
    fn apply_matches_semantics() {
        assert_eq!(Op::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(Op::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(Op::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(Op::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(Op::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(Op::Max.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn identities_are_identities() {
        for op in [Op::Add, Op::Mul, Op::Min, Op::Max] {
            let e = op.identity().unwrap();
            assert_eq!(op.apply(e, 4.0), 4.0);
        }
        assert!(Op::Sub.identity().is_none());
        assert!(Op::Div.identity().is_none());
    }
}
