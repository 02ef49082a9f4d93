//! Sparse matrices in CSR form, a synthetic lower-triangular generator, and
//! a Matrix Market reader.
//!
//! The SpTRSV benchmarks of Table I are SuiteSparse matrices; because the
//! collection is not bundled here, [`generate_lower_triangular`] produces
//! matrices with matched dimension/sparsity statistics (banded structure
//! plus random fill — the pattern of factors from physical problems), and
//! [`parse_matrix_market`] lets real `.mtx` files be substituted.

use std::error::Error;
use std::fmt;

use dpu_dag::{Dag, DagBuilder, NodeId, Op};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A sparse matrix in compressed-sparse-row (CSR) form.
///
/// Row `i`'s entries occupy `indices[offsets[i]..offsets[i+1]]` /
/// `values[..]`, with column indices strictly increasing within a row.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows (== columns; only square matrices are used here).
    pub dim: usize,
    /// Row offsets, length `dim + 1`.
    pub offsets: Vec<usize>,
    /// Column indices, length `nnz`.
    pub indices: Vec<usize>,
    /// Nonzero values, length `nnz`.
    pub values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets; duplicates are summed.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_triplets(dim: usize, mut triplets: Vec<(usize, usize, f32)>) -> Self {
        for &(r, c, _) in &triplets {
            assert!(r < dim && c < dim, "triplet ({r},{c}) out of range");
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut offsets = vec![0usize; dim + 1];
        let mut indices: Vec<usize> = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in triplets {
            if last == Some((r, c)) {
                *values.last_mut().expect("entry exists") += v;
            } else {
                indices.push(c);
                values.push(v);
                offsets[r + 1] = indices.len();
                last = Some((r, c));
            }
        }
        // Make offsets monotone across rows that received no entries.
        for i in 1..=dim {
            offsets[i] = offsets[i].max(offsets[i - 1]);
        }
        CsrMatrix {
            dim,
            offsets,
            indices,
            values,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Entries of row `i` as `(col, value)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (s, e) = (self.offsets[i], self.offsets[i + 1]);
        self.indices[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Whether the matrix is lower triangular with a full nonzero diagonal —
    /// the precondition for forward substitution.
    pub fn is_lower_triangular(&self) -> bool {
        (0..self.dim).all(|i| {
            let mut has_diag = false;
            for (c, v) in self.row(i) {
                if c > i {
                    return false;
                }
                if c == i {
                    has_diag = v != 0.0;
                }
            }
            has_diag
        })
    }

    /// Keeps the lower triangle (including the diagonal), inserting unit
    /// diagonal entries where missing — turning an arbitrary matrix into a
    /// solvable `L` factor the way SpTRSV benchmarks commonly do.
    pub fn lower_triangle(&self) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..self.dim {
            let mut has_diag = false;
            for (c, v) in self.row(i) {
                if c < i {
                    triplets.push((i, c, v));
                } else if c == i {
                    has_diag = true;
                    triplets.push((i, c, if v == 0.0 { 1.0 } else { v }));
                }
            }
            if !has_diag {
                triplets.push((i, i, 1.0));
            }
        }
        CsrMatrix::from_triplets(self.dim, triplets)
    }
}

/// Parameters of the synthetic lower-triangular matrix generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerTriangularParams {
    /// Matrix dimension.
    pub dim: usize,
    /// Average off-diagonal nonzeros per row.
    pub avg_nnz_per_row: f64,
    /// Probability that a row carries a *chain link* (an entry in its
    /// immediate sub-diagonal band). Runs of chain-linked rows are what
    /// give SpTRSV DAGs their long critical paths: the longest run — and
    /// hence Table I's `l` — is ≈ `ln(dim) / ln(1/chain_prob)`.
    pub band_fraction: f64,
    /// Half-bandwidth of the chain-link band.
    pub band: usize,
}

impl LowerTriangularParams {
    /// Chooses `band_fraction` so the generated solve DAG's longest path
    /// lands near `l_target` (each matrix row contributes ~4 DAG levels;
    /// the scattered far entries contribute an additive `log2(dim)` term).
    pub fn for_target_path(dim: usize, avg_nnz_per_row: f64, l_target: usize) -> Self {
        let chain_target = (l_target as f64 / 4.0 - (dim as f64).log2()).max(4.0);
        let q = (-((dim as f64).ln()) / chain_target)
            .exp()
            .clamp(0.05, 0.995);
        LowerTriangularParams {
            dim,
            avg_nnz_per_row,
            band_fraction: q,
            band: 3,
        }
    }
}

/// Generates a random sparse lower-triangular matrix with nonzero diagonal.
///
/// Each row gets a near-diagonal *chain link* with probability
/// `band_fraction` (the critical-path control, see
/// [`LowerTriangularParams`]) and scatters its remaining nonzeros over the
/// older half of the columns (matching the long-range coupling of factors
/// from physical problems without blowing up the critical path).
///
/// Deterministic per `(params, seed)`. Values are drawn in `[0.5, 1.5]`
/// (diagonal in `[1, 2]`) to keep forward substitution well conditioned.
pub fn generate_lower_triangular(params: &LowerTriangularParams, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51ce_b00d);
    let mut triplets = Vec::new();
    for i in 0..params.dim {
        triplets.push((i, i, rng.gen_range(1.0f32..2.0)));
        if i == 0 {
            continue;
        }
        let mut cols = std::collections::BTreeSet::new();
        if rng.gen_bool(params.band_fraction) {
            cols.insert(i - rng.gen_range(1..=params.band.min(i)));
        }
        // Remaining entries scatter over the older half of the columns.
        let lo = params.avg_nnz_per_row * 0.5;
        let hi = params.avg_nnz_per_row * 1.5;
        let count = rng.gen_range(lo..hi.max(lo + 1.0)).round() as usize;
        let far_limit = (i / 2).max(1);
        // Early rows may not have `count` distinct columns available; cap
        // by the reachable pool: {0..far_limit} plus any band column that
        // happens to sit at or above far_limit.
        let reachable = far_limit + cols.iter().filter(|&&c| c >= far_limit).count();
        let want = count.min(i).min(reachable);
        while cols.len() < want {
            cols.insert(rng.gen_range(0..far_limit));
        }
        for c in cols {
            triplets.push((i, c, rng.gen_range(0.5f32..1.5)));
        }
    }
    CsrMatrix::from_triplets(params.dim, triplets)
}

/// Errors from [`parse_matrix_market`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MtxError {
    /// Missing or malformed `%%MatrixMarket` header.
    BadHeader,
    /// Unsupported format (only `matrix coordinate real/integer/pattern
    /// general/symmetric` is handled).
    Unsupported(String),
    /// Malformed size or entry line (1-based line number).
    BadLine(usize),
    /// Non-square matrix.
    NotSquare,
}

impl fmt::Display for MtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtxError::BadHeader => f.write_str("missing %%MatrixMarket header"),
            MtxError::Unsupported(s) => write!(f, "unsupported matrix market variant: {s}"),
            MtxError::BadLine(n) => write!(f, "malformed line {n}"),
            MtxError::NotSquare => f.write_str("matrix is not square"),
        }
    }
}

impl Error for MtxError {}

/// Parses a Matrix Market (`.mtx`) coordinate file.
///
/// Supports `real`, `integer` and `pattern` fields with `general` or
/// `symmetric` symmetry (symmetric entries are mirrored). Pattern entries
/// get value 1.
///
/// # Errors
///
/// See [`MtxError`].
pub fn parse_matrix_market(text: &str) -> Result<CsrMatrix, MtxError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(MtxError::BadHeader)?;
    let h = header.to_ascii_lowercase();
    if !h.starts_with("%%matrixmarket") {
        return Err(MtxError::BadHeader);
    }
    let toks: Vec<&str> = h.split_whitespace().collect();
    if toks.len() < 5 || toks[1] != "matrix" || toks[2] != "coordinate" {
        return Err(MtxError::Unsupported(header.to_string()));
    }
    let field = toks[3];
    let symmetry = toks[4];
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(MtxError::Unsupported(header.to_string()));
    }
    if !matches!(symmetry, "general" | "symmetric") {
        return Err(MtxError::Unsupported(header.to_string()));
    }

    let mut size: Option<(usize, usize, usize)> = None;
    let mut triplets = Vec::new();
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        if size.is_none() {
            let r: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(MtxError::BadLine(idx + 1))?;
            let c: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(MtxError::BadLine(idx + 1))?;
            let n: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(MtxError::BadLine(idx + 1))?;
            if r != c {
                return Err(MtxError::NotSquare);
            }
            size = Some((r, c, n));
            continue;
        }
        let r: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(MtxError::BadLine(idx + 1))?;
        let c: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(MtxError::BadLine(idx + 1))?;
        let v: f32 = if field == "pattern" {
            1.0
        } else {
            it.next()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or(MtxError::BadLine(idx + 1))? as f32
        };
        if r == 0 || c == 0 {
            return Err(MtxError::BadLine(idx + 1));
        }
        triplets.push((r - 1, c - 1, v));
        if symmetry == "symmetric" && r != c {
            triplets.push((c - 1, r - 1, v));
        }
    }
    let (dim, _, _) = size.ok_or(MtxError::BadHeader)?;
    Ok(CsrMatrix::from_triplets(dim, triplets))
}

/// A sparse matrix–vector product (`y = A·x`) compute DAG — the third
/// irregular-workload family served by the runtime benchmarks, alongside
/// probabilistic circuits and SpTRSV. Unlike SpTRSV there is no
/// cross-row dependence, so the DAG is wide and shallow: per-row dot
/// products of stored values against the dense `x`.
#[derive(Debug, Clone)]
pub struct SpmvDag {
    /// The computation DAG.
    pub dag: Dag,
    /// Node computing each `y_i`.
    pub y_nodes: Vec<NodeId>,
    /// Matrix dimension.
    pub dim: usize,
    /// Stored nonzeros of the matrix the DAG was built from.
    pub nnz: usize,
}

impl SpmvDag {
    /// Builds the SpMV DAG for `a`.
    ///
    /// Input order (for [`SpmvDag::inputs`] and
    /// [`dpu_dag::eval::evaluate`]): all `x_j` first, then the CSR values
    /// of `a` row by row.
    ///
    /// # Panics
    ///
    /// Panics if any row of `a` is empty (its `y_i` would be the constant
    /// 0, which the DAG substrate has no node for).
    pub fn build(a: &CsrMatrix) -> SpmvDag {
        let n = a.dim;
        let mut b = DagBuilder::with_capacity(2 * a.nnz() + n, 3 * a.nnz());
        let x_in: Vec<NodeId> = (0..n).map(|_| b.input()).collect();
        let val_in: Vec<NodeId> = (0..a.nnz()).map(|_| b.input()).collect();
        let mut y_nodes = Vec::with_capacity(n);
        for i in 0..n {
            let (s, e) = (a.offsets[i], a.offsets[i + 1]);
            assert!(s < e, "row {i} is empty");
            let terms: Vec<NodeId> = (s..e)
                .map(|k| {
                    b.node(Op::Mul, &[val_in[k], x_in[a.indices[k]]])
                        .expect("valid by construction")
                })
                .collect();
            let y = if terms.len() == 1 {
                terms[0]
            } else {
                b.node(Op::Add, &terms).expect("valid by construction")
            };
            y_nodes.push(y);
        }
        SpmvDag {
            dag: b.finish().expect("non-empty"),
            y_nodes,
            dim: n,
            nnz: a.nnz(),
        }
    }

    /// Flattens `(a, x)` into the DAG's input vector.
    ///
    /// # Panics
    ///
    /// Panics if `a`/`x` do not match the dimensions the DAG was built
    /// with.
    pub fn inputs(&self, a: &CsrMatrix, x: &[f32]) -> Vec<f32> {
        assert_eq!(a.dim, self.dim, "matrix dimension mismatch");
        assert_eq!(a.nnz(), self.nnz, "nonzero count mismatch");
        assert_eq!(x.len(), self.dim, "vector dimension mismatch");
        let mut inputs = Vec::with_capacity(self.dim + self.nnz);
        inputs.extend_from_slice(x);
        inputs.extend_from_slice(&a.values);
        inputs
    }

    /// Extracts `y` from a full evaluation/readback of the DAG's values.
    pub fn product(&self, values: &[f32]) -> Vec<f32> {
        self.y_nodes.iter().map(|n| values[n.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference `y = A·x` for verifying [`SpmvDag`].
    fn spmv_reference(a: &CsrMatrix, x: &[f32]) -> Vec<f32> {
        (0..a.dim)
            .map(|i| a.row(i).map(|(c, v)| v * x[c]).sum())
            .collect()
    }

    #[test]
    fn spmv_dag_matches_reference() {
        let p = LowerTriangularParams {
            dim: 40,
            avg_nnz_per_row: 3.0,
            band_fraction: 0.7,
            band: 6,
        };
        let a = generate_lower_triangular(&p, 9);
        let spmv = SpmvDag::build(&a);
        let x: Vec<f32> = (0..a.dim).map(|i| 0.3 + (i as f32 * 0.11).cos()).collect();
        let vals = dpu_dag::eval::evaluate(&spmv.dag, &spmv.inputs(&a, &x)).unwrap();
        let y = spmv.product(&vals);
        let want = spmv_reference(&a, &x);
        assert_eq!(y.len(), a.dim);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn triplets_roundtrip() {
        let m =
            CsrMatrix::from_triplets(3, vec![(0, 0, 1.0), (2, 1, 3.0), (1, 0, 2.0), (2, 2, 4.0)]);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(1, 3.0), (2, 4.0)]);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0)]);
    }

    #[test]
    fn generated_matrix_is_lower_triangular() {
        let p = LowerTriangularParams {
            dim: 500,
            avg_nnz_per_row: 6.0,
            band_fraction: 0.7,
            band: 12,
        };
        let m = generate_lower_triangular(&p, 3);
        assert!(m.is_lower_triangular());
        let nnz_per_row = (m.nnz() - m.dim) as f64 / m.dim as f64;
        assert!(
            (3.0..=9.0).contains(&nnz_per_row),
            "nnz/row = {nnz_per_row}"
        );
    }

    #[test]
    fn generator_is_deterministic() {
        let p = LowerTriangularParams {
            dim: 100,
            avg_nnz_per_row: 4.0,
            band_fraction: 0.5,
            band: 8,
        };
        assert_eq!(
            generate_lower_triangular(&p, 5),
            generate_lower_triangular(&p, 5)
        );
    }

    #[test]
    fn parses_matrix_market_general() {
        let text = "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 3.0\n3 3 1.5\n";
        let m = parse_matrix_market(text).unwrap();
        assert_eq!(m.dim, 3);
        assert_eq!(m.nnz(), 4);
        assert!(m.is_lower_triangular());
    }

    #[test]
    fn parses_symmetric_and_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1\n";
        let m = parse_matrix_market(text).unwrap();
        // (2,1) mirrored to (1,2).
        assert_eq!(m.nnz(), 3);
        assert!(!m.is_lower_triangular());
        assert!(m.lower_triangle().is_lower_triangular());
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(parse_matrix_market("hello"), Err(MtxError::BadHeader));
        assert!(matches!(
            parse_matrix_market("%%MatrixMarket matrix array real general\n"),
            Err(MtxError::Unsupported(_))
        ));
        assert!(matches!(
            parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 3 1\n"),
            Err(MtxError::NotSquare)
        ));
        assert!(matches!(
            parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n"),
            Err(MtxError::BadLine(_))
        ));
    }

    #[test]
    fn lower_triangle_inserts_missing_diagonal() {
        let m = CsrMatrix::from_triplets(2, vec![(1, 0, 5.0)]);
        let l = m.lower_triangle();
        assert!(l.is_lower_triangular());
        assert_eq!(l.row(0).collect::<Vec<_>>(), vec![(0, 1.0)]);
    }
}
