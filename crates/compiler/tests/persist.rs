//! Property-based tests of the `Compiled` binary codec: exact round
//! trips over randomly structured DAGs and configurations, and graceful
//! rejection of corrupted blobs.

use dpu_compiler::{compile, CompileOptions, Compiled, PersistError};
use dpu_dag::{Dag, DagBuilder, NodeId, Op};
use dpu_isa::{ArchConfig, Fnv1a};
use proptest::prelude::*;

/// Strategy: a random valid DAG — mixed n-ary ops over already-created
/// nodes, the same shape family the DAG substrate's own property tests
/// use (chains, diamonds, fan-outs all arise).
fn arb_dag(max_nodes: usize) -> impl Strategy<Value = Dag> {
    (
        2usize..6,
        proptest::collection::vec((0usize..6, any::<u32>(), any::<u32>()), 1..max_nodes),
    )
        .prop_map(|(n_inputs, ops)| {
            let mut b = DagBuilder::new();
            let mut ids: Vec<NodeId> = (0..n_inputs).map(|_| b.input()).collect();
            for (op_sel, i, j) in ops {
                let op = match op_sel {
                    0 => Op::Add,
                    1 => Op::Mul,
                    2 => Op::Min,
                    3 => Op::Max,
                    4 => Op::Sub,
                    _ => Op::Div,
                };
                let a = ids[i as usize % ids.len()];
                let c = ids[j as usize % ids.len()];
                ids.push(b.node(op, &[a, c]).expect("operands exist"));
            }
            b.finish().expect("non-empty")
        })
}

/// The architecture points the codec is exercised over: small, deep, and
/// the paper's min-EDP design.
fn configs() -> Vec<ArchConfig> {
    vec![
        ArchConfig::new(1, 8, 16).unwrap(),
        ArchConfig::new(2, 8, 16).unwrap(),
        ArchConfig::new(3, 16, 32).unwrap(),
        ArchConfig::min_edp(),
    ]
}

fn assert_same(a: &Compiled, b: &Compiled) {
    assert_eq!(a.program, b.program);
    assert_eq!(a.layout, b.layout);
    assert_eq!(a.orig_to_bin, b.orig_to_bin);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.bin_dag.len(), b.bin_dag.len());
    for n in a.bin_dag.nodes() {
        assert_eq!(a.bin_dag.op(n), b.bin_dag.op(n));
        assert_eq!(a.bin_dag.preds(n), b.bin_dag.preds(n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trip is exact across mixed DAG families and configs, and
    /// the encoding is canonical (encode ∘ decode ∘ encode is stable).
    #[test]
    fn roundtrip_is_exact(dag in arb_dag(80), cfg_idx in 0usize..4) {
        let cfg = configs()[cfg_idx];
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).expect("compiles");
        let bytes = compiled.to_bytes();
        let decoded = Compiled::from_bytes(&bytes).expect("round trip");
        assert_same(&compiled, &decoded);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Any single-byte corruption is rejected with an error — never a
    /// panic, never silently accepted.
    #[test]
    fn corruption_is_always_rejected(dag in arb_dag(40), pos_sel in any::<u32>(), flip in 1u8..=255) {
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).expect("compiles");
        let mut bytes = compiled.to_bytes();
        let pos = pos_sel as usize % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(Compiled::from_bytes(&bytes).is_err(), "corruption at {} accepted", pos);
    }

    /// Every truncation point is rejected gracefully.
    #[test]
    fn truncation_is_always_rejected(dag in arb_dag(40), cut_sel in any::<u32>()) {
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).expect("compiles");
        let bytes = compiled.to_bytes();
        let cut = cut_sel as usize % bytes.len();
        let err = Compiled::from_bytes(&bytes[..cut]).expect_err("truncated must fail");
        prop_assert!(matches!(err, PersistError::Truncated | PersistError::Checksum { .. }));
    }
}

/// Hostile bytes: a payload whose depth field makes `2^D` overflow `u32`,
/// under a checksum recomputed to match (FNV-1a is no defence against
/// anyone who can write the file), decodes to `Malformed` — not a shift
/// overflow panic, nor, where the shift wraps, a config with a one-port
/// tree.
#[test]
fn overflowing_depth_under_a_recomputed_checksum_is_malformed() {
    let mut b = DagBuilder::new();
    let (x, y) = (b.input(), b.input());
    b.node(Op::Add, &[x, y]).unwrap();
    let dag = b.finish().unwrap();
    let cfg = ArchConfig::new(2, 8, 16).unwrap();
    let clean = compile(&dag, &cfg, &CompileOptions::default())
        .expect("compiles")
        .to_bytes();
    for depth in [32u32, 40] {
        let mut bytes = clean.clone();
        // The payload starts after the 24-byte header, with the depth.
        bytes[24..28].copy_from_slice(&depth.to_le_bytes());
        let mut check = Fnv1a::default();
        check.bytes(&bytes[24..]);
        bytes[16..24].copy_from_slice(&check.finish().to_le_bytes());
        let err = Compiled::from_bytes(&bytes).expect_err("overflowing depth accepted");
        assert!(
            matches!(&err, PersistError::Malformed(why) if why.contains(&format!("D={depth}"))),
            "depth {depth}: {err:?}"
        );
    }
}
