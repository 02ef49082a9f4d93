//! Hostile bytes at every door of the warm-restart path. A spill file is
//! read back from disk, and a checksum is no defence against anyone who
//! can write the file (FNV-1a is recomputable), so each door must answer
//! `Ok` or a typed error — a panic fails the case, and an allocation sized
//! from a hostile length would abort the process:
//!
//! - `Program::unpack` over arbitrary bytes and counts, on every topology
//!   of a small `(D, B, R)` grid that includes `B = 128` and `D = 4`; a
//!   program it accepts re-packs to exactly the bits it consumed, up to
//!   the fields decoding drops (the idle entries of `store_4`/`copy_4`,
//!   the fields behind a clear `present` bit), which re-pack as zeros;
//! - `verify_program` on every program that unpacks;
//! - `Compiled::from_bytes` on arbitrary blobs, on valid blobs with
//!   bytes flipped under a recomputed checksum, and on DAG sections that
//!   break a rule of `DagBuilder::node` or end inside an operand list;
//! - the spill-file header, through the two `SpillStore` calls that parse
//!   it: `keys` on arbitrary 41-byte headers, `load` on corrupted files.

use dpu_core::compiler::PersistError;
use dpu_core::isa::encode::{self, BitReader};
use dpu_core::isa::{Fnv1a, Program};
use dpu_core::prelude::*;
use dpu_core::runtime::{dag_fingerprint, CacheKey, SpillStore};
use dpu_core::verify::{verify_program, LayoutFacts};
use proptest::prelude::*;

/// `(D, B, R)` points of the grid; every topology runs on each.
const DIMS: [(u32, u32, u32); 7] = [
    (1, 8, 2),
    (2, 8, 16),
    (3, 16, 4),
    (3, 64, 32),
    (2, 128, 32),
    (4, 16, 256),
    (4, 128, 4),
];

/// Topologies the compiler targets: (a)-(c), the ones with an input
/// crossbar (§IV's scope). Images of programs for (d) come from arbitrary
/// bytes only.
const COMPILED_TOPOLOGIES: usize = 3;

fn config(dims: usize, topology: usize) -> ArchConfig {
    let (d, b, r) = DIMS[dims];
    ArchConfig::with_topology(d, b, r, Topology::all()[topology]).expect("grid is valid")
}

/// A small random DAG, compiled for `cfg`: loads, execs, copies, stores.
fn compiled(seed: u32, cfg: ArchConfig) -> Compiled {
    let mut b = DagBuilder::new();
    let mut ids: Vec<NodeId> = (0..5).map(|_| b.input()).collect();
    let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(12_345);
    for _ in 0..30 {
        let mut draw = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as usize
        };
        let (x, y) = (ids[draw() % ids.len()], ids[draw() % ids.len()]);
        let op = [Op::Add, Op::Mul, Op::Sub, Op::Max][draw() % 4];
        ids.push(b.node(op, &[x, y]).expect("operands exist"));
    }
    Dpu::new(cfg)
        .compile(&b.finish().expect("non-empty"))
        .expect("small DAGs compile")
}

/// What must hold of a program `Program::unpack` accepted from `bytes`.
fn check_unpacked(bytes: &[u8], program: &Program) -> Result<(), TestCaseError> {
    let cfg = program.config;
    // It consumed `size_bits`, instruction by instruction.
    let bits = program.size_bits() as usize;
    let mut r = BitReader::new(bytes);
    for _ in 0..program.len() {
        prop_assert!(encode::decode(&mut r, &cfg).is_ok());
    }
    prop_assert_eq!(r.position(), bits);
    // Re-packed, it is those bits: every bit it sets was set in the input
    // (a kept field re-packs as read, a dropped one as zeros).
    let image = program.pack();
    prop_assert_eq!(image.len(), bits.div_ceil(8));
    for (i, (&packed, &read)) in image.iter().zip(bytes).enumerate() {
        prop_assert!(
            packed & !read == 0,
            "byte {i}: {packed:#04x} not within {read:#04x}"
        );
    }
    // And the re-packed image is canonical: it unpacks to the same program
    // and packs back to itself.
    let again = Program::unpack(cfg, &image, program.len());
    prop_assert!(
        again.as_ref() == Ok(program),
        "re-packed image unpacks differently"
    );
    prop_assert_eq!(again.map(|p| p.pack()).ok(), Some(image));
    Ok(())
}

/// A layout small enough for stray rows to miss and slots to matter.
fn small_layout(rows_used: u32) -> LayoutFacts<'static> {
    LayoutFacts {
        input_slots: &[(0, 0), (0, 1), (u32::MAX, u32::MAX)],
        output_slots: &[(1, 0), (1, 1), (1, 0)],
        spill_base: 2,
        rows_used,
    }
}

/// The payload checksum of a `Compiled::to_bytes` blob, recomputed.
fn reseal(blob: &mut [u8]) {
    let mut h = Fnv1a::default();
    h.bytes(&blob[24..]);
    let check = h.finish();
    blob[16..24].copy_from_slice(&check.to_le_bytes());
}

/// Where `c.to_bytes()`'s binary-DAG section starts: after the header,
/// config, program image, input and output slots, spill base and rows
/// used.
fn dag_section_start(c: &Compiled) -> usize {
    let slots = c.layout.input_slots.len() + c.layout.output_slots.len();
    24 + 17 + 8 + 8 + c.program.pack().len() + 8 + 8 + 8 * slots + 8
}

/// A DAG row as the format spells it: op tag, declared operand count,
/// operand ids.
type Row<'a> = (u8, u32, &'a [u32]);

/// `c.to_bytes()` with its binary-DAG section replaced by `rows`, cut after `keep` bytes of that
/// section if given, and resealed.
fn with_dag_rows(c: &Compiled, rows: &[Row<'_>], keep: Option<usize>) -> Vec<u8> {
    let blob = c.to_bytes();
    let start = dag_section_start(c);
    let old_len = 8 + c
        .bin_dag
        .nodes()
        .map(|n| 5 + 4 * c.bin_dag.preds(n).len())
        .sum::<usize>();
    assert_eq!(
        blob[start..start + 8],
        (c.bin_dag.len() as u64).to_le_bytes(),
        "DAG section located"
    );
    let mut section = (rows.len() as u64).to_le_bytes().to_vec();
    for &(tag, arity, preds) in rows {
        section.push(tag);
        section.extend_from_slice(&arity.to_le_bytes());
        for p in preds {
            section.extend_from_slice(&p.to_le_bytes());
        }
    }
    let mut out = blob[..start].to_vec();
    match keep {
        Some(keep) => out.extend_from_slice(&section[..keep]),
        None => {
            out.extend_from_slice(&section);
            out.extend_from_slice(&blob[start + old_len..]);
        }
    }
    let len = out.len() as u64 - 24;
    out[8..16].copy_from_slice(&len.to_le_bytes());
    reseal(&mut out);
    out
}

#[test]
fn from_bytes_refuses_dag_rows_the_builder_refuses() {
    let c = compiled(7, config(1, 0));
    let refused_as_dag = |what: &str, blob: &[u8]| match Compiled::from_bytes(blob) {
        Err(PersistError::Malformed(why)) => {
            assert!(why.starts_with("dag:"), "{what}: refused for {why}")
        }
        other => panic!("{what}: {other:?}"),
    };
    refused_as_dag("no nodes", &with_dag_rows(&c, &[], None));
    // Two inputs, then the row under test; tags 0 input, 1 add, 2 mul,
    // 3 sub, 4 div.
    let refused: [(&str, Row<'_>); 7] = [
        ("forward operand", (1, 2, &[0, 3])),
        ("self operand", (1, 2, &[2, 0])),
        ("no operands", (2, 0, &[])),
        ("input with operands", (0, 1, &[1])),
        ("three-operand sub", (3, 3, &[0, 1, 0])),
        ("three-operand div", (4, 3, &[1, 0, 1])),
        ("one-operand div", (4, 1, &[1])),
    ];
    for (what, row) in refused {
        refused_as_dag(
            what,
            &with_dag_rows(&c, &[(0, 0, &[]), (0, 0, &[]), row], None),
        );
    }
    // The same rows, legal, get past the DAG section (and are refused
    // later, for not being the DAG the program computes).
    let blob = with_dag_rows(&c, &[(0, 0, &[]), (0, 0, &[]), (3, 2, &[1, 0])], None);
    if let Err(PersistError::Malformed(why)) = Compiled::from_bytes(&blob) {
        assert!(!why.starts_with("dag:"), "legal rows refused: {why}");
    }
}

#[test]
fn from_bytes_refuses_counts_past_the_end_without_allocating() {
    let c = compiled(8, config(1, 0));
    let two: &[u32] = &[0, 1];
    // A blob that ends inside an operand list, after the first of two
    // operands; then an operand count as large as a `u32` allows.
    let rows = [(0, 0, &[][..]), (0, 0, &[][..]), (1, 2, two)];
    let cut = 8 + 5 + 5 + 5 + 4;
    let blob = with_dag_rows(&c, &rows, Some(cut));
    assert_eq!(
        Compiled::from_bytes(&blob).err(),
        Some(PersistError::Truncated)
    );
    let rows = [(0, 0, &[][..]), (1, u32::MAX, two)];
    let blob = with_dag_rows(&c, &rows, None);
    assert_eq!(
        Compiled::from_bytes(&blob).err(),
        Some(PersistError::Truncated)
    );
    // A node count past the end of the blob.
    let mut blob = c.to_bytes();
    let start = dag_section_start(&c);
    blob[start..start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut blob);
    assert_eq!(
        Compiled::from_bytes(&blob).err(),
        Some(PersistError::Truncated)
    );
}

/// A temporary spill directory for one test.
fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dpu-hostile-{}-{tag}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn unpack_of_arbitrary_bytes_answers_and_repacks(
        (dims, topology) in (0usize..DIMS.len(), 0usize..4),
        raw in proptest::collection::vec(any::<u8>(), 0..160),
        zeros in proptest::collection::vec(0u8..3, 0..160),
        count_sel in (0u32..8, any::<u64>()),
        rows_used in 1u32..4,
    ) {
        let cfg = config(dims, topology);
        // Two thirds of the bytes zeroed — runs of nops, short fields —
        // so that short counts often decode.
        let bytes: Vec<u8> = raw
            .iter()
            .zip(zeros.iter().chain(std::iter::repeat(&2)))
            .map(|(&b, &z)| if z < 2 { 0 } else { b })
            .collect();
        let count = match count_sel.0 {
            0 => count_sel.1 as usize,
            1 => usize::MAX,
            2 | 3 => count_sel.1 as usize % (2 * bytes.len() + 3),
            _ => count_sel.1 as usize % 6,
        };
        if let Ok(program) = Program::unpack(cfg, &bytes, count) {
            check_unpacked(&bytes, &program)?;
            let _ = verify_program(&program, &small_layout(rows_used));
        }
    }

    #[test]
    fn unpack_of_a_flipped_image_answers_and_repacks(
        (dims, topology) in (0usize..DIMS.len(), 0usize..COMPILED_TOPOLOGIES),
        seed in any::<u32>(),
        flips in proptest::collection::vec((any::<u32>(), 0u32..8), 1..6),
        count_delta in 0usize..3,
    ) {
        let c = compiled(seed, config(dims, topology));
        let mut bytes = c.program.pack();
        for (at, bit) in flips {
            let at = at as usize % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let count = (c.program.len() + count_delta).saturating_sub(1);
        if let Ok(program) = Program::unpack(c.program.config, &bytes, count) {
            check_unpacked(&bytes, &program)?;
            let layout = LayoutFacts {
                input_slots: &c.layout.input_slots,
                output_slots: &c.layout.output_slots,
                spill_base: c.layout.spill_base,
                rows_used: c.layout.rows_used,
            };
            let _ = verify_program(&program, &layout);
        }
    }

    #[test]
    fn from_bytes_answers_arbitrary_blobs(
        blob in proptest::collection::vec(any::<u8>(), 0..400),
        sealed in any::<bool>(),
        dims in 0usize..DIMS.len(),
        tag in 0u8..6,
    ) {
        let mut blob = blob;
        if sealed && blob.len() >= 24 + 17 {
            // A header that holds and a config that parses, so the bytes
            // behind them are read as the sections they claim to be.
            let (d, b, r) = DIMS[dims];
            blob[..4].copy_from_slice(b"DPUC");
            blob[4..8].copy_from_slice(&1u32.to_le_bytes());
            let len = blob.len() as u64 - 24;
            blob[8..16].copy_from_slice(&len.to_le_bytes());
            for (at, v) in [(24, d), (28, b), (32, r)] {
                blob[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
            blob[36] = tag;
            reseal(&mut blob);
        }
        if let Ok(c) = Compiled::from_bytes(&blob) {
            let _ = c.verify();
        }
    }

    #[test]
    fn from_bytes_answers_flips_under_a_recomputed_checksum(
        (dims, topology) in (0usize..DIMS.len(), 0usize..COMPILED_TOPOLOGIES),
        seed in any::<u32>(),
        flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..4),
    ) {
        let mut blob = compiled(seed, config(dims, topology)).to_bytes();
        for (at, flip) in flips {
            let at = 24 + at as usize % (blob.len() - 24);
            blob[at] ^= flip;
        }
        reseal(&mut blob);
        if let Ok(c) = Compiled::from_bytes(&blob) {
            let _ = c.verify();
        }
    }

    #[test]
    fn spill_header_answers_arbitrary_bytes(
        header in proptest::collection::vec(any::<u8>(), 41),
        sealed in 0u8..4,
        dims in (0u32..40, 0u32..300, 0u32..300),
        tag in 0u8..6,
        wide in any::<bool>(),
    ) {
        let mut header = header;
        if sealed > 0 {
            // Valid magic and version, so the key fields are parsed: small
            // values near the config rules' edges, or the raw bytes.
            header[..4].copy_from_slice(b"DPUS");
            header[4..8].copy_from_slice(&1u32.to_le_bytes());
            if !wide {
                let (d, b, r) = dims;
                for (at, v) in [(16, d), (20, b.next_power_of_two() >> (b % 3)), (24, r)] {
                    header[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
                header[28] = tag;
            }
        }
        let dir = spill_dir("header");
        let store = SpillStore::new(&dir, &CompileOptions::default()).expect("temp dir");
        let file = dir.join(format!("hostile.{}", dpu_core::runtime::cache::SPILL_EXT));
        std::fs::write(&file, &header).expect("temp file");
        let keys = store.keys();
        prop_assert!(keys.len() <= 1);
        std::fs::remove_file(&file).expect("temp file");
    }

    #[test]
    fn spill_load_answers_flipped_files(
        (dims, topology) in (0usize..DIMS.len(), 0usize..COMPILED_TOPOLOGIES),
        seed in any::<u32>(),
        flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..4),
        reseal_blob in any::<bool>(),
    ) {
        let cfg = config(dims, topology);
        let c = compiled(seed, cfg);
        let dir = spill_dir("load");
        let store = SpillStore::new(&dir, &CompileOptions::default()).expect("temp dir");
        let key = CacheKey { dag: dag_fingerprint(&c.bin_dag), config: cfg };
        store.store(&key, &c).expect("spill written");
        let path = store.path_for(&key);
        let mut bytes = std::fs::read(&path).expect("spill read");
        for (at, flip) in flips {
            let at = at as usize % bytes.len();
            bytes[at] ^= flip;
        }
        // The spill header is 41 bytes; the compiled blob follows it.
        if reseal_blob && bytes.len() > 41 + 24 {
            reseal(&mut bytes[41..]);
        }
        std::fs::write(&path, &bytes).expect("spill rewritten");
        let _ = store.load(&key);
        std::fs::remove_file(&path).expect("spill removed");
    }
}
