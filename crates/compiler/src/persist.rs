//! Binary (de)serialization of [`Compiled`] programs.
//!
//! Compilation dominates first-touch cost in the serving path, so the
//! runtime spills compiled programs to disk and reloads them across
//! restarts (`dpu_runtime::SpillStore`). This module is the codec that
//! layer sits on: a self-describing little-endian binary format with a
//! magic/version header and a checksum over the payload, so a stale,
//! truncated, or corrupted file is **rejected** (an error, never a
//! panic, never silently trusted) and the caller falls back to
//! compiling.
//!
//! No type derives serde's traits (the vendored stub has no runtime
//! serializer; see `vendor/README.md`), so the format is hand-rolled.
//! The instruction stream reuses the ISA's dense bit-packing
//! ([`Program::pack`]/[`Program::unpack`] — the Fig. 7(b)
//! instruction-memory image), which the ISA crate already round-trip
//! tests; everything else is written field by field.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   b"DPUC"                      4 bytes
//! version u32  = FORMAT_VERSION
//! length  u64  = payload byte count
//! check   u64  = FNV-1a-64 over the payload bytes
//! payload:
//!   arch config   depth, banks, regs/bank, topology tag, data rows
//!   program       instruction count + packed image (Program::pack)
//!   data layout   input/output slots, spill base, rows used
//!   binary DAG    per node: op tag + predecessor ids
//!   orig_to_bin   caller-DAG → binary-DAG node map
//!   outputs       stored sink ids
//!   stats         every CompileStats field (f64s as raw bits)
//! ```
//!
//! A round-trip is exact: the decoded [`Compiled`] contains the same
//! program, layout, DAG structure and statistics, so programs executed
//! after a reload produce **byte-identical** `RunResult`s (the runtime's
//! persistence tests assert this end to end).

use std::error::Error;
use std::fmt;

use dpu_dag::{Dag, NodeId, Op};
use dpu_isa::{ArchConfig, Fnv1a, InstrBreakdown, Program, Topology};

use crate::driver::{CompileStats, Compiled};
use crate::footprint::Footprint;
use crate::ir::{ConflictStats, DataLayout};

/// Version of the on-disk format. Bump on any layout change; decoding a
/// different version fails with [`PersistError::Version`] instead of
/// misinterpreting bytes.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"DPUC";

/// Bytes before the payload: magic, version, length, checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Errors decoding a serialized [`Compiled`]. All of them mean "do not
/// trust this blob, recompile instead" — none are panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended before the declared content did.
    Truncated,
    /// The magic bytes are not `b"DPUC"` — not a compiled-program blob.
    BadMagic,
    /// The blob was written by a different format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The payload checksum does not match the header (bit rot or a
    /// partial write).
    Checksum {
        /// Checksum the header declares.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The payload passed the checksum but decodes to something
    /// structurally invalid (e.g. an impossible config or DAG edge).
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => f.write_str("blob truncated"),
            PersistError::BadMagic => f.write_str("bad magic (not a compiled-program blob)"),
            PersistError::Version { found, supported } => {
                write!(f, "format version {found} (this build reads {supported})")
            }
            PersistError::Checksum { expected, found } => {
                write!(
                    f,
                    "checksum mismatch (header {expected:#x}, payload {found:#x})"
                )
            }
            PersistError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl Error for PersistError {}

/// The payload checksum: [`Fnv1a`] over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

/// Little-endian payload writer.
#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn slice(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.bytes.extend_from_slice(v);
    }
    fn pairs(&mut self, v: &[(u32, u32)]) {
        self.u64(v.len() as u64);
        self.bytes.reserve(v.len() * 8);
        for &(a, b) in v {
            self.u32(a);
            self.u32(b);
        }
    }
    fn node_ids(&mut self, v: &[NodeId]) {
        self.u64(v.len() as u64);
        self.bytes.reserve(v.len() * 4);
        for &n in v {
            self.u32(n.0);
        }
    }
}

/// The little-endian `u32` at the start of `bytes`.
fn le32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("four bytes"))
}

/// The little-endian `u32`s of `bytes`, whose length is a multiple of 4.
fn words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(le32)
}

/// Little-endian payload reader; every read checks bounds — a run of
/// `u32`s (node ids, slot pairs, a DAG row's predecessors) with one check
/// for the whole run.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(le32(self.take(4)?))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A declared-length count, sanity-bounded so a corrupt length can
    /// never trigger a huge allocation before the bounds check trips.
    fn len(&mut self) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        // Every element of every declared sequence occupies ≥ 1 byte.
        if n > remaining {
            return Err(PersistError::Truncated);
        }
        Ok(n as usize)
    }

    /// A declared element count for the *bit-packed* instruction stream,
    /// where an element can be smaller than a byte (a `nop` encodes in 4
    /// bits — `len`'s one-byte-per-element bound would falsely reject
    /// valid nop-dense programs). Bounded at two elements per remaining
    /// byte so a corrupt count still cannot trigger a huge allocation;
    /// [`Program::unpack`] then validates the count exactly by decoding.
    fn packed_count(&mut self) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n > remaining.saturating_mul(2) {
            return Err(PersistError::Truncated);
        }
        Ok(n as usize)
    }

    fn slice(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.len()?;
        self.take(n)
    }

    /// The bytes of `n` consecutive `u32`s.
    fn u32s(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.take(n.checked_mul(4).ok_or(PersistError::Truncated)?)
    }

    fn pairs(&mut self) -> Result<Vec<(u32, u32)>, PersistError> {
        let n = self.len()?;
        let bytes = self.u32s(n.checked_mul(2).ok_or(PersistError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|pair| (le32(pair), le32(&pair[4..])))
            .collect())
    }

    fn node_ids(&mut self) -> Result<Vec<NodeId>, PersistError> {
        let n = self.len()?;
        Ok(words(self.u32s(n)?).map(NodeId).collect())
    }
}

/// The stable byte tag of a topology in this format (its index in
/// [`Topology::all`]). Public so other on-disk formats built around
/// compiled programs (the runtime's spill-file wrapper) share one
/// mapping instead of maintaining a drift-prone copy.
pub fn topology_tag(t: Topology) -> u8 {
    Topology::all()
        .iter()
        .position(|&x| x == t)
        .expect("every topology is in all()") as u8
}

/// Inverse of [`topology_tag`].
///
/// # Errors
///
/// [`PersistError::Malformed`] on an unknown tag.
pub fn topology_from_tag(tag: u8) -> Result<Topology, PersistError> {
    Topology::all()
        .get(tag as usize)
        .copied()
        .ok_or_else(|| PersistError::Malformed(format!("topology tag {tag}")))
}

/// The stable byte tag of a DAG operation in this format. Public for the
/// same reason as [`topology_tag`]: the runtime's DAG fingerprint hashes
/// these tags, and cache keys must not drift from the codec.
pub fn op_tag(op: Op) -> u8 {
    match op {
        Op::Input => 0,
        Op::Add => 1,
        Op::Mul => 2,
        Op::Sub => 3,
        Op::Div => 4,
        Op::Min => 5,
        Op::Max => 6,
    }
}

fn op_from_tag(tag: u8) -> Result<Op, PersistError> {
    Ok(match tag {
        0 => Op::Input,
        1 => Op::Add,
        2 => Op::Mul,
        3 => Op::Sub,
        4 => Op::Div,
        5 => Op::Min,
        6 => Op::Max,
        other => return Err(PersistError::Malformed(format!("op tag {other}"))),
    })
}

fn write_config(w: &mut Writer, cfg: &ArchConfig) {
    w.u32(cfg.depth);
    w.u32(cfg.banks);
    w.u32(cfg.regs_per_bank);
    w.u8(topology_tag(cfg.topology));
    w.u32(cfg.data_mem_rows);
}

fn read_config(r: &mut Reader<'_>) -> Result<ArchConfig, PersistError> {
    let depth = r.u32()?;
    let banks = r.u32()?;
    let regs = r.u32()?;
    let topology = topology_from_tag(r.u8()?)?;
    let data_mem_rows = r.u32()?;
    let mut cfg = ArchConfig::with_topology(depth, banks, regs, topology)
        .map_err(|e| PersistError::Malformed(format!("arch config: {e}")))?;
    cfg.data_mem_rows = data_mem_rows;
    Ok(cfg)
}

fn write_dag(w: &mut Writer, dag: &Dag) {
    w.u64(dag.len() as u64);
    for n in dag.nodes() {
        w.u8(op_tag(dag.op(n)));
        let preds = dag.preds(n);
        w.u32(preds.len() as u32);
        for &p in preds {
            w.u32(p.0);
        }
    }
}

fn read_dag(r: &mut Reader<'_>) -> Result<Dag, PersistError> {
    let n = r.len()?;
    let mut ops = Vec::with_capacity(n);
    let mut pred_offsets = Vec::with_capacity(n + 1);
    pred_offsets.push(0);
    let mut pred_data = Vec::with_capacity(n * 2);
    for _ in 0..n {
        ops.push(op_from_tag(r.u8()?)?);
        let arity = r.u32()? as usize;
        pred_data.extend(words(r.u32s(arity)?).map(NodeId));
        pred_offsets.push(pred_data.len() as u32);
    }
    Dag::from_rows(ops, pred_offsets, pred_data)
        .map_err(|e| PersistError::Malformed(format!("dag: {e}")))
}

impl Compiled {
    /// Serializes this compiled program to the versioned, checksummed
    /// binary format described in the [module docs](self).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        // The header, its length and checksum filled in once the payload
        // behind it is written.
        w.bytes.extend_from_slice(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(0);
        w.u64(0);
        write_config(&mut w, &self.program.config);
        w.u64(self.program.len() as u64);
        w.slice(&self.program.pack());
        w.pairs(&self.layout.input_slots);
        w.pairs(&self.layout.output_slots);
        w.u32(self.layout.spill_base);
        w.u32(self.layout.rows_used);
        write_dag(&mut w, &self.bin_dag);
        w.node_ids(&self.orig_to_bin);
        w.node_ids(&self.outputs);
        let s = &self.stats;
        w.u64(s.blocks);
        w.f64(s.pe_utilization);
        w.u64(s.conflicts.read_conflicts);
        w.u64(s.conflicts.write_conflicts);
        w.u64(s.conflicts.copies_inserted);
        w.u64(s.reorder_nops);
        w.u64(s.spill_stores);
        w.u64(s.spill_reloads);
        w.u64(s.stall_nops);
        w.u64(s.total_cycles);
        w.u64(s.breakdown.exec);
        w.u64(s.breakdown.copy);
        w.u64(s.breakdown.load);
        w.u64(s.breakdown.store);
        w.u64(s.breakdown.nop);
        w.u64(s.program_bits);
        w.u64(s.program_bits_explicit);
        w.u64(s.footprint.instr_bits);
        w.u64(s.footprint.data_bits);
        w.u64(s.footprint.csr_bits);
        w.f64(s.compile_ms);
        let mut out = w.bytes;
        let payload = &out[HEADER_LEN..];
        let (len, check) = (payload.len() as u64, fnv1a(payload));
        out[8..16].copy_from_slice(&len.to_le_bytes());
        out[16..24].copy_from_slice(&check.to_le_bytes());
        out
    }

    /// Decodes a blob produced by [`Compiled::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`PersistError`] on any header, integrity, or structural problem —
    /// callers (the runtime's spill store) treat every error as "absent,
    /// recompile". Never panics on untrusted bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(PersistError::Version {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let declared_len = r.u64()?;
        let declared_check = r.u64()?;
        let payload =
            r.take(usize::try_from(declared_len).map_err(|_| PersistError::Truncated)?)?;
        let found = fnv1a(payload);
        if found != declared_check {
            return Err(PersistError::Checksum {
                expected: declared_check,
                found,
            });
        }

        let mut r = Reader::new(payload);
        let config = read_config(&mut r)?;
        let instr_count = r.packed_count()?;
        let packed = r.slice()?;
        let program = Program::unpack(config, packed, instr_count)
            .map_err(|e| PersistError::Malformed(format!("program: {e}")))?;
        let layout = DataLayout {
            input_slots: r.pairs()?,
            output_slots: r.pairs()?,
            spill_base: r.u32()?,
            rows_used: r.u32()?,
        };
        let bin_dag = read_dag(&mut r)?;
        let orig_to_bin = r.node_ids()?;
        let outputs = r.node_ids()?;
        for (what, ids) in [("orig_to_bin", &orig_to_bin), ("outputs", &outputs)] {
            if let Some(bad) = ids.iter().find(|n| n.index() >= bin_dag.len()) {
                return Err(PersistError::Malformed(format!(
                    "{what} references node {bad:?} outside the {}-node DAG",
                    bin_dag.len()
                )));
            }
        }
        let stats = CompileStats {
            blocks: r.u64()?,
            pe_utilization: r.f64()?,
            conflicts: ConflictStats {
                read_conflicts: r.u64()?,
                write_conflicts: r.u64()?,
                copies_inserted: r.u64()?,
            },
            reorder_nops: r.u64()?,
            spill_stores: r.u64()?,
            spill_reloads: r.u64()?,
            stall_nops: r.u64()?,
            total_cycles: r.u64()?,
            breakdown: InstrBreakdown {
                exec: r.u64()?,
                copy: r.u64()?,
                load: r.u64()?,
                store: r.u64()?,
                nop: r.u64()?,
            },
            program_bits: r.u64()?,
            program_bits_explicit: r.u64()?,
            footprint: Footprint {
                instr_bits: r.u64()?,
                data_bits: r.u64()?,
                csr_bits: r.u64()?,
            },
            compile_ms: r.f64()?,
        };
        if r.pos != payload.len() {
            return Err(PersistError::Malformed(format!(
                "{} trailing payload bytes",
                payload.len() - r.pos
            )));
        }
        Ok(Compiled {
            program,
            layout,
            bin_dag,
            orig_to_bin,
            outputs,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, CompileOptions};
    use dpu_dag::DagBuilder;

    fn sample() -> Compiled {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        let m = b.node(Op::Mul, &[s, x]).unwrap();
        b.node(Op::Sub, &[m, s]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        compile(&dag, &cfg, &CompileOptions::default()).unwrap()
    }

    /// Field-by-field equality (`Compiled` itself has no `PartialEq` —
    /// `Dag` doesn't implement it).
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

    #[test]
    fn roundtrip_is_exact_and_canonical() {
        let c = sample();
        let bytes = c.to_bytes();
        let d = Compiled::from_bytes(&bytes).unwrap();
        assert_same(&c, &d);
        // Canonical: re-encoding the decoded program yields the same bytes.
        assert_eq!(d.to_bytes(), bytes);
    }

    #[test]
    fn nop_dense_program_roundtrips() {
        // A nop encodes in 4 bits, so a nop-dominated program has more
        // instructions than the payload has bytes left — a plain
        // one-byte-per-element length bound would falsely reject a
        // perfectly valid blob as truncated.
        let mut c = sample();
        let cfg = c.program.config;
        let mut instrs = c.program.instrs.clone();
        instrs.extend(vec![dpu_isa::Instr::Nop; 4_000]);
        c.program = Program::new(cfg, instrs).unwrap();
        let bytes = c.to_bytes();
        let d = Compiled::from_bytes(&bytes).expect("nop-dense blob is valid");
        assert_eq!(c.program, d.program);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(
            Compiled::from_bytes(&bytes).map(|_| ()),
            Err(PersistError::BadMagic)
        );
    }

    #[test]
    fn rejects_version_mismatch() {
        let mut bytes = sample().to_bytes();
        bytes[4] = bytes[4].wrapping_add(1);
        assert!(matches!(
            Compiled::from_bytes(&bytes),
            Err(PersistError::Version { .. })
        ));
    }

    /// Known answer, computed before the four FNV-1a copies became
    /// `dpu_isa::Fnv1a`: blobs already on disk keep their checksums.
    #[test]
    fn header_checksum_is_pinned() {
        let mut c = sample();
        c.stats.compile_ms = 0.0; // the one wall-clock field in the payload
        let bytes = c.to_bytes();
        assert_eq!(bytes.len(), 416);
        assert_eq!(
            u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            0x027a_8dbf_5a17_0899
        );
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Compiled::from_bytes(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, PersistError::Truncated | PersistError::Checksum { .. }),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn rejects_payload_corruption() {
        let clean = sample().to_bytes();
        // Flip one byte at a sample of payload positions: the checksum
        // must catch every one (errors, never panics).
        for pos in (24..clean.len()).step_by(7) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            assert!(
                matches!(
                    Compiled::from_bytes(&bytes),
                    Err(PersistError::Checksum { .. })
                ),
                "corruption at {pos} not caught"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage_in_payload() {
        // A payload that checksums fine but has extra bytes is malformed.
        let c = sample();
        let mut bytes = c.to_bytes();
        let mut payload = bytes.split_off(24);
        payload.push(0xAB);
        bytes[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes[16..24].copy_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Compiled::from_bytes(&bytes),
            Err(PersistError::Malformed(_))
        ));
    }
}
