//! Bit-exact variable-length instruction encoding (Fig. 7).
//!
//! Instructions have different lengths depending on how much routing
//! information they carry and on the hardware parameters `D`, `B`, `R`.
//! They are packed densely in the instruction memory without alignment
//! bubbles; the fetch unit supplies `IL` bits per cycle (`IL` = longest
//! instruction) and a shifter aligns the next instruction for the decoder
//! (Fig. 7(b)) — see [`Program::pack`](crate::Program::pack) for the packing
//! and [`decode_stream`] for the shifter-equivalent decode.
//!
//! ## Field layout (this reproduction)
//!
//! All instructions start with a 4-bit opcode. With `RB = ⌈log2 R⌉`,
//! `BB = ⌈log2 B⌉`, `LB = ⌈log2 D⌉` (layer-select bits of the per-bank
//! `D:1` output mux; 0 when `D = 1`), and a 32-bit data-memory row field:
//!
//! | kind      | payload | bits |
//! |-----------|---------|------|
//! | `nop`     | —       | `4` |
//! | `load`    | row + per-bank enable mask | `4 + 32 + B` |
//! | `store`   | row + per-bank {present, addr, rst} | `4 + 32 + B·(2+RB)` |
//! | `store_4` | row + count + 4 × {bank, addr, rst} | `4 + 32 + 3 + 4·(BB+RB+1)` |
//! | `copy_4`  | count + 4 × {src bank, addr, rst, dst bank} | `4 + 3 + 4·(2·BB+RB+1)` |
//! | `exec`    | per-port {present, bank, addr, rst} + per-PE opcode + per-bank {present, write-sel} | `4 + B·(2+BB+RB) + #PE·4 + B·(1+WS)` |
//!
//! where `WS` is the write-selector width: `⌈log2 #PE⌉` for the output
//! crossbar (a), `LB` for the per-layer mux (b), and `0` for the fixed
//! assignments (c)/(d). For the paper's Fig. 7(a) example (`D=3, B=16,
//! R=32`, topology (b)) this yields lengths 4/52/148/79/63/284 vs the
//! paper's 4/52/132/56/72/272 — same ordering and magnitude; the deltas come
//! from undocumented field-width choices in the paper's RTL.
//!
//! Write addresses are never encoded: the automatic write-address policy of
//! §III-B replaces them with the 1-bit `valid_rst` markers carried by reads.
//! [`explicit_write_addr_bits`] computes the size of the counterfactual
//! encoding with explicit write addresses, reproducing the paper's ~30%
//! program-size-reduction claim.
//!
//! ## Field groups
//!
//! Every field goes out LSB-first, one after the other, so the image is
//! Fig. 7's dense bit stream above. The codec moves fields in *groups*,
//! not one at a time: the fields of one port read (`present|bank|addr|rst`,
//! `2+BB+RB` bits), one store read, one `store_4` read, one copy move, one
//! write selector, eight 4-bit PE opcodes, or 32 load-mask bits are packed
//! into one word and written or read with one [`BitWriter::push`] /
//! [`BitReader::read`], which themselves move a word at a time. A group
//! wider than 32 bits (only at very large `B` or `R`) goes field by field.
//! Grouping changes no bit of the image: a group's first field is its
//! lowest bits, exactly where a field-at-a-time writer would put it.

use crate::{
    ArchConfig, CopyMove, ExecInstr, Instr, InstrKind, PeId, PeOpcode, PortRead, RegRead, Topology,
};

/// Bits of the opcode field.
pub const OPCODE_BITS: u32 = 4;
/// Bits of the data-memory row field (matches the paper's apparent choice;
/// see module docs).
pub const ROW_BITS: u32 = 32;
/// Bits of the count field of `store_4`/`copy_4`.
pub const COUNT_BITS: u32 = 3;

/// Append-only bit buffer, LSB-first within each byte.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    len_bits: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len_bits: 0,
        }
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits or `width > 32`.
    pub fn push(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "width > 32");
        assert!(
            width == 32 || value < (1u32 << width),
            "value {value} does not fit in {width} bits"
        );
        // The value lands at bit `len_bits % 8` of the last, partly filled
        // byte and runs into at most four new ones: shift it there once,
        // OR the low byte into the partial one, append four bytes and cut
        // back to the ones the value reached.
        let shift = self.len_bits % 8;
        let mut word = u64::from(value) << shift;
        if shift != 0 {
            *self.bytes.last_mut().expect("a partial byte exists") |= word as u8;
            word >>= 8;
        }
        self.len_bits += width as usize;
        self.bytes.extend_from_slice(&(word as u32).to_le_bytes());
        self.bytes.truncate(self.len_bits.div_ceil(8));
    }

    /// Appends a boolean as one bit.
    pub fn push_bool(&mut self, b: bool) {
        self.push(b as u32, 1);
    }

    /// Consumes the writer, returning the packed bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrow the packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Sequential bit reader over a packed byte buffer.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader starting at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Creates a reader starting at bit `pos` — the alignment-shifter model.
    pub fn at(bytes: &'a [u8], pos: usize) -> Self {
        BitReader { bytes, pos }
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads `width` bits. A read of width 0 is `Ok(0)` anywhere.
    ///
    /// # Errors
    ///
    /// [`DecodeError::OutOfBits`] if the field runs past the end of the
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `width > 32`.
    pub fn read(&mut self, width: u32) -> Result<u32, DecodeError> {
        assert!(width <= 32, "width > 32");
        if width == 0 {
            return Ok(0);
        }
        let end = self
            .pos
            .checked_add(width as usize)
            .filter(|&end| end <= self.bytes.len().saturating_mul(8))
            .ok_or(DecodeError::OutOfBits)?;
        // The field spans at most five bytes from `pos / 8`: load eight
        // (zero-padded at the buffer's end) and shift.
        let at = self.pos / 8;
        let word = match self.bytes.get(at..at + 8) {
            Some(eight) => u64::from_le_bytes(eight.try_into().expect("eight bytes")),
            None => {
                let mut eight = [0u8; 8];
                let tail = &self.bytes[at..];
                eight[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(eight)
            }
        };
        let value = (word >> (self.pos % 8)) & ((1u64 << width) - 1);
        self.pos = end;
        Ok(value as u32)
    }

    /// Reads one bit as a boolean.
    pub fn read_bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.read(1)? != 0)
    }
}

/// Errors produced while decoding a packed instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran past the end of the buffer.
    OutOfBits,
    /// Unknown opcode value.
    BadOpcode(u32),
    /// Unknown PE opcode value.
    BadPeOpcode(u32),
    /// Write selector referenced a nonexistent PE.
    BadWriteSel(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::OutOfBits => f.write_str("instruction stream ended mid-instruction"),
            DecodeError::BadOpcode(v) => write!(f, "unknown opcode {v}"),
            DecodeError::BadPeOpcode(v) => write!(f, "unknown PE opcode {v}"),
            DecodeError::BadWriteSel(v) => write!(f, "write selector {v} names no PE"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Layer-select bits of the per-bank output mux (`⌈log2 D⌉`; 0 for `D=1`).
pub fn layer_bits(cfg: &ArchConfig) -> u32 {
    if cfg.depth <= 1 {
        0
    } else {
        u32::BITS - (cfg.depth - 1).leading_zeros()
    }
}

/// Width of the per-bank write selector under `cfg.topology`.
pub fn write_sel_bits(cfg: &ArchConfig) -> u32 {
    match cfg.topology {
        Topology::CrossbarBoth => u32::BITS - (cfg.pe_count() - 1).leading_zeros(),
        Topology::CrossbarInPerLayerOut => layer_bits(cfg),
        Topology::CrossbarInOnePeOut | Topology::OneToOneBoth => 0,
    }
}

/// Exact encoded length in bits of each instruction kind under `cfg`.
pub fn kind_bits(cfg: &ArchConfig, kind: InstrKind) -> u32 {
    let b = cfg.banks;
    let rb = cfg.reg_addr_bits();
    let bb = cfg.bank_bits();
    let k = Instr::K as u32;
    match kind {
        InstrKind::Nop => OPCODE_BITS,
        InstrKind::Load => OPCODE_BITS + ROW_BITS + b,
        InstrKind::Store => OPCODE_BITS + ROW_BITS + b * (2 + rb),
        InstrKind::StoreK => OPCODE_BITS + ROW_BITS + COUNT_BITS + k * (bb + rb + 1),
        InstrKind::CopyK => OPCODE_BITS + COUNT_BITS + k * (2 * bb + rb + 1),
        InstrKind::Exec => {
            OPCODE_BITS
                + b * (2 + bb + rb)
                + cfg.pe_count() * PeOpcode::BITS
                + b * (1 + write_sel_bits(cfg))
        }
    }
}

/// The fetch width `IL`: length of the longest instruction under `cfg`
/// (§III-E — "the instruction memory can supply IL bits in every cycle").
pub fn fetch_width(cfg: &ArchConfig) -> u32 {
    InstrKind::ALL
        .into_iter()
        .map(|k| kind_bits(cfg, k))
        .max()
        .expect("non-empty")
}

/// The field widths of one configuration, computed once per
/// [`encode`]/[`decode`] call rather than once per field.
#[derive(Clone, Copy)]
struct Widths {
    /// `B`: port reads, store reads and write selectors per instruction.
    banks: usize,
    /// PE opcodes per `exec`.
    pes: usize,
    /// `BB = ⌈log2 B⌉`.
    bb: u32,
    /// `RB = ⌈log2 R⌉`.
    rb: u32,
    /// `WS`, the write-selector width ([`write_sel_bits`]).
    ws: u32,
}

impl Widths {
    fn of(cfg: &ArchConfig) -> Self {
        Widths {
            banks: cfg.banks as usize,
            pes: cfg.pe_count() as usize,
            bb: cfg.bank_bits(),
            rb: cfg.reg_addr_bits(),
            ws: write_sel_bits(cfg),
        }
    }
}

/// PE opcodes per group: eight 4-bit codes fill a 32-bit word.
const OPS_PER_GROUP: usize = (u32::BITS / PeOpcode::BITS) as usize;

/// Writes `(value, width)` fields as one LSB-first group: one
/// [`BitWriter::push`] when the group fits a word, field by field when it
/// does not. Either way the bits are the ones field-at-a-time pushes make.
///
/// # Panics
///
/// Panics if a value does not fit its width, as [`BitWriter::push`] does.
fn push_group<const N: usize>(w: &mut BitWriter, fields: [(u32, u32); N]) {
    let total: u32 = fields.iter().map(|&(_, width)| width).sum();
    if total > u32::BITS {
        for (value, width) in fields {
            w.push(value, width);
        }
        return;
    }
    let mut group = 0u64;
    let mut at = 0;
    for (value, width) in fields {
        assert!(
            u64::from(value) < 1 << width,
            "value {value} does not fit in {width} bits"
        );
        group |= u64::from(value) << at;
        at += width;
    }
    w.push(group as u32, total);
}

/// Reads fields of `widths` as one LSB-first group; the inverse of
/// [`push_group`]. It fails exactly when a field-at-a-time read would: when
/// the group runs past the buffer.
fn read_group<const N: usize>(
    r: &mut BitReader<'_>,
    widths: [u32; N],
) -> Result<[u32; N], DecodeError> {
    let total: u32 = widths.iter().sum();
    let mut fields = [0; N];
    if total > u32::BITS {
        for (field, &width) in fields.iter_mut().zip(&widths) {
            *field = r.read(width)?;
        }
        return Ok(fields);
    }
    let mut group = u64::from(r.read(total)?);
    for (field, &width) in fields.iter_mut().zip(&widths) {
        *field = (group & ((1 << width) - 1)) as u32;
        group >>= width;
    }
    Ok(fields)
}

/// Capacity for a vector of `entries` that each take at least one bit of
/// what is left of the buffer: a hostile configuration cannot size a
/// vector past the bits that could fill it.
fn room(r: &BitReader<'_>, entries: usize) -> usize {
    let left = r.bytes.len().saturating_mul(8).saturating_sub(r.pos);
    entries.min(left)
}

/// The write-selector field of a writeback from `pe` (see [`write_sel_bits`]).
fn write_sel(cfg: &ArchConfig, ws: u32, pe: PeId) -> u32 {
    match cfg.topology {
        Topology::CrossbarBoth => pe.flat_index(cfg),
        Topology::CrossbarInPerLayerOut if ws > 0 => pe.layer - 1,
        _ => 0,
    }
}

/// The PE a write selector `sel` names for `bank`.
fn write_sel_pe(cfg: &ArchConfig, sel: u32, bank: u32) -> Result<PeId, DecodeError> {
    match cfg.topology {
        Topology::CrossbarBoth => {
            PeId::from_flat_index(cfg, sel).ok_or(DecodeError::BadWriteSel(sel))
        }
        Topology::CrossbarInPerLayerOut => {
            // With `D = 1` the field is empty and `sel` is 0: layer 1.
            let l = sel + 1;
            if l > cfg.depth {
                return Err(DecodeError::BadWriteSel(l));
            }
            Ok(PeId::new(
                cfg.tree_of_bank(bank),
                l,
                cfg.lane_of_bank(bank) >> l,
            ))
        }
        Topology::CrossbarInOnePeOut | Topology::OneToOneBoth => {
            PeId::from_local_index(cfg, cfg.tree_of_bank(bank), cfg.lane_of_bank(bank))
                .ok_or(DecodeError::BadWriteSel(bank))
        }
    }
}

fn pe_op(code: u32) -> Result<PeOpcode, DecodeError> {
    PeOpcode::from_code(code).ok_or(DecodeError::BadPeOpcode(code))
}

/// Encodes one instruction, appending to `w`. The number of bits appended is
/// exactly [`kind_bits`]`(cfg, instr.kind())`.
///
/// # Panics
///
/// Panics if the instruction is structurally invalid for `cfg` (validate
/// with [`Instr::validate`] first).
pub fn encode(w: &mut BitWriter, cfg: &ArchConfig, instr: &Instr) {
    let start = w.len_bits();
    let kind = instr.kind();
    // `InstrKind::ALL` lists the kinds in declaration order.
    w.push(kind as u32, OPCODE_BITS);
    let f = Widths::of(cfg);
    // The unused entries of `store_4`/`copy_4` are zero-filled.
    let idle = RegRead {
        bank: 0,
        addr: 0,
        valid_rst: false,
    };
    match instr {
        Instr::Nop => {}
        Instr::Load { row, mask } => {
            w.push(*row, ROW_BITS);
            for chunk in mask.chunks(u32::BITS as usize) {
                let bits = chunk.iter().rev().fold(0, |acc, &m| acc << 1 | m as u32);
                w.push(bits, chunk.len() as u32);
            }
        }
        Instr::Store { row, reads } => {
            w.push(*row, ROW_BITS);
            for r in reads {
                let (present, r) = r.map_or((0, idle), |r| (1, r));
                push_group(w, [(present, 1), (r.addr, f.rb), (r.valid_rst as u32, 1)]);
            }
        }
        Instr::StoreK { row, reads } => {
            w.push(*row, ROW_BITS);
            w.push(reads.len() as u32, COUNT_BITS);
            for i in 0..Instr::K {
                let r = reads.get(i).copied().unwrap_or(idle);
                push_group(w, [(r.bank, f.bb), (r.addr, f.rb), (r.valid_rst as u32, 1)]);
            }
        }
        Instr::CopyK { moves } => {
            w.push(moves.len() as u32, COUNT_BITS);
            for i in 0..Instr::K {
                let (src, dst) = moves.get(i).map_or((idle, 0), |m| (m.src, m.dst_bank));
                push_group(
                    w,
                    [
                        (src.bank, f.bb),
                        (src.addr, f.rb),
                        (src.valid_rst as u32, 1),
                        (dst, f.bb),
                    ],
                );
            }
        }
        Instr::Exec(e) => {
            for r in &e.reads {
                let (present, bank, addr, rst) =
                    r.map_or((0, 0, 0, false), |r| (1, r.bank, r.addr, r.valid_rst));
                push_group(
                    w,
                    [(present, 1), (bank, f.bb), (addr, f.rb), (rst as u32, 1)],
                );
            }
            for ops in e.pe_ops.chunks(OPS_PER_GROUP) {
                let bits = ops
                    .iter()
                    .rev()
                    .fold(0, |acc, op| acc << PeOpcode::BITS | op.code());
                w.push(bits, PeOpcode::BITS * ops.len() as u32);
            }
            for wr in &e.writes {
                let (present, sel) = wr.map_or((0, 0), |pe| (1, write_sel(cfg, f.ws, pe)));
                push_group(w, [(present, 1), (sel, f.ws)]);
            }
        }
    }
    debug_assert_eq!(
        (w.len_bits() - start) as u32,
        kind_bits(cfg, kind),
        "encoded length mismatch for {kind}"
    );
}

/// Decodes one instruction starting at the reader's position.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode(r: &mut BitReader<'_>, cfg: &ArchConfig) -> Result<Instr, DecodeError> {
    let opc = r.read(OPCODE_BITS)?;
    let kind = *InstrKind::ALL
        .get(opc as usize)
        .ok_or(DecodeError::BadOpcode(opc))?;
    let f = Widths::of(cfg);
    match kind {
        InstrKind::Nop => Ok(Instr::Nop),
        InstrKind::Load => {
            let row = r.read(ROW_BITS)?;
            let mut mask = Vec::with_capacity(room(r, f.banks));
            while mask.len() < f.banks {
                let n = (f.banks - mask.len()).min(u32::BITS as usize);
                let bits = r.read(n as u32)?;
                mask.extend((0..n).map(|i| bits >> i & 1 != 0));
            }
            Ok(Instr::Load { row, mask })
        }
        InstrKind::Store => {
            let row = r.read(ROW_BITS)?;
            let mut reads = Vec::with_capacity(room(r, f.banks));
            for bank in 0..f.banks as u32 {
                let [present, addr, rst] = read_group(r, [1, f.rb, 1])?;
                reads.push((present != 0).then_some(RegRead {
                    bank,
                    addr,
                    valid_rst: rst != 0,
                }));
            }
            Ok(Instr::Store { row, reads })
        }
        InstrKind::StoreK => {
            let row = r.read(ROW_BITS)?;
            let count = r.read(COUNT_BITS)? as usize;
            let mut reads = Vec::with_capacity(count.min(Instr::K));
            for i in 0..Instr::K {
                let [bank, addr, rst] = read_group(r, [f.bb, f.rb, 1])?;
                if i < count {
                    reads.push(RegRead {
                        bank,
                        addr,
                        valid_rst: rst != 0,
                    });
                }
            }
            Ok(Instr::StoreK { row, reads })
        }
        InstrKind::CopyK => {
            let count = r.read(COUNT_BITS)? as usize;
            let mut moves = Vec::with_capacity(count.min(Instr::K));
            for i in 0..Instr::K {
                let [bank, addr, rst, dst_bank] = read_group(r, [f.bb, f.rb, 1, f.bb])?;
                if i < count {
                    let src = RegRead {
                        bank,
                        addr,
                        valid_rst: rst != 0,
                    };
                    moves.push(CopyMove { src, dst_bank });
                }
            }
            Ok(Instr::CopyK { moves })
        }
        InstrKind::Exec => {
            let mut reads = Vec::with_capacity(room(r, f.banks));
            for _ in 0..f.banks {
                let [present, bank, addr, rst] = read_group(r, [1, f.bb, f.rb, 1])?;
                reads.push((present != 0).then_some(PortRead {
                    bank,
                    addr,
                    valid_rst: rst != 0,
                }));
            }
            let mut pe_ops = Vec::with_capacity(room(r, f.pes));
            while pe_ops.len() < f.pes {
                let n = (f.pes - pe_ops.len()).min(OPS_PER_GROUP);
                let mut bits = r.read(PeOpcode::BITS * n as u32)?;
                for _ in 0..n {
                    pe_ops.push(pe_op(bits & ((1 << PeOpcode::BITS) - 1))?);
                    bits >>= PeOpcode::BITS;
                }
            }
            let mut writes = Vec::with_capacity(room(r, f.banks));
            for bank in 0..f.banks as u32 {
                let [present, sel] = read_group(r, [1, f.ws])?;
                writes.push(if present != 0 {
                    Some(write_sel_pe(cfg, sel, bank)?)
                } else {
                    None
                });
            }
            Ok(Instr::Exec(ExecInstr {
                reads,
                pe_ops,
                writes,
            }))
        }
    }
}

/// Decodes an entire densely packed stream of `count` instructions — the
/// software model of the fetch shifter of Fig. 7(b).
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input, and
/// [`DecodeError::OutOfBits`] without decoding anything when `bytes` could
/// not hold `count` instructions even if every one were a 4-bit `nop` — a
/// hostile count never sizes an allocation.
pub fn decode_stream(
    bytes: &[u8],
    cfg: &ArchConfig,
    count: usize,
) -> Result<Vec<Instr>, DecodeError> {
    if count > bytes.len().saturating_mul(8) / OPCODE_BITS as usize {
        return Err(DecodeError::OutOfBits);
    }
    let mut r = BitReader::new(bytes);
    let mut instrs = Vec::with_capacity(count);
    for _ in 0..count {
        instrs.push(decode(&mut r, cfg)?);
    }
    Ok(instrs)
}

/// Size in bits of the counterfactual encoding that carries explicit write
/// addresses instead of the automatic policy's 1-bit `valid_rst` markers —
/// each register write (load word, copy move, exec writeback) would need a
/// full `⌈log2 R⌉`-bit address. Used to reproduce the paper's ~30%
/// program-size-reduction claim (§III-B).
pub fn explicit_write_addr_bits(cfg: &ArchConfig, instr: &Instr) -> u64 {
    let rb = cfg.reg_addr_bits() as u64;
    let base = kind_bits(cfg, instr.kind()) as u64;
    let extra = match instr {
        Instr::Nop => 0,
        // Every maskable word needs an address field in the instruction,
        // whether or not a compiler uses it.
        Instr::Load { .. } => cfg.banks as u64 * rb,
        Instr::Store { .. } | Instr::StoreK { .. } => 0,
        Instr::CopyK { .. } => Instr::K as u64 * rb,
        Instr::Exec(_) => cfg.banks as u64 * rb,
    };
    base + extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect;

    fn cfg() -> ArchConfig {
        ArchConfig::new(3, 16, 32).unwrap()
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.push(0b101, 3);
        w.push(0xffff_ffff, 32);
        w.push_bool(true);
        w.push(0, 7);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3).unwrap(), 0b101);
        assert_eq!(r.read(32).unwrap(), 0xffff_ffff);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read(7).unwrap(), 0);
        // 43 bits were written; the trailing padding of the last byte is
        // readable, but going past the byte buffer is an error.
        assert_eq!(r.read(6), Err(DecodeError::OutOfBits));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn bit_writer_overflow_panics() {
        let mut w = BitWriter::new();
        w.push(8, 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_group_field_that_overflows_panics() {
        // Bank 16 needs five bits; `B = 16` gives it four.
        let cfg = cfg();
        let mut e = ExecInstr::idle(&cfg);
        e.reads[0] = Some(PortRead {
            bank: 16,
            addr: 0,
            valid_rst: false,
        });
        encode(&mut BitWriter::new(), &cfg, &Instr::Exec(e));
    }

    /// The per-bit `push` the word-level one replaced: the reference.
    fn push_per_bit(bytes: &mut Vec<u8>, len_bits: &mut usize, value: u32, width: u32) {
        for i in 0..width {
            let bit = (value >> i) & 1;
            if *len_bits / 8 == bytes.len() {
                bytes.push(0);
            }
            bytes[*len_bits / 8] |= (bit as u8) << (*len_bits % 8);
            *len_bits += 1;
        }
    }

    /// The per-bit `read` the word-level one replaced: the reference.
    fn read_per_bit(bytes: &[u8], pos: &mut usize, width: u32) -> Result<u32, DecodeError> {
        let mut v = 0u32;
        for i in 0..width {
            if *pos / 8 >= bytes.len() {
                return Err(DecodeError::OutOfBits);
            }
            v |= u32::from((bytes[*pos / 8] >> (*pos % 8)) & 1) << i;
            *pos += 1;
        }
        Ok(v)
    }

    /// SplitMix64: seeded draws for the reference-model scripts.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A field width, with the edges (0, 1, 31, 32) drawn often.
        fn width(&mut self) -> u32 {
            match self.below(6) {
                0 => [0, 1, 31, 32][self.below(4) as usize],
                _ => self.below(33) as u32,
            }
        }
    }

    /// Random `(value, width)` scripts through the word-level writer and
    /// the per-bit reference give the same bytes after every push; random
    /// width scripts over (possibly truncated) images read the same values
    /// and fail with `OutOfBits` at the same field.
    #[test]
    fn word_level_bit_io_is_the_per_bit_reference() {
        let scripts = if cfg!(debug_assertions) {
            2_000
        } else {
            200_000
        };
        let mut draw = Draws(26);
        for _ in 0..scripts {
            let mut w = if draw.below(2) == 0 {
                BitWriter::new()
            } else {
                BitWriter::with_capacity(draw.below(200) as usize)
            };
            let (mut want, mut want_len) = (Vec::new(), 0);
            for _ in 0..draw.below(24) {
                let width = draw.width();
                let value = (draw.next() & ((1u64 << width) - 1)) as u32;
                w.push(value, width);
                push_per_bit(&mut want, &mut want_len, value, width);
                assert_eq!((w.as_bytes(), w.len_bits()), (&want[..], want_len));
            }
            assert_eq!(w.into_bytes(), want);

            let image = &want[..draw.below(want.len() as u64 + 1) as usize];
            let mut r = BitReader::new(image);
            let mut pos = 0;
            loop {
                let width = draw.width();
                let got = r.read(width);
                assert_eq!(got, read_per_bit(image, &mut pos, width), "width {width}");
                if got.is_err() {
                    break;
                }
                assert_eq!(r.position(), pos);
            }
            // Past the end, a width-0 read still succeeds.
            assert_eq!(r.read(0), Ok(0));
        }
        let far = BitReader::at(&[0xff], usize::MAX).read(1);
        assert_eq!(far, Err(DecodeError::OutOfBits));
    }

    #[test]
    fn lengths_match_paper_magnitudes() {
        // Fig. 7(a): D=3, B=16, R=32 → paper reports 4/52/132/56/72/272.
        let cfg = cfg();
        assert_eq!(kind_bits(&cfg, InstrKind::Nop), 4);
        assert_eq!(kind_bits(&cfg, InstrKind::Load), 52);
        let store = kind_bits(&cfg, InstrKind::Store);
        assert!((100..=180).contains(&store), "store={store}");
        let store4 = kind_bits(&cfg, InstrKind::StoreK);
        assert!((40..=90).contains(&store4), "store4={store4}");
        let copy4 = kind_bits(&cfg, InstrKind::CopyK);
        assert!((50..=90).contains(&copy4), "copy4={copy4}");
        let exec = kind_bits(&cfg, InstrKind::Exec);
        assert!((240..=300).contains(&exec), "exec={exec}");
        assert_eq!(fetch_width(&cfg), exec);
    }

    fn sample_exec(cfg: &ArchConfig) -> Instr {
        let mut e = ExecInstr::idle(cfg);
        e.reads[0] = Some(PortRead {
            bank: 5,
            addr: 3,
            valid_rst: true,
        });
        e.reads[1] = Some(PortRead {
            bank: 2,
            addr: 31,
            valid_rst: false,
        });
        let pe = PeId::new(0, 1, 0);
        e.pe_ops[pe.flat_index(cfg) as usize] = PeOpcode::Mul;
        let bank = interconnect::writable_banks(cfg, pe)[0];
        e.writes[bank as usize] = Some(pe);
        Instr::Exec(e)
    }

    #[test]
    fn roundtrip_all_kinds() {
        let cfg = cfg();
        let b = cfg.banks as usize;
        let mut mask = vec![false; b];
        mask[3] = true;
        mask[7] = true;
        let mut store_reads = vec![None; b];
        store_reads[2] = Some(RegRead {
            bank: 2,
            addr: 9,
            valid_rst: true,
        });
        let instrs = vec![
            Instr::Nop,
            Instr::Load { row: 77, mask },
            Instr::Store {
                row: 12,
                reads: store_reads,
            },
            Instr::StoreK {
                row: 3,
                reads: vec![
                    RegRead {
                        bank: 1,
                        addr: 4,
                        valid_rst: false,
                    },
                    RegRead {
                        bank: 9,
                        addr: 0,
                        valid_rst: true,
                    },
                ],
            },
            Instr::CopyK {
                moves: vec![CopyMove {
                    src: RegRead {
                        bank: 0,
                        addr: 1,
                        valid_rst: true,
                    },
                    dst_bank: 15,
                }],
            },
            sample_exec(&cfg),
        ];
        let mut w = BitWriter::new();
        for i in &instrs {
            i.validate(&cfg).unwrap();
            encode(&mut w, &cfg, i);
        }
        let bytes = w.into_bytes();
        let decoded = decode_stream(&bytes, &cfg, instrs.len()).unwrap();
        assert_eq!(decoded, instrs);
    }

    #[test]
    fn roundtrip_all_topologies() {
        for topo in Topology::all() {
            let cfg = ArchConfig::with_topology(2, 8, 16, topo).unwrap();
            let mut e = ExecInstr::idle(&cfg);
            let pe = PeId::new(0, 1, 0);
            e.pe_ops[pe.flat_index(&cfg) as usize] = PeOpcode::Add;
            let port = if topo.input_is_crossbar() { 3 } else { 0 };
            e.reads[port] = Some(PortRead {
                bank: if topo.input_is_crossbar() { 6 } else { 0 },
                addr: 2,
                valid_rst: true,
            });
            let bank = interconnect::writable_banks(&cfg, pe)[0];
            e.writes[bank as usize] = Some(pe);
            let instr = Instr::Exec(e);
            instr.validate(&cfg).unwrap();
            let mut w = BitWriter::new();
            encode(&mut w, &cfg, &instr);
            let bytes = w.into_bytes();
            let back = decode(&mut BitReader::new(&bytes), &cfg).unwrap();
            assert_eq!(back, instr, "{topo}");
        }
    }

    #[test]
    fn dense_packing_has_no_bubbles() {
        let cfg = cfg();
        let mut w = BitWriter::new();
        encode(&mut w, &cfg, &Instr::Nop);
        encode(&mut w, &cfg, &Instr::Nop);
        assert_eq!(w.len_bits(), 8);
    }

    #[test]
    fn explicit_addresses_are_larger() {
        let cfg = cfg();
        let e = sample_exec(&cfg);
        assert!(explicit_write_addr_bits(&cfg, &e) > kind_bits(&cfg, InstrKind::Exec) as u64);
    }
}
