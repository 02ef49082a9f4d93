use std::fmt;

use crate::{interconnect, ArchConfig};

/// Identifies one processing element inside the datapath.
///
/// PEs are arranged in `T` trees of `D` layers; layer `l` (1-based, counted
/// from the leaves) of a tree contains `2^(D-l)` PEs indexed left to right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeId {
    /// Tree index (`0..T`).
    pub tree: u32,
    /// Layer within the tree (`1..=D`, 1 = leaves).
    pub layer: u32,
    /// Index within the layer (`0..2^(D-layer)`).
    pub index: u32,
}

impl PeId {
    /// Creates a PE id (unchecked; validate with [`PeId::is_valid`]).
    pub fn new(tree: u32, layer: u32, index: u32) -> Self {
        PeId { tree, layer, index }
    }

    /// Whether the id addresses a real PE under `cfg`.
    pub fn is_valid(self, cfg: &ArchConfig) -> bool {
        self.tree < cfg.trees()
            && self.layer >= 1
            && self.layer <= cfg.depth
            && self.index < cfg.pes_in_layer(self.layer)
    }

    /// Position of this PE in the layer-major enumeration of its tree
    /// (layer-1 PEs first). Used for the 1:1 bank assignment of topologies
    /// (c)/(d) and for flat PE arrays.
    pub fn local_index(self, cfg: &ArchConfig) -> u32 {
        let mut base = 0;
        for l in 1..self.layer {
            base += cfg.pes_in_layer(l);
        }
        base + self.index
    }

    /// Global flat index across all trees (`tree · pes_per_tree + local`).
    pub fn flat_index(self, cfg: &ArchConfig) -> u32 {
        self.tree * cfg.pes_per_tree() + self.local_index(cfg)
    }

    /// Inverse of [`PeId::local_index`] for a given tree; `None` if `local`
    /// exceeds the tree's PE count.
    pub fn from_local_index(cfg: &ArchConfig, tree: u32, local: u32) -> Option<PeId> {
        if local >= cfg.pes_per_tree() || tree >= cfg.trees() {
            return None;
        }
        let mut rem = local;
        for l in 1..=cfg.depth {
            let n = cfg.pes_in_layer(l);
            if rem < n {
                return Some(PeId::new(tree, l, rem));
            }
            rem -= n;
        }
        None
    }

    /// Inverse of [`PeId::flat_index`].
    pub fn from_flat_index(cfg: &ArchConfig, flat: u32) -> Option<PeId> {
        let per = cfg.pes_per_tree();
        Self::from_local_index(cfg, flat / per, flat % per)
    }

    /// The global input ports feeding this PE's subtree:
    /// `tree·2^D + [index·2^layer, (index+1)·2^layer)`.
    pub fn input_ports(self, cfg: &ArchConfig) -> std::ops::Range<u32> {
        let base = self.tree * cfg.ports_per_tree();
        let span = 1u32 << self.layer;
        (base + self.index * span)..(base + (self.index + 1) * span)
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe({},{},{})", self.tree, self.layer, self.index)
    }
}

/// Per-PE operation selector within an `exec` instruction (§III-A: each PE
/// performs a basic arithmetic op or bypasses one of its inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeOpcode {
    /// PE idle; output undefined and must not be written anywhere.
    Nop,
    /// Sum of the two inputs.
    Add,
    /// Product of the two inputs.
    Mul,
    /// `left - right`.
    Sub,
    /// `left / right`.
    Div,
    /// Minimum of the two inputs.
    Min,
    /// Maximum of the two inputs.
    Max,
    /// Pass the left input through unchanged.
    BypassL,
    /// Pass the right input through unchanged.
    BypassR,
}

impl PeOpcode {
    /// Number of encoding bits per PE opcode.
    pub const BITS: u32 = 4;

    /// All opcodes in encoding order.
    pub const ALL: [PeOpcode; 9] = [
        PeOpcode::Nop,
        PeOpcode::Add,
        PeOpcode::Mul,
        PeOpcode::Sub,
        PeOpcode::Div,
        PeOpcode::Min,
        PeOpcode::Max,
        PeOpcode::BypassL,
        PeOpcode::BypassR,
    ];

    /// Encoding value: the opcode's index in [`PeOpcode::ALL`], which lists
    /// the opcodes in declaration order.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Decodes an opcode; `None` for invalid codes.
    pub fn from_code(c: u32) -> Option<Self> {
        Self::ALL.get(c as usize).copied()
    }

    /// Applies the opcode to the PE's two inputs.
    #[inline]
    pub fn apply(self, l: f32, r: f32) -> f32 {
        self.apply_lanes([l], [r])[0]
    }

    /// Applies the opcode lane by lane: `L` independent input sets through
    /// one PE. The opcode is matched once, outside the lane loop, so each
    /// arm is a straight-line loop over `L` lanes.
    #[inline]
    pub fn apply_lanes<const L: usize>(self, l: [f32; L], r: [f32; L]) -> [f32; L] {
        #[inline(always)]
        fn zip<const L: usize>(l: [f32; L], r: [f32; L], f: impl Fn(f32, f32) -> f32) -> [f32; L] {
            std::array::from_fn(|i| f(l[i], r[i]))
        }
        match self {
            PeOpcode::Nop => [f32::NAN; L],
            PeOpcode::Add => zip(l, r, |l, r| l + r),
            PeOpcode::Mul => zip(l, r, |l, r| l * r),
            PeOpcode::Sub => zip(l, r, |l, r| l - r),
            PeOpcode::Div => zip(l, r, |l, r| l / r),
            PeOpcode::Min => zip(l, r, f32::min),
            PeOpcode::Max => zip(l, r, f32::max),
            PeOpcode::BypassL => l,
            PeOpcode::BypassR => r,
        }
    }
}

/// A register-file read: bank, address, and the `valid_rst` last-read marker
/// (§III-B — resetting the valid bit frees the register for the automatic
/// write-address generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegRead {
    /// Bank to read.
    pub bank: u32,
    /// Register address within the bank.
    pub addr: u32,
    /// Whether this is the last read of the value (frees the register).
    pub valid_rst: bool,
}

/// A read routed through the input crossbar to a tree input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRead {
    /// Source bank (must equal the port id under topology (d)).
    pub bank: u32,
    /// Register address within the bank.
    pub addr: u32,
    /// Last-read marker.
    pub valid_rst: bool,
}

/// One bank-to-bank move of a `copy` instruction (§III-D, Fig. 5(c)): data
/// are read from `src`, routed through the input crossbar, and written to
/// the automatically chosen address of `dst_bank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CopyMove {
    /// Source read (bank, address, last-read marker).
    pub src: RegRead,
    /// Destination bank (write address is automatic).
    pub dst_bank: u32,
}

/// The `exec` instruction: configures every tree for one pipelined pass
/// (Fig. 5(a)).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecInstr {
    /// Per tree-input-port operand fetch; `None` leaves the port undriven
    /// (its leaf PE must then bypass the other side or be `Nop`).
    pub reads: Vec<Option<PortRead>>,
    /// Per-PE opcode, indexed by [`PeId::flat_index`].
    pub pe_ops: Vec<PeOpcode>,
    /// Per-bank writeback: the producing PE whose registered output the
    /// bank latches, or `None` for no write. Must respect the output
    /// interconnect ([`interconnect::can_write`]).
    pub writes: Vec<Option<PeId>>,
}

/// A decoded DPU-v2 instruction (Fig. 7(a)).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// No operation (also used to fill unresolved pipeline hazards).
    Nop,
    /// Vector load: for every set bit `i` of `mask`, register bank `i`
    /// receives word `i` of data-memory row `row` at its automatically
    /// generated write address (§III-B, Fig. 5(b)).
    Load {
        /// Data-memory row.
        row: u32,
        /// Per-bank write-enable mask (length `B`).
        mask: Vec<bool>,
    },
    /// Full-width vector store: for every `Some` entry `i` of `reads`, word
    /// `i` of row `row` is written from the given register of bank `i`.
    Store {
        /// Data-memory row.
        row: u32,
        /// Per-bank optional read (length `B`).
        reads: Vec<Option<RegRead>>,
    },
    /// Compact store of up to [`Instr::K`] words: each item writes word
    /// `read.bank` of row `row`. Cheaper to encode than a full `store` when
    /// few words are live (Fig. 7(a) `store_4`).
    StoreK {
        /// Data-memory row.
        row: u32,
        /// Up to `K` reads; the source bank doubles as the row column.
        reads: Vec<RegRead>,
    },
    /// Copy of up to [`Instr::K`] words across banks via the input crossbar
    /// (Fig. 5(c)); the mechanism that resolves register-bank conflicts.
    CopyK {
        /// Up to `K` moves with pairwise-distinct source and destination
        /// banks.
        moves: Vec<CopyMove>,
    },
    /// Datapath pass through the PE trees.
    Exec(ExecInstr),
}

/// Instruction category, used for statistics and the Fig. 13 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// `nop`
    Nop,
    /// `load`
    Load,
    /// `store`
    Store,
    /// `store_4`
    StoreK,
    /// `copy_4`
    CopyK,
    /// `exec`
    Exec,
}

impl InstrKind {
    /// All kinds in opcode order.
    pub const ALL: [InstrKind; 6] = [
        InstrKind::Nop,
        InstrKind::Load,
        InstrKind::Store,
        InstrKind::StoreK,
        InstrKind::CopyK,
        InstrKind::Exec,
    ];

    /// Display name matching Fig. 7(a).
    pub fn name(self) -> &'static str {
        match self {
            InstrKind::Nop => "nop",
            InstrKind::Load => "load",
            InstrKind::Store => "store",
            InstrKind::StoreK => "store_4",
            InstrKind::CopyK => "copy_4",
            InstrKind::Exec => "exec",
        }
    }
}

impl fmt::Display for InstrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Instr {
    /// Maximum word count of the compact `store_k`/`copy_k` forms (the
    /// paper's `store_4`/`copy_4`).
    pub const K: usize = 4;

    /// The instruction's category.
    pub fn kind(&self) -> InstrKind {
        match self {
            Instr::Nop => InstrKind::Nop,
            Instr::Load { .. } => InstrKind::Load,
            Instr::Store { .. } => InstrKind::Store,
            Instr::StoreK { .. } => InstrKind::StoreK,
            Instr::CopyK { .. } => InstrKind::CopyK,
            Instr::Exec(_) => InstrKind::Exec,
        }
    }

    /// Validates structural well-formedness against `cfg`: vector lengths,
    /// bank/address ranges, one read port and one write port per bank, and
    /// interconnect legality of `exec` writebacks.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, cfg: &ArchConfig) -> Result<(), String> {
        self.validate_with(cfg, &mut Vec::new())
    }

    /// [`Instr::validate`] with the per-bank table an `exec` needs held by
    /// the caller ([`ExecInstr::validate_with`]), so that a replay
    /// validating every instruction allocates it once.
    ///
    /// # Errors
    ///
    /// As [`Instr::validate`].
    pub fn validate_with(&self, cfg: &ArchConfig, read_addr: &mut Vec<u32>) -> Result<(), String> {
        let b = cfg.banks as usize;
        let check_read = |r: &RegRead| -> Result<(), String> {
            if r.bank >= cfg.banks {
                return Err(format!("read bank {} out of range", r.bank));
            }
            if r.addr >= cfg.regs_per_bank {
                return Err(format!("read addr {} out of range", r.addr));
            }
            Ok(())
        };
        match self {
            Instr::Nop => Ok(()),
            Instr::Load { row, mask } => {
                if mask.len() != b {
                    return Err(format!("load mask length {} != B", mask.len()));
                }
                if *row >= cfg.data_mem_rows {
                    return Err(format!("load row {row} out of range"));
                }
                Ok(())
            }
            Instr::Store { row, reads } => {
                if reads.len() != b {
                    return Err(format!("store reads length {} != B", reads.len()));
                }
                if *row >= cfg.data_mem_rows {
                    return Err(format!("store row {row} out of range"));
                }
                for (i, r) in reads.iter().enumerate() {
                    if let Some(r) = r {
                        check_read(r)?;
                        if r.bank as usize != i {
                            return Err(format!(
                                "store word {i} must read bank {i}, got {}",
                                r.bank
                            ));
                        }
                    }
                }
                Ok(())
            }
            Instr::StoreK { row, reads } => {
                if reads.len() > Self::K || reads.is_empty() {
                    return Err(format!("store_k with {} words", reads.len()));
                }
                if *row >= cfg.data_mem_rows {
                    return Err(format!("store_k row {row} out of range"));
                }
                // At most `K` words: each is checked against those before it.
                for (i, r) in reads.iter().enumerate() {
                    check_read(r)?;
                    if reads[..i].iter().any(|p| p.bank == r.bank) {
                        return Err(format!("store_k reads bank {} twice", r.bank));
                    }
                }
                Ok(())
            }
            Instr::CopyK { moves } => {
                if moves.len() > Self::K || moves.is_empty() {
                    return Err(format!("copy_k with {} moves", moves.len()));
                }
                for (i, m) in moves.iter().enumerate() {
                    check_read(&m.src)?;
                    if m.dst_bank >= cfg.banks {
                        return Err(format!("copy dst bank {} out of range", m.dst_bank));
                    }
                    let before = &moves[..i];
                    if before.iter().any(|p| p.src.bank == m.src.bank) {
                        return Err(format!("copy reads bank {} twice", m.src.bank));
                    }
                    if before.iter().any(|p| p.dst_bank == m.dst_bank) {
                        return Err(format!("copy writes bank {} twice", m.dst_bank));
                    }
                }
                Ok(())
            }
            Instr::Exec(e) => e.validate_with(cfg, read_addr),
        }
    }
}

impl ExecInstr {
    /// An all-idle exec for `cfg` (every port undriven, every PE `Nop`, no
    /// writebacks) — a convenient starting point for builders.
    pub fn idle(cfg: &ArchConfig) -> Self {
        ExecInstr {
            reads: vec![None; cfg.banks as usize],
            pe_ops: vec![PeOpcode::Nop; cfg.pe_count() as usize],
            writes: vec![None; cfg.banks as usize],
        }
    }

    /// Structural validation; see [`Instr::validate`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self, cfg: &ArchConfig) -> Result<(), String> {
        self.validate_with(cfg, &mut Vec::new())
    }

    /// [`ExecInstr::validate`] over a caller-owned table of the address
    /// each bank is read at: it is refilled on every call and only grows,
    /// so validating instruction after instruction allocates nothing after
    /// the first.
    ///
    /// # Errors
    ///
    /// As [`ExecInstr::validate`].
    pub fn validate_with(&self, cfg: &ArchConfig, read_addr: &mut Vec<u32>) -> Result<(), String> {
        const UNREAD: u32 = u32::MAX;
        let b = cfg.banks as usize;
        if self.reads.len() != b {
            return Err(format!("exec reads length {} != B", self.reads.len()));
        }
        if self.pe_ops.len() != cfg.pe_count() as usize {
            return Err(format!("exec pe_ops length {} != #PE", self.pe_ops.len()));
        }
        if self.writes.len() != b {
            return Err(format!("exec writes length {} != B", self.writes.len()));
        }
        // One read port per bank: every bank presents a single address per
        // cycle, but the input crossbar may broadcast that one read to any
        // number of tree ports. Two ports may therefore read the same bank
        // only at the same address. (`UNREAD` is no address: a read address
        // is checked below `regs_per_bank` before it is entered.)
        read_addr.clear();
        read_addr.resize(b, UNREAD);
        for (port, r) in self.reads.iter().enumerate() {
            if let Some(r) = r {
                if r.bank >= cfg.banks {
                    return Err(format!(
                        "exec port {port} reads bank {} out of range",
                        r.bank
                    ));
                }
                if r.addr >= cfg.regs_per_bank {
                    return Err(format!("exec port {port} addr {} out of range", r.addr));
                }
                if !cfg.topology.input_is_crossbar() && r.bank != port as u32 {
                    return Err(format!(
                        "topology (d): port {port} may only read bank {port}"
                    ));
                }
                match read_addr[r.bank as usize] {
                    UNREAD => read_addr[r.bank as usize] = r.addr,
                    a if a == r.addr => {}
                    a => {
                        return Err(format!(
                            "bank {} read at two addresses ({a} and {}) in one exec \
                             (banks have one read port)",
                            r.bank, r.addr
                        ));
                    }
                }
            }
        }
        for (bank, w) in self.writes.iter().enumerate() {
            if let Some(pe) = w {
                if !pe.is_valid(cfg) {
                    return Err(format!("exec write to bank {bank} from invalid PE {pe}"));
                }
                if !interconnect::can_write(cfg, *pe, bank as u32) {
                    return Err(format!(
                        "output interconnect forbids {pe} -> bank {bank} under {}",
                        cfg.topology
                    ));
                }
                if self.pe_ops[pe.flat_index(cfg) as usize] == PeOpcode::Nop {
                    return Err(format!("bank {bank} latches output of idle {pe}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ArchConfig {
        ArchConfig::new(2, 8, 16).unwrap()
    }

    #[test]
    fn pe_local_and_flat_roundtrip() {
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        for t in 0..cfg.trees() {
            for l in 1..=cfg.depth {
                for i in 0..cfg.pes_in_layer(l) {
                    let pe = PeId::new(t, l, i);
                    assert!(pe.is_valid(&cfg));
                    let back = PeId::from_local_index(&cfg, t, pe.local_index(&cfg)).unwrap();
                    assert_eq!(back, pe);
                    let back2 = PeId::from_flat_index(&cfg, pe.flat_index(&cfg)).unwrap();
                    assert_eq!(back2, pe);
                }
            }
        }
        assert!(PeId::from_local_index(&cfg, 0, cfg.pes_per_tree()).is_none());
    }

    #[test]
    fn input_ports_span() {
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        assert_eq!(PeId::new(0, 1, 0).input_ports(&cfg), 0..2);
        assert_eq!(PeId::new(0, 2, 1).input_ports(&cfg), 4..8);
        assert_eq!(PeId::new(1, 3, 0).input_ports(&cfg), 8..16);
    }

    #[test]
    fn opcode_roundtrip() {
        for op in PeOpcode::ALL {
            assert_eq!(PeOpcode::from_code(op.code()), Some(op));
        }
        assert_eq!(PeOpcode::from_code(15), None);
        // The instruction opcode is the kind's declaration index, too.
        for (i, kind) in InstrKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }

    #[test]
    fn pe_opcode_apply() {
        assert_eq!(PeOpcode::Add.apply(1.0, 2.0), 3.0);
        assert_eq!(PeOpcode::BypassL.apply(1.0, 2.0), 1.0);
        assert_eq!(PeOpcode::BypassR.apply(1.0, 2.0), 2.0);
        assert!(PeOpcode::Nop.apply(1.0, 2.0).is_nan());
    }

    #[test]
    fn validate_catches_double_read_at_different_addresses() {
        let cfg = cfg();
        let mut e = ExecInstr::idle(&cfg);
        e.reads[0] = Some(PortRead {
            bank: 3,
            addr: 0,
            valid_rst: false,
        });
        e.reads[1] = Some(PortRead {
            bank: 3,
            addr: 1,
            valid_rst: false,
        });
        let err = Instr::Exec(e).validate(&cfg).unwrap_err();
        assert!(err.contains("two addresses"), "{err}");
    }

    #[test]
    fn validate_allows_broadcast_reads() {
        let cfg = cfg();
        let mut e = ExecInstr::idle(&cfg);
        // Same bank, same address on two ports: the crossbar broadcasts.
        e.reads[0] = Some(PortRead {
            bank: 3,
            addr: 7,
            valid_rst: true,
        });
        e.reads[1] = Some(PortRead {
            bank: 3,
            addr: 7,
            valid_rst: true,
        });
        assert!(Instr::Exec(e).validate(&cfg).is_ok());
    }

    #[test]
    fn validate_catches_illegal_writeback() {
        let cfg = cfg(); // topology (b)
        let mut e = ExecInstr::idle(&cfg);
        e.pe_ops[PeId::new(0, 1, 0).flat_index(&cfg) as usize] = PeOpcode::Add;
        // Leaf PE (0,1,0) spans lanes 0..2; bank 5 is in tree 1 → illegal.
        e.writes[5] = Some(PeId::new(0, 1, 0));
        let err = Instr::Exec(e).validate(&cfg).unwrap_err();
        assert!(err.contains("forbids"), "{err}");
    }

    #[test]
    fn validate_catches_idle_pe_write() {
        let cfg = cfg();
        let mut e = ExecInstr::idle(&cfg);
        e.writes[0] = Some(PeId::new(0, 1, 0));
        let err = Instr::Exec(e).validate(&cfg).unwrap_err();
        assert!(err.contains("idle"), "{err}");
    }

    #[test]
    fn validate_copy_constraints() {
        let cfg = cfg();
        let mv = |s: u32, d: u32| CopyMove {
            src: RegRead {
                bank: s,
                addr: 0,
                valid_rst: false,
            },
            dst_bank: d,
        };
        assert!(Instr::CopyK {
            moves: vec![mv(0, 1)]
        }
        .validate(&cfg)
        .is_ok());
        assert!(Instr::CopyK {
            moves: vec![mv(0, 1), mv(0, 2)]
        }
        .validate(&cfg)
        .is_err());
        assert!(Instr::CopyK {
            moves: vec![mv(0, 1), mv(2, 1)]
        }
        .validate(&cfg)
        .is_err());
        assert!(Instr::CopyK { moves: vec![] }.validate(&cfg).is_err());
    }

    #[test]
    fn validate_store_bank_column_agreement() {
        let cfg = cfg();
        let mut reads = vec![None; cfg.banks as usize];
        reads[2] = Some(RegRead {
            bank: 3,
            addr: 0,
            valid_rst: false,
        });
        let err = Instr::Store { row: 0, reads }.validate(&cfg).unwrap_err();
        assert!(err.contains("must read bank"), "{err}");
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(Instr::Nop.kind().name(), "nop");
        assert_eq!(InstrKind::ALL.len(), 6);
    }
}
