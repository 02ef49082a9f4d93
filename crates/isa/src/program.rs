use crate::encode::{self, BitWriter, DecodeError};
use crate::{ArchConfig, Instr, InstrKind};

/// Per-category instruction counts — the data behind Fig. 13.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InstrBreakdown {
    /// `exec` count.
    pub exec: u64,
    /// `copy_4` count.
    pub copy: u64,
    /// `load` count.
    pub load: u64,
    /// `store` + `store_4` count.
    pub store: u64,
    /// `nop` count.
    pub nop: u64,
}

impl InstrBreakdown {
    /// Total instruction count.
    pub fn total(&self) -> u64 {
        self.exec + self.copy + self.load + self.store + self.nop
    }

    /// Fraction of each category, in `[exec, copy, load, store, nop]` order.
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total().max(1) as f64;
        [
            self.exec as f64 / t,
            self.copy as f64 / t,
            self.load as f64 / t,
            self.store as f64 / t,
            self.nop as f64 / t,
        ]
    }
}

/// A compiled DPU-v2 program: the instruction list plus the architecture it
/// was compiled for.
///
/// The program can be [packed](Program::pack) into the dense instruction-
/// memory image of Fig. 7(b) and decoded back (the shifter model); the
/// simulator executes the decoded form directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Architecture configuration the program targets.
    pub config: ArchConfig,
    /// Instructions in issue order.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Creates a program after validating every instruction against `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the index and description of the first invalid instruction.
    pub fn new(cfg: ArchConfig, instrs: Vec<Instr>) -> Result<Self, (usize, String)> {
        let mut read_addr = Vec::new();
        for (i, ins) in instrs.iter().enumerate() {
            ins.validate_with(&cfg, &mut read_addr)
                .map_err(|e| (i, e))?;
        }
        Ok(Program {
            config: cfg,
            instrs,
        })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Packs all instructions densely (no alignment bubbles) into an
    /// instruction-memory image.
    pub fn pack(&self) -> Vec<u8> {
        let mut w = BitWriter::with_capacity(self.size_bits() as usize);
        for i in &self.instrs {
            encode::encode(&mut w, &self.config, i);
        }
        w.into_bytes()
    }

    /// Total program size in bits (the paper's program-size metric).
    pub fn size_bits(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| encode::kind_bits(&self.config, i.kind()) as u64)
            .sum()
    }

    /// Size in bits of the counterfactual encoding with explicit register
    /// write addresses (§III-B's ~30% program-size-reduction comparison).
    pub fn size_bits_explicit_writes(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| encode::explicit_write_addr_bits(&self.config, i))
            .sum()
    }

    /// Decodes a packed image back into a program — the fetch + shifter +
    /// decoder path of Fig. 7(b).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input, and
    /// [`DecodeError::OutOfBits`] before allocating anything when `bytes`
    /// is too short to hold `count` instructions (see
    /// [`encode::decode_stream`]).
    pub fn unpack(cfg: ArchConfig, bytes: &[u8], count: usize) -> Result<Self, DecodeError> {
        Ok(Program {
            config: cfg,
            instrs: encode::decode_stream(bytes, &cfg, count)?,
        })
    }

    /// Per-category instruction counts (Fig. 13).
    pub fn breakdown(&self) -> InstrBreakdown {
        let mut b = InstrBreakdown::default();
        for i in &self.instrs {
            match i.kind() {
                InstrKind::Exec => b.exec += 1,
                InstrKind::CopyK => b.copy += 1,
                InstrKind::Load => b.load += 1,
                InstrKind::Store | InstrKind::StoreK => b.store += 1,
                InstrKind::Nop => b.nop += 1,
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect;
    use crate::{ExecInstr, PeId, PeOpcode, PortRead};

    fn cfg() -> ArchConfig {
        ArchConfig::new(2, 8, 16).unwrap()
    }

    fn small_program() -> Program {
        let cfg = cfg();
        let mut e = ExecInstr::idle(&cfg);
        let pe = PeId::new(0, 1, 0);
        e.pe_ops[pe.flat_index(&cfg) as usize] = PeOpcode::Add;
        e.reads[0] = Some(PortRead {
            bank: 0,
            addr: 0,
            valid_rst: true,
        });
        e.reads[1] = Some(PortRead {
            bank: 1,
            addr: 0,
            valid_rst: true,
        });
        let bank = interconnect::writable_banks(&cfg, pe)[0];
        e.writes[bank as usize] = Some(pe);
        let mask = vec![true; cfg.banks as usize];
        Program::new(
            cfg,
            vec![Instr::Load { row: 0, mask }, Instr::Exec(e), Instr::Nop],
        )
        .unwrap()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let p = small_program();
        let bytes = p.pack();
        let q = Program::unpack(p.config, &bytes, p.len()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn unpack_rejects_truncated_image() {
        let p = small_program();
        let bytes = p.pack();
        assert!(Program::unpack(p.config, &bytes[..bytes.len() / 2], p.len()).is_err());
    }

    /// A count no buffer of that length could hold fails before the
    /// instruction vector is sized from it: `usize::MAX` overflowed the
    /// capacity computation and `1 << 40` asked for a 79 TB allocation.
    #[test]
    fn unpack_refuses_a_count_the_bytes_cannot_hold() {
        let cfg = ArchConfig::new(3, 64, 32).unwrap();
        for (bytes, count) in [(&[][..], usize::MAX), (&[0; 16][..], 1 << 40)] {
            assert_eq!(
                Program::unpack(cfg, bytes, count),
                Err(DecodeError::OutOfBits)
            );
        }
        // Two nops a byte is the most a buffer can hold, and it is held;
        // one more is refused before a bit is decoded (`0xff` would be an
        // unknown opcode).
        let nops = Program::unpack(cfg, &[0; 16], 32).unwrap();
        assert_eq!(nops.breakdown().nop, 32);
        assert_eq!(
            Program::unpack(cfg, &[0xff; 16], 33),
            Err(DecodeError::OutOfBits)
        );
    }

    #[test]
    fn size_matches_kind_bits_sum() {
        let p = small_program();
        assert_eq!(
            p.size_bits(),
            p.pack().len() as u64 * 8 - (8 - p.size_bits() % 8) % 8
        );
    }

    #[test]
    fn breakdown_counts() {
        let p = small_program();
        let b = p.breakdown();
        assert_eq!(b.exec, 1);
        assert_eq!(b.load, 1);
        assert_eq!(b.nop, 1);
        assert_eq!(b.total(), 3);
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn new_rejects_invalid() {
        let cfg = cfg();
        let bad = Instr::Load {
            row: 0,
            mask: vec![true; 3],
        };
        assert!(Program::new(cfg, vec![bad]).is_err());
    }

    #[test]
    fn explicit_writes_encoding_is_never_smaller() {
        let p = small_program();
        assert!(p.size_bits_explicit_writes() >= p.size_bits());
    }
}
