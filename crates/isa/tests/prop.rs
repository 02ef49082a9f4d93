//! Property-based tests for the ISA: encode/decode round-trips over random
//! well-formed instructions on random configurations, and the packed image
//! against the per-bit, field-at-a-time encoder it must reproduce.

use dpu_isa::encode::{self, BitReader, BitWriter};
use dpu_isa::{
    interconnect, ArchConfig, CopyMove, ExecInstr, Instr, InstrKind, PeId, PeOpcode, PortRead,
    Program, RegRead, Topology,
};
use proptest::prelude::*;

/// The encoder `Program::pack` replaced, kept as its reference: every
/// field pushed on its own, one bit at a time, LSB first.
#[derive(Default)]
struct PerBit {
    bytes: Vec<u8>,
    len_bits: usize,
}

impl PerBit {
    fn push(&mut self, value: u32, width: u32) {
        for i in 0..width {
            if self.len_bits / 8 == self.bytes.len() {
                self.bytes.push(0);
            }
            self.bytes[self.len_bits / 8] |= (((value >> i) & 1) as u8) << (self.len_bits % 8);
            self.len_bits += 1;
        }
    }

    fn push_bool(&mut self, b: bool) {
        self.push(b as u32, 1);
    }

    fn reg_read(&mut self, cfg: &ArchConfig, r: &RegRead) {
        self.push(r.bank, cfg.bank_bits());
        self.push(r.addr, cfg.reg_addr_bits());
        self.push_bool(r.valid_rst);
    }

    fn encode(&mut self, cfg: &ArchConfig, instr: &Instr) {
        let kind = instr.kind();
        let opcode = InstrKind::ALL.iter().position(|&k| k == kind).unwrap();
        self.push(opcode as u32, encode::OPCODE_BITS);
        let (rb, bb, ws) = (
            cfg.reg_addr_bits(),
            cfg.bank_bits(),
            encode::write_sel_bits(cfg),
        );
        let idle = RegRead {
            bank: 0,
            addr: 0,
            valid_rst: false,
        };
        match instr {
            Instr::Nop => {}
            Instr::Load { row, mask } => {
                self.push(*row, encode::ROW_BITS);
                for &m in mask {
                    self.push_bool(m);
                }
            }
            Instr::Store { row, reads } => {
                self.push(*row, encode::ROW_BITS);
                for r in reads {
                    self.push_bool(r.is_some());
                    let r = r.unwrap_or(idle);
                    self.push(r.addr, rb);
                    self.push_bool(r.valid_rst);
                }
            }
            Instr::StoreK { row, reads } => {
                self.push(*row, encode::ROW_BITS);
                self.push(reads.len() as u32, encode::COUNT_BITS);
                for i in 0..Instr::K {
                    self.reg_read(cfg, reads.get(i).unwrap_or(&idle));
                }
            }
            Instr::CopyK { moves } => {
                self.push(moves.len() as u32, encode::COUNT_BITS);
                for i in 0..Instr::K {
                    let m = moves.get(i);
                    self.reg_read(cfg, m.map_or(&idle, |m| &m.src));
                    self.push(m.map_or(0, |m| m.dst_bank), bb);
                }
            }
            Instr::Exec(e) => {
                for r in &e.reads {
                    self.push_bool(r.is_some());
                    self.push(r.map_or(0, |r| r.bank), bb);
                    self.push(r.map_or(0, |r| r.addr), rb);
                    self.push_bool(r.is_some_and(|r| r.valid_rst));
                }
                for op in &e.pe_ops {
                    self.push(op.code(), PeOpcode::BITS);
                }
                for w in &e.writes {
                    self.push_bool(w.is_some());
                    let sel = match (w, cfg.topology) {
                        (None, _) => 0,
                        (Some(pe), Topology::CrossbarBoth) => pe.flat_index(cfg),
                        (Some(pe), Topology::CrossbarInPerLayerOut) if ws > 0 => pe.layer - 1,
                        _ => 0,
                    };
                    self.push(sel, ws);
                }
            }
        }
    }
}

/// The parameter grid of the reference-encoder check: every depth up to
/// 4, bank counts up to 128, and register files from 4 to 256 (two to
/// eight address bits).
fn arb_wide_dims() -> impl Strategy<Value = (u32, u32, u32)> {
    (
        1u32..=4,
        prop::sample::select(vec![8u32, 16, 64, 128]),
        prop::sample::select(vec![4u32, 16, 32, 256]),
    )
        .prop_map(|(d, b, r)| (d, b.max(1 << d), r))
}

fn arb_config() -> impl Strategy<Value = ArchConfig> {
    (
        1u32..=3,
        0usize..4,
        prop::sample::select(vec![16u32, 32, 64, 128]),
        0usize..4,
    )
        .prop_map(|(d, b_sel, r, topo_sel)| {
            let banks = [8u32, 16, 32, 64][b_sel].max(1 << d);
            let topo = Topology::all()[topo_sel];
            ArchConfig::with_topology(d, banks, r, topo).expect("grid is valid")
        })
}

/// A random well-formed instruction for `cfg`, driven by a byte pool.
fn build_instr(cfg: &ArchConfig, sel: u8, pool: &[u32]) -> Instr {
    let b = cfg.banks;
    let r = cfg.regs_per_bank;
    let take = |i: usize| pool[i % pool.len()];
    match sel % 6 {
        0 => Instr::Nop,
        1 => {
            let mask = (0..b as usize).map(|i| take(i) % 2 == 0).collect();
            Instr::Load {
                row: take(0) % cfg.data_mem_rows,
                mask,
            }
        }
        2 => {
            let reads = (0..b as usize)
                .map(|i| {
                    (take(i) % 3 == 0).then_some(RegRead {
                        bank: i as u32,
                        addr: take(i + 1) % r,
                        valid_rst: take(i + 2) % 2 == 0,
                    })
                })
                .collect();
            Instr::Store {
                row: take(3) % cfg.data_mem_rows,
                reads,
            }
        }
        3 => {
            let k = 1 + (take(0) % 4) as usize;
            let reads: Vec<RegRead> = (0..k.min(b as usize))
                .map(|i| RegRead {
                    bank: (take(i) % b + i as u32) % b,
                    addr: take(i + 4) % r,
                    valid_rst: take(i) % 2 == 1,
                })
                .collect();
            // De-duplicate banks to keep the instruction valid.
            let mut seen = std::collections::HashSet::new();
            let reads: Vec<RegRead> = reads
                .into_iter()
                .filter(|rd| seen.insert(rd.bank))
                .collect();
            if reads.is_empty() {
                return Instr::Nop;
            }
            Instr::StoreK {
                row: take(9) % cfg.data_mem_rows,
                reads,
            }
        }
        4 => {
            let k = 1 + (take(1) % 4) as usize;
            let mut src_seen = std::collections::HashSet::new();
            let mut dst_seen = std::collections::HashSet::new();
            let moves: Vec<CopyMove> = (0..k)
                .filter_map(|i| {
                    let src = take(i) % b;
                    let dst = take(i + 7) % b;
                    (src_seen.insert(src) && dst_seen.insert(dst)).then_some(CopyMove {
                        src: RegRead {
                            bank: src,
                            addr: take(i + 2) % r,
                            valid_rst: i % 2 == 0,
                        },
                        dst_bank: dst,
                    })
                })
                .collect();
            if moves.is_empty() {
                return Instr::Nop;
            }
            Instr::CopyK { moves }
        }
        _ => {
            let mut e = ExecInstr::idle(cfg);
            // Activate one PE per tree's leaf layer and wire a writeback.
            for t in 0..cfg.trees() {
                let pe = PeId::new(t, 1, take(t as usize) % cfg.pes_in_layer(1));
                e.pe_ops[pe.flat_index(cfg) as usize] = PeOpcode::Add;
                let ports = pe.input_ports(cfg);
                for (k, port) in ports.enumerate() {
                    let bank = if cfg.topology.input_is_crossbar() {
                        take(port as usize) % b
                    } else {
                        port
                    };
                    e.reads[port as usize] = Some(PortRead {
                        bank,
                        addr: take(k) % r,
                        valid_rst: take(k + 1) % 2 == 0,
                    });
                }
                let wb = interconnect::writable_banks(cfg, pe);
                if let Some(&bank) = wb.first() {
                    if e.writes[bank as usize].is_none() {
                        e.writes[bank as usize] = Some(pe);
                    }
                }
            }
            // Same-bank reads must share one address (single read port).
            let mut addr_of = std::collections::HashMap::new();
            for read in e.reads.iter_mut().flatten() {
                let a = *addr_of.entry(read.bank).or_insert(read.addr);
                read.addr = a;
            }
            Instr::Exec(e)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_decode_roundtrip(
        cfg in arb_config(),
        sel in any::<u8>(),
        pool in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let instr = build_instr(&cfg, sel, &pool);
        prop_assert!(instr.validate(&cfg).is_ok(), "invalid generated instr: {instr:?}");
        let mut w = BitWriter::new();
        encode::encode(&mut w, &cfg, &instr);
        prop_assert_eq!(
            w.len_bits() as u32,
            encode::kind_bits(&cfg, instr.kind()),
            "length mismatch"
        );
        let bytes = w.into_bytes();
        let back = encode::decode(&mut BitReader::new(&bytes), &cfg).unwrap();
        prop_assert_eq!(back, instr);
    }

    #[test]
    fn stream_roundtrip(
        cfg in arb_config(),
        sels in proptest::collection::vec(any::<u8>(), 1..20),
        pool in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let instrs: Vec<Instr> = sels.iter().map(|&s| build_instr(&cfg, s, &pool)).collect();
        let mut w = BitWriter::new();
        for i in &instrs {
            encode::encode(&mut w, &cfg, i);
        }
        let bytes = w.into_bytes();
        let back = encode::decode_stream(&bytes, &cfg, instrs.len()).unwrap();
        prop_assert_eq!(back, instrs);
    }

    /// `Program::pack` — word-level bit I/O, fields in groups — writes the
    /// bytes of the per-bit, field-at-a-time reference, on every topology.
    #[test]
    fn pack_is_the_per_bit_encoder(
        (d, b, r) in arb_wide_dims(),
        sels in proptest::collection::vec(any::<u8>(), 1..24),
        pool in proptest::collection::vec(any::<u32>(), 16),
    ) {
        for topo in Topology::all() {
            let cfg = ArchConfig::with_topology(d, b, r, topo).expect("grid is valid");
            let instrs = sels.iter().map(|&s| build_instr(&cfg, s, &pool)).collect();
            let program = Program::new(cfg, instrs).expect("generated instructions are valid");
            let mut want = PerBit::default();
            for i in &program.instrs {
                want.encode(&cfg, i);
            }
            prop_assert_eq!(program.size_bits(), want.len_bits as u64);
            prop_assert!(program.pack() == want.bytes, "{cfg}: image differs");
            let back = Program::unpack(cfg, &want.bytes, program.len());
            prop_assert!(back.as_ref() == Ok(&program), "{cfg}: round trip differs");
        }
    }

    #[test]
    fn fetch_width_bounds_every_kind(cfg in arb_config()) {
        let il = encode::fetch_width(&cfg);
        for k in dpu_isa::InstrKind::ALL {
            prop_assert!(encode::kind_bits(&cfg, k) <= il);
        }
    }

    #[test]
    fn interconnect_duality(cfg in arb_config()) {
        for bank in 0..cfg.banks {
            for pe in interconnect::writer_pes(&cfg, bank) {
                prop_assert!(interconnect::can_write(&cfg, pe, bank));
            }
        }
    }
}
