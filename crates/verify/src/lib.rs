//! Static program verifier for compiled DPU-v2 programs.
//!
//! The cycle-level simulator (`dpu-sim`) *checks* hazards: reading an
//! empty register, clashing writebacks or bank overflow reject the
//! program, when its oracle steps into them or when its decode resolves
//! the schedule. This crate proves the same invariants **without the
//! simulator**, by replaying the instruction stream once over a register
//! file that tracks occupancy instead of values. The replay does not
//! mirror [`dpu_sim::Machine::step`], it *is* the same code: all of them
//! run [`dpu_isa::RegFile`] — the automatic write-address generator,
//! `valid_rst` freeing, the `D+1`-slot writeback ring — the oracle with
//! values, decode with value-slot ids, this crate as `RegFile<()>`. So a
//! program accepted here cannot raise a structural `SimError` on any
//! input.
//!
//! [`verify_program`] checks, in one pass:
//!
//! 1. **Def-before-use / single-assignment**: every register read is
//!    dominated by a write to that slot, and the priority-encoder write
//!    policy never overflows a bank ([`VerifyError::ReadUndefined`],
//!    [`VerifyError::BankOverflow`]).
//! 2. **Bank-port legality**: no instruction word drives a bank's single
//!    read or write port twice in one cycle, including `exec` writebacks
//!    landing `D` cycles after issue ([`VerifyError::WritePortClash`]).
//! 3. **Interconnect legality**: every `exec` operand routing is
//!    realizable by the configured [`Topology`], every
//!    [`dpu_isa::PeId`] is valid, every writeback respects
//!    [`dpu_isa::interconnect::can_write`]
//!    ([`VerifyError::Structural`]).
//! 4. **Address bounds**: all rows touched fit the program's declared
//!    [`LayoutFacts`] footprint and the configuration's data memory
//!    ([`VerifyError::FootprintOverflow`], [`VerifyError::UnexpectedLoad`],
//!    [`VerifyError::UnexpectedStore`]).
//! 5. **Output completeness**: the store set covers every declared output
//!    slot exactly once ([`VerifyError::OutputNotStored`],
//!    [`VerifyError::OutputStoredTwice`]).
//! 6. **Config facts**: the returned [`ConfigFacts`] records exactly which
//!    architecture parameters the program relies on — the basis of the
//!    runtime's steal-compatibility relation ([`steal_compatible`]) and of
//!    cross-config admission at spill load ([`ConfigFacts::admits`]).
//!
//! [`dpu_sim::Machine::step`]: https://docs.rs/dpu-sim
//!
//! # Example
//!
//! ```
//! use dpu_isa::{ArchConfig, Instr, Program, RegRead};
//! use dpu_verify::{verify_program, LayoutFacts};
//!
//! let cfg = ArchConfig::new(2, 8, 16).unwrap();
//! let mut mask = vec![false; cfg.banks as usize];
//! mask[0] = true;
//! let program = Program::new(
//!     cfg,
//!     vec![
//!         Instr::Load { row: 0, mask },
//!         Instr::StoreK {
//!             row: 1,
//!             reads: vec![RegRead { bank: 0, addr: 0, valid_rst: true }],
//!         },
//!     ],
//! )
//! .unwrap();
//! let layout = LayoutFacts {
//!     input_slots: &[(0, 0)],
//!     output_slots: &[(1, 0)],
//!     spill_base: 2,
//!     rows_used: 2,
//! };
//! let report = verify_program(&program, &layout).unwrap();
//! assert!(report.facts.admits(&cfg));
//! ```

use dpu_isa::{interconnect, ArchConfig, Fault, Fnv1a, Instr, Program, RegFile, Topology};

/// A typed verification failure: the first invariant violation found, with
/// enough position information to pinpoint the offending instruction.
///
/// Every variant indicates a malformed or corrupt program — a compiler bug,
/// a tampered spill entry, or a program/config mismatch — never a
/// data-dependent condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An instruction failed [`Instr::validate`] (vector lengths, bank and
    /// address ranges, interconnect legality, idle-PE writebacks).
    Structural {
        /// Instruction index.
        pc: usize,
        /// The validator's diagnostic.
        detail: String,
    },
    /// A register was read before any write reached it (or after its last
    /// `valid_rst` read freed it).
    ReadUndefined {
        /// Instruction index of the read.
        pc: usize,
        /// Bank read.
        bank: u32,
        /// Address read.
        addr: u32,
    },
    /// The automatic write-address generator found no free register.
    BankOverflow {
        /// Cycle of the overflowing write (equals the instruction index
        /// while the program issues; later during the pipeline drain).
        cycle: u64,
        /// The bank.
        bank: u32,
    },
    /// A bank's single write port was driven twice in one cycle (an `exec`
    /// writeback landing on top of another write).
    WritePortClash {
        /// The cycle.
        cycle: u64,
        /// The bank.
        bank: u32,
    },
    /// The declared data-memory footprint exceeds the configuration's
    /// capacity.
    FootprintOverflow {
        /// Rows the layout claims to use.
        rows_used: u32,
        /// Rows the configuration provides.
        data_mem_rows: u32,
    },
    /// An input or output slot lies outside the declared footprint or the
    /// bank range.
    SlotOutOfBounds {
        /// `"input"` or `"output"`.
        what: &'static str,
        /// Slot ordinal.
        ordinal: usize,
        /// Slot row.
        row: u32,
        /// Slot column.
        col: u32,
    },
    /// A `load` reads a row that is neither an input row, an output row,
    /// nor a spill row — uninitialized memory.
    UnexpectedLoad {
        /// Instruction index.
        pc: usize,
        /// The row.
        row: u32,
    },
    /// A store writes a word that is neither a declared output slot nor in
    /// the spill region.
    UnexpectedStore {
        /// Instruction index.
        pc: usize,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
    },
    /// A declared output slot is never stored.
    OutputNotStored {
        /// Output ordinal (index into the layout's output slots).
        ordinal: usize,
        /// Slot row.
        row: u32,
        /// Slot column.
        col: u32,
    },
    /// A declared output slot is stored more than once.
    OutputStoredTwice {
        /// Output ordinal (index into the layout's output slots).
        ordinal: usize,
        /// Slot row.
        row: u32,
        /// Slot column.
        col: u32,
        /// Number of stores that hit the slot.
        times: u32,
    },
    /// The replayed cycle count disagrees with the count the compiler
    /// declared. [`verify_program`] never sees a declared count; the
    /// caller that has one constructs this — `dpu_compiler`'s
    /// `Compiled::verify`, which every trust boundary (debug compiles,
    /// spill loads, `verify_all`) goes through.
    CycleMismatch {
        /// Cycles of the static replay (including pipeline drain).
        replayed: u64,
        /// Cycles the program metadata declares.
        declared: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Structural { pc, detail } => {
                write!(f, "instr {pc}: {detail}")
            }
            VerifyError::ReadUndefined { pc, bank, addr } => {
                write!(f, "instr {pc}: read of undefined register {bank}:{addr}")
            }
            VerifyError::BankOverflow { cycle, bank } => {
                write!(f, "cycle {cycle}: bank {bank} overflows")
            }
            VerifyError::WritePortClash { cycle, bank } => {
                write!(f, "cycle {cycle}: two writes drive bank {bank}")
            }
            VerifyError::FootprintOverflow {
                rows_used,
                data_mem_rows,
            } => write!(
                f,
                "layout uses {rows_used} rows but data memory has {data_mem_rows}"
            ),
            VerifyError::SlotOutOfBounds {
                what,
                ordinal,
                row,
                col,
            } => write!(f, "{what} slot {ordinal} ({row},{col}) out of bounds"),
            VerifyError::UnexpectedLoad { pc, row } => {
                write!(f, "instr {pc}: load of uninitialized row {row}")
            }
            VerifyError::UnexpectedStore { pc, row, col } => {
                write!(
                    f,
                    "instr {pc}: store to ({row},{col}) which is neither an output slot nor spill"
                )
            }
            VerifyError::OutputNotStored { ordinal, row, col } => {
                write!(f, "output {ordinal} at ({row},{col}) is never stored")
            }
            VerifyError::OutputStoredTwice {
                ordinal,
                row,
                col,
                times,
            } => write!(
                f,
                "output {ordinal} at ({row},{col}) stored {times} times (expected once)"
            ),
            VerifyError::CycleMismatch { replayed, declared } => {
                write!(
                    f,
                    "static replay takes {replayed} cycles, program declares {declared}"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The data-memory layout facts the verifier checks a program against — a
/// borrowed view of `dpu_compiler::DataLayout`, kept here so this crate
/// depends only on `dpu-isa`.
#[derive(Debug, Clone, Copy)]
pub struct LayoutFacts<'a> {
    /// `(row, col)` of every DAG input, `(u32::MAX, u32::MAX)` for inputs
    /// the program never reads.
    pub input_slots: &'a [(u32, u32)],
    /// `(row, col)` where each declared output is stored.
    pub output_slots: &'a [(u32, u32)],
    /// First spill row; rows at or above this are scratch space.
    pub spill_base: u32,
    /// Total rows used (inputs + outputs + spills).
    pub rows_used: u32,
}

/// The architecture facts a verified program actually relies on — the
/// program's *steal class* in fingerprint form.
///
/// A program verified under one [`ArchConfig`] runs identically under any
/// other configuration these facts [admit](ConfigFacts::admits): the bank
/// count and tree depth are woven into every instruction word, but extra
/// registers per bank never change the priority encoder's choices below
/// the high-water mark, extra data-memory rows never change addressing,
/// and a topology is interchangeable if it realizes every routing the
/// program uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigFacts {
    /// Exact tree depth the program schedules around (pipeline latency and
    /// PE indexing).
    pub depth: u32,
    /// Exact bank count (instruction word width).
    pub banks: u32,
    /// Minimum registers per bank: the occupancy high-water mark of the
    /// fullest bank.
    pub min_regs_per_bank: u32,
    /// Minimum data-memory rows: the footprint high-water mark.
    pub min_data_mem_rows: u32,
    /// Bit `i` set iff `Topology::all()[i]` realizes every operand routing
    /// and writeback the program performs.
    pub topology_mask: u8,
}

impl ConfigFacts {
    /// Whether `cfg` satisfies every fact, i.e. whether the program this
    /// fingerprint was derived from is proven safe to run under `cfg`.
    pub fn admits(&self, cfg: &ArchConfig) -> bool {
        cfg.depth == self.depth
            && cfg.banks == self.banks
            && cfg.regs_per_bank >= self.min_regs_per_bank
            && cfg.data_mem_rows >= self.min_data_mem_rows
            && self.topology_mask & topology_bit(cfg.topology) != 0
    }

    /// Stable 64-bit fingerprint of the facts (FNV-1a; platform- and
    /// process-independent).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        for word in [
            self.depth,
            self.banks,
            self.min_regs_per_bank,
            self.min_data_mem_rows,
            u32::from(self.topology_mask),
        ] {
            h.word(u64::from(word));
        }
        h.finish()
    }
}

/// The bit of `t` in [`ConfigFacts::topology_mask`].
fn topology_bit(t: Topology) -> u8 {
    let i = Topology::all()
        .iter()
        .position(|&x| x == t)
        .expect("Topology::all covers all variants");
    1 << i
}

/// Proof object returned by [`verify_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Instructions analyzed.
    pub instrs: usize,
    /// Cycles of the static replay, including the pipeline drain — must
    /// equal the simulator's cycle count for the same program.
    pub cycles: u64,
    /// The architecture facts the program relies on.
    pub facts: ConfigFacts,
}

/// The steal-compatibility relation between two architecture
/// configurations: shards whose configurations agree on every
/// *code-generation-relevant* parameter (`depth`, `banks`,
/// `regs_per_bank`, `topology`) compile byte-identical programs and
/// produce byte-identical results, so one may serve the other's requests.
///
/// `data_mem_rows` is deliberately exempt: compilation never reads the
/// capacity, only the footprint, so two shards differing only in data
/// memory size emit identical instruction streams. A program whose
/// footprint fits one but not the other fails compile-time verification on
/// the smaller shard with a typed error ([`VerifyError::FootprintOverflow`])
/// rather than corrupting results, and spill-loaded programs are re-checked
/// per config via [`ConfigFacts::admits`].
pub fn steal_compatible(a: &ArchConfig, b: &ArchConfig) -> bool {
    a.depth == b.depth
        && a.banks == b.banks
        && a.regs_per_bank == b.regs_per_bank
        && a.topology == b.topology
}

/// Verifies `program` against `layout` by static replay; see the crate
/// docs for the invariant list.
///
/// # Errors
///
/// The first [`VerifyError`] found, in program order.
pub fn verify_program(
    program: &Program,
    layout: &LayoutFacts<'_>,
) -> Result<VerifyReport, VerifyError> {
    let cfg = program.config;

    // Layout-level bounds (checks 4 and the slot preconditions of 5).
    if layout.rows_used > cfg.data_mem_rows {
        return Err(VerifyError::FootprintOverflow {
            rows_used: layout.rows_used,
            data_mem_rows: cfg.data_mem_rows,
        });
    }
    for (ordinal, &(row, col)) in layout.input_slots.iter().enumerate() {
        if row == u32::MAX {
            continue; // unread input, never staged
        }
        if row >= layout.rows_used || col >= cfg.banks {
            return Err(VerifyError::SlotOutOfBounds {
                what: "input",
                ordinal,
                row,
                col,
            });
        }
    }
    for (ordinal, &(row, col)) in layout.output_slots.iter().enumerate() {
        if row >= layout.rows_used || col >= cfg.banks {
            return Err(VerifyError::SlotOutOfBounds {
                what: "output",
                ordinal,
                row,
                col,
            });
        }
    }

    let mut slots = Slots::new(layout);

    // Facts accumulated during the replay (check 6).
    let mut topology_mask: u8 = (1 << Topology::all().len()) - 1;
    let mut max_row_touched: u32 = 0;
    // Topologies a cross-routed read (port `p` reading a bank other than
    // `p`) rules out: those without an input crossbar.
    let one_to_one_in = Topology::all()
        .into_iter()
        .filter(|t| !t.input_is_crossbar())
        .fold(0, |mask, t| mask | topology_bit(t));
    // Topologies a writeback can rule out. Not (a), whose output crossbar
    // routes every writeback, and not the program's own, under which
    // `validate` has just proved it routable.
    let narrowable = !(topology_bit(Topology::CrossbarBoth) | topology_bit(cfg.topology));

    let mut regs = RegFile::new(&cfg, ());
    // Under a lowest-free write policy a bank's occupancy high-water mark
    // is the highest address the policy ever chose, plus one.
    let mut regs_needed: u32 = 0;
    let mut wrote = |_bank: u32, addr: u32, (): ()| regs_needed = regs_needed.max(addr + 1);
    // `validate`'s per-bank table, allocated once for the whole replay.
    let mut read_addr = Vec::new();
    for (pc, instr) in program.instrs.iter().enumerate() {
        // Structural legality first (checks 2 and 3 at the word level):
        // vector lengths, bank/address ranges, one read address per bank,
        // interconnect legality, no idle-PE writebacks. Re-checked here
        // rather than trusted from `Program::new` because deserialized
        // programs (spill entries) reach the verifier without passing
        // through the constructor.
        instr
            .validate_with(&cfg, &mut read_addr)
            .map_err(|detail| VerifyError::Structural { pc, detail })?;

        match instr {
            Instr::Nop => {}
            Instr::Load { row, mask } => {
                if !slots.loadable(*row) {
                    return Err(VerifyError::UnexpectedLoad { pc, row: *row });
                }
                max_row_touched = max_row_touched.max(*row);
                for (bank, &m) in mask.iter().enumerate() {
                    if m {
                        let bank = bank as u32;
                        wrote(bank, write(&mut regs, bank)?, ());
                    }
                }
            }
            Instr::Store { row, reads } => {
                max_row_touched = max_row_touched.max(*row);
                for (col, r) in reads.iter().enumerate() {
                    if let Some(r) = r {
                        read(&mut regs, pc, r.bank, r.addr, r.valid_rst)?;
                        slots.note_store(pc, *row, col as u32)?;
                    }
                }
            }
            Instr::StoreK { row, reads } => {
                max_row_touched = max_row_touched.max(*row);
                for r in reads {
                    read(&mut regs, pc, r.bank, r.addr, r.valid_rst)?;
                    slots.note_store(pc, *row, r.bank)?;
                }
            }
            Instr::CopyK { moves } => {
                // All reads precede all writes (crossbar pass).
                for m in moves {
                    read(&mut regs, pc, m.src.bank, m.src.addr, m.src.valid_rst)?;
                }
                for m in moves {
                    wrote(m.dst_bank, write(&mut regs, m.dst_bank)?, ());
                }
            }
            Instr::Exec(e) => {
                // Operand fetch: liveness per read; valid_rst after all
                // reads of the cycle (a broadcast reads one register on
                // several ports).
                for (port, r) in e.reads.iter().enumerate() {
                    let Some(r) = r else { continue };
                    read(&mut regs, pc, r.bank, r.addr, false)?;
                    if r.bank != port as u32 {
                        // Cross routing requires an input crossbar.
                        topology_mask &= !one_to_one_in;
                    }
                }
                for r in e.reads.iter().flatten() {
                    if r.valid_rst {
                        regs.free(r.bank, r.addr);
                    }
                }
                // Writebacks land D cycles after issue. `validate` proved
                // each producing PE is real, routable under the program's
                // own topology, and not idle — so each declared write
                // carries a value. Narrow the admissible-topology mask to
                // those that also realize this routing, while any that
                // could drop out is still in it.
                for (bank, w) in e.writes.iter().enumerate() {
                    let Some(pe) = w else { continue };
                    if topology_mask & narrowable == 0 {
                        break;
                    }
                    for t in Topology::all() {
                        let bit = topology_bit(t);
                        if topology_mask & narrowable & bit != 0 {
                            let mut alt = cfg;
                            alt.topology = t;
                            if !interconnect::can_write(&alt, *pe, bank as u32) {
                                topology_mask &= !bit;
                            }
                        }
                    }
                }
                let written = e.writes.iter().enumerate().filter(|(_, w)| w.is_some());
                regs.schedule(written.map(|(bank, _)| (bank as u32, ())));
            }
        }
        regs.end_cycle(&mut wrote)
            .map_err(|f| fault(f, regs.cycle()))?;
    }
    regs.drain(&mut wrote).map_err(|f| fault(f, regs.cycle()))?;

    // Output completeness (check 5).
    slots.check_outputs()?;

    let facts = ConfigFacts {
        depth: cfg.depth,
        banks: cfg.banks,
        min_regs_per_bank: regs_needed.max(2),
        min_data_mem_rows: layout.rows_used.max(max_row_touched + 1),
        topology_mask,
    };
    Ok(VerifyReport {
        instrs: program.instrs.len(),
        cycles: regs.cycle(),
        facts,
    })
}

/// Stamps a register-file fault with the cycle it happened in.
fn fault(fault: Fault, cycle: u64) -> VerifyError {
    match fault {
        Fault::Full { bank } => VerifyError::BankOverflow { cycle, bank },
        Fault::PortClash { bank } => VerifyError::WritePortClash { cycle, bank },
    }
}

/// A register read: the register must be live, and a last (`valid_rst`)
/// read frees it.
fn read(
    regs: &mut RegFile<()>,
    pc: usize,
    bank: u32,
    addr: u32,
    valid_rst: bool,
) -> Result<(), VerifyError> {
    regs.read(bank, addr)
        .ok_or(VerifyError::ReadUndefined { pc, bank, addr })?;
    if valid_rst {
        regs.free(bank, addr);
    }
    Ok(())
}

/// An immediate (`load`/`copy`) write; returns the address the bank chose.
fn write(regs: &mut RegFile<()>, bank: u32) -> Result<u32, VerifyError> {
    regs.write(bank, ()).map_err(|f| fault(f, regs.cycle()))
}

/// The layout's slots as the replay consults them (checks 4 and 5), built
/// once per program: which rows a `load` may read, and every declared
/// output slot with the stores that hit it.
struct Slots<'a> {
    layout: &'a LayoutFacts<'a>,
    /// Rows below the spill base holding an input or output slot, sorted
    /// and distinct: rows staged by the host or written by the program.
    /// Sized by the slot count, never by a row value, so a hostile
    /// configuration with a huge data memory allocates nothing extra.
    loadable: Vec<u32>,
    /// One entry per distinct output slot (duplicate output ids share one
    /// slot, which must still be stored exactly once), sorted by slot.
    outputs: Vec<Output>,
}

/// A distinct output slot in [`Slots::outputs`].
struct Output {
    /// `row << 32 | col`, the sort key.
    slot: u64,
    /// Its first position in the layout's output slots.
    first: usize,
    /// Stores that hit it.
    stores: u32,
    /// It is also an input slot: staged by the host (a DAG input requested
    /// as an output), it needs no store.
    aliases_input: bool,
}

fn slot_key((row, col): (u32, u32)) -> u64 {
    u64::from(row) << 32 | u64::from(col)
}

impl<'a> Slots<'a> {
    /// The tables of `layout`, whose slots lie inside its footprint.
    fn new(layout: &'a LayoutFacts<'a>) -> Self {
        // An unread input's row, `u32::MAX`, is below no spill base.
        let mut loadable: Vec<u32> = (layout.input_slots.iter())
            .chain(layout.output_slots)
            .map(|&(row, _)| row)
            .filter(|&row| row < layout.spill_base)
            .collect();
        loadable.sort_unstable();
        loadable.dedup();
        let mut outputs: Vec<Output> = layout
            .output_slots
            .iter()
            .enumerate()
            .map(|(first, &slot)| Output {
                slot: slot_key(slot),
                first,
                stores: 0,
                aliases_input: false,
            })
            .collect();
        // By slot, then position: `dedup` keeps each slot's first.
        outputs.sort_unstable_by_key(|o| (o.slot, o.first));
        outputs.dedup_by_key(|o| o.slot);
        let mut slots = Slots {
            layout,
            loadable,
            outputs,
        };
        for &input in layout.input_slots {
            if let Some(i) = slots.output(input) {
                slots.outputs[i].aliases_input = true;
            }
        }
        slots
    }

    /// The [`Slots::outputs`] entry of `slot`, if it is an output slot.
    fn output(&self, slot: (u32, u32)) -> Option<usize> {
        self.outputs
            .binary_search_by_key(&slot_key(slot), |o| o.slot)
            .ok()
    }

    /// Whether a `load` may read `row`: inside the footprint, and either
    /// in the spill region or a row holding an input or output slot.
    /// Anything else is uninitialized memory.
    fn loadable(&self, row: u32) -> bool {
        row < self.layout.rows_used
            && (row >= self.layout.spill_base || self.loadable.binary_search(&row).is_ok())
    }

    /// Classifies one stored word: counts it against its output slot,
    /// accepts it silently in the spill region, rejects it anywhere else.
    fn note_store(&mut self, pc: usize, row: u32, col: u32) -> Result<(), VerifyError> {
        if row >= self.layout.rows_used {
            return Err(VerifyError::UnexpectedStore { pc, row, col });
        }
        if let Some(i) = self.output((row, col)) {
            self.outputs[i].stores += 1;
            return Ok(());
        }
        if row >= self.layout.spill_base {
            return Ok(());
        }
        Err(VerifyError::UnexpectedStore { pc, row, col })
    }

    /// The first distinct output slot, in order of first appearance, that
    /// is not stored exactly once and is not host-staged. Its ordinal is
    /// its index among the distinct slots in that order.
    fn check_outputs(&self) -> Result<(), VerifyError> {
        let missed = self
            .outputs
            .iter()
            .filter(|o| !o.aliases_input && o.stores != 1)
            .min_by_key(|o| o.first);
        let Some(o) = missed else {
            return Ok(());
        };
        let ordinal = self.outputs.iter().filter(|p| p.first < o.first).count();
        let (row, col) = self.layout.output_slots[o.first];
        Err(match o.stores {
            0 => VerifyError::OutputNotStored { ordinal, row, col },
            times => VerifyError::OutputStoredTwice {
                ordinal,
                row,
                col,
                times,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_isa::{CopyMove, ExecInstr, PeId, PeOpcode, PortRead, RegRead};

    fn cfg() -> ArchConfig {
        ArchConfig::new(2, 8, 16).unwrap()
    }

    fn read(bank: u32, addr: u32, rst: bool) -> RegRead {
        RegRead {
            bank,
            addr,
            valid_rst: rst,
        }
    }

    type Slots = Vec<(u32, u32)>;

    /// Load one word into bank 0 and store it to the single output slot.
    fn tiny_program(cfg: ArchConfig) -> (Program, Slots, Slots) {
        let mut mask = vec![false; cfg.banks as usize];
        mask[0] = true;
        let p = Program::new(
            cfg,
            vec![
                Instr::Load { row: 0, mask },
                Instr::StoreK {
                    row: 1,
                    reads: vec![read(0, 0, true)],
                },
            ],
        )
        .unwrap();
        (p, vec![(0, 0)], vec![(1, 0)])
    }

    fn layout_of<'a>(
        inputs: &'a [(u32, u32)],
        outputs: &'a [(u32, u32)],
        spill_base: u32,
        rows_used: u32,
    ) -> LayoutFacts<'a> {
        LayoutFacts {
            input_slots: inputs,
            output_slots: outputs,
            spill_base,
            rows_used,
        }
    }

    #[test]
    fn accepts_well_formed_program() {
        let cfg = cfg();
        let (p, ins, outs) = tiny_program(cfg);
        let rep = verify_program(&p, &layout_of(&ins, &outs, 2, 2)).unwrap();
        assert_eq!(rep.instrs, 2);
        assert_eq!(rep.cycles, 2);
        assert!(rep.facts.admits(&cfg));
        assert_eq!(rep.facts.min_regs_per_bank, 2);
        assert_eq!(rep.facts.min_data_mem_rows, 2);
        // No exec at all: every topology realizes the program.
        assert_eq!(rep.facts.topology_mask, 0b1111);
    }

    /// A configuration read from a blob may claim a data memory of
    /// `u32::MAX` rows; the slot tables are sized by the slots, so one
    /// output slot near the top costs nothing.
    #[test]
    fn a_huge_data_memory_with_one_high_slot_verifies_cheaply() {
        let mut cfg = cfg();
        cfg.data_mem_rows = u32::MAX;
        let high = u32::MAX - 1;
        let outputs = [(high, 0)];
        let layout = layout_of(&[], &outputs, u32::MAX, u32::MAX);
        let load_store = |load_row| {
            let mut mask = vec![false; cfg.banks as usize];
            mask[0] = true;
            let load = Instr::Load {
                row: load_row,
                mask,
            };
            let store = Instr::StoreK {
                row: high,
                reads: vec![read(0, 0, true)],
            };
            Program::new(cfg, vec![load, store]).unwrap()
        };
        let rep = verify_program(&load_store(high), &layout).unwrap();
        assert_eq!(rep.facts.min_data_mem_rows, u32::MAX);
        // A row that holds no slot is still not loadable.
        assert_eq!(
            verify_program(&load_store(high - 1), &layout).unwrap_err(),
            VerifyError::UnexpectedLoad {
                pc: 0,
                row: high - 1
            }
        );
    }

    #[test]
    fn rejects_read_before_write() {
        let cfg = cfg();
        let p = Program::new(
            cfg,
            vec![Instr::StoreK {
                row: 1,
                reads: vec![read(0, 0, false)],
            }],
        )
        .unwrap();
        let err = verify_program(&p, &layout_of(&[(0, 0)], &[(1, 0)], 2, 2)).unwrap_err();
        assert_eq!(
            err,
            VerifyError::ReadUndefined {
                pc: 0,
                bank: 0,
                addr: 0
            }
        );
    }

    #[test]
    fn rejects_use_after_free() {
        let cfg = cfg();
        let mut mask = vec![false; cfg.banks as usize];
        mask[0] = true;
        let p = Program::new(
            cfg,
            vec![
                Instr::Load { row: 0, mask },
                Instr::CopyK {
                    moves: vec![CopyMove {
                        src: read(0, 0, true), // last read frees 0:0
                        dst_bank: 1,
                    }],
                },
                Instr::StoreK {
                    row: 1,
                    reads: vec![read(0, 0, false)], // stale
                },
            ],
        )
        .unwrap();
        let err = verify_program(&p, &layout_of(&[(0, 0)], &[(1, 0)], 2, 2)).unwrap_err();
        assert!(
            matches!(err, VerifyError::ReadUndefined { pc: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_bank_overflow() {
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let mask = vec![true, false];
        let load = Instr::Load { row: 0, mask };
        let p = Program::new(cfg, vec![load.clone(), load.clone(), load]).unwrap();
        let err = verify_program(&p, &layout_of(&[(0, 0)], &[(1, 1)], 2, 2)).unwrap_err();
        assert_eq!(err, VerifyError::BankOverflow { cycle: 2, bank: 0 });
    }

    #[test]
    fn rejects_write_port_clash() {
        // D=1: an exec issued at cycle 1 lands at the end of cycle 2; a
        // load writing the same bank at cycle 2 clashes.
        let cfg = ArchConfig::new(1, 2, 4).unwrap();
        let pe = PeId::new(0, 1, 0);
        let mut e = ExecInstr::idle(&cfg);
        e.pe_ops[pe.flat_index(&cfg) as usize] = PeOpcode::Add;
        e.reads[0] = Some(PortRead {
            bank: 0,
            addr: 0,
            valid_rst: false,
        });
        e.reads[1] = Some(PortRead {
            bank: 1,
            addr: 0,
            valid_rst: false,
        });
        e.writes[0] = Some(pe);
        let p = Program::new(
            cfg,
            vec![
                Instr::Load {
                    row: 0,
                    mask: vec![true, true],
                },
                Instr::Exec(e),
                Instr::Load {
                    row: 0,
                    mask: vec![true, false],
                },
            ],
        )
        .unwrap();
        let err = verify_program(&p, &layout_of(&[(0, 0), (0, 1)], &[(1, 0)], 2, 2)).unwrap_err();
        assert_eq!(err, VerifyError::WritePortClash { cycle: 2, bank: 0 });
    }

    #[test]
    fn rejects_missing_output_store() {
        let cfg = cfg();
        let (p, ins, _) = tiny_program(cfg);
        // Claim a second output slot the program never stores.
        let outs = vec![(1, 0), (1, 1)];
        let err = verify_program(&p, &layout_of(&ins, &outs, 2, 2)).unwrap_err();
        assert_eq!(
            err,
            VerifyError::OutputNotStored {
                ordinal: 1,
                row: 1,
                col: 1
            }
        );
    }

    #[test]
    fn rejects_double_output_store() {
        let cfg = cfg();
        let mut mask = vec![false; cfg.banks as usize];
        mask[0] = true;
        let p = Program::new(
            cfg,
            vec![
                Instr::Load {
                    row: 0,
                    mask: mask.clone(),
                },
                Instr::Load { row: 0, mask },
                Instr::StoreK {
                    row: 1,
                    reads: vec![read(0, 0, false)],
                },
                Instr::StoreK {
                    row: 1,
                    reads: vec![read(0, 0, true)],
                },
            ],
        )
        .unwrap();
        let err = verify_program(&p, &layout_of(&[(0, 0)], &[(1, 0)], 2, 2)).unwrap_err();
        assert!(
            matches!(err, VerifyError::OutputStoredTwice { times: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_structurally_invalid_instruction() {
        // Bypass Program::new (as a corrupt spill entry would) by building
        // the struct directly.
        let cfg = cfg();
        let p = Program {
            config: cfg,
            instrs: vec![Instr::Load {
                row: 0,
                mask: vec![true; 3], // wrong width
            }],
        };
        let err = verify_program(&p, &layout_of(&[(0, 0)], &[(1, 0)], 2, 2)).unwrap_err();
        assert!(
            matches!(err, VerifyError::Structural { pc: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_footprint_overflow() {
        let cfg = cfg();
        let (p, ins, outs) = tiny_program(cfg);
        let err =
            verify_program(&p, &layout_of(&ins, &outs, 2, cfg.data_mem_rows + 1)).unwrap_err();
        assert!(
            matches!(err, VerifyError::FootprintOverflow { .. }),
            "{err}"
        );
    }

    #[test]
    fn output_aliasing_input_needs_no_store() {
        let cfg = cfg();
        let (p, ins, _) = tiny_program(cfg);
        // Output 1 aliases the input slot: host-staged, no store required.
        let outs = vec![(1, 0), (0, 0)];
        assert!(verify_program(&p, &layout_of(&ins, &outs, 2, 2)).is_ok());
    }

    #[test]
    fn facts_capture_register_pressure_and_admission() {
        let cfg = ArchConfig::new(1, 2, 8).unwrap();
        let mask = vec![true, false];
        let p = Program::new(
            cfg,
            vec![
                Instr::Load {
                    row: 0,
                    mask: mask.clone(),
                },
                Instr::Load {
                    row: 0,
                    mask: mask.clone(),
                },
                Instr::Load { row: 0, mask },
                Instr::StoreK {
                    row: 1,
                    reads: vec![read(0, 2, true)],
                },
            ],
        )
        .unwrap();
        let rep = verify_program(&p, &layout_of(&[(0, 0)], &[(1, 0)], 2, 2)).unwrap();
        assert_eq!(rep.facts.min_regs_per_bank, 3);
        // A configuration with fewer registers is not admitted; one with
        // more is.
        let mut small = cfg;
        small.regs_per_bank = 2;
        assert!(!rep.facts.admits(&small));
        let mut big = cfg;
        big.regs_per_bank = 64;
        assert!(rep.facts.admits(&big));
        // Different bank count or depth is never admitted.
        assert!(!rep.facts.admits(&ArchConfig::new(1, 4, 8).unwrap()));
        assert_ne!(
            rep.facts.fingerprint(),
            ConfigFacts {
                banks: 4,
                ..rep.facts
            }
            .fingerprint()
        );
    }

    #[test]
    fn topology_mask_narrows_to_realizable_routings() {
        // A leaf-PE writeback to the second lane of its span is legal under
        // (a) and (b) but not (c)/(d) (1:1 assignment maps the leaf to lane
        // 0); topology (d) additionally forbids the cross routing port 0 <-
        // bank 1.
        let cfg = cfg();
        let pe = PeId::new(0, 1, 0);
        let mut e = ExecInstr::idle(&cfg);
        e.pe_ops[pe.flat_index(&cfg) as usize] = PeOpcode::Add;
        e.reads[0] = Some(PortRead {
            bank: 0,
            addr: 0,
            valid_rst: false,
        });
        e.reads[1] = Some(PortRead {
            bank: 1,
            addr: 0,
            valid_rst: true,
        });
        e.writes[1] = Some(pe);
        let p = Program::new(
            cfg,
            vec![
                Instr::Load {
                    row: 0,
                    mask: vec![true, true, false, false, false, false, false, false],
                },
                Instr::Exec(e),
                // Wait out the D-cycle writeback latency before reading.
                Instr::Nop,
                Instr::Nop,
                Instr::StoreK {
                    row: 1,
                    reads: vec![read(0, 0, true), read(1, 0, true)],
                },
            ],
        )
        .unwrap();
        let rep =
            verify_program(&p, &layout_of(&[(0, 0), (0, 1)], &[(1, 0), (1, 1)], 2, 2)).unwrap();
        assert_eq!(rep.facts.topology_mask & 0b0011, 0b0011, "admits (a), (b)");
        assert_eq!(rep.facts.topology_mask & 0b1100, 0, "rejects (c), (d)");
        for (i, t) in Topology::all().into_iter().enumerate() {
            let alt = ArchConfig::with_topology(2, 8, 16, t).unwrap();
            assert_eq!(
                rep.facts.admits(&alt),
                rep.facts.topology_mask & (1 << i) != 0,
                "{t}"
            );
        }
    }

    /// One data-memory access of a replay, as the slot tables see it.
    #[derive(Debug, Clone, Copy)]
    enum Access {
        Load { row: u32 },
        Store { row: u32, col: u32 },
    }

    /// The sorted load rows and the linear output-slot accounting that
    /// [`Slots`] replaced, kept as its reference: the verdict of a run of
    /// accesses, `pc` = position in the run.
    fn reference_verdict(layout: &LayoutFacts<'_>, run: &[Access]) -> Result<(), VerifyError> {
        let mut loadable_rows: Vec<u32> = layout
            .input_slots
            .iter()
            .chain(layout.output_slots.iter())
            .map(|&(row, _)| row)
            .filter(|&row| row != u32::MAX)
            .collect();
        loadable_rows.sort_unstable();
        loadable_rows.dedup();
        let mut slot_counts: Vec<((u32, u32), u32)> = Vec::new();
        for &slot in layout.output_slots {
            if !slot_counts.iter().any(|&(s, _)| s == slot) {
                slot_counts.push((slot, 0));
            }
        }
        let aliases_input = |slot: (u32, u32)| layout.input_slots.contains(&slot);
        for (pc, &access) in run.iter().enumerate() {
            match access {
                Access::Load { row } => {
                    if loadable_rows.binary_search(&row).is_err() && row < layout.spill_base {
                        return Err(VerifyError::UnexpectedLoad { pc, row });
                    }
                    if row >= layout.rows_used {
                        return Err(VerifyError::UnexpectedLoad { pc, row });
                    }
                }
                Access::Store { row, col } => {
                    if row >= layout.rows_used {
                        return Err(VerifyError::UnexpectedStore { pc, row, col });
                    }
                    if let Some(entry) = slot_counts.iter_mut().find(|(s, _)| *s == (row, col)) {
                        entry.1 += 1;
                    } else if row < layout.spill_base {
                        return Err(VerifyError::UnexpectedStore { pc, row, col });
                    }
                }
            }
        }
        for (ordinal, &(slot, count)) in slot_counts.iter().enumerate() {
            if aliases_input(slot) {
                continue;
            }
            let (row, col) = slot;
            if count == 0 {
                return Err(VerifyError::OutputNotStored { ordinal, row, col });
            }
            if count > 1 {
                return Err(VerifyError::OutputStoredTwice {
                    ordinal,
                    row,
                    col,
                    times: count,
                });
            }
        }
        Ok(())
    }

    /// The same run through [`Slots`], as `verify_program` drives it.
    fn table_verdict(layout: &LayoutFacts<'_>, run: &[Access]) -> Result<(), VerifyError> {
        let mut slots = super::Slots::new(layout);
        for (pc, &access) in run.iter().enumerate() {
            match access {
                Access::Load { row } if !slots.loadable(row) => {
                    return Err(VerifyError::UnexpectedLoad { pc, row });
                }
                Access::Load { .. } => {}
                Access::Store { row, col } => slots.note_store(pc, row, col)?,
            }
        }
        slots.check_outputs()
    }

    /// SplitMix64: seeded draws for the reference-model layouts.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(n.max(1))) as u32
        }

        fn chance(&mut self, percent: u32) -> bool {
            self.below(100) < percent
        }
    }

    /// A layout shaped like the compiler's — input rows, output rows, then
    /// spill rows — with up to 1 500 outputs, some of them duplicates, some
    /// aliasing inputs, some in the spill region; and a run that stores
    /// most outputs once, some twice or never, spills, and now and then
    /// loads or stores where nothing may be.
    fn random_case(draw: &mut Draws) -> (OwnedLayout, Vec<Access>) {
        let banks = [8, 64, 128][draw.below(3) as usize];
        let big = draw.chance(25);
        let n_in = if big {
            1_000 + draw.below(800)
        } else {
            draw.below(40)
        };
        let n_out = if big {
            1_000 + draw.below(500)
        } else {
            1 + draw.below(40)
        };
        let in_rows = n_in.div_ceil(banks).max(1);
        let out_rows = n_out.div_ceil(banks).max(1);
        let spill_base = in_rows + out_rows;
        let rows_used = spill_base + draw.below(6);
        let inputs: Vec<(u32, u32)> = (0..n_in)
            .map(|_| match draw.chance(3) {
                true => (u32::MAX, u32::MAX),
                false => (draw.below(in_rows), draw.below(banks)),
            })
            .collect();
        let mut outputs: Vec<(u32, u32)> = Vec::new();
        for _ in 0..n_out {
            let slot = match draw.below(100) {
                0..=7 if !outputs.is_empty() => outputs[draw.below(outputs.len() as u32) as usize],
                8..=11 if !inputs.is_empty() => inputs[draw.below(n_in) as usize],
                12..=13 if rows_used > spill_base => (
                    spill_base + draw.below(rows_used - spill_base),
                    draw.below(banks),
                ),
                _ => (in_rows + draw.below(out_rows), draw.below(banks)),
            };
            if slot.0 != u32::MAX {
                outputs.push(slot);
            }
        }
        let mut distinct = outputs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // An output that is an input is host-staged: the compiler never
        // stores it.
        let mut staged = inputs.clone();
        staged.sort_unstable();
        let mut times: Vec<u32> = (distinct.iter())
            .map(|slot| match staged.binary_search(slot) {
                Ok(_) => u32::from(draw.chance(10)),
                Err(_) => 1,
            })
            .collect();
        if draw.chance(30) {
            for _ in 0..1 + draw.below(4) {
                times[draw.below(distinct.len() as u32) as usize] = [0, 2][draw.below(2) as usize];
            }
        }
        let mut run = Vec::new();
        for (&(row, col), &times) in distinct.iter().zip(&times) {
            for _ in 0..times {
                run.push(Access::Store { row, col });
            }
        }
        if rows_used > spill_base {
            for _ in 0..draw.below(60) {
                let row = spill_base + draw.below(rows_used - spill_base);
                let col = draw.below(banks);
                run.push(match draw.chance(50) {
                    true => Access::Load { row },
                    false => Access::Store { row, col },
                });
            }
        }
        for _ in 0..draw.below(20) {
            run.push(Access::Load {
                row: draw.below(rows_used),
            });
        }
        // Now and then, somewhere nothing may be loaded or stored.
        if draw.chance(15) {
            let row = draw.below(rows_used + 2);
            run.push(match draw.chance(50) {
                true => Access::Load { row },
                false => Access::Store {
                    row,
                    col: draw.below(banks),
                },
            });
        }
        for i in (1..run.len()).rev() {
            run.swap(i, draw.below(i as u32 + 1) as usize);
        }
        let layout = OwnedLayout {
            inputs,
            outputs,
            spill_base,
            rows_used,
        };
        (layout, run)
    }

    /// Owned slots behind a [`LayoutFacts`] view.
    struct OwnedLayout {
        inputs: Vec<(u32, u32)>,
        outputs: Vec<(u32, u32)>,
        spill_base: u32,
        rows_used: u32,
    }

    #[test]
    fn slot_tables_are_the_linear_reference() {
        let cases = if cfg!(debug_assertions) { 300 } else { 20_000 };
        let mut draw = Draws(26);
        let (mut failing, mut big) = (0, 0);
        for case in 0..cases {
            let (owned, run) = random_case(&mut draw);
            let layout = layout_of(
                &owned.inputs,
                &owned.outputs,
                owned.spill_base,
                owned.rows_used,
            );
            let want = reference_verdict(&layout, &run);
            assert_eq!(table_verdict(&layout, &run), want, "case {case}");
            failing += usize::from(want.is_err());
            big += usize::from(owned.outputs.len() >= 1_000);
        }
        // Both verdicts and the big layouts are well represented.
        assert!(
            failing > cases / 10 && failing < cases * 9 / 10,
            "{failing}"
        );
        assert!(big > cases / 10, "{big}");
    }

    /// Known answer, computed before the hash moved to `dpu_isa::Fnv1a`.
    #[test]
    fn facts_fingerprint_is_pinned() {
        let facts = ConfigFacts {
            depth: 3,
            banks: 64,
            min_regs_per_bank: 17,
            min_data_mem_rows: 512,
            topology_mask: 0b0011,
        };
        assert_eq!(facts.fingerprint(), 0x7d2d_6589_a49d_a9ae);
    }

    #[test]
    fn steal_compatibility_ignores_only_data_mem_rows() {
        let a = ArchConfig::new(3, 64, 32).unwrap();
        let mut b = a;
        b.data_mem_rows *= 2;
        assert!(steal_compatible(&a, &b));
        let mut c = a;
        c.regs_per_bank = 64;
        assert!(!steal_compatible(&a, &c));
        let mut d = a;
        d.topology = Topology::CrossbarBoth;
        assert!(!steal_compatible(&a, &d));
        assert!(!steal_compatible(&a, &ArchConfig::new(2, 64, 32).unwrap()));
        assert!(!steal_compatible(&a, &ArchConfig::new(3, 32, 32).unwrap()));
    }
}
