//! Pre-decoded execution: the schedule resolved once, the production
//! executor.
//!
//! DPU-v2 targets DAGs with static connectivity, and the instruction word
//! never names a write address — the bank's priority encoder picks it
//! (§III-B, Fig. 5(d)). So *everything* a run decides apart from the
//! values is a function of the program alone: which register a write
//! lands in, every valid bit, the cycle an `exec` result lands, every
//! port clash, overflow and empty-register read, the cycle count and all
//! nine [`Activity`] counters. [`DecodedProgram::decode`] computes all of
//! it **once**: it replays the register file — [`dpu_isa::RegFile`], the
//! same code the compiler, the verifier and the oracle run, here holding
//! value-slot ids — and lowers the program, in the same single pass over
//! its instructions, to one flat **value tape** of four kinds of step:
//!
//! - data-memory word → slot (a `load` word),
//! - slot ← op(slot, slot) (an arithmetic PE, one code per opcode),
//! - slot ← slot (a `copy` move, or an `exec` result landing),
//! - slot → data-memory word (a `store` word),
//!
//! over a compact slot space (see [`DecodedProgram`]). Crossbar ports are
//! resolved straight to the register slot they read, bypass PEs to
//! aliases of their operand, idle PEs are absent, and a writeback becomes
//! a move placed at the end of cycle `issue + D`. The tape is stored as
//! maximal **runs** of one code — an instruction's load words, a PE
//! layer's adds, a cycle's landings — in the order decode emits the
//! steps: each step holds only its operands, its code is its run's. What
//! the replay proves is stored (cycles, [`Activity`]) or returned (every
//! fault the oracle would raise, as the same [`SimError`] with the same
//! bank, address and cycle); nothing of it is left for the run.
//!
//! [`Machine::run_decoded`] then walks the tape a run at a time — one
//! dispatch on the run's code, then a straight loop over its steps — with
//! no register file, no counters and **zero allocation** (lint-enforced by
//! `tests/forbidden_patterns.rs`), with outputs, cycle counts and
//! [`Activity`] byte-identical to the oracle's [`Machine::run_program`]
//! (differential-fuzzed in `tests/decoded_differential.rs`). The loop is
//! generic over a lane count `L`: [`run_decoded_group`] carries eight
//! input sets through one walk with every slot eight values wide; `L = 1`
//! is [`Machine::run_decoded`]; there is no second loop. The decoded form
//! is derived state: it is never persisted (the spill layer stores only
//! the verified [`Compiled`] representation) and is rebuilt from the
//! compiled program wherever it is needed.

use dpu_compiler::Compiled;
use dpu_isa::{
    encode, ArchConfig, CopyMove, ExecInstr, Instr, PeOpcode, Program, RegFile, RegRead,
};

use crate::{stamp, Activity, Lanes, Machine, RunResult, SimError, WIDE};

/// Slot 0 holds NaN for the whole run: what an undriven operand reads
/// (the oracle's `unwrap_or(f32::NAN)`).
const NAN_SLOT: u32 = 0;

/// "No value" in an `exec`'s source table: an undriven port or idle PE.
const UNDEF: u32 = u32::MAX;

/// What the steps of a [`Run`] do; see [`Step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Code {
    /// `slots[dst] = data[a]`.
    Load,
    /// `data[dst] = slots[a]`.
    Store,
    /// `slots[dst] = slots[a]`.
    Move,
    // `slots[dst] = slots[a] <op> slots[b]`, one per arithmetic opcode.
    Add,
    Mul,
    Sub,
    Div,
    Min,
    Max,
}

/// One step of the value tape; what it does is its run's [`Code`]. `dst`,
/// `a` and `b` index the slot space, except the data-memory side of a
/// load (`a`) or store (`dst`), which is a word index `row * B + col`.
#[derive(Debug, Clone, Copy)]
struct Step {
    dst: u32,
    a: u32,
    b: u32,
}

/// `len` consecutive steps of the tape that share one [`Code`].
#[derive(Debug, Clone, Copy)]
struct Run {
    code: Code,
    len: u32,
}

/// The value tape: its steps in order, and the same steps cut into
/// maximal runs of one code — adjacent runs differ in code (unless a run
/// fills its `u32` length), so the walk dispatches once per run instead
/// of once per step.
#[derive(Debug, Clone, Default)]
struct Tape {
    steps: Vec<Step>,
    runs: Vec<Run>,
}

impl Tape {
    /// Appends a step, extending the last run if it has the same code.
    fn push(&mut self, code: Code, dst: u32, a: u32, b: u32) {
        self.steps.push(Step { dst, a, b });
        match self.runs.last_mut() {
            Some(run) if run.code == code && run.len < u32::MAX => run.len += 1,
            _ => self.runs.push(Run { code, len: 1 }),
        }
    }
}

/// A [`Program`] with its schedule resolved — decode once, execute many.
/// Build with [`DecodedProgram::decode`], run with
/// [`run_decoded_group`] / [`run_decoded_on`] (the stage-inputs /
/// read-outputs round trip) or [`Machine::run_decoded`]. See the
/// module-level docs.
///
/// The slot space the tape indexes, in order: slot 0, NaN; a `D + 1`-deep
/// ring of per-`exec` PE-output arrays (the `exec` issued at cycle `c`
/// owns row `c % (D + 1)` until its results have landed, by the argument
/// that makes the writeback ring collision-free); then one slot per
/// register the replay saw occupied, numbered in order of first write —
/// a bank only ever fills a prefix of its addresses, so this is each
/// bank's peak occupancy, not `R` — and, after them in the same
/// numbering, the few scratch slots a self-overlapping `copy` needs.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    config: ArchConfig,
    /// Source instructions (= issue cycles before drain).
    instrs: usize,
    tape: Tape,
    /// Size of the slot space.
    slots: usize,
    /// Data-memory words, in whole rows from row 0, that cover every row
    /// the tape loads or stores.
    data_words: usize,
    /// Total cycles including the pipeline drain.
    cycles: u64,
    activity: Activity,
}

/// Decode's state: the register-file replay and the tape it lowers to.
struct Lowering {
    cfg: ArchConfig,
    /// The fourth instantiation of the register file (regfile.rs has the
    /// table): an in-flight writeback carries the slot its value waits
    /// in. What a *register* holds is never read back — its slot is
    /// `slots.reg(bank, addr).slot` — only whether it is valid.
    regs: RegFile<u32>,
    tape: Tape,
    slots: SlotMap,
    /// Rows of data memory, from row 0, that the tape touches.
    data_rows: usize,
    /// Every counter but `instr_bits_fetched`; `execs` doubles as the
    /// serial `fetched_in` records.
    activity: Activity,
    /// An `exec`'s source table — the slot each port and PE output
    /// resolves to, [`UNDEF`] if undriven or idle: ports `0..B`, then each
    /// layer's PEs tree-major. `layer_base[l - 1]` is layer `l`'s first
    /// entry, `layer_off[l - 1]` its first PE's `PeId::local_index`.
    src: Vec<u32>,
    layer_base: Vec<u32>,
    layer_off: Vec<u32>,
    /// A `copy`'s moves as `(source slot, destination)`, and the scratch
    /// slots one that overwrites its own sources goes through.
    staged: Vec<(u32, u32)>,
    scratch: Vec<u32>,
    /// The instruction being lowered, for [`SimError::Malformed`].
    pc: usize,
}

/// First slot of the PE-output ring; the registers follow the ring.
const RING_BASE: u32 = NAN_SLOT + 1;

/// What decode keeps per register, address-major (`addr * B + bank`) and
/// zero-extended as addresses are first written: a bank fills from
/// address 0, so the table is `B` times the fullest bank's peak, not `B×R`.
struct SlotMap {
    banks: usize,
    regs: Vec<RegSlot>,
    /// First register slot, and the next unassigned one.
    base: u32,
    next: u32,
}

#[derive(Clone, Copy, Default)]
struct RegSlot {
    /// The value slot the register lives in: assigned when it is first
    /// written, in that order, and kept — so the slot space holds each
    /// bank's peak occupancy. 0 (NaN's, never a register's) until then.
    slot: u32,
    /// Serial of the last `exec` that fetched the register: the broadcast
    /// memo. The first port of an `exec` to read a register fetches it,
    /// later ports share the fetch — keyed on `(bank, addr)`, the decision
    /// [`Machine::step`] makes by scanning its fetched list, so the two
    /// count identical register reads on any instruction, validated or
    /// not.
    fetched_in: u32,
}

impl SlotMap {
    /// The entry of a register that has been written.
    fn reg(&mut self, bank: u32, addr: u32) -> &mut RegSlot {
        &mut self.regs[addr as usize * self.banks + bank as usize]
    }

    /// The slot of `(bank, addr)`, which is being written.
    fn assign(&mut self, bank: u32, addr: u32) -> u32 {
        let at = addr as usize * self.banks + bank as usize;
        if at >= self.regs.len() {
            self.regs
                .resize((addr as usize + 1) * self.banks, RegSlot::default());
        }
        if self.regs[at].slot == 0 {
            self.regs[at].slot = self.fresh();
        }
        self.regs[at].slot
    }

    /// A slot no register owns (`copy` scratch).
    fn fresh(&mut self) -> u32 {
        self.next += 1;
        self.next - 1
    }
}

impl Lowering {
    fn malformed(&self, what: &'static str) -> SimError {
        SimError::Malformed {
            instr: self.pc,
            what,
        }
    }

    /// A register read: the slot of `(bank, addr)` if it is valid, freed
    /// afterwards on a last read.
    fn read(&mut self, bank: u32, addr: u32, valid_rst: bool) -> Result<u32, SimError> {
        if bank >= self.cfg.banks || addr >= self.cfg.regs_per_bank {
            return Err(self.malformed("a read names a register that does not exist"));
        }
        if self.regs.read(bank, addr).is_none() {
            return Err(SimError::ReadInvalid {
                bank,
                addr,
                cycle: self.regs.cycle(),
            });
        }
        if valid_rst {
            self.regs.free(bank, addr);
        }
        Ok(self.slots.reg(bank, addr).slot)
    }

    /// Word index of `(row, 0)` for a `load`/`store`, once the row is
    /// known to lie in the data memory.
    fn row(&mut self, row: u32) -> Result<u32, SimError> {
        let first = u64::from(row) * u64::from(self.cfg.banks);
        // The tape indexes data words with a `u32`.
        let indexable = first + u64::from(self.cfg.banks) <= u64::from(u32::MAX);
        if row >= self.cfg.data_mem_rows || !indexable {
            return Err(SimError::RowOutOfRange { row });
        }
        self.data_rows = self.data_rows.max(row as usize + 1);
        Ok(first as u32)
    }

    /// An immediate (`load`/`copy`) register write: the slot it fills.
    fn write(&mut self, bank: u32) -> Result<u32, SimError> {
        if bank >= self.cfg.banks {
            return Err(self.malformed("a write names a bank that does not exist"));
        }
        let addr = self
            .regs
            .write(bank, NAN_SLOT)
            .map_err(|f| stamp(f, self.regs.cycle()))?;
        self.activity.reg_writes += 1;
        Ok(self.slots.assign(bank, addr))
    }

    /// Ends the cycle — or, after the last instruction, drains the
    /// pipeline: each due `exec` result lands as a move out of the ring
    /// into the register the encoder picks.
    fn end_cycle(&mut self, drain: bool) -> Result<(), SimError> {
        let Lowering {
            regs,
            tape,
            slots,
            activity,
            ..
        } = self;
        let landed = |bank: u32, addr: u32, from: u32| {
            activity.reg_writes += 1;
            tape.push(Code::Move, slots.assign(bank, addr), from, 0);
        };
        let ended = if drain {
            regs.drain(landed)
        } else {
            regs.end_cycle(landed)
        };
        ended.map_err(|f| stamp(f, regs.cycle()))
    }

    fn load(&mut self, row: u32, mask: &[bool]) -> Result<(), SimError> {
        let row = self.row(row)?;
        self.activity.mem_reads += 1;
        for (bank, _) in mask.iter().enumerate().filter(|(_, &m)| m) {
            let dst = self.write(bank as u32)?;
            self.tape.push(Code::Load, dst, row + bank as u32, 0);
        }
        Ok(())
    }

    /// One word of a `store`/`store.k`: register `r` to column `col`.
    fn store_word(&mut self, row: u32, col: usize, r: &RegRead) -> Result<(), SimError> {
        let from = self.read(r.bank, r.addr, r.valid_rst)?;
        self.activity.reg_reads += 1;
        if col >= self.cfg.banks as usize {
            return Err(self.malformed("a store word lies outside its row"));
        }
        self.tape.push(Code::Store, row + col as u32, from, 0);
        Ok(())
    }

    fn copy(&mut self, moves: &[CopyMove]) -> Result<(), SimError> {
        // All reads happen before any write lands (crossbar pass).
        self.staged.clear();
        for m in moves {
            let from = self.read(m.src.bank, m.src.addr, m.src.valid_rst)?;
            self.activity.reg_reads += 1;
            self.activity.crossbar_hops += 1;
            self.staged.push((from, m.dst_bank));
        }
        for i in 0..self.staged.len() {
            self.staged[i].1 = self.write(self.staged[i].1)?;
        }
        // Hazard: a destination can be the very register a *later* move
        // of this instruction read and freed, and in-order moves would
        // then read what an earlier one just wrote. Such a `copy` reads
        // everything into scratch slots first, then writes.
        let staged = std::mem::take(&mut self.staged);
        let overlaps =
            (0..staged.len()).any(|i| staged[i + 1..].iter().any(|later| later.0 == staged[i].1));
        if overlaps {
            while self.scratch.len() < staged.len() {
                self.scratch.push(self.slots.fresh());
            }
            for (i, &(from, _)) in staged.iter().enumerate() {
                self.tape.push(Code::Move, self.scratch[i], from, 0);
            }
        }
        for (i, &(from, dst)) in staged.iter().enumerate() {
            let from = if overlaps { self.scratch[i] } else { from };
            self.tape.push(Code::Move, dst, from, 0);
        }
        self.staged = staged;
        Ok(())
    }

    fn exec(&mut self, e: &ExecInstr) -> Result<(), SimError> {
        let cfg = self.cfg;
        self.activity.execs += 1;
        // 1. Ports resolve straight to the register slot they read; a
        // broadcast fetches its register once. rst after all reads of the
        // cycle.
        self.src.fill(UNDEF);
        let serial = self.activity.execs as u32;
        for (port, r) in e.reads.iter().enumerate() {
            let Some(r) = r else { continue };
            let slot = self.read(r.bank, r.addr, false)?;
            if port >= cfg.banks as usize {
                return Err(self.malformed("an exec drives a port that does not exist"));
            }
            self.src[port] = slot;
            let fetched_in = &mut self.slots.reg(r.bank, r.addr).fetched_in;
            if *fetched_in != serial {
                *fetched_in = serial;
                self.activity.reg_reads += 1;
            }
            self.activity.crossbar_hops += 1;
        }
        for r in e.reads.iter().flatten().filter(|r| r.valid_rst) {
            self.regs.free(r.bank, r.addr);
        }
        // 2. Active PEs in the oracle's evaluation order. An arithmetic
        // PE writes its own slot in this cycle's row of the ring; a
        // bypass PE *is* its operand.
        let pes = cfg.pe_count();
        if e.pe_ops.len() < pes as usize {
            return Err(self.malformed("an exec has fewer opcodes than PEs"));
        }
        let row_base = RING_BASE + (self.regs.cycle() % u64::from(cfg.depth + 1)) as u32 * pes;
        let out_slot = |at: u32| row_base + at - cfg.banks;
        for l in 1..=cfg.depth {
            let n = cfg.pes_in_layer(l);
            // Layer 1 reads its tree's ports, layer `l` the layer below;
            // PE `i` takes inputs `2i` and `2i + 1` of its tree.
            let (below, per_tree) = match l {
                1 => (0, cfg.ports_per_tree()),
                _ => (self.layer_base[l as usize - 2], 2 * n),
            };
            let (base, off) = (
                self.layer_base[l as usize - 1],
                self.layer_off[l as usize - 1],
            );
            for t in 0..cfg.trees() {
                for i in 0..n {
                    let op = e.pe_ops[(t * cfg.pes_per_tree() + off + i) as usize];
                    if op == PeOpcode::Nop {
                        continue;
                    }
                    let operand = |at: u32| match self.src[at as usize] {
                        UNDEF => NAN_SLOT,
                        slot => slot,
                    };
                    let lo = below + t * per_tree + 2 * i;
                    let (a, b) = (operand(lo), operand(lo + 1));
                    let at = base + t * n + i;
                    let code = match op {
                        PeOpcode::BypassL | PeOpcode::BypassR => {
                            self.activity.pe_bypass_ops += 1;
                            self.src[at as usize] = if op == PeOpcode::BypassL { a } else { b };
                            continue;
                        }
                        PeOpcode::Add => Code::Add,
                        PeOpcode::Mul => Code::Mul,
                        PeOpcode::Sub => Code::Sub,
                        PeOpcode::Div => Code::Div,
                        PeOpcode::Min => Code::Min,
                        PeOpcode::Max => Code::Max,
                        PeOpcode::Nop => unreachable!("skipped above"),
                    };
                    self.activity.pe_arith_ops += 1;
                    self.src[at as usize] = out_slot(at);
                    self.tape.push(code, out_slot(at), a, b);
                }
            }
        }
        // 3. Writebacks land at the end of cycle + D, as moves out of the
        // ring.
        for (bank, w) in e.writes.iter().enumerate() {
            let Some(pe) = w else { continue };
            if bank >= cfg.banks as usize || !pe.is_valid(&cfg) {
                return Err(self.malformed("a writeback names a bank or PE that does not exist"));
            }
            let at = self.layer_base[pe.layer as usize - 1]
                + pe.tree * cfg.pes_in_layer(pe.layer)
                + pe.index;
            let mut from = self.src[at as usize];
            if from == UNDEF {
                return Err(SimError::IdlePeWriteback { bank: bank as u32 });
            }
            // Hazard: through bypasses the source can be a *register*
            // slot, and that register may be freed and written again
            // before cycle + D. Its value is snapshotted now, into the
            // bypass PE's own (otherwise unused) ring slot.
            if from >= self.slots.base {
                self.tape.push(Code::Move, out_slot(at), from, 0);
                from = out_slot(at);
            }
            self.regs.schedule([(bank as u32, from)]);
        }
        Ok(())
    }
}

impl DecodedProgram {
    /// Resolves `program`'s schedule and lowers it to a value tape, in
    /// one pass over its instructions.
    ///
    /// Every check the oracle makes per cycle is made here, once, in the
    /// oracle's order, so the verdict — `Ok`, or which error with which
    /// bank, address and cycle — is exactly [`Machine::run_program`]'s on
    /// a fresh machine. A program that decodes cannot fault when run.
    ///
    /// This is also where a [`Program`] literal that skipped
    /// [`Instr::validate`] is first indexed, so indices are bounds-checked
    /// as the replay goes: whatever would index outside the configuration
    /// is [`SimError::Malformed`], never a panic.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] but the batch and mismatch variants — each
    /// indicates a compiler bug or a corrupt program.
    pub fn decode(program: &Program) -> Result<DecodedProgram, SimError> {
        let cfg = program.config;
        // `ArchConfig`'s fields are public; the shifts by `depth` and the
        // divisions below rely on what its constructor checks.
        if cfg.depth >= u32::BITS
            || ArchConfig::with_topology(cfg.depth, cfg.banks, cfg.regs_per_bank, cfg.topology)
                .is_err()
        {
            return Err(SimError::Malformed {
                instr: 0,
                what: "the program's configuration is not a valid one",
            });
        }
        let mut layer_base = Vec::with_capacity(cfg.depth as usize);
        let mut layer_off = Vec::with_capacity(cfg.depth as usize);
        let (mut base, mut off) = (cfg.banks, 0);
        for l in 1..=cfg.depth {
            layer_base.push(base);
            layer_off.push(off);
            base += cfg.trees() * cfg.pes_in_layer(l);
            off += cfg.pes_in_layer(l);
        }
        let reg_base = RING_BASE + (cfg.depth + 1) * cfg.pe_count();
        let mut low = Lowering {
            cfg,
            regs: RegFile::new(&cfg, NAN_SLOT),
            tape: Tape::default(),
            slots: SlotMap {
                banks: cfg.banks as usize,
                regs: Vec::new(),
                base: reg_base,
                next: reg_base,
            },
            data_rows: 0,
            activity: Activity::default(),
            src: vec![UNDEF; base as usize],
            layer_base,
            layer_off,
            staged: Vec::new(),
            scratch: Vec::new(),
            pc: 0,
        };
        for (pc, instr) in program.instrs.iter().enumerate() {
            low.pc = pc;
            match instr {
                Instr::Nop => {}
                Instr::Load { row, mask } => low.load(*row, mask)?,
                Instr::Store { row, reads } => {
                    let row = low.row(*row)?;
                    low.activity.mem_writes += 1;
                    for (col, r) in reads.iter().enumerate() {
                        if let Some(r) = r {
                            low.store_word(row, col, r)?;
                        }
                    }
                }
                Instr::StoreK { row, reads } => {
                    let row = low.row(*row)?;
                    low.activity.mem_writes += 1;
                    // A `store.k` word lands at the column of its source
                    // bank.
                    for r in reads {
                        low.store_word(row, r.bank as usize, r)?;
                    }
                }
                Instr::CopyK { moves } => low.copy(moves)?,
                Instr::Exec(e) => low.exec(e)?,
            }
            low.end_cycle(false)?;
        }
        low.end_cycle(true)?;
        low.tape.steps.shrink_to_fit();
        low.activity.instr_bits_fetched =
            u64::from(encode::fetch_width(&cfg)) * program.instrs.len() as u64;
        Ok(DecodedProgram {
            config: cfg,
            instrs: program.instrs.len(),
            slots: low.slots.next as usize,
            data_words: low.data_rows * cfg.banks as usize,
            cycles: low.regs.cycle(),
            activity: low.activity,
            tape: low.tape,
        })
    }

    /// The configuration the program was decoded for.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Number of source instructions (= issue cycles before drain).
    pub fn len(&self) -> usize {
        self.instrs
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs == 0
    }

    /// Total cycles of a run, pipeline drain included — every run's, the
    /// schedule does not depend on the data.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The [`Activity`] of a run — every run's.
    pub fn activity(&self) -> Activity {
        self.activity
    }
}

impl Machine {
    /// Runs a decoded program over the machine's data memory, leaving
    /// outputs, [`Machine::cycle`] and [`Machine::activity`]
    /// byte-identical to the oracle's [`Machine::run_program`] on a
    /// machine with the same data memory and an empty register file.
    ///
    /// A decoded program *is* a schedule resolved from power-on, so the
    /// run neither reads nor updates the register file [`Machine::step`]
    /// drives, and the cycle count and counters it leaves are the
    /// program's, not added to what was there. It cannot fail: every
    /// fault a run could meet was raised by [`DecodedProgram::decode`].
    ///
    /// # Panics
    ///
    /// Panics if the machine's configuration differs from the one the
    /// program was decoded for ([`crate::run_decoded_on`] re-builds the
    /// machine instead of panicking).
    pub fn run_decoded(&mut self, prog: &DecodedProgram) {
        self.scalar.run_decoded(prog);
    }
}

impl<const L: usize> Lanes<L> {
    /// The production executor, `L` input sets in lockstep: one walk of
    /// the tape with every slot and data word `L` values wide. See
    /// [`Machine::run_decoded`], its `L = 1` case.
    ///
    /// No slot is cleared between runs, or between programs: the replay
    /// read a register only under a valid bit — after the step that wrote
    /// it — and a ring slot only in the `exec` that wrote it or the
    /// landing that follows, so every slot but NaN's is written before it
    /// is read, whatever an earlier run left there.
    fn run_decoded(&mut self, prog: &DecodedProgram) {
        assert_eq!(
            self.cfg, prog.config,
            "machine/program configuration mismatch"
        );
        if self.slots.len() < prog.slots {
            self.slots.resize(prog.slots, [0.0; L]);
        }
        self.slots[NAN_SLOT as usize] = [f32::NAN; L];
        // Rows above the slab read as zero; cover the program's
        // footprint once so the walk indexes instead of asking.
        if self.data.len() < prog.data_words {
            self.data.resize(prog.data_words, [0.0; L]);
        }
        let (slots, data) = (&mut self.slots[..], &mut self.data[..]);
        // BEGIN run_decoded cycle loop (the per-request walk: values only
        // — it allocates nothing, names no register-file method and
        // counts nothing; lint-enforced by tests/forbidden_patterns.rs).
        // One dispatch per run, then a straight loop over its steps.
        #[inline(always)]
        fn pe<const L: usize>(slots: &mut [[f32; L]], steps: &[Step], op: PeOpcode) {
            for s in steps {
                slots[s.dst as usize] = op.apply_lanes(slots[s.a as usize], slots[s.b as usize]);
            }
        }
        let mut rest = &prog.tape.steps[..];
        for run in &prog.tape.runs {
            let (steps, after) = rest.split_at(run.len as usize);
            rest = after;
            match run.code {
                Code::Load => {
                    for s in steps {
                        slots[s.dst as usize] = data[s.a as usize];
                    }
                }
                Code::Store => {
                    for s in steps {
                        data[s.dst as usize] = slots[s.a as usize];
                    }
                }
                Code::Move => {
                    for s in steps {
                        slots[s.dst as usize] = slots[s.a as usize];
                    }
                }
                Code::Add => pe(slots, steps, PeOpcode::Add),
                Code::Mul => pe(slots, steps, PeOpcode::Mul),
                Code::Sub => pe(slots, steps, PeOpcode::Sub),
                Code::Div => pe(slots, steps, PeOpcode::Div),
                Code::Min => pe(slots, steps, PeOpcode::Min),
                Code::Max => pe(slots, steps, PeOpcode::Max),
            }
        }
        // END run_decoded cycle loop
        self.cycles = prog.cycles;
        self.activity = prog.activity;
    }

    /// One run of `decoded`, `L` input sets wide: stage, walk the tape,
    /// read back.
    fn run_staged(
        &mut self,
        compiled: &Compiled,
        decoded: &DecodedProgram,
        inputs: [&[f32]; L],
    ) -> Result<[RunResult; L], SimError> {
        self.stage(compiled, inputs)?;
        self.run_decoded(decoded);
        self.read_back(compiled)
    }

    /// Runs `chunk` — at most `L` input sets — through `decoded` in one
    /// pass and appends one result per input. A chunk shorter than `L`
    /// repeats its last input in the spare lanes and drops their results.
    fn run_chunk(
        &mut self,
        compiled: &Compiled,
        decoded: &DecodedProgram,
        chunk: &[impl AsRef<[f32]>],
        results: &mut Vec<Result<RunResult, SimError>>,
    ) {
        let lanes = std::array::from_fn(|lane| chunk[lane.min(chunk.len() - 1)].as_ref());
        match self.run_staged(compiled, decoded, lanes) {
            Ok(runs) => results.extend(runs.into_iter().take(chunk.len()).map(Ok)),
            Err(e) => results.extend(chunk.iter().map(|_| Err(e.clone()))),
        }
    }
}

/// Runs `compiled` once per input set of `inputs` (each in input-ordinal
/// order) on a caller-owned [`Machine`], returning one result per input in
/// order. This is the serving hot path — decode once, keep one machine per
/// worker, call this per group of requests that share a program.
///
/// A compiled schedule does not depend on the data, so the group is cut
/// into chunks of eight that each go through the tape **once**, eight
/// lanes wide. A ragged last chunk of two or more is padded by repeating
/// its last input; a lone last input runs one lane wide. The rule was
/// read off the per-`L` table in DESIGN.md §2 "Lanes" while the walk
/// dispatched once per step and cost about the same at either width.
/// Dispatching once per run cut the one-lane walk by more than the
/// eight-lane one: a pass now costs what 1.7 (PC 6 000) to 4 (SpMV 500)
/// one-lane runs do, so a padded pair still gains on the largest PC and
/// loses on the sparse kernels (the table has both). Either way every
/// result is byte-identical to running that input alone, and to the
/// oracle's [`crate::run_on`]; cycles and [`Activity`] are the program's,
/// read off `decoded`.
///
/// The machine's data memory is reset per chunk (the machine is rebuilt
/// if its configuration is not the program's); its eight-lane state is
/// built by the first chunk that needs it and kept. `decoded` must be the
/// decode of `compiled.program`.
///
/// # Errors
///
/// Per input, [`SimError::RowOutOfRange`] if the layout stages an input
/// or reads an output outside the data memory. Program faults are
/// [`DecodedProgram::decode`]'s.
///
/// # Panics
///
/// Panics if an input set does not match the DAG's input count, or if
/// `decoded` was built for a different configuration than `compiled`.
pub fn run_decoded_group(
    m: &mut Machine,
    compiled: &Compiled,
    decoded: &DecodedProgram,
    inputs: &[impl AsRef<[f32]>],
) -> Vec<Result<RunResult, SimError>> {
    let cfg = compiled.program.config;
    assert_eq!(
        *decoded.config(),
        cfg,
        "decoded program configuration mismatch"
    );
    m.prepare(cfg);
    let mut results = Vec::with_capacity(inputs.len());
    for chunk in inputs.chunks(WIDE) {
        if chunk.len() == 1 {
            m.scalar.run_chunk(compiled, decoded, chunk, &mut results);
        } else {
            m.wide
                .get_or_insert_with(|| Box::new(Lanes::new(cfg)))
                .run_chunk(compiled, decoded, chunk, &mut results);
        }
    }
    results
}

/// [`run_decoded_group`] for one input set: decode once, keep one machine,
/// call this per run.
///
/// # Errors
///
/// As [`run_decoded_group`].
///
/// # Panics
///
/// As [`run_decoded_group`].
pub fn run_decoded_on(
    m: &mut Machine,
    compiled: &Compiled,
    decoded: &DecodedProgram,
    inputs: &[f32],
) -> Result<RunResult, SimError> {
    run_decoded_group(m, compiled, decoded, &[inputs])
        .pop()
        .expect("one result per input")
}

/// One-shot run: decode `compiled.program`, build a fresh machine, run it
/// on `inputs` — the form for callers that execute a program once
/// (`Dpu::execute`, the DSE sweep, the experiment binaries). Callers that
/// run one program many times decode once and call [`run_decoded_on`] or
/// [`run_decoded_group`].
///
/// # Errors
///
/// See [`SimError`]; program faults are reported by the decode.
///
/// # Panics
///
/// Panics if `inputs` does not match the DAG's input count.
pub fn execute(compiled: &Compiled, inputs: &[f32]) -> Result<RunResult, SimError> {
    let decoded = DecodedProgram::decode(&compiled.program)?;
    let mut m = Machine::new(compiled.program.config);
    run_decoded_on(&mut m, compiled, &decoded, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_compiler::{compile, CompileOptions};
    use dpu_dag::{DagBuilder, NodeId, Op};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Each step's code, read back off the runs.
    fn codes(tape: &Tape) -> Vec<Code> {
        let mut codes = Vec::new();
        for run in &tape.runs {
            codes.extend(std::iter::repeat_n(run.code, run.len as usize));
        }
        codes
    }

    /// The runs are the maximal runs of the codes pushed: none empty,
    /// adjacent ones different, together every step once, in order.
    fn assert_maximal_runs(tape: &Tape) {
        assert!(tape.runs.iter().all(|run| run.len > 0), "an empty run");
        assert!(
            tape.runs.windows(2).all(|w| w[0].code != w[1].code),
            "adjacent runs share a code"
        );
        let covered: usize = tape.runs.iter().map(|run| run.len as usize).sum();
        assert_eq!(covered, tape.steps.len(), "the runs cover every step once");
    }

    #[test]
    fn pushes_cut_into_maximal_runs() {
        use Code::*;
        let pushed = [
            Load, Load, Add, Add, Mul, Add, Move, Move, Move, Store, Load,
        ];
        let mut tape = Tape::default();
        for (i, &code) in pushed.iter().enumerate() {
            tape.push(code, i as u32, 0, 0);
        }
        assert_maximal_runs(&tape);
        let runs: Vec<_> = tape.runs.iter().map(|run| (run.code, run.len)).collect();
        assert_eq!(
            runs,
            [
                (Load, 2),
                (Add, 2),
                (Mul, 1),
                (Add, 1),
                (Move, 3),
                (Store, 1),
                (Load, 1)
            ]
        );
        assert_eq!(codes(&tape), pushed);
        let dsts: Vec<_> = tape.steps.iter().map(|s| s.dst).collect();
        assert_eq!(dsts, (0..pushed.len() as u32).collect::<Vec<_>>());
    }

    /// A spilling program whose loads, stores, landings and PE layers of
    /// four opcodes interleave: its tape's runs are maximal, and each
    /// step's code fits the slots it names — a load fills a register slot
    /// from a data word, a PE writes the ring, a store writes a data word.
    #[test]
    fn a_decoded_tape_is_cut_into_maximal_runs() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut b = DagBuilder::new();
        let mut ids: Vec<NodeId> = (0..16).map(|_| b.input()).collect();
        for _ in 0..300 {
            let i = ids[rng.gen_range(0..ids.len())];
            let j = ids[rng.gen_range(0..ids.len())];
            let op = [Op::Add, Op::Mul, Op::Min, Op::Max][rng.gen_range(0..4usize)];
            ids.push(b.node(op, &[i, j]).unwrap());
        }
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 4).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        assert!(compiled.stats.spill_stores > 0, "the program spills");
        let decoded = DecodedProgram::decode(&compiled.program).unwrap();
        let tape = &decoded.tape;
        assert_maximal_runs(tape);

        let ring_end = RING_BASE + (cfg.depth + 1) * cfg.pe_count();
        let data = decoded.data_words as u32;
        for (s, code) in tape.steps.iter().zip(codes(tape)) {
            match code {
                Code::Load => assert!(s.a < data && s.dst >= ring_end, "load {s:?}"),
                Code::Store => assert!(s.dst < data && s.a > NAN_SLOT, "store {s:?}"),
                Code::Move => assert!(s.dst > NAN_SLOT && s.dst < decoded.slots as u32),
                _ => assert!((RING_BASE..ring_end).contains(&s.dst), "PE {s:?}"),
            }
        }
        // Every kind of step recurs in runs apart from each other, and the
        // PE layers alternate opcodes.
        for code in [Code::Load, Code::Store, Code::Move, Code::Add, Code::Max] {
            let runs = tape.runs.iter().filter(|run| run.code == code).count();
            assert!(runs > 1, "{code:?} forms {runs} runs");
        }
        let pe_to_pe = tape.runs.windows(2).any(|w| {
            let pe = |c: Code| !matches!(c, Code::Load | Code::Store | Code::Move);
            pe(w[0].code) && pe(w[1].code)
        });
        assert!(pe_to_pe, "no run of one opcode follows another's");
        assert!(
            tape.runs.len() < tape.steps.len(),
            "some run is longer than one step"
        );
    }
}
