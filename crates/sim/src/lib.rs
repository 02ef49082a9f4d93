//! Cycle-level simulator of the DPU-v2 architecture template (§III).
//!
//! The simulator executes a compiled [`Program`] on a software model of the
//! micro-architecture:
//!
//! - `B` register banks of `R` registers, each with a valid bit and a
//!   priority-encoder **automatic write-address generator** (§III-B,
//!   Fig. 5(d)): the instruction stream never names write addresses, the
//!   bank picks the lowest empty register itself;
//! - `T` PE trees of depth `D` with per-PE opcodes (add/mul/sub/div/
//!   min/max/bypass), registered outputs and a `D+1`-stage pipeline:
//!   `exec` writebacks land `D` cycles after issue;
//! - an input crossbar (with broadcast) and the configurable output
//!   interconnect of Fig. 6;
//! - a vector data memory of `B`-word rows (Fig. 5(b)).
//!
//! Timing is deterministic and agrees with the compiler's finalize
//! replay and the static verifier by construction: the register file —
//! valid bits, write-address generator, writeback ring, cycle counter —
//! is [`dpu_isa::RegFile`], which all of them instantiate. One
//! instruction issues per cycle, and the simulator *checks* rather than
//! tolerates hazards — reading an empty register, clashing writebacks or
//! bank overflow reject the program ([`SimError`]). Functional results are
//! compared against the reference evaluator by [`run_and_verify`], which
//! is the end-to-end proof that compiler and architecture agree.
//!
//! # Two executors, one of them for tests
//!
//! - **Production:** [`DecodedProgram::decode`] → [`Machine::run_decoded`].
//!   Nothing but the values depends on the input data, so decode replays
//!   the register file **once** per program and lowers it to a
//!   straight-line value tape: register addresses, landing cycles, the
//!   cycle count, [`Activity`] and every fault are computed there, and a
//!   run only moves values. [`execute`] is the one-shot form (decode,
//!   fresh machine, run); [`run_decoded_group`] is the decode-once/run-many
//!   form the serving runtime and [`run_batch`] use — one program over a
//!   slice of input sets, eight of them per walk of the tape, which is
//!   generic over the lane count; [`run_decoded_on`] is its one-input
//!   case. Everything that reports a number — `Dpu::execute`, the serving
//!   engine, the DSE sweep, every experiment binary — goes through these.
//! - **Oracle:** [`Machine::step`] / [`Machine::run_program`] / [`run`] /
//!   [`run_on`] interpret the [`Instr`] enum directly against a register
//!   file that holds values. They are the plain specification of the ISA
//!   semantics, written for reading rather than speed, and exist so the
//!   differential tests have something independent to compare the decoded
//!   executor against (and so a per-cycle probe such as the Fig. 10
//!   occupancy sampler can single-step a machine). No serving or
//!   measurement path calls them — `tests/forbidden_patterns.rs` enforces
//!   that.
//!
//! # Example
//!
//! ```
//! use dpu_dag::{DagBuilder, Op};
//! use dpu_isa::ArchConfig;
//! use dpu_compiler::{compile, CompileOptions};
//! use dpu_sim::run_and_verify;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let x = b.input();
//! let y = b.input();
//! let s = b.node(Op::Add, &[x, y])?;
//! b.node(Op::Mul, &[s, s])?;
//! let dag = b.finish()?;
//! let cfg = ArchConfig::new(2, 8, 16)?;
//! let compiled = compile(&dag, &cfg, &CompileOptions::default())?;
//! let report = run_and_verify(&compiled, &[1.5, 2.5])?;
//! assert!(report.verified);
//! assert!(report.result.cycles > 0);
//! # Ok(())
//! # }
//! ```

use dpu_compiler::Compiled;
use dpu_dag::eval;
use dpu_isa::{encode, ArchConfig, Fault, Instr, PeOpcode, Program, RegFile};

mod decoded;
pub mod planner;
pub use decoded::{execute, run_decoded_group, run_decoded_on, DecodedProgram};
pub use planner::{plan_rounds, BatchPlan, RoundPlan};

/// Simulation errors — every variant indicates a compiler bug or a corrupt
/// program, never a data-dependent condition.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A register was read while its valid bit was 0.
    ReadInvalid {
        /// Bank read.
        bank: u32,
        /// Address read.
        addr: u32,
        /// Issue cycle.
        cycle: u64,
    },
    /// A bank received two writes in one cycle (single write port).
    WritePortClash {
        /// The bank.
        bank: u32,
        /// The cycle.
        cycle: u64,
    },
    /// A bank had no empty register for an incoming write.
    BankOverflow {
        /// The bank.
        bank: u32,
        /// The cycle.
        cycle: u64,
    },
    /// A `load`/`store` addressed a row outside the data memory.
    RowOutOfRange {
        /// The row.
        row: u32,
    },
    /// An exec writeback selected an idle PE.
    IdlePeWriteback {
        /// The bank latching the idle output.
        bank: u32,
    },
    /// An instruction does not fit the program's configuration — an
    /// operand vector of the wrong length, a bank, port or PE that does
    /// not exist. Only a [`Program`] literal that skipped
    /// [`Instr::validate`] can carry one; [`DecodedProgram::decode`]
    /// reports it instead of indexing out of range.
    Malformed {
        /// Index of the instruction.
        instr: usize,
        /// What does not fit.
        what: &'static str,
    },
    /// A batch run was requested with zero cores.
    NoCores,
    /// A batch run was requested with an empty batch.
    EmptyBatch,
    /// The simulator's outputs disagree with the reference evaluator.
    Mismatch {
        /// Index of the first mismatching output.
        index: usize,
        /// Simulator value.
        got: f32,
        /// Reference value.
        expected: f32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ReadInvalid { bank, addr, cycle } => {
                write!(f, "cycle {cycle}: read of empty register {bank}:{addr}")
            }
            SimError::WritePortClash { bank, cycle } => {
                write!(f, "cycle {cycle}: two writes to bank {bank}")
            }
            SimError::BankOverflow { bank, cycle } => {
                write!(f, "cycle {cycle}: bank {bank} overflowed")
            }
            SimError::RowOutOfRange { row } => write!(f, "data row {row} out of range"),
            SimError::IdlePeWriteback { bank } => {
                write!(f, "bank {bank} latches an idle PE output")
            }
            SimError::Malformed { instr, what } => write!(f, "instruction {instr}: {what}"),
            SimError::NoCores => write!(f, "batch run requested with zero cores"),
            SimError::EmptyBatch => write!(f, "batch run requested with an empty batch"),
            SimError::Mismatch {
                index,
                got,
                expected,
            } => {
                write!(f, "output {index}: simulated {got}, reference {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Activity counters feeding the energy model (`dpu-energy`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Activity {
    /// Register-file reads (one per distinct bank read per instruction).
    pub reg_reads: u64,
    /// Register-file writes.
    pub reg_writes: u64,
    /// Data-memory row reads (loads).
    pub mem_reads: u64,
    /// Data-memory row writes (stores).
    pub mem_writes: u64,
    /// Arithmetic PE evaluations (excluding bypasses).
    pub pe_arith_ops: u64,
    /// Bypass PE evaluations.
    pub pe_bypass_ops: u64,
    /// `exec` instructions issued.
    pub execs: u64,
    /// Crossbar traversals (port reads routed through the input crossbar
    /// plus copy moves).
    pub crossbar_hops: u64,
    /// Instruction bits fetched (cycles × IL).
    pub instr_bits_fetched: u64,
}

impl Activity {
    /// Accumulates `other` into `self` — used by batch/serving paths that
    /// aggregate per-run counters into one report.
    pub fn absorb(&mut self, other: &Activity) {
        // Exhaustive destructuring (no `..`): adding a counter to the
        // struct without aggregating it here is a compile error.
        let Activity {
            reg_reads,
            reg_writes,
            mem_reads,
            mem_writes,
            pe_arith_ops,
            pe_bypass_ops,
            execs,
            crossbar_hops,
            instr_bits_fetched,
        } = *other;
        self.reg_reads += reg_reads;
        self.reg_writes += reg_writes;
        self.mem_reads += mem_reads;
        self.mem_writes += mem_writes;
        self.pe_arith_ops += pe_arith_ops;
        self.pe_bypass_ops += pe_bypass_ops;
        self.execs += execs;
        self.crossbar_hops += crossbar_hops;
        self.instr_bits_fetched += instr_bits_fetched;
    }
}

/// Result of one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Total cycles including the pipeline drain.
    pub cycles: u64,
    /// Output values read back from data memory, one per
    /// [`dpu_compiler::DataLayout::output_slots`] entry.
    pub outputs: Vec<f32>,
    /// Activity counters.
    pub activity: Activity,
    /// Arithmetic DAG operations; operations / time gives the GOPS metric
    /// the paper reports (DAG nodes, not PE activations).
    pub dag_ops: u64,
}

/// Lanes of the wide instantiation: how many input sets one pass of
/// [`run_decoded_group`] carries through a decoded program in lockstep.
const WIDE: usize = 8;

/// The micro-architectural state.
///
/// Two executors share it. The production one walks a
/// [`DecodedProgram`]'s value tape and needs only data memory and value
/// slots, `L` input sets wide: private `Lanes<L>`, instantiated at `L = 1`
/// and at `L = 8` (built by the first [`run_decoded_group`] call with a
/// chunk wide enough to pad). The oracle interprets instructions against
/// a register file with values, one lane wide, over the one-lane data
/// memory.
#[derive(Debug, Clone)]
pub struct Machine {
    scalar: Lanes<1>,
    wide: Option<Box<Lanes<WIDE>>>,
    /// The oracle's register file: valid bits, the automatic
    /// write-address generator, the `D+1`-slot writeback ring and the
    /// cycle counter — `dpu_isa`'s one statement of the write policy,
    /// instantiated with values (regfile.rs has the table of
    /// instantiations). Only [`Machine::step`] drives it; a decoded run
    /// replayed it once, at decode.
    regs: RegFile<[f32; 1]>,
}

/// What a tape walk reads and writes, with `L` values in every
/// data-memory word and value slot, and what the last run reported.
#[derive(Debug, Clone)]
struct Lanes<const L: usize> {
    cfg: ArchConfig,
    /// Data memory, one flat slab of `B`-word rows, zero-extended on first
    /// write: it holds rows `0..len / B`, and every row above reads as
    /// zero without being stored. The compiler lays inputs, outputs and
    /// spills out from row 0, so a run backs only the few rows it touches
    /// — not the `data_mem_rows` the configuration allows (2 MB per lane
    /// on DPU-v2 (L)). `reset` empties the slab and keeps its capacity;
    /// the next run re-zeroes what it extends over.
    data: Vec<[f32; L]>,
    /// The value slots a [`DecodedProgram`]'s tape indexes (its docs have
    /// the layout), grown to the largest program run so far and never
    /// cleared: a tape writes every slot before it reads it.
    slots: Vec<[f32; L]>,
    /// Elapsed cycles and activity: the oracle's running counts, or the
    /// constants of the decoded program that ran last.
    cycles: u64,
    activity: Activity,
}

impl<const L: usize> Lanes<L> {
    fn new(cfg: ArchConfig) -> Self {
        Lanes {
            cfg,
            data: Vec::new(),
            slots: Vec::new(),
            cycles: 0,
            activity: Activity::default(),
        }
    }

    fn reset(&mut self) {
        self.data.clear();
        self.cycles = 0;
        self.activity = Activity::default();
    }

    /// Data-memory word `(row, col)`.
    fn word(&self, row: u32, col: u32) -> [f32; L] {
        assert!(col < self.cfg.banks, "column {col} outside the row");
        let at = row as usize * self.cfg.banks as usize + col as usize;
        self.data.get(at).copied().unwrap_or([0.0; L])
    }

    /// Data-memory word `(row, col)` for writing; zero-extends the slab
    /// to cover `row` (within the capacity a previous run left, so only
    /// a program's first run on this machine allocates).
    fn word_mut(&mut self, row: u32, col: u32) -> &mut [f32; L] {
        assert!(col < self.cfg.banks, "column {col} outside the row");
        let banks = self.cfg.banks as usize;
        let at = row as usize * banks + col as usize;
        if at >= self.data.len() {
            self.data.resize((row as usize + 1) * banks, [0.0; L]);
        }
        &mut self.data[at]
    }

    fn check_row(&self, row: u32) -> Result<(), SimError> {
        if row < self.cfg.data_mem_rows {
            Ok(())
        } else {
            Err(SimError::RowOutOfRange { row })
        }
    }

    fn poke(&mut self, row: u32, col: u32, word: [f32; L]) -> Result<(), SimError> {
        self.check_row(row)?;
        *self.word_mut(row, col) = word;
        Ok(())
    }

    fn peek(&self, row: u32, col: u32) -> Result<[f32; L], SimError> {
        self.check_row(row)?;
        Ok(self.word(row, col))
    }

    /// The host side of a run before the program, shared by both
    /// executors: reset, then stage one input set per lane into data
    /// memory.
    fn stage(&mut self, compiled: &Compiled, inputs: [&[f32]; L]) -> Result<(), SimError> {
        let layout = &compiled.layout;
        for lane in inputs {
            assert_eq!(lane.len(), layout.input_slots.len(), "input count mismatch");
        }
        self.reset();
        for (slot, &(row, col)) in layout.input_slots.iter().enumerate() {
            if row != u32::MAX {
                self.poke(row, col, inputs.map(|lane| lane[slot]))?;
            }
        }
        Ok(())
    }

    /// The host side of a run after the program: each lane's outputs read
    /// back from data memory. Cycles and [`Activity`] are the program's,
    /// so every lane reports the same ones.
    fn read_back(&self, compiled: &Compiled) -> Result<[RunResult; L], SimError> {
        let layout = &compiled.layout;
        let mut outputs: [Vec<f32>; L] =
            std::array::from_fn(|_| Vec::with_capacity(layout.output_slots.len()));
        for &(row, col) in &layout.output_slots {
            for (lane, v) in outputs.iter_mut().zip(self.peek(row, col)?) {
                lane.push(v);
            }
        }
        Ok(outputs.map(|outputs| RunResult {
            cycles: self.cycles,
            outputs,
            activity: self.activity,
            dag_ops: compiled.bin_dag.op_count() as u64,
        }))
    }
}

/// Stamps a register-file fault with the cycle it happened in.
fn stamp(fault: Fault, cycle: u64) -> SimError {
    match fault {
        Fault::Full { bank } => SimError::BankOverflow { bank, cycle },
        Fault::PortClash { bank } => SimError::WritePortClash { bank, cycle },
    }
}

impl Machine {
    /// Creates a machine with all registers invalid and zeroed data memory.
    pub fn new(cfg: ArchConfig) -> Self {
        Machine {
            scalar: Lanes::new(cfg),
            wide: None,
            regs: RegFile::new(&cfg, [0.0]),
        }
    }

    /// Returns the machine to its power-on state — all registers invalid,
    /// data memory zeroed, no in-flight writebacks, cycle 0, activity
    /// cleared — **without reallocating** the register file or data
    /// memory. Serving paths call this between requests so per-request
    /// allocation disappears from the hot path; a reset machine behaves
    /// identically to a fresh [`Machine::new`] with the same config.
    pub fn reset(&mut self) {
        self.scalar.reset();
        self.regs.clear();
    }

    /// The configuration this machine models.
    pub fn config(&self) -> &ArchConfig {
        &self.scalar.cfg
    }

    /// Writes `value` into data-memory word `(row, col)` — the host-side
    /// interface used to stage program inputs.
    ///
    /// # Errors
    ///
    /// [`SimError::RowOutOfRange`] if `row` is out of range.
    pub fn poke(&mut self, row: u32, col: u32, value: f32) -> Result<(), SimError> {
        self.scalar.poke(row, col, [value])
    }

    /// Reads data-memory word `(row, col)`.
    ///
    /// # Errors
    ///
    /// [`SimError::RowOutOfRange`] if `row` is out of range.
    pub fn peek(&self, row: u32, col: u32) -> Result<f32, SimError> {
        self.scalar.peek(row, col).map(|[v]| v)
    }

    /// Elapsed cycles: the oracle's count so far, or the length of the
    /// decoded program that ran last.
    pub fn cycle(&self) -> u64 {
        self.scalar.cycles
    }

    /// Number of valid (occupied) registers in each bank of the oracle's
    /// register file — the Fig. 10(c/d) "active registers per bank"
    /// metric.
    pub fn occupancy_per_bank(&self) -> Vec<u32> {
        self.regs.occupancy().collect()
    }

    /// Accumulated activity counters.
    pub fn activity(&self) -> Activity {
        self.scalar.activity
    }

    /// Makes this a machine for programs compiled for `cfg`: rebuilt if
    /// it models another configuration, untouched otherwise.
    fn prepare(&mut self, cfg: ArchConfig) {
        if *self.config() != cfg {
            *self = Machine::new(cfg);
        }
    }

    fn reg(&self, bank: u32, addr: u32) -> Result<f32, SimError> {
        let [v] = self.regs.read(bank, addr).ok_or(SimError::ReadInvalid {
            bank,
            addr,
            cycle: self.regs.cycle(),
        })?;
        Ok(v)
    }

    /// An immediate (`load`/`copy`) register write, counted.
    fn put(&mut self, bank: u32, value: f32) -> Result<(), SimError> {
        self.regs
            .write(bank, [value])
            .map_err(|f| stamp(f, self.regs.cycle()))?;
        self.scalar.activity.reg_writes += 1;
        Ok(())
    }

    /// Ends the cycle: lands the due `exec` writebacks, counted.
    fn end_cycle(&mut self) -> Result<(), SimError> {
        let writes = &mut self.scalar.activity.reg_writes;
        self.regs
            .end_cycle(|_, _, _| *writes += 1)
            .map_err(|f| stamp(f, self.regs.cycle()))?;
        self.scalar.cycles = self.regs.cycle();
        Ok(())
    }

    /// Drains the pipeline: ends cycles until nothing is in flight.
    fn drain(&mut self) -> Result<(), SimError> {
        let writes = &mut self.scalar.activity.reg_writes;
        self.regs
            .drain(|_, _, _| *writes += 1)
            .map_err(|f| stamp(f, self.regs.cycle()))?;
        self.scalar.cycles = self.regs.cycle();
        Ok(())
    }

    /// Reads `(bank, addr)` for a `store`/`copy` word, clearing the valid
    /// bit on a last read.
    fn read_word(&mut self, bank: u32, addr: u32, valid_rst: bool) -> Result<f32, SimError> {
        let v = self.reg(bank, addr)?;
        self.scalar.activity.reg_reads += 1;
        if valid_rst {
            self.regs.free(bank, addr);
        }
        Ok(v)
    }

    /// Issues one instruction (one cycle) and lands due writebacks.
    ///
    /// This is the **reference oracle**: the ISA semantics written out
    /// plainly, with local `Vec`s and linear scans, for tests to compare
    /// [`Machine::run_decoded`] against. It is not tuned, it is one lane
    /// wide, and nothing on a serving or measurement path calls it (see
    /// the crate docs).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn step(&mut self, instr: &Instr) -> Result<(), SimError> {
        let cfg = self.scalar.cfg;
        match instr {
            Instr::Nop => {}
            Instr::Load { row, mask } => {
                self.scalar.check_row(*row)?;
                self.scalar.activity.mem_reads += 1;
                for (bank, &m) in mask.iter().enumerate() {
                    if m {
                        let [v] = self.scalar.word(*row, bank as u32);
                        self.put(bank as u32, v)?;
                    }
                }
            }
            Instr::Store { row, reads } => {
                self.scalar.check_row(*row)?;
                self.scalar.activity.mem_writes += 1;
                for (col, r) in reads.iter().enumerate() {
                    if let Some(r) = r {
                        let v = self.read_word(r.bank, r.addr, r.valid_rst)?;
                        *self.scalar.word_mut(*row, col as u32) = [v];
                    }
                }
            }
            Instr::StoreK { row, reads } => {
                self.scalar.check_row(*row)?;
                self.scalar.activity.mem_writes += 1;
                // A `store.k` word lands at the column of its source bank.
                for r in reads {
                    let v = self.read_word(r.bank, r.addr, r.valid_rst)?;
                    *self.scalar.word_mut(*row, r.bank) = [v];
                }
            }
            Instr::CopyK { moves } => {
                // All reads happen before any write lands (crossbar pass).
                let mut staged = Vec::with_capacity(moves.len());
                for m in moves {
                    let v = self.read_word(m.src.bank, m.src.addr, m.src.valid_rst)?;
                    self.scalar.activity.crossbar_hops += 1;
                    staged.push((m.dst_bank, v));
                }
                for (bank, v) in staged {
                    self.put(bank, v)?;
                }
            }
            Instr::Exec(e) => {
                self.scalar.activity.execs += 1;
                // 1. Operand fetch through the input crossbar. A broadcast
                // (the same `(bank, addr)` on several ports) reads the
                // register file once: the first port fetches, later ports
                // find it in `fetched`. `DecodedProgram::decode` makes the
                // same decision, keyed on the same `(bank, addr)`.
                let mut fetched: Vec<(u32, u32, f32)> = Vec::new();
                let mut port_vals: Vec<Option<f32>> = vec![None; cfg.banks as usize];
                for (port, r) in e.reads.iter().enumerate() {
                    let Some(r) = r else { continue };
                    let hit = fetched.iter().find(|f| (f.0, f.1) == (r.bank, r.addr));
                    let v = match hit {
                        Some(&(_, _, v)) => v,
                        None => {
                            let v = self.reg(r.bank, r.addr)?;
                            self.scalar.activity.reg_reads += 1;
                            fetched.push((r.bank, r.addr, v));
                            v
                        }
                    };
                    self.scalar.activity.crossbar_hops += 1;
                    port_vals[port] = Some(v);
                }
                // rst after all reads of the cycle (idempotent per bank).
                for r in e.reads.iter().flatten() {
                    if r.valid_rst {
                        self.regs.free(r.bank, r.addr);
                    }
                }
                // 2. Evaluate the trees layer by layer; `layer_out[l - 1]`
                // holds layer `l`'s outputs, `None` for an idle PE.
                let mut layer_out: Vec<Vec<Option<f32>>> = Vec::new();
                for l in 1..=cfg.depth {
                    // Layer 1 reads its tree's ports, layer `l` the layer
                    // below it; both are laid out tree-major, and PE `i`
                    // takes inputs `2i` and `2i + 1` of its tree.
                    let (prev, inputs_per_tree) = match layer_out.last() {
                        None => (&port_vals, cfg.ports_per_tree()),
                        Some(below) => (below, cfg.pes_in_layer(l - 1)),
                    };
                    let mut outs = vec![None; (cfg.trees() * cfg.pes_in_layer(l)) as usize];
                    for t in 0..cfg.trees() {
                        for i in 0..cfg.pes_in_layer(l) {
                            let pe = dpu_isa::PeId::new(t, l, i);
                            let op = e.pe_ops[pe.flat_index(&cfg) as usize];
                            if op == PeOpcode::Nop {
                                continue;
                            }
                            let base = (t * inputs_per_tree + 2 * i) as usize;
                            let av = prev[base].unwrap_or(f32::NAN);
                            let bv = prev[base + 1].unwrap_or(f32::NAN);
                            if matches!(op, PeOpcode::BypassL | PeOpcode::BypassR) {
                                self.scalar.activity.pe_bypass_ops += 1;
                            } else {
                                self.scalar.activity.pe_arith_ops += 1;
                            }
                            outs[(t * cfg.pes_in_layer(l) + i) as usize] = Some(op.apply(av, bv));
                        }
                    }
                    layer_out.push(outs);
                }
                // 3. Schedule writebacks for the end of cycle + D.
                let mut writebacks = Vec::new();
                for (bank, w) in e.writes.iter().enumerate() {
                    let Some(pe) = w else { continue };
                    let outs = &layer_out[(pe.layer - 1) as usize];
                    let v = outs[(pe.tree * cfg.pes_in_layer(pe.layer) + pe.index) as usize]
                        .ok_or(SimError::IdlePeWriteback { bank: bank as u32 })?;
                    writebacks.push((bank as u32, [v]));
                }
                self.regs.schedule(writebacks);
            }
        }
        self.end_cycle()
    }

    /// Runs a whole program (plus pipeline drain) from the current state,
    /// one [`Machine::step`] per instruction — the oracle's program loop.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_program(&mut self, program: &Program) -> Result<(), SimError> {
        let il = u64::from(encode::fetch_width(&program.config));
        for instr in &program.instrs {
            self.step(instr)?;
            self.scalar.activity.instr_bits_fetched += il;
        }
        self.drain()
    }
}

/// **Oracle** one-shot run: stages `inputs` (in input-ordinal order) into
/// the data memory of a fresh machine, interprets the program with
/// [`Machine::run_program`], and reads back outputs. Production code
/// calls [`execute`]; the two agree byte for byte.
///
/// # Errors
///
/// See [`SimError`].
///
/// # Panics
///
/// Panics if `inputs` does not match the DAG's input count.
pub fn run(compiled: &Compiled, inputs: &[f32]) -> Result<RunResult, SimError> {
    let mut m = Machine::new(compiled.program.config);
    run_on(&mut m, compiled, inputs)
}

/// Like [`run`], on a caller-owned [`Machine`] that is reset first (or
/// rebuilt, if its configuration does not match the program's) — the
/// **oracle** counterpart of [`run_decoded_on`], and what the serving
/// runtime's reference pass (`Engine::serve_serial`) runs so that every
/// dispatcher-vs-serial comparison is also decoded-vs-interpreted.
///
/// The result is identical to [`run`] for the same `(compiled, inputs)`.
///
/// # Errors
///
/// See [`SimError`].
///
/// # Panics
///
/// Panics if `inputs` does not match the DAG's input count.
pub fn run_on(m: &mut Machine, compiled: &Compiled, inputs: &[f32]) -> Result<RunResult, SimError> {
    m.prepare(compiled.program.config);
    m.regs.clear();
    m.scalar.stage(compiled, [inputs])?;
    m.run_program(&compiled.program)?;
    let [run] = m.scalar.read_back(compiled)?;
    Ok(run)
}

/// Verification report from [`run_and_verify`].
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// The run result.
    pub result: RunResult,
    /// Whether all outputs matched the reference evaluator.
    pub verified: bool,
}

/// Runs `compiled` and checks every output against the reference evaluator
/// on the compiled (binarized) DAG.
///
/// # Errors
///
/// Any [`SimError`], including [`SimError::Mismatch`] on the first
/// disagreeing output.
pub fn run_and_verify(compiled: &Compiled, inputs: &[f32]) -> Result<VerifyReport, SimError> {
    let result = execute(compiled, inputs)?;
    let reference = eval::evaluate(&compiled.bin_dag, inputs).expect("compiled DAG evaluates");
    for (i, (&got, out_node)) in result
        .outputs
        .iter()
        .zip(compiled.outputs.iter())
        .enumerate()
    {
        let expected = reference[out_node.index()];
        if !eval::values_close(&[got], &[expected], 1e-3) {
            return Err(SimError::Mismatch {
                index: i,
                got,
                expected,
            });
        }
    }
    Ok(VerifyReport {
        result,
        verified: true,
    })
}

/// Throughput in operations per second at `freq_hz`, defined as the paper
/// does: DAG operations divided by execution time.
pub fn throughput_ops(result: &RunResult, freq_hz: f64) -> f64 {
    result.dag_ops as f64 * freq_hz / result.cycles as f64
}

/// Result of a batch run across parallel cores.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Per-input run results, in input order.
    pub runs: Vec<RunResult>,
    /// Number of parallel cores modelled.
    pub cores: usize,
    /// Wall-clock cycles of the batch as [`plan_rounds`] prices it: cores
    /// execute independent inputs in parallel, so the batch takes
    /// `ceil(inputs/cores)` rounds of the (identical) program length.
    pub batch_cycles: u64,
}

impl BatchResult {
    /// Aggregate throughput of the batch in operations per second.
    pub fn throughput_ops(&self, freq_hz: f64) -> f64 {
        let ops: u64 = self.runs.iter().map(|r| r.dag_ops).sum();
        ops as f64 * freq_hz / self.batch_cycles.max(1) as f64
    }
}

/// Executes `compiled` once per input set on `cores` parallel cores —
/// the paper's batch mode for DPU-v2 (L) (§V-C2: "the parallel cores can
/// either perform batch execution (used for benchmarking) or execute
/// different DAGs"). Cores are independent DPU-v2 instances running the
/// same program on different data, so there is no inter-core
/// synchronization; wall-clock is [`plan_rounds`]' total, the sum of
/// each round's longest member.
///
/// # Errors
///
/// [`SimError::NoCores`] if `cores == 0`, [`SimError::EmptyBatch`] if
/// `batch` is empty (typed rather than panicking so a malformed request
/// can never abort a serving shard), and otherwise the first input whose
/// simulation fails (see [`SimError`]).
pub fn run_batch(
    compiled: &Compiled,
    batch: &[Vec<f32>],
    cores: usize,
) -> Result<BatchResult, SimError> {
    if cores == 0 {
        return Err(SimError::NoCores);
    }
    if batch.is_empty() {
        return Err(SimError::EmptyBatch);
    }
    // One program, many inputs: decode once, then eight inputs per pass.
    let decoded = DecodedProgram::decode(&compiled.program)?;
    let mut m = Machine::new(compiled.program.config);
    let runs = run_decoded_group(&mut m, compiled, &decoded, batch)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let costs: Vec<u64> = runs.iter().map(|r| r.cycles).collect();
    Ok(BatchResult {
        batch_cycles: plan_rounds(&costs, cores).total_cycles,
        runs,
        cores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_compiler::{compile, CompileOptions};
    use dpu_dag::{DagBuilder, NodeId, Op};

    fn compile_run(dag: &dpu_dag::Dag, cfg: &ArchConfig, inputs: &[f32]) -> VerifyReport {
        let compiled = compile(dag, cfg, &CompileOptions::default()).unwrap();
        run_and_verify(&compiled, inputs).unwrap()
    }

    #[test]
    fn tiny_dag_end_to_end() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, x]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let rep = compile_run(&dag, &cfg, &[3.0, 4.0]);
        assert_eq!(rep.result.outputs, vec![21.0]);
    }

    #[test]
    fn sub_div_ordering_is_respected() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let d = b.node(Op::Sub, &[x, y]).unwrap();
        b.node(Op::Div, &[d, y]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let rep = compile_run(&dag, &cfg, &[10.0, 2.0]);
        assert_eq!(rep.result.outputs, vec![4.0]);
    }

    #[test]
    fn random_dags_verify_across_configs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        for seed in 0..4u64 {
            let mut b = DagBuilder::new();
            let mut ids: Vec<NodeId> = (0..8).map(|_| b.input()).collect();
            for _ in 0..120 {
                let i = ids[rng.gen_range(0..ids.len())];
                let j = ids[rng.gen_range(0..ids.len())];
                let op = match rng.gen_range(0..4) {
                    0 => Op::Add,
                    1 => Op::Mul,
                    2 => Op::Min,
                    _ => Op::Max,
                };
                ids.push(b.node(op, &[i, j]).unwrap());
            }
            let dag = b.finish().unwrap();
            let inputs: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            for (d, bk, r) in [(1u32, 4u32, 16u32), (2, 8, 16), (3, 16, 32)] {
                let cfg = ArchConfig::new(d, bk, r).unwrap();
                let rep = compile_run(&dag, &cfg, &inputs);
                assert!(rep.verified, "seed {seed} cfg {d}/{bk}/{r}");
            }
        }
    }

    #[test]
    fn spilling_config_still_verifies() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let mut b = DagBuilder::new();
        let mut ids: Vec<NodeId> = (0..16).map(|_| b.input()).collect();
        for _ in 0..300 {
            let i = ids[rng.gen_range(0..ids.len())];
            let j = ids[rng.gen_range(0..ids.len())];
            ids.push(b.node(Op::Add, &[i, j]).unwrap());
        }
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 4).unwrap(); // tiny R forces spills
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        assert!(compiled.stats.spill_stores > 0);
        let inputs: Vec<f32> = (0..16).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let rep = run_and_verify(&compiled, &inputs).unwrap();
        assert!(rep.verified);
    }

    #[test]
    fn cycles_match_compiler_prediction() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, s]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(3, 16, 32).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        let rep = run_and_verify(&compiled, &[1.0, 2.0]).unwrap();
        assert_eq!(rep.result.cycles, compiled.stats.total_cycles);
    }

    #[test]
    fn machine_detects_empty_register_read() {
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let mut m = Machine::new(cfg);
        let instr = Instr::StoreK {
            row: 0,
            reads: vec![dpu_isa::RegRead {
                bank: 0,
                addr: 0,
                valid_rst: false,
            }],
        };
        assert!(matches!(
            m.step(&instr),
            Err(SimError::ReadInvalid {
                bank: 0,
                addr: 0,
                ..
            })
        ));
    }

    #[test]
    fn machine_detects_overflow() {
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let mut m = Machine::new(cfg);
        let mask = vec![true, false];
        for _ in 0..2 {
            m.step(&Instr::Load {
                row: 0,
                mask: mask.clone(),
            })
            .unwrap();
        }
        assert!(matches!(
            m.step(&Instr::Load { row: 0, mask }),
            Err(SimError::BankOverflow { bank: 0, .. })
        ));
    }

    #[test]
    fn broadcast_dedup_counts_one_register_read_per_bank() {
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let mut m = Machine::new(cfg);
        m.step(&Instr::Load {
            row: 0,
            mask: vec![true, false],
        })
        .unwrap();
        let exec = Instr::Exec(dpu_isa::ExecInstr {
            reads: vec![
                Some(dpu_isa::PortRead {
                    bank: 0,
                    addr: 0,
                    valid_rst: false,
                }),
                Some(dpu_isa::PortRead {
                    bank: 0,
                    addr: 0,
                    valid_rst: false,
                }),
            ],
            pe_ops: vec![PeOpcode::Add],
            writes: vec![None, None],
        });
        m.step(&exec).unwrap();
        assert_eq!(m.activity().reg_reads, 1, "broadcast fetch counts once");
        assert_eq!(m.activity().crossbar_hops, 2, "both ports hop the crossbar");
        // Dedup is per `exec`: the next one fetches the bank again.
        m.step(&exec).unwrap();
        assert_eq!(m.activity().reg_reads, 2);
        assert_eq!(m.activity().crossbar_hops, 4);
    }

    #[test]
    fn decoded_run_matches_interpreted_run() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        let p = b.node(Op::Mul, &[s, x]).unwrap();
        b.node(Op::Max, &[p, y]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        let decoded = DecodedProgram::decode(&compiled.program).unwrap();
        let mut m = Machine::new(cfg);
        for inputs in [[1.0f32, 2.0], [-3.5, 0.25], [7.0, 7.0]] {
            let dec = run_decoded_on(&mut m, &compiled, &decoded, &inputs).unwrap();
            let interp = run(&compiled, &inputs).unwrap();
            assert_eq!(dec, interp);
        }
    }

    #[test]
    fn decode_rejects_static_program_faults() {
        let cfg = ArchConfig::new(1, 2, 2).unwrap();
        let bad_row = Program {
            config: cfg,
            instrs: vec![Instr::Load {
                row: cfg.data_mem_rows,
                mask: vec![true, false],
            }],
        };
        assert!(matches!(
            DecodedProgram::decode(&bad_row),
            Err(SimError::RowOutOfRange { .. })
        ));
        let idle_writeback = Program {
            config: cfg,
            instrs: vec![Instr::Exec(dpu_isa::ExecInstr {
                reads: vec![None, None],
                pe_ops: vec![PeOpcode::Nop],
                writes: vec![Some(dpu_isa::PeId::new(0, 1, 0)), None],
            })],
        };
        assert!(matches!(
            DecodedProgram::decode(&idle_writeback),
            Err(SimError::IdlePeWriteback { bank: 0 })
        ));
    }

    #[test]
    fn reset_machine_matches_fresh_run() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, y]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        let mut m = Machine::new(cfg);
        for inputs in [[1.0f32, 2.0], [-3.5, 0.25], [7.0, 7.0]] {
            let reused = run_on(&mut m, &compiled, &inputs).unwrap();
            let fresh = run(&compiled, &inputs).unwrap();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn run_on_rebuilds_on_config_mismatch() {
        let mut b = DagBuilder::new();
        let x = b.input();
        b.node(Op::Add, &[x, x]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        let mut m = Machine::new(ArchConfig::new(1, 4, 8).unwrap());
        let r = run_on(&mut m, &compiled, &[2.5]).unwrap();
        assert_eq!(r.outputs, vec![5.0]);
        assert_eq!(*m.config(), cfg);
    }

    #[test]
    fn batch_reuses_machine_and_matches_individual_runs() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        b.node(Op::Mul, &[x, y]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        let batch: Vec<Vec<f32>> = (0..7).map(|i| vec![i as f32, 2.0]).collect();
        let res = run_batch(&compiled, &batch, 4).unwrap();
        for (i, r) in res.runs.iter().enumerate() {
            assert_eq!(r, &run(&compiled, &batch[i]).unwrap());
        }
        // 7 inputs on 4 cores -> 2 rounds of the program length.
        assert_eq!(res.batch_cycles, 2 * res.runs[0].cycles);
    }

    /// The batch mode has one price: a homogeneous batch costs what the
    /// round planner charges for its per-input costs, which is
    /// `ceil(inputs/cores)` rounds of the program length, whether or not
    /// the batch fills its last round.
    #[test]
    fn run_batch_agrees_with_plan_rounds_on_a_homogeneous_batch() {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let s = b.node(Op::Add, &[x, y]).unwrap();
        b.node(Op::Mul, &[s, x]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        let per_run = run(&compiled, &[1.0, 2.0]).unwrap().cycles;
        assert!(per_run > 0);
        for cores in [1, 3, 4, 8] {
            for n in [1, 3, 4, 5, 8, 9, 12, 17] {
                let batch: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32, 2.0]).collect();
                let res = run_batch(&compiled, &batch, cores).unwrap();
                let plan = plan_rounds(&vec![per_run; n], cores);
                assert_eq!(res.batch_cycles, plan.total_cycles, "{n} on {cores}");
                assert_eq!(
                    res.batch_cycles,
                    n.div_ceil(cores) as u64 * per_run,
                    "{n} on {cores}"
                );
            }
        }
    }

    #[test]
    fn malformed_batch_requests_are_typed_errors_not_panics() {
        let mut b = DagBuilder::new();
        let x = b.input();
        b.node(Op::Add, &[x, x]).unwrap();
        let dag = b.finish().unwrap();
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        assert_eq!(
            run_batch(&compiled, &[vec![1.0]], 0).unwrap_err(),
            SimError::NoCores
        );
        assert_eq!(
            run_batch(&compiled, &[], 4).unwrap_err(),
            SimError::EmptyBatch
        );
    }

    #[test]
    fn activity_absorb_sums_fields() {
        let mut a = Activity {
            reg_reads: 1,
            execs: 2,
            ..Activity::default()
        };
        let b = Activity {
            reg_reads: 10,
            mem_writes: 3,
            ..Activity::default()
        };
        a.absorb(&b);
        assert_eq!(a.reg_reads, 11);
        assert_eq!(a.mem_writes, 3);
        assert_eq!(a.execs, 2);
    }

    #[test]
    fn throughput_definition() {
        let r = RunResult {
            cycles: 100,
            outputs: vec![],
            activity: Activity::default(),
            dag_ops: 50,
        };
        assert!((throughput_ops(&r, 300e6) - 150e6).abs() < 1.0);
    }
}
