//! Pre-decoded execution: flat micro-op programs, the production
//! executor.
//!
//! Interpreting the [`Instr`] enum directly (the oracle,
//! [`Machine::step`]) walks heap `Vec`s inside every instruction for
//! operand fetch, re-derives each PE's operand wiring from
//! `(tree, layer, index)` arithmetic, scans every PE slot (including the
//! idle ones) and re-decides broadcast dedup per `exec`. None of that
//! depends on the input data — it is a pure function of the program — so
//! it is paid **once**, at decode.
//!
//! [`DecodedProgram::decode`] lowers a [`Program`] into arena-backed
//! structure-of-arrays micro-op tables:
//!
//! - one `(kind, row, span)` record per instruction (the program counter
//!   indexes these arrays directly);
//! - flat operand arenas per instruction kind (`Load` bank lists, unified
//!   `Store`/`StoreK` word moves, `CopyK` moves, and for `exec` the port
//!   reads, valid-bit resets, active PEs and writebacks);
//! - every `exec` operand pre-resolved to an index into one flat value
//!   array (ports first, then PE outputs layer by layer), with broadcast
//!   dedup decided at decode time (`ReadOp::copy_from` names the port
//!   that already fetched the register) and idle PEs simply absent;
//! - static program properties (`load`/`store` bounds, writebacks that
//!   would latch an idle PE) checked once at decode instead of per cycle.
//!
//! [`Machine::run_decoded`] then drives the tables by program counter
//! with **zero per-cycle allocation** (lint-enforced by
//! `tests/forbidden_patterns.rs`), producing outputs, cycle counts and
//! [`Activity`](crate::Activity) counters byte-identical to the oracle's
//! [`Machine::run_program`] on the same program (differential-fuzzed in
//! `tests/decoded_differential.rs`). The decoded form is derived state: it
//! is never persisted (the spill layer stores only the verified
//! [`Compiled`] representation) and is rebuilt from the compiled program
//! wherever it is needed.
//!
//! Nothing the tables say depends on the input data either — DPU-v2
//! targets DAGs with static connectivity — so the cycle loop is generic
//! over a lane count `L`: [`run_decoded_group`] carries eight input sets
//! through one walk of the tables, sharing the valid bits, the port
//! checks and every fault, with only the values `L` wide. `L = 1` is
//! [`Machine::run_decoded`]; there is no second loop.

use dpu_compiler::Compiled;
use dpu_isa::{encode, ArchConfig, Instr, PeOpcode, Program};

use crate::{Lanes, Machine, RunResult, SimError, WIDE};

/// Sentinel index: "no source" (an undriven operand evaluates as NaN,
/// exactly like the oracle's `unwrap_or(f32::NAN)`), or for
/// [`ReadOp::copy_from`] "fetch from the register file".
const NONE: u32 = u32::MAX;

/// Micro-op kind, one per source instruction. `Store` and `StoreK` lower
/// to the same micro-op (both are "read registers, write data-memory
/// words"); only their arena payloads differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Nop,
    Load,
    Store,
    CopyK,
    Exec,
}

/// Half-open index range into one of the arenas.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One `Store`/`StoreK` word move: read `(bank, addr)`, write data-memory
/// column `col` of the instruction's row.
#[derive(Debug, Clone, Copy)]
struct StoreOp {
    col: u32,
    bank: u32,
    addr: u32,
    valid_rst: bool,
}

/// One `CopyK` move through the crossbar.
#[derive(Debug, Clone, Copy)]
struct CopyOp {
    bank: u32,
    addr: u32,
    valid_rst: bool,
    dst_bank: u32,
}

/// One driven crossbar port of an `exec`. `copy_from == NONE` fetches
/// `(bank, addr)` from the register file (counting one register read);
/// otherwise the port broadcasts the value port `copy_from` already
/// fetched this cycle — the dedup decision [`Machine::step`] makes with a
/// linear scan over the `exec`'s fetched `(bank, addr)` pairs, made once
/// here.
#[derive(Debug, Clone, Copy)]
struct ReadOp {
    /// Value-array index this port drives (ports occupy `0..banks`).
    dst: u32,
    bank: u32,
    addr: u32,
    copy_from: u32,
}

/// A last-read valid-bit reset, applied after all reads of the cycle.
#[derive(Debug, Clone, Copy)]
struct RstOp {
    bank: u32,
    addr: u32,
}

/// One *active* PE evaluation (idle PEs are not represented at all).
/// `a`/`b` are pre-resolved value-array indices (`NONE` = undriven =
/// NaN); `dst` is the PE's own slot in the value array.
#[derive(Debug, Clone, Copy)]
struct PeOp {
    a: u32,
    b: u32,
    dst: u32,
    op: PeOpcode,
}

/// One `exec` writeback: bank `bank` latches value-array slot `src` at
/// the end of cycle `issue + depth`.
#[derive(Debug, Clone, Copy)]
struct WriteOp {
    bank: u32,
    src: u32,
}

/// Arena spans of one `exec` instruction.
#[derive(Debug, Clone, Copy)]
struct ExecOp {
    reads: Span,
    rsts: Span,
    pes: Span,
    writes: Span,
}

/// A [`Program`] lowered to flat micro-op arrays — decode once, execute
/// many. Build with [`DecodedProgram::decode`], run with
/// [`Machine::run_decoded`] (or [`crate::run_decoded_on`] for the full
/// stage-inputs/read-outputs round trip). See the module-level docs.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    config: ArchConfig,
    /// Fetch width `IL` in bits, pre-computed (per-cycle fetch
    /// accounting matches [`Machine::run_program`]).
    fetch_bits: u64,
    /// Length of the per-`exec` value array: `banks` port slots followed
    /// by one slot per PE, layer by layer.
    vals_len: usize,
    // One record per instruction (indexed by program counter):
    kind: Vec<OpKind>,
    row: Vec<u32>,
    span: Vec<Span>,
    // Arenas:
    load_banks: Vec<u32>,
    stores: Vec<StoreOp>,
    copies: Vec<CopyOp>,
    execs: Vec<ExecOp>,
    reads: Vec<ReadOp>,
    rsts: Vec<RstOp>,
    pes: Vec<PeOp>,
    writes: Vec<WriteOp>,
}

impl DecodedProgram {
    /// Lowers `program` into flat micro-op arrays.
    ///
    /// Static program properties the oracle checks per cycle are
    /// checked here once instead: a `load`/`store` row outside the data
    /// memory ([`SimError::RowOutOfRange`]) and an `exec` writeback
    /// selecting an idle PE ([`SimError::IdlePeWriteback`]) reject the
    /// program at decode time. State-dependent hazards (empty-register
    /// reads, write-port clashes, bank overflow) remain runtime checks
    /// in [`Machine::run_decoded`], exactly as in [`Machine::step`].
    ///
    /// # Errors
    ///
    /// [`SimError::RowOutOfRange`] or [`SimError::IdlePeWriteback`] as
    /// above — both indicate a compiler bug or a corrupt program.
    pub fn decode(program: &Program) -> Result<DecodedProgram, SimError> {
        let cfg = program.config;
        // Value-array layout: ports `0..banks`, then each layer's PE
        // outputs; `layer_base[l - 1]` is layer `l`'s first slot.
        let mut layer_base = Vec::with_capacity(cfg.depth as usize);
        let mut next = cfg.banks;
        for l in 1..=cfg.depth {
            layer_base.push(next);
            next += cfg.trees() * cfg.pes_in_layer(l);
        }
        let vals_len = next as usize;
        let slot_of = |tree: u32, layer: u32, index: u32| {
            layer_base[(layer - 1) as usize] + tree * cfg.pes_in_layer(layer) + index
        };

        let mut d = DecodedProgram {
            config: cfg,
            fetch_bits: u64::from(encode::fetch_width(&cfg)),
            vals_len,
            kind: Vec::with_capacity(program.instrs.len()),
            row: Vec::with_capacity(program.instrs.len()),
            span: Vec::with_capacity(program.instrs.len()),
            load_banks: Vec::new(),
            stores: Vec::new(),
            copies: Vec::new(),
            execs: Vec::new(),
            reads: Vec::new(),
            rsts: Vec::new(),
            pes: Vec::new(),
            writes: Vec::new(),
        };
        // Which value-array slots the current `exec` defines (driven
        // ports + active PEs) — operands resolving to an undefined slot
        // become NaN, writebacks from one are a decode error.
        let mut defined = vec![false; vals_len];

        for instr in &program.instrs {
            let (kind, row, span) = match instr {
                Instr::Nop => (OpKind::Nop, 0, Span::new(0, 0)),
                Instr::Load { row, mask } => {
                    if *row >= cfg.data_mem_rows {
                        return Err(SimError::RowOutOfRange { row: *row });
                    }
                    let start = d.load_banks.len();
                    for (bank, &m) in mask.iter().enumerate() {
                        if m {
                            d.load_banks.push(bank as u32);
                        }
                    }
                    (OpKind::Load, *row, Span::new(start, d.load_banks.len()))
                }
                Instr::Store { row, reads } => {
                    if *row >= cfg.data_mem_rows {
                        return Err(SimError::RowOutOfRange { row: *row });
                    }
                    let start = d.stores.len();
                    for (col, r) in reads.iter().enumerate() {
                        if let Some(r) = r {
                            d.stores.push(StoreOp {
                                col: col as u32,
                                bank: r.bank,
                                addr: r.addr,
                                valid_rst: r.valid_rst,
                            });
                        }
                    }
                    (OpKind::Store, *row, Span::new(start, d.stores.len()))
                }
                Instr::StoreK { row, reads } => {
                    if *row >= cfg.data_mem_rows {
                        return Err(SimError::RowOutOfRange { row: *row });
                    }
                    let start = d.stores.len();
                    for r in reads {
                        // A `store.k` word lands at the column of its
                        // source bank.
                        d.stores.push(StoreOp {
                            col: r.bank,
                            bank: r.bank,
                            addr: r.addr,
                            valid_rst: r.valid_rst,
                        });
                    }
                    (OpKind::Store, *row, Span::new(start, d.stores.len()))
                }
                Instr::CopyK { moves } => {
                    let start = d.copies.len();
                    for m in moves {
                        d.copies.push(CopyOp {
                            bank: m.src.bank,
                            addr: m.src.addr,
                            valid_rst: m.src.valid_rst,
                            dst_bank: m.dst_bank,
                        });
                    }
                    (OpKind::CopyK, 0, Span::new(start, d.copies.len()))
                }
                Instr::Exec(e) => {
                    defined.fill(false);
                    let reads_start = d.reads.len();
                    // Broadcast dedup, decided once: the first port to
                    // read a `(bank, addr)` fetches; later ports copy
                    // its port slot. `Machine::step` scans its fetched
                    // list for the same `(bank, addr)` key, so the two
                    // count identical register reads on any instruction,
                    // validated or not.
                    for (port, r) in e.reads.iter().enumerate() {
                        let Some(r) = r else { continue };
                        let copy_from = d.reads[reads_start..]
                            .iter()
                            .find(|f| f.copy_from == NONE && (f.bank, f.addr) == (r.bank, r.addr))
                            .map_or(NONE, |f| f.dst);
                        d.reads.push(ReadOp {
                            dst: port as u32,
                            bank: r.bank,
                            addr: r.addr,
                            copy_from,
                        });
                        defined[port] = true;
                    }
                    let rsts_start = d.rsts.len();
                    for r in e.reads.iter().flatten() {
                        if r.valid_rst {
                            d.rsts.push(RstOp {
                                bank: r.bank,
                                addr: r.addr,
                            });
                        }
                    }
                    // Active PEs only, in the oracle's evaluation
                    // order, operands pre-resolved to value-array slots.
                    let pes_start = d.pes.len();
                    for l in 1..=cfg.depth {
                        for t in 0..cfg.trees() {
                            for i in 0..cfg.pes_in_layer(l) {
                                let pe = dpu_isa::PeId::new(t, l, i);
                                let op = e.pe_ops[pe.flat_index(&cfg) as usize];
                                if op == PeOpcode::Nop {
                                    continue;
                                }
                                let (a, b) = if l == 1 {
                                    let base = t * cfg.ports_per_tree() + 2 * i;
                                    (base, base + 1)
                                } else {
                                    let base = slot_of(t, l - 1, 2 * i);
                                    (base, base + 1)
                                };
                                let dst = slot_of(t, l, i);
                                d.pes.push(PeOp {
                                    a: if defined[a as usize] { a } else { NONE },
                                    b: if defined[b as usize] { b } else { NONE },
                                    dst,
                                    op,
                                });
                                defined[dst as usize] = true;
                            }
                        }
                    }
                    let writes_start = d.writes.len();
                    for (bank, w) in e.writes.iter().enumerate() {
                        let Some(pe) = w else { continue };
                        let src = slot_of(pe.tree, pe.layer, pe.index);
                        if !defined[src as usize] {
                            return Err(SimError::IdlePeWriteback { bank: bank as u32 });
                        }
                        d.writes.push(WriteOp {
                            bank: bank as u32,
                            src,
                        });
                    }
                    let start = d.execs.len();
                    d.execs.push(ExecOp {
                        reads: Span::new(reads_start, d.reads.len()),
                        rsts: Span::new(rsts_start, d.rsts.len()),
                        pes: Span::new(pes_start, d.pes.len()),
                        writes: Span::new(writes_start, d.writes.len()),
                    });
                    (OpKind::Exec, 0, Span::new(start, start + 1))
                }
            };
            d.kind.push(kind);
            d.row.push(row);
            d.span.push(span);
        }
        Ok(d)
    }

    /// The configuration the program was decoded for.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Number of source instructions (= issue cycles before drain).
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }
}

impl Machine {
    /// Runs a decoded program (plus pipeline drain) from the current
    /// state, with outputs, cycle counts and activity counters
    /// byte-identical to the oracle's [`Machine::run_program`] on any
    /// program that passes decode.
    ///
    /// # Errors
    ///
    /// The state-dependent subset of [`SimError`] (empty-register reads,
    /// write-port clashes, bank overflow); static errors were already
    /// rejected by [`DecodedProgram::decode`].
    ///
    /// # Panics
    ///
    /// Panics if the machine's configuration differs from the one the
    /// program was decoded for ([`crate::run_decoded_on`] re-builds the
    /// machine instead of panicking).
    pub fn run_decoded(&mut self, prog: &DecodedProgram) -> Result<(), SimError> {
        self.scalar.run_decoded(prog)
    }
}

impl<const L: usize> Lanes<L> {
    /// The production executor, `L` input sets in lockstep: decode,
    /// indexing, valid bits and port bookkeeping are paid once per
    /// instruction, only values and PE arithmetic are `L` wide. See
    /// [`Machine::run_decoded`], its `L = 1` case.
    fn run_decoded(&mut self, prog: &DecodedProgram) -> Result<(), SimError> {
        assert_eq!(
            self.cfg, prog.config,
            "machine/program configuration mismatch"
        );
        let il = prog.fetch_bits;
        // All buffers the loop needs, sized up front; early error
        // returns leave them empty — harmless, every use site clears and
        // resizes first, and a failed run aborts the request.
        let mut vals = std::mem::take(&mut self.vals);
        vals.clear();
        vals.resize(prog.vals_len, [0.0; L]);
        let mut staged = std::mem::take(&mut self.staged);
        // BEGIN run_decoded cycle loop (zero-alloc: no allocating vector
        // idioms in here — lint-enforced by tests/forbidden_patterns.rs)
        for pc in 0..prog.kind.len() {
            let span = prog.span[pc];
            match prog.kind[pc] {
                OpKind::Nop => {}
                OpKind::Load => {
                    let row = prog.row[pc];
                    self.activity.mem_reads += 1;
                    for &bank in &prog.load_banks[span.range()] {
                        self.put(bank, self.word(row, bank))?;
                    }
                }
                OpKind::Store => {
                    let row = prog.row[pc];
                    self.activity.mem_writes += 1;
                    for s in &prog.stores[span.range()] {
                        let v = self.read_word(s.bank, s.addr, s.valid_rst)?;
                        *self.word_mut(row, s.col) = v;
                    }
                }
                OpKind::CopyK => {
                    // All reads happen before any write lands (crossbar
                    // pass), staged in a reused buffer.
                    staged.clear();
                    for c in &prog.copies[span.range()] {
                        let v = self.read_word(c.bank, c.addr, c.valid_rst)?;
                        self.activity.crossbar_hops += 1;
                        staged.push((c.dst_bank, v));
                    }
                    for &(bank, v) in staged.iter() {
                        self.put(bank, v)?;
                    }
                }
                OpKind::Exec => {
                    self.activity.execs += 1;
                    let e = prog.execs[span.start as usize];
                    for r in &prog.reads[e.reads.range()] {
                        let v = if r.copy_from == NONE {
                            let v = self.reg(r.bank, r.addr)?;
                            self.activity.reg_reads += 1;
                            v
                        } else {
                            vals[r.copy_from as usize]
                        };
                        self.activity.crossbar_hops += 1;
                        vals[r.dst as usize] = v;
                    }
                    for rst in &prog.rsts[e.rsts.range()] {
                        self.regs.free(rst.bank, rst.addr);
                    }
                    for pe in &prog.pes[e.pes.range()] {
                        let operand = |src: u32| match src {
                            NONE => [f32::NAN; L],
                            src => vals[src as usize],
                        };
                        let out = pe.op.apply_lanes(operand(pe.a), operand(pe.b));
                        if matches!(pe.op, PeOpcode::BypassL | PeOpcode::BypassR) {
                            self.activity.pe_bypass_ops += 1;
                        } else {
                            self.activity.pe_arith_ops += 1;
                        }
                        vals[pe.dst as usize] = out;
                    }
                    let writes = &prog.writes[e.writes.range()];
                    self.regs
                        .schedule(writes.iter().map(|w| (w.bank, vals[w.src as usize])));
                }
            }
            self.end_cycle()?;
            self.activity.instr_bits_fetched += il;
        }
        // END run_decoded cycle loop
        self.drain()?;
        self.vals = vals;
        self.staged = staged;
        Ok(())
    }

    /// Runs `chunk` — at most `L` input sets — through `decoded` in one
    /// pass and appends one result per input. A chunk shorter than `L`
    /// repeats its last input in the spare lanes and drops their results;
    /// a fault is the program's, so it fails every input alike.
    fn run_chunk(
        &mut self,
        compiled: &Compiled,
        decoded: &DecodedProgram,
        chunk: &[impl AsRef<[f32]>],
        results: &mut Vec<Result<RunResult, SimError>>,
    ) {
        let lanes = std::array::from_fn(|lane| chunk[lane.min(chunk.len() - 1)].as_ref());
        match self.run_staged(compiled, lanes, |s| s.run_decoded(decoded)) {
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
/// into chunks of eight that each go through the program **once**, eight
/// lanes wide: one decode walk, one set of valid bits and port checks, PE
/// arithmetic eight values at a time. A ragged last chunk of two or more
/// is padded by repeating its last input (a pass costs about what 1.3
/// scalar runs do, so padding wins from two up); a lone last input runs
/// one lane wide. Either way every result is byte-identical to running
/// that input alone, and to the oracle's [`crate::run_on`]: cycles,
/// [`Activity`](crate::Activity) and faults are the program's, computed
/// once per chunk and reported by each of its inputs.
///
/// The machine is reset per chunk (rebuilt if its configuration is not
/// the program's); its eight-lane state is built by the first chunk that
/// needs it and kept. `decoded` must be the decode of `compiled.program`.
///
/// # Errors
///
/// Per input, see [`SimError`].
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
/// See [`SimError`].
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
/// See [`SimError`]; static program faults are reported by the decode.
///
/// # Panics
///
/// Panics if `inputs` does not match the DAG's input count.
pub fn execute(compiled: &Compiled, inputs: &[f32]) -> Result<RunResult, SimError> {
    let decoded = DecodedProgram::decode(&compiled.program)?;
    let mut m = Machine::new(compiled.program.config);
    run_decoded_on(&mut m, compiled, &decoded, inputs)
}
