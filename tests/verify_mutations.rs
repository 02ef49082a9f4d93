//! Mutation corpus for the static verifier: take known-good compiled
//! programs, corrupt them the way bit-rot or a buggy compiler would —
//! flip a register index, drop a store, rewire an interconnect switch —
//! misdeclare the schedule length — and assert `dpu-verify` rejects every
//! mutant with the *right* diagnostic, not merely some error. (The end-to-end corrupted-spill
//! fixture, exercising the runtime load path, lives with the runtime's
//! cache tests.)

use dpu_core::isa::Instr;
use dpu_core::prelude::*;
use dpu_core::sim::{DecodedProgram, Machine};
use dpu_core::verify::VerifyError;

/// The simulator's own verdict on a mutant, reached two ways that must
/// agree: `DecodedProgram::decode`, which replays the schedule once for
/// every production run, and the oracle stepping through the program
/// (register traffic does not depend on the data, so memory stays zero).
/// The verifier checks more than the simulator needs — the output
/// interconnect, the declared footprint and cycle count — so some mutants
/// it refuses run clean; what matters here is `Ok` or the same `SimError`.
fn decode_verdict_is_the_oracles(c: &Compiled) {
    let oracle = Machine::new(c.program.config).run_program(&c.program);
    let decoded = DecodedProgram::decode(&c.program).map(|_| ());
    assert_eq!(decoded, oracle);
}

/// A known-good program with headroom: `R = 64` on a DAG small enough
/// that no bank's occupancy ever reaches 32, so flipping bit 5 of any
/// read address is guaranteed to point at a never-written register.
fn well_formed() -> Compiled {
    let mut b = DagBuilder::new();
    let inputs: Vec<NodeId> = (0..4).map(|_| b.input()).collect();
    let mut ids = inputs.clone();
    for i in 0..30 {
        let x = ids[i % ids.len()];
        let y = ids[(i * 7 + 1) % ids.len()];
        let op = match i % 3 {
            0 => Op::Add,
            1 => Op::Mul,
            _ => Op::Sub,
        };
        ids.push(b.node(op, &[x, y]).unwrap());
    }
    let dag = b.finish().unwrap();
    let cfg = ArchConfig::new(2, 8, 64).unwrap();
    let compiled = Dpu::new(cfg).compile(&dag).unwrap();
    compiled.verify().expect("pristine program verifies");
    compiled
}

#[test]
fn bit_flipped_register_index_is_rejected_as_undefined_read() {
    let mut c = well_formed();
    let flipped = c
        .program
        .instrs
        .iter_mut()
        .find_map(|i| match i {
            Instr::StoreK { reads, .. } => reads.first_mut(),
            Instr::Store { reads, .. } => reads.iter_mut().flatten().next(),
            _ => None,
        })
        .expect("program stores something");
    flipped.addr ^= 1 << 5;
    let want_addr = flipped.addr;
    match c.verify().unwrap_err() {
        VerifyError::ReadUndefined { addr, .. } => assert_eq!(addr, want_addr),
        other => panic!("wrong diagnostic: {other}"),
    }
    decode_verdict_is_the_oracles(&c);
}

#[test]
fn dropped_store_is_rejected_as_missing_output() {
    let mut c = well_formed();
    let last_store = c
        .program
        .instrs
        .iter()
        .rposition(|i| matches!(i, Instr::Store { .. } | Instr::StoreK { .. }))
        .expect("program stores its outputs");
    c.program.instrs.remove(last_store);
    assert!(
        matches!(c.verify().unwrap_err(), VerifyError::OutputNotStored { .. }),
        "dropping the final store must surface as an uncovered output"
    );
    decode_verdict_is_the_oracles(&c);
}

#[test]
fn rewired_interconnect_switch_is_rejected_as_structural() {
    let mut c = well_formed();
    let cfg = c.program.config;
    // Move one exec writeback to the mirror bank in the *other* tree —
    // exactly the switch setting topology (b)'s per-layer output
    // interconnect cannot realize (only full crossbar (a) crosses trees).
    let ports = cfg.ports_per_tree();
    let moved = c.program.instrs.iter_mut().find_map(|i| match i {
        Instr::Exec(e) => {
            let bank = e.writes.iter().position(Option::is_some)?;
            let pe = e.writes[bank].take();
            let cross = (bank + ports as usize) % cfg.banks as usize;
            e.writes[cross] = pe;
            Some(())
        }
        _ => None,
    });
    assert!(moved.is_some(), "program contains an exec writeback");
    match c.verify().unwrap_err() {
        VerifyError::Structural { detail, .. } => assert!(
            detail.contains("output interconnect forbids"),
            "wrong structural diagnostic: {detail}"
        ),
        other => panic!("wrong diagnostic: {other}"),
    }
    decode_verdict_is_the_oracles(&c);
}

#[test]
fn shrunken_footprint_is_rejected_as_overflow() {
    let mut c = well_formed();
    // Claim less data memory than the program's own footprint — the
    // config/layout mismatch a corrupt spill header could smuggle in.
    c.program.config.data_mem_rows = c.layout.rows_used - 1;
    assert!(
        matches!(
            c.verify().unwrap_err(),
            VerifyError::FootprintOverflow { .. }
        ),
        "footprint must be checked against the config's data memory"
    );
    decode_verdict_is_the_oracles(&c);
}

#[test]
fn misdeclared_cycle_count_is_rejected_as_cycle_mismatch() {
    // Timing agreement is one of the invariants `Compiled::verify()`
    // itself proves — spill loads and `verify_all` go through it — so a
    // program whose metadata declares a schedule length the replay does
    // not reproduce is refused there, not only inside `compile()`.
    let mut c = well_formed();
    let replayed = c.stats.total_cycles;
    c.stats.total_cycles += 1;
    assert_eq!(
        c.verify().unwrap_err(),
        VerifyError::CycleMismatch {
            replayed,
            declared: replayed + 1
        }
    );
    decode_verdict_is_the_oracles(&c);
}
