//! Decoded pipeline: decode a compiled program once — its whole
//! schedule resolved into a straight-line value tape — run it over many
//! input sets, and compare against the oracle interpreter the test suite
//! checks it with — then hand the same inputs over as one group (eight
//! per walk of the tape), and group a mixed request round by program so
//! each decode is shared across every request that uses it.
//!
//! Run with `cargo run --release --example decoded_pipeline`.

use dpu_core::prelude::*;
use dpu_core::sim::{self, DecodedProgram};
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile a probabilistic-circuit workload and decode it once.
    let dpu = Dpu::large();
    let dag = generate_pc(&PcParams::with_targets(1_800, 13), 51);
    let compiled = dpu.compile(&dag)?;
    let decoded = DecodedProgram::decode(&compiled.program)?;
    println!(
        "program: {} instructions, decoded once: every run takes {} cycles",
        compiled.program.len(),
        decoded.cycles()
    );

    // 2. One program, many inputs: the oracle (`sim::run_on`, the plain
    //    specification, untuned) re-enacts the register file every run;
    //    the decoded form — what every production path runs — replayed it
    //    once, at decode, and only moves values.
    let runs = 200;
    let input_sets: Vec<Vec<f32>> = (0..runs).map(|i| pc_inputs(&dag, i as u64)).collect();
    let mut machine = sim::Machine::new(dpu.config);
    for inputs in &input_sets {
        let want = sim::run_on(&mut machine, &compiled, inputs)?;
        let got = sim::run_decoded_on(&mut machine, &compiled, &decoded, inputs)?;
        let bits = |r: &RunResult| r.outputs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "decoded is byte-identical");
        assert_eq!((got.cycles, got.activity), (want.cycles, want.activity));
    }
    println!("{runs} runs: decoded outputs, cycles and activity byte-identical to the oracle");

    // 3. The group call: the same inputs, eight per walk of the tape (a
    //    schedule does not depend on the data, so the lanes share it).
    //    Each result is what step 2 got for that input alone.
    let group = sim::run_decoded_group(&mut machine, &compiled, &decoded, &input_sets);
    for (inputs, got) in input_sets.iter().zip(group) {
        let alone = sim::run_decoded_on(&mut machine, &compiled, &decoded, inputs)?;
        assert_eq!(got?, alone, "a lane is byte-identical to a run alone");
    }
    println!(
        "{runs} runs as one group: {} passes of eight lanes",
        input_sets.len().div_ceil(8)
    );

    // 4. Round execution: a mixed round is grouped by program, so every
    //    request sharing a DAG runs off one shared decoded form, through
    //    that same group call.
    let engine = dpu.engine(EngineOptions::default());
    let key = engine.register(dag.clone());
    let requests: Vec<Request> = (0..32)
        .map(|i| Request::new(key, pc_inputs(&dag, i)))
        .collect();
    let refs: Vec<&Request> = requests.iter().collect();
    let outcomes = engine.execute_round(&mut machine, &refs);
    let ok = outcomes.iter().filter(|o| o.is_ok()).count();
    let stats = engine.cache_stats();
    println!(
        "round: {ok}/{} requests served from {} decode(s) — decoded forms \
         are cached beside the compiled program and shared across rounds",
        requests.len(),
        stats.decode_count
    );
    Ok(())
}
