//! Differential fuzz: the oracle ([`Machine::run_program`], one
//! [`Machine::step`] per instruction) and the production executor
//! ([`Machine::run_decoded`]) must be indistinguishable on every program:
//! bit-identical outputs, identical cycle counts and identical activity
//! counters, across random workloads × architecture configs (including a
//! tiny-register config that forces compiler spills) — and on hand-built
//! instructions the compiler would never emit.

use dpu_compiler::{compile, CompileOptions};
use dpu_dag::{Dag, DagBuilder, NodeId, Op};
use dpu_isa::{ArchConfig, ExecInstr, Instr, PeId, PeOpcode, PortRead, Program};
use dpu_sim::{run_decoded_on, run_on, DecodedProgram, Machine, RunResult};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_dag(seed: u64) -> (Dag, Vec<f32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = DagBuilder::new();
    let n_inputs = rng.gen_range(4..12);
    let mut ids: Vec<NodeId> = (0..n_inputs).map(|_| b.input()).collect();
    for _ in 0..rng.gen_range(40..160) {
        let i = ids[rng.gen_range(0..ids.len())];
        let j = ids[rng.gen_range(0..ids.len())];
        let op = match rng.gen_range(0..6) {
            0 => Op::Add,
            1 => Op::Mul,
            2 => Op::Sub,
            3 => Op::Div,
            4 => Op::Min,
            _ => Op::Max,
        };
        ids.push(b.node(op, &[i, j]).unwrap());
    }
    let dag = b.finish().unwrap();
    let inputs: Vec<f32> = (0..n_inputs).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    (dag, inputs)
}

fn assert_same(tag: &str, point: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cycles, b.cycles, "{point}: {tag} cycle count diverged");
    assert_eq!(a.activity, b.activity, "{point}: {tag} activity diverged");
    assert_eq!(a.outputs.len(), b.outputs.len(), "{point}: {tag} arity");
    for (i, (x, y)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{point}: {tag} output {i} diverged ({x} vs {y})"
        );
    }
}

#[test]
fn oracle_and_decoded_paths_are_bit_identical() {
    let configs = [
        (1u32, 4u32, 16u32),
        (2, 8, 16),
        (2, 8, 32),
        (3, 16, 32),
        (2, 8, 6), // tiny R: forces spill stores/loads into the program
    ];
    let mut oracle_machine = Machine::new(ArchConfig::new(1, 2, 2).unwrap());
    let mut decoded_machine = Machine::new(ArchConfig::new(1, 2, 2).unwrap());
    let mut points = 0;
    for seed in 0..10u64 {
        let (dag, inputs) = random_dag(1000 + seed);
        for (d, bk, r) in configs {
            let cfg = ArchConfig::new(d, bk, r).unwrap();
            let compiled = match compile(&dag, &cfg, &CompileOptions::default()) {
                Ok(c) => c,
                // A config too small for this DAG is not a differential
                // point; skip rather than weaken the config set.
                Err(_) => continue,
            };
            let point = format!("seed {seed} cfg {d}/{bk}/{r}");
            let oracle = run_on(&mut oracle_machine, &compiled, &inputs).unwrap();
            let decoded_prog = DecodedProgram::decode(&compiled.program).unwrap();
            let decoded =
                run_decoded_on(&mut decoded_machine, &compiled, &decoded_prog, &inputs).unwrap();
            assert_same("decoded", &point, &oracle, &decoded);
            points += 1;
        }
    }
    assert!(points >= 45, "only {points} differential points ran");
}

/// `Program { .. }` literals skip `Instr::validate`, so both executors can
/// be handed an `exec` that reads one bank at two addresses: ports 0/1/2
/// reading `(0,0)`, `(0,1)`, `(0,0)`. Broadcast dedup is keyed on
/// `(bank, addr)`, so the third port re-uses the first port's fetch — two
/// register reads, three crossbar hops — and the oracle and the decoder
/// must agree on that, not only on what the compiler emits.
#[test]
fn same_bank_a_b_a_reads_count_the_same_in_both_executors() {
    let cfg = ArchConfig::new(2, 4, 4).unwrap();
    let read = |addr| {
        Some(PortRead {
            bank: 0,
            addr,
            valid_rst: false,
        })
    };
    let mut exec = ExecInstr::idle(&cfg);
    exec.reads[0] = read(0);
    exec.reads[1] = read(1);
    exec.reads[2] = read(0);
    exec.pe_ops[PeId::new(0, 1, 0).flat_index(&cfg) as usize] = PeOpcode::Add;
    let load_bank0 = Instr::Load {
        row: 0,
        mask: vec![true, false, false, false],
    };
    let program = Program {
        config: cfg,
        instrs: vec![load_bank0.clone(), load_bank0, Instr::Exec(exec)],
    };

    let mut oracle = Machine::new(cfg);
    oracle.poke(0, 0, 1.5).unwrap();
    oracle.run_program(&program).unwrap();

    let mut decoded = Machine::new(cfg);
    decoded.poke(0, 0, 1.5).unwrap();
    decoded
        .run_decoded(&DecodedProgram::decode(&program).unwrap())
        .unwrap();

    assert_eq!(oracle.activity(), decoded.activity());
    assert_eq!(oracle.cycle(), decoded.cycle());
    assert_eq!(oracle.activity().reg_reads, 2, "A,B,A fetches A once");
    assert_eq!(oracle.activity().crossbar_hops, 3);
}
