//! Differential fuzz: the oracle ([`Machine::run_program`], one
//! [`Machine::step`] per instruction) and the production executor
//! ([`Machine::run_decoded`]) must be indistinguishable on every program:
//! bit-identical outputs, identical cycle counts and identical activity
//! counters, across random workloads × architecture configs (including a
//! tiny-register config that forces compiler spills) — and on hand-built
//! instructions the compiler would never emit. The same holds lane by
//! lane when [`run_decoded_group`] carries several input sets through one
//! pass: every group size, padded tail and short remainder included. And
//! a program the oracle faults on is refused by
//! [`DecodedProgram::decode`] with the oracle's exact error.

use dpu_compiler::{compile, CompileOptions};
use dpu_dag::{Dag, DagBuilder, NodeId, Op};
use dpu_isa::{ArchConfig, CopyMove, ExecInstr, Instr, PeId, PeOpcode, PortRead, Program, RegRead};
use dpu_sim::{
    run_decoded_group, run_decoded_on, run_on, DecodedProgram, Machine, RunResult, SimError,
};
use dpu_workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_workloads::sptrsv::SptrsvDag;

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
    decoded.run_decoded(&DecodedProgram::decode(&program).unwrap());

    assert_eq!(oracle.activity(), decoded.activity());
    assert_eq!(oracle.cycle(), decoded.cycle());
    assert_eq!(oracle.activity().reg_reads, 2, "A,B,A fetches A once");
    assert_eq!(oracle.activity().crossbar_hops, 3);
}

/// Input set `k` for `dag`: PC leaves in their own range, everything else
/// a smooth sequence that differs per `k`.
fn inputs_for(dag: &Dag, k: usize) -> Vec<f32> {
    if dag.nodes().any(|n| dag.op(n) == Op::Max) {
        pc_inputs(dag, k as u64)
    } else {
        (0..dag.input_count())
            .map(|i| 0.5 + 0.4 * (((i + 3 * k) as f32) * 0.7).sin())
            .collect()
    }
}

/// One PC, one SpTRSV and one SpMV at the min-EDP point, and a random DAG
/// on a register file small enough to spill.
fn lane_points() -> Vec<(&'static str, Dag, ArchConfig)> {
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(40, 1.5, 10), 82);
    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 50,
            avg_nnz_per_row: 3.0,
            band_fraction: 0.7,
            band: 8,
        },
        83,
    );
    vec![
        (
            "pc",
            generate_pc(&PcParams::with_targets(400, 8), 81),
            ArchConfig::min_edp(),
        ),
        ("sptrsv", SptrsvDag::build(&l).dag, ArchConfig::min_edp()),
        ("spmv", SpmvDag::build(&a).dag, ArchConfig::min_edp()),
        (
            "spilling",
            random_dag(1003).0,
            ArchConfig::new(2, 8, 6).unwrap(),
        ),
    ]
}

/// Groups of 1..=17 input sets — a lone input, a pair run one lane wide,
/// every padded tail, two exact multiples of the lane count and the short
/// remainders after them — give each member exactly what it gets alone,
/// from the decoded executor and from the oracle. Then one machine
/// alternates between two of the programs through every group size: a
/// tape never clears its value slots, so whatever the other program left
/// in them must never be read.
#[test]
fn every_lane_of_every_group_size_matches_the_scalar_run_and_the_oracle() {
    let mut same_config = Vec::new();
    for (name, dag, cfg) in lane_points() {
        let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
        if name == "spilling" {
            assert!(compiled.stats.spill_stores > 0, "the point must spill");
        }
        let decoded = DecodedProgram::decode(&compiled.program).unwrap();
        let inputs: Vec<Vec<f32>> = (0..17).map(|k| inputs_for(&dag, k)).collect();
        let mut oracle_machine = Machine::new(cfg);
        // Each input alone, each on a machine nothing else has run on.
        let alone: Vec<RunResult> = inputs
            .iter()
            .map(|i| run_decoded_on(&mut Machine::new(cfg), &compiled, &decoded, i).unwrap())
            .collect();
        for (k, i) in inputs.iter().enumerate() {
            let oracle = run_on(&mut oracle_machine, &compiled, i).unwrap();
            assert_same(
                "alone vs oracle",
                &format!("{name} input {k}"),
                &oracle,
                &alone[k],
            );
        }
        // One machine across all sizes: its wide state is reused, reset
        // per chunk, and must leave nothing behind for the next group.
        let mut group_machine = Machine::new(cfg);
        for n in 1..=inputs.len() {
            let group = run_decoded_group(&mut group_machine, &compiled, &decoded, &inputs[..n]);
            assert_eq!(group.len(), n, "{name}: one result per input");
            for (k, lane) in group.iter().enumerate() {
                let point = format!("{name} group of {n}, member {k}");
                assert_same("lane vs alone", &point, &alone[k], lane.as_ref().unwrap());
            }
        }
        if cfg == ArchConfig::min_edp() {
            same_config.push((name, compiled, decoded, inputs, alone));
        }
    }
    let mut shared = Machine::new(ArchConfig::min_edp());
    for n in 1..=17 {
        for (name, compiled, decoded, inputs, alone) in &same_config[..2] {
            let group = run_decoded_group(&mut shared, compiled, decoded, &inputs[..n]);
            for (k, lane) in group.iter().enumerate() {
                let point = format!("alternating, {name} group of {n}, member {k}");
                assert_same("shared vs fresh", &point, &alone[k], lane.as_ref().unwrap());
            }
        }
    }
}

/// A hand-built program over two input words, `(0, 0)` and `(0, 1)`,
/// whose output word `(1, k)` must hold input `want[k]` — wrapped as a
/// [`Compiled`](dpu_compiler::Compiled) so that it can be run as a group:
/// the oracle, the one-lane tape walk and each lane of a group of eight
/// must agree bit for bit.
fn assert_hand_built_program(name: &str, cfg: ArchConfig, instrs: Vec<Instr>, want: &[usize]) {
    let n_inputs = 2;
    let mut b = DagBuilder::new();
    let ids: Vec<NodeId> = (0..n_inputs).map(|_| b.input()).collect();
    b.node(Op::Add, &ids).unwrap();
    let mut program = compile(&b.finish().unwrap(), &cfg, &CompileOptions::default()).unwrap();
    program.program.instrs = instrs;
    program.layout.input_slots = (0..n_inputs as u32).map(|k| (0, k)).collect();
    program.layout.output_slots = (0..want.len() as u32).map(|k| (1, k)).collect();
    let decoded = DecodedProgram::decode(&program.program).unwrap();
    let inputs: Vec<Vec<f32>> = (0..8)
        .map(|k| vec![1.5 + k as f32, -0.25 - k as f32])
        .collect();
    let mut m = Machine::new(cfg);
    let group = run_decoded_group(&mut m, &program, &decoded, &inputs);
    for (k, i) in inputs.iter().enumerate() {
        let point = format!("{name}, input {k}");
        let oracle = run_on(&mut m, &program, i).unwrap();
        let expected: Vec<f32> = want.iter().map(|&w| i[w]).collect();
        assert_eq!(oracle.outputs, expected, "{point}: the oracle itself");
        let alone = run_decoded_on(&mut m, &program, &decoded, i).unwrap();
        assert_same("alone vs oracle", &point, &oracle, &alone);
        assert_same(
            "lane vs oracle",
            &point,
            &oracle,
            group[k].as_ref().unwrap(),
        );
    }
}

fn reg(bank: u32, addr: u32, valid_rst: bool) -> RegRead {
    RegRead {
        bank,
        addr,
        valid_rst,
    }
}

/// The two orderings a tape can get wrong where a cycle loop cannot,
/// because a register file frees and re-fills *registers* while a tape
/// only ever sees their slots.
///
/// `copy.k` reads all its sources before it writes: a destination may be
/// the very register a later move of the same instruction read and freed
/// (the encoder hands out the lowest free address), and two moves may
/// even swap two registers.
#[test]
fn a_copy_may_write_the_register_its_own_later_move_frees() {
    let cfg = ArchConfig::new(1, 4, 4).unwrap();
    let load_a_b = Instr::Load {
        row: 0,
        mask: vec![true, true, false, false],
    };
    let store = |reads: [Option<RegRead>; 4]| Instr::Store {
        row: 1,
        reads: reads.to_vec(),
    };
    let mv = |src: RegRead, dst_bank: u32| CopyMove { src, dst_bank };
    // (0,0) = a, (1,0) = b. Move 0 copies a into bank 1, move 1 moves b
    // out of (1,0) into bank 2 — and frees it, so move 0 lands *in*
    // (1,0). In-order slot moves would hand move 1 the copy of a.
    assert_hand_built_program(
        "chain",
        cfg,
        vec![
            load_a_b.clone(),
            Instr::CopyK {
                moves: vec![mv(reg(0, 0, false), 1), mv(reg(1, 0, true), 2)],
            },
            store([
                Some(reg(0, 0, false)),
                Some(reg(1, 0, false)),
                Some(reg(2, 0, false)),
                None,
            ]),
        ],
        &[0, 0, 1],
    );
    // Both moves free their source, and each lands in the other's.
    assert_hand_built_program(
        "swap",
        cfg,
        vec![
            load_a_b,
            Instr::CopyK {
                moves: vec![mv(reg(0, 0, true), 1), mv(reg(1, 0, true), 0)],
            },
            store([Some(reg(0, 0, false)), Some(reg(1, 0, false)), None, None]),
        ],
        &[1, 0],
    );
}

/// An `exec` result latched through bypass PEs straight from a port is
/// the port register's value *at issue*: the register may be freed by
/// that same read and hold something else by the time the result lands,
/// `D` cycles later.
#[test]
fn a_bypassed_writeback_carries_the_value_its_port_read_at_issue() {
    let cfg = ArchConfig::new(2, 4, 4).unwrap();
    let load_bank0 = |row| Instr::Load {
        row,
        mask: vec![true, false, false, false],
    };
    let mut exec = ExecInstr::idle(&cfg);
    exec.reads[0] = Some(PortRead {
        bank: 0,
        addr: 0,
        valid_rst: true,
    });
    exec.pe_ops[PeId::new(0, 1, 0).flat_index(&cfg) as usize] = PeOpcode::BypassL;
    exec.pe_ops[PeId::new(0, 2, 0).flat_index(&cfg) as usize] = PeOpcode::BypassL;
    exec.writes[1] = Some(PeId::new(0, 2, 0));
    assert_hand_built_program(
        "bypass chain",
        cfg,
        vec![
            // Cycle 0: (0,0) = a.
            load_bank0(0),
            // Cycle 1: a, read and freed, is due in bank 1 after cycle 3.
            Instr::Exec(exec),
            // Cycle 2: (0,0) is the lowest free register of bank 0 again
            // and takes a word of row 2, which nothing wrote: zero. A
            // landing that read the register's slot now would latch it.
            load_bank0(2),
            Instr::Nop,
            Instr::Store {
                row: 1,
                reads: vec![Some(reg(1, 0, false)), None, None, None],
            },
        ],
        &[0],
    );
}

/// A fault is the program's, not the data's, so it is raised once, by
/// `decode`, before any lane runs: a corrupt program is refused with
/// exactly the error — variant, bank, address, cycle — the oracle reports
/// when it runs it. The corruptions are those of `packed_and_faults.rs`,
/// plus a write-port clash. (Through the engine, the same error fails
/// each member of the program's group: `dpu-runtime`'s
/// `a_corrupt_cached_program_fails_its_group_and_nothing_else`.)
#[test]
fn a_faulting_program_fails_every_lane_with_the_scalar_error() {
    let (_, dag, cfg) = lane_points().swap_remove(0);
    let good = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
    let depth = cfg.depth as usize;

    // A premature `valid_rst`: a later read hits an empty register.
    let mut premature_rst = good.clone();
    let first_reusable = premature_rst
        .program
        .instrs
        .iter_mut()
        .filter_map(|ins| match ins {
            Instr::Exec(e) => e.reads.iter_mut().flatten().find(|r| !r.valid_rst),
            _ => None,
        })
        .next()
        .expect("workload has a reusable operand");
    first_reusable.valid_rst = true;

    // `R + 1` extra loads into bank 0 overflow it.
    let mut overflow = good.clone();
    let mut bank0 = vec![false; cfg.banks as usize];
    bank0[0] = true;
    let load_bank0 = Instr::Load {
        row: 0,
        mask: bank0,
    };
    overflow.program.instrs.splice(
        0..0,
        std::iter::repeat_n(load_bank0, cfg.regs_per_bank as usize + 1),
    );

    // A load into the bank an `exec` writes, issued the cycle its
    // writeback lands.
    let mut clash = good.clone();
    let (at, bank) = clash
        .program
        .instrs
        .iter()
        .enumerate()
        .find_map(|(i, ins)| match ins {
            Instr::Exec(e) => Some((i, e.writes.iter().position(Option::is_some)?)),
            _ => None,
        })
        .expect("workload has an exec writeback");
    let mut mask = vec![false; cfg.banks as usize];
    mask[bank] = true;
    clash
        .program
        .instrs
        .insert(at + depth, Instr::Load { row: 0, mask });

    let inputs: Vec<Vec<f32>> = (0..3).map(|k| inputs_for(&dag, k)).collect();
    let good_decoded = DecodedProgram::decode(&good.program).unwrap();
    let served: Vec<RunResult> = inputs
        .iter()
        .map(|i| run_decoded_on(&mut Machine::new(cfg), &good, &good_decoded, i).unwrap())
        .collect();
    for (name, bad) in [
        ("premature rst", premature_rst),
        ("overflow", overflow),
        ("port clash", clash),
    ] {
        let mut m = Machine::new(cfg);
        let want = run_on(&mut m, &bad, &inputs[0]).unwrap_err();
        match name {
            "premature rst" => assert!(matches!(want, SimError::ReadInvalid { .. }), "{want:?}"),
            "overflow" => assert!(matches!(want, SimError::BankOverflow { .. }), "{want:?}"),
            _ => assert!(matches!(want, SimError::WritePortClash { .. }), "{want:?}"),
        }
        assert_eq!(
            DecodedProgram::decode(&bad.program).unwrap_err(),
            want,
            "{name}: decode vs the oracle's run"
        );
        // The machine the oracle faulted on serves a good program next.
        let after = run_decoded_group(&mut m, &good, &good_decoded, &inputs);
        for (k, (lane, want)) in after.iter().zip(&served).enumerate() {
            let point = format!("{name}, then input {k}");
            assert_same("after a fault", &point, want, lane.as_ref().unwrap());
        }
    }
}
