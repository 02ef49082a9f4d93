//! Packed-image execution equivalence and failure injection: corrupt
//! programs must be *detected*, not silently executed. These drive the
//! oracle ([`Machine::step`] / [`Machine::run_program`]) directly.

use dpu_compiler::{compile, CompileOptions};
use dpu_dag::{DagBuilder, NodeId, Op};
use dpu_isa::{ArchConfig, Instr, Program, RegRead};
use dpu_sim::{Machine, SimError};

fn workload() -> (dpu_dag::Dag, Vec<f32>) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(21);
    let mut b = DagBuilder::new();
    let mut ids: Vec<NodeId> = (0..10).map(|_| b.input()).collect();
    for _ in 0..200 {
        let i = ids[rng.gen_range(0..ids.len())];
        let j = ids[rng.gen_range(0..ids.len())];
        let op = if rng.gen_bool(0.5) { Op::Add } else { Op::Mul };
        ids.push(b.node(op, &[i, j]).unwrap());
    }
    let dag = b.finish().unwrap();
    let inputs: Vec<f32> = (0..10).map(|i| 0.5 + i as f32 * 0.05).collect();
    (dag, inputs)
}

/// The packed binary image is self-contained: unpacking it (the fetch +
/// shifter + decoder path of Fig. 7(b)) and executing the result produces
/// exactly the same state and cycle count as executing the program the
/// compiler handed over.
#[test]
fn packed_image_execution_is_equivalent() {
    let (dag, inputs) = workload();
    let cfg = ArchConfig::new(2, 8, 32).unwrap();
    let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();

    let stage = |m: &mut Machine| {
        for (&(row, col), &v) in compiled.layout.input_slots.iter().zip(&inputs) {
            if row != u32::MAX {
                m.poke(row, col, v).unwrap();
            }
        }
    };
    let mut direct = Machine::new(cfg);
    stage(&mut direct);
    direct.run_program(&compiled.program).unwrap();

    let mut packed = Machine::new(cfg);
    stage(&mut packed);
    let image = compiled.program.pack();
    let unpacked = Program::unpack(cfg, &image, compiled.program.len()).unwrap();
    packed.run_program(&unpacked).unwrap();

    assert_eq!(direct.cycle(), packed.cycle());
    assert_eq!(direct.activity(), packed.activity());
    for &(row, col) in &compiled.layout.output_slots {
        assert_eq!(
            direct.peek(row, col).unwrap(),
            packed.peek(row, col).unwrap()
        );
    }
}

/// Flipping a premature valid_rst in a real program makes a later read hit
/// an empty register — the machine must detect it.
#[test]
fn premature_rst_is_detected() {
    let (dag, inputs) = workload();
    let cfg = ArchConfig::new(2, 8, 32).unwrap();
    let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
    let mut program = compiled.program.clone();
    // Find the first exec read without rst and force it on.
    let mut corrupted = false;
    'outer: for ins in &mut program.instrs {
        if let Instr::Exec(e) = ins {
            for r in e.reads.iter_mut().flatten() {
                if !r.valid_rst {
                    r.valid_rst = true;
                    corrupted = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(corrupted, "workload has a reusable operand");
    let mut m = Machine::new(cfg);
    for (&(row, col), &v) in compiled.layout.input_slots.iter().zip(&inputs) {
        if row != u32::MAX {
            m.poke(row, col, v).unwrap();
        }
    }
    let err = m.run_program(&program);
    assert!(
        matches!(err, Err(SimError::ReadInvalid { .. })),
        "corruption must be caught, got {err:?}"
    );
}

/// An extra load into a busy bank eventually overflows it.
#[test]
fn overflowing_injection_is_detected() {
    let cfg = ArchConfig::new(1, 2, 4).unwrap();
    let mut m = Machine::new(cfg);
    let mask = vec![true, true];
    for _ in 0..4 {
        m.step(&Instr::Load {
            row: 0,
            mask: mask.clone(),
        })
        .unwrap();
    }
    let err = m.step(&Instr::Load { row: 0, mask });
    assert!(matches!(err, Err(SimError::BankOverflow { .. })));
}

/// A store reading a stale address after rst must fail loudly.
#[test]
fn stale_store_read_is_detected() {
    let cfg = ArchConfig::new(1, 2, 4).unwrap();
    let mut m = Machine::new(cfg);
    m.step(&Instr::Load {
        row: 0,
        mask: vec![true, false],
    })
    .unwrap();
    let rd = RegRead {
        bank: 0,
        addr: 0,
        valid_rst: true,
    };
    m.step(&Instr::StoreK {
        row: 1,
        reads: vec![rd],
    })
    .unwrap();
    // Second read of the freed register.
    let err = m.step(&Instr::StoreK {
        row: 2,
        reads: vec![RegRead {
            bank: 0,
            addr: 0,
            valid_rst: false,
        }],
    });
    assert!(matches!(err, Err(SimError::ReadInvalid { .. })));
}

/// Batch execution: 4 cores on 4 inputs take one round; aggregate
/// throughput is ~4x a single run's.
#[test]
fn batch_execution_scales_throughput() {
    let (dag, inputs) = workload();
    let cfg = ArchConfig::new(2, 8, 32).unwrap();
    let compiled = compile(&dag, &cfg, &CompileOptions::default()).unwrap();
    let batch: Vec<Vec<f32>> = (0..4)
        .map(|k| inputs.iter().map(|v| v + k as f32 * 0.01).collect())
        .collect();
    let single = dpu_sim::run(&compiled, &inputs).unwrap();
    let b = dpu_sim::run_batch(&compiled, &batch, 4).unwrap();
    assert_eq!(b.batch_cycles, single.cycles);
    let t1 = dpu_sim::throughput_ops(&single, 300e6);
    let t4 = b.throughput_ops(300e6);
    assert!((t4 / t1 - 4.0).abs() < 0.01, "ratio {}", t4 / t1);
    // Two cores on four inputs: two rounds.
    let b2 = dpu_sim::run_batch(&compiled, &batch, 2).unwrap();
    assert_eq!(b2.batch_cycles, 2 * single.cycles);
}
