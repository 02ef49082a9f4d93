//! The DAGs a workload runs, their seeded inputs, and the serial reference
//! every reply is compared with.

use std::sync::Arc;

use dpu_core::compiler::Compiled;
use dpu_core::dag::{eval, Dag, Op};
use dpu_core::prelude::*;
use dpu_core::sim::Machine;
use dpu_core::workloads::pc::{generate_pc, PcParams};
use dpu_core::workloads::sparse::{
    generate_lower_triangular, CsrMatrix, LowerTriangularParams, SpmvDag,
};
use dpu_core::workloads::sptrsv::SptrsvDag;
use dpu_core::workloads::{BenchmarkSpec, WorkloadClass};

use crate::rng::Rng;

/// Where a DAG comes from; enough to generate it again.
#[derive(Debug, Clone)]
pub enum Source {
    Pc {
        nodes: usize,
        depth: usize,
        seed: u64,
    },
    Sptrsv {
        dim: usize,
        seed: u64,
    },
    Spmv {
        dim: usize,
        seed: u64,
    },
    /// A Table I benchmark at `scale` of its published node count.
    Suite {
        spec: BenchmarkSpec,
        scale: f64,
    },
}

/// Draws one input vector for a DAG.
pub enum InputGen {
    Uniform {
        n: usize,
        lo: f32,
        hi: f32,
    },
    /// A range of its own for every input, see [`solve_ranges`].
    PerInput(Vec<(f32, f32)>),
    Spmv(Box<SpmvDag>, CsrMatrix),
}

impl InputGen {
    pub fn draw(&self, rng: &mut Rng) -> Vec<f32> {
        let mut uniform = |n: usize, lo, hi| (0..n).map(|_| rng.range_f32(lo, hi)).collect();
        match self {
            InputGen::Uniform { n, lo, hi } => uniform(*n, *lo, *hi),
            InputGen::PerInput(ranges) => ranges
                .iter()
                .map(|&(lo, hi)| rng.range_f32(lo, hi))
                .collect(),
            InputGen::Spmv(spmv, a) => {
                let x: Vec<f32> = uniform(a.dim, 0.2, 0.8);
                spmv.inputs(a, &x)
            }
        }
    }
}

impl Source {
    /// The same shape under another generator seed.
    pub fn reseeded(&self, seed: u64) -> Source {
        let mut source = self.clone();
        match &mut source {
            Source::Pc { seed: s, .. }
            | Source::Sptrsv { seed: s, .. }
            | Source::Spmv { seed: s, .. } => *s = seed,
            Source::Suite { spec, .. } => spec.seed = seed,
        }
        source
    }

    pub fn label(&self) -> String {
        match self {
            Source::Pc { nodes, depth, .. } => format!("pc_{nodes}_{depth}"),
            Source::Sptrsv { dim, .. } => format!("sptrsv_{dim}"),
            Source::Spmv { dim, .. } => format!("spmv_{dim}"),
            Source::Suite { spec, .. } => spec.name.to_string(),
        }
    }

    /// Generates the DAG and its input generator: every call into
    /// `dpu_core::workloads` the benchmark makes is here.
    pub fn generate(&self) -> (Dag, InputGen) {
        match self {
            Source::Pc { nodes, depth, seed } => {
                let dag = generate_pc(&PcParams::with_targets(*nodes, *depth), *seed);
                let n = dag.input_count();
                // Log-probabilities, as `pc_inputs` draws them.
                (
                    dag,
                    InputGen::Uniform {
                        n,
                        lo: -1.0,
                        hi: -0.01,
                    },
                )
            }
            Source::Sptrsv { dim, seed } => {
                let params = LowerTriangularParams::for_target_path(*dim, 2.0, 20);
                let l = generate_lower_triangular(&params, *seed);
                let dag = SptrsvDag::build(&l).dag;
                let gen = InputGen::PerInput(solve_ranges(&dag));
                (dag, gen)
            }
            Source::Spmv { dim, seed } => {
                let params = LowerTriangularParams {
                    dim: *dim,
                    avg_nnz_per_row: 4.0,
                    band_fraction: 0.7,
                    band: 10,
                };
                let a = generate_lower_triangular(&params, *seed);
                let spmv = SpmvDag::build(&a);
                (spmv.dag.clone(), InputGen::Spmv(Box::new(spmv), a))
            }
            Source::Suite { spec, scale } => {
                let dag = spec.generate_scaled(*scale);
                let gen = match spec.class {
                    WorkloadClass::SpTrsv => InputGen::PerInput(solve_ranges(&dag)),
                    WorkloadClass::Pc | WorkloadClass::LargePc => InputGen::Uniform {
                        n: dag.input_count(),
                        lo: -1.0,
                        hi: -0.01,
                    },
                };
                (dag, gen)
            }
        }
    }
}

/// The range each input of a triangular-solve DAG is drawn from, read off
/// the DAG: an input that divides is a diagonal value, one that multiplies
/// an off-diagonal value of a row of `k`, any other a right-hand side.
///
/// Right-hand sides in `[0.5, 1.5)`, diagonals in `[1, 2)` and off-diagonals
/// in `(-0.75 / k, -0.25 / k]` make `L` an M-matrix: every `b_i - sum` adds
/// positive numbers, every `x_i` lies in `(0, 6)`, and nothing cancels. With
/// values of one sign a solve now and then cancels to a thousandth of its
/// operands under some seed, and the re-associated sum of the compiled
/// program then leaves the 1e-3 band around `dag::eval` although both are
/// right.
pub fn solve_ranges(dag: &Dag) -> Vec<(f32, f32)> {
    let user = |n| dag.succs(n).first().map(|&u| (u, dag.op(u)));
    dag.nodes()
        .filter(|&n| dag.op(n) == Op::Input)
        .map(|n| match user(n) {
            Some((div, Op::Div)) if dag.preds(div)[1] == n => (1.0, 2.0),
            Some((mul, Op::Mul)) => {
                let k = match user(mul) {
                    Some((sum, Op::Add)) => dag.in_degree(sum) as f32,
                    _ => 1.0,
                };
                (-0.75 / k, -0.25 / k)
            }
            _ => (0.5, 1.5),
        })
        .collect()
}

/// One DAG of a workload with its input pool.
pub struct Item {
    pub source: Source,
    pub dag: Dag,
    pub inputs: Vec<Vec<f32>>,
    /// `dag::eval` sink values per pool entry, in the order a compiled
    /// program stores its outputs.
    pub expected: Vec<Vec<f32>>,
}

impl Item {
    pub fn new(source: Source, pool: usize, rng: &mut Rng) -> Item {
        let (dag, gen) = source.generate();
        let inputs: Vec<Vec<f32>> = (0..pool).map(|_| gen.draw(rng)).collect();
        let expected = inputs
            .iter()
            .map(|i| eval::evaluate_sinks(&dag, i).expect("generated inputs match the DAG"))
            .collect();
        Item {
            source,
            dag,
            inputs,
            expected,
        }
    }
}

/// An [`Item`] registered with a serial engine: the program the engine
/// compiled and the reply it gave for each pool entry.
pub struct Reference {
    pub key: DagKey,
    pub compiled: Arc<Compiled>,
    pub want: Vec<RunResult>,
}

/// Runs every pool entry of every item through one serial [`Engine`] (one
/// worker, one machine, the single-request path) and checks each reply
/// against `dag::eval`.
pub fn references(dpu: &Dpu, items: &[Item]) -> Result<Vec<Reference>, String> {
    let engine = dpu.engine(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    });
    let mut machine = Machine::new(dpu.config);
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let key = engine.register(item.dag.clone());
        let compiled = engine
            .warm(key)
            .map_err(|e| format!("{}: {e}", item.source.label()))?;
        let mut want = Vec::with_capacity(item.inputs.len());
        for (inputs, expected) in item.inputs.iter().zip(&item.expected) {
            let run = engine
                .execute(&mut machine, &Request::new(key, inputs.clone()))
                .map_err(|e| format!("{}: {e}", item.source.label()))?;
            if !close_to_eval(&run.outputs, expected) {
                return Err(format!(
                    "{}: serial reference disagrees with dag::eval",
                    item.source.label()
                ));
            }
            want.push(run);
        }
        out.push(Reference {
            key,
            compiled,
            want,
        });
    }
    Ok(out)
}

/// Each DAG with the reference reply to its first pool entry: what the
/// simulated figures of a workload are summarised from.
pub fn first_runs<'a>(
    items: &'a [Item],
    refs: &'a [Reference],
) -> impl Iterator<Item = (&'a Dag, &'a RunResult)> {
    items.iter().zip(refs).map(|(i, r)| (&i.dag, &r.want[0]))
}

/// Within 1e-3 of the DAG evaluator (which re-associates nothing).
pub fn close_to_eval(got: &[f32], expected: &[f32]) -> bool {
    eval::values_close(got, expected, 1e-3)
}

/// Counts operations and wrong or missing replies.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// Test hook: flip one bit of the reply to this attempt (1-based).
    pub corrupt_attempt: Option<u64>,
}

impl Checker {
    /// Counts one operation; `got` is `None` when it produced no reply
    /// (rejected, shed or failed). Equality is of output bits only: cycle
    /// and activity equality would assume two compiles of one DAG agree,
    /// which they do not once the compiler spills.
    pub fn reply(&mut self, want: &[f32], got: Option<&[f32]>) {
        self.check(got, |g| {
            g.len() == want.len() && g.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
        });
    }

    /// Counts one operation checked against `dag::eval` within 1e-3.
    pub fn close(&mut self, expected: &[f32], got: Option<&[f32]>) {
        self.check(got, |g| close_to_eval(g, expected));
    }

    fn check(&mut self, got: Option<&[f32]>, ok: impl Fn(&[f32]) -> bool) {
        self.attempted += 1;
        let passed = match got {
            Some(g) if self.corrupt_attempt == Some(self.attempted) && !g.is_empty() => {
                let mut bad = g.to_vec();
                bad[0] = f32::from_bits(bad[0].to_bits() ^ 0x0040_0000);
                ok(&bad)
            }
            Some(g) => ok(g),
            None => false,
        };
        if !passed {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_wrong_missing_and_corrupted_replies() {
        let mut c = Checker {
            corrupt_attempt: Some(3),
            ..Checker::default()
        };
        c.reply(&[1.0, 2.0], Some(&[1.0, 2.0]));
        c.reply(&[1.0, 2.0], None);
        c.reply(&[1.0, 2.0], Some(&[1.0, 2.0])); // corrupted by the hook
        c.reply(&[1.0], Some(&[1.0000001]));
        c.close(&[1.0], Some(&[1.0000001]));
        assert_eq!((c.attempted, c.failed), (5, 3));
    }

    #[test]
    fn same_seed_same_items_and_references_hold() {
        let source = Source::Pc {
            nodes: 60,
            depth: 4,
            seed: 9,
        };
        let a = Item::new(source.clone(), 3, &mut Rng::new(5));
        let b = Item::new(source, 3, &mut Rng::new(5));
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.dag.len(), b.dag.len());
        let refs = references(&Dpu::large(), &[a]).unwrap();
        assert_eq!(refs[0].want.len(), 3);
    }

    #[test]
    fn a_solve_s_inputs_make_an_m_matrix_and_a_bounded_solution() {
        let source = Source::Sptrsv { dim: 120, seed: 4 };
        let (dag, _) = source.generate();
        let ranges = solve_ranges(&dag);
        assert_eq!(ranges.len(), dag.input_count());
        // 120 right-hand sides, 120 diagonals, the rest off-diagonals.
        let count = |r: (f32, f32)| ranges.iter().filter(|&&x| x == r).count();
        assert_eq!((count((0.5, 1.5)), count((1.0, 2.0))), (120, 120));
        assert!(ranges
            .iter()
            .all(|&(lo, hi)| lo < hi && (lo > 0.0 || hi < 0.0)));
        let item = Item::new(source, 8, &mut Rng::new(35));
        assert!(item.expected.iter().flatten().all(|&x| x > 0.0 && x < 6.0));
    }
}
