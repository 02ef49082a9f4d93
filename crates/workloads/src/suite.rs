//! The paper's benchmark suite (Table I), regenerated synthetically.
//!
//! Each [`BenchmarkSpec`] records the published statistics (node count `n`,
//! longest path `l`) of one Table I workload plus the seeded generator
//! parameters that reproduce a DAG with matching statistics. Every
//! experiment binary obtains its DAGs from here, so results are
//! reproducible run to run.

use dpu_dag::Dag;

use crate::pc::{generate_pc, PcParams};
use crate::sparse::{generate_lower_triangular, LowerTriangularParams};
use crate::sptrsv::SptrsvDag;

/// Which Table I section a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Table I(a): probabilistic circuits.
    Pc,
    /// Table I(b): sparse triangular solves.
    SpTrsv,
    /// Table I(c): large probabilistic circuits (0.6M–3.3M nodes).
    LargePc,
}

impl WorkloadClass {
    /// Section label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::Pc => "PC",
            WorkloadClass::SpTrsv => "SpTRSV",
            WorkloadClass::LargePc => "Large PC",
        }
    }
}

/// Generator behind a benchmark.
#[derive(Debug, Clone, PartialEq)]
enum Generator {
    Pc(PcParams),
    SpTrsv(LowerTriangularParams),
}

/// One Table I benchmark: published statistics plus the seeded synthetic
/// generator that reproduces them.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Workload name as it appears in the paper.
    pub name: &'static str,
    /// Table I section.
    pub class: WorkloadClass,
    /// Published node count (`n`).
    pub published_nodes: usize,
    /// Published longest path (`l`).
    pub published_longest_path: usize,
    /// Generator seed.
    pub seed: u64,
    gen: Generator,
}

/// Measured statistics of a generated DAG, mirroring Table I's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStats {
    /// Node count `n`.
    pub nodes: usize,
    /// Longest path `l`.
    pub longest_path: usize,
    /// Parallelism proxy `n / l`.
    pub n_over_l: f64,
}

impl BenchmarkSpec {
    fn pc(name: &'static str, n: usize, l: usize, seed: u64, class: WorkloadClass) -> Self {
        BenchmarkSpec {
            name,
            class,
            published_nodes: n,
            published_longest_path: l,
            seed,
            gen: Generator::Pc(PcParams::with_targets(n, l)),
        }
    }

    fn trsv(name: &'static str, n: usize, l: usize, dim: usize, seed: u64, calib: f64) -> Self {
        // Match node count: n ≈ 2·nnz + 2·dim ⇒ off-diagonals per row;
        // match critical path via the chain-link probability. `calib` is a
        // per-benchmark correction measured once against the generator
        // (chain runs concatenate through scattered entries, which the
        // closed-form estimate of `for_target_path` does not capture).
        let nnz = (n.saturating_sub(2 * dim)) / 2;
        let avg_off_diag = (nnz as f64 / dim as f64 - 1.0).max(0.3);
        BenchmarkSpec {
            name,
            class: WorkloadClass::SpTrsv,
            published_nodes: n,
            published_longest_path: l,
            seed,
            gen: Generator::SpTrsv(LowerTriangularParams::for_target_path(
                dim,
                avg_off_diag,
                (l as f64 * calib) as usize,
            )),
        }
    }

    /// Generates the workload DAG at full published size.
    pub fn generate(&self) -> Dag {
        self.generate_scaled(1.0)
    }

    /// Generates the workload at `scale` (0 < scale ≤ 1) of the published
    /// node count — used to keep the multi-million-node "Large PC" runs
    /// tractable (see DESIGN.md §4). Depth is preserved where possible.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn generate_scaled(&self, scale: f64) -> Dag {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        match &self.gen {
            Generator::Pc(p) => {
                let mut p = p.clone();
                p.target_nodes = ((p.target_nodes as f64 * scale) as usize).max(4 * p.target_depth);
                generate_pc(&p, self.seed)
            }
            Generator::SpTrsv(p) => {
                let mut p = *p;
                p.dim = ((p.dim as f64 * scale) as usize).max(16);
                let l = generate_lower_triangular(&p, self.seed);
                SptrsvDag::build(&l).dag
            }
        }
    }

    /// Measured statistics of the generated DAG.
    pub fn stats(&self, dag: &Dag) -> WorkloadStats {
        let l = dag.longest_path_len() as usize;
        WorkloadStats {
            nodes: dag.len(),
            longest_path: l,
            n_over_l: dag.len() as f64 / l.max(1) as f64,
        }
    }
}

/// Table I(a): the six PC benchmarks.
pub fn pc_suite() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::pc("tretail", 9_000, 49, 101, WorkloadClass::Pc),
        BenchmarkSpec::pc("mnist", 10_000, 26, 102, WorkloadClass::Pc),
        BenchmarkSpec::pc("nltcs", 14_000, 27, 103, WorkloadClass::Pc),
        BenchmarkSpec::pc("msnbc", 48_000, 28, 104, WorkloadClass::Pc),
        BenchmarkSpec::pc("msweb", 51_000, 73, 105, WorkloadClass::Pc),
        BenchmarkSpec::pc("bnetflix", 55_000, 53, 106, WorkloadClass::Pc),
    ]
}

/// Table I(b): the six SpTRSV benchmarks (SuiteSparse dimensions).
pub fn sptrsv_suite() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::trsv("bp_200", 8_000, 139, 822, 201, 0.95),
        BenchmarkSpec::trsv("west2021", 10_000, 136, 2_021, 202, 1.80),
        BenchmarkSpec::trsv("sieber", 23_000, 242, 2_290, 203, 0.58),
        BenchmarkSpec::trsv("jagmesh4", 44_000, 215, 1_440, 204, 0.62),
        BenchmarkSpec::trsv("rdb968", 51_000, 278, 968, 205, 0.59),
        BenchmarkSpec::trsv("dw2048", 79_000, 929, 2_048, 206, 0.87),
    ]
}

/// Table I(c): the four large PC benchmarks.
pub fn large_pc_suite() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::pc("pigs", 600_000, 90, 301, WorkloadClass::LargePc),
        BenchmarkSpec::pc("andes", 700_000, 84, 302, WorkloadClass::LargePc),
        BenchmarkSpec::pc("munin", 3_100_000, 337, 303, WorkloadClass::LargePc),
        BenchmarkSpec::pc("mildew", 3_300_000, 176, 304, WorkloadClass::LargePc),
    ]
}

/// The full small-workload suite (Table I(a) + (b)) used by the DSE and the
/// Fig. 14(a) comparison.
pub fn small_suite() -> Vec<BenchmarkSpec> {
    let mut v = pc_suite();
    v.extend(sptrsv_suite());
    v
}

/// A reduced suite (one PC + one SpTRSV at modest scale) for unit tests and
/// smoke benches.
pub fn tiny_suite() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::pc("tiny_pc", 1_200, 12, 401, WorkloadClass::Pc),
        BenchmarkSpec::trsv("tiny_trsv", 1_500, 60, 150, 402, 1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes() {
        assert_eq!(pc_suite().len(), 6);
        assert_eq!(sptrsv_suite().len(), 6);
        assert_eq!(large_pc_suite().len(), 4);
        assert_eq!(small_suite().len(), 12);
    }

    #[test]
    fn pc_benchmarks_match_published_stats() {
        for spec in pc_suite().into_iter().take(3) {
            let dag = spec.generate();
            let s = spec.stats(&dag);
            let err =
                (s.nodes as f64 - spec.published_nodes as f64).abs() / spec.published_nodes as f64;
            assert!(
                err < 0.15,
                "{}: nodes {} vs {}",
                spec.name,
                s.nodes,
                spec.published_nodes
            );
            assert_eq!(s.longest_path, spec.published_longest_path, "{}", spec.name);
        }
    }

    #[test]
    fn sptrsv_benchmarks_are_right_magnitude() {
        let spec = &sptrsv_suite()[0]; // bp_200
        let dag = spec.generate();
        let s = spec.stats(&dag);
        let ratio = s.nodes as f64 / spec.published_nodes as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{}: nodes {}",
            spec.name,
            s.nodes
        );
        assert!(
            s.longest_path > 20,
            "critical path too short: {}",
            s.longest_path
        );
    }

    #[test]
    fn scaled_generation_shrinks() {
        let spec = &pc_suite()[0];
        let full = spec.generate();
        let half = spec.generate_scaled(0.5);
        assert!(half.len() < full.len());
    }

    #[test]
    fn tiny_suite_generates_fast() {
        for spec in tiny_suite() {
            let dag = spec.generate();
            assert!(dag.len() > 100);
        }
    }
}
