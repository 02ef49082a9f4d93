//! Memory-footprint accounting (§IV-E).
//!
//! The compiler statically unfolds the DAG into instructions, which looks
//! wasteful next to a CSR-style loop — but the paper shows the *total*
//! footprint (instructions + data) ends up ~48% **smaller** than CSR,
//! because tree-internal edges need no addresses at all and register-file
//! addresses (11 bits in the min-EDP design) replace 32-bit global
//! pointers. This module computes both sides of that comparison.

use dpu_dag::{Dag, Op};
use dpu_isa::Program;

/// Footprint comparison for one compiled workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Instruction bits of the compiled program.
    pub instr_bits: u64,
    /// Data bits (data-memory rows actually used × row width × 32).
    pub data_bits: u64,
    /// Bits of the equivalent CSR representation (offsets + edge pointers +
    /// opcodes + one value slot per node).
    pub csr_bits: u64,
}

impl Footprint {
    /// Total DPU-v2 footprint in bits.
    pub fn total_bits(&self) -> u64 {
        self.instr_bits + self.data_bits
    }

    /// `1 − ours/CSR`: the paper reports ~0.48 averaged over the suite.
    pub fn reduction_vs_csr(&self) -> f64 {
        1.0 - self.total_bits() as f64 / self.csr_bits as f64
    }
}

/// Computes the footprint comparison for `program` compiled from `dag`,
/// where `rows_used` is the number of `B`-word data rows the layout uses.
///
/// The CSR side models the conventional execution the paper compares
/// against: per node a 32-bit offset, a 4-bit opcode and a 32-bit value
/// slot, plus a 32-bit pointer per edge.
pub fn footprint(dag: &Dag, program: &Program, rows_used: u32) -> Footprint {
    let instr_bits = program.size_bits();
    let data_bits = u64::from(rows_used) * u64::from(program.config.banks) * 32;
    let n = dag.len() as u64;
    let e = dag.edge_count() as u64;
    let inputs = dag.nodes().filter(|&v| dag.op(v) == Op::Input).count() as u64;
    let csr_bits = n * (32 + 4 + 32) + e * 32 + inputs * 32;
    Footprint {
        instr_bits,
        data_bits,
        csr_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        let f = Footprint {
            instr_bits: 300,
            data_bits: 200,
            csr_bits: 1000,
        };
        assert_eq!(f.total_bits(), 500);
        assert!((f.reduction_vs_csr() - 0.5).abs() < 1e-12);
    }
}
