//! DAG-specific compiler for DPU-v2 (§IV of the paper).
//!
//! The compiler unfolds a static DAG into a DPU-v2 instruction stream in the
//! paper's four steps plus emission/finalization:
//!
//! 1. **Block decomposition** ([`step1`]) — the binarized DAG is cut into
//!    *blocks*, each a set of tree-shaped subgraphs that one `exec`
//!    instruction evaluates on the PE trees (Algorithm 1, Fig. 9).
//! 2. **PE and register-bank mapping** ([`step2`]) — every subgraph is
//!    spatially unrolled onto tree PEs (with replication and bypass
//!    padding, Fig. 9(c)) and every block input/output value is assigned a
//!    register bank by the conflict-aware allocator (Algorithm 2, Fig. 10).
//! 3. **Pipeline-aware reordering** ([`reorder`]) — dependent instructions
//!    are pushed ≥ `D+1` slots apart by a windowed list scheduler that
//!    issues the ready instruction with the longest dependence path first
//!    and keeps `load`/`copy` writes off the bank write ports that `exec`
//!    writebacks hold; residual hazards become `nop`s (§IV-C).
//! 4. **Register spilling** ([`spill`]) — a live-range walk inserts
//!    `store_4`/`load` pairs when a bank's live set exceeds `R` (§IV-D).
//!
//! [`emit`] lowers blocks to abstract instructions, inserting the `copy`
//! instructions that repair residual bank conflicts (§III-D), and
//! [`finalize`] replays the automatic write-address policy of §III-B to
//! resolve concrete register addresses, `valid_rst` markers and any
//! remaining structural hazards (adding stall `nop`s) — producing a bit-
//! exact [`dpu_isa::Program`].
//!
//! DAGs larger than [`CompileOptions::partition_threshold`] are first cut
//! into ~20k-node partitions GRAPHOPT-style, exactly as §V-B describes.
//!
//! # Example
//!
//! ```
//! use dpu_compiler::{compile, CompileOptions};
//! use dpu_isa::ArchConfig;
//! use dpu_dag::{DagBuilder, Op};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let x = b.input();
//! let y = b.input();
//! let s = b.node(Op::Add, &[x, y])?;
//! b.node(Op::Mul, &[s, x])?;
//! let dag = b.finish()?;
//!
//! let cfg = ArchConfig::new(2, 8, 16)?;
//! let compiled = compile(&dag, &cfg, &CompileOptions::default())?;
//! assert!(compiled.program.len() > 0);
//! # Ok(())
//! # }
//! ```

pub mod emit;
pub mod finalize;
pub mod footprint;
pub mod persist;
pub mod reorder;
pub mod spill;
pub mod step1;
pub mod step2;

mod driver;
mod ir;

pub use dpu_verify::{ConfigFacts, LayoutFacts, VerifyError, VerifyReport};
pub use driver::{
    compile, compile_binary, compile_with_bounds, CompileError, CompileOptions, CompileStats,
    Compiled, ScheduleBounds,
};
pub use ir::{AInstr, BankAssignment, Block, ConflictStats, DataLayout, PlacedNode, Subgraph};
pub use persist::PersistError;
pub use spill::SpillPolicy;
pub use step2::BankPolicy;
