//! Instruction-set architecture of DPU-v2 (§III of the paper).
//!
//! The DPU-v2 architecture is a *template* parameterized by
//!
//! - `D` — depth of the processing-element (PE) trees,
//! - `B` — number of register banks (one per tree input: `B = T · 2^D`),
//! - `R` — registers per bank,
//!
//! plus the datapath↔register-bank interconnect topology of Fig. 6. This
//! crate defines:
//!
//! - [`ArchConfig`] — the template parameters and all derived quantities
//!   (number of trees `T`, PE count, pipeline depth, instruction lengths);
//! - [`Topology`] / [`interconnect`] — the four interconnect options of
//!   Fig. 6 and their PE→bank write-connectivity maps;
//! - [`Instr`] — the six instruction kinds of Fig. 7 (`exec`, `load`,
//!   `store`, `store_k`, `copy_k`, `nop`);
//! - [`encode`] — exact bit-level variable-length encoding, dense packing
//!   into an instruction memory image, and the alignment-shifter decode
//!   model (Fig. 7(b));
//! - [`Program`] — an instruction list with packing, statistics and the
//!   per-category breakdown used by Fig. 13;
//! - [`RegFile`] — the register file's write policy (valid bits, lowest-
//!   free automatic write address, `D+1`-slot writeback ring), stated once
//!   and instantiated by the compiler, the verifier and the simulator;
//! - [`Fnv1a`] — the one hash behind every persisted checksum and key.
//!
//! # Example
//!
//! ```
//! use dpu_isa::{ArchConfig, Topology};
//!
//! let cfg = ArchConfig::new(3, 16, 32).unwrap();
//! assert_eq!(cfg.trees(), 2);       // T = B / 2^D
//! assert_eq!(cfg.pe_count(), 14);   // T · (2^D − 1)
//! assert_eq!(cfg.pipeline_stages(), 4); // D + 1
//! assert_eq!(cfg.topology, Topology::CrossbarInPerLayerOut);
//! ```

pub mod disasm;
pub mod encode;
pub mod interconnect;

mod config;
mod fnv;
mod instr;
mod program;
mod regfile;

pub use config::{ArchConfig, ConfigError, Topology};
pub use fnv::Fnv1a;
pub use instr::{CopyMove, ExecInstr, Instr, InstrKind, PeId, PeOpcode, PortRead, RegRead};
pub use program::{InstrBreakdown, Program};
pub use regfile::{Fault, RegFile};
