use std::error::Error;
use std::fmt;

/// Datapath ↔ register-bank interconnect topology (Fig. 6 of the paper).
///
/// The *input* side (register banks → tree input ports) and the *output*
/// side (PE outputs → bank write ports) can each be a full crossbar or a
/// restricted connection. The paper explores the four options below and
/// selects (b): crossbar input, one-PE-per-layer output, which costs 1.4×
/// the conflicts of (a) but 9% less power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Fig. 6(a): full crossbars on both input and output.
    CrossbarBoth,
    /// Fig. 6(b): crossbar input; each bank is writable from exactly one PE
    /// per tree layer (a `D:1` mux in front of each bank). **The paper's
    /// selected design.**
    CrossbarInPerLayerOut,
    /// Fig. 6(c): crossbar input; each bank is writable from at most one PE
    /// in total.
    CrossbarInOnePeOut,
    /// Fig. 6(d): one-to-one on both sides (tree input port `p` can only
    /// read bank `p`). Not evaluated in the paper (strictly worse than (c)).
    OneToOneBoth,
}

impl Topology {
    /// Whether the input side is a full crossbar.
    pub fn input_is_crossbar(self) -> bool {
        !matches!(self, Topology::OneToOneBoth)
    }

    /// Whether the output side is a full crossbar.
    pub fn output_is_crossbar(self) -> bool {
        matches!(self, Topology::CrossbarBoth)
    }

    /// All topologies, in Fig. 6 order.
    pub fn all() -> [Topology; 4] {
        [
            Topology::CrossbarBoth,
            Topology::CrossbarInPerLayerOut,
            Topology::CrossbarInOnePeOut,
            Topology::OneToOneBoth,
        ]
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Topology::CrossbarBoth => "(a) crossbar/crossbar",
            Topology::CrossbarInPerLayerOut => "(b) crossbar/per-layer",
            Topology::CrossbarInOnePeOut => "(c) crossbar/one-PE",
            Topology::OneToOneBoth => "(d) one-to-one/one-to-one",
        };
        f.write_str(s)
    }
}

/// Errors validating an [`ArchConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `D` must be at least 1 (a single PE layer).
    DepthZero,
    /// `2^D` must fit in `u32`, i.e. `D <= 31`.
    DepthTooLarge(u32),
    /// `B` must be a power of two.
    BanksNotPowerOfTwo(u32),
    /// `B` must be at least `2^D` so that at least one full tree exists.
    TooFewBanks {
        /// Requested bank count.
        banks: u32,
        /// Minimum required (`2^D`).
        needed: u32,
    },
    /// `R` must be at least 2.
    TooFewRegisters(u32),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DepthZero => f.write_str("tree depth D must be >= 1"),
            ConfigError::DepthTooLarge(d) => write!(f, "tree depth D={d} must be <= 31"),
            ConfigError::BanksNotPowerOfTwo(b) => {
                write!(f, "bank count B={b} must be a power of two")
            }
            ConfigError::TooFewBanks { banks, needed } => {
                write!(f, "bank count B={banks} must be >= 2^D = {needed}")
            }
            ConfigError::TooFewRegisters(r) => {
                write!(f, "registers per bank R={r} must be >= 2")
            }
        }
    }
}

impl Error for ConfigError {}

/// The DPU-v2 architecture template parameters (Fig. 5(a)) and derived
/// quantities.
///
/// Independent parameters (chosen by the design-space exploration of §V):
/// tree depth `D`, bank count `B`, registers per bank `R`, plus the
/// interconnect [`Topology`]. Everything else — number of trees, PE count,
/// pipeline depth, instruction field widths — is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchConfig {
    /// Depth of each PE tree (number of PE layers).
    pub depth: u32,
    /// Number of register banks (= number of tree input ports).
    pub banks: u32,
    /// Registers per bank.
    pub regs_per_bank: u32,
    /// Interconnect topology (Fig. 6). Defaults to the paper's choice (b).
    pub topology: Topology,
    /// Data-memory capacity in `B`-word vector rows.
    pub data_mem_rows: u32,
}

/// Default data-memory rows: 4096 rows × B words ≈ the paper's 1–2 MB
/// on-chip SRAM for moderate B.
pub const DEFAULT_DATA_MEM_ROWS: u32 = 1 << 14;

impl ArchConfig {
    /// Creates a validated configuration with the paper's selected topology
    /// (Fig. 6(b)) and the default data-memory size.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] for the validity rules (`1 ≤ D ≤ 31`, `B` a
    /// power of two with `B ≥ 2^D`, `R ≥ 2`).
    pub fn new(depth: u32, banks: u32, regs_per_bank: u32) -> Result<Self, ConfigError> {
        Self::with_topology(depth, banks, regs_per_bank, Topology::CrossbarInPerLayerOut)
    }

    /// Creates a validated configuration with an explicit topology.
    ///
    /// # Errors
    ///
    /// Same as [`ArchConfig::new`].
    pub fn with_topology(
        depth: u32,
        banks: u32,
        regs_per_bank: u32,
        topology: Topology,
    ) -> Result<Self, ConfigError> {
        if depth == 0 {
            return Err(ConfigError::DepthZero);
        }
        if !banks.is_power_of_two() {
            return Err(ConfigError::BanksNotPowerOfTwo(banks));
        }
        let needed = 1u32
            .checked_shl(depth)
            .ok_or(ConfigError::DepthTooLarge(depth))?;
        if banks < needed {
            return Err(ConfigError::TooFewBanks { banks, needed });
        }
        if regs_per_bank < 2 {
            return Err(ConfigError::TooFewRegisters(regs_per_bank));
        }
        Ok(ArchConfig {
            depth,
            banks,
            regs_per_bank,
            topology,
            data_mem_rows: DEFAULT_DATA_MEM_ROWS,
        })
    }

    /// The paper's minimum-EDP design point: `D=3, B=64, R=32` (§V-B).
    pub fn min_edp() -> Self {
        ArchConfig::new(3, 64, 32).expect("valid by construction")
    }

    /// The paper's large configuration DPU-v2 (L): min-EDP datapath with 256
    /// registers per bank and a 2 MB data memory (§V-C2).
    pub fn large() -> Self {
        let mut cfg = ArchConfig::new(3, 64, 256).expect("valid by construction");
        cfg.data_mem_rows = 1 << 15;
        cfg
    }

    /// Number of tree input ports per tree (`2^D`).
    #[inline]
    pub fn ports_per_tree(&self) -> u32 {
        1 << self.depth
    }

    /// Number of parallel PE trees (`T = B / 2^D`).
    #[inline]
    pub fn trees(&self) -> u32 {
        self.banks / self.ports_per_tree()
    }

    /// PEs per tree (`2^D − 1`).
    #[inline]
    pub fn pes_per_tree(&self) -> u32 {
        (1 << self.depth) - 1
    }

    /// Total PE count (`T · (2^D − 1)`).
    #[inline]
    pub fn pe_count(&self) -> u32 {
        self.trees() * self.pes_per_tree()
    }

    /// Number of PEs in tree layer `l` (1-based), per tree: `2^(D−l)`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not in `1..=D`.
    #[inline]
    pub fn pes_in_layer(&self, l: u32) -> u32 {
        assert!(l >= 1 && l <= self.depth, "layer out of range");
        1 << (self.depth - l)
    }

    /// Pipeline stages of the datapath (`D + 1`): operand fetch plus one
    /// stage per PE layer. Dependent instructions must issue at least this
    /// many cycles apart (§IV-C).
    #[inline]
    pub fn pipeline_stages(&self) -> u32 {
        self.depth + 1
    }

    /// Bits to address a register within a bank (`⌈log2 R⌉`).
    #[inline]
    pub fn reg_addr_bits(&self) -> u32 {
        u32::BITS - (self.regs_per_bank - 1).leading_zeros()
    }

    /// Bits to name a bank (`⌈log2 B⌉`).
    #[inline]
    pub fn bank_bits(&self) -> u32 {
        u32::BITS - (self.banks - 1).leading_zeros()
    }

    /// Total register-file capacity in words.
    #[inline]
    pub fn total_regs(&self) -> u32 {
        self.banks * self.regs_per_bank
    }

    /// The tree that owns bank `b` (banks are striped per tree).
    #[inline]
    pub fn tree_of_bank(&self, bank: u32) -> u32 {
        bank / self.ports_per_tree()
    }

    /// Lane of bank `b` within its tree (`0..2^D`).
    #[inline]
    pub fn lane_of_bank(&self, bank: u32) -> u32 {
        bank % self.ports_per_tree()
    }
}

impl Default for ArchConfig {
    /// Defaults to the paper's min-EDP design point.
    fn default() -> Self {
        ArchConfig::min_edp()
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "D={} B={} R={} {}",
            self.depth, self.banks, self.regs_per_bank, self.topology
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_match_paper_example() {
        // Fig. 7(a) example: D=3, B=16, R=32.
        let c = ArchConfig::new(3, 16, 32).unwrap();
        assert_eq!(c.trees(), 2);
        assert_eq!(c.pes_per_tree(), 7);
        assert_eq!(c.pe_count(), 14);
        assert_eq!(c.ports_per_tree(), 8);
        assert_eq!(c.pipeline_stages(), 4);
        assert_eq!(c.reg_addr_bits(), 5);
        assert_eq!(c.bank_bits(), 4);
        assert_eq!(c.total_regs(), 512);
    }

    #[test]
    fn min_edp_matches_paper() {
        let c = ArchConfig::min_edp();
        assert_eq!((c.depth, c.banks, c.regs_per_bank), (3, 64, 32));
        assert_eq!(c.trees(), 8);
        assert_eq!(c.pe_count(), 56);
        // §IV-E: register address = 11b in the final design (6b bank + 5b reg).
        assert_eq!(c.bank_bits() + c.reg_addr_bits(), 11);
    }

    #[test]
    fn layer_pe_counts() {
        let c = ArchConfig::new(3, 16, 32).unwrap();
        assert_eq!(c.pes_in_layer(1), 4);
        assert_eq!(c.pes_in_layer(2), 2);
        assert_eq!(c.pes_in_layer(3), 1);
    }

    #[test]
    fn bank_tree_mapping() {
        let c = ArchConfig::new(2, 16, 16).unwrap();
        assert_eq!(c.trees(), 4);
        assert_eq!(c.tree_of_bank(0), 0);
        assert_eq!(c.tree_of_bank(5), 1);
        assert_eq!(c.lane_of_bank(5), 1);
        assert_eq!(c.tree_of_bank(15), 3);
        assert_eq!(c.lane_of_bank(15), 3);
    }

    #[test]
    fn rejects_invalid_configs() {
        assert_eq!(ArchConfig::new(0, 8, 16), Err(ConfigError::DepthZero));
        assert_eq!(
            ArchConfig::new(2, 12, 16),
            Err(ConfigError::BanksNotPowerOfTwo(12))
        );
        assert_eq!(
            ArchConfig::new(3, 4, 16),
            Err(ConfigError::TooFewBanks {
                banks: 4,
                needed: 8
            })
        );
        assert_eq!(
            ArchConfig::new(2, 8, 1),
            Err(ConfigError::TooFewRegisters(1))
        );
    }

    #[test]
    fn rejects_depths_whose_tree_width_overflows_u32() {
        // `1 << D` overflowed before any bound: a panic in debug builds, and
        // in release `D = 32` wrapped to a one-port tree that `B = 1` met.
        for depth in [32, 40, u32::MAX] {
            assert_eq!(
                ArchConfig::new(depth, 64, 32),
                Err(ConfigError::DepthTooLarge(depth))
            );
        }
        assert_eq!(
            ArchConfig::new(32, 1, 32),
            Err(ConfigError::DepthTooLarge(32))
        );
        // The widest tree that fits is still judged by the bank rule.
        assert_eq!(
            ArchConfig::new(31, 64, 32),
            Err(ConfigError::TooFewBanks {
                banks: 64,
                needed: 1 << 31
            })
        );
    }

    #[test]
    fn dse_grid_is_valid_when_b_ge_2d() {
        for d in [1u32, 2, 3] {
            for b in [8u32, 16, 32, 64] {
                for r in [16u32, 32, 64, 128] {
                    assert!(ArchConfig::new(d, b, r).is_ok());
                }
            }
        }
    }

    #[test]
    fn topology_predicates() {
        assert!(Topology::CrossbarBoth.output_is_crossbar());
        assert!(!Topology::CrossbarInPerLayerOut.output_is_crossbar());
        assert!(Topology::CrossbarInPerLayerOut.input_is_crossbar());
        assert!(!Topology::OneToOneBoth.input_is_crossbar());
        assert_eq!(Topology::all().len(), 4);
    }
}
