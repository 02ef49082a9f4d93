//! Area / power / energy model of DPU-v2, calibrated to the paper's 28nm
//! synthesis results (Table II).
//!
//! The paper derives energy from gate-level netlists with annotated
//! switching activity (§V-B). This reproduction replaces the netlists with
//! a first-order component model: every row of Table II becomes a
//! component whose area and per-event (or per-cycle) energy scale with the
//! architecture parameters by standard rules —
//!
//! | component | area / energy scaling |
//! |---|---|
//! | PEs | ∝ `#PE` (per arithmetic/bypass evaluation) |
//! | datapath pipeline registers | ∝ `#PE`, clocked every cycle |
//! | input interconnect (crossbar) | area ∝ `B²`, energy per hop ∝ `B` |
//! | output interconnect | ∝ `B·D` (the per-bank `D:1` mux) |
//! | register banks | area ∝ `B·R`; energy per access ∝ `√(R/32)` |
//! | write-address generators | ∝ `B·R` valid bits, clocked every cycle |
//! | instruction fetch + shifter | ∝ `IL` (fetch width) |
//! | decoder | ∝ `IL` |
//! | control pipeline registers | ∝ `IL·(D+1)` |
//! | instruction memory | fixed capacity; read energy ∝ `IL` per cycle |
//! | data memory | fixed capacity; access energy ∝ `B` per row access |
//!
//! The constants are anchored so the min-EDP design point (`D=3, B=64,
//! R=32` at 300 MHz) reproduces Table II's 3.2 mm² / 108.9 mW split within
//! rounding, at the representative activity duty factors listed in
//! [`calib`]. Absolute joules inherit the paper's technology; the DSE
//! (Fig. 11/12) only relies on the *relative* scaling across the 48
//! configurations, which these rules capture.
//!
//! # Example
//!
//! ```
//! use dpu_isa::ArchConfig;
//!
//! let rows = dpu_energy::area_breakdown(&ArchConfig::min_edp());
//! let total: f64 = rows.iter().map(|r| r.area_mm2).sum();
//! assert!((total - 3.2).abs() < 0.2, "area = {total}");
//! ```

use dpu_isa::{encode, ArchConfig};
use dpu_sim::{Activity, RunResult};

/// Calibration constants (anchored at the min-EDP point, see module docs).
pub mod calib {
    /// Clock frequency the paper synthesizes for (Hz).
    pub const FREQ_HZ: f64 = 300.0e6;
    /// Energy per arithmetic PE evaluation (pJ).
    pub const E_PE_ARITH_PJ: f64 = 2.02;
    /// Energy per bypass PE evaluation (pJ).
    pub const E_PE_BYPASS_PJ: f64 = 0.8;
    /// Datapath pipeline-register energy per PE per cycle (pJ).
    pub const E_PIPE_REG_PJ: f64 = 0.476;
    /// Input-crossbar energy per hop at B = 64 (pJ); scales ∝ B.
    pub const E_XBAR_HOP_PJ: f64 = 1.16;
    /// Output-interconnect energy per writeback (pJ).
    pub const E_OUT_WRITE_PJ: f64 = 0.21;
    /// Register-bank energy per access at R = 32 (pJ); scales ∝ √(R/32).
    pub const E_RF_ACCESS_PJ: f64 = 2.0;
    /// Write-address-generator energy per valid bit per cycle (pJ).
    pub const E_WAG_BIT_PJ: f64 = 0.0127;
    /// Instruction-fetch energy per fetched bit (pJ).
    pub const E_FETCH_BIT_PJ: f64 = 0.0186;
    /// Decode energy per fetched bit (pJ).
    pub const E_DECODE_BIT_PJ: f64 = 0.0069;
    /// Control-pipeline-register energy per bit-stage per cycle (pJ).
    pub const E_CTRL_REG_BIT_PJ: f64 = 0.0018;
    /// Instruction-memory read energy per bit (pJ).
    pub const E_IMEM_BIT_PJ: f64 = 0.0738;
    /// Data-memory energy per word accessed (pJ).
    pub const E_DMEM_WORD_PJ: f64 = 3.5;

    /// Reference fetch width of the min-EDP design (bits).
    pub const IL_REF: f64 = 1252.0;
    /// Reference PE count of the min-EDP design.
    pub const PE_REF: f64 = 56.0;
    /// Reference `B·R` of the min-EDP design.
    pub const BR_REF: f64 = 2048.0;

    /// Representative PE duty factor behind Table II's average power.
    pub const DUTY_PE: f64 = 0.35;
    /// Crossbar hops per cycle / B at the reference point.
    pub const DUTY_XBAR: f64 = 0.45;
    /// Register-file accesses per bank per cycle at the reference point.
    pub const DUTY_RF: f64 = 0.63;
    /// Data-memory row accesses per cycle at the reference point.
    pub const DUTY_DMEM: f64 = 0.1;
}

/// One row of the Table II style breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerRow {
    /// Component name (Table II wording).
    pub name: &'static str,
    /// Area in mm² (28nm).
    pub area_mm2: f64,
    /// Average power in mW (or energy in pJ for
    /// [`energy_breakdown_pj`], which reuses the field).
    pub power_mw: f64,
}

fn il_bits(cfg: &ArchConfig) -> f64 {
    f64::from(encode::fetch_width(cfg))
}

/// Component areas for `cfg`, in Table II order (power field zeroed).
pub fn area_breakdown(cfg: &ArchConfig) -> Vec<AreaPowerRow> {
    let pe = f64::from(cfg.pe_count());
    let b = f64::from(cfg.banks);
    let br = f64::from(cfg.total_regs());
    let il = il_bits(cfg);
    let d = f64::from(cfg.depth);
    let mk = |name, area| AreaPowerRow {
        name,
        area_mm2: area,
        power_mw: 0.0,
    };
    vec![
        mk("PEs", 0.13 * pe / calib::PE_REF),
        mk("Pipelining registers", 0.04 * pe / calib::PE_REF),
        mk("Input interconnect", 0.14 * (b / 64.0) * (b / 64.0)),
        mk("Output interconnect", 0.01 * (b * d) / (64.0 * 3.0)),
        mk("Register banks", 0.35 * br / calib::BR_REF),
        mk("Wr addr generator", 0.03 * br / calib::BR_REF),
        mk("Instr fetch", 0.06 * il / calib::IL_REF),
        mk("Decode", 0.04 * il / calib::IL_REF),
        mk(
            "Control pipelining registers",
            0.01 * il * (d + 1.0) / (calib::IL_REF * 4.0),
        ),
        mk("Instruction memory", 1.20),
        mk("Data memory", 1.20),
    ]
}

/// Total area in mm².
pub fn area_mm2(cfg: &ArchConfig) -> f64 {
    area_breakdown(cfg).iter().map(|r| r.area_mm2).sum()
}

/// Per-component energy in picojoules for a run with the given activity
/// over `cycles` cycles, in Table II order (the `power_mw` field carries
/// picojoules here).
pub fn energy_breakdown_pj(cfg: &ArchConfig, act: &Activity, cycles: u64) -> Vec<AreaPowerRow> {
    let b = f64::from(cfg.banks);
    let r = f64::from(cfg.regs_per_bank);
    let pe = f64::from(cfg.pe_count());
    let br = f64::from(cfg.total_regs());
    let il = il_bits(cfg);
    let d = f64::from(cfg.depth);
    let cyc = cycles as f64;

    let rf_scale = (r / 32.0).sqrt();
    let xbar_scale = b / 64.0;

    let rows = vec![
        (
            "PEs",
            act.pe_arith_ops as f64 * calib::E_PE_ARITH_PJ
                + act.pe_bypass_ops as f64 * calib::E_PE_BYPASS_PJ,
        ),
        ("Pipelining registers", cyc * pe * calib::E_PIPE_REG_PJ),
        (
            "Input interconnect",
            act.crossbar_hops as f64 * calib::E_XBAR_HOP_PJ * xbar_scale,
        ),
        (
            "Output interconnect",
            act.reg_writes as f64 * calib::E_OUT_WRITE_PJ * (d / 3.0),
        ),
        (
            "Register banks",
            (act.reg_reads + act.reg_writes) as f64 * calib::E_RF_ACCESS_PJ * rf_scale,
        ),
        ("Wr addr generator", cyc * br * calib::E_WAG_BIT_PJ),
        (
            "Instr fetch",
            act.instr_bits_fetched as f64 * calib::E_FETCH_BIT_PJ,
        ),
        (
            "Decode",
            act.instr_bits_fetched as f64 * calib::E_DECODE_BIT_PJ,
        ),
        (
            "Control pipelining registers",
            cyc * il * (d + 1.0) * calib::E_CTRL_REG_BIT_PJ / 4.0,
        ),
        (
            "Instruction memory",
            act.instr_bits_fetched as f64 * calib::E_IMEM_BIT_PJ,
        ),
        (
            "Data memory",
            (act.mem_reads + act.mem_writes) as f64 * b * calib::E_DMEM_WORD_PJ,
        ),
    ];
    rows.into_iter()
        .map(|(name, pj)| AreaPowerRow {
            name,
            area_mm2: 0.0,
            power_mw: pj,
        })
        .collect()
}

/// Total energy in picojoules for a run.
pub fn energy_pj(cfg: &ArchConfig, act: &Activity, cycles: u64) -> f64 {
    energy_breakdown_pj(cfg, act, cycles)
        .iter()
        .map(|r| r.power_mw)
        .sum()
}

/// Combined area + average power breakdown — the Table II reproduction.
pub fn table2(cfg: &ArchConfig, act: &Activity, cycles: u64) -> Vec<AreaPowerRow> {
    let areas = area_breakdown(cfg);
    let energies = energy_breakdown_pj(cfg, act, cycles);
    let seconds = cycles as f64 / calib::FREQ_HZ;
    areas
        .into_iter()
        .zip(energies)
        .map(|(a, e)| AreaPowerRow {
            name: a.name,
            area_mm2: a.area_mm2,
            // pJ over `seconds` -> mW.
            power_mw: e.power_mw * 1e-12 / seconds * 1e3,
        })
        .collect()
}

/// The objectives of the design-space exploration (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Latency per DAG operation (ns).
    pub latency_per_op_ns: f64,
    /// Energy per DAG operation (pJ).
    pub energy_per_op_pj: f64,
    /// Energy-delay product per operation (pJ·ns).
    pub edp: f64,
    /// Throughput in operations per second at the calibrated frequency.
    pub throughput_ops: f64,
    /// Average power (W).
    pub power_w: f64,
}

/// Computes the Fig. 11 metrics for one simulated run.
pub fn metrics(cfg: &ArchConfig, run: &RunResult) -> Metrics {
    let ops = run.dag_ops.max(1) as f64;
    let seconds = run.cycles as f64 / calib::FREQ_HZ;
    let e_pj = energy_pj(cfg, &run.activity, run.cycles);
    let latency_per_op_ns = seconds * 1e9 / ops;
    let energy_per_op_pj = e_pj / ops;
    Metrics {
        latency_per_op_ns,
        energy_per_op_pj,
        edp: latency_per_op_ns * energy_per_op_pj,
        throughput_ops: ops / seconds,
        power_w: e_pj * 1e-12 / seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_isa::encode;

    fn rep_activity(cfg: &ArchConfig, cycles: u64) -> Activity {
        // Representative duties from `calib`, used for calibration checks.
        let b = u64::from(cfg.banks);
        let pe = u64::from(cfg.pe_count());
        Activity {
            reg_reads: (cycles as f64 * b as f64 * calib::DUTY_RF * 0.6) as u64,
            reg_writes: (cycles as f64 * b as f64 * calib::DUTY_RF * 0.4) as u64,
            mem_reads: (cycles as f64 * calib::DUTY_DMEM * 0.6) as u64,
            mem_writes: (cycles as f64 * calib::DUTY_DMEM * 0.4) as u64,
            pe_arith_ops: (cycles as f64 * pe as f64 * calib::DUTY_PE) as u64,
            pe_bypass_ops: (cycles as f64 * pe as f64 * 0.05) as u64,
            execs: cycles / 2,
            crossbar_hops: (cycles as f64 * b as f64 * calib::DUTY_XBAR) as u64,
            instr_bits_fetched: cycles * u64::from(encode::fetch_width(cfg)),
        }
    }

    #[test]
    fn min_edp_area_matches_table2() {
        let cfg = ArchConfig::min_edp();
        let total = area_mm2(&cfg);
        assert!((total - 3.2).abs() < 0.15, "area = {total}");
        let rows = area_breakdown(&cfg);
        let pes = rows.iter().find(|r| r.name == "PEs").unwrap();
        assert!((pes.area_mm2 - 0.13).abs() < 0.01);
        let imem = rows
            .iter()
            .find(|r| r.name == "Instruction memory")
            .unwrap();
        assert!((imem.area_mm2 - 1.2).abs() < 1e-9);
    }

    #[test]
    fn min_edp_power_matches_table2_within_25pct() {
        let cfg = ArchConfig::min_edp();
        let cycles = 1_000_000u64;
        let act = rep_activity(&cfg, cycles);
        let rows = table2(&cfg, &act, cycles);
        let total: f64 = rows.iter().map(|r| r.power_mw).sum();
        assert!(
            (total - 108.9).abs() / 108.9 < 0.25,
            "total power = {total:.1} mW, expected ≈108.9"
        );
    }

    #[test]
    fn bigger_configs_cost_more_area() {
        let small = ArchConfig::new(3, 8, 16).unwrap();
        let big = ArchConfig::new(3, 64, 128).unwrap();
        assert!(area_mm2(&big) > area_mm2(&small));
    }

    #[test]
    fn energy_scales_with_activity() {
        let cfg = ArchConfig::min_edp();
        let a1 = rep_activity(&cfg, 1000);
        let a2 = rep_activity(&cfg, 2000);
        assert!(energy_pj(&cfg, &a2, 2000) > energy_pj(&cfg, &a1, 1000) * 1.5);
    }

    #[test]
    fn metrics_relationships() {
        let cfg = ArchConfig::min_edp();
        let run = RunResult {
            cycles: 3000,
            outputs: vec![],
            activity: rep_activity(&cfg, 3000),
            dag_ops: 6000,
        };
        let m = metrics(&cfg, &run);
        assert!(m.latency_per_op_ns > 0.0);
        assert!(m.energy_per_op_pj > 0.0);
        assert!((m.edp - m.latency_per_op_ns * m.energy_per_op_pj).abs() < 1e-9);
        // 3000 cycles for 6000 ops at 300 MHz = 0.5 cycles/op ≈ 1.67 ns.
        assert!((m.latency_per_op_ns - 1.667).abs() < 0.01);
    }
}
