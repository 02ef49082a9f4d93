//! Paper anchors: the Table III / Fig. 14(a) text at full scale, pinned.
//!
//! The compiler's address resolution and the simulator's state are what
//! every reproduced number hangs off, and CI runs none of the `fig*` /
//! `table*` binaries — so a refactor of either could move the DESIGN.md §3
//! headline numbers unnoticed. This test pins the whole table: 12 workload
//! rows (including the two Fig. 14 crossover rows, `msnbc` and `bnetflix`,
//! where DPU beats DPU-v2), the suite means, the speedups over CPU and the
//! EDP line. Release only (about 3 s there, minutes in a debug build):
//! `cargo test --release -p dpu-bench --test paper_anchors`.
//!
//! The text is exact because compilation is deterministic (the spiller
//! once stored an instruction's victims in hash-map order, and every
//! spilling workload's cycle count wandered by a few tenths of a percent
//! from run to run). A deliberate model change updates the text below and
//! DESIGN.md §3 together.

const TABLE3_SMALL_AT_SCALE_1: &str = r"== Fig. 14(a) / Table III: throughput in GOPS (scale 1) ==
workload  DPU-v2   DPU   CPU   GPU
 tretail    2.62  1.60  0.68  0.10
   mnist    2.81  1.97  0.88  0.21
   nltcs    2.94  2.10  0.96  0.28
   msnbc    1.34  2.39  1.16  0.82
   msweb    2.68  2.21  1.04  0.37
bnetflix    2.22  2.32  1.11  0.54
  bp_200    2.55  0.65  0.30  0.03
west2021    1.86  0.72  0.33  0.03
  sieber    2.28  0.99  0.45  0.05
jagmesh4    1.83  1.16  0.54  0.08
  rdb968    1.96  1.16  0.53  0.08
  dw2048    1.12  0.76  0.36  0.04
    MEAN    2.18  1.50  0.70  0.22
speedups over CPU — DPU-v2: 3.1x  DPU: 2.2x  GPU: 0.32x (paper: 3.5x / 2.6x / 0.3x)
power W — DPU-v2: 0.09 (paper 0.11)  DPU: 0.07 (paper 0.07)  CPU: 55 (paper 55)  GPU: 98 (paper 98)
EDP pJ*ns — DPU-v2: 19.9 (paper 6.0)  DPU: 31.0 (paper 7.1)  CPU: 114k (paper 38k)  GPU: 2040k (paper 1000k)
";

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale suite: release builds only")]
fn table3_small_reproduces_the_committed_text() {
    assert_eq!(
        dpu_bench::experiments::table3_small(1.0),
        TABLE3_SMALL_AT_SCALE_1
    );
}
