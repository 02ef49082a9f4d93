//! Paper anchors: the Table III / Fig. 14(a), Fig. 10(b) and Fig. 13 text,
//! pinned.
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
//! Fig. 10(b) is the bank allocator's published number (conflict-aware vs
//! random, at the experiment's default half scale) and Fig. 13's
//! instruction totals sum what every compiler pass emitted; both read
//! `DPU_SCALE` like the binaries they back, so these tests expect it unset.
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

const FIG10_CONFLICTS: &str = r"== Fig. 10(b): bank conflicts, conflict-aware vs random ==
workload  ours  random  ratio
 tretail    67    5340    80x
   mnist    84    5699    68x
   nltcs   121    8031    66x
  bp_200     6    1750   292x
   TOTAL   278   20820    75x
paper: random/ours = 292x
";

#[test]
#[cfg_attr(debug_assertions, ignore = "half-scale compiles: release builds only")]
fn fig10_conflicts_reproduces_the_committed_text() {
    assert_eq!(dpu_bench::experiments::fig10_conflicts(), FIG10_CONFLICTS);
}

const FIG13_INSTR_BREAKDOWN: &str = r"== Fig. 13: instruction breakdown (scale 1) ==
workload  exec  copy  load  store  nop  total
 tretail   26%    6%    3%     0%  64%   1690
   mnist   27%    6%    3%     0%  63%   1704
   nltcs   28%    9%    3%     0%  60%   2294
   msnbc   13%    5%   30%    29%  24%  17154
   msweb   27%    8%    5%     2%  57%   9489
bnetflix   22%    8%   13%    11%  45%  12232
  bp_200   27%    3%   27%     1%  41%    654
west2021   26%    0%   26%     2%  45%    945
  sieber   25%    7%   34%     9%  24%   2114
jagmesh4   15%    9%   41%    26%   9%   6420
  rdb968   16%    7%   41%    26%  10%   7107
  dw2048   10%    5%   43%    33%   8%  19519
";

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale suite: release builds only")]
fn fig13_instr_breakdown_reproduces_the_committed_text() {
    assert_eq!(
        dpu_bench::experiments::fig13_instr_breakdown(),
        FIG13_INSTR_BREAKDOWN
    );
}
