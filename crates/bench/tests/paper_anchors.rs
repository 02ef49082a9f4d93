//! Paper anchors: the text of every experiment CI can afford, pinned —
//! Table III / Fig. 14(a), Fig. 10(b) and Fig. 13 first, then Fig. 3(c),
//! Fig. 6(e), Fig. 7(a), Fig. 10(c,d), Table II, the automatic-write and
//! footprint reductions and the four compiler ablation tables. Table I is
//! not pinned: its `compile ms` column is host time.
//!
//! The compiler's address resolution and the simulator's state are what
//! every reproduced number hangs off, and CI runs none of the `fig*` /
//! `table*` binaries — so a refactor of either could move the DESIGN.md §3
//! headline numbers unnoticed. Table III is pinned whole: 12 workload rows
//! (including the two Fig. 14 crossover rows, `msnbc` and `bnetflix`, where
//! DPU beats DPU-v2), the suite means, the speedups over CPU and the EDP
//! line. Release only (about 3 s for the whole file there, minutes in a
//! debug build): `cargo test --release -p dpu-bench --test paper_anchors`.
//!
//! Fig. 10(b) is the bank allocator's published number (conflict-aware vs
//! random, at the experiment's default half scale) and Fig. 13's
//! instruction totals sum what every compiler pass emitted. Every
//! experiment but Table III reads `DPU_SCALE` like the binary it backs, so
//! these tests expect it unset.
//!
//! The text is exact because compilation is deterministic (the spiller
//! once stored an instruction's victims in hash-map order, and every
//! spilling workload's cycle count wandered by a few tenths of a percent
//! from run to run). A deliberate model change updates the text below and
//! DESIGN.md §3 together.

const TABLE3_SMALL_AT_SCALE_1: &str = r"== Fig. 14(a) / Table III: throughput in GOPS (scale 1) ==
workload  DPU-v2   DPU   CPU   GPU
 tretail    2.78  1.60  0.68  0.10
   mnist    3.00  1.97  0.88  0.21
   nltcs    3.18  2.10  0.96  0.28
   msnbc    1.38  2.39  1.16  0.82
   msweb    2.87  2.21  1.04  0.37
bnetflix    2.33  2.32  1.11  0.54
  bp_200    2.92  0.65  0.30  0.03
west2021    2.02  0.72  0.33  0.03
  sieber    2.62  0.99  0.45  0.05
jagmesh4    1.85  1.16  0.54  0.08
  rdb968    2.02  1.16  0.53  0.08
  dw2048    1.13  0.76  0.36  0.04
    MEAN    2.34  1.50  0.70  0.22
speedups over CPU — DPU-v2: 3.4x  DPU: 2.2x  GPU: 0.32x (paper: 3.5x / 2.6x / 0.3x)
power W — DPU-v2: 0.10 (paper 0.11)  DPU: 0.07 (paper 0.07)  CPU: 55 (paper 55)  GPU: 98 (paper 98)
EDP pJ*ns — DPU-v2: 17.7 (paper 6.0)  DPU: 31.0 (paper 7.1)  CPU: 114k (paper 38k)  GPU: 2040k (paper 1000k)
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
 tretail   28%    7%    3%     0%  62%   1591
   mnist   29%    7%    3%     0%  60%   1593
   nltcs   31%   10%    4%     0%  56%   2119
   msnbc   13%    5%   31%    30%  21%  16728
   msweb   29%    9%    6%     2%  55%   8860
bnetflix   23%    9%   14%    12%  42%  11635
  bp_200   31%    4%   31%     2%  33%    570
west2021   28%    0%   28%     2%  41%    873
  sieber   29%    8%   37%     9%  17%   1846
jagmesh4   15%    9%   42%    27%   7%   6348
  rdb968   16%    7%   42%    26%   9%   6887
  dw2048   10%    5%   43%    33%   8%  19294
";

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale suite: release builds only")]
fn fig13_instr_breakdown_reproduces_the_committed_text() {
    assert_eq!(
        dpu_bench::experiments::fig13_instr_breakdown(),
        FIG13_INSTR_BREAKDOWN
    );
}

/// One release-only test per pinned experiment: `$run()` must print
/// exactly `$text`.
macro_rules! pinned {
    ($test:ident, $run:ident, $text:ident) => {
        #[test]
        #[cfg_attr(debug_assertions, ignore = "suite compiles: release builds only")]
        fn $test() {
            assert_eq!(dpu_bench::experiments::$run(), $text);
        }
    };
}

const FIG03_UTILIZATION: &str = r"== Fig. 3(c): peak datapath utilization ==
inputs  tree  systolic
     2  100%      100%
     4   92%       88%
     8   86%       48%
    16   78%       25%
paper shape: tree stays ~100%, systolic collapses by 8-16 inputs
";

pinned!(
    fig03_utilization_reproduces_the_committed_text,
    fig03_utilization,
    FIG03_UTILIZATION
);

const FIG06_INTERCONNECT: &str = r"== Fig. 6(e): bank conflicts & latency by output-interconnect topology ==
              topology  conflicts  cycles  latency vs (a)
 (a) crossbar/crossbar          0    3309           +0.0%
(b) crossbar/per-layer        333    3452           +4.3%
   (c) crossbar/one-PE       8480    5576          +68.5%
paper: conflicts (a) 1x, (b) 2.4x, (c) 19x; (b) costs +1% latency, -9% power; (d) not evaluated
";

pinned!(
    fig06_interconnect_reproduces_the_committed_text,
    fig06_interconnect,
    FIG06_INTERCONNECT
);

const FIG07_INSTR_LENGTHS: &str = r"== Fig. 7(a): instruction lengths in bits (D=3, B=16, R=32) ==
instruction  ours  paper
       load    52     52
      store   148    132
    store_4    79     56
     copy_4    63     72
       exec   284    272
        nop     4      4
";

pinned!(
    fig07_instr_lengths_reproduces_the_committed_text,
    fig07_instr_lengths,
    FIG07_INSTR_LENGTHS
);

const FIG10_OCCUPANCY: &str = r"-- without spilling (R=512): spills=0 peak/bank=38 --
cycle  max/bank  mean/bank
     1        1       1.0
   431       33      25.8
   861       33      24.5
  1291       33      23.1
  1721       34      21.4
  2151       29      19.1
  2581       26      16.0
  3011       19      11.2
  3441        4       1.7
-- with spilling (R=32): spills=78 peak/bank=32 --
cycle  max/bank  mean/bank
     1        1       1.0
   451       32      25.4
   901       31      23.6
  1351       28      21.6
  1801       31      21.0
  2251       30      19.1
  2701       24      16.1
  3151       17      12.2
  3601        4       1.7
paper Fig. 10(c,d): balanced occupancy; spilling caps it at R
";

pinned!(
    fig10_occupancy_reproduces_the_committed_text,
    fig10_occupancy,
    FIG10_OCCUPANCY
);

const TABLE2_AREA_POWER: &str = r"== Table II: area & power of the min-EDP design (ours vs paper) ==
                   component   mm2  mm2(paper)    mW  mW(paper)
                         PEs  0.13        0.13   7.0       11.9
        Pipelining registers  0.04        0.04   8.0        8.0
          Input interconnect  0.14        0.14   4.2       10.0
         Output interconnect  0.01        0.01   0.4        0.5
              Register banks  0.35        0.35  10.3       24.0
           Wr addr generator  0.03        0.03   7.8        7.8
                 Instr fetch  0.06        0.06   7.0        7.0
                      Decode  0.04        0.04   2.6        2.6
Control pipelining registers  0.01        0.01   0.7        2.7
          Instruction memory  1.20        1.20  27.7       27.7
                 Data memory  1.20        1.20   2.2        6.7
                       TOTAL  3.21        3.21  77.9      108.9
";

pinned!(
    table2_area_power_reproduces_the_committed_text,
    table2_area_power,
    TABLE2_AREA_POWER
);

const AUTOWRITE_REDUCTION: &str = r"== Automatic write addressing: program-size reduction (§III-B) ==
workload  bits (auto)  bits (explicit)  reduction
 tretail       284283           363723        22%
   mnist       300426           384606        22%
   nltcs       423767           542887        22%
   msnbc      1447762          1870302        23%
   msweb      1684448          2161068        22%
bnetflix      1750576          2236236        22%
  bp_200       128905           188525        32%
west2021       178391           260311        31%
  sieber       353640           517680        32%
jagmesh4       694234          1021194        32%
  rdb968       708547          1040447        32%
  dw2048      1427971          2280011        37%
   TOTAL      9382950         12866990        27%
paper: ~30% average reduction
";

pinned!(
    autowrite_reduction_reproduces_the_committed_text,
    autowrite_reduction,
    AUTOWRITE_REDUCTION
);

const FOOTPRINT_REDUCTION: &str = r"== Memory footprint vs CSR (§IV-E), bytes ==
workload     ours      CSR  reduction
 tretail    42191   137671        69%
   mnist    44721   150123        70%
   nltcs    63210   212155        70%
   msnbc   211946   723616        71%
   msweb   253308   795967        68%
bnetflix   254662   846450        70%
  bp_200    41457    70928        42%
west2021    57626    85413        33%
  sieber   112301   203446        45%
jagmesh4   217595   452939        52%
  rdb968   221688   520449        57%
  dw2048   421696   834787        49%
   TOTAL  1942404  5033947        61%
paper: 48% smaller than CSR on average
";

pinned!(
    footprint_reduction_reproduces_the_committed_text,
    footprint_reduction,
    FOOTPRINT_REDUCTION
);

const ABLATIONS: &str = r"== Ablation 1: reordering window (§IV-C) ==
window  total cycles
     1          2782
     8          2288
    64          2189
   300          2128
expected: window 1 pays a nop for every hazard; 300 is the paper's choice

== Ablation 2: spill victim policy at R=16 (§IV-D) ==
                    policy  total cycles  spill+copy traffic
furthest-next-use (Belady)          4067                1013
          nearest-next-use         18224                8052
                 arbitrary         11182                4557
expected: compile-time lookahead (Belady) minimizes traffic

== Ablation 3: bank allocation (§IV-B) ==
                      policy  total cycles  spill+copy traffic
conflict-aware (Algorithm 2)          2254                 168
                      random          7263                5081

== Ablation 4: output interconnect (§III-C) ==
              topology  total cycles
 (a) crossbar/crossbar          2143
(b) crossbar/per-layer          2254
   (c) crossbar/one-PE          3839
(scale 0.5; workloads: tretail, rdb968)
";

pinned!(
    ablations_reproduces_the_committed_text,
    ablations,
    ABLATIONS
);
