//! Ablation study of the compiler's design choices (DESIGN.md §4): prints
//! [`dpu_bench::experiments::ablations`] — the reordering window, spill
//! victim policy, bank allocation and output interconnect, each varied in
//! isolation on two representative workloads, in simulated cycles.

fn main() {
    print!("{}", dpu_bench::experiments::ablations());
}
