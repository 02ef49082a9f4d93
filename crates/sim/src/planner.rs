//! Batch round planner: packs heterogeneous requests onto the modelled
//! DPU-v2 (L) parallel cores.
//!
//! The paper's batch mode (§V-C2) runs up to `cores` independent DAG
//! executions in parallel; a *round* finishes when its longest member
//! does. [`run_batch`](crate::run_batch) prices a homogeneous batch with
//! this planner, and the serving runtime every round it runs. For a
//! heterogeneous request stream the packing matters: the planner sorts
//! requests by cycle cost (descending) and fills rounds with consecutive
//! runs of that order, so each round groups similar-length programs.
//!
//! That greedy packing is *optimal* for the simulated makespan: any
//! partition into rounds of at most `cores` members has total cost at
//! least `Σ_k cost[k·cores]` over the descending cost order (each round's
//! max is ≥ the (k·cores)-th largest cost for some distinct k), and the
//! consecutive packing achieves that bound.

/// One round: up to `cores` requests executing in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    /// Indices into the request stream, longest first.
    pub requests: Vec<usize>,
    /// Simulated wall-clock of the round — its longest member.
    pub cycles: u64,
}

/// A full batch plan over the modelled cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Modelled parallel core count.
    pub cores: usize,
    /// The rounds, in execution order.
    pub rounds: Vec<RoundPlan>,
    /// Total simulated wall-clock: the sum of per-round maxima.
    pub total_cycles: u64,
}

impl BatchPlan {
    /// Mean utilization of the core-rounds the plan occupies:
    /// `Σ cycles_i / (cores · total_cycles)`. 1.0 means every core is
    /// busy for every cycle of the batch.
    pub fn core_utilization(&self, per_request_cycles: &[u64]) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let busy: u64 = per_request_cycles.iter().sum();
        busy as f64 / (self.cores as f64 * self.total_cycles as f64)
    }
}

/// Packs requests with the given simulated `cycle_costs` into rounds over
/// `cores` parallel cores, minimizing the summed per-round maximum.
///
/// Returns an empty plan for an empty cost list.
///
/// # Panics
///
/// Panics if `cores == 0`.
pub fn plan_rounds(cycle_costs: &[u64], cores: usize) -> BatchPlan {
    assert!(cores > 0, "cores must be positive");
    let mut order: Vec<usize> = (0..cycle_costs.len()).collect();
    // Stable tie-break on index keeps the plan deterministic.
    order.sort_by_key(|&i| (std::cmp::Reverse(cycle_costs[i]), i));
    let rounds: Vec<RoundPlan> = order
        .chunks(cores)
        .map(|chunk| RoundPlan {
            requests: chunk.to_vec(),
            cycles: cycle_costs[chunk[0]],
        })
        .collect();
    let total_cycles = rounds.iter().map(|r| r.cycles).sum();
    BatchPlan {
        cores,
        rounds,
        total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_empty_plan() {
        let p = plan_rounds(&[], 4);
        assert!(p.rounds.is_empty());
        assert_eq!(p.total_cycles, 0);
    }

    #[test]
    fn homogeneous_batch_matches_batchresult_model() {
        // 7 equal requests on 4 cores -> ceil(7/4) = 2 rounds of 100.
        let p = plan_rounds(&[100; 7], 4);
        assert_eq!(p.rounds.len(), 2);
        assert_eq!(p.total_cycles, 200);
    }

    #[test]
    fn heterogeneous_requests_group_by_length() {
        let costs = [10, 1000, 20, 900, 30, 800];
        let p = plan_rounds(&costs, 3);
        // Descending packing: {1000, 900, 800} then {30, 20, 10}.
        assert_eq!(p.rounds[0].requests, vec![1, 3, 5]);
        assert_eq!(p.total_cycles, 1000 + 30);
        // Naive arrival-order packing would cost 1000 + 900 = 1900.
        assert!(p.total_cycles < 1900);
    }

    #[test]
    fn every_request_appears_exactly_once() {
        let costs: Vec<u64> = (0..23).map(|i| (i * 37) % 11 + 1).collect();
        let p = plan_rounds(&costs, 4);
        let mut seen: Vec<usize> = p.rounds.iter().flat_map(|r| r.requests.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
        assert!(p.rounds.iter().all(|r| r.requests.len() <= 4));
    }

    #[test]
    fn single_request_is_one_round_of_its_own_cost() {
        let p = plan_rounds(&[42], 8);
        assert_eq!(p.rounds.len(), 1);
        assert_eq!(p.rounds[0].requests, vec![0]);
        assert_eq!(p.total_cycles, 42);
    }

    #[test]
    fn more_cores_than_requests_is_one_round() {
        let p = plan_rounds(&[5, 9, 7], 16);
        assert_eq!(p.rounds.len(), 1);
        assert_eq!(p.total_cycles, 9);
        assert!((p.core_utilization(&[5, 9, 7]) - 21.0 / (16.0 * 9.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_requests_are_packed_but_free() {
        let p = plan_rounds(&[0, 0, 10], 2);
        assert_eq!(p.rounds.len(), 2);
        assert_eq!(p.total_cycles, 10);
    }

    #[test]
    fn utilization_is_one_for_perfect_packing() {
        let p = plan_rounds(&[50; 8], 4);
        assert!((p.core_utilization(&[50; 8]) - 1.0).abs() < 1e-12);
        let q = plan_rounds(&[50, 50, 50, 1], 4);
        assert!(q.core_utilization(&[50, 50, 50, 1]) < 1.0);
    }
}
