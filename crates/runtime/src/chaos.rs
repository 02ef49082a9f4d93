//! Deterministic failure injection and hedged-recovery policy for the
//! [`Dispatcher`](crate::Dispatcher).
//!
//! A [`ChaosPlan`] scripts shard failures up front — kill shard *k* after
//! it has checked out *n* rounds, or stall it for *d* per round — so a
//! test or bench run can replay the exact same failure against the exact
//! same request stream and compare outputs byte-for-byte against a serial
//! reference. The plan is injected through
//! [`DispatchOptions::chaos`](crate::DispatchOptions::chaos) and is only
//! a script: a kill is a panic at the execute site, caught where an
//! engine's own panic is, so the containment it exercises (see
//! `dispatch.rs`) is the one every dispatcher runs with — the jobs in hand
//! fail typed, and the dead shard's queued rounds are requeued onto a
//! surviving [`steal_compatible`](dpu_verify::steal_compatible) shard, the
//! only moves statically proven to preserve per-request results.
//!
//! Hedging ([`DispatchOptions::hedge`](crate::DispatchOptions::hedge)) is
//! the independent straggler policy: a round that has waited in queue past
//! a latency-percentile trigger gets a second handle enqueued on an idle
//! identical-class shard. First completion wins per job (its atomic
//! claim); the loser's result is discarded before ticket fulfilment.
//! Results are byte-identical either way, so hedging changes tail
//! latency, never answers.

use std::time::Duration;

/// One scripted failure event of a [`ChaosPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Kill shard `shard` with a panic at the execute site of the first
    /// round it takes to the engine after `after_rounds` checkouts — the
    /// same unwind, caught in the same place, as a buggy engine's. The
    /// jobs handed to the engine fail
    /// [`ServeError::ShardLost`](crate::ServeError::ShardLost) (the
    /// dispatcher cannot tell this crash from a poison round, which must
    /// not be retried), the victim's queued backlog is requeued onto a
    /// surviving same-class shard, and the worker exits.
    KillShard {
        /// Victim shard index.
        shard: usize,
        /// Rounds the victim checks out before the one it dies on.
        after_rounds: u64,
    },
    /// Stall shard `shard` for about `per_round` (seeded jitter around
    /// it) after each round checkout — a sick-but-alive straggler, the
    /// scenario hedging and stall-lease reclaim exist for.
    StallShard {
        /// Straggler shard index.
        shard: usize,
        /// Injected delay per checked-out round (jittered by the plan
        /// seed, deterministically).
        per_round: Duration,
    },
}

/// A deterministic, seeded failure script for one dispatcher run. See the
/// module docs; build with [`ChaosPlan::new`] + the event helpers:
///
/// ```
/// use dpu_runtime::ChaosPlan;
/// use std::time::Duration;
///
/// let plan = ChaosPlan::new(42)
///     .kill_shard(1, 2)
///     .stall_shard(3, Duration::from_millis(5));
/// assert_eq!(plan.kill_after(1), Some(2));
/// assert!(plan.stall(3).is_some());
/// assert_eq!(plan.kill_after(0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for the deterministic stall jitter. Two runs with the same
    /// seed, events, and request stream inject identical delays.
    pub seed: u64,
    /// The scripted failure events.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan (no failures) with the given jitter seed.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds a [`ChaosEvent::KillShard`] event.
    #[must_use]
    pub fn kill_shard(mut self, shard: usize, after_rounds: u64) -> Self {
        self.events.push(ChaosEvent::KillShard {
            shard,
            after_rounds,
        });
        self
    }

    /// Adds a [`ChaosEvent::StallShard`] event.
    #[must_use]
    pub fn stall_shard(mut self, shard: usize, per_round: Duration) -> Self {
        self.events
            .push(ChaosEvent::StallShard { shard, per_round });
        self
    }

    /// Round budget after which `shard` is scripted to die, if any kill
    /// event targets it (first match wins).
    pub fn kill_after(&self, shard: usize) -> Option<u64> {
        self.events.iter().find_map(|e| match e {
            ChaosEvent::KillShard {
                shard: s,
                after_rounds,
            } if *s == shard => Some(*after_rounds),
            _ => None,
        })
    }

    /// Base per-round stall scripted for `shard`, if any stall event
    /// targets it (first match wins).
    pub fn stall(&self, shard: usize) -> Option<Duration> {
        self.events.iter().find_map(|e| match e {
            ChaosEvent::StallShard {
                shard: s,
                per_round,
            } if *s == shard => Some(*per_round),
            _ => None,
        })
    }

    /// The jittered stall to inject on `shard`'s `round_idx`-th checkout:
    /// a deterministic draw in `[base/2, base]`, keyed on (seed, shard,
    /// round index) so replays stall identically.
    pub fn stall_for(&self, shard: usize, round_idx: u64, base: Duration) -> Duration {
        let half = base / 2;
        let span = base.saturating_sub(half).as_nanos() as u64;
        if span == 0 {
            return base;
        }
        // xorshift* over the (seed, shard, round) tuple — cheap, seeded,
        // and stateless, so concurrent shards need no shared RNG.
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((shard as u64) << 32)
            .wrapping_add(round_idx)
            | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        half + Duration::from_nanos(x % (span + 1))
    }

    /// Largest shard index any event targets, for construction-time
    /// validation against the actual shard count.
    pub fn max_shard(&self) -> Option<usize> {
        self.events
            .iter()
            .map(|e| match e {
                ChaosEvent::KillShard { shard, .. } | ChaosEvent::StallShard { shard, .. } => {
                    *shard
                }
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookups_match_events() {
        let plan = ChaosPlan::new(7)
            .kill_shard(2, 10)
            .stall_shard(0, Duration::from_millis(3));
        assert_eq!(plan.kill_after(2), Some(10));
        assert_eq!(plan.kill_after(0), None);
        assert_eq!(plan.stall(0), Some(Duration::from_millis(3)));
        assert_eq!(plan.stall(2), None);
        assert_eq!(plan.max_shard(), Some(2));
        assert_eq!(ChaosPlan::new(7).max_shard(), None);
    }

    #[test]
    fn stall_jitter_is_deterministic_and_bounded() {
        let plan = ChaosPlan::new(99);
        let base = Duration::from_millis(10);
        for round in 0..32 {
            let a = plan.stall_for(1, round, base);
            let b = plan.stall_for(1, round, base);
            assert_eq!(a, b, "same (seed, shard, round) must jitter equally");
            assert!(a >= base / 2 && a <= base, "jitter out of band: {a:?}");
        }
        // Different rounds actually vary (not a constant function).
        let draws: std::collections::HashSet<Duration> =
            (0..32).map(|r| plan.stall_for(1, r, base)).collect();
        assert!(draws.len() > 1, "jitter never varied");
    }

    #[test]
    fn zero_stall_passes_through() {
        let plan = ChaosPlan::new(1);
        assert_eq!(plan.stall_for(0, 0, Duration::ZERO), Duration::ZERO);
    }
}
