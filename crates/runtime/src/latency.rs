//! Closed-loop latency accounting: per-request timelines and mergeable
//! quantile histograms.
//!
//! Throughput alone cannot certify a serving system — a shard can stall a
//! burst for milliseconds while every aggregate stays green. This module
//! supplies the missing half of the serving lens:
//!
//! - [`Timeline`]: the five monotonic stamps a request collects on its way
//!   through the async path (arrival → accepted → round-closed →
//!   execute-start → completed, nanoseconds from the dispatcher's epoch),
//!   from which queueing delay, batching delay and service time derive.
//! - [`LatencyHistogram`]: a deterministic, **mergeable** fixed-bucket
//!   log-linear histogram. Merge is associative, commutative, and
//!   bit-exact — per-shard histograms combine into one fleet histogram in
//!   any order without changing a single count — so the deterministic
//!   bench phase can assert the merged state is *byte-identical* across
//!   shard counts, and CI can ratchet p99 without timing noise.
//! - [`LatencyReport`]: the five per-request distributions the dispatcher
//!   aggregates per shard and merges at shutdown
//!   ([`DispatchReport::latency`](crate::DispatchReport)).
//! - [`Clock`]: the shared monotonic epoch every stamp is relative to.
//!
//! # Histogram design
//!
//! Buckets follow the classic log-linear (HdrHistogram-style) layout:
//! values `0..16` get exact unit buckets; every power-of-two range above
//! is split into 16 linear sub-buckets. A recorded value therefore lands
//! in a bucket whose width is at most `1/16` of its lower bound, bounding
//! the relative quantile error by [`LatencyHistogram::RELATIVE_ERROR`]
//! (6.25%) while keeping the state a fixed 976 counters — small enough to
//! keep one histogram per shard per metric, big enough to span 1 ns to
//! `u64::MAX` ns (585 years) without saturation.
//!
//! Merging adds counters element-wise (plus min/max/sum bookkeeping), so
//! it is order-independent by construction: the merged state is a pure
//! function of the *multiset* of recorded values, never of which shard
//! recorded them or in what order the shards were folded.

use std::time::{Duration, Instant};

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of two.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: 16 exact unit buckets + 16 sub-buckets for each of
/// the 60 power-of-two ranges `2^4 ..= 2^63`.
const BUCKETS: usize = (SUB as usize) + 60 * (SUB as usize);

/// Bucket index of a value (total order preserved: `v <= w` implies
/// `bucket_index(v) <= bucket_index(w)`).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let group = (exp - SUB_BITS) as usize;
        let sub = ((v >> (exp - SUB_BITS)) & (SUB - 1)) as usize;
        SUB as usize + group * SUB as usize + sub
    }
}

/// Lowest value mapping to bucket `i`.
fn bucket_low(i: usize) -> u64 {
    let s = SUB as usize;
    if i < s {
        i as u64
    } else {
        let group = ((i - s) / s) as u32;
        let sub = ((i - s) % s) as u64;
        (SUB + sub) << group
    }
}

/// Highest value mapping to bucket `i`.
fn bucket_high(i: usize) -> u64 {
    let s = SUB as usize;
    if i < s {
        i as u64
    } else {
        let group = ((i - s) / s) as u32;
        bucket_low(i) + ((1u64 << group) - 1)
    }
}

/// A deterministic, mergeable, fixed-bucket log-linear histogram of `u64`
/// samples (latencies in nanoseconds or modelled cycles). See the module
/// docs for the bucket layout and the merge-determinism argument.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("p50", &self.value_at_quantile(0.5))
            .field("p99", &self.value_at_quantile(0.99))
            .finish()
    }
}

impl LatencyHistogram {
    /// Upper bound on the relative error of any reported quantile against
    /// the recorded value at that rank: one sub-bucket width over the
    /// bucket's lower bound, `1/16`.
    pub const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Associative and commutative, and the
    /// merged state depends only on the multiset of samples both sides
    /// recorded — never on merge order — so per-shard histograms combine
    /// deterministically.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty). Exact, not bucketed.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0.0 when empty). Exact: the sum is
    /// tracked in 128 bits alongside the buckets.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), nearest-rank: the
    /// upper bound of the bucket holding the `ceil(q·count)`-th smallest
    /// sample, clipped to the exact recorded maximum. Within
    /// [`LatencyHistogram::RELATIVE_ERROR`] of the recorded value at that
    /// rank; 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss)] // q and count are non-negative
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 99th percentile — the serving tail CI gates on.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// Deterministic byte encoding of the full state (sparse, ascending
    /// bucket index). Histograms holding the same multiset of samples
    /// always encode identically, regardless of recording or merge order
    /// — the bench uses this to assert that merged per-shard histograms
    /// are byte-identical across shard counts. (The converse holds only
    /// to bucket resolution: distinct multisets agreeing on every bucket
    /// count, min, max and sum encode alike.)
    pub fn to_bytes(&self) -> Vec<u8> {
        let nonzero = self.counts.iter().filter(|&&c| c != 0).count();
        let mut out = Vec::with_capacity(4 + 1 + 8 + 16 + 8 + 8 + 4 + nonzero * 10);
        out.extend_from_slice(b"DPLH");
        out.push(1); // encoding version
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.min().to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        out.extend_from_slice(&(nonzero as u32).to_le_bytes());
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                out.extend_from_slice(&(i as u16).to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }
}

/// The monotonic time base of a dispatcher: every [`Timeline`] stamp is
/// nanoseconds since this clock's epoch (the dispatcher's construction
/// instant), so stamps taken on different threads are directly
/// comparable.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// A clock anchored at `epoch`.
    pub fn from_epoch(epoch: Instant) -> Self {
        Clock { epoch }
    }

    /// Nanoseconds from the epoch to now.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t` (0 if `t` precedes the epoch).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch).map_or(0, nanos)
    }
}

/// `d` in nanoseconds, saturating at `u64::MAX` (585 years).
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// The stamps one request collects through the async path, all in
/// nanoseconds from the dispatcher's [`Clock`] epoch:
///
/// ```text
/// arrival ──► accepted ──► round-closed ──► execute-start ──► completed
///    └ submit │   └ batching delay  │  └ queue wait │ └ service time ┘
///      lag ───┘     (round forming) ┘    (in queue) ┘
/// ```
///
/// `arrival` is the *scheduled* submission time (the open-loop
/// generator's arrival for replayed traffic, the submit instant
/// otherwise), so `total_ns` measures what an open-loop client would:
/// from when the request *should* have entered the system to when its
/// result was ready.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Scheduled submission time
    /// ([`SubmitOptions::scheduled`](crate::SubmitOptions)'s instant, or
    /// the actual submit instant for plain submits).
    pub arrival_ns: u64,
    /// Admitted by its submit, under the dispatcher's queues lock.
    pub accepted_ns: u64,
    /// The round holding this request closed (by size, timer, or flush).
    pub round_closed_ns: u64,
    /// A shard began executing the request.
    pub execute_start_ns: u64,
    /// Execution finished; the ticket is fulfilled with this timeline.
    pub completed_ns: u64,
    /// Completion deadline from
    /// [`SubmitOptions::deadline`](crate::SubmitOptions), in nanoseconds
    /// from the same epoch (`0` = no deadline). Propagated through the
    /// whole path so the dispatcher can shed a provably late request
    /// *before* execution and so a fulfilled ticket's timeline still
    /// shows the budget the request ran against.
    pub deadline_ns: u64,
    /// Modelled service time in simulated cycles on the executing
    /// engine — the deterministic half of the accounting (a pure
    /// function of program and inputs, unlike the host-side stamps).
    pub service_cycles: u64,
}

impl Timeline {
    /// Admission lag: accepted minus scheduled arrival — how late a
    /// replayed submit came, plus its wait for the queues lock.
    pub fn submit_lag_ns(&self) -> u64 {
        self.accepted_ns.saturating_sub(self.arrival_ns)
    }

    /// Time spent waiting for the round to fill or time out — bounded by
    /// [`DispatchOptions::max_wait`](crate::DispatchOptions::max_wait)
    /// plus timer slack, or, when every worker is busy, until the next
    /// checkout closes the due round (the wait then moves out of
    /// [`Timeline::queue_wait_ns`], not onto the total).
    pub fn batching_delay_ns(&self) -> u64 {
        self.round_closed_ns.saturating_sub(self.accepted_ns)
    }

    /// Time the closed round waited in the shard queue before execution
    /// began.
    pub fn queue_wait_ns(&self) -> u64 {
        self.execute_start_ns.saturating_sub(self.round_closed_ns)
    }

    /// Total queueing delay: accepted until execution began (batching
    /// delay plus queue wait).
    pub fn queueing_delay_ns(&self) -> u64 {
        self.execute_start_ns.saturating_sub(self.accepted_ns)
    }

    /// Host-side service time of the execution itself.
    pub fn service_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.execute_start_ns)
    }

    /// End-to-end response time: scheduled arrival until completion.
    pub fn total_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.arrival_ns)
    }
}

/// The per-request latency distributions of a dispatcher (or one shard of
/// it): four host-time histograms plus the deterministic modelled
/// service-cycle histogram. Shards each keep one and the dispatcher
/// merges them at shutdown
/// ([`DispatchReport::latency`](crate::DispatchReport)); only successful
/// requests are recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyReport {
    /// Modelled service time per request, in simulated cycles of the
    /// executing engine. Deterministic: the merged multiset depends only
    /// on the request stream, never on sharding, stealing, or timing —
    /// this is the histogram CI gates.
    pub service_cycles: LatencyHistogram,
    /// Host-time queueing delay (accepted → execute start).
    pub queueing_ns: LatencyHistogram,
    /// Host-time batching delay (accepted → round closed).
    pub batching_ns: LatencyHistogram,
    /// Host-time service time (execute start → completed).
    pub service_ns: LatencyHistogram,
    /// Host-time end-to-end response time (arrival → completed).
    pub total_ns: LatencyHistogram,
}

impl LatencyReport {
    /// Records one completed request's timeline into all five
    /// distributions.
    pub fn record(&mut self, t: &Timeline) {
        self.service_cycles.record(t.service_cycles);
        self.queueing_ns.record(t.queueing_delay_ns());
        self.batching_ns.record(t.batching_delay_ns());
        self.service_ns.record(t.service_ns());
        self.total_ns.record(t.total_ns());
    }

    /// Folds another report in, histogram by histogram (associative and
    /// commutative, like [`LatencyHistogram::merge`]).
    pub fn merge(&mut self, other: &LatencyReport) {
        self.service_cycles.merge(&other.service_cycles);
        self.queueing_ns.merge(&other.queueing_ns);
        self.batching_ns.merge(&other.batching_ns);
        self.service_ns.merge(&other.service_ns);
        self.total_ns.merge(&other.total_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every bucket's high is one below the next bucket's low, and the
        // index function inverts the bounds.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_low(i)), i, "low of bucket {i}");
            assert_eq!(bucket_index(bucket_high(i)), i, "high of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_high(i) + 1, bucket_low(i + 1), "gap after {i}");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_width_is_within_the_relative_bound() {
        for i in SUB as usize..BUCKETS {
            let width = bucket_high(i) - bucket_low(i) + 1;
            assert!(
                width as f64 <= bucket_low(i) as f64 * LatencyHistogram::RELATIVE_ERROR,
                "bucket {i}: width {width} low {}",
                bucket_low(i)
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for (rank, v) in (0..SUB).enumerate() {
            let q = (rank + 1) as f64 / SUB as f64;
            assert_eq!(h.value_at_quantile(q), v);
        }
    }

    #[test]
    fn quantiles_of_a_known_set() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        assert!((500..=532).contains(&p50), "p50 {p50}");
        let p99 = h.p99();
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_direct_recording() {
        let values: Vec<u64> = (0..500u64).map(|i| i * i * 37 + 11).collect();
        let mut direct = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            direct.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, direct);
        assert_eq!(ba, direct);
        assert_eq!(ab.to_bytes(), ba.to_bytes());
        assert_eq!(ab.to_bytes(), direct.to_bytes());
    }

    #[test]
    fn clock_is_monotone_and_saturates_before_epoch() {
        let earlier = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let clock = Clock::new();
        assert_eq!(clock.ns_at(earlier), 0, "pre-epoch instants clamp to 0");
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn timeline_derivations() {
        let t = Timeline {
            arrival_ns: 100,
            accepted_ns: 150,
            round_closed_ns: 400,
            execute_start_ns: 600,
            completed_ns: 1000,
            deadline_ns: 1200,
            service_cycles: 42,
        };
        assert_eq!(t.submit_lag_ns(), 50);
        assert_eq!(t.batching_delay_ns(), 250);
        assert_eq!(t.queue_wait_ns(), 200);
        assert_eq!(t.queueing_delay_ns(), 450);
        assert_eq!(t.service_ns(), 400);
        assert_eq!(t.total_ns(), 900);
        // Out-of-order stamps saturate instead of wrapping.
        let zero = Timeline::default();
        assert_eq!(zero.total_ns(), 0);
        assert_eq!(zero.queueing_delay_ns(), 0);
    }

    #[test]
    fn report_merge_matches_interleaved_recording() {
        let mk = |i: u64| Timeline {
            arrival_ns: i * 10,
            accepted_ns: i * 10 + 3,
            round_closed_ns: i * 10 + 7,
            execute_start_ns: i * 12 + 9,
            completed_ns: i * 15 + 20,
            deadline_ns: 0,
            service_cycles: 100 + i % 7,
        };
        let mut whole = LatencyReport::default();
        let mut parts = [LatencyReport::default(), LatencyReport::default()];
        for i in 0..200 {
            let t = mk(i);
            whole.record(&t);
            parts[(i % 2) as usize].record(&t);
        }
        let mut merged = parts[1].clone();
        merged.merge(&parts[0]);
        assert_eq!(merged, whole);
    }
}
