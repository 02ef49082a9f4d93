//! The three serving workloads: `serve_heavy` and `serve_tiny` (closed
//! loop) and `open_loop` (Poisson arrivals), all through a default
//! `Dispatcher` from one generator thread.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dpu_core::prelude::*;
use dpu_core::runtime::{dag_fingerprint, home_shard};
use dpu_core::workloads::traffic::{open_loop_schedule, ArrivalPattern, TrafficParams};

use crate::items::{first_runs, references, Checker, Item, Reference, Source};
use crate::layers::{self, simulated, Probe};
use crate::rng::Rng;
use crate::run::{
    exact_sim, further_setups, peak_rss_mb, seconds, Report, RunConfig, Scale, Timed,
};
use crate::spec::Workload;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

/// Parts the timed region is cut into; rates and percentiles are reported
/// as the median part.
const SEGMENTS: usize = 10;
/// Every this many requests one is traced.
const TRACE_EVERY: u64 = 16;
/// An open-loop run whose generator was later than this at its 99th
/// percentile says nothing about the system.
const MAX_GENERATOR_LATE_P99_US: f64 = 5_000.0;
/// Open-loop arrivals per second: about a fifth of what `serve_heavy`
/// completes on the machine the bounds were measured on.
const OPEN_RATE: f64 = 2_000.0;
/// The open-loop generator sleeps until this long before an arrival is due.
const SPIN: Duration = Duration::from_micros(60);
/// Seeds the generator seeds of the served families.
const FAMILY_SEED: u64 = 0xD9A6;

struct Sizes {
    sources: Vec<Source>,
    /// Pre-generated input vectors per family.
    pool: usize,
    /// Warm-up requests per family, counted in set-up.
    warmup: usize,
    /// Tickets the closed loop keeps outstanding.
    outstanding: usize,
    /// Every this many requests one latency is kept: the millions of
    /// requests `serve_tiny` completes would otherwise make the benchmark's
    /// own samples a quarter of `peak_rss_mb`, growing with the rate.
    latency_every: u64,
}

fn sizes(cfg: &RunConfig) -> Sizes {
    // The served DAGs are the same for every `--seed` (which drives the
    // inputs, the request order and the arrival schedule): these workloads
    // measure the runtime, and a structure that changed with the seed
    // would move the rate and the simulated figures from run to run by
    // more than a runtime change does. A DAG's fingerprint picks its home
    // shard; generator seeds are drawn until family `i` homes on shard
    // `i % shards`, so the shards are loaded alike.
    let mut seeds = Rng::new(FAMILY_SEED);
    let shards = DispatchOptions::default().shards;
    let heavy = cfg.workload != Workload::ServeTiny && cfg.scale == Scale::Full;
    let (nodes, depth, trsv, spmv) = if heavy {
        ([6_000, 4_000], [20, 16], 400, 500)
    } else {
        ([150, 40], [6, 4], 14, 10)
    };
    let shapes = [
        Source::Pc {
            nodes: nodes[0],
            depth: depth[0],
            seed: 0,
        },
        Source::Pc {
            nodes: nodes[1],
            depth: depth[1],
            seed: 0,
        },
        Source::Sptrsv { dim: trsv, seed: 0 },
        Source::Spmv { dim: spmv, seed: 0 },
    ];
    let sources = shapes
        .iter()
        .enumerate()
        .map(|(family, shape)| loop {
            let source = shape.reseeded(seeds.next_u64());
            if home_shard(dag_fingerprint(&source.generate().0), shards) == family % shards {
                break source;
            }
        })
        .collect();
    // `serve_heavy` keeps two rounds' worth of tickets outstanding: its
    // shards are busy simulating either way, and a deeper queue only added
    // scheduling noise (the rate's run-to-run range was 26 % at 256 tickets
    // against 6 % at 64). `serve_tiny` keeps thirty-two: with two its
    // rounds could not fill, and the 1 ms timer, not the work, set its rate
    // (54 k req/s); with eight a shard still ran dry now and then (rate
    // spread 8 % between runs against 5 %).
    let round = DispatchOptions::default().max_batch;
    let (pool, warmup, outstanding, latency_every) = match (cfg.scale, heavy) {
        (Scale::Smoke, _) => (4, 4, 8, 1),
        (Scale::Full, true) => (32, 64, 2 * round, 1),
        (Scale::Full, false) => (32, 64, 32 * round, 16),
    };
    Sizes {
        sources,
        pool,
        warmup,
        outstanding,
        latency_every,
    }
}

struct Setup {
    items: Vec<Item>,
    refs: Vec<Reference>,
    dispatcher: Dispatcher,
    submitter: Submitter,
    /// Warm-up replies, checked like any other.
    warm: Checker,
    construct_s: f64,
}

fn setup(cfg: &RunConfig, sizes: &Sizes) -> Setup {
    let dpu = Dpu::large();
    let mut inputs = Rng::new(cfg.seed).fork(2);
    let items: Vec<Item> = sizes
        .sources
        .iter()
        .map(|s| Item::new(s.clone(), sizes.pool, &mut inputs))
        .collect();
    let refs = references(&dpu, &items).unwrap_or_else(|e| panic!("reference pass: {e}"));
    let built = Instant::now();
    let dispatcher = dpu.dispatcher(DispatchOptions::default());
    let construct_s = built.elapsed().as_secs_f64();
    for (item, r) in items.iter().zip(&refs) {
        assert_eq!(dispatcher.register(item.dag.clone()), r.key);
    }
    let submitter = dispatcher.submitter();
    let mut warm = cfg.checker();
    for (f, (item, r)) in items.iter().zip(&refs).enumerate() {
        let tickets: Vec<(usize, Option<Ticket>)> = (0..sizes.warmup)
            .map(|i| {
                let input = (i + f) % item.inputs.len();
                let request = Request::new(r.key, item.inputs[input].clone());
                (input, submitter.submit(request).ok())
            })
            .collect();
        for (input, ticket) in tickets {
            let got = ticket.and_then(|t| t.wait().completed());
            warm.reply(
                &r.want[input].outputs,
                got.as_ref().map(|g| g.outputs.as_slice()),
            );
        }
    }
    Setup {
        items,
        refs,
        dispatcher,
        submitter,
        warm,
        construct_s,
    }
}

/// What a traced run keeps beside the spans.
struct Traced {
    tracer: Tracer,
    timelines: Vec<Timeline>,
    submit_call_ns: (f64, u64),
    /// `wait_detailed` on tickets that had already resolved.
    wait_call_ns: (f64, u64),
}

struct Pending {
    ticket: Ticket,
    family: usize,
    input: usize,
    /// The instant latency is charged from: the due instant in the open
    /// loop, just before the submit call in the closed loop.
    at: Instant,
    /// Start and end of the submit call (traced runs only).
    submit_call: Option<(Instant, Instant)>,
    seq: u64,
}

struct Generator<'a> {
    setup: &'a Setup,
    /// Seeded (family, input) sequence, cycled.
    order: Vec<(usize, usize)>,
    cursor: usize,
    start: Instant,
    segment_s: f64,
    counts: [u64; SEGMENTS],
    timed: Timed,
    traced: Option<&'a mut Traced>,
    seq: u64,
    latency_every: u64,
}

impl<'a> Generator<'a> {
    fn new(
        setup: &'a Setup,
        cfg: &RunConfig,
        sizes: &Sizes,
        seconds: f64,
        rng: &mut Rng,
        traced: Option<&'a mut Traced>,
    ) -> Self {
        let order = (0..8_192)
            .map(|_| {
                let f = rng.below(setup.items.len());
                (f, rng.below(setup.items[f].inputs.len()))
            })
            .collect();
        Generator {
            setup,
            order,
            cursor: 0,
            start: Instant::now(),
            segment_s: seconds / SEGMENTS as f64,
            counts: [0; SEGMENTS],
            timed: Timed {
                latencies_ns: vec![Vec::new(); SEGMENTS],
                checker: cfg.checker(),
                ..Timed::default()
            },
            traced,
            seq: 0,
            latency_every: sizes.latency_every,
        }
    }

    fn next_in_order(&mut self) -> (usize, usize) {
        let pick = self.order[self.cursor];
        self.cursor = (self.cursor + 1) % self.order.len();
        pick
    }

    /// Submits one request charged from `due` (now when `None`). A
    /// refused request counts as failed and yields no ticket.
    fn submit(&mut self, family: usize, input: usize, due: Option<Instant>) -> Option<Pending> {
        let setup = self.setup;
        let r = &setup.refs[family];
        let request = Request::new(r.key, setup.items[family].inputs[input].clone());
        let begun = Instant::now();
        let at = due.unwrap_or(begun);
        let ticket = setup.submitter.submit_with(request, SubmitOptions::at(at));
        let submit_call = self.traced.as_mut().map(|t| {
            let end = Instant::now();
            t.submit_call_ns.0 += end.duration_since(begun).as_nanos() as f64;
            t.submit_call_ns.1 += 1;
            (begun, end)
        });
        self.seq += 1;
        match ticket {
            Ok(ticket) => Some(Pending {
                ticket,
                family,
                input,
                at,
                submit_call,
                seq: self.seq,
            }),
            Err(_) => {
                self.timed.checker.reply(&r.want[input].outputs, None);
                None
            }
        }
    }

    /// Waits for the reply, checks it, and books it under the segment it
    /// completed in.
    fn collect(&mut self, p: Pending) {
        let resolved = self.traced.is_some() && p.ticket.is_done();
        let wait_begun = Instant::now();
        let (outcome, timeline) = p.ticket.wait_detailed();
        let returned = Instant::now();
        let setup = self.setup;
        let want = &setup.refs[p.family].want[p.input].outputs;
        let got = outcome.completed();
        self.timed
            .checker
            .reply(want, got.as_ref().map(|g| g.outputs.as_slice()));
        if got.is_none() {
            return;
        }
        let completed = p.at + Duration::from_nanos(timeline.total_ns());
        let segment = (completed
            .saturating_duration_since(self.start)
            .as_secs_f64()
            / self.segment_s) as usize;
        if completed >= self.start && segment < SEGMENTS {
            self.counts[segment] += 1;
            if p.seq.is_multiple_of(self.latency_every) {
                self.timed.latencies_ns[segment].push(timeline.total_ns());
            }
        }
        let Some(t) = self.traced.as_mut() else {
            return;
        };
        t.timelines.push(timeline);
        if resolved {
            t.wait_call_ns.0 += returned.duration_since(wait_begun).as_nanos() as f64;
            t.wait_call_ns.1 += 1;
        }
        if !p.seq.is_multiple_of(TRACE_EVERY) {
            return;
        }
        // The timeline's clock is the dispatcher's; `arrival_ns` is the
        // instant `at` that was handed to `SubmitOptions::at`, which maps
        // it onto the tracer's clock.
        let tr = &mut t.tracer;
        let base = tr.ns_at(p.at);
        let on_trace = |ns: u64| base + ns.saturating_sub(timeline.arrival_ns);
        let end = tr.ns_at(returned);
        let root = tr.add(0, p.seq, "request", base, end);
        let accepted = on_trace(timeline.accepted_ns);
        let admit = tr.add(root, p.seq, "runtime.ingest.admit", base, accepted);
        if let Some((begun, ended)) = p.submit_call {
            let (begun, ended) = (tr.ns_at(begun), tr.ns_at(ended));
            tr.add(admit, p.seq, "runtime.ingest.submit", begun, ended);
        }
        let closed = on_trace(timeline.round_closed_ns);
        let started = on_trace(timeline.execute_start_ns);
        let done = on_trace(timeline.completed_ns);
        tr.add(root, p.seq, "runtime.ingest.batch", accepted, closed);
        tr.add(root, p.seq, "runtime.dispatch.queue", closed, started);
        tr.add(root, p.seq, "runtime.dispatch.service", started, done);
        tr.add(root, p.seq, "runtime.dispatch.deliver", done, end.max(done));
    }

    fn finish(mut self) -> Timed {
        self.timed.rates = self
            .counts
            .iter()
            .map(|&c| c as f64 / self.segment_s)
            .collect();
        self.timed
    }
}

/// Keeps `outstanding` tickets in flight for `seconds`, then drains.
fn closed_loop(mut g: Generator, seconds: f64, outstanding: usize) -> Timed {
    let end = g.start + Duration::from_secs_f64(seconds);
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(outstanding);
    loop {
        if Instant::now() < end {
            while pending.len() < outstanding {
                let (family, input) = g.next_in_order();
                match g.submit(family, input, None) {
                    Some(p) => pending.push_back(p),
                    None => break,
                }
            }
        }
        match pending.pop_front() {
            Some(p) => g.collect(p),
            None => break,
        }
    }
    g.finish()
}

/// Replays a Poisson schedule of `rate * seconds` arrivals, each charged
/// from its due instant; returns the generator's lateness per arrival in
/// microseconds beside the timed region.
fn open_loop(mut g: Generator, seconds: f64, rate: f64, seed: u64) -> (Timed, Vec<u64>) {
    let schedule = open_loop_schedule(&TrafficParams {
        requests: ((rate * seconds) as usize).max(1),
        rate_per_sec: rate,
        pattern: ArrivalPattern::Poisson,
        families: g.setup.items.len(),
        seed,
        ..TrafficParams::default()
    });
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut late_us = Vec::with_capacity(schedule.len());
    g.start = Instant::now();
    for arrival in &schedule {
        let due = arrival.instant(g.start);
        // Until the arrival is due: collect what has resolved, sleep
        // through the gap, spin through its last stretch. A sleep overshoots
        // by several tens of microseconds, and a generator that spins for
        // longer takes a core from the shards on a two-core machine: with
        // 200 us of spinning `p90_us` spread twice as far between runs.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if pending.front().is_some_and(|p| p.ticket.is_done()) {
                let p = pending.pop_front().expect("front exists");
                g.collect(p);
                continue;
            }
            let gap = due - now;
            if gap > 2 * SPIN {
                std::thread::sleep(gap - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        let (_, input) = g.next_in_order();
        let input = input % g.setup.items[arrival.family].inputs.len();
        late_us.push(Instant::now().saturating_duration_since(due).as_micros() as u64);
        if let Some(p) = g.submit(arrival.family, input, Some(due)) {
            pending.push_back(p);
        }
    }
    for p in pending {
        g.collect(p);
    }
    (g.finish(), late_us)
}

/// One timed region of the configured workload.
fn drive(
    cfg: &RunConfig,
    sizes: &Sizes,
    setup: &Setup,
    seconds: f64,
    rng: &mut Rng,
    traced: Option<&mut Traced>,
) -> (Timed, Vec<u64>) {
    let generator = Generator::new(setup, cfg, sizes, seconds, rng, traced);
    if cfg.workload == Workload::OpenLoop {
        open_loop(generator, seconds, OPEN_RATE, rng.next_u64())
    } else {
        (
            closed_loop(generator, seconds, sizes.outstanding),
            Vec::new(),
        )
    }
}

/// Marks an open-loop result unresolved when the generator ran late.
fn judge_generator(report: &mut Report, late_us: Vec<u64>) -> Option<(f64, f64)> {
    if late_us.is_empty() {
        return None;
    }
    let late = sorted(late_us);
    let (p50, p99) = (
        percentile(&late, 50.0) as f64,
        percentile(&late, 99.0) as f64,
    );
    report
        .notes
        .push(format!("generator late p50 {p50} us, p99 {p99} us"));
    if p99 > MAX_GENERATOR_LATE_P99_US {
        report.unresolved = true;
    }
    Some((p50, p99))
}

pub fn run(cfg: &RunConfig) -> Report {
    let sizes = sizes(cfg);
    let mut report = Report::new(cfg);
    let mut rng = Rng::new(cfg.seed).fork(3);
    if cfg.trace {
        traced_run(cfg, &sizes, &mut rng, &mut report);
        return report;
    }
    let (setup, first_s) = seconds(|| setup(cfg, &sizes));
    let (timed, late_us) = drive(cfg, &sizes, &setup, cfg.seconds, &mut rng, None);
    let peak_rss_mb = peak_rss_mb();
    judge_generator(&mut report, late_us);
    report.count(&setup.warm);
    report.count(&timed.checker);
    let config = Dpu::large().config;
    let sim = simulated(&config, first_runs(&setup.items, &setup.refs));
    setup.dispatcher.shutdown();
    let setup_parts = further_setups(
        cfg,
        first_s,
        || self::setup(cfg, &sizes),
        |s| {
            s.dispatcher.shutdown();
        },
    );
    report.set_end_to_end(&timed, exact_sim(&sim), &setup_parts, peak_rss_mb);
    report
}

/// `--trace 1`: the micro-phases, an untraced and a traced quarter-length
/// run on one dispatcher, and its report.
fn traced_run(cfg: &RunConfig, sizes: &Sizes, rng: &mut Rng, report: &mut Report) {
    let dpu = Dpu::large();
    let setup = setup(cfg, sizes);
    let probe = Probe {
        dpu: &dpu,
        items: &setup.items,
        refs: &setup.refs,
    };
    layers::measure(cfg, &probe, rng, &mut report.layers);

    let quarter = cfg.seconds / 4.0;
    let (untraced, _) = drive(cfg, sizes, &setup, quarter, rng, None);
    let mut traced = Traced {
        tracer: Tracer::new(),
        timelines: Vec::new(),
        submit_call_ns: (0.0, 0),
        wait_call_ns: (0.0, 0),
    };
    let (timed, late_us) = drive(cfg, sizes, &setup, quarter, rng, Some(&mut traced));
    report.count(&setup.warm);
    report.count(&untraced.checker);
    report.count(&timed.checker);

    let stopping = Instant::now();
    let dispatch = setup.dispatcher.shutdown();
    let shutdown_s = stopping.elapsed().as_secs_f64();

    let m = &mut report.layers;
    let mean = |(sum, n): (f64, u64)| if n == 0 { 0.0 } else { sum / n as f64 };
    m.set("runtime.ingest.submit_call_ns", mean(traced.submit_call_ns));
    m.set(
        "runtime.dispatch.ticket_wait_call_ns",
        mean(traced.wait_call_ns),
    );
    type Interval = fn(&Timeline) -> u64;
    let intervals: [(&str, &str, Interval); 4] = [
        (
            "runtime.ingest.submit_lag_ns_p50",
            "runtime.ingest.submit_lag_ns_p90",
            Timeline::submit_lag_ns,
        ),
        (
            "runtime.ingest.batching_ns_p50",
            "runtime.ingest.batching_ns_p90",
            Timeline::batching_delay_ns,
        ),
        (
            "runtime.dispatch.queue_wait_ns_p50",
            "runtime.dispatch.queue_wait_ns_p90",
            Timeline::queue_wait_ns,
        ),
        (
            "runtime.dispatch.service_ns_p50",
            "runtime.dispatch.service_ns_p90",
            Timeline::service_ns,
        ),
    ];
    if !traced.timelines.is_empty() {
        for (p50, p90, interval) in intervals {
            let v = sorted(traced.timelines.iter().map(interval).collect());
            m.set(p50, percentile(&v, 50.0) as f64);
            m.set(p90, percentile(&v, 90.0) as f64);
        }
    }
    let tail = timed.latencies_us(&[95.0, 99.0]);
    m.set("runtime.dispatch.p95_us", tail[0].value);
    m.set("runtime.dispatch.p99_us", tail[1].value);

    let rounds =
        dispatch.rounds_closed_full + dispatch.rounds_closed_timer + dispatch.rounds_closed_flush;
    m.set(
        "runtime.ingest.rounds_closed_full",
        dispatch.rounds_closed_full as f64,
    );
    m.set(
        "runtime.ingest.rounds_closed_timer",
        dispatch.rounds_closed_timer as f64,
    );
    m.set(
        "runtime.ingest.rounds_closed_flush",
        dispatch.rounds_closed_flush as f64,
    );
    m.set(
        "runtime.ingest.mean_round_size",
        dispatch.submitted as f64 / rounds.max(1) as f64,
    );
    m.set("runtime.dispatch.stolen_round_share", dispatch.steal_rate());
    m.set("runtime.dispatch.shard_balance", dispatch.shard_balance());
    m.set("runtime.dispatch.construct_s", setup.construct_s);
    m.set("runtime.dispatch.shutdown_s", shutdown_s);
    m.set_cache(&[&dispatch.cache_totals()]);

    let (rate, traced_rate) = (untraced.rate().value, timed.rate().value);
    if rate > 0.0 {
        m.set("bench.trace_overhead_share", (rate - traced_rate) / rate);
    }
    if rate > 0.0 && cfg.workload != Workload::OpenLoop {
        // What a request costs beyond its share of the shards' simulator
        // time: ingest, round closing, queues, histograms, tickets. Only a
        // closed loop runs at the rate the system sets.
        let shards = DispatchOptions::default().shards as f64;
        let in_pool = m.get("runtime.pool.execute_round_ns_per_request") / shards;
        m.set(
            "runtime.dispatch.overhead_ns_per_request",
            1e9 / rate - in_pool,
        );
    }
    if let Some((p50, p99)) = judge_generator(report, late_us) {
        report
            .layers
            .set("runtime.dispatch.generator_late_p50_us", p50);
        report
            .layers
            .set("runtime.dispatch.generator_late_p99_us", p99);
    }
    let m = &mut report.layers;
    m.set(
        "bench.layer_sum_share",
        traced.tracer.layer_sum_share(&["request"]),
    );
    report.write_trace(&traced.tracer);
}
