//! Async sharded serving demo: continuous request ingestion through a
//! [`Submitter`], adaptive round closing under a latency budget, routing
//! across engine shards by DAG fingerprint, and per-request completion
//! handles ([`Ticket`]).
//!
//! The request stream is an **open-loop** Poisson arrival schedule from
//! `dpu-workloads`' traffic generator — the submitting thread paces
//! itself by the schedule, not by server progress, like independent
//! clients would. The stream is priority-annotated: `Interactive`
//! requests carry deadlines (and preempt `Batch` in round packing),
//! so under burst the dispatcher sheds provably-late work instead of
//! queueing it — every shed is reported per class, never hidden.
//!
//! Run with `cargo run --release --example async_serving`.

use std::time::{Duration, Instant};

use dpu_core::energy;
use dpu_core::prelude::*;
use dpu_core::workloads::pc::{generate_pc, pc_inputs, PcParams};
use dpu_core::workloads::sparse::{generate_lower_triangular, LowerTriangularParams, SpmvDag};
use dpu_core::workloads::sptrsv::SptrsvDag;
use dpu_core::workloads::traffic::{
    open_loop_schedule, ArrivalPattern, PriorityClass, PriorityMix, TrafficParams,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A dispatcher of two DPU-v2 (L) replica shards. Rounds close at
    // 24 requests or 500 µs, whichever comes first.
    let dpu = Dpu::large();
    let dispatcher = dpu.dispatcher(DispatchOptions {
        shards: 2,
        max_batch: 24,
        max_wait: Duration::from_micros(500),
        ..Default::default()
    });

    // 2. Three workload families, registered on every shard.
    let pc = generate_pc(&PcParams::with_targets(2_000, 14), 31);
    let l = generate_lower_triangular(&LowerTriangularParams::for_target_path(100, 2.0, 18), 32);
    let trsv = SptrsvDag::build(&l);
    let a = generate_lower_triangular(
        &LowerTriangularParams {
            dim: 120,
            avg_nnz_per_row: 4.0,
            band_fraction: 0.7,
            band: 10,
        },
        33,
    );
    let spmv = SpmvDag::build(&a);
    let keys = [
        dispatcher.register(pc.clone()),
        dispatcher.register(trsv.dag.clone()),
        dispatcher.register(spmv.dag.clone()),
    ];
    let inputs_for = |family: usize, seq: usize| -> Vec<f32> {
        match family {
            0 => pc_inputs(&pc, seq as u64),
            1 => {
                let b: Vec<f32> = (0..l.dim)
                    .map(|j| 1.0 + 0.5 * (((seq + j) as f32) * 0.37).sin())
                    .collect();
                trsv.inputs(&l, &b)
            }
            _ => {
                let x: Vec<f32> = (0..a.dim)
                    .map(|j| 0.5 + 0.3 * (((2 * seq + j) as f32) * 0.23).cos())
                    .collect();
                spmv.inputs(&a, &x)
            }
        }
    };

    // 3. An open-loop Poisson schedule: 600 requests at ~3k req/s, with
    // a 20% interactive / 20% batch priority mix sampled from its own
    // RNG stream (annotation never perturbs arrival times or families).
    let schedule = open_loop_schedule(&TrafficParams {
        requests: 600,
        rate_per_sec: 3_000.0,
        pattern: ArrivalPattern::Poisson,
        families: keys.len(),
        skew: 0.5,
        seed: 77,
        priorities: PriorityMix::new(0.2, 0.2),
    });

    // 4. Replay it: submit each request at its scheduled time (the
    // timeline's arrival stamp, so latency is charged from the schedule)
    // with its priority class; interactive requests get a 25 ms deadline
    // — the dispatcher sheds any it can prove unmeetable instead of
    // queueing doomed work. Tickets are held; results are collected
    // after the stream ends.
    let submitter = dispatcher.submitter();
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(schedule.len());
    for arrival in &schedule {
        if let Some(wait) = arrival.at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let request = Request::new(
            keys[arrival.family],
            inputs_for(arrival.family, arrival.seq),
        );
        let scheduled = arrival.instant(start);
        let priority = match arrival.class {
            PriorityClass::Interactive => Priority::Interactive,
            PriorityClass::Standard => Priority::Standard,
            PriorityClass::Batch => Priority::Batch,
        };
        let mut opts = SubmitOptions::at(scheduled).priority(priority);
        if arrival.class == PriorityClass::Interactive {
            opts = opts.deadline(scheduled + Duration::from_millis(25));
        }
        tickets.push(submitter.submit_with(request, opts)?);
    }

    // 5. Drain: every accepted ticket resolves — `Completed` with its
    // result, or `Shed` with the reason; then settle the bill.
    dispatcher.drain();
    let done = tickets.iter().filter(|t| t.is_done()).count();
    let mut total_cycles = 0u64;
    let mut shed = 0u64;
    for t in tickets {
        match t.wait() {
            Outcome::Completed(r) => total_cycles += r.cycles,
            Outcome::Shed { .. } => shed += 1,
            Outcome::Failed(e) => return Err(e.into()),
        }
    }
    let report = dispatcher.shutdown();

    let freq = energy::calib::FREQ_HZ;
    println!("== async serving report ==");
    println!(
        "submitted / served    : {} / {}",
        report.submitted, report.served
    );
    println!("ready after drain     : {done}");
    println!(
        "shed (deadline)       : {shed} ({} unmeetable at admission, {} expired at execute)",
        report.shed_unmeetable, report.shed_expired
    );
    for p in [Priority::Interactive, Priority::Standard, Priority::Batch] {
        let c = report.class(p);
        println!(
            "  {:<12}        : offered {:>3}, completed {:>3}, shed {:>3}, rejected {:>3}",
            format!("{p:?}").to_lowercase(),
            c.offered,
            c.completed,
            c.shed,
            c.rejected
        );
    }
    println!(
        "rounds closed         : {} full, {} timer, {} flush",
        report.rounds_closed_full, report.rounds_closed_timer, report.rounds_closed_flush
    );
    for (i, s) in report.shards.iter().enumerate() {
        println!(
            "shard {i}               : {} reqs, {} rounds ({} stolen)",
            s.requests, s.rounds, s.stolen_rounds
        );
    }
    // One program store for all shards: its counters are the store's.
    let cache = report.cache_totals();
    println!(
        "program store         : cache {}/{} hits, {} compiles, {} decodes",
        cache.hits,
        cache.hits + cache.misses,
        cache.misses,
        cache.decode_count
    );
    println!(
        "shard balance         : {:.2}x fair share",
        report.shard_balance()
    );
    println!("total request cycles  : {total_cycles}");
    println!(
        "simulated throughput  : {:.2} GOPS @ {:.0} MHz (modelled makespan {} cycles)",
        report.gops(freq),
        freq / 1e6,
        report.modelled_cycles()
    );
    println!(
        "host wall-clock       : {:.1} ms",
        report.host_seconds * 1e3
    );
    // Closed-loop latency: per-request timelines, merged across shards
    // into quantile histograms (p50/p99 is the serving lens the paper's
    // response-time claim lives or dies by).
    let lat = &report.latency;
    println!(
        "response time         : p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        lat.total_ns.p50() as f64 / 1e6,
        lat.total_ns.p99() as f64 / 1e6,
        lat.total_ns.max() as f64 / 1e6,
    );
    println!(
        "queueing delay        : p50 {:.2} ms, p99 {:.2} ms (mean {:.2} ms)",
        lat.queueing_ns.p50() as f64 / 1e6,
        lat.queueing_ns.p99() as f64 / 1e6,
        lat.queueing_ns.mean() / 1e6,
    );
    println!(
        "modelled service time : p50 {} cycles, p99 {} cycles",
        lat.service_cycles.p50(),
        lat.service_cycles.p99(),
    );
    Ok(())
}
