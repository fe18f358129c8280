//! `service-open`: the sharded service front-end in the `ServiceConfig::
//! bench()` shape (4 controller shards, 32 Poisson clients, L=12) on 2
//! worker threads, as an open loop in virtual time at a reference rate
//! and at a fixed ladder of rates around saturation.

use std::time::Instant;

use psoram_service::{run_service, ServiceConfig, ServiceReport, CORE_HZ};

use crate::host::{RefKernel, SetupSampler};
use crate::ledger::{Group, Ledger};
use crate::spans::{self, SpanLog};
use crate::{RunArgs, SETUP_REPS};

const JOBS: usize = 2;
const REF_RATE: u64 = 600_000;
/// Offered rates around saturation (between 1.1M and 1.2M req/s at the
/// parent commit).
const LADDER: [u64; 6] = [800_000, 900_000, 1_000_000, 1_100_000, 1_200_000, 1_300_000];
/// Simulated p99 latency a ladder rate must meet.
const P99_LIMIT_US: f64 = 60.0;
/// A rate has no growing backlog when the service completes at least
/// this share of the offered rate over the run.
const MIN_SERVED_SHARE: f64 = 0.97;
/// Requests in the set-up run: building the shards and the schedule
/// dominates it.
const SETUP_REQUESTS: u64 = 500;
/// Requests per host-time window: a whole `run_service` call short enough
/// (~80 ms on 2 cores) for the reference bursts around it to see the
/// same host conditions.
const WINDOW_REQUESTS: u64 = 2_000;
/// Windows per second of `--seconds` (fixed work, sized to the parent
/// commit on a 2-core host).
const WINDOWS_PER_SECOND: u64 = 12;

fn config(seed: u64, rate: u64, requests: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::bench();
    cfg.seed = seed ^ 0x5E41;
    cfg.arrival_rate = rate;
    cfg.requests = requests;
    cfg
}

fn report_json(r: &ServiceReport) -> String {
    serde_json::to_string(r).expect("service report serializes")
}

/// One timed `run_service` call.
fn timed(cfg: &ServiceConfig, jobs: usize, log: &mut SpanLog, req: u64) -> (ServiceReport, f64) {
    let t = Instant::now();
    let out = log.time("service.run", req, || run_service(cfg, jobs));
    (out.report, t.elapsed().as_secs_f64())
}

/// The set-up: a short run on one worker, which building the shards and
/// the schedule dominates.
pub fn setup(seed: u64) -> ServiceReport {
    run_service(&config(seed, REF_RATE, SETUP_REQUESTS), 1).report
}

fn lanes_ok(r: &ServiceReport) -> bool {
    r.lanes.iter().all(|l| l.verify_ok)
}

/// Runs the workload.
pub fn run(args: &RunArgs, kernel: &mut RefKernel) -> Ledger {
    let mut ledger = Ledger::default();
    let full = ServiceConfig::bench().requests;
    let mut setups = SetupSampler::new(SETUP_REPS);
    let tiny_report = setup(args.seed);

    // Host throughput: many short runs of one configuration. A traced run
    // interleaves a traced twin after each window, so host drift cannot
    // masquerade as tracing overhead.
    let window = config(args.seed, REF_RATE, WINDOW_REQUESTS);
    let mut off = SpanLog::new(false);
    let mut log = SpanLog::new(args.trace);
    let (mut untraced_secs, mut traced_secs) = (0.0, 0.0);
    let mut windows = Vec::new();
    let mut window_json: Option<String> = None;
    let mut repeat_identical = true;
    let mut all_lanes_ok = lanes_ok(&tiny_report);
    let n_windows = (WINDOWS_PER_SECOND * args.seconds) as usize;
    for i in 0..n_windows {
        setups.at(i, n_windows, args, kernel);
        let (r, secs) = timed(&window, JOBS, &mut off, i as u64);
        windows.push(kernel.window(WINDOW_REQUESTS, secs));
        untraced_secs += secs;
        let json = report_json(&r);
        repeat_identical &= window_json.as_ref().is_none_or(|first| *first == json);
        all_lanes_ok &= lanes_ok(&r);
        if args.trace {
            let (t, secs) = timed(&window, JOBS, &mut log, i as u64);
            repeat_identical &= report_json(&t) == json;
            traced_secs += secs;
        }
        window_json.get_or_insert(json);
    }
    setups.finish(args, kernel, &windows, &mut ledger);

    // Simulated metrics: the full-size run at the reference rate, at one
    // worker, and along the ladder.
    let reference = config(args.seed, REF_RATE, full);
    let (ref_report, ref_secs) = timed(&reference, JOBS, &mut off, 0);
    let (serial, serial_secs) = timed(&reference, 1, &mut off, 0);
    all_lanes_ok &= lanes_ok(&ref_report) && lanes_ok(&serial);
    let mut ladder = Vec::new();
    for rate in LADDER {
        let (r, _) = timed(&config(args.seed, rate, full), JOBS, &mut off, 0);
        all_lanes_ok &= lanes_ok(&r);
        ladder.push((rate, r));
    }

    let runs = windows.len() as u64 + 2 + LADDER.len() as u64;
    ledger.attempted = windows.len() as u64 * WINDOW_REQUESTS + (2 + LADDER.len() as u64) * full;
    ledger.failed = 0;
    ledger.throughput(&windows);
    ledger.count_as("fail_frac", 0.0, "ratio");
    let n_ref = ref_report.aggregate.requests.max(1);
    let busy: u64 = ref_report.lanes.iter().map(|l| l.busy_cycles).sum();
    ledger.sim("sim_cycles_per_req", busy as f64 / n_ref as f64, "cycles");
    ledger.sim_n(
        "svc_sim_p50_us",
        ref_report.p50_us,
        "sim_us",
        n_ref as usize,
    );
    ledger.sim_n(
        "svc_sim_p99_us",
        ref_report.p99_us,
        "sim_us",
        n_ref as usize,
    );
    let mut max_ok = 0u64;
    for (rate, r) in &ladder {
        let served = r.aggregate.accesses_per_sec / *rate as f64;
        let ok = r.p99_us <= P99_LIMIT_US && served >= MIN_SERVED_SHARE;
        if ok {
            max_ok = max_ok.max(*rate);
        }
        ledger.note(format!(
            "ladder {:>5} kreq/s: sim p50 {:>9.2} us, p99 {:>9.2} us, served {:>6.1}% of offered -> {}",
            rate / 1000,
            r.p50_us,
            r.p99_us,
            100.0 * served,
            if ok { "meets" } else { "misses" }
        ));
    }
    ledger.sim("svc_sim_max_kreq_s", max_ok as f64 / 1e3, "kreq/s");
    ledger.note(format!(
        "service-open: p99 limit {P99_LIMIT_US} us (sim) with served >= {:.0}% of offered; \
         arrivals are precomputed in virtual time, so the generator cannot run late",
        100.0 * MIN_SERVED_SHARE
    ));

    ledger.check(
        "lanes_verify_ok",
        all_lanes_ok,
        format!("{runs} service runs, every lane's contents check"),
    );
    ledger.check(
        "report_identical_jobs_1_and_2",
        report_json(&serial) == report_json(&ref_report),
        "reference-rate report at --jobs 1 vs --jobs 2",
    );
    ledger.check(
        "report_identical_on_repeat",
        repeat_identical,
        format!("{} window runs of one configuration", windows.len()),
    );

    if args.trace {
        ledger.host("service.host_ms", ref_secs * 1e3, "ms");
        ledger.host("service.par_speedup", serial_secs / ref_secs, "x");
        let wait: u128 = ref_report
            .lanes
            .iter()
            .map(|l| l.queue_wait_mean_cycles as u128 * l.requests as u128)
            .sum();
        let wait_cycles = wait as f64 / n_ref as f64;
        ledger.sim(
            "service.queue_wait_us_mean",
            wait_cycles * 1e6 / CORE_HZ as f64,
            "sim_us",
        );
        let lanes = ref_report.lanes.len() as f64;
        let makespan = ref_report.aggregate.makespan_cycles.max(1) as f64;
        ledger.sim(
            "service.lane_busy_share",
            busy as f64 / (lanes * makespan),
            "ratio",
        );
        ledger.count(
            "service.batches",
            ref_report.lanes.iter().map(|l| l.batches).sum(),
        );
        ledger.note(format!(
            "service.par_speedup is jobs 1 vs jobs {JOBS} on a host with {} available threads",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ));
        ledger.host(
            "bench.trace_overhead_ratio",
            traced_secs / untraced_secs,
            "x",
        );
        ledger.attribute(
            &spans::self_times(log.spans()),
            (traced_secs * 1e9) as u64,
            &[],
        );
        crate::write_spans(args, &log, &mut ledger);
        ledger.fill_unobserved(&[Group::Service]);
    }
    ledger
}
