//! `path-auth`: Path PS-ORAM at the BENCH_05 freshness geometry with
//! payload encryption on and freshness verification armed under an inert
//! fault plan. One closed-loop client, 50/50 read/write, uniform
//! addresses, read-your-writes checked against a shadow map.

use std::sync::Arc;
use std::time::Instant;

use psoram_core::{OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_nvm::FaultConfig;
use psoram_obsv::{RingBufferRecorder, DEFAULT_RING_CAPACITY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{RefKernel, SetupSampler};
use crate::ledger::{report_faults, report_path_core, report_wpq, wpq_delta, Group, Ledger};
use crate::spans::{self, SpanLog};
use crate::stats::{self, FailTally};
use crate::{RunArgs, SETUP_REPS};

const LEVELS: u32 = 12;
/// Accesses per second of `--seconds`: sized so one run's measured phase
/// takes about `--seconds` on a 2-core host at the parent commit. The
/// work is fixed, not timed, so every `sim_*` number and every count
/// repeats exactly for a seed.
const ACCESSES_PER_SECOND: u64 = 6_000;
const WINDOW: usize = 100;
/// Accesses per twin in the traced run's armed/unarmed/plain/recorder
/// comparison, interleaved in chunks so host drift hits every twin alike.
const TWIN_ACCESSES: usize = 2_000;
const TWIN_CHUNK: usize = 100;

/// One generated request: write (with its value) or read.
#[derive(Debug, Clone, Copy)]
struct Req {
    addr: u64,
    write: Option<u64>,
}

fn config() -> OramConfig {
    let mut cfg = OramConfig::paper_default().with_levels(LEVELS);
    cfg.data_wpq_capacity = cfg.path_slots();
    cfg.posmap_wpq_capacity = cfg.path_slots();
    cfg
}

/// Builds a controller, writes every address once, then arms freshness
/// verification (inert plan) when `armed`.
fn build(seed: u64, armed: bool, encrypt: bool) -> (PathOram, Vec<u64>) {
    let mut oram = PathOram::new(config(), ProtocolVariant::PsOram, seed ^ 0x0A7C);
    oram.set_payload_encryption(encrypt);
    let cap = ProtocolPolicy::capacity_blocks(&oram);
    let shadow: Vec<u64> = (0..cap).map(|a| a + 1).collect();
    for (a, &v) in shadow.iter().enumerate() {
        ProtocolPolicy::write(&mut oram, a as u64, v.to_le_bytes().to_vec())
            .expect("prefill write on a fresh controller");
    }
    if armed {
        oram.enable_device_faults(seed ^ 0xF2E5, FaultConfig::disabled());
    }
    (oram, shadow)
}

/// The measured instance's set-up: built, prefilled and armed.
pub fn setup(seed: u64) -> (PathOram, Vec<u64>) {
    build(seed, true, true)
}

fn generate(seed: u64, n: usize, cap: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A7B);
    (0..n as u64)
        .map(|i| Req {
            addr: rng.gen_range(0..cap),
            write: (rng.gen_range(0..2u32) == 0).then_some((i << 24) | 0xAB_0000),
        })
        .collect()
}

/// Host outcome of one pass over the request sequence.
#[derive(Default)]
struct Pass {
    lat_read_s: Vec<f64>,
    lat_write_s: Vec<f64>,
    wall_s: f64,
    tally: FailTally,
}

/// Issues `reqs` in a closed loop as one timed window, checking every
/// read against `shadow`; `req0` numbers the requests for the span log.
/// Returns the window's host seconds.
fn drive(
    oram: &mut PathOram,
    shadow: &mut [u64],
    reqs: &[Req],
    log: &mut SpanLog,
    req0: usize,
    pass: &mut Pass,
) -> f64 {
    let start = Instant::now();
    for (i, r) in reqs.iter().enumerate() {
        pass.tally.attempted += 1;
        let t = Instant::now();
        let span = log.open("core.path", (req0 + i) as u64);
        let res = match r.write {
            Some(v) => ProtocolPolicy::write(oram, r.addr, v.to_le_bytes().to_vec()).map(|_| None),
            None => ProtocolPolicy::read(oram, r.addr).map(Some),
        };
        log.close(span);
        let dt = t.elapsed().as_secs_f64();
        match (res, r.write) {
            (Err(_), _) => pass.tally.errors += 1,
            (Ok(_), Some(v)) => {
                shadow[r.addr as usize] = v;
                pass.lat_write_s.push(dt);
            }
            (Ok(got), None) => {
                if got.as_deref() != Some(&shadow[r.addr as usize].to_le_bytes()[..]) {
                    pass.tally.rejected += 1;
                }
                pass.lat_read_s.push(dt);
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    pass.wall_s += secs;
    secs
}

/// Runs the workload.
pub fn run(args: &RunArgs, kernel: &mut RefKernel) -> Ledger {
    let mut ledger = Ledger::default();
    let n = (ACCESSES_PER_SECOND * args.seconds) as usize;
    let mut setups = SetupSampler::new(SETUP_REPS);
    let (mut oram, mut shadow) = setup(args.seed);
    let cap = shadow.len() as u64;
    let reqs = generate(args.seed, n, cap);

    let clock0 = oram.clock();
    let nvm0 = oram.nvm_stats();
    let stats0 = oram.stats();
    let (wd0, wp0) = oram.wpq_stats();
    // A traced run interleaves a traced twin window by window, so host
    // drift cannot masquerade as tracing overhead.
    let mut traced = args.trace.then(|| {
        (
            build(args.seed, true, true),
            Pass::default(),
            SpanLog::new(true),
        )
    });
    let mut pass = Pass::default();
    let mut off = SpanLog::new(false);
    let n_windows = n.div_ceil(WINDOW);
    let mut windows = Vec::with_capacity(n_windows);
    for (w, chunk) in reqs.chunks(WINDOW).enumerate() {
        setups.at(w, n_windows, args, kernel);
        let secs = drive(
            &mut oram,
            &mut shadow,
            chunk,
            &mut off,
            w * WINDOW,
            &mut pass,
        );
        windows.push(kernel.window(chunk.len() as u64, secs));
        if let Some(((t_oram, t_shadow), t_pass, log)) = &mut traced {
            drive(t_oram, t_shadow, chunk, log, w * WINDOW, t_pass);
        }
    }
    setups.finish(args, kernel, &windows, &mut ledger);
    let nvm = oram.nvm_stats().since(&nvm0);
    let per_req = |v: u64| v as f64 / n as f64;

    ledger.attempted = pass.tally.attempted;
    ledger.failed = pass.tally.failed();
    ledger.throughput(&windows);
    let mut all: Vec<f64> = pass
        .lat_read_s
        .iter()
        .chain(&pass.lat_write_s)
        .copied()
        .collect();
    all = stats::sorted(all);
    ledger.host_pct("host_req_us_p50", &all, 50.0, 1e6, "us");
    ledger.host_pct("host_req_us_p99", &all, 99.0, 1e6, "us");
    ledger.count_as("fail_frac", pass.tally.fail_frac(), "ratio");
    ledger.sim(
        "sim_cycles_per_req",
        per_req(oram.clock() - clock0),
        "cycles",
    );
    ledger.sim("sim_nvm_write_bytes_per_req", per_req(nvm.write_bytes), "B");

    ledger.check(
        "no_errors",
        pass.tally.errors == 0,
        format!("{} of {n} accesses returned an error", pass.tally.errors),
    );
    ledger.check(
        "read_your_writes",
        pass.tally.rejected == 0,
        format!(
            "{} reads disagreed with the shadow map",
            pass.tally.rejected
        ),
    );
    let verify = ProtocolPolicy::verify_contents(&mut oram, false);
    ledger.check(
        "verify_contents",
        verify.is_ok(),
        verify
            .err()
            .unwrap_or_else(|| format!("{cap} addresses read back")),
    );

    if args.trace {
        let stats = oram.stats().since(&stats0);
        report_path_core(&mut ledger, stats, oram.stash_max_occupancy());
        let (wd, wp) = oram.wpq_stats();
        report_wpq(&mut ledger, "data", wpq_delta(wd, wd0));
        report_wpq(&mut ledger, "posmap", wpq_delta(wp, wp0));
        report_faults(&mut ledger, oram.device_fault_stats().unwrap_or_default());
        ledger.count_as("nvm.reads_per_req", per_req(nvm.reads), "count/req");
        ledger.count_as("nvm.writes_per_req", per_req(nvm.writes), "count/req");
        let fresh = oram.freshness_stats();
        ledger.count("auth.stale_serves_detected", fresh.stale_serves_detected);
        ledger.count("auth.fetch_poisons", fresh.fetch_poisons);
        let sorted_r = stats::sorted(pass.lat_read_s.clone());
        let sorted_w = stats::sorted(pass.lat_write_s.clone());
        ledger.host_pct("core.path.read_us_p50", &sorted_r, 50.0, 1e6, "us");
        ledger.host_pct("core.path.write_us_p50", &sorted_w, 50.0, 1e6, "us");
        drop(oram);
        let ((_, _), t_pass, log) = traced.expect("traced twin exists when tracing");
        traced_ledger(args, &mut ledger, &reqs, &pass, &t_pass, &log);
        ledger.fill_unobserved(&[
            Group::PathCore,
            Group::Auth,
            Group::Nvm,
            Group::NvmFault,
            Group::Obsv,
        ]);
    }
    ledger
}

/// The traced twin's outcome, then the twin comparison that splits the
/// controller's time into auth, payload crypto and the rest.
fn traced_ledger(
    args: &RunArgs,
    ledger: &mut Ledger,
    reqs: &[Req],
    untraced: &Pass,
    pass: &Pass,
    log: &SpanLog,
) {
    ledger.check(
        "traced_read_your_writes",
        pass.tally.failed() == 0,
        format!("{} traced accesses failed", pass.tally.failed()),
    );
    ledger.host(
        "bench.trace_overhead_ratio",
        pass.wall_s / untraced.wall_s,
        "x",
    );

    // Twins over the same prefix: armed, unarmed, unarmed without payload
    // encryption, and armed with a flight recorder attached.
    let twin_reqs = &reqs[..TWIN_ACCESSES.min(reqs.len())];
    let mut twins: Vec<(PathOram, Vec<u64>, f64)> =
        [(true, true), (false, true), (false, false), (true, true)]
            .into_iter()
            .map(|(armed, enc)| {
                let (o, s) = build(args.seed, armed, enc);
                (o, s, 0.0)
            })
            .collect();
    twins[3]
        .0
        .attach_obsv_recorder(Arc::new(RingBufferRecorder::new(DEFAULT_RING_CAPACITY)));
    let mut twin_pass = Pass::default();
    let mut off = SpanLog::new(false);
    for chunk in twin_reqs.chunks(TWIN_CHUNK) {
        for (oram, shadow, secs) in &mut twins {
            let before = twin_pass.wall_s;
            drive(oram, shadow, chunk, &mut off, 0, &mut twin_pass);
            *secs += twin_pass.wall_s - before;
        }
    }
    let twin_failed = twin_pass.tally.failed();
    ledger.check(
        "twin_read_your_writes",
        twin_failed == 0,
        format!("{twin_failed} twin accesses failed"),
    );
    let us = |i: usize| twins[i].2 / twin_reqs.len() as f64 * 1e6;
    let (armed, unarmed, plain, recorded) = (us(0), us(1), us(2), us(3));
    ledger.host_n("core.path.plain_us_per_req", plain, "us", twin_reqs.len());
    ledger.host_n(
        "auth.self_us_per_req",
        armed - unarmed,
        "us",
        twin_reqs.len(),
    );
    ledger.host_n(
        "crypto.payload_us_per_req",
        unarmed - plain,
        "us",
        twin_reqs.len(),
    );
    ledger.host_n("auth.tax_ratio", armed / unarmed, "x", twin_reqs.len());
    ledger.host_n(
        "obsv.recorder_overhead_ratio",
        recorded / armed,
        "x",
        twin_reqs.len(),
    );

    let st = spans::self_times(log.spans());
    let auth_share = ((armed - unarmed) / armed).clamp(0.0, 1.0);
    let crypto_share = ((unarmed - plain) / armed).clamp(0.0, 1.0 - auth_share);
    // Shares of the armed access, so both splits come out of core's
    // self time measured before either split.
    let crypto_of_rest = crypto_share / (1.0 - auth_share).max(f64::EPSILON);
    ledger.attribute(
        &st,
        (pass.wall_s * 1e9) as u64,
        &[
            ("core", "auth", auth_share),
            ("core", "crypto", crypto_of_rest),
        ],
    );
    crate::write_spans(args, log, ledger);
}
