//! `ring-crash`: PS-Ring ORAM at L=10 under a crash-drain-damage fault
//! plan. One closed-loop client, 50/50 read/write, with `crash_now()` +
//! `recover()` every fixed number of accesses and a shadow oracle that
//! resyncs only on rollbacks the recovery declares.

use std::time::Instant;

use psoram_core::ring::{RingConfig, RingOram, RingStats, RingVariant};
use psoram_core::ProtocolPolicy;
use psoram_faultsim::ShadowOracle;
use psoram_nvm::FaultConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{RefKernel, SetupSampler};
use crate::ledger::{report_faults, report_wpq, wpq_delta, Group, Ledger};
use crate::spans::{self, SpanLog};
use crate::stats::{self, FailTally, Window};
use crate::{RunArgs, SETUP_REPS};

const LEVELS: u32 = 10;
const ACCESSES_PER_CRASH: usize = 200;
/// Crash cycles per second of `--seconds`, never fewer than enough for
/// p90 of recovery time to have ten samples beyond it. The schedule is
/// fixed work, so recovery growth is compared at equal crash counts.
const CRASHES_PER_SECOND: u64 = 10;
const MIN_CRASHES: u64 = 110;
/// Crash cycles in the traced run's armed-vs-unarmed twin comparison.
const TWIN_CRASHES: usize = 30;

#[derive(Debug, Clone, Copy)]
struct Req {
    addr: u64,
    write: Option<u64>,
}

fn config() -> RingConfig {
    let mut cfg = RingConfig {
        levels: LEVELS,
        ..RingConfig::small_test()
    };
    cfg.wpq_capacity = cfg.bucket_physical_slots() * (LEVELS as usize + 1);
    cfg
}

/// Crash-drain damage only: torn rounds, lost and duplicated signals and
/// bit flips. Read faults are off, as in `perf_baseline`, so traffic never
/// poisons the instance and every run measures the same crash schedule.
fn fault_mix() -> FaultConfig {
    FaultConfig {
        transient_read: 0.0,
        stuck_read: 0.0,
        ..FaultConfig::campaign_default()
    }
}

fn value(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// A controller with its oracle and everything one pass measures.
pub struct Driver {
    oram: RingOram,
    oracle: ShadowOracle,
    tally: FailTally,
    lat_s: Vec<f64>,
    recover_ms: Vec<f64>,
    access_wall_s: f64,
    /// Time inside [`Driver::cycle`]: requests, recovery and resync.
    wall_s: f64,
    repairs: u64,
    incidents: u64,
    /// Fatal findings: a silent mismatch, an inconsistent recovery that
    /// declared nothing, or a poisoned instance.
    fatal: Vec<String>,
}

impl Driver {
    /// Builds, arms (when `armed`) and prefills every address once.
    fn build(seed: u64, armed: bool) -> Driver {
        let mut oram = RingOram::new(config(), RingVariant::PsRing, seed ^ 0x217C);
        if armed {
            oram.enable_device_faults(seed ^ 0xBE9C, fault_mix());
        }
        let mut oracle = ShadowOracle::new(
            oram.config().payload_bytes,
            ProtocolPolicy::commit_model(&oram),
        );
        for a in 0..ProtocolPolicy::capacity_blocks(&oram) {
            oracle.begin_write(a, value(a + 1));
            ProtocolPolicy::write(&mut oram, a, value(a + 1))
                .expect("prefill write on a fresh controller");
            oracle.commit_write();
        }
        Driver {
            oram,
            oracle,
            tally: FailTally::default(),
            lat_s: Vec::new(),
            recover_ms: Vec::new(),
            access_wall_s: 0.0,
            wall_s: 0.0,
            repairs: 0,
            incidents: 0,
            fatal: Vec::new(),
        }
    }

    fn capacity(&self) -> u64 {
        ProtocolPolicy::capacity_blocks(&self.oram)
    }

    /// One crash cycle: the requests, then a crash at rest and recovery.
    /// With a reference kernel the requests are one timed window, with
    /// reference bursts right before and right after them.
    fn cycle(
        &mut self,
        reqs: &[Req],
        log: &mut SpanLog,
        req0: u64,
        kernel: Option<&mut RefKernel>,
    ) -> Option<Window> {
        let window = match kernel {
            Some(k) => {
                k.probe();
                let secs = self.requests(reqs, log, req0);
                Some(k.window(reqs.len() as u64, secs))
            }
            None => {
                self.requests(reqs, log, req0);
                None
            }
        };
        if self.fatal.is_empty() {
            let start = Instant::now();
            self.crash(log, req0 + reqs.len() as u64);
            self.wall_s += start.elapsed().as_secs_f64();
        }
        window
    }

    fn requests(&mut self, reqs: &[Req], log: &mut SpanLog, req0: u64) -> f64 {
        let start = Instant::now();
        for (i, r) in reqs.iter().enumerate() {
            let req = req0 + i as u64;
            self.tally.attempted += 1;
            let t = Instant::now();
            let res = match r.write {
                Some(v) => {
                    self.oracle.begin_write(r.addr, value(v));
                    let res = log.time("core.ring", req, || {
                        ProtocolPolicy::write(&mut self.oram, r.addr, value(v))
                    });
                    match res {
                        Ok(()) => self.oracle.commit_write(),
                        Err(_) => self.oracle.drop_pending(),
                    }
                    res.map(|_| None)
                }
                None => log
                    .time("core.ring", req, || {
                        ProtocolPolicy::read(&mut self.oram, r.addr)
                    })
                    .map(Some),
            };
            self.lat_s.push(t.elapsed().as_secs_f64());
            match res {
                Err(e) => {
                    self.tally.errors += 1;
                    if let Some(class) = ProtocolPolicy::poisoned(&self.oram) {
                        self.fatal
                            .push(format!("instance poisoned ({class}) at request {req}: {e}"));
                        break;
                    }
                }
                Ok(Some(got)) => {
                    let verdict =
                        log.time("bench.oracle", req, || self.oracle.observe(r.addr, &got));
                    if let Err(detail) = verdict {
                        self.tally.rejected += 1;
                        self.fatal
                            .push(format!("silent mismatch at request {req}: {detail}"));
                    }
                }
                Ok(None) => {}
            }
        }
        let secs = start.elapsed().as_secs_f64();
        self.access_wall_s += secs;
        self.wall_s += secs;
        secs
    }

    fn crash(&mut self, log: &mut SpanLog, req: u64) {
        self.oracle.note_crash();
        ProtocolPolicy::crash_now(&mut self.oram);
        let t = Instant::now();
        let rec = log.time("recover", req, || ProtocolPolicy::recover(&mut self.oram));
        self.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.repairs += rec.repairs;
        self.incidents += rec.incidents.len() as u64;
        self.tally.rolled_back += rec.rolled_back.len() as u64;
        if rec.poisoned {
            self.fatal.push(format!(
                "recovery {} poisoned the instance",
                self.recover_ms.len()
            ));
            return;
        }
        let declared_loss = !rec.consistent && !rec.errors.is_empty();
        if !rec.consistent && !declared_loss {
            self.fatal.push(format!(
                "recovery {} inconsistent without a typed error: {}",
                self.recover_ms.len(),
                rec.violation.unwrap_or_default()
            ));
            return;
        }
        // Declared data loss realigns the shadow to what the controller
        // now holds: every address on a typed error, else the rolled-back
        // ones. Anything else stays checked against the shadow.
        let resync: Vec<u64> = if declared_loss {
            self.oracle.addrs()
        } else {
            rec.rolled_back
        };
        let span = log.open("bench.oracle", req);
        for addr in resync {
            match log.time("core.ring", req, || {
                ProtocolPolicy::read(&mut self.oram, addr)
            }) {
                Ok(v) => self.oracle.resync(addr, &v),
                Err(e) => self
                    .fatal
                    .push(format!("read-back of rolled-back a{addr} failed: {e}")),
            }
        }
        log.close(span);
    }

    /// End-of-run checks: `verify_contents` against the controller's
    /// committed ledger, then every address against the shadow.
    fn finish(&mut self) -> Result<(), String> {
        ProtocolPolicy::verify_contents(&mut self.oram, true)?;
        for addr in self.oracle.addrs() {
            let v = ProtocolPolicy::read(&mut self.oram, addr)
                .map_err(|e| format!("final read a{addr}: {e}"))?;
            self.oracle.observe(addr, &v)?;
        }
        Ok(())
    }
}

/// The measured instance's set-up: built, armed and prefilled.
pub fn setup(seed: u64) -> Driver {
    Driver::build(seed, true)
}

fn generate(seed: u64, n: usize, cap: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x21C6);
    (0..n as u64)
        .map(|i| Req {
            addr: rng.gen_range(0..cap),
            write: (rng.gen_range(0..2u32) == 0).then_some((i << 24) | 0xCD_0000),
        })
        .collect()
}

/// Runs the crash schedule on `d`, and on a traced twin window by window
/// when one is given, so host drift cannot masquerade as tracing overhead.
fn drive(
    d: &mut Driver,
    mut traced: Option<(&mut Driver, &mut SpanLog)>,
    reqs: &[Req],
    kernel: &mut RefKernel,
    setups: &mut SetupSampler,
    args: &RunArgs,
) -> Vec<Window> {
    let mut off = SpanLog::new(false);
    let mut windows = Vec::new();
    let cycles = reqs.len().div_ceil(ACCESSES_PER_CRASH);
    for (c, chunk) in reqs.chunks(ACCESSES_PER_CRASH).enumerate() {
        setups.at(c, cycles, args, kernel);
        let req0 = (c * (ACCESSES_PER_CRASH + 1)) as u64;
        windows.extend(d.cycle(chunk, &mut off, req0, Some(&mut *kernel)));
        if let Some((t, log)) = &mut traced {
            t.cycle(chunk, log, req0, None);
        }
        if !d.fatal.is_empty() {
            break;
        }
    }
    windows
}

/// Mean of the first or last tenth of `v` (at least one sample); `None`
/// when `v` is empty.
fn decile_mean(v: &[f64], last: bool) -> Option<f64> {
    let k = (v.len() / 10).max(1).min(v.len());
    let part = if last { &v[v.len() - k..] } else { &v[..k] };
    stats::mean(part)
}

fn ring_delta(a: RingStats, b: RingStats) -> (u64, u64) {
    (
        a.evictions - b.evictions,
        a.early_reshuffles - b.early_reshuffles,
    )
}

/// Runs the workload.
pub fn run(args: &RunArgs, kernel: &mut RefKernel) -> Ledger {
    let mut ledger = Ledger::default();
    let crashes = (CRASHES_PER_SECOND * args.seconds).max(MIN_CRASHES) as usize;
    let mut setups = SetupSampler::new(SETUP_REPS);
    let mut d = setup(args.seed);
    let reqs = generate(args.seed, crashes * ACCESSES_PER_CRASH, d.capacity());

    let clock0 = d.oram.clock();
    let nvm0 = d.oram.nvm_stats();
    let stats0 = d.oram.stats();
    let (wd0, wp0) = d.oram.wpq_stats();
    let mut traced = args
        .trace
        .then(|| (Driver::build(args.seed, true), SpanLog::new(true)));
    let windows = drive(
        &mut d,
        traced.as_mut().map(|(t, log)| (t, log)),
        &reqs,
        kernel,
        &mut setups,
        args,
    );
    setups.finish(args, kernel, &windows, &mut ledger);
    let n = d.tally.attempted.max(1);
    let nvm = d.oram.nvm_stats().since(&nvm0);

    ledger.attempted = d.tally.attempted;
    ledger.failed = d.tally.failed();
    ledger.throughput(&windows);
    let lat = stats::sorted(d.lat_s.clone());
    ledger.host_pct("host_req_us_p50", &lat, 50.0, 1e6, "us");
    ledger.host_pct("host_req_us_p99", &lat, 99.0, 1e6, "us");
    let rec = stats::sorted(d.recover_ms.clone());
    ledger.host_pct("host_recover_ms_p50", &rec, 50.0, 1.0, "ms");
    ledger.host_pct("host_recover_ms_p90", &rec, 90.0, 1.0, "ms");
    ledger.count_as("fail_frac", d.tally.fail_frac(), "ratio");
    ledger.sim(
        "sim_cycles_per_req",
        (d.oram.clock() - clock0) as f64 / n as f64,
        "cycles",
    );
    ledger.sim(
        "sim_nvm_write_bytes_per_req",
        nvm.write_bytes as f64 / n as f64,
        "B",
    );
    ledger.note(format!(
        "ring-crash: {} recoveries, {} rolled-back writes declared (counted in fail_frac, \
         not in the result's `failed`), {} repairs",
        d.recover_ms.len(),
        d.tally.rolled_back,
        d.repairs
    ));

    let ran_all = d.recover_ms.len() == crashes;
    ledger.check(
        "oracle_and_recovery",
        d.fatal.is_empty() && ran_all,
        if d.fatal.is_empty() {
            format!(
                "{} crash cycles, every read admitted by the shadow oracle",
                d.recover_ms.len()
            )
        } else {
            d.fatal.join("; ")
        },
    );
    let fin = if d.fatal.is_empty() {
        d.finish()
    } else {
        Err("skipped after a fatal finding".into())
    };
    ledger.check(
        "verify_contents_and_shadow",
        fin.is_ok(),
        fin.err()
            .unwrap_or_else(|| "final read-back matches ledger and shadow".into()),
    );

    if args.trace {
        let (evictions, reshuffles) = ring_delta(d.oram.stats(), stats0);
        ledger.count("core.ring.evictions", evictions);
        ledger.count("core.ring.early_reshuffles", reshuffles);
        ledger.host_pct("core.ring.access_us_p50", &lat, 50.0, 1e6, "us");
        ledger.count("recover.repairs", d.repairs);
        ledger.count("recover.rollbacks", d.tally.rolled_back);
        ledger.count("recover.incidents", d.incidents);
        match (
            decile_mean(&d.recover_ms, false),
            decile_mean(&d.recover_ms, true),
        ) {
            (Some(first), Some(last)) => {
                let n = (d.recover_ms.len() / 10).max(1);
                ledger.host_n("recover.ms_first_decile", first, "ms", n);
                ledger.host_n("recover.ms_last_decile", last, "ms", n);
                ledger.host("recover.growth_ratio", last / first, "x");
            }
            _ => ledger.note("recover.*_decile: not reported, no recovery completed"),
        }
        let (wd, wp) = d.oram.wpq_stats();
        report_wpq(&mut ledger, "data", wpq_delta(wd, wd0));
        report_wpq(&mut ledger, "posmap", wpq_delta(wp, wp0));
        report_faults(&mut ledger, d.oram.device_fault_stats().unwrap_or_default());
        ledger.count_as(
            "nvm.reads_per_req",
            nvm.reads as f64 / n as f64,
            "count/req",
        );
        ledger.count_as(
            "nvm.writes_per_req",
            nvm.writes as f64 / n as f64,
            "count/req",
        );
        let fresh = d.oram.freshness_stats();
        ledger.count("auth.stale_serves_detected", fresh.stale_serves_detected);
        ledger.count("auth.fetch_poisons", fresh.fetch_poisons);
        let untraced_wall = d.wall_s;
        drop(d);
        let (t, log) = traced.expect("traced twin exists when tracing");
        traced_ledger(args, &mut ledger, &reqs, untraced_wall, t, &log);
        ledger.fill_unobserved(&[
            Group::RingCore,
            Group::Auth,
            Group::Recover,
            Group::Nvm,
            Group::NvmFault,
        ]);
    }
    ledger
}

/// The traced twin's outcome, then armed and unarmed twins interleaved
/// by crash cycle for the auth split and clean recovery time.
fn traced_ledger(
    args: &RunArgs,
    ledger: &mut Ledger,
    reqs: &[Req],
    untraced_wall_s: f64,
    d: Driver,
    log: &SpanLog,
) {
    ledger.check(
        "traced_oracle_and_recovery",
        d.fatal.is_empty(),
        d.fatal.join("; "),
    );
    ledger.host(
        "bench.trace_overhead_ratio",
        d.wall_s / untraced_wall_s,
        "x",
    );
    let wall = d.wall_s;
    drop(d);

    let mut armed = Driver::build(args.seed, true);
    let mut clean = Driver::build(args.seed, false);
    let cycles = reqs.chunks(ACCESSES_PER_CRASH).take(TWIN_CRASHES);
    for (c, chunk) in cycles.enumerate() {
        let req0 = (c * (ACCESSES_PER_CRASH + 1)) as u64;
        armed.cycle(chunk, &mut SpanLog::new(false), req0, None);
        clean.cycle(chunk, &mut SpanLog::new(false), req0, None);
    }
    let twin_fatal: Vec<String> = armed.fatal.iter().chain(&clean.fatal).cloned().collect();
    ledger.check(
        "twin_oracle_and_recovery",
        twin_fatal.is_empty(),
        twin_fatal.join("; "),
    );
    let per_req = |d: &Driver| d.access_wall_s / d.tally.attempted.max(1) as f64 * 1e6;
    let (armed_us, clean_us) = (per_req(&armed), per_req(&clean));
    let twin_n = armed.tally.attempted as usize;
    ledger.host_n("auth.self_us_per_req", armed_us - clean_us, "us", twin_n);
    ledger.host_n("auth.tax_ratio", armed_us / clean_us, "x", twin_n);
    let clean_rec = stats::sorted(clean.recover_ms.clone());
    if let Some(p50) = stats::percentile(&clean_rec, 50.0) {
        ledger.host_n("recover.clean_ms_p50", p50, "ms", clean_rec.len());
    }

    let st = spans::self_times(log.spans());
    let auth_share = ((armed_us - clean_us) / armed_us).clamp(0.0, 1.0);
    ledger.attribute(&st, (wall * 1e9) as u64, &[("core", "auth", auth_share)]);
    crate::write_spans(args, log, ledger);
}

#[cfg(test)]
mod tests {
    use super::decile_mean;

    #[test]
    fn decile_mean_of_no_recoveries_is_none() {
        assert_eq!(decile_mean(&[], false), None);
        assert_eq!(decile_mean(&[], true), None);
        assert_eq!(decile_mean(&[4.0], true), Some(4.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(decile_mean(&v, false), Some(1.5));
        assert_eq!(decile_mean(&v, true), Some(19.5));
    }
}
