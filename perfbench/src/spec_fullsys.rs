//! `spec-fullsys`: the full trace-driven stack (`psoram-trace` ->
//! `psoram-cache` -> Path ORAM -> `psoram-nvm`) at the experiment
//! configuration, on two Table-4 traces under PS-ORAM and Baseline.
//!
//! 458.sjeng (MPKI ~111) spends its host time in the ORAM; 403.gcc
//! (MPKI ~1.2) mostly in trace generation and the caches, so the pair
//! varies the working set against the modelled LLC.

use std::time::Instant;

use psoram_cache::{Hierarchy, MemOp};
use psoram_core::{BlockAddr, Op, OramStats, PathOram, ProtocolVariant};
use psoram_nvm::{NvmStats, WpqStats};
use psoram_system::{SimResult, System, SystemConfig};
use psoram_trace::{SpecWorkload, TraceGenerator, TraceRecord};

use crate::host::{RefKernel, SetupSampler};
use crate::ledger::{report_path_core, report_wpq, Group, Ledger};
use crate::spans::{self, SpanLog};
use crate::stats;
use crate::{RunArgs, SETUP_REPS};

const TRACES: [SpecWorkload; 2] = [SpecWorkload::Sjeng, SpecWorkload::Gcc];
const VARIANTS: [ProtocolVariant; 2] = [ProtocolVariant::PsOram, ProtocolVariant::Baseline];
/// Warmup records per (trace, variant), the figure harness's default.
const WARMUP: usize = 8_000;
/// The simulated metrics are taken over the first this-many windows:
/// enough records that they vary by about 1% between seeds.
const SIM_WINDOWS: usize = 80;
/// Windows per second of `--seconds` (fixed work, sized to the parent
/// commit on a 2-core host).
const WINDOWS_PER_SECOND: u64 = 28;
/// Measured records per pair that the traced replay records spans for.
const TRACED_RECORDS: usize = 40_000;

/// The seed `System::run_workload_with_warmup` derives its trace
/// generator from; the benchmark steps `System` record by record with the
/// same generator so its numbers are the figure harness's numbers.
const TRACE_SEED_MIX: u64 = 0x17ACE;

fn short(w: SpecWorkload) -> &'static str {
    match w {
        SpecWorkload::Sjeng => "sjeng",
        SpecWorkload::Gcc => "gcc",
        _ => unreachable!("only the two benchmark traces"),
    }
}

/// Records per (trace, variant) in one host-time window. 403.gcc misses
/// the LLC about a hundred times less often than 458.sjeng, so it steps
/// ten times the records for its simulated numbers to rest on more than a
/// thousand misses: 80,000 sjeng and 800,000 gcc records per variant.
fn chunk(w: SpecWorkload) -> usize {
    match w {
        SpecWorkload::Gcc => 10_000,
        _ => 1_000,
    }
}

fn sim_records(w: SpecWorkload) -> usize {
    SIM_WINDOWS * chunk(w)
}

fn system_config(seed: u64, variant: ProtocolVariant) -> SystemConfig {
    let mut cfg = SystemConfig::experiment(variant, 1);
    cfg.seed = seed ^ 0x5EC0;
    cfg
}

fn generator(sys: &System, w: SpecWorkload) -> TraceGenerator {
    let mut spec = w.spec();
    sys.fit_spec(&mut spec);
    TraceGenerator::new(&spec, sys.config().seed ^ TRACE_SEED_MIX)
}

pub struct Pair {
    w: SpecWorkload,
    v: ProtocolVariant,
    sys: System,
    gen: TraceGenerator,
    wpq_at_mark: (WpqStats, WpqStats),
}

fn build_pair(seed: u64, w: SpecWorkload, v: ProtocolVariant) -> Pair {
    let mut sys = System::new(system_config(seed, v));
    let mut gen = generator(&sys, w);
    for rec in gen.by_ref().take(WARMUP) {
        sys.step(&rec);
    }
    sys.mark_measurement_start();
    let wpq_at_mark = sys.oram().expect("ORAM backend").wpq_stats();
    Pair {
        w,
        v,
        sys,
        gen,
        wpq_at_mark,
    }
}

/// What outlives a measured pair's `System`: the replay check and the
/// traced ledger read these after the systems are dropped, so the peak
/// RSS is the program's four systems and not a fifth replayed one.
struct Measured {
    w: SpecWorkload,
    v: ProtocolVariant,
    /// A generator in the state `System`'s own started from.
    fresh_gen: TraceGenerator,
    stash_max: usize,
    wpq_at_mark: (WpqStats, WpqStats),
}

/// The measured systems' set-up: every (trace, variant) pair built and
/// warmed up.
pub fn setup(seed: u64) -> Vec<Pair> {
    TRACES
        .iter()
        .flat_map(|&w| VARIANTS.iter().map(move |&v| (w, v)))
        .map(|(w, v)| build_pair(seed, w, v))
        .collect()
}

/// The replayed `System` state: what `System::step` keeps besides the
/// hierarchy and the controller.
#[derive(Default, Clone, Copy)]
struct ReplayCounters {
    clock: u64,
    instructions: u64,
    accesses: u64,
}

/// Replays `System::step` through the layers' public calls over the
/// simulated window, with spans around `TraceGenerator::next`,
/// `Hierarchy::access` and `PathOram::access_at` for the first
/// [`TRACED_RECORDS`] measured records; the step's own glue is
/// `system.step`'s self time. Returns the window's result and the wall
/// time of the traced records.
fn replay(
    seed: u64,
    p: &Measured,
    log: &mut SpanLog,
    req0: u64,
) -> Result<(SimResult, f64), String> {
    let (w, v) = (p.w, p.v);
    let cfg = system_config(seed, v);
    let mut gen = p.fresh_gen.clone();
    let mut hierarchy = Hierarchy::new(cfg.hierarchy);
    let mut oram = PathOram::with_nvm(cfg.oram.clone(), cfg.variant, cfg.nvm.clone(), cfg.seed);
    oram.set_payload_encryption(cfg.encrypt_payloads);
    oram.set_top_cache_levels(cfg.top_cache_levels);
    let mut c = ReplayCounters::default();
    let mut off = SpanLog::new(false);
    for i in 0..WARMUP {
        let rec = gen.next().ok_or("trace ended")?;
        step(
            &cfg,
            &mut hierarchy,
            &mut oram,
            &mut c,
            &rec,
            &mut off,
            i as u64,
        )?;
    }
    let (c0, llc0, nvm0, oram0): (ReplayCounters, u64, NvmStats, OramStats) = (
        c,
        hierarchy.stats().llc_misses,
        oram.nvm_stats(),
        oram.stats(),
    );
    let t = Instant::now();
    let mut traced_wall = 0.0;
    for i in 0..sim_records(w) {
        if i == TRACED_RECORDS {
            traced_wall = t.elapsed().as_secs_f64();
        }
        let log = if i < TRACED_RECORDS {
            &mut *log
        } else {
            &mut off
        };
        let req = req0 + i as u64;
        let rec = log
            .time("trace.next", req, || gen.next())
            .ok_or("trace ended")?;
        step(&cfg, &mut hierarchy, &mut oram, &mut c, &rec, log, req)?;
    }
    if sim_records(w) <= TRACED_RECORDS {
        traced_wall = t.elapsed().as_secs_f64();
    }
    let result = SimResult {
        workload: w.name().to_string(),
        variant: v.label().to_string(),
        instructions: c.instructions - c0.instructions,
        accesses: c.accesses - c0.accesses,
        llc_misses: hierarchy.stats().llc_misses - llc0,
        exec_cycles: c.clock - c0.clock,
        nvm: oram.nvm_stats().since(&nvm0),
        oram: oram.stats().since(&oram0),
    };
    Ok((result, traced_wall))
}

/// One `System::step`, rebuilt from public calls: the compute burst, the
/// cache hierarchy, then each memory-side operation as one ORAM access
/// (block = line address modulo capacity, writes carry `System`'s fill).
fn step(
    cfg: &SystemConfig,
    hierarchy: &mut Hierarchy,
    oram: &mut PathOram,
    c: &mut ReplayCounters,
    rec: &TraceRecord,
    log: &mut SpanLog,
    req: u64,
) -> Result<(), String> {
    let span = log.open("system.step", req);
    c.clock += rec.instrs_before;
    c.instructions += rec.instrs_before + 1;
    c.accesses += 1;
    let r = log.time("cache.access", req, || {
        hierarchy.access(rec.addr, rec.is_write)
    });
    c.clock += r.latency_cycles;
    for op in &r.memory_ops {
        let (kind, addr) = match *op {
            MemOp::Read(a) => (Op::Read, a),
            MemOp::Write(a) => (Op::Write, a),
        };
        let block = BlockAddr((addr / cfg.oram.block_bytes as u64) % cfg.oram.capacity_blocks());
        let data = matches!(kind, Op::Write).then(|| vec![0xA5u8; cfg.oram.payload_bytes]);
        let clock = c.clock;
        let out = log
            .time("core.path", req, || {
                oram.access_at(kind, block, data, clock)
            })
            .map_err(|e| format!("replayed access failed: {e}"))?;
        c.clock = out.complete_cycle;
    }
    log.close(span);
    Ok(())
}

fn same_result(a: &SimResult, b: &SimResult) -> bool {
    a.instructions == b.instructions
        && a.accesses == b.accesses
        && a.llc_misses == b.llc_misses
        && a.exec_cycles == b.exec_cycles
        && a.nvm == b.nvm
        && a.oram == b.oram
}

/// Runs the workload.
pub fn run(args: &RunArgs, kernel: &mut RefKernel) -> Ledger {
    let mut ledger = Ledger::default();
    let mut setups = SetupSampler::new(SETUP_REPS);
    let mut pairs = setup(args.seed);

    let n_windows = (WINDOWS_PER_SECOND * args.seconds).max(SIM_WINDOWS as u64) as usize;
    let per_window: usize = pairs.iter().map(|p| chunk(p.w)).sum();
    let mut windows = Vec::with_capacity(n_windows);
    let mut snapshots: Vec<SimResult> = Vec::new();
    let mut wpq_after: Vec<(WpqStats, WpqStats)> = Vec::new();
    for win in 0..n_windows {
        setups.at(win, n_windows, args, kernel);
        let t = Instant::now();
        for p in &mut pairs {
            for rec in p.gen.by_ref().take(chunk(p.w)) {
                p.sys.step(&rec);
            }
        }
        windows.push(kernel.window(per_window as u64, t.elapsed().as_secs_f64()));
        if win + 1 == SIM_WINDOWS {
            snapshots = pairs.iter().map(|p| p.sys.result(p.w.name())).collect();
            wpq_after = pairs
                .iter()
                .map(|p| p.sys.oram().expect("ORAM backend").wpq_stats())
                .collect();
        }
    }
    setups.finish(args, kernel, &windows, &mut ledger);
    ledger.attempted = (n_windows * per_window) as u64;
    ledger.failed = 0;
    ledger.throughput(&windows);
    ledger.count_as("fail_frac", 0.0, "ratio");

    // Simulated metrics over the fixed simulated window of every pair.
    let keys: Vec<(SpecWorkload, ProtocolVariant)> = pairs.iter().map(|p| (p.w, p.v)).collect();
    let find = |w, v: ProtocolVariant| {
        let i = keys.iter().position(|&k| k == (w, v)).expect("pair");
        (&snapshots[i], i)
    };
    let (mut ipc, mut norm, mut cpr, mut wbpr) = (vec![], vec![], vec![], vec![]);
    for w in TRACES {
        let (ps, _) = find(w, ProtocolVariant::PsOram);
        let (base, _) = find(w, ProtocolVariant::Baseline);
        let records = sim_records(w) as f64;
        ipc.push(ps.ipc());
        norm.push(ps.exec_cycles as f64 / base.exec_cycles as f64);
        cpr.push(ps.exec_cycles as f64 / records);
        wbpr.push(ps.nvm.write_bytes as f64 / records);
        ledger.sim(&format!("sim_ipc.{}", short(w)), ps.ipc(), "IPC");
        ledger.sim(
            &format!("sim_norm_exec_time.{}", short(w)),
            norm[norm.len() - 1],
            "x",
        );
        let mpki = ps.mpki();
        let err = 100.0 * (mpki - w.paper_mpki()).abs() / w.paper_mpki();
        if args.trace {
            ledger.sim(&format!("cache.llc_mpki.{}", short(w)), mpki, "mpki");
            ledger.sim(&format!("cache.mpki_err_pct.{}", short(w)), err, "%");
        }
        ledger.note(format!(
            "{}: LLC MPKI {mpki:.2} vs Table 4 {:.2} ({err:.1}% error) over {} records -- the only \
             reference check the repository holds; every sim_* number is otherwise unvalidated",
            w.name(),
            w.paper_mpki(),
            sim_records(w)
        ));
    }
    let geo = |v: &[f64]| stats::geomean(v).expect("positive");
    ledger.sim("sim_ipc", geo(&ipc), "IPC");
    ledger.sim("sim_norm_exec_time", geo(&norm), "x");
    ledger.sim("sim_cycles_per_req", geo(&cpr), "cycles");
    ledger.sim("sim_nvm_write_bytes_per_req", geo(&wbpr), "B");
    ledger.note(
        "spec-fullsys sim_* values are PS-ORAM geomeans over 458.sjeng and 403.gcc; \
         sim_norm_exec_time is PS-ORAM/Baseline exec cycles",
    );

    let measured: Vec<Measured> = pairs
        .iter()
        .map(|p| Measured {
            w: p.w,
            v: p.v,
            fresh_gen: generator(&p.sys, p.w),
            stash_max: p.sys.oram().expect("ORAM backend").stash_max_occupancy(),
            wpq_at_mark: p.wpq_at_mark,
        })
        .collect();
    drop(pairs);

    // The replay check runs in every run; spans are recorded only when
    // tracing.
    // A traced run replays each pair a second time with spans, next to the
    // untraced replay, so the two walls compare like for like. The second
    // replay of a pair reuses the first one's freed memory, so the order
    // alternates between pairs.
    let mut off = SpanLog::new(false);
    let mut log = SpanLog::new(true);
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    let mut mismatches = Vec::new();
    for (i, p) in measured.iter().enumerate() {
        let req0 = (i * sim_records(p.w)) as u64;
        let order = match (args.trace, i % 2) {
            (false, _) => &[false][..],
            (true, 0) => &[false, true][..],
            (true, _) => &[true, false][..],
        };
        for &traced in order {
            let l = if traced { &mut log } else { &mut off };
            match replay(args.seed, p, l, req0) {
                Ok((r, wall)) => {
                    if traced {
                        traced_wall += wall;
                    } else {
                        untraced_wall += wall;
                    }
                    if !same_result(&r, &snapshots[i]) {
                        mismatches.push(format!("{}/{}", p.w.name(), p.v.label()));
                    }
                }
                Err(e) => mismatches.push(format!("{}/{}: {e}", p.w.name(), p.v.label())),
            }
        }
    }
    ledger.check(
        "replay_equals_system",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!(
                "{} (trace, variant) pairs replayed bit-for-bit over their simulated window",
                measured.len()
            )
        } else {
            format!("replay diverged from System on {}", mismatches.join(", "))
        },
    );

    if args.trace {
        let mut core = OramStats::default();
        let (mut nvm, mut stash_max, mut ps_records) = (NvmStats::default(), 0usize, 0usize);
        let (mut data, mut posmap) = (WpqStats::default(), WpqStats::default());
        for w in TRACES {
            let (ps, i) = find(w, ProtocolVariant::PsOram);
            core = add_stats(core, ps.oram);
            nvm = NvmStats {
                reads: nvm.reads + ps.nvm.reads,
                writes: nvm.writes + ps.nvm.writes,
                read_bytes: nvm.read_bytes + ps.nvm.read_bytes,
                write_bytes: nvm.write_bytes + ps.nvm.write_bytes,
            };
            ps_records += sim_records(w);
            stash_max = stash_max.max(measured[i].stash_max);
            let (d0, p0) = measured[i].wpq_at_mark;
            let (d1, p1) = wpq_after[i];
            data = add_wpq(data, d1, d0);
            posmap = add_wpq(posmap, p1, p0);
        }
        report_path_core(&mut ledger, core, stash_max);
        report_wpq(&mut ledger, "data", data);
        report_wpq(&mut ledger, "posmap", posmap);
        ledger.count_as(
            "nvm.reads_per_req",
            nvm.reads as f64 / ps_records as f64,
            "count/req",
        );
        ledger.count_as(
            "nvm.writes_per_req",
            nvm.writes as f64 / ps_records as f64,
            "count/req",
        );
        let access_ns: Vec<f64> = log
            .spans()
            .iter()
            .filter(|s| s.name == "core.path")
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if let Some(m) = stats::mean(&access_ns) {
            ledger.host_n("core.path.plain_us_per_req", m / 1e3, "us", access_ns.len());
        }
        ledger.host(
            "bench.trace_overhead_ratio",
            traced_wall / untraced_wall,
            "x",
        );
        ledger.attribute(
            &spans::self_times(log.spans()),
            (traced_wall * 1e9) as u64,
            &[],
        );
        crate::write_spans(args, &log, &mut ledger);
        ledger.fill_unobserved(&[Group::Cache, Group::PathCore, Group::Nvm]);
    }
    ledger
}

fn add_stats(a: OramStats, b: OramStats) -> OramStats {
    OramStats {
        stash_hits: a.stash_hits + b.stash_hits,
        eviction_leftovers: a.eviction_leftovers + b.eviction_leftovers,
        backups_created: a.backups_created + b.backups_created,
        dirty_entries_flushed: a.dirty_entries_flushed + b.dirty_entries_flushed,
        wpq_stalls: a.wpq_stalls + b.wpq_stalls,
        ..a
    }
}

fn add_wpq(acc: WpqStats, after: WpqStats, before: WpqStats) -> WpqStats {
    WpqStats {
        entries_pushed: acc.entries_pushed + after.entries_pushed - before.entries_pushed,
        batches_committed: acc.batches_committed + after.batches_committed
            - before.batches_committed,
        entries_drained: acc.entries_drained + after.entries_drained - before.entries_drained,
        max_occupancy: acc.max_occupancy.max(after.max_occupancy),
        full_rejections: acc.full_rejections + after.full_rejections - before.full_rejections,
        protocol_errors: acc.protocol_errors + after.protocol_errors - before.protocol_errors,
    }
}
