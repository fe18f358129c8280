//! The repository benchmark: four workloads against the public API of the
//! PS-ORAM crates, every number labelled by clock (`host_*` is wall-clock
//! of the simulator, `sim_*` the modelled machine), with output checks in
//! every run and an outside-in per-layer ledger in traced runs.
//!
//! ```text
//! perfbench --workload <path-auth|spec-fullsys|ring-crash|service-open>
//!           --seed N --seconds S --trace <0|1> [--out-dir DIR] [--setup-once]
//! ```
//!
//! Prints the ledger, then the full result as one JSON line. `run.py`
//! builds this binary and narrows that line to the metrics
//! `BENCHMARK.json` declares. Exit code 0 when every output check
//! passed, 1 when one failed, 2 on a usage error. `--setup-once` only
//! times one set-up and prints its seconds; a run takes its `setup_s`
//! samples that way.

mod host;
mod kernels;
mod ledger;
mod path_auth;
mod ring_crash;
mod service_open;
mod spans;
mod spec_fullsys;
mod stats;

use std::path::PathBuf;

use ledger::Ledger;

/// Set-ups per run, each in a child process; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

const WORKLOADS: [&str; 4] = ["path-auth", "spec-fullsys", "ring-crash", "service-open"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Run length in seconds; each workload sizes fixed work from it.
    pub seconds: u64,
    /// Separate traced run with per-layer metrics.
    pub trace: bool,
    /// Where span logs go.
    pub out_dir: PathBuf,
    /// Only time one set-up of the workload and print its seconds (the
    /// parent's set-up samples run this way).
    pub setup_once: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> [--out-dir DIR] [--setup-once]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> RunArgs {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut setup_once = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .unwrap_or_else(|| usage("--seconds must be an integer in 1..=600")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()),
            "--setup-once" => setup_once = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    RunArgs {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        out_dir,
        setup_once,
    }
}

/// Times one set-up of the workload: construction, arming and
/// prefill/warmup, as the measured run does it before its first request.
fn setup_once(args: &RunArgs) -> f64 {
    let t = std::time::Instant::now();
    let built: Box<dyn std::any::Any> = match args.workload.as_str() {
        "path-auth" => Box::new(path_auth::setup(args.seed)),
        "spec-fullsys" => Box::new(spec_fullsys::setup(args.seed)),
        "ring-crash" => Box::new(ring_crash::setup(args.seed)),
        "service-open" => Box::new(service_open::setup(args.seed)),
        _ => unreachable!("validated in parse_args"),
    };
    let secs = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(built));
    secs
}

/// Writes a traced run's spans next to the result and notes where.
pub fn write_spans(args: &RunArgs, log: &spans::SpanLog, ledger: &mut Ledger) {
    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| log.write_csv(&path));
    ledger.check(
        "spans_written",
        written.is_ok(),
        match written {
            Ok(()) => format!("{} spans -> {}", log.spans().len(), path.display()),
            Err(e) => format!("cannot write {}: {e}", path.display()),
        },
    );
}

fn main() {
    let args = parse_args();
    if args.setup_once {
        println!("{}", setup_once(&args));
        return;
    }
    // The reference loop follows what bounds the workload: the L=18
    // full-system trees reach hundreds of MiB and are walked by dependent
    // lookups; the controllers, alone or as the service's shards, scatter
    // updates over tens of MiB. The nominal speeds are the loops' medians
    // over a hundred runs on a 2-vCPU KVM Xeon (Sapphire Rapids).
    let mut kernel = match args.workload.as_str() {
        "spec-fullsys" => host::RefKernel::new(host::RefShape::Chase(256), 4.5),
        _ => host::RefKernel::new(host::RefShape::Update(32), 70.0),
    };
    let calib_before: Vec<f64> = (0..3).map(|_| host::calib_mops()).collect();
    let jiffies = host::cpu_jiffies();
    let mut ledger = match args.workload.as_str() {
        "path-auth" => path_auth::run(&args, &mut kernel),
        "spec-fullsys" => spec_fullsys::run(&args, &mut kernel),
        "ring-crash" => ring_crash::run(&args, &mut kernel),
        "service-open" => service_open::run(&args, &mut kernel),
        _ => unreachable!("validated in parse_args"),
    };
    let steal = host::steal_pct(jiffies, host::cpu_jiffies());
    let calib_after: Vec<f64> = (0..3).map(|_| host::calib_mops()).collect();
    match host::peak_rss_mb() {
        // The reference loop's buffer is resident from the start, so the
        // high-water mark is the program's peak plus exactly the buffer.
        Some(mb) => ledger.host("host_peak_rss_mb", mb - kernel.resident_mib(), "MiB"),
        None => ledger.note("host_peak_rss_mb: /proc/self/status unavailable"),
    }
    let calib: Vec<f64> = calib_before.iter().chain(&calib_after).copied().collect();
    ledger.host_n(
        "host.calib_mops",
        stats::median(&calib).expect("six samples"),
        "Mop/s",
        calib.len(),
    );
    ledger.host("host.steal_pct", steal, "%");
    ledger.note(format!(
        "host noise: calibration loop {:.0} Mop/s before the run, {:.0} after; {steal:.2}% CPU stolen",
        stats::median(&calib_before).expect("three samples"),
        stats::median(&calib_after).expect("three samples"),
    ));
    if args.trace {
        kernels::report(&mut ledger);
    }
    ledger.print_human(&format!(
        "{} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    println!(
        "{}",
        ledger.to_json(&args.workload, args.seed, args.seconds, args.trace)
    );
    if !ledger.correct() {
        eprintln!("FAIL: an output check failed");
        std::process::exit(1);
    }
}
