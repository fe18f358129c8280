//! The result of one run: every metric labelled by clock, the output
//! checks, and the printing of both the human ledger and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::{json, Value};

use psoram_core::OramStats;
use psoram_nvm::{FaultStats, WpqStats};

use crate::spans::SelfTimes;
use crate::stats::{median, median_normalized_rate, median_rate, window_rates, Window};

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock of the simulator on this host: noisy.
    Host,
    /// The modelled machine: deterministic for a seed.
    Sim,
    /// A count made by the program: deterministic for a seed.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
    /// Clock the value was read from.
    pub clock: Clock,
    /// Samples behind a percentile or median, where one applies.
    pub samples: Option<usize>,
    /// `false` when the workload does not run (or cannot observe from
    /// outside) the layer, and the value is the neutral one.
    pub observed: bool,
}

/// Layer groups of the per-layer metrics a workload may leave unobserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `psoram-cache` MPKI against Table 4.
    Cache,
    /// Path controller counters.
    PathCore,
    /// Ring controller counters.
    RingCore,
    /// The `auth` freshness module.
    Auth,
    /// `recover()` outcomes.
    Recover,
    /// NVM timing model and WPQs.
    Nvm,
    /// NVM fault-plan ground truth.
    NvmFault,
    /// The service scheduler.
    Service,
    /// The observability recorder.
    Obsv,
}

/// Per-layer metrics that only some workloads observe, with the neutral
/// value reported where a workload does not: 0 for counts, 1 for ratios.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, Clock, f64, Group)] = &[
    ("cache.llc_mpki.sjeng", "mpki", Clock::Sim, 0.0, Group::Cache),
    ("cache.llc_mpki.gcc", "mpki", Clock::Sim, 0.0, Group::Cache),
    ("cache.mpki_err_pct.sjeng", "%", Clock::Sim, 0.0, Group::Cache),
    ("cache.mpki_err_pct.gcc", "%", Clock::Sim, 0.0, Group::Cache),
    ("core.stash_max", "count", Clock::Count, 0.0, Group::PathCore),
    ("core.stash_hits", "count", Clock::Count, 0.0, Group::PathCore),
    ("core.eviction_leftovers", "count", Clock::Count, 0.0, Group::PathCore),
    ("core.backups_created", "count", Clock::Count, 0.0, Group::PathCore),
    ("core.dirty_entries_flushed", "count", Clock::Count, 0.0, Group::PathCore),
    ("core.wpq_stalls", "count", Clock::Count, 0.0, Group::PathCore),
    ("core.ring.evictions", "count", Clock::Count, 0.0, Group::RingCore),
    ("core.ring.early_reshuffles", "count", Clock::Count, 0.0, Group::RingCore),
    ("auth.tax_ratio", "x", Clock::Host, 1.0, Group::Auth),
    ("auth.stale_serves_detected", "count", Clock::Count, 0.0, Group::Auth),
    ("auth.fetch_poisons", "count", Clock::Count, 0.0, Group::Auth),
    ("recover.growth_ratio", "x", Clock::Host, 1.0, Group::Recover),
    ("recover.repairs", "count", Clock::Count, 0.0, Group::Recover),
    ("recover.rollbacks", "count", Clock::Count, 0.0, Group::Recover),
    ("recover.incidents", "count", Clock::Count, 0.0, Group::Recover),
    ("nvm.reads_per_req", "count/req", Clock::Count, 0.0, Group::Nvm),
    ("nvm.writes_per_req", "count/req", Clock::Count, 0.0, Group::Nvm),
    ("nvm.wpq.data.entries_pushed", "count", Clock::Count, 0.0, Group::Nvm),
    ("nvm.wpq.data.batches_committed", "count", Clock::Count, 0.0, Group::Nvm),
    ("nvm.wpq.data.max_occupancy", "count", Clock::Count, 0.0, Group::Nvm),
    ("nvm.wpq.data.full_rejections", "count", Clock::Count, 0.0, Group::Nvm),
    ("nvm.wpq.posmap.entries_pushed", "count", Clock::Count, 0.0, Group::Nvm),
    ("nvm.wpq.posmap.batches_committed", "count", Clock::Count, 0.0, Group::Nvm),
    ("nvm.wpq.posmap.max_occupancy", "count", Clock::Count, 0.0, Group::Nvm),
    ("nvm.wpq.posmap.full_rejections", "count", Clock::Count, 0.0, Group::Nvm),
    ("nvm.fault.torn_flushes", "count", Clock::Count, 0.0, Group::NvmFault),
    ("nvm.fault.signal_losses", "count", Clock::Count, 0.0, Group::NvmFault),
    ("nvm.fault.duplicated_signals", "count", Clock::Count, 0.0, Group::NvmFault),
    ("nvm.fault.bit_flips", "count", Clock::Count, 0.0, Group::NvmFault),
    ("nvm.fault.fates_drawn", "count", Clock::Count, 0.0, Group::NvmFault),
    ("service.par_speedup", "x", Clock::Host, 1.0, Group::Service),
    ("service.queue_wait_us_mean", "sim_us", Clock::Sim, 0.0, Group::Service),
    ("service.lane_busy_share", "ratio", Clock::Sim, 0.0, Group::Service),
    ("service.batches", "count", Clock::Count, 0.0, Group::Service),
    ("obsv.recorder_overhead_ratio", "x", Clock::Host, 1.0, Group::Obsv),
];

/// Layers a span name can be charged to (the span name's prefix before
/// the first `.`), in ledger order.
pub const LAYERS: &[&str] = &[
    "trace", "cache", "system", "core", "auth", "crypto", "recover", "service", "bench",
];

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Ledger {
    metrics: BTreeMap<String, Metric>,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
    /// Requests issued into the workload's top layer.
    pub attempted: u64,
    /// Requests that failed when issued.
    pub failed: u64,
}

impl Ledger {
    fn put(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        clock: Clock,
        samples: Option<usize>,
    ) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let m = Metric {
            value,
            unit,
            clock,
            samples,
            observed: true,
        };
        assert!(
            self.metrics.insert(name.to_string(), m).is_none(),
            "metric {name} reported twice"
        );
    }

    /// A host wall-clock value.
    pub fn host(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit, Clock::Host, None);
    }

    /// A host wall-clock percentile or median over `samples` samples.
    pub fn host_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.put(name, value, unit, Clock::Host, Some(samples));
    }

    /// A host percentile, or a note when the sample lacks ten samples
    /// beyond the requested rank.
    pub fn host_pct(
        &mut self,
        name: &str,
        sorted: &[f64],
        pct: f64,
        scale: f64,
        unit: &'static str,
    ) {
        match crate::stats::percentile(sorted, pct) {
            Some(v) => self.host_n(name, v * scale, unit, sorted.len()),
            None => self.note(format!(
                "{name}: not reported, {} samples leave fewer than ten beyond p{pct}",
                sorted.len()
            )),
        }
    }

    /// `host_req_per_s`, the median of per-window rates, and
    /// `host_req_per_mref`, the median of per-window rates divided by the
    /// reference loop's speed around each window, with a note on drift
    /// between the run's halves.
    pub fn throughput(&mut self, windows: &[Window]) {
        let (Some(raw), Some(normalized)) = (median_rate(windows), median_normalized_rate(windows))
        else {
            self.check("throughput_windows", false, "no timed window");
            return;
        };
        let rates = window_rates(windows);
        self.host_n("host_req_per_s", raw, "1/s", rates.len());
        self.host_n("host_req_per_mref", normalized, "req/Mref", rates.len());
        let refs: Vec<f64> = windows.iter().map(|w| w.ref_mops).collect();
        let half = rates.len() / 2;
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        self.note(format!(
            "host_req_per_s windows: median {raw:.0}, first half {:.0}, second half {:.0}; \
             reference loop median {:.1} Mop/s, first half {:.1}, second half {:.1}",
            med(&rates[..half]),
            med(&rates[half..]),
            med(&refs),
            med(&refs[..half]),
            med(&refs[half..]),
        ));
    }

    /// A simulated (modelled-machine) value.
    pub fn sim(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit, Clock::Sim, None);
    }

    /// A simulated percentile over `samples` samples.
    pub fn sim_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.put(name, value, unit, Clock::Sim, Some(samples));
    }

    /// A count made by the program.
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count", Clock::Count, None);
    }

    /// A deterministic count-derived value with its own unit.
    pub fn count_as(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit, Clock::Count, None);
    }

    /// Records an output check. A failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Adds a line of explanation to the printed ledger.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// A recorded metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Reports the [`PER_LAYER`] metrics of groups this workload does not
    /// observe with their neutral value.
    ///
    /// # Panics
    ///
    /// Panics if a metric of an `observed` group was not reported although
    /// every output check passed: the workload forgot it, and a neutral
    /// value would hide that. A run that failed a check may have stopped
    /// before measuring it; its result still carries every metric.
    pub fn fill_unobserved(&mut self, observed: &[Group]) {
        for &(name, unit, clock, neutral, group) in PER_LAYER {
            if self.metrics.contains_key(name) {
                continue;
            }
            assert!(
                !observed.contains(&group) || self.checks.iter().any(|(_, ok, _)| !ok),
                "workload observes {group:?} but did not report {name}"
            );
            self.metrics.insert(
                name.to_string(),
                Metric {
                    value: neutral,
                    unit,
                    clock,
                    samples: None,
                    observed: false,
                },
            );
        }
    }

    /// Charges span self time to layers over `wall_ns` of traced time.
    ///
    /// `splits` moves a share of one layer's self time to another; the
    /// shares come from twin runs of the same sequence with a mechanism
    /// switched off (for example `("core", "auth", 0.8)` when the armed
    /// controller is 5x the unarmed one). Reports `<layer>.self_pct` for
    /// every layer, `<layer>.self_ms` for layers that ran, the benchmark's
    /// own share as `bench.self_pct` and the rest as `unattributed_pct`.
    pub fn attribute(&mut self, st: &SelfTimes, wall_ns: u64, splits: &[(&str, &str, f64)]) {
        let mut by_layer: BTreeMap<&str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (name, &ns) in &st.by_name {
            let layer = name.split('.').next().unwrap_or(name);
            let slot = by_layer
                .get_mut(layer)
                .unwrap_or_else(|| panic!("span {name} names no known layer"));
            *slot += ns as f64;
        }
        for &(from, to, share) in splits {
            let moved = by_layer[from] * share;
            *by_layer.get_mut(from).expect("known layer") -= moved;
            *by_layer.get_mut(to).expect("known layer") += moved;
        }
        let wall = wall_ns.max(1) as f64;
        for &layer in LAYERS {
            let ns = by_layer[layer];
            self.host(&format!("{layer}.self_pct"), 100.0 * ns / wall, "%");
            if ns != 0.0 {
                let name = if layer == "system" {
                    "system.glue_ms".to_string()
                } else {
                    format!("{layer}.self_ms")
                };
                self.host(&name, ns / 1e6, "ms");
            }
        }
        let unattributed = wall_ns.saturating_sub(st.covered_ns) as f64;
        self.host("unattributed_pct", 100.0 * unattributed / wall, "%");
        self.host("bench.traced_wall_ms", wall / 1e6, "ms");
        let calls: Vec<String> = st.calls.iter().map(|(n, c)| format!("{n} {c}")).collect();
        self.note(format!("span calls: {}", calls.join(", ")));
    }

    /// Prints the human-readable ledger.
    pub fn print_human(&self, header: &str) {
        println!("== {header}");
        for (name, ok, detail) in &self.checks {
            println!(
                "check {:<34} {}  {detail}",
                name,
                if *ok { "ok  " } else { "FAIL" }
            );
        }
        for (name, m) in &self.metrics {
            let mut line = format!(
                "  {name:<36} {:>16.6} {:<10} [{}",
                m.value,
                m.unit,
                m.clock.label()
            );
            if let Some(n) = m.samples {
                let _ = write!(line, ", n={n}");
            }
            if !m.observed {
                line.push_str(", layer not observed on this workload");
            }
            line.push(']');
            println!("{line}");
        }
        for note in &self.notes {
            println!("note: {note}");
        }
    }

    /// The full result as one JSON object (every metric, both tiers).
    pub fn to_json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|(name, ok, detail)| json!({"name": name, "ok": ok, "detail": detail}))
            .collect();
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|(name, m)| {
                    let metric = json!({
                        "value": m.value,
                        "unit": m.unit,
                        "clock": m.clock.label(),
                        "samples": m.samples,
                        "observed": m.observed,
                    });
                    (name.clone(), metric)
                })
                .collect(),
        );
        let result = json!({
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": checks,
            "notes": self.notes,
            "metrics": metrics,
        });
        serde_json::to_string(&result).expect("a JSON value serializes")
    }
}

/// Counter deltas of a WPQ between two snapshots (high-water mark kept).
pub fn wpq_delta(after: WpqStats, before: WpqStats) -> WpqStats {
    WpqStats {
        entries_pushed: after.entries_pushed - before.entries_pushed,
        batches_committed: after.batches_committed - before.batches_committed,
        entries_drained: after.entries_drained - before.entries_drained,
        max_occupancy: after.max_occupancy,
        full_rejections: after.full_rejections - before.full_rejections,
        protocol_errors: after.protocol_errors - before.protocol_errors,
    }
}

/// Reports the WPQ counters of one queue under `nvm.wpq.<which>.*`.
pub fn report_wpq(ledger: &mut Ledger, which: &str, s: WpqStats) {
    ledger.count(&format!("nvm.wpq.{which}.entries_pushed"), s.entries_pushed);
    ledger.count(
        &format!("nvm.wpq.{which}.batches_committed"),
        s.batches_committed,
    );
    ledger.count(
        &format!("nvm.wpq.{which}.max_occupancy"),
        s.max_occupancy as u64,
    );
    ledger.count(
        &format!("nvm.wpq.{which}.full_rejections"),
        s.full_rejections,
    );
}

/// Reports the fault plan's ground-truth counters under `nvm.fault.*`.
pub fn report_faults(ledger: &mut Ledger, f: FaultStats) {
    ledger.count("nvm.fault.torn_flushes", f.torn_flushes);
    ledger.count("nvm.fault.signal_losses", f.signal_losses);
    ledger.count("nvm.fault.duplicated_signals", f.duplicated_signals);
    ledger.count("nvm.fault.bit_flips", f.bit_flips);
    ledger.count("nvm.fault.fates_drawn", f.fates_drawn);
}

/// Reports the Path controller counters over a measured window.
pub fn report_path_core(ledger: &mut Ledger, s: OramStats, stash_max: usize) {
    ledger.count("core.stash_max", stash_max as u64);
    ledger.count("core.stash_hits", s.stash_hits);
    ledger.count("core.eviction_leftovers", s.eviction_leftovers);
    ledger.count("core.backups_created", s.backups_created);
    ledger.count("core.dirty_entries_flushed", s.dirty_entries_flushed);
    ledger.count("core.wpq_stalls", s.wpq_stalls);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unobserved_groups_get_neutral_values_and_observed_ones_must_report() {
        let mut l = Ledger::default();
        l.fill_unobserved(&[]);
        assert_eq!(l.value("auth.tax_ratio"), Some(1.0));
        assert_eq!(l.value("core.stash_hits"), Some(0.0));
        let missing = std::panic::catch_unwind(|| {
            let mut l = Ledger::default();
            l.fill_unobserved(&[Group::Service]);
        });
        assert!(
            missing.is_err(),
            "an observed group must report its metrics"
        );
        // A failed run still gets a complete result.
        let mut l = Ledger::default();
        l.check("oracle", false, "silent mismatch");
        l.fill_unobserved(&[Group::Recover]);
        assert_eq!(l.value("recover.growth_ratio"), Some(1.0));
    }
}
