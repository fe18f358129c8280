//! Host-side evidence: memory high-water mark, a fixed calibration loop
//! that uses no program code, and CPU steal from `/proc/stat`.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Millions of iterations per second of a fixed xorshift loop. It touches
/// no memory and no program code, so it moves only with the host's CPU
/// speed and contention: a drop here next to a drop in a workload's
/// throughput is host drift, not a regression.
pub fn calib_mops() -> f64 {
    const ITERS: u64 = 4_000_000;
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..ITERS {
        x = xorshift(x).wrapping_add(i);
    }
    black_box(x);
    ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// What the reference loop does, matched to what bounds the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefShape {
    /// Independent random read-modify-writes over a buffer of this many
    /// MiB: throughput-bound, like the controllers' scattered bucket and
    /// tag updates.
    Update(usize),
    /// A dependent walk along one random cycle through a buffer of this
    /// many MiB: latency-bound, like full-system lookups into trees far
    /// larger than any cache.
    Chase(usize),
}

/// The benchmark's fixed reference loop, over a buffer allocated and
/// touched when the process starts. It uses no program code, so one burst
/// around every timed window measures how fast this host is at that
/// moment; a workload's rate divided by it cancels host drift (CPU speed,
/// contention from other tenants) that slows both alike.
pub struct RefKernel {
    buf: Vec<u64>,
    shape: RefShape,
    nominal_mops: f64,
    x: u64,
    last_mops: f64,
}

impl RefKernel {
    const UPDATES: u64 = 50_000;
    const HOPS: u64 = 12_500;

    /// Allocates and touches the buffer (its size a power of two), then
    /// runs a first burst. `nominal_mops` is the loop's typical speed, to
    /// which `setup_s` is rescaled.
    pub fn new(shape: RefShape, nominal_mops: f64) -> Self {
        let (RefShape::Update(mib) | RefShape::Chase(mib)) = shape;
        assert!(mib.is_power_of_two(), "the loops mask indices");
        let words = (mib << 20) / 8;
        let mut buf: Vec<u64> = (0..words as u64).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        if let RefShape::Chase(_) = shape {
            // Sattolo's shuffle: `buf[i]` becomes the successor of `i` on
            // a single cycle through every word.
            for i in (1..words).rev() {
                x = xorshift(x);
                buf.swap(i, (x % i as u64) as usize);
            }
        }
        let mut k = RefKernel {
            buf,
            shape,
            nominal_mops,
            x,
            last_mops: 0.0,
        };
        k.last_mops = k.burst();
        k
    }

    /// Resident size of the buffer in MiB.
    pub fn resident_mib(&self) -> f64 {
        (self.buf.len() * 8) as f64 / (1 << 20) as f64
    }

    /// One burst; returns million steps (updates, hops) per second.
    fn burst(&mut self) -> f64 {
        let mask = self.buf.len().wrapping_sub(1);
        let t = Instant::now();
        let mut x = self.x;
        let ops = match self.shape {
            RefShape::Update(_) => {
                for _ in 0..Self::UPDATES {
                    x = xorshift(x);
                    let i = x as usize & mask;
                    self.buf[i] = self.buf[i].wrapping_add(x);
                }
                Self::UPDATES
            }
            RefShape::Chase(_) => {
                for _ in 0..Self::HOPS {
                    x = self.buf[x as usize & mask];
                }
                Self::HOPS
            }
        };
        self.x = black_box(x);
        ops as f64 / t.elapsed().as_secs_f64() / 1e6
    }

    /// Runs a burst, which the next window pairs with as its "before"
    /// burst, and returns its speed. Call it right before a window that
    /// does not follow the previous one directly (other work ran in
    /// between).
    pub fn probe(&mut self) -> f64 {
        self.last_mops = self.burst();
        self.last_mops
    }

    /// Closes a timed window: runs a burst and pairs the window with the
    /// mean reference speed of the bursts just before and just after it.
    pub fn window(&mut self, requests: u64, secs: f64) -> crate::stats::Window {
        let after = self.burst();
        let ref_mops = (self.last_mops + after) / 2.0;
        self.last_mops = after;
        crate::stats::Window {
            requests,
            secs,
            ref_mops,
        }
    }
}

/// Aggregate CPU jiffies `(steal, total)` from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already folded into user/nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Percentage of CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings (0 where the counters are unavailable).
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * (s1.saturating_sub(s0)) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Set-up time sampled in child processes of this binary
/// (`--setup-once`), spread evenly over the run. The host's speed moves
/// in phases of seconds, so set-ups spread over the whole run give a
/// steadier median than a burst of them at its start; and a child's
/// memory never counts in this process's peak RSS.
pub struct SetupSampler {
    reps: usize,
    /// Seconds of each set-up, with the reference speed around it.
    samples: Vec<(f64, f64)>,
    errors: Vec<String>,
}

impl SetupSampler {
    /// A sampler that takes `reps` set-ups over the run.
    pub fn new(reps: usize) -> Self {
        assert!(reps >= 1);
        SetupSampler {
            reps,
            samples: Vec::with_capacity(reps),
            errors: Vec::new(),
        }
    }

    fn taken(&self) -> usize {
        self.samples.len() + self.errors.len()
    }

    /// Takes the next set-up once step `i` of the run's `n` steps has
    /// reached that set-up's share of the run; the first one at step 0.
    pub fn at(&mut self, i: usize, n: usize, args: &crate::RunArgs, kernel: &mut RefKernel) {
        if self.taken() < self.reps && i * self.reps >= self.taken() * n {
            self.sample(args, kernel);
        }
    }

    fn sample(&mut self, args: &crate::RunArgs, kernel: &mut RefKernel) {
        let before = kernel.probe();
        let out = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", "0", "--setup-once"])
                .stderr(std::process::Stdio::inherit())
                .output()
        });
        let after = kernel.probe();
        let secs = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("unreadable set-up time: {e}")),
            Ok(o) => Err(format!("set-up child exited with {}", o.status)),
            Err(e) => Err(format!("cannot start set-up child: {e}")),
        };
        match secs {
            Ok(secs) => self.samples.push((secs, (before + after) / 2.0)),
            Err(e) => self.errors.push(e),
        }
    }

    /// Takes the set-ups a run that stopped early left, then reports
    /// `setup_s` and `setup_wall_s` and checks that every child succeeded.
    ///
    /// `setup_wall_s` is the median set-up time. `setup_s` is that median
    /// times the median reference speed over the run's timed `windows`,
    /// divided by the loop's nominal speed: set-up seconds on a host
    /// running at the nominal speed. Host phases that slow the whole run
    /// slow the set-ups and the loop alike, and cancel, as they do in
    /// `host_req_per_mref`; the program's own set-up work still moves it
    /// 1:1.
    pub fn finish(
        mut self,
        args: &crate::RunArgs,
        kernel: &mut RefKernel,
        windows: &[crate::stats::Window],
        ledger: &mut crate::Ledger,
    ) {
        while self.taken() < self.reps {
            self.sample(args, kernel);
        }
        let secs: Vec<f64> = self.samples.iter().map(|s| s.0).collect();
        ledger.check(
            "setup_children",
            self.errors.is_empty(),
            if self.errors.is_empty() {
                format!("{} set-ups in child processes", secs.len())
            } else {
                self.errors.join("; ")
            },
        );
        let refs: Vec<f64> = windows.iter().map(|w| w.ref_mops).collect();
        if let (Some(wall), Some(ref_mops)) =
            (crate::stats::median(&secs), crate::stats::median(&refs))
        {
            let scaled = wall * ref_mops / kernel.nominal_mops;
            ledger.host_n("setup_s", scaled, "s", secs.len());
            ledger.host_n("setup_wall_s", wall, "s", secs.len());
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(s, r)| format!("{s:.4}@{r:.1}"))
            .collect();
        ledger.note(format!(
            "set-ups (s @ reference-loop Mop/s around each; nominal {} Mop/s): {}",
            kernel.nominal_mops,
            samples.join(" ")
        ));
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
