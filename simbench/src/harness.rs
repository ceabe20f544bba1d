//! End-to-end measurement with tracing off, through the `Simulator`/`System`
//! API only.
//!
//! Each timed run builds and warms the system (set-up time), forks the warm
//! system by snapshot and restore (fork time) and runs the measured window
//! on the replica (throughput). A run's host speed depends on its process:
//! where its code and data land (ASLR, physical pages, heap offsets) can
//! change it by up to 2x, and a process keeps its placement. So every run
//! happens in a worker process of its own — this same executable with
//! `--worker` — one after another, and every metric is taken over the runs
//! of many processes. Each run starts in a fresh process, so none reuses
//! the heap pages of an earlier one. Every replica's statistics must equal
//! those of the naive per-cycle oracle, which also checks snapshot/restore
//! on every run.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::{Duration, Instant};

use cloudmc_cpu::CacheStats;
use cloudmc_memctrl::McStats;
use cloudmc_sim::{SimError, SimStats, Simulator, System, SystemConfig};

use crate::workloads::{Window, WorkloadDef};
use crate::Options;

/// Fewest measured runs per invocation, whatever the time budget.
pub const MIN_REPS: usize = 5;

/// Runs the naive per-cycle loop over the full window (untimed): the
/// reference every timed run must reproduce exactly.
///
/// # Errors
///
/// Returns the simulator's error if the configuration is invalid or the run
/// fails.
pub fn oracle(cfg: &SystemConfig) -> Result<SimStats, SimError> {
    let mut naive = cfg.clone();
    naive.fast_forward = false;
    Simulator::new(naive)?.try_run()
}

/// A digest of every field of `stats`, equal across processes of one build
/// exactly when the statistics are equal (`Debug` prints every float with
/// all its digits).
#[must_use]
pub fn digest(stats: &SimStats) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{stats:?}").hash(&mut hasher);
    hasher.finish()
}

/// The state a run leaves behind, compared bit for bit between the traced
/// copy of the kernel loop and the untraced `System`.
#[derive(Debug, Clone, PartialEq)]
pub struct EndState {
    /// CPU cycle the run ended on.
    pub cpu_cycle: u64,
    /// Committed user instructions per core since cycle 0.
    pub committed: Vec<u64>,
    /// Merged controller statistics of every backend shard.
    pub controller: McStats,
    /// Aggregated shared-L2 counters.
    pub l2: CacheStats,
    /// Off-chip reads sent since cycle 0.
    pub reads_sent: u64,
    /// Off-chip writes sent since cycle 0.
    pub writes_sent: u64,
}

impl EndState {
    /// The end state of an untraced system.
    #[must_use]
    pub fn of_system(system: &System) -> Self {
        Self {
            cpu_cycle: system.cpu_cycle(),
            committed: system.committed_per_core(),
            controller: system.controller_stats(),
            l2: system.l2_stats(),
            reads_sent: system.memory_reads_sent(),
            writes_sent: system.memory_writes_sent(),
        }
    }

    /// `Ok` when `self` equals `reference`, else the first field that
    /// differs.
    ///
    /// # Errors
    ///
    /// Names the first disagreeing field.
    pub fn check_against(&self, reference: &EndState) -> Result<(), String> {
        let fields = [
            ("cpu_cycle", self.cpu_cycle == reference.cpu_cycle),
            ("committed_per_core", self.committed == reference.committed),
            ("controller stats", self.controller == reference.controller),
            ("l2_stats", self.l2 == reference.l2),
            ("memory_reads_sent", self.reads_sent == reference.reads_sent),
            (
                "memory_writes_sent",
                self.writes_sent == reference.writes_sent,
            ),
        ];
        match fields.iter().find(|(_, same)| !same) {
            None => Ok(()),
            Some((name, _)) => Err(format!("{name} differs from the untraced System")),
        }
    }
}

/// Runs the window on an untraced, unforked `System` in this process and
/// returns its end state, after checking its statistics against the
/// oracle's `digest`.
///
/// # Errors
///
/// Describes the failure or the disagreement.
pub fn reference(cfg: &SystemConfig, oracle: u64) -> Result<EndState, String> {
    let mut sim = Simulator::new(cfg.clone()).map_err(|e| format!("reference run failed: {e}"))?;
    sim.run_warmup();
    let stats = sim
        .run_measurement()
        .map_err(|e| format!("reference run failed: {e}"))?;
    if digest(&stats) != oracle {
        return Err("reference run's SimStats differ from the naive oracle".to_owned());
    }
    Ok(EndState::of_system(sim.system()))
}

/// Host seconds of each phase of one timed run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTimes {
    /// `Simulator::new`: validation, allocation, functional prewarm.
    pub build_s: f64,
    /// `Simulator::run_warmup`.
    pub warmup_s: f64,
    /// `System::snapshot` of the warm system.
    pub snapshot_s: f64,
    /// `System::restore` of that image.
    pub restore_s: f64,
    /// `Simulator::run_measurement` on the replica.
    pub window_s: f64,
}

impl RunTimes {
    /// Set-up time: build plus warm-up.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.warmup_s
    }

    /// Fork time in milliseconds: snapshot plus restore.
    #[must_use]
    pub fn fork_ms(&self) -> f64 {
        (self.snapshot_s + self.restore_s) * 1e3
    }

    /// The worker's line for this run.
    fn to_line(self, image_bytes: usize, digest: u64) -> String {
        format!(
            "run {} {} {} {} {} {image_bytes} {digest}",
            self.build_s, self.warmup_s, self.snapshot_s, self.restore_s, self.window_s
        )
    }

    /// Parses the fields after `run ` of a worker line.
    fn from_line(fields: &str) -> Option<(Self, usize, u64)> {
        let fields: Vec<&str> = fields.split(' ').collect();
        let &[build, warmup, snapshot, restore, window, bytes, digest] = fields.as_slice() else {
            return None;
        };
        let secs = |v: &str| v.parse::<f64>().ok();
        let times = Self {
            build_s: secs(build)?,
            warmup_s: secs(warmup)?,
            snapshot_s: secs(snapshot)?,
            restore_s: secs(restore)?,
            window_s: secs(window)?,
        };
        Some((times, bytes.parse().ok()?, digest.parse().ok()?))
    }
}

/// Builds and warms a system, forks it by snapshot and restore, and runs
/// the measured window on the replica; returns the timings, the image size
/// and the replica's statistics.
fn run_rep(cfg: &SystemConfig) -> Result<(RunTimes, usize, SimStats), SimError> {
    let start = Instant::now();
    let mut warm = Simulator::new(cfg.clone())?;
    let build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    warm.run_warmup();
    let warmup_s = start.elapsed().as_secs_f64();

    let replica_cfg = cfg.clone();
    let start = Instant::now();
    let image = warm.system().snapshot()?;
    let snapshot_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut replica = Simulator::from_snapshot(replica_cfg, &image)?;
    let restore_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let stats = replica.run_measurement()?;
    let window_s = start.elapsed().as_secs_f64();
    let times = RunTimes {
        build_s,
        warmup_s,
        snapshot_s,
        restore_s,
        window_s,
    };
    Ok((times, image.len(), stats))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// One timed run: its timings, image size and statistics digest. An error
/// or a panic becomes the failure's text.
pub(crate) fn timed_run(cfg: &SystemConfig) -> Result<(RunTimes, usize, u64), String> {
    match catch_unwind(AssertUnwindSafe(|| run_rep(cfg))) {
        Ok(Ok((times, image_bytes, stats))) => Ok((times, image_bytes, digest(&stats))),
        Ok(Err(err)) => Err(format!("run failed: {err}")),
        Err(payload) => Err(format!("run panicked: {}", panic_message(&*payload))),
    }
}

/// The worker process's body: one timed run of `cfg`. Returns its line —
/// `run <build_s> <warmup_s> <snapshot_s> <restore_s> <window_s>
/// <image_bytes> <digest>` or `fail <why>` — then `rss <VmHWM MiB>`.
#[must_use]
pub fn worker(cfg: &SystemConfig) -> Vec<String> {
    let run = match timed_run(cfg) {
        Ok((times, image_bytes, digest)) => times.to_line(image_bytes, digest),
        Err(why) => format!("fail {why}"),
    };
    vec![run, format!("rss {}", crate::peak_rss_mib())]
}

/// The worker command line for `workload` at `seed` over `window`.
fn worker_args(workload: &WorkloadDef, seed: u64, window: Window) -> Vec<String> {
    vec![
        "--worker".to_owned(),
        "--workload".to_owned(),
        workload.name.to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "--warmup".to_owned(),
        window.warmup.to_string(),
        "--measure".to_owned(),
        window.measure.to_string(),
    ]
}

/// Everything one end-to-end measurement recorded.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Timings of each run that finished.
    pub runs: Vec<RunTimes>,
    /// Size of the warm system's snapshot image.
    pub image_bytes: usize,
    /// Peak resident set (`VmHWM`, MiB) of each worker process.
    pub peak_rss_mib: Vec<f64>,
    /// Measured runs attempted.
    pub attempted: u64,
    /// Why each failed run failed (disagreement, error or panic).
    pub failures: Vec<String>,
}

impl Measured {
    /// `metric` of every finished run.
    #[must_use]
    pub fn each(&self, metric: impl Fn(&RunTimes) -> f64) -> Vec<f64> {
        self.runs.iter().map(metric).collect()
    }

    /// Folds one worker's output in, checking each run's digest against
    /// `oracle`.
    fn absorb(&mut self, output: &str, oracle: u64) {
        for line in output.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "run" => {
                    self.attempted += 1;
                    let Some((times, image_bytes, digest)) = RunTimes::from_line(rest) else {
                        self.failures
                            .push(format!("unreadable worker line `{line}`"));
                        continue;
                    };
                    self.runs.push(times);
                    self.image_bytes = image_bytes;
                    if digest != oracle {
                        self.failures
                            .push("SimStats differ from the naive oracle".to_owned());
                    }
                }
                "fail" => {
                    self.attempted += 1;
                    self.failures.push(rest.to_owned());
                }
                "rss" => self.peak_rss_mib.extend(rest.parse::<f64>().ok()),
                _ => self
                    .failures
                    .push(format!("unreadable worker line `{line}`")),
            }
        }
    }
}

/// Measures `opts` end to end: starts one worker process per run, one after
/// another, until `budget` is spent and at least `opts.min_reps` runs were
/// made,
/// checking every run against the oracle's `digest`.
#[must_use]
pub fn measure(opts: &Options, budget: Duration, oracle: u64) -> Measured {
    let mut out = Measured::default();
    let args = worker_args(opts.workload, opts.seed, opts.window);
    let start = Instant::now();
    while (out.attempted as usize) < opts.min_reps.max(1) || start.elapsed() < budget {
        match Command::new(&opts.worker).args(&args).output() {
            Ok(done) if done.status.success() => {
                out.absorb(&String::from_utf8_lossy(&done.stdout), oracle);
            }
            Ok(done) => {
                out.attempted += 1;
                out.failures
                    .push(format!("worker process failed: {}", done.status));
            }
            Err(err) => {
                out.attempted += 1;
                out.failures
                    .push(format!("cannot start worker process: {err}"));
                break;
            }
        }
    }
    out
}
