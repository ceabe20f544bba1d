//! Metric names, units and directions; the result line; the provenance
//! block; and the `BENCHMARK.json` those names are declared in.

use std::fmt::Write as _;

use crate::traced::Layer;
use crate::workloads::{Window, WORKLOADS};

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn spec(name: impl Into<String>, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, measured with tracing off.
#[must_use]
pub fn end_to_end_specs() -> Vec<MetricSpec> {
    let bounded = |name: &str, unit, better, bound| MetricSpec {
        bound: Some(bound),
        ..spec(name, unit, better)
    };
    vec![
        bounded("sim_cycles_per_s", "cycles/s", Better::Higher, 0.25),
        bounded("setup_s", "s", Better::Lower, 0.25),
        bounded("fork_ms", "ms", Better::Lower, 0.25),
        bounded("peak_rss_mb", "MiB", Better::Lower, 0.1),
    ]
}

/// Model metrics read from `SimStats`: simulated values that repeat exactly
/// and move only with the modelled design.
pub const MODEL_METRICS: [(&str, &str, Better); 12] = [
    ("sim.user_ipc", "instr/cycle", Better::Higher),
    ("cpu.l2_mpki", "1/kinstr", Better::Lower),
    ("memctrl.row_buffer_hit_rate", "fraction", Better::Higher),
    (
        "memctrl.single_access_activation_fraction",
        "fraction",
        Better::Lower,
    ),
    (
        "memctrl.read_latency_p50_dram",
        "dram_cycles",
        Better::Lower,
    ),
    (
        "memctrl.read_latency_p99_dram",
        "dram_cycles",
        Better::Lower,
    ),
    ("memctrl.avg_read_queue_len", "requests", Better::Lower),
    ("memctrl.avg_write_queue_len", "requests", Better::Lower),
    ("dram.bandwidth_utilization", "fraction", Better::Higher),
    ("dram.dram_energy_mj", "mJ", Better::Lower),
    ("backend.memory_reads_sent", "count", Better::Higher),
    ("backend.memory_writes_sent", "count", Better::Higher),
];

/// The per-layer metrics, from the traced run.
#[must_use]
pub fn per_layer_specs() -> Vec<MetricSpec> {
    let mut out = Vec::new();
    for layer in Layer::ALL {
        let name = layer.name();
        out.push(spec(format!("{name}.calls"), "count", Better::Lower));
        out.push(spec(format!("{name}.ns_per_call"), "ns", Better::Lower));
        out.push(spec(format!("{name}.share"), "fraction", Better::Lower));
    }
    out.extend([
        spec("kernel.iterations", "count", Better::Lower),
        spec("kernel.skipped_cycle_share", "fraction", Better::Higher),
        spec("sim.unattributed_share", "fraction", Better::Lower),
        spec("snap.snapshot_ms", "ms", Better::Lower),
        spec("snap.restore_ms", "ms", Better::Lower),
        spec("snap.image_bytes", "bytes", Better::Lower),
        spec("setup.build_ms", "ms", Better::Lower),
        spec("setup.warmup_s", "s", Better::Lower),
        spec("trace.overhead_ratio", "ratio", Better::Lower),
        spec("trace.span_cost_ns", "ns", Better::Lower),
    ]);
    out.extend(
        MODEL_METRICS
            .iter()
            .map(|&(name, unit, better)| spec(name, unit, better)),
    );
    out
}

/// Median of `values` (0 for none).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The fast end of a set of host times: their 10th percentile (nearest
/// rank; 0 for none).
///
/// Interference from the rest of the host only ever adds time, and on a
/// shared host it comes in phases of tens of seconds that can double a
/// run's time. The median follows those phases; the fast end stays nearer
/// the undisturbed cost. On a shared 2-vCPU Xeon VM, five 30-second
/// invocations of one stream spread over 0.43 of their value by the median
/// and 0.23 by the fast end.
#[must_use]
pub fn fast_end(times: &[f64]) -> f64 {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * 0.1).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// Quotes `s` as a JSON string.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats `v` as a JSON number with all its digits; a non-finite value,
/// which JSON cannot hold, becomes `null`.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// One measured metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one invocation: the contract's last stdout line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Runs attempted.
    pub attempted: u64,
    /// Metrics in declaration order (empty when layer numbers are withheld).
    pub metrics: Vec<Metric>,
    /// Why each failed run (one that disagreed with its reference, errored
    /// or panicked) failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Runs that failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Whether every attempted run was checked correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failures.is_empty()
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result as one JSON line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// Provenance of one invocation.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Workload run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Window of this invocation.
    pub window: Window,
    /// Timed samples behind each median, by metric family.
    pub samples: Vec<(&'static str, usize)>,
}

/// `git describe` of the working directory, confined to it; `unknown`
/// outside a git checkout or without git.
fn git_describe() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(std::path::Path::to_path_buf));
    let mut cmd = std::process::Command::new("git");
    cmd.args([
        "--no-optional-locks",
        "describe",
        "--always",
        "--dirty",
        "--tags",
    ]);
    if let Some(ceiling) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Meta {
    /// The provenance block as one JSON line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
        let windows: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{}: {{\"warmup_cpu_cycles\": {}, \"measure_cpu_cycles\": {}}}",
                    json_str(w.name),
                    w.window.warmup,
                    w.window.measure
                )
            })
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, n)| format!("{}: {n}", json_str(name)))
            .collect();
        format!(
            "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"nproc\": {nproc}, \"threads\": 1, \"build_profile\": {}, \"rustc\": {}, \
             \"git_describe\": {}, \"window\": {{\"warmup_cpu_cycles\": {}, \
             \"measure_cpu_cycles\": {}}}, \"windows\": {{{}}}, \"samples\": {{{}}}}}}}",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            json_str(env!("SIMBENCH_PROFILE")),
            json_str(env!("SIMBENCH_RUSTC_VERSION")),
            json_str(&git_describe()),
            self.window.warmup,
            self.window.measure,
            windows.join(", "),
            samples.join(", ")
        )
    }
}

/// Run seconds of each measured invocation (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// The `BENCHMARK.json` that declares this benchmark, rendered from the
/// workload and metric definitions so the two cannot drift apart.
#[must_use]
pub fn benchmark_json() -> String {
    let entry = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {}", json_num(b)));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(&m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = end_to_end_specs().iter().map(entry).collect();
    let layers: Vec<String> = per_layer_specs().iter().map(entry).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"simbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"simbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
