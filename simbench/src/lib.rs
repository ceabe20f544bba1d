//! # cloudmc-simbench
//!
//! The simulator's host-speed benchmark. One invocation runs one named
//! workload ([`workloads::WORKLOADS`]) on one thread at a time and reports
//! either the end-to-end metrics, measured with tracing off through the
//! `Simulator`/`System` API in worker processes ([`run_end_to_end`]), or the
//! per-layer metrics of a traced copy of the event-kernel loop
//! ([`run_layers`]).
//! Every timed run is checked: its `SimStats` must equal the naive per-cycle
//! oracle's, and the traced copy must end in the untraced `System`'s state.

#![forbid(unsafe_code)]

pub mod harness;
pub mod report;
pub mod traced;
pub mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use cloudmc_sim::SimStats;

use crate::report::{
    end_to_end_specs, fast_end, median, per_layer_specs, Metric, MetricSpec, Outcome, MODEL_METRICS,
};
use crate::traced::Layer;
use crate::workloads::{Window, WorkloadDef};

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The executable to start worker processes from (this benchmark).
    pub worker: PathBuf,
    /// The workload.
    pub workload: &'static WorkloadDef,
    /// Input seed.
    pub seed: u64,
    /// Host time to spend on measured runs.
    pub budget: Duration,
    /// Simulated window (normally the workload's own).
    pub window: Window,
    /// Fewest measured runs, whatever the budget.
    pub min_reps: usize,
}

/// Peak resident set size of this process (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fills `specs`' metrics from `value`, in declaration order.
fn collect(specs: &[MetricSpec], mut value: impl FnMut(&str) -> f64) -> Vec<Metric> {
    specs
        .iter()
        .map(|s| Metric {
            name: s.name.clone(),
            unit: s.unit,
            value: value(&s.name),
        })
        .collect()
}

fn failed_outcome(why: String) -> Outcome {
    Outcome {
        attempted: 1,
        metrics: Vec::new(),
        failures: vec![why],
    }
}

/// The oracle's statistics, or the failed outcome to report instead.
fn oracle_for(opts: &Options) -> Result<(cloudmc_sim::SystemConfig, SimStats), Outcome> {
    let cfg = opts.workload.config(opts.seed, opts.window);
    match harness::oracle(&cfg) {
        Ok(stats) => Ok((cfg, stats)),
        Err(err) => Err(failed_outcome(format!("naive oracle failed: {err}"))),
    }
}

/// End-to-end metrics with tracing off; the samples behind each median go
/// to `samples`.
#[must_use]
pub fn run_end_to_end(opts: &Options, samples: &mut Vec<(&'static str, usize)>) -> Outcome {
    let (_, oracle) = match oracle_for(opts) {
        Ok(pair) => pair,
        Err(outcome) => return outcome,
    };
    let m = harness::measure(opts, opts.budget, harness::digest(&oracle));
    samples.push(("runs", m.runs.len()));
    samples.push(("workers", m.peak_rss_mib.len()));
    let cycles_per_s = opts.window.measure as f64 / fast_end(&m.each(|r| r.window_s));
    let setup = fast_end(&m.each(harness::RunTimes::setup_s));
    let fork = fast_end(&m.each(harness::RunTimes::fork_ms));
    let rss = median(&m.peak_rss_mib);
    Outcome {
        attempted: m.attempted,
        metrics: collect(&end_to_end_specs(), |name| match name {
            "sim_cycles_per_s" => cycles_per_s,
            "setup_s" => setup,
            "fork_ms" => fork,
            "peak_rss_mb" => rss,
            other => unreachable!("no end-to-end metric {other}"),
        }),
        failures: m.failures,
    }
}

fn model_metric(stats: &SimStats, name: &str) -> f64 {
    match name {
        "sim.user_ipc" => stats.user_ipc(),
        "cpu.l2_mpki" => stats.l2_mpki,
        "memctrl.row_buffer_hit_rate" => stats.row_buffer_hit_rate,
        "memctrl.single_access_activation_fraction" => stats.single_access_activation_fraction,
        "memctrl.read_latency_p50_dram" => stats.read_latency_p50_dram,
        "memctrl.read_latency_p99_dram" => stats.read_latency_p99_dram,
        "memctrl.avg_read_queue_len" => stats.avg_read_queue_len,
        "memctrl.avg_write_queue_len" => stats.avg_write_queue_len,
        "dram.bandwidth_utilization" => stats.bandwidth_utilization,
        "dram.dram_energy_mj" => stats.dram_energy_mj,
        "backend.memory_reads_sent" => stats.memory_reads_sent as f64,
        "backend.memory_writes_sent" => stats.memory_writes_sent as f64,
        other => unreachable!("no model metric {other}"),
    }
}

/// Per-layer metrics from traced reps alternated with untraced `System`
/// runs in this process. Layer numbers are withheld unless every run agrees
/// with its reference.
#[must_use]
pub fn run_layers(opts: &Options, samples: &mut Vec<(&'static str, usize)>) -> Outcome {
    let (cfg, oracle) = match oracle_for(opts) {
        Ok(pair) => pair,
        Err(outcome) => return outcome,
    };
    let oracle_digest = harness::digest(&oracle);
    let reference = match harness::reference(&cfg, oracle_digest) {
        Ok(reference) => reference,
        Err(why) => return failed_outcome(why),
    };
    let span_cost = traced::span_cost_ns();
    let tr = traced::run_traced(&cfg, &reference, oracle_digest, opts.budget, opts.min_reps);
    // The reference run counts as one run.
    let attempted = 1 + tr.attempted;
    if !tr.failures.is_empty() {
        // Timings of a run that computed something else describe nothing.
        return Outcome {
            attempted,
            metrics: Vec::new(),
            failures: tr.failures,
        };
    }
    samples.push(("untraced_runs", tr.untraced.len()));
    samples.push(("traced_runs", tr.window_s.len()));
    let untraced = |metric: fn(&harness::RunTimes) -> f64| -> f64 {
        median(&tr.untraced.iter().map(metric).collect::<Vec<_>>())
    };

    let reps = tr.window_s.len() as f64;
    let traced_wall: f64 = tr.window_s.iter().sum();
    let untraced_window = untraced(|r| r.window_s);
    let t = &tr.times;
    let net_ns = |i: usize| {
        if t.calls[i] == 0 {
            0.0
        } else {
            (t.nanos[i] as f64 / t.calls[i] as f64 - span_cost).max(0.0)
        }
    };
    let net_layer_s: f64 = (0..Layer::ALL.len())
        .map(|i| t.calls[i] as f64 / reps * net_ns(i) * 1e-9)
        .sum();
    let layer_value = |name: &str| -> Option<f64> {
        let (layer, field) = name.rsplit_once('.')?;
        let i = Layer::ALL.iter().position(|l| l.name() == layer)?;
        Some(match field {
            "calls" => t.calls[i] as f64 / reps,
            "ns_per_call" => net_ns(i),
            "share" => t.nanos[i] as f64 * 1e-9 / traced_wall,
            _ => return None,
        })
    };
    let metrics = collect(&per_layer_specs(), |name| {
        if let Some(v) = layer_value(name) {
            return v;
        }
        if MODEL_METRICS.iter().any(|(n, _, _)| *n == name) {
            return model_metric(&oracle, name);
        }
        match name {
            "kernel.iterations" => t.iterations as f64 / reps,
            "kernel.skipped_cycle_share" => {
                t.skipped_cycles as f64 / (t.skipped_cycles + t.stepped_cycles).max(1) as f64
            }
            "sim.unattributed_share" => (untraced_window - net_layer_s) / untraced_window,
            "snap.snapshot_ms" => untraced(|r| r.snapshot_s) * 1e3,
            "snap.restore_ms" => untraced(|r| r.restore_s) * 1e3,
            "snap.image_bytes" => tr.image_bytes as f64,
            "setup.build_ms" => untraced(|r| r.build_s) * 1e3,
            "setup.warmup_s" => untraced(|r| r.warmup_s),
            "trace.overhead_ratio" => median(&tr.window_s) / untraced_window,
            "trace.span_cost_ns" => span_cost,
            other => unreachable!("no per-layer metric {other}"),
        }
    });
    Outcome {
        attempted,
        metrics,
        failures: Vec::new(),
    }
}
