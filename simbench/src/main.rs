//! `simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a provenance line and, as the last line of standard output, the
//! result as one JSON object. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` they are the traced run's per-layer
//! ones. Exits 1 when any run disagrees with its reference, 2 on bad usage.
//! `simbench --benchmark-json` prints the `BENCHMARK.json` declaring it all.
//! `--worker` makes the one timed run of a worker process (see `harness`);
//! only a worker takes `--warmup`/`--measure`, the window (CPU cycles) its
//! parent passes on, so the top-level command always runs each workload
//! over its own window.

use std::process::ExitCode;
use std::time::Duration;

use cloudmc_simbench::report::{benchmark_json, Meta, Outcome};
use cloudmc_simbench::workloads::{Window, WorkloadDef, WORKLOADS};
use cloudmc_simbench::{harness, run_end_to_end, run_layers, Options};

/// Parsed command line.
struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
    window: Window,
    worker: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut worker = false;
    let (mut warmup, mut measure) = (None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(WorkloadDef::by_name(&name).ok_or(format!(
                    "unknown workload `{name}` (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--warmup" => warmup = Some(value()?.parse().map_err(|e| format!("--warmup: {e}"))?),
            "--measure" => {
                measure = Some(value()?.parse().map_err(|e| format!("--measure: {e}"))?);
            }
            "--worker" => worker = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload: &'static WorkloadDef = workload.ok_or("--workload is required")?;
    if !worker && (warmup.is_some() || measure.is_some()) {
        return Err("--warmup and --measure are only for --worker".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        window: Window {
            warmup: warmup.unwrap_or(workload.window.warmup),
            measure: measure.unwrap_or(workload.window.measure),
        },
        worker,
    })
}

/// A human-readable summary on standard error.
fn summarize(args: &Args, outcome: &Outcome) {
    eprintln!(
        "simbench {} seed {} ({}): {} of {} runs failed",
        args.workload.name,
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        outcome.failed(),
        outcome.attempted
    );
    for why in &outcome.failures {
        eprintln!("  failed: {why}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<46} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // The model is unvalidated, so no error figure is given; the paper's
    // band is printed beside the one number it reports directly.
    if let Some(v) = outcome.get("memctrl.single_access_activation_fraction") {
        eprintln!(
            "  single-access activations {:.1}% (paper: 77-90%)",
            v * 100.0
        );
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--benchmark-json") {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("simbench: {err}");
            eprintln!("usage: simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if args.worker {
        for line in harness::worker(&args.workload.config(args.seed, args.window)) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    let worker = match std::env::current_exe() {
        Ok(path) => path,
        Err(err) => {
            eprintln!("simbench: cannot locate its own executable: {err}");
            return ExitCode::from(2);
        }
    };
    let opts = Options {
        worker,
        workload: args.workload,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        window: args.window,
        min_reps: harness::MIN_REPS,
    };
    let mut samples = Vec::new();
    let outcome = if args.trace {
        run_layers(&opts, &mut samples)
    } else {
        run_end_to_end(&opts, &mut samples)
    };
    summarize(&args, &outcome);
    let meta = Meta {
        window: args.window,
        workload: args.workload.name.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        samples,
    };
    println!("{}", meta.to_json());
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
