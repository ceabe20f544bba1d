//! Self-test of the benchmark at tiny scale: every workload prints every
//! declared metric with its unit, the oracle and traced-run checks pass, and
//! a corrupted comparison counts as a failed run.

use std::process::Command;
use std::time::Duration;

use cloudmc_simbench::harness::{self, EndState};
use cloudmc_simbench::report::{benchmark_json, end_to_end_specs, per_layer_specs, MetricSpec};
use cloudmc_simbench::traced::run_traced;
use cloudmc_simbench::workloads::{Window, WorkloadDef, WORKLOADS};
use cloudmc_simbench::{run_end_to_end, run_layers, Options};

const TINY: Window = Window {
    warmup: 2_000,
    measure: 8_000,
};

fn tiny(workload: &'static WorkloadDef) -> Options {
    Options {
        worker: env!("CARGO_BIN_EXE_cloudmc-simbench").into(),
        workload,
        seed: 7,
        budget: Duration::ZERO,
        window: TINY,
        min_reps: 2,
    }
}

fn assert_reports(outcome: &cloudmc_simbench::report::Outcome, specs: &[MetricSpec]) {
    let printed: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let declared: Vec<(&str, &str)> = specs.iter().map(|s| (s.name.as_str(), s.unit)).collect();
    assert_eq!(printed, declared);
    let line = outcome.to_json();
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{} missing from {line}",
            m.name
        );
    }
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn benchmark_json_matches_the_definitions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json beside simbench/");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with `simbench --benchmark-json > BENCHMARK.json`"
    );
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in &WORKLOADS {
        let opts = tiny(workload);
        let e2e = run_end_to_end(&opts, &mut Vec::new());
        assert!(e2e.correct(), "{}: {:?}", workload.name, e2e.failures);
        assert_reports(&e2e, &end_to_end_specs());
        for m in &e2e.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name,
                m.name,
                m.value
            );
        }

        let layers = run_layers(&opts, &mut Vec::new());
        assert!(layers.correct(), "{}: {:?}", workload.name, layers.failures);
        assert_reports(&layers, &per_layer_specs());
        assert!(layers.get("backend.tick_event.calls").unwrap() > 0.0);
        assert!(layers.get("trace.overhead_ratio").unwrap() > 0.0);
    }
}

#[test]
fn a_corrupted_oracle_counts_every_run_as_failed() {
    let opts = Options {
        min_reps: 3,
        ..tiny(&WORKLOADS[1])
    };
    let cfg = opts.workload.config(opts.seed, opts.window);
    let oracle = harness::digest(&harness::oracle(&cfg).unwrap());
    let good = harness::measure(&opts, Duration::ZERO, oracle);
    assert!(good.attempted >= 3);
    assert!(good.failures.is_empty(), "{:?}", good.failures);

    let bad = harness::measure(&opts, Duration::ZERO, oracle ^ 1);
    assert!(bad.attempted >= 3);
    assert_eq!(
        bad.failures.len() as u64,
        bad.attempted,
        "{:?}",
        bad.failures
    );
}

#[test]
fn a_corrupted_reference_fails_the_traced_run() {
    let cfg = WORKLOADS[0].config(3, TINY);
    let oracle = harness::digest(&harness::oracle(&cfg).unwrap());
    let reference: EndState = harness::reference(&cfg, oracle).unwrap();
    assert!(harness::reference(&cfg, oracle ^ 1).is_err());

    let agreeing = run_traced(&cfg, &reference, oracle, Duration::ZERO, 1);
    assert!(agreeing.failures.is_empty(), "{:?}", agreeing.failures);
    assert_eq!((agreeing.untraced.len(), agreeing.window_s.len()), (1, 1));

    let mut corrupted = reference.clone();
    corrupted.committed[0] += 1;
    let traced = run_traced(&cfg, &corrupted, oracle, Duration::ZERO, 2);
    assert_eq!(traced.attempted, 4, "two untraced and two traced runs");
    assert_eq!(traced.failures.len(), 2, "{:?}", traced.failures);
    assert!(
        traced.window_s.is_empty(),
        "no timings from a disagreeing run"
    );

    let untraced_wrong = run_traced(&cfg, &reference, oracle ^ 1, Duration::ZERO, 1);
    assert_eq!(
        untraced_wrong.failures.len(),
        1,
        "the untraced run disagrees"
    );
}

#[test]
fn only_a_worker_takes_a_window() {
    let bench = env!("CARGO_BIN_EXE_cloudmc-simbench");
    for flag in ["--warmup", "--measure"] {
        let out = Command::new(bench)
            .args(["--workload", "web_search", flag, "1000"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} on the top-level command"
        );
        assert!(out.stdout.is_empty());
    }
}
