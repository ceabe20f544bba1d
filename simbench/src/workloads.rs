//! The benchmark's named streams.
//!
//! Each workload is a batch simulation defined here, in the benchmark's own
//! files, so that it stays fixed while the simulator's own helpers change.
//! The seed and the window are the only inputs; the simulator receives just
//! the resulting [`SystemConfig`].

use cloudmc_memctrl::QosPolicyKind;
use cloudmc_sim::SystemConfig;
use cloudmc_workloads::{MixSpec, TenantSpec, Workload};

/// Simulated CPU cycles of one run: the warm-up that fills the modelled
/// caches and queues, then the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Warm-up cycles (after the functional cache prewarm).
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it (one line).
    pub why: &'static str,
    /// The standard window; throughput depends on window length, so the
    /// window is part of the workload's definition.
    pub window: Window,
    build: fn() -> SystemConfig,
}

fn web_search() -> SystemConfig {
    SystemConfig::baseline(Workload::WebSearch)
}

fn tpch_q6() -> SystemConfig {
    SystemConfig::baseline(Workload::TpchQ6)
}

fn tenant_mix_4ch() -> SystemConfig {
    let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
        .and(TenantSpec::batch(Workload::MediaStreaming, 4))
        .and(TenantSpec::batch(Workload::TpcC1, 4));
    let mut cfg = SystemConfig::mixed(mix);
    cfg.mc.qos.policy = QosPolicyKind::StaticPartition;
    cfg.num_channels = 4;
    cfg
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "web_search",
        why: "full-rate Web Search on 1 channel: cores, L1 and shared L2 (Frontend::advance_to) dominate; control for backend work",
        window: Window {
            warmup: 250_000,
            measure: 750_000,
        },
        build: web_search,
    },
    WorkloadDef {
        name: "tpch_q6",
        why: "dense TPC-H Q6 scan (L2 MPKI 15) on 1 channel: the memory controller and DRAM timing (Backend::tick_event) dominate",
        window: Window {
            warmup: 250_000,
            measure: 750_000,
        },
        build: tpch_q6,
    },
    WorkloadDef {
        name: "tenant_mix_4ch",
        why: "ws+ms+tpcc mix with static-partition QoS on 4 channels: four backend shards, the QoS arbiter, three tenants and the suite's highest write share",
        window: Window {
            warmup: 250_000,
            measure: 750_000,
        },
        build: tenant_mix_4ch,
    },
];

impl WorkloadDef {
    /// The workload called `name`, if there is one.
    #[must_use]
    pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The simulator configuration for `seed` over `window`.
    #[must_use]
    pub fn config(&self, seed: u64, window: Window) -> SystemConfig {
        let mut cfg = (self.build)();
        cfg.seed = seed;
        cfg.warmup_cpu_cycles = window.warmup;
        cfg.measure_cpu_cycles = window.measure;
        cfg
    }
}
