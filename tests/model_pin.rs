//! Pins the simulated model to recorded values.
//!
//! The caches, the workload generator and the page policies are shared by
//! the naive and the event kernel, so the naive-vs-event equivalence tests
//! cannot notice a change in them that alters a simulated result; this file
//! can. Each config runs a short window (seed 1, 10k warm-up + 50k measured
//! CPU cycles) and must reproduce its recorded counters, the shared-L2 and
//! per-core L1 counters, and the exact bits of five derived floats. A change
//! that is meant to alter the model re-records the values and says why.

use cloudmc::cpu::CacheStats;
use cloudmc::memctrl::{PagePolicyKind, QosPolicyKind};
use cloudmc::sim::{Simulator, SystemConfig};
use cloudmc::workloads::{MixSpec, TenantSpec, Workload};

/// Everything the pin checks for one config.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    instructions_per_core: Vec<u64>,
    memory_reads_sent: u64,
    memory_writes_sent: u64,
    reads_completed: u64,
    writes_completed: u64,
    read_latency_max_dram: u64,
    /// Shared L2 as `[hits, misses, writebacks]`.
    l2: [u64; 3],
    /// Per-core L1-I as `[hits, misses, writebacks]`.
    l1i: Vec<[u64; 3]>,
    /// Per-core L1-D as `[hits, misses, writebacks]`.
    l1d: Vec<[u64; 3]>,
    /// `f64::to_bits` of `row_buffer_hit_rate`, `avg_read_latency_dram`,
    /// `avg_read_queue_len`, `l2_mpki` and
    /// `single_access_activation_fraction`, in that order.
    float_bits: [u64; 5],
}

fn triple(s: &CacheStats) -> [u64; 3] {
    [s.hits, s.misses, s.writebacks]
}

fn small(mut cfg: SystemConfig) -> SystemConfig {
    cfg.seed = 1;
    cfg.warmup_cpu_cycles = 10_000;
    cfg.measure_cpu_cycles = 50_000;
    cfg
}

fn observe(cfg: SystemConfig) -> Observed {
    let mut sim = Simulator::new(small(cfg)).expect("valid config");
    sim.run_warmup();
    let stats = sim.run_measurement().expect("run completes");
    let system = sim.system();
    let cores = stats.instructions_per_core.len();
    Observed {
        instructions_per_core: stats.instructions_per_core.clone(),
        memory_reads_sent: stats.memory_reads_sent,
        memory_writes_sent: stats.memory_writes_sent,
        reads_completed: stats.reads_completed,
        writes_completed: stats.writes_completed,
        read_latency_max_dram: stats.read_latency_max_dram,
        l2: triple(&system.l2_stats()),
        l1i: (0..cores).map(|c| triple(system.l1i_stats(c))).collect(),
        l1d: (0..cores).map(|c| triple(system.l1d_stats(c))).collect(),
        float_bits: [
            stats.row_buffer_hit_rate.to_bits(),
            stats.avg_read_latency_dram.to_bits(),
            stats.avg_read_queue_len.to_bits(),
            stats.l2_mpki.to_bits(),
            stats.single_access_activation_fraction.to_bits(),
        ],
    }
}

fn tpch_q6_with(page_policy: PagePolicyKind) -> SystemConfig {
    let mut cfg = SystemConfig::baseline(Workload::TpchQ6);
    cfg.mc.page_policy = page_policy;
    cfg
}

fn configs() -> Vec<(&'static str, SystemConfig)> {
    let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
        .and(TenantSpec::batch(Workload::MediaStreaming, 4))
        .and(TenantSpec::batch(Workload::TpcC1, 4));
    let mut tenant_mix_4ch = SystemConfig::mixed(mix);
    tenant_mix_4ch.mc.qos.policy = QosPolicyKind::StaticPartition;
    tenant_mix_4ch.num_channels = 4;
    let mut tpch_q6_2ch = SystemConfig::baseline(Workload::TpchQ6);
    tpch_q6_2ch.num_channels = 2;
    vec![
        ("web_search", SystemConfig::baseline(Workload::WebSearch)),
        ("tpch_q6", SystemConfig::baseline(Workload::TpchQ6)),
        ("tenant_mix_4ch", tenant_mix_4ch),
        (
            "web_frontend",
            SystemConfig::baseline(Workload::WebFrontend),
        ),
        (
            "tpch_q6_close_adaptive",
            tpch_q6_with(PagePolicyKind::CloseAdaptive),
        ),
        ("tpch_q6_rbpp", tpch_q6_with(PagePolicyKind::Rbpp)),
        ("tpch_q6_2ch", tpch_q6_2ch),
    ]
}

/// The values recorded for each config of [`configs`], in the same order.
fn expected() -> Vec<(&'static str, Observed)> {
    vec![
        (
            "web_search",
            Observed {
                instructions_per_core: vec![
                    30318, 30623, 32708, 28280, 33360, 29411, 32157, 30135, 28899, 26769, 26189,
                    27412, 25870, 28042, 25514, 27330,
                ],
                memory_reads_sent: 752,
                memory_writes_sent: 0,
                reads_completed: 754,
                writes_completed: 0,
                read_latency_max_dram: 446,
                l2: [21405, 21512, 0],
                l1i: vec![
                    [582, 2270, 0],
                    [863, 2121, 0],
                    [854, 2127, 0],
                    [937, 1894, 0],
                    [847, 2170, 0],
                    [448, 2341, 0],
                    [699, 2264, 0],
                    [530, 2306, 0],
                    [347, 2446, 0],
                    [187, 2513, 0],
                    [1, 2668, 0],
                    [213, 2516, 0],
                    [115, 2632, 0],
                    [380, 2454, 0],
                    [0, 2738, 0],
                    [388, 2409, 0],
                ],
                l1d: vec![
                    [4239, 335, 6],
                    [4703, 300, 4],
                    [4712, 321, 3],
                    [4259, 319, 5],
                    [4763, 304, 3],
                    [4204, 317, 4],
                    [4592, 287, 1],
                    [4289, 322, 11],
                    [4212, 308, 4],
                    [3972, 324, 8],
                    [3884, 302, 9],
                    [3873, 298, 2],
                    [4009, 295, 1],
                    [4037, 314, 1],
                    [3753, 288, 3],
                    [4041, 339, 10],
                ],
                float_bits: [
                    4602702710947858427,
                    4629507789499227052,
                    4604031250140746272,
                    4609993252378733542,
                    4605183494901237990,
                ],
            },
        ),
        (
            "tpch_q6",
            Observed {
                instructions_per_core: vec![
                    14778, 15647, 15814, 16845, 18496, 15393, 19127, 13769, 19534, 17154, 15130,
                    14145, 18440, 19296, 20591, 15003,
                ],
                memory_reads_sent: 3809,
                memory_writes_sent: 66,
                reads_completed: 3815,
                writes_completed: 48,
                read_latency_max_dram: 664,
                l2: [3868, 25279, 66],
                l1i: vec![
                    [53, 1180, 0],
                    [220, 1039, 0],
                    [0, 1255, 0],
                    [0, 1229, 0],
                    [0, 1287, 0],
                    [85, 1144, 0],
                    [216, 1055, 0],
                    [0, 1228, 0],
                    [0, 1275, 0],
                    [0, 1272, 0],
                    [0, 1242, 0],
                    [0, 1244, 0],
                    [0, 1279, 0],
                    [75, 1229, 0],
                    [96, 1218, 0],
                    [0, 1234, 0],
                ],
                l1d: vec![
                    [2073, 563, 28],
                    [2054, 595, 29],
                    [2250, 592, 39],
                    [2188, 551, 25],
                    [2492, 535, 33],
                    [2039, 558, 38],
                    [2354, 578, 38],
                    [1734, 586, 25],
                    [2553, 550, 31],
                    [2280, 589, 40],
                    [1987, 578, 31],
                    [1968, 625, 48],
                    [2509, 560, 43],
                    [2505, 589, 40],
                    [2857, 545, 31],
                    [1997, 589, 35],
                ],
                float_bits: [
                    4597356807187416181,
                    4635667280646970157,
                    4623763434138098047,
                    4624156108022070938,
                    4605252901308970883,
                ],
            },
        ),
        (
            "tenant_mix_4ch",
            Observed {
                instructions_per_core: vec![
                    30231, 30865, 32690, 28564, 33364, 29126, 32087, 29903, 27860, 28811, 25919,
                    31183, 25272, 29300, 22852, 23762,
                ],
                memory_reads_sent: 1602,
                memory_writes_sent: 3,
                reads_completed: 1606,
                writes_completed: 3,
                read_latency_max_dram: 448,
                l2: [19250, 22655, 3],
                l1i: vec![
                    [582, 2265, 0],
                    [879, 2121, 0],
                    [854, 2114, 0],
                    [937, 1914, 0],
                    [847, 2166, 0],
                    [448, 2325, 0],
                    [693, 2264, 0],
                    [530, 2299, 0],
                    [117, 2112, 0],
                    [82, 2215, 0],
                    [0, 2139, 0],
                    [616, 1794, 0],
                    [290, 2542, 0],
                    [980, 2055, 0],
                    [0, 2626, 0],
                    [434, 2258, 0],
                ],
                l1d: vec![
                    [4224, 335, 6],
                    [4749, 300, 4],
                    [4678, 319, 2],
                    [4312, 319, 5],
                    [4756, 304, 3],
                    [4170, 316, 4],
                    [4582, 287, 1],
                    [4263, 322, 11],
                    [4039, 480, 51],
                    [4147, 435, 43],
                    [3593, 520, 54],
                    [4212, 522, 55],
                    [3852, 418, 44],
                    [4148, 453, 38],
                    [3224, 451, 39],
                    [3470, 498, 57],
                ],
                float_bits: [
                    4599594315263782843,
                    4629592453932104157,
                    4600028000431976638,
                    4614994175471405785,
                    4605511324318618337,
                ],
            },
        ),
        (
            "web_frontend",
            Observed {
                instructions_per_core: vec![23817, 24231, 25583, 24743, 29700, 25904, 26912, 23223],
                memory_reads_sent: 705,
                memory_writes_sent: 63,
                reads_completed: 706,
                writes_completed: 64,
                read_latency_max_dram: 431,
                l2: [12226, 11063, 0],
                l1i: vec![
                    [382, 2795, 0],
                    [510, 2705, 0],
                    [807, 2478, 0],
                    [825, 2425, 0],
                    [1084, 2423, 0],
                    [862, 2395, 0],
                    [1001, 2429, 0],
                    [577, 2527, 0],
                ],
                l1d: vec![
                    [3463, 314, 7],
                    [3763, 320, 4],
                    [3765, 381, 19],
                    [3597, 466, 38],
                    [4311, 311, 13],
                    [3766, 389, 25],
                    [4214, 339, 17],
                    [3379, 438, 31],
                ],
                float_bits: [
                    4603988957246063784,
                    4628693326581103433,
                    4602757632166125896,
                    4614960065832044275,
                    4604562142653183665,
                ],
            },
        ),
        (
            "tpch_q6_close_adaptive",
            Observed {
                instructions_per_core: vec![
                    15004, 16326, 13799, 18789, 18746, 15903, 19933, 15470, 19320, 16420, 13932,
                    13489, 19309, 17434, 21823, 13591,
                ],
                memory_reads_sent: 3775,
                memory_writes_sent: 65,
                reads_completed: 3788,
                writes_completed: 49,
                read_latency_max_dram: 609,
                l2: [3846, 25244, 65],
                l1i: vec![
                    [53, 1180, 0],
                    [220, 1044, 0],
                    [0, 1233, 0],
                    [0, 1255, 0],
                    [0, 1287, 0],
                    [94, 1144, 0],
                    [228, 1055, 0],
                    [0, 1255, 0],
                    [0, 1270, 0],
                    [0, 1256, 0],
                    [0, 1225, 0],
                    [0, 1234, 0],
                    [0, 1291, 0],
                    [52, 1229, 0],
                    [110, 1218, 0],
                    [0, 1225, 0],
                ],
                l1d: vec![
                    [2073, 567, 29],
                    [2130, 602, 31],
                    [1973, 546, 26],
                    [2472, 566, 26],
                    [2536, 536, 33],
                    [2093, 563, 38],
                    [2462, 583, 38],
                    [1961, 617, 30],
                    [2523, 548, 31],
                    [2174, 572, 37],
                    [1797, 559, 30],
                    [1885, 616, 47],
                    [2603, 572, 44],
                    [2314, 563, 35],
                    [3017, 575, 36],
                    [1842, 563, 30],
                ],
                float_bits: [
                    4595816023493409151,
                    4635731100050613323,
                    4623800082180065775,
                    4624081303069187015,
                    4605328701452654367,
                ],
            },
        ),
        (
            "tpch_q6_rbpp",
            Observed {
                instructions_per_core: vec![
                    16845, 15377, 15372, 18058, 18242, 15345, 20452, 13288, 19619, 16970, 15103,
                    13905, 18487, 17655, 21702, 13823,
                ],
                memory_reads_sent: 3790,
                memory_writes_sent: 67,
                reads_completed: 3794,
                writes_completed: 49,
                read_latency_max_dram: 607,
                l2: [3834, 25253, 67],
                l1i: vec![
                    [71, 1180, 0],
                    [220, 1033, 0],
                    [0, 1254, 0],
                    [0, 1244, 0],
                    [0, 1281, 0],
                    [84, 1144, 0],
                    [235, 1055, 0],
                    [0, 1223, 0],
                    [0, 1275, 0],
                    [0, 1266, 0],
                    [0, 1242, 0],
                    [0, 1236, 0],
                    [0, 1278, 0],
                    [57, 1229, 0],
                    [110, 1218, 0],
                    [0, 1226, 0],
                ],
                l1d: vec![
                    [2281, 585, 32],
                    [2017, 592, 28],
                    [2187, 586, 39],
                    [2363, 562, 25],
                    [2436, 531, 32],
                    [2032, 556, 38],
                    [2498, 586, 38],
                    [1681, 570, 22],
                    [2557, 550, 31],
                    [2260, 579, 40],
                    [1987, 579, 31],
                    [1927, 617, 47],
                    [2504, 552, 42],
                    [2330, 565, 35],
                    [3017, 575, 36],
                    [1847, 571, 31],
                ],
                float_bits: [
                    4597277546551634522,
                    4635650248200311378,
                    4623726954981116346,
                    4624084661861505559,
                    4605347149092713375,
                ],
            },
        ),
        (
            "tpch_q6_2ch",
            Observed {
                instructions_per_core: vec![
                    22727, 21223, 21164, 21786, 23386, 23461, 23841, 19202, 23020, 22349, 21468,
                    19760, 22581, 22159, 23624, 20040,
                ],
                memory_reads_sent: 4771,
                memory_writes_sent: 120,
                reads_completed: 4776,
                writes_completed: 98,
                read_latency_max_dram: 567,
                l2: [5021, 26675, 120],
                l1i: vec![
                    [136, 1192, 0],
                    [220, 1112, 0],
                    [0, 1338, 0],
                    [0, 1300, 0],
                    [0, 1359, 0],
                    [179, 1144, 0],
                    [279, 1055, 0],
                    [0, 1324, 0],
                    [16, 1294, 0],
                    [0, 1346, 0],
                    [0, 1341, 0],
                    [0, 1324, 0],
                    [0, 1350, 0],
                    [113, 1229, 0],
                    [133, 1218, 0],
                    [0, 1298, 0],
                ],
                l1d: vec![
                    [3109, 674, 47],
                    [2802, 716, 54],
                    [2905, 656, 45],
                    [2854, 640, 49],
                    [3241, 628, 53],
                    [3009, 650, 48],
                    [3000, 673, 50],
                    [2498, 685, 42],
                    [3070, 627, 45],
                    [3020, 678, 55],
                    [2818, 660, 40],
                    [2732, 712, 68],
                    [3101, 672, 57],
                    [2902, 663, 54],
                    [3287, 646, 47],
                    [2646, 687, 51],
                ],
                float_bits: [
                    4595052083160271846,
                    4632801032360286129,
                    4617058334275380498,
                    4623824362058365882,
                    4605964347903457409,
                ],
            },
        ),
    ]
}

#[test]
fn model_matches_recorded_values() {
    let expected = expected();
    let configs = configs();
    assert_eq!(configs.len(), expected.len());
    for ((name, cfg), (want_name, want)) in configs.into_iter().zip(expected) {
        assert_eq!(name, want_name);
        assert_eq!(
            observe(cfg),
            want,
            "{name}: the model drifted from its recorded values"
        );
    }
}
