//! Bit-identity of the batched stepper against the retained
//! per-instruction reference stepper.
//!
//! The hot-path overhaul (batched burst execution, indexed CAM and TLB
//! front-ends, L1 repeat-hit memo) is a pure refactoring: every report
//! must come out **bit-identical** to the pre-optimisation simulator.
//! The reference stepper — the verbatim per-instruction loop, compiled
//! only under the `reference-stepper` feature — is the oracle. This
//! suite runs one configuration shaped like each of the repo's eleven
//! experiment kinds (fig1, fig3, fig4, fig5, table3, scalability,
//! sensitivity, predictor accuracy, half-L2, mechanism ablation, tuner
//! trace) through both steppers, across three seeds, and requires
//! `SimReport` equality — which covers every cycle count, cache/TLB/
//! predictor statistic, queue report, and trace-derived metric.

use osoffload::core::TunerConfig;
use osoffload::mem::MemConfig;
use osoffload::obs::TelemetryMode;
use osoffload::system::{OffloadMechanism, PolicyKind, Simulation, SystemConfig};
use osoffload::workload::Profile;

const SEEDS: [u64; 3] = [0xF1605, 0xB17_1DE7, 42];
const INSTRUCTIONS: u64 = 60_000;
const WARMUP: u64 = 30_000;

fn base(profile: Profile, policy: PolicyKind, latency: u64, seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .profile(profile)
        .policy(policy)
        .migration_latency(latency)
        .instructions(INSTRUCTIONS)
        .warmup(WARMUP)
        .seed(seed)
        .build()
}

/// One configuration per experiment kind, exercising every hot-path
/// branch: local execution, thread-migration and remote-call off-load,
/// resource adaptation, dynamic/static instrumentation, the oracle and
/// direct-mapped predictor front-ends, multi-core topologies, shrunken
/// caches, and the epoch-driven threshold tuner.
fn configs(seed: u64) -> Vec<(&'static str, SystemConfig)> {
    let hi = |n| PolicyKind::HardwarePredictor { threshold: n };
    vec![
        // fig1: local-only baseline characterisation.
        (
            "fig1_baseline",
            base(Profile::apache(), PolicyKind::Baseline, 0, seed),
        ),
        // fig3: binary decision accuracy at a fixed threshold.
        ("fig3_binary", base(Profile::derby(), hi(500), 1_000, seed)),
        // fig4: the headline threshold x latency sweep point.
        (
            "fig4_point",
            base(Profile::apache(), hi(1_000), 1_000, seed),
        ),
        // fig5: dynamic instrumentation alternative.
        (
            "fig5_instrumentation",
            base(
                Profile::specjbb(),
                PolicyKind::DynamicInstrumentation {
                    threshold: 500,
                    cost: 120,
                },
                1_000,
                seed,
            ),
        ),
        // table3: OS-core utilisation under always-offload pressure.
        (
            "table3_utilization",
            base(Profile::derby(), PolicyKind::AlwaysOffload, 100, seed),
        ),
        // scalability: several user cores sharing one OS core.
        (
            "scalability_4core",
            SystemConfig::builder()
                .profile(Profile::specjbb())
                .policy(hi(100))
                .migration_latency(1_000)
                .user_cores(2)
                .instructions(INSTRUCTIONS)
                .warmup(WARMUP)
                .seed(seed)
                .build(),
        ),
        // sensitivity: resource adaptation (Li & John) instead of migration.
        (
            "sensitivity_resource_adaptation",
            SystemConfig::builder()
                .profile(Profile::apache())
                .policy(hi(500))
                .migration_latency(1_000)
                .resource_adaptation(600)
                .instructions(INSTRUCTIONS)
                .warmup(WARMUP)
                .seed(seed)
                .build(),
        ),
        // predictor accuracy: the direct-mapped organisation.
        (
            "predictor_direct_mapped",
            base(
                Profile::mcf(),
                PolicyKind::HardwarePredictorDirectMapped { threshold: 500 },
                1_000,
                seed,
            ),
        ),
        // half-L2: shrunken per-core L2 with full telemetry armed.
        (
            "half_l2_telemetry",
            SystemConfig::builder()
                .profile(Profile::apache())
                .policy(hi(100))
                .migration_latency(500)
                .mem_override(MemConfig::half_l2_variant(2))
                .telemetry(TelemetryMode::Full)
                .instructions(INSTRUCTIONS)
                .warmup(WARMUP)
                .seed(seed)
                .build(),
        ),
        // mechanism ablation: RPC-style remote call, slowed OS core.
        (
            "mechanism_remote_call",
            SystemConfig::builder()
                .profile(Profile::derby())
                .policy(hi(100))
                .migration_latency(1_000)
                .mechanism(OffloadMechanism::RemoteCall)
                .os_core_slowdown_milli(1_500)
                .instructions(INSTRUCTIONS)
                .warmup(WARMUP)
                .seed(seed)
                .build(),
        ),
        // tuner trace: epoch-driven dynamic threshold estimation.
        (
            "tuner_trace",
            SystemConfig::builder()
                .profile(Profile::specjbb())
                .policy(hi(1_000))
                .migration_latency(1_000)
                .tuner(TunerConfig::scaled_down(25_000_000 / 1_500))
                .instructions(INSTRUCTIONS)
                .warmup(WARMUP)
                .seed(seed)
                .build(),
        ),
    ]
}

/// Tape replay against the live stepper, over the same
/// eleven-configuration x three-seed matrix. Live references are
/// computed once per (configuration, seed); the replay side runs the
/// whole matrix through one shared `TapeRegistry` twice, in order and
/// then in reverse, so shapes alternate, same-shape configurations
/// replay a tape an earlier one built and extended, and every report
/// must be bit-identical.
#[test]
fn tape_replay_is_bit_identical_to_scalar() {
    use osoffload::system::TapeRegistry;
    for seed in SEEDS {
        let named = configs(seed);
        let live: Vec<_> = named
            .iter()
            .map(|(_, cfg)| Simulation::new(cfg.clone()).run())
            .collect();
        let mut tapes = TapeRegistry::new();
        let order = (0..named.len()).chain((0..named.len()).rev());
        for i in order {
            let (name, cfg) = &named[i];
            let replayed = tapes
                .simulation(cfg.clone())
                .expect("matrix configs are valid")
                .run();
            assert_eq!(
                replayed, live[i],
                "config {name} (seed {seed:#x}): replayed report diverged from live"
            );
        }
    }
}

#[test]
fn batched_stepper_is_bit_identical_to_reference() {
    for seed in SEEDS {
        for (name, cfg) in configs(seed) {
            let batched = Simulation::new(cfg.clone()).run();
            let reference = Simulation::new(cfg).run_reference();
            assert_eq!(
                batched, reference,
                "config {name} (seed {seed:#x}): batched stepper diverged from reference"
            );
        }
    }
}
