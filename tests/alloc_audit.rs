//! Proves the measured simulation region is allocation-free.
//!
//! The simulator marks its measured region (everything after warm-up and
//! statistics reset) with `alloc_audit::region_enter`/`region_exit`.
//! This test installs a counting `#[global_allocator]` that reports every
//! `alloc`/`realloc` to the audit hook, runs a representative simulation,
//! and requires **zero** in-region allocations: all buffers must be sized
//! at construction time and the batched instruction loop must never touch
//! the heap.
//!
//! The shim lives here — not in `osoffload-sim`, which forbids unsafe
//! code — because a global allocator is process-wide and needs `unsafe`.
//! Integration tests are separate binaries, so the shim cannot leak into
//! any other test or production build.

use std::alloc::{GlobalAlloc, Layout, System};

use osoffload::sim::alloc_audit;
use osoffload::system::{OffloadMechanism, PolicyKind, Simulation, SystemConfig};
use osoffload::workload::Profile;

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_audit::note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_audit::note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn run_and_count(cfg: SystemConfig) -> u64 {
    let _ = alloc_audit::take_region_allocs();
    let report = Simulation::new(cfg).run();
    assert!(report.throughput() > 0.0, "simulation must make progress");
    alloc_audit::take_region_allocs()
}

/// Every hot-path branch in one sweep: local execution,
/// thread-migration off-load through the predictor, the remote-call
/// mechanism, and resource adaptation. Phase-change configs are
/// excluded by design: rebuilding the workload mix at a phase boundary
/// is construction work, not inner-loop work.
fn hot_path_cases() -> [(&'static str, SystemConfig); 4] {
    [
        (
            "baseline_local",
            SystemConfig::builder()
                .profile(Profile::apache())
                .policy(PolicyKind::Baseline)
                .instructions(120_000)
                .warmup(40_000)
                .seed(0xF1605)
                .build(),
        ),
        (
            "predictor_offload",
            SystemConfig::builder()
                .profile(Profile::apache())
                .policy(PolicyKind::HardwarePredictor { threshold: 500 })
                .migration_latency(1_000)
                .instructions(120_000)
                .warmup(40_000)
                .seed(0xF1605)
                .build(),
        ),
        (
            "remote_call",
            SystemConfig::builder()
                .profile(Profile::derby())
                .policy(PolicyKind::HardwarePredictor { threshold: 100 })
                .migration_latency(1_000)
                .mechanism(OffloadMechanism::RemoteCall)
                .instructions(120_000)
                .warmup(40_000)
                .seed(0xBEE5)
                .build(),
        ),
        (
            "resource_adaptation",
            SystemConfig::builder()
                .profile(Profile::specjbb())
                .policy(PolicyKind::HardwarePredictor { threshold: 500 })
                .migration_latency(1_000)
                .resource_adaptation(600)
                .instructions(120_000)
                .warmup(40_000)
                .seed(0xBEE5)
                .build(),
        ),
    ]
}

#[test]
fn measured_region_is_allocation_free() {
    for (name, cfg) in hot_path_cases() {
        let allocs = run_and_count(cfg);
        assert_eq!(
            allocs, 0,
            "config {name}: measured region allocated {allocs} times"
        );
    }
}

#[test]
fn tape_replay_measured_region_is_allocation_free() {
    use osoffload::system::TapeRegistry;
    // Tape-compatible configurations (shared seed/profile, different
    // thresholds and latencies) run back to back through one registry,
    // twice over, so later runs replay a tape earlier runs built and
    // extended; then single-threaded compute profiles and the hot-path
    // cases above, each on its own tape. Each simulation materialises
    // the shared tape past the deepest position it can reach before
    // entering its audited region, so replay must never touch the heap
    // mid-measurement.
    let member = |threshold: u64, latency: u64| {
        SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold })
            .migration_latency(latency)
            .instructions(60_000)
            .warmup(20_000)
            .seed(0xF1605)
            .build()
    };
    let variants = [
        member(100, 1_000),
        member(500, 1_000),
        member(1_000, 5_000),
        member(5_000, 100),
    ];
    // One thread per core: a single thread retires every instruction,
    // so its tape depth reaches the whole budget plus each region's
    // overshoot of its target by the last segment.
    let single_thread: Vec<SystemConfig> = Profile::all_compute()
        .into_iter()
        .map(|profile| SystemConfig {
            profile,
            ..member(500, 1_000)
        })
        .collect();
    let hot_paths = hot_path_cases().map(|(_, cfg)| cfg);
    let mut tapes = TapeRegistry::new();
    for round in 0..2 {
        for (i, cfg) in variants
            .iter()
            .chain(&single_thread)
            .chain(&hot_paths)
            .enumerate()
        {
            let sim = tapes.simulation(cfg.clone()).expect("configs are valid");
            let _ = alloc_audit::take_region_allocs();
            let report = sim.run();
            assert!(report.throughput() > 0.0, "replay must make progress");
            let allocs = alloc_audit::take_region_allocs();
            assert_eq!(
                allocs, 0,
                "round {round}, variant {i}: replayed measured region allocated {allocs} times"
            );
        }
    }
}
