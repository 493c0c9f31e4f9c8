//! Tape replay: one generated workload stream shared by every
//! simulation of the same workload shape.
//!
//! Every figure/table sweep evaluates the *same* workload shape
//! (profile, phase schedule, thread count, seed) under many policy ×
//! latency × threshold points. A live simulation regenerates and
//! re-draws the whole instruction stream for each point. A
//! [`TapeRegistry`] instead records the stream once into a
//! [`WorkloadTape`] and hands it to each same-shape [`Simulation`] it
//! builds, whose threads then replay packed 17-byte records instead of
//! a chain of RNG and sampler draws. Each simulation still owns its
//! complete architectural state, so its report is **bit-identical** to
//! a live [`Simulation::run`] of the same configuration
//! (`tests/bit_identity.rs` and fuzz oracle 8 prove it).
//!
//! Recording costs about as much per instruction as drawing live, so a
//! tape pays only when it is replayed more than once: callers build
//! simulations from a registry only for shapes that several points
//! share (the runner's multi-point runs), and build a lone point live.
//!
//! [`WorkloadTape`]: osoffload_workload::WorkloadTape

use crate::config::{ConfigError, SystemConfig};
use crate::simulation::Simulation;
use osoffload_workload::{SharedTape, WorkloadTape};

/// Whether two configurations draw bit-identical workload streams and
/// can therefore share one [`WorkloadTape`].
///
/// The stream depends only on the profile, the phase schedule, the
/// thread count, and the seed — never on policy, topology, latency, or
/// the memory system, because every policy path executes each drawn
/// segment to exactly its drawn length.
pub fn tape_compatible(a: &SystemConfig, b: &SystemConfig) -> bool {
    a.seed == b.seed
        && a.thread_count() == b.thread_count()
        && a.profile == b.profile
        && a.phases == b.phases
}

/// A cache of the most recent workload shape's tape, and the only way
/// to build a tape-backed [`Simulation`].
///
/// Build the simulations of one shape back to back from one registry
/// and they all replay the same tape, generated once. Memory stays
/// bounded to a single tape: building a new shape's tape drops the
/// previous one.
///
/// # Examples
///
/// ```
/// use osoffload_system::{PolicyKind, Simulation, SystemConfig, TapeRegistry};
/// use osoffload_workload::Profile;
///
/// let cfg = |threshold| {
///     SystemConfig::builder()
///         .profile(Profile::apache())
///         .policy(PolicyKind::HardwarePredictor { threshold })
///         .migration_latency(1_000)
///         .instructions(20_000)
///         .warmup(5_000)
///         .seed(42)
///         .build()
/// };
/// let mut tapes = TapeRegistry::new();
/// for threshold in [100, 5_000] {
///     let replayed = tapes.simulation(cfg(threshold)).unwrap().run();
///     assert_eq!(replayed, Simulation::new(cfg(threshold)).run());
/// }
/// ```
#[derive(Default)]
pub struct TapeRegistry {
    latest: Option<(SystemConfig, SharedTape)>,
}

impl TapeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A simulation of `cfg` whose threads replay the tape for `cfg`'s
    /// workload shape, building that tape (and dropping the cached one)
    /// when the shape differs from the cached tape's. Rejects a
    /// configuration that fails [`SystemConfig::validate`].
    pub fn simulation(&mut self, cfg: SystemConfig) -> Result<Simulation, ConfigError> {
        cfg.validate()?;
        let tape = self.tape_for(&cfg);
        Ok(Simulation::build_on_tape(cfg, tape))
    }

    /// The tape for `cfg`'s workload shape.
    fn tape_for(&mut self, cfg: &SystemConfig) -> SharedTape {
        match &self.latest {
            Some((rep, tape)) if tape_compatible(rep, cfg) => tape.clone(),
            _ => {
                let tape =
                    WorkloadTape::new(&cfg.profile, &cfg.phases, cfg.thread_count(), cfg.seed)
                        .into_shared();
                self.latest = Some((cfg.clone(), tape.clone()));
                tape
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use osoffload_workload::Profile;
    use std::rc::Rc;

    fn cfg(threshold: u64, seed: u64) -> SystemConfig {
        SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold })
            .instructions(10_000)
            .seed(seed)
            .build()
    }

    #[test]
    fn registry_keeps_only_the_latest_shape() {
        let mut registry = TapeRegistry::new();
        let a = registry.tape_for(&cfg(100, 1));
        let b = registry.tape_for(&cfg(100, 2));
        let (rep, held) = registry.latest.as_ref().expect("a tape is cached");
        assert!(tape_compatible(rep, &cfg(100, 2)));
        assert!(Rc::ptr_eq(held, &b));
        assert_eq!(Rc::strong_count(&a), 1, "shape A's tape was dropped");
        // Another point of shape B replays the cached tape.
        assert!(Rc::ptr_eq(&registry.tape_for(&cfg(900, 2)), &b));
    }

    #[test]
    fn registry_rejects_an_invalid_configuration() {
        let mut bad = cfg(100, 1);
        bad.user_cores = 0;
        assert!(TapeRegistry::new().simulation(bad).is_err());
    }
}
