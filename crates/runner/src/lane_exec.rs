//! Lane-pack scheduling for the parallel executor.
//!
//! A plain sweep evaluates every point with its own [`Simulation`],
//! regenerating the point's workload stream from scratch. When the
//! sweep's points share workload shapes (they almost always do — a grid
//! varies policy and latency, not the workload), the lane engine
//! ([`osoffload_system::lanes`]) can replay one recorded tape into many
//! co-resident simulations instead.
//!
//! This module is the executor-side glue. Points are grouped by
//! [`tape_compatible`] shape and chunked into *packs* of `--lanes`
//! points, listed shape-major. Workers claim whole packs off the
//! executor's shared index, so every pack has exactly one toucher and
//! no worker ever waits on another. The claiming worker runs the pack
//! once (one [`LaneStepper`] run, charged to the first member's
//! attempt) and each member then takes its report from the result; the
//! per-point body — retries, journal, callbacks, progress — is the
//! executor's usual one.
//!
//! Each worker thread keeps its own [`TapeRegistry`], so workers share
//! *nothing* across threads. Because claims advance shape-major, a
//! worker never returns to a shape once it has moved past it, and the
//! registry keeps only the latest shape's tape.
//!
//! Reports are bit-identical to [`Simulation::run`] per point, so rows,
//! archives, and journals are unchanged in content. Failure isolation
//! is preserved: if the lane run panics, the panic is caught and every
//! member falls back to its own scalar evaluation, which the normal
//! retry machinery then guards.

use crate::executor::RunnerOptions;
use crate::plan::Point;
use osoffload_system::{
    tape_compatible, LaneStepper, SimReport, Simulation, SystemConfig, TapeRegistry,
};
use std::cell::{OnceCell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default pack width when `--lanes=0` (auto). Four lanes captures
/// nearly all of the tape-sharing win on the sweep grids (generation is
/// amortised across packs by the per-worker registry, so wider packs
/// only grow the co-resident cache footprint).
pub(crate) const AUTO_LANES: usize = 4;

/// The pack width `opts` asks for (resolving `0` = auto).
pub(crate) fn effective_lanes(opts: &RunnerOptions) -> usize {
    if opts.lanes == 0 {
        AUTO_LANES
    } else {
        opts.lanes
    }
}

/// Whether this sweep runs on the lane path. Telemetry and profiling
/// attach observers to the simulation (a different constructor path),
/// fault injection and watchdog deadlines need per-point attempt
/// control, and `--lanes=1` explicitly requests the scalar path.
pub(crate) fn eligible(opts: &RunnerOptions) -> bool {
    effective_lanes(opts) > 1
        && !opts.telemetry
        && !opts.profile
        && opts.fault_plan.is_none()
        && opts.fault_seed.is_none()
        && opts.deadline_ms.is_none()
}

thread_local! {
    /// This worker's tape arena. Executor workers are scoped to one
    /// sweep, so the arena never outlives it.
    static REGISTRY: RefCell<TapeRegistry> = RefCell::new(TapeRegistry::new());
}

/// Groups `points` by workload shape and chunks each group into packs
/// of at most `width` member indices (plan order within a pack). Packs
/// are listed shape-major: all of one shape's packs, then the next's.
pub(crate) fn packs(points: &[Point], width: usize) -> Vec<Vec<usize>> {
    let width = width.max(1);
    // (representative index, member indices) per shape, preserving
    // plan order within each group.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for p in points {
        match groups
            .iter_mut()
            .find(|(rep, _)| tape_compatible(&points[*rep].config, &p.config))
        {
            Some((_, members)) => members.push(p.index),
            None => groups.push((p.index, vec![p.index])),
        }
    }
    groups
        .iter()
        .flat_map(|(_, members)| members.chunks(width).map(<[usize]>::to_vec))
        .collect()
}

/// One claimed pack, owned by the worker that claimed it.
pub(crate) struct PackRun<'a> {
    points: &'a [Point],
    /// The pack's still-unserved member indices, in pack order.
    members: Vec<usize>,
    /// The lane run's reports in member order, or `None` if it
    /// panicked. Filled by the first [`eval`](Self::eval).
    reports: OnceCell<Option<Vec<SimReport>>>,
}

impl<'a> PackRun<'a> {
    /// A pack of `members` (indices into `points`), not yet run.
    pub(crate) fn new(points: &'a [Point], members: &[usize]) -> Self {
        PackRun {
            points,
            members: members.to_vec(),
            reports: OnceCell::new(),
        }
    }

    /// Evaluates member `point`, running the whole pack on this
    /// worker's registry on first call. If the lane run panicked, the
    /// point is simulated on its own instead.
    pub(crate) fn eval(&self, point: &Point) -> SimReport {
        let reports = self.reports.get_or_init(|| {
            let configs: Vec<SystemConfig> = self
                .members
                .iter()
                .map(|&i| self.points[i].config.clone())
                .collect();
            catch_unwind(AssertUnwindSafe(|| {
                REGISTRY.with(|registry| {
                    LaneStepper::with_registry(configs, &mut registry.borrow_mut())
                        .unwrap_or_else(|e| panic!("invalid configuration: {e}"))
                        .run()
                })
            }))
            .ok()
        });
        match reports {
            Some(reports) => {
                let pos = self
                    .members
                    .iter()
                    .position(|&i| i == point.index)
                    .expect("point is a member of its pack");
                reports[pos].clone()
            }
            None => Simulation::new(point.config.clone()).run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExperimentPlan;
    use osoffload_system::PolicyKind;
    use osoffload_workload::Profile;

    fn cfg(threshold: u64, seed: u64) -> SystemConfig {
        SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold })
            .migration_latency(1_000)
            .instructions(20_000)
            .warmup(5_000)
            .seed(seed)
            .build()
    }

    fn plan_of(configs: Vec<SystemConfig>) -> ExperimentPlan {
        let mut plan = ExperimentPlan::new("lane-unit", 1);
        for (i, c) in configs.into_iter().enumerate() {
            plan.push_pinned(format!("p{i}"), c);
        }
        plan
    }

    #[test]
    fn packs_group_by_shape_and_chunk_by_width() {
        // Two shapes (seeds), 3 + 2 members, width 2 -> 2 + 1 packs,
        // shape-major; same-shape points share a pack even when not
        // adjacent in the plan.
        let plan = plan_of(vec![
            cfg(100, 1),
            cfg(200, 2),
            cfg(300, 1),
            cfg(400, 2),
            cfg(500, 1),
        ]);
        assert_eq!(
            packs(plan.points(), 2),
            vec![vec![0, 2], vec![4], vec![1, 3]]
        );
    }

    #[test]
    fn eval_serves_pack_reports_identical_to_scalar() {
        let plan = plan_of(vec![cfg(100, 7), cfg(5_000, 7), cfg(900, 7)]);
        let packs = packs(plan.points(), 4);
        assert_eq!(packs.len(), 1);
        let run = PackRun::new(plan.points(), &packs[0]);
        // Evaluate out of order: the pack runs on the first call.
        for &i in &[2usize, 0, 1] {
            let p = &plan.points()[i];
            assert_eq!(run.eval(p), Simulation::new(p.config.clone()).run());
        }
    }

    #[test]
    fn panicked_pack_falls_back_to_scalar() {
        let plan = plan_of(vec![cfg(100, 3), cfg(200, 3)]);
        let run = PackRun::new(plan.points(), &[0, 1]);
        run.reports.set(None).unwrap();
        let p = &plan.points()[1];
        assert_eq!(run.eval(p), Simulation::new(p.config.clone()).run());
    }
}
