//! `fig4_sweep`: the fig4 quick plan (124 points) through the runner's
//! default path — `run_driver` then `report::write_sweep`, exactly as
//! the `fig4` binary runs it — with one worker per hardware thread.
//! Tape sharing, lane packs and runner scheduling carry the load.

use crate::layers::{self, Counts, DrawMode, Inputs, Ledger};
use crate::stats::{Metric, Outcome, Summary, Tally};
use crate::trace::Tracer;
use crate::util::{cpu_ns, digest, mix, ms_since, nproc, peak_rss_mb, sample_indices};
use crate::{Args, Row, WorkloadRun, SETUP_MS, SETUP_REPS};
use osoffload_runner::{
    record_plan, report, run_driver, run_plan_hooked, ExecHooks, ExperimentPlan, PointResult,
    RunnerOptions, SweepResult,
};
use osoffload_system::experiments::{fig4_grid_with, Scale, FIG4_LATENCIES, FIG4_THRESHOLDS};
use osoffload_system::{Simulation, SystemConfig};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

/// Row digest of the fig4 quick sweep at workload seed 0 (the plan the
/// `fig4 quick` binary runs).
pub const RECORDED_DIGEST_SEED0: &str = "8b9f7dbccfc0b4f8";

/// The fig4 quick scale for a workload seed: seed 0 is the binary's
/// own master seed.
pub fn scale(seed: u64) -> Scale {
    let quick = Scale::quick();
    Scale {
        seed: quick.seed ^ seed,
        ..quick
    }
}

/// The fig4 quick plan for a workload seed.
pub fn plan(seed: u64) -> ExperimentPlan {
    let s = scale(seed);
    record_plan("fig4", s.seed, |ev| {
        fig4_grid_with(s, FIG4_LATENCIES, FIG4_THRESHOLDS, ev)
    })
}

/// Simulated instructions (warm-up + measured) of a set of configs.
pub fn sim_instr<'a>(cfgs: impl IntoIterator<Item = &'a SystemConfig>) -> u64 {
    cfgs.into_iter().map(|c| c.warmup + c.instructions).sum()
}

/// Tallies a sweep's rows and returns their digest.
pub fn check_rows(rows: &[PointResult], tally: &mut Tally) -> String {
    for r in rows {
        tally.record(match &r.outcome {
            osoffload_runner::Outcome::Ok(_) => Outcome::Ok,
            osoffload_runner::Outcome::Failed { .. } => Outcome::Failed,
            osoffload_runner::Outcome::TimedOut { .. } => Outcome::TimedOut,
        });
    }
    let stable: Vec<String> = rows.iter().map(PointResult::stable_json).collect();
    digest(stable.iter().map(String::as_str))
}

/// Compares a seeded sample of rows with direct `Simulation::run`s of
/// the same configurations; returns the mismatching point ids.
pub fn direct_check(
    plan: &ExperimentPlan,
    rows: &[PointResult],
    seed: u64,
    k: usize,
) -> Vec<String> {
    let mut bad = Vec::new();
    for i in sample_indices(plan.len(), k, mix(seed ^ 0x00D1_2EC7)) {
        let p = &plan.points()[i];
        let direct = Simulation::new(p.config.clone()).run().to_json();
        let same = match rows.get(i).map(|r| &r.outcome) {
            Some(osoffload_runner::Outcome::Ok(r)) => r.to_json() == direct,
            _ => false,
        };
        if !same {
            bad.push(p.id.clone());
        }
    }
    bad
}

/// Instructions materialised into tapes: one tape per distinct
/// (profile, seed, thread count) shape, as deep as its longest point.
fn tape_instr(plan: &ExperimentPlan) -> u64 {
    let mut depth: std::collections::BTreeMap<(String, u64, usize), u64> = Default::default();
    for p in plan.points() {
        let c = &p.config;
        let d = depth
            .entry((c.profile.name.to_string(), c.seed, c.thread_count()))
            .or_default();
        *d = (*d).max(c.warmup + c.instructions);
    }
    depth.values().sum()
}

/// Runs the workload.
pub fn run(args: &Args, tr: &Tracer) -> Result<WorkloadRun, String> {
    let s = scale(args.seed);
    let driver = |ev: osoffload_system::experiments::Evaluator<'_>| {
        fig4_grid_with(s, FIG4_LATENCIES, FIG4_THRESHOLDS, ev)
    };
    let out_dir = args.work_dir.join("fig4_sweep");
    let mut out = WorkloadRun::default();

    // Set-up: the record pass that turns the driver into a plan, and
    // building every point's simulation.
    let mut setup_ms = Vec::new();
    let mut plan = None;
    while setup_ms.len() < SETUP_REPS || setup_ms.iter().sum::<f64>() < SETUP_MS {
        let t = Instant::now();
        let p = record_plan("fig4", s.seed, driver);
        crate::build_all(p.points().iter().map(|p| &p.config));
        setup_ms.push(ms_since(t));
        plan = Some(p);
    }
    let plan = plan.expect("recorded");
    let workers = nproc();
    let opts = RunnerOptions {
        workers,
        quiet: true,
        out_dir: out_dir.clone(),
        ..RunnerOptions::default()
    };

    let budget = args.seconds;
    let started = Instant::now();
    let mut wall_ms = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut digests = BTreeSet::new();
    let mut last_rows = Vec::new();
    // Untraced sweeps: the end-to-end figures (at least one).
    while wall_ms.is_empty() || (!tr.enabled() && crate::time_left(started, budget, &wall_ms)) {
        let t = Instant::now();
        let c0 = cpu_ns();
        let (cells, sweep) = run_driver("fig4", s.seed, &opts, driver);
        let archived = report::write_sweep(&sweep, &out_dir);
        wall_ms.push(ms_since(t));
        cpu_ms.push((cpu_ns() - c0) / 1e6);
        if cells.is_none() {
            out.problem("fig4_sweep: some points failed; rows not assembled");
        }
        if let Err(e) = archived {
            out.problem(format!("fig4_sweep: archive not written: {e}"));
        }
        digests.insert(check_rows(&sweep.rows, &mut out.tally));
        last_rows = sweep.rows;
    }
    let untraced_ms = wall_ms.clone();

    if tr.enabled() {
        traced(
            args,
            tr,
            &plan,
            &opts,
            &last_rows,
            &mut digests,
            &untraced_ms,
            &mut out,
        )?;
    }

    // Correctness.
    if digests.len() != 1 {
        out.problem(format!("fig4_sweep: sweeps disagree: {digests:?}"));
    }
    let d = digests.iter().next().cloned().unwrap_or_default();
    if args.seed == 0 && d != RECORDED_DIGEST_SEED0 {
        out.problem(format!(
            "fig4_sweep: seed-0 digest {d} differs from the recorded {RECORDED_DIGEST_SEED0}"
        ));
    }
    let bad = direct_check(&plan, &last_rows, args.seed, 3);
    out.tally.merge(&direct_tally(3, bad.len()));
    if !bad.is_empty() {
        out.problem(format!("fig4_sweep: rows differ from direct runs: {bad:?}"));
    }
    out.note(format!("row digest {d}"));

    // End-to-end figures.
    let sweeps = Summary::of(&untraced_ms);
    let rss = peak_rss_mb(None)?;
    let instr = sim_instr(plan.points().iter().map(|p| &p.config)) as f64;
    let minsn: Vec<f64> = untraced_ms.iter().map(|ms| instr / ms / 1e3).collect();
    out.e2e = vec![
        Metric::new("setup_s", Summary::of(&setup_ms).p50 / 1e3, "s"),
        Metric::new("wall_s", sweeps.p50 / 1e3, "s"),
        Metric::new("sim_minsn_per_s", crate::stats::median(&minsn), "Minstr/s"),
        Metric::new("req_p50_ms", sweeps.p50, "ms"),
    ];
    let mut rows = vec![
        Row::val("setup_s", Summary::of(&setup_ms).p50 / 1e3, "s"),
        Row::text(
            "wall_s",
            format!(
                "{} per 124-point sweep; each {untraced_ms:.0?} ms, process CPU {cpu_ms:.0?} ms",
                sweeps.describe("ms")
            ),
        ),
        Row::val("sim_minsn_per_s", crate::stats::median(&minsn), "Minstr/s"),
        Row::na(
            "point_p50_ms",
            "lane-served points have no per-point host time",
        ),
        Row::na(
            "point_p90_ms",
            "lane-served points have no per-point host time",
        ),
        Row::text("peak_rss_mb", format!("{rss:.4} MiB (VmHWM of the run)")),
        Row::na("submit_hit_p50_ms", "serve_mixed only"),
        Row::na("submit_hit_p95_ms", "serve_mixed only"),
        Row::na("submit_miss_p50_ms", "serve_mixed only"),
        Row::na("submits_per_s", "serve_mixed only"),
        Row::val("failed_frac", out.tally.failed_frac(), "frac"),
    ];
    rows.append(&mut out.rows);
    out.rows = rows;
    Ok(out)
}

/// A tally of `n` direct-run comparisons of which `bad` mismatched.
pub fn direct_tally(n: usize, bad: usize) -> Tally {
    let mut t = Tally::default();
    for i in 0..n {
        t.record(if i < bad {
            Outcome::Failed
        } else {
            Outcome::Ok
        });
    }
    t
}

/// The traced sweep, the per-layer suite and the ledger.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    tr: &Tracer,
    plan: &ExperimentPlan,
    opts: &RunnerOptions,
    untraced_rows: &[PointResult],
    digests: &mut BTreeSet<String>,
    untraced_ms: &[f64],
    out: &mut WorkloadRun,
) -> Result<(), String> {
    let root = tr.begin("runner.sweep", None, 0);
    let done = Mutex::new(Vec::with_capacity(plan.len()));
    let on_point = |row: &PointResult, _cached: bool| {
        done.lock()
            .expect("completion list lock")
            .push((tr.now(), row.index));
    };
    let cpu0 = cpu_ns();
    let t = Instant::now();
    let start_ns = tr.at(t);
    let sweep: SweepResult = run_plan_hooked(
        plan,
        opts,
        ExecHooks {
            prefill: Vec::new(),
            on_point: Some(&on_point),
        },
    );
    let sweep_ms = ms_since(t);
    let cpu = cpu_ns() - cpu0;
    let ws = tr.begin("runner.archive_write", root, 0);
    report::write_sweep(&sweep, &opts.out_dir).map_err(|e| format!("write_sweep: {e}"))?;
    tr.end(ws);
    tr.end(root);
    for r in &sweep.rows {
        let s = start_ns + (r.start_ms * 1e6) as u64;
        tr.record(
            "runner.point",
            s,
            s + (r.wall_ms * 1e6) as u64,
            root,
            r.index as u64,
        );
    }
    digests.insert(check_rows(&sweep.rows, &mut out.tally));
    if sweep.rows.len() == untraced_rows.len()
        && sweep
            .rows
            .iter()
            .zip(untraced_rows)
            .any(|(a, b)| a.stable_json() != b.stable_json())
    {
        out.problem("fig4_sweep: traced and untraced rows differ");
    }

    // Runner figures from the completion timestamps.
    let mut done = done.into_inner().expect("completion list lock");
    done.sort_unstable();
    let end = done.last().map_or(start_ns, |d| d.0);
    let n = done.len();
    let straggler_from = done
        .get(n.saturating_sub(opts.workers))
        .map_or(end, |d| d.0);
    out.rows.push(Row::val(
        "runner.points_per_s",
        n as f64 / (sweep_ms / 1e3),
        "1/s",
    ));
    out.rows.push(Row::val(
        "runner.straggler_s",
        (end - straggler_from) as f64 / 1e9,
        "s",
    ));
    out.note(format!(
        "tracing overhead: traced sweep {sweep_ms:.1} ms vs untraced {:.1} ms ({:+.1} ms)",
        untraced_ms[0],
        sweep_ms - untraced_ms[0]
    ));

    // Per-layer suite on a seeded sample of the plan's HI points.
    let hi: Vec<usize> = (0..plan.len())
        .filter(|&i| !plan.points()[i].config.policy.is_baseline())
        .collect();
    let sample: Vec<SystemConfig> = sample_indices(hi.len(), 2, mix(args.seed ^ 0x1A7E))
        .into_iter()
        .map(|i| plan.points()[hi[i]].config.clone())
        .collect();
    let layers_span = tr.begin("layers", None, 0);
    let rep = layers::measure(
        &Inputs {
            sample: &sample,
            multi: &sample[0],
            request: plan,
            cached: plan,
            rows: &sweep.rows,
            wal: None,
            samples: plan.len(),
            dir: &args.work_dir,
        },
        tr,
        layers_span,
    )?;
    let direct = layers::direct_ledgers(&sample, &rep.costs, tr, layers_span);
    tr.end(layers_span);

    let mut counts = Counts::default();
    for (p, r) in plan.points().iter().zip(&sweep.rows) {
        if let osoffload_runner::Outcome::Ok(rep) = &r.outcome {
            counts.add(&p.config, rep);
        }
    }
    let ledger = Ledger::new(
        &rep.costs,
        &counts,
        DrawMode::Tape {
            tape_instr: tape_instr(plan),
        },
        cpu,
    );
    crate::finish_layers(
        out,
        rep,
        &counts,
        &ledger,
        &direct,
        "fig4_sweep (lane path, process CPU time)",
    );
    Ok(())
}
