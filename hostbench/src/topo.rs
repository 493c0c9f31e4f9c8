//! `topology_points`: distinct configurations, each with its own seed,
//! run one after another on one thread through `Simulation::run`. No
//! runner, no tapes, no lanes: live workload generation, the directory
//! and coherence path and `OsCorePool` dispatch carry the load.

use crate::layers::{self, Counts, DrawMode, Inputs, Ledger};
use crate::stats::{median, Metric, Outcome, Summary};
use crate::trace::Tracer;
use crate::util::{digest, mix, ms_since, peak_rss_mb, sample_indices};
use crate::{Args, Row, WorkloadRun};
use osoffload_runner::{report, ExperimentPlan, PointResult};
use osoffload_system::{DispatchPolicy, PolicyKind, SimReport, Simulation, SystemConfig};
use osoffload_workload::Profile;
use std::time::Instant;

/// Configurations per pass.
pub const POINTS: usize = 120;

/// Measured instructions per point (warm-up is half as many again).
pub const INSTRUCTIONS: u64 = 60_000;

/// Report digest of one pass at workload seed 0.
pub const RECORDED_DIGEST_SEED0: &str = "99e58deb085f59b9";

/// The pass's configurations for a workload seed. The grid is fixed, so
/// every seed asks the host for about the same work; the seed gives
/// each point its own workload seed. Every fifth point is a
/// single-user-core baseline and every fifth an HI point on one user
/// core; the rest are multi-core topologies cycling through 2–8 user
/// cores, 1–4 OS cores and the four dispatch policies. The three server
/// profiles rotate throughout.
pub fn configs(seed: u64) -> Vec<SystemConfig> {
    let servers = Profile::all_server();
    (0..POINTS)
        .map(|i| {
            let b = SystemConfig::builder()
                .profile(servers[i % servers.len()].clone())
                .instructions(INSTRUCTIONS)
                .warmup(INSTRUCTIONS / 2)
                .seed(mix(mix(seed) ^ i as u64));
            let hi = PolicyKind::HardwarePredictor {
                threshold: [0, 100, 500, 1_000, 5_000][(i / 5) % 5],
            };
            let latency = [100, 500, 1_000, 5_000][(i / 3) % 4];
            // Index among the multi-core points.
            let j = i / 5 * 3 + (i % 5).saturating_sub(2);
            match i % 5 {
                0 => b.policy(PolicyKind::Baseline),
                1 => b.policy(hi).migration_latency(latency),
                _ => b
                    .policy(hi)
                    .migration_latency(latency)
                    .user_cores(2 + j % 7)
                    .os_cores(1 + (j / 7) % 4)
                    .dispatch(DispatchPolicy::ALL[j % 4])
                    .os_cold_penalty(500),
            }
            .build()
        })
        .collect()
}

/// One timed pass over `cfgs`: per-point ms and reports (`None` for a
/// point that panicked).
fn pass(cfgs: &[SystemConfig], tr: &Tracer, id: u64) -> (Vec<f64>, Vec<Option<SimReport>>) {
    let root = tr.begin("topology.pass", None, id);
    let mut ms = Vec::with_capacity(cfgs.len());
    let mut reports = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter().enumerate() {
        let t = Instant::now();
        let point = tr.begin("system.point", root, i as u64);
        let result = std::panic::catch_unwind(|| {
            let b = tr.begin("system.build", point, i as u64);
            let sim = Simulation::new(cfg.clone());
            tr.end(b);
            let r = tr.begin("system.run", point, i as u64);
            let rep = sim.run();
            tr.end(r);
            rep
        });
        tr.end(point);
        ms.push(ms_since(t));
        reports.push(result.ok());
    }
    tr.end(root);
    (ms, reports)
}

/// A pass's time with each point at its median: `point_ms` holds whole
/// passes of `points` points each, in configuration order. A burst of
/// host noise lengthens a few points of one pass, and drops out here,
/// where it would move a whole pass's time.
pub fn median_pass_ms(point_ms: &[f64], points: usize) -> f64 {
    (0..points)
        .map(|i| {
            let runs: Vec<f64> = point_ms.iter().skip(i).step_by(points).copied().collect();
            median(&runs)
        })
        .sum()
}

fn reports_digest(reports: &[Option<SimReport>]) -> String {
    let texts: Vec<String> = reports
        .iter()
        .map(|r| {
            r.as_ref()
                .map_or_else(|| "failed".to_string(), SimReport::to_json)
        })
        .collect();
    digest(texts.iter().map(String::as_str))
}

/// Runs the workload.
pub fn run(args: &Args, tr: &Tracer) -> Result<WorkloadRun, String> {
    let mut out = WorkloadRun::default();
    // Set-up: generating and validating the configurations, and
    // building every point's simulation.
    let mut setup_ms = Vec::new();
    let mut cfgs = Vec::new();
    while setup_ms.len() < crate::SETUP_REPS || setup_ms.iter().sum::<f64>() < crate::SETUP_MS {
        let t = Instant::now();
        cfgs = configs(args.seed);
        for c in &cfgs {
            c.validate()
                .map_err(|e| format!("generated config invalid: {e}"))?;
        }
        crate::build_all(&cfgs);
        setup_ms.push(ms_since(t));
    }

    let started = Instant::now();
    let mut point_ms = Vec::new();
    let mut pass_ms = Vec::new();
    let mut first: Option<String> = None;
    let instr: u64 = cfgs.iter().map(|c| c.warmup + c.instructions).sum();
    let quiet = Tracer::new(false);
    while pass_ms.is_empty() || (!tr.enabled() && crate::time_left(started, args.seconds, &pass_ms))
    {
        let (ms, reports) = pass(&cfgs, &quiet, pass_ms.len() as u64);
        let total: f64 = ms.iter().sum();
        pass_ms.push(total);
        for r in &reports {
            out.tally.record(if r.is_some() {
                Outcome::Ok
            } else {
                Outcome::Failed
            });
        }
        point_ms.extend(ms);
        let d = reports_digest(&reports);
        match &first {
            None => first = Some(d),
            Some(d0) if *d0 != d => {
                out.problem(format!("topology_points: passes disagree ({d0} vs {d})"))
            }
            Some(_) => {}
        }
    }
    let d0 = first.expect("at least one pass");
    if args.seed == 0 && d0 != RECORDED_DIGEST_SEED0 {
        out.problem(format!(
            "topology_points: seed-0 digest {d0} differs from the recorded {RECORDED_DIGEST_SEED0}"
        ));
    }
    out.note(format!("report digest {d0}"));

    if tr.enabled() {
        let (ms, traced_reports) = pass(&cfgs, tr, 1);
        let traced_total: f64 = ms.iter().sum();
        if reports_digest(&traced_reports) != d0 {
            out.problem("topology_points: traced and untraced reports differ");
        }
        out.note(format!(
            "tracing overhead: traced pass {traced_total:.1} ms vs untraced {:.1} ms ({:+.1} ms)",
            pass_ms[0],
            traced_total - pass_ms[0]
        ));
        traced(args, tr, &cfgs, &traced_reports, &ms, &mut out)?;
    }

    let points = Summary::of(&point_ms);
    let rss = peak_rss_mb(None)?;
    let passes = Summary::of(&pass_ms);
    let p90 = crate::stats::percentile(&crate::stats::sorted(&point_ms), 90.0);
    let typical_ms = median_pass_ms(&point_ms, cfgs.len());
    let minsn = instr as f64 / typical_ms / 1e3;
    out.e2e = vec![
        Metric::new("setup_s", median(&setup_ms) / 1e3, "s"),
        Metric::new("wall_s", typical_ms / 1e3, "s"),
        Metric::new("sim_minsn_per_s", minsn, "Minstr/s"),
        Metric::new("req_p50_ms", points.p50, "ms"),
    ];
    let mut rows = vec![
        Row::val("setup_s", median(&setup_ms) / 1e3, "s"),
        Row::text(
            "wall_s",
            format!(
                "{:.4} s: each point at its median over {} passes; whole passes {}, each {pass_ms:.0?} ms",
                typical_ms / 1e3,
                pass_ms.len(),
                passes.describe("ms")
            ),
        ),
        Row::val("sim_minsn_per_s", minsn, "Minstr/s"),
        Row::val("point_p50_ms", points.p50, "ms"),
        Row::text(
            "point_p90_ms",
            format!("{p90:.4} ms; {}", points.describe("ms")),
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

/// The per-layer suite and the ledger over the traced pass.
fn traced(
    args: &Args,
    tr: &Tracer,
    cfgs: &[SystemConfig],
    reports: &[Option<SimReport>],
    point_ms: &[f64],
    out: &mut WorkloadRun,
) -> Result<(), String> {
    let multi_cores: Vec<usize> = (0..cfgs.len())
        .filter(|&i| cfgs[i].user_cores >= 4)
        .collect();
    let pick = sample_indices(multi_cores.len(), 2, mix(args.seed ^ 0x1A7E));
    let sample: Vec<SystemConfig> = pick.iter().map(|&i| cfgs[multi_cores[i]].clone()).collect();

    // The pass as a plan with its rows, for the archive and cache
    // layers; the request layers parse the serve hit plan.
    let mut plan = ExperimentPlan::new("topology", args.seed);
    let mut rows = Vec::new();
    for (i, (cfg, r)) in cfgs.iter().zip(reports).enumerate() {
        let id = format!("{i:04}/{}", cfg.profile.name);
        plan.push_pinned(id.clone(), cfg.clone());
        if let Some(r) = r {
            rows.push(PointResult {
                index: i,
                id,
                seed: cfg.seed,
                config_json: report::config_json(cfg),
                outcome: osoffload_runner::Outcome::Ok(Box::new(r.clone())),
                wall_ms: point_ms[i],
                start_ms: 0.0,
                worker: 0,
                attempts: 1,
                attempt_ms: vec![point_ms[i]],
                injected_faults: 0,
                restored: None,
            });
        }
    }
    let hit_plan = crate::sweep::plan(args.seed);
    let layers_span = tr.begin("layers", None, 0);
    let rep = layers::measure(
        &Inputs {
            sample: &sample,
            multi: &sample[0],
            request: &hit_plan,
            cached: &plan,
            rows: &rows,
            wal: None,
            samples: cfgs.len(),
            dir: &args.work_dir,
        },
        tr,
        layers_span,
    )?;
    let direct = layers::direct_ledgers(&sample, &rep.costs, tr, layers_span);
    tr.end(layers_span);

    let mut counts = Counts::default();
    let mut fracs = Vec::new();
    for ((cfg, r), ms) in cfgs.iter().zip(reports).zip(point_ms) {
        if let Some(r) = r {
            counts.add(cfg, r);
            let mut one = Counts::default();
            one.add(cfg, r);
            fracs.push(Ledger::new(&rep.costs, &one, DrawMode::Live, ms * 1e6).explained_frac());
        }
    }
    let measured_ns: f64 = point_ms.iter().sum::<f64>() * 1e6;
    let ledger = Ledger::new(&rep.costs, &counts, DrawMode::Live, measured_ns);
    let fs = crate::stats::sorted(&fracs);
    out.note(format!(
        "per-point explained fraction over {} points: min {:.3}, p10 {:.3}, median {:.3}, p90 {:.3}, max {:.3}",
        fs.len(),
        fs[0],
        crate::stats::percentile(&fs, 10.0),
        median(&fs),
        crate::stats::percentile(&fs, 90.0),
        fs[fs.len() - 1]
    ));
    crate::finish_layers(
        out,
        rep,
        &counts,
        &ledger,
        &direct,
        "topology_points (live draw, point wall time)",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::median_pass_ms;

    #[test]
    fn median_pass_takes_each_point_at_its_median() {
        // Three passes of two points; the second pass has a burst on
        // point 0 and the third on point 1.
        let ms = [10.0, 20.0, 50.0, 21.0, 11.0, 90.0];
        assert_eq!(median_pass_ms(&ms, 2), 11.0 + 21.0);
        // One pass is its own median.
        assert_eq!(median_pass_ms(&ms[..2], 2), 30.0);
    }
}
