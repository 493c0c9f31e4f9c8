//! Host-time benchmark of osoffload: end-to-end figures for two gated
//! workloads (plus `topology_points`, run on request) and, in a
//! separate traced run, per-layer costs and a host-time ledger.
//!
//! ```text
//! osoffload-hostbench --workload <fig4_sweep|topology_points|serve_mixed>
//!     --seed <n> --seconds <s> --trace <0|1>
//!     [--daemon-bin <path>] [--work-dir <dir>]
//! ```
//!
//! The human-readable table goes to standard output first; the last
//! line is one JSON object `{"correct","attempted","failed","metrics"}`
//! holding the end-to-end metrics (untraced) or the per-layer metrics
//! (traced). The exit code is 0 only when every correctness check
//! passed. See `README.md` next to this package.

#![forbid(unsafe_code)]

mod layers;
mod serve;
mod stats;
mod sweep;
mod topo;
mod trace;
mod util;

use stats::{result_line, Metric, Tally};
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics every workload reports (the JSON of an untraced
/// run), in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 4] = ["setup_s", "wall_s", "sim_minsn_per_s", "req_p50_ms"];

/// Per-layer metrics every traced run reports, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: [&str; 28] = [
    "workload.draw_ns_per_instr",
    "workload.tape_build_ms",
    "workload.tape_replay_ns_per_instr",
    "workload.tape_mb",
    "core.predict_learn_ns",
    "core.policy_decide_ns",
    "cpu.tlb_translate_ns",
    "cpu.branch_execute_ns",
    "mem.l1_hit_ns",
    "mem.l2_hit_ns",
    "mem.dram_ns",
    "mem.remote_ns",
    "system.dispatch_ns",
    "runner.archive_write_ms",
    "serve.parse_ms_31pt",
    "serve.parse_ms_62pt",
    "serve.parse_ms_124pt",
    "serve.lower_ms",
    "serve.cache_open_ms",
    "serve.prefill_ms",
    "serve.wal_append_ms",
    "obs.metrics_render_ms",
    "system.ns_per_instr",
    "system.l1_accesses_per_instr",
    "system.l2_accesses_per_instr",
    "system.dram_per_kinstr",
    "system.offloads_per_kinstr",
    "system.ledger_explained_frac",
];

/// Set-up of the simulation workloads is repeated at least this many
/// times, and until it has taken [`SETUP_MS`] in all; the median is
/// reported.
pub const SETUP_REPS: usize = 5;

/// Least total set-up time measured per run, ms.
pub const SETUP_MS: f64 = 500.0;

/// Builds (and drops) a simulation for every configuration: the part
/// of each point that precedes stepping, timed as set-up.
pub fn build_all<'a>(cfgs: impl IntoIterator<Item = &'a osoffload_system::SystemConfig>) {
    for c in cfgs {
        std::hint::black_box(osoffload_system::Simulation::new(c.clone()));
    }
}

/// Whether another round fits the budget: true while the time spent
/// plus half a typical round stays within `budget` seconds.
pub fn time_left(started: std::time::Instant, budget: f64, rounds_ms: &[f64]) -> bool {
    let typical = if rounds_ms.is_empty() {
        0.0
    } else {
        stats::median(rounds_ms) / 1e3
    };
    started.elapsed().as_secs_f64() + typical / 2.0 < budget
}

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 2] = ["fig4_sweep", "serve_mixed"];

/// Workloads that run on request but are not in `BENCHMARK.json`. Host
/// speed drift moves `topology_points` as much as the listed ones, and
/// each listed workload is one more set of runs that the drift can push
/// past a bound (README.md, "Why two workloads are gated").
pub const EXTRA_WORKLOADS: [&str; 1] = ["topology_points"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `osoffload` CLI binary that serves `serve_mixed`.
    pub daemon_bin: Option<PathBuf>,
    /// Scratch directory for archives, WALs and the span file.
    pub work_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: osoffload-hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--daemon-bin <path>] [--work-dir <dir>]",
        [&WORKLOADS[..], &EXTRA_WORKLOADS[..]].concat().join("|")
    )
}

/// Parses `--flag value` pairs.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon_bin = None;
    let mut work_dir = PathBuf::from(".bench_run");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}\n{}", usage());
        match flag.as_str() {
            "--workload"
                if WORKLOADS.contains(&value.as_str())
                    || EXTRA_WORKLOADS.contains(&value.as_str()) =>
            {
                workload = Some(value.clone())
            }
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--daemon-bin" => daemon_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        daemon_bin,
        work_dir,
    })
}

/// One line of the human-readable table.
#[derive(Debug, Clone)]
pub struct Row {
    name: String,
    text: String,
}

impl Row {
    /// A measured value.
    pub fn val(name: &str, value: f64, unit: &str) -> Row {
        Row::text(name, format!("{value:.4} {unit}"))
    }

    /// Free text.
    pub fn text(name: &str, text: String) -> Row {
        Row {
            name: name.to_string(),
            text,
        }
    }

    /// A metric the workload does not exercise, with the reason.
    pub fn na(name: &str, why: &str) -> Row {
        Row::text(name, format!("n/a ({why})"))
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    /// Attempted operations and failures.
    pub tally: Tally,
    /// Correctness failures.
    pub problems: Vec<String>,
    /// End-to-end metrics for the JSON line (untraced).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics for the JSON line (traced).
    pub layers: Vec<Metric>,
    /// The human-readable table.
    pub rows: Vec<Row>,
    /// Extra report text (ledger, self times, notes).
    pub notes: Vec<String>,
}

impl WorkloadRun {
    /// Records a correctness failure.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Adds report text.
    pub fn note(&mut self, what: impl Into<String>) {
        self.notes.push(what.into());
    }
}

/// Folds the per-layer suite and the ledger into a traced run's output.
pub fn finish_layers(
    out: &mut WorkloadRun,
    rep: layers::LayerReport,
    counts: &layers::Counts,
    ledger: &layers::Ledger,
    direct: &[(
        osoffload_system::SystemConfig,
        osoffload_system::SimReport,
        layers::Ledger,
    )],
    title: &str,
) {
    out.layers = rep.metrics.clone();
    out.layers.push(Metric::new(
        "system.ns_per_instr",
        ledger.measured_ns_per_instr,
        "ns",
    ));
    out.layers.extend(layers::count_metrics(counts));
    out.layers.push(Metric::new(
        "system.ledger_explained_frac",
        ledger.explained_frac(),
        "frac",
    ));
    let mut text = ledger.render(title);
    text.push_str(&format!(
        "  explained: {:.3} of measured host time\n",
        ledger.explained_frac()
    ));
    let fracs: Vec<f64> = direct.iter().map(|d| d.2.explained_frac()).collect();
    if !fracs.is_empty() {
        let lo = fracs.iter().cloned().fold(f64::MAX, f64::min);
        let hi = fracs.iter().cloned().fold(f64::MIN, f64::max);
        text.push_str(&format!(
            "  band over {} direct Simulation::run ledgers: {lo:.3} .. {hi:.3}\n",
            fracs.len()
        ));
    }
    out.note(text);
    out.notes.extend(rep.notes);
}

fn self_time_table(tr: &Tracer) -> String {
    let spans = tr.spans();
    let mut rows: Vec<(String, trace::LayerTime)> = trace::self_times(&spans).into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_time));
    let mut out = String::from("span self time (largest first)\n  span                      count    total ms     self ms\n");
    for (name, t) in rows {
        out.push_str(&format!(
            "  {:<24} {:>6} {:>11.3} {:>11.3}\n",
            name,
            t.count,
            t.total as f64 / 1e6,
            t.self_time as f64 / 1e6
        ));
    }
    out
}

fn run(args: &Args) -> Result<i32, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let tr = Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "fig4_sweep" => sweep::run(args, &tr)?,
        "topology_points" => topo::run(args, &tr)?,
        "serve_mixed" => serve::run(args, &tr)?,
        other => return Err(format!("unknown workload {other}")),
    };

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let mut problems = out.problems.clone();
    if names != expected {
        problems.push(format!("metric list {names:?} is not {expected:?}"));
    }

    println!(
        "== {} (seed {}, {} s, {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    for r in &out.rows {
        println!("  {:<30} {}", r.name, r.text);
    }
    if args.trace {
        for m in &out.layers {
            println!("  {:<34} {:.4} {}", m.name, m.value, m.unit);
        }
        println!("{}", self_time_table(&tr));
        let path = args.work_dir.join(format!("{}-spans.json", args.workload));
        std::fs::write(&path, trace::spans_json(&tr.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "attempted {} failed {} (failed_frac {:.4})",
        out.tally.attempted,
        out.tally.failures(),
        out.tally.failed_frac()
    );
    for p in &problems {
        println!("MISMATCH: {p}");
    }
    let correct = problems.is_empty() && out.tally.failures() == 0;
    let mut tally = out.tally;
    if !problems.is_empty() && tally.failures() == 0 {
        // A mismatch with no failed operation still fails the run.
        tally.record(stats::Outcome::Failed);
    }
    println!("{}", result_line(correct, &tally, metrics)?);
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv).and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("osoffload-hostbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_mixed");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert_eq!(a.work_dir, PathBuf::from(".bench_run"));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fig4_sweep --seed x --seconds 1 --trace 0",
            "--workload fig4_sweep --seed 1 --seconds 0 --trace 0",
            "--workload fig4_sweep --seed 1 --seconds 1 --trace 2",
            "--workload fig4_sweep --seed 1 --seconds 1",
            "--workload fig4_sweep --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .chain(WORKLOADS.iter())
            .chain(EXTRA_WORKLOADS.iter())
            .copied()
            .collect();
        for n in &all {
            assert!(stats::valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let b = osoffload_runner::jsonv::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            b.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), WORKLOADS);
    }
}
