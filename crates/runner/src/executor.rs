//! Parallel plan executor: scoped worker threads pulling points (on the
//! lane path, whole lane packs) off a shared index, with per-point
//! panic isolation, watchdog deadlines, retry with deterministic
//! backoff, fault injection, and a write-ahead results journal for
//! crash-safe resume.

use crate::fault::{FaultConfig, FaultPlan, InjectedPanic, PointFaults};
use crate::journal::{self, Journal, JournalHeader};
use crate::plan::{ExperimentPlan, Point};
use crate::progress::Progress;
use crate::report::config_json;
use osoffload_sim::{CancelToken, Cancelled, Rng64};
use osoffload_system::{SimReport, Simulation};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Knobs of a sweep execution.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads; `0` = one per available hardware thread, capped
    /// at the number of points.
    pub workers: usize,
    /// How many times a panicking or timed-out point is re-evaluated
    /// before being recorded as failed.
    pub retries: u32,
    /// Suppresses the stderr progress reporter.
    pub quiet: bool,
    /// Directory the JSON results file is written into.
    pub out_dir: PathBuf,
    /// Records full telemetry for every point and writes per-point
    /// trace/metrics files (see [`crate::report::write_runner_telemetry`]).
    pub telemetry: bool,
    /// Where telemetry files go; defaults to `<out_dir>/telemetry`.
    pub trace_out: Option<PathBuf>,
    /// Write-ahead journal path: every completed point is appended as
    /// one fsynced line before it is acknowledged.
    pub journal: Option<PathBuf>,
    /// Resume path: journaled points are restored verbatim and skipped;
    /// new completions append to the same file. A missing file starts a
    /// fresh journal there, so the flag is safe on the first run too.
    pub resume: Option<PathBuf>,
    /// With `resume`: re-attempt journaled failed/timed-out rows
    /// instead of carrying them forward into the resumed archive.
    pub resume_retry_failed: bool,
    /// Runs every point with the cycle-attribution profiler and writes
    /// `<profile_dir>/<plan>/<id>.{collapsed,attribution.txt}`.
    /// Profiling is observational, so result rows stay bit-identical
    /// to an unprofiled sweep of the same plan.
    pub profile: bool,
    /// Per-point soft deadline in milliseconds; a worker watchdog
    /// cancels attempts that exceed it and the point is recorded as
    /// [`Outcome::TimedOut`]. `None` disables the watchdog entirely.
    pub deadline_ms: Option<u64>,
    /// Base retry backoff in milliseconds (doubled per retry, with
    /// deterministic jitter — see [`backoff_delay_ms`]). `0` restores
    /// immediate re-runs.
    pub backoff_ms: u64,
    /// Zeroes the non-deterministic row fields (`wall_ms`, `start_ms`,
    /// `worker`, `attempt_ms`) so two runs of the same plan produce
    /// byte-identical archives — the mode the crash-recovery proofs use.
    pub canonical: bool,
    /// Derives a [`FaultPlan`] from this seed (default rates) and
    /// injects it into the sweep — chaos testing from the CLI.
    pub fault_seed: Option<u64>,
    /// An explicit fault plan (takes precedence over `fault_seed`).
    pub fault_plan: Option<FaultPlan>,
    /// Lane-pack width for the lane-parallel sweep engine: `0` = auto
    /// (currently 4), `1` forces the scalar per-point path, `N > 1`
    /// packs up to N tape-compatible points per [`LaneStepper`] run.
    /// Reports are bit-identical either way; telemetry, profiling,
    /// fault-injection, and deadline sweeps always take the scalar
    /// path.
    ///
    /// [`LaneStepper`]: osoffload_system::LaneStepper
    pub lanes: usize,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            workers: 0,
            retries: 0,
            quiet: false,
            out_dir: PathBuf::from("results"),
            telemetry: false,
            trace_out: None,
            journal: None,
            resume: None,
            resume_retry_failed: false,
            profile: false,
            deadline_ms: None,
            backoff_ms: 25,
            canonical: false,
            fault_seed: None,
            fault_plan: None,
            lanes: 0,
        }
    }
}

impl RunnerOptions {
    /// Splits recognised runner flags out of an argument list, returning
    /// the parsed options and the untouched remainder.
    ///
    /// Recognised: `--workers=N` (or `-jN`), `--retries=N`, `--quiet`,
    /// `--out=DIR`, `--telemetry`, `--trace-out=DIR` (implies
    /// `--telemetry`), `--profile`, `--journal=FILE`, `--resume=FILE`,
    /// `--resume-retry-failed`, `--deadline-ms=N`, `--backoff-ms=N`,
    /// `--canonical`, `--inject-faults=SEED`, and `--lanes=N` (0 =
    /// auto). Malformed values abort with a message on stderr.
    pub fn parse_flags(args: &[String]) -> (RunnerOptions, Vec<String>) {
        let mut opts = RunnerOptions::default();
        let mut rest = Vec::new();
        let parse_num = |flag: &str, v: &str| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {flag}: {v:?}");
                std::process::exit(2);
            })
        };
        let parse_u64 = |flag: &str, v: &str| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {flag}: {v:?}");
                std::process::exit(2);
            })
        };
        for arg in args {
            if let Some(v) = arg.strip_prefix("--workers=") {
                opts.workers = parse_num("--workers", v);
            } else if let Some(v) = arg.strip_prefix("-j") {
                opts.workers = parse_num("-j", v);
            } else if let Some(v) = arg.strip_prefix("--retries=") {
                opts.retries = parse_num("--retries", v) as u32;
            } else if arg == "--quiet" {
                opts.quiet = true;
            } else if let Some(v) = arg.strip_prefix("--out=") {
                opts.out_dir = PathBuf::from(v);
            } else if arg == "--telemetry" {
                opts.telemetry = true;
            } else if let Some(v) = arg.strip_prefix("--trace-out=") {
                opts.telemetry = true;
                opts.trace_out = Some(PathBuf::from(v));
            } else if let Some(v) = arg.strip_prefix("--journal=") {
                opts.journal = Some(PathBuf::from(v));
            } else if let Some(v) = arg.strip_prefix("--resume=") {
                opts.resume = Some(PathBuf::from(v));
            } else if arg == "--resume-retry-failed" {
                opts.resume_retry_failed = true;
            } else if arg == "--profile" {
                opts.profile = true;
            } else if let Some(v) = arg.strip_prefix("--deadline-ms=") {
                opts.deadline_ms = Some(parse_u64("--deadline-ms", v));
            } else if let Some(v) = arg.strip_prefix("--backoff-ms=") {
                opts.backoff_ms = parse_u64("--backoff-ms", v);
            } else if arg == "--canonical" {
                opts.canonical = true;
            } else if let Some(v) = arg.strip_prefix("--inject-faults=") {
                opts.fault_seed = Some(parse_u64("--inject-faults", v));
            } else if let Some(v) = arg.strip_prefix("--lanes=") {
                opts.lanes = parse_num("--lanes", v);
            } else {
                rest.push(arg.clone());
            }
        }
        (opts, rest)
    }

    fn effective_workers(&self, points: usize) -> usize {
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        let w = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        w.clamp(1, points.max(1))
    }

    /// The directory per-point telemetry files are written into.
    pub fn telemetry_dir(&self) -> PathBuf {
        self.trace_out
            .clone()
            .unwrap_or_else(|| self.out_dir.join("telemetry"))
    }

    /// The directory per-point cycle-attribution profiles are written
    /// into.
    pub fn profile_dir(&self) -> PathBuf {
        self.out_dir.join("profile")
    }
}

/// What happened to one point.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The evaluation completed.
    Ok(Box<SimReport>),
    /// Every attempt panicked; the sweep carried on without it.
    Failed {
        /// The final panic's message.
        panic: String,
        /// Evaluations attempted (1 + retries).
        attempts: u32,
    },
    /// Every attempt exceeded the watchdog deadline; the sweep carried
    /// on without it.
    TimedOut {
        /// The soft deadline that expired, in milliseconds.
        deadline_ms: u64,
        /// Evaluations attempted (1 + retries).
        attempts: u32,
    },
}

/// One row of a sweep's results.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Plan-order index.
    pub index: usize,
    /// The point's identifier.
    pub id: String,
    /// The seed the run used.
    pub seed: u64,
    /// JSON rendering of the point's configuration (stable key order).
    pub config_json: String,
    /// Report or failure.
    pub outcome: Outcome,
    /// Wall-clock milliseconds the evaluation took (non-deterministic).
    pub wall_ms: f64,
    /// Milliseconds after sweep start the evaluation began
    /// (non-deterministic; self-profiling timeline).
    pub start_ms: f64,
    /// Which worker ran it (non-deterministic).
    pub worker: usize,
    /// Evaluations performed, counting retries (1 = first try worked).
    pub attempts: u32,
    /// Wall-clock milliseconds of each attempt, oldest first
    /// (non-deterministic; lets failed points be diagnosed from the
    /// archive alone).
    pub attempt_ms: Vec<f64>,
    /// Faults the active [`FaultPlan`] scheduled for this point (0
    /// without fault injection).
    pub injected_faults: u32,
    /// When the row was restored from a results journal, the verbatim
    /// stable-row text as originally archived. [`stable_json`]
    /// (Self::stable_json) returns it unchanged, which is what makes a
    /// resumed archive byte-identical to an uninterrupted one.
    pub restored: Option<String>,
}

impl PointResult {
    /// Whether the point completed.
    pub fn is_ok(&self) -> bool {
        matches!(self.outcome, Outcome::Ok(_))
    }

    /// FNV-1a digest of the point's configuration JSON, archived with
    /// failed rows so any failure is reproducible from the archive
    /// alone.
    pub fn config_digest(&self) -> String {
        format!("{:016x}", journal::fnv1a64(self.config_json.as_bytes()))
    }

    /// The deterministic portion of the row as JSON: everything except
    /// the wall-clock timings and worker assignment. Two sweeps of the
    /// same plan (and fault plan) agree on this string for every row,
    /// whatever their worker counts.
    pub fn stable_json(&self) -> String {
        if let Some(verbatim) = &self.restored {
            return verbatim.clone();
        }
        let mut o = format!(
            "{{\"index\":{},\"id\":\"{}\",\"seed\":{},\"config\":{}",
            self.index,
            crate::report::json_escape(&self.id),
            self.seed,
            self.config_json
        );
        match &self.outcome {
            Outcome::Ok(r) => {
                o.push_str(",\"status\":\"ok\",\"report\":");
                o.push_str(&r.to_json());
            }
            Outcome::Failed { panic, attempts } => {
                o.push_str(&format!(
                    ",\"status\":\"failed\",\"panic\":\"{}\",\"attempts\":{},\"config_digest\":\"{}\"",
                    crate::report::json_escape(panic),
                    attempts,
                    self.config_digest()
                ));
            }
            Outcome::TimedOut {
                deadline_ms,
                attempts,
            } => {
                o.push_str(&format!(
                    ",\"status\":\"timeout\",\"deadline_ms\":{},\"attempts\":{},\"config_digest\":\"{}\"",
                    deadline_ms,
                    attempts,
                    self.config_digest()
                ));
            }
        }
        o.push('}');
        o
    }

    /// The full row as JSON, adding the non-deterministic `wall_ms`,
    /// `start_ms`, `worker`, `attempts`, `injected_faults`, and
    /// `attempt_ms` fields to [`stable_json`](Self::stable_json).
    pub fn row_json(&self) -> String {
        let stable = self.stable_json();
        let attempt_ms: Vec<String> = self
            .attempt_ms
            .iter()
            .map(|ms| format!("{ms:.3}"))
            .collect();
        format!(
            "{},\"wall_ms\":{:.3},\"start_ms\":{:.3},\"worker\":{},\"attempts\":{},\
             \"injected_faults\":{},\"attempt_ms\":[{}]}}",
            &stable[..stable.len() - 1],
            self.wall_ms,
            self.start_ms,
            self.worker,
            self.attempts,
            self.injected_faults,
            attempt_ms.join(",")
        )
    }
}

/// The outcome of executing a whole plan.
#[derive(Debug)]
pub struct SweepResult {
    /// Plan name.
    pub name: String,
    /// Plan master seed.
    pub master_seed: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// Per-point rows, in plan order.
    pub rows: Vec<PointResult>,
}

/// Self-profiling summary of one worker thread's share of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// Worker index.
    pub worker: usize,
    /// Points this worker evaluated.
    pub points: usize,
    /// Milliseconds the worker spent evaluating points.
    pub busy_ms: f64,
    /// Extra evaluations due to retries.
    pub retries: u64,
    /// Points this worker recorded as timed out.
    pub timeouts: u64,
    /// `busy_ms` over the sweep's wall-clock time.
    pub utilization: f64,
}

impl SweepResult {
    /// The rows whose evaluation failed (panicked or timed out).
    pub fn failures(&self) -> impl Iterator<Item = &PointResult> {
        self.rows.iter().filter(|r| !r.is_ok())
    }

    /// The rows recorded as timed out by the worker watchdog.
    pub fn timeouts(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::TimedOut { .. }))
            .count()
    }

    /// Total fault-plan injections scheduled across the sweep.
    pub fn injected_faults(&self) -> u64 {
        self.rows.iter().map(|r| u64::from(r.injected_faults)).sum()
    }

    /// Per-worker self-profiling: how the sweep's wall-clock time was
    /// spent (derived from the per-point timings).
    pub fn worker_profiles(&self) -> Vec<WorkerProfile> {
        let mut profiles: Vec<WorkerProfile> = (0..self.workers)
            .map(|worker| WorkerProfile {
                worker,
                points: 0,
                busy_ms: 0.0,
                retries: 0,
                timeouts: 0,
                utilization: 0.0,
            })
            .collect();
        for row in &self.rows {
            if let Some(p) = profiles.get_mut(row.worker) {
                p.points += 1;
                p.busy_ms += row.wall_ms;
                p.retries += u64::from(row.attempts.saturating_sub(1));
                p.timeouts += u64::from(matches!(row.outcome, Outcome::TimedOut { .. }));
            }
        }
        if self.wall_ms > 0.0 {
            for p in &mut profiles {
                p.utilization = (p.busy_ms / self.wall_ms).min(1.0);
            }
        }
        profiles
    }

    /// Total queue wait: time points spent claimed-but-idle is not
    /// tracked separately, so this reports the complement of busy time —
    /// worker-milliseconds not spent evaluating.
    pub fn idle_ms(&self) -> f64 {
        let busy: f64 = self.rows.iter().map(|r| r.wall_ms).sum();
        (self.wall_ms * self.workers as f64 - busy).max(0.0)
    }

    /// The reports in plan order, or `None` if any point failed.
    pub fn reports(&self) -> Option<Vec<&SimReport>> {
        self.rows
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Ok(rep) => Some(rep.as_ref()),
                Outcome::Failed { .. } | Outcome::TimedOut { .. } => None,
            })
            .collect()
    }

    /// The whole sweep as one JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(|r| r.row_json()).collect();
        format!(
            "{{\"experiment\":\"{}\",\"master_seed\":{},\"workers\":{},\"points\":{},\"failed\":{},\"timeouts\":{},\"wall_ms\":{:.3},\"rows\":[{}]}}",
            crate::report::json_escape(&self.name),
            self.master_seed,
            self.workers,
            self.rows.len(),
            self.failures().count(),
            self.timeouts(),
            self.wall_ms,
            rows.join(",")
        )
    }
}

/// The deterministic backoff before retry `retry` (1-based): `base_ms ×
/// 2^(retry-1)`, capped at two seconds, scaled by a jitter factor in
/// `[0.5, 1.5)` drawn from the point's seed and the retry number. Pure,
/// so a replayed campaign sleeps the identical schedule.
pub fn backoff_delay_ms(base_ms: u64, retry: u32, seed: u64) -> u64 {
    if base_ms == 0 || retry == 0 {
        return 0;
    }
    let exp = base_ms
        .saturating_mul(1u64 << u64::from((retry - 1).min(16)))
        .min(2_000);
    let mut rng = Rng64::seed_from(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(retry)));
    let jitter = 0.5 + rng.next_f64();
    ((exp as f64) * jitter) as u64
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        p.message()
    } else if payload.downcast_ref::<Cancelled>().is_some() {
        "cancelled by the worker watchdog".to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Silences the default panic printer for the payloads the runner
/// itself schedules (injected faults, watchdog cancellations), which
/// would otherwise spam stderr on every planned recovery. Genuine
/// panics keep the previous hook's full output. Installed once per
/// process, only when fault injection or a deadline is active.
fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_some()
                || info.payload().downcast_ref::<Cancelled>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// Makes a point id safe to use as a file-name stem.
pub(crate) fn sanitize_id(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Pads and aligns its contents to a 64-byte cache line. The executor's
/// hot shared state — the claim index, the watchdog arm slots, the
/// shutdown flags — is declared together, so without padding it lands
/// on one or two lines and every `fetch_add` on the claim index
/// invalidates the line a sibling worker (or the watchdog poller) is
/// reading: classic false sharing. Padded, each counter owns its line.
#[repr(align(64))]
struct CachePadded<T>(T);

#[cfg(test)]
thread_local! {
    /// Threads [`execute`] has spawned from this thread, so tests can
    /// prove a fully served sweep spawns none.
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Per-completion callback for [`ExecHooks`]: the finished row, plus
/// `true` when it was served without evaluation (prefilled or
/// journal-restored) and `false` when freshly computed this run.
pub type PointCallback<'a> = &'a (dyn Fn(&PointResult, bool) + Sync);

/// Embedding hooks for [`run_plan_hooked`]: rows the caller already
/// has (e.g. `osoffload serve`'s digest-keyed cache hits) plus a
/// per-completion callback, so a scheduling layer can observe hit/miss
/// per point while the sweep runs.
#[derive(Default)]
pub struct ExecHooks<'a> {
    /// Rows to install before any worker starts, indexed by plan
    /// position (`prefill[i]` fills point `i`; `None` entries and
    /// entries beyond the plan length are ignored). A prefilled point
    /// is never evaluated — exactly like a journal-restored one — and
    /// when every point is served this way no thread is spawned.
    pub prefill: Vec<Option<PointResult>>,
    /// Called once per row as it becomes final, from whichever thread
    /// produced it.
    pub on_point: Option<PointCallback<'a>>,
}

impl std::fmt::Debug for ExecHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecHooks")
            .field(
                "prefill",
                &self.prefill.iter().filter(|p| p.is_some()).count(),
            )
            .field("on_point", &self.on_point.is_some())
            .finish()
    }
}

impl ExecHooks<'_> {
    fn has_prefill(&self) -> bool {
        self.prefill.iter().any(Option::is_some)
    }
}

/// Per-attempt context handed to [`run_plan_ctx`] evaluators.
#[derive(Debug, Clone)]
pub struct EvalCtx {
    /// The attempt number (1 = first try).
    pub attempt: u32,
    /// Cancellation token the worker watchdog raises when the attempt
    /// outlives its deadline; install it into the simulation (see
    /// [`Simulation::with_cancel`]) so hung points can be reclaimed.
    pub cancel: CancelToken,
}

/// Executes `plan` with the default evaluator (simulate the point's
/// configuration).
///
/// With `opts.telemetry` set, every point runs under full telemetry and
/// writes `<telemetry_dir>/<plan>/<id>.{trace.json,metrics.csv,metrics.json}`.
/// With `opts.profile` set, every point additionally runs the
/// cycle-attribution profiler and writes
/// `<profile_dir>/<plan>/<id>.{collapsed,attribution.txt}`. Both layers
/// are observational, so the result rows stay bit-identical to a plain
/// sweep of the same plan.
pub fn run_plan(plan: &ExperimentPlan, opts: &RunnerOptions) -> SweepResult {
    run_plan_hooked(plan, opts, ExecHooks::default())
}

/// [`run_plan`] with embedding hooks: `hooks.prefill` rows are
/// installed before any worker starts (those points are never
/// evaluated), and `hooks.on_point` observes every row as it becomes
/// final. Prefilled sweeps take the scalar path — lane packs would
/// straddle already-served points — but rows are bit-identical either
/// way, so a cached archive still compares bytes-equal to a lane run.
pub fn run_plan_hooked(
    plan: &ExperimentPlan,
    opts: &RunnerOptions,
    hooks: ExecHooks<'_>,
) -> SweepResult {
    // The cancellation token is only installed when a watchdog can
    // raise it, keeping deadline-free runs on the token-free path.
    let armed = opts.deadline_ms.is_some();
    if !hooks.has_prefill() && crate::lane_exec::eligible(opts) {
        // Lane path: workers claim whole lane packs (see `lane_exec`),
        // each report bit-identical to the scalar evaluation below.
        let points = plan.points();
        let packs = crate::lane_exec::packs(points, crate::lane_exec::effective_lanes(opts));
        return execute(
            plan,
            opts,
            hooks,
            Claims::Packs(&packs),
            |members| crate::lane_exec::PackRun::new(points, members),
            |p, _ctx, pack| pack.eval(p),
        );
    }
    if !opts.telemetry && !opts.profile {
        return run_plan_ctx_hooked(plan, opts, hooks, |p, ctx| {
            let sim = Simulation::new(p.config.clone());
            let sim = if armed {
                sim.with_cancel(ctx.cancel.clone())
            } else {
                sim
            };
            sim.run()
        });
    }
    let telemetry_dir = opts.telemetry_dir().join(plan.name());
    let profile_dir = opts.profile_dir().join(plan.name());
    run_plan_ctx_hooked(plan, opts, hooks, |p, ctx| {
        let mut cfg = p.config.clone();
        if opts.telemetry {
            cfg.telemetry = osoffload_obs::TelemetryMode::Full;
        }
        cfg.profiling = opts.profile;
        let sim = Simulation::new(cfg);
        let sim = if armed {
            sim.with_cancel(ctx.cancel.clone())
        } else {
            sim
        };
        let (report, telemetry, profile) = sim.run_full_observed();
        if opts.telemetry {
            if let Err(e) = telemetry.write_files(&telemetry_dir, &sanitize_id(&p.id)) {
                eprintln!("telemetry write failed for {}: {e}", p.id);
            }
        }
        if opts.profile {
            if let Err(e) =
                crate::report::write_profile(&profile, &profile_dir, &sanitize_id(&p.id))
            {
                eprintln!("profile write failed for {}: {e}", p.id);
            }
        }
        report
    })
}

/// Executes `plan` with a caller-supplied evaluator that ignores the
/// attempt context. See [`run_plan_ctx`] for the full semantics.
pub fn run_plan_with(
    plan: &ExperimentPlan,
    opts: &RunnerOptions,
    eval: impl Fn(&Point) -> SimReport + Sync,
) -> SweepResult {
    run_plan_ctx(plan, opts, move |p, _ctx| eval(p))
}

/// Executes `plan` with a caller-supplied evaluator.
///
/// Points are claimed from a shared atomic index by `opts.workers`
/// scoped threads. A panicking evaluation is caught, retried up to
/// `opts.retries` times (with exponential backoff and deterministic
/// jitter between attempts), and finally recorded as
/// [`Outcome::Failed`] — one bad point never aborts the sweep. Rows
/// come back in plan order.
///
/// With `opts.deadline_ms` set, a watchdog thread raises each attempt's
/// [`EvalCtx::cancel`] token once the deadline passes; an attempt that
/// unwinds with [`Cancelled`] counts against the retry budget and is
/// finally recorded as [`Outcome::TimedOut`].
///
/// With `opts.journal`/`opts.resume` set, every completed point is
/// appended to a write-ahead journal as one fsynced line before it is
/// acknowledged, and journaled points of an interrupted sweep are
/// restored verbatim instead of re-evaluated.
///
/// With a fault plan active (`opts.fault_plan`/`opts.fault_seed`), the
/// scheduled panics, delays, and journal-write errors are injected at
/// the scheduled attempts — deterministically, so a crashed campaign
/// and its resume see the identical failure sequence.
pub fn run_plan_ctx(
    plan: &ExperimentPlan,
    opts: &RunnerOptions,
    eval: impl Fn(&Point, &EvalCtx) -> SimReport + Sync,
) -> SweepResult {
    run_plan_ctx_hooked(plan, opts, ExecHooks::default(), eval)
}

/// [`run_plan_ctx`] with embedding hooks (see [`ExecHooks`] and
/// [`run_plan_hooked`]). Journal restore wins over a prefilled row for
/// the same point; either way the point is served, not evaluated.
pub fn run_plan_ctx_hooked(
    plan: &ExperimentPlan,
    opts: &RunnerOptions,
    hooks: ExecHooks<'_>,
    eval: impl Fn(&Point, &EvalCtx) -> SimReport + Sync,
) -> SweepResult {
    execute(
        plan,
        opts,
        hooks,
        Claims::Points,
        |_| (),
        |p, ctx, _| eval(p, ctx),
    )
}

/// What one fetch from the workers' shared claim index hands out.
enum Claims<'a> {
    /// One point.
    Points,
    /// One pack: a list of member point indices.
    Packs(&'a [Vec<usize>]),
}

/// The executor behind every `run_plan*` entry point. A worker claims
/// a unit of `claims`, calls `open` once with the unit's still-unserved
/// members to build its per-claim state, then runs each member through
/// the per-point body (retries, journal, `on_point`, progress) with
/// `eval` seeing that state.
fn execute<S>(
    plan: &ExperimentPlan,
    opts: &RunnerOptions,
    hooks: ExecHooks<'_>,
    claims: Claims<'_>,
    open: impl Fn(&[usize]) -> S + Sync,
    eval: impl Fn(&Point, &EvalCtx, &S) -> SimReport + Sync,
) -> SweepResult {
    let points = plan.points();
    let n = points.len();
    let units = match claims {
        Claims::Points => n,
        Claims::Packs(packs) => packs.len(),
    };
    let workers = opts.effective_workers(n);
    let deadline = opts.deadline_ms;

    let fault_plan: Option<FaultPlan> = opts.fault_plan.clone().or_else(|| {
        opts.fault_seed
            .map(|seed| FaultPlan::derive(seed, n, &FaultConfig::default()))
    });
    if fault_plan.is_some() || deadline.is_some() {
        install_quiet_panic_hook();
    }
    if let (Some(fp), false) = (&fault_plan, opts.quiet) {
        eprintln!("[{}] {}", plan.name(), fp.describe());
    }

    let header = JournalHeader {
        experiment: plan.name().to_string(),
        master_seed: plan.master_seed(),
        points: n,
    };
    let mut slots: Vec<Mutex<Option<PointResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let mut restored_ok = 0usize;
    let mut restored_failed = 0usize;
    let journal_writer: Option<Journal> = if let Some(path) = &opts.resume {
        if path.exists() {
            let loaded = journal::load(path)
                .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", path.display()));
            assert_eq!(
                (
                    loaded.header.experiment.as_str(),
                    loaded.header.master_seed,
                    loaded.header.points
                ),
                (plan.name(), plan.master_seed(), n),
                "journal {} belongs to a different campaign",
                path.display()
            );
            for row in loaded.rows {
                assert!(row.index < n, "journal row index out of range");
                assert_eq!(
                    row.config_json,
                    config_json(&points[row.index].config),
                    "journal row {} does not match the plan's configuration",
                    row.index
                );
                if row.is_ok() {
                    restored_ok += 1;
                } else if opts.resume_retry_failed {
                    // Leave the slot empty so a worker re-evaluates the
                    // point; its fresh row (whatever the outcome) is
                    // re-journaled like any new completion.
                    continue;
                } else {
                    restored_failed += 1;
                }
                let index = row.index;
                *slots[index].get_mut().expect("result slot poisoned") = Some(row);
            }
            Some(
                Journal::open_append(path)
                    .unwrap_or_else(|e| panic!("cannot append to journal {}: {e}", path.display())),
            )
        } else {
            Some(
                Journal::create(path, &header)
                    .unwrap_or_else(|e| panic!("cannot create journal {}: {e}", path.display())),
            )
        }
    } else {
        opts.journal.as_ref().map(|path| {
            Journal::create(path, &header)
                .unwrap_or_else(|e| panic!("cannot create journal {}: {e}", path.display()))
        })
    };
    let journal_writer = Mutex::new(journal_writer);

    // Install caller-supplied rows (cache hits) into still-empty slots,
    // moving them rather than cloning. A journal-restored row for the
    // same point wins: it is this campaign's own record.
    let ExecHooks { prefill, on_point } = hooks;
    let mut prefilled_ok = 0usize;
    let mut prefilled_failed = 0usize;
    for (i, row) in prefill.into_iter().enumerate().take(n) {
        let Some(row) = row else { continue };
        let slot = slots[i].get_mut().expect("result slot poisoned");
        if slot.is_some() {
            continue;
        }
        assert_eq!(row.index, i, "prefilled row index mismatch");
        assert_eq!(
            row.config_json,
            config_json(&points[i].config),
            "prefilled row {i} does not match the plan's configuration"
        );
        if row.is_ok() {
            prefilled_ok += 1;
        } else {
            prefilled_failed += 1;
        }
        *slot = Some(row);
    }
    let served = restored_ok + restored_failed + prefilled_ok + prefilled_failed;

    let progress = Progress::new(plan.name(), n, opts.quiet);
    if served > 0 {
        progress.skip(
            restored_ok + prefilled_ok,
            restored_failed + prefilled_failed,
        );
        if !opts.quiet && restored_ok + restored_failed > 0 {
            eprintln!(
                "[{}] resumed {}/{} points from journal ({} failed)",
                plan.name(),
                restored_ok + restored_failed,
                n,
                restored_failed
            );
        }
    }
    // Every pre-served row (journal or prefill) is announced before the
    // workers start, so `on_point` sees each point exactly once.
    if let Some(cb) = on_point {
        for slot in &slots {
            if let Some(row) = slot.lock().expect("result slot poisoned").as_ref() {
                cb(row, true);
            }
        }
    }

    let next = CachePadded(AtomicUsize::new(0));
    let start = Instant::now();
    // One arm slot per worker: the attempt's start time and its token,
    // scanned by the watchdog thread. Each slot is padded to its own
    // cache line so arming/disarming one worker's slot does not contend
    // with the watchdog polling its neighbours'.
    type ArmSlot = CachePadded<Mutex<Option<(Instant, CancelToken)>>>;
    let watch: Vec<ArmSlot> = (0..workers)
        .map(|_| CachePadded(Mutex::new(None)))
        .collect();
    let active_workers = CachePadded(AtomicUsize::new(workers));
    let stop_watchdog = CachePadded(AtomicBool::new(false));

    // With every slot already served there is nothing to claim: no
    // worker and no watchdog is spawned. The envelope still records
    // the worker count the sweep was sized for.
    std::thread::scope(|scope| {
        if served == n {
            return;
        }
        if let Some(ms) = deadline {
            let watch = &watch;
            let stop = &stop_watchdog;
            #[cfg(test)]
            SPAWNED.with(|c| c.set(c.get() + 1));
            scope.spawn(move || {
                let poll = Duration::from_millis((ms / 4).clamp(1, 50));
                let limit = Duration::from_millis(ms);
                while !stop.0.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    for slot in watch {
                        if let Some((armed_at, token)) =
                            &*slot.0.lock().expect("watch slot poisoned")
                        {
                            if armed_at.elapsed() >= limit {
                                token.cancel();
                            }
                        }
                    }
                }
            });
        }
        for worker in 0..workers {
            let next = &next;
            let slots = &slots;
            let progress = &progress;
            let eval = &eval;
            let open = &open;
            let claims = &claims;
            let fault_plan = &fault_plan;
            let journal_writer = &journal_writer;
            let on_point = &on_point;
            let watch = &watch;
            let active_workers = &active_workers;
            let stop_watchdog = &stop_watchdog;
            #[cfg(test)]
            SPAWNED.with(|c| c.set(c.get() + 1));
            scope.spawn(move || {
                loop {
                    let u = next.0.fetch_add(1, Ordering::Relaxed);
                    if u >= units {
                        break;
                    }
                    let members = match claims {
                        Claims::Points => std::slice::from_ref(&u),
                        Claims::Packs(packs) => &packs[u][..],
                    };
                    // Journal-restored and prefilled points are already served.
                    let todo: Vec<usize> = members
                        .iter()
                        .copied()
                        .filter(|&i| slots[i].lock().expect("result slot poisoned").is_none())
                        .collect();
                    if todo.is_empty() {
                        continue;
                    }
                    let state = open(&todo);
                    for &i in &todo {
                        let point = &points[i];
                        let faults: PointFaults = fault_plan
                            .as_ref()
                            .map(|fp| fp.point(i))
                            .unwrap_or_default();
                        let point_start = Instant::now();
                        let start_ms = point_start.duration_since(start).as_secs_f64() * 1e3;
                        let mut attempts = 0u32;
                        let mut attempt_ms: Vec<f64> = Vec::new();
                        let outcome = loop {
                            attempts += 1;
                            if attempts > 1 {
                                let delay = backoff_delay_ms(
                                    opts.backoff_ms,
                                    attempts - 1,
                                    point.config.seed,
                                );
                                if delay > 0 {
                                    std::thread::sleep(Duration::from_millis(delay));
                                }
                            }
                            let attempt_start = Instant::now();
                            let token = CancelToken::new();
                            if deadline.is_some() {
                                *watch[worker].0.lock().expect("watch slot poisoned") =
                                    Some((attempt_start, token.clone()));
                            }
                            let ctx = EvalCtx {
                                attempt: attempts,
                                cancel: token,
                            };
                            let injected_delay = if attempts == 1 { faults.delay_ms } else { None };
                            let inject_panic = attempts <= faults.panics;
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                if let Some(ms) = injected_delay {
                                    std::thread::sleep(Duration::from_millis(ms));
                                }
                                if inject_panic {
                                    std::panic::panic_any(InjectedPanic {
                                        point: i,
                                        attempt: attempts,
                                    });
                                }
                                eval(point, &ctx, &state)
                            }));
                            if deadline.is_some() {
                                *watch[worker].0.lock().expect("watch slot poisoned") = None;
                            }
                            attempt_ms.push(attempt_start.elapsed().as_secs_f64() * 1e3);
                            match result {
                                Ok(report) => break Outcome::Ok(Box::new(report)),
                                Err(payload) => {
                                    let timed_out = payload.downcast_ref::<Cancelled>().is_some();
                                    if attempts > opts.retries {
                                        break if timed_out {
                                            Outcome::TimedOut {
                                                deadline_ms: deadline.unwrap_or(0),
                                                attempts,
                                            }
                                        } else {
                                            Outcome::Failed {
                                                panic: panic_message(payload),
                                                attempts,
                                            }
                                        };
                                    }
                                }
                            }
                        };
                        let wall_ms = point_start.elapsed().as_secs_f64() * 1e3;
                        let (wall_ms, start_ms, worker_id, attempt_ms) = if opts.canonical {
                            (0.0, 0.0, 0, vec![0.0; attempt_ms.len()])
                        } else {
                            (wall_ms, start_ms, worker, attempt_ms)
                        };
                        let result = PointResult {
                            index: i,
                            id: point.id.clone(),
                            seed: point.config.seed,
                            config_json: config_json(&point.config),
                            outcome,
                            wall_ms,
                            start_ms,
                            worker: worker_id,
                            attempts,
                            attempt_ms,
                            injected_faults: faults.injected(),
                            restored: None,
                        };
                        // Write-ahead: the row reaches the fsynced journal
                        // (surviving injected I/O errors via retry) before it
                        // is acknowledged to the progress reporter.
                        if let Some(j) = journal_writer
                            .lock()
                            .expect("journal writer poisoned")
                            .as_mut()
                        {
                            let body = journal::record_body(&result);
                            let mut remaining_injected = faults.io_failures;
                            let mut tries = 0u32;
                            loop {
                                tries += 1;
                                let res = if remaining_injected > 0 {
                                    remaining_injected -= 1;
                                    Err(io::Error::other(format!(
                                        "fault-injected journal write error (point {i})"
                                    )))
                                } else {
                                    j.append(&body)
                                };
                                match res {
                                    Ok(()) => break,
                                    Err(e) => {
                                        if tries > 3 {
                                            eprintln!(
                                                "journal append failed for {}: {e}",
                                                result.id
                                            );
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                        if let Some(cb) = on_point {
                            cb(&result, false);
                        }
                        let ok = result.is_ok();
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                        progress.point_done(&point.id, ok);
                    }
                }
                if active_workers.0.fetch_sub(1, Ordering::Relaxed) == 1 {
                    stop_watchdog.0.store(true, Ordering::Relaxed);
                }
            });
        }
    });

    SweepResult {
        name: plan.name().to_string(),
        master_seed: plan.master_seed(),
        // Canonical archives must compare bytes-equal across worker
        // counts, so the envelope can't record the real count either.
        workers: if opts.canonical { 0 } else { workers },
        wall_ms: if opts.canonical {
            0.0
        } else {
            start.elapsed().as_secs_f64() * 1e3
        },
        rows: slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every claimed point stores a result")
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExperimentPlan;
    use osoffload_system::{PolicyKind, SystemConfig};
    use osoffload_workload::Profile;

    fn plan(n: usize) -> ExperimentPlan {
        let mut plan = ExperimentPlan::new("unit", 9);
        for i in 0..n {
            plan.push(
                format!("p{i}"),
                SystemConfig::builder()
                    .profile(Profile::apache())
                    .policy(PolicyKind::AlwaysOffload)
                    .instructions(1_000)
                    .build(),
            );
        }
        plan
    }

    /// A cheap deterministic pseudo-report: the fields under test are a
    /// function of the point's seed only.
    fn fake_report(point: &crate::plan::Point) -> SimReport {
        let mut r = crate::driver::placeholder_report();
        r.profile = point.config.profile.name.to_string();
        r.instructions = point.config.seed;
        r.throughput = (point.config.seed % 1_000) as f64 / 1_000.0 + 1.0;
        r
    }

    #[test]
    fn rows_are_identical_across_worker_counts() {
        let plan = plan(12);
        let quiet = RunnerOptions {
            quiet: true,
            ..RunnerOptions::default()
        };
        let one = run_plan_with(
            &plan,
            &RunnerOptions {
                workers: 1,
                ..quiet.clone()
            },
            fake_report,
        );
        let four = run_plan_with(
            &plan,
            &RunnerOptions {
                workers: 4,
                ..quiet
            },
            fake_report,
        );
        assert_eq!(one.workers, 1);
        assert_eq!(four.workers, 4);
        let a: Vec<String> = one.rows.iter().map(|r| r.stable_json()).collect();
        let b: Vec<String> = four.rows.iter().map(|r| r.stable_json()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lane_path_rows_match_scalar_path() {
        // Real simulations, two shapes (seeds), mixed policies: the
        // lane path must reproduce the scalar rows bit-for-bit.
        let mut plan = ExperimentPlan::new("lane-int", 5);
        for (i, (threshold, seed)) in [(100u64, 1u64), (5_000, 2), (900, 1), (100, 2)]
            .iter()
            .enumerate()
        {
            plan.push_pinned(
                format!("p{i}"),
                SystemConfig::builder()
                    .profile(Profile::apache())
                    .policy(PolicyKind::HardwarePredictor {
                        threshold: *threshold,
                    })
                    .instructions(20_000)
                    .warmup(5_000)
                    .seed(*seed)
                    .build(),
            );
        }
        let quiet = RunnerOptions {
            quiet: true,
            workers: 2,
            canonical: true,
            ..RunnerOptions::default()
        };
        let scalar = run_plan(
            &plan,
            &RunnerOptions {
                lanes: 1,
                ..quiet.clone()
            },
        );
        let lanes = run_plan(&plan, &RunnerOptions { lanes: 4, ..quiet });
        assert_eq!(scalar.failures().count(), 0);
        assert_eq!(lanes.failures().count(), 0);
        let a: Vec<String> = scalar.rows.iter().map(|r| r.row_json()).collect();
        let b: Vec<String> = lanes.rows.iter().map(|r| r.row_json()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lane_packs_are_claimed_whole_by_one_worker() {
        // 2 shapes x 8 points, shapes interleaved in plan order: each
        // pack's rows must come from a single worker, and the rows
        // must equal the scalar path's.
        let mut plan = ExperimentPlan::new("lane-claims", 6);
        for i in 0..16u64 {
            plan.push_pinned(
                format!("p{i}"),
                SystemConfig::builder()
                    .profile(Profile::apache())
                    .policy(PolicyKind::HardwarePredictor {
                        threshold: 100 + 300 * i,
                    })
                    .instructions(20_000)
                    .warmup(5_000)
                    .seed(1 + i % 2)
                    .build(),
            );
        }
        let opts = RunnerOptions {
            quiet: true,
            workers: 2,
            lanes: 4,
            ..RunnerOptions::default()
        };
        let lanes = run_plan(&plan, &opts);
        let scalar = run_plan(&plan, &RunnerOptions { lanes: 1, ..opts });
        assert_eq!(lanes.failures().count(), 0);
        let packs = crate::lane_exec::packs(plan.points(), 4);
        assert_eq!(packs.len(), 4);
        for pack in &packs {
            let worker = lanes.rows[pack[0]].worker;
            for &i in pack {
                assert_eq!(lanes.rows[i].worker, worker, "pack {pack:?} split");
            }
        }
        let a: Vec<String> = scalar.rows.iter().map(|r| r.stable_json()).collect();
        let b: Vec<String> = lanes.rows.iter().map(|r| r.stable_json()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn panicking_point_is_isolated() {
        let plan = plan(6);
        let opts = RunnerOptions {
            workers: 3,
            quiet: true,
            ..RunnerOptions::default()
        };
        let sweep = run_plan_with(&plan, &opts, |p| {
            if p.index == 4 {
                panic!("injected fault at {}", p.id);
            }
            fake_report(p)
        });
        assert_eq!(sweep.rows.len(), 6);
        assert_eq!(sweep.failures().count(), 1);
        assert_eq!(sweep.timeouts(), 0);
        let failed = &sweep.rows[4];
        assert!(!failed.is_ok());
        match &failed.outcome {
            Outcome::Failed { panic, attempts } => {
                assert!(panic.contains("injected fault at p4"), "{panic}");
                assert_eq!(*attempts, 1);
            }
            _ => unreachable!(),
        }
        assert!(sweep.reports().is_none());
        assert!(sweep.to_json().contains("\"status\":\"failed\""));
        assert!(
            failed.stable_json().contains("\"config_digest\":\""),
            "failed rows archive their config digest"
        );
    }

    #[test]
    fn retries_rerun_panicking_points() {
        let plan = plan(3);
        let opts = RunnerOptions {
            workers: 1,
            retries: 2,
            quiet: true,
            backoff_ms: 1, // keep the unit test fast
            ..RunnerOptions::default()
        };
        let sweep = run_plan_with(&plan, &opts, |p| {
            if p.index == 1 {
                panic!("always fails");
            }
            fake_report(p)
        });
        match &sweep.rows[1].outcome {
            Outcome::Failed { attempts, .. } => assert_eq!(*attempts, 3, "1 try + 2 retries"),
            _ => unreachable!(),
        }
        assert_eq!(sweep.rows[1].attempt_ms.len(), 3);
    }

    #[test]
    fn flag_parsing_splits_runner_options() {
        let args: Vec<String> = [
            "quick",
            "--workers=3",
            "--quiet",
            "--retries=1",
            "--out=tmp",
            "--telemetry",
            "--trace-out=tmp/traces",
            "--journal=tmp/unit.journal",
            "--deadline-ms=5000",
            "--backoff-ms=7",
            "--canonical",
            "--inject-faults=99",
            "--profile",
            "--resume-retry-failed",
            "--lanes=3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (opts, rest) = RunnerOptions::parse_flags(&args);
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.retries, 1);
        assert!(opts.quiet);
        assert_eq!(opts.out_dir, std::path::PathBuf::from("tmp"));
        assert!(opts.telemetry);
        assert_eq!(opts.telemetry_dir(), std::path::PathBuf::from("tmp/traces"));
        assert_eq!(
            opts.journal,
            Some(std::path::PathBuf::from("tmp/unit.journal"))
        );
        assert_eq!(opts.resume, None);
        assert_eq!(opts.deadline_ms, Some(5_000));
        assert_eq!(opts.backoff_ms, 7);
        assert!(opts.canonical);
        assert_eq!(opts.fault_seed, Some(99));
        assert!(opts.profile);
        assert_eq!(opts.profile_dir(), std::path::PathBuf::from("tmp/profile"));
        assert!(opts.resume_retry_failed);
        assert_eq!(opts.lanes, 3);
        assert_eq!(rest, vec!["quick".to_string()]);
    }

    #[test]
    fn trace_out_implies_telemetry_and_defaults_under_out_dir() {
        let args: Vec<String> = vec!["--trace-out=x".to_string()];
        let (opts, _) = RunnerOptions::parse_flags(&args);
        assert!(opts.telemetry);
        let plain = RunnerOptions::default();
        assert!(!plain.telemetry);
        assert_eq!(
            plain.telemetry_dir(),
            std::path::PathBuf::from("results/telemetry")
        );
    }

    #[test]
    fn worker_profiles_account_for_every_row() {
        let plan = plan(8);
        let opts = RunnerOptions {
            workers: 2,
            quiet: true,
            ..RunnerOptions::default()
        };
        let sweep = run_plan_with(&plan, &opts, fake_report);
        let profiles = sweep.worker_profiles();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles.iter().map(|p| p.points).sum::<usize>(), 8);
        for p in &profiles {
            assert!((0.0..=1.0).contains(&p.utilization));
            assert_eq!(p.retries, 0);
            assert_eq!(p.timeouts, 0);
        }
        assert!(sweep.idle_ms() >= 0.0);
        // Rows carry the timeline fields.
        assert!(sweep.rows.iter().all(|r| r.attempts == 1));
        assert!(sweep.rows.iter().all(|r| r.start_ms >= 0.0));
        assert!(sweep.to_json().contains("\"start_ms\":"));
        assert!(sweep.to_json().contains("\"attempts\":1"));
        assert!(sweep.to_json().contains("\"attempt_ms\":["));
    }

    #[test]
    fn sanitize_id_keeps_safe_chars_only() {
        assert_eq!(sanitize_id("0001/apache N=500"), "0001_apache_N_500");
        assert_eq!(sanitize_id("plain-id_0.1"), "plain-id_0.1");
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        for retry in 1..=4u32 {
            let a = backoff_delay_ms(20, retry, 0xABCD);
            let b = backoff_delay_ms(20, retry, 0xABCD);
            assert_eq!(a, b, "same inputs, same delay");
            let nominal = 20u64 << (retry - 1);
            assert!(
                a >= nominal / 2 && a < nominal + nominal,
                "retry {retry}: delay {a} outside [{}, {})",
                nominal / 2,
                2 * nominal
            );
        }
        assert_eq!(backoff_delay_ms(0, 3, 1), 0, "backoff disabled");
        assert_eq!(backoff_delay_ms(25, 0, 1), 0, "no delay before attempt 1");
        assert!(backoff_delay_ms(1_000, 16, 1) < 3_000, "capped");
        assert_ne!(
            backoff_delay_ms(1_000, 1, 1),
            backoff_delay_ms(1_000, 1, 2),
            "jitter differs across seeds"
        );
    }

    #[test]
    fn canonical_mode_zeroes_wall_clock_fields() {
        let plan = plan(4);
        let opts = RunnerOptions {
            workers: 2,
            quiet: true,
            canonical: true,
            ..RunnerOptions::default()
        };
        let a = run_plan_with(&plan, &opts, fake_report);
        let b = run_plan_with(&plan, &opts, fake_report);
        assert_eq!(a.wall_ms, 0.0);
        assert_eq!(a.workers, 0, "canonical zeroes the worker count too");
        for row in &a.rows {
            assert_eq!(row.wall_ms, 0.0);
            assert_eq!(row.start_ms, 0.0);
            assert_eq!(row.worker, 0);
            assert!(row.attempt_ms.iter().all(|&ms| ms == 0.0));
        }
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "canonical archives are bytes-equal"
        );
    }

    #[test]
    fn prefilled_rows_are_served_not_evaluated() {
        let plan = plan(5);
        let opts = RunnerOptions {
            workers: 2,
            quiet: true,
            ..RunnerOptions::default()
        };
        // First run computes everything; its rows prefill a second run
        // with one hole left to evaluate.
        let first = run_plan_with(&plan, &opts, fake_report);
        let mut prefill: Vec<Option<PointResult>> =
            first.rows.iter().map(|r| Some(r.clone())).collect();
        prefill[2] = None;
        let seen: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        let evaluated = AtomicUsize::new(0);
        let cb = |row: &PointResult, served: bool| {
            seen.lock().unwrap().push((row.index, served));
        };
        let hooks = ExecHooks {
            prefill,
            on_point: Some(&cb),
        };
        let second = run_plan_ctx_hooked(&plan, &opts, hooks, |p, _ctx| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            fake_report(p)
        });
        assert_eq!(
            evaluated.load(Ordering::Relaxed),
            1,
            "only the unfilled point runs"
        );
        let a: Vec<String> = first.rows.iter().map(|r| r.stable_json()).collect();
        let b: Vec<String> = second.rows.iter().map(|r| r.stable_json()).collect();
        assert_eq!(a, b, "served rows are byte-identical to computed ones");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![(0, true), (1, true), (2, false), (3, true), (4, true)],
            "every point announced exactly once with its hit/miss flag"
        );
    }

    fn spawned() -> usize {
        SPAWNED.with(std::cell::Cell::get)
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("osoffload-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn fully_prefilled_sweep_evaluates_nothing_and_spawns_no_thread() {
        let plan = plan(5);
        let opts = RunnerOptions {
            workers: 3,
            quiet: true,
            deadline_ms: Some(60_000),
            ..RunnerOptions::default()
        };
        let first = run_plan_with(&plan, &opts, fake_report);
        let prefill: Vec<Option<PointResult>> =
            first.rows.iter().map(|r| Some(r.clone())).collect();
        let caller = std::thread::current().id();
        let seen: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        let cb = |row: &PointResult, served: bool| {
            assert_eq!(std::thread::current().id(), caller, "announced off-thread");
            seen.lock().unwrap().push((row.index, served));
        };
        let evaluated = AtomicUsize::new(0);
        let before = spawned();
        let second = run_plan_ctx_hooked(
            &plan,
            &opts,
            ExecHooks {
                prefill,
                on_point: Some(&cb),
            },
            |p, _ctx| {
                evaluated.fetch_add(1, Ordering::Relaxed);
                fake_report(p)
            },
        );
        assert_eq!(evaluated.load(Ordering::Relaxed), 0, "nothing evaluated");
        assert_eq!(spawned(), before, "no worker or watchdog thread");
        let a: Vec<String> = first.rows.iter().map(|r| r.row_json()).collect();
        let b: Vec<String> = second.rows.iter().map(|r| r.row_json()).collect();
        assert_eq!(a, b, "rows equal the prefill, timings included");
        assert_eq!(
            seen.into_inner().unwrap(),
            (0..5).map(|i| (i, true)).collect::<Vec<_>>(),
            "every row announced once, in plan order, as served"
        );
    }

    #[test]
    fn fully_served_non_canonical_sweep_records_the_same_workers() {
        let plan = plan(5);
        for workers in [0, 2, 8] {
            let opts = RunnerOptions {
                workers,
                quiet: true,
                ..RunnerOptions::default()
            };
            let computed = run_plan_with(&plan, &opts, fake_report);
            let prefill = computed.rows.iter().map(|r| Some(r.clone())).collect();
            let before = spawned();
            let served = run_plan_ctx_hooked(
                &plan,
                &opts,
                ExecHooks {
                    prefill,
                    on_point: None,
                },
                |_p, _ctx| unreachable!("a served point is evaluated"),
            );
            assert_eq!(spawned(), before);
            assert_eq!(served.workers, computed.workers, "--workers={workers}");
            assert_eq!(served.workers, opts.effective_workers(plan.len()));
        }
    }

    #[test]
    fn resuming_a_complete_journal_evaluates_nothing() {
        let plan = plan(4);
        let dir = tmp_path("resume-complete");
        let journal = dir.join("unit.journal");
        let opts = RunnerOptions {
            workers: 2,
            quiet: true,
            canonical: true,
            journal: Some(journal.clone()),
            ..RunnerOptions::default()
        };
        let first = run_plan_with(&plan, &opts, fake_report);
        let resume = RunnerOptions {
            journal: None,
            resume: Some(journal),
            ..opts
        };
        let evaluated = AtomicUsize::new(0);
        let before = spawned();
        let resumed = run_plan_ctx(&plan, &resume, |p, _ctx| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            fake_report(p)
        });
        assert_eq!(evaluated.load(Ordering::Relaxed), 0, "nothing evaluated");
        assert_eq!(spawned(), before, "no worker or watchdog thread");
        assert_eq!(first.to_json(), resumed.to_json(), "byte-identical archive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_recover_with_enough_retries() {
        let plan = plan(6);
        let fault_cfg = FaultConfig {
            panic_pct: 100,
            max_panics: 1,
            delay_pct: 0,
            io_pct: 0,
            ..FaultConfig::default()
        };
        let fault_plan = FaultPlan::derive(plan.master_seed(), plan.len(), &fault_cfg);
        assert_eq!(fault_plan.max_panics(), 1);
        let clean = run_plan_with(
            &plan,
            &RunnerOptions {
                workers: 2,
                quiet: true,
                ..RunnerOptions::default()
            },
            fake_report,
        );
        let opts = RunnerOptions {
            workers: 2,
            retries: 1,
            quiet: true,
            backoff_ms: 1,
            fault_plan: Some(fault_plan),
            ..RunnerOptions::default()
        };
        let faulty = run_plan_with(&plan, &opts, fake_report);
        assert_eq!(faulty.failures().count(), 0, "every injected panic retried");
        assert!(faulty.rows.iter().all(|r| r.attempts == 2));
        assert!(faulty.injected_faults() >= 6);
        let a: Vec<String> = clean.rows.iter().map(|r| r.stable_json()).collect();
        let b: Vec<String> = faulty.rows.iter().map(|r| r.stable_json()).collect();
        assert_eq!(a, b, "fault recovery must not change any result");
    }

    #[test]
    fn exhausted_injected_faults_record_a_typed_failure() {
        let plan = plan(2);
        let fault_cfg = FaultConfig {
            panic_pct: 100,
            max_panics: 1,
            delay_pct: 0,
            io_pct: 0,
            ..FaultConfig::default()
        };
        let opts = RunnerOptions {
            workers: 1,
            quiet: true,
            fault_plan: Some(FaultPlan::derive(
                plan.master_seed(),
                plan.len(),
                &fault_cfg,
            )),
            ..RunnerOptions::default()
        };
        let sweep = run_plan_with(&plan, &opts, fake_report);
        assert_eq!(sweep.failures().count(), 2);
        for row in &sweep.rows {
            match &row.outcome {
                Outcome::Failed { panic, attempts } => {
                    assert!(panic.contains("fault-injected panic"), "{panic}");
                    assert_eq!(*attempts, 1);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn watchdog_times_out_hung_points() {
        let plan = plan(1);
        let opts = RunnerOptions {
            workers: 1,
            quiet: true,
            deadline_ms: Some(5),
            ..RunnerOptions::default()
        };
        let sweep = run_plan_ctx(&plan, &opts, |_p, ctx| {
            // A cooperative "hang": spin until the watchdog fires, then
            // unwind exactly as Simulation::account would.
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::panic::panic_any(Cancelled);
        });
        assert_eq!(sweep.timeouts(), 1);
        match &sweep.rows[0].outcome {
            Outcome::TimedOut {
                deadline_ms,
                attempts,
            } => {
                assert_eq!(*deadline_ms, 5);
                assert_eq!(*attempts, 1);
            }
            _ => unreachable!("expected a timeout, got {:?}", sweep.rows[0].outcome),
        }
        let json = sweep.rows[0].stable_json();
        assert!(json.contains("\"status\":\"timeout\""), "{json}");
        assert!(json.contains("\"deadline_ms\":5"), "{json}");
        assert_eq!(sweep.worker_profiles()[0].timeouts, 1);
        assert!(sweep.to_json().contains("\"timeouts\":1"));
    }
}
