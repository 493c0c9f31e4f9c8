//! `serve_mixed`: the release `osoffload serve start` daemon in its own
//! process and two client connections in a closed loop. About four in
//! five submissions resend the 124-point fig4 quick plan (all cache
//! hits); the rest are small plans with fresh seeds (all misses, each
//! simulated and fsynced to the WAL before it is acknowledged).

use crate::layers::{self, Counts, DrawMode, Inputs, Ledger};
use crate::stats::{median, Metric, Outcome, Summary, Tally};
use crate::trace::Tracer;
use crate::util::{mix, ms_since, peak_rss_mb, sample_indices};
use crate::{Args, Row, WorkloadRun};
use osoffload_runner::jsonv::{self, Value};
use osoffload_runner::{ExperimentPlan, PointResult};
use osoffload_serve::{client, ResultCache};
use osoffload_system::{PolicyKind, Simulation, SystemConfig};
use osoffload_workload::Profile;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Digest of the cold submission's archive at workload seed 0.
pub const RECORDED_ARCHIVE_DIGEST_SEED0: &str = "501ab3963d6fccfa";

/// Warm restarts timed as set-up; the median is reported.
pub const WARM_BOOTS: usize = 21;

/// Client connections in the closed loop.
pub const CONNECTIONS: usize = 2;

/// Points per miss submission.
pub const MISS_POINTS: usize = 2;

/// Longest a submission may take before it counts as timed out.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Whether submission `k` of connection `conn` resends the hit plan:
/// in every block of five submissions of a connection, exactly one is a
/// miss, at a place drawn from the workload seed. An exact share keeps
/// the mix, and with it the miss throughput, alike across seeds.
pub fn is_hit(seed: u64, conn: usize, k: usize) -> bool {
    let block = (k / 5) as u64;
    let miss_at = mix(seed ^ ((conn as u64) << 40) ^ block ^ 0x5E27E) % 5;
    k as u64 % 5 != miss_at
}

/// The plan of miss submission `k` of connection `conn`: single-core HI
/// points of the server profiles with seeds no other submission uses.
pub fn miss_plan(seed: u64, conn: usize, k: usize) -> ExperimentPlan {
    let servers = Profile::all_server();
    let base = mix(mix(seed) ^ ((conn as u64) << 48) ^ k as u64);
    let mut plan = ExperimentPlan::new(format!("miss-c{conn}-{k}"), base);
    for j in 0..MISS_POINTS {
        let s = mix(base.wrapping_add(j as u64));
        let cfg = SystemConfig::builder()
            .profile(servers[(s % servers.len() as u64) as usize].clone())
            .policy(PolicyKind::HardwarePredictor {
                threshold: [100, 500, 1_000][(s >> 8) as usize % 3],
            })
            .migration_latency([100, 1_000][(s >> 16) as usize % 2])
            .instructions(200_000)
            .warmup(100_000)
            .seed(s)
            .build();
        plan.push_pinned(format!("{j}/{}", cfg.profile.name), cfg);
    }
    plan
}

/// The hit plan as submitted by connection `conn`. Each connection uses
/// its own experiment name, so concurrent submissions never write the
/// same archive file.
fn hit_plan(seed: u64, conn: usize) -> ExperimentPlan {
    let fig4 = crate::sweep::plan(seed);
    let mut plan = ExperimentPlan::new(format!("fig4-c{conn}"), fig4.master_seed());
    for p in fig4.points() {
        plan.push_pinned(p.id.clone(), p.config.clone());
    }
    plan
}

/// A running daemon process, stopped and reaped on drop.
struct Daemon {
    child: Child,
    port: u16,
    /// Kept open until the process is reaped: the daemon prints a last
    /// line on shutdown and must not find its stdout closed.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `bin serve start` on an ephemeral port and waits for its
    /// `listening` line (printed after the WAL is replayed).
    fn start(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("start")
            .arg("--port=0")
            .arg(format!("--cache={}", dir.join("cache.wal").display()))
            .arg(format!("--out={}", dir.join("out").display()))
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let read = stdout.read_line(&mut line);
        let port = line
            .trim()
            .rsplit_once(':')
            .and_then(|(_, p)| p.parse::<u16>().ok());
        match (read, port) {
            (Ok(_), Some(port)) => Ok(Daemon {
                child,
                port,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its port (got {line:?})"))
            }
        }
    }

    /// Graceful drain through the `shutdown` op, then reap.
    fn stop(mut self) -> Result<(), String> {
        let ack = client::stop(self.port)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err(format!("daemon did not exit after {ack}")),
            }
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One submission as the client saw it.
#[derive(Debug, Clone)]
struct Sub {
    conn: usize,
    k: usize,
    hit: bool,
    outcome: Outcome,
    /// Request written → `accepted` → `done`, ms from `start`.
    accepted_ms: f64,
    done_ms: f64,
    /// Start, relative to the loop's origin, ms.
    start_ms: f64,
    hits: u64,
    points: u64,
    archive: String,
    /// Simulated instructions the daemon computed for it.
    instr: u64,
    /// Whether the span half of a traced run issued it.
    traced: bool,
}

/// Submits one request line and reads events until `done`, returning
/// the outcome, ms to `accepted` and to `done`, hits, points and the
/// archive path. The library client sets no read timeout; this one
/// does, so a stuck daemon counts as timed out instead of hanging the
/// run.
fn submit(port: u16, line: &str) -> (Outcome, f64, f64, u64, u64, String) {
    let fail = |o| (o, 0.0, 0.0, 0, 0, String::new());
    let Ok(mut stream) = TcpStream::connect(("127.0.0.1", port)) else {
        return fail(Outcome::Failed);
    };
    let _ = stream.set_read_timeout(Some(SUBMIT_TIMEOUT));
    let t = Instant::now();
    if stream.write_all(line.as_bytes()).is_err() {
        return fail(Outcome::Failed);
    }
    let mut reader = BufReader::new(&stream);
    let mut accepted = 0.0;
    let mut text = String::new();
    loop {
        text.clear();
        match reader.read_line(&mut text) {
            Ok(0) => return fail(Outcome::Failed),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return fail(Outcome::TimedOut)
            }
            Err(_) => return fail(Outcome::Failed),
        }
        if text.starts_with("{\"event\":\"point\"") {
            continue;
        }
        let Ok(event) = jsonv::parse(text.trim_end()) else {
            return fail(Outcome::Failed);
        };
        if matches!(event.get("ok"), Some(Value::Bool(false))) {
            return fail(Outcome::Refused);
        }
        match event.get("event").and_then(Value::as_str) {
            Some("accepted") => accepted = ms_since(t),
            Some("done") => {
                let n = |k: &str| event.get(k).and_then(Value::as_u64).unwrap_or(0);
                let archive = event.get("archive").and_then(Value::as_str).unwrap_or("");
                let outcome = if n("failed") == 0 {
                    Outcome::Ok
                } else {
                    Outcome::Failed
                };
                return (
                    outcome,
                    accepted,
                    ms_since(t),
                    n("hits"),
                    n("points"),
                    archive.to_string(),
                );
            }
            _ => {}
        }
    }
}

/// Runs the closed loop on every connection until `until` and returns
/// the submissions in completion order.
fn closed_loop(
    port: u16,
    seed: u64,
    origin: Instant,
    until: Instant,
    traced: bool,
    first_k: usize,
) -> Vec<Sub> {
    let hit_lines: Vec<String> = (0..CONNECTIONS)
        .map(|c| {
            client::submit_request_line(&hit_plan(seed, c)).expect("fig4 plan is wire-expressible")
        })
        .collect();
    let mut subs: Vec<Sub> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let hit_line = &hit_lines[conn];
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut k = first_k;
                    while Instant::now() < until {
                        let hit = is_hit(seed, conn, k);
                        let (line, instr) = if hit {
                            (hit_line.clone(), 0)
                        } else {
                            let plan = miss_plan(seed, conn, k);
                            let instr =
                                crate::sweep::sim_instr(plan.points().iter().map(|p| &p.config));
                            (
                                client::submit_request_line(&plan)
                                    .expect("miss plan is wire-expressible"),
                                instr,
                            )
                        };
                        let start_ms = ms_since(origin);
                        let (outcome, accepted_ms, done_ms, hits, points, archive) =
                            submit(port, &line);
                        out.push(Sub {
                            conn,
                            k,
                            hit,
                            outcome,
                            accepted_ms,
                            done_ms,
                            start_ms,
                            hits,
                            points,
                            archive,
                            instr,
                            traced,
                        });
                        k += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    subs.sort_by(|a, b| (a.start_ms + a.done_ms).total_cmp(&(b.start_ms + b.done_ms)));
    subs
}

/// Checks one submission's totals against what it asked for.
fn judge(s: &mut Sub, hit_points: u64) {
    if s.outcome != Outcome::Ok {
        return;
    }
    let expected = if s.hit {
        hit_points
    } else {
        MISS_POINTS as u64
    };
    let hits_ok = if s.hit {
        s.hits == expected
    } else {
        s.hits == 0
    };
    if s.points != expected || !hits_ok {
        s.outcome = Outcome::Failed;
    }
}

/// Runs the workload.
pub fn run(args: &Args, tr: &Tracer) -> Result<WorkloadRun, String> {
    let bin = args
        .daemon_bin
        .clone()
        .ok_or("serve_mixed needs --daemon-bin <path of the osoffload binary>")?;
    let dir = args.work_dir.join("serve_mixed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = WorkloadRun::default();
    let seed = args.seed;
    let fig4 = hit_plan(seed, 0);
    let hit_points = fig4.len() as u64;

    // Cold fill of the hit plan: one full sweep inside the daemon, too
    // long to repeat in a run, so it is printed but not set-up time.
    let daemon = Daemon::start(&bin, &dir)?;
    let line = client::submit_request_line(&fig4)?;
    let (outcome, _, cold_ms, hits, points, archive) = submit(daemon.port, &line);
    if outcome != Outcome::Ok || hits != 0 || points != hit_points {
        return Err(format!(
            "cold fill failed: {outcome:?}, {hits} hits of {points}"
        ));
    }
    let cold_archive = std::fs::read(&archive).map_err(|e| format!("{archive}: {e}"))?;
    let cold_digest = format!("{:016x}", osoffload_runner::fnv1a64(&cold_archive));
    if seed == 0 && cold_digest != RECORDED_ARCHIVE_DIGEST_SEED0 {
        out.problem(format!(
            "serve_mixed: seed-0 archive digest {cold_digest} differs from the recorded \
             {RECORDED_ARCHIVE_DIGEST_SEED0}"
        ));
    }
    out.note(format!("archive digest {cold_digest}"));
    daemon.stop()?;

    // Set-up: warm restarts, each a daemon boot that replays the WAL;
    // the last one serves the measurement.
    let mut boot_ms = Vec::with_capacity(WARM_BOOTS);
    let mut daemon = None;
    for _ in 0..WARM_BOOTS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        daemon = Some(Daemon::start(&bin, &dir)?);
        boot_ms.push(ms_since(t));
    }
    let daemon = daemon.expect("booted at least once");
    let setup_s = median(&boot_ms) / 1e3;

    // Measurement: the closed loop (a traced run spends its second half
    // recording spans).
    let origin = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut subs = if tr.enabled() {
        let half = origin + budget / 2;
        let mut a = closed_loop(daemon.port, seed, origin, half, false, 0);
        let next_k = 1 + a.iter().map(|s| s.k).max().unwrap_or(0);
        a.extend(closed_loop(
            daemon.port,
            seed,
            origin,
            origin + budget,
            true,
            next_k,
        ));
        a
    } else {
        closed_loop(daemon.port, seed, origin, origin + budget, false, 0)
    };
    let loop_s = origin.elapsed().as_secs_f64();
    for s in &mut subs {
        judge(s, hit_points);
        out.tally.record(s.outcome);
    }
    let rss = peak_rss_mb(Some(daemon.child.id()))?;

    // Correctness: a warm resubmission archives the cold bytes, and
    // sampled misses equal direct runs.
    let (outcome, _, _, hits, _, archive) = submit(daemon.port, &line);
    let warm_archive = std::fs::read(&archive).unwrap_or_default();
    out.tally.record(outcome);
    if outcome != Outcome::Ok || hits != hit_points || warm_archive != cold_archive {
        out.problem(format!(
            "serve_mixed: warm archive differs from the cold one ({outcome:?}, {hits} hits)"
        ));
    }
    let misses: Vec<&Sub> = subs
        .iter()
        .filter(|s| !s.hit && s.outcome == Outcome::Ok)
        .collect();
    let mut checked = Tally::default();
    for i in sample_indices(misses.len(), 3, mix(seed ^ 0xC4EC)) {
        let s = misses[i];
        let plan = miss_plan(seed, s.conn, s.k);
        let text = std::fs::read_to_string(&s.archive).unwrap_or_default();
        for p in plan.points() {
            let direct = Simulation::new(p.config.clone()).run().to_json();
            let ok = text.contains(&format!("\"report\":{direct}"));
            checked.record(if ok { Outcome::Ok } else { Outcome::Failed });
            if !ok {
                out.problem(format!(
                    "serve_mixed: miss {} point {} differs from a direct run",
                    plan.name(),
                    p.id
                ));
            }
        }
    }
    out.tally.merge(&checked);
    daemon.stop()?;

    let hit_ms: Vec<f64> = subs
        .iter()
        .filter(|s| s.hit && !s.traced && s.outcome == Outcome::Ok)
        .map(|s| s.done_ms)
        .collect();
    let miss_ms: Vec<f64> = subs
        .iter()
        .filter(|s| !s.hit && !s.traced && s.outcome == Outcome::Ok)
        .map(|s| s.done_ms)
        .collect();
    if hit_ms.is_empty() || miss_ms.is_empty() {
        return Err(format!(
            "too few submissions completed ({} hits, {} misses)",
            hit_ms.len(),
            miss_ms.len()
        ));
    }
    let hit = Summary::of(&hit_ms);
    let untraced: Vec<&Sub> = subs.iter().filter(|s| !s.traced).collect();
    let done_at: Vec<f64> = untraced.iter().map(|s| s.start_ms + s.done_ms).collect();
    let windows: Vec<f64> = done_at
        .chunks_exact(10)
        .map(|c| c[9] - c[0])
        .filter(|w| *w > 0.0)
        .collect();
    let measured_s = if tr.enabled() { loop_s / 2.0 } else { loop_s };
    let per_s = untraced.len() as f64 / measured_s;
    let instr: u64 = untraced
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .map(|s| s.instr)
        .sum();
    let wall_s = if windows.is_empty() {
        10.0 / per_s
    } else {
        // Ten completions span nine gaps: scale to ten submissions.
        median(&windows) / 1e3 * 10.0 / 9.0
    };
    out.e2e = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("wall_s", wall_s, "s"),
        Metric::new(
            "sim_minsn_per_s",
            instr as f64 / 1e6 / measured_s,
            "Minstr/s",
        ),
        Metric::new("req_p50_ms", hit.p50, "ms"),
    ];
    let mut rows = vec![
        Row::text(
            "setup_s",
            format!(
                "{setup_s:.4} s (median warm boot + WAL replay of {boot_ms:.1?} ms; \
                 cold fill {cold_ms:.1} ms)"
            ),
        ),
        Row::text("wall_s", format!("{wall_s:.4} s per 10 submissions")),
        Row::val(
            "sim_minsn_per_s",
            instr as f64 / 1e6 / measured_s,
            "Minstr/s (misses)",
        ),
        Row::na("point_p50_ms", "points run inside the daemon"),
        Row::na("point_p90_ms", "points run inside the daemon"),
        Row::val("peak_rss_mb", rss, "MiB (daemon)"),
        Row::text("submit_hit_p50_ms", hit.describe("ms")),
        Row::text(
            "submit_hit_p95_ms",
            match hit.tail {
                Some((p, _)) if p >= 95.0 => format!(
                    "{:.4} ms (n={})",
                    crate::stats::percentile(&crate::stats::sorted(&hit_ms), 95.0),
                    hit.n
                ),
                _ => format!("n/a (only {} hit submissions; p95 needs 200)", hit.n),
            },
        ),
        Row::text("submit_miss_p50_ms", Summary::of(&miss_ms).describe("ms")),
        Row::val("submits_per_s", per_s, "1/s"),
        Row::val("failed_frac", out.tally.failed_frac(), "frac"),
    ];

    if tr.enabled() {
        traced(args, tr, &subs, &dir, &fig4, &mut out, hit.p50)?;
    }
    rows.append(&mut out.rows);
    out.rows = rows;
    Ok(out)
}

/// Client spans, the per-layer suite on a copy of the final WAL, and
/// the ledger of direct runs of the miss points.
fn traced(
    args: &Args,
    tr: &Tracer,
    subs: &[Sub],
    dir: &Path,
    fig4: &ExperimentPlan,
    out: &mut WorkloadRun,
    untraced_hit_p50: f64,
) -> Result<(), String> {
    let origin_ns = 0u64;
    let (mut accept, mut stream, mut traced_hits) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut points) = (0u64, 0u64);
    for (i, s) in subs.iter().filter(|s| s.traced).enumerate() {
        if s.outcome != Outcome::Ok {
            continue;
        }
        let at = |ms: f64| origin_ns + (ms * 1e6) as u64;
        let root = tr.record(
            "serve.submit",
            at(s.start_ms),
            at(s.start_ms + s.done_ms),
            None,
            i as u64,
        );
        tr.record(
            "serve.accept",
            at(s.start_ms),
            at(s.start_ms + s.accepted_ms),
            root,
            i as u64,
        );
        tr.record(
            "serve.stream",
            at(s.start_ms + s.accepted_ms),
            at(s.start_ms + s.done_ms),
            root,
            i as u64,
        );
        if s.hit {
            accept.push(s.accepted_ms);
            stream.push(s.done_ms - s.accepted_ms);
            traced_hits.push(s.done_ms);
        }
        hits += s.hits;
        points += s.points;
    }
    if !traced_hits.is_empty() {
        let p50 = median(&traced_hits);
        out.rows.push(Row::val(
            "serve.accept_ms",
            median(&accept),
            "ms (hits, p50)",
        ));
        out.rows.push(Row::val(
            "serve.stream_ms",
            median(&stream),
            "ms (hits, p50)",
        ));
        out.rows.push(Row::val(
            "serve.hit_ratio",
            hits as f64 / points.max(1) as f64,
            "frac",
        ));
        out.note(format!(
            "tracing overhead: traced hit p50 {p50:.2} ms vs untraced {untraced_hit_p50:.2} ms ({:+.2} ms)",
            p50 - untraced_hit_p50
        ));
    }

    // Rows of the hit plan, served from a copy of the final WAL.
    let wal = dir.join("cache.wal");
    let copy: PathBuf = dir.join("rows.wal");
    std::fs::copy(&wal, &copy).map_err(|e| format!("copy WAL: {e}"))?;
    let cache = ResultCache::open(&copy, 0)?;
    let rows: Vec<PointResult> = fig4
        .points()
        .iter()
        .filter_map(|p| {
            let text = osoffload_serve::wire::config_to_json(&p.config).ok()?;
            cache.serve(
                &osoffload_serve::wire::digest(&p.config),
                &text,
                p.index,
                &p.id,
                p.config.seed,
            )
        })
        .collect();
    let sample: Vec<SystemConfig> = miss_plan(args.seed, 0, 0)
        .points()
        .iter()
        .map(|p| p.config.clone())
        .collect();
    let multi = fig4
        .points()
        .iter()
        .find(|p| !p.config.policy.is_baseline())
        .map(|p| p.config.clone())
        .ok_or("hit plan has no HI point")?;
    let layers_span = tr.begin("layers", None, 0);
    let rep = layers::measure(
        &Inputs {
            sample: &sample,
            multi: &multi,
            request: fig4,
            cached: fig4,
            rows: &rows,
            wal: Some(&wal),
            samples: subs.len(),
            dir,
        },
        tr,
        layers_span,
    )?;
    let direct = layers::direct_ledgers(&sample, &rep.costs, tr, layers_span);
    tr.end(layers_span);
    let mut counts = Counts::default();
    let mut measured = 0.0;
    for (cfg, r, l) in &direct {
        counts.add(cfg, r);
        measured += l.measured_ns_per_instr * (cfg.warmup + cfg.instructions) as f64;
    }
    let ledger = Ledger::new(&rep.costs, &counts, DrawMode::Live, measured);
    crate::finish_layers(
        out,
        rep,
        &counts,
        &ledger,
        &direct,
        "serve_mixed miss points (direct runs)",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::is_hit;

    #[test]
    fn one_submission_in_five_misses() {
        for seed in [0, 1, 77] {
            for conn in 0..2 {
                for block in 0..200 {
                    let misses = (block * 5..block * 5 + 5)
                        .filter(|&k| !is_hit(seed, conn, k))
                        .count();
                    assert_eq!(misses, 1, "seed {seed} conn {conn} block {block}");
                }
            }
        }
        // The place of the miss differs between blocks and seeds.
        let places = |seed| -> Vec<usize> {
            (0..20)
                .map(|b| (0..5).find(|&i| !is_hit(seed, 0, b * 5 + i)).unwrap())
                .collect()
        };
        assert_ne!(places(0), places(1));
        assert!(places(0).iter().any(|&p| p != places(0)[0]));
    }
}
