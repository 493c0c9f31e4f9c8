//! End-to-end proofs for the serve daemon: a resubmitted sweep is
//! served entirely from cache with a byte-identical canonical archive,
//! a partly cached one streams its hits ahead of its miss,
//! a restarted daemon comes back warm (torn WAL tails tolerated),
//! cached rows re-key to new plan positions, overload is shed with a
//! structured retryable refusal, shutdown drains gracefully, a shed
//! storm leaves metrics I/O and memory bounded, and hostile framing (oversized lines, garbage, vanishing clients,
//! slow-loris) gets errors or silence — never a panic or a hang.

use osoffload_runner::jsonv::{self, Value};
use osoffload_runner::{record_plan, report, run_plan, RunnerOptions};
use osoffload_serve::client::{self, RetryPolicy, SubmitError};
use osoffload_serve::daemon::{Daemon, ServeOptions, METRICS_EXPORT_CADENCE, METRICS_HISTORY_ROWS};
use osoffload_serve::wire;
use osoffload_system::experiments::{single_config, Evaluator, Scale};
use osoffload_system::PolicyKind;
use osoffload_workload::Profile;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "osoffload_serve_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny() -> Scale {
    Scale {
        instructions: 40_000,
        warmup: 10_000,
        seed: 3,
        compute_profiles: 1,
    }
}

/// Three distinct configurations — enough to exercise plan order,
/// rekeying, and per-point cache traffic while staying fast.
fn full_driver(ev: Evaluator<'_>) {
    let scale = tiny();
    ev(single_config(
        Profile::apache(),
        PolicyKind::Baseline,
        0,
        1,
        scale,
    ));
    ev(single_config(
        Profile::apache(),
        PolicyKind::HardwarePredictor { threshold: 500 },
        1_000,
        1,
        scale,
    ));
    ev(single_config(
        Profile::specjbb(),
        PolicyKind::HardwarePredictor { threshold: 500 },
        100,
        1,
        scale,
    ));
}

/// The same configurations as [`full_driver`] indices 2 and 0, in that
/// order — new plan positions and ids for known-cached work.
fn subset_driver(ev: Evaluator<'_>) {
    let scale = tiny();
    ev(single_config(
        Profile::specjbb(),
        PolicyKind::HardwarePredictor { threshold: 500 },
        100,
        1,
        scale,
    ));
    ev(single_config(
        Profile::apache(),
        PolicyKind::Baseline,
        0,
        1,
        scale,
    ));
}

/// Runs `driver`'s plan directly on the runner in canonical mode and
/// returns the archive bytes — the reference every served archive must
/// match byte for byte.
fn direct_archive(name: &str, dir: &Path, driver: impl Fn(Evaluator<'_>)) -> Vec<u8> {
    let plan = record_plan(name, tiny().seed, |ev| driver(ev));
    let opts = RunnerOptions {
        workers: 2,
        quiet: true,
        canonical: true,
        out_dir: dir.to_path_buf(),
        ..RunnerOptions::default()
    };
    let sweep = run_plan(&plan, &opts);
    let path = report::write_sweep(&sweep, dir).expect("write direct archive");
    std::fs::read(path).expect("read direct archive")
}

fn start_daemon(opts: ServeOptions) -> (u16, JoinHandle<Result<(), String>>) {
    let mut daemon = Daemon::bind(opts).expect("bind daemon");
    let port = daemon.local_addr().port();
    (port, std::thread::spawn(move || daemon.run()))
}

fn serve_opts(dir: &Path) -> ServeOptions {
    ServeOptions {
        port: 0,
        cache: dir.join("cache.wal"),
        out_dir: dir.join("served"),
        workers: 2,
        quiet: true,
        ..ServeOptions::default()
    }
}

fn submit(port: u16, name: &str, driver: impl Fn(Evaluator<'_>)) -> client::SubmitOutcome {
    client::submit(port, &request_line(name, driver), |_| {}).expect("submit")
}

fn request_line(name: &str, driver: impl Fn(Evaluator<'_>)) -> String {
    let plan = record_plan(name, tiny().seed, |ev| driver(ev));
    client::submit_request_line(&plan).expect("render request")
}

/// One point big enough (~1.5 s) to hold a submit slot while the test
/// provokes the admission gate from other connections.
fn slow_driver(ev: Evaluator<'_>) {
    ev(single_config(
        Profile::apache(),
        PolicyKind::HardwarePredictor { threshold: 500 },
        1_000,
        1,
        Scale {
            instructions: 15_000_000,
            warmup: 1_000_000,
            seed: 3,
            compute_profiles: 1,
        },
    ));
}

/// Several slow points (distinct seeds, so none is a cache hit) that
/// hold the only submit slot for a few seconds even in a release build.
fn storm_driver(ev: Evaluator<'_>) {
    for seed in 3..7 {
        ev(single_config(
            Profile::apache(),
            PolicyKind::HardwarePredictor { threshold: 500 },
            1_000,
            1,
            Scale {
                instructions: 15_000_000,
                warmup: 1_000_000,
                seed,
                compute_profiles: 1,
            },
        ));
    }
}

/// One numeric field of a daemon response line.
fn field(line: &str, key: &str) -> u64 {
    jsonv::parse(line)
        .unwrap_or_else(|e| panic!("{e}: {line}"))
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
}

/// The values of column `name` in an exported metrics CSV, oldest first.
fn metric_column(csv: &str, name: &str) -> Vec<f64> {
    let mut lines = csv.lines();
    let header = lines.next().expect("header");
    let col = header
        .split(',')
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("no column {name} in {header}"));
    lines
        .map(|l| {
            l.split(',')
                .nth(col)
                .expect("cell")
                .parse()
                .expect("number")
        })
        .collect()
}

/// Polls `stats` until `pred` holds (the admission gate's state is only
/// observable through it), failing the test after a generous timeout.
fn wait_stats(port: u16, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(stats) = client::stats(port) {
            if pred(&stats) {
                return stats;
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for stats to show {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn resubmitted_sweep_is_all_hits_and_byte_identical() {
    let dir = scratch("warm");
    let direct = direct_archive("e2e-warm", &dir.join("direct"), full_driver);
    let (port, handle) = start_daemon(serve_opts(&dir));

    let cold = submit(port, "e2e-warm", full_driver);
    assert_eq!(
        (cold.points, cold.hits, cold.misses, cold.failed),
        (3, 0, 3, 0)
    );
    let served = std::fs::read(&cold.archive).expect("read served archive");
    assert_eq!(
        served, direct,
        "cold served archive != direct canonical archive"
    );

    let warm = submit(port, "e2e-warm", full_driver);
    assert_eq!(
        (warm.points, warm.hits, warm.misses, warm.failed),
        (3, 3, 0, 0),
        "resubmission must be served entirely from cache"
    );
    assert_eq!(
        std::fs::read(&warm.archive).expect("read rewarmed archive"),
        direct,
        "warm served archive != direct canonical archive"
    );

    let stats = client::stats(port).expect("stats");
    assert!(stats.contains("\"entries\":3"), "{stats}");
    assert!(stats.contains("\"hits\":3"), "{stats}");
    assert!(stats.contains("\"misses\":3"), "{stats}");
    assert!(stats.contains("\"submissions\":2"), "{stats}");
    assert!(client::ping(port)
        .expect("ping")
        .contains("osoffload-serve"));

    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");

    let metrics =
        std::fs::read_to_string(dir.join("served/serve-metrics.csv")).expect("metrics exported");
    assert!(metrics.contains("serve.cache.hits"), "{metrics}");
}

#[test]
fn partly_cached_submission_streams_its_hits_first() {
    let dir = scratch("partial");
    let direct = direct_archive("e2e-partial", &dir.join("direct"), full_driver);
    let (port, handle) = start_daemon(serve_opts(&dir));
    // Cache two of the three configurations under another plan; the
    // full plan then has hits at indices 0 and 2 and one miss at 1.
    let warmup = submit(port, "e2e-partial-warmup", subset_driver);
    assert_eq!(warmup.misses, 2);

    let mut events = Vec::new();
    let outcome = client::submit(port, &request_line("e2e-partial", full_driver), |e| {
        events.push(e.to_string())
    })
    .expect("submit");
    assert_eq!(
        (outcome.points, outcome.hits, outcome.misses, outcome.failed),
        (3, 2, 1, 0)
    );
    let cached: Vec<bool> = events
        .iter()
        .filter(|e| e.starts_with("{\"event\":\"point\""))
        .map(|e| e.contains("\"cached\":true"))
        .collect();
    assert_eq!(
        cached,
        vec![true, true, false],
        "every cached event precedes the miss's: {events:#?}"
    );

    // The same lines as ever, whatever the batching on the wire.
    let plan = record_plan("e2e-partial", tiny().seed, |ev| full_driver(ev));
    let mut expected = vec!["{\"event\":\"accepted\",\"points\":3}".to_string()];
    for p in plan.points() {
        expected.push(format!(
            "{{\"event\":\"point\",\"index\":{},\"id\":\"{}\",\"digest\":\"{}\",\
             \"cached\":{},\"status\":\"ok\"}}",
            p.index,
            p.id,
            wire::digest(&p.config),
            p.index != 1
        ));
    }
    expected.push(format!(
        "{{\"event\":\"done\",\"ok\":true,\"points\":3,\"hits\":2,\"misses\":1,\
         \"failed\":0,\"evicted\":0,\"archive\":\"{}\"}}",
        outcome.archive
    ));
    assert_eq!(events.first(), expected.first());
    assert_eq!(events.last(), expected.last());
    events.sort();
    expected.sort();
    assert_eq!(events, expected);
    assert_eq!(
        std::fs::read(&outcome.archive).expect("read served archive"),
        direct,
        "partly cached archive != direct canonical archive"
    );

    // A fully cached resubmission leaves the unchanged archive in place.
    #[cfg(unix)]
    let inode = |path: &str| {
        std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(path).expect("stat archive"))
    };
    #[cfg(unix)]
    let before = inode(&outcome.archive);
    let warm = submit(port, "e2e-partial", full_driver);
    assert_eq!((warm.hits, warm.misses), (3, 0));
    assert_eq!(warm.archive, outcome.archive);
    #[cfg(unix)]
    assert_eq!(inode(&warm.archive), before, "archive rewritten");
    assert_eq!(
        std::fs::read(&warm.archive).expect("read rewarmed archive"),
        direct
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn restarted_daemon_is_warm_despite_torn_tail() {
    let dir = scratch("restart");
    let direct = direct_archive("e2e-restart", &dir.join("direct"), full_driver);

    let (port, handle) = start_daemon(serve_opts(&dir));
    let cold = submit(port, "e2e-restart", full_driver);
    assert_eq!(cold.misses, 3);
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");

    // The classic kill -9 artefact: a torn, unterminated append.
    let cache = dir.join("cache.wal");
    let mut bytes = std::fs::read(&cache).expect("read cache");
    bytes.extend_from_slice(b"{\"fnv\":\"0123456789abcdef\",\"body\":{\"digest\":\"tor");
    std::fs::write(&cache, bytes).expect("tear cache tail");

    let (port, handle) = start_daemon(serve_opts(&dir));
    let warm = submit(port, "e2e-restart", full_driver);
    assert_eq!(
        (warm.hits, warm.misses),
        (3, 0),
        "restart must replay the WAL and serve everything from cache"
    );
    assert_eq!(
        std::fs::read(&warm.archive).expect("read archive"),
        direct,
        "post-restart archive != direct canonical archive"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn cached_rows_rekey_to_new_plan_positions() {
    let dir = scratch("rekey");
    let direct_subset = direct_archive("e2e-rekey", &dir.join("direct"), subset_driver);

    let (port, handle) = start_daemon(serve_opts(&dir));
    // Warm the cache with the full plan, then submit a permuted subset:
    // the same configurations at different indices under different ids.
    let cold = submit(port, "e2e-full", full_driver);
    assert_eq!(cold.misses, 3);
    let subset = submit(port, "e2e-rekey", subset_driver);
    assert_eq!(
        (subset.points, subset.hits, subset.misses),
        (2, 2, 0),
        "every subset point was cached under another plan position"
    );
    assert_eq!(
        std::fs::read(&subset.archive).expect("read archive"),
        direct_subset,
        "rekeyed archive != direct canonical archive of the subset plan"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn fault_injected_sweep_still_archives_byte_identically() {
    let dir = scratch("faults");
    let direct = direct_archive("e2e-faults", &dir.join("direct"), full_driver);

    let opts = ServeOptions {
        retries: 5,
        fault_seed: Some(9),
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);
    let outcome = submit(port, "e2e-faults", full_driver);
    assert_eq!(outcome.failed, 0, "retries must absorb the injected faults");
    assert_eq!(
        std::fs::read(&outcome.archive).expect("read archive"),
        direct,
        "fault-injected archive != clean direct canonical archive"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn overload_is_shed_with_retry_hint_then_absorbed_by_backoff() {
    let dir = scratch("overload");
    let opts = ServeOptions {
        submit_slots: 1,
        admit_queue: 0,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    // Fill the only slot with a slow sweep, then provoke the gate.
    let slow = request_line("e2e-slow", slow_driver);
    let runner = std::thread::spawn(move || client::submit(port, &slow, |_| {}));
    wait_stats(port, "running=1", |s| s.contains("\"running\":1"));

    let fast = request_line("e2e-fast", full_driver);
    let refusal = client::submit_once(port, &fast, |_| {}).expect_err("must be shed");
    match &refusal {
        SubmitError::Refused {
            error,
            retry_after_ms,
        } => {
            assert_eq!(error, "overloaded");
            assert!(
                retry_after_ms.is_some(),
                "overloaded refusals carry a backoff hint"
            );
        }
        other => panic!("expected an overloaded refusal, got {other:?}"),
    }
    assert!(refusal.is_retryable(), "overload must be marked retryable");

    // The resilient client path rides the backoff until the slot frees.
    let policy = RetryPolicy {
        retries: 60,
        backoff_ms: 20,
        seed: 7,
    };
    let absorbed =
        client::submit_with_retry(port, &fast, policy, |_| {}).expect("backoff absorbs overload");
    assert_eq!((absorbed.points, absorbed.failed), (3, 0));
    let slow_outcome = runner.join().expect("slow thread").expect("slow submit");
    assert_eq!(slow_outcome.failed, 0);

    // Shedding is observable: in the stats line and the metric export.
    let stats = client::stats(port).expect("stats");
    assert!(
        !stats.contains("\"shed\":0,"),
        "at least one shed must be counted: {stats}"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
    let metrics =
        std::fs::read_to_string(dir.join("served/serve-metrics.csv")).expect("metrics exported");
    assert!(metrics.contains("serve.queue.shed"), "{metrics}");
    assert!(metrics.contains("serve.queue.depth"), "{metrics}");
}

#[test]
fn shutdown_drains_running_and_refuses_queued() {
    let dir = scratch("drain");
    let opts = ServeOptions {
        submit_slots: 1,
        admit_queue: 2,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    let slow = request_line("e2e-drain-slow", slow_driver);
    let running = std::thread::spawn(move || client::submit(port, &slow, |_| {}));
    wait_stats(port, "running=1", |s| s.contains("\"running\":1"));
    let queued_req = request_line("e2e-drain-queued", full_driver);
    let queued = std::thread::spawn(move || client::submit(port, &queued_req, |_| {}));
    wait_stats(port, "queued=1", |s| s.contains("\"queued\":1"));

    // Drain: the running sweep finishes, the queued one is refused, and
    // the acknowledgement only arrives once both are settled.
    let ack = client::stop(port).expect("graceful stop");
    assert!(ack.contains("\"drained\":true"), "{ack}");
    let finished = running.join().expect("running thread").expect("running");
    assert_eq!(
        (finished.points, finished.failed),
        (1, 0),
        "the in-flight sweep must finish, not be aborted"
    );
    let refused = queued.join().expect("queued thread").expect_err("refused");
    assert!(refused.contains("draining"), "{refused}");
    handle.join().expect("daemon thread").expect("daemon exit");

    // The drained daemon journaled its sweep: a restart serves it warm.
    let (port, handle) = start_daemon(ServeOptions {
        submit_slots: 1,
        admit_queue: 2,
        ..serve_opts(&dir)
    });
    let warm = submit(port, "e2e-drain-slow", slow_driver);
    assert_eq!((warm.hits, warm.misses), (1, 0));
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn queued_submissions_respect_the_request_deadline() {
    let dir = scratch("deadline");
    let opts = ServeOptions {
        submit_slots: 1,
        admit_queue: 2,
        request_deadline_ms: 300,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    let slow = request_line("e2e-deadline-slow", slow_driver);
    let running = std::thread::spawn(move || client::submit(port, &slow, |_| {}));
    wait_stats(port, "running=1", |s| s.contains("\"running\":1"));

    // This submission queues behind the slow one and must be bounced
    // once its 300 ms budget is gone — not parked indefinitely.
    let bounced = client::submit_once(
        port,
        &request_line("e2e-deadline-fast", full_driver),
        |_| {},
    )
    .expect_err("deadline must fire");
    match &bounced {
        SubmitError::Refused { error, .. } => assert_eq!(error, "deadline"),
        other => panic!("expected a deadline refusal, got {other:?}"),
    }
    assert!(
        !bounced.is_retryable(),
        "a blown deadline is the caller's problem, not a retry hint"
    );
    let live = client::metrics(port).expect("metrics");
    assert_eq!(field(&live, "deadline_refused"), 1, "{live}");

    // The slow sweep itself ran under the same deadline, so its point
    // was cut off by the runner's watchdog rather than running forever.
    let slow_outcome = running.join().expect("slow thread").expect("slow submit");
    assert_eq!(
        slow_outcome.failed, 1,
        "the watchdog must bound execution to the remaining budget"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
    let metrics =
        std::fs::read_to_string(dir.join("served/serve-metrics.csv")).expect("metrics exported");
    let refused = metric_column(&metrics, "serve.deadline.refused");
    assert_eq!(refused.last(), Some(&1.0), "{metrics}");
}

#[test]
fn shed_storm_keeps_metrics_io_and_history_bounded() {
    const STORM: u64 = 1_200;
    let started = Instant::now();
    let dir = scratch("storm");
    let opts = ServeOptions {
        submit_slots: 1,
        admit_queue: 0,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    let slow = request_line("e2e-storm-slow", storm_driver);
    let runner = std::thread::spawn(move || client::submit(port, &slow, |_| {}));
    wait_stats(port, "running=1", |s| s.contains("\"running\":1"));

    // Every one of these is refused at the admission gate while the slow
    // sweep holds the only slot.
    let mut shed = 0;
    while shed < STORM {
        let reply = raw_request(port, b"{\"op\":\"submit\"}\n");
        assert!(
            reply.contains("\"overloaded\""),
            "refusal {shed} of {STORM}: {reply}"
        );
        shed += 1;
    }
    // The exporter catches up on its own cadence, not per request.
    let live = loop {
        let live = client::metrics(port).expect("metrics");
        if field(&live, "exports") > 0 {
            break live;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no export: {live}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let elapsed = started.elapsed();
    assert!(field(&live, "shed") >= STORM, "{live}");
    assert!(field(&live, "samples") >= STORM, "{live}");
    let ticks = elapsed.as_secs_f64() / METRICS_EXPORT_CADENCE.as_secs_f64();
    assert!(
        field(&live, "exports") as f64 <= ticks + 2.0,
        "file exports must follow the cadence, not the requests ({elapsed:?}): {live}"
    );
    let cap = METRICS_HISTORY_ROWS as u64;
    assert_eq!(field(&live, "history_cap"), cap, "{live}");
    assert!(field(&live, "history") <= cap, "{live}");
    assert!(field(&live, "pending") <= cap, "{live}");

    let slow_outcome = runner.join().expect("slow thread").expect("slow submit");
    assert_eq!(slow_outcome.failed, 0);
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");

    // The drain's final export holds the newest samples only, the last
    // of them counting every shed.
    let metrics =
        std::fs::read_to_string(dir.join("served/serve-metrics.csv")).expect("metrics exported");
    let sheds = metric_column(&metrics, "serve.queue.shed");
    assert_eq!(sheds.len(), METRICS_HISTORY_ROWS, "history is bounded");
    assert!(*sheds.last().expect("a row") >= STORM as f64, "{sheds:?}");
}

/// Writes raw bytes as one request and returns the response line (empty
/// when the daemon hangs up without answering).
fn raw_request(port: u16, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.write_all(bytes).expect("send");
    let mut line = String::new();
    let _ = BufReader::new(&stream).read_line(&mut line);
    line
}

#[test]
fn oversized_and_garbage_frames_are_bounced_within_limits() {
    let dir = scratch("framing");
    let opts = ServeOptions {
        max_line_bytes: 1024,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    // An 8 KiB line against a 1 KiB bound: refused by length, buffered
    // bounded — never accumulated until memory or patience runs out.
    let mut oversized = vec![b'a'; 8 * 1024];
    oversized.push(b'\n');
    let answer = raw_request(port, &oversized);
    assert!(answer.contains("exceeds 1024 bytes"), "{answer}");

    // Bytes that are not UTF-8 at all.
    let answer = raw_request(port, b"{\"op\":\"\xff\xfe\"}\n");
    assert!(answer.contains("not UTF-8"), "{answer}");

    // Valid UTF-8, but NUL-riddled garbage mid-frame.
    let answer = raw_request(port, b"{\"op\":\"sub\x00mit\"}\n");
    assert!(answer.contains("\"ok\":false"), "{answer}");

    // The daemon survives all of it.
    assert!(client::ping(port).expect("ping").contains("\"ok\":true"));
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn client_vanishing_after_accepted_still_journals_every_point() {
    let dir = scratch("vanish");
    let direct = direct_archive("e2e-vanish", &dir.join("direct"), full_driver);
    let (port, handle) = start_daemon(serve_opts(&dir));

    // Submit, read only the `accepted` event, then vanish mid-stream.
    {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        (&stream)
            .write_all(request_line("e2e-vanish", full_driver).as_bytes())
            .expect("send");
        let mut accepted = String::new();
        BufReader::new(&stream)
            .read_line(&mut accepted)
            .expect("read accepted");
        assert!(accepted.contains("\"event\":\"accepted\""), "{accepted}");
        drop(stream);
    }

    // The sweep must run to completion and journal everything anyway.
    wait_stats(port, "the orphaned sweep to finish", |s| {
        s.contains("\"submissions\":1") && s.contains("\"misses\":3")
    });
    let warm = submit(port, "e2e-vanish", full_driver);
    assert_eq!(
        (warm.points, warm.hits, warm.misses, warm.failed),
        (3, 3, 0, 0),
        "every point the vanished client submitted must have been cached"
    );
    assert_eq!(
        std::fs::read(&warm.archive).expect("read archive"),
        direct,
        "archive after an abandoned submission != direct canonical archive"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn slow_loris_is_timed_out_without_wedging_the_daemon() {
    let dir = scratch("loris");
    let opts = ServeOptions {
        read_timeout_ms: 200,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    // Half a request, then silence: the read timeout must reclaim the
    // connection instead of letting it pin a worker forever.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.write_all(b"{\"op\":\"pi").expect("send half");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "a timed-out half-frame gets silence, not an answer");

    assert!(client::ping(port).expect("ping").contains("\"ok\":true"));
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn hostile_requests_get_errors_not_panics() {
    let dir = scratch("hostile");
    let (port, handle) = start_daemon(serve_opts(&dir));

    for request in [
        "this is not json\n",
        "{\"op\":\"frobnicate\"}\n",
        "{\"op\":\"submit\"}\n",
        "{\"op\":\"submit\",\"experiment\":\"../etc\",\"master_seed\":1,\"points\":[]}\n",
        // Config that would trip a builder assertion if range checks
        // did not run first.
        "{\"op\":\"submit\",\"experiment\":\"x\",\"master_seed\":1,\"points\":[{\"id\":\"p\",\
         \"config\":{\"profile\":\"apache\",\"phases\":[],\"policy\":{\"kind\":\"baseline\"},\
         \"mechanism\":\"thread-migration\",\"migration_one_way\":0,\
         \"os_core_slowdown_milli\":0,\"os_core_contexts\":1,\"os_cores\":1,\
         \"dispatch\":\"least-loaded\",\"os_cold_penalty\":0,\"resource_adaptation\":null,\
         \"user_cores\":1,\"instructions\":1000,\"warmup\":100,\"seed\":1,\"tuner\":null,\
         \"half_l2_cores\":null}}]}\n",
    ] {
        let err = client::submit(port, request, |_| {}).expect_err("must be refused");
        assert!(err.contains("refused") || err.contains("closed"), "{err}");
    }

    // The daemon survives all of it.
    assert!(client::ping(port).expect("ping").contains("\"ok\":true"));
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}
