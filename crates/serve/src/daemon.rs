//! The serve daemon: a localhost TCP accept loop scheduling submitted
//! sweeps on the runner behind the result cache, concurrently and with
//! explicit admission control.
//!
//! The protocol is newline-delimited JSON over one connection per
//! request. A client connects, writes a single request line, and reads
//! response lines until the connection closes:
//!
//! - `{"op":"ping"}` → one `{"ok":true,...}` line.
//! - `{"op":"stats"}` → one line of cache/counter totals.
//! - `{"op":"metrics"}` → one line of live metrics: the totals, the
//!   gauges, the sample history's length and the file exports so far.
//! - `{"op":"shutdown"}` → graceful drain: in-flight submissions finish
//!   and fsync, queued ones get a `draining` refusal, then the
//!   acknowledgement line is written and the listener closes.
//! - `{"op":"submit","experiment":..,"master_seed":..,"points":[..]}` →
//!   an `accepted` event, one `point` event per point as it completes
//!   (cached points first, written as one burst before any computation
//!   starts), and a final `done` event carrying hit/miss totals and the
//!   archive path. A fully cached submission spawns no runner thread,
//!   and an archive that already holds the rendered bytes is synced in
//!   place rather than rewritten.
//!
//! # Concurrency and admission control
//!
//! Accepted connections are handed to a bounded worker pool over a
//! bounded connection queue; when even that queue is full the daemon
//! answers `{"ok":false,"error":"overloaded","retry_after_ms":N}` and
//! closes, never blocking the accept loop. Submissions then pass an
//! admission gate: at most `submit_slots` sweeps run concurrently, at
//! most `admit_queue` wait behind them, and everything beyond that is
//! shed with the same structured `overloaded` line. Shedding is safe
//! because resubmission is idempotent — the digest cache serves
//! whatever already completed. WAL appends stay single-writer (the
//! cache sits behind one mutex), so concurrent submissions of
//! overlapping configurations dedupe through the digest index without
//! torn records.
//!
//! Requests are bounded in every dimension: a configurable max line
//! length (slow-loris / oversized-frame protection), configurable
//! read/write socket timeouts, and an optional per-request deadline
//! (`request_deadline_ms`) that bounds both the time queued at the
//! admission gate and — via the runner's per-point watchdog — the
//! execution itself.
//!
//! Every submitted configuration is rebuilt through
//! [`wire::config_from_json`] — and therefore through
//! `SystemConfig::try_build` — before it can reach the executor, so a
//! malformed or hostile request gets an error line, never a panic.
//! Completed points are appended to the cache WAL as they finish
//! (fsynced, inside the executor's completion callback), which is what
//! makes a `kill -9` mid-campaign recoverable: the restarted daemon
//! replays the WAL and serves every acknowledged point from cache.
//! (SIGTERM cannot be trapped without `unsafe` or a signal dependency;
//! use the `shutdown` op for a graceful drain, and rely on the WAL for
//! anything harsher.)
//!
//! Sweeps always run in canonical mode, and the daemon additionally
//! normalises the run-shape fields (`attempts`, `attempt_ms`,
//! `injected_faults`) of every row before archiving. A sweep served
//! from cache, recomputed after a crash, or retried under fault
//! injection therefore produces a byte-identical archive to a clean
//! direct `--canonical` run of the same plan.

use crate::cache::ResultCache;
use crate::wire;
use osoffload_obs::{atomic_write, json_escape, MetricId, MetricsRegistry};
use osoffload_runner::jsonv::{self, Value};
use osoffload_runner::report::write_sweep;
use osoffload_runner::{run_plan_hooked, ExecHooks, ExperimentPlan, Outcome, RunnerOptions};
use std::collections::VecDeque;
use std::io::{BufRead, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default TCP port of the serve daemon.
pub const DEFAULT_PORT: u16 = 7411;

/// Default read/write socket timeout in milliseconds.
pub const DEFAULT_SOCKET_TIMEOUT_MS: u64 = 60_000;

/// Default maximum request line length in bytes (1 MiB).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Port to listen on (localhost only); `0` picks an ephemeral port.
    pub port: u16,
    /// Path of the cache WAL file.
    pub cache: PathBuf,
    /// Directory archives and metrics are written into.
    pub out_dir: PathBuf,
    /// Maximum cached entries (`0` = unbounded); oldest evicted first.
    pub cache_capacity: usize,
    /// Cache entry TTL in virtual seconds (`0` = no age limit); entries
    /// older than this are evicted at open/compaction time.
    pub cache_ttl_secs: u64,
    /// Worker threads per sweep (`0` = one per hardware thread).
    pub workers: usize,
    /// Lane-pack width (`0` = auto; only used for sweeps with no cached
    /// points, since lane packs would straddle served rows).
    pub lanes: usize,
    /// Retries per failing point.
    pub retries: u32,
    /// Fault-injection seed (chaos testing; see `ROBUSTNESS.md`).
    pub fault_seed: Option<u64>,
    /// Concurrent submissions executed at once (minimum 1).
    pub submit_slots: usize,
    /// Submissions allowed to wait behind the running ones; anything
    /// beyond is shed with an `overloaded` response.
    pub admit_queue: usize,
    /// Connection-handling threads (`0` = sized from
    /// `submit_slots + admit_queue` with headroom for quick ops).
    pub conn_workers: usize,
    /// Socket read timeout in milliseconds (must be positive).
    pub read_timeout_ms: u64,
    /// Socket write timeout in milliseconds (must be positive).
    pub write_timeout_ms: u64,
    /// Per-request deadline in milliseconds (`0` = none): bounds the
    /// admission-queue wait, and the remaining budget bounds each point
    /// through the runner's watchdog.
    pub request_deadline_ms: u64,
    /// Maximum request line length in bytes.
    pub max_line_bytes: usize,
    /// Suppresses stderr chatter.
    pub quiet: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: DEFAULT_PORT,
            cache: PathBuf::from("results/serve/cache.wal"),
            out_dir: PathBuf::from("results/serve"),
            cache_capacity: 0,
            cache_ttl_secs: 0,
            workers: 0,
            lanes: 0,
            retries: 0,
            fault_seed: None,
            submit_slots: 2,
            admit_queue: 4,
            conn_workers: 0,
            read_timeout_ms: DEFAULT_SOCKET_TIMEOUT_MS,
            write_timeout_ms: DEFAULT_SOCKET_TIMEOUT_MS,
            request_deadline_ms: 0,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            quiet: false,
        }
    }
}

impl ServeOptions {
    fn slots(&self) -> usize {
        self.submit_slots.max(1)
    }

    /// The connection pool is always large enough that every runnable
    /// and queued submission can hold a connection while at least one
    /// thread stays free for quick ops (`ping`/`stats`/`metrics`/`shutdown`) — a
    /// drain request must never be starved by the very load it is meant
    /// to resolve.
    fn pool(&self) -> usize {
        let floor = self.slots() + self.admit_queue + 1;
        if self.conn_workers == 0 {
            floor + 1
        } else {
            self.conn_workers.max(floor)
        }
    }
}

/// How often the exporter thread rewrites `serve-metrics.{csv,json}`,
/// and only when new samples exist. A drain flushes at once instead of
/// waiting for the next tick.
pub const METRICS_EXPORT_CADENCE: Duration = Duration::from_secs(1);

/// Newest metric samples the daemon keeps, and so the most rows the
/// exported files hold.
pub const METRICS_HISTORY_ROWS: usize = 1024;

/// Totals across the daemon's lifetime, sampled into the metrics after
/// every submission, shed, or refusal.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    hits: u64,
    misses: u64,
    evictions: u64,
    submissions: u64,
    shed: u64,
    drain_refused: u64,
    deadline_refused: u64,
}

/// Column handles of the daemon's metric schema.
#[derive(Clone, Copy)]
struct MetricIds {
    hits: MetricId,
    misses: MetricId,
    evictions: MetricId,
    entries: MetricId,
    submissions: MetricId,
    depth: MetricId,
    shed: MetricId,
    drain_refused: MetricId,
    deadline_refused: MetricId,
}

/// A bounded registry with the daemon's metric schema.
fn metrics_registry() -> (MetricsRegistry, MetricIds) {
    let mut registry = MetricsRegistry::bounded(METRICS_HISTORY_ROWS);
    let ids = MetricIds {
        hits: registry.register_counter("serve.cache.hits"),
        misses: registry.register_counter("serve.cache.misses"),
        evictions: registry.register_counter("serve.cache.evictions"),
        entries: registry.register_gauge("serve.cache.entries"),
        submissions: registry.register_counter("serve.submissions"),
        depth: registry.register_gauge("serve.queue.depth"),
        shed: registry.register_counter("serve.queue.shed"),
        drain_refused: registry.register_counter("serve.drain.refused"),
        deadline_refused: registry.register_counter("serve.deadline.refused"),
    };
    (registry, ids)
}

/// The request path's side of the metrics: lifetime totals, the cache
/// size as of the last submission, and the samples committed since the
/// exporter last took them. Nothing done under this lock renders or
/// touches a file.
struct Live {
    totals: Totals,
    entries: usize,
    samples: u64,
    pending: MetricsRegistry,
    ids: MetricIds,
}

impl Live {
    fn new(entries: usize) -> Live {
        let (pending, ids) = metrics_registry();
        Live {
            totals: Totals::default(),
            entries,
            samples: 0,
            pending,
            ids,
        }
    }

    /// Commits one sample of the current totals and gauges.
    fn commit(&mut self, depth: usize) {
        let (t, ids, reg) = (self.totals, self.ids, &mut self.pending);
        reg.set(ids.hits, t.hits as f64);
        reg.set(ids.misses, t.misses as f64);
        reg.set(ids.evictions, t.evictions as f64);
        reg.set(ids.entries, self.entries as f64);
        reg.set(ids.submissions, t.submissions as f64);
        reg.set(ids.depth, depth as f64);
        reg.set(ids.shed, t.shed as f64);
        reg.set(ids.drain_refused, t.drain_refused as f64);
        reg.set(ids.deadline_refused, t.deadline_refused as f64);
        reg.commit_sample(self.samples, 0, 0);
        self.samples += 1;
    }
}

/// Coordination between the exporter thread and the rest of the daemon.
#[derive(Default)]
struct Exporter {
    ctl: Mutex<ExportCtl>,
    cv: Condvar,
    /// File exports written so far.
    exports: AtomicU64,
    /// Rows in the exporter's history as of its last export.
    history: AtomicUsize,
}

#[derive(Default)]
struct ExportCtl {
    /// Flushes asked for, and flushes done; a flush is served when
    /// `flushed` catches up with the number asked for before it.
    asked: u64,
    flushed: u64,
    stop: bool,
}

/// The admission gate: how many sweeps are running, how many are
/// parked waiting for a slot, and whether a drain is in progress.
#[derive(Debug, Default)]
struct Gate {
    running: usize,
    queued: usize,
    draining: bool,
}

/// State shared between the accept loop and the connection workers.
struct Shared {
    addr: SocketAddr,
    opts: ServeOptions,
    cache: Mutex<ResultCache>,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    live: Mutex<Live>,
    exporter: Exporter,
    stop: AtomicBool,
}

/// A bound serve daemon, ready to [`run`](Daemon::run).
pub struct Daemon {
    listener: TcpListener,
    shared: Shared,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.shared.addr)
            .field("cache_entries", &self.cache_len())
            .finish()
    }
}

fn err_line(why: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}\n", json_escape(why))
}

fn valid_experiment_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// One lowered, validated submission point.
struct SubmitPoint {
    id: String,
    wire: String,
    digest: String,
    config: osoffload_system::SystemConfig,
}

/// A bounded handoff queue between the accept loop and the worker pool.
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    cv: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Hands a connection to the pool, or returns it when the queue is
    /// full (the caller sheds it) or already closed.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().expect("conn queue lock");
        if state.1 || state.0.len() >= self.capacity {
            return Err(stream);
        }
        state.0.push_back(stream);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once the queue is closed
    /// and empty (worker shutdown).
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("conn queue lock");
        loop {
            if let Some(stream) = state.0.pop_front() {
                return Some(stream);
            }
            if state.1 {
                return None;
            }
            state = self.cv.wait(state).expect("conn queue wait");
        }
    }

    /// Closes the queue, waking every worker, and returns the
    /// connections nobody will serve so the caller can refuse them.
    fn close(&self) -> Vec<TcpStream> {
        let mut state = self.state.lock().expect("conn queue lock");
        state.1 = true;
        self.cv.notify_all();
        state.0.drain(..).collect()
    }
}

/// The admission verdict for one submission.
enum Admit {
    Go,
    Refuse { line: String, kind: RefuseKind },
}

#[derive(Clone, Copy)]
enum RefuseKind {
    Overloaded,
    Draining,
    Deadline,
}

impl Daemon {
    /// Opens the cache and binds the listener on `127.0.0.1`.
    pub fn bind(opts: ServeOptions) -> Result<Daemon, String> {
        if opts.read_timeout_ms == 0 || opts.write_timeout_ms == 0 {
            return Err("socket timeouts must be positive".into());
        }
        if opts.max_line_bytes == 0 {
            return Err("max_line_bytes must be positive".into());
        }
        let cache =
            ResultCache::open_limited(&opts.cache, opts.cache_capacity, opts.cache_ttl_secs)?;
        for warning in cache.warnings() {
            eprintln!("serve: {warning}");
        }
        let entries = cache.len();
        let listener = TcpListener::bind(("127.0.0.1", opts.port))
            .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", opts.port))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        Ok(Daemon {
            listener,
            shared: Shared {
                addr,
                opts,
                cache: Mutex::new(cache),
                gate: Mutex::new(Gate::default()),
                gate_cv: Condvar::new(),
                live: Mutex::new(Live::new(entries)),
                exporter: Exporter::default(),
                stop: AtomicBool::new(false),
            },
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.shared.addr
    }

    /// Cached entry count.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.lock().expect("cache lock").len()
    }

    /// Serves connections until a `shutdown` request drains the daemon.
    pub fn run(&mut self) -> Result<(), String> {
        let shared = &self.shared;
        let pool = shared.opts.pool();
        let queue = ConnQueue::new(pool * 2);
        std::thread::scope(|scope| {
            let exporter = scope.spawn(|| export_loop(shared));
            let workers: Vec<_> = (0..pool)
                .map(|_| {
                    scope.spawn(|| {
                        while let Some(stream) = queue.pop() {
                            handle_connection(shared, stream);
                        }
                    })
                })
                .collect();
            let result = loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => break Err(format!("accept failed: {e}")),
                };
                if shared.stop.load(Ordering::SeqCst) {
                    // Drain complete: this is the shutdown wake-up (or a
                    // straggler, told cleanly to go away).
                    refuse_late(stream, "draining");
                    break Ok(());
                }
                if let Err(stream) = queue.push(stream) {
                    // Even the handoff queue is full: shed at the door
                    // rather than letting the accept loop block or the
                    // backlog grow without bound.
                    shed_connection(shared, stream);
                }
            };
            for stream in queue.close() {
                refuse_late(stream, "draining");
            }
            // The exporter outlives every worker, so a drain's flush is
            // always served and its last export sees every sample.
            let panicked = workers.into_iter().find_map(|w| w.join().err());
            {
                let mut ctl = shared.exporter.ctl.lock().expect("exporter lock");
                ctl.stop = true;
                shared.exporter.cv.notify_all();
            }
            if let Err(payload) = exporter.join() {
                std::panic::resume_unwind(payload);
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            result
        })
    }
}

/// Writes one refusal line to a connection nobody will serve, bounded
/// by a short write timeout so teardown cannot wedge on a dead peer.
fn refuse_late(stream: TcpStream, why: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = (&stream).write_all(err_line(why).as_bytes());
}

fn overloaded_line(depth: usize) -> String {
    // A deterministic hint that grows with queue pressure; clients cap
    // and jitter it themselves (see `client::submit_with_retry`).
    format!(
        "{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{}}}\n",
        250 * (depth as u64 + 1)
    )
}

/// Submissions running or queued at the admission gate.
fn queue_depth(shared: &Shared) -> usize {
    let gate = shared.gate.lock().expect("gate lock");
    gate.running + gate.queued
}

fn shed_connection(shared: &Shared, stream: TcpStream) {
    let depth = queue_depth(shared);
    record_sample(shared, |live| live.totals.shed += 1);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = (&stream).write_all(overloaded_line(depth).as_bytes());
}

/// How reading the request line failed.
enum ReadLineError {
    /// The line exceeded the configured maximum length.
    TooLong,
    /// The line was not valid UTF-8.
    BadUtf8,
    /// The peer vanished or the socket timed out; nothing to answer.
    Gone,
}

/// Reads one `\n`-terminated request line with a hard length bound, so
/// a slow-loris or oversized frame can never buffer unboundedly.
fn read_request_line(stream: &TcpStream, max: usize) -> Result<String, ReadLineError> {
    let mut reader = std::io::BufReader::with_capacity(8 * 1024, stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (found, used) = {
            let chunk = match reader.fill_buf() {
                Ok(c) => c,
                Err(_) => return Err(ReadLineError::Gone),
            };
            if chunk.is_empty() {
                return Err(ReadLineError::Gone);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    line.extend_from_slice(&chunk[..pos]);
                    (true, pos + 1)
                }
                None => {
                    line.extend_from_slice(chunk);
                    (false, chunk.len())
                }
            }
        };
        reader.consume(used);
        if line.len() > max {
            return Err(ReadLineError::TooLong);
        }
        if found {
            return String::from_utf8(line).map_err(|_| ReadLineError::BadUtf8);
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let opts = &shared.opts;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(opts.read_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(opts.write_timeout_ms)));
    let mut out = &stream;
    let line = match read_request_line(&stream, opts.max_line_bytes) {
        Ok(line) => line,
        Err(ReadLineError::TooLong) => {
            let _ = out.write_all(
                err_line(&format!(
                    "request line exceeds {} bytes",
                    opts.max_line_bytes
                ))
                .as_bytes(),
            );
            return;
        }
        Err(ReadLineError::BadUtf8) => {
            let _ = out.write_all(err_line("request is not UTF-8").as_bytes());
            return;
        }
        // A timed-out or vanished client gets dropped silently — there
        // is nobody left to answer, and answering a half-written frame
        // would only confuse a confused peer further.
        Err(ReadLineError::Gone) => return,
    };
    let request = match jsonv::parse(line.trim_end()) {
        Ok(v) => v,
        Err(why) => {
            let _ = out.write_all(err_line(&format!("bad request: {why}")).as_bytes());
            return;
        }
    };
    match request.get("op").and_then(Value::as_str) {
        Some("ping") => {
            let draining = shared.gate.lock().expect("gate lock").draining;
            let _ = out.write_all(
                format!(
                    "{{\"ok\":true,\"service\":\"osoffload-serve\",\"version\":2,\
                     \"draining\":{draining}}}\n"
                )
                .as_bytes(),
            );
        }
        Some("stats") => {
            let (running, queued, draining) = {
                let gate = shared.gate.lock().expect("gate lock");
                (gate.running, gate.queued, gate.draining)
            };
            let t = shared.live.lock().expect("metrics lock").totals;
            let entries = shared.cache.lock().expect("cache lock").len();
            let _ = out.write_all(
                format!(
                    "{{\"ok\":true,\"entries\":{entries},\"hits\":{},\"misses\":{},\
                     \"evictions\":{},\"submissions\":{},\"shed\":{},\
                     \"drain_refused\":{},\"deadline_refused\":{},\"running\":{running},\
                     \"queued\":{queued},\"draining\":{draining}}}\n",
                    t.hits,
                    t.misses,
                    t.evictions,
                    t.submissions,
                    t.shed,
                    t.drain_refused,
                    t.deadline_refused,
                )
                .as_bytes(),
            );
        }
        Some("metrics") => {
            let _ = out.write_all(metrics_line(shared).as_bytes());
        }
        Some("shutdown") => handle_shutdown(shared, out),
        Some("submit") => submit_entry(shared, &request, &stream),
        _ => {
            let _ = out.write_all(err_line("unknown op").as_bytes());
        }
    }
}

/// Graceful drain: flag the gate (waking every queued submission into a
/// `draining` refusal), wait until nothing is running or queued, then
/// acknowledge, raise the stop flag, and poke the accept loop awake.
fn handle_shutdown(shared: &Shared, mut out: &TcpStream) {
    {
        let mut gate = shared.gate.lock().expect("gate lock");
        gate.draining = true;
        shared.gate_cv.notify_all();
        while gate.running > 0 || gate.queued > 0 {
            gate = shared.gate_cv.wait(gate).expect("gate wait");
        }
    }
    record_sample(shared, |_| {});
    flush_metrics(shared);
    let _ = out.write_all(b"{\"ok\":true,\"stopping\":true,\"drained\":true}\n");
    shared.stop.store(true, Ordering::SeqCst);
    // The accept loop is blocked in accept(); a throwaway connection
    // wakes it to observe the stop flag.
    let _ = TcpStream::connect(shared.addr);
}

/// Decides whether a submission may run now, must wait, or is refused.
fn admit(shared: &Shared) -> Admit {
    let opts = &shared.opts;
    let deadline = (opts.request_deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(opts.request_deadline_ms));
    let mut gate = shared.gate.lock().expect("gate lock");
    if gate.draining {
        return Admit::Refuse {
            line: err_line("draining"),
            kind: RefuseKind::Draining,
        };
    }
    if gate.running < opts.slots() {
        gate.running += 1;
        return Admit::Go;
    }
    if gate.queued >= opts.admit_queue {
        return Admit::Refuse {
            line: overloaded_line(gate.running + gate.queued),
            kind: RefuseKind::Overloaded,
        };
    }
    gate.queued += 1;
    loop {
        if gate.draining {
            gate.queued -= 1;
            shared.gate_cv.notify_all();
            return Admit::Refuse {
                line: err_line("draining"),
                kind: RefuseKind::Draining,
            };
        }
        if gate.running < opts.slots() {
            gate.queued -= 1;
            gate.running += 1;
            shared.gate_cv.notify_all();
            return Admit::Go;
        }
        match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    gate.queued -= 1;
                    shared.gate_cv.notify_all();
                    return Admit::Refuse {
                        line: format!(
                            "{{\"ok\":false,\"error\":\"deadline\",\
                             \"deadline_ms\":{}}}\n",
                            opts.request_deadline_ms
                        ),
                        kind: RefuseKind::Deadline,
                    };
                }
                let (g, _) = shared
                    .gate_cv
                    .wait_timeout(gate, d - now)
                    .expect("gate wait");
                gate = g;
            }
            None => gate = shared.gate_cv.wait(gate).expect("gate wait"),
        }
    }
}

/// Admission wrapper around [`handle_submit`]: passes the gate, runs
/// the sweep, and releases the slot whatever happens.
fn submit_entry(shared: &Shared, request: &Value, out: &TcpStream) {
    let wait_start = Instant::now();
    match admit(shared) {
        Admit::Go => {}
        Admit::Refuse { line, kind } => {
            record_sample(shared, |live| match kind {
                RefuseKind::Overloaded => live.totals.shed += 1,
                RefuseKind::Draining => live.totals.drain_refused += 1,
                RefuseKind::Deadline => live.totals.deadline_refused += 1,
            });
            let mut w = out;
            let _ = w.write_all(line.as_bytes());
            return;
        }
    }
    let result = handle_submit(shared, request, out, wait_start.elapsed());
    {
        let mut gate = shared.gate.lock().expect("gate lock");
        gate.running -= 1;
        shared.gate_cv.notify_all();
    }
    if let Err(why) = result {
        let mut w = out;
        let _ = w.write_all(err_line(&why).as_bytes());
    }
}

fn lower_submit(request: &Value) -> Result<(String, u64, Vec<SubmitPoint>), String> {
    let experiment = request
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or("submit missing experiment")?;
    if !valid_experiment_name(experiment) {
        return Err(format!(
            "experiment name {experiment:?} must be 1-64 chars of [A-Za-z0-9._-]"
        ));
    }
    let master_seed = request
        .get("master_seed")
        .and_then(Value::as_u64)
        .ok_or("submit missing master_seed")?;
    let raw_points = request
        .get("points")
        .and_then(Value::as_arr)
        .ok_or("submit missing points")?;
    if raw_points.is_empty() {
        return Err("submit has no points".into());
    }
    let mut points = Vec::with_capacity(raw_points.len());
    for (i, p) in raw_points.iter().enumerate() {
        let id = p
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("point {i}: missing id"))?;
        let config = wire::config_from_json(
            p.get("config")
                .ok_or_else(|| format!("point {i}: missing config"))?,
        )
        .map_err(|why| format!("point {i}: {why}"))?;
        // Re-canonicalise: cache comparisons use the daemon's own
        // rendering, never client-supplied bytes.
        let wire_text = wire::config_to_json(&config).map_err(|why| format!("point {i}: {why}"))?;
        points.push(SubmitPoint {
            id: id.to_string(),
            digest: wire::digest(&config),
            wire: wire_text,
            config,
        });
    }
    Ok((experiment.to_string(), master_seed, points))
}

fn handle_submit(
    shared: &Shared,
    request: &Value,
    out: &TcpStream,
    queue_wait: Duration,
) -> Result<(), String> {
    let opts = &shared.opts;
    let (experiment, master_seed, points) = lower_submit(request)?;
    // Whatever request budget survived the admission queue bounds each
    // point through the runner's watchdog.
    let deadline_ms = if opts.request_deadline_ms > 0 {
        let remaining = opts
            .request_deadline_ms
            .saturating_sub(queue_wait.as_millis() as u64);
        if remaining == 0 {
            return Err("deadline".into());
        }
        Some(remaining)
    } else {
        None
    };
    let mut plan = ExperimentPlan::new(&experiment, master_seed);
    let mut prefill = Vec::with_capacity(points.len());
    {
        let cache = shared.cache.lock().expect("cache lock");
        for p in &points {
            let index = plan.push_pinned(p.id.clone(), p.config.clone());
            prefill.push(cache.serve(&p.digest, &p.wire, index, &p.id, p.config.seed));
        }
    }
    let mut writer = out;
    let _ = writer
        .write_all(format!("{{\"event\":\"accepted\",\"points\":{}}}\n", points.len()).as_bytes());

    let ropts = RunnerOptions {
        workers: opts.workers,
        lanes: opts.lanes,
        retries: opts.retries,
        quiet: true,
        canonical: true,
        out_dir: opts.out_dir.clone(),
        fault_seed: opts.fault_seed,
        deadline_ms,
        ..RunnerOptions::default()
    };

    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    // Point events share one buffered writer. The executor announces
    // every pre-served row before any worker starts, so those go out as
    // one burst when the last of them is written; each computed row is
    // flushed as soon as it is final.
    let served = prefill.iter().filter(|row| row.is_some()).count() as u64;
    let stream = Mutex::new(BufWriter::with_capacity(64 << 10, out));
    let wires: Vec<&str> = points.iter().map(|p| p.wire.as_str()).collect();
    let digests: Vec<&str> = points.iter().map(|p| p.digest.as_str()).collect();
    let on_point = |row: &osoffload_runner::PointResult, cached: bool| {
        let flush = if cached {
            hits.fetch_add(1, Ordering::Relaxed) + 1 == served
        } else {
            misses.fetch_add(1, Ordering::Relaxed);
            // Cache the fresh row before acknowledging it: after a
            // kill -9 the WAL holds everything the client saw done.
            match shared
                .cache
                .lock()
                .expect("cache lock")
                .insert(wires[row.index], row)
            {
                Ok(_) => {}
                Err(why) => eprintln!("serve: {why}"),
            }
            true
        };
        let status = match &row.outcome {
            Outcome::Ok(_) => "ok",
            Outcome::Failed { .. } => "failed",
            Outcome::TimedOut { .. } => "timeout",
        };
        let line = format!(
            "{{\"event\":\"point\",\"index\":{},\"id\":\"{}\",\"digest\":\"{}\",\
             \"cached\":{},\"status\":\"{}\"}}\n",
            row.index,
            json_escape(&row.id),
            digests[row.index],
            cached,
            status
        );
        // A vanished client must not abort the sweep: results still
        // land in the cache for the next submission.
        let mut s = stream.lock().expect("stream lock");
        let _ = s.write_all(line.as_bytes());
        if flush {
            let _ = s.flush();
        }
    };
    let hooks = ExecHooks {
        prefill,
        on_point: Some(&on_point),
    };
    let mut sweep = run_plan_hooked(&plan, &ropts, hooks);
    // Nothing should be left buffered; flushing anyway keeps every
    // point event ahead of `done` whatever the executor announced.
    let _ = stream.lock().expect("stream lock").flush();

    // Normalise run-shape fields so retried / fault-injected /
    // cache-served sweeps archive byte-identically to a clean
    // direct canonical run.
    for row in &mut sweep.rows {
        row.wall_ms = 0.0;
        row.start_ms = 0.0;
        row.worker = 0;
        row.attempts = 1;
        row.attempt_ms = vec![0.0];
        row.injected_faults = 0;
    }
    let archive =
        write_sweep(&sweep, &opts.out_dir).map_err(|e| format!("cannot write archive: {e}"))?;

    let hits = hits.into_inner();
    let misses = misses.into_inner();
    let failed = sweep.rows.iter().filter(|r| !r.is_ok()).count();
    let (evicted, entries) = {
        let mut cache = shared.cache.lock().expect("cache lock");
        (cache.enforce_limits()? as u64, cache.len())
    };
    record_sample(shared, |live| {
        live.totals.hits += hits;
        live.totals.misses += misses;
        live.totals.evictions += evicted;
        live.totals.submissions += 1;
        live.entries = entries;
    });
    if !opts.quiet {
        eprintln!(
            "serve: {experiment}: {} points, {hits} hits, {misses} misses, {failed} failed",
            sweep.rows.len()
        );
    }

    let _ = writer.write_all(
        format!(
            "{{\"event\":\"done\",\"ok\":true,\"points\":{},\"hits\":{hits},\
             \"misses\":{misses},\"failed\":{failed},\"evicted\":{evicted},\
             \"archive\":\"{}\"}}\n",
            sweep.rows.len(),
            json_escape(&archive.display().to_string())
        )
        .as_bytes(),
    );
    Ok(())
}

/// Applies `update` to the live totals and commits one sample: O(1),
/// no rendering and no file I/O, so submissions, sheds and refusals
/// can all afford it.
fn record_sample(shared: &Shared, update: impl FnOnce(&mut Live)) {
    let depth = queue_depth(shared);
    let mut live = shared.live.lock().expect("metrics lock");
    update(&mut live);
    live.commit(depth);
}

/// The `metrics` op's one-line live snapshot: totals, gauges, the
/// sample history and the number of file exports so far.
fn metrics_line(shared: &Shared) -> String {
    let depth = queue_depth(shared);
    let (t, entries, samples, pending) = {
        let live = shared.live.lock().expect("metrics lock");
        (
            live.totals,
            live.entries,
            live.samples,
            live.pending.samples().len(),
        )
    };
    format!(
        "{{\"ok\":true,\"hits\":{},\"misses\":{},\"evictions\":{},\"submissions\":{},\
         \"shed\":{},\"drain_refused\":{},\"deadline_refused\":{},\"entries\":{entries},\
         \"depth\":{depth},\"samples\":{samples},\"pending\":{pending},\"history\":{},\
         \"history_cap\":{METRICS_HISTORY_ROWS},\"exports\":{},\"export_cadence_ms\":{}}}\n",
        t.hits,
        t.misses,
        t.evictions,
        t.submissions,
        t.shed,
        t.drain_refused,
        t.deadline_refused,
        shared.exporter.history.load(Ordering::Relaxed),
        shared.exporter.exports.load(Ordering::Relaxed),
        METRICS_EXPORT_CADENCE.as_millis(),
    )
}

/// Wakes the exporter and waits until it has exported every sample
/// committed before the call.
fn flush_metrics(shared: &Shared) {
    let ex = &shared.exporter;
    let mut ctl = ex.ctl.lock().expect("exporter lock");
    ctl.asked += 1;
    let asked = ctl.asked;
    ex.cv.notify_all();
    while ctl.flushed < asked {
        ctl = ex.cv.wait(ctl).expect("exporter wait");
    }
}

/// The exporter thread: once per [`METRICS_EXPORT_CADENCE`], on a
/// flush, and once more on stop, it moves pending samples into a
/// history it owns and rewrites the metric files if there were any.
fn export_loop(shared: &Shared) {
    let ex = &shared.exporter;
    let (mut history, _) = metrics_registry();
    let mut next = Instant::now() + METRICS_EXPORT_CADENCE;
    loop {
        let (asked, stop) = {
            let mut ctl = ex.ctl.lock().expect("exporter lock");
            loop {
                let now = Instant::now();
                if ctl.stop || ctl.asked > ctl.flushed || now >= next {
                    break;
                }
                ctl = ex
                    .cv
                    .wait_timeout(ctl, next - now)
                    .expect("exporter wait")
                    .0;
            }
            (ctl.asked, ctl.stop)
        };
        export_pending(shared, &mut history);
        next = Instant::now() + METRICS_EXPORT_CADENCE;
        let mut ctl = ex.ctl.lock().expect("exporter lock");
        ctl.flushed = asked;
        ex.cv.notify_all();
        if stop {
            return;
        }
    }
}

/// Moves the pending samples into `history` and, if there were any,
/// writes `serve-metrics.csv` / `serve-metrics.json` atomically. Only
/// the move happens under the metrics lock.
fn export_pending(shared: &Shared, history: &mut MetricsRegistry) {
    let rows = shared
        .live
        .lock()
        .expect("metrics lock")
        .pending
        .take_samples();
    if rows.is_empty() {
        return;
    }
    for row in rows {
        history.push_sample(row);
    }
    shared
        .exporter
        .history
        .store(history.samples().len(), Ordering::Relaxed);
    let csv = shared.opts.out_dir.join("serve-metrics.csv");
    let json = shared.opts.out_dir.join("serve-metrics.json");
    match atomic_write(&csv, history.to_csv().as_bytes())
        .and_then(|()| atomic_write(&json, history.to_json().as_bytes()))
    {
        Ok(()) => {
            shared.exporter.exports.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => eprintln!("serve: cannot write metrics: {e}"),
    }
}
