//! Per-layer host costs, timed from outside through each crate's public
//! functions, and the ledger that joins them with a run's deterministic
//! operation counts.
//!
//! Every layer is fed a stream recorded from real workload draws (the
//! same generator, profile and seed a simulation uses), never a
//! synthetic loop. Each timed call also becomes a span of the traced
//! run.

use crate::stats::{median, Metric};
use crate::trace::{SpanId, Tracer};
use osoffload_core::{AState, CamPredictor, OsEntry, RunLengthPredictor};
use osoffload_cpu::{ArchState, CoreParams, CoreState};
use osoffload_mem::{Access, Address, CoreId, HitLevel, MemConfig, MemorySystem};
use osoffload_obs::MetricsRegistry;
use osoffload_runner::jsonv;
use osoffload_runner::{report, ExperimentPlan, PointResult, SweepResult};
use osoffload_serve::{client, wire, ResultCache};
use osoffload_system::{OsCorePool, SimReport, Simulation, SystemConfig};
use osoffload_workload::{
    InstrSpec, OsInvocation, Segment, TapeCursor, TapedInstr, ThreadWorkload, WorkloadTape,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Instructions drawn per recorded stream.
const STREAM_INSTR: u64 = 200_000;

/// Instructions drawn for the multi-core stream: long enough for lines
/// to migrate between cores once the caches are warm.
const MULTI_STREAM_INSTR: u64 = 1_000_000;

/// Predictor, policy and dispatch calls timed per measurement.
const CALL_OPS: usize = 200_000;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// One instruction of a recorded stream and the core it ran on.
struct Recorded {
    core: usize,
    spec: InstrSpec,
}

/// One privileged invocation of a recorded stream.
struct Call {
    user_core: usize,
    astate: AState,
    routine: u64,
    len: u64,
    /// Host cycles the thread ran user code before this call.
    gap: u64,
}

/// A recorded draw stream plus what drawing it cost.
struct Stream {
    instrs: Vec<Recorded>,
    calls: Vec<Call>,
    /// Host ns per instruction of drawing it.
    draw_ns: f64,
}

/// Draws `n_instr` instructions from every thread of `cfg`,
/// interleaved segment by segment, exactly as the simulator constructs
/// its live generators. User instructions run on the thread's user
/// core; privileged ones on an OS core when the topology has one.
fn record_stream(cfg: &SystemConfig, n_instr: u64) -> Stream {
    let threads = cfg.thread_count();
    let generators = || {
        let mut master = osoffload_sim::Rng64::seed_from(cfg.seed);
        (0..threads)
            .map(|i| ThreadWorkload::new(cfg.profile.clone(), i, master.split().next_u64()))
            .collect::<Vec<ThreadWorkload>>()
    };

    // Timed pass: draw only, nothing stored.
    let mut gens = generators();
    let mut drawn = 0u64;
    let mut t = 0;
    let start = Instant::now();
    while drawn < n_instr {
        let g = &mut gens[t];
        match g.next_segment() {
            Segment::User { len } => {
                for _ in 0..len {
                    black_box(g.user_instr());
                }
                drawn += len;
            }
            Segment::Os(inv) => {
                for j in 0..inv.actual_len {
                    black_box(g.os_instr(&inv, j));
                }
                drawn += inv.actual_len;
            }
        }
        t = (t + 1) % threads;
    }
    let draw_ns = ns_since(start) / drawn as f64;

    // Recording pass: the same draws, kept with their cores.
    let mut gens = generators();
    let mut arch: Vec<ArchState> = (0..threads).map(|_| ArchState::new()).collect();
    let mut gaps = vec![0u64; threads];
    let os_cores = if cfg.policy.is_baseline() {
        0
    } else {
        cfg.os_cores
    };
    let mut instrs = Vec::with_capacity(n_instr as usize + 4096);
    let mut calls = Vec::new();
    let mut t = 0;
    while (instrs.len() as u64) < n_instr {
        let user_core = t / cfg.profile.threads_per_core;
        let g = &mut gens[t];
        match g.next_segment() {
            Segment::User { len } => {
                gaps[t] += len;
                for _ in 0..len {
                    let spec = g.user_instr();
                    instrs.push(Recorded {
                        core: user_core,
                        spec,
                    });
                }
            }
            Segment::Os(inv) => {
                calls.push(enter(&mut arch[t], &inv, user_core, gaps[t]));
                gaps[t] = 0;
                let core = if os_cores > 0 {
                    cfg.user_cores + t % os_cores
                } else {
                    user_core
                };
                for j in 0..inv.actual_len {
                    let spec = g.os_instr(&inv, j);
                    instrs.push(Recorded { core, spec });
                }
            }
        }
        t = (t + 1) % threads;
    }
    Stream {
        instrs,
        calls,
        draw_ns,
    }
}

/// The simulator's trap entry: install the invocation's registers,
/// switch mode, hash the AState, and switch back.
fn enter(arch: &mut ArchState, inv: &OsInvocation, user_core: usize, gap: u64) -> Call {
    arch.set_global(1, inv.regs[0]);
    arch.set_input(0, inv.regs[1]);
    arch.set_input(1, inv.regs[2]);
    arch.enter_privileged();
    let astate = AState::from_arch(arch);
    arch.exit_privileged();
    Call {
        user_core,
        astate,
        routine: inv.syscall.trap_number(),
        len: inv.actual_len,
        gap,
    }
}

/// Mean host ns per access by hit level, from one memory stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct LevelCosts {
    /// Mean ns of an access served by the local L1.
    pub l1: f64,
    /// Mean ns of an access served by the private L2.
    pub l2: f64,
    /// Mean ns of an access served by another core's cache.
    pub remote: f64,
    /// Mean ns of an access served by DRAM.
    pub dram: f64,
    /// Accesses per level, in the order above.
    pub counts: [u64; 4],
}

fn level_index(level: HitLevel) -> usize {
    match level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::RemoteCache => 2,
        HitLevel::Memory => 3,
    }
}

/// Accesses per timed chunk of a memory stream.
const CHUNK: usize = 256;

/// Timed replays of each memory stream; each chunk keeps its median.
const REPLAYS: usize = 5;

/// Times `MemorySystem::access` over `stream` by hit level.
///
/// A single access is too short to time alone. An untimed replay
/// records every access's hit level; [`REPLAYS`] more replays from the
/// same cold state (the model is deterministic, so the levels repeat)
/// time chunks of [`CHUNK`] accesses, and each chunk keeps its median
/// time. The per-level costs are the least-squares fit of chunk time =
/// Σ level cost × level count.
fn time_levels(cfg: &MemConfig, stream: &[(usize, Access)]) -> LevelCosts {
    let mut mem = MemorySystem::new(cfg.clone());
    let levels: Vec<usize> = stream
        .iter()
        .map(|&(core, a)| level_index(mem.access(CoreId::new(core), a).level))
        .collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(REPLAYS); stream.len().div_ceil(CHUNK)];
    for _ in 0..REPLAYS {
        let mut mem = MemorySystem::new(cfg.clone());
        for (part, t_chunk) in stream.chunks(CHUNK).zip(times.iter_mut()) {
            let t = Instant::now();
            for &(core, a) in part {
                black_box(mem.access(CoreId::new(core), black_box(a)));
            }
            t_chunk.push(ns_since(t));
        }
    }
    let chunks: Vec<([f64; 4], f64)> = levels
        .chunks(CHUNK)
        .zip(&times)
        .map(|(lv, t)| {
            let mut n = [0.0; 4];
            for &l in lv {
                n[l] += 1.0;
            }
            (n, median(t))
        })
        .collect();
    let mut counts = [0u64; 4];
    for &l in &levels {
        counts[l] += 1;
    }
    let cost = least_squares(&chunks);
    LevelCosts {
        l1: cost[0],
        l2: cost[1],
        remote: cost[2],
        dram: cost[3],
        counts,
    }
}

/// Least-squares fit of `y ≈ Σ β[j]·x[j]` over `rows` of `(x, y)`.
/// Columns that are zero in every row get β = 0; a coefficient the fit
/// drives below zero is clamped to 0.
pub fn least_squares(rows: &[([f64; 4], f64)]) -> [f64; 4] {
    let used: Vec<usize> = (0..4)
        .filter(|&j| rows.iter().any(|(x, _)| x[j] != 0.0))
        .collect();
    let k = used.len();
    // Normal equations A·β = b, A = XᵀX, b = Xᵀy, solved by Gaussian
    // elimination with partial pivoting.
    let mut a = vec![vec![0.0f64; k + 1]; k];
    for (x, y) in rows {
        for (r, &i) in used.iter().enumerate() {
            for (c, &j) in used.iter().enumerate() {
                a[r][c] += x[i] * x[j];
            }
            a[r][k] += x[i] * y;
        }
    }
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))
            .expect("non-empty range");
        a.swap(col, pivot);
        if a[col][col] == 0.0 {
            continue;
        }
        let pivot_row = a[col].clone();
        for (r, row) in a.iter_mut().enumerate() {
            if r != col {
                let f = row[col] / pivot_row[col];
                for (v, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *v -= f * p;
                }
            }
        }
    }
    let mut beta = [0.0; 4];
    for (r, &j) in used.iter().enumerate() {
        if a[r][r] != 0.0 {
            beta[j] = (a[r][k] / a[r][r]).max(0.0);
        }
    }
    beta
}

fn mem_stream(instrs: &[Recorded]) -> Vec<(usize, Access)> {
    let mut out = Vec::with_capacity(instrs.len() * 2);
    for r in instrs {
        out.push((r.core, Access::fetch(Address::new(r.spec.pc))));
        if let Some(m) = r.spec.mem {
            let a = if m.write {
                Access::write(Address::new(m.addr))
            } else {
                Access::read(Address::new(m.addr))
            };
            out.push((r.core, a));
        }
    }
    out
}

/// The simulator's memory configuration for `cfg`.
fn sim_mem_config(cfg: &SystemConfig) -> MemConfig {
    let mut m = cfg.mem_config();
    m.seed ^= cfg.seed;
    m
}

/// Host ns per operation of every simulator layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// Live generator draw, per instruction.
    pub draw: f64,
    /// Tape replay (cursor + unpack), per instruction.
    pub replay: f64,
    /// Tape materialisation, per instruction.
    pub tape_build: f64,
    /// One TLB translation.
    pub tlb: f64,
    /// One conditional-branch execution.
    pub branch: f64,
    /// One policy decide + complete.
    pub policy: f64,
    /// One OS-core pool dispatch + release.
    pub dispatch: f64,
    /// Memory access costs by level (single-core for L1/L2/DRAM, the
    /// multi-core stream for remote).
    pub mem: LevelCosts,
    /// Conditional branches per instruction in the recorded streams.
    pub branch_frac: f64,
}

/// Deterministic operation counts of a set of runs, warm-up included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Simulated instructions (warm-up + measured).
    pub instr: f64,
    /// L1 instruction + data accesses (one TLB translation each).
    pub l1: f64,
    /// L2 accesses (L1 misses).
    pub l2: f64,
    /// Cache-to-cache transfers.
    pub remote: f64,
    /// DRAM accesses.
    pub dram: f64,
    /// Privileged invocations (policy decisions).
    pub invocations: f64,
    /// Off-loads (pool dispatches).
    pub offloads: f64,
}

impl Counts {
    /// Adds one run's counters. A report counts the measured region
    /// only, so each count is scaled by (warm-up + measured) ÷ measured
    /// to stand for the whole run the host executed.
    pub fn add(&mut self, cfg: &SystemConfig, r: &SimReport) {
        let total = (cfg.warmup + cfg.instructions) as f64;
        let k = total / cfg.instructions.max(1) as f64;
        self.instr += total;
        self.l1 += (r.l1i_accesses + r.l1d_accesses) as f64 * k;
        self.l2 += r.l2_accesses as f64 * k;
        self.remote += r.c2c_transfers as f64 * k;
        self.dram += r.dram_accesses as f64 * k;
        self.invocations += (r.offloads + r.local_invocations) as f64 * k;
        self.offloads += r.offloads as f64 * k;
    }
}

/// How a run drew its instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawMode {
    /// Live generators (`Simulation::run`).
    Live,
    /// Shared tapes (the runner's lane path); `tape_instr` instructions
    /// were materialised.
    Tape {
        /// Instructions materialised into tapes.
        tape_instr: u64,
    },
}

/// One layer's line of the ledger.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Host ns per simulated instruction attributed to the layer.
    pub ns_per_instr: f64,
}

/// Attributed host time per layer, largest first, against a measured
/// host time.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Layers, largest share first.
    pub rows: Vec<LedgerRow>,
    /// Measured host ns per simulated instruction.
    pub measured_ns_per_instr: f64,
}

impl Ledger {
    /// Joins per-operation costs with operation counts.
    pub fn new(c: &Costs, n: &Counts, mode: DrawMode, measured_ns: f64) -> Ledger {
        let instr = n.instr.max(1.0);
        let draw = match mode {
            DrawMode::Live => c.draw * n.instr,
            DrawMode::Tape { tape_instr } => c.replay * n.instr + c.tape_build * tape_instr as f64,
        };
        let l2_hits = (n.l2 - n.remote - n.dram).max(0.0);
        let mut rows = vec![
            LedgerRow {
                layer: "workload.draw",
                ns_per_instr: draw / instr,
            },
            LedgerRow {
                layer: "cpu.tlb",
                ns_per_instr: c.tlb * n.l1 / instr,
            },
            LedgerRow {
                layer: "mem.l1",
                ns_per_instr: c.mem.l1 * (n.l1 - n.l2).max(0.0) / instr,
            },
            LedgerRow {
                layer: "mem.l2",
                ns_per_instr: c.mem.l2 * l2_hits / instr,
            },
            LedgerRow {
                layer: "mem.remote",
                ns_per_instr: c.mem.remote * n.remote / instr,
            },
            LedgerRow {
                layer: "mem.dram",
                ns_per_instr: c.mem.dram * n.dram / instr,
            },
            LedgerRow {
                layer: "cpu.branch",
                ns_per_instr: c.branch * c.branch_frac,
            },
            LedgerRow {
                layer: "core.policy",
                ns_per_instr: c.policy * n.invocations / instr,
            },
            LedgerRow {
                layer: "system.dispatch",
                ns_per_instr: c.dispatch * n.offloads / instr,
            },
        ];
        rows.sort_by(|a, b| b.ns_per_instr.total_cmp(&a.ns_per_instr));
        Ledger {
            rows,
            measured_ns_per_instr: measured_ns / instr,
        }
    }

    /// Attributed ns per instruction.
    pub fn attributed(&self) -> f64 {
        self.rows.iter().map(|r| r.ns_per_instr).sum()
    }

    /// Attributed ÷ measured host time.
    pub fn explained_frac(&self) -> f64 {
        self.attributed() / self.measured_ns_per_instr.max(f64::MIN_POSITIVE)
    }

    /// The ledger as a table, largest layer first.
    pub fn render(&self, title: &str) -> String {
        let m = self.measured_ns_per_instr;
        let mut out = format!("{title}: measured {m:.2} host ns per simulated instruction\n");
        out.push_str("  layer             ns/instr   share\n");
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<16} {:>9.3}  {:>5.1}%\n",
                r.layer,
                r.ns_per_instr,
                100.0 * r.ns_per_instr / m
            ));
        }
        let rest = m - self.attributed();
        out.push_str(&format!(
            "  {:<16} {:>9.3}  {:>5.1}%   (stepper loop and accounting)\n",
            "unattributed",
            rest,
            100.0 * rest / m
        ));
        out
    }
}

/// What the per-layer suite is run on.
pub struct Inputs<'a> {
    /// Configurations whose draw streams feed the simulator layers.
    pub sample: &'a [SystemConfig],
    /// A multi-core configuration for remote accesses and dispatch.
    pub multi: &'a SystemConfig,
    /// The serve hit plan (request parsing and lowering).
    pub request: &'a ExperimentPlan,
    /// The plan `rows` belong to (archive, WAL and prefill layers).
    pub cached: &'a ExperimentPlan,
    /// Completed rows of `cached`, each at its plan index.
    pub rows: &'a [PointResult],
    /// An existing cache WAL to time against; one is built from `rows`
    /// when `None`.
    pub wal: Option<&'a Path>,
    /// Metric samples the daemon's registry would hold.
    pub samples: usize,
    /// Scratch directory.
    pub dir: &'a Path,
}

/// Results of the per-layer suite.
pub struct LayerReport {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Costs for the ledger.
    pub costs: Costs,
    /// Details for the report text (per-policy dispatch, accesses per
    /// hit level).
    pub notes: Vec<String>,
}

/// Runs every per-layer measurement. Spans go under `parent`.
pub fn measure(
    inp: &Inputs<'_>,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<LayerReport, String> {
    let mut m = Vec::new();
    let mut costs = Costs::default();

    // ---- workload: live draw ----
    let sp = tr.begin("workload.draw", parent, 0);
    let streams: Vec<Stream> = inp
        .sample
        .iter()
        .map(|c| record_stream(c, STREAM_INSTR))
        .collect();
    tr.end(sp);
    let instrs: usize = streams.iter().map(|s| s.instrs.len()).sum();
    costs.draw = median(&streams.iter().map(|s| s.draw_ns).collect::<Vec<_>>());
    m.push(Metric::new("workload.draw_ns_per_instr", costs.draw, "ns"));
    let branches = streams
        .iter()
        .flat_map(|s| &s.instrs)
        .filter(|r| r.spec.branch.is_some())
        .count();
    costs.branch_frac = branches as f64 / instrs as f64;

    // ---- workload: tape build and replay ----
    let sp = tr.begin("workload.tape", parent, 0);
    let (mut build_ms, mut replay, mut mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut build_ns_per_instr = Vec::new();
    for cfg in inp.sample {
        let threads = cfg.thread_count();
        let depth = ((cfg.warmup + cfg.instructions) / threads as u64) as usize + 1;
        let t = Instant::now();
        let mut tape = WorkloadTape::new(&cfg.profile, &cfg.phases, threads, cfg.seed);
        for th in 0..threads {
            tape.extend_to(th, depth);
        }
        let ns = ns_since(t);
        let specs: usize = (0..threads).map(|th| tape.spec_len(th)).sum();
        build_ms.push(ns / 1e6);
        build_ns_per_instr.push(ns / specs as f64);
        mb.push((specs * std::mem::size_of::<TapedInstr>()) as f64 / (1 << 20) as f64);
        let shared = tape.into_shared();
        let t = Instant::now();
        let mut replayed = 0u64;
        for th in 0..threads {
            let mut cur = TapeCursor::new(shared.clone(), th);
            while cur.depth() < depth {
                black_box(cur.next_segment());
                let (tt, first, end) = cur.span();
                let tape = shared.borrow();
                for s in tape.specs(tt, first, end) {
                    black_box(s.unpack());
                }
                replayed += (end - first) as u64;
            }
        }
        replay.push(ns_since(t) / replayed as f64);
    }
    tr.end(sp);
    costs.tape_build = median(&build_ns_per_instr);
    costs.replay = median(&replay);
    m.push(Metric::new(
        "workload.tape_build_ms",
        median(&build_ms),
        "ms",
    ));
    m.push(Metric::new(
        "workload.tape_replay_ns_per_instr",
        costs.replay,
        "ns",
    ));
    m.push(Metric::new("workload.tape_mb", median(&mb), "MiB"));

    // ---- core: predictor and policy ----
    let sp = tr.begin("core.predictor", parent, 0);
    // The recorded invocations, replayed until the count is large
    // enough to time (the tables stay trained across replays).
    let recorded: Vec<&Call> = streams.iter().flat_map(|s| &s.calls).collect();
    let reps = CALL_OPS.div_ceil(recorded.len().max(1));
    let calls: Vec<&Call> = (0..reps).flat_map(|_| recorded.iter().copied()).collect();
    let mut cam = CamPredictor::paper_default();
    let t = Instant::now();
    for c in &calls {
        let p = cam.predict(black_box(c.astate));
        cam.learn(c.astate, p, c.len);
    }
    let predict = ns_since(t) / calls.len().max(1) as f64;
    m.push(Metric::new("core.predict_learn_ns", predict, "ns"));
    let policy_cfg = inp
        .sample
        .iter()
        .find(|c| !c.policy.is_baseline())
        .unwrap_or(inp.multi);
    let mut policy = policy_cfg
        .policy
        .build(&policy_cfg.profile, policy_cfg.migration);
    let t = Instant::now();
    for c in &calls {
        let entry = OsEntry {
            astate: c.astate,
            routine: c.routine,
        };
        policy.hint_actual(c.len);
        let d = policy.decide(black_box(entry));
        policy.complete(entry, &d, c.len);
    }
    costs.policy = ns_since(t) / calls.len().max(1) as f64;
    m.push(Metric::new("core.policy_decide_ns", costs.policy, "ns"));
    tr.end(sp);

    // ---- cpu: TLB and branch predictor ----
    let sp = tr.begin("cpu", parent, 0);
    let mut core = CoreState::new(CoreParams::paper_default());
    let mut translations = 0u64;
    let t = Instant::now();
    for r in streams.iter().flat_map(|s| &s.instrs) {
        black_box(core.tlb_mut().translate(black_box(r.spec.pc)));
        translations += 1;
        if let Some(mr) = r.spec.mem {
            black_box(core.tlb_mut().translate(black_box(mr.addr)));
            translations += 1;
        }
    }
    costs.tlb = ns_since(t) / translations as f64;
    m.push(Metric::new("cpu.tlb_translate_ns", costs.tlb, "ns"));
    let mut core = CoreState::new(CoreParams::paper_default());
    let t = Instant::now();
    for r in streams.iter().flat_map(|s| &s.instrs) {
        if let Some(taken) = r.spec.branch {
            black_box(core.branch_mut().execute(black_box(r.spec.pc), taken));
        }
    }
    costs.branch = ns_since(t) / branches.max(1) as f64;
    m.push(Metric::new("cpu.branch_execute_ns", costs.branch, "ns"));
    tr.end(sp);

    // ---- mem: by hit level ----
    let sp = tr.begin("mem", parent, 0);
    let single_cfg = sim_mem_config(&inp.sample[0]);
    // The first stream replayed on one core: no remote copies exist.
    let solo: Vec<(usize, Access)> = mem_stream(&streams[0].instrs)
        .into_iter()
        .map(|(_, a)| (0, a))
        .collect();
    let solo_costs = time_levels(&single_cfg, &solo);
    let multi_stream = record_stream(inp.multi, MULTI_STREAM_INSTR);
    let multi_costs = time_levels(
        &sim_mem_config(inp.multi),
        &mem_stream(&multi_stream.instrs),
    );
    costs.mem = LevelCosts {
        remote: multi_costs.remote,
        ..solo_costs
    };
    m.push(Metric::new("mem.l1_hit_ns", costs.mem.l1, "ns"));
    m.push(Metric::new("mem.l2_hit_ns", costs.mem.l2, "ns"));
    m.push(Metric::new("mem.dram_ns", costs.mem.dram, "ns"));
    m.push(Metric::new("mem.remote_ns", costs.mem.remote, "ns"));
    tr.end(sp);

    // ---- system: OS-core pool dispatch, per policy ----
    let sp = tr.begin("system.dispatch", parent, 0);
    let mut by_policy = Vec::new();
    for policy in osoffload_system::DispatchPolicy::ALL {
        let mut pool = OsCorePool::new(
            inp.multi.os_cores.max(1),
            inp.multi.os_core_contexts,
            policy,
            inp.multi.os_cold_penalty,
        );
        let one_way = inp.multi.migration.one_way().as_u64();
        let mut clock = vec![0u64; inp.multi.user_cores.max(1)];
        let reps = CALL_OPS.div_ceil(multi_stream.calls.len().max(1));
        let t = Instant::now();
        for c in (0..reps).flat_map(|_| &multi_stream.calls) {
            let uc = c.user_core % clock.len();
            let arrival = clock[uc] + c.gap + one_way;
            let d = pool.dispatch(osoffload_sim::Cycle::new(arrival), uc, c.astate.as_u64());
            let end = d.start + d.warm_up + osoffload_sim::Cycle::new(c.len);
            pool.release(d.token, end);
            clock[uc] = end.as_u64() + one_way;
        }
        by_policy.push((
            policy.label(),
            ns_since(t) / (reps * multi_stream.calls.len()).max(1) as f64,
        ));
    }
    costs.dispatch = by_policy.iter().map(|p| p.1).sum::<f64>() / by_policy.len() as f64;
    m.push(Metric::new("system.dispatch_ns", costs.dispatch, "ns"));
    tr.end(sp);

    // ---- runner: archive write ----
    let sp = tr.begin("runner.archive_write", parent, 0);
    let sweep = SweepResult {
        name: inp.cached.name().to_string(),
        master_seed: inp.cached.master_seed(),
        workers: 1,
        wall_ms: 0.0,
        rows: inp.rows.to_vec(),
    };
    let archive_dir = inp.dir.join("layer-archive");
    let mut write_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        report::write_sweep(&sweep, &archive_dir).map_err(|e| format!("write_sweep: {e}"))?;
        write_ms.push(ns_since(t) / 1e6);
    }
    m.push(Metric::new(
        "runner.archive_write_ms",
        median(&write_ms),
        "ms",
    ));
    tr.end(sp);

    // ---- serve: parse, lower, cache ----
    let sp = tr.begin("serve.request", parent, 0);
    for (k, name) in [
        (31, "serve.parse_ms_31pt"),
        (62, "serve.parse_ms_62pt"),
        (124, "serve.parse_ms_124pt"),
    ] {
        let line = client::submit_request_line(&prefix(inp.request, k))?;
        let mut v = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            black_box(jsonv::parse(line.trim_end())?);
            v.push(ns_since(t) / 1e6);
        }
        m.push(Metric::new(name, median(&v), "ms"));
    }
    let line = client::submit_request_line(inp.request)?;
    let request = jsonv::parse(line.trim_end())?;
    let points = request
        .get("points")
        .and_then(jsonv::Value::as_arr)
        .ok_or("request without points")?;
    let mut lower_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for p in points {
            let cfg = wire::config_from_json(p.get("config").ok_or("point without config")?)?;
            black_box(wire::config_to_json(&cfg)?);
            black_box(wire::digest(&cfg));
        }
        lower_ms.push(ns_since(t) / 1e6);
    }
    m.push(Metric::new("serve.lower_ms", median(&lower_ms), "ms"));
    tr.end(sp);

    let sp = tr.begin("serve.cache", parent, 0);
    // The cache key and stored text of every point, as the daemon
    // lowers them.
    let keyed: Vec<(String, String)> = inp
        .cached
        .points()
        .iter()
        .map(|p| Ok((wire::digest(&p.config), wire::config_to_json(&p.config)?)))
        .collect::<Result<_, String>>()?;
    let wal = inp.dir.join("layer-cache.wal");
    let _ = std::fs::remove_file(&wal);
    let mut append_ms = Vec::new();
    match inp.wal {
        Some(src) => {
            std::fs::copy(src, &wal).map_err(|e| format!("copy WAL: {e}"))?;
        }
        None => {
            let mut cache = ResultCache::open(&wal, 0)?;
            for row in inp.rows {
                let t = Instant::now();
                cache.insert(&keyed[row.index].1, row)?;
                append_ms.push(ns_since(t) / 1e6);
            }
        }
    }
    let mut open_ms = Vec::new();
    let mut cache = None;
    for _ in 0..3 {
        let t = Instant::now();
        let c = ResultCache::open(&wal, 0)?;
        open_ms.push(ns_since(t) / 1e6);
        cache = Some(c);
    }
    let mut cache = cache.expect("opened at least once");
    m.push(Metric::new("serve.cache_open_ms", median(&open_ms), "ms"));
    let mut prefill_ms = Vec::new();
    let mut served = 0;
    for _ in 0..3 {
        let t = Instant::now();
        served = 0;
        for (p, (digest, text)) in inp.cached.points().iter().zip(&keyed) {
            if black_box(cache.serve(digest, text, p.index, &p.id, p.config.seed)).is_some() {
                served += 1;
            }
        }
        prefill_ms.push(ns_since(t) / 1e6);
    }
    if served == 0 {
        return Err("prefill served no row from the cache".into());
    }
    m.push(Metric::new("serve.prefill_ms", median(&prefill_ms), "ms"));
    if append_ms.is_empty() {
        // The WAL came from the daemon: time appends on a copy.
        for row in inp.rows.iter().take(16) {
            let t = Instant::now();
            cache.insert(&keyed[row.index].1, row)?;
            append_ms.push(ns_since(t) / 1e6);
        }
    }
    m.push(Metric::new("serve.wal_append_ms", median(&append_ms), "ms"));
    tr.end(sp);

    // ---- obs: metrics export ----
    let sp = tr.begin("obs.metrics_render", parent, 0);
    // The daemon's registry: the same columns in the same order.
    let mut reg = MetricsRegistry::new();
    let ids = [
        reg.register_counter("serve.cache.hits"),
        reg.register_counter("serve.cache.misses"),
        reg.register_counter("serve.cache.evictions"),
        reg.register_gauge("serve.cache.entries"),
        reg.register_counter("serve.submissions"),
        reg.register_gauge("serve.queue.depth"),
        reg.register_counter("serve.queue.shed"),
        reg.register_counter("serve.drain.refused"),
    ];
    for s in 0..inp.samples.max(1) {
        for (j, id) in ids.iter().enumerate() {
            reg.set(*id, (s * (j + 1)) as f64);
        }
        reg.commit_sample(s as u64, 0, 0);
    }
    let mut render_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(reg.to_csv());
        black_box(reg.to_json());
        render_ms.push(ns_since(t) / 1e6);
    }
    m.push(Metric::new(
        "obs.metrics_render_ms",
        median(&render_ms),
        "ms",
    ));
    tr.end(sp);

    let per_policy: Vec<String> = by_policy
        .iter()
        .map(|(p, ns)| format!("{p} {ns:.1} ns"))
        .collect();
    let levels = |c: &LevelCosts| {
        format!(
            "L1 {}, L2 {}, remote {}, DRAM {}",
            c.counts[0], c.counts[1], c.counts[2], c.counts[3]
        )
    };
    Ok(LayerReport {
        metrics: m,
        costs,
        notes: vec![
            format!("system.dispatch_ns by policy: {}", per_policy.join(", ")),
            format!(
                "timed accesses, single-core stream: {}",
                levels(&solo_costs)
            ),
            format!(
                "timed accesses, multi-core stream: {}",
                levels(&multi_costs)
            ),
        ],
    })
}

/// The first `k` points of `plan` as a plan of their own.
fn prefix(plan: &ExperimentPlan, k: usize) -> ExperimentPlan {
    let mut out = ExperimentPlan::new(plan.name(), plan.master_seed());
    for p in plan.points().iter().take(k) {
        out.push_pinned(p.id.clone(), p.config.clone());
    }
    out
}

/// Deterministic counters per simulated instruction, for the traced
/// table.
pub fn count_metrics(n: &Counts) -> Vec<Metric> {
    let i = n.instr.max(1.0);
    vec![
        Metric::new("system.l1_accesses_per_instr", n.l1 / i, "count"),
        Metric::new("system.l2_accesses_per_instr", n.l2 / i, "count"),
        Metric::new("system.dram_per_kinstr", 1e3 * n.dram / i, "count"),
        Metric::new("system.offloads_per_kinstr", 1e3 * n.offloads / i, "count"),
    ]
}

/// Times direct `Simulation::run`s of `cfgs` (live draw) and returns
/// each run's ledger against its own host time.
pub fn direct_ledgers(
    cfgs: &[SystemConfig],
    costs: &Costs,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Vec<(SystemConfig, SimReport, Ledger)> {
    cfgs.iter()
        .enumerate()
        .map(|(i, cfg)| {
            let sp = tr.begin("system.run", parent, i as u64);
            let t = Instant::now();
            let r = Simulation::new(cfg.clone()).run();
            let ns = ns_since(t);
            tr.end(sp);
            let mut n = Counts::default();
            n.add(cfg, &r);
            let ledger = Ledger::new(costs, &n, DrawMode::Live, ns);
            (cfg.clone(), r, ledger)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_squares_recovers_per_level_costs() {
        let cost = [2.0, 20.0, 0.0, 500.0];
        let rows: Vec<([f64; 4], f64)> = (0..40)
            .map(|i| {
                let x = [
                    1000.0 - i as f64 * 7.0,
                    i as f64 * 5.0,
                    0.0,
                    (i % 7) as f64 * 2.0,
                ];
                let y = (0..4).map(|j| x[j] * cost[j]).sum();
                (x, y)
            })
            .collect();
        let beta = least_squares(&rows);
        for j in 0..4 {
            assert!((beta[j] - cost[j]).abs() < 1e-6, "{beta:?}");
        }
        assert_eq!(least_squares(&[]), [0.0; 4]);
    }

    #[test]
    fn ledger_sorts_layers_and_sums_to_the_attributed_time() {
        let costs = Costs {
            draw: 10.0,
            tlb: 1.0,
            mem: LevelCosts {
                l1: 2.0,
                l2: 20.0,
                remote: 50.0,
                dram: 100.0,
                counts: [0; 4],
            },
            branch: 3.0,
            branch_frac: 0.5,
            policy: 40.0,
            dispatch: 30.0,
            ..Costs::default()
        };
        let n = Counts {
            instr: 1000.0,
            l1: 1500.0,
            l2: 100.0,
            remote: 10.0,
            dram: 20.0,
            invocations: 10.0,
            offloads: 5.0,
        };
        let l = Ledger::new(&costs, &n, DrawMode::Live, 40_000.0);
        assert_eq!(l.rows[0].layer, "workload.draw");
        assert!(l
            .rows
            .windows(2)
            .all(|w| w[0].ns_per_instr >= w[1].ns_per_instr));
        // draw 10 + tlb 1.5 + l1 2.8 + l2 1.4 + remote 0.5 + dram 2.0
        // + branch 1.5 + policy 0.4 + dispatch 0.15 = 20.25 ns/instr.
        assert!((l.attributed() - 20.25).abs() < 1e-9);
        assert!((l.explained_frac() - 20.25 / 40.0).abs() < 1e-9);
        let tape = Ledger::new(
            &Costs {
                replay: 2.0,
                tape_build: 10.0,
                ..costs
            },
            &n,
            DrawMode::Tape { tape_instr: 100 },
            40_000.0,
        );
        let draw = tape
            .rows
            .iter()
            .find(|r| r.layer == "workload.draw")
            .unwrap();
        assert!((draw.ns_per_instr - 3.0).abs() < 1e-9);
    }
}
