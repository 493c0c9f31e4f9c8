//! Workload profiles.
//!
//! The paper evaluates three server workloads — Apache 2.2.6 serving CGI-
//! selected static pages, SPECjbb2005, and Derby from SPECjvm2008 — plus
//! six compute-bound applications from PARSEC (blackscholes, canneal),
//! BioBench (fasta_protein, mummer) and SPEC-CPU-2006 (mcf, hmmer). We
//! cannot run those binaries inside a synthetic kernel, so each becomes a
//! [`Profile`]: a statistical model of its instruction mix, working sets,
//! privileged-invocation mix and OS-interaction intensity, calibrated to
//! the characteristics the paper reports (OS instruction share, short-vs-
//! long invocation patterns, Table III OS-core utilisation ordering).
//! The decision machinery under test observes only register values and
//! run lengths, so reproducing those distributions exercises the same
//! code paths as the real binaries (see DESIGN.md §2).

use crate::address_space::Footprints;
use crate::catalog::SyscallId;
use core::fmt;

/// Broad workload category (used for report grouping, mirroring the
/// paper's practice of averaging the compute applications into one
/// curve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// OS-intensive server workload.
    Server,
    /// Compute-bound HPC workload.
    Compute,
}

/// A complete statistical description of one benchmark.
///
/// `PartialEq` compares every calibrated parameter; tape replay uses
/// it to decide when two configurations draw identical workload
/// streams and may share one generation tape.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// Server or compute.
    pub kind: ProfileKind,
    /// Software threads mapped to each user core (the paper maps two
    /// threads per core for server workloads, §II).
    pub threads_per_core: usize,
    /// Memory-region footprints.
    pub footprints: Footprints,
    /// Privileged entry-point mix as `(entry, weight)`; weights need not
    /// be normalised.
    pub syscall_mix: Vec<(SyscallId, f64)>,
    /// Mean user-mode instructions between privileged invocations.
    pub user_burst_mean: f64,
    /// Probability a user instruction accesses data memory.
    pub user_mem_prob: f64,
    /// Fraction of user data accesses that are writes.
    pub user_write_frac: f64,
    /// Probability a user data access targets the shared user↔kernel
    /// buffers (consuming I/O results, building requests).
    pub user_shared_frac: f64,
    /// Fraction of user shared-buffer accesses that are writes.
    pub user_shared_write_frac: f64,
    /// Probability a user instruction is a conditional branch.
    pub user_branch_prob: f64,
    /// Probability a user branch is taken.
    pub user_branch_taken: f64,
    /// Zipf skew of user data accesses (higher = hotter working set).
    pub user_locality_skew: f64,
    /// Probability a user data access lands in the hot subset of the
    /// working set (stack frames, top-level structures).
    pub user_hot_frac: f64,
    /// Size of the user hot subset in bytes.
    pub user_hot_bytes: u64,
    /// Probability an OS instruction accesses data memory.
    pub os_mem_prob: f64,
    /// Fraction of OS data accesses that are writes (outside the shared
    /// buffers, whose write fraction is per-syscall).
    pub os_write_frac: f64,
    /// Probability an OS instruction is a conditional branch.
    pub os_branch_prob: f64,
    /// Probability an OS branch is taken.
    pub os_branch_taken: f64,
    /// Zipf skew of OS data accesses.
    pub os_locality_skew: f64,
    /// Probability an OS kernel-data access lands in the kernel's hot
    /// structures (run queues, dcache heads, socket tables).
    pub os_hot_frac: f64,
    /// Size of the kernel-data hot subset in bytes.
    pub os_hot_bytes: u64,
    /// Probability an invocation's length is jittered (small
    /// data-dependent path variation, within ±`length_jitter_span`).
    pub length_jitter_prob: f64,
    /// Relative half-width of the jitter (0.03 = ±3%, inside the paper's
    /// ±5% "close prediction" bucket).
    pub length_jitter_span: f64,
    /// Mean privileged instructions between nested device interrupts
    /// (`0` disables nesting).
    pub irq_mean_interval: f64,
    /// Instructions added by one nested interrupt.
    pub irq_nested_len: u64,
    /// Whether SPARC register-window spill/fill traps are generated
    /// (§IV: the paper omits them from graphs where they skew results;
    /// `false` by default to match the headline figures).
    pub include_spill_fill: bool,
    /// Spill/fill traps per user instruction when enabled (SPARC
    /// workloads trap roughly every 1–3 K instructions).
    pub spill_fill_rate: f64,
    /// Upper bound on I/O size arguments drawn from the catalog's
    /// contexts (`None` = unrestricted). An in-memory workload like
    /// SPECjbb only issues small log writes; a file server streams 64 KB
    /// responses.
    pub max_io_bytes: Option<u64>,
}

/// Why a profile cannot drive a workload generator.
///
/// The generator samples cumulative weight tables, exponential burst
/// lengths, and Zipf working-set indices; each has preconditions that a
/// hand-edited or fuzz-mutated profile can violate. [`Profile::validate`]
/// checks them all up front so configuration layers can reject a
/// degenerate profile with a typed error instead of panicking deep in
/// the instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The syscall mix is empty: there is no invocation to draw.
    EmptySyscallMix,
    /// A mix weight is zero, negative, or non-finite.
    BadMixWeight {
        /// Name of the offending entry.
        syscall: &'static str,
        /// The weight found.
        weight: f64,
    },
    /// `threads_per_core` is zero: no thread would exist to simulate.
    ZeroThreadsPerCore,
    /// `user_burst_mean` is not finite and positive (it is the mean of
    /// an exponential draw).
    BadBurstMean {
        /// The mean found.
        mean: f64,
    },
    /// A probability-valued field is outside `[0, 1]` or non-finite.
    BadProbability {
        /// Field name.
        field: &'static str,
        /// The value found.
        value: f64,
    },
    /// A Zipf locality skew is negative or non-finite.
    BadLocalitySkew {
        /// Field name.
        field: &'static str,
        /// The value found.
        value: f64,
    },
    /// A memory-region footprint is smaller than one cache line, so the
    /// Zipf address sampler would have an empty index range.
    FootprintTooSmall {
        /// Region name.
        region: &'static str,
        /// The size found, in bytes.
        bytes: u64,
    },
    /// The interrupt inter-arrival mean is negative or non-finite
    /// (zero is valid and disables nesting).
    BadIrqInterval {
        /// The value found.
        value: f64,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::EmptySyscallMix => write!(f, "syscall mix is empty"),
            ProfileError::BadMixWeight { syscall, weight } => {
                write!(
                    f,
                    "mix weight for {syscall} must be finite and positive, got {weight}"
                )
            }
            ProfileError::ZeroThreadsPerCore => write!(f, "threads_per_core must be at least 1"),
            ProfileError::BadBurstMean { mean } => {
                write!(f, "user_burst_mean must be finite and positive, got {mean}")
            }
            ProfileError::BadProbability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            ProfileError::BadLocalitySkew { field, value } => {
                write!(f, "{field} must be finite and non-negative, got {value}")
            }
            ProfileError::FootprintTooSmall { region, bytes } => {
                write!(
                    f,
                    "footprint {region} must cover at least one cache line, got {bytes} B"
                )
            }
            ProfileError::BadIrqInterval { value } => {
                write!(
                    f,
                    "irq_mean_interval must be finite and non-negative, got {value}"
                )
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl Profile {
    /// Checks every generator precondition, returning the first
    /// violation found.
    ///
    /// The built-in catalog profiles always validate; this exists for
    /// profiles assembled or mutated programmatically (the fuzzer's
    /// shrunken repros travel through JSON and back).
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.syscall_mix.is_empty() {
            return Err(ProfileError::EmptySyscallMix);
        }
        for &(id, w) in &self.syscall_mix {
            if !(w.is_finite() && w > 0.0) {
                return Err(ProfileError::BadMixWeight {
                    syscall: id.spec().name,
                    weight: w,
                });
            }
        }
        if self.threads_per_core == 0 {
            return Err(ProfileError::ZeroThreadsPerCore);
        }
        if !(self.user_burst_mean.is_finite() && self.user_burst_mean > 0.0) {
            return Err(ProfileError::BadBurstMean {
                mean: self.user_burst_mean,
            });
        }
        for (field, value) in [
            ("user_mem_prob", self.user_mem_prob),
            ("user_write_frac", self.user_write_frac),
            ("user_shared_frac", self.user_shared_frac),
            ("user_shared_write_frac", self.user_shared_write_frac),
            ("user_branch_prob", self.user_branch_prob),
            ("user_branch_taken", self.user_branch_taken),
            ("user_hot_frac", self.user_hot_frac),
            ("os_mem_prob", self.os_mem_prob),
            ("os_write_frac", self.os_write_frac),
            ("os_branch_prob", self.os_branch_prob),
            ("os_branch_taken", self.os_branch_taken),
            ("os_hot_frac", self.os_hot_frac),
            ("length_jitter_prob", self.length_jitter_prob),
            ("length_jitter_span", self.length_jitter_span),
            ("spill_fill_rate", self.spill_fill_rate),
        ] {
            if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                return Err(ProfileError::BadProbability { field, value });
            }
        }
        for (field, value) in [
            ("user_locality_skew", self.user_locality_skew),
            ("os_locality_skew", self.os_locality_skew),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ProfileError::BadLocalitySkew { field, value });
            }
        }
        const LINE: u64 = 64;
        for (region, bytes) in [
            ("user_code", self.footprints.user_code),
            ("user_data", self.footprints.user_data),
            ("shared_buffer", self.footprints.shared_buffer),
            ("kernel_code", self.footprints.kernel_code),
            ("kernel_data", self.footprints.kernel_data),
            ("kernel_thread", self.footprints.kernel_thread),
        ] {
            if bytes < LINE {
                return Err(ProfileError::FootprintTooSmall { region, bytes });
            }
        }
        if !(self.irq_mean_interval.is_finite() && self.irq_mean_interval >= 0.0) {
            return Err(ProfileError::BadIrqInterval {
                value: self.irq_mean_interval,
            });
        }
        Ok(())
    }

    /// Mean service length (instructions) of one privileged invocation
    /// under this profile's mix, before disturbances.
    pub fn expected_invocation_len(&self) -> f64 {
        let mut total_w = 0.0;
        let mut total = 0.0;
        for &(id, w) in &self.syscall_mix {
            let spec = id.spec();
            let contexts = self.io_contexts(id);
            let mean_ctx: f64 = contexts
                .iter()
                .map(|&(_, arg1)| spec.service_len(arg1) as f64)
                .sum::<f64>()
                / contexts.len() as f64;
            total += w * mean_ctx;
            total_w += w;
        }
        if total_w == 0.0 {
            0.0
        } else {
            total / total_w
        }
    }

    /// The argument contexts of `id` this profile actually draws from,
    /// after applying the [`max_io_bytes`](Self::max_io_bytes) filter
    /// (falling back to the full list if the filter would empty it).
    pub fn io_contexts(&self, id: SyscallId) -> Vec<(u64, u64)> {
        let all = id.spec().arg_contexts;
        match self.max_io_bytes {
            None => all.to_vec(),
            Some(cap) => {
                let filtered: Vec<(u64, u64)> = all
                    .iter()
                    .copied()
                    .filter(|&(_, arg1)| arg1 <= cap)
                    .collect();
                if filtered.is_empty() {
                    all.to_vec()
                } else {
                    filtered
                }
            }
        }
    }

    /// Expected fraction of instructions executed in privileged mode.
    pub fn expected_os_share(&self) -> f64 {
        let os = self.expected_invocation_len();
        os / (os + self.user_burst_mean)
    }

    /// The Apache 2.2.6 static-page profile: the paper's most OS-bound
    /// workload — a mix of *many short* calls (`gettimeofday`, `getpid`,
    /// descriptor ops) and long network/file I/O, with heavy shared-buffer
    /// traffic. Pattern "(a) an application that invokes many short OS
    /// routines" *and* "(b) few, but long running, routines" (§II).
    pub fn apache() -> Self {
        Profile {
            name: "apache",
            kind: ProfileKind::Server,
            threads_per_core: 2,
            footprints: Footprints {
                user_code: 128 << 10,
                user_data: 640 << 10,
                shared_buffer: 192 << 10,
                kernel_code: 384 << 10,
                kernel_data: 896 << 10,
                kernel_thread: 32 << 10,
            },
            syscall_mix: vec![
                (SyscallId::GetTimeOfDay, 0.080),
                (SyscallId::Read, 0.160),
                (SyscallId::Writev, 0.130),
                (SyscallId::Write, 0.040),
                (SyscallId::Poll, 0.060),
                (SyscallId::Accept, 0.060),
                (SyscallId::Stat, 0.040),
                (SyscallId::Open, 0.035),
                (SyscallId::Close, 0.030),
                (SyscallId::Fcntl, 0.030),
                (SyscallId::Lseek, 0.020),
                (SyscallId::SendTo, 0.020),
                (SyscallId::RecvFrom, 0.060),
                (SyscallId::GetPid, 0.015),
                (SyscallId::Futex, 0.030),
                (SyscallId::PageFault, 0.060),
                (SyscallId::Mmap, 0.010),
                (SyscallId::Ioctl, 0.020),
                (SyscallId::Select, 0.020),
                (SyscallId::Socket, 0.010),
                (SyscallId::Connect, 0.005),
                (SyscallId::IrqNetwork, 0.020),
                (SyscallId::IrqTimer, 0.010),
                (SyscallId::IrqDisk, 0.005),
                (SyscallId::TlbRefill, 0.450),
            ],
            user_burst_mean: 2_900.0,
            user_mem_prob: 0.31,
            user_write_frac: 0.30,
            user_shared_frac: 0.10,
            user_shared_write_frac: 0.35,
            user_branch_prob: 0.17,
            user_branch_taken: 0.62,
            user_locality_skew: 1.05,
            user_hot_frac: 0.92,
            user_hot_bytes: 32 << 10,
            os_mem_prob: 0.36,
            os_write_frac: 0.32,
            os_branch_prob: 0.19,
            os_branch_taken: 0.60,
            os_locality_skew: 1.15,
            os_hot_frac: 0.85,
            os_hot_bytes: 64 << 10,
            length_jitter_prob: 0.13,
            length_jitter_span: 0.03,
            irq_mean_interval: 150_000.0,
            irq_nested_len: 3_500,
            include_spill_fill: false,
            spill_fill_rate: 1.0 / 900.0,
            max_io_bytes: None,
        }
    }

    /// The SPECjbb2005 middleware profile: a large Java heap, lock-heavy
    /// (`futex`) and logging I/O. Its long migration-unfriendly working
    /// set is why the paper finds off-loading may *never* help it at
    /// conservative latencies (Fig. 4).
    pub fn specjbb() -> Self {
        Profile {
            name: "specjbb2005",
            kind: ProfileKind::Server,
            threads_per_core: 2,
            footprints: Footprints {
                user_code: 256 << 10,
                user_data: 1536 << 10,
                shared_buffer: 96 << 10,
                kernel_code: 384 << 10,
                kernel_data: 512 << 10,
                kernel_thread: 32 << 10,
            },
            syscall_mix: vec![
                (SyscallId::Futex, 0.200),
                (SyscallId::GetTimeOfDay, 0.120),
                (SyscallId::Read, 0.080),
                (SyscallId::Write, 0.100),
                (SyscallId::Mmap, 0.040),
                (SyscallId::Brk, 0.050),
                (SyscallId::PageFault, 0.120),
                (SyscallId::SchedYield, 0.050),
                (SyscallId::Stat, 0.020),
                (SyscallId::Poll, 0.030),
                (SyscallId::Send, 0.040),
                (SyscallId::Recv, 0.050),
                (SyscallId::GetPid, 0.020),
                (SyscallId::Close, 0.020),
                (SyscallId::Open, 0.010),
                (SyscallId::Nanosleep, 0.010),
                (SyscallId::IrqTimer, 0.030),
                (SyscallId::IrqNetwork, 0.010),
                (SyscallId::TlbRefill, 0.150),
            ],
            user_burst_mean: 5_000.0,
            user_mem_prob: 0.33,
            user_write_frac: 0.33,
            user_shared_frac: 0.06,
            user_shared_write_frac: 0.40,
            user_branch_prob: 0.16,
            user_branch_taken: 0.61,
            user_locality_skew: 1.10,
            user_hot_frac: 0.90,
            user_hot_bytes: 24 << 10,
            os_mem_prob: 0.36,
            os_write_frac: 0.34,
            os_branch_prob: 0.19,
            os_branch_taken: 0.60,
            os_locality_skew: 1.10,
            os_hot_frac: 0.85,
            os_hot_bytes: 24 << 10,
            length_jitter_prob: 0.15,
            length_jitter_span: 0.035,
            irq_mean_interval: 180_000.0,
            irq_nested_len: 2_500,
            include_spill_fill: false,
            spill_fill_rate: 1.0 / 1_500.0,
            max_io_bytes: Some(8 << 10),
        }
    }

    /// The Derby (SPECjvm2008) database profile: modest OS share, but the
    /// invocations it does make are dominated by bulk file I/O — the
    /// paper's pattern "(b) few, but long running, routines".
    pub fn derby() -> Self {
        Profile {
            name: "derby",
            kind: ProfileKind::Server,
            threads_per_core: 2,
            footprints: Footprints {
                user_code: 192 << 10,
                user_data: 1152 << 10,
                shared_buffer: 256 << 10,
                kernel_code: 320 << 10,
                kernel_data: 512 << 10,
                kernel_thread: 32 << 10,
            },
            syscall_mix: vec![
                (SyscallId::Read, 0.190),
                (SyscallId::Write, 0.170),
                (SyscallId::Readv, 0.060),
                (SyscallId::Writev, 0.060),
                (SyscallId::Lseek, 0.100),
                (SyscallId::Fstat, 0.050),
                (SyscallId::Futex, 0.130),
                (SyscallId::GetTimeOfDay, 0.080),
                (SyscallId::PageFault, 0.070),
                (SyscallId::Mmap, 0.020),
                (SyscallId::Fcntl, 0.030),
                (SyscallId::Open, 0.010),
                (SyscallId::Close, 0.010),
                (SyscallId::IrqDisk, 0.010),
                (SyscallId::IrqTimer, 0.010),
                (SyscallId::TlbRefill, 0.100),
            ],
            user_burst_mean: 22_000.0,
            user_mem_prob: 0.32,
            user_write_frac: 0.30,
            user_shared_frac: 0.08,
            user_shared_write_frac: 0.30,
            user_branch_prob: 0.15,
            user_branch_taken: 0.63,
            user_locality_skew: 1.00,
            user_hot_frac: 0.92,
            user_hot_bytes: 32 << 10,
            os_mem_prob: 0.37,
            os_write_frac: 0.33,
            os_branch_prob: 0.18,
            os_branch_taken: 0.60,
            os_locality_skew: 1.12,
            os_hot_frac: 0.85,
            os_hot_bytes: 40 << 10,
            length_jitter_prob: 0.12,
            length_jitter_span: 0.03,
            irq_mean_interval: 160_000.0,
            irq_nested_len: 4_000,
            include_spill_fill: false,
            spill_fill_rate: 1.0 / 1_200.0,
            max_io_bytes: None,
        }
    }

    /// Parameterised compute-bound profile shared by the six HPC
    /// benchmarks: negligible OS interaction (allocation, occasional
    /// file reads, timer interrupts), differing mainly in working-set
    /// size and locality.
    fn compute(
        name: &'static str,
        user_data: u64,
        user_mem_prob: f64,
        user_locality_skew: f64,
        user_hot_frac: f64,
        user_hot_bytes: u64,
    ) -> Self {
        Profile {
            name,
            kind: ProfileKind::Compute,
            threads_per_core: 1,
            footprints: Footprints {
                user_code: 64 << 10,
                user_data,
                shared_buffer: 32 << 10,
                kernel_code: 256 << 10,
                kernel_data: 384 << 10,
                kernel_thread: 16 << 10,
            },
            syscall_mix: vec![
                (SyscallId::Brk, 0.30),
                (SyscallId::Mmap, 0.08),
                (SyscallId::Read, 0.18),
                (SyscallId::GetTimeOfDay, 0.20),
                (SyscallId::PageFault, 0.16),
                (SyscallId::Write, 0.03),
                (SyscallId::IrqTimer, 0.05),
                (SyscallId::TlbRefill, 0.05),
            ],
            user_burst_mean: 110_000.0,
            user_mem_prob,
            user_write_frac: 0.28,
            user_shared_frac: 0.01,
            user_shared_write_frac: 0.20,
            user_branch_prob: 0.13,
            user_branch_taken: 0.65,
            user_locality_skew,
            user_hot_frac,
            user_hot_bytes,
            os_mem_prob: 0.35,
            os_write_frac: 0.32,
            os_branch_prob: 0.18,
            os_branch_taken: 0.60,
            os_locality_skew: 1.15,
            os_hot_frac: 0.85,
            os_hot_bytes: 40 << 10,
            length_jitter_prob: 0.10,
            length_jitter_span: 0.03,
            irq_mean_interval: 250_000.0,
            irq_nested_len: 2_000,
            include_spill_fill: false,
            spill_fill_rate: 1.0 / 8_000.0,
            max_io_bytes: Some(16 << 10),
        }
    }

    /// PARSEC blackscholes: small, cache-resident working set.
    pub fn blackscholes() -> Self {
        Self::compute("blackscholes", 256 << 10, 0.26, 1.25, 0.95, 24 << 10)
    }

    /// PARSEC canneal: huge, cache-hostile working set.
    pub fn canneal() -> Self {
        Self::compute("canneal", 4096 << 10, 0.34, 0.75, 0.55, 128 << 10)
    }

    /// SPEC-CPU-2006 mcf: large working set, pointer chasing.
    pub fn mcf() -> Self {
        Self::compute("mcf", 2048 << 10, 0.36, 0.85, 0.65, 96 << 10)
    }

    /// SPEC-CPU-2006 hmmer: medium working set, regular access.
    pub fn hmmer() -> Self {
        Self::compute("hmmer", 512 << 10, 0.30, 1.20, 0.90, 48 << 10)
    }

    /// BioBench fasta_protein: streaming with a hot score matrix.
    pub fn fasta_protein() -> Self {
        Self::compute("fasta_protein", 384 << 10, 0.29, 1.15, 0.92, 32 << 10)
    }

    /// BioBench mummer: suffix-tree traversal, large and irregular.
    pub fn mummer() -> Self {
        Self::compute("mummer", 1536 << 10, 0.33, 0.90, 0.70, 96 << 10)
    }

    /// The three server profiles, in the paper's figure order.
    pub fn all_server() -> Vec<Profile> {
        vec![Profile::apache(), Profile::specjbb(), Profile::derby()]
    }

    /// The six compute profiles.
    pub fn all_compute() -> Vec<Profile> {
        vec![
            Profile::blackscholes(),
            Profile::canneal(),
            Profile::mcf(),
            Profile::hmmer(),
            Profile::fasta_protein(),
            Profile::mummer(),
        ]
    }

    /// Every catalog profile, servers then compute, built once per
    /// process.
    pub fn catalog() -> &'static [Profile] {
        static CATALOG: std::sync::OnceLock<Vec<Profile>> = std::sync::OnceLock::new();
        CATALOG.get_or_init(|| {
            Self::all_server()
                .into_iter()
                .chain(Self::all_compute())
                .collect()
        })
    }

    /// Looks a profile up by its figure name.
    pub fn by_name(name: &str) -> Option<Profile> {
        Self::catalog().iter().find(|p| p.name == name).cloned()
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}, ~{:.1}% OS)",
            self.name,
            self.kind,
            self.expected_os_share() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_shares_are_ordered_like_the_paper() {
        // Apache is the most OS-bound, Derby modest, compute negligible
        // (Table III ordering and §II characterisation).
        let apache = Profile::apache().expected_os_share();
        let jbb = Profile::specjbb().expected_os_share();
        let derby = Profile::derby().expected_os_share();
        let compute = Profile::blackscholes().expected_os_share();
        assert!(apache > jbb && jbb > derby && derby > compute);
        assert!(apache > 0.40, "apache share = {apache}");
        assert!((0.15..0.45).contains(&jbb), "jbb share = {jbb}");
        assert!((0.05..0.25).contains(&derby), "derby share = {derby}");
        assert!(compute < 0.05, "compute share = {compute}");
    }

    #[test]
    fn mixes_reference_valid_weights() {
        for p in Profile::all_server()
            .into_iter()
            .chain(Profile::all_compute())
        {
            let total: f64 = p.syscall_mix.iter().map(|&(_, w)| w).sum();
            assert!(
                (0.8..=1.5).contains(&total),
                "{}: weight sum {total}",
                p.name
            );
            for &(_, w) in &p.syscall_mix {
                assert!(w > 0.0);
            }
        }
    }

    #[test]
    fn server_profiles_map_two_threads_per_core() {
        for p in Profile::all_server() {
            assert_eq!(p.threads_per_core, 2, "{}", p.name);
        }
        for p in Profile::all_compute() {
            assert_eq!(p.threads_per_core, 1, "{}", p.name);
        }
    }

    #[test]
    fn expected_invocation_lengths_are_plausible() {
        // Derby's invocations are longer on average than Apache's
        // (pattern (b) vs pattern (a)+(b), §II).
        let apache = Profile::apache().expected_invocation_len();
        let derby = Profile::derby().expected_invocation_len();
        assert!(apache > 500.0 && apache < 10_000.0, "apache = {apache}");
        assert!(derby > apache, "derby = {derby} vs apache = {apache}");
    }

    #[test]
    fn by_name_round_trips() {
        for p in Profile::all_server()
            .into_iter()
            .chain(Profile::all_compute())
        {
            let found = Profile::by_name(p.name).expect("by_name");
            assert_eq!(found.name, p.name);
        }
        assert!(Profile::by_name("nonexistent").is_none());
    }

    #[test]
    fn catalog_matches_freshly_built_profiles() {
        let fresh: Vec<Profile> = Profile::all_server()
            .into_iter()
            .chain(Profile::all_compute())
            .collect();
        assert_eq!(Profile::catalog(), fresh.as_slice());
    }

    #[test]
    fn probability_fields_are_probabilities() {
        for p in Profile::all_server()
            .into_iter()
            .chain(Profile::all_compute())
        {
            for (label, v) in [
                ("user_mem_prob", p.user_mem_prob),
                ("user_write_frac", p.user_write_frac),
                ("user_shared_frac", p.user_shared_frac),
                ("user_shared_write_frac", p.user_shared_write_frac),
                ("user_branch_prob", p.user_branch_prob),
                ("user_branch_taken", p.user_branch_taken),
                ("os_mem_prob", p.os_mem_prob),
                ("os_write_frac", p.os_write_frac),
                ("os_branch_prob", p.os_branch_prob),
                ("os_branch_taken", p.os_branch_taken),
                ("length_jitter_prob", p.length_jitter_prob),
            ] {
                assert!((0.0..=1.0).contains(&v), "{}: {label} = {v}", p.name);
            }
        }
    }

    #[test]
    fn display_mentions_name() {
        assert!(Profile::apache().to_string().contains("apache"));
    }
}
