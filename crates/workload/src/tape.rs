//! Shared workload tapes: generate each thread's draw stream once,
//! replay it in every simulation of the same workload shape.
//!
//! A thread's segment/instruction stream depends only on the profile,
//! the phase schedule, the thread's index, and the master seed — never
//! on the off-loading policy, the topology, or the memory system,
//! because every policy path executes each drawn segment to exactly its
//! drawn length. Two simulations that agree on those four inputs
//! therefore consume *identical* streams, and a sweep grid (the same
//! workload under thirty policy × latency points) regenerates the same
//! stream once per point.
//!
//! A [`WorkloadTape`] hoists that generation out of the per-point loop:
//! it owns one master [`ThreadWorkload`] per thread — constructed with
//! the exact seed-splitting sequence the simulator uses — and
//! materialises segments plus their [`InstrSpec`]s into contiguous
//! per-thread arrays on demand. Each simulation that shares the tape
//! then reads through its own [`TapeCursor`], so K simulations pay the
//! generation cost once instead of K times, and replay is a cache-
//! friendly linear scan instead of a chain of RNG and sampler draws.
//!
//! Recording is not free: materialising a record costs about as much as
//! drawing the instruction live (on a 2-vCPU host, about 47 ns per taped
//! instruction against 45.7 ns per live draw; replay is 6.6 ns). A tape
//! therefore pays only when it is replayed more than once, and a
//! simulation whose shape no other simulation shares should draw live.
//! `osoffload_system::TapeRegistry` is the only way a simulation gets a
//! tape, and the runner uses it only for runs of two or more same-shape
//! points.
//!
//! Replay is bit-identical by construction: the tape's masters perform
//! the same calls, in the same per-thread order, as a live simulation
//! would (one `next_segment`, then that segment's instructions, then
//! the next segment).

use std::cell::RefCell;
use std::rc::Rc;

use osoffload_sim::Rng64;

use crate::generator::{InstrSpec, MemRef, Segment, ThreadWorkload};
use crate::profile::Profile;

const META_HAS_MEM: u8 = 1 << 0;
const META_WRITE: u8 = 1 << 1;
const META_HAS_BRANCH: u8 = 1 << 2;
const META_TAKEN: u8 = 1 << 3;

/// On-tape encoding of one [`InstrSpec`]: 17 bytes instead of 32.
///
/// Replay streams tens of megabytes per simulation, so the tape stores
/// each instruction packed — the two `Option`s collapse into flag bits
/// and the padding disappears — and the hot loop unpacks with a couple
/// of selects. That roughly halves the bytes pulled through the cache
/// per replayed instruction, which is where a replaying simulation's
/// time goes once generation is amortised.
#[derive(Clone, Copy)]
#[repr(C, packed)]
pub struct TapedInstr {
    pc: u64,
    addr: u64,
    meta: u8,
}

impl TapedInstr {
    #[inline]
    fn pack(spec: &InstrSpec) -> Self {
        let mut meta = 0u8;
        let mut addr = 0u64;
        if let Some(m) = spec.mem {
            meta |= META_HAS_MEM;
            if m.write {
                meta |= META_WRITE;
            }
            addr = m.addr;
        }
        if let Some(taken) = spec.branch {
            meta |= META_HAS_BRANCH;
            if taken {
                meta |= META_TAKEN;
            }
        }
        TapedInstr {
            pc: spec.pc,
            addr,
            meta,
        }
    }

    /// Decodes back to the exact [`InstrSpec`] that was packed.
    #[inline]
    pub fn unpack(&self) -> InstrSpec {
        let meta = self.meta;
        InstrSpec {
            pc: self.pc,
            mem: if meta & META_HAS_MEM != 0 {
                Some(MemRef {
                    addr: self.addr,
                    write: meta & META_WRITE != 0,
                })
            } else {
                None
            },
            branch: if meta & META_HAS_BRANCH != 0 {
                Some(meta & META_TAKEN != 0)
            } else {
                None
            },
        }
    }
}

/// One materialised segment: the scheduling header plus the index of
/// its first instruction in the thread's flat spec array.
struct TapeSeg {
    seg: Segment,
    first: usize,
}

/// One thread's master generator and its materialised stream.
struct ThreadTape {
    master: ThreadWorkload,
    segs: Vec<TapeSeg>,
    specs: Vec<TapedInstr>,
}

impl ThreadTape {
    /// Generates the next segment and all of its instructions.
    fn push_segment(&mut self) {
        let seg = self.master.next_segment();
        let first = self.specs.len();
        match &seg {
            Segment::User { len } => {
                for _ in 0..*len {
                    let spec = self.master.user_instr();
                    self.specs.push(TapedInstr::pack(&spec));
                }
            }
            Segment::Os(inv) => {
                for j in 0..inv.actual_len {
                    let spec = self.master.os_instr(inv, j);
                    self.specs.push(TapedInstr::pack(&spec));
                }
            }
        }
        self.segs.push(TapeSeg { seg, first });
    }
}

/// A lazily materialised, shareable recording of every thread's draw
/// stream for one (profile, phases, thread-count, seed) shape.
pub struct WorkloadTape {
    threads: Vec<ThreadTape>,
}

impl WorkloadTape {
    /// Builds the tape's masters with the simulator's exact construction
    /// sequence: one seed split per thread, in thread order, from a
    /// master RNG seeded with `seed`.
    pub fn new(
        profile: &Profile,
        phases: &[(u64, Profile)],
        thread_count: usize,
        seed: u64,
    ) -> Self {
        let mut master = Rng64::seed_from(seed);
        let threads = (0..thread_count)
            .map(|i| ThreadTape {
                master: if phases.is_empty() {
                    ThreadWorkload::new(profile.clone(), i, master.split().next_u64())
                } else {
                    ThreadWorkload::with_phases(
                        profile.clone(),
                        phases.to_vec(),
                        i,
                        master.split().next_u64(),
                    )
                },
                segs: Vec::new(),
                specs: Vec::new(),
            })
            .collect();
        WorkloadTape { threads }
    }

    /// Wraps the tape for sharing across simulations.
    pub fn into_shared(self) -> SharedTape {
        Rc::new(RefCell::new(self))
    }

    /// Number of threads the tape records.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The materialised spec depth of thread `t`.
    pub fn spec_len(&self, t: usize) -> usize {
        self.threads[t].specs.len()
    }

    /// Materialises thread `t` until at least `min_specs` instruction
    /// specs exist (whole segments at a time, so the final segment may
    /// overshoot). Called before an allocation-audited region so every
    /// segment a simulation can legally request already exists and cursor
    /// reads never grow the arrays.
    pub fn extend_to(&mut self, t: usize, min_specs: usize) {
        let tape = &mut self.threads[t];
        if tape.specs.capacity() < min_specs {
            // One up-front allocation instead of doubling through tens
            // of megabytes; the slack absorbs the final segment's
            // overshoot so the growth rarely reallocates again.
            let target = min_specs + 131_072;
            tape.specs.reserve(target - tape.specs.len());
        }
        while tape.specs.len() < min_specs {
            tape.push_segment();
        }
    }

    /// The `idx`-th segment of thread `t` (materialising it if needed)
    /// and the flat index of its first instruction.
    fn segment(&mut self, t: usize, idx: usize) -> (Segment, usize) {
        let tape = &mut self.threads[t];
        while tape.segs.len() <= idx {
            tape.push_segment();
        }
        let s = &tape.segs[idx];
        (s.seg.clone(), s.first)
    }

    /// The contiguous specs of one materialised segment of thread `t`
    /// (`first..end` as reported by a cursor). The hot loop borrows the
    /// tape once per segment and walks this slice with plain indexed
    /// loads — no per-instruction shared-state access.
    #[inline]
    pub fn specs(&self, t: usize, first: usize, end: usize) -> &[TapedInstr] {
        &self.threads[t].specs[first..end]
    }

    /// The instruction spec at flat index `at` of thread `t`. The
    /// caller (a [`TapeCursor`]) only asks for positions inside a
    /// segment it has already fetched, so the spec always exists.
    #[inline]
    fn spec(&self, t: usize, at: usize) -> InstrSpec {
        self.threads[t].specs[at].unpack()
    }
}

/// A tape shared by the simulations of one workload shape.
pub type SharedTape = Rc<RefCell<WorkloadTape>>;

/// One simulation's read position into one thread's stream.
///
/// Presents the same three-call surface as a live [`ThreadWorkload`]
/// (`next_segment`, then that segment's instructions by index), backed
/// by the shared tape.
pub struct TapeCursor {
    tape: SharedTape,
    thread: usize,
    /// Index of the next segment to fetch.
    next_seg: usize,
    /// Flat spec index of the current segment's first instruction.
    cur_first: usize,
    /// Flat spec index one past the current segment's last instruction.
    cur_end: usize,
}

impl TapeCursor {
    /// A cursor at the start of thread `thread`'s stream.
    pub fn new(tape: SharedTape, thread: usize) -> Self {
        TapeCursor {
            tape,
            thread,
            next_seg: 0,
            cur_first: 0,
            cur_end: 0,
        }
    }

    /// The next segment of the stream — bit-identical to the segment a
    /// live generator in the same position would draw.
    pub fn next_segment(&mut self) -> Segment {
        let (seg, first) = self.tape.borrow_mut().segment(self.thread, self.next_seg);
        self.next_seg += 1;
        self.cur_first = first;
        self.cur_end = first
            + match &seg {
                Segment::User { len } => *len as usize,
                Segment::Os(inv) => inv.actual_len as usize,
            };
        seg
    }

    /// Instruction `j` of the current segment (per-call tape access;
    /// the hot loop uses [`span`](Self::span) + [`WorkloadTape::specs`]
    /// to read the whole segment through one borrow instead).
    #[inline]
    pub fn instr(&self, j: u64) -> InstrSpec {
        self.tape
            .borrow()
            .spec(self.thread, self.cur_first + j as usize)
    }

    /// The shared tape this cursor reads.
    pub fn tape(&self) -> &SharedTape {
        &self.tape
    }

    /// `(thread, first, end)` of the current segment — the arguments
    /// [`WorkloadTape::specs`] wants for the zero-copy slice read.
    pub fn span(&self) -> (usize, usize, usize) {
        (self.thread, self.cur_first, self.cur_end)
    }

    /// Flat spec index one past the current segment — the cursor's
    /// consumption depth, used to size pre-extension targets.
    pub fn depth(&self) -> usize {
        self.cur_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replaying a tape must reproduce the live generator's stream
    /// exactly, for every thread, including across lazy-extension
    /// boundaries and interleaved multi-cursor reads.
    #[test]
    fn replay_is_bit_identical_to_live_generation() {
        let profile = Profile::apache();
        let seed = 0xF1605u64;
        let threads = 2usize;

        // Live reference streams, constructed the simulator's way.
        let mut master = Rng64::seed_from(seed);
        let mut live: Vec<ThreadWorkload> = (0..threads)
            .map(|i| ThreadWorkload::new(profile.clone(), i, master.split().next_u64()))
            .collect();

        let tape = WorkloadTape::new(&profile, &[], threads, seed).into_shared();
        let mut cursors: Vec<TapeCursor> = (0..threads)
            .map(|t| TapeCursor::new(tape.clone(), t))
            .collect();

        for _ in 0..200 {
            for t in 0..threads {
                let live_seg = live[t].next_segment();
                let tape_seg = cursors[t].next_segment();
                assert_eq!(live_seg, tape_seg, "thread {t}: segment header diverged");
                match &live_seg {
                    Segment::User { len } => {
                        for j in 0..*len {
                            assert_eq!(live[t].user_instr(), cursors[t].instr(j));
                        }
                    }
                    Segment::Os(inv) => {
                        for j in 0..inv.actual_len {
                            assert_eq!(live[t].os_instr(inv, j), cursors[t].instr(j));
                        }
                    }
                }
            }
        }
    }

    /// A second cursor over the same tape replays from the start and
    /// sees the same stream (the sharing that pays for the tape).
    #[test]
    fn two_cursors_share_one_generation() {
        let profile = Profile::specjbb();
        let tape = WorkloadTape::new(&profile, &[], 1, 42).into_shared();
        let mut a = TapeCursor::new(tape.clone(), 0);
        let first: Vec<Segment> = (0..50).map(|_| a.next_segment()).collect();
        let mut b = TapeCursor::new(tape.clone(), 0);
        let second: Vec<Segment> = (0..50).map(|_| b.next_segment()).collect();
        assert_eq!(first, second);
    }

    /// `extend_to` materialises whole segments past the requested depth
    /// so an audited replay region never grows the arrays.
    #[test]
    fn extend_to_covers_requested_depth() {
        let profile = Profile::derby();
        let tape = WorkloadTape::new(&profile, &[], 1, 7);
        let shared = tape.into_shared();
        shared.borrow_mut().extend_to(0, 10_000);
        assert!(shared.borrow().spec_len(0) >= 10_000);
    }
}
