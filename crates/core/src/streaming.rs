//! Streaming, event-driven scheduler core — O(active jobs) resident memory.
//!
//! The paper's algorithms are naturally online: Algorithm C reacts only to
//! release and completion events, and Algorithm NC additionally never
//! preempts. The batch runners ([`crate::run_c`], [`crate::run_nc_uniform`])
//! are therefore thin wrappers over the state machines in this module —
//! same instance in, **bitwise-identical** objectives out, because batch
//! and stream literally execute the same arithmetic in the same order
//! (DESIGN.md §9 calls this the batch-vs-stream equivalence contract, and
//! `tests/differential_oracle.rs` enforces it).
//!
//! Resident state per stream:
//!
//! * a [`JobArena`] slot per **active** job (SoA slices, recycled on
//!   completion), over which the `W^{1−1/α}` decay kernels batch their
//!   per-event accounting;
//! * a binary heap of active-job keys (HDF order for C);
//! * O(1) running objective accumulators (energy, fractional and integral
//!   flow of completed jobs);
//! * a [`SpillRing`] of retired segments, drained by the consumer (batch
//!   collector, auditor) or capped and dropped-oldest for objective-only
//!   soak runs.
//!
//! Jobs enter through [`CStream::offer`] / [`NcStream::offer`] in
//! non-decreasing release order — the online arrival order — and
//! completions are pushed to a caller-supplied sink as the event loop
//! crosses them.
//!
//! [`CStream`] is generic over its [`DecayLaw`] and [`NcStream`] over its
//! [`GrowthLaw`], so each algorithm runs one loop under the paper's `s^α`
//! ([`PowerLaw`], the default), the speed-capped law (`bounded::Capped`)
//! and a general power function (`&PolyPower`, in `generic_runs`).

use crate::clairvoyant::ActiveKey;
use crate::shadow::MachineShadow;
use ncss_sim::arena::{ArenaSnapshot, JobArena};
use ncss_sim::kernel::{DecayKernel, DecayServe, GrowthKernel, GrowthServe};
use ncss_sim::spill::{SpillRing, SpillSnapshot};
use ncss_sim::{Job, JobId, Objective, PowerLaw, Segment, SimError, SimResult, SpeedLaw};
use std::collections::BinaryHeap;
use std::fmt;

/// What [`CStream`]'s event loop asks of a speed law. Algorithm C sets its
/// power from the total remaining weight `W`; a law says how `W` drains
/// while one job is served, and what the drained interval leaves on the
/// record.
pub trait DecayLaw: Copy + fmt::Debug {
    /// What a service interval retires into the spill ring and keeps as
    /// the last segment: [`Segment`] for the `s^α` laws.
    type Seg: Copy + fmt::Debug;

    /// Serve `rem` volume of a density-`rho` job from total weight `w0`
    /// for at most `dt`: [`DecayKernel::serve`] for [`PowerLaw`].
    fn serve(&self, w0: f64, rho: f64, rem: f64, dt: f64) -> DecayServe;

    /// Hand `emit` the segments of one served interval, in time order and
    /// none of them empty. `interval` is the interval as [`PowerLaw`]
    /// records it (`SpeedLaw::Decay { w0, rho }` over `[start, end]`, with
    /// `end > start`), and `w_end` is the weight the serve left.
    fn retire(&self, interval: Segment, w_end: f64, emit: impl FnMut(Self::Seg));

    /// The power `seg` reads just before `t`, with `(start, end]`
    /// semantics and 0 outside: the remaining weight `W(t^-)` wherever the
    /// power is the weight.
    fn power_before(&self, seg: &Self::Seg, t: f64) -> f64;
}

/// The paper's law. Each method is a forced-inline shim, so the loop calls
/// [`DecayKernel::serve`] and builds its segment as it did before it took a
/// law: the same arithmetic in the same order, and the same bits.
impl DecayLaw for PowerLaw {
    type Seg = Segment;

    #[inline(always)]
    fn serve(&self, w0: f64, rho: f64, rem: f64, dt: f64) -> DecayServe {
        DecayKernel { law: *self, w0, rho }.serve(rem, dt)
    }

    #[inline(always)]
    fn retire(&self, interval: Segment, _w_end: f64, mut emit: impl FnMut(Segment)) {
        emit(interval);
    }

    #[inline(always)]
    fn power_before(&self, seg: &Segment, t: f64) -> f64 {
        if seg.start < t && t <= seg.end {
            seg.power_at(*self, t)
        } else {
            0.0
        }
    }
}

/// What [`NcStream`]'s FIFO loop asks of a speed law. NC serves each job
/// whole, at base power `K_j` plus the weight it has processed, and reads
/// `K_j` from a shadow C run under the law's [`DecayLaw`], whose segment
/// type the served jobs retire too.
pub trait GrowthLaw: Copy + fmt::Debug {
    /// The law of the clairvoyant shadow, built from this one.
    type Shadow: DecayLaw + From<Self>;

    /// Serve a whole job of volume `v` and density `rho` from base power
    /// `u0`: [`GrowthKernel::serve_volume`] for [`PowerLaw`].
    fn serve_volume(&self, u0: f64, rho: f64, v: f64) -> GrowthServe;

    /// Hand `emit` the segments of a job served as `sv`, in time order, and
    /// return its completion time. `interval` is the service as
    /// [`PowerLaw`] records it: `SpeedLaw::Growth { u0, rho }` over
    /// `[start, start + sv.tau]`.
    fn complete(&self, interval: Segment, sv: &GrowthServe, emit: impl FnMut(Seg<Self>)) -> f64;
}

/// The segment type of `G`'s shadow law, which `G`'s served jobs retire.
type Seg<G> = <<G as GrowthLaw>::Shadow as DecayLaw>::Seg;

/// The paper's law, through forced-inline shims like its [`DecayLaw`]: one
/// growth segment when the service takes time.
impl GrowthLaw for PowerLaw {
    type Shadow = PowerLaw;

    #[inline(always)]
    fn serve_volume(&self, u0: f64, rho: f64, v: f64) -> GrowthServe {
        GrowthKernel { law: *self, u0, rho }.serve_volume(v)
    }

    #[inline(always)]
    fn complete(&self, interval: Segment, sv: &GrowthServe, mut emit: impl FnMut(Segment)) -> f64 {
        if sv.tau > 0.0 {
            emit(interval);
        }
        interval.end
    }
}

/// Initial capacity of the active-job heap: a generous pre-size trades a
/// few KiB per stream for an allocation-free steady state, and streams
/// whose active set outgrows it fall back to amortized doubling. A run can
/// hold many streams — NC keeps a shadow C stream, and the fleet
/// dispatcher builds one clairvoyant shadow per used machine (which C-PAR
/// clones into its cached timelines) — and each new or restored one pays
/// the pre-size.
const HEAP_PRESIZE: usize = 1024;

/// Exact total-weight resync cadence. `W(t)` is maintained incrementally
/// (one multiply per event) and re-derived from the per-job remainders over
/// the arena slices every this many events, bounding accumulation drift at
/// a few thousand rounding errors — far below the audit tolerances — while
/// removing the O(active) per-event recompute. The counter is part of the
/// stream snapshot, so a resumed run resyncs on the same events as an
/// uninterrupted one (bitwise-resume contract).
const WEIGHT_RESYNC_EVERY: u32 = 4096;

/// Cancellation guard for the incremental total weight: when one event
/// removes weight `delta` and leaves less than `delta * GUARD` behind, the
/// subtraction was catastrophic (the survivors' weights were absorbed into
/// the big value's rounding) and the total is re-derived exactly right
/// away. On homogeneous workloads this never fires; on mixed-magnitude
/// (fault-injection) workloads it bounds the relative error of the kept
/// total near `ulp / GUARD`. The trigger depends only on snapshotted values,
/// so resumed runs resync on the same events.
const WEIGHT_CANCEL_GUARD: f64 = 1e-3;

/// Configuration of a stream's segment-retention policy.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Retire closed segments into the spill ring (`false` for shadow runs
    /// that only need the weight trajectory, e.g. [`MachineShadow`]).
    pub keep_segments: bool,
    /// Resident cap of the spill ring; `None` means unbounded (the batch
    /// wrappers, which drain once at the end).
    pub spill_capacity: Option<usize>,
}

impl StreamConfig {
    /// Unbounded ring, segments kept — what [`crate::run_c`] and
    /// [`crate::run_nc_uniform`] use to reassemble a full [`ncss_sim::Schedule`].
    #[must_use]
    pub fn batch() -> Self {
        Self { keep_segments: true, spill_capacity: None }
    }

    /// Bounded ring of `capacity` segments, segments kept — the streaming
    /// mode; the consumer must drain between events or accept drops.
    #[must_use]
    pub fn streaming(capacity: usize) -> Self {
        Self { keep_segments: true, spill_capacity: Some(capacity) }
    }

    /// No segments kept — a shadow run that only reads `W(t^-)` off its
    /// last segment, like [`MachineShadow`].
    #[must_use]
    pub(crate) fn shadow() -> Self {
        Self { keep_segments: false, spill_capacity: Some(1) }
    }

    fn ring<S>(&self) -> SpillRing<S> {
        match self.spill_capacity {
            Some(cap) => SpillRing::with_capacity(cap),
            None => SpillRing::unbounded(),
        }
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self::batch()
    }
}

/// A completed job as emitted by [`CStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CCompletion {
    /// Arrival index of the job (0-based ingest order = [`JobId`] in the
    /// equivalent batch [`ncss_sim::Instance`]).
    pub id: JobId,
    /// The job as offered.
    pub job: Job,
    /// Completion time.
    pub completion: f64,
    /// Fractional flow-time accrued by this job.
    pub frac_flow: f64,
    /// Integral (weighted) flow-time `W · (completion − release)`.
    pub int_flow: f64,
}

/// A completed job as emitted by [`NcStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NcCompletion {
    /// Arrival index of the job.
    pub id: JobId,
    /// The job as offered.
    pub job: Job,
    /// Base power level `K_j = W^{(C)}(r_j^-)` used for this job.
    pub base_power: f64,
    /// Service start time (FIFO: after all earlier jobs complete).
    pub start: f64,
    /// Completion time.
    pub completion: f64,
    /// Fractional flow-time accrued by this job.
    pub frac_flow: f64,
    /// Integral (weighted) flow-time.
    pub int_flow: f64,
}

/// Final tally of a finished stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Aggregate objective, accounted incrementally during the run.
    pub objective: Objective,
    /// Jobs completed (equals jobs offered once `finish` returns).
    pub completed: usize,
    /// Completion time of the last job (0 for an empty stream).
    pub makespan: f64,
}

/// Resident-memory counters of a stream — what the soak bench asserts its
/// flat-memory ceiling against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Jobs offered so far.
    pub ingested: usize,
    /// Jobs completed so far.
    pub completed: usize,
    /// Jobs currently active (released, not complete).
    pub active: usize,
    /// High-water mark of simultaneously active jobs.
    pub peak_active: usize,
    /// Arena slots ever created (= peak active, by slot recycling).
    pub arena_slots: usize,
    /// Segments currently resident in the spill ring.
    pub spill_resident: usize,
    /// High-water mark of resident spill segments.
    pub spill_peak_resident: usize,
    /// Segments dropped because the consumer fell behind the ring cap.
    pub spill_dropped: u64,
    /// Segments ever retired.
    pub spill_total: u64,
}

/// Heap key: [`ActiveKey`] ordering (highest density, earliest release,
/// smallest id) plus the arena slot the job lives in, which does not
/// participate in the ordering. Only the top job ever completes, so every
/// key in the heap belongs to a live job.
#[derive(Debug, Clone, Copy)]
struct StreamKey {
    key: ActiveKey,
    slot: usize,
}

impl PartialEq for StreamKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for StreamKey {}

impl PartialOrd for StreamKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StreamKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Streaming Algorithm C: highest-density-first with `P(s(t)) = W(t)`,
/// driven by an ordered release stream.
///
/// This *is* the Algorithm C event loop — [`crate::run_c`] wraps it — with
/// the per-job `Vec`s replaced by an arena over active jobs only. The
/// capped and general-power runs wrap it too, through their [`DecayLaw`].
///
/// # Examples
///
/// ```
/// use ncss_core::streaming::{CStream, StreamConfig};
/// use ncss_sim::{Job, PowerLaw};
///
/// let mut stream = CStream::new(PowerLaw::new(2.0).unwrap(), StreamConfig::batch());
/// let mut done = Vec::new();
/// stream.offer(Job::unit_density(0.0, 4.0), &mut |c| done.push(c)).unwrap();
/// let summary = stream.finish(&mut |c| done.push(c)).unwrap();
/// // Lemma 2: a weight-4 job at alpha = 2 finishes at t = 4.
/// assert!((done[0].completion - 4.0).abs() < 1e-9);
/// assert_eq!(summary.completed, 1);
/// // Energy = fractional flow for Algorithm C.
/// assert!((summary.objective.energy - summary.objective.frac_flow).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct CStream<M: DecayLaw = PowerLaw> {
    law: M,
    arena: JobArena,
    heap: BinaryHeap<StreamKey>,
    spill: SpillRing<M::Seg>,
    keep_segments: bool,
    t: f64,
    watermark: f64,
    total_w: f64,
    /// Events since the last exact `total_w` resync (see
    /// [`WEIGHT_RESYNC_EVERY`]).
    events_since_sync: u32,
    last_seg: Option<M::Seg>,
    ingested: usize,
    completed: usize,
    energy: f64,
    frac_done: f64,
    int_done: f64,
}

impl<M: DecayLaw> Clone for CStream<M> {
    fn clone(&self) -> Self {
        Self {
            arena: self.arena.clone(),
            heap: self.heap.clone(),
            spill: self.spill.clone(),
            ..*self
        }
    }

    /// Field-wise, so a scratch stream restored from a checkpoint over and
    /// over (non-uniform NC's nested C run) reuses its buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            law,
            arena,
            heap,
            spill,
            keep_segments,
            t,
            watermark,
            total_w,
            events_since_sync,
            last_seg,
            ingested,
            completed,
            energy,
            frac_done,
            int_done,
        } = source;
        self.law = *law;
        self.arena.clone_from(arena);
        self.heap.clone_from(heap);
        self.spill.clone_from(spill);
        self.keep_segments = *keep_segments;
        self.t = *t;
        self.watermark = *watermark;
        self.total_w = *total_w;
        self.events_since_sync = *events_since_sync;
        self.last_seg = *last_seg;
        self.ingested = *ingested;
        self.completed = *completed;
        self.energy = *energy;
        self.frac_done = *frac_done;
        self.int_done = *int_done;
    }
}

impl<M: DecayLaw> CStream<M> {
    /// A fresh stream under speed law `law`.
    #[must_use]
    pub fn new(law: M, config: StreamConfig) -> Self {
        Self {
            law,
            arena: JobArena::new(),
            heap: BinaryHeap::with_capacity(HEAP_PRESIZE),
            spill: config.ring(),
            keep_segments: config.keep_segments,
            t: 0.0,
            watermark: f64::NEG_INFINITY,
            total_w: 0.0,
            events_since_sync: 0,
            last_seg: None,
            ingested: 0,
            completed: 0,
            energy: 0.0,
            frac_done: 0.0,
            int_done: 0.0,
        }
    }

    /// Offer the next released job. Releases must be non-decreasing; the
    /// event loop first advances to `job.release` (emitting any completions
    /// crossed on the way), then admits the job. Returns the job's
    /// [`JobId`] (its arrival index).
    pub fn offer<F: FnMut(CCompletion)>(&mut self, job: Job, sink: &mut F) -> SimResult<JobId> {
        let id = self.ingested;
        job.validated(id)?;
        if job.release < self.watermark {
            return Err(SimError::InvalidInstance {
                reason: "streamed releases must be non-decreasing",
            });
        }
        self.watermark = job.release;
        self.advance_to(job.release, sink)?;
        let slot = self.arena.alloc(job, id);
        self.heap.push(StreamKey {
            key: ActiveKey { density: job.density, release: job.release, id },
            slot,
        });
        self.total_w += job.weight();
        self.ingested += 1;
        Ok(id)
    }

    /// Advance the event loop to time `bound`, emitting completions crossed
    /// on the way. The caller promises no job is released before `bound`
    /// (this is what "ordered release stream" buys: the future is silent
    /// until the next offer).
    pub fn advance_to<F: FnMut(CCompletion)>(&mut self, bound: f64, sink: &mut F) -> SimResult<()> {
        self.drain_events::<false, F>(bound, false, f64::INFINITY, sink)
    }

    /// Declare the release stream exhausted and run every remaining job to
    /// completion. Idempotent; the summary restates the accumulated
    /// objective (validated for finiteness).
    pub fn finish<F: FnMut(CCompletion)>(&mut self, sink: &mut F) -> SimResult<StreamSummary> {
        self.drain_events::<false, F>(f64::INFINITY, true, f64::INFINITY, sink)?;
        let objective = Objective { energy: self.energy, frac_flow: self.frac_done, int_flow: self.int_done }
            .validated("run_c: objective")?;
        Ok(StreamSummary { objective, completed: self.completed, makespan: self.t })
    }

    /// The event loop. With `finishing` no further release bounds segments,
    /// so a non-finite completion time cannot make progress and is a
    /// numeric error (same contract as the batch loop had).
    ///
    /// Per service interval the loop makes exactly one [`DecayLaw::serve`]
    /// call (for [`PowerLaw`], 2 power-kernel evaluations when the top job
    /// completes, 3 when the interval is truncated at `bound`), touches
    /// only the in-service job's arena slot (waiting jobs settle their flow
    /// lazily via [`JobArena::settle_waiting`]), maintains `W(t)` with one
    /// multiply (exact resync every [`WEIGHT_RESYNC_EVERY`] events), and
    /// emits completions allocation-free: [`CCompletion`] is `Copy` and
    /// goes straight to the caller's sink.
    ///
    /// With `STOP` the loop also returns after the first event that moves
    /// the clock past `stop_after` ([`CStream::speed_at`]); the offer and
    /// finish paths instantiate it without, so they keep the loop as is.
    fn drain_events<const STOP: bool, F: FnMut(CCompletion)>(
        &mut self,
        bound: f64,
        finishing: bool,
        stop_after: f64,
        sink: &mut F,
    ) -> SimResult<()> {
        loop {
            let Some(&top) = self.heap.peek() else {
                // Idle until the next release (gap segments stay implicit).
                if self.t < bound && bound.is_finite() {
                    self.t = bound;
                }
                return Ok(());
            };
            let slot = top.slot;
            let rho = top.key.density;
            let rem = self.arena.remaining(slot);
            let sv = self.law.serve(self.total_w, rho, rem, bound - self.t);
            if finishing && !(self.t + sv.tau).is_finite() {
                // Kernel overflow at extreme weight scales: with no further
                // release to bound the segment, the event loop cannot make
                // progress — report instead of spinning or emitting NaN.
                return Err(SimError::Numeric {
                    what: "run_c: completion time",
                    value: self.t + sv.tau,
                });
            }
            let t_end = if sv.completes { self.t + sv.tau } else { bound };
            let tau = sv.tau;

            // Guard on *clock-visible* progress: a service interval shorter
            // than the clock's ulp (huge-W, tiny-volume degeneracies) closes
            // no segment and accrues nothing — same as a zero-length
            // interval; the job's waiting flow settles at completion below.
            if t_end > self.t {
                let interval = Segment::new(
                    self.t,
                    t_end,
                    Some(top.key.id),
                    SpeedLaw::Decay { w0: self.total_w, rho },
                );
                let (spill, last_seg) = (&mut self.spill, &mut self.last_seg);
                let keep = self.keep_segments;
                self.law.retire(interval, sv.step.w_end, |seg| {
                    if keep {
                        spill.push(seg);
                    }
                    *last_seg = Some(seg);
                });
                self.energy += sv.step.energy;
                // Waiting stretches settle lazily: bring the in-service
                // job's flow current through the interval start, add the
                // drain-side flow analytically, and mark it accounted
                // through the interval end. Every *other* active job keeps
                // deferring (its remainder is constant while it waits).
                self.arena.settle_waiting(slot, self.t);
                self.arena.add_frac_flow(slot, rho * (rem * tau - sv.step.volume_integral));
                self.arena.set_remaining(
                    slot,
                    if sv.completes { 0.0 } else { (rem - sv.step.volume).max(0.0) },
                );
                self.arena.set_accrued(slot, t_end);
            }
            self.t = t_end;

            let rem_end = if sv.completes {
                self.heap.pop();
                // Settle any outstanding waiting stretch first: a no-op when
                // the job was served this event (remaining is already 0),
                // but a zero-length completion (volume below W's ulp) skips
                // the service block entirely and still owes its waiting flow.
                self.arena.settle_waiting(slot, self.t);
                self.arena.set_remaining(slot, 0.0);
                let job = self.arena.job(slot);
                let frac = self.arena.frac_flow(slot);
                let int = job.weight() * (self.t - job.release);
                self.frac_done += frac;
                self.int_done += int;
                self.completed += 1;
                sink(CCompletion {
                    id: top.key.id,
                    job,
                    completion: self.t,
                    frac_flow: frac,
                    int_flow: int,
                });
                self.arena.retire(slot);
                0.0
            } else {
                self.arena.remaining(slot)
            };
            // Incremental total-weight maintenance: one multiply per event,
            // snapped back to the exactly re-derived slice sum every
            // WEIGHT_RESYNC_EVERY events (and to exactly 0 when the active
            // set empties) so drift never accumulates past a few thousand
            // rounding errors.
            let delta = rho * (rem - rem_end);
            self.total_w -= delta;
            if self.arena.live() == 0 {
                self.total_w = 0.0;
                self.events_since_sync = 0;
            } else {
                self.events_since_sync += 1;
                if self.events_since_sync >= WEIGHT_RESYNC_EVERY
                    || self.total_w < delta * WEIGHT_CANCEL_GUARD
                {
                    self.events_since_sync = 0;
                    self.total_w = self.arena.total_weight();
                }
            }
            if !sv.completes || (STOP && self.t > stop_after) {
                return Ok(());
            }
        }
    }

    /// The left limit `W(t^-)` of the total remaining weight — the quantity
    /// `W^{(C)}(r^-)` Algorithm NC reads at each release. Valid for `t` at
    /// or behind the stream clock; reads the last closed segment with
    /// `(start, end]` semantics ([`DecayLaw::power_before`]), exactly like
    /// the batch [`crate::CRun::remaining_weight_before`].
    #[must_use]
    pub fn weight_before(&self, t: f64) -> f64 {
        self.last_seg.map_or(0.0, |s| self.law.power_before(&s, t))
    }

    /// Resident-memory counters.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            ingested: self.ingested,
            completed: self.completed,
            active: self.arena.live(),
            peak_active: self.arena.peak_live(),
            arena_slots: self.arena.capacity(),
            spill_resident: self.spill.resident(),
            spill_peak_resident: self.spill.peak_resident(),
            spill_dropped: self.spill.dropped(),
            spill_total: self.spill.total_retired(),
        }
    }

    /// The spill ring of retired segments, for draining.
    pub fn spill_mut(&mut self) -> &mut SpillRing<M::Seg> {
        &mut self.spill
    }
}

/// The reads and checkpoints of the `s^α` stream: its segments carry a
/// [`SpeedLaw`] that a trace can store and a schedule can read.
impl CStream {
    /// The speed [`crate::run_c`]'s schedule reports at `t`
    /// ([`ncss_sim::Schedule::speed_at`]) on an instance made of the jobs
    /// offered so far followed by jobs released at `next_release` or later
    /// (`f64::INFINITY` when there are none), for `t` at or past the last
    /// offered release and before `next_release`.
    ///
    /// C is online, so the run up to `next_release` does not depend on the
    /// later jobs: the event loop runs exactly as [`Self::advance_to`]
    /// (`next_release`) or [`Self::finish`] would, but only until the first
    /// segment that ends after `t`, and the read keeps `Schedule::speed_at`'s
    /// rules: segments are half-open, a `t` within 1e-12 after the last
    /// segment's end reads that segment's closing speed, and anything else
    /// reads 0. Errors of the loop before that segment propagate as they
    /// would from [`crate::run_c`]; those after it are never met.
    ///
    /// The stream is left at that event, so read once and then restore it
    /// (`clone_from` a checkpoint) instead of offering more jobs. When the
    /// clock is already past `t` (a completion that rounds past its bound),
    /// only the last closed segment can be read.
    pub fn speed_at(&mut self, t: f64, next_release: f64) -> SimResult<f64> {
        if self.t <= t {
            let finishing = !next_release.is_finite();
            self.drain_events::<true, _>(next_release, finishing, t, &mut |_| {})?;
        }
        // Every earlier segment ended by the clock, so at or before `t`.
        Ok(match self.last_seg {
            Some(s) if s.start <= t && t < s.end => s.speed_at(self.law, t),
            Some(s) if (t - s.end).abs() <= 1e-12 => s.speed_at(self.law, t),
            _ => 0.0,
        })
    }

    /// Capture the complete stream state as plain data (DESIGN.md §10).
    ///
    /// The snapshot is taken between events (the stream is always quiescent
    /// between [`CStream::offer`] calls), carries every `f64` bit-for-bit,
    /// and is sufficient for [`CStream::from_snapshot`] to rebuild a stream
    /// whose future completions and objectives are **bitwise identical** to
    /// this one's — the checkpoint/resume contract that
    /// `tests/checkpoint_determinism.rs` enforces.
    #[must_use]
    pub fn snapshot(&self) -> CStreamSnapshot {
        CStreamSnapshot {
            alpha: self.law.alpha(),
            keep_segments: self.keep_segments,
            arena: self.arena.snapshot(),
            heap: self
                .heap
                .iter()
                .map(|k| HeapEntry {
                    density: k.key.density,
                    release: k.key.release,
                    id: k.key.id,
                    slot: k.slot,
                })
                .collect(),
            spill: self.spill.snapshot(),
            t: self.t,
            watermark: self.watermark,
            total_w: self.total_w,
            events_since_sync: self.events_since_sync,
            last_seg: self.last_seg,
            ingested: self.ingested,
            completed: self.completed,
            energy: self.energy,
            frac_done: self.frac_done,
            int_done: self.int_done,
        }
    }

    /// Rebuild a stream from a snapshot, validating its structure.
    ///
    /// Snapshots restored from disk may be corrupt; inconsistent shapes
    /// (heap slots outside the arena, live/heap cardinality mismatch, bad
    /// α) come back as structured errors, never panics. The rebuilt binary
    /// heap may have a different *internal* layout than the original — pop
    /// order is still unique because `ActiveKey`s are totally ordered, so
    /// the event loop's arithmetic is unaffected.
    pub fn from_snapshot(snap: CStreamSnapshot) -> SimResult<Self> {
        let law = PowerLaw::new(snap.alpha)?;
        let arena = JobArena::restore(snap.arena)?;
        let bad = |reason| Err(SimError::InvalidInstance { reason });
        if snap.heap.len() != arena.live() {
            return bad("stream snapshot: heap size disagrees with live jobs");
        }
        let mut heap = BinaryHeap::with_capacity(snap.heap.len().max(HEAP_PRESIZE));
        for e in &snap.heap {
            if e.slot >= arena.capacity() {
                return bad("stream snapshot: heap entry slot out of range");
            }
            heap.push(StreamKey {
                key: ActiveKey { density: e.density, release: e.release, id: e.id },
                slot: e.slot,
            });
        }
        if snap.completed > snap.ingested || snap.ingested - snap.completed != arena.live() {
            return bad("stream snapshot: ingested/completed/live counts disagree");
        }
        if snap.events_since_sync >= WEIGHT_RESYNC_EVERY {
            return bad("stream snapshot: resync counter out of range");
        }
        let spill = SpillRing::restore(snap.spill)?;
        Ok(Self {
            law,
            arena,
            heap,
            spill,
            keep_segments: snap.keep_segments,
            t: snap.t,
            watermark: snap.watermark,
            total_w: snap.total_w,
            events_since_sync: snap.events_since_sync,
            last_seg: snap.last_seg,
            ingested: snap.ingested,
            completed: snap.completed,
            energy: snap.energy,
            frac_done: snap.frac_done,
            int_done: snap.int_done,
        })
    }
}

/// One active-job entry of a [`CStreamSnapshot`] heap: the HDF ordering key
/// plus the arena slot the job lives in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapEntry {
    /// Job density (primary HDF key).
    pub density: f64,
    /// Release time (tie-break).
    pub release: f64,
    /// External job id (final tie-break).
    pub id: JobId,
    /// Arena slot of the job.
    pub slot: usize,
}

/// Plain-data image of a [`CStream`], produced by [`CStream::snapshot`] and
/// consumed by [`CStream::from_snapshot`]. Serialized into trace checkpoint
/// frames by `ncss-trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct CStreamSnapshot {
    /// Power-law exponent α.
    pub alpha: f64,
    /// Whether closed segments are retired into the spill ring.
    pub keep_segments: bool,
    /// Active-job store.
    pub arena: ArenaSnapshot,
    /// Active-job heap entries (order is the heap's internal layout; only
    /// the *set* matters, see [`CStream::from_snapshot`]).
    pub heap: Vec<HeapEntry>,
    /// Spill ring (resident segments + drop accounting).
    pub spill: SpillSnapshot,
    /// Event-loop clock.
    pub t: f64,
    /// Highest release offered so far (−∞ before the first offer).
    pub watermark: f64,
    /// Cached total remaining weight `W(t)`.
    pub total_w: f64,
    /// Events since the last exact total-weight resync (< 4096).
    pub events_since_sync: u32,
    /// Last closed segment (for the `W(t⁻)` left limit).
    pub last_seg: Option<Segment>,
    /// Jobs offered.
    pub ingested: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Energy accumulated.
    pub energy: f64,
    /// Fractional flow of completed jobs.
    pub frac_done: f64,
    /// Integral flow of completed jobs.
    pub int_done: f64,
}

/// Streaming Algorithm NC for uniform densities: FIFO, each job served
/// whole at power `K_j + W̆_j(t)`.
///
/// Completions are emitted *eagerly at offer time*: under FIFO without
/// preemption, a later arrival can never change an already-queued job's
/// service curve, so the moment job `j` is offered its start (when the
/// machine frees up), growth curve (from `K_j`), and completion are all
/// determined. One [`MachineShadow`] supplies `K_j = W^{(C)}(r_j^-)`
/// without ever re-running a prefix — which also makes the batch wrapper
/// [`crate::run_nc_uniform`] O(n log n) instead of the former O(n²).
///
/// # Examples
///
/// ```
/// use ncss_core::streaming::{NcStream, StreamConfig};
/// use ncss_sim::{Job, PowerLaw};
///
/// let mut stream = NcStream::new(PowerLaw::cube(), StreamConfig::batch());
/// let mut done = Vec::new();
/// stream.offer(Job::unit_density(0.0, 1.0), &mut |c| done.push(c)).unwrap();
/// stream.offer(Job::unit_density(0.5, 2.0), &mut |c| done.push(c)).unwrap();
/// let summary = stream.finish().unwrap();
/// assert_eq!(done.len(), 2);
/// assert_eq!(done[0].base_power, 0.0); // nothing released before job 0
/// assert!(done[1].base_power > 0.0);   // W^(C)(0.5^-) of the prefix
/// assert_eq!(summary.completed, 2);
/// ```
#[derive(Debug, Clone)]
pub struct NcStream<G: GrowthLaw = PowerLaw> {
    law: G,
    shadow: MachineShadow<G::Shadow>,
    spill: SpillRing<Seg<G>>,
    t_free: f64,
    density0: Option<f64>,
    watermark: f64,
    ingested: usize,
    energy: f64,
    frac_sum: f64,
    int_sum: f64,
    makespan: f64,
}

impl<G: GrowthLaw> NcStream<G> {
    /// A fresh stream under speed law `law`.
    #[must_use]
    pub fn new(law: G, config: StreamConfig) -> Self {
        Self {
            law,
            shadow: MachineShadow::new(law.into()),
            spill: config.ring(),
            t_free: 0.0,
            density0: None,
            watermark: f64::NEG_INFINITY,
            ingested: 0,
            energy: 0.0,
            frac_sum: 0.0,
            int_sum: 0.0,
            makespan: 0.0,
        }
    }

    /// Offer the next released job; its completion is emitted immediately
    /// (see the type docs for why that is sound under FIFO). Releases must
    /// be non-decreasing and densities uniform.
    pub fn offer<F: FnMut(NcCompletion)>(&mut self, job: Job, sink: &mut F) -> SimResult<JobId> {
        let id = self.ingested;
        job.validated(id)?;
        if job.release < self.watermark {
            return Err(SimError::InvalidInstance {
                reason: "streamed releases must be non-decreasing",
            });
        }
        self.watermark = job.release;
        match self.density0 {
            None => self.density0 = Some(job.density),
            // Same tolerance as Instance::is_uniform_density.
            Some(d0) => {
                if (job.density - d0).abs() > 1e-12 * d0.abs() {
                    return Err(SimError::NonUniformDensity);
                }
            }
        }

        let k_j = self.shadow.admit(job)?;
        // FIFO: job j starts once jobs 0..j are done and j is released.
        let start = self.t_free.max(job.release);
        let rho = job.density;
        let sv = self.law.serve_volume(k_j, rho, job.volume);
        if !sv.tau.is_finite() {
            return Err(SimError::Numeric { what: "run_nc_uniform: service time", value: sv.tau });
        }
        let interval = Segment::new(start, start + sv.tau, Some(id), SpeedLaw::Growth { u0: k_j, rho });
        let spill = &mut self.spill;
        let completion = self.law.complete(interval, &sv, |seg| spill.push(seg));
        self.energy += sv.step.energy;
        // Fractional flow: full volume waits from release to service start,
        // then drains along the growth curve.
        let frac = rho * job.volume * (start - job.release)
            + rho * (job.volume * sv.tau - sv.step.volume_integral);
        let int = job.weight() * (completion - job.release);
        self.frac_sum += frac;
        self.int_sum += int;
        self.t_free = completion;
        self.makespan = self.makespan.max(completion);
        self.ingested += 1;
        sink(NcCompletion {
            id,
            job,
            base_power: k_j,
            start,
            completion,
            frac_flow: frac,
            int_flow: int,
        });
        Ok(id)
    }

    /// Declare the stream exhausted: every offered job already completed
    /// (FIFO emits eagerly), so this validates and returns the tally.
    pub fn finish(&mut self) -> SimResult<StreamSummary> {
        let objective = Objective { energy: self.energy, frac_flow: self.frac_sum, int_flow: self.int_sum }
            .validated("run_nc_uniform: objective")?;
        Ok(StreamSummary { objective, completed: self.ingested, makespan: self.makespan })
    }

    /// Resident-memory counters. `spill_*` describe this stream's own ring;
    /// the arena/heap numbers come from the shadow C run, which is the only
    /// per-job state NC keeps.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            ingested: self.ingested,
            completed: self.ingested,
            spill_resident: self.spill.resident(),
            spill_peak_resident: self.spill.peak_resident(),
            spill_dropped: self.spill.dropped(),
            spill_total: self.spill.total_retired(),
            ..self.shadow.parts().0.stats()
        }
    }

    /// The spill ring of retired segments, for draining.
    pub fn spill_mut(&mut self) -> &mut SpillRing<Seg<G>> {
        &mut self.spill
    }
}

/// The checkpoints of the `s^α` stream, whose shadow is a [`CStream`].
impl NcStream {
    /// Capture the complete stream state — including the shadow's
    /// [`CStream`] and tie pair — as plain data. Same bitwise-resume
    /// contract as [`CStream::snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> NcStreamSnapshot {
        let (shadow, tie_release, tie_weight) = self.shadow.parts();
        NcStreamSnapshot {
            alpha: self.law.alpha(),
            shadow: shadow.snapshot(),
            spill: self.spill.snapshot(),
            t_free: self.t_free,
            density0: self.density0,
            tie_release,
            tie_weight,
            watermark: self.watermark,
            ingested: self.ingested,
            energy: self.energy,
            frac_sum: self.frac_sum,
            int_sum: self.int_sum,
            makespan: self.makespan,
        }
    }

    /// Rebuild a stream from a snapshot, validating its structure (the
    /// shadow stream and spill ring are validated by their own restores).
    pub fn from_snapshot(snap: NcStreamSnapshot) -> SimResult<Self> {
        let law = PowerLaw::new(snap.alpha)?;
        let shadow = CStream::from_snapshot(snap.shadow)?;
        if shadow.law.alpha() != snap.alpha {
            return Err(SimError::InvalidInstance {
                reason: "stream snapshot: shadow alpha disagrees with stream alpha",
            });
        }
        if shadow.ingested != snap.ingested {
            return Err(SimError::InvalidInstance {
                reason: "stream snapshot: shadow ingest count disagrees with stream",
            });
        }
        let spill = SpillRing::restore(snap.spill)?;
        Ok(Self {
            law,
            shadow: MachineShadow::from_parts(shadow, snap.tie_release, snap.tie_weight),
            spill,
            t_free: snap.t_free,
            density0: snap.density0,
            watermark: snap.watermark,
            ingested: snap.ingested,
            energy: snap.energy,
            frac_sum: snap.frac_sum,
            int_sum: snap.int_sum,
            makespan: snap.makespan,
        })
    }
}

/// Plain-data image of an [`NcStream`], produced by [`NcStream::snapshot`]
/// and consumed by [`NcStream::from_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NcStreamSnapshot {
    /// Power-law exponent α.
    pub alpha: f64,
    /// The shadow clairvoyant stream supplying `K_j`.
    pub shadow: CStreamSnapshot,
    /// This stream's own spill ring.
    pub spill: SpillSnapshot,
    /// Time the machine frees up.
    pub t_free: f64,
    /// Locked-in uniform density (None before the first offer).
    pub density0: Option<f64>,
    /// Release time of the shadow's current tie group.
    pub tie_release: f64,
    /// Weight of the shadow's earlier arrivals tied at `tie_release`.
    pub tie_weight: f64,
    /// Highest release offered so far.
    pub watermark: f64,
    /// Jobs offered (= completed; NC emits eagerly).
    pub ingested: usize,
    /// Energy accumulated.
    pub energy: f64,
    /// Fractional flow accumulated.
    pub frac_sum: f64,
    /// Integral flow accumulated.
    pub int_sum: f64,
    /// Completion time of the latest-finishing job.
    pub makespan: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::numeric::approx_eq;
    use ncss_sim::{Instance, ScheduleBuilder};

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    #[test]
    fn rejects_out_of_order_releases() {
        let mut s = CStream::new(pl(2.0), StreamConfig::batch());
        s.offer(Job::unit_density(1.0, 1.0), &mut |_| {}).unwrap();
        let err = s.offer(Job::unit_density(0.5, 1.0), &mut |_| {});
        assert!(matches!(err, Err(SimError::InvalidInstance { .. })));
        let mut nc = NcStream::new(pl(2.0), StreamConfig::batch());
        nc.offer(Job::unit_density(1.0, 1.0), &mut |_| {}).unwrap();
        assert!(matches!(
            nc.offer(Job::unit_density(0.5, 1.0), &mut |_| {}),
            Err(SimError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn rejects_invalid_jobs() {
        let mut s = CStream::new(pl(2.0), StreamConfig::batch());
        assert!(matches!(
            s.offer(Job::new(0.0, -1.0, 1.0), &mut |_| {}),
            Err(SimError::InvalidJob { index: 0, .. })
        ));
    }

    #[test]
    fn nc_stream_rejects_non_uniform() {
        let mut nc = NcStream::new(pl(2.0), StreamConfig::batch());
        nc.offer(Job::new(0.0, 1.0, 1.0), &mut |_| {}).unwrap();
        assert!(matches!(
            nc.offer(Job::new(0.5, 1.0, 2.0), &mut |_| {}),
            Err(SimError::NonUniformDensity)
        ));
    }

    #[test]
    fn completions_arrive_in_event_order() {
        // Two jobs, the second denser: it preempts and completes first.
        let mut s = CStream::new(pl(2.0), StreamConfig::batch());
        let mut order = Vec::new();
        s.offer(Job::new(0.0, 10.0, 1.0), &mut |c| order.push(c.id)).unwrap();
        s.offer(Job::new(0.1, 0.1, 100.0), &mut |c| order.push(c.id)).unwrap();
        s.finish(&mut |c| order.push(c.id)).unwrap();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn drained_spill_rebuilds_a_valid_schedule() {
        let law = pl(2.5);
        let jobs = vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.2, 2.0),
            Job::unit_density(1.5, 0.5),
        ];
        let mut s = CStream::new(law, StreamConfig::batch());
        for &j in &jobs {
            s.offer(j, &mut |_| {}).unwrap();
        }
        let summary = s.finish(&mut |_| {}).unwrap();
        let mut builder = ScheduleBuilder::new(law);
        for seg in s.spill_mut().drain() {
            builder.push(seg);
        }
        let schedule = builder.build().unwrap();
        let inst = Instance::new(jobs).unwrap();
        let ev = ncss_sim::evaluate(&schedule, &inst).unwrap();
        assert!(approx_eq(ev.objective.energy, summary.objective.energy, 1e-7));
        assert!(approx_eq(ev.objective.frac_flow, summary.objective.frac_flow, 1e-7));
    }

    #[test]
    fn memory_stays_flat_under_churn() {
        // 10k sequential jobs, never more than a handful active: the arena
        // must stay at its peak-active footprint, not grow with n.
        let law = pl(2.0);
        let mut s = CStream::new(law, StreamConfig::streaming(64));
        let mut completions = 0usize;
        for i in 0..10_000 {
            let release = i as f64 * 0.5;
            s.offer(Job::unit_density(release, 0.2), &mut |_| completions += 1).unwrap();
            let _ = s.spill_mut().drain().count();
        }
        s.finish(&mut |_| completions += 1).unwrap();
        let stats = s.stats();
        assert_eq!(completions, 10_000);
        assert_eq!(stats.spill_dropped, 0, "drained between offers: nothing may drop");
        assert!(stats.peak_active <= 4, "peak active {} for a trickle", stats.peak_active);
        assert_eq!(stats.arena_slots, stats.peak_active);
    }

    #[test]
    fn snapshot_resume_is_bitwise_identical() {
        // Kill a C stream after every prefix of offers; the resumed stream
        // must finish with bitwise-equal completions and objectives.
        let law = pl(2.5);
        let jobs = vec![
            Job::new(0.0, 1.0, 2.0),
            Job::new(0.2, 2.0, 1.0),
            Job::new(0.2, 0.5, 5.0),
            Job::new(1.7, 0.3, 1.0),
        ];
        let mut full = Vec::new();
        let mut s = CStream::new(law, StreamConfig::batch());
        for &j in &jobs {
            s.offer(j, &mut |c| full.push(c)).unwrap();
        }
        let full_summary = s.finish(&mut |c| full.push(c)).unwrap();

        for k in 0..=jobs.len() {
            let mut done = Vec::new();
            let mut s = CStream::new(law, StreamConfig::batch());
            for &j in &jobs[..k] {
                s.offer(j, &mut |c| done.push(c)).unwrap();
            }
            let snap = s.snapshot();
            drop(s); // the "crash"
            let mut r = CStream::from_snapshot(snap).unwrap();
            for &j in &jobs[k..] {
                r.offer(j, &mut |c| done.push(c)).unwrap();
            }
            let summary = r.finish(&mut |c| done.push(c)).unwrap();
            assert_eq!(summary.objective.energy.to_bits(), full_summary.objective.energy.to_bits());
            assert_eq!(
                summary.objective.frac_flow.to_bits(),
                full_summary.objective.frac_flow.to_bits()
            );
            assert_eq!(done.len(), full.len());
            for (a, b) in done.iter().zip(&full) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.completion.to_bits(), b.completion.to_bits());
                assert_eq!(a.frac_flow.to_bits(), b.frac_flow.to_bits());
            }
        }
    }

    /// Seeded mixed-density jobs in release order, about one in four tied
    /// with its predecessor's release.
    fn seeded_jobs(seed: u64, n: usize) -> Vec<Job> {
        let mut rng = ncss_rng::Pcg64::seed_from_u64(seed);
        let mut release = 0.0;
        (0..n)
            .map(|_| {
                if rng.below(4) != 0 {
                    release += rng.range_f64(0.0, 1.2);
                }
                Job::new(release, rng.range_f64(0.05, 2.0), rng.range_f64(0.5, 10.0))
            })
            .collect()
    }

    #[test]
    fn speed_at_reads_the_batch_schedule_bitwise() {
        // After each offer, read from a restored copy at every point from
        // that release up to the next one (or past the makespan after the
        // last): the read must be the batch schedule's speed_at to the bit.
        let mut most_crossed = 0;
        for seed in 0..16u64 {
            let law = pl([1.5, 2.0, 2.5, 3.0][seed as usize % 4]);
            let jobs = seeded_jobs(seed, 2 + seed as usize);
            let schedule = crate::run_c(&Instance::new(jobs.clone()).unwrap(), law).unwrap().schedule;
            let m = schedule.end_time();
            let mut points = vec![m, m + 1e-13, m + 1.0];
            for s in schedule.segments() {
                for x in [s.start, s.end, 0.5 * (s.start + s.end)] {
                    points.extend([x.next_down(), x, x.next_up()]);
                }
            }
            let mut base = CStream::new(law, StreamConfig::batch());
            let mut scratch = base.clone();
            for (k, &job) in jobs.iter().enumerate() {
                base.offer(job, &mut |_| {}).unwrap();
                let next = jobs.get(k + 1).map_or(f64::INFINITY, |j| j.release);
                for &t in points.iter().filter(|&&t| job.release <= t && t < next) {
                    scratch.clone_from(&base);
                    let read = scratch.speed_at(t, next).unwrap();
                    assert_eq!(
                        read.to_bits(),
                        schedule.speed_at(t).to_bits(),
                        "seed {seed}, {} jobs offered, t = {t:e}",
                        k + 1
                    );
                    let crossed =
                        schedule.segments().iter().filter(|s| s.start >= job.release && s.end <= t).count();
                    most_crossed = most_crossed.max(crossed);
                }
            }
        }
        assert!(most_crossed >= 3, "no read crossed several events: {most_crossed}");
    }

    #[test]
    fn nc_snapshot_resume_is_bitwise_identical() {
        let law = pl(3.0);
        let jobs = vec![
            Job::unit_density(0.0, 4.0),
            Job::unit_density(1.0, 1.0),
            Job::unit_density(1.0, 2.0),
            Job::unit_density(3.0, 0.7),
        ];
        let mut full = Vec::new();
        let mut s = NcStream::new(law, StreamConfig::batch());
        for &j in &jobs {
            s.offer(j, &mut |c| full.push(c)).unwrap();
        }
        let full_summary = s.finish().unwrap();

        for k in 0..=jobs.len() {
            let mut done = Vec::new();
            let mut s = NcStream::new(law, StreamConfig::batch());
            for &j in &jobs[..k] {
                s.offer(j, &mut |c| done.push(c)).unwrap();
            }
            let snap = s.snapshot();
            drop(s);
            let mut r = NcStream::from_snapshot(snap).unwrap();
            for &j in &jobs[k..] {
                r.offer(j, &mut |c| done.push(c)).unwrap();
            }
            let summary = r.finish().unwrap();
            assert_eq!(summary.objective.energy.to_bits(), full_summary.objective.energy.to_bits());
            assert_eq!(summary.objective.int_flow.to_bits(), full_summary.objective.int_flow.to_bits());
            for (a, b) in done[k..].iter().zip(&full[k..]) {
                assert_eq!(a.base_power.to_bits(), b.base_power.to_bits());
                assert_eq!(a.completion.to_bits(), b.completion.to_bits());
            }
        }
    }

    #[test]
    fn from_snapshot_rejects_inconsistent_state() {
        let mut s = CStream::new(pl(2.0), StreamConfig::batch());
        s.offer(Job::unit_density(0.0, 2.0), &mut |_| {}).unwrap();
        let good = s.snapshot();

        let mut bad = good.clone();
        bad.alpha = 0.5;
        assert!(CStream::from_snapshot(bad).is_err(), "bad alpha");

        let mut bad = good.clone();
        bad.heap.clear();
        assert!(CStream::from_snapshot(bad).is_err(), "heap/live mismatch");

        let mut bad = good.clone();
        bad.heap[0].slot = 99;
        assert!(CStream::from_snapshot(bad).is_err(), "slot out of range");

        let mut bad = good;
        bad.completed = 5;
        assert!(CStream::from_snapshot(bad).is_err(), "count mismatch");
    }

    #[test]
    fn shadow_base_power_matches_prefix_rerun() {
        // The NC shadow's K_j against the O(n²) prefix-rerun definition,
        // bit for bit.
        let jobs = vec![
            Job::unit_density(0.0, 4.0),
            Job::unit_density(1.0, 1.0),
            Job::unit_density(1.0, 2.0),
            Job::unit_density(3.0, 0.7),
        ];
        let law = pl(2.0);
        let mut nc = NcStream::new(law, StreamConfig::batch());
        let mut ks = Vec::new();
        for &j in &jobs {
            nc.offer(j, &mut |c| ks.push(c.base_power)).unwrap();
        }
        for (j, &k) in ks.iter().enumerate() {
            let reference = crate::shadow::base_power(&jobs[..j], jobs[j].release, law).unwrap();
            assert_eq!(k.to_bits(), reference.to_bits(), "K_{j}: stream {k} vs prefix {reference}");
        }
    }
}
