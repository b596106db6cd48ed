//! Checkpoint frames: full stream state serialized for crash/resume.
//!
//! A checkpoint is the byte image of a [`CStreamSnapshot`] or
//! [`NcStreamSnapshot`] — arena columns, heap entries, spill ring, and the
//! objective accumulators — taken at a quiescent point (between offers).
//! Restoring one and re-offering the remaining releases reproduces the
//! uninterrupted run *bitwise*: the streams' heap keys are totally ordered,
//! so pop order (and hence every arithmetic step) is independent of the
//! heap's internal layout, which is the only thing a restore may permute.
//!
//! Decoding here is structural (lengths, tags, bounds); *consistency* of the
//! decoded state is enforced by [`ncss_core::CStream::from_snapshot`] /
//! [`ncss_core::NcStream::from_snapshot`], which reject mismatched counts,
//! out-of-range slots, and bad exponents. Both layers report errors — a
//! tampered checkpoint must never panic or restore silently wrong.
//! Whether a checkpoint holds the *right* state is replay's question; it
//! compares each one with its own stream's through
//! `Checkpoint::canonical`, a form that does not depend on layout, walked
//! once per checkpoint into reused buffers (`CanonicalEq`).

use crate::format::{
    job_tag, law_parts, put_bool, put_f64, put_segment, put_u8, put_u64, put_usize,
    take_segment, Algo, Cursor,
};
use ncss_audit::IncrementalSnapshot;
use ncss_core::streaming::{CStreamSnapshot, HeapEntry, NcStreamSnapshot};
use ncss_sim::{ArenaSnapshot, JobId, SpillSnapshot};

/// A decoded checkpoint: the state of one streaming core.
#[derive(Debug, Clone, PartialEq)]
pub enum Checkpoint {
    /// Algorithm C state.
    C(CStreamSnapshot),
    /// Algorithm NC state (includes its shadow C state).
    Nc(NcStreamSnapshot),
}

impl Checkpoint {
    /// Which algorithm this checkpoint restores.
    #[must_use]
    pub fn algo(&self) -> Algo {
        match self {
            Checkpoint::C(_) => Algo::C,
            Checkpoint::Nc(_) => Algo::Nc,
        }
    }

    /// Jobs the checkpointed stream had ingested — the resume point: a
    /// resumed run re-offers releases from this index on.
    #[must_use]
    pub fn ingested(&self) -> usize {
        match self {
            Checkpoint::C(s) => s.ingested,
            Checkpoint::Nc(s) => s.ingested,
        }
    }

    /// Append the checkpoint body (algorithm tag + state) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Checkpoint::C(s) => {
                put_u8(out, Algo::C.tag());
                put_c(out, s);
            }
            Checkpoint::Nc(s) => {
                put_u8(out, Algo::Nc.tag());
                put_nc(out, s);
            }
        }
    }

    /// Decode a checkpoint body from `c`.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Result<Self, String> {
        match Algo::from_tag(c.u8("checkpoint.algo")?)? {
            Algo::C => Ok(Checkpoint::C(take_c(c)?)),
            Algo::Nc => Ok(Checkpoint::Nc(take_nc(c)?)),
        }
    }
}

/// Encoded size of one [`ncss_sim::Segment`] (2 f64 + u64 + tag + 3 f64).
const SEGMENT_BYTES: usize = 49;
/// Encoded size of one [`HeapEntry`] (2 f64 + 2 u64).
const HEAP_ENTRY_BYTES: usize = 32;
/// Encoded size of one arena row (6 f64 columns + u64 id).
const ARENA_ROW_BYTES: usize = 56;

fn put_arena(out: &mut Vec<u8>, a: &ArenaSnapshot) {
    put_usize(out, a.release.len());
    for col in [&a.release, &a.volume, &a.density, &a.remaining, &a.frac_flow, &a.acc_t] {
        for &v in col.iter() {
            put_f64(out, v);
        }
    }
    for &id in &a.id {
        put_usize(out, id);
    }
    put_usize(out, a.free.len());
    for &slot in &a.free {
        put_usize(out, slot);
    }
    put_usize(out, a.live);
    put_usize(out, a.peak_live);
}

fn take_arena(c: &mut Cursor<'_>) -> Result<ArenaSnapshot, String> {
    let n = c.count(ARENA_ROW_BYTES, "arena.slots")?;
    let mut cols: [Vec<f64>; 6] = Default::default();
    for col in &mut cols {
        col.reserve_exact(n);
        for _ in 0..n {
            col.push(c.f64("arena.column")?);
        }
    }
    let [release, volume, density, remaining, frac_flow, acc_t] = cols;
    let mut id = Vec::with_capacity(n);
    for _ in 0..n {
        id.push(c.usize("arena.id")?);
    }
    let n_free = c.count(8, "arena.free")?;
    let mut free = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        free.push(c.usize("arena.free_slot")?);
    }
    let live = c.usize("arena.live")?;
    let peak_live = c.usize("arena.peak_live")?;
    Ok(ArenaSnapshot {
        release,
        volume,
        density,
        remaining,
        frac_flow,
        acc_t,
        id,
        free,
        live,
        peak_live,
    })
}

fn put_spill(out: &mut Vec<u8>, s: &SpillSnapshot) {
    put_usize(out, s.segments.len());
    for seg in &s.segments {
        put_segment(out, seg);
    }
    put_usize(out, s.capacity);
    out.extend_from_slice(&s.dropped.to_le_bytes());
    out.extend_from_slice(&s.total.to_le_bytes());
    put_usize(out, s.peak);
}

fn take_spill(c: &mut Cursor<'_>) -> Result<SpillSnapshot, String> {
    let n = c.count(SEGMENT_BYTES, "spill.segments")?;
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        segments.push(take_segment(c, "spill.segment")?);
    }
    let capacity = c.usize("spill.capacity")?;
    let dropped = c.u64("spill.dropped")?;
    let total = c.u64("spill.total")?;
    let peak = c.usize("spill.peak")?;
    Ok(SpillSnapshot { segments, capacity, dropped, total, peak })
}

fn put_c(out: &mut Vec<u8>, s: &CStreamSnapshot) {
    put_f64(out, s.alpha);
    put_bool(out, s.keep_segments);
    put_arena(out, &s.arena);
    put_usize(out, s.heap.len());
    for e in &s.heap {
        put_f64(out, e.density);
        put_f64(out, e.release);
        put_usize(out, e.id);
        put_usize(out, e.slot);
    }
    put_spill(out, &s.spill);
    put_f64(out, s.t);
    put_f64(out, s.watermark);
    put_f64(out, s.total_w);
    put_u64(out, u64::from(s.events_since_sync));
    match &s.last_seg {
        Some(seg) => {
            put_bool(out, true);
            put_segment(out, seg);
        }
        None => put_bool(out, false),
    }
    put_usize(out, s.ingested);
    put_usize(out, s.completed);
    put_f64(out, s.energy);
    put_f64(out, s.frac_done);
    put_f64(out, s.int_done);
}

fn take_c(c: &mut Cursor<'_>) -> Result<CStreamSnapshot, String> {
    let alpha = c.f64("c.alpha")?;
    let keep_segments = c.bool("c.keep_segments")?;
    let arena = take_arena(c)?;
    let n_heap = c.count(HEAP_ENTRY_BYTES, "c.heap")?;
    let mut heap = Vec::with_capacity(n_heap);
    for _ in 0..n_heap {
        heap.push(HeapEntry {
            density: c.f64("c.heap.density")?,
            release: c.f64("c.heap.release")?,
            id: c.usize("c.heap.id")?,
            slot: c.usize("c.heap.slot")?,
        });
    }
    let spill = take_spill(c)?;
    let t = c.f64("c.t")?;
    let watermark = c.f64("c.watermark")?;
    let total_w = c.f64("c.total_w")?;
    let events_since_sync = u32::try_from(c.u64("c.events_since_sync")?)
        .map_err(|_| "c.events_since_sync: exceeds u32".to_string())?;
    let last_seg =
        if c.bool("c.has_last_seg")? { Some(take_segment(c, "c.last_seg")?) } else { None };
    let ingested = c.usize("c.ingested")?;
    let completed = c.usize("c.completed")?;
    let energy = c.f64("c.energy")?;
    let frac_done = c.f64("c.frac_done")?;
    let int_done = c.f64("c.int_done")?;
    Ok(CStreamSnapshot {
        alpha,
        keep_segments,
        arena,
        heap,
        spill,
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
    })
}

fn put_nc(out: &mut Vec<u8>, s: &NcStreamSnapshot) {
    put_f64(out, s.alpha);
    put_c(out, &s.shadow);
    put_spill(out, &s.spill);
    put_f64(out, s.t_free);
    match s.density0 {
        Some(d) => {
            put_bool(out, true);
            put_f64(out, d);
        }
        None => put_bool(out, false),
    }
    put_f64(out, s.tie_release);
    put_f64(out, s.tie_weight);
    put_f64(out, s.watermark);
    put_usize(out, s.ingested);
    put_f64(out, s.energy);
    put_f64(out, s.frac_sum);
    put_f64(out, s.int_sum);
    put_f64(out, s.makespan);
}

fn take_nc(c: &mut Cursor<'_>) -> Result<NcStreamSnapshot, String> {
    let alpha = c.f64("nc.alpha")?;
    let shadow = take_c(c)?;
    let spill = take_spill(c)?;
    let t_free = c.f64("nc.t_free")?;
    let density0 = if c.bool("nc.has_density0")? { Some(c.f64("nc.density0")?) } else { None };
    let tie_release = c.f64("nc.tie_release")?;
    let tie_weight = c.f64("nc.tie_weight")?;
    let watermark = c.f64("nc.watermark")?;
    let ingested = c.usize("nc.ingested")?;
    let energy = c.f64("nc.energy")?;
    let frac_sum = c.f64("nc.frac_sum")?;
    let int_sum = c.f64("nc.int_sum")?;
    let makespan = c.f64("nc.makespan")?;
    Ok(NcStreamSnapshot {
        alpha,
        shadow,
        spill,
        t_free,
        density0,
        tie_release,
        tie_weight,
        watermark,
        ingested,
        energy,
        frac_sum,
        int_sum,
        makespan,
    })
}

// ---------------------------------------------------------------------------
// Canonical form: what replay compares a recorded checkpoint by.
// ---------------------------------------------------------------------------

/// One value of a checkpoint's canonical form (see [`Checkpoint::canonical`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Field {
    /// The state the value belongs to: `c`, `nc` or `nc.shadow`.
    scope: &'static str,
    /// The field's name within that state.
    name: &'static str,
    /// The job an arena row or a heap entry belongs to.
    job: Option<JobId>,
    /// `f64::to_bits` of a float, or the integer itself.
    bits: u64,
    float: bool,
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.scope, self.name)?;
        if let Some(job) = self.job {
            write!(f, " of job {job}")?;
        }
        if self.float {
            write!(f, " = {:?}", f64::from_bits(self.bits))
        } else {
            write!(f, " = {}", self.bits)
        }
    }
}

impl Checkpoint {
    /// The checkpoint's canonical form: every value of the state, as bits,
    /// in an order that does not depend on memory layout. Live arena rows
    /// come keyed by job id, heap entries as a sorted set with the job id
    /// their slot holds, and every scalar follows, NC's shadow and tie
    /// state included. Two checkpoints of the same run state have equal
    /// forms however their arenas, free lists and heaps are laid out.
    ///
    /// Left out are the spill ring's resident segments and capacity: the
    /// recorder drains the ring after every offer, and the capacity is the
    /// recorder's setting, not the run's state. Retired arena slots are
    /// left out too; they hold no job.
    ///
    /// This is the labelled form, for naming a difference; [`CanonicalEq`]
    /// compares the same values, walked the same way, without the labels.
    pub(crate) fn canonical(&self) -> Vec<Field> {
        let mut out = Vec::new();
        self.walk(&mut Walk::default(), &mut out);
        out
    }

    /// Walk the canonical form into `out`, sorting in `walk`'s buffers.
    /// The one walk behind both forms.
    fn walk(&self, walk: &mut Walk, out: &mut impl Canonical) {
        match self {
            Checkpoint::C(s) => walk.c(out, "c", s),
            Checkpoint::Nc(s) => {
                let mut put = Canon { out: &mut *out, scope: "nc" };
                put.f("alpha", s.alpha);
                put.spill(&s.spill);
                put.f("t_free", s.t_free);
                put.u("has_density0", u64::from(s.density0.is_some()));
                put.f("density0", s.density0.unwrap_or(0.0));
                put.f("tie_release", s.tie_release);
                put.f("tie_weight", s.tie_weight);
                put.f("watermark", s.watermark);
                put.u("ingested", s.ingested as u64);
                put.f("energy", s.energy);
                put.f("frac_sum", s.frac_sum);
                put.f("int_sum", s.int_sum);
                put.f("makespan", s.makespan);
                walk.c(out, "nc.shadow", &s.shadow);
            }
        }
    }
}

/// Where a canonical walk puts each value.
pub(crate) trait Canonical {
    fn put(&mut self, field: Field);
}

/// The labelled form, which names a value.
impl Canonical for Vec<Field> {
    fn put(&mut self, field: Field) {
        self.push(field);
    }
}

/// The compared form: `(job, bits)` per value. Up to their first
/// difference two walks take the same path, since every count is a value
/// that precedes what it counts, so two of these forms are equal exactly
/// when the labelled forms are.
impl Canonical for Vec<(Option<JobId>, u64)> {
    fn put(&mut self, field: Field) {
        self.push((field.job, field.bits));
    }
}

/// Compares checkpoints by their canonical form (see
/// [`Checkpoint::canonical`]) in buffers it keeps across checkpoints, so
/// once they have grown a comparison allocates nothing: replay compares
/// the bits of every checkpoint this way and builds the labelled forms
/// only to name a difference.
#[derive(Debug, Default)]
pub(crate) struct CanonicalEq {
    walk: Walk,
    a: Vec<(Option<JobId>, u64)>,
    b: Vec<(Option<JobId>, u64)>,
}

impl CanonicalEq {
    /// Whether `a` and `b` are of one algorithm and have the same
    /// canonical form.
    pub(crate) fn same(&mut self, a: &Checkpoint, b: &Checkpoint) -> bool {
        self.a.clear();
        self.b.clear();
        a.walk(&mut self.walk, &mut self.a);
        b.walk(&mut self.walk, &mut self.b);
        a.algo() == b.algo() && self.a == self.b
    }
}

/// Appends the fields of one state to a canonical form.
struct Canon<'a, O> {
    out: &'a mut O,
    scope: &'static str,
}

impl<O: Canonical> Canon<'_, O> {
    fn push(&mut self, name: &'static str, job: Option<JobId>, bits: u64, float: bool) {
        self.out.put(Field { scope: self.scope, name, job, bits, float });
    }

    fn f(&mut self, name: &'static str, v: f64) {
        self.push(name, None, v.to_bits(), true);
    }

    fn u(&mut self, name: &'static str, v: u64) {
        self.push(name, None, v, false);
    }

    fn spill(&mut self, s: &SpillSnapshot) {
        self.u("spill.dropped", s.dropped);
        self.u("spill.total", s.total);
        self.u("spill.peak", s.peak as u64);
    }
}

/// The buffers a canonical walk sorts in: which arena slots are live, the
/// live slots in job-id order, and the heap entries as a set.
#[derive(Debug, Default)]
struct Walk {
    live: Vec<bool>,
    rows: Vec<usize>,
    heap: Vec<(JobId, u64, u64, u64)>,
}

impl Walk {
    fn c(&mut self, out: &mut impl Canonical, scope: &'static str, s: &CStreamSnapshot) {
        let mut put = Canon { out, scope };
        put.f("alpha", s.alpha);
        put.u("keep_segments", u64::from(s.keep_segments));
        put.spill(&s.spill);
        put.f("t", s.t);
        put.f("watermark", s.watermark);
        put.f("total_w", s.total_w);
        put.u("events_since_sync", u64::from(s.events_since_sync));
        put.u("has_last_seg", u64::from(s.last_seg.is_some()));
        if let Some(seg) = &s.last_seg {
            let (tag, a, b) = law_parts(seg.law);
            put.f("last_seg.start", seg.start);
            put.f("last_seg.end", seg.end);
            put.u("last_seg.job", job_tag(seg));
            put.u("last_seg.law", u64::from(tag));
            put.f("last_seg.a", a);
            put.f("last_seg.b", b);
            put.f("last_seg.scale", seg.scale);
        }
        put.u("ingested", s.ingested as u64);
        put.u("completed", s.completed as u64);
        put.f("energy", s.energy);
        put.f("frac_done", s.frac_done);
        put.f("int_done", s.int_done);

        // Live arena rows, keyed by job id.
        let a = &s.arena;
        let slots = [&a.release, &a.volume, &a.density, &a.remaining, &a.frac_flow, &a.acc_t]
            .iter()
            .map(|col| col.len())
            .fold(a.id.len(), usize::min);
        let live = &mut self.live;
        live.clear();
        live.resize(slots, true);
        for &slot in &a.free {
            if let Some(l) = live.get_mut(slot) {
                *l = false;
            }
        }
        let rows = &mut self.rows;
        rows.clear();
        rows.extend((0..slots).filter(|&slot| live[slot]));
        rows.sort_by_key(|&slot| a.id[slot]);
        put.u("arena.live", a.live as u64);
        put.u("arena.peak_live", a.peak_live as u64);
        put.u("arena.rows", rows.len() as u64);
        for &slot in rows.iter() {
            let job = Some(a.id[slot]);
            for (name, col) in [
                ("arena.release", &a.release),
                ("arena.volume", &a.volume),
                ("arena.density", &a.density),
                ("arena.remaining", &a.remaining),
                ("arena.frac_flow", &a.frac_flow),
                ("arena.acc_t", &a.acc_t),
            ] {
                put.push(name, job, col[slot].to_bits(), true);
            }
        }

        // Heap entries as a sorted set, each with the job its slot holds
        // (none for a retired or out-of-range slot).
        let holder = |slot: usize| match live.get(slot) {
            Some(true) => a.id[slot] as u64,
            _ => u64::MAX,
        };
        let heap = &mut self.heap;
        heap.clear();
        heap.extend(
            s.heap
                .iter()
                .map(|e| (e.id, e.density.to_bits(), e.release.to_bits(), holder(e.slot))),
        );
        heap.sort_unstable();
        put.u("heap.len", heap.len() as u64);
        for &(id, density, release, slot_job) in heap.iter() {
            put.push("heap.density", Some(id), density, true);
            put.push("heap.release", Some(id), release, true);
            put.push("heap.slot_job", Some(id), slot_job, false);
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental-auditor snapshot codec (the `kind::AUDIT` frame body).
// ---------------------------------------------------------------------------

/// Minimum encoded size of one active-job entry (id + 3 f64 + seg count);
/// its segment list adds `SEGMENT_BYTES` each, guarded separately.
const ACTIVE_MIN_BYTES: usize = 40;
/// Encoded size of one pending-segment entry (index + job + segment + late).
const PENDING_BYTES: usize = 8 + 8 + SEGMENT_BYTES + 1;

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn take_str(c: &mut Cursor<'_>, what: &str) -> Result<String, String> {
    let n = c.count(1, what)?;
    let bytes = c.bytes(n, what)?;
    std::str::from_utf8(bytes).map(str::to_string).map_err(|_| format!("{what}: invalid UTF-8"))
}

/// Append an [`IncrementalSnapshot`] body to `out` (every accumulator as
/// `f64::to_bits`, so restore-and-continue reproduces verdicts bitwise).
pub(crate) fn put_audit(out: &mut Vec<u8>, s: &IncrementalSnapshot) {
    put_f64(out, s.alpha);
    put_f64(out, s.rel_tol);
    put_f64(out, s.time_tol);
    put_u64(out, s.cross_check_stride);
    put_u64(out, s.released);
    put_u64(out, s.completed);
    put_u64(out, s.seg_count);
    put_f64(out, s.peak_speed);
    put_f64(out, s.horizon);
    put_f64(out, s.wf_prev_end);
    put_f64(out, s.wf_worst);
    put_str(out, &s.wf_detail);
    put_f64(out, s.rel_worst);
    put_str(out, &s.rel_detail);
    put_f64(out, s.vol_a);
    put_f64(out, s.vol_b);
    put_f64(out, s.vol_sel);
    put_str(out, &s.vol_detail);
    put_f64(out, s.comp_worst);
    put_str(out, &s.comp_detail);
    put_f64(out, s.energy);
    put_f64(out, s.frac_derived);
    put_f64(out, s.int_derived);
    put_f64(out, s.car_worst);
    put_str(out, &s.car_detail);
    put_f64(out, s.fdi_worst);
    put_str(out, &s.fdi_detail);
    put_f64(out, s.rep_frac);
    put_f64(out, s.rep_int);
    put_usize(out, s.active.len());
    for (id, release, volume, density, segs) in &s.active {
        put_u64(out, *id);
        put_f64(out, *release);
        put_f64(out, *volume);
        put_f64(out, *density);
        put_usize(out, segs.len());
        for seg in segs {
            put_segment(out, seg);
        }
    }
    put_usize(out, s.pending.len());
    for (index, job, seg, late) in &s.pending {
        put_u64(out, *index);
        put_u64(out, *job);
        put_segment(out, seg);
        put_bool(out, *late);
    }
}

/// Decode an [`IncrementalSnapshot`] body. Structural only — restoring it
/// through [`ncss_audit::IncrementalAudit::from_snapshot`] re-validates α.
pub(crate) fn take_audit(c: &mut Cursor<'_>) -> Result<IncrementalSnapshot, String> {
    let alpha = c.f64("audit.alpha")?;
    let rel_tol = c.f64("audit.rel_tol")?;
    let time_tol = c.f64("audit.time_tol")?;
    let cross_check_stride = c.u64("audit.cross_check_stride")?;
    let released = c.u64("audit.released")?;
    let completed = c.u64("audit.completed")?;
    let seg_count = c.u64("audit.seg_count")?;
    let peak_speed = c.f64("audit.peak_speed")?;
    let horizon = c.f64("audit.horizon")?;
    let wf_prev_end = c.f64("audit.wf_prev_end")?;
    let wf_worst = c.f64("audit.wf_worst")?;
    let wf_detail = take_str(c, "audit.wf_detail")?;
    let rel_worst = c.f64("audit.rel_worst")?;
    let rel_detail = take_str(c, "audit.rel_detail")?;
    let vol_a = c.f64("audit.vol_a")?;
    let vol_b = c.f64("audit.vol_b")?;
    let vol_sel = c.f64("audit.vol_sel")?;
    let vol_detail = take_str(c, "audit.vol_detail")?;
    let comp_worst = c.f64("audit.comp_worst")?;
    let comp_detail = take_str(c, "audit.comp_detail")?;
    let energy = c.f64("audit.energy")?;
    let frac_derived = c.f64("audit.frac_derived")?;
    let int_derived = c.f64("audit.int_derived")?;
    let car_worst = c.f64("audit.car_worst")?;
    let car_detail = take_str(c, "audit.car_detail")?;
    let fdi_worst = c.f64("audit.fdi_worst")?;
    let fdi_detail = take_str(c, "audit.fdi_detail")?;
    let rep_frac = c.f64("audit.rep_frac")?;
    let rep_int = c.f64("audit.rep_int")?;
    let n_active = c.count(ACTIVE_MIN_BYTES, "audit.active")?;
    let mut active = Vec::with_capacity(n_active);
    for _ in 0..n_active {
        let id = c.u64("audit.active.id")?;
        let release = c.f64("audit.active.release")?;
        let volume = c.f64("audit.active.volume")?;
        let density = c.f64("audit.active.density")?;
        let n_segs = c.count(SEGMENT_BYTES, "audit.active.segs")?;
        let mut segs = Vec::with_capacity(n_segs);
        for _ in 0..n_segs {
            segs.push(take_segment(c, "audit.active.seg")?);
        }
        active.push((id, release, volume, density, segs));
    }
    let n_pending = c.count(PENDING_BYTES, "audit.pending")?;
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        let index = c.u64("audit.pending.index")?;
        let job = c.u64("audit.pending.job")?;
        let seg = take_segment(c, "audit.pending.seg")?;
        let late = c.bool("audit.pending.late")?;
        pending.push((index, job, seg, late));
    }
    Ok(IncrementalSnapshot {
        alpha,
        rel_tol,
        time_tol,
        cross_check_stride,
        released,
        completed,
        seg_count,
        peak_speed,
        horizon,
        wf_prev_end,
        wf_worst,
        wf_detail,
        rel_worst,
        rel_detail,
        vol_a,
        vol_b,
        vol_sel,
        vol_detail,
        comp_worst,
        comp_detail,
        energy,
        frac_derived,
        int_derived,
        car_worst,
        car_detail,
        fdi_worst,
        fdi_detail,
        rep_frac,
        rep_int,
        active,
        pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_core::streaming::{CStream, NcStream, NcStreamSnapshot, StreamConfig};
    use ncss_sim::{Job, PowerLaw};

    fn populated_c() -> CStreamSnapshot {
        let law = PowerLaw::new(2.5).unwrap();
        let mut s = CStream::new(law, StreamConfig::streaming(4));
        let mut sink = |_c| {};
        for i in 0..6 {
            let t = f64::from(i) * 0.3;
            s.offer(Job::new(t, 1.0 + f64::from(i) * 0.1, 1.0 + f64::from(i % 3)), &mut sink)
                .unwrap();
        }
        s.snapshot()
    }

    #[test]
    fn c_checkpoint_round_trips_bitwise() {
        let snap = populated_c();
        let cp = Checkpoint::C(snap.clone());
        let mut bytes = Vec::new();
        cp.encode_into(&mut bytes);
        let mut cursor = Cursor::new(&bytes);
        let decoded = Checkpoint::decode(&mut cursor).unwrap();
        cursor.finish("checkpoint").unwrap();
        assert_eq!(decoded, cp);
        // And the decoded state must actually restore.
        match decoded {
            Checkpoint::C(s) => {
                CStream::from_snapshot(s).unwrap();
            }
            Checkpoint::Nc(_) => unreachable!(),
        }
        assert_eq!(cp.ingested(), snap.ingested);
    }

    fn populated_nc() -> NcStreamSnapshot {
        let law = PowerLaw::new(3.0).unwrap();
        let mut s = NcStream::new(law, StreamConfig::streaming(4));
        let mut sink = |_c| {};
        for i in 0..5 {
            let t = f64::from(i) * 0.7;
            s.offer(Job::new(t, 0.5 + f64::from(i) * 0.2, 2.0), &mut sink).unwrap();
        }
        s.snapshot()
    }

    #[test]
    fn nc_checkpoint_round_trips_bitwise() {
        let cp = Checkpoint::Nc(populated_nc());
        let mut bytes = Vec::new();
        cp.encode_into(&mut bytes);
        let mut cursor = Cursor::new(&bytes);
        let decoded = Checkpoint::decode(&mut cursor).unwrap();
        cursor.finish("checkpoint").unwrap();
        assert_eq!(decoded, cp);
        match decoded {
            Checkpoint::Nc(s) => {
                NcStream::from_snapshot(s).unwrap();
            }
            Checkpoint::C(_) => unreachable!(),
        }
    }

    #[test]
    fn truncated_checkpoint_is_a_named_error_at_every_cut() {
        let cp = Checkpoint::C(populated_c());
        let mut bytes = Vec::new();
        cp.encode_into(&mut bytes);
        // Cut the body at every prefix length: decode must error (or, for
        // prefixes that happen to parse, leave trailing state unread) —
        // never panic.
        for cut in 0..bytes.len() {
            let mut cursor = Cursor::new(&bytes[..cut]);
            let res = Checkpoint::decode(&mut cursor);
            assert!(
                res.is_err() || cursor.remaining() == 0,
                "cut at {cut}: decode accepted a truncated checkpoint"
            );
        }
    }

    /// `snap`'s state laid out differently: heap entries in another order,
    /// the first and last arena slots swapped, and another ring capacity.
    fn relaid(snap: &CStreamSnapshot) -> CStreamSnapshot {
        let mut moved = snap.clone();
        moved.heap.reverse();
        moved.spill.capacity += 1;
        let a = &mut moved.arena;
        let (i, j) = (0, a.id.len() - 1);
        for col in [
            &mut a.release,
            &mut a.volume,
            &mut a.density,
            &mut a.remaining,
            &mut a.frac_flow,
            &mut a.acc_t,
        ] {
            col.swap(i, j);
        }
        a.id.swap(i, j);
        let relabel = |s: usize| if s == i { j } else if s == j { i } else { s };
        for slot in &mut a.free {
            *slot = relabel(*slot);
        }
        for e in &mut moved.heap {
            e.slot = relabel(e.slot);
        }
        CStream::from_snapshot(moved.clone()).unwrap();
        moved
    }

    /// The clairvoyant state of a checkpoint: C's own, or NC's shadow.
    fn c_state(cp: &mut Checkpoint) -> &mut CStreamSnapshot {
        match cp {
            Checkpoint::C(s) => s,
            Checkpoint::Nc(s) => &mut s.shadow,
        }
    }

    #[test]
    fn canonical_form_ignores_layout_but_not_values() {
        let snap = populated_c();
        assert!(snap.heap.len() >= 2, "the fixture holds several live jobs");
        let base = Checkpoint::C(snap.clone()).canonical();
        assert_eq!(Checkpoint::C(relaid(&snap)).canonical(), base);

        let mut edited = snap;
        edited.heap[0].release = edited.heap[0].release.next_up();
        assert_ne!(Checkpoint::C(edited).canonical(), base);
    }

    /// Replay compares checkpoints by bits and builds labels only to name
    /// a difference, so the two comparisons must agree on every edit:
    /// every one-bit change of every field that still decodes (an ulp of a
    /// float, a counter, a job id, a slot, a tag, a spill segment), a live
    /// row relabelled to another job with its values kept, and the layout
    /// permutation, for the C fixture and the NC one.
    #[test]
    fn bits_equality_agrees_with_labelled_equality_on_every_single_field_edit() {
        let mut eq = CanonicalEq::default();
        for base in [Checkpoint::C(populated_c()), Checkpoint::Nc(populated_nc())] {
            let labelled = base.canonical();
            let mut same = |edited: &Checkpoint, what: &str| {
                let bits = eq.same(&base, edited);
                assert_eq!(
                    bits,
                    edited.canonical() == labelled,
                    "{:?} {what}: bits and labels disagree",
                    base.algo()
                );
                bits
            };
            assert!(same(&base.clone(), "no edit"));

            let mut bytes = Vec::new();
            base.encode_into(&mut bytes);
            let (mut decoded, mut differ) = (0, 0);
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                let mut cursor = Cursor::new(&bytes);
                if let Ok(edited) = Checkpoint::decode(&mut cursor) {
                    if cursor.remaining() == 0 {
                        decoded += 1;
                        differ += usize::from(!same(&edited, &format!("bit {bit} flipped")));
                    }
                }
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            assert!(decoded > bytes.len() * 4, "{:?}: most one-bit edits decode", base.algo());
            assert!(differ > decoded / 2, "{:?}: most one-bit edits are differences", base.algo());

            let mut relabelled = base.clone();
            let a = &mut c_state(&mut relabelled).arena;
            let slot = (0..a.id.len()).find(|s| !a.free.contains(s)).expect("a live row");
            a.id[slot] += 1000;
            assert!(!same(&relabelled, "live row relabelled"));

            let mut moved = base.clone();
            let c = c_state(&mut moved);
            *c = relaid(c);
            assert!(same(&moved, "layout permuted"));
        }
    }

    fn populated_audit_snapshot() -> IncrementalSnapshot {
        use ncss_audit::{AuditConfig, IncrementalAudit};
        use ncss_sim::{Segment, SpeedLaw};
        let law = PowerLaw::new(2.5).unwrap();
        let mut audit = IncrementalAudit::new(law, AuditConfig::default());
        audit.on_release(0, Job::new(0.0, 1.0, 2.0));
        audit.on_release(1, Job::new(0.3, 0.5, 1.0));
        let _ = audit.on_segment(Segment::new(0.0, 0.7, Some(0), SpeedLaw::Constant {
            speed: 1.5,
        }));
        let _ =
            audit.on_segment(Segment::new(0.7, 1.0, Some(7), SpeedLaw::Decay { w0: 2.0, rho: 1.0 }));
        audit.snapshot()
    }

    #[test]
    fn audit_snapshot_round_trips_bitwise() {
        use ncss_audit::IncrementalAudit;
        let snap = populated_audit_snapshot();
        let mut bytes = Vec::new();
        put_audit(&mut bytes, &snap);
        let mut cursor = Cursor::new(&bytes);
        let decoded = take_audit(&mut cursor).unwrap();
        cursor.finish("audit").unwrap();
        assert_eq!(decoded, snap);
        // The decoded state must actually restore into a live auditor.
        let restored = IncrementalAudit::from_snapshot(decoded).unwrap();
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn truncated_audit_snapshot_is_a_named_error_at_every_cut() {
        let snap = populated_audit_snapshot();
        let mut bytes = Vec::new();
        put_audit(&mut bytes, &snap);
        for cut in 0..bytes.len() {
            let mut cursor = Cursor::new(&bytes[..cut]);
            let res = take_audit(&mut cursor);
            assert!(
                res.is_err() || cursor.remaining() == 0,
                "cut at {cut}: decode accepted a truncated audit snapshot"
            );
        }
    }

    #[test]
    fn hostile_audit_count_does_not_allocate() {
        let snap = populated_audit_snapshot();
        let mut bytes = Vec::new();
        put_audit(&mut bytes, &snap);
        // The active-job count sits right after the fixed accumulators and
        // the five detail strings; find it by re-encoding with a poisoned
        // count instead of hunting for the offset: rewrite the last 8 bytes
        // of the prefix before `active` encoding. Simpler: flip the pending
        // count at the very end (fixed offset from the tail).
        let tail = bytes.len() - PENDING_BYTES * snap.pending.len() - 8;
        bytes[tail..tail + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = Cursor::new(&bytes);
        let err = take_audit(&mut cursor).unwrap_err();
        assert!(err.contains("audit.pending"), "unexpected message: {err}");
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        let cp = Checkpoint::C(populated_c());
        let mut bytes = Vec::new();
        cp.encode_into(&mut bytes);
        // Overwrite the arena slot count (right after algo tag + alpha +
        // keep_segments) with an absurd value; `Cursor::count` must refuse
        // it before reserving memory.
        let count_at = 1 + 8 + 1;
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = Cursor::new(&bytes);
        let err = Checkpoint::decode(&mut cursor).unwrap_err();
        assert!(err.contains("arena.slots"), "unexpected message: {err}");
    }
}
