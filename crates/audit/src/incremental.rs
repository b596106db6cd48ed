//! The audit engine: event-fed O(delta) checks.
//!
//! Every audit in this crate runs here. [`IncrementalAudit`] subscribes to
//! a run's event feed — releases, retired segments (from a stream's
//! `SpillRing`), completions — and maintains rolling accumulators so that
//!
//! * each **segment** costs O(1): the wellformed / release-before-service
//!   folds, the running closed-form energy sum (with the sampled
//!   quadrature cross-check tier, by global segment index), and the
//!   running measurement-resolution state (peak speed, horizon);
//! * each **completion** costs O(its segments): the job's per-segment
//!   volumes, prefix-sum completion inversion, and fractional-flow
//!   integral are derived from its retained segments, which are then
//!   dropped — resident state is O(active jobs), independent of stream
//!   length;
//! * [`IncrementalAudit::finalize`] emits the standard [`AuditReport`]:
//!   the named checks judged by scale-free residuals.
//!
//! [`IncrementalMultiAudit`] is the fleet engine: the same per-job
//! derivation over each job's merged cross-machine timeline, plus the
//! cross-machine checks. A *finished* run is audited by streaming it
//! through these engines post hoc — [`crate::ScheduleAudit`] and
//! [`crate::MultiAudit`] feed every release, then every segment in schedule
//! order (machine by machine for a fleet), then the reported completions
//! by job id — so a live audit and a post-hoc audit share every
//! derivation by construction.
//!
//! # Feeding contract
//!
//! Events must be fed in the stream's retirement order: for every offer,
//! **buffer** the completions the sink emits, then drain the spill ring and
//! feed each retired segment via [`IncrementalAudit::on_segment`], then
//! feed the buffered completions via [`IncrementalAudit::on_complete`].
//! [`IncrementalAudit::on_offer`] is that order, written once; every live
//! feed (the CLI's `stream --audit 1`, the audited soak bench) goes
//! through it. Both streaming cores retire every segment of a completing
//! job before (or at) the offer that emits its completion, so under this
//! contract a job's full segment history always precedes its completion
//! event. Feeding a completion before one of its segments shows up as lost
//! volume — exactly what it would mean.
//!
//! # Order dependence
//!
//! A live feed (segments and completions interleaved per offer) and the
//! post-hoc feed of the same run give the same check names and verdicts.
//! Their residuals can differ only through two deliberate choices, both
//! far below tolerance on honest runs (`tests/audit_property.rs` pins
//! them to the same order of magnitude):
//!
//! * **sum order** — `Σ frac/int` accumulate in completion order, which a
//!   stream need not emit in job-id order;
//! * **volume candidate selection** — the rolling argmax uses the
//!   measurement resolution known *at that completion* (it only grows);
//!   the recorded residual is re-normalised with the end-of-run value.
//!
//! Against **itself** the contract is bitwise: the full accumulator state
//! round-trips through [`IncrementalSnapshot`] (and the `crates/trace`
//! codec), so a killed-and-resumed run's final report equals the
//! uninterrupted run's report bit for bit (`tests/incremental_resume.rs`).

use std::collections::{BTreeMap, HashMap};

use crate::closed_form;
use crate::quad::integrate;
use crate::report::{AuditReport, Stopwatch};
use crate::schedule_audit::AuditConfig;
use ncss_sim::profile::{Phase, PhaseScope};
use ncss_sim::{Job, JobId, Objective, PowerLaw, Segment, SimResult, SpeedLaw};

/// An eagerly tripped check: emitted by [`IncrementalAudit::on_segment`] /
/// [`IncrementalAudit::on_complete`] the moment a rolling check leaves
/// tolerance, so an always-on service can fail fast instead of waiting for
/// [`IncrementalAudit::finalize`]. The same violation is also folded into
/// the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct Trip {
    /// Name of the tripped check (one of the report's check names).
    pub check: &'static str,
    /// The offending residual, judged against the check's tolerance.
    pub residual: f64,
    /// Human-readable description of the violation.
    pub detail: String,
}

/// Scale-free residual: relative for large magnitudes, absolute near zero.
fn residual(x: f64, reference: f64) -> f64 {
    (x - reference).abs() / (1.0 + reference.abs())
}

/// A NaN residual is an infinite one, so it can never hide below tolerance.
fn or_inf(r: f64) -> f64 {
    if r.is_nan() {
        f64::INFINITY
    } else {
        r
    }
}

/// Whether residual `r` leaves tolerance `tol` (non-finite always does).
fn out_of(tol: f64, r: f64) -> bool {
    !(r.is_finite() && r <= tol)
}

/// Whether index `i` falls on the quadrature cross-check tier.
fn sampled(stride: usize, i: usize) -> bool {
    stride > 0 && i % stride == 0
}

/// A running worst-violation fold: the largest residual seen so far and
/// the detail string describing it.
#[derive(Debug, Clone, PartialEq)]
struct Worst {
    value: f64,
    detail: String,
}

impl Worst {
    fn new(ok: &str) -> Self {
        Self { value: 0.0, detail: ok.to_string() }
    }

    /// Fold rule for plain maxima (`r > worst`, so ties keep the first).
    fn fold(&mut self, value: f64, detail: impl FnOnce() -> String) {
        if value > self.value {
            self.value = value;
            self.detail = detail();
        }
    }
}

/// The largest `(residual, "machine m: detail")` over per-machine folds,
/// first machine winning ties.
fn worst_machine<'a>(folds: impl Iterator<Item = &'a Worst>, ok: &str) -> (f64, String) {
    let mut worst = Worst::new(ok);
    for (m, w) in folds.enumerate() {
        worst.fold(w.value, || format!("machine {m}: {}", w.detail));
    }
    (worst.value, worst.detail)
}

/// The segments-wellformed fold over one machine's timeline: "finite,
/// positively oriented, monotone, non-overlapping", worst segment named.
/// (`Schedule::new` enforces this too; the audit re-derives it so a
/// constructor regression cannot hide.)
#[derive(Debug, Clone)]
struct Wellformed {
    prev_end: f64,
    worst: Worst,
}

impl Wellformed {
    fn new() -> Self {
        Self { prev_end: f64::NEG_INFINITY, worst: Worst::new("all segments ordered") }
    }

    fn fold(&mut self, i: u64, seg: &Segment) {
        let bad_times = !(seg.start.is_finite() && seg.end.is_finite() && seg.scale.is_finite());
        let inversion = seg.start - seg.end; // > 0 means reversed
        let overlap = if self.prev_end.is_finite() { self.prev_end - seg.start } else { 0.0 };
        let v = if bad_times { f64::INFINITY } else { inversion.max(overlap).max(0.0) };
        self.worst.fold(v, || format!("segment {i}: [{:.6}, {:.6}]", seg.start, seg.end));
        self.prev_end = self.prev_end.max(seg.end);
    }
}

/// Fold segment `index`'s service of job `j` (released at `release`) into
/// the release-before-service check.
fn fold_early(rel: &mut Worst, j: JobId, release: f64, seg: &Segment, index: u64) {
    let early = release - seg.start;
    rel.fold(early, || format!("job {j} served {early:.3e} before release (segment {index})"));
}

/// The faster endpoint speed of `seg`, for the measurement resolution.
/// Every speed law is monotone within its segment (constant, decaying, or
/// growing), so with a non-negative scale only the dominating endpoint can
/// raise a running max — evaluating just that one yields the identical max
/// bits at half the kernel evaluations. A negative scale (representable,
/// never emitted) reverses the ordering, so it falls back to both.
fn peak_speed(pl: PowerLaw, seg: &Segment) -> f64 {
    if seg.scale >= 0.0 {
        let t = match seg.law {
            SpeedLaw::Growth { .. } => seg.end,
            SpeedLaw::Idle | SpeedLaw::Constant { .. } | SpeedLaw::Decay { .. } => seg.start,
        };
        seg.speed_at(pl, t)
    } else {
        seg.speed_at(pl, seg.start).max(seg.speed_at(pl, seg.end))
    }
}

/// Segment `i`'s energy: its closed form, or — on the cross-check tier —
/// tanh-sinh quadrature of its pointwise power curve.
fn segment_energy(pl: PowerLaw, stride: usize, i: u64, seg: &Segment) -> f64 {
    if sampled(stride, i as usize) {
        integrate(|t| seg.power_at(pl, t), seg.start, seg.end)
    } else {
        closed_form::energy(pl, seg)
    }
}

/// Measurement resolution of timelines with peak speed `peak_speed` over
/// `horizon`: a job's service is representable only if its duration
/// `V_j / s` exceeds one ulp of the time axis. With mixed magnitudes
/// (1e±150 faults) a normal-size job served at speed ~1e74 finishes in
/// ~1e-74 — far below `ulp(horizon)` — so it legitimately leaves no
/// segment behind. Any volume below `peak_speed · horizon · ε` is therefore
/// unmeasurable by *any* observer of these schedules, auditor included.
fn resolution(peak_speed: f64, horizon: f64) -> f64 {
    peak_speed * horizon.abs() * f64::EPSILON * 64.0
}

/// The four outcome checks over *reported* numbers: objective-finite,
/// completion-after-release, frac-dominated-by-int, and
/// reported-sums-consistent. Both engines fold them per completion, and
/// [`crate::ScheduleAudit::audit_outcome`] folds them alone for runs that
/// produce no schedule.
#[derive(Debug, Clone)]
pub(crate) struct OutcomeFolds {
    car: Worst,
    fdi: Worst,
    rep_frac: f64,
    rep_int: f64,
}

impl OutcomeFolds {
    pub(crate) fn new() -> Self {
        Self {
            car: Worst::new("all completions after release"),
            fdi: Worst::new("fractional ≤ integral per job"),
            rep_frac: 0.0,
            rep_int: 0.0,
        }
    }

    /// Fold job `j`'s reported completion and flows; returns the first of
    /// completion-after-release and frac-dominated-by-int this job trips.
    pub(crate) fn fold(
        &mut self,
        tol: f64,
        j: JobId,
        release: f64,
        completion: f64,
        frac_flow: f64,
        int_flow: f64,
    ) -> Option<Trip> {
        let car = if completion.is_finite() { release - completion } else { f64::INFINITY };
        let car_detail = || format!("job {j}: completion {completion} vs release {release}");
        self.car.fold(car, car_detail);
        // ρ_j ∫ V_j(t) dt never exceeds w_j (c_j − r_j): the remaining
        // volume is at most V_j.
        let fdi = or_inf(residual(frac_flow.max(int_flow), int_flow));
        let fdi_detail = || format!("job {j}: frac {frac_flow} vs int {int_flow}");
        self.fdi.fold(fdi, fdi_detail);
        self.rep_frac += frac_flow;
        self.rep_int += int_flow;
        let trip = |check, residual, detail: String| Trip { check, residual, detail };
        out_of(tol, car.max(0.0))
            .then(|| trip("completion-after-release", car, car_detail()))
            .or_else(|| out_of(tol, fdi).then(|| trip("frac-dominated-by-int", fdi, fdi_detail())))
    }

    /// Record the four checks against the reported aggregate `objective`.
    /// `completed` of `released` jobs reported a completion; any mismatch
    /// fails completion-after-release.
    pub(crate) fn record(
        mut self,
        report: &mut AuditReport,
        clock: &mut Stopwatch,
        tol: f64,
        objective: &Objective,
        completed: u64,
        released: u64,
    ) {
        let mut worst = 0.0f64;
        let mut detail = String::from("all components finite");
        for (what, v) in [
            ("energy", objective.energy),
            ("frac_flow", objective.frac_flow),
            ("int_flow", objective.int_flow),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                worst = f64::INFINITY;
                detail = format!("{what} = {v}");
            }
        }
        report.record_timed("objective-finite", worst, tol, detail, clock.lap());

        if completed != released {
            self.car.value = f64::INFINITY;
            self.car.detail = format!("{completed} completions for {released} jobs");
        }
        report.record_timed(
            "completion-after-release",
            self.car.value.max(0.0),
            tol,
            self.car.detail,
            clock.lap(),
        );
        let fdi = self.fdi;
        report.record_timed("frac-dominated-by-int", fdi.value, tol, fdi.detail, clock.lap());
        // The aggregate objective must equal the per-job sums it claims to
        // summarise.
        let v = or_inf(
            residual(self.rep_frac, objective.frac_flow)
                .max(residual(self.rep_int, objective.int_flow)),
        );
        report.record_timed(
            "reported-sums-consistent",
            v,
            tol,
            format!("Σfrac {:.9e} / Σint {:.9e}", self.rep_frac, self.rep_int),
            clock.lap(),
        );
    }
}

/// How an engine names its volume check: the check, the subject of its
/// detail line, and its all-clear text.
#[derive(Debug, Clone, Copy)]
struct VolumeCheck {
    name: &'static str,
    delivered: &'static str,
    ok: &'static str,
}

const SINGLE_VOLUME: VolumeCheck = VolumeCheck {
    name: "volume-conservation",
    delivered: "delivered",
    ok: "all volumes conserved",
};

const FLEET_VOLUME: VolumeCheck = VolumeCheck {
    name: "cross-machine-volume",
    delivered: "machines delivered",
    ok: "all volumes conserved across machines",
};

/// The per-job re-derivation and every check folded at a completion,
/// shared by both engines: volume conservation, completion consistency,
/// the re-derived flow sums, and the outcome folds.
#[derive(Debug, Clone)]
struct JobChecks {
    vol: VolumeCheck,
    released: u64,
    completed: u64,
    /// Volume-conservation candidate: `|delivered − volume|` of the worst
    /// job, its denominator base `1 + volume`, and the value it won with.
    vol_a: f64,
    vol_b: f64,
    vol_sel: f64,
    vol_detail: String,
    comp: Worst,
    frac_derived: f64,
    int_derived: f64,
    outcome: OutcomeFolds,
    /// Scratch per-segment volumes, reused across completions. Dead
    /// between events; never snapshotted.
    scratch_dvs: Vec<f64>,
    /// Scratch inclusive prefix sums of `scratch_dvs`, same lifecycle.
    scratch_cum: Vec<f64>,
}

impl JobChecks {
    fn new(vol: VolumeCheck) -> Self {
        Self {
            vol,
            released: 0,
            completed: 0,
            vol_a: 0.0,
            vol_b: 1.0,
            vol_sel: 0.0,
            vol_detail: vol.ok.to_string(),
            comp: Worst::new("completions agree"),
            frac_derived: 0.0,
            int_derived: 0.0,
            outcome: OutcomeFolds::new(),
            scratch_dvs: Vec::new(),
            scratch_cum: Vec::new(),
        }
    }

    fn on_release(&mut self, id: JobId) {
        self.released = self.released.max(id as u64 + 1);
    }

    /// A completion for a job never released (or audited twice): nothing
    /// to derive against, which is itself a finding.
    fn never_released(&mut self, id: JobId) -> Option<Trip> {
        let detail = format!("job {id}: completed but never released");
        self.comp.fold(f64::INFINITY, || detail.clone());
        self.completed += 1;
        Some(Trip { check: "completion-consistency", residual: f64::INFINITY, detail })
    }

    /// Re-derive job `j`'s delivered volume, completion time, and flows
    /// from its serving segments `segs` (in start order), fold every
    /// per-job check against the reported `completion`, `frac_flow`, and
    /// `int_flow`, and return the first check this job trips.
    ///
    /// Per-segment volumes are closed forms, with every `stride`-th
    /// `(j + i)` re-measured by quadrature (the cross-check tier). The
    /// completion crossing is found by binary search over their prefix sums
    /// and inverted analytically inside the crossing segment. Fractional
    /// flow uses Fubini with the *derived* completion `c_j`:
    ///   `F_j = ρ_j [ V_j (c_j − r_j) − ∫_{r_j}^{c_j} (c_j − τ) s_j(τ) dτ ]`,
    /// whose weighted integral is analytic per segment, or quadrature for
    /// every `stride`-th job.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &mut self,
        pl: PowerLaw,
        config: &AuditConfig,
        resolution: f64,
        j: JobId,
        job: &Job,
        segs: &[Segment],
        (completion, frac_flow, int_flow): (f64, f64, f64),
    ) -> Option<Trip> {
        self.completed += 1;
        let stride = config.cross_check_stride;
        let mut dvs = std::mem::take(&mut self.scratch_dvs);
        dvs.clear();
        dvs.extend(segs.iter().enumerate().map(|(i, s)| {
            if sampled(stride, j + i) {
                integrate(|t| s.speed_at(pl, t), s.start, s.end)
            } else {
                closed_form::volume(pl, s)
            }
        }));
        let mut cum = std::mem::take(&mut self.scratch_cum);
        cum.clear();
        let mut running = 0.0;
        cum.extend(dvs.iter().map(|&v| {
            running += v;
            running
        }));
        // First segment whose cumulative volume reaches the job size. The
        // margin is scale-free so 1e-150-scale volumes (which can
        // underflow to 0) still register.
        let margin = 1e-9 * (1.0 + job.volume);
        let mut derived_c = f64::NAN;
        let i = cum.partition_point(|&p| !(p >= job.volume - margin));
        if let Some(s) = segs.get(i) {
            let before = if i == 0 { 0.0 } else { cum[i - 1] };
            let target = (job.volume - before).min(dvs[i]).max(0.0);
            derived_c = if dvs[i] - target <= margin {
                // The remaining volume at the segment boundary is
                // indistinguishable from zero, so the boundary is the
                // completion. Inverting would chase the vanishing-speed
                // tail and land early on curves that drain exactly at the
                // segment end (the closed-form optimum at α < 2 loses
                // ~1e-6 that way).
                s.end
            } else {
                closed_form::time_at_volume(pl, s, target)
            };
        }
        let delivered = cum.last().copied().unwrap_or(0.0);
        if derived_c.is_nan()
            && (delivered - job.volume).abs() <= config.rel_tol * (1.0 + job.volume + resolution)
        {
            // All measurable volume was delivered but no crossing was
            // detectable (zero-scale jobs whose serving segments are empty
            // or underflow): adopt the last serving instant — or the
            // reported value when the job never measurably ran at all.
            derived_c = segs.last().map_or(completion, |s| s.end).max(job.release);
        }
        self.scratch_dvs = dvs;
        self.scratch_cum = cum;

        let frac = if derived_c.is_finite() {
            // Segments at or past c_j contribute nothing.
            let cut = segs.partition_point(|s| s.start < derived_c);
            let mut served = 0.0;
            for s in &segs[..cut] {
                served += if sampled(stride, j) {
                    let weighted = |t: f64| (derived_c - t) * s.speed_at(pl, t);
                    integrate(weighted, s.start, s.end.min(derived_c))
                } else {
                    closed_form::weighted_volume(pl, s, derived_c)
                };
            }
            job.density * (job.volume * (derived_c - job.release) - served)
        } else {
            f64::NAN
        };
        self.frac_derived += frac;
        self.int_derived += (job.density * job.volume) * (derived_c - job.release);

        // --- volume-conservation candidate. Selection uses the resolution
        // known *now* (it only grows, so a job that passes now passes the
        // final judgement too); `record` re-normalises the winner with the
        // end-of-run resolution.
        let who = self.vol.delivered;
        let vol_detail = || format!("job {j}: {who} {delivered:.9e} of {:.9e}", job.volume);
        let a = (delivered - job.volume).abs();
        let b = 1.0 + job.volume;
        let sel = a / (b + resolution);
        if !(sel <= self.vol_sel) {
            self.vol_sel = sel;
            self.vol_a = a;
            self.vol_b = b;
            self.vol_detail = vol_detail();
        }
        let r = or_inf(residual(derived_c, completion));
        let comp_detail = || format!("job {j}: derived {derived_c:.9} vs reported {completion:.9}");
        self.comp.fold(r, comp_detail);

        let tol = config.rel_tol;
        let outcome = self.outcome.fold(tol, j, job.release, completion, frac_flow, int_flow);
        let trip = |check, residual, detail: String| Trip { check, residual, detail };
        out_of(tol, sel)
            .then(|| trip(self.vol.name, sel, vol_detail()))
            .or_else(|| out_of(tol, r).then(|| trip("completion-consistency", r, comp_detail())))
            .or(outcome)
    }

    /// Record every check from volume conservation on, in report order:
    /// the volume candidate re-normalised with the end-of-run `resolution`,
    /// completion consistency, the energy / fractional / integral flow
    /// re-derivations, and the outcome checks.
    fn record(
        self,
        report: &mut AuditReport,
        clock: &mut Stopwatch,
        tol: f64,
        resolution: f64,
        energy: f64,
        objective: &Objective,
    ) {
        let vol = self.vol_a / (self.vol_b + resolution);
        report.record_timed(self.vol.name, vol, tol, self.vol_detail, clock.lap());
        let comp = self.comp;
        report.record_timed("completion-consistency", comp.value, tol, comp.detail, clock.lap());
        report.record_timed(
            "energy-recomputed",
            residual(energy, objective.energy),
            tol,
            format!("re-derived {energy:.9e} vs reported {:.9e}", objective.energy),
            clock.lap(),
        );
        report.record_timed(
            "frac-flow-recomputed",
            residual(self.frac_derived, objective.frac_flow),
            tol,
            format!("re-derived {:.9e} vs reported {:.9e}", self.frac_derived, objective.frac_flow),
            clock.lap(),
        );
        report.record_timed(
            "int-flow-recomputed",
            residual(self.int_derived, objective.int_flow),
            tol,
            format!("derived {:.9e} vs reported {:.9e}", self.int_derived, objective.int_flow),
            clock.lap(),
        );
        self.outcome.record(report, clock, tol, objective, self.completed, self.released);
    }
}

/// A released-but-not-yet-audited job: its static fields plus every
/// serving segment retired so far. Dropped as soon as the completion
/// event is audited, so the map of these is O(active jobs).
#[derive(Debug, Clone, PartialEq)]
struct ActiveJob {
    job: Job,
    segs: Vec<Segment>,
}

/// A serving segment that named a job id the auditor has not seen released
/// (tampered feeds only — honest streams release before serving). Resolved
/// at [`IncrementalAudit::finalize`]: still-unknown ids fail
/// release-before-service with an infinite residual.
#[derive(Debug, Clone, PartialEq)]
struct PendingSegment {
    index: u64,
    job: u64,
    seg: Segment,
    /// True when the id *was* known but its job had already completed and
    /// been audited — service after completion, an infinite volume fault.
    late: bool,
}

/// Plain-data snapshot of an [`IncrementalAudit`]: every accumulator,
/// bit for bit. Round-trips through `ncss-trace`'s frame codec so that a
/// checkpointed stream can checkpoint its auditor alongside and a resumed
/// run reproduces the uninterrupted run's verdicts bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalSnapshot {
    /// Power-law exponent α (the law is rebuilt via [`PowerLaw::new`]).
    pub alpha: f64,
    /// [`AuditConfig::rel_tol`] of the running auditor.
    pub rel_tol: f64,
    /// [`AuditConfig::time_tol`] of the running auditor.
    pub time_tol: f64,
    /// [`AuditConfig::cross_check_stride`] of the running auditor.
    pub cross_check_stride: u64,
    /// Releases fed so far.
    pub released: u64,
    /// Completions audited so far.
    pub completed: u64,
    /// Segments fed so far (the global energy-sampling index).
    pub seg_count: u64,
    /// Running peak of the segment-endpoint speeds (resolution state).
    pub peak_speed: f64,
    /// End of the last fed segment (the running horizon), 0 before any.
    pub horizon: f64,
    /// `prev_end` of the wellformed fold (−∞ before the first segment).
    pub wf_prev_end: f64,
    /// Worst wellformed violation so far.
    pub wf_worst: f64,
    /// Detail of the worst wellformed violation.
    pub wf_detail: String,
    /// Worst early-service violation so far.
    pub rel_worst: f64,
    /// Detail of the worst early-service violation.
    pub rel_detail: String,
    /// Volume-conservation candidate: |delivered − volume| of the worst job.
    pub vol_a: f64,
    /// Volume-conservation candidate: its denominator base `1 + volume`.
    pub vol_b: f64,
    /// Selection value the candidate won with (resolution-at-completion).
    pub vol_sel: f64,
    /// Detail of the volume-conservation candidate.
    pub vol_detail: String,
    /// Worst completion-consistency residual so far.
    pub comp_worst: f64,
    /// Detail of the worst completion-consistency violation.
    pub comp_detail: String,
    /// Running energy sum (global segment order).
    pub energy: f64,
    /// Running re-derived fractional-flow sum (completion order).
    pub frac_derived: f64,
    /// Running re-derived integral-flow sum (completion order).
    pub int_derived: f64,
    /// Worst completion-after-release violation over reported completions.
    pub car_worst: f64,
    /// Detail of the worst completion-after-release violation.
    pub car_detail: String,
    /// Worst frac-dominated-by-int residual over reported per-job flows.
    pub fdi_worst: f64,
    /// Detail of the worst frac-dominated-by-int violation.
    pub fdi_detail: String,
    /// Running sum of reported per-job fractional flows.
    pub rep_frac: f64,
    /// Running sum of reported per-job integral flows.
    pub rep_int: f64,
    /// Active (released, not yet audited) jobs, ascending id:
    /// `(id, release, volume, density, serving segments so far)`.
    pub active: Vec<(u64, f64, f64, f64, Vec<Segment>)>,
    /// Unresolved segments naming unknown or completed jobs:
    /// `(global index, job id, segment, late?)`.
    pub pending: Vec<(u64, u64, Segment, bool)>,
}

/// Streaming single-machine auditor; see the module docs for the feeding
/// contract and the order dependence.
///
/// ```
/// use ncss_audit::{AuditConfig, IncrementalAudit};
/// use ncss_sim::{Job, PowerLaw, Segment, SpeedLaw};
///
/// let law = PowerLaw::new(2.0).unwrap();
/// let mut audit = IncrementalAudit::new(law, AuditConfig::default());
/// audit.on_release(0, Job::new(0.0, 1.0, 1.0));
/// audit.on_segment(Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 1.0 }));
/// // Job 0 delivered its unit volume at speed 1: completes at t = 1.
/// assert!(audit.on_complete(0, 1.0, 0.5, 1.0).is_none());
/// let report = audit.finalize(&ncss_sim::Objective { energy: 1.0, frac_flow: 0.5, int_flow: 1.0 });
/// assert!(report.passed(), "{report}");
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalAudit {
    config: AuditConfig,
    law: PowerLaw,
    seg_count: u64,
    peak_speed: f64,
    horizon: f64,
    wf: Wellformed,
    rel: Worst,
    energy: f64,
    jobs: JobChecks,
    /// Hash-indexed for O(1) per-event lookups; every consumer that
    /// observes more than one entry (`finalize`, `snapshot`) sorts by id
    /// first, so nothing depends on iteration order.
    active: HashMap<JobId, ActiveJob>,
    pending: Vec<PendingSegment>,
    /// Recycled per-job segment buffers (≤ peak active jobs entries):
    /// completions return their emptied vec here, releases take one back.
    seg_pool: Vec<Vec<Segment>>,
}

impl IncrementalAudit {
    /// A fresh auditor for a run under `law`. Only `rel_tol`, `time_tol`,
    /// and `cross_check_stride` of `config` are used.
    #[must_use]
    pub fn new(law: PowerLaw, config: AuditConfig) -> Self {
        Self {
            config,
            law,
            seg_count: 0,
            peak_speed: 0.0,
            horizon: 0.0,
            wf: Wellformed::new(),
            rel: Worst::new("no early service"),
            energy: 0.0,
            jobs: JobChecks::new(SINGLE_VOLUME),
            active: HashMap::new(),
            pending: Vec::new(),
            seg_pool: Vec::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> AuditConfig {
        self.config
    }

    /// Number of released jobs whose completion has not been audited yet —
    /// the auditor's resident state is proportional to this (plus their
    /// retained segments), never to the stream length.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Releases fed so far.
    #[must_use]
    pub fn released(&self) -> u64 {
        self.jobs.released
    }

    /// Completions audited so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.jobs.completed
    }

    /// Record job `id`'s release. Ids must be the stream's arrival indices
    /// (dense from 0); re-releasing a live id resets its segment history.
    pub fn on_release(&mut self, id: JobId, job: Job) {
        let _p = PhaseScope::enter(Phase::Audit);
        self.jobs.on_release(id);
        let mut segs = self.seg_pool.pop().unwrap_or_default();
        // A tampered feed can serve a job before releasing it: adopt the
        // pended segments (feed order preserved) and charge the early
        // service to the release fold.
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].late && self.pending[i].job == id as u64 {
                let p = self.pending.remove(i);
                fold_early(&mut self.rel, id, job.release, &p.seg, p.index);
                segs.push(p.seg);
            } else {
                i += 1;
            }
        }
        self.active.insert(id, ActiveJob { job, segs });
    }

    /// Feed one retired segment (in retirement order). O(1): folds the
    /// wellformed / early-service checks, the running energy sum, and the
    /// resolution state, and appends serving segments to their job's
    /// retained history. Returns a [`Trip`] if a time-axis check left
    /// tolerance at this segment.
    pub fn on_segment(&mut self, seg: Segment) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let i = self.seg_count;
        self.seg_count += 1;
        self.wf.fold(i, &seg);
        self.peak_speed = self.peak_speed.max(peak_speed(self.law, &seg));
        self.horizon = seg.end;
        self.energy += segment_energy(self.law, self.config.cross_check_stride, i, &seg);
        if let Some(j) = seg.job {
            if let Some(active) = self.active.get_mut(&j) {
                fold_early(&mut self.rel, j, active.job.release, &seg, i);
                active.segs.push(seg);
            } else {
                let late = (j as u64) < self.jobs.released;
                self.pending.push(PendingSegment { index: i, job: j as u64, seg, late });
            }
        }

        let time_tol = self.config.time_tol * (1.0 + self.horizon.abs());
        let (wf, rel) = (&self.wf.worst, &self.rel);
        let trip = |check, w: &Worst| Trip { check, residual: w.value, detail: w.detail.clone() };
        out_of(time_tol, wf.value)
            .then(|| trip("segments-wellformed", wf))
            .or_else(|| out_of(time_tol, rel.value).then(|| trip("release-before-service", rel)))
    }

    /// Audit job `id`'s completion: derive its delivered volume,
    /// completion time, and flow contributions from its retained segments
    /// (O(its segments)), fold every per-job check, and drop the job's
    /// state. `completion`, `frac_flow`, and `int_flow` are the *reported*
    /// per-job values from the stream's completion event. Returns the first
    /// per-job check that left tolerance, if any.
    pub fn on_complete(
        &mut self,
        id: JobId,
        completion: f64,
        frac_flow: f64,
        int_flow: f64,
    ) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let Some(ActiveJob { job, mut segs }) = self.active.remove(&id) else {
            return self.jobs.never_released(id);
        };
        let resolution = resolution(self.peak_speed, self.horizon);
        let reported = (completion, frac_flow, int_flow);
        let trip =
            self.jobs.complete(self.law, &self.config, resolution, id, &job, &segs, reported);
        // Hand the emptied segment vec back to the release pool.
        segs.clear();
        self.seg_pool.push(segs);
        trip
    }

    /// Feed one offer's retired `segments`, then the `completions` it
    /// emitted as `(id, completion, frac_flow, int_flow)` — the feeding
    /// contract's order, written once for every live feed. Every event is
    /// fed even after a trip, so the engine's state stays whole; returns
    /// the first trip.
    pub fn on_offer(
        &mut self,
        segments: impl IntoIterator<Item = Segment>,
        completions: impl IntoIterator<Item = (JobId, f64, f64, f64)>,
    ) -> Option<Trip> {
        let mut first = None;
        for seg in segments {
            let trip = self.on_segment(seg);
            first = first.or(trip);
        }
        for (id, completion, frac_flow, int_flow) in completions {
            let trip = self.on_complete(id, completion, frac_flow, int_flow);
            first = first.or(trip);
        }
        first
    }

    /// Close the run against the stream's reported aggregate `objective`
    /// and emit the final [`AuditReport`].
    ///
    /// Jobs still active (released, never completed) are derived here with
    /// no reported completion to compare against — they trip
    /// `completion-consistency`, and the completion count trips
    /// `completion-after-release`.
    #[must_use]
    pub fn finalize(mut self, objective: &Objective) -> AuditReport {
        let mut report = AuditReport::default();
        let mut clock = Stopwatch::new();
        let time_tol = self.config.time_tol * (1.0 + self.horizon.abs());

        // Jobs that never completed: audit them now (reported completion
        // NaN), ascending id, so lost jobs cannot hide from the per-job
        // checks.
        let mut leftover: Vec<JobId> = self.active.keys().copied().collect();
        leftover.sort_unstable();
        for id in leftover {
            let _ = self.on_complete(id, f64::NAN, f64::NAN, f64::NAN);
            self.jobs.completed -= 1; // they did not actually complete
        }

        // Pending segments that never resolved: unknown ids fail the
        // release scan outright; service *after* a job's audited
        // completion is unaccountable volume.
        for p in &self.pending {
            if p.late {
                self.jobs.vol_sel = f64::INFINITY;
                self.jobs.vol_a = f64::INFINITY;
                self.jobs.vol_b = 1.0;
                self.jobs.vol_detail =
                    format!("job {}: served after completion (segment {})", p.job, p.index);
            } else {
                self.rel.value = f64::INFINITY;
                self.rel.detail = format!("segment {} serves unknown job {}", p.index, p.job);
            }
        }

        let wf = self.wf.worst;
        report.record_timed("segments-wellformed", wf.value, time_tol, wf.detail, clock.lap());
        let rel = self.rel;
        report.record_timed("release-before-service", rel.value, time_tol, rel.detail, clock.lap());
        let resolution = resolution(self.peak_speed, self.horizon);
        let tol = self.config.rel_tol;
        self.jobs.record(&mut report, &mut clock, tol, resolution, self.energy, objective);
        report
    }

    /// Capture the full accumulator state, bit for bit.
    #[must_use]
    pub fn snapshot(&self) -> IncrementalSnapshot {
        let jobs = &self.jobs;
        let mut active: Vec<_> = self
            .active
            .iter()
            .map(|(&id, a)| (id as u64, a.job.release, a.job.volume, a.job.density, a.segs.clone()))
            .collect();
        active.sort_unstable_by_key(|r| r.0);
        IncrementalSnapshot {
            alpha: self.law.alpha(),
            rel_tol: self.config.rel_tol,
            time_tol: self.config.time_tol,
            cross_check_stride: self.config.cross_check_stride as u64,
            released: jobs.released,
            completed: jobs.completed,
            seg_count: self.seg_count,
            peak_speed: self.peak_speed,
            horizon: self.horizon,
            wf_prev_end: self.wf.prev_end,
            wf_worst: self.wf.worst.value,
            wf_detail: self.wf.worst.detail.clone(),
            rel_worst: self.rel.value,
            rel_detail: self.rel.detail.clone(),
            vol_a: jobs.vol_a,
            vol_b: jobs.vol_b,
            vol_sel: jobs.vol_sel,
            vol_detail: jobs.vol_detail.clone(),
            comp_worst: jobs.comp.value,
            comp_detail: jobs.comp.detail.clone(),
            energy: self.energy,
            frac_derived: jobs.frac_derived,
            int_derived: jobs.int_derived,
            car_worst: jobs.outcome.car.value,
            car_detail: jobs.outcome.car.detail.clone(),
            fdi_worst: jobs.outcome.fdi.value,
            fdi_detail: jobs.outcome.fdi.detail.clone(),
            rep_frac: jobs.outcome.rep_frac,
            rep_int: jobs.outcome.rep_int,
            active,
            pending: self.pending.iter().map(|p| (p.index, p.job, p.seg, p.late)).collect(),
        }
    }

    /// Rebuild an auditor from a snapshot. Fails only if the snapshot's α
    /// does not name a valid power law.
    pub fn from_snapshot(snap: IncrementalSnapshot) -> SimResult<Self> {
        let law = PowerLaw::new(snap.alpha)?;
        let config = AuditConfig {
            rel_tol: snap.rel_tol,
            time_tol: snap.time_tol,
            cross_check_stride: snap.cross_check_stride as usize,
            ..AuditConfig::default()
        };
        let mut jobs = JobChecks::new(SINGLE_VOLUME);
        jobs.released = snap.released;
        jobs.completed = snap.completed;
        jobs.vol_a = snap.vol_a;
        jobs.vol_b = snap.vol_b;
        jobs.vol_sel = snap.vol_sel;
        jobs.vol_detail = snap.vol_detail;
        jobs.comp = Worst { value: snap.comp_worst, detail: snap.comp_detail };
        jobs.frac_derived = snap.frac_derived;
        jobs.int_derived = snap.int_derived;
        jobs.outcome = OutcomeFolds {
            car: Worst { value: snap.car_worst, detail: snap.car_detail },
            fdi: Worst { value: snap.fdi_worst, detail: snap.fdi_detail },
            rep_frac: snap.rep_frac,
            rep_int: snap.rep_int,
        };
        Ok(Self {
            config,
            law,
            seg_count: snap.seg_count,
            peak_speed: snap.peak_speed,
            horizon: snap.horizon,
            wf: Wellformed {
                prev_end: snap.wf_prev_end,
                worst: Worst { value: snap.wf_worst, detail: snap.wf_detail },
            },
            rel: Worst { value: snap.rel_worst, detail: snap.rel_detail },
            energy: snap.energy,
            jobs,
            active: snap
                .active
                .into_iter()
                .map(|(id, release, volume, density, segs)| {
                    (id as JobId, ActiveJob { job: Job::new(release, volume, density), segs })
                })
                .collect(),
            pending: snap
                .pending
                .into_iter()
                .map(|(index, job, seg, late)| PendingSegment { index, job, seg, late })
                .collect(),
            seg_pool: Vec::new(),
        })
    }
}

/// Per-machine fold state of the fleet engine.
#[derive(Debug, Clone)]
struct MachineState {
    seg_count: u64,
    last_end: f64,
    wf: Wellformed,
    rel: Worst,
    energy: f64,
    /// Segments naming a job not (yet) released: `(index, job, segment)`.
    pending: Vec<(u64, u64, Segment)>,
}

/// A fleet job's cross-machine state while active: static fields plus its
/// serving segments tagged `(machine, arrival index)`.
#[derive(Debug, Clone)]
struct MultiActiveJob {
    job: Job,
    segs: Vec<(usize, u64, Segment)>,
}

/// Streaming cross-machine auditor, the engine behind
/// [`crate::MultiAudit`]. Feed per-machine retired segments via
/// [`IncrementalMultiAudit::on_segment`] and fleet completions via
/// [`IncrementalMultiAudit::on_complete`]; resident state is O(active
/// jobs' segments + machines).
///
/// The energy cross-check tier samples by per-machine segment index, so
/// a fleet's energy residual does not depend on how the machines'
/// feeds interleave.
#[derive(Debug, Clone)]
pub struct IncrementalMultiAudit {
    config: AuditConfig,
    laws: Vec<PowerLaw>,
    machines: Vec<MachineState>,
    peak_speed: f64,
    nds: Worst,
    jobs: JobChecks,
    active: BTreeMap<JobId, MultiActiveJob>,
    /// Scratch merged timeline of the completing job, reused across
    /// completions.
    merged: Vec<Segment>,
}

impl IncrementalMultiAudit {
    /// A fresh fleet auditor: one power law per machine (the fleet is
    /// fixed for the run).
    #[must_use]
    pub fn new(laws: Vec<PowerLaw>, config: AuditConfig) -> Self {
        let machines = laws
            .iter()
            .map(|_| MachineState {
                seg_count: 0,
                last_end: 0.0,
                wf: Wellformed::new(),
                rel: Worst::new("no early service"),
                energy: 0.0,
                pending: Vec::new(),
            })
            .collect();
        Self {
            config,
            laws,
            machines,
            peak_speed: 0.0,
            nds: Worst::new("no cross-machine overlap"),
            jobs: JobChecks::new(FLEET_VOLUME),
            active: BTreeMap::new(),
            merged: Vec::new(),
        }
    }

    /// The fleet's reference law: machine 0's, or — for an empty fleet,
    /// which has no law to read — the cube law, which integrates the empty
    /// segment set to zero like any other.
    fn law(&self) -> PowerLaw {
        self.laws.first().copied().unwrap_or_else(PowerLaw::cube)
    }

    fn horizon(&self) -> f64 {
        self.machines.iter().map(|m| m.last_end.abs()).fold(0.0f64, f64::max)
    }

    /// Jobs released but not yet audited.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Record job `id`'s release to the fleet.
    pub fn on_release(&mut self, id: JobId, job: Job) {
        let _p = PhaseScope::enter(Phase::Audit);
        self.jobs.on_release(id);
        let mut segs = Vec::new();
        for (m, ms) in self.machines.iter_mut().enumerate() {
            let mut i = 0;
            while i < ms.pending.len() {
                if ms.pending[i].1 == id as u64 {
                    let (idx, _, seg) = ms.pending.remove(i);
                    fold_early(&mut ms.rel, id, job.release, &seg, idx);
                    segs.push((m, idx, seg));
                } else {
                    i += 1;
                }
            }
        }
        self.active.insert(id, MultiActiveJob { job, segs });
    }

    /// Feed machine `m`'s next retired segment (machine-chronological
    /// order per machine; machines may interleave freely).
    ///
    /// # Panics
    /// Panics if `m` is outside the fleet declared at construction.
    pub fn on_segment(&mut self, m: usize, seg: Segment) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let pl = self.laws[m];
        let ms = &mut self.machines[m];
        let i = ms.seg_count;
        ms.seg_count += 1;
        ms.wf.fold(i, &seg);
        ms.last_end = seg.end;
        ms.energy += segment_energy(pl, self.config.cross_check_stride, i, &seg);
        self.peak_speed = self.peak_speed.max(peak_speed(pl, &seg));
        if let Some(j) = seg.job {
            if let Some(active) = self.active.get_mut(&j) {
                fold_early(&mut ms.rel, j, active.job.release, &seg, i);
                active.segs.push((m, i, seg));
            } else {
                ms.pending.push((i, j as u64, seg));
            }
        }

        let time_tol = self.config.time_tol * (1.0 + self.horizon());
        let wf = &self.machines[m].wf.worst;
        out_of(time_tol, wf.value).then(|| Trip {
            check: "segments-wellformed",
            residual: wf.value,
            detail: format!("machine {m}: {}", wf.detail),
        })
    }

    /// Audit job `id`'s fleet completion: merge its cross-machine serving
    /// intervals (by start, then machine, then arrival), run the O(k²)
    /// no-double-service scan, derive volume / completion / flows over the
    /// merged timeline, fold every check, and drop the job's state.
    pub fn on_complete(
        &mut self,
        id: JobId,
        completion: f64,
        frac_flow: f64,
        int_flow: f64,
    ) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let Some(MultiActiveJob { job, mut segs }) = self.active.remove(&id) else {
            return self.jobs.never_released(id);
        };
        let pl = self.law();
        let resolution = resolution(self.peak_speed, self.horizon());
        segs.sort_by(|(m_a, i_a, a), (m_b, i_b, b)| {
            a.start.total_cmp(&b.start).then(m_a.cmp(m_b)).then(i_a.cmp(i_b))
        });

        // --- no-double-service: a job's serving intervals on *different*
        // machines must not overlap in wall-clock time (same-machine
        // overlap is segments-wellformed's). The residual is the worst
        // overlap duration, so a clean run audits at exactly zero.
        let mut worst = f64::NEG_INFINITY;
        let mut detail = String::new();
        for (i, (m_a, _, a)) in segs.iter().enumerate() {
            for (m_b, _, b) in &segs[i + 1..] {
                if m_a == m_b {
                    continue;
                }
                let lo = a.start.max(b.start);
                let hi = a.end.min(b.end);
                let overlap = hi - lo;
                if overlap > worst {
                    worst = overlap;
                    detail = format!("machines {m_a}/{m_b} both serve [{lo:.6}, {hi:.6}]");
                }
            }
        }
        self.nds.fold(worst, || format!("job {id}: {detail}"));

        self.merged.clear();
        self.merged.extend(segs.iter().map(|&(_, _, s)| s));
        let reported = (completion, frac_flow, int_flow);
        let trip =
            self.jobs.complete(pl, &self.config, resolution, id, &job, &self.merged, reported);

        let time_tol = self.config.time_tol * (1.0 + self.horizon());
        let nds = &self.nds;
        out_of(time_tol, nds.value)
            .then(|| Trip {
                check: "no-double-service",
                residual: nds.value,
                detail: nds.detail.clone(),
            })
            .or(trip)
    }

    /// Close the run and emit the final report: power-law-consistent, the
    /// per-machine segment checks (worst machine named), the cross-machine
    /// checks, and the shared per-job, objective, and outcome checks.
    #[must_use]
    pub fn finalize(mut self, objective: &Objective) -> AuditReport {
        let mut report = AuditReport::default();
        let mut clock = Stopwatch::new();
        let tol = self.config.rel_tol;
        let pl = self.law();
        let time_tol = self.config.time_tol * (1.0 + self.horizon());

        let leftover: Vec<JobId> = self.active.keys().copied().collect();
        for id in leftover {
            let _ = self.on_complete(id, f64::NAN, f64::NAN, f64::NAN);
            self.jobs.completed -= 1;
        }
        for ms in &mut self.machines {
            if let Some(&(idx, j, _)) = ms.pending.first() {
                ms.rel.value = f64::INFINITY;
                ms.rel.detail = format!("segment {idx} serves unknown job {j}");
            }
        }

        // --- power-law-consistent: one fleet, one energy model.
        let mut worst = 0.0f64;
        let mut detail = String::from("all machines share one power law");
        for (m, law) in self.laws.iter().enumerate() {
            let d = (law.alpha() - pl.alpha()).abs();
            if !(d <= worst) {
                worst = or_inf(d);
                detail =
                    format!("machine {m}: α = {} vs machine 0: α = {}", law.alpha(), pl.alpha());
            }
        }
        report.record_timed("power-law-consistent", worst, tol, detail, clock.lap());

        let wf = self.machines.iter().map(|m| &m.wf.worst);
        let (worst, detail) = worst_machine(wf, "all machine timelines ordered");
        report.record_timed("segments-wellformed", worst, time_tol, detail, clock.lap());
        let rel = self.machines.iter().map(|m| &m.rel);
        let (worst, detail) = worst_machine(rel, "no early service");
        report.record_timed("release-before-service", worst, time_tol, detail, clock.lap());
        let resolution = resolution(self.peak_speed, self.horizon());
        let energy: f64 = self.machines.iter().map(|m| m.energy).sum();
        let nds = self.nds;
        report.record_timed("no-double-service", nds.value, time_tol, nds.detail, clock.lap());
        self.jobs.record(&mut report, &mut clock, tol, resolution, energy, objective);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::{Instance, SpeedLaw};

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn constant_run() -> (Instance, Vec<Segment>, ncss_sim::PerJob, Objective) {
        let inst =
            Instance::new(vec![Job::new(0.0, 2.0, 3.0), Job::new(0.5, 1.0, 1.0)]).unwrap();
        let segs = vec![
            Segment::new(0.0, 2.0, Some(0), SpeedLaw::Constant { speed: 1.0 }),
            Segment::new(2.0, 3.0, Some(1), SpeedLaw::Constant { speed: 1.0 }),
        ];
        let sched = ncss_sim::Schedule::new(pl(2.0), segs.clone()).unwrap();
        let ev = ncss_sim::evaluate(&sched, &inst).unwrap();
        (inst, segs, ev.per_job, ev.objective)
    }

    /// Feed a finished run live-style: releases, then segments, then
    /// completions in job order.
    fn feed(
        audit: &mut IncrementalAudit,
        inst: &Instance,
        segs: &[Segment],
        per_job: &ncss_sim::PerJob,
    ) -> Option<Trip> {
        let mut first = None;
        for (id, job) in inst.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        for seg in segs {
            first = first.or(audit.on_segment(*seg));
        }
        for j in 0..inst.len() {
            let (c, f, i) = (per_job.completion[j], per_job.frac_flow[j], per_job.int_flow[j]);
            first = first.or(audit.on_complete(j, c, f, i));
        }
        first
    }

    #[test]
    fn honest_run_passes_tightly_without_trips() {
        let (inst, segs, per_job, objective) = constant_run();
        let mut audit = IncrementalAudit::new(pl(2.0), AuditConfig::default());
        assert!(feed(&mut audit, &inst, &segs, &per_job).is_none());
        let report = audit.finalize(&objective);
        assert!(report.passed(), "{report}");
        assert!(report.max_residual() < 1e-7, "{report}");
    }

    #[test]
    fn tampered_energy_trips_energy_recomputed() {
        let (inst, segs, per_job, mut objective) = constant_run();
        objective.energy *= 1.5;
        let mut audit = IncrementalAudit::new(pl(2.0), AuditConfig::default());
        let _ = feed(&mut audit, &inst, &segs, &per_job);
        let report = audit.finalize(&objective);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "energy-recomputed"), "{report}");
    }

    #[test]
    fn eager_verdict_fires_at_the_offending_completion() {
        let (inst, _segs, per_job, _objective) = constant_run();
        let mut audit = IncrementalAudit::new(pl(2.0), AuditConfig::default());
        for (id, job) in inst.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        // Job 0's serving segment never arrives: its completion must trip
        // volume-conservation immediately.
        let trip = audit
            .on_complete(0, per_job.completion[0], per_job.frac_flow[0], per_job.int_flow[0])
            .expect("lost volume must trip eagerly");
        assert_eq!(trip.check, "volume-conservation");
        assert!(trip.residual > 1e-3, "{trip:?}");
    }

    #[test]
    fn snapshot_round_trip_is_bitwise() {
        let (inst, segs, per_job, objective) = constant_run();
        let mut audit = IncrementalAudit::new(pl(2.0), AuditConfig::default());
        for (id, job) in inst.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        let _ = audit.on_segment(segs[0]);
        let snap = audit.snapshot();
        let restored = IncrementalAudit::from_snapshot(snap.clone()).unwrap();
        assert_eq!(restored.snapshot(), snap);

        // Continue both; final reports must be bitwise identical.
        let mut a = audit;
        let mut b = restored;
        for side in [&mut a, &mut b] {
            let _ = side.on_segment(segs[1]);
            for j in 0..inst.len() {
                let (c, f, i) = (per_job.completion[j], per_job.frac_flow[j], per_job.int_flow[j]);
                let _ = side.on_complete(j, c, f, i);
            }
        }
        let ra = a.finalize(&objective);
        let rb = b.finalize(&objective);
        for (x, y) in ra.checks.iter().zip(&rb.checks) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.passed, y.passed);
            assert_eq!(x.residual.to_bits(), y.residual.to_bits());
            assert_eq!(x.detail, y.detail);
        }
    }

    #[test]
    fn multi_duplicated_timeline_trips_cross_machine_checks() {
        let inst =
            Instance::new(vec![Job::new(0.0, 2.0, 1.0), Job::new(0.0, 1.0, 1.0)]).unwrap();
        let law = pl(2.0);
        let m0 = vec![Segment::new(0.0, 2.0, Some(0), SpeedLaw::Constant { speed: 1.0 })];
        let m1 = vec![Segment::new(0.0, 1.0, Some(1), SpeedLaw::Constant { speed: 1.0 })];
        let per_job = ncss_sim::PerJob {
            completion: vec![2.0, 1.0],
            frac_flow: vec![2.0, 0.5],
            int_flow: vec![4.0, 1.0],
        };
        let objective = Objective { energy: 3.0, frac_flow: 2.5, int_flow: 5.0 };
        let run = |timelines: [&[Segment]; 2]| {
            let mut audit = IncrementalMultiAudit::new(vec![law, law], AuditConfig::default());
            for (id, job) in inst.jobs().iter().enumerate() {
                audit.on_release(id, *job);
            }
            for (m, segs) in timelines.iter().enumerate() {
                for s in *segs {
                    let _ = audit.on_segment(m, *s);
                }
            }
            let mut tripped = None;
            for j in 0..2 {
                let (c, f, i) = (per_job.completion[j], per_job.frac_flow[j], per_job.int_flow[j]);
                tripped = tripped.or(audit.on_complete(j, c, f, i));
            }
            (tripped, audit.finalize(&objective))
        };

        let (tripped, honest) = run([&m0, &m1]);
        assert!(tripped.is_none(), "{tripped:?}");
        assert!(honest.passed(), "{honest}");

        // Machine 1 duplicating machine 0's timeline is double service and
        // double volume, tripped eagerly and named in the report.
        let (tripped, report) = run([&m0, &m0]);
        assert_eq!(tripped.map(|t| t.check), Some("no-double-service"));
        let names: Vec<_> = report.failures().iter().map(|c| c.name).collect();
        assert!(names.contains(&"no-double-service"), "{report}");
        assert!(names.contains(&"cross-machine-volume"), "{report}");
    }
}
