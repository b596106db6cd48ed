//! Post-hoc auditing of finished runs: thin feeders over the engine.
//!
//! [`ScheduleAudit`] and [`MultiAudit`] own no check of their own. They
//! stream a finished run through the incremental engine
//! ([`crate::incremental`]) in one fixed order — every release, then every
//! segment in schedule order (machine by machine for a fleet), then the
//! reported completions by job id — and return its final report. A live
//! stream audit and a post-hoc audit of the same run therefore share every
//! derivation by construction.

use crate::incremental::{IncrementalAudit, IncrementalMultiAudit, OutcomeFolds};
use crate::report::{AuditReport, Stopwatch};
use ncss_sim::{Evaluated, Instance, JobId, Objective, PerJob, Schedule};

/// Tunable audit tolerances and quadrature cross-check density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Tolerance on the scale-free residuals (`|x − ref| / (1 + |ref|)`)
    /// of the recomputed objective components, per-job volumes, and
    /// completion times.
    pub rel_tol: f64,
    /// Absolute slack allowed on event-level time comparisons (overlap,
    /// release-before-service), per unit of schedule horizon.
    pub time_tol: f64,
    /// No longer read: every audit is one serial feed through the
    /// incremental engine (DESIGN.md §8.2). The field stays so that callers
    /// which set it keep compiling.
    pub threads: Option<usize>,
    /// Quadrature cross-check stride for the closed-form fast path: every
    /// `stride`-th integral (by deterministic index) is still measured by
    /// tanh-sinh quadrature of the pointwise curve and folded into the
    /// *same* check, so a shared algebra error between the simulators and
    /// [`crate::closed_form`] cannot certify itself. `1` re-measures
    /// everything; `0` disables the cross-check tier entirely.
    pub cross_check_stride: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { rel_tol: 1e-6, time_tol: 1e-9, threads: None, cross_check_stride: 8 }
    }
}

/// The reported completions by job id, as `(id, completion, frac, int)`.
/// A missing per-job flow reads as NaN, which no check lets pass.
fn completions(per_job: &PerJob) -> impl Iterator<Item = (JobId, f64, f64, f64)> + '_ {
    per_job.completion.iter().enumerate().map(|(id, &c)| {
        let at = |v: &[f64]| v.get(id).copied().unwrap_or(f64::NAN);
        (id, c, at(&per_job.frac_flow), at(&per_job.int_flow))
    })
}

/// Add the feed's wall-time to `check`, the check that carries the shared
/// per-job derivation (DESIGN.md §8.3), so `total_ns` covers the whole
/// audit.
fn charge_feed(mut report: AuditReport, check: &str, feed_ns: u64) -> AuditReport {
    if let Some(c) = report.checks.iter_mut().find(|c| c.name == check) {
        c.elapsed_ns = c.elapsed_ns.saturating_add(feed_ns);
    }
    report
}

/// Independent invariant checker for finished single-machine runs.
///
/// See the crate docs for the check list; construct with a custom
/// [`AuditConfig`] to loosen tolerances for step-integrated algorithms
/// (the non-uniform NC simulation is accurate to its integration step, not
/// to machine precision).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleAudit {
    config: AuditConfig,
}

impl ScheduleAudit {
    /// Auditor with explicit tolerances.
    #[must_use]
    pub fn new(config: AuditConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> AuditConfig {
        self.config
    }

    /// Audit a schedule-producing run against its reported evaluation by
    /// streaming it through an [`IncrementalAudit`]. Every check records
    /// its wall-time ([`crate::CheckVerdict::elapsed_ns`]); the feed itself
    /// is charged to `volume-conservation`.
    #[must_use]
    pub fn audit(&self, instance: &Instance, schedule: &Schedule, reported: &Evaluated) -> AuditReport {
        let mut clock = Stopwatch::new();
        let mut engine = IncrementalAudit::new(schedule.power_law(), self.config);
        for (id, job) in instance.jobs().iter().enumerate() {
            engine.on_release(id, *job);
        }
        for seg in schedule.segments() {
            let _ = engine.on_segment(*seg);
        }
        for (id, c, frac, int) in completions(&reported.per_job) {
            let _ = engine.on_complete(id, c, frac, int);
        }
        let feed_ns = clock.lap();
        charge_feed(engine.finalize(&reported.objective), "volume-conservation", feed_ns)
    }

    /// Audit a run that produced no [`Schedule`] (processor sharing):
    /// the outcome checks on the reported numbers only — finiteness,
    /// completion ordering, per-job flow dominance, and sum consistency.
    #[must_use]
    pub fn audit_outcome(
        &self,
        instance: &Instance,
        objective: &Objective,
        per_job: &PerJob,
    ) -> AuditReport {
        let mut report = AuditReport::default();
        let mut clock = Stopwatch::new();
        let tol = self.config.rel_tol;
        let mut folds = OutcomeFolds::new();
        for ((id, c, frac, int), job) in completions(per_job).zip(instance.jobs()) {
            let _ = folds.fold(tol, id, job.release, c, frac, int);
        }
        let reported = per_job.completion.len() as u64;
        folds.record(&mut report, &mut clock, tol, objective, reported, instance.len() as u64);
        report
    }
}

/// Independent invariant checker for parallel-machine runs.
///
/// A multi-machine run (`C-PAR`, `NC-PAR`, immediate dispatch, the
/// assignment runners) reports one [`Evaluated`] for the whole fleet but
/// executes on `m` independent timelines — one [`Schedule`] per machine.
/// The outcome-level audit cannot see cross-machine violations: a job
/// double-served on two machines in overlapping wall-clock time still sums
/// to plausible objective numbers. On top of the per-machine segment
/// checks and the shared per-job and objective re-derivations (over each
/// job's merged cross-machine timeline), the fleet engine checks that all
/// machines share one power law, that no job is served on two machines at
/// once (**no-double-service**), and that each job's volume summed over
/// machines equals its size (**cross-machine-volume**).
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiAudit {
    config: AuditConfig,
}

impl MultiAudit {
    /// Auditor with explicit tolerances.
    #[must_use]
    pub fn new(config: AuditConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> AuditConfig {
        self.config
    }

    /// Audit a parallel-machine run by streaming it through an
    /// [`IncrementalMultiAudit`]: `schedules[m]` is machine `m`'s timeline
    /// (empty schedules for idle machines are fine), `reported` the
    /// fleet-wide evaluation the run claims. The feed is charged to
    /// `cross-machine-volume`.
    #[must_use]
    pub fn audit(
        &self,
        instance: &Instance,
        schedules: &[Schedule],
        reported: &Evaluated,
    ) -> AuditReport {
        let mut clock = Stopwatch::new();
        let laws = schedules.iter().map(Schedule::power_law).collect();
        let mut engine = IncrementalMultiAudit::new(laws, self.config);
        for (id, job) in instance.jobs().iter().enumerate() {
            engine.on_release(id, *job);
        }
        for (m, schedule) in schedules.iter().enumerate() {
            for seg in schedule.segments() {
                let _ = engine.on_segment(m, *seg);
            }
        }
        for (id, c, frac, int) in completions(&reported.per_job) {
            let _ = engine.on_complete(id, c, frac, int);
        }
        let feed_ns = clock.lap();
        charge_feed(engine.finalize(&reported.objective), "cross-machine-volume", feed_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::{evaluate, Job, PowerLaw, Segment, SpeedLaw};

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn constant(start: f64, end: f64, job: usize) -> Segment {
        Segment::new(start, end, Some(job), SpeedLaw::Constant { speed: 1.0 })
    }

    fn constant_run() -> (Instance, Schedule, Evaluated) {
        let inst = Instance::new(vec![
            Job::new(0.0, 2.0, 3.0),
            Job::new(0.5, 1.0, 1.0),
        ])
        .unwrap();
        let segs = vec![constant(0.0, 2.0, 0), constant(2.0, 3.0, 1)];
        let sched = Schedule::new(pl(2.0), segs).unwrap();
        let ev = evaluate(&sched, &inst).unwrap();
        (inst, sched, ev)
    }

    /// A hand-built "reported" evaluation, so only the audit judges it.
    fn reported(completion: f64, frac: f64, int: f64) -> Evaluated {
        Evaluated {
            objective: Objective { energy: 1.0, frac_flow: frac, int_flow: int },
            per_job: PerJob {
                completion: vec![completion],
                frac_flow: vec![frac],
                int_flow: vec![int],
            },
        }
    }

    fn failed(report: &AuditReport) -> Vec<&'static str> {
        report.failures().iter().map(|c| c.name).collect()
    }

    #[test]
    fn clean_constant_schedule_passes_tightly() {
        let (inst, sched, ev) = constant_run();
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(report.passed(), "{report}");
        assert!(report.max_residual() < 1e-7, "{report}");
    }

    #[test]
    fn decay_schedule_passes_near_completion_singularity() {
        // α = 3 decay to zero weight: the speed curve has a sqrt-type
        // endpoint, the hard case for the quadrature.
        let law = pl(3.0);
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let k = ncss_sim::kernel::DecayKernel { law, w0: 1.0, rho: 1.0 };
        let t_done = k.time_to_volume(1.0);
        let segs = vec![Segment::new(0.0, t_done, Some(0), SpeedLaw::Decay { w0: 1.0, rho: 1.0 })];
        let sched = Schedule::new(law, segs).unwrap();
        let ev = evaluate(&sched, &inst).unwrap();
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(report.passed(), "{report}");
        assert!(report.max_residual() < 1e-7, "{report}");
    }

    #[test]
    fn tampered_energy_and_completion_are_caught() {
        let (inst, sched, mut ev) = constant_run();
        ev.objective.energy *= 1.5;
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(failed(&report).contains(&"energy-recomputed"), "{report}");

        let (inst, sched, mut ev) = constant_run();
        ev.per_job.completion[1] += 0.25;
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        assert!(failed(&report).contains(&"completion-consistency"), "{report}");
    }

    #[test]
    fn early_service_and_unknown_jobs_are_caught() {
        // Job released at 0.5 but served from t = 0.
        let inst = Instance::new(vec![Job::new(0.5, 1.0, 1.0)]).unwrap();
        let sched = Schedule::new(pl(2.0), vec![constant(0.0, 1.0, 0)]).unwrap();
        let report = ScheduleAudit::default().audit(&inst, &sched, &reported(1.0, 0.25, 0.5));
        assert!(failed(&report).contains(&"release-before-service"), "{report}");

        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let sched = Schedule::new(pl(2.0), vec![constant(0.0, 1.0, 7)]).unwrap();
        let report = ScheduleAudit::default().audit(&inst, &sched, &reported(1.0, 0.5, 1.0));
        assert!(failed(&report).contains(&"release-before-service"), "{report}");
    }

    #[test]
    fn missing_volume_is_caught() {
        // Schedule only delivers half the job.
        let inst = Instance::new(vec![Job::new(0.0, 2.0, 1.0)]).unwrap();
        let sched = Schedule::new(pl(2.0), vec![constant(0.0, 1.0, 0)]).unwrap();
        let report = ScheduleAudit::default().audit(&inst, &sched, &reported(1.0, 1.5, 2.0));
        assert!(failed(&report).contains(&"volume-conservation"), "{report}");
    }

    #[test]
    fn feed_time_is_charged_to_volume_conservation() {
        let (inst, sched, ev) = constant_run();
        let report = ScheduleAudit::default().audit(&inst, &sched, &ev);
        let vol = report.checks.iter().find(|c| c.name == "volume-conservation").unwrap();
        assert!(vol.elapsed_ns > 0, "{report}");
        assert!(report.total_ns() >= vol.elapsed_ns);
    }

    #[test]
    fn outcome_audit_flags_nan_and_inversions() {
        let inst = Instance::new(vec![Job::unit_density(1.0, 1.0)]).unwrap();
        let objective = Objective { energy: f64::NAN, frac_flow: 1.0, int_flow: 0.5 };
        let per_job = PerJob {
            completion: vec![0.5], // before release
            frac_flow: vec![1.0],  // exceeds int_flow
            int_flow: vec![0.5],
        };
        let report = ScheduleAudit::default().audit_outcome(&inst, &objective, &per_job);
        let names = failed(&report);
        assert!(names.contains(&"objective-finite"), "{names:?}");
        assert!(names.contains(&"completion-after-release"), "{names:?}");
        assert!(names.contains(&"frac-dominated-by-int"), "{names:?}");
    }

    #[test]
    fn outcome_audit_accepts_consistent_numbers() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let per_job = PerJob { completion: vec![1.0], frac_flow: vec![0.5], int_flow: vec![1.0] };
        let objective = Objective { energy: 1.0, frac_flow: 0.5, int_flow: 1.0 };
        let report = ScheduleAudit::default().audit_outcome(&inst, &objective, &per_job);
        assert!(report.passed(), "{report}");
        // A short completion list is itself a failure.
        let short = PerJob { completion: vec![], frac_flow: vec![], int_flow: vec![] };
        let report = ScheduleAudit::default().audit_outcome(&inst, &objective, &short);
        assert!(failed(&report).contains(&"completion-after-release"), "{report}");
    }

    /// Two jobs released at 0, one machine each, unit speed.
    fn two_machine_run() -> (Instance, Vec<Schedule>, Evaluated) {
        let inst = Instance::new(vec![Job::new(0.0, 2.0, 1.0), Job::new(0.0, 1.0, 1.0)]).unwrap();
        let m0 = Schedule::new(pl(2.0), vec![constant(0.0, 2.0, 0)]).unwrap();
        let m1 = Schedule::new(pl(2.0), vec![constant(0.0, 1.0, 1)]).unwrap();
        // At speed 1, F_j = ρ_j V_j²/2 per machine; E = Σ durations.
        let ev = Evaluated {
            objective: Objective { energy: 3.0, frac_flow: 2.5, int_flow: 5.0 },
            per_job: PerJob {
                completion: vec![2.0, 1.0],
                frac_flow: vec![2.0, 0.5],
                int_flow: vec![4.0, 1.0],
            },
        };
        (inst, vec![m0, m1], ev)
    }

    #[test]
    fn clean_two_machine_run_passes_tightly() {
        let (inst, schedules, ev) = two_machine_run();
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(report.passed(), "{report}");
        assert!(report.max_residual() < 1e-7, "{report}");
        let vol = report.checks.iter().find(|c| c.name == "cross-machine-volume").unwrap();
        assert!(vol.elapsed_ns > 0, "feed time must be charged: {report}");
    }

    #[test]
    fn double_service_is_caught() {
        // Machine 1 also serves job 0 while machine 0 is serving it — and
        // the reported numbers are kept self-consistent so only the
        // cross-machine checks can notice.
        let (inst, mut schedules, ev) = two_machine_run();
        schedules[1] =
            Schedule::new(pl(2.0), vec![constant(0.0, 1.0, 1), constant(1.0, 2.0, 0)]).unwrap();
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        let names = failed(&report);
        assert!(names.contains(&"no-double-service"), "{report}");
        assert!(names.contains(&"cross-machine-volume"), "{report}");
        // The outcome-level checks alone would have let this through.
        let outcome = ScheduleAudit::default().audit_outcome(&inst, &ev.objective, &ev.per_job);
        assert!(outcome.passed(), "{outcome}");
    }

    #[test]
    fn lost_volume_energy_and_mixed_laws_are_caught() {
        let (inst, mut schedules, ev) = two_machine_run();
        schedules[0] = Schedule::new(pl(2.0), vec![constant(0.0, 1.0, 0)]).unwrap();
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(failed(&report).contains(&"cross-machine-volume"), "{report}");

        let (inst, schedules, mut ev) = two_machine_run();
        ev.objective.energy *= 1.5;
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(failed(&report).contains(&"energy-recomputed"), "{report}");

        let (inst, mut schedules, ev) = two_machine_run();
        schedules[1] = Schedule::new(pl(3.0), schedules[1].segments().to_vec()).unwrap();
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(failed(&report).contains(&"power-law-consistent"), "{report}");
    }

    #[test]
    fn idle_machines_and_empty_fleet_are_fine() {
        // Empty fleet over an empty instance: trivially lawful.
        let inst = Instance::new(vec![]).unwrap();
        let ev = Evaluated {
            objective: Objective::default(),
            per_job: PerJob { completion: vec![], frac_flow: vec![], int_flow: vec![] },
        };
        let report = MultiAudit::default().audit(&inst, &[], &ev);
        assert!(report.passed(), "{report}");

        // Idle third machine alongside a working pair.
        let (inst, mut schedules, ev) = two_machine_run();
        schedules.push(Schedule::new(pl(2.0), vec![]).unwrap());
        let report = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(report.passed(), "{report}");
    }
}
