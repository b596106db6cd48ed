//! Fleet-scale C-PAR / NC-PAR: a deterministic dispatch log, replayed as
//! per-machine event queues on pool tasks.
//!
//! A fleet run does two jobs: *deciding* which machine each job goes to,
//! and *executing* each machine's own event queue. Only the decision is
//! inherently serial — C-PAR's greedy rule and NC-PAR's global FIFO both
//! depend on the whole fleet's state at each release. Execution is
//! embarrassingly parallel: once the assignment is fixed, every machine's
//! timeline is a pure function of its own queue.
//!
//! This module splits the two phases. A [`DispatchLog`] records the
//! dispatcher's decisions — the machine of each job, in release order —
//! in time linear in the jobs: C-PAR reads each machine's Algorithm C
//! weight from a per-machine shadow, and NC-PAR offers each job to its
//! machine's own [`NcStream`], whose completion is that machine's next
//! availability. The replays run one pool task per machine over the
//! persistent worker pool (`ncss-pool`), Algorithm C ([`replay_c`]) or
//! Algorithm NC ([`replay_nc`]) over the machine's queue, and merge
//! per-machine results in machine order. The serial runners
//! [`crate::run_c_par`], [`crate::run_nc_par`],
//! [`crate::run_immediate_dispatch`] and [`crate::run_nc_with_assignment`]
//! are a log replayed on one worker, so each loop exists once, and because
//! [`ncss_pool::Pool::map`] is order-preserving and interleaving-free,
//! every pool width gives the same bits (DESIGN.md §12), property-tested
//! in `tests/fleet_identity.rs`. That contract is what makes
//! k ∈ {2..4096} tractable with [`audit_fleet`] gating every cell of the
//! `Ω(k^{1−1/α})` dispatch study (EXPERIMENTS.md, "Fleet k-sweep").
//!
//! An NC-PAR log needs no start times: a machine starts each job at
//! `max(release, its previous completion)`, which is Algorithm NC's own
//! FIFO rule, so [`replay_nc`] over a machine's queue is the run the
//! dispatcher read that machine's availability from, bit for bit.

use crate::c_par::{
    greedy_c_par_assignment, merge_per_job, remap_schedule, split_by_assignment, validate_machines,
};
use crate::dispatch::{collect_assignment, ImmediateDispatch};
use crate::ParOutcome;
use ncss_audit::{AuditConfig, AuditReport, MultiAudit};
use ncss_core::streaming::{NcStream, StreamConfig};
use ncss_core::{run_c, run_nc_uniform};
use ncss_pool::Pool;
use ncss_sim::{Evaluated, Instance, Objective, PerJob, PowerLaw, Schedule, SimError, SimResult};

/// A deterministic dispatch log: the machine the serial dispatcher chose
/// for each job, in job-id (release) order, ready to feed the sharded
/// executors.
///
/// [`Instance::new`] sorts jobs stably by release, so each machine's event
/// queue — the jobs the log names it for, in job-id order — is exactly that
/// machine's dispatch order, for C-PAR and NC-PAR alike.
///
/// # Examples
///
/// ```
/// use ncss_multi::fleet::DispatchLog;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 2.0),
///     Job::unit_density(0.1, 1.0),
///     Job::unit_density(0.2, 0.5),
/// ]).unwrap();
/// let law = PowerLaw::new(2.0).unwrap();
///
/// let log = DispatchLog::c_par(&inst, law, 2).unwrap();
/// assert_eq!(log.machines(), 2);
/// assert_eq!(log.len(), 3);
/// // The greedy rule spreads the first two jobs across the fleet.
/// let assignment = log.assignment();
/// assert_ne!(assignment[0], assignment[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchLog {
    machines: usize,
    assignment: Vec<usize>,
}

impl DispatchLog {
    /// Build a log from a job-id-indexed assignment, validating what the
    /// sharded executors rely on: a usable machine count and machine
    /// indices in range.
    pub fn new(machines: usize, assignment: Vec<usize>) -> SimResult<Self> {
        validate_machines(machines)?;
        if assignment.iter().any(|&m| m >= machines) {
            return Err(SimError::InvalidInstance {
                reason: "dispatch log machine index out of range",
            });
        }
        Ok(Self { machines, assignment })
    }

    /// The fleet size this log dispatches over.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of dispatched jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when no job was dispatched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The machine of each job, indexed by job id.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Record C-PAR's greedy least-remaining-weight dispatch decisions
    /// (Section 6, Theorem 18). [`crate::run_c_par`] is this log replayed
    /// by [`replay_c`] on one worker.
    pub fn c_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<Self> {
        Self::new(machines, greedy_c_par_assignment(instance, law, machines)?)
    }

    /// Record NC-PAR's global-FIFO dispatch decisions (Section 6,
    /// Theorem 17): the queue head goes to the lowest-indexed machine
    /// available at `max(release, earliest availability)`, with `1e-12`
    /// slack. Each used machine runs Algorithm NC over its jobs in an
    /// [`NcStream`] that keeps no schedule, and a machine's availability is
    /// the completion its stream emitted last. This is NC-PAR's only
    /// dispatch loop: [`crate::run_nc_par`] is this log replayed by
    /// [`replay_nc`] on one worker.
    ///
    /// Rejects non-uniform densities (the paper's Theorem 17 setting) and
    /// non-finite service times.
    pub fn nc_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<Self> {
        validate_machines(machines)?;
        if !instance.is_uniform_density() {
            return Err(SimError::NonUniformDensity);
        }
        // The log reads only completions: a one-segment ring that evicts as
        // it goes holds no schedule.
        let config = StreamConfig { keep_segments: false, spill_capacity: Some(1) };
        let mut avail = vec![0.0f64; machines];
        let mut streams: Vec<Option<NcStream>> = (0..machines).map(|_| None).collect();
        let mut assignment = Vec::with_capacity(instance.len());
        for job in instance.jobs() {
            let earliest = avail.iter().copied().fold(f64::INFINITY, f64::min);
            let t = job.release.max(earliest);
            let m = (0..machines)
                .find(|&m| avail[m] <= t + 1e-12)
                .expect("the earliest-available machine is available at t");
            // The stream refuses a non-finite service time before `avail`
            // could be poisoned with a NaN.
            let stream = streams[m].get_or_insert_with(|| NcStream::new(law, config));
            stream.offer(*job, &mut |c| avail[m] = c.completion)?;
            assignment.push(m);
        }
        Ok(Self { machines, assignment })
    }

    /// Record an [`ImmediateDispatch`] policy's decisions (round-robin,
    /// least-count, seeded-random, …). The policy never sees volumes (the
    /// information firewall the `Ω(k^{1−1/α})` adversary exploits).
    pub fn from_policy(
        instance: &Instance,
        machines: usize,
        policy: &mut dyn ImmediateDispatch,
    ) -> SimResult<Self> {
        validate_machines(machines)?;
        Self::new(machines, collect_assignment(instance, machines, policy))
    }

    /// Wrap a fixed job→machine assignment of `instance` as a log.
    pub fn from_assignment(
        instance: &Instance,
        assignment: &[usize],
        machines: usize,
    ) -> SimResult<Self> {
        if assignment.len() != instance.len() {
            return Err(SimError::InvalidInstance { reason: "assignment length mismatch" });
        }
        Self::new(machines, assignment.to_vec())
    }
}

// ---------------------------------------------------------------------------
// Sharded executors
// ---------------------------------------------------------------------------

/// Split by `assignment` and run one pool task per machine, merging
/// objectives / per-job vectors / schedules in machine order. `run` must be
/// pure (no interior mutability observable across calls): that, plus the
/// pool's order preservation, makes the merged result the same bits at
/// every pool width. Every fixed-assignment runner is this fold.
pub(crate) fn replay_split(
    instance: &Instance,
    assignment: &[usize],
    machines: usize,
    pool: &Pool,
    run: impl Fn(&Instance) -> SimResult<(Objective, PerJob, Schedule)> + Sync,
    what: &'static str,
) -> SimResult<ParOutcome> {
    if assignment.len() != instance.len() {
        return Err(SimError::InvalidInstance { reason: "assignment length mismatch" });
    }
    let parts = split_by_assignment(instance, assignment, machines)?;
    let results = pool.map(&parts, |(inst, _)| run(inst));
    let mut objective = Objective::default();
    let mut per_machine = Vec::with_capacity(machines);
    let mut schedules = Vec::with_capacity(machines);
    for (res, (_, ids)) in results.into_iter().zip(&parts) {
        let (o, pj, schedule) = res?;
        objective.energy += o.energy;
        objective.frac_flow += o.frac_flow;
        objective.int_flow += o.int_flow;
        per_machine.push(pj);
        schedules.push(remap_schedule(&schedule, ids)?);
    }
    let per_job = merge_per_job(instance.len(), &parts, &per_machine);
    let objective = objective.validated(what)?;
    Ok(ParOutcome { assignment: assignment.to_vec(), objective, per_job, schedules })
}

/// Replay a dispatch log with per-machine **Algorithm C** event queues as
/// pool tasks. With a [`DispatchLog::c_par`] log this is C-PAR; with any
/// other log it is "per-machine C under that dispatch".
///
/// The same bits at every pool width: the pool map is order-preserving,
/// each machine's `run_c` is a pure function of its own queue, and the
/// objective folds machine 0, 1, 2, … in order.
pub fn replay_c(
    instance: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    replay_split(
        instance,
        log.assignment(),
        log.machines(),
        pool,
        |inst| run_c(inst, law).map(|r| (r.objective, r.per_job, r.schedule)),
        "replay_c: objective",
    )
}

/// Replay a dispatch log with per-machine **Algorithm NC** event queues as
/// pool tasks. With a [`DispatchLog::nc_par`] log this is NC-PAR; with an
/// [`ImmediateDispatch`] log it is per-machine NC under that policy, which
/// the lower-bound game plays.
///
/// The same bits at every pool width, as for [`replay_c`]: each machine's
/// `run_nc_uniform` is a pure function of its own queue, and the objective
/// folds machine 0, 1, 2, … in order.
pub fn replay_nc(
    instance: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    replay_split(
        instance,
        log.assignment(),
        log.machines(),
        pool,
        |inst| run_nc_uniform(inst, law).map(|r| (r.objective, r.per_job, r.schedule)),
        "replay_nc: objective",
    )
}

/// The first difference between two fleet outcomes, all compared bit for
/// bit: the assignment, the objective, each job's completion and flows (a
/// different job count included) and each machine's timeline (a different
/// machine count included). `None` when they are the same bits — the fleet
/// determinism contract (DESIGN.md §12) that `ncss fleet` checks between
/// its serial and sharded runs.
#[must_use]
pub fn first_divergence(a: &ParOutcome, b: &ParOutcome) -> Option<String> {
    if a.assignment != b.assignment {
        return Some("job->machine assignment differs".into());
    }
    let (oa, ob) = (&a.objective, &b.objective);
    for (what, x, y) in [
        ("energy", oa.energy, ob.energy),
        ("frac flow", oa.frac_flow, ob.frac_flow),
        ("int flow", oa.int_flow, ob.int_flow),
    ] {
        if x.to_bits() != y.to_bits() {
            return Some(format!("objective {what}: {x:?} != {y:?}"));
        }
    }
    let (pa, pb) = (&a.per_job, &b.per_job);
    for (what, xs, ys) in [
        ("completion", &pa.completion, &pb.completion),
        ("frac flow", &pa.frac_flow, &pb.frac_flow),
        ("int flow", &pa.int_flow, &pb.int_flow),
    ] {
        if xs.len() != ys.len() {
            return Some(format!("per-job {what}: {} jobs != {} jobs", xs.len(), ys.len()));
        }
        if let Some(j) = (0..xs.len()).find(|&j| xs[j].to_bits() != ys[j].to_bits()) {
            return Some(format!("job {j} {what}: {:?} != {:?}", xs[j], ys[j]));
        }
    }
    if a.schedules.len() != b.schedules.len() {
        return Some(format!(
            "machine timelines: {} != {}",
            a.schedules.len(),
            b.schedules.len()
        ));
    }
    let m =
        (0..a.schedules.len()).find(|&m| a.schedules[m].segments() != b.schedules[m].segments())?;
    Some(format!("machine {m} timeline differs"))
}

/// Sharded C-PAR: serial greedy dispatch (via [`DispatchLog::c_par`]), then
/// per-machine Algorithm C event queues as pool tasks. Bitwise identical to
/// [`crate::run_c_par`].
///
/// # Examples
///
/// ```
/// use ncss_multi::fleet::run_c_par_sharded;
/// use ncss_multi::run_c_par;
/// use ncss_pool::Pool;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 1.0),
///     Job::unit_density(0.2, 2.0),
///     Job::unit_density(0.9, 0.5),
/// ]).unwrap();
/// let law = PowerLaw::new(3.0).unwrap();
///
/// let serial = run_c_par(&inst, law, 2).unwrap();
/// let sharded = run_c_par_sharded(&inst, law, 2, &Pool::with_threads(2)).unwrap();
/// assert_eq!(serial.assignment, sharded.assignment);
/// // Not approximately equal: the same bits.
/// assert_eq!(
///     serial.objective.fractional().to_bits(),
///     sharded.objective.fractional().to_bits(),
/// );
/// ```
pub fn run_c_par_sharded(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::c_par(instance, law, machines)?;
    replay_c(instance, law, &log, pool)
}

/// Sharded NC-PAR: serial global-FIFO dispatch (via [`DispatchLog::nc_par`]),
/// then per-machine Algorithm NC event queues as pool tasks. Bitwise
/// identical to [`crate::run_nc_par`].
///
/// # Examples
///
/// ```
/// use ncss_multi::fleet::run_nc_par_sharded;
/// use ncss_multi::run_nc_par;
/// use ncss_pool::Pool;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 1.0),
///     Job::unit_density(0.2, 2.0),
///     Job::unit_density(0.9, 0.5),
/// ]).unwrap();
/// let law = PowerLaw::new(2.0).unwrap();
///
/// let serial = run_nc_par(&inst, law, 2).unwrap();
/// let sharded = run_nc_par_sharded(&inst, law, 2, &Pool::with_threads(3)).unwrap();
/// for (s, p) in serial.per_job.completion.iter().zip(&sharded.per_job.completion) {
///     assert_eq!(s.to_bits(), p.to_bits());
/// }
/// ```
pub fn run_nc_par_sharded(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::nc_par(instance, law, machines)?;
    replay_nc(instance, law, &log, pool)
}

/// Sharded immediate dispatch: record a policy's decisions, then run
/// per-machine Algorithm NC event queues as pool tasks. Bitwise identical
/// to [`crate::run_immediate_dispatch`] for the same policy state.
pub fn run_immediate_dispatch_sharded(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
    policy: &mut dyn ImmediateDispatch,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::from_policy(instance, machines, policy)?;
    replay_nc(instance, law, &log, pool)
}

/// Gate a fleet outcome with the cross-machine auditor: every release,
/// then every machine's segments (machine by machine, in the order the
/// pool tasks retired them), then every completion by job id streams
/// through [`ncss_audit::IncrementalMultiAudit`], and `finalize` emits the standard
/// report. This is [`MultiAudit::audit`] over the outcome. Each machine's
/// [`Schedule`] carries the power law the fleet ran under and the audit
/// reads it from there, so `_law` is not consulted.
///
/// # Examples
///
/// ```
/// use ncss_multi::fleet::{audit_fleet, run_nc_par_sharded};
/// use ncss_audit::AuditConfig;
/// use ncss_pool::Pool;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 1.0),
///     Job::unit_density(0.3, 2.0),
/// ]).unwrap();
/// let law = PowerLaw::new(2.0).unwrap();
/// let out = run_nc_par_sharded(&inst, law, 2, &Pool::with_threads(2)).unwrap();
///
/// let report = audit_fleet(&inst, law, &out, AuditConfig::default());
/// assert!(report.passed(), "{}", report.render());
/// ```
#[must_use]
pub fn audit_fleet(
    instance: &Instance,
    _law: PowerLaw,
    outcome: &ParOutcome,
    config: AuditConfig,
) -> AuditReport {
    let reported = Evaluated { objective: outcome.objective, per_job: outcome.per_job.clone() };
    MultiAudit::new(config).audit(instance, &outcome.schedules, &reported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c_par::run_c_par;
    use crate::dispatch::RoundRobin;
    use crate::nc_par::{run_nc_par, run_nc_with_assignment};
    use crate::run_immediate_dispatch;
    use ncss_sim::Job;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn inst() -> Instance {
        Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.2, 2.0),
            Job::unit_density(0.2, 0.4),
            Job::unit_density(0.9, 1.1),
            Job::unit_density(2.5, 0.8),
            Job::unit_density(2.5, 0.8),
        ])
        .unwrap()
    }

    #[track_caller]
    fn assert_outcomes_bitwise(a: &ParOutcome, b: &ParOutcome) {
        assert_eq!(first_divergence(a, b), None);
    }

    #[test]
    fn log_validation_rejects_malformed_logs() {
        assert!(DispatchLog::new(0, vec![]).is_err());
        assert!(DispatchLog::new(2, vec![2]).is_err()); // machine range
        assert!(DispatchLog::new(2, vec![1, 0]).is_ok());
        let one = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(DispatchLog::from_assignment(&one, &[0, 1], 2).is_err()); // length
    }

    #[test]
    fn c_par_log_matches_serial_greedy() {
        let inst = inst();
        let log = DispatchLog::c_par(&inst, pl(2.0), 3).unwrap();
        let serial = run_c_par(&inst, pl(2.0), 3).unwrap();
        assert_eq!(log.assignment(), serial.assignment);
    }

    #[test]
    fn nc_par_log_matches_serial_fifo() {
        let inst = inst();
        for k in [1usize, 2, 3, 5] {
            let log = DispatchLog::nc_par(&inst, pl(2.5), k).unwrap();
            let serial = run_nc_par(&inst, pl(2.5), k).unwrap();
            assert_eq!(log.assignment(), serial.assignment, "k={k}");
            // NC-PAR starts can sit strictly after release (queueing) but
            // never before.
            for seg in serial.schedules.iter().flat_map(|s| s.segments()) {
                assert!(seg.start >= inst.job(seg.job.unwrap()).release);
            }
        }
    }

    #[test]
    fn a_machine_starts_a_job_only_once_its_previous_job_completes() {
        // Job 0 completes on machine 0 about 1e-13 after job 1 does on
        // machine 1, so job 2 is dispatched at machine 1's completion and
        // goes to machine 0, which is available within the 1e-12 slack. It
        // must still wait there for job 0.
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0 + 1e-13),
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.1, 1.0),
        ])
        .unwrap();
        let out = run_nc_par(&inst, pl(2.0), 2).unwrap();
        assert_eq!(out.assignment, vec![0, 1, 0]);
        for (m, s) in out.schedules.iter().enumerate() {
            for w in s.segments().windows(2) {
                let (prev, next) = (w[0], w[1]);
                assert!(next.start >= prev.end, "machine {m}: {next:?} starts before {prev:?}");
            }
        }
    }

    #[test]
    fn first_divergence_names_flows_and_extra_machines() {
        let out = run_nc_par(&inst(), pl(2.0), 2).unwrap();
        assert_eq!(first_divergence(&out, &out), None);
        let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        let mut frac = out.clone();
        flip(&mut frac.per_job.frac_flow[3]);
        let mut int = out.clone();
        flip(&mut int.per_job.int_flow[3]);
        let mut extra = out.clone();
        extra.schedules.push(Schedule::new(pl(2.0), vec![]).unwrap());
        for (edited, want) in [
            (&frac, "job 3 frac flow"),
            (&int, "job 3 int flow"),
            (&extra, "machine timelines: 2 != 3"),
        ] {
            let got = first_divergence(&out, edited).expect("an edit is a divergence");
            assert!(got.starts_with(want), "{got}");
            assert!(first_divergence(edited, &out).is_some(), "{want}, reversed");
        }
    }

    #[test]
    fn sharded_c_par_is_bitwise_serial() {
        let inst = inst();
        for k in [1usize, 2, 4] {
            for threads in [1usize, 2, 7] {
                let serial = run_c_par(&inst, pl(2.75), k).unwrap();
                let sharded =
                    run_c_par_sharded(&inst, pl(2.75), k, &Pool::with_threads(threads)).unwrap();
                assert_outcomes_bitwise(&serial, &sharded);
            }
        }
    }

    #[test]
    fn sharded_nc_par_is_bitwise_serial() {
        let inst = inst();
        for k in [1usize, 2, 4] {
            for threads in [1usize, 3, 8] {
                let serial = run_nc_par(&inst, pl(2.0), k).unwrap();
                let sharded =
                    run_nc_par_sharded(&inst, pl(2.0), k, &Pool::with_threads(threads)).unwrap();
                assert_outcomes_bitwise(&serial, &sharded);
            }
        }
    }

    #[test]
    fn sharded_policy_dispatch_is_bitwise_serial() {
        let inst = inst();
        let serial = {
            let mut p = RoundRobin::default();
            run_immediate_dispatch(&inst, pl(2.0), 3, &mut p).unwrap()
        };
        let sharded = {
            let mut p = RoundRobin::default();
            run_immediate_dispatch_sharded(&inst, pl(2.0), 3, &mut p, &Pool::with_threads(2))
                .unwrap()
        };
        assert_outcomes_bitwise(&serial, &sharded);
        // And against the assignment-based serial path.
        let fixed = run_nc_with_assignment(&inst, pl(2.0), &serial.assignment, 3).unwrap();
        assert_outcomes_bitwise(&serial, &fixed);
    }

    #[test]
    fn fleet_audit_gates_honest_and_tampered_runs() {
        let inst = inst();
        let out = run_nc_par_sharded(&inst, pl(2.0), 2, &Pool::with_threads(2)).unwrap();
        let report = audit_fleet(&inst, pl(2.0), &out, AuditConfig::default());
        assert!(report.passed(), "{}", report.render());

        // Tampered energy must trip the recomputation check by name.
        let mut bad = out.clone();
        bad.objective.energy *= 0.5;
        let report = audit_fleet(&inst, pl(2.0), &bad, AuditConfig::default());
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "energy-recomputed"));

        // A duplicated machine timeline is double service.
        let mut dup = out.clone();
        dup.schedules.push(dup.schedules[0].clone());
        let report = audit_fleet(&inst, pl(2.0), &dup, AuditConfig::default());
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "no-double-service"));
    }

    #[test]
    fn replay_rejects_mismatched_log() {
        let inst = inst();
        let smaller = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let log = DispatchLog::nc_par(&inst, pl(2.0), 2).unwrap();
        assert!(replay_nc(&smaller, pl(2.0), &log, &Pool::with_threads(1)).is_err());
    }

    #[test]
    fn wide_fleets_leave_tail_machines_idle_but_valid() {
        // More machines than jobs: every job gets its own machine, the
        // rest produce empty (but well-formed) schedules.
        let inst = inst();
        let out = run_nc_par_sharded(&inst, pl(2.0), 16, &Pool::with_threads(4)).unwrap();
        assert_eq!(out.schedules.len(), 16);
        assert!(out.schedules.iter().filter(|s| s.segments().is_empty()).count() >= 10);
        let report = audit_fleet(&inst, pl(2.0), &out, AuditConfig::default());
        assert!(report.passed(), "{}", report.render());
    }
}
