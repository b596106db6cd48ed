//! Fleet-scale C-PAR / NC-PAR: a deterministic dispatch log, replayed as
//! per-machine event queues on pool tasks.
//!
//! A fleet run does two jobs: *deciding* which machine each job goes to,
//! and *executing* each machine's own event queue. Only the decision is
//! inherently serial — C-PAR's greedy rule and NC-PAR's global FIFO both
//! depend on the whole fleet's state at each release. Execution is
//! embarrassingly parallel: once the assignment (and, for NC-PAR, each
//! job's dispatch time) is fixed, every machine's timeline is a pure
//! function of its own queue.
//!
//! This module splits the two phases. A [`DispatchLog`] records the
//! dispatcher's decisions — one `(job, machine, start)` entry per job, in
//! release order — reading each machine's Algorithm C weight from a
//! per-machine shadow stream, so recording is linear in the jobs. The
//! replays run one pool task per machine over the persistent worker pool
//! (`ncss-pool`) and merge per-machine results in a fixed order. The
//! serial runners [`crate::run_c_par`], [`crate::run_nc_par`],
//! [`crate::run_immediate_dispatch`] and [`crate::run_nc_with_assignment`]
//! are a log replayed on one worker, so each loop exists once, and because
//! [`ncss_pool::Pool::map`] is order-preserving and interleaving-free,
//! every pool width gives the same bits (DESIGN.md §12), property-tested
//! in `tests/fleet_identity.rs`. That contract is what makes
//! k ∈ {2..4096} tractable with [`audit_fleet`] gating every cell of the
//! `Ω(k^{1−1/α})` dispatch study (EXPERIMENTS.md, "Fleet k-sweep").
//!
//! Why the log records a **start time** and not just a machine: NC-PAR
//! dispatches the queue head at `t = max(release, earliest availability)`
//! to any machine with `avail[m] ≤ t + 1e-12` — a machine may legally begin
//! a job up to `1e-12` *before* its own previous completion. A
//! machine-local replay that re-derived starts as `max(release, avail[m])`
//! would produce different bits on exactly those ties, so the dispatcher's
//! `t_start` travels with the entry and the replay honours it verbatim.

use crate::c_par::{
    greedy_c_par_assignment, merge_per_job, remap_schedule, split_by_assignment,
    validate_machines, ParOutcome,
};
use crate::dispatch::{collect_assignment, ImmediateDispatch};
use ncss_audit::{AuditConfig, AuditReport, MultiAudit};
use ncss_core::run_c;
use ncss_core::shadow::MachineShadow;
use ncss_pool::Pool;
use ncss_sim::kernel::GrowthKernel;
use ncss_sim::{
    Evaluated, Instance, Job, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, Segment,
    SimError, SimResult, SpeedLaw,
};

/// One dispatch decision: job `job` goes to machine `machine`, beginning
/// service at time `start`.
///
/// For immediate-dispatch algorithms (C-PAR, the [`ImmediateDispatch`]
/// policies) `start` is the job's release time; for NC-PAR it is the global
/// FIFO dispatch time `max(release, earliest machine availability)`, which
/// the sharded replay must honour verbatim (see the module docs for why it
/// cannot be re-derived machine-locally without changing bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchEntry {
    /// Original job id (its position in the release-sorted instance).
    pub job: usize,
    /// Machine index in `0..machines`.
    pub machine: usize,
    /// Time at which the machine begins serving the job.
    pub start: f64,
}

/// A deterministic dispatch log: the serial dispatcher's decisions, one
/// entry per job in release order, ready to feed the sharded executors.
///
/// The canonical entry order is by job id (equivalently, release order —
/// [`Instance::new`] sorts jobs stably by release). Each machine's event
/// queue is the subsequence of entries naming it, which for both C-PAR and
/// NC-PAR is exactly that machine's dispatch order.
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
/// // C-PAR is immediate dispatch: every entry starts at its release.
/// for (entry, job) in log.entries().iter().zip(inst.jobs()) {
///     assert_eq!(entry.start, job.release);
/// }
/// // The greedy rule spreads the first two jobs across the fleet.
/// let assignment = log.assignment();
/// assert_ne!(assignment[0], assignment[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchLog {
    machines: usize,
    entries: Vec<DispatchEntry>,
}

impl DispatchLog {
    /// Build a log from raw entries, validating the invariants the sharded
    /// executors rely on: a usable machine count, exactly one entry per job
    /// in job-id order (`entries[j].job == j`), machine indices in range,
    /// and finite start times.
    pub fn new(machines: usize, entries: Vec<DispatchEntry>) -> SimResult<Self> {
        validate_machines(machines)?;
        for (j, e) in entries.iter().enumerate() {
            if e.job != j {
                return Err(SimError::InvalidInstance {
                    reason: "dispatch log entries must be one per job, in job-id order",
                });
            }
            if e.machine >= machines {
                return Err(SimError::InvalidInstance {
                    reason: "dispatch log machine index out of range",
                });
            }
            if !e.start.is_finite() {
                return Err(SimError::InvalidInstance {
                    reason: "dispatch log start time is not finite",
                });
            }
        }
        Ok(Self { machines, entries })
    }

    /// The fleet size this log dispatches over.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// All decisions, in job-id (release) order.
    #[must_use]
    pub fn entries(&self) -> &[DispatchEntry] {
        &self.entries
    }

    /// Number of dispatched jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no job was dispatched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The job-id-indexed machine assignment this log encodes.
    #[must_use]
    pub fn assignment(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.machine).collect()
    }

    /// Record C-PAR's greedy least-remaining-weight dispatch decisions
    /// (Section 6, Theorem 18); `start` is each job's release time
    /// (immediate dispatch). [`crate::run_c_par`] is this log replayed by
    /// [`replay_c`] on one worker.
    pub fn c_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<Self> {
        let assignment = greedy_c_par_assignment(instance, law, machines)?;
        Self::from_assignment(instance, &assignment, machines)
    }

    /// Record NC-PAR's global-FIFO dispatch decisions (Section 6,
    /// Theorem 17): the queue head goes to the lowest-indexed machine
    /// available at `max(release, earliest availability)` (with `1e-12`
    /// slack), which is the recorded `start`. This is NC-PAR's only
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
        let mut avail = vec![0.0f64; machines];
        let mut shadows: Vec<Option<MachineShadow>> = (0..machines).map(|_| None).collect();
        let mut entries = Vec::with_capacity(instance.len());
        for (j, job) in instance.jobs().iter().enumerate() {
            let earliest = avail.iter().copied().fold(f64::INFINITY, f64::min);
            let start = job.release.max(earliest);
            let m = (0..machines)
                .find(|&m| avail[m] <= start + 1e-12)
                .expect("some machine is available at t_start");
            // Service time under the growth law P(s) = K_j + processed
            // weight — needed here because the next dispatch decision
            // depends on this machine's completion time.
            let k_j = shadows[m].get_or_insert_with(|| MachineShadow::new(law)).admit(*job)?;
            let kernel = GrowthKernel { law, u0: k_j, rho: job.density };
            let tau = kernel.time_to_volume(job.volume);
            if !tau.is_finite() {
                // Guard before `avail` is poisoned: a NaN availability would
                // panic the machine-selection `expect` on the next job.
                return Err(SimError::Numeric {
                    what: "DispatchLog::nc_par: service time",
                    value: tau,
                });
            }
            avail[m] = start + tau;
            entries.push(DispatchEntry { job: j, machine: m, start });
        }
        Self::new(machines, entries)
    }

    /// Record an [`ImmediateDispatch`] policy's decisions (round-robin,
    /// least-count, seeded-random, …). `start` is each job's release time;
    /// the policy never sees volumes (the information firewall the
    /// `Ω(k^{1−1/α})` adversary exploits).
    pub fn from_policy(
        instance: &Instance,
        machines: usize,
        policy: &mut dyn ImmediateDispatch,
    ) -> SimResult<Self> {
        validate_machines(machines)?;
        let assignment = collect_assignment(instance, machines, policy);
        Self::from_assignment(instance, &assignment, machines)
    }

    /// Wrap a fixed job→machine assignment as an immediate-dispatch log
    /// (`start` = release).
    pub fn from_assignment(
        instance: &Instance,
        assignment: &[usize],
        machines: usize,
    ) -> SimResult<Self> {
        if assignment.len() != instance.len() {
            return Err(SimError::InvalidInstance { reason: "assignment length mismatch" });
        }
        let entries = instance
            .jobs()
            .iter()
            .zip(assignment)
            .enumerate()
            .map(|(j, (job, &m))| DispatchEntry { job: j, machine: m, start: job.release })
            .collect();
        Self::new(machines, entries)
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
        &log.assignment(),
        log.machines(),
        pool,
        |inst| run_c(inst, law).map(|r| (r.objective, r.per_job, r.schedule)),
        "replay_c: objective",
    )
}

/// Replay a dispatch log with per-machine **Algorithm NC** event queues
/// (each machine restarts NC over its own queue, ignoring recorded starts)
/// — [`crate::run_nc_with_assignment`] on a pool, used for the
/// [`ImmediateDispatch`] policies and the lower-bound game.
pub fn replay_nc_assigned(
    instance: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    replay_split(
        instance,
        &log.assignment(),
        log.machines(),
        pool,
        |inst| ncss_core::run_nc_uniform(inst, law).map(|r| (r.objective, r.per_job, r.schedule)),
        "replay_nc_assigned: objective",
    )
}

/// One machine's NC-PAR replay: per-job rows in dispatch order plus the
/// machine's timeline.
struct NcMachineRun {
    /// `(job id, energy, completion, frac flow, int flow)` per queue entry.
    rows: Vec<(usize, f64, f64, f64, f64)>,
    schedule: Schedule,
}

/// Replay one machine's NC-PAR event queue: growth-law service at the
/// recorded start times, with `K_j` from the machine's own shadow fed the
/// same jobs in the same order as [`DispatchLog::nc_par`]'s, so every row
/// has the bits the dispatcher's service times were computed from.
fn replay_nc_machine(law: PowerLaw, queue: &[(usize, Job, f64)]) -> SimResult<NcMachineRun> {
    let mut shadow = None;
    let mut builder = ScheduleBuilder::new(law);
    let mut rows = Vec::with_capacity(queue.len());
    for &(id, job, start) in queue {
        let k_j = shadow.get_or_insert_with(|| MachineShadow::new(law)).admit(job)?;
        let rho = job.density;
        let kernel = GrowthKernel { law, u0: k_j, rho };
        let tau = kernel.time_to_volume(job.volume);
        if !tau.is_finite() {
            return Err(SimError::Numeric { what: "replay_nc: service time", value: tau });
        }
        let completion = start + tau;
        let frac = rho * job.volume * (start - job.release)
            + rho * (job.volume * tau - kernel.volume_integral(tau));
        let int = job.weight() * (completion - job.release);
        builder.push(Segment::new(start, completion, Some(id), SpeedLaw::Growth { u0: k_j, rho }));
        rows.push((id, kernel.energy(tau), completion, frac, int));
    }
    Ok(NcMachineRun { rows, schedule: builder.build()? })
}

/// Replay an NC-PAR dispatch log with per-machine growth-law event queues
/// as pool tasks, honouring the recorded start times. With a
/// [`DispatchLog::nc_par`] log this is NC-PAR.
///
/// The same bits at every pool width: per-job energies are collected into
/// a job-id-indexed array and summed in job-id order, like the flow sums,
/// so no total depends on which machine or worker produced a row.
pub fn replay_nc(
    instance: &Instance,
    law: PowerLaw,
    log: &DispatchLog,
    pool: &Pool,
) -> SimResult<ParOutcome> {
    let machines = log.machines();
    if log.len() != instance.len() {
        return Err(SimError::InvalidInstance { reason: "dispatch log length mismatch" });
    }
    let mut queues: Vec<Vec<(usize, Job, f64)>> = vec![Vec::new(); machines];
    for e in log.entries() {
        queues[e.machine].push((e.job, *instance.job(e.job), e.start));
    }
    let results = pool.map(&queues, |q| replay_nc_machine(law, q));

    let n = instance.len();
    let mut energy_by_job = vec![0.0f64; n];
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0f64; n];
    let mut int_flow = vec![0.0f64; n];
    let mut schedules = Vec::with_capacity(machines);
    for res in results {
        let run = res?;
        for (id, e, c, ff, fi) in run.rows {
            energy_by_job[id] = e;
            completion[id] = c;
            frac_flow[id] = ff;
            int_flow[id] = fi;
        }
        schedules.push(run.schedule);
    }
    // Job-id order is the dispatch order, so this is the `energy +=` fold
    // of a single loop over the jobs (the reference in
    // tests/fleet_identity.rs), whatever the sharding.
    let objective = Objective {
        energy: energy_by_job.iter().sum(),
        frac_flow: frac_flow.iter().sum(),
        int_flow: int_flow.iter().sum(),
    }
    .validated("replay_nc: objective")?;
    Ok(ParOutcome {
        assignment: log.assignment(),
        objective,
        per_job: PerJob { completion, frac_flow, int_flow },
        schedules,
    })
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
/// then per-machine growth-law event queues as pool tasks. Bitwise identical
/// to [`crate::run_nc_par`].
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
    replay_nc_assigned(instance, law, &log, pool)
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

    fn assert_outcomes_bitwise(a: &ParOutcome, b: &ParOutcome) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective.energy.to_bits(), b.objective.energy.to_bits());
        assert_eq!(a.objective.frac_flow.to_bits(), b.objective.frac_flow.to_bits());
        assert_eq!(a.objective.int_flow.to_bits(), b.objective.int_flow.to_bits());
        for j in 0..a.per_job.completion.len() {
            assert_eq!(a.per_job.completion[j].to_bits(), b.per_job.completion[j].to_bits());
            assert_eq!(a.per_job.frac_flow[j].to_bits(), b.per_job.frac_flow[j].to_bits());
            assert_eq!(a.per_job.int_flow[j].to_bits(), b.per_job.int_flow[j].to_bits());
        }
        assert_eq!(a.schedules.len(), b.schedules.len());
        for (sa, sb) in a.schedules.iter().zip(&b.schedules) {
            assert_eq!(sa.segments(), sb.segments());
        }
    }

    #[test]
    fn log_validation_rejects_malformed_logs() {
        let e = |job, machine, start| DispatchEntry { job, machine, start };
        assert!(DispatchLog::new(0, vec![]).is_err());
        assert!(DispatchLog::new(2, vec![e(1, 0, 0.0)]).is_err()); // wrong id order
        assert!(DispatchLog::new(2, vec![e(0, 2, 0.0)]).is_err()); // machine range
        assert!(DispatchLog::new(2, vec![e(0, 0, f64::NAN)]).is_err()); // bad start
        assert!(DispatchLog::new(2, vec![e(0, 1, 0.5)]).is_ok());
    }

    #[test]
    fn c_par_log_matches_serial_greedy() {
        let inst = inst();
        let log = DispatchLog::c_par(&inst, pl(2.0), 3).unwrap();
        let serial = run_c_par(&inst, pl(2.0), 3).unwrap();
        assert_eq!(log.assignment(), serial.assignment);
        for (e, job) in log.entries().iter().zip(inst.jobs()) {
            assert_eq!(e.start, job.release);
        }
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
            for (e, job) in log.entries().iter().zip(inst.jobs()) {
                assert!(e.start >= job.release);
            }
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
