//! Algorithm C-PAR: clairvoyant greedy immediate dispatch + per-machine
//! Algorithm C (Section 6, Theorem 18; due to Anand–Garg–Kumar).
//!
//! Each arriving job is immediately assigned to the machine that minimises
//! the increase in the fractional objective. By Lemma 19 this is exactly the
//! machine with the **least remaining fractional weight** at the release
//! time (the energy increase `((W + W_j)^{2−1/α} − W^{2−1/α})` is increasing
//! in `W`, and flow-time equals energy for Algorithm C). Ties break by
//! machine index — the total order the paper fixes.
//!
//! The greedy rule is recorded by [`DispatchLog::c_par`]; [`run_c_par`]
//! replays that log on one worker, and the sharded runner on many.

use crate::fleet::{replay_c, DispatchLog};
use crate::ParOutcome;
use ncss_core::shadow::ShadowTimeline;
use ncss_pool::Pool;
use ncss_sim::{Instance, Job, PerJob, PowerLaw, Schedule, Segment, SimError, SimResult};

/// Largest supported machine count. Parallel-machine state is `O(m)` even
/// when most machines stay idle, so an adversarial `m` near `usize::MAX`
/// must become a structured error before any allocation is attempted.
pub const MAX_MACHINES: usize = 1 << 16;

/// Machine-count guard shared by every parallel runner: `m = 0` and
/// `m > MAX_MACHINES` are typed errors, never a panic or an allocation.
pub(crate) fn validate_machines(machines: usize) -> SimResult<()> {
    if machines == 0 {
        return Err(SimError::InvalidInstance { reason: "need at least one machine" });
    }
    if machines > MAX_MACHINES {
        return Err(SimError::InvalidInstance { reason: "machine count exceeds MAX_MACHINES" });
    }
    Ok(())
}

/// Split an instance by a given assignment; returns per-machine instances
/// plus the original ids of each machine's jobs.
pub(crate) fn split_by_assignment(
    instance: &Instance,
    assignment: &[usize],
    machines: usize,
) -> SimResult<Vec<(Instance, Vec<usize>)>> {
    validate_machines(machines)?;
    let mut parts: Vec<(Vec<Job>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); machines];
    for (j, job) in instance.jobs().iter().enumerate() {
        let m = assignment[j];
        if m >= machines {
            return Err(SimError::InvalidInstance { reason: "assignment out of range" });
        }
        parts[m].0.push(*job);
        parts[m].1.push(j);
    }
    parts
        .into_iter()
        .map(|(jobs, ids)| Ok((Instance::new(jobs)?, ids)))
        .collect()
}

/// Merge per-machine per-job results into global vectors.
pub(crate) fn merge_per_job(
    n: usize,
    machines: &[(Instance, Vec<usize>)],
    runs: &[PerJob],
) -> PerJob {
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0; n];
    let mut int_flow = vec![0.0; n];
    for ((_, ids), pj) in machines.iter().zip(runs) {
        for (local, &orig) in ids.iter().enumerate() {
            completion[orig] = pj.completion[local];
            frac_flow[orig] = pj.frac_flow[local];
            int_flow[orig] = pj.int_flow[local];
        }
    }
    PerJob { completion, frac_flow, int_flow }
}

/// Relabel a per-machine schedule's segments from machine-local job ids to
/// the original instance ids (`ids[local] = original`).
pub(crate) fn remap_schedule(schedule: &Schedule, ids: &[usize]) -> SimResult<Schedule> {
    let segments = schedule
        .segments()
        .iter()
        .map(|s| Segment { job: s.job.map(|local| ids[local]), ..*s })
        .collect();
    Schedule::new(schedule.power_law(), segments)
}

/// The C-PAR greedy dispatch rule on its own: the machine index chosen for
/// each job, in release order. [`DispatchLog::c_par`] records it, and
/// [`run_c_par`] replays that log, so there is one implementation of the
/// tie-break semantics.
///
/// Each machine's `W(r_j^-)` comes from its [`ShadowTimeline`] (a cached
/// future of its clairvoyant shadow, rebuilt only when the machine
/// receives a job), so the scan never re-runs a machine's history.
pub(crate) fn greedy_c_par_assignment(
    instance: &Instance,
    law: PowerLaw,
    machines: usize,
) -> SimResult<Vec<usize>> {
    validate_machines(machines)?;
    let mut timelines: Vec<Option<ShadowTimeline>> = (0..machines).map(|_| None).collect();
    let mut assignment = Vec::with_capacity(instance.len());
    for job in instance.jobs() {
        // Each machine's K for r_j: its remaining C weight just before r_j
        // plus the full weight of its jobs tied at r_j (`ncss_core::shadow`).
        let mut best = 0usize;
        let mut best_w = f64::INFINITY;
        for (m, timeline) in timelines.iter_mut().enumerate() {
            let w = timeline.as_mut().map_or(0.0, |t| t.weight_before(job.release));
            if w < best_w - 1e-12 {
                best_w = w;
                best = m;
            }
            // Weights are never negative, so after a machine reads exactly
            // 0.0 either it is the best or best_w <= 1e-12; no later
            // machine can pass `w < best_w - 1e-12` and the decision is
            // final.
            if w == 0.0 {
                break;
            }
        }
        timelines[best].get_or_insert_with(|| ShadowTimeline::new(law)).receive(*job)?;
        assignment.push(best);
    }
    Ok(assignment)
}

/// Run C-PAR on `machines` identical machines: record the greedy dispatch
/// ([`DispatchLog::c_par`]) and replay it with per-machine Algorithm C on a
/// one-worker pool — the sharded path with the width pinned to one.
pub fn run_c_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<ParOutcome> {
    let log = DispatchLog::c_par(instance, law, machines)?;
    replay_c(instance, law, &log, &Pool::with_threads(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_core::run_c;
    use ncss_sim::numeric::approx_eq;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    #[test]
    fn first_jobs_spread_across_machines() {
        // Two jobs at distinct times while machine 0 is still loaded: the
        // second goes to the empty machine 1.
        let inst = Instance::new(vec![Job::unit_density(0.0, 4.0), Job::unit_density(0.1, 1.0)]).unwrap();
        let out = run_c_par(&inst, pl(2.0), 2).unwrap();
        assert_eq!(out.assignment, vec![0, 1]);
    }

    #[test]
    fn single_machine_equals_algorithm_c() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.2, 2.0),
            Job::unit_density(0.9, 0.5),
        ])
        .unwrap();
        let par = run_c_par(&inst, pl(3.0), 1).unwrap();
        let c = run_c(&inst, pl(3.0)).unwrap();
        assert!(approx_eq(par.objective.fractional(), c.objective.fractional(), 1e-9));
        assert!(par.assignment.iter().all(|&m| m == 0));
    }

    #[test]
    fn greedy_prefers_least_loaded() {
        // Load machine 0 heavily, then machine 1 lightly; a third job must
        // pick machine 1.
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 10.0),
            Job::unit_density(0.1, 0.1),
            Job::unit_density(0.2, 1.0),
        ])
        .unwrap();
        let out = run_c_par(&inst, pl(2.0), 2).unwrap();
        assert_eq!(out.assignment[0], 0);
        assert_eq!(out.assignment[1], 1);
        // Machine 1's tiny job is done long before 0's; job 2 -> machine 1.
        assert_eq!(out.assignment[2], 1);
    }

    #[test]
    fn more_machines_never_hurt() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 1.0),
        ])
        .unwrap();
        let one = run_c_par(&inst, pl(3.0), 1).unwrap().objective.fractional();
        let two = run_c_par(&inst, pl(3.0), 2).unwrap().objective.fractional();
        let four = run_c_par(&inst, pl(3.0), 4).unwrap().objective.fractional();
        assert!(two <= one + 1e-9);
        assert!(four <= two + 1e-9);
    }

    #[test]
    fn zero_machines_rejected() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(run_c_par(&inst, pl(2.0), 0).is_err());
    }

    #[test]
    fn absurd_machine_counts_rejected() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        for m in [MAX_MACHINES + 1, usize::MAX - 1, usize::MAX] {
            assert!(run_c_par(&inst, pl(2.0), m).is_err(), "m = {m}");
        }
        // The cap itself is usable.
        assert!(validate_machines(MAX_MACHINES).is_ok());
    }

    #[test]
    fn energy_equals_flow_per_total() {
        // Per-machine C has energy == fractional flow; so does the sum.
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.3, 2.0),
            Job::unit_density(0.5, 0.7),
            Job::unit_density(1.5, 1.2),
        ])
        .unwrap();
        let out = run_c_par(&inst, pl(2.5), 3).unwrap();
        assert!(approx_eq(out.objective.energy, out.objective.frac_flow, 1e-9));
    }

    #[test]
    fn schedules_cover_every_job_on_its_machine() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.3, 2.0),
            Job::unit_density(0.5, 0.7),
            Job::unit_density(1.5, 1.2),
        ])
        .unwrap();
        let out = run_c_par(&inst, pl(2.0), 2).unwrap();
        assert_eq!(out.schedules.len(), 2);
        for (j, &m) in out.assignment.iter().enumerate() {
            // The job's segments appear on its machine and nowhere else.
            assert!(out.schedules[m].segments().iter().any(|s| s.job == Some(j)));
            for (other, sched) in out.schedules.iter().enumerate() {
                if other != m {
                    assert!(sched.segments().iter().all(|s| s.job != Some(j)));
                }
            }
        }
    }
}
