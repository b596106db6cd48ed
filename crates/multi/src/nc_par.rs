//! Algorithm NC-PAR: non-clairvoyant scheduling on identical parallel
//! machines without immediate dispatch (Section 6, Theorem 17).
//!
//! A single global FIFO queue holds unassigned jobs. Whenever a machine is
//! *available* (every job previously assigned to it has completed), the
//! queue head is assigned to it; once started, a job never migrates. Each
//! machine runs Algorithm NC over the jobs it has been assigned, so a
//! machine serves one job at a time with the growth-law speed rule
//! `P(s) = W^{(C)}(r_j^-) + W̆_j(t)`, where the inner C run is over that
//! machine's own previously-assigned jobs — kept alive as a per-machine
//! shadow stream, so each `K_j` costs one offer.
//!
//! The dispatch loop is [`DispatchLog::nc_par`]; [`run_nc_par`] replays
//! that log on one worker, and the sharded runner on many.
//!
//! Lemma 20 — verified by the tests and experiment E6 — shows the resulting
//! assignment is *identical* to clairvoyant C-PAR's, which is what lets the
//! single-machine Lemmas 3 and 4 lift to Theorem 17.

use crate::c_par::ParOutcome;
use crate::fleet::{replay_nc, replay_nc_assigned, replay_split, DispatchLog};
use ncss_pool::Pool;
use ncss_sim::{Instance, Objective, PerJob, PowerLaw, Schedule, SimResult};

/// Run NC-PAR on `machines` identical machines (uniform densities only,
/// matching the paper's Theorem 17 setting): record the global-FIFO
/// dispatch ([`DispatchLog::nc_par`]) and replay it with per-machine
/// growth-law queues on a one-worker pool ([`replay_nc`]) — the sharded
/// path with the width pinned to one, so the dispatch loop exists once.
pub fn run_nc_par(instance: &Instance, law: PowerLaw, machines: usize) -> SimResult<ParOutcome> {
    let log = DispatchLog::nc_par(instance, law, machines)?;
    replay_nc(instance, law, &log, &Pool::with_threads(1))
}

/// Run per-machine Algorithm NC under a **fixed** assignment (used by the
/// immediate-dispatch policies and the lower-bound game): the assignment
/// as a [`DispatchLog`], replayed by [`replay_nc_assigned`] on one worker.
pub fn run_nc_with_assignment(
    instance: &Instance,
    law: PowerLaw,
    assignment: &[usize],
    machines: usize,
) -> SimResult<ParOutcome> {
    let log = DispatchLog::from_assignment(instance, assignment, machines)?;
    replay_nc_assigned(instance, law, &log, &Pool::with_threads(1))
}

/// Run per-machine **non-uniform** Algorithm NC under a fixed assignment —
/// the Section 7 open-problem heuristic (HDF with dispatch-as-needed is
/// approximated by an explicit dispatch policy feeding per-machine NC).
pub fn run_nonuniform_with_assignment(
    instance: &Instance,
    law: PowerLaw,
    assignment: &[usize],
    machines: usize,
    params: ncss_core::NonUniformParams,
) -> SimResult<ParOutcome> {
    let run = |inst: &Instance| {
        if inst.is_empty() {
            let empty = PerJob { completion: vec![], frac_flow: vec![], int_flow: vec![] };
            return Ok((Objective::default(), empty, Schedule::new(law, vec![])?));
        }
        let r = ncss_core::run_nc_nonuniform(inst, law, params)?;
        Ok((r.objective, r.per_job, r.schedule))
    };
    replay_split(
        instance,
        assignment,
        machines,
        &Pool::with_threads(1),
        run,
        "run_nonuniform_with_assignment: objective",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c_par::run_c_par;
    use ncss_core::theory;
    use ncss_sim::numeric::approx_eq;
    use ncss_sim::Job;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn instances() -> Vec<Instance> {
        vec![
            Instance::new(vec![
                Job::unit_density(0.0, 1.0),
                Job::unit_density(0.2, 2.0),
                Job::unit_density(0.5, 0.4),
                Job::unit_density(0.9, 1.1),
                Job::unit_density(2.5, 0.8),
            ])
            .unwrap(),
            Instance::new(vec![
                Job::unit_density(0.0, 3.0),
                Job::unit_density(0.1, 0.2),
                Job::unit_density(0.15, 0.2),
                Job::unit_density(0.4, 1.0),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn rejects_non_uniform_and_zero_machines() {
        let mixed = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.1, 1.0, 2.0)]).unwrap();
        assert!(run_nc_par(&mixed, pl(2.0), 2).is_err());
        let ok = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(run_nc_par(&ok, pl(2.0), 0).is_err());
    }

    #[test]
    fn lemma20_assignments_match_c_par() {
        for inst in instances() {
            for k in [2usize, 3] {
                for alpha in [2.0, 3.0] {
                    let c = run_c_par(&inst, pl(alpha), k).unwrap();
                    let nc = run_nc_par(&inst, pl(alpha), k).unwrap();
                    assert_eq!(c.assignment, nc.assignment, "k={k} alpha={alpha}");
                }
            }
        }
    }

    #[test]
    fn lemma21_energy_equality() {
        for inst in instances() {
            for k in [2usize, 3] {
                let c = run_c_par(&inst, pl(3.0), k).unwrap();
                let nc = run_nc_par(&inst, pl(3.0), k).unwrap();
                assert!(approx_eq(c.objective.energy, nc.objective.energy, 1e-8));
            }
        }
    }

    #[test]
    fn lemma22_flow_ratio() {
        for inst in instances() {
            for k in [2usize, 3] {
                for alpha in [2.0, 3.0] {
                    let c = run_c_par(&inst, pl(alpha), k).unwrap();
                    let nc = run_nc_par(&inst, pl(alpha), k).unwrap();
                    let ratio = theory::nc_over_c_flow_ratio(alpha);
                    assert!(
                        approx_eq(nc.objective.frac_flow, c.objective.frac_flow * ratio, 1e-8),
                        "k={k} alpha={alpha}: {} vs {}",
                        nc.objective.frac_flow,
                        c.objective.frac_flow * ratio
                    );
                }
            }
        }
    }

    #[test]
    fn single_machine_equals_nc() {
        let inst = instances().remove(0);
        let nc1 = run_nc_par(&inst, pl(2.0), 1).unwrap();
        let nc = ncss_core::run_nc_uniform(&inst, pl(2.0)).unwrap();
        assert!(approx_eq(nc1.objective.fractional(), nc.objective.fractional(), 1e-9));
    }

    #[test]
    fn fixed_assignment_round_trip() {
        let inst = instances().remove(1);
        let nc = run_nc_par(&inst, pl(2.0), 2).unwrap();
        let fixed = run_nc_with_assignment(&inst, pl(2.0), &nc.assignment, 2).unwrap();
        assert!(approx_eq(fixed.objective.fractional(), nc.objective.fractional(), 1e-9));
    }
}
