//! Algorithm NC for uniform densities (Section 3) — the paper's first main
//! contribution.
//!
//! Jobs are processed **FIFO** (earliest release first; the information-
//! gathering order), and while job `j` is in service the speed satisfies
//! `P(s(t)) = W^{(C)}(r_j^-) + W̆_j(t)`: the remaining weight Algorithm C
//! would have just before `j`'s release (on the already-known prefix of the
//! instance) plus the weight of `j` processed so far. The power curve is the
//! clairvoyant curve run in reverse (Figure 1b), which is what makes the
//! energies of NC and C *equal* (Lemma 3) and their fractional flow-times
//! differ by exactly `1/(1 − 1/α)` (Lemma 4).
//!
//! Non-clairvoyance: the speed rule only consults (i) volumes of jobs
//! released strictly before `r_j` — all complete by the time `j` starts,
//! because FIFO — and (ii) the volume of `j` processed so far. The true
//! volume of `j` enters only through the *termination* of the growth
//! segment, which is exactly the adversary saying "the job just ended".

use crate::streaming::{NcStream, StreamConfig};
use ncss_sim::{Instance, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, SimResult};

/// A completed run of Algorithm NC.
#[derive(Debug, Clone)]
pub struct NcRun {
    /// The machine schedule (growth-law segments).
    pub schedule: Schedule,
    /// Aggregate objective, accounted exactly.
    pub objective: Objective,
    /// Per-job completions and flow-times.
    pub per_job: PerJob,
    /// `K_j = W^{(C)}(r_j^-)` — the base power level used for each job.
    pub base_powers: Vec<f64>,
}

impl NcRun {
    /// Makespan of the run.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.schedule.end_time()
    }
}

/// Run Algorithm NC on a uniform-density instance.
///
/// Returns [`ncss_sim::SimError::NonUniformDensity`] when densities
/// differ; use [`crate::nc_nonuniform`] for the general case.
///
/// # Examples
///
/// ```
/// use ncss_core::{run_c, run_nc_uniform};
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(0.0, 1.0),
///     Job::unit_density(0.5, 2.0),
/// ]).unwrap();
/// let law = PowerLaw::cube();
/// let c = run_c(&inst, law).unwrap();
/// let nc = run_nc_uniform(&inst, law).unwrap();
/// // Lemma 3 and Lemma 4, live:
/// assert!((nc.objective.energy - c.objective.energy).abs() < 1e-9);
/// assert!((nc.objective.frac_flow / c.objective.frac_flow - 1.5).abs() < 1e-9);
/// ```
pub fn run_nc_uniform(instance: &Instance, law: PowerLaw) -> SimResult<NcRun> {
    let n = instance.len();
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0; n];
    let mut int_flow = vec![0.0; n];
    let mut base_powers = vec![0.0; n];

    // Delegate to the streaming core (DESIGN.md §9): its shadow C run
    // replaces a per-job prefix re-run (`crate::shadow::base_power`),
    // turning the O(n²) loop into a single O(n log n) pass.
    let mut stream = NcStream::new(law, StreamConfig::batch());
    let mut sink = |c: crate::streaming::NcCompletion| {
        completion[c.id] = c.completion;
        frac_flow[c.id] = c.frac_flow;
        int_flow[c.id] = c.int_flow;
        base_powers[c.id] = c.base_power;
    };
    for &job in instance.jobs() {
        stream.offer(job, &mut sink)?;
    }
    let summary = stream.finish()?;
    Ok(NcRun {
        schedule: ScheduleBuilder::build_from(law, stream.spill_mut().drain())?,
        objective: summary.objective,
        per_job: PerJob { completion, frac_flow, int_flow },
        base_powers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_c;
    use crate::theory;
    use ncss_sim::numeric::approx_eq;
    use ncss_sim::profile::rearrangement_distance;
    use ncss_sim::{Job, SimError};

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn sample_instances() -> Vec<Instance> {
        vec![
            // Single job.
            Instance::new(vec![Job::unit_density(0.0, 2.0)]).unwrap(),
            // Back-to-back queueing.
            Instance::new(vec![
                Job::unit_density(0.0, 1.0),
                Job::unit_density(0.3, 2.0),
                Job::unit_density(0.4, 0.5),
            ])
            .unwrap(),
            // Idle gap between bursts.
            Instance::new(vec![
                Job::unit_density(0.0, 0.2),
                Job::unit_density(10.0, 1.0),
                Job::unit_density(10.1, 1.5),
            ])
            .unwrap(),
            // Non-unit uniform density.
            Instance::new(vec![
                Job::new(0.0, 1.0, 2.5),
                Job::new(0.5, 0.7, 2.5),
                Job::new(0.9, 1.3, 2.5),
            ])
            .unwrap(),
            // Simultaneous batch (ties resolved as the distinct-release limit).
            Instance::new(vec![
                Job::unit_density(0.0, 1.0),
                Job::unit_density(0.0, 2.0),
                Job::unit_density(0.0, 0.5),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn rejects_non_uniform() {
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.1, 1.0, 2.0)]).unwrap();
        assert!(matches!(run_nc_uniform(&inst, pl(2.0)), Err(SimError::NonUniformDensity)));
    }

    #[test]
    fn lemma3_energy_equality() {
        for alpha in [1.5, 2.0, 3.0] {
            for inst in sample_instances() {
                let c = run_c(&inst, pl(alpha)).unwrap();
                let nc = run_nc_uniform(&inst, pl(alpha)).unwrap();
                assert!(
                    approx_eq(nc.objective.energy, c.objective.energy, 1e-8),
                    "alpha={alpha}: NC {} vs C {}",
                    nc.objective.energy,
                    c.objective.energy
                );
            }
        }
    }

    #[test]
    fn lemma4_flow_ratio_exact() {
        for alpha in [1.5, 2.0, 3.0] {
            let ratio = theory::nc_over_c_flow_ratio(alpha);
            for inst in sample_instances() {
                let c = run_c(&inst, pl(alpha)).unwrap();
                let nc = run_nc_uniform(&inst, pl(alpha)).unwrap();
                assert!(
                    approx_eq(nc.objective.frac_flow, c.objective.frac_flow * ratio, 1e-8),
                    "alpha={alpha}: NC {} vs C {} * {ratio}",
                    nc.objective.frac_flow,
                    c.objective.frac_flow
                );
            }
        }
    }

    #[test]
    fn lemma6_speed_profiles_are_rearrangements() {
        for inst in sample_instances() {
            let c = run_c(&inst, pl(3.0)).unwrap();
            let nc = run_nc_uniform(&inst, pl(3.0)).unwrap();
            let d = rearrangement_distance(&c.schedule, &nc.schedule, 512);
            // Distances are in time units; compare to the makespan scale.
            assert!(d < 1e-7 * (1.0 + nc.makespan()), "distance {d}");
        }
    }

    #[test]
    fn lemma8_integral_vs_fractional_flow() {
        for alpha in [1.5, 2.0, 3.0] {
            let bound = theory::nc_integral_over_fractional_flow_bound(alpha);
            for inst in sample_instances() {
                let nc = run_nc_uniform(&inst, pl(alpha)).unwrap();
                assert!(
                    nc.objective.int_flow <= bound * nc.objective.frac_flow * (1.0 + 1e-9),
                    "alpha={alpha}: {} vs {} * {bound}",
                    nc.objective.int_flow,
                    nc.objective.frac_flow
                );
            }
        }
    }

    #[test]
    fn single_job_flow_ratio_is_figure1() {
        // Figure 1: for one job, Flow(NC)/Energy(NC) = 1/(1-1/alpha) exactly,
        // independent of the weight.
        for alpha in [2.0, 3.0] {
            for w in [1.0, 4.0, 16.0] {
                let inst = Instance::new(vec![Job::unit_density(0.0, w)]).unwrap();
                let nc = run_nc_uniform(&inst, pl(alpha)).unwrap();
                let expect = theory::nc_over_c_flow_ratio(alpha);
                assert!(approx_eq(nc.objective.frac_flow / nc.objective.energy, expect, 1e-9));
            }
        }
    }

    #[test]
    fn matches_independent_evaluator() {
        for inst in sample_instances() {
            let nc = run_nc_uniform(&inst, pl(2.5)).unwrap();
            let ev = ncss_sim::evaluate(&nc.schedule, &inst).unwrap();
            assert!(approx_eq(ev.objective.energy, nc.objective.energy, 1e-7));
            assert!(approx_eq(ev.objective.frac_flow, nc.objective.frac_flow, 1e-7));
            assert!(approx_eq(ev.objective.int_flow, nc.objective.int_flow, 1e-7));
        }
    }

    #[test]
    fn fifo_order_and_no_preemption() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 5.0),
            Job::unit_density(0.1, 0.01),
        ])
        .unwrap();
        let nc = run_nc_uniform(&inst, pl(2.0)).unwrap();
        // Despite job 1 being tiny, FIFO finishes job 0 first.
        assert!(nc.per_job.completion[0] < nc.per_job.completion[1]);
        // One growth segment per job.
        assert_eq!(nc.schedule.segments().len(), 2);
        assert_eq!(nc.schedule.segments()[0].job, Some(0));
    }

    #[test]
    fn base_power_matches_clairvoyant_prefix() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 4.0), Job::unit_density(1.0, 1.0)]).unwrap();
        let nc = run_nc_uniform(&inst, pl(2.0)).unwrap();
        assert_eq!(nc.base_powers[0], 0.0);
        // From the clairvoyant test: W(1^-) = 2.25 for alpha = 2.
        assert!(approx_eq(nc.base_powers[1], 2.25, 1e-9));
    }

    #[test]
    fn batch_ties_accumulate_base_power() {
        // Three simultaneous unit-density jobs: K_0 = 0, K_1 = w_0,
        // K_2 = w_0 + w_1 (the distinct-release limit).
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 2.0),
            Job::unit_density(0.0, 0.5),
        ])
        .unwrap();
        let nc = run_nc_uniform(&inst, pl(2.0)).unwrap();
        assert_eq!(nc.base_powers[0], 0.0);
        assert!(approx_eq(nc.base_powers[1], 1.0, 1e-12));
        assert!(approx_eq(nc.base_powers[2], 3.0, 1e-12));
    }

    #[test]
    fn theorem5_cost_vs_twice_c() {
        // G_frac(NC) = E_C + F_C / (1-1/alpha) and C is 2-competitive, so
        // G_frac(NC) <= (1 + ratio)/2 * G_frac(C); check the identity.
        for alpha in [2.0, 3.0] {
            for inst in sample_instances() {
                let c = run_c(&inst, pl(alpha)).unwrap();
                let nc = run_nc_uniform(&inst, pl(alpha)).unwrap();
                let ratio = theory::nc_over_c_flow_ratio(alpha);
                let predicted = c.objective.energy + c.objective.frac_flow * ratio;
                assert!(approx_eq(nc.objective.fractional(), predicted, 1e-8));
            }
        }
    }
}
