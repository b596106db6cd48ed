//! Algorithms C and NC under **general** power functions.
//!
//! The paper remarks (Section 3.1) that Lemma 6 — and with it Lemma 3's
//! energy equality — "are actually true for all power functions, not just
//! ones of the form `s^α`", while Lemma 4's exact flow-time ratio *needs*
//! the power-law form. These runs make that split observable: they execute
//! the same event logic as [`crate::clairvoyant`] / [`crate::nc_uniform`]
//! but over [`ncss_sim::generic::PolyPower`] kernels (quadrature instead of
//! closed forms), and the tests confirm that the energy equality and the
//! measure-preserving profile survive a `s³ + ½s²` power function while the
//! flow-time ratio stops being weight-invariant.

use crate::clairvoyant::ActiveKey;
use ncss_sim::generic::{GenericDecay, GenericGrowth, PolyPower};
use ncss_sim::{Instance, Objective, SimError, SimResult};

/// One maximal service stint of a generic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenericStint {
    /// Absolute start time.
    pub start: f64,
    /// Absolute end time.
    pub end: f64,
    /// Job in service.
    pub job: usize,
    /// Density of the job in service.
    pub rho: f64,
    /// Power level at the start (total remaining weight for C; base +
    /// processed weight for NC).
    pub level_start: f64,
    /// Power level at the end.
    pub level_end: f64,
    /// Whether the power level decays (Algorithm C) or grows (NC).
    pub decaying: bool,
}

/// Outcome of a generic-power-function run.
#[derive(Debug, Clone)]
pub struct GenericRun {
    /// Aggregate objective.
    pub objective: Objective,
    /// Completion times per job.
    pub completion: Vec<f64>,
    /// The service stints in time order.
    pub stints: Vec<GenericStint>,
}

impl GenericRun {
    /// Makespan.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.stints.last().map_or(0.0, |s| s.end)
    }

    /// Total time spent at speed at least `x` (the Lemma 6 level-set
    /// measure), computed per stint from the generic kernels.
    #[must_use]
    pub fn time_with_speed_at_least(&self, pf: &PolyPower, x: f64) -> f64 {
        self.stints
            .iter()
            .map(|s| {
                if s.decaying {
                    GenericDecay { pf, w0: s.level_start, rho: s.rho }
                        .time_with_speed_at_least(x, s.level_end)
                } else {
                    GenericGrowth { pf, u0: s.level_start, rho: s.rho }
                        .time_with_speed_at_least(x, s.level_end)
                }
            })
            .sum()
    }

    /// Largest speed attained.
    #[must_use]
    pub fn max_speed(&self, pf: &PolyPower) -> f64 {
        self.stints
            .iter()
            .map(|s| pf.speed_for_power(s.level_start.max(s.level_end)))
            .fold(0.0, f64::max)
    }
}

/// Maximum discrepancy of the two runs' level-set measures over `n` speed
/// levels — the generic analogue of
/// [`ncss_sim::profile::rearrangement_distance`].
#[must_use]
pub fn generic_rearrangement_distance(pf: &PolyPower, a: &GenericRun, b: &GenericRun, n: usize) -> f64 {
    let max = a.max_speed(pf).max(b.max_speed(pf)).max(f64::MIN_POSITIVE);
    let mut worst: f64 = 0.0;
    for i in 1..=n {
        let x = max * i as f64 / n as f64;
        worst = worst.max((a.time_with_speed_at_least(pf, x) - b.time_with_speed_at_least(pf, x)).abs());
    }
    worst
}

/// Run Algorithm C under a general power function.
pub fn run_c_generic(instance: &Instance, pf: &PolyPower) -> SimResult<GenericRun> {
    let jobs = instance.jobs();
    let n = jobs.len();
    let mut remaining: Vec<f64> = jobs.iter().map(|j| j.volume).collect();
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0; n];
    let mut energy = 0.0;
    let mut stints = Vec::new();

    let mut heap = std::collections::BinaryHeap::new();
    let mut next = 0usize;
    let mut total_w = 0.0;
    let mut t = jobs.first().map_or(0.0, |j| j.release);

    let admit = |t: f64,
                 next: &mut usize,
                 heap: &mut std::collections::BinaryHeap<ActiveKey>,
                 total_w: &mut f64| {
        while *next < n && jobs[*next].release <= t {
            let j = &jobs[*next];
            heap.push(ActiveKey { density: j.density, release: j.release, id: *next });
            *total_w += j.weight();
            *next += 1;
        }
    };
    admit(t, &mut next, &mut heap, &mut total_w);

    let mut guard = 0usize;
    while !heap.is_empty() || next < n {
        guard += 1;
        if guard > 10 * n + 16 {
            return Err(SimError::NonConvergence { what: "generic C event loop" });
        }
        if heap.is_empty() {
            t = jobs[next].release;
            admit(t, &mut next, &mut heap, &mut total_w);
            continue;
        }
        let top = *heap.peek().expect("non-empty heap");
        let j = top.id;
        let rho = jobs[j].density;
        let kernel = GenericDecay { pf, w0: total_w, rho };
        let w_complete = total_w - rho * remaining[j];
        let t_complete = t + kernel.time_to_weight(w_complete);
        let t_release = if next < n { jobs[next].release } else { f64::INFINITY };
        let completes = t_complete <= t_release;
        let t_end = if completes { t_complete } else { t_release };
        let tau = t_end - t;
        let w_end = if completes { w_complete } else { kernel.weight_at(tau) };

        if tau > 0.0 {
            stints.push(GenericStint {
                start: t,
                end: t_end,
                job: j,
                rho,
                level_start: total_w,
                level_end: w_end,
                decaying: true,
            });
            energy += kernel.energy_to_weight(w_end);
            for key in heap.iter() {
                if key.id != j {
                    frac_flow[key.id] += jobs[key.id].density * remaining[key.id] * tau;
                }
            }
            frac_flow[j] += rho * (remaining[j] * tau - kernel.volume_integral_to_weight(w_end));
            remaining[j] = (remaining[j] - (total_w - w_end) / rho).max(0.0);
        }
        t = t_end;
        if completes {
            heap.pop();
            remaining[j] = 0.0;
            completion[j] = t;
        }
        total_w = heap.iter().map(|k| jobs[k.id].density * remaining[k.id]).sum();
        admit(t, &mut next, &mut heap, &mut total_w);
    }

    let int_flow: f64 = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| job.weight() * (completion[j] - job.release))
        .sum();
    Ok(GenericRun {
        objective: Objective { energy, frac_flow: frac_flow.iter().sum(), int_flow },
        completion,
        stints,
    })
}

/// Left limit of the remaining weight of a generic C run at time `t`,
/// resolved by inverting the stint the instant falls into.
fn generic_remaining_weight_before(pf: &PolyPower, run: &GenericRun, t: f64) -> f64 {
    for s in &run.stints {
        if s.start < t && t <= s.end {
            let kernel = GenericDecay { pf, w0: s.level_start, rho: s.rho };
            return kernel.weight_at(t - s.start);
        }
    }
    0.0
}

/// Run Algorithm NC (uniform density) under a general power function.
pub fn run_nc_uniform_generic(instance: &Instance, pf: &PolyPower) -> SimResult<GenericRun> {
    if !instance.is_uniform_density() {
        return Err(SimError::NonUniformDensity);
    }
    let jobs = instance.jobs();
    let n = jobs.len();
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0; n];
    let mut energy = 0.0;
    let mut stints = Vec::new();
    let mut t = 0.0f64;

    for (j, job) in jobs.iter().enumerate() {
        t = t.max(job.release);
        // K_j with the same distinct-release-limit tie rule as
        // `crate::shadow::base_power`, over this power function's C run.
        let (prefix, _) = instance.prefix_before(job.release);
        let strictly_before = if prefix.is_empty() {
            0.0
        } else {
            let run = run_c_generic(&prefix, pf)?;
            generic_remaining_weight_before(pf, &run, job.release)
        };
        let ties: f64 = jobs[..j]
            .iter()
            .filter(|i| i.release == job.release)
            .map(|i| i.weight())
            .sum();
        let k_j = strictly_before + ties;

        let rho = job.density;
        let kernel = GenericGrowth { pf, u0: k_j, rho };
        let u_end = k_j + job.weight();
        let tau = kernel.time_to_u(u_end);
        stints.push(GenericStint {
            start: t,
            end: t + tau,
            job: j,
            rho,
            level_start: k_j,
            level_end: u_end,
            decaying: false,
        });
        energy += kernel.energy_to_u(u_end);
        frac_flow[j] = rho * job.volume * (t - job.release)
            + rho * (job.volume * tau - kernel.volume_integral_to_u(u_end));
        t += tau;
        completion[j] = t;
    }

    let int_flow: f64 = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| job.weight() * (completion[j] - job.release))
        .sum();
    Ok(GenericRun {
        objective: Objective { energy, frac_flow: frac_flow.iter().sum(), int_flow },
        completion,
        stints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_c, run_nc_uniform};
    use ncss_sim::numeric::{approx_eq, rel_diff};
    use ncss_sim::{Job, PowerLaw};

    fn mixed() -> PolyPower {
        PolyPower::new(vec![(1.0, 3.0), (0.5, 2.0)]).unwrap()
    }

    fn instances() -> Vec<Instance> {
        vec![
            Instance::new(vec![Job::unit_density(0.0, 1.5)]).unwrap(),
            Instance::new(vec![
                Job::unit_density(0.0, 1.0),
                Job::unit_density(0.2, 0.8),
                Job::unit_density(0.9, 0.4),
            ])
            .unwrap(),
            Instance::new(vec![
                Job::unit_density(0.0, 0.5),
                Job::unit_density(0.0, 1.2),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn generic_c_matches_specialised_for_pure_power_law() {
        let law = PowerLaw::cube();
        let pf = PolyPower::from_power_law(law);
        for inst in instances() {
            let exact = run_c(&inst, law).unwrap();
            let gen = run_c_generic(&inst, &pf).unwrap();
            assert!(rel_diff(gen.objective.energy, exact.objective.energy) < 1e-6);
            assert!(rel_diff(gen.objective.frac_flow, exact.objective.frac_flow) < 1e-6);
            for j in 0..inst.len() {
                assert!(approx_eq(gen.completion[j], exact.per_job.completion[j], 1e-6));
            }
        }
    }

    #[test]
    fn generic_nc_matches_specialised_for_pure_power_law() {
        let law = PowerLaw::new(2.0).unwrap();
        let pf = PolyPower::from_power_law(law);
        for inst in instances() {
            let exact = run_nc_uniform(&inst, law).unwrap();
            let gen = run_nc_uniform_generic(&inst, &pf).unwrap();
            assert!(rel_diff(gen.objective.energy, exact.objective.energy) < 1e-6);
            assert!(rel_diff(gen.objective.frac_flow, exact.objective.frac_flow) < 1e-6);
        }
    }

    #[test]
    fn lemma3_energy_equality_for_general_p() {
        // The paper's claim: energy equality holds for ALL power functions.
        let pf = mixed();
        for inst in instances() {
            let c = run_c_generic(&inst, &pf).unwrap();
            let nc = run_nc_uniform_generic(&inst, &pf).unwrap();
            assert!(
                rel_diff(c.objective.energy, nc.objective.energy) < 1e-5,
                "C {} vs NC {}",
                c.objective.energy,
                nc.objective.energy
            );
        }
    }

    #[test]
    fn lemma6_rearrangement_for_general_p() {
        let pf = mixed();
        for inst in instances() {
            let c = run_c_generic(&inst, &pf).unwrap();
            let nc = run_nc_uniform_generic(&inst, &pf).unwrap();
            let d = generic_rearrangement_distance(&pf, &c, &nc, 64);
            assert!(d < 1e-4 * (1.0 + nc.makespan()), "distance {d}");
        }
    }

    #[test]
    fn lemma4_ratio_needs_the_power_law_form() {
        // For P = s^alpha the single-job flow ratio NC/C is 1/(1-1/alpha)
        // independent of the weight; for a mixed P it must drift with the
        // weight — exactly why the paper's flow-time comparison needs s^alpha.
        let pf = mixed();
        let ratio_for = |v: f64| {
            let inst = Instance::new(vec![Job::unit_density(0.0, v)]).unwrap();
            let c = run_c_generic(&inst, &pf).unwrap();
            let nc = run_nc_uniform_generic(&inst, &pf).unwrap();
            nc.objective.frac_flow / c.objective.frac_flow
        };
        let r_small = ratio_for(0.2);
        let r_large = ratio_for(20.0);
        assert!(
            (r_small - r_large).abs() > 1e-3,
            "ratio unexpectedly weight-invariant: {r_small} vs {r_large}"
        );
    }

    #[test]
    fn rejects_non_uniform_density() {
        let pf = mixed();
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.1, 1.0, 2.0)]).unwrap();
        assert!(run_nc_uniform_generic(&inst, &pf).is_err());
    }
}
