//! Algorithms C and NC under **general** power functions.
//!
//! The paper remarks (Section 3.1) that Lemma 6 — and with it Lemma 3's
//! energy equality — "are actually true for all power functions, not just
//! ones of the form `s^α`", while Lemma 4's exact flow-time ratio *needs*
//! the power-law form. These runs make that split observable: C is
//! [`CStream`] under `&PolyPower`, whose [`DecayLaw`] serves by
//! [`ncss_sim::generic::PolyPower`] quadratures instead of closed forms, and
//! NC reads each `K_j` from one [`MachineShadow`] over the same law. The
//! tests confirm that the energy equality and the measure-preserving
//! profile survive a `s³ + ½s²` power function while the flow-time ratio
//! stops being weight-invariant.

use crate::shadow::MachineShadow;
use crate::streaming::{CStream, DecayLaw, StreamConfig};
use ncss_sim::generic::{GenericDecay, GenericGrowth, PolyPower};
use ncss_sim::kernel::{DecayServe, DecayStep};
use ncss_sim::{Instance, Objective, Segment, SimError, SimResult, SpeedLaw};

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

/// Algorithm C's law under a general power function: `dW/dt = −ρ·P⁻¹(W)`,
/// served by [`GenericDecay`]'s quadratures and retired as decaying
/// [`GenericStint`]s.
impl DecayLaw for &PolyPower {
    type Seg = GenericStint;

    fn serve(&self, w0: f64, rho: f64, rem: f64, dt: f64) -> DecayServe {
        let kernel = GenericDecay { pf: self, w0, rho };
        let w_done = (w0 - rho * rem).max(0.0);
        let tau_done = kernel.time_to_weight(w_done);
        let (tau, completes, w_end) =
            if tau_done <= dt { (tau_done, true, w_done) } else { (dt, false, kernel.weight_at(dt)) };
        DecayServe {
            tau,
            completes,
            step: DecayStep {
                w_end,
                energy: kernel.energy_to_weight(w_end),
                volume: (w0 - w_end) / rho,
                volume_integral: kernel.volume_integral_to_weight(w_end),
            },
        }
    }

    fn retire(&self, interval: Segment, w_end: f64, mut emit: impl FnMut(GenericStint)) {
        let (Some(job), SpeedLaw::Decay { w0, rho }) = (interval.job, interval.law) else {
            unreachable!("CStream retires decay intervals of a served job")
        };
        emit(GenericStint {
            start: interval.start,
            end: interval.end,
            job,
            rho,
            level_start: w0,
            level_end: w_end,
            decaying: true,
        });
    }

    fn power_before(&self, seg: &GenericStint, t: f64) -> f64 {
        if seg.start < t && t <= seg.end {
            GenericDecay { pf: self, w0: seg.level_start, rho: seg.rho }.weight_at(t - seg.start)
        } else {
            0.0
        }
    }
}

/// Run Algorithm C under a general power function.
pub fn run_c_generic(instance: &Instance, pf: &PolyPower) -> SimResult<GenericRun> {
    let mut completion = vec![f64::NAN; instance.len()];
    let mut stream = CStream::new(pf, StreamConfig::batch());
    let mut sink = |c: crate::streaming::CCompletion| completion[c.id] = c.completion;
    for &job in instance.jobs() {
        stream.offer(job, &mut sink)?;
    }
    let summary = stream.finish(&mut sink)?;
    let stints = stream.spill_mut().drain().collect();
    Ok(GenericRun { objective: summary.objective, completion, stints })
}

/// Run Algorithm NC (uniform density) under a general power function.
pub fn run_nc_uniform_generic(instance: &Instance, pf: &PolyPower) -> SimResult<GenericRun> {
    if !instance.is_uniform_density() {
        return Err(SimError::NonUniformDensity);
    }
    let mut shadow = MachineShadow::new(pf);
    let mut objective = Objective::default();
    let mut completion = Vec::with_capacity(instance.len());
    let mut stints = Vec::with_capacity(instance.len());
    let mut t = 0.0f64;

    for (j, job) in instance.jobs().iter().enumerate() {
        t = t.max(job.release);
        let k_j = shadow.admit(*job)?;
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
        objective.energy += kernel.energy_to_u(u_end);
        objective.frac_flow += rho * job.volume * (t - job.release)
            + rho * (job.volume * tau - kernel.volume_integral_to_u(u_end));
        t += tau;
        objective.int_flow += job.weight() * (t - job.release);
        completion.push(t);
    }

    Ok(GenericRun { objective, completion, stints })
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
