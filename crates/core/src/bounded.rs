//! Speed-bounded variants — the "speed bounded processors" model the paper
//! contrasts with (its reference \[6\], Bansal–Chan–Lam–Lee ICALP'08).
//!
//! Real processors cannot run arbitrarily fast; with a hard cap `s_max`,
//! the natural adaptations clip the paper's speed rules:
//!
//! * **Capped Algorithm C** — `s = min(P⁻¹(W), s_max)`: while the remaining
//!   weight exceeds `P(s_max)` the machine runs flat at the cap (linear
//!   weight decay), then follows the usual power curve.
//! * **Capped Algorithm NC** — the growth curve `P(s) = K_j + W̆_j(t)`
//!   clipped at the cap: the power level keeps growing while in service,
//!   but the speed saturates.
//!
//! The single-job time-reversal symmetry survives the cap (the capped
//! growth curve is the capped decay curve in reverse), so the Lemma 3
//! energy equality is still *exact* for a single job. On multi-job
//! instances the cap binds against different weight levels in the two
//! algorithms (C caps on total remaining weight, NC per service stint), so
//! both the energy equality and the `1/(1−1/α)` flow ratio become
//! approximate once the cap binds — the tests quantify the deviation
//! (< 1% on the sample instances). This measured breakage is itself a
//! finding: the paper's exact structure is specific to unbounded speeds.

use crate::streaming::{CStream, DecayLaw, GrowthLaw, NcStream, StreamConfig};
use ncss_sim::kernel::{DecayServe, DecayStep, GrowthKernel, GrowthServe, GrowthStep};
use ncss_sim::{
    evaluate, Evaluated, Instance, PowerLaw, Schedule, ScheduleBuilder, Segment, SimError, SimResult,
    SpeedLaw,
};

fn check_cap(s_max: f64) -> SimResult<()> {
    if !(s_max.is_finite() && s_max > 0.0) {
        return Err(SimError::InvalidInstance { reason: "speed cap must be positive and finite" });
    }
    Ok(())
}

/// Algorithm C's law under a hard speed cap, `s = min(P⁻¹(W), s_max)`, and
/// NC's growth curve clipped the same way.
///
/// While `W > P(s_max)` the machine runs flat at the cap and `W` falls
/// linearly; from the crossing on it decays from exactly `P(s_max)`. One
/// serve covers both phases, so an interval retires a `Constant` and then
/// a `Decay` segment, and no segment starts above power `P(s_max)`. A
/// crossing closer than an ulp of the clock retires no flat segment. NC
/// grows to `P(s_max)` and then runs flat: a `Growth` and then a `Constant`
/// segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Capped {
    /// The uncapped power law.
    law: PowerLaw,
    /// The speed cap.
    s_max: f64,
}

impl Capped {
    /// Power at the cap, `P(s_max)`.
    fn w_cap(&self) -> f64 {
        self.law.power(self.s_max)
    }

    /// Time the flat phase takes to bring `w0 > P(s_max)` down to the cap.
    fn flat_time(&self, w0: f64, rho: f64) -> f64 {
        (w0 - self.w_cap()) / (rho * self.s_max)
    }

    /// How long NC's capped growth curve from `u0` grows and then runs flat
    /// to serve volume `v`: all flat when `u0` is already at the cap.
    fn growth_phases(&self, u0: f64, rho: f64, v: f64) -> (f64, f64) {
        let (u_cap, u_end) = (self.w_cap(), u0 + rho * v);
        if !(u0 < u_cap) {
            return (0.0, v / self.s_max);
        }
        let growth = GrowthKernel { law: self.law, u0, rho }.time_to_u(u_end.min(u_cap));
        (growth, if u_end > u_cap { (u_end - u_cap) / rho / self.s_max } else { 0.0 })
    }
}

impl DecayLaw for Capped {
    type Seg = Segment;

    fn serve(&self, w0: f64, rho: f64, rem: f64, dt: f64) -> DecayServe {
        let w_cap = self.w_cap();
        if !(w0 > w_cap) {
            return self.law.serve(w0, rho, rem, dt);
        }
        let t_flat = self.flat_time(w0, rho);
        // Served at the cap for `tau`: volume `s_max·tau`, power `P(s_max)`.
        let flat = |tau: f64, volume: f64| DecayStep {
            w_end: w0 - rho * volume,
            energy: w_cap * tau,
            volume,
            volume_integral: 0.5 * volume * tau,
        };
        let t_done = rem / self.s_max;
        if t_done <= t_flat.min(dt) {
            return DecayServe { tau: t_done, completes: true, step: flat(t_done, rem) };
        }
        if dt <= t_flat {
            return DecayServe { tau: dt, completes: false, step: flat(dt, self.s_max * dt) };
        }
        let head = flat(t_flat, self.s_max * t_flat);
        let tail = self.law.serve(w_cap, rho, (rem - head.volume).max(0.0), dt - t_flat);
        DecayServe {
            tau: t_flat + tail.tau,
            completes: tail.completes,
            step: DecayStep {
                w_end: tail.step.w_end,
                energy: head.energy + tail.step.energy,
                volume: head.volume + tail.step.volume,
                volume_integral: head.volume_integral
                    + head.volume * tail.tau
                    + tail.step.volume_integral,
            },
        }
    }

    fn retire(&self, interval: Segment, _w_end: f64, mut emit: impl FnMut(Segment)) {
        let SpeedLaw::Decay { w0, rho } = interval.law else {
            unreachable!("CStream retires decay intervals")
        };
        let w_cap = self.w_cap();
        if !(w0 > w_cap) {
            return emit(interval);
        }
        let cross = (interval.start + self.flat_time(w0, rho)).min(interval.end);
        if cross > interval.start {
            emit(Segment { end: cross, law: SpeedLaw::Constant { speed: self.s_max }, ..interval });
        }
        if interval.end > cross {
            emit(Segment { start: cross, law: SpeedLaw::Decay { w0: w_cap, rho }, ..interval });
        }
    }

    fn power_before(&self, seg: &Segment, t: f64) -> f64 {
        self.law.power_before(seg, t)
    }
}

/// Capped NC reads `K_j` from an uncapped shadow.
impl From<Capped> for PowerLaw {
    fn from(capped: Capped) -> Self {
        capped.law
    }
}

impl GrowthLaw for Capped {
    type Shadow = PowerLaw;

    fn serve_volume(&self, u0: f64, rho: f64, v: f64) -> GrowthServe {
        let (growth, flat) = self.growth_phases(u0, rho, v);
        let grown = self.law.serve_volume(u0, rho, (v - self.s_max * flat).max(0.0)).step;
        let step = GrowthStep {
            u_end: u0 + rho * v,
            energy: grown.energy + self.w_cap() * flat,
            volume: v,
            volume_integral: grown.volume_integral + 0.5 * (v + grown.volume) * flat,
        };
        GrowthServe { tau: growth + flat, step }
    }

    fn complete(&self, interval: Segment, sv: &GrowthServe, mut emit: impl FnMut(Segment)) -> f64 {
        let SpeedLaw::Growth { u0, rho } = interval.law else { unreachable!("NC serves growth intervals") };
        let (growth, flat) = self.growth_phases(u0, rho, sv.step.volume);
        let mut t = interval.start;
        for (tau, law) in [(growth, interval.law), (flat, SpeedLaw::Constant { speed: self.s_max })] {
            if tau > 0.0 {
                emit(Segment { start: t, end: t + tau, law, ..interval });
                t += tau;
            }
        }
        t
    }
}

/// Run the speed-capped Algorithm C: [`CStream`] under the capped law.
pub fn run_c_bounded(instance: &Instance, law: PowerLaw, s_max: f64) -> SimResult<(Schedule, Evaluated)> {
    check_cap(s_max)?;
    let mut stream = CStream::new(Capped { law, s_max }, StreamConfig::batch());
    for &job in instance.jobs() {
        stream.offer(job, &mut |_| {})?;
    }
    stream.finish(&mut |_| {})?;
    let schedule = ScheduleBuilder::build_from(law, stream.spill_mut().drain())?;
    let ev = evaluate(&schedule, instance)?;
    Ok((schedule, ev))
}

/// Run the speed-capped Algorithm NC (uniform densities): [`NcStream`]
/// under the capped law.
pub fn run_nc_uniform_bounded(
    instance: &Instance,
    law: PowerLaw,
    s_max: f64,
) -> SimResult<(Schedule, Evaluated)> {
    check_cap(s_max)?;
    let mut stream = NcStream::new(Capped { law, s_max }, StreamConfig::batch());
    for &job in instance.jobs() {
        stream.offer(job, &mut |_| {})?;
    }
    let schedule = ScheduleBuilder::build_from(law, stream.spill_mut().drain())?;
    let ev = evaluate(&schedule, instance)?;
    Ok((schedule, ev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_c, run_nc_uniform};
    use ncss_sim::numeric::rel_diff;
    use ncss_sim::Job;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn inst() -> Instance {
        Instance::new(vec![
            Job::unit_density(0.0, 2.0),
            Job::unit_density(0.3, 1.0),
            Job::unit_density(0.8, 0.5),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_cap_and_mixed_density() {
        assert!(run_c_bounded(&inst(), pl(2.0), 0.0).is_err());
        assert!(run_nc_uniform_bounded(&inst(), pl(2.0), f64::INFINITY).is_err());
        let mixed = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.1, 1.0, 2.0)]).unwrap();
        assert!(run_nc_uniform_bounded(&mixed, pl(2.0), 1.0).is_err());
    }

    #[test]
    fn huge_cap_recovers_unbounded_runs() {
        let law = pl(3.0);
        let (_, c_b) = run_c_bounded(&inst(), law, 1e6).unwrap();
        let c = run_c(&inst(), law).unwrap();
        assert!(rel_diff(c_b.objective.fractional(), c.objective.fractional()) < 1e-7);

        let (_, nc_b) = run_nc_uniform_bounded(&inst(), law, 1e6).unwrap();
        let nc = run_nc_uniform(&inst(), law).unwrap();
        assert!(rel_diff(nc_b.objective.fractional(), nc.objective.fractional()) < 1e-7);
    }

    #[test]
    fn cap_never_exceeded() {
        let law = pl(2.0);
        let s_max = 0.9;
        let (sched, _) = run_c_bounded(&inst(), law, s_max).unwrap();
        assert!(sched.max_speed() <= s_max * (1.0 + 4.0 * f64::EPSILON));
        let (sched, _) = run_nc_uniform_bounded(&inst(), law, s_max).unwrap();
        assert!(sched.max_speed() <= s_max + 1e-9);
    }

    #[test]
    fn tighter_cap_costs_more_flow_less_energy_rate() {
        let law = pl(3.0);
        let (_, loose) = run_c_bounded(&inst(), law, 5.0).unwrap();
        let (_, tight) = run_c_bounded(&inst(), law, 0.7).unwrap();
        // A binding cap delays everything.
        assert!(tight.objective.frac_flow > loose.objective.frac_flow);
        // And caps the instantaneous power (total energy may go either way;
        // the integral flow must rise).
        assert!(tight.objective.int_flow > loose.objective.int_flow);
    }

    #[test]
    fn energy_equality_exact_for_single_job_close_for_many() {
        // For a single job, the capped growth curve is the capped decay
        // curve in reverse, so the Lemma 3 energy equality is exact. On
        // multi-job instances the cap binds against *different* weight
        // levels in the two algorithms (C caps on total remaining weight,
        // NC per service stint), so the equality becomes approximate —
        // measured here at well under 1%.
        let law = pl(2.0);
        let single = Instance::new(vec![Job::unit_density(0.0, 2.0)]).unwrap();
        for s_max in [0.8, 1.5, 3.0] {
            let (_, c) = run_c_bounded(&single, law, s_max).unwrap();
            let (_, nc) = run_nc_uniform_bounded(&single, law, s_max).unwrap();
            assert!(
                rel_diff(c.objective.energy, nc.objective.energy) < 1e-7,
                "single job, s_max={s_max}: C {} vs NC {}",
                c.objective.energy,
                nc.objective.energy
            );
        }
        for s_max in [0.8, 1.5, 3.0] {
            let (_, c) = run_c_bounded(&inst(), law, s_max).unwrap();
            let (_, nc) = run_nc_uniform_bounded(&inst(), law, s_max).unwrap();
            assert!(
                rel_diff(c.objective.energy, nc.objective.energy) < 0.01,
                "multi-job, s_max={s_max}: C {} vs NC {}",
                c.objective.energy,
                nc.objective.energy
            );
        }
    }

    #[test]
    fn all_volume_processed() {
        let law = pl(2.5);
        let (sched, ev) = run_nc_uniform_bounded(&inst(), law, 1.1).unwrap();
        assert!(rel_diff(sched.total_volume(), inst().total_volume()) < 1e-9);
        for c in &ev.per_job.completion {
            assert!(c.is_finite());
        }
    }
}
