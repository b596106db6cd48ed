//! Closed-form evolution kernels for power-law speed scaling.
//!
//! Both algorithms in the paper set the machine's power equal to a weight
//! quantity `X(t)` that changes at rate `±ρ·s(t)` with `s = X^{1/α}`:
//!
//! * **Algorithm C** (clairvoyant): power = total *remaining* weight `W`,
//!   which decays: `dW/dt = −ρ W^{1/α}`, so `W^β` is linear in `t` with
//!   slope `−ρβ`, where `β = 1 − 1/α` (this is Lemma 2 of the paper).
//! * **Algorithm NC** (non-clairvoyant, uniform density): power = base +
//!   *processed* weight `U`, which grows: `dU/dt = +ρ U^{1/α}`, so `U^β` is
//!   linear with slope `+ρβ` — the clairvoyant power curve run in reverse
//!   (Figure 1b of the paper).
//!
//! These kernels give exact (machine-precision) values for the state, the
//! energy `∫P dt`, the processed volume `∫s dt`, and the *integral of the
//! processed volume* (needed for fractional flow-time accounting), plus the
//! inverse maps used for event scheduling. The ODE `dU/dt = U^{1/α}` has a
//! non-unique solution through `U = 0`; the closed form selects the
//! non-trivial branch, which is exactly the paper's power curve starting at
//! zero — a step-based integrator would get stuck at the fixed point, which
//! is why the kernels exist.

use crate::power::PowerLaw;

/// Everything a streaming event loop needs to know about one service
/// interval of a [`DecayKernel`], computed in one pass by
/// [`DecayKernel::serve`]: the values [`DecayKernel::weight_at`],
/// [`DecayKernel::energy`], [`DecayKernel::volume`] and
/// [`DecayKernel::volume_integral`] give at the interval's length, with the
/// shared sub-expressions evaluated once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayStep {
    /// Remaining weight at the end of the step, `W(τ)` (clamped at 0).
    pub w_end: f64,
    /// Energy consumed over the step, `∫₀^τ W dt`.
    pub energy: f64,
    /// Volume of the in-service job processed over the step.
    pub volume: f64,
    /// `∫₀^τ volume(x) dx`, for fractional flow-time accrual.
    pub volume_integral: f64,
}

/// The growth-side mirror of [`DecayStep`], produced by
/// [`GrowthKernel::serve_volume`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthStep {
    /// Power level at the end of the step, `u(τ)`.
    pub u_end: f64,
    /// Energy consumed over the step, `∫₀^τ u dt`.
    pub energy: f64,
    /// Volume processed over the step.
    pub volume: f64,
    /// `∫₀^τ volume(x) dx`.
    pub volume_integral: f64,
}

/// Outcome of [`DecayKernel::serve`]: one planned service interval, either
/// running to the job's completion or truncated at the caller's horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayServe {
    /// Duration actually served (`min(time-to-completion, dt)`).
    pub tau: f64,
    /// True when the job's remaining volume drained within `dt`.
    pub completes: bool,
    /// The fused step quantities over `tau`.
    pub step: DecayStep,
}

/// Outcome of [`GrowthKernel::serve_volume`]: the interval that processes a
/// fixed volume (a growth curve always completes it in finite time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthServe {
    /// Duration of the interval.
    pub tau: f64,
    /// The fused step quantities over `tau`.
    pub step: GrowthStep,
}

/// Decaying kernel: Algorithm C processing a job of density `rho` while the
/// total remaining active weight is `w0` at local time 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayKernel {
    /// Power function.
    pub law: PowerLaw,
    /// Weight at local time zero (must be > 0; a zero-weight machine idles).
    pub w0: f64,
    /// Density of the job being processed.
    pub rho: f64,
}

impl DecayKernel {
    /// Remaining weight after `tau` time units: `(w0^β − ρβτ)^{1/β}`,
    /// clamped at zero (the curve reaches zero in finite time).
    #[must_use]
    #[inline]
    pub fn weight_at(&self, tau: f64) -> f64 {
        let x = self.law.pow_beta(self.w0) - self.rho * self.law.beta() * tau;
        if x <= 0.0 {
            0.0
        } else {
            self.law.root_beta(x)
        }
    }

    /// Machine speed after `tau`: `W(τ)^{1/α}` (power = remaining weight).
    #[must_use]
    pub fn speed_at(&self, tau: f64) -> f64 {
        self.law.speed_for_power(self.weight_at(tau))
    }

    /// Local time at which the remaining weight reaches `w_target ≤ w0`.
    #[must_use]
    pub fn time_to_weight(&self, w_target: f64) -> f64 {
        debug_assert!(w_target <= self.w0 + 1e-12 * self.w0.abs());
        debug_assert!(w_target >= 0.0);
        (self.law.pow_beta(self.w0) - self.law.pow_beta(w_target)) / (self.rho * self.law.beta())
    }

    /// Time for the whole weight to drain to zero.
    #[must_use]
    pub fn time_to_empty(&self) -> f64 {
        self.time_to_weight(0.0)
    }

    /// Energy consumed in `[0, τ]`. Since power = weight,
    /// `∫P dt = ∫W dt = (w0^{1+β} − W(τ)^{1+β}) / (ρ(1+β))`.
    #[must_use]
    pub fn energy(&self, tau: f64) -> f64 {
        (self.law.pow_one_plus_beta(self.w0) - self.law.pow_one_plus_beta(self.weight_at(tau)))
            / (self.rho * self.law.one_plus_beta())
    }

    /// Volume of the processed job completed in `[0, τ]`: all weight drained
    /// belongs to the processed job, so `vol = (w0 − W(τ)) / ρ`.
    #[must_use]
    pub fn volume(&self, tau: f64) -> f64 {
        (self.w0 - self.weight_at(tau)) / self.rho
    }

    /// Local time at which the processed job has received `v` volume. A
    /// `v` of the whole weight `w0/ρ` can leave a target weight an ulp
    /// below 0; it is clamped to 0, as in [`Self::serve`].
    #[must_use]
    pub fn time_to_volume(&self, v: f64) -> f64 {
        self.time_to_weight((self.w0 - self.rho * v).max(0.0))
    }

    /// `∫₀^τ volume(x) dx`, the time-integral of the processed volume (used
    /// for exact fractional flow-time accrual of the in-service job).
    #[must_use]
    pub fn volume_integral(&self, tau: f64) -> f64 {
        (self.w0 * tau - self.energy(tau)) / self.rho
    }

    /// Time spent in `[0, τ]` with speed at least `x` (speed is decreasing).
    #[must_use]
    pub fn time_with_speed_at_least(&self, x: f64, tau: f64) -> f64 {
        let w_for_x = self.law.power(x);
        if w_for_x >= self.w0 {
            return 0.0;
        }
        self.time_to_weight(w_for_x.max(self.weight_at(tau))).min(tau)
    }

    /// Plan serving `rem` volume of the in-service job with at most `dt`
    /// time available, in one fused pass — the event loop's sole kernel
    /// entry point for Algorithm C.
    ///
    /// This is cheaper than `time_to_volume` followed by the individual
    /// methods because it exploits two identities:
    ///
    /// * the end weight on completion is **exact**: `W = w0 − ρ·rem` (no
    ///   `(·)^{1/β}` inversion of the linearized curve is ever needed);
    /// * `x^{1+β} = x · x^β`, so once `w0^β` and `W(τ)^β` are in hand the
    ///   energy needs no further power-kernel call.
    ///
    /// Per event that's 2 `pow_beta` calls when the job completes and
    /// 2 `pow_beta` + 1 `root_beta` when it is truncated at `dt`, versus 6+
    /// through the individual methods. The completing branch also makes
    /// `step.volume == rem` exactly, so callers can retire the job without
    /// a residual-volume epsilon.
    ///
    /// `rem` must satisfy `ρ·rem ≤ w0` up to accumulated rounding (the
    /// in-service job's weight is part of `w0`); small negative targets
    /// from drift are clamped to 0.
    #[must_use]
    #[inline]
    pub fn serve(&self, rem: f64, dt: f64) -> DecayServe {
        let wb0 = self.law.pow_beta(self.w0);
        let w_target = (self.w0 - self.rho * rem).max(0.0);
        let wbt = self.law.pow_beta(w_target);
        let rho_beta = self.rho * self.law.beta();
        let tau_c = (wb0 - wbt) / rho_beta;
        let inv_e = self.rho * self.law.one_plus_beta();
        if tau_c <= dt {
            let energy = (self.w0 * wb0 - w_target * wbt) / inv_e;
            DecayServe {
                tau: tau_c,
                completes: true,
                step: DecayStep {
                    w_end: w_target,
                    energy,
                    volume: rem,
                    volume_integral: (self.w0 * tau_c - energy) / self.rho,
                },
            }
        } else {
            // x = W(dt)^β on the linearized curve; reuse it for the energy
            // instead of re-deriving w_end^β. Overflowed inputs make x NaN
            // (inf − inf); keep propagating NaN so the caller's numeric
            // guard sees it, rather than feeding it to the kernel chains.
            let x = wb0 - rho_beta * dt;
            let w_end = if x > 0.0 {
                self.law.root_beta(x)
            } else if x.is_nan() {
                f64::NAN
            } else {
                0.0
            };
            let energy = (self.w0 * wb0 - w_end * x) / inv_e;
            DecayServe {
                tau: dt,
                completes: false,
                step: DecayStep {
                    w_end,
                    energy,
                    volume: (self.w0 - w_end) / self.rho,
                    volume_integral: (self.w0 * dt - energy) / self.rho,
                },
            }
        }
    }
}

/// Growing kernel: Algorithm NC processing a job of density `rho` with power
/// equal to `u(t) = base + processed weight`, starting from `u0` at local
/// time 0 (possibly `u0 = 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthKernel {
    /// Power function.
    pub law: PowerLaw,
    /// Power/weight level at local time zero (`≥ 0`).
    pub u0: f64,
    /// Density of the job being processed.
    pub rho: f64,
}

impl GrowthKernel {
    /// Power level after `tau`: `(u0^β + ρβτ)^{1/β}`.
    #[must_use]
    #[inline]
    pub fn u_at(&self, tau: f64) -> f64 {
        self.law
            .root_beta(self.law.pow_beta(self.u0) + self.rho * self.law.beta() * tau)
    }

    /// Machine speed after `tau`: `u(τ)^{1/α}`.
    #[must_use]
    pub fn speed_at(&self, tau: f64) -> f64 {
        self.law.speed_for_power(self.u_at(tau))
    }

    /// Local time at which the power level reaches `u_target ≥ u0`.
    #[must_use]
    pub fn time_to_u(&self, u_target: f64) -> f64 {
        debug_assert!(u_target + 1e-12 * u_target.abs() >= self.u0);
        (self.law.pow_beta(u_target) - self.law.pow_beta(self.u0)) / (self.rho * self.law.beta())
    }

    /// Energy consumed in `[0, τ]`: `(u(τ)^{1+β} − u0^{1+β}) / (ρ(1+β))`.
    #[must_use]
    pub fn energy(&self, tau: f64) -> f64 {
        (self.law.pow_one_plus_beta(self.u_at(tau)) - self.law.pow_one_plus_beta(self.u0))
            / (self.rho * self.law.one_plus_beta())
    }

    /// Volume processed in `[0, τ]`: `(u(τ) − u0) / ρ`.
    #[must_use]
    pub fn volume(&self, tau: f64) -> f64 {
        (self.u_at(tau) - self.u0) / self.rho
    }

    /// Local time at which the processed job has received `v` volume.
    #[must_use]
    pub fn time_to_volume(&self, v: f64) -> f64 {
        self.time_to_u(self.u0 + self.rho * v)
    }

    /// `∫₀^τ volume(x) dx`.
    #[must_use]
    pub fn volume_integral(&self, tau: f64) -> f64 {
        (self.energy(tau) - self.u0 * tau) / self.rho
    }

    /// Time spent in `[0, τ]` with speed at least `x` (speed is increasing).
    #[must_use]
    pub fn time_with_speed_at_least(&self, x: f64, tau: f64) -> f64 {
        let u_for_x = self.law.power(x);
        let u_end = self.u_at(tau);
        if u_for_x <= self.u0 {
            return tau;
        }
        if u_for_x >= u_end {
            return 0.0;
        }
        tau - self.time_to_u(u_for_x)
    }

    /// Plan the interval that processes exactly `v` volume, in one fused
    /// pass — the event loop's sole kernel entry point for Algorithm NC
    /// (a growth curve always finishes a finite volume in finite time).
    ///
    /// Exploits the same identities as [`DecayKernel::serve`]: the end
    /// level is exact (`u_end = u0 + ρ·v`), and `x^{1+β} = x·x^β` turns the
    /// energy into a multiply once `u0^β` and `u_end^β` are known. Two
    /// `pow_beta` calls per offer, no `root_beta`, and `step.volume == v`
    /// exactly. Returns a non-finite `tau` only if the inputs overflow.
    #[must_use]
    #[inline]
    pub fn serve_volume(&self, v: f64) -> GrowthServe {
        let ub0 = self.law.pow_beta(self.u0);
        let u_end = self.u0 + self.rho * v;
        let ube = self.law.pow_beta(u_end);
        let tau = (ube - ub0) / (self.rho * self.law.beta());
        let energy = (u_end * ube - self.u0 * ub0) / (self.rho * self.law.one_plus_beta());
        GrowthServe {
            tau,
            step: GrowthStep {
                u_end,
                energy,
                volume: v,
                volume_integral: (energy - self.u0 * tau) / self.rho,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;

    fn law(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    /// Numerically integrate `f` over `[0, tau]` with Simpson's rule.
    fn simpson(f: impl Fn(f64) -> f64, tau: f64, n: usize) -> f64 {
        let h = tau / n as f64;
        let mut s = f(0.0) + f(tau);
        for i in 1..n {
            let x = i as f64 * h;
            s += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        s * h / 3.0
    }

    #[test]
    fn decay_ode_satisfied() {
        // dW/dt = -rho * W^{1/alpha}, checked by finite differences.
        let k = DecayKernel { law: law(3.0), w0: 8.0, rho: 1.5 };
        for &tau in &[0.0, 0.3, 1.0] {
            let h = 1e-6;
            let dw = (k.weight_at(tau + h) - k.weight_at(tau - h).max(0.0)) / (2.0 * h);
            let expect = -k.rho * k.weight_at(tau).powf(1.0 / 3.0);
            assert!(approx_eq(dw, expect, 1e-5), "tau = {tau}: {dw} vs {expect}");
        }
    }

    #[test]
    fn growth_ode_satisfied() {
        let k = GrowthKernel { law: law(2.5), u0: 0.7, rho: 2.0 };
        for &tau in &[0.0, 0.4, 2.0] {
            let h = 1e-6;
            let du = (k.u_at(tau + h) - k.u_at(tau - h)) / (2.0 * h);
            let expect = k.rho * k.u_at(tau).powf(1.0 / 2.5);
            assert!(approx_eq(du, expect, 1e-5));
        }
    }

    #[test]
    fn decay_energy_matches_numeric_integral() {
        let k = DecayKernel { law: law(3.0), w0: 5.0, rho: 1.0 };
        let tau = 1.7;
        let numeric = simpson(|x| k.law.power(k.speed_at(x)), tau, 20_000);
        assert!(approx_eq(k.energy(tau), numeric, 1e-8));
    }

    #[test]
    fn growth_energy_matches_numeric_integral() {
        let k = GrowthKernel { law: law(2.0), u0: 0.0, rho: 1.0 };
        let tau = 2.3;
        let numeric = simpson(|x| k.law.power(k.speed_at(x)), tau, 20_000);
        assert!(approx_eq(k.energy(tau), numeric, 1e-8));
    }

    #[test]
    fn decay_volume_matches_numeric_integral_of_speed() {
        let k = DecayKernel { law: law(2.2), w0: 3.0, rho: 0.7 };
        let tau = 0.9;
        let numeric = simpson(|x| k.speed_at(x), tau, 20_000);
        assert!(approx_eq(k.volume(tau), numeric, 1e-8));
    }

    #[test]
    fn growth_volume_matches_numeric_integral_of_speed() {
        let k = GrowthKernel { law: law(3.0), u0: 1.0, rho: 1.3 };
        let tau = 1.1;
        let numeric = simpson(|x| k.speed_at(x), tau, 20_000);
        assert!(approx_eq(k.volume(tau), numeric, 1e-8));
    }

    #[test]
    fn decay_inverse_maps_roundtrip() {
        let k = DecayKernel { law: law(3.0), w0: 4.0, rho: 2.0 };
        let tau = 0.5;
        let w = k.weight_at(tau);
        assert!(approx_eq(k.time_to_weight(w), tau, 1e-10));
        let v = k.volume(tau);
        assert!(approx_eq(k.time_to_volume(v), tau, 1e-10));
    }

    #[test]
    fn growth_inverse_maps_roundtrip() {
        let k = GrowthKernel { law: law(2.0), u0: 0.3, rho: 0.5 };
        let tau = 2.0;
        assert!(approx_eq(k.time_to_u(k.u_at(tau)), tau, 1e-10));
        assert!(approx_eq(k.time_to_volume(k.volume(tau)), tau, 1e-10));
    }

    #[test]
    fn growth_from_zero_escapes_fixed_point() {
        // The non-trivial branch of du/dt = u^{1/alpha} through u(0) = 0.
        let k = GrowthKernel { law: law(3.0), u0: 0.0, rho: 1.0 };
        assert_eq!(k.u_at(0.0), 0.0);
        assert!(k.u_at(0.1) > 0.0);
        // Closed form: u = (beta * tau)^{1/beta}, beta = 2/3.
        let tau = 1.5;
        let base: f64 = 2.0 / 3.0 * tau;
        let expect = base.powf(1.5);
        assert!(approx_eq(k.u_at(tau), expect, 1e-12));
    }

    #[test]
    fn decay_reaches_zero_in_finite_time_and_clamps() {
        let k = DecayKernel { law: law(2.0), w0: 1.0, rho: 1.0 };
        let t_empty = k.time_to_empty();
        // beta = 1/2: t = w0^{1/2} / (rho/2) = 2.
        assert!(approx_eq(t_empty, 2.0, 1e-12));
        assert_eq!(k.weight_at(t_empty + 1.0), 0.0);
        assert_eq!(k.speed_at(t_empty + 1.0), 0.0);
    }

    #[test]
    fn volume_integral_matches_numeric() {
        let kd = DecayKernel { law: law(3.0), w0: 6.0, rho: 2.0 };
        let tau = 0.8;
        let numeric = simpson(|x| kd.volume(x), tau, 20_000);
        assert!(approx_eq(kd.volume_integral(tau), numeric, 1e-8));

        let kg = GrowthKernel { law: law(3.0), u0: 0.4, rho: 2.0 };
        let numeric = simpson(|x| kg.volume(x), tau, 20_000);
        assert!(approx_eq(kg.volume_integral(tau), numeric, 1e-8));
    }

    #[test]
    fn reverse_symmetry_of_curves() {
        // Figure 1 of the paper: the NC power curve is the C power curve in
        // reverse. Running decay from W and growth from 0 for the same
        // duration must consume identical energy and volume.
        let alpha = 3.0;
        let w = 5.0;
        let kd = DecayKernel { law: law(alpha), w0: w, rho: 1.0 };
        let t = kd.time_to_empty();
        let kg = GrowthKernel { law: law(alpha), u0: 0.0, rho: 1.0 };
        assert!(approx_eq(kg.u_at(t), w, 1e-10));
        assert!(approx_eq(kg.energy(t), kd.energy(t), 1e-10));
        assert!(approx_eq(kg.volume(t), kd.volume(t), 1e-10));
        // Pointwise time reversal of the power level.
        for &x in &[0.1, 0.5, 0.9] {
            let tau = x * t;
            assert!(approx_eq(kg.u_at(tau), kd.weight_at(t - tau), 1e-9));
        }
    }

    #[test]
    fn lemma2_identities() {
        // Lemma 2: a single job of weight W, density rho completed by C in
        // time t satisfies rho (1 - 1/alpha) t = W^{1 - 1/alpha} and
        // W / t = (1 - 1/alpha) dW/dt (magnitudes at the start of the run).
        for &(alpha, rho, w) in &[(2.0, 1.0, 3.0), (3.0, 2.0, 10.0), (1.5, 0.5, 1.0)] {
            let k = DecayKernel { law: law(alpha), w0: w, rho };
            let t = k.time_to_empty();
            let beta = 1.0 - 1.0 / alpha;
            assert!(approx_eq(rho * beta * t, w.powf(beta), 1e-10));
            let dw_dt = rho * w.powf(1.0 / alpha); // |dW/dt| at time 0
            assert!(approx_eq(w / t, beta * dw_dt, 1e-10));
        }
    }

    #[test]
    fn serve_agrees_with_individual_methods_and_completes_exactly() {
        for &alpha in &[1.5, 2.0, 2.5, 3.0, 2.75, 7.3] {
            let l = law(alpha);
            let kd = DecayKernel { law: l, w0: 6.0, rho: 1.3 };
            // Truncated at the horizon: the individual methods' numbers at dt.
            let rem = 4.0 / kd.rho; // more volume than a short dt can drain
            let sv = kd.serve(rem, 0.2);
            assert!(!sv.completes);
            assert_eq!(sv.tau, 0.2);
            assert!(approx_eq(sv.step.w_end, kd.weight_at(0.2), 1e-13), "α={alpha}");
            assert!(approx_eq(sv.step.energy, kd.energy(0.2), 1e-13), "α={alpha}");
            assert!(approx_eq(sv.step.volume, kd.volume(0.2), 1e-13), "α={alpha}");
            assert!(approx_eq(sv.step.volume_integral, kd.volume_integral(0.2), 1e-13));

            // Completing: volume and end weight are exact, tau matches the
            // inverse map, energy matches the τ-parameterized form.
            let rem = 1.75;
            let sv = kd.serve(rem, f64::INFINITY);
            assert!(sv.completes);
            assert_eq!(sv.step.volume, rem, "completion volume is exact");
            assert_eq!(sv.step.w_end, kd.w0 - kd.rho * rem, "end weight is exact");
            assert!(approx_eq(sv.tau, kd.time_to_volume(rem), 1e-12), "α={alpha}");
            assert!(approx_eq(sv.step.energy, kd.energy(sv.tau), 1e-10), "α={alpha}");

            // Growth side: serve_volume vs time_to_volume + the methods.
            let kg = GrowthKernel { law: l, u0: 0.4, rho: 2.0 };
            let v = 1.3;
            let gs = kg.serve_volume(v);
            assert_eq!(gs.step.volume, v);
            assert_eq!(gs.step.u_end, kg.u0 + kg.rho * v, "end level is exact");
            assert!(approx_eq(gs.tau, kg.time_to_volume(v), 1e-12), "α={alpha}");
            assert!(approx_eq(gs.step.energy, kg.energy(gs.tau), 1e-10), "α={alpha}");
            assert!(approx_eq(gs.step.volume_integral, kg.volume_integral(gs.tau), 1e-10));
        }
    }

    #[test]
    fn serve_handles_horizon_edge_cases() {
        let kd = DecayKernel { law: law(3.0), w0: 2.0, rho: 1.0 };
        // dt = 0 with volume left: nothing happens.
        let sv = kd.serve(1.0, 0.0);
        assert!(!sv.completes);
        assert_eq!(sv.step.volume, 0.0);
        assert_eq!(sv.step.energy, 0.0);
        assert_eq!(sv.step.w_end, kd.w0);
        // rem = 0: completes instantly.
        let sv = kd.serve(0.0, 0.0);
        assert!(sv.completes);
        assert_eq!(sv.tau, 0.0);
        // Draining the whole weight (single-job case): w_end exactly 0.
        let sv = kd.serve(2.0, f64::INFINITY);
        assert!(sv.completes);
        assert_eq!(sv.step.w_end, 0.0);
        // Growth from the u = 0 fixed point still escapes.
        let kg = GrowthKernel { law: law(3.0), u0: 0.0, rho: 1.0 };
        let gs = kg.serve_volume(1.0);
        assert!(gs.tau.is_finite() && gs.tau > 0.0);
        assert!(approx_eq(gs.tau, kg.time_to_volume(1.0), 1e-12));
    }

    #[test]
    fn speed_level_sets() {
        let k = DecayKernel { law: law(2.0), w0: 4.0, rho: 1.0 };
        let tau = k.time_to_empty();
        // Speed starts at 2 and decays to 0; time with speed >= 0 is all of it.
        assert!(approx_eq(k.time_with_speed_at_least(0.0, tau), tau, 1e-12));
        assert_eq!(k.time_with_speed_at_least(2.5, tau), 0.0);
        let half = k.time_with_speed_at_least(1.0, tau);
        assert!(half > 0.0 && half < tau);
        // Growth mirror.
        let g = GrowthKernel { law: law(2.0), u0: 0.0, rho: 1.0 };
        let gh = g.time_with_speed_at_least(1.0, tau);
        assert!(approx_eq(gh, tau - half, 1e-10));
    }
}
