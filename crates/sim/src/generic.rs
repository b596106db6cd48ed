//! General (non-`s^α`) power functions and their evolution kernels.
//!
//! The paper notes that Lemmas 3 and 6 — energy equality and the
//! measure-preserving speed mapping between Algorithms C and NC — hold for
//! *every* monotone convex power function, while Lemma 4's exact flow-time
//! ratio needs the `s^α` form. This module makes that statement executable:
//! [`PolyPower`] models positive combinations `P(s) = Σ aᵢ s^{αᵢ}` with all
//! exponents `> 1` (so jobs still finish in finite time), and the kernels
//! below evaluate the same quantities as [`crate::kernel`] by quadrature.
//!
//! Everything is phrased as integrals in the weight variable: with
//! `s(W) = P⁻¹(W)`,
//!
//! ```text
//! time     = ∫ dW / (ρ·s(W))        energy = ∫ W dW / (ρ·s(W))
//! volume   = ΔW / ρ                 ∫vol dt = ∫ (w₀−W) dW / (ρ²·s(W))
//! ```
//!
//! The time integrand has an integrable singularity at `W = 0`
//! (`s(W) ~ W^{1/α}`); the substitution `W = x^p` with a sufficiently large
//! `p` removes it before Simpson integration.

use crate::error::{SimError, SimResult};
use crate::power::PowerLaw;

/// A power function `P(s) = Σ aᵢ · s^{αᵢ}` with `aᵢ > 0`, `αᵢ > 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct PolyPower {
    terms: Vec<(f64, f64)>, // (coefficient, exponent)
}

impl PolyPower {
    /// Build from `(coefficient, exponent)` terms; every coefficient must
    /// be positive and every exponent `> 1`.
    pub fn new(terms: Vec<(f64, f64)>) -> SimResult<Self> {
        if terms.is_empty() {
            return Err(SimError::InvalidInstance { reason: "power function needs at least one term" });
        }
        for &(a, e) in &terms {
            if !(a.is_finite() && a > 0.0 && e.is_finite() && e > 1.0) {
                return Err(SimError::InvalidAlpha { alpha: e });
            }
        }
        Ok(Self { terms })
    }

    /// The pure power law `a · s^α` as a [`PolyPower`].
    pub fn from_power_law(law: PowerLaw) -> Self {
        Self { terms: vec![(1.0, law.alpha())] }
    }

    /// Smallest exponent (governs the behaviour near `s = 0`).
    #[must_use]
    pub fn min_exponent(&self) -> f64 {
        self.terms.iter().map(|&(_, e)| e).fold(f64::INFINITY, f64::min)
    }

    /// `P(s)`.
    #[must_use]
    pub fn power(&self, s: f64) -> f64 {
        debug_assert!(s >= 0.0);
        self.terms.iter().map(|&(a, e)| a * s.powf(e)).sum()
    }

    /// `P'(s)`.
    #[must_use]
    pub fn power_deriv(&self, s: f64) -> f64 {
        self.terms.iter().map(|&(a, e)| a * e * s.powf(e - 1.0)).sum()
    }

    /// `P⁻¹(p)`: the speed at power `p` (monotone; safeguarded Newton —
    /// this sits in the inner loop of every quadrature, so it must be
    /// cheap).
    #[must_use]
    pub fn speed_for_power(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        // Initial guess from the dominant term; P is convex and
        // increasing, so Newton from any positive point converges, with a
        // multiplicative clamp as a safety net.
        let &(a, e) = self
            .terms
            .iter()
            .max_by(|x, y| x.0.partial_cmp(&y.0).expect("finite"))
            .expect("non-empty");
        let mut s = (p / a).powf(1.0 / e).max(1e-300);
        for _ in 0..64 {
            let f = self.power(s) - p;
            if f.abs() <= 1e-13 * p {
                return s;
            }
            let d = self.power_deriv(s);
            let next = s - f / d;
            s = if next > 0.0 { next } else { s * 0.5 };
        }
        s
    }
}

/// Number of Simpson panels used by the kernels (even).
const PANELS: usize = 800;

/// `∫_0^{b} f(W) dW` with an integrable singularity at `W = 0`, via the
/// substitution `W = x^p` (then Simpson on the regularised integrand).
fn integrate_from_zero(f: &impl Fn(f64) -> f64, b: f64, p: f64) -> f64 {
    if b <= 0.0 {
        return 0.0;
    }
    let top = b.powf(1.0 / p);
    let g = |x: f64| {
        if x <= 0.0 {
            0.0
        } else {
            f(x.powf(p)) * p * x.powf(p - 1.0)
        }
    };
    simpson(g, 0.0, top)
}

fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64) -> f64 {
    let h = (b - a) / PANELS as f64;
    let mut acc = f(a) + f(b);
    for i in 1..PANELS {
        let x = a + h * i as f64;
        acc += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    acc * h / 3.0
}

/// Smooth (non-singular) integral over `[a, b]` in the weight variable.
fn integrate(f: &impl Fn(f64) -> f64, a: f64, b: f64) -> f64 {
    if b <= a {
        return 0.0;
    }
    simpson(f, a, b)
}

/// Regularising exponent for the `1/s(W)` singularity: needs
/// `p (1 − 1/α_min) > 1` with margin.
fn reg_exponent(pf: &PolyPower) -> f64 {
    let beta_min = 1.0 - 1.0 / pf.min_exponent();
    (2.0 / beta_min).max(3.0)
}

/// Decaying kernel under a general power function: total remaining weight
/// `W` with `dW/dt = −ρ·P⁻¹(W)` from `w0`.
#[derive(Debug, Clone)]
pub struct GenericDecay<'a> {
    /// The power function.
    pub pf: &'a PolyPower,
    /// Initial weight.
    pub w0: f64,
    /// Density of the processed job.
    pub rho: f64,
}

impl GenericDecay<'_> {
    /// Time for the weight to drop from `w0` to `w_target`.
    #[must_use]
    pub fn time_to_weight(&self, w_target: f64) -> f64 {
        let f = |w: f64| 1.0 / (self.rho * self.pf.speed_for_power(w));
        let p = reg_exponent(self.pf);
        integrate_from_zero(&f, self.w0, p) - integrate_from_zero(&f, w_target, p)
    }

    /// Weight after `tau` (inverse of [`Self::time_to_weight`], monotone).
    #[must_use]
    pub fn weight_at(&self, tau: f64) -> f64 {
        if tau <= 0.0 {
            return self.w0;
        }
        // `time_to_weight(w)` is `top − ∫₀^w`, with the same `top` at every
        // bisection step, and `time_to_weight(0) = top − 0`.
        let f = |w: f64| 1.0 / (self.rho * self.pf.speed_for_power(w));
        let p = reg_exponent(self.pf);
        let top = integrate_from_zero(&f, self.w0, p);
        if tau >= top {
            return 0.0;
        }
        // The bracket [0, w0] is valid by the monotonicity of
        // `time_to_weight` and the range checks above, so the root finder
        // can only fail if the quadrature itself produced NaN; surface that
        // as NaN and let the run-level finiteness guards reject it.
        crate::numeric::bisect(|w| top - integrate_from_zero(&f, w, p) - tau, 0.0, self.w0, 1e-12 * (1.0 + self.w0))
            .unwrap_or(f64::NAN)
    }

    /// Energy released while the weight drops from `w0` to `w_target`
    /// (power = weight, so `∫P dt = ∫W dt`).
    #[must_use]
    pub fn energy_to_weight(&self, w_target: f64) -> f64 {
        // Integrand W/(rho s(W)) is bounded near 0; no substitution needed,
        // but reuse it for uniform accuracy near the endpoint.
        let f = |w: f64| w / (self.rho * self.pf.speed_for_power(w));
        let p = reg_exponent(self.pf);
        integrate_from_zero(&f, self.w0, p) - integrate_from_zero(&f, w_target, p)
    }

    /// Time-integral of the processed volume while the weight drops to
    /// `w_target`: `∫ vol dt = ∫ (w0 − W) dW / (ρ² s(W))`.
    #[must_use]
    pub fn volume_integral_to_weight(&self, w_target: f64) -> f64 {
        let f = |w: f64| (self.w0 - w) / (self.rho * self.rho * self.pf.speed_for_power(w));
        let p = reg_exponent(self.pf);
        integrate_from_zero(&f, self.w0, p) - integrate_from_zero(&f, w_target, p)
    }

    /// Time spent at speed ≥ `x` before the weight reaches `w_target`.
    #[must_use]
    pub fn time_with_speed_at_least(&self, x: f64, w_target: f64) -> f64 {
        let w_for_x = self.pf.power(x);
        if w_for_x >= self.w0 {
            return 0.0;
        }
        self.time_to_weight(w_for_x.max(w_target)).max(0.0)
    }
}

/// Growing kernel under a general power function: power level `u` with
/// `du/dt = +ρ·P⁻¹(u)` from `u0`.
#[derive(Debug, Clone)]
pub struct GenericGrowth<'a> {
    /// The power function.
    pub pf: &'a PolyPower,
    /// Initial power level (≥ 0).
    pub u0: f64,
    /// Density of the processed job.
    pub rho: f64,
}

impl GenericGrowth<'_> {
    /// Time for the level to rise from `u0` to `u_target`: the time the
    /// decay from `u_target` takes to fall back to `u0`.
    #[must_use]
    pub fn time_to_u(&self, u_target: f64) -> f64 {
        GenericDecay { pf: self.pf, w0: u_target, rho: self.rho }.time_to_weight(self.u0)
    }

    /// Energy consumed while the level rises to `u_target`: that decay's.
    #[must_use]
    pub fn energy_to_u(&self, u_target: f64) -> f64 {
        GenericDecay { pf: self.pf, w0: u_target, rho: self.rho }.energy_to_weight(self.u0)
    }

    /// Time-integral of the processed volume while rising to `u_target`:
    /// `∫ vol dt = ∫ (u − u0) du / (ρ² s(u))`.
    #[must_use]
    pub fn volume_integral_to_u(&self, u_target: f64) -> f64 {
        let f = |u: f64| (u - self.u0) / (self.rho * self.rho * self.pf.speed_for_power(u));
        let p = reg_exponent(self.pf);
        if self.u0 == 0.0 {
            integrate_from_zero(&f, u_target, p)
        } else {
            integrate(&f, self.u0, u_target)
        }
    }

    /// Time spent at speed ≥ `x` before the level reaches `u_target`.
    #[must_use]
    pub fn time_with_speed_at_least(&self, x: f64, u_target: f64) -> f64 {
        let u_for_x = self.pf.power(x);
        if u_for_x >= u_target {
            return 0.0;
        }
        self.time_to_u(u_target) - self.time_to_u(u_for_x.max(self.u0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{DecayKernel, GrowthKernel};
    use crate::numeric::approx_eq;

    fn cube() -> PolyPower {
        PolyPower::from_power_law(PowerLaw::cube())
    }

    fn mixed() -> PolyPower {
        PolyPower::new(vec![(1.0, 3.0), (0.5, 2.0)]).unwrap()
    }

    #[test]
    fn validation() {
        assert!(PolyPower::new(vec![]).is_err());
        assert!(PolyPower::new(vec![(1.0, 1.0)]).is_err());
        assert!(PolyPower::new(vec![(-1.0, 2.0)]).is_err());
        assert!(PolyPower::new(vec![(1.0, 2.0), (0.1, 1.5)]).is_ok());
    }

    #[test]
    fn inverse_roundtrip() {
        let pf = mixed();
        for &s in &[0.01, 0.5, 1.0, 7.0] {
            let p = pf.power(s);
            assert!(approx_eq(pf.speed_for_power(p), s, 1e-9), "s = {s}");
        }
        assert_eq!(pf.speed_for_power(0.0), 0.0);
    }

    #[test]
    fn deriv_matches_finite_difference() {
        let pf = mixed();
        let s = 1.3;
        let h = 1e-6;
        let fd = (pf.power(s + h) - pf.power(s - h)) / (2.0 * h);
        assert!(approx_eq(pf.power_deriv(s), fd, 1e-7));
    }

    #[test]
    fn decay_matches_closed_form_for_pure_power_law() {
        // Single-term PolyPower must agree with the exact kernel.
        let law = PowerLaw::cube();
        let pf = cube();
        let (w0, rho) = (5.0, 1.3);
        let exact = DecayKernel { law, w0, rho };
        let gen = GenericDecay { pf: &pf, w0, rho };
        for &wt in &[4.0, 2.0, 0.5, 0.0] {
            assert!(
                approx_eq(gen.time_to_weight(wt), exact.time_to_weight(wt), 1e-6),
                "time to {wt}: {} vs {}",
                gen.time_to_weight(wt),
                exact.time_to_weight(wt)
            );
            let tau = exact.time_to_weight(wt);
            assert!(approx_eq(gen.energy_to_weight(wt), exact.energy(tau), 1e-6));
            assert!(approx_eq(gen.volume_integral_to_weight(wt), exact.volume_integral(tau), 1e-6));
        }
        // Inverse map.
        let tau = exact.time_to_weight(1.7);
        assert!(approx_eq(gen.weight_at(tau), 1.7, 1e-6));
    }

    #[test]
    fn growth_matches_closed_form_for_pure_power_law() {
        let law = PowerLaw::new(2.0).unwrap();
        let pf = PolyPower::from_power_law(law);
        let (u0, rho) = (0.0, 0.8);
        let exact = GrowthKernel { law, u0, rho };
        let gen = GenericGrowth { pf: &pf, u0, rho };
        for &ut in &[0.5, 2.0, 6.0] {
            let t_exact = exact.time_to_u(ut);
            assert!(approx_eq(gen.time_to_u(ut), t_exact, 1e-6));
            assert!(approx_eq(gen.energy_to_u(ut), exact.energy(t_exact), 1e-6));
            assert!(approx_eq(gen.volume_integral_to_u(ut), exact.volume_integral(t_exact), 1e-6));
        }
    }

    #[test]
    fn decay_growth_time_reversal_for_general_p() {
        // The reverse-curve identity behind Lemma 3 holds for any P: the
        // time/energy to decay w -> 0 equals the time/energy to grow 0 -> w.
        let pf = mixed();
        let (w, rho) = (3.0, 1.0);
        let d = GenericDecay { pf: &pf, w0: w, rho };
        let g = GenericGrowth { pf: &pf, u0: 0.0, rho };
        assert!(approx_eq(d.time_to_weight(0.0), g.time_to_u(w), 1e-8));
        assert!(approx_eq(d.energy_to_weight(0.0), g.energy_to_u(w), 1e-8));
        // Level sets agree too (Lemma 6 at the kernel level).
        for &x in &[0.2, 0.7, 1.1] {
            assert!(approx_eq(
                d.time_with_speed_at_least(x, 0.0),
                g.time_with_speed_at_least(x, w),
                1e-7
            ));
        }
    }

    #[test]
    fn weight_at_is_the_per_step_bisection_bitwise() {
        // `weight_at` as it was: every bisection step calls `time_to_weight`,
        // which integrates from zero to `w0` again.
        fn per_step(d: &GenericDecay<'_>, tau: f64) -> f64 {
            if tau <= 0.0 {
                return d.w0;
            }
            if tau >= d.time_to_weight(0.0) {
                return 0.0;
            }
            crate::numeric::bisect(|w| d.time_to_weight(w) - tau, 0.0, d.w0, 1e-12 * (1.0 + d.w0))
                .unwrap_or(f64::NAN)
        }
        let (cube, mix) = (cube(), mixed());
        for (pf, w0, rho) in [(&mix, 4.0, 1.0), (&mix, 0.3, 2.5), (&cube, 7.5, 0.8)] {
            let d = GenericDecay { pf, w0, rho };
            let total = d.time_to_weight(0.0);
            for i in 0..=12 {
                let tau = total * (i as f64 / 10.0 - 0.1);
                assert_eq!(d.weight_at(tau).to_bits(), per_step(&d, tau).to_bits(), "w0 {w0}, tau {tau}");
            }
        }
    }

    #[test]
    fn mixed_power_decays_faster_than_cube_alone() {
        // Adding a positive s^2 term raises power at every speed, so the
        // decay at equal power target runs at lower speed... but the speed
        // for a given power is *smaller*, hence decay takes longer.
        let cube_pf = cube();
        let mix = mixed();
        let d_cube = GenericDecay { pf: &cube_pf, w0: 4.0, rho: 1.0 };
        let d_mix = GenericDecay { pf: &mix, w0: 4.0, rho: 1.0 };
        assert!(d_mix.time_to_weight(0.0) > d_cube.time_to_weight(0.0));
    }
}
