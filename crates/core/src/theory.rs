//! The paper's theoretical constants, as executable formulas.
//!
//! Every bound the paper proves (or cites) is exposed here as a function of
//! the power-law exponent α, so experiments can print "theory vs measured"
//! columns from one source of truth. Citations refer to the numbering in the
//! SPAA 2015 extended abstract.

/// Theorem 1 (Bansal–Chan–Pruhs): Algorithm C is 2-competitive for
/// fractional weighted flow-time plus energy.
#[must_use]
pub fn c_fractional_bound() -> f64 {
    2.0
}

/// Bansal–Pruhs–Stein: the best known clairvoyant bound for *integral*
/// flow-time plus energy with unit densities is 4 (Table 1, first row).
#[must_use]
pub fn c_integral_unit_bound() -> f64 {
    4.0
}

/// Theorem 5: Algorithm NC with uniform densities is
/// `2 + 1/(α−1)`-competitive for the fractional objective.
#[must_use]
pub fn nc_uniform_fractional_bound(alpha: f64) -> f64 {
    2.0 + 1.0 / (alpha - 1.0)
}

/// Theorem 9: Algorithm NC with uniform densities is
/// `3 + 1/(α−1)`-competitive for the integral objective.
#[must_use]
pub fn nc_uniform_integral_bound(alpha: f64) -> f64 {
    3.0 + 1.0 / (alpha - 1.0)
}

/// Lemma 4: total fractional flow-time of NC equals that of C divided by
/// `1 − 1/α`; this is the exact ratio `F^{NC}/F^{C} = 1/(1−1/α)`.
#[must_use]
pub fn nc_over_c_flow_ratio(alpha: f64) -> f64 {
    1.0 / (1.0 - 1.0 / alpha)
}

/// Lemma 8 as *derived* in the paper's own proof: the integral flow-time of
/// an NC schedule is at most `1 + (1 − 1/α) = 2 − 1/α` times its fractional
/// flow-time.
///
/// Note: the extended abstract's lemma statement prints the constant as
/// `2 − 1/(α−1)`, but the displayed derivation concludes
/// `dF_int/dT ≤ (1 + (1 − 1/α)) dF/dT`, and only the derived constant is
/// consistent with Theorem 9 (`3 + 1/(α−1)`); we therefore verify
/// `2 − 1/α`. See DESIGN.md experiment E3.
#[must_use]
pub fn nc_integral_over_fractional_flow_bound(alpha: f64) -> f64 {
    2.0 - 1.0 / alpha
}

/// Chan et al.: non-clairvoyant *known-weight* bound `2α²/ln α` for
/// unweighted flow-time plus energy (Table 1 comparison column).
#[must_use]
pub fn known_weight_unit_bound(alpha: f64) -> f64 {
    2.0 * alpha * alpha / alpha.ln()
}

/// Lam et al.: `(2 − 1/α)²` for known weights when all jobs arrive at time
/// zero (Table 1 comparison column).
#[must_use]
pub fn known_weight_batch_bound(alpha: f64) -> f64 {
    let x = 2.0 - 1.0 / alpha;
    x * x
}

/// Section 4: the non-uniform-density NC bound is `2^{O(α)}`. The extended
/// abstract defers the constant to the full version; this returns the
/// indicative envelope `2^{α+2}` used purely as a plotting reference, never
/// as a pass/fail threshold.
#[must_use]
pub fn nc_nonuniform_indicative_bound(alpha: f64) -> f64 {
    2f64.powf(alpha + 2.0)
}

/// Minimum speed multiplier η for which the non-uniform Algorithm NC is
/// self-sustaining from a cold start.
///
/// For a single job of (rounded) density ρ starting from zero processed
/// weight, writing `γ = α/(α−1)`, the speed rule `s = η·s^{(C)}_{I(t)}(t)`
/// admits a power-law solution `w(t)^{1−1/α} = ρ(1−1/α)λt` with `λ > 1`
/// (i.e. Algorithm C on the current instance is still running at time `t`,
/// the paper's Property (A)) exactly when `λ^γ = η(λ−1)^{γ−1}` has a root
/// `λ > 1`. Maximising the right-hand side over λ shows a root exists iff
///
/// ```text
/// η ≥ γ^γ / (γ−1)^{γ−1},   γ = α/(α−1).
/// ```
///
/// Below this threshold the algorithm degenerates to its ε bootstrap speed
/// (the current-instance C run finishes before "now" and reports speed 0).
/// The extended abstract defers the choice of η to the full version; this
/// threshold reproduces why the non-uniform competitive ratio is `2^{O(α)}`:
/// the energy overhead is `η^α`. Note `γ → 1` as `α → ∞`, so the threshold
/// tends to 1, while for `α → 1+` it blows up.
#[must_use]
pub fn nonuniform_eta_min(alpha: f64) -> f64 {
    let gamma = alpha / (alpha - 1.0);
    gamma.powf(gamma) / (gamma - 1.0).powf(gamma - 1.0)
}

/// Theorem 17: NC-PAR is `O(α + 1/(α−1))`-competitive on identical parallel
/// machines. We expose the explicit combination obtained by composing
/// Theorem 18 (`O(α)` for C-PAR, with the constant from Anand–Garg–Kumar
/// taken as 1) with Lemmas 21–22: `(1 + 1/(1−1/α)) · α`.
#[must_use]
pub fn nc_par_indicative_bound(alpha: f64) -> f64 {
    (1.0 + nc_over_c_flow_ratio(alpha) / 2.0) * alpha
}

/// Section 6: exponent of the immediate-dispatch lower bound `Ω(k^{1−1/α})`.
#[must_use]
pub fn immediate_dispatch_lb_exponent(alpha: f64) -> f64 {
    1.0 - 1.0 / alpha
}

/// Lemma 15: cost factor of the fractional-to-integral reduction at
/// speed-up `1 + ε`: `max((1+ε)^α, 1 + 1/ε)`.
#[must_use]
pub fn reduction_factor(alpha: f64, epsilon: f64) -> f64 {
    (1.0 + epsilon).powf(alpha).max(1.0 + 1.0 / epsilon)
}

/// The ε minimising [`reduction_factor`], found at the crossing
/// `(1+ε)^α = 1 + 1/ε` (the max of an increasing and a decreasing function).
#[must_use]
pub fn optimal_reduction_epsilon(alpha: f64) -> f64 {
    // The bracket is guaranteed for every finite α > 1 (negative at 1e-6,
    // positive at 1e6); a non-finite α yields NaN, matching the other pure
    // math helpers in this module.
    ncss_sim::numeric::bisect(|e| (1.0 + e).powf(alpha) - (1.0 + 1.0 / e), 1e-6, 1e6, 1e-12)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::numeric::approx_eq;

    #[test]
    fn uniform_bounds_at_cube_law() {
        assert!(approx_eq(nc_uniform_fractional_bound(3.0), 2.5, 1e-12));
        assert!(approx_eq(nc_uniform_integral_bound(3.0), 3.5, 1e-12));
        assert!(approx_eq(nc_over_c_flow_ratio(3.0), 1.5, 1e-12));
        assert!(approx_eq(nc_integral_over_fractional_flow_bound(3.0), 5.0 / 3.0, 1e-12));
    }

    #[test]
    fn nc_beats_clairvoyant_integral_for_large_alpha() {
        // Footnote 3: 3 + 1/(α−1) < 4 for α > 2.
        assert!(nc_uniform_integral_bound(2.0 + 1e-9) < c_integral_unit_bound() + 1e-6);
        assert!(nc_uniform_integral_bound(3.0) < c_integral_unit_bound());
        assert!(nc_uniform_integral_bound(1.5) > c_integral_unit_bound());
    }

    #[test]
    fn reduction_factor_shape() {
        // Increasing part dominates for large ε, waiting part for small ε.
        assert!(reduction_factor(3.0, 10.0) > reduction_factor(3.0, 0.5));
        assert!(reduction_factor(3.0, 1e-3) > reduction_factor(3.0, 0.5));
    }

    #[test]
    fn optimal_epsilon_is_the_crossing() {
        for &alpha in &[2.0, 3.0, 5.0] {
            let e = optimal_reduction_epsilon(alpha);
            assert!(approx_eq((1.0 + e).powf(alpha), 1.0 + 1.0 / e, 1e-6), "alpha = {alpha}");
            // It is a minimum: nudging either way cannot decrease the factor.
            let f = reduction_factor(alpha, e);
            assert!(reduction_factor(alpha, e * 1.1) >= f - 1e-9);
            assert!(reduction_factor(alpha, e * 0.9) >= f - 1e-9);
        }
    }

    #[test]
    fn eta_min_values() {
        // gamma = 2 at alpha = 2: threshold 2^2/1 = 4.
        assert!(approx_eq(nonuniform_eta_min(2.0), 4.0, 1e-12));
        // gamma = 1.5 at alpha = 3: 1.5^1.5 / 0.5^0.5 ≈ 2.598.
        assert!(approx_eq(nonuniform_eta_min(3.0), 1.5f64.powf(1.5) / 0.5f64.sqrt(), 1e-12));
        // Monotone decreasing in alpha, tending to 1.
        assert!(nonuniform_eta_min(2.0) > nonuniform_eta_min(3.0));
        assert!(nonuniform_eta_min(10.0) > 1.0 && nonuniform_eta_min(10.0) < 2.0);
        // At the threshold, lambda = gamma solves lambda^g = eta (lambda-1)^(g-1).
        let alpha = 2.5;
        let g = alpha / (alpha - 1.0);
        let eta = nonuniform_eta_min(alpha);
        assert!(approx_eq(g.powf(g), eta * (g - 1.0).powf(g - 1.0), 1e-12));
    }

    #[test]
    fn lb_exponent_monotone_in_alpha() {
        assert!(immediate_dispatch_lb_exponent(3.0) > immediate_dispatch_lb_exponent(2.0));
        assert!(approx_eq(immediate_dispatch_lb_exponent(2.0), 0.5, 1e-12));
    }

    #[test]
    fn indicative_bounds_are_sane() {
        // NC-PAR's indicative bound dominates the exact NC/C cost factor
        // (1 + 1/(1-1/alpha))/2 times the O(alpha) comparator constant.
        for alpha in [2.0, 3.0, 4.0] {
            let exact_factor = 0.5 * (1.0 + nc_over_c_flow_ratio(alpha));
            assert!(nc_par_indicative_bound(alpha) >= exact_factor);
            assert!(nc_par_indicative_bound(alpha) >= alpha);
        }
        // The non-uniform envelope 2^{alpha+2} doubles per unit of alpha.
        assert!((nc_nonuniform_indicative_bound(4.0) - 2.0 * nc_nonuniform_indicative_bound(3.0)).abs() < 1e-9);
    }

    #[test]
    fn comparison_column_values() {
        // Spot values used in Table 1 rendering.
        assert!(approx_eq(known_weight_batch_bound(2.0), 2.25, 1e-12));
        assert!(known_weight_unit_bound(3.0) > 16.0); // 18/ln 3 ≈ 16.4
    }
}
