//! Closed-form segment integrals — the audit's analytic fast path.
//!
//! Every speed law a [`Segment`] can carry (`Idle`, `Constant`, and the
//! `W^{1−1/α}`-linear `Decay`/`Growth` power-law kernels) admits exact
//! antiderivatives under `P(s) = s^α`, so the audit does not need generic
//! quadrature for them: energy, processed volume, the volume inverse used
//! for completion re-derivation, and the `(c − t)`-weighted speed integral
//! behind fractional flow are all evaluated here analytically.
//!
//! ## Independence
//!
//! The formulas below are re-derived from the segment's *law parameters*
//! (Lemma 2 of the paper: with `β = 1 − 1/α`, the weight's `β`-th power is
//! linear in time), deliberately **not** by calling the simulator's
//! `ncss_sim::kernel` integrators, so an algebra slip in the simulators
//! cannot silently certify itself. Scalar exponentiation, however, routes
//! through the run's compiled [`PowKernel`](ncss_sim::PowKernel) strategy
//! (`pl.pow_beta`, `pl.power`, …) — the audit must evaluate `x^β` with the
//! *same* primitive the schedulers used, or the differential oracles stop
//! being bitwise within a run. The math is of course the same math — which
//! is why the audit keeps a *sampled quadrature cross-check tier*: every
//! `cross_check_stride`-th integral in an audit is still measured by
//! tanh-sinh quadrature of the pointwise speed/power curve
//! ([`crate::quad::integrate`]), so a shared-formula (or shared-kernel)
//! error would surface as a mismatch between the sampled and analytic
//! values inside the very same check. The quadrature reads each segment
//! through its compiled [`SpeedCurve`](ncss_sim::SpeedCurve) (the
//! segment-constant `X0^β` and `ρβ` evaluated once, bitwise the pointwise
//! `Segment::speed_at`), and stops at the first nested tanh–sinh level
//! that agrees with the previous one to `1e-12` relative: on the audit's
//! curves almost every cross-check costs 51 curve evaluations, against one
//! closed form here. Generic laws without closed forms (none today) would
//! fall back to full quadrature.
//!
//! The scale factor `k` of a segment multiplies speed pointwise, so volume
//! scales by `k` and energy by `k^α`; all functions here handle it.
//!
//! ## Numerical form
//!
//! Everything is phrased in the dimensionless *drained fraction*
//! `y = ρβτ / X^β` of the linear-in-time quantity `X^β` (`X = w0` or
//! `u0`), and the factors `1 − (1−y)^p` / `(1+y)^p − 1` are computed via
//! `exp_m1`/`ln_1p` rather than as differences of two `powf` results.
//! The naive difference cancels catastrophically when `y ≪ 1` (a short
//! segment of a heavy job) and the error is amplified again in the
//! flow-time integral `∫ V dτ`, where the leading terms of `w0·τ` and the
//! energy integral cancel; the stable form keeps every function here
//! within a few ulp of exact across magnitudes `1e±150` (property-tested
//! against quadrature to `1e-12` relative in
//! `tests/closed_form_quadrature.rs`).

use ncss_sim::{PowerLaw, Segment, SpeedLaw};

/// `1 − (1−y)^p` without cancellation for small `y` (callers clamp
/// `y ≤ 1`; `ln_1p(−1) = −∞` makes `y = 1` return exactly `1`).
fn one_minus_pow1m(y: f64, p: f64) -> f64 {
    -f64::exp_m1(p * f64::ln_1p(-y))
}

/// `(1+y)^p − 1` without cancellation for small `y`.
fn powp1_minus_one(y: f64, p: f64) -> f64 {
    f64::exp_m1(p * f64::ln_1p(y))
}

/// Dimensionless flow-integral ratio `VI/(V·T) = ∫₀¹ φ(y·s) ds / φ(y)`
/// with `φ(x) = 1 − (1−x)^p` (decay, `sign = −1`) or `(1+x)^p − 1`
/// (growth, `sign = +1`), evaluated by power series.
///
/// Both series share the leading term `p·y`, which is factored out, so
/// the ratio is a quotient of two sums that start at `1/2` and `1` — no
/// intermediate ever leaves the unit scale. The closed forms cancel at
/// order `y` (and reach 0/0 = NaN once `y²` underflows), which is
/// exactly the sliver-segment regime ulp-level scheduling noise
/// produces; the series limit at `y → 0` is exactly `1/2`. Callers only
/// enter here for `p·|y| < 1/2`, where the term ratio is below `1/4`
/// and 64 iterations are far beyond f64 exhaustion.
fn vi_ratio_series(y: f64, p: f64, sign: f64) -> f64 {
    let mut term = 1.0; // u_k = t_k / (p·y·sign^{k+1}), u_1 = 1
    let mut num = 0.5; // Σ u_k / (k+1)
    let mut den = 1.0; // Σ u_k
    for k in 1..64 {
        let kf = k as f64;
        term *= (p - kf) * sign * y / (kf + 1.0);
        num += term / (kf + 2.0);
        den += term;
        if term.abs() <= f64::EPSILON * den.abs() {
            break;
        }
    }
    num / den
}

/// Volume processed in `[0, τ]` by growth from level zero:
/// `u(τ)/ρ = (ρβτ)^{1/β}/ρ`, factored as `ρ^{1/(α−1)}·(βτ)^{1/β}` (note
/// `(1−β)/β = 1/(α−1)`) so the level `u(τ)` — which can be subnormal or
/// overflow while the *volume* is perfectly representable — never appears
/// as an intermediate.
fn zero_growth_volume(pl: PowerLaw, rho: f64, tau: f64) -> f64 {
    pl.root_alpha_m1(rho) * pl.root_beta(pl.beta() * tau)
}

/// Processed volume over the whole segment: `∫ k·s(t) dt`.
///
/// * Constant `s`: `k·s·τ`.
/// * Decay from `w0` at density `ρ`: `k·(w0 − W(τ))/ρ` with
///   `W(τ) = (w0^β − ρβτ)^{1/β}` clamped at zero.
/// * Growth from `u0` at density `ρ`: `k·(u(τ) − u0)/ρ` with
///   `u(τ) = (u0^β + ρβτ)^{1/β}`.
#[must_use]
pub fn volume(pl: PowerLaw, seg: &Segment) -> f64 {
    volume_over(pl, seg, seg.duration())
}

/// Processed volume over `[seg.start, seg.start + tau]` (`tau` clamped to
/// the segment duration).
#[must_use]
pub fn volume_over(pl: PowerLaw, seg: &Segment, tau: f64) -> f64 {
    let tau = tau.clamp(0.0, seg.duration());
    let b = pl.beta();
    let base = match seg.law {
        SpeedLaw::Idle => 0.0,
        SpeedLaw::Constant { speed } => speed * tau,
        SpeedLaw::Decay { w0, rho } => {
            // Drained fraction of w0^β; ≥ 1 means the job empties inside
            // [0, tau] (the W = 0 clamp). NaN drains (w0 = tau = 0) take
            // the min to 1 and the w0 factor makes the volume 0.
            let y = (rho * b * tau / pl.pow_beta(w0)).min(1.0);
            (w0 / rho) * one_minus_pow1m(y, 1.0 / b)
        }
        SpeedLaw::Growth { u0, rho } => {
            if u0 <= 0.0 {
                zero_growth_volume(pl, rho, tau)
            } else {
                let y = rho * b * tau / pl.pow_beta(u0);
                (u0 / rho) * powp1_minus_one(y, 1.0 / b)
            }
        }
    };
    seg.scale * base
}

/// Energy over the whole segment: `∫ (k·s(t))^α dt = k^α ∫ s^α dt`.
///
/// Power equals the weight level for both kernels, so the energy is the
/// antiderivative of the linear-in-`t` quantity `X^β` raised to `1/β + 1`:
/// `(X_start^{1+β} − X_end^{1+β}) / (ρ(1+β))` (sign per direction).
#[must_use]
pub fn energy(pl: PowerLaw, seg: &Segment) -> f64 {
    let tau = seg.duration();
    let b = pl.beta();
    let q = (1.0 + b) / b;
    // Power equals the weight/level itself for both kernels (speed is
    // X^{1/α}), so the energy is `X·τ` times a dimensionless mean-level
    // factor in (0, 1] — a form whose intermediates stay at the result's
    // own scale. (`X^{1+β}/ρ`-style products under/overflow for
    // magnitudes whose result is perfectly representable.) The
    // `0.0 * X * tau` zero branches propagate NaN inputs.
    let base = match seg.law {
        SpeedLaw::Idle => 0.0,
        SpeedLaw::Constant { speed } => pl.power(speed) * tau,
        SpeedLaw::Decay { w0, rho } => {
            let y = rho * b * tau / pl.pow_beta(w0);
            if y > 0.0 {
                w0 * tau * (one_minus_pow1m(y.min(1.0), q) / (q * y))
            } else {
                0.0 * w0 * tau
            }
        }
        SpeedLaw::Growth { u0, rho } => {
            if u0 <= 0.0 {
                // u_end = v·ρ, so e = u_end·τ·β/(1+β) groups as
                // (v·τ)·ρ·β/(1+β) with the stable v.
                (zero_growth_volume(pl, rho, tau) * tau) * rho * b / (1.0 + b)
            } else {
                let y = rho * b * tau / pl.pow_beta(u0);
                if y > 0.0 {
                    u0 * tau * (powp1_minus_one(y, q) / (q * y))
                } else {
                    0.0 * u0 * tau
                }
            }
        }
    };
    pl.power(seg.scale) * base
}

/// Absolute time within the segment at which the cumulative processed
/// volume reaches `v` (callers must pass `0 ≤ v ≤ volume(seg)`); clamped
/// to `[seg.start, seg.end]`. Falls back to `seg.end` for laws that cannot
/// cross (idle, zero speed).
#[must_use]
pub fn time_at_volume(pl: PowerLaw, seg: &Segment, v: f64) -> f64 {
    if v <= 0.0 {
        return seg.start;
    }
    let b = pl.beta();
    let base_v = v / seg.scale;
    let tau = match seg.law {
        SpeedLaw::Idle => return seg.end,
        SpeedLaw::Constant { speed } => {
            if speed <= 0.0 {
                return seg.end;
            }
            base_v / speed
        }
        SpeedLaw::Decay { w0, rho } => {
            // Volume fraction of w0 delivered; ≥ 1 means the crossing sits
            // at (or past) the drain time.
            let z = (rho * base_v / w0).min(1.0);
            pl.pow_beta(w0) * one_minus_pow1m(z, b) / (rho * b)
        }
        SpeedLaw::Growth { u0, rho } => {
            if u0 <= 0.0 {
                // (ρ·v)^β/(ρβ) factored so ρ·v never underflows
                // (ρ^{β−1} = 1/ρ^{1/α} rides the speed_for_power chain).
                pl.pow_beta(base_v) / (pl.speed_for_power(rho) * b)
            } else {
                pl.pow_beta(u0) * powp1_minus_one(rho * base_v / u0, b) / (rho * b)
            }
        }
    };
    seg.start + tau.min(seg.duration())
}

/// `∫_{seg.start}^{min(seg.end, c)} (c − t) · k·s(t) dt` — the per-segment
/// served term of the fractional flow-time Fubini form.
///
/// With `d = c − seg.start`, `T = min(seg.end, c) − seg.start`, `V(τ)` the
/// running base volume and `VI(τ) = ∫₀^τ V`, integration by parts gives
/// `∫₀^T (d − τ) s(τ) dτ = (d − T)·V(T) + VI(T)`. `VI` is evaluated as
/// `V(T)·T·r` with `r = VI/(V·T) ∈ (0, 1]` the dimensionless mean-fill
/// ratio of the kernel — closed-form when the window drains/grows an
/// order-one fraction, a normalised power series (`vi_ratio_series`)
/// when it is a sliver.
#[must_use]
pub fn weighted_volume(pl: PowerLaw, seg: &Segment, c: f64) -> f64 {
    let hi = seg.end.min(c);
    if !(hi > seg.start) {
        return 0.0;
    }
    let t_cap = hi - seg.start;
    let d = c - seg.start;
    let b = pl.beta();
    let q = (1.0 + b) / b;
    let base = match seg.law {
        SpeedLaw::Idle => 0.0,
        SpeedLaw::Constant { speed } => speed * (d * t_cap - 0.5 * t_cap * t_cap),
        SpeedLaw::Decay { w0, rho } => {
            // VI = ∫V is expressed as `v·T·r` with `r = VI/(V·T)` the
            // dimensionless mean-fill ratio, so every intermediate stays
            // at the result's own scale. Three regimes for r:
            //
            // * `y ≥ 1` (window reaches the drain time, `w0 = 0` lands
            //   here as y = ∞): V is the constant `w0/ρ` past the drain,
            //   so VI keeps growing linearly and `r = 1 − 1/(qy)`.
            // * `p·y < 1/2` (sliver drains): the closed form for r
            //   cancels at order y, so use the normalised series — its
            //   `y → 0` limit is exactly 1/2.
            // * otherwise the closed form `(1 − F_q/(qy))/F_p` with
            //   `F_e = 1 − (1−y)^e`, whose subtraction is benign once
            //   `p·y` is order one.
            let p = 1.0 / b;
            let y = rho * b * t_cap / pl.pow_beta(w0);
            if y > 0.0 {
                let f = one_minus_pow1m(y.min(1.0), p);
                let v = (w0 / rho) * f;
                let r = if y >= 1.0 {
                    1.0 - 1.0 / (q * y)
                } else if p * y < 0.5 {
                    vi_ratio_series(y, p, -1.0)
                } else {
                    (1.0 - one_minus_pow1m(y, q) / (q * y)) / f
                };
                (d - t_cap) * v + v * t_cap * r
            } else {
                0.0 * w0 * t_cap
            }
        }
        SpeedLaw::Growth { u0, rho } => {
            let p = 1.0 / b;
            let y = if u0 > 0.0 { rho * b * t_cap / pl.pow_beta(u0) } else { f64::INFINITY };
            if y.is_infinite() {
                // Growth from (numerically) level zero: `u0^β ≪ ρβτ`.
                // The mean-fill ratio of `u(τ) ∝ τ^{1/β}` is exactly
                // `β/(1+β)`.
                let v = zero_growth_volume(pl, rho, t_cap);
                (d - t_cap) * v + v * t_cap * b / (1.0 + b)
            } else if y > 0.0 {
                let g = powp1_minus_one(y, p);
                let v = (u0 / rho) * g;
                let r = if p * y < 0.5 {
                    vi_ratio_series(y, p, 1.0)
                } else {
                    (powp1_minus_one(y, q) / (q * y) - 1.0) / g
                };
                (d - t_cap) * v + v * t_cap * r
            } else {
                0.0 * u0 * t_cap
            }
        }
    };
    seg.scale * base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::integrate;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn laws() -> Vec<SpeedLaw> {
        vec![
            SpeedLaw::Idle,
            SpeedLaw::Constant { speed: 1.7 },
            SpeedLaw::Decay { w0: 5.0, rho: 1.2 },
            SpeedLaw::Growth { u0: 0.6, rho: 0.8 },
            SpeedLaw::Growth { u0: 0.0, rho: 1.0 },
        ]
    }

    #[test]
    fn closed_volume_and_energy_match_quadrature() {
        for alpha in [1.5, 2.0, 3.0] {
            let law = pl(alpha);
            for seg_law in laws() {
                let seg = Segment::new(0.3, 2.1, Some(0), seg_law).with_scale(1.3);
                let v_q = integrate(|t| seg.speed_at(law, t), seg.start, seg.end);
                let e_q = integrate(|t| seg.power_at(law, t), seg.start, seg.end);
                let v = volume(law, &seg);
                let e = energy(law, &seg);
                assert!((v - v_q).abs() <= 1e-12 * (1.0 + v_q.abs()), "{seg_law:?} α={alpha}: {v} vs {v_q}");
                assert!((e - e_q).abs() <= 1e-12 * (1.0 + e_q.abs()), "{seg_law:?} α={alpha}: {e} vs {e_q}");
            }
        }
    }

    #[test]
    fn weighted_volume_matches_quadrature_including_truncation() {
        for alpha in [1.5, 2.0, 3.0] {
            let law = pl(alpha);
            for seg_law in laws() {
                let seg = Segment::new(0.5, 2.5, Some(0), seg_law).with_scale(0.9);
                for c in [0.2, 1.4, 2.5, 4.0] {
                    let hi = seg.end.min(c);
                    let q = integrate(|t| (c - t) * seg.speed_at(law, t), seg.start, hi);
                    let w = weighted_volume(law, &seg, c);
                    assert!(
                        (w - q).abs() <= 1e-12 * (1.0 + q.abs()),
                        "{seg_law:?} α={alpha} c={c}: {w} vs {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn time_at_volume_inverts_volume_over() {
        for alpha in [1.5, 2.0, 3.0] {
            let law = pl(alpha);
            for seg_law in laws() {
                let seg = Segment::new(1.0, 3.0, Some(0), seg_law).with_scale(1.1);
                let v_mid = volume_over(law, &seg, 1.2);
                if v_mid > 0.0 {
                    let t = time_at_volume(law, &seg, v_mid);
                    assert!((t - 2.2).abs() <= 1e-9, "{seg_law:?} α={alpha}: {t}");
                }
                // Zero volume maps to the segment start.
                assert_eq!(time_at_volume(law, &seg, 0.0), seg.start);
            }
        }
    }

    #[test]
    fn decay_past_empty_is_flat() {
        // A decay segment extended past its drain time contributes no
        // further volume or energy — the clamp at W = 0.
        let law = pl(2.0);
        let seg = Segment::new(0.0, 100.0, Some(0), SpeedLaw::Decay { w0: 1.0, rho: 1.0 });
        // t_empty = w0^β / (ρβ) = 2.
        let v = volume(law, &seg);
        assert!((v - 1.0).abs() < 1e-12, "all of w0/ρ = 1 is processed: {v}");
        let t = time_at_volume(law, &seg, v);
        assert!(t <= 2.0 + 1e-9, "crossing happens at drain time, not segment end: {t}");
    }
}
