//! Double-exponential (tanh–sinh) quadrature.
//!
//! The audit's integration path must be independent of the closed-form
//! kernel integrals it is checking, and it must stay accurate on the
//! paper's speed curves, which have *algebraic endpoint singularities* in
//! their derivatives: Algorithm C's decay speed behaves like
//! `(t* − t)^{1/(α−1)}` as the served weight drains to zero, so composite
//! Newton–Cotes rules lose several digits near completions. The tanh–sinh
//! substitution `x = tanh(π/2 · sinh t)` pushes the endpoints to infinity
//! at a double-exponential rate, restoring spectral accuracy for exactly
//! this class of integrands — with a fixed, modest number of evaluations.
//!
//! ## Nested levels and the stop rule
//!
//! The trapezoidal sum runs over a fixed 103-node table (step `H`, nodes
//! `k·H` for `|k| ≤ 51`), walked as four *nested* levels with steps `8H`,
//! `4H`, `2H`, `H` — 13, 25, 51 and 103 nodes. Halving the step keeps every
//! node of the coarser level (Takahasi–Mori), so each level costs only its
//! new nodes and the change between two successive levels is a free error
//! estimate. [`integrate`] stops at the first level that agrees with the
//! previous one to `1e-12` relative. Tanh–sinh roughly doubles its
//! correct digits per halving, so two levels that agree to `1e-12` leave
//! the finer one far inside the `1e-12` relative agreement that
//! `tests/closed_form_quadrature.rs` demands of the closed forms. On the
//! audit's speed curves nearly every integral stops at 51 nodes.

use std::f64::consts::FRAC_PI_2;
use std::sync::OnceLock;

/// Step of the finest level's trapezoidal sum over the transformed axis.
const H: f64 = 0.0625;
/// Half-width of the truncated sum; `K·H ≈ 3.2` puts the discarded tail
/// weights below `1e-14`.
const K: i32 = 51;
/// Number of nodes in the finest level: `2K + 1`.
const NODES: usize = (2 * K + 1) as usize;
/// Number of nested levels; the coarsest step is `2^(LEVELS−1)·H`.
const LEVELS: u32 = 4;
/// End of each level's nodes in [`node_table`]: the coarsest level's 13,
/// then the 12, 26 and 52 nodes each halving adds.
const LEVEL_ENDS: [usize; LEVELS as usize] = [13, 25, 51, NODES];
/// Relative change between two successive levels at which [`integrate`]
/// stops refining.
const STOP_REL: f64 = 1e-12;

/// The level of node `k`: 0 for multiples of `2^(LEVELS−1)`, then one more
/// per missing factor of two, down to `LEVELS − 1` for odd `k`.
fn level(k: i32) -> u32 {
    LEVELS - 1 - k.trailing_zeros().min(LEVELS - 1)
}

/// The `(abscissa, weight)` table on `[-1, 1]`, computed once per process,
/// in level order (ascending `k` within a level), so each level is the
/// contiguous run `LEVEL_ENDS[l−1]..LEVEL_ENDS[l]`.
///
/// The transformed nodes depend only on `H` and `K`, never on the interval
/// or integrand, so the ~5 transcendentals per node are hoisted out of
/// every `integrate` call.
fn node_table() -> &'static [(f64, f64); NODES] {
    static TABLE: OnceLock<[(f64, f64); NODES]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut ks: Vec<i32> = (-K..=K).collect();
        ks.sort_by_key(|&k| (level(k), k));
        let mut table = [(0.0f64, 0.0f64); NODES];
        for (slot, k) in table.iter_mut().zip(ks) {
            let t = H * f64::from(k);
            let u = FRAC_PI_2 * t.sinh();
            let x = u.tanh();
            let sech = 1.0 / u.cosh();
            *slot = (x, FRAC_PI_2 * t.cosh() * sech * sech);
        }
        table
    })
}

/// `∫_a^b f(x) dx` by tanh–sinh quadrature: 13 evaluations, then nested
/// levels of 25, 51 and 103 until two successive levels agree to `1e-12`
/// relative (see the [module docs](self)).
///
/// Returns 0 for empty or reversed intervals, without evaluating `f`.
/// Non-finite integrand values propagate into the result rather than
/// panicking — a NaN estimate never meets the stop rule, so every level is
/// evaluated and the NaN is returned; the audit's checks treat a NaN
/// integral as a failed verdict.
///
/// # Examples
///
/// ```
/// use ncss_audit::quad::integrate;
///
/// // Spectrally accurate on smooth integrands: ∫_0^2 3x² dx = 8.
/// let v = integrate(|x| 3.0 * x * x, 0.0, 2.0);
/// assert!((v - 8.0).abs() < 1e-12);
///
/// // …and on the audit's hard case, algebraic endpoint singularities in
/// // the derivative: ∫_0^1 √x dx = 2/3 (a decay-speed curve at α = 3).
/// let v = integrate(f64::sqrt, 0.0, 1.0);
/// assert!((v - 2.0 / 3.0).abs() < 1e-12);
///
/// // Degenerate intervals integrate to zero rather than erroring.
/// assert_eq!(integrate(|_| 1.0, 1.0, 1.0), 0.0);
/// ```
pub fn integrate<F: Fn(f64) -> f64>(f: F, a: f64, b: f64) -> f64 {
    if !(b > a) {
        return 0.0;
    }
    let mid = 0.5 * (a + b);
    let half = 0.5 * (b - a);
    let table = node_table();
    let mut sum = 0.0;
    let mut step = H * f64::from(1u32 << (LEVELS - 1));
    let mut previous = f64::NAN;
    let mut from = 0;
    for end in LEVEL_ENDS {
        for &(x, weight) in &table[from..end] {
            sum += weight * f(mid + half * x);
        }
        let estimate = sum * step * half;
        if (estimate - previous).abs() <= STOP_REL * estimate.abs() {
            return estimate;
        }
        previous = estimate;
        from = end;
        step *= 0.5;
    }
    previous
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// `integrate` of `f` on `[a, b]` with the number of evaluations made.
    fn counted(f: impl Fn(f64) -> f64, a: f64, b: f64) -> (f64, usize) {
        let calls = Cell::new(0);
        let v = integrate(
            |x| {
                calls.set(calls.get() + 1);
                f(x)
            },
            a,
            b,
        );
        (v, calls.get())
    }

    #[test]
    fn table_is_in_nested_level_order() {
        let table = node_table();
        let mut from = 0;
        for (l, end) in LEVEL_ENDS.into_iter().enumerate() {
            let spacing = 1 << (LEVELS as usize - 1 - l);
            let expected: Vec<i32> =
                (-K..=K).filter(|&k| k % spacing == 0 && (l == 0 || k % (2 * spacing) != 0)).collect();
            assert_eq!(end - from, expected.len(), "level {l}");
            for (&(x, _), k) in table[from..end].iter().zip(expected) {
                let t = H * f64::from(k);
                assert_eq!(x.to_bits(), (FRAC_PI_2 * t.sinh()).tanh().to_bits(), "level {l} k {k}");
            }
            from = end;
        }
        assert_eq!(from, NODES);
    }

    #[test]
    fn exact_on_polynomials() {
        let v = integrate(|x| 3.0 * x * x, 0.0, 2.0);
        assert!((v - 8.0).abs() < 1e-12, "{v}");
        let v = integrate(|x| x, -1.0, 3.0);
        assert!((v - 4.0).abs() < 1e-12, "{v}");
    }

    #[test]
    fn handles_endpoint_derivative_singularities() {
        // ∫_0^1 sqrt(x) dx = 2/3 — the shape of a decay-speed curve near a
        // completion at α = 3. Newton–Cotes stalls around 1e-5 here.
        let v = integrate(f64::sqrt, 0.0, 1.0);
        assert!((v - 2.0 / 3.0).abs() < 1e-12, "{v}");
        // ∫_0^1 x^{1/4} dx = 4/5 (α = 5 flavour).
        let v = integrate(|x: f64| x.powf(0.25), 0.0, 1.0);
        assert!((v - 0.8).abs() < 1e-11, "{v}");
    }

    #[test]
    fn speed_curves_stop_by_the_third_level() {
        let (v, calls) = counted(f64::sqrt, 0.0, 1.0);
        assert!((v - 2.0 / 3.0).abs() < 1e-15, "{v}");
        assert!(calls <= 51, "√x took {calls} evaluations");
        // Algorithm C's decay speed at α = 3 draining to zero at t = 2:
        // W(t)^{2/3} = 1 − t/2 and s = W^{1/3}, so ∫_0^2 (1 − t/2)^{1/2} dt = 4/3.
        let (v, calls) = counted(|t: f64| (1.0 - 0.5 * t).max(0.0).sqrt(), 0.0, 2.0);
        assert!((v - 4.0 / 3.0).abs() < 1e-15, "{v}");
        assert!(calls <= 51, "decay curve took {calls} evaluations");
    }

    #[test]
    fn empty_and_reversed_intervals_are_zero() {
        for (a, b) in [(1.0, 1.0), (2.0, 1.0), (f64::NAN, 1.0), (0.0, f64::NAN)] {
            assert_eq!(counted(|_| 1.0, a, b), (0.0, 0), "[{a}, {b}]");
        }
    }

    #[test]
    fn nan_integrand_propagates() {
        assert!(integrate(|_| f64::NAN, 0.0, 1.0).is_nan());
        // NaN only on the last 1% of the interval: the coarse levels
        // already sample it, and a NaN estimate never meets the stop rule.
        let (v, calls) = counted(|x| if x > 0.99 { f64::NAN } else { x }, 0.0, 1.0);
        assert!(v.is_nan(), "{v}");
        assert_eq!(calls, NODES);
    }

    /// The audit integrates `Segment::curve` instead of calling
    /// `Segment::speed_at` / `power_at` per node. The curve must be bitwise
    /// the pointwise law those methods always meant — `scale` times the
    /// kernels' own `speed_at(τ)` — at every node of every level, for every
    /// law and kernel variant (α = 4.7 takes the general `powf` path), at
    /// scales other than 1 and magnitudes across 1e±150.
    #[test]
    fn compiled_curves_are_bitwise_the_pointwise_law_at_every_node() {
        use ncss_rng::{dist::log_uniform, Pcg64};
        use ncss_sim::kernel::{DecayKernel, GrowthKernel};
        use ncss_sim::{PowerLaw, Segment, SpeedLaw};

        let mut rng = Pcg64::seed_from_u64(0xc0_ed_c0);
        let mut compared = 0usize;
        for alpha in [1.5, 2.0, 2.5, 3.0, 4.7] {
            let pl = PowerLaw::new(alpha).unwrap();
            let b = pl.beta();
            for _ in 0..12 {
                let mut mag = || log_uniform(&mut rng, 1e-150, 1e150);
                let (w0, u0, rho, speed) = (mag(), mag(), mag(), mag());
                let laws = [
                    SpeedLaw::Idle,
                    SpeedLaw::Constant { speed },
                    SpeedLaw::Decay { w0, rho },
                    SpeedLaw::Growth { u0, rho },
                    SpeedLaw::Growth { u0: 0.0, rho },
                ];
                for law in laws {
                    // Durations on the law's own time scale, so decay curves
                    // reach (and pass) their drain inside some segments.
                    let duration = match law {
                        SpeedLaw::Decay { w0, rho } => w0.powf(b) / (rho * b) * rng.range_f64(0.05, 1.5),
                        SpeedLaw::Growth { u0, rho } if u0 > 0.0 => {
                            u0.powf(b) / (rho * b) * rng.range_f64(0.05, 20.0)
                        }
                        _ => log_uniform(&mut rng, 1e-6, 1e6),
                    };
                    let start = duration * log_uniform(&mut rng, 1e-3, 10.0);
                    let scale = if rng.bool(0.2) { 1.0 } else { log_uniform(&mut rng, 0.1, 10.0) };
                    let seg = Segment::new(start, start + duration, Some(0), law).with_scale(scale);
                    let curve = seg.curve(pl);
                    let (mid, half) = (0.5 * (seg.start + seg.end), 0.5 * seg.duration());
                    for &(x, _) in node_table() {
                        let t = mid + half * x;
                        let tau = (t - seg.start).clamp(0.0, seg.duration());
                        let base = match law {
                            SpeedLaw::Idle => 0.0,
                            SpeedLaw::Constant { speed } => speed,
                            SpeedLaw::Decay { w0, rho } => DecayKernel { law: pl, w0, rho }.speed_at(tau),
                            SpeedLaw::Growth { u0, rho } => GrowthKernel { law: pl, u0, rho }.speed_at(tau),
                        };
                        let speed = scale * base;
                        let ctx = format!("α={alpha} {law:?} scale={scale} t={t}");
                        assert_eq!(curve.speed_at(t).to_bits(), speed.to_bits(), "speed {ctx}");
                        assert_eq!(seg.speed_at(pl, t).to_bits(), speed.to_bits(), "segment speed {ctx}");
                        let power = pl.power(speed);
                        assert_eq!(curve.power_at(t).to_bits(), power.to_bits(), "power {ctx}");
                        assert_eq!(seg.power_at(pl, t).to_bits(), power.to_bits(), "segment power {ctx}");
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, 5 * 12 * 5 * NODES);
    }

    #[test]
    fn long_interval_accuracy() {
        // ∫_0^10 e^{-x} dx = 1 − e^{-10}.
        let v = integrate(|x: f64| (-x).exp(), 0.0, 10.0);
        assert!((v - (1.0 - (-10.0f64).exp())).abs() < 1e-10, "{v}");
    }
}
