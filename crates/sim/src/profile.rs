//! Speed-profile comparison tools.
//!
//! Lemma 6 of the paper states that Algorithm NC's speed profile is a
//! *measure-preserving rearrangement* of Algorithm C's: for every speed
//! level `x > 0`, the two algorithms spend identical total time at speed
//! `≥ x`. These helpers compute and compare those level-set measures.

use crate::schedule::Schedule;

/// The level-set function `x ↦ time with speed ≥ x` of a schedule sampled on
/// a grid of speed levels.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedProfile {
    /// Sampled speed levels (ascending, all > 0).
    pub levels: Vec<f64>,
    /// `durations[i]` = total time spent at speed ≥ `levels[i]`.
    pub durations: Vec<f64>,
}

impl SpeedProfile {
    /// Extract the profile of `schedule` on `n` levels spanning
    /// `(0, max_speed]`.
    #[must_use]
    pub fn extract(schedule: &Schedule, n: usize) -> Self {
        let max = schedule.max_speed().max(f64::MIN_POSITIVE);
        let levels: Vec<f64> = (1..=n).map(|i| max * i as f64 / n as f64).collect();
        let durations = levels.iter().map(|&x| schedule.time_with_speed_at_least(x)).collect();
        Self { levels, durations }
    }
}

/// Maximum absolute discrepancy between the level-set measures of two
/// schedules over a shared grid of `n` levels spanning both profiles.
///
/// Zero (up to numerical noise) certifies that one speed profile is a
/// measure-preserving rearrangement of the other.
#[must_use]
pub fn rearrangement_distance(a: &Schedule, b: &Schedule, n: usize) -> f64 {
    let max = a.max_speed().max(b.max_speed()).max(f64::MIN_POSITIVE);
    let mut worst: f64 = 0.0;
    for i in 1..=n {
        let x = max * i as f64 / n as f64;
        let da = a.time_with_speed_at_least(x);
        let db = b.time_with_speed_at_least(x);
        worst = worst.max((da - db).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerLaw;
    use crate::schedule::{Segment, SpeedLaw};

    fn pl() -> PowerLaw {
        PowerLaw::new(2.0).unwrap()
    }

    fn const_sched(blocks: &[(f64, f64, f64)]) -> Schedule {
        // (start, end, speed)
        let segs = blocks
            .iter()
            .map(|&(s, e, v)| Segment::new(s, e, Some(0), SpeedLaw::Constant { speed: v }))
            .collect();
        Schedule::new(pl(), segs).unwrap()
    }

    #[test]
    fn identical_profiles_have_zero_distance() {
        let a = const_sched(&[(0.0, 1.0, 2.0), (1.0, 3.0, 1.0)]);
        let b = const_sched(&[(0.0, 2.0, 1.0), (2.0, 3.0, 2.0)]); // time-rearranged
        assert!(rearrangement_distance(&a, &b, 64) < 1e-12);
    }

    #[test]
    fn different_profiles_detected() {
        let a = const_sched(&[(0.0, 1.0, 2.0)]);
        let b = const_sched(&[(0.0, 2.0, 1.0)]);
        assert!(rearrangement_distance(&a, &b, 64) > 0.5);
    }

    #[test]
    fn decay_vs_reversed_growth_is_a_rearrangement() {
        // Figure 1: the NC growth curve is the C decay curve in reverse, so
        // their level-set measures agree exactly.
        let law = PowerLaw::new(3.0).unwrap();
        let w = 5.0;
        let kd = crate::kernel::DecayKernel { law, w0: w, rho: 1.0 };
        let t = kd.time_to_empty();
        let a = Schedule::new(
            law,
            vec![Segment::new(0.0, t, Some(0), SpeedLaw::Decay { w0: w, rho: 1.0 })],
        )
        .unwrap();
        let b = Schedule::new(
            law,
            vec![Segment::new(0.0, t, Some(0), SpeedLaw::Growth { u0: 0.0, rho: 1.0 })],
        )
        .unwrap();
        assert!(rearrangement_distance(&a, &b, 256) < 1e-9);
    }

    #[test]
    fn profile_extraction_monotone() {
        let a = const_sched(&[(0.0, 1.0, 2.0), (1.0, 3.0, 1.0)]);
        let p = SpeedProfile::extract(&a, 32);
        assert_eq!(p.levels.len(), 32);
        // Durations are non-increasing in the level.
        assert!(p.durations.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }
}
