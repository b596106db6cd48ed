//! Sample summaries and the regression rule `--compare` applies.

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Dist {
    /// Summarise `values` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the default "exclusive"
    /// method), so a spread computed here matches one computed there.
    pub fn of(values: &[f64]) -> Dist {
        assert!(
            !values.is_empty(),
            "a distribution needs at least one sample"
        );
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            (quantile4(&v, 1), quantile4(&v, 3))
        };
        Dist {
            median,
            q1,
            q3,
            min: v[0],
            max: v[n - 1],
            n,
        }
    }
}

/// The `i`-th of the three cut points of sorted `v` (len ≥ 2), by the
/// exclusive method: position `i·(n+1)/4`, linearly interpolated.
fn quantile4(v: &[f64], i: usize) -> f64 {
    let m = v.len() + 1;
    let j = (i * m / 4).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric with the bound and floor a change must respect.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Largest tolerated worsening, as a share of the baseline value.
    pub bound: f64,
    /// Largest tolerated worsening in the metric's own unit; a change
    /// counts as worse only when it exceeds both the bound and the floor.
    pub floor: f64,
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order. A test keeps
/// the two in step.
pub const END_TO_END: [MetricSpec; 4] = [
    MetricSpec {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    MetricSpec {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    MetricSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 2.0,
    },
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
];

/// Outcome of comparing a candidate against a baseline on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Within,
    Better,
    /// The spread of either side exceeds the bound, so the values cannot
    /// tell a change from noise.
    Unresolved,
}

/// A metric's reported value and the spread (IQR ÷ median) of the samples
/// it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `candidate` against `baseline` on `spec`.
pub fn verdict(spec: &MetricSpec, baseline: Reading, candidate: Reading) -> Verdict {
    if baseline.spread > spec.bound || candidate.spread > spec.bound {
        return Verdict::Unresolved;
    }
    // Positive `worsening` means the candidate moved the wrong way.
    let worsening = match spec.better {
        Better::Lower => candidate.value - baseline.value,
        Better::Higher => baseline.value - candidate.value,
    };
    let share = worsening / baseline.value.abs().max(f64::MIN_POSITIVE);
    if share.abs() <= spec.bound || worsening.abs() <= spec.floor {
        Verdict::Within
    } else if worsening > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let d = Dist::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert!(
            close(d.q1, 2.75) && close(d.median, 5.5) && close(d.q3, 8.25),
            "{d:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let d = Dist::of(&[2.0, 1.0]);
        assert!(close(d.q1, 0.75) && close(d.q3, 2.25), "{d:?}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let d = Dist::of(&[3.0, 1.0, 2.0]);
        assert!(
            close(d.q1, 1.0) && close(d.median, 2.0) && close(d.q3, 3.0),
            "{d:?}"
        );
        let d = Dist::of(&[4.0]);
        assert_eq!((d.q1, d.median, d.q3, d.n), (4.0, 4.0, 4.0, 1));
    }

    fn point(value: f64) -> Reading {
        Reading { value, spread: 0.0 }
    }

    #[test]
    fn bound_and_floor_both_have_to_be_exceeded() {
        let wall = END_TO_END[0];
        assert_eq!(verdict(&wall, point(2.0), point(2.6)), Verdict::Worse);
        assert_eq!(verdict(&wall, point(2.0), point(2.4)), Verdict::Within);
        assert_eq!(verdict(&wall, point(2.0), point(1.4)), Verdict::Better);
        // +40% but only 0.04 s: under the floor.
        assert_eq!(verdict(&wall, point(0.1), point(0.14)), Verdict::Within);
        let rate = END_TO_END[1];
        assert_eq!(verdict(&rate, point(100.0), point(70.0)), Verdict::Worse);
        assert_eq!(verdict(&rate, point(100.0), point(130.0)), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let wall = END_TO_END[0];
        let noisy = Reading {
            value: 2.0,
            spread: 0.3,
        };
        assert_eq!(verdict(&wall, point(2.0), noisy), Verdict::Unresolved);
        assert_eq!(verdict(&wall, noisy, point(3.0)), Verdict::Unresolved);
    }
}
