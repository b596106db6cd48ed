//! Algorithm C — the clairvoyant comparator (Section 2 of the paper).
//!
//! Highest-density-first job selection (FIFO among equal densities, matching
//! the tie-break the paper fixes for its analysis), with the speed set so
//! that the instantaneous power equals the total remaining weight of active
//! jobs: `P(s(t)) = W(t)`. Algorithm C is 2-competitive for the fractional
//! objective (Theorem 1, due to Bansal–Chan–Pruhs), and its total energy
//! equals its total fractional flow-time — both facts are exercised by the
//! tests below.
//!
//! The simulation is event-driven and **exact**: between releases and
//! completions the remaining weight follows the closed-form decay kernel
//! (`W^{1−1/α}` linear in time), so event times, energies, and flow-times
//! carry no integration error.
//!
//! The event loop itself lives in [`crate::streaming::CStream`]; [`run_c`]
//! is the batch wrapper that feeds it the sorted instance and reassembles
//! per-job vectors and the full schedule. Batch and stream therefore share
//! every floating-point operation — the bitwise equivalence contract of
//! DESIGN.md §9.

use crate::streaming::{CStream, StreamConfig};
use ncss_sim::{Instance, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, SimResult};

/// Priority key for the active-job heap: highest density first, then
/// earliest release, then smallest id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ActiveKey {
    pub(crate) density: f64,
    pub(crate) release: f64,
    pub(crate) id: usize,
}

impl Eq for ActiveKey {}

impl PartialOrd for ActiveKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ActiveKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap pops the maximum, so "greater" must mean "runs first":
        // higher density, then earlier release, then smaller id.
        self.density
            .partial_cmp(&other.density)
            .expect("finite densities")
            .then_with(|| other.release.partial_cmp(&self.release).expect("finite releases"))
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// A completed run of Algorithm C.
#[derive(Debug, Clone)]
pub struct CRun {
    /// The machine schedule (decay-law segments).
    pub schedule: Schedule,
    /// Aggregate objective, accounted exactly during the run.
    pub objective: Objective,
    /// Per-job completions and flow-times.
    pub per_job: PerJob,
}

impl CRun {
    /// The left limit `W(t^-)` of the total remaining weight — the quantity
    /// `W^{(C)}(r[j]^-)` in the paper's definition of Algorithm NC.
    ///
    /// For Algorithm C the instantaneous power *is* the remaining weight, so
    /// this reads the power curve with `(start, end]` segment semantics
    /// (a release at `t` starts a new segment, so the left limit belongs to
    /// the segment ending at `t`).
    #[must_use]
    pub fn remaining_weight_before(&self, t: f64) -> f64 {
        let segs = self.schedule.segments();
        let idx = segs.partition_point(|s| s.end < t);
        match segs.get(idx) {
            Some(s) if s.start < t && t <= s.end => s.power_at(self.schedule.power_law(), t),
            _ => 0.0,
        }
    }

    /// Speed of Algorithm C at time `t` (right-continuous at events).
    #[must_use]
    pub fn speed_at(&self, t: f64) -> f64 {
        self.schedule.speed_at(t)
    }

    /// Makespan of the run (completion of the last job).
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.schedule.end_time()
    }
}

/// Run Algorithm C on `instance` under power law `law`.
///
/// # Examples
///
/// ```
/// use ncss_core::run_c;
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let inst = Instance::new(vec![Job::unit_density(0.0, 4.0)]).unwrap();
/// let run = run_c(&inst, PowerLaw::new(2.0).unwrap()).unwrap();
/// // Lemma 2: a weight-4 job at alpha=2 finishes at t = W^{1/2}/(1/2) = 4.
/// assert!((run.per_job.completion[0] - 4.0).abs() < 1e-9);
/// // Energy equals fractional flow-time for Algorithm C.
/// assert!((run.objective.energy - run.objective.frac_flow).abs() < 1e-9);
/// ```
pub fn run_c(instance: &Instance, law: PowerLaw) -> SimResult<CRun> {
    let n = instance.len();
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0; n];
    let mut int_flow = vec![0.0; n];

    let mut stream = CStream::new(law, StreamConfig::batch());
    let mut sink = |c: crate::streaming::CCompletion| {
        completion[c.id] = c.completion;
        frac_flow[c.id] = c.frac_flow;
        int_flow[c.id] = c.int_flow;
    };
    // The instance is sorted by (release, id), which is exactly the ordered
    // release stream the core requires; stream ids coincide with JobIds.
    for &job in instance.jobs() {
        stream.offer(job, &mut sink)?;
    }
    let summary = stream.finish(&mut sink)?;
    Ok(CRun {
        schedule: ScheduleBuilder::build_from(law, stream.spill_mut().drain())?,
        objective: summary.objective,
        per_job: PerJob { completion, frac_flow, int_flow },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::numeric::approx_eq;
    use ncss_sim::Job;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    #[test]
    fn single_job_matches_lemma2() {
        // Lemma 2: completion time t with rho (1 - 1/alpha) t = W^{1-1/alpha}.
        for &(alpha, rho, v) in &[(2.0, 1.0, 3.0), (3.0, 2.0, 1.5), (1.5, 0.5, 4.0)] {
            let inst = Instance::new(vec![Job::new(0.0, v, rho)]).unwrap();
            let run = run_c(&inst, pl(alpha)).unwrap();
            let w = rho * v;
            let beta = 1.0 - 1.0 / alpha;
            let expect_t = w.powf(beta) / (rho * beta);
            assert!(approx_eq(run.per_job.completion[0], expect_t, 1e-10));
        }
    }

    #[test]
    fn energy_equals_fractional_flow() {
        // The defining property of Algorithm C: total energy = total
        // fractional flow-time, because power = remaining weight.
        let inst = Instance::new(vec![
            Job::new(0.0, 2.0, 1.0),
            Job::new(0.5, 1.0, 3.0),
            Job::new(0.7, 0.4, 0.5),
            Job::new(2.0, 1.5, 2.0),
        ])
        .unwrap();
        let run = run_c(&inst, pl(3.0)).unwrap();
        assert!(approx_eq(run.objective.energy, run.objective.frac_flow, 1e-9));
    }

    #[test]
    fn matches_independent_evaluator() {
        let inst = Instance::new(vec![
            Job::new(0.0, 1.0, 1.0),
            Job::new(0.2, 2.0, 2.0),
            Job::new(1.5, 0.5, 0.7),
        ])
        .unwrap();
        let run = run_c(&inst, pl(2.5)).unwrap();
        let ev = ncss_sim::evaluate(&run.schedule, &inst).unwrap();
        assert!(approx_eq(ev.objective.energy, run.objective.energy, 1e-7));
        assert!(approx_eq(ev.objective.frac_flow, run.objective.frac_flow, 1e-7));
        assert!(approx_eq(ev.objective.int_flow, run.objective.int_flow, 1e-7));
        for j in 0..inst.len() {
            assert!(approx_eq(ev.per_job.completion[j], run.per_job.completion[j], 1e-7));
        }
    }

    #[test]
    fn hdf_order_respected() {
        // Both at t=0: the density-5 job must finish before the density-1
        // job is touched.
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.0, 1.0, 5.0)]).unwrap();
        let run = run_c(&inst, pl(2.0)).unwrap();
        assert!(run.per_job.completion[1] < run.per_job.completion[0]);
        let first = run.schedule.segments().first().unwrap();
        assert_eq!(first.job, Some(1));
    }

    #[test]
    fn preemption_on_higher_density_arrival() {
        let inst = Instance::new(vec![Job::new(0.0, 10.0, 1.0), Job::new(0.1, 0.1, 100.0)]).unwrap();
        let run = run_c(&inst, pl(2.0)).unwrap();
        // Job 1 arrives at 0.1 and must run immediately.
        let seg_at = run
            .schedule
            .segments()
            .iter()
            .find(|s| s.start <= 0.1 && 0.1 < s.end || (s.start - 0.1).abs() < 1e-12)
            .unwrap();
        let seg_after = run
            .schedule
            .segments()
            .iter()
            .find(|s| s.start >= 0.1 - 1e-12)
            .unwrap();
        assert_eq!(seg_after.job, Some(1));
        let _ = seg_at;
        assert!(run.per_job.completion[1] < run.per_job.completion[0]);
    }

    #[test]
    fn fifo_among_equal_densities() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0), Job::unit_density(0.5, 1.0)]).unwrap();
        let run = run_c(&inst, pl(2.0)).unwrap();
        assert!(run.per_job.completion[0] < run.per_job.completion[1]);
    }

    #[test]
    fn remaining_weight_before_release_points() {
        // One job at t=0 of weight 4 (alpha=2): W(t)^{1/2} = 2 - t/2, done at t=4.
        let inst = Instance::new(vec![Job::unit_density(0.0, 4.0), Job::unit_density(1.0, 1.0)]).unwrap();
        let run = run_c(&inst, pl(2.0)).unwrap();
        // Just before the release at t=1: W = (2 - 0.5)^2 = 2.25.
        assert!(approx_eq(run.remaining_weight_before(1.0), 2.25, 1e-9));
        // Before time 0 there is nothing.
        assert_eq!(run.remaining_weight_before(0.0), 0.0);
        // Long after the makespan the machine is empty.
        assert_eq!(run.remaining_weight_before(run.makespan() + 5.0), 0.0);
    }

    #[test]
    fn idle_gap_between_batches() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 0.1), Job::unit_density(100.0, 0.1)]).unwrap();
        let run = run_c(&inst, pl(2.0)).unwrap();
        assert!(run.per_job.completion[0] < 100.0);
        assert!(run.per_job.completion[1] > 100.0);
        // The machine is idle in between.
        assert_eq!(run.schedule.speed_at(50.0), 0.0);
        assert_eq!(run.remaining_weight_before(50.0), 0.0);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![]).unwrap();
        let run = run_c(&inst, pl(2.0)).unwrap();
        assert_eq!(run.objective.fractional(), 0.0);
        assert_eq!(run.makespan(), 0.0);
    }

    #[test]
    fn speed_decreases_between_events() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 5.0)]).unwrap();
        let run = run_c(&inst, pl(3.0)).unwrap();
        let m = run.makespan();
        let pts = run.schedule.sample(50, m * 0.999);
        assert!(pts.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12));
    }
}
