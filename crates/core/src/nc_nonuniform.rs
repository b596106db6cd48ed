//! Algorithm NC for non-uniform densities (Section 4) — the paper's second
//! main contribution.
//!
//! The algorithm:
//!
//! 1. Round every density **down to a power of β** (the analysis needs
//!    β > 4; the rounding base is a parameter here).
//! 2. Process the active job with the highest *rounded* density, FIFO among
//!    equal rounded densities (buckets compare exactly, however small).
//! 3. At time `t`, run at `η` times the speed Algorithm C would have at
//!    time `t` on the **current instance** `I(t)` (original release times,
//!    weights equal to what NC has processed so far), plus an arbitrarily
//!    small ε so the speed is bootstrapped away from zero.
//!
//! Unlike the uniform case, the speed rule requires a *nested* simulation of
//! Algorithm C on `I(t)` at every instant, so this run is numerically
//! integrated (midpoint rule with event-aligned adaptive steps, and the
//! completing step solved as `dt = rem / s_mid`) rather than closed-form.
//! The inner C runs themselves remain exact. Tolerances in tests are
//! correspondingly looser (~1e-3).
//!
//! # Cost
//!
//! Each step reads C's speed on `I(t)` twice, at `t` and at the step
//! midpoint, and neither read re-runs C from scratch. C is online and,
//! during a service stint, only the served job's processed volume changes,
//! so C fed the started jobs before the served one is built once per stint
//! and kept as a checkpoint. A read restores it into a reused scratch
//! stream, offers the served job and the started jobs after it (0.1–0.25
//! per read on average), and runs C's event loop only up to the first
//! segment that ends after the read time ([`CStream::speed_at`]). A read
//! therefore costs about the jobs C still holds at the checkpoint (3–12 on
//! log-uniform workloads of 24 to 1,024 jobs), and a stint start costs one
//! offer per started job. The served job comes off a heap, releases off a
//! cursor, and flow accrues over the active jobs only, so no step scans
//! all `n` jobs. On the 2-core Xeon VM, 256 jobs at α = 3 take ~0.25 s and
//! 4,096 jobs ~7 s (3.7M steps); re-running C on the whole `I(t)` at every
//! read took ~23 s at 256 jobs, for the same bits
//! (`tests/nonuniform_identity.rs` keeps that loop as its oracle).

use crate::clairvoyant::ActiveKey;
use crate::streaming::{CStream, StreamConfig};
use ncss_sim::numeric::KahanSum;
use ncss_sim::{
    Instance, Job, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, Segment, SimError,
    SimResult, SpeedLaw,
};
use std::collections::BinaryHeap;

/// Tunable parameters of the non-uniform algorithm.
///
/// The extended abstract defers the exact constants (η, β, ζ, γ) to the full
/// version; defaults follow the constraints its analysis states: β > 4 and
/// η > 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonUniformParams {
    /// Density rounding base β (> 1; the paper's analysis chooses β > 4).
    pub rounding_base: f64,
    /// Speed multiplier η (> 1) applied to the current-instance C speed.
    pub eta: f64,
    /// Additive bootstrap speed ε (> 0).
    pub epsilon: f64,
    /// Integration resolution: target number of steps per job service.
    pub steps_per_job: usize,
    /// Hard cap on total integration steps (guards against mis-tuned runs).
    pub max_steps: usize,
}

impl Default for NonUniformParams {
    /// α-agnostic defaults. The speed multiplier is safe for `α ≥ 2` (see
    /// [`crate::theory::nonuniform_eta_min`]); prefer [`Self::recommended`]
    /// when α is known.
    fn default() -> Self {
        Self { rounding_base: 5.0, eta: 5.0, epsilon: 1e-3, steps_per_job: 400, max_steps: 4_000_000 }
    }
}

impl NonUniformParams {
    /// Parameters tuned for a given power-law exponent: η is set 25% above
    /// the cold-start self-sustainability threshold
    /// [`crate::theory::nonuniform_eta_min`], below which the algorithm
    /// degenerates to its ε bootstrap speed.
    #[must_use]
    pub fn recommended(alpha: f64) -> Self {
        Self { eta: 1.25 * crate::theory::nonuniform_eta_min(alpha), ..Self::default() }
    }
}

/// A completed (numerically integrated) run of non-uniform Algorithm NC.
#[derive(Debug, Clone)]
pub struct NonUniformRun {
    /// The machine schedule (piecewise-constant step segments).
    pub schedule: Schedule,
    /// Aggregate objective, measured against the **original** densities.
    pub objective: Objective,
    /// Per-job completions and flow-times (original densities).
    pub per_job: PerJob,
    /// Number of integration steps taken.
    pub steps: usize,
}

impl NonUniformRun {
    /// Makespan of the run.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.schedule.end_time()
    }
}

/// Algorithm C on the current instance `I(t)`, checkpointed once per
/// service stint.
///
/// `I(t)` holds the jobs NC has started (processed volume > 0) at their
/// original releases, rounded densities and processed volumes, in release
/// order. During a stint only the served job's processed volume changes, and
/// C is online, so C fed the included jobs that precede the served one is
/// the same for every read of the stint: [`Self::rebase`] builds it once as
/// `base`, and each [`Self::speed`] restores it into `scratch`, offers the
/// served job and the `suffix`, and reads C's speed at `t` early through
/// [`CStream::speed_at`]. Same arithmetic as a fresh [`crate::run_c`] on
/// `I(t)` read through its schedule, so the same bits.
struct CurrentC {
    law: PowerLaw,
    eta: f64,
    epsilon: f64,
    /// The included jobs before the served one, in release order.
    prefix: Vec<Job>,
    /// C fed `prefix`.
    base: CStream,
    /// The included jobs after the served one, in release order.
    suffix: Vec<Job>,
    /// Where each read runs: `base` restored, then the rest offered.
    scratch: CStream,
}

impl CurrentC {
    fn new(law: PowerLaw, params: &NonUniformParams) -> Self {
        Self {
            law,
            eta: params.eta,
            epsilon: params.epsilon,
            prefix: Vec::new(),
            base: Self::stream(law),
            suffix: Vec::new(),
            scratch: Self::stream(law),
        }
    }

    /// A stream that keeps no segments: the reads need only the last one.
    fn stream(law: PowerLaw) -> CStream {
        CStream::new(law, StreamConfig { keep_segments: false, spill_capacity: Some(1) })
    }

    /// Checkpoint the start of a stint of job `cur`: split the included
    /// jobs around it and feed the earlier ones to a fresh `base`.
    fn rebase(&mut self, cur: usize, processed: &[f64], releases: &[f64], rounded: &[f64]) -> SimResult<()> {
        self.prefix.clear();
        self.suffix.clear();
        for (j, &v) in processed.iter().enumerate() {
            if v > 0.0 && j != cur {
                let job = Job { release: releases[j], volume: v, density: rounded[j] };
                if j < cur {
                    self.prefix.push(job);
                } else {
                    self.suffix.push(job);
                }
            }
        }
        self.base = Self::stream(self.law);
        for &job in &self.prefix {
            self.base.offer(job, &mut |_| {})?;
        }
        Ok(())
    }

    /// `η · s^{(C)}_{I(t)}(t) + ε` with the served job at processed volume
    /// `served.volume` (left out of `I(t)` while it is 0).
    ///
    /// Only jobs released by `t` are offered; the first later release bounds
    /// the read, and the later jobs are validated like the rest of `I(t)`.
    /// A read before the last `prefix` release (possible only inside the
    /// 1e-15 admission slack) replays the prefix instead of using `base`.
    /// Failures of the nested run (degenerate current instances, kernel
    /// overflow at extreme scales) propagate, so the outer integrator can
    /// surface a structured error.
    fn speed(&mut self, t: f64, served: Job) -> SimResult<f64> {
        let mut next_release = f64::INFINITY;
        let mut pending: &[Job] = &[];
        if self.prefix.last().is_none_or(|j| j.release <= t) {
            self.scratch.clone_from(&self.base);
        } else {
            self.scratch = Self::stream(self.law);
            pending = &self.prefix;
        }
        let served = (served.volume > 0.0).then_some(served);
        let rest = pending.iter().chain(served.iter()).chain(&self.suffix);
        for (index, &job) in (self.prefix.len() - pending.len()..).zip(rest) {
            if next_release.is_finite() || job.release > t {
                job.validated(index)?;
                next_release = next_release.min(job.release);
            } else {
                self.scratch.offer(job, &mut |_| {})?;
            }
        }
        let s_c = self.scratch.speed_at(t, next_release)?;
        Ok(self.eta * s_c + self.epsilon)
    }
}

/// Run non-uniform Algorithm NC on `instance`.
pub fn run_nc_nonuniform(
    instance: &Instance,
    law: PowerLaw,
    params: NonUniformParams,
) -> SimResult<NonUniformRun> {
    if !(params.rounding_base > 1.0) {
        return Err(SimError::InvalidInstance { reason: "rounding base must be > 1" });
    }
    if !(params.eta >= 1.0) {
        return Err(SimError::InvalidInstance { reason: "eta must be >= 1" });
    }
    if !(params.epsilon > 0.0) {
        return Err(SimError::InvalidInstance { reason: "epsilon must be positive" });
    }
    let rounded = instance.with_rounded_densities(params.rounding_base)?;
    let jobs = instance.jobs();
    let n = jobs.len();
    let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
    let rounded_density: Vec<f64> = rounded.jobs().iter().map(|j| j.density).collect();
    let mut current = CurrentC::new(law, &params);

    let mut processed = vec![0.0f64; n];
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![KahanSum::new(); n];
    let mut energy = KahanSum::new();
    let mut builder = ScheduleBuilder::new(law);
    let mut t = jobs.first().map_or(0.0, |j| j.release);
    let mut done = 0usize;
    let mut steps = 0usize;
    // Service-stint tracking for the bootstrap time grid.
    let mut stint_job: Option<usize> = None;
    let mut stint_start = t;
    // Jobs are admitted once released by `t + 1e-15`: `admitted` counts
    // them (a cursor into the release order), `queue` orders the unfinished
    // ones by highest rounded density, then FIFO (earliest release, then
    // id), and `active` lists them for flow accrual.
    let mut admitted = 0usize;
    let mut queue = BinaryHeap::new();
    let mut active: Vec<usize> = Vec::new();

    while done < n {
        steps += 1;
        if steps > params.max_steps {
            return Err(SimError::NonConvergence { what: "non-uniform NC integration" });
        }
        while admitted < n && releases[admitted] <= t + 1e-15 {
            queue.push(ActiveKey { density: rounded_density[admitted], release: releases[admitted], id: admitted });
            active.push(admitted);
            admitted += 1;
        }
        // Every job not yet admitted is unfinished and released after the
        // admission horizon, so the next of them is the next release.
        let next_release = releases.get(admitted).copied().unwrap_or(f64::INFINITY);
        let Some(&ActiveKey { id: cur, .. }) = queue.peek() else {
            // Idle: jump to the next release.
            if !next_release.is_finite() {
                // No active job and no future release: a bookkeeping
                // impossibility, but spin-looping in release builds is
                // worse than reporting it.
                return Err(SimError::Numeric { what: "run_nc_nonuniform: idle jump", value: next_release });
            }
            t = next_release;
            continue;
        };

        if stint_job != Some(cur) {
            stint_job = Some(cur);
            stint_start = t;
            current.rebase(cur, &processed, &releases, &rounded_density)?;
        }
        let served = |volume: f64| Job { release: releases[cur], volume, density: rounded_density[cur] };
        let rem = jobs[cur].volume - processed[cur];
        let s0 = current.speed(t, served(processed[cur]))?;
        let dt_rel = next_release - t;
        // Volume-uniform stepping: each step processes 1/steps_per_job of
        // the job's volume (a fixed grid, so service always terminates in
        // O(steps_per_job) steps), clipped at the next release.
        let dv_grid = jobs[cur].volume / params.steps_per_job as f64;
        let dv_target = dv_grid.min(rem);
        // Bootstrap time grid: the ε phase is stiff (the speed escalates on
        // the timescale t_boot at which (ρ̃εt)^β overtakes ρ̃βt), so steps
        // are additionally capped to grow geometrically from a floor well
        // below t_boot. Without this cap, the first volume step would leap
        // far past t_boot at speed ε and the nested C run would look
        // finished forever after.
        let beta = law.beta();
        let rho_r = rounded_density[cur];
        let t_boot = (params.epsilon.powf(beta) / (rho_r.powf(1.0 - beta) * beta)).powf(1.0 / (1.0 - beta));
        let dt_cap = ((t - stint_start) * 0.02).max(t_boot * 1e-2);

        // Midpoint refinement of the speed over the step.
        let dt_guess = (dv_target / s0).min(dt_cap).min(dt_rel);
        let s_mid = current.speed(t + dt_guess * 0.5, served(processed[cur] + s0 * dt_guess * 0.5))?;
        if !s_mid.is_finite() {
            return Err(SimError::Numeric { what: "run_nc_nonuniform: speed", value: s_mid });
        }
        let mut dt = (dv_target / s_mid).min(dt_cap).min(dt_rel);
        let mut dv = s_mid * dt;
        let mut completes = dv >= rem * (1.0 - 1e-12);
        if completes {
            dv = rem;
            dt = rem / s_mid;
            if dt > dt_rel {
                completes = false;
                dt = dt_rel;
                dv = s_mid * dt;
            }
        }
        if !(dt.is_finite() && dt >= 0.0) {
            return Err(SimError::Numeric { what: "run_nc_nonuniform: step size", value: dt });
        }

        builder.push(Segment::new(t, t + dt, Some(cur), SpeedLaw::Constant { speed: s_mid }));
        energy.add(law.power(s_mid) * dt);
        // Fractional flow accrual with ORIGINAL densities: waiting jobs hold
        // constant remaining volume; the served job drains linearly.
        for &j in &active {
            let rem_j = jobs[j].volume - processed[j];
            if j == cur {
                frac_flow[j].add(jobs[j].density * (rem_j * dt - 0.5 * s_mid * dt * dt));
            } else {
                frac_flow[j].add(jobs[j].density * rem_j * dt);
            }
        }
        processed[cur] += dv;
        t += dt;
        if completes {
            processed[cur] = jobs[cur].volume;
            completion[cur] = t;
            done += 1;
            queue.pop();
            active.retain(|&j| j != cur);
        }
    }

    let frac: Vec<f64> = frac_flow.iter().map(KahanSum::value).collect();
    let int_flow: Vec<f64> = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| job.weight() * (completion[j] - job.release))
        .collect();
    let objective = Objective {
        energy: energy.value(),
        frac_flow: frac.iter().sum(),
        int_flow: int_flow.iter().sum(),
    }
    .validated("run_nc_nonuniform: objective")?;
    Ok(NonUniformRun {
        schedule: builder.build()?,
        objective,
        per_job: PerJob { completion, frac_flow: frac, int_flow },
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clairvoyant::run_c;
    use ncss_sim::numeric::approx_eq;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn mixed_instance() -> Instance {
        Instance::new(vec![
            Job::new(0.0, 1.0, 1.0),
            Job::new(0.2, 0.5, 6.0),
            Job::new(0.5, 0.8, 1.0),
            Job::new(1.0, 0.3, 30.0),
        ])
        .unwrap()
    }

    #[test]
    fn completes_all_jobs() {
        let run = run_nc_nonuniform(&mixed_instance(), pl(3.0), NonUniformParams::default()).unwrap();
        for (j, c) in run.per_job.completion.iter().enumerate() {
            assert!(c.is_finite(), "job {j} incomplete");
        }
        assert!(run.objective.fractional() > 0.0);
    }

    #[test]
    fn accounting_matches_independent_evaluator() {
        let inst = mixed_instance();
        let run = run_nc_nonuniform(&inst, pl(2.5), NonUniformParams::default()).unwrap();
        let ev = ncss_sim::evaluate(&run.schedule, &inst).unwrap();
        assert!(approx_eq(ev.objective.energy, run.objective.energy, 1e-6));
        assert!(approx_eq(ev.objective.frac_flow, run.objective.frac_flow, 1e-5));
        assert!(approx_eq(ev.objective.int_flow, run.objective.int_flow, 1e-5));
    }

    #[test]
    fn hdf_on_rounded_densities() {
        // Job 1 (rounded density 5) arrives while job 0 (density 1) runs and
        // must preempt it.
        let inst = Instance::new(vec![Job::new(0.0, 2.0, 1.0), Job::new(0.5, 0.1, 6.0)]).unwrap();
        let run = run_nc_nonuniform(&inst, pl(2.0), NonUniformParams::default()).unwrap();
        assert!(run.per_job.completion[1] < run.per_job.completion[0]);
    }

    #[test]
    fn rounded_buckets_order_exactly() {
        // The instance above with every density scaled down: job 1's bucket
        // (5x job 0's) must still preempt job 0 however small both are. An
        // absolute 1e-15 slack in the bucket compare would tie them and
        // finish job 1 only after job 0, near t = 2100.
        for scale in [1e-16, 1e-100] {
            let inst = Instance::new(vec![Job::new(0.0, 2.0, scale), Job::new(0.5, 0.1, 6.0 * scale)]).unwrap();
            let run = run_nc_nonuniform(&inst, pl(2.0), NonUniformParams::default()).unwrap();
            let c = &run.per_job.completion;
            assert!(c[1] < c[0], "scale {scale:e}: job 1 done at {} after job 0 at {}", c[1], c[0]);
            assert!(c[1] < 101.0, "scale {scale:e}: job 1 done at {}", c[1]);
        }
    }

    #[test]
    fn same_rounded_bucket_is_fifo() {
        // Densities 1.0 and 1.4 both round to 1 (base 5): FIFO order wins,
        // so the earlier, slightly-lower-density job finishes first.
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(0.1, 0.2, 1.4)]).unwrap();
        let run = run_nc_nonuniform(&inst, pl(2.0), NonUniformParams::default()).unwrap();
        assert!(run.per_job.completion[0] < run.per_job.completion[1]);
    }

    #[test]
    fn epsilon_bootstraps_from_zero() {
        // A single job: the current instance starts empty, so without ε the
        // speed would be stuck at zero forever.
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0)]).unwrap();
        let run = run_nc_nonuniform(&inst, pl(3.0), NonUniformParams::default()).unwrap();
        assert!(run.per_job.completion[0].is_finite());
        assert!(run.per_job.completion[0] > 0.0);
    }

    #[test]
    fn cost_within_constant_of_clairvoyant() {
        // Sanity envelope, not the paper's constant: the measured fractional
        // cost should stay within a modest multiple of Algorithm C's.
        let inst = mixed_instance();
        let c = run_c(&inst, pl(3.0)).unwrap();
        let nc = run_nc_nonuniform(&inst, pl(3.0), NonUniformParams::recommended(3.0)).unwrap();
        let ratio = nc.objective.fractional() / c.objective.fractional();
        // The energy overhead alone is η^α ≈ 34 at the recommended η.
        assert!(ratio < 60.0, "ratio {ratio}");
        assert!(ratio > 0.5, "suspiciously cheap: {ratio}");
    }

    #[test]
    fn higher_eta_reduces_flow_time() {
        let inst = mixed_instance();
        let law = pl(3.0);
        // Both multipliers are above eta_min(3) ≈ 2.6, so neither run
        // degenerates to the ε crawl; the faster one must wait less.
        let lo = run_nc_nonuniform(&inst, law, NonUniformParams { eta: 3.0, ..Default::default() }).unwrap();
        let hi = run_nc_nonuniform(&inst, law, NonUniformParams { eta: 8.0, ..Default::default() }).unwrap();
        assert!(hi.objective.frac_flow < lo.objective.frac_flow);
    }

    #[test]
    fn below_eta_min_degenerates_to_crawl() {
        // With η far below the self-sustainability threshold, the nested C
        // run finishes before "now" and the speed collapses to ε, making
        // the run dramatically more expensive.
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 1.0)]).unwrap();
        let law = pl(3.0);
        let good = run_nc_nonuniform(&inst, law, NonUniformParams::recommended(3.0)).unwrap();
        let bad = run_nc_nonuniform(&inst, law, NonUniformParams { eta: 1.0, ..Default::default() }).unwrap();
        assert!(bad.objective.frac_flow > 10.0 * good.objective.frac_flow);
    }

    #[test]
    fn rejects_bad_params() {
        let inst = mixed_instance();
        let law = pl(2.0);
        assert!(run_nc_nonuniform(&inst, law, NonUniformParams { rounding_base: 1.0, ..Default::default() }).is_err());
        assert!(run_nc_nonuniform(&inst, law, NonUniformParams { eta: 0.5, ..Default::default() }).is_err());
        assert!(run_nc_nonuniform(&inst, law, NonUniformParams { epsilon: 0.0, ..Default::default() }).is_err());
    }

    #[test]
    fn resolution_convergence() {
        // Doubling the resolution should move the objective by little.
        let inst = mixed_instance();
        let law = pl(3.0);
        let coarse = run_nc_nonuniform(&inst, law, NonUniformParams { steps_per_job: 150, ..Default::default() }).unwrap();
        let fine = run_nc_nonuniform(&inst, law, NonUniformParams { steps_per_job: 600, ..Default::default() }).unwrap();
        assert!(
            approx_eq(coarse.objective.fractional(), fine.objective.fractional(), 5e-3),
            "coarse {} vs fine {}",
            coarse.objective.fractional(),
            fine.objective.fractional()
        );
    }
}
