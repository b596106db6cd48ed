//! Jobs and problem instances.
//!
//! A job has a release time, a processing **volume**, and a **density** ρ;
//! its weight is `W = ρ · V`. In the non-clairvoyant model the density is
//! public at release while the volume is revealed only on completion — the
//! types here carry the ground truth, and `ncss-core`'s driver is what
//! restricts algorithm visibility.

use crate::error::{SimError, SimResult};

/// Identifier of a job: its index in the owning [`Instance`].
pub type JobId = usize;

/// A single job of the flow-time-plus-energy scheduling problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Release (arrival) time `r ≥ 0`.
    pub release: f64,
    /// Processing volume `V > 0` (unknown to non-clairvoyant algorithms).
    pub volume: f64,
    /// Density `ρ > 0` (known at release; weight = ρ·V).
    pub density: f64,
}

impl Job {
    /// Convenience constructor.
    #[must_use]
    pub fn new(release: f64, volume: f64, density: f64) -> Self {
        Self { release, volume, density }
    }

    /// A unit-density job, the common case of Section 3.
    #[must_use]
    pub fn unit_density(release: f64, volume: f64) -> Self {
        Self::new(release, volume, 1.0)
    }

    /// Weight `W = ρ · V`.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.density * self.volume
    }

    /// Validate the job's fields, reporting it as `index` on failure.
    ///
    /// [`Instance::new`] runs this on every job; streaming consumers that
    /// never build an `Instance` (the `ncss-core` streaming module, the CLI
    /// `stream` command) call it per arrival instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use ncss_sim::Job;
    /// assert!(Job::new(0.0, 1.0, 2.0).validated(0).is_ok());
    /// assert!(Job::new(0.0, -1.0, 2.0).validated(7).is_err());
    /// ```
    pub fn validated(&self, index: usize) -> SimResult<()> {
        self.validate(index)
    }

    fn validate(&self, index: usize) -> SimResult<()> {
        let bad = |reason| Err(SimError::InvalidJob { index, reason });
        if !self.release.is_finite() || self.release < 0.0 {
            return bad("release must be finite and non-negative");
        }
        if !self.volume.is_finite() || self.volume <= 0.0 {
            return bad("volume must be finite and positive");
        }
        if !self.density.is_finite() || self.density <= 0.0 {
            return bad("density must be finite and positive");
        }
        Ok(())
    }
}

/// An instance: a set of jobs, stored sorted by `(release, id)`.
///
/// [`JobId`]s refer to positions in the *sorted* order, so ids are stable
/// once the instance is built. The paper assumes w.l.o.g. distinct release
/// times; we instead break ties deterministically by id everywhere.
///
/// # Examples
///
/// ```
/// use ncss_sim::{Instance, Job};
///
/// let inst = Instance::new(vec![
///     Job::unit_density(1.0, 2.0),   // arrives second...
///     Job::new(0.0, 4.0, 0.5),       // ...but this one sorts first
/// ]).unwrap();
/// assert_eq!(inst.job(0).release, 0.0);
/// assert_eq!(inst.total_weight(), 2.0 + 2.0); // ρ·V summed
/// assert!(!inst.is_uniform_density());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    jobs: Vec<Job>,
}

impl Instance {
    /// Build an instance, sorting jobs by release time (stable, so equal
    /// releases keep their given order) and validating every job.
    pub fn new(mut jobs: Vec<Job>) -> SimResult<Self> {
        // total_cmp keeps the sort panic-free even when a release is NaN;
        // validation below then rejects the NaN with a structured error.
        jobs.sort_by(|a, b| a.release.total_cmp(&b.release));
        for (i, j) in jobs.iter().enumerate() {
            j.validate(i)?;
        }
        Ok(Self { jobs })
    }

    /// A single-job instance.
    pub fn single(job: Job) -> SimResult<Self> {
        Self::new(vec![job])
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the instance has no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The jobs in release order.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Job by id.
    #[must_use]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id]
    }

    /// Total weight `Σ ρ_j V_j`.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.jobs.iter().map(Job::weight).sum()
    }

    /// Total volume `Σ V_j`.
    #[must_use]
    pub fn total_volume(&self) -> f64 {
        self.jobs.iter().map(|j| j.volume).sum()
    }

    /// True when all jobs share one density (to relative tolerance 1e-12).
    #[must_use]
    pub fn is_uniform_density(&self) -> bool {
        match self.jobs.first() {
            None => true,
            Some(first) => self
                .jobs
                .iter()
                .all(|j| (j.density - first.density).abs() <= 1e-12 * first.density.abs()),
        }
    }

    /// The sub-instance of jobs released strictly before `t`, with ids
    /// preserved via the returned mapping (new id -> original id).
    ///
    /// This is the "prefix instance" Algorithm NC simulates Algorithm C on:
    /// by the time NC starts a job released at `t`, all strictly earlier
    /// jobs are complete and their volumes known.
    #[must_use]
    pub fn prefix_before(&self, t: f64) -> (Instance, Vec<JobId>) {
        let mut jobs = Vec::new();
        let mut ids = Vec::new();
        for (id, j) in self.jobs.iter().enumerate() {
            if j.release < t {
                jobs.push(*j);
                ids.push(id);
            }
        }
        (Instance { jobs }, ids)
    }

    /// Returns a copy with every density replaced by
    /// `β^floor(log_β ρ)` — the paper's Section 4 rounding of densities
    /// down to integer powers of `β > 1`.
    pub fn with_rounded_densities(&self, beta: f64) -> SimResult<Instance> {
        if !(beta.is_finite() && beta > 1.0) {
            return Err(SimError::InvalidInstance { reason: "rounding base must be > 1" });
        }
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                let k = j.density.ln() / beta.ln();
                // Guard against 3.9999999 flooring to 3 when ρ is an exact power.
                let k = (k + 1e-12).floor();
                Job { density: beta.powf(k), ..*j }
            })
            .collect();
        Ok(Self { jobs })
    }

    /// Latest release time (0 for empty instances).
    #[must_use]
    pub fn last_release(&self) -> f64 {
        self.jobs.last().map_or(0.0, |j| j.release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_sorted_by_release() {
        let inst = Instance::new(vec![
            Job::unit_density(3.0, 1.0),
            Job::unit_density(1.0, 2.0),
            Job::unit_density(2.0, 3.0),
        ])
        .unwrap();
        let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
        assert_eq!(releases, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn validation_rejects_bad_jobs() {
        assert!(Instance::new(vec![Job::new(-1.0, 1.0, 1.0)]).is_err());
        assert!(Instance::new(vec![Job::new(0.0, 0.0, 1.0)]).is_err());
        assert!(Instance::new(vec![Job::new(0.0, 1.0, -2.0)]).is_err());
        assert!(Instance::new(vec![Job::new(f64::NAN, 1.0, 1.0)]).is_err());
        // NaN releases must not panic the sort either (multi-job path).
        assert!(Instance::new(vec![
            Job::unit_density(1.0, 1.0),
            Job::new(f64::NAN, 1.0, 1.0),
            Job::unit_density(0.0, 1.0),
        ])
        .is_err());
    }

    #[test]
    fn weights_and_totals() {
        let inst = Instance::new(vec![Job::new(0.0, 2.0, 3.0), Job::new(1.0, 4.0, 0.5)]).unwrap();
        assert_eq!(inst.job(0).weight(), 6.0);
        assert_eq!(inst.total_weight(), 8.0);
        assert_eq!(inst.total_volume(), 6.0);
    }

    #[test]
    fn uniform_density_detection() {
        let u = Instance::new(vec![Job::unit_density(0.0, 1.0), Job::unit_density(1.0, 2.0)]).unwrap();
        assert!(u.is_uniform_density());
        let m = Instance::new(vec![Job::new(0.0, 1.0, 1.0), Job::new(1.0, 1.0, 2.0)]).unwrap();
        assert!(!m.is_uniform_density());
    }

    #[test]
    fn prefix_before_strict() {
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(1.0, 1.0),
            Job::unit_density(2.0, 1.0),
        ])
        .unwrap();
        let (p, ids) = inst.prefix_before(1.0);
        assert_eq!(p.len(), 1);
        assert_eq!(ids, vec![0]);
        let (p, ids) = inst.prefix_before(2.5);
        assert_eq!(p.len(), 3);
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn density_rounding_powers_of_beta() {
        let inst = Instance::new(vec![
            Job::new(0.0, 1.0, 1.0),
            Job::new(0.0, 1.0, 7.0),
            Job::new(0.0, 1.0, 25.0),
            Job::new(0.0, 1.0, 0.3),
        ])
        .unwrap();
        let r = inst.with_rounded_densities(5.0).unwrap();
        let d: Vec<f64> = r.jobs().iter().map(|j| j.density).collect();
        // 1 -> 5^0, 7 -> 5^1, 25 -> 5^2, 0.3 -> 5^{-1}
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 5.0).abs() < 1e-12);
        assert!((d[2] - 25.0).abs() < 1e-9);
        assert!((d[3] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn density_rounding_exact_power_stays_put() {
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 125.0)]).unwrap();
        let r = inst.with_rounded_densities(5.0).unwrap();
        assert!((r.job(0).density - 125.0).abs() < 1e-9);
    }

    #[test]
    fn rounding_rejects_bad_base() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(inst.with_rounded_densities(1.0).is_err());
        assert!(inst.with_rounded_densities(f64::NAN).is_err());
    }

    #[test]
    fn equal_release_ties_keep_input_order() {
        let a = Job::new(1.0, 1.0, 1.0);
        let b = Job::new(1.0, 2.0, 1.0);
        let inst = Instance::new(vec![a, b]).unwrap();
        assert_eq!(inst.job(0).volume, 1.0);
        assert_eq!(inst.job(1).volume, 2.0);
    }
}
