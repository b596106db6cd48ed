//! The clairvoyant shadow: `K_j = W^{(C)}(r_j^-)`, Algorithm C's remaining
//! weight just before a release over a machine's earlier jobs, plus the
//! full weight of the earlier jobs tied at `r_j` (the limit of vanishing
//! gaps; without it the Lemma 3 energy equality fails on a simultaneous
//! batch).
//!
//! NC serves job `j` at power `K_j + W̆_j(t)` (Section 3). NC-PAR reads `K_j`
//! per machine (Theorem 17), C-PAR sends each job where it is least
//! (Lemma 19), the capped NC clips the same growth curve, and the
//! firewalled NC reads it from revealed volumes. All four read it here:
//!
//! * [`base_power`] is the definition, a fresh [`run_c`] per read; lazy HDF,
//!   whose histories are not in release order, and the tests use it.
//! * [`MachineShadow`] is a [`CStream`] fed the jobs in release order: a
//!   read costs one offer.
//! * [`ShadowTimeline`] caches a shadow's future, so it reads `K` for a job
//!   it has not received.
//!
//! Both give [`base_power`]'s bits. [`MachineShadow::admit`] offers the job
//! *before* it reads: `offer` makes the one `advance_to(r)` that `run_c`
//! over the history makes, so the shadow passes the same events and
//! `WEIGHT_RESYNC_EVERY` resyncs as the re-run. [`crate::NcStream`] reads
//! first, which shifts the resyncs and, past 4,096 events, `K` by a few
//! ulps; it keeps that shadow because the committed NC goldens pin its bits
//! (DESIGN.md §12.2).

use crate::clairvoyant::run_c;
use crate::streaming::{CStream, DecayLaw, StreamConfig};
use ncss_sim::{Instance, Job, PowerLaw, Segment, SimResult};

/// `K` for a job released at `release` on a machine whose earlier jobs are
/// `history`, in any order: a fresh [`run_c`] over those released strictly
/// before, read at the left limit, plus those released at `release`,
/// summed in `history` order.
pub fn base_power(history: &[Job], release: f64, law: PowerLaw) -> SimResult<f64> {
    let prefix: Vec<Job> = history.iter().filter(|i| i.release < release).copied().collect();
    let strictly_before = if prefix.is_empty() {
        0.0
    } else {
        run_c(&Instance::new(prefix)?, law)?.remaining_weight_before(release)
    };
    let ties: f64 = history.iter().filter(|i| i.release == release).map(Job::weight).sum();
    Ok(strictly_before + ties)
}

/// One machine's Algorithm C run, advanced to its latest release, plus the
/// weight of its jobs released then. Over any [`DecayLaw`]: the general
/// power functions read their `K` here too.
#[derive(Debug)]
pub struct MachineShadow<M: DecayLaw = PowerLaw> {
    stream: CStream<M>,
    tie_release: f64,
    tie_weight: f64,
}

impl<M: DecayLaw> MachineShadow<M> {
    fn with_config(law: M, config: StreamConfig) -> Self {
        Self { stream: CStream::new(law, config), tie_release: f64::NEG_INFINITY, tie_weight: 0.0 }
    }

    /// A shadow that keeps no segments.
    #[must_use]
    pub fn new(law: M) -> Self {
        Self::with_config(law, StreamConfig::shadow())
    }

    /// Feed the next job (releases non-decreasing) and return its `K`:
    /// [`base_power`] over the jobs admitted before it.
    #[inline]
    pub fn admit(&mut self, job: Job) -> SimResult<f64> {
        self.stream.offer(job, &mut |_| {})?;
        if job.release != self.tie_release {
            self.tie_release = job.release;
            self.tie_weight = 0.0;
        }
        let k = self.stream.weight_before(job.release) + self.tie_weight;
        self.tie_weight += job.weight();
        Ok(k)
    }
}

/// A [`MachineShadow`] with its future cached: the last retired segment
/// (which a tied release reads) and a clone of the shadow run to
/// completion, rebuilt per received job at `O(active jobs)` and read with
/// a forward cursor. These are the segments of a fresh `run_c` over the
/// received jobs from the latest release on.
#[derive(Debug)]
pub struct ShadowTimeline {
    law: PowerLaw,
    shadow: MachineShadow,
    last_retired: Option<Segment>,
    future: Vec<Segment>,
    /// First segment of `future` that may still end at or after a read.
    cursor: usize,
}

impl ShadowTimeline {
    /// An empty timeline under power law `law`.
    #[must_use]
    pub fn new(law: PowerLaw) -> Self {
        Self {
            law,
            shadow: MachineShadow::with_config(law, StreamConfig::batch()),
            last_retired: None,
            future: Vec::new(),
            cursor: 0,
        }
    }

    /// `K` of a job released at `r` that has not been received:
    /// [`base_power`] over the received jobs. Reads come at non-decreasing
    /// `r`, none before the latest received release.
    #[inline]
    pub fn weight_before(&mut self, r: f64) -> f64 {
        while self.future.get(self.cursor).is_some_and(|s| s.end < r) {
            self.cursor += 1;
        }
        let strictly_before = match self.future.get(self.cursor) {
            Some(s) if s.start < r && r <= s.end => s.power_at(self.law, r),
            _ => 0.0,
        };
        let shadow = &self.shadow;
        strictly_before + if r == shadow.tie_release { shadow.tie_weight } else { 0.0 }
    }

    /// Receive the next job (releases non-decreasing) and rebuild the
    /// cached future.
    pub fn receive(&mut self, job: Job) -> SimResult<()> {
        self.shadow.admit(job)?;
        let stream = &mut self.shadow.stream;
        if let Some(seg) = stream.spill_mut().drain().last() {
            self.last_retired = Some(seg);
        }
        let mut rest = stream.clone();
        rest.finish(&mut |_| {})?;
        self.future.clear();
        self.future.extend(self.last_retired);
        self.future.extend(rest.spill_mut().drain());
        self.cursor = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::numeric::approx_eq;

    fn jobs() -> Vec<Job> {
        vec![
            Job::unit_density(0.0, 4.0),
            Job::unit_density(1.0, 1.0),
            Job::unit_density(1.0, 2.0),
            Job::unit_density(3.0, 0.7),
            Job::unit_density(9.0, 0.2),
        ]
    }

    #[test]
    fn base_power_is_the_left_limit_plus_ties() {
        let law = PowerLaw::new(2.0).unwrap();
        let jobs = jobs();
        assert_eq!(base_power(&[], 0.0, law).unwrap(), 0.0);
        // W(1^-) = (2 - 1/2)^2 for one weight-4 job at alpha = 2.
        assert!(approx_eq(base_power(&jobs[..1], 1.0, law).unwrap(), 2.25, 1e-12));
        // The tied job counts at full weight.
        assert!(approx_eq(base_power(&jobs[..2], 1.0, law).unwrap(), 3.25, 1e-12));
        // Order does not matter for the strictly-earlier run: a later-released
        // job in the history is ignored.
        let shuffled = [jobs[3], jobs[0]];
        assert_eq!(
            base_power(&shuffled, 1.0, law).unwrap().to_bits(),
            base_power(&jobs[..1], 1.0, law).unwrap().to_bits()
        );
    }

    #[test]
    fn both_shadows_read_the_rerun() {
        for alpha in [2.0, 3.0] {
            let law = PowerLaw::new(alpha).unwrap();
            let jobs = jobs();
            let mut shadow = MachineShadow::new(law);
            let mut timeline = ShadowTimeline::new(law);
            for (j, &job) in jobs.iter().enumerate() {
                let want = base_power(&jobs[..j], job.release, law).unwrap().to_bits();
                assert_eq!(timeline.weight_before(job.release).to_bits(), want, "timeline K_{j}");
                assert_eq!(shadow.admit(job).unwrap().to_bits(), want, "shadow K_{j}");
                timeline.receive(job).unwrap();
            }
        }
    }
}
