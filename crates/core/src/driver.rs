//! The online non-clairvoyant game, with the information firewall enforced
//! **by construction**.
//!
//! The paper (Section 1.2) frames the problem as a game: at every moment
//! the adversary may declare a job finished, and the algorithm reacts with
//! a speed. Everywhere else in this workspace the algorithms are simulated
//! directly (with module discipline keeping them honest); this module
//! instead runs policies through a [`NcView`] that *physically* contains
//! only what a non-clairvoyant scheduler may know:
//!
//! * releases seen so far (id, release time, density — never volume),
//! * the volume the policy itself has processed per job,
//! * completion notifications, which also reveal the finished job's volume.
//!
//! A policy answers with a job and an analytic [`SpeedLaw`]; the driver
//! (which holds the ground truth) executes the law until the next release
//! or completion and re-queries. Because the paper's algorithms use exact
//! growth curves, the interface speaks speed *laws*, not sampled constants
//! — [`NcUniformPolicy`] reproduces `run_nc_uniform` to machine precision
//! through the firewall, which is the strongest possible evidence that the
//! algorithm never peeks at a volume.

use crate::shadow::ShadowTimeline;
use ncss_sim::{
    evaluate, Evaluated, Instance, Job, PowerLaw, Schedule, ScheduleBuilder, Segment, SimError,
    SimResult, SpeedLaw,
};

/// A release visible to the policy (no volume!).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleasedJob {
    /// Job id (index in release order).
    pub id: usize,
    /// Release time.
    pub release: f64,
    /// Density ρ (public at release in the known-density model).
    pub density: f64,
}

/// Everything a non-clairvoyant policy may observe.
#[derive(Debug)]
pub struct NcView<'a> {
    /// Current time.
    pub now: f64,
    /// Jobs released so far, in release order.
    pub released: &'a [ReleasedJob],
    /// Volume processed *by this policy* per released job.
    pub processed: &'a [f64],
    /// For each released job, the revealed volume if it has completed.
    pub revealed_volume: &'a [Option<f64>],
    /// The power law in force.
    pub law: PowerLaw,
}

impl NcView<'_> {
    /// Ids of released jobs not yet completed, in release order.
    #[must_use]
    pub fn active(&self) -> Vec<usize> {
        self.released
            .iter()
            .filter(|r| self.revealed_volume[r.id].is_none())
            .map(|r| r.id)
            .collect()
    }
}

/// A policy's answer: which job to serve under which speed law (until the
/// driver reports the next event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Job to serve (`None` = idle until the next release).
    pub job: Option<usize>,
    /// Speed law while serving.
    pub law: SpeedLaw,
}

/// An online non-clairvoyant scheduling policy.
pub trait NonClairvoyantPolicy {
    /// Choose the next action given the (volume-free) view.
    fn decide(&mut self, view: &NcView<'_>) -> Decision;

    /// Display name.
    fn name(&self) -> &'static str;
}

/// Drive `policy` over `instance` (whose volumes stay on this side of the
/// firewall) and return the evaluated schedule.
pub fn run_online(
    instance: &Instance,
    law: PowerLaw,
    policy: &mut dyn NonClairvoyantPolicy,
) -> SimResult<(Schedule, Evaluated)> {
    let jobs = instance.jobs();
    let n = jobs.len();
    let mut processed = vec![0.0f64; n];
    let mut revealed: Vec<Option<f64>> = vec![None; n];
    let mut released: Vec<ReleasedJob> = Vec::new();
    let mut next = 0usize;
    let mut t = jobs.first().map_or(0.0, |j| j.release);
    let mut builder = ScheduleBuilder::new(law);
    let mut done = 0usize;
    let mut guard = 0usize;

    let admit = |t: f64, next: &mut usize, released: &mut Vec<ReleasedJob>| {
        while *next < n && jobs[*next].release <= t {
            released.push(ReleasedJob { id: *next, release: jobs[*next].release, density: jobs[*next].density });
            *next += 1;
        }
    };
    admit(t, &mut next, &mut released);

    while done < n {
        guard += 1;
        if guard > 20 * n + 64 {
            return Err(SimError::NonConvergence { what: "online driver event loop" });
        }
        let decision = {
            let view = NcView { now: t, released: &released, processed: &processed, revealed_volume: &revealed, law };
            policy.decide(&view)
        };
        let t_release = if next < n { jobs[next].release } else { f64::INFINITY };

        let Some(j) = decision.job else {
            // Idle. If nothing will ever be released again, the policy is
            // stuck with unfinished work.
            if !t_release.is_finite() {
                return Err(SimError::InvalidInstance { reason: "policy idles with active jobs and no future releases" });
            }
            t = t_release;
            admit(t, &mut next, &mut released);
            continue;
        };
        if j >= n || revealed[j].is_some() || jobs[j].release > t {
            return Err(SimError::InvalidInstance { reason: "policy chose an invalid job" });
        }

        // Execute the law until the job completes (driver-side knowledge)
        // or the next release.
        let probe = Segment::new(t, t + 1e18, Some(j), decision.law);
        let remaining = jobs[j].volume - processed[j];
        let t_complete = probe.time_at_volume(law, remaining).unwrap_or(f64::INFINITY);
        if !t_complete.is_finite() && !t_release.is_finite() {
            return Err(SimError::InvalidInstance { reason: "policy makes no progress and nothing arrives" });
        }
        let completes = t_complete <= t_release;
        let t_end = if completes { t_complete } else { t_release };
        if t_end > t {
            let seg = Segment::new(t, t_end, Some(j), decision.law);
            processed[j] += seg.volume(law);
            builder.push(seg);
        }
        t = t_end;
        if completes {
            processed[j] = jobs[j].volume;
            revealed[j] = Some(jobs[j].volume); // the adversary reveals V_j
            done += 1;
        }
        admit(t, &mut next, &mut released);
    }

    let schedule = builder.build()?;
    let ev = evaluate(&schedule, instance)?;
    Ok((schedule, ev))
}

/// The paper's Algorithm NC (uniform density) expressed as an online
/// policy: FIFO order, growth law `P = W^{(C)}(r_j^-) + W̆_j(t)`.
///
/// Its clairvoyant shadow ([`ShadowTimeline`]) receives a job once its
/// volume is revealed; under FIFO every job before the head has completed,
/// so the head's `K` is read from completed jobs only and has the bits of
/// a C re-run over the revealed prefix ([`crate::shadow::base_power`]).
#[derive(Debug, Default)]
pub struct NcUniformPolicy {
    /// C over the completed jobs, built on the first completion.
    shadow: Option<ShadowTimeline>,
    /// Jobs the shadow has received: the first `received` ids.
    received: usize,
}

impl NonClairvoyantPolicy for NcUniformPolicy {
    fn decide(&mut self, view: &NcView<'_>) -> Decision {
        // Job 0 completes first, so while it is active the policy holds
        // nothing; this also starts a value reused across runs afresh.
        if view.revealed_volume.first().is_some_and(Option::is_none) {
            *self = Self::default();
        }
        while let Some(&Some(volume)) = view.revealed_volume.get(self.received) {
            let r = view.released[self.received];
            let job = Job { release: r.release, volume, density: r.density };
            let shadow = self.shadow.get_or_insert_with(|| ShadowTimeline::new(view.law));
            shadow.receive(job).expect("C run over the revealed jobs");
            self.received += 1;
        }
        let Some(&me) = view.released.get(self.received) else {
            return Decision { job: None, law: SpeedLaw::Idle };
        };
        let k = self.shadow.as_mut().map_or(0.0, |s| s.weight_before(me.release));
        let u0 = k + me.density * view.processed[me.id];
        Decision { job: Some(me.id), law: SpeedLaw::Growth { u0, rho: me.density } }
    }

    fn name(&self) -> &'static str {
        "nc-uniform (online)"
    }
}

/// The `P = #active` baseline as an online policy (FIFO service order).
#[derive(Debug, Default)]
pub struct ActiveCountPolicy;

impl NonClairvoyantPolicy for ActiveCountPolicy {
    fn decide(&mut self, view: &NcView<'_>) -> Decision {
        let active = view.active();
        let Some(&j) = active.first() else {
            return Decision { job: None, law: SpeedLaw::Idle };
        };
        let speed = view.law.speed_for_power(active.len() as f64);
        Decision { job: Some(j), law: SpeedLaw::Constant { speed } }
    }

    fn name(&self) -> &'static str {
        "active-count (online)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::run_active_count;
    use crate::nc_uniform::run_nc_uniform;
    use ncss_sim::numeric::rel_diff;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn instances() -> Vec<Instance> {
        vec![
            Instance::new(vec![Job::unit_density(0.0, 1.5)]).unwrap(),
            Instance::new(vec![
                Job::unit_density(0.0, 1.0),
                Job::unit_density(0.3, 2.0),
                Job::unit_density(0.5, 0.4),
                Job::unit_density(4.0, 0.9),
            ])
            .unwrap(),
            Instance::new(vec![
                Job::unit_density(0.0, 0.7),
                Job::unit_density(0.0, 1.1),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn firewalled_nc_matches_direct_simulation() {
        // The strongest non-clairvoyance certificate: the policy sees no
        // volumes yet reproduces the direct simulation exactly.
        for alpha in [2.0, 3.0] {
            for inst in instances() {
                let direct = run_nc_uniform(&inst, pl(alpha)).unwrap();
                let mut policy = NcUniformPolicy::default();
                let (_, online) = run_online(&inst, pl(alpha), &mut policy).unwrap();
                assert!(
                    rel_diff(online.objective.fractional(), direct.objective.fractional()) < 1e-7,
                    "alpha={alpha}: online {} vs direct {}",
                    online.objective.fractional(),
                    direct.objective.fractional()
                );
                for j in 0..inst.len() {
                    assert!(rel_diff(online.per_job.completion[j], direct.per_job.completion[j]) < 1e-7);
                }
            }
        }
    }

    #[test]
    fn firewalled_active_count_matches_baseline() {
        for inst in instances() {
            let direct = run_active_count(&inst, pl(2.5)).unwrap();
            let mut policy = ActiveCountPolicy;
            let (_, online) = run_online(&inst, pl(2.5), &mut policy).unwrap();
            assert!(rel_diff(online.objective.fractional(), direct.objective.fractional()) < 1e-7);
        }
    }

    #[test]
    fn stalled_policy_is_rejected() {
        struct Lazy;
        impl NonClairvoyantPolicy for Lazy {
            fn decide(&mut self, _view: &NcView<'_>) -> Decision {
                Decision { job: None, law: SpeedLaw::Idle }
            }
            fn name(&self) -> &'static str {
                "lazy"
            }
        }
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(run_online(&inst, pl(2.0), &mut Lazy).is_err());
    }

    #[test]
    fn invalid_job_choice_is_rejected() {
        struct Confused;
        impl NonClairvoyantPolicy for Confused {
            fn decide(&mut self, _view: &NcView<'_>) -> Decision {
                Decision { job: Some(999), law: SpeedLaw::Constant { speed: 1.0 } }
            }
            fn name(&self) -> &'static str {
                "confused"
            }
        }
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(run_online(&inst, pl(2.0), &mut Confused).is_err());
    }

    #[test]
    fn zero_speed_progress_is_rejected() {
        struct Frozen;
        impl NonClairvoyantPolicy for Frozen {
            fn decide(&mut self, view: &NcView<'_>) -> Decision {
                Decision { job: view.active().first().copied(), law: SpeedLaw::Constant { speed: 0.0 } }
            }
            fn name(&self) -> &'static str {
                "frozen"
            }
        }
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(run_online(&inst, pl(2.0), &mut Frozen).is_err());
    }
}
