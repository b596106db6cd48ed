//! Property tests for the online information-firewall driver: the
//! firewalled policies must reproduce their direct simulations on
//! arbitrary instances — the executable proof of non-clairvoyance.

use ncss::core::baselines::run_active_count;
use ncss::core::driver::{run_online, ActiveCountPolicy, Decision, NcUniformPolicy, NcView, NonClairvoyantPolicy};
use ncss::prelude::*;
use ncss::sim::numeric::rel_diff;
use ncss::sim::SpeedLaw;
use ncss_rng::props::*;

fn uniform_instance() -> impl Strategy<Value = Instance> {
    ncss_rng::collection::vec((0.0f64..5.0, 0.05f64..3.0), 1..10).prop_map(|jobs| {
        Instance::new(jobs.into_iter().map(|(r, v)| Job::unit_density(r, v)).collect())
            .expect("valid jobs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn firewalled_nc_equals_direct(inst in uniform_instance(), alpha in 1.5f64..4.0) {
        let law = PowerLaw::new(alpha).unwrap();
        let direct = run_nc_uniform(&inst, law).unwrap();
        let (_, online) = run_online(&inst, law, &mut NcUniformPolicy::default()).unwrap();
        prop_assert!(
            rel_diff(online.objective.fractional(), direct.objective.fractional()) < 1e-6,
            "online {} vs direct {}",
            online.objective.fractional(),
            direct.objective.fractional()
        );
        prop_assert!(
            rel_diff(online.objective.int_flow, direct.objective.int_flow) < 1e-6
        );
    }

    #[test]
    fn firewalled_active_count_equals_direct(inst in uniform_instance()) {
        let law = PowerLaw::new(2.0).unwrap();
        let direct = run_active_count(&inst, law).unwrap();
        let (_, online) = run_online(&inst, law, &mut ActiveCountPolicy).unwrap();
        prop_assert!(rel_diff(online.objective.fractional(), direct.objective.fractional()) < 1e-6);
    }
}

/// A policy that deliberately works only from the view and keeps its own
/// event log; the log must never contain a volume of an *incomplete* job.
struct Auditor {
    inner: NcUniformPolicy,
    observed_volumes: Vec<(usize, f64)>,
}

impl NonClairvoyantPolicy for Auditor {
    fn decide(&mut self, view: &NcView<'_>) -> Decision {
        for r in view.released {
            if let Some(v) = view.revealed_volume[r.id] {
                self.observed_volumes.push((r.id, v));
            }
        }
        self.inner.decide(view)
    }
    fn name(&self) -> &'static str {
        "auditor"
    }
}

#[test]
fn volumes_revealed_only_at_completion() {
    let inst = Instance::new(vec![
        Job::unit_density(0.0, 2.0),
        Job::unit_density(0.1, 1.0),
        Job::unit_density(3.0, 0.4),
    ])
    .unwrap();
    let law = PowerLaw::new(2.0).unwrap();
    let mut auditor = Auditor { inner: NcUniformPolicy::default(), observed_volumes: Vec::new() };
    let (_, ev) = run_online(&inst, law, &mut auditor).unwrap();
    // Every observation of (job, volume) must match the true volume (no
    // fabrication) — and the driver only populates it after completion, so
    // an observation implies the job had already finished at some event.
    for (id, v) in &auditor.observed_volumes {
        assert_eq!(*v, inst.job(*id).volume);
        assert!(ev.per_job.completion[*id].is_finite());
    }
    // The first decision happens before anything completed: the auditor
    // saw nothing then (job 0 completes strictly after its service began).
    assert!(auditor.observed_volumes.iter().all(|(id, _)| *id < inst.len()));
}

/// An adversarially lazy-but-legal policy: serves the FIFO head at a tiny
/// constant speed. The driver must still terminate and charge the huge
/// flow-time honestly.
struct Slowpoke;

impl NonClairvoyantPolicy for Slowpoke {
    fn decide(&mut self, view: &NcView<'_>) -> Decision {
        Decision { job: view.active().first().copied(), law: SpeedLaw::Constant { speed: 0.05 } }
    }
    fn name(&self) -> &'static str {
        "slowpoke"
    }
}

#[test]
fn slow_policies_pay_in_flow_time() {
    let inst = Instance::new(vec![Job::unit_density(0.0, 1.0), Job::unit_density(0.1, 1.0)]).unwrap();
    let law = PowerLaw::new(2.0).unwrap();
    let (_, slow) = run_online(&inst, law, &mut Slowpoke).unwrap();
    let (_, good) = run_online(&inst, law, &mut NcUniformPolicy::default()).unwrap();
    assert!(slow.objective.frac_flow > 5.0 * good.objective.frac_flow);
}
