//! Property tests for the general-power-function runs and the
//! speed-bounded variants.

use ncss::core::generic_runs::{generic_rearrangement_distance, run_c_generic, run_nc_uniform_generic};
use ncss::core::{run_c_bounded, run_nc_uniform_bounded};
use ncss::prelude::*;
use ncss::sim::generic::PolyPower;
use ncss::sim::numeric::rel_diff;
use ncss_rng::props::*;

fn uniform_instance() -> impl Strategy<Value = Instance> {
    ncss_rng::collection::vec((0.0f64..4.0, 0.1f64..3.0), 1..6).prop_map(|jobs| {
        Instance::new(jobs.into_iter().map(|(r, v)| Job::unit_density(r, v)).collect())
            .expect("valid jobs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generic_lemma3_holds_for_mixed_power(inst in uniform_instance()) {
        let pf = PolyPower::new(vec![(1.0, 3.0), (0.4, 1.8)]).unwrap();
        let c = run_c_generic(&inst, &pf).unwrap();
        let nc = run_nc_uniform_generic(&inst, &pf).unwrap();
        prop_assert!(
            rel_diff(c.objective.energy, nc.objective.energy) < 1e-4,
            "C {} vs NC {}", c.objective.energy, nc.objective.energy
        );
    }

    #[test]
    fn generic_lemma6_holds_for_mixed_power(inst in uniform_instance()) {
        let pf = PolyPower::new(vec![(0.7, 2.5), (0.3, 4.0)]).unwrap();
        let c = run_c_generic(&inst, &pf).unwrap();
        let nc = run_nc_uniform_generic(&inst, &pf).unwrap();
        let d = generic_rearrangement_distance(&pf, &c, &nc, 48);
        prop_assert!(d < 1e-3 * (1.0 + nc.makespan()), "distance {d}");
    }

    #[test]
    fn bounded_runs_complete_and_respect_cap(inst in uniform_instance(), cap in 0.4f64..4.0) {
        let law = PowerLaw::new(2.5).unwrap();
        let (sched_c, ev_c) = run_c_bounded(&inst, law, cap).unwrap();
        let (sched_nc, ev_nc) = run_nc_uniform_bounded(&inst, law, cap).unwrap();
        prop_assert!(sched_c.max_speed() <= cap + 1e-9);
        prop_assert!(sched_nc.max_speed() <= cap + 1e-9);
        for ev in [&ev_c, &ev_nc] {
            for c in &ev.per_job.completion {
                prop_assert!(c.is_finite());
            }
            prop_assert!(ev.objective.fractional() > 0.0);
        }
    }

    #[test]
    fn bounded_cost_dominates_unbounded(inst in uniform_instance(), cap in 0.4f64..2.0) {
        // A cap can only restrict the feasible speed set, so the capped
        // algorithm's flow-time cannot drop below the unbounded run's.
        let law = PowerLaw::new(3.0).unwrap();
        let unbounded = run_c(&inst, law).unwrap();
        let (_, capped) = run_c_bounded(&inst, law, cap).unwrap();
        prop_assert!(capped.objective.frac_flow >= unbounded.objective.frac_flow * (1.0 - 1e-9));
    }
}

#[test]
fn generic_single_term_agrees_with_closed_forms_end_to_end() {
    // Cross-validation across the whole pipeline: a single-term PolyPower
    // must reproduce the exact runs on a nontrivial instance.
    let law = PowerLaw::new(2.2).unwrap();
    let pf = PolyPower::from_power_law(law);
    let inst = Instance::new(vec![
        Job::unit_density(0.0, 1.0),
        Job::unit_density(0.5, 2.0),
        Job::unit_density(0.6, 0.3),
        Job::unit_density(4.0, 1.1),
    ])
    .unwrap();
    let exact_c = run_c(&inst, law).unwrap();
    let gen_c = run_c_generic(&inst, &pf).unwrap();
    assert!(rel_diff(exact_c.objective.fractional(), gen_c.objective.fractional()) < 1e-5);
    let exact_nc = run_nc_uniform(&inst, law).unwrap();
    let gen_nc = run_nc_uniform_generic(&inst, &pf).unwrap();
    assert!(rel_diff(exact_nc.objective.fractional(), gen_nc.objective.fractional()) < 1e-5);
}

#[test]
fn loose_cap_interpolates_to_unbounded() {
    let law = PowerLaw::new(3.0).unwrap();
    let inst = Instance::new(vec![Job::unit_density(0.0, 2.0), Job::unit_density(0.4, 1.0)]).unwrap();
    let unbounded = run_nc_uniform(&inst, law).unwrap().objective.fractional();
    let mut last = f64::INFINITY;
    for cap in [0.8, 1.2, 2.0, 8.0] {
        let (_, ev) = run_nc_uniform_bounded(&inst, law, cap).unwrap();
        let cost = ev.objective.fractional();
        // Fractional cost decreases monotonically toward the unbounded
        // value as the cap loosens... not guaranteed in general for the
        // *total* (energy rises with speed), so check the flow component.
        assert!(ev.objective.frac_flow <= last * (1.0 + 1e-9));
        last = ev.objective.frac_flow;
        if cap >= 8.0 {
            assert!(rel_diff(cost, unbounded) < 1e-6);
        }
    }
}

#[test]
fn capped_c_finishes_at_two_thousand_jobs() {
    // A completion can leave 1e-12–2e-12 of a job's volume behind in a step
    // shorter than half an ulp of t. A loop that retired jobs by remainder
    // never moved its clock again and hit its event guard from n = 300 on.
    let law = PowerLaw::new(3.0).unwrap();
    let inst = WorkloadSpec::uniform(2_000, 1.5, VolumeDist::Exponential { mean: 1.0 })
        .generate(7)
        .unwrap();
    let unbounded = run_c(&inst, law).unwrap().objective.frac_flow;
    for cap in [0.5, 1.0, 2.0, 4.0] {
        let (sched, ev) = run_c_bounded(&inst, law, cap).unwrap();
        assert!(sched.max_speed() <= cap * (1.0 + 1e-9), "cap {cap}: {}", sched.max_speed());
        assert!(rel_diff(sched.total_volume(), inst.total_volume()) < 1e-9, "cap {cap}");
        assert!(
            ev.objective.frac_flow >= unbounded * (1.0 - 1e-9),
            "cap {cap}: {} below uncapped {unbounded}",
            ev.objective.frac_flow
        );
    }
}
