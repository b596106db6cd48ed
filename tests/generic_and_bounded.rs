//! Property tests for the general-power-function runs and the
//! speed-bounded variants, and oracle tests that hold capped C,
//! general-power C (both `CStream` under their own law) and general-power
//! NC (one clairvoyant shadow) to copies of the loops they replaced.

use ncss::core::generic_runs::{
    generic_rearrangement_distance, run_c_generic, run_nc_uniform_generic, GenericRun,
};
use ncss::core::{run_c_bounded, run_nc_uniform_bounded};
use ncss::prelude::*;
use ncss::sim::generic::PolyPower;
use ncss::sim::numeric::rel_diff;
use ncss::sim::Evaluated;
use ncss_rng::props::*;
use std::time::Instant;

/// The capped-C speed bound: four ulps above the cap.
fn c_cap_bound(cap: f64) -> f64 {
    cap * (1.0 + 4.0 * f64::EPSILON)
}

/// `P(s) = s³ + ½s²`, E13's power function.
fn e13_power() -> PolyPower {
    PolyPower::new(vec![(1.0, 3.0), (0.5, 2.0)]).unwrap()
}

/// E13's three instances (the `generic_runs` unit tests').
fn e13_instances() -> Vec<Instance> {
    vec![
        Instance::new(vec![Job::unit_density(0.0, 1.5)]).unwrap(),
        Instance::new(vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.2, 0.8),
            Job::unit_density(0.9, 0.4),
        ])
        .unwrap(),
        Instance::new(vec![Job::unit_density(0.0, 0.5), Job::unit_density(0.0, 1.2)]).unwrap(),
    ]
}

/// `|got − want| ≤ tol·|want|`.
#[track_caller]
fn assert_rel(got: f64, want: f64, tol: f64, ctx: &str) {
    assert!((got - want).abs() <= tol * want.abs(), "{ctx}: {got:e} vs {want:e}");
}

#[track_caller]
fn assert_runs_close(got: &GenericRun, want: &GenericRun, tol: f64, ctx: &str) {
    let (g, w) = (got.objective, want.objective);
    assert_rel(g.energy, w.energy, tol, &format!("{ctx}: energy"));
    assert_rel(g.frac_flow, w.frac_flow, tol, &format!("{ctx}: frac_flow"));
    assert_rel(g.int_flow, w.int_flow, tol, &format!("{ctx}: int_flow"));
    assert_eq!(got.completion.len(), want.completion.len(), "{ctx}");
    for (j, (&g, &w)) in got.completion.iter().zip(&want.completion).enumerate() {
        assert_rel(g, w, tol, &format!("{ctx}: completion of job {j}"));
    }
}

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
        prop_assert!(sched_c.max_speed() <= c_cap_bound(cap));
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

/// Cases of the old-loop oracle below: the old NC re-runs generic C for
/// every job, so debug builds check 4 instances; `scripts/verify.sh` runs
/// all 16 in release.
const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 4 } else { 16 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]

    #[test]
    fn generic_c_and_nc_match_their_old_loops(inst in uniform_instance()) {
        for pf in [e13_power(), PolyPower::new(vec![(1.0, 3.0), (0.4, 1.8)]).unwrap()] {
            let c = run_c_generic(&inst, &pf).unwrap();
            assert_runs_close(&c, &old::run_c_generic(&inst, &pf), 1e-6, "generic C");
            let nc = run_nc_uniform_generic(&inst, &pf).unwrap();
            assert_runs_close(&nc, &old::run_nc_uniform_generic(&inst, &pf), 1e-6, "generic NC");
        }
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
        assert!(sched.max_speed() <= c_cap_bound(cap), "cap {cap}: {}", sched.max_speed());
        assert!(rel_diff(sched.total_volume(), inst.total_volume()) < 1e-9, "cap {cap}");
        assert!(
            ev.objective.frac_flow >= unbounded * (1.0 - 1e-9),
            "cap {cap}: {} below uncapped {unbounded}",
            ev.objective.frac_flow
        );
    }
}

#[test]
fn capped_c_matches_its_old_loop_at_two_thousand_jobs() {
    // The old loop decays from W ≤ P(cap)·(1 + 1e-9), so it runs up to
    // (1 + 1e-9)^{1/α} above the cap where the stream runs flat and then
    // decays from P(cap) itself; everything else is the same event logic.
    let law = PowerLaw::new(3.0).unwrap();
    let inst = WorkloadSpec::uniform(2_000, 1.5, VolumeDist::Exponential { mean: 1.0 })
        .generate(7)
        .unwrap();
    for cap in [0.5, 1.0, 2.0, 4.0] {
        let (_, got) = run_c_bounded(&inst, law, cap).unwrap();
        let (_, want) = old::run_c_bounded(&inst, law, cap);
        let ctx = format!("cap {cap}");
        let (g, w) = (got.objective, want.objective);
        assert_rel(g.energy, w.energy, 1e-7, &format!("{ctx}: energy"));
        assert_rel(g.frac_flow, w.frac_flow, 1e-7, &format!("{ctx}: frac_flow"));
        assert_rel(g.int_flow, w.int_flow, 1e-7, &format!("{ctx}: int_flow"));
        for (j, (&g, &w)) in got.per_job.completion.iter().zip(&want.per_job.completion).enumerate() {
            assert_rel(g, w, 1e-7, &format!("{ctx}: completion of job {j}"));
        }
    }
}

#[test]
fn generic_c_and_nc_match_their_old_loops_on_e13() {
    let pf = e13_power();
    for (i, inst) in e13_instances().iter().enumerate() {
        let c = run_c_generic(inst, &pf).unwrap();
        assert_runs_close(&c, &old::run_c_generic(inst, &pf), 1e-6, &format!("C on instance {i}"));
        let nc = run_nc_uniform_generic(inst, &pf).unwrap();
        assert_runs_close(
            &nc,
            &old::run_nc_uniform_generic(inst, &pf),
            1e-6,
            &format!("NC on instance {i}"),
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing tripwire; run with --release")]
fn generic_c_and_nc_stay_linear() {
    // One generic C run plus one generic NC run (one shadow read per job,
    // each decay bisection integrating from zero to `w0` once) take
    // 2.5–3.0 s together on a 2-core Xeon VM; re-running generic C for
    // every job took 62 s, and bisecting over the whole integral at every
    // step 7.3–8.1 s.
    let inst = WorkloadSpec::uniform(50, 1.5, VolumeDist::Exponential { mean: 1.0 })
        .generate(7)
        .unwrap();
    let pf = e13_power();
    let start = Instant::now();
    run_c_generic(&inst, &pf).unwrap();
    run_nc_uniform_generic(&inst, &pf).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(elapsed < 8.0, "generic C + NC on 50 jobs took {elapsed:.2} s");
}

/// The loops capped and general-power C and NC ran before they moved onto
/// `CStream`: an HDF scan over the active set with `W` re-summed at every
/// event, and NC re-running generic C over the prefix for every job.
mod old {
    use super::Evaluated;
    use ncss::core::generic_runs::{GenericRun, GenericStint};
    use ncss::sim::generic::{GenericDecay, GenericGrowth, PolyPower};
    use ncss::sim::kernel::DecayKernel;
    use ncss::sim::{
        evaluate, Instance, Job, Objective, PowerLaw, Schedule, ScheduleBuilder, Segment, SpeedLaw,
    };

    /// The active job C serves: highest density, then earliest release,
    /// then smallest index.
    fn hdf(jobs: &[Job], active: &[usize]) -> usize {
        *active
            .iter()
            .min_by(|&&a, &&b| {
                jobs[b].density
                    .total_cmp(&jobs[a].density)
                    .then(jobs[a].release.total_cmp(&jobs[b].release))
                    .then(a.cmp(&b))
            })
            .expect("non-empty")
    }

    /// Admit every job released by `t`; false once nothing is active or
    /// left to release.
    fn admit(jobs: &[Job], t: &mut f64, next: &mut usize, active: &mut Vec<usize>) -> bool {
        if active.is_empty() && *next < jobs.len() {
            *t = t.max(jobs[*next].release);
        }
        while *next < jobs.len() && jobs[*next].release <= *t {
            active.push(*next);
            *next += 1;
        }
        !active.is_empty()
    }

    fn int_flow(jobs: &[Job], completion: &[f64]) -> f64 {
        jobs.iter().zip(completion).map(|(job, &c)| job.weight() * (c - job.release)).sum()
    }

    pub fn run_c_bounded(instance: &Instance, law: PowerLaw, s_max: f64) -> (Schedule, Evaluated) {
        let jobs = instance.jobs();
        let w_cap = law.power(s_max);
        let mut remaining: Vec<f64> = jobs.iter().map(|j| j.volume).collect();
        let mut builder = ScheduleBuilder::new(law);
        let (mut t, mut next, mut active) = (f64::NEG_INFINITY, 0, Vec::new());
        while admit(jobs, &mut t, &mut next, &mut active) {
            let j = hdf(jobs, &active);
            let rho = jobs[j].density;
            let total_w: f64 = active.iter().map(|&k| jobs[k].density * remaining[k]).sum();
            let t_release = jobs.get(next).map_or(f64::INFINITY, |job| job.release);
            if total_w > w_cap * (1.0 + 1e-9) {
                let t_cross = t + (total_w - w_cap) / (rho * s_max);
                let t_complete = t + remaining[j] / s_max;
                let t_end = t_cross.min(t_complete).min(t_release);
                if t_end > t {
                    builder.push(Segment::new(t, t_end, Some(j), SpeedLaw::Constant { speed: s_max }));
                }
                remaining[j] = if t_end == t_complete {
                    0.0
                } else {
                    (remaining[j] - s_max * (t_end - t)).max(0.0)
                };
                t = t_end;
            } else {
                let kernel = DecayKernel { law, w0: total_w, rho };
                let t_complete = t + kernel.time_to_volume(remaining[j]);
                let t_end = t_complete.min(t_release);
                if t_end > t {
                    builder.push(Segment::new(t, t_end, Some(j), SpeedLaw::Decay { w0: total_w, rho }));
                }
                remaining[j] = if t_end == t_complete {
                    0.0
                } else {
                    (remaining[j] - kernel.volume(t_end - t)).max(0.0)
                };
                t = t_end;
            }
            active.retain(|&k| remaining[k] > 1e-12 * jobs[k].volume);
        }
        let schedule = builder.build().unwrap();
        let ev = evaluate(&schedule, instance).unwrap();
        (schedule, ev)
    }

    pub fn run_c_generic(instance: &Instance, pf: &PolyPower) -> GenericRun {
        let jobs = instance.jobs();
        let mut remaining: Vec<f64> = jobs.iter().map(|j| j.volume).collect();
        let mut completion = vec![f64::NAN; jobs.len()];
        let mut frac_flow = vec![0.0; jobs.len()];
        let (mut energy, mut stints) = (0.0, Vec::new());
        let (mut t, mut next, mut active) = (f64::NEG_INFINITY, 0, Vec::new());
        while admit(jobs, &mut t, &mut next, &mut active) {
            let j = hdf(jobs, &active);
            let rho = jobs[j].density;
            let total_w: f64 = active.iter().map(|&k| jobs[k].density * remaining[k]).sum();
            let kernel = GenericDecay { pf, w0: total_w, rho };
            let w_complete = total_w - rho * remaining[j];
            let t_complete = t + kernel.time_to_weight(w_complete);
            let t_release = jobs.get(next).map_or(f64::INFINITY, |job| job.release);
            let completes = t_complete <= t_release;
            let t_end = if completes { t_complete } else { t_release };
            let tau = t_end - t;
            let w_end = if completes { w_complete } else { kernel.weight_at(tau) };
            if tau > 0.0 {
                stints.push(GenericStint {
                    start: t,
                    end: t_end,
                    job: j,
                    rho,
                    level_start: total_w,
                    level_end: w_end,
                    decaying: true,
                });
                energy += kernel.energy_to_weight(w_end);
                for &k in active.iter().filter(|&&k| k != j) {
                    frac_flow[k] += jobs[k].density * remaining[k] * tau;
                }
                frac_flow[j] += rho * (remaining[j] * tau - kernel.volume_integral_to_weight(w_end));
                remaining[j] = (remaining[j] - (total_w - w_end) / rho).max(0.0);
            }
            t = t_end;
            if completes {
                active.retain(|&k| k != j);
                completion[j] = t;
            }
        }
        let int_flow = int_flow(jobs, &completion);
        GenericRun {
            objective: Objective { energy, frac_flow: frac_flow.iter().sum(), int_flow },
            completion,
            stints,
        }
    }

    pub fn run_nc_uniform_generic(instance: &Instance, pf: &PolyPower) -> GenericRun {
        let jobs = instance.jobs();
        let (mut energy, mut frac_flow, mut t) = (0.0, 0.0, 0.0f64);
        let (mut completion, mut stints) = (Vec::new(), Vec::new());
        for (j, job) in jobs.iter().enumerate() {
            t = t.max(job.release);
            let (prefix, _) = instance.prefix_before(job.release);
            let strictly_before = if prefix.is_empty() {
                0.0
            } else {
                let run = run_c_generic(&prefix, pf);
                run.stints
                    .iter()
                    .find(|s| s.start < job.release && job.release <= s.end)
                    .map_or(0.0, |s| {
                        GenericDecay { pf, w0: s.level_start, rho: s.rho }.weight_at(job.release - s.start)
                    })
            };
            let ties: f64 =
                jobs[..j].iter().filter(|i| i.release == job.release).map(Job::weight).sum();
            let k_j = strictly_before + ties;
            let rho = job.density;
            let kernel = GenericGrowth { pf, u0: k_j, rho };
            let u_end = k_j + job.weight();
            let tau = kernel.time_to_u(u_end);
            stints.push(GenericStint {
                start: t,
                end: t + tau,
                job: j,
                rho,
                level_start: k_j,
                level_end: u_end,
                decaying: false,
            });
            energy += kernel.energy_to_u(u_end);
            frac_flow += rho * job.volume * (t - job.release)
                + rho * (job.volume * tau - kernel.volume_integral_to_u(u_end));
            t += tau;
            completion.push(t);
        }
        let int_flow = int_flow(jobs, &completion);
        GenericRun { objective: Objective { energy, frac_flow, int_flow }, completion, stints }
    }
}
