//! The clairvoyant shadow of `ncss_core::shadow` against the prefix re-run
//! it replaces (DESIGN.md §12.2).
//!
//! Every reader of `K_j = W^{(C)}(r_j^-)` plus the tie term must give the
//! bits of a fresh Algorithm C run over the earlier jobs:
//!
//! * (a) `MachineShadow::admit`, `ShadowTimeline::weight_before` read
//!   before the job is received, and every `NcCompletion::base_power` of
//!   an `NcStream`, against `shadow::base_power`;
//! * (b) the capped NC against a copy of the loop that called the re-run
//!   for every job, at a cap that never binds and at one that does;
//! * (c) the firewalled NC against a copy of the policy that rebuilt the
//!   revealed prefix and re-ran C at every decision, and a policy value
//!   reused across runs against fresh ones.
//!
//! The instance is fleet_identity's 2,500-job Poisson(4)/Exp(1) one at
//! α = 3: about 5,000 shadow events, past the 4,096-event exact resync of
//! the shadow's total weight, where a read in the wrong order moves `K` by
//! a few ulps (an `NcStream` that read before it offered differed on 604
//! of the 2,500 jobs). Debug builds check every 4th job in (a) and run (b)
//! and (c) on the first 1,000 jobs, which keeps this file near
//! fleet_identity's 2,500-job case; `scripts/verify.sh` runs it in
//! release, in full.

use ncss::core::driver::{run_online, Decision, NcUniformPolicy, NcView, NonClairvoyantPolicy};
use ncss::core::shadow::{base_power, MachineShadow, ShadowTimeline};
use ncss::core::streaming::{NcStream, StreamConfig};
use ncss::core::{run_c, run_nc_uniform_bounded};
use ncss::sim::kernel::GrowthKernel;
use ncss::sim::{
    evaluate, Evaluated, Instance, Job, PowerLaw, Schedule, ScheduleBuilder, Segment, SpeedLaw,
};
use ncss::workloads::{VolumeDist, WorkloadSpec};
use std::time::Instant;

const ORACLE_STRIDE: usize = if cfg!(debug_assertions) { 4 } else { 1 };
const LOOP_JOBS: usize = if cfg!(debug_assertions) { 1_000 } else { 2_500 };

fn law() -> PowerLaw {
    PowerLaw::new(3.0).unwrap()
}

fn poisson_instance() -> Instance {
    let spec = WorkloadSpec::uniform(2_500, 4.0, VolumeDist::Exponential { mean: 1.0 });
    spec.generate(14).expect("poisson instance")
}

fn first_jobs(inst: &Instance, n: usize) -> Instance {
    Instance::new(inst.jobs()[..n.min(inst.len())].to_vec()).expect("prefix instance")
}

#[track_caller]
fn assert_bitwise(want: &(Schedule, Evaluated), got: &(Schedule, Evaluated), ctx: &str) {
    let (want_s, want_ev) = want;
    let (got_s, got_ev) = got;
    for (what, w, g) in [
        ("energy", want_ev.objective.energy, got_ev.objective.energy),
        ("frac_flow", want_ev.objective.frac_flow, got_ev.objective.frac_flow),
        ("int_flow", want_ev.objective.int_flow, got_ev.objective.int_flow),
    ] {
        assert_eq!(w.to_bits(), g.to_bits(), "{ctx}: objective {what} {w:?} vs {g:?}");
    }
    for (what, w, g) in [
        ("completion", &want_ev.per_job.completion, &got_ev.per_job.completion),
        ("frac flow", &want_ev.per_job.frac_flow, &got_ev.per_job.frac_flow),
        ("int flow", &want_ev.per_job.int_flow, &got_ev.per_job.int_flow),
    ] {
        assert_eq!(w.len(), g.len(), "{ctx}: {what} length");
        for (j, (a, b)) in w.iter().zip(g).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: job {j} {what}");
        }
    }
    assert_eq!(want_s.segments(), got_s.segments(), "{ctx}: segments");
}

#[test]
fn shadows_read_the_prefix_rerun() {
    let inst = poisson_instance();
    let law = law();
    let jobs = inst.jobs();
    let mut shadow = MachineShadow::new(law);
    let mut timeline = ShadowTimeline::new(law);
    let mut nc = NcStream::new(law, StreamConfig::streaming(1));
    for (j, &job) in jobs.iter().enumerate() {
        let ahead = timeline.weight_before(job.release);
        let admitted = shadow.admit(job).unwrap();
        timeline.receive(job).unwrap();
        let mut emitted = None;
        nc.offer(job, &mut |c| emitted = Some(c.base_power)).unwrap();
        if j % ORACLE_STRIDE == 0 {
            let want = base_power(&jobs[..j], job.release, law).unwrap();
            assert_eq!(admitted.to_bits(), want.to_bits(), "admit K_{j}");
            assert_eq!(ahead.to_bits(), want.to_bits(), "timeline K_{j}");
            assert_eq!(emitted.map(f64::to_bits), Some(want.to_bits()), "NcStream K_{j}");
        }
    }
}

// ---------------------------------------------------------------------------
// (b) The capped NC that re-ran C for every job
// ---------------------------------------------------------------------------

/// `K_j` as the capped NC used to compute it: a fresh `run_c` over the jobs
/// released strictly before `j`, read at the left limit, plus the earlier
/// jobs tied at `r_j`.
fn rerun_base_power(instance: &Instance, law: PowerLaw, j: usize) -> f64 {
    let job = instance.job(j);
    let (prefix, _) = instance.prefix_before(job.release);
    let strictly_before = if prefix.is_empty() {
        0.0
    } else {
        run_c(&prefix, law).unwrap().remaining_weight_before(job.release)
    };
    let ties: f64 = instance.jobs()[..j]
        .iter()
        .filter(|i| i.release == job.release)
        .map(|i| i.weight())
        .sum();
    strictly_before + ties
}

fn rerun_nc_uniform_bounded(instance: &Instance, law: PowerLaw, s_max: f64) -> (Schedule, Evaluated) {
    let u_cap = law.power(s_max);
    let mut builder = ScheduleBuilder::new(law);
    let mut t = 0.0f64;
    for (j, job) in instance.jobs().iter().enumerate() {
        t = t.max(job.release);
        let rho = job.density;
        let k_j = rerun_base_power(instance, law, j);
        let u_end = k_j + job.weight();
        if k_j < u_cap {
            let kernel = GrowthKernel { law, u0: k_j, rho };
            let u_stop = u_end.min(u_cap);
            let tau = kernel.time_to_u(u_stop);
            builder.push(Segment::new(t, t + tau, Some(j), SpeedLaw::Growth { u0: k_j, rho }));
            t += tau;
            if u_stop < u_end {
                let rem = (u_end - u_cap) / rho;
                let tau2 = rem / s_max;
                builder.push(Segment::new(t, t + tau2, Some(j), SpeedLaw::Constant { speed: s_max }));
                t += tau2;
            }
        } else {
            let tau = job.volume / s_max;
            builder.push(Segment::new(t, t + tau, Some(j), SpeedLaw::Constant { speed: s_max }));
            t += tau;
        }
    }
    let schedule = builder.build().unwrap();
    let ev = evaluate(&schedule, instance).unwrap();
    (schedule, ev)
}

#[test]
fn capped_nc_is_the_rerunning_loop() {
    let inst = first_jobs(&poisson_instance(), LOOP_JOBS);
    let law = law();
    for (cap, binds) in [(1e6, false), (1.0, true)] {
        let got = run_nc_uniform_bounded(&inst, law, cap).unwrap();
        let saturated =
            got.0.segments().iter().any(|s| matches!(s.law, SpeedLaw::Constant { .. }));
        assert_eq!(saturated, binds, "cap {cap}");
        let want = rerun_nc_uniform_bounded(&inst, law, cap);
        assert_bitwise(&want, &got, &format!("capped NC n={} cap={cap}", inst.len()));
    }
}

// ---------------------------------------------------------------------------
// (c) The firewalled NC that re-ran C at every decision
// ---------------------------------------------------------------------------

/// The firewalled NC as it was: FIFO, with `K` from a `run_c` over the
/// revealed prefix rebuilt at every decision.
struct RerunPolicy;

impl NonClairvoyantPolicy for RerunPolicy {
    fn decide(&mut self, view: &NcView<'_>) -> Decision {
        let Some(&j) = view.active().first() else {
            return Decision { job: None, law: SpeedLaw::Idle };
        };
        let me = view.released[j];
        let mut prefix = Vec::new();
        let mut ties = 0.0;
        for r in view.released {
            if r.id == j {
                break;
            }
            if let Some(v) = view.revealed_volume[r.id] {
                if r.release < me.release {
                    prefix.push(Job { release: r.release, volume: v, density: r.density });
                } else {
                    ties += r.density * v;
                }
            }
        }
        let base = if prefix.is_empty() {
            0.0
        } else {
            let inst = Instance::new(prefix).unwrap();
            run_c(&inst, view.law).unwrap().remaining_weight_before(me.release)
        };
        let u0 = base + ties + me.density * view.processed[j];
        Decision { job: Some(j), law: SpeedLaw::Growth { u0, rho: me.density } }
    }

    fn name(&self) -> &'static str {
        "nc-uniform (re-run)"
    }
}

#[test]
fn firewalled_nc_is_the_rerunning_policy() {
    let inst = first_jobs(&poisson_instance(), LOOP_JOBS);
    let law = law();
    let got = run_online(&inst, law, &mut NcUniformPolicy::default()).unwrap();
    let want = run_online(&inst, law, &mut RerunPolicy).unwrap();
    assert_bitwise(&want, &got, &format!("firewalled NC n={}", inst.len()));
}

#[test]
fn a_reused_policy_gives_a_fresh_policys_bits() {
    let a = (first_jobs(&poisson_instance(), 600), law());
    let b = (
        WorkloadSpec::uniform(300, 1.5, VolumeDist::Exponential { mean: 2.0 })
            .generate(3)
            .unwrap(),
        PowerLaw::new(2.5).unwrap(),
    );
    let mut reused = NcUniformPolicy::default();
    for (i, (inst, law)) in [&a, &b, &a].into_iter().enumerate() {
        let got = run_online(inst, *law, &mut reused).unwrap();
        let want = run_online(inst, *law, &mut NcUniformPolicy::default()).unwrap();
        assert_bitwise(&want, &got, &format!("run {i} of a reused policy"));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing tripwire; run with --release")]
fn capped_and_firewalled_nc_stay_linear() {
    // Re-running C over the prefix for every job takes 3–4 s (capped) and
    // 6–8 s (firewalled) on a 2-core Xeon VM; with one shadow each takes
    // under 0.1 s.
    let inst = WorkloadSpec::uniform(4_000, 1.5, VolumeDist::Exponential { mean: 1.0 })
        .generate(7)
        .unwrap();
    let law = law();
    let start = Instant::now();
    run_nc_uniform_bounded(&inst, law, 1.0).unwrap();
    run_online(&inst, law, &mut NcUniformPolicy::default()).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(elapsed < 2.0, "capped + firewalled NC on 4,000 jobs took {elapsed:.2} s");
}
