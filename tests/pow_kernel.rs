//! The run-wide power-kernel contract (DESIGN.md §13).
//!
//! Two properties keep the compiled `PowKernel` strategy honest:
//!
//! 1. **Accuracy**: every specialised multiply/sqrt chain agrees with the
//!    `powf` definition it replaces to ≤ 1e-15 relative error, across the
//!    full magnitude range the simulators visit (fault sweeps push volumes
//!    to 1e±150). Where the true value over/underflows, the chain must
//!    land on the same infinity/zero — never a finite garbage value.
//!
//! 2. **Same-run bitwise oracle**: within one run (one compiled kernel),
//!    the batch runners, the streaming cores, and the sharded fleet replay
//!    produce bit-identical objectives and per-job results — for *every*
//!    kernel variant, not just the fast-path alphas the perf suite uses.
//!    Cross-run bitwise equality is explicitly NOT claimed: α = 2.75 via
//!    the general kernel and a hypothetical hand chain may differ in the
//!    last ulp, which is why the kernel is compiled once per run.

use ncss::core::streaming::{CStream, NcStream, StreamConfig};
use ncss::multi::fleet::{replay_c, replay_nc, DispatchLog};
use ncss::pool::Pool;
use ncss::prelude::*;
use ncss::sim::{PerJob, PowKernel};
use ncss::workloads::suite::uniform_suite;

/// α per kernel variant — one representative of each compiled strategy.
const VARIANTS: [(f64, PowKernel); 5] = [
    (2.0, PowKernel::Quadratic),
    (3.0, PowKernel::Cubic),
    (1.5, PowKernel::ThreeHalves),
    (2.5, PowKernel::HalfInteger),
    (2.75, PowKernel::General),
];

// ---------------------------------------------------------------------------
// Property 1: chain accuracy vs the powf reference, extreme magnitudes.
// ---------------------------------------------------------------------------

/// Relative agreement when the reference is a normal float; exact
/// agreement (same zero / same infinity) when it is not. A specialised
/// chain that overflows an intermediate where `powf` stays finite — or
/// vice versa — fails here.
///
/// The tolerance is 1e-15 at unit scale but must widen with |ln(result)|:
/// `powf`'s own argument reduction carries an absolute error of a few ulps
/// in `e·ln x`, which exponentiates to a *relative* error proportional to
/// the result's log-magnitude — ~1e-14 at 1e±100. At those scales the
/// sqrt/cbrt chains are the more accurate side of the comparison, so the
/// slack absorbs reference error, not kernel error.
#[track_caller]
fn check(tag: &str, got: f64, want: f64) {
    if want.is_normal() {
        let rel = ((got - want) / want).abs();
        let tol = 1e-15 * (1.0 + want.abs().ln().abs() / 4.0);
        assert!(rel <= tol, "{tag}: got {got:e} want {want:e} rel {rel:e} tol {tol:e}");
    } else {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{tag}: got {got:e} want {want:e} (reference not normal)"
        );
    }
}

#[test]
fn kernels_match_powf_reference_across_magnitudes() {
    let magnitudes =
        [1e-150, 1e-75, 1e-9, 1e-3, 0.5, 1.0, 2.0, 3.7, 1e3, 1e9, 1e75, 1e150];
    for &alpha in &[1.5, 2.0, 2.5, 3.0, 2.75, 7.3] {
        let p = PowerLaw::new(alpha).unwrap();
        let b = 1.0 - 1.0 / alpha;
        for &x in &magnitudes {
            let tag = |op: &str| format!("{op} α={alpha} x={x:e}");
            check(&tag("power"), p.power(x), x.powf(alpha));
            check(&tag("speed_for_power"), p.speed_for_power(x), x.powf(1.0 / alpha));
            check(&tag("pow_beta"), p.pow_beta(x), x.powf(b));
            check(&tag("root_beta"), p.root_beta(x), x.powf(1.0 / b));
            check(&tag("pow_one_plus_beta"), p.pow_one_plus_beta(x), x.powf(1.0 + b));
            check(&tag("power_deriv"), p.power_deriv(x), alpha * x.powf(alpha - 1.0));
            check(
                &tag("speed_for_power_deriv"),
                p.speed_for_power_deriv(x),
                (x / alpha).powf(1.0 / (alpha - 1.0)),
            );
            check(&tag("root_alpha_m1"), p.root_alpha_m1(x), x.powf(1.0 / (alpha - 1.0)));
        }
    }
}

#[test]
fn kernel_selection_is_stable() {
    // The selection table is part of the bench/verify contract: verify.sh
    // asserts the α = 2 CLI run reports "quadratic", and the perf suite's
    // attribution assumes α = 3 rides the cubic chains.
    for &(alpha, kernel) in &VARIANTS {
        let p = PowerLaw::new(alpha).unwrap();
        assert_eq!(p.kernel(), kernel, "α = {alpha}");
    }
    assert_eq!(PowerLaw::new(2.0).unwrap().kernel_name(), "quadratic");
    assert_eq!(PowerLaw::cube().kernel_name(), "cubic");
    // Half-integer chains cut off where iterated squaring stops paying.
    assert_eq!(PowerLaw::new(4.0).unwrap().kernel(), PowKernel::HalfInteger);
    assert_eq!(PowerLaw::new(40.0).unwrap().kernel(), PowKernel::General);
}

#[test]
fn misselected_kernel_is_not_the_honest_one() {
    // The fault hook verify.sh leans on: a law that *reports* α but
    // evaluates with the next integer's chains must disagree visibly, so
    // the energy-recomputed audit check can catch it.
    let honest = PowerLaw::new(2.0).unwrap();
    let wrong = PowerLaw::misselected_for_fault_injection(2.0);
    assert_eq!(wrong.alpha(), honest.alpha());
    assert!(((wrong.power(2.0) - honest.power(2.0)) / honest.power(2.0)).abs() > 0.5);
}

// ---------------------------------------------------------------------------
// Property 2: batch == stream == sharded, bitwise, per kernel variant.
// ---------------------------------------------------------------------------

fn stream_c_results(inst: &Instance, law: PowerLaw) -> (Objective, PerJob) {
    let n = inst.len();
    let mut per_job =
        PerJob { completion: vec![f64::NAN; n], frac_flow: vec![0.0; n], int_flow: vec![0.0; n] };
    let mut stream = CStream::new(law, StreamConfig::streaming(8));
    let mut sink = |c: ncss::core::CCompletion| {
        per_job.completion[c.id] = c.completion;
        per_job.frac_flow[c.id] = c.frac_flow;
        per_job.int_flow[c.id] = c.int_flow;
    };
    for job in inst.jobs() {
        stream.offer(*job, &mut sink).expect("offer");
        stream.spill_mut().drain().for_each(drop);
    }
    let summary = stream.finish(&mut sink).expect("finish");
    (summary.objective, per_job)
}

fn stream_nc_results(inst: &Instance, law: PowerLaw) -> (Objective, PerJob) {
    let n = inst.len();
    let mut per_job =
        PerJob { completion: vec![f64::NAN; n], frac_flow: vec![0.0; n], int_flow: vec![0.0; n] };
    let mut stream = NcStream::new(law, StreamConfig::streaming(8));
    for job in inst.jobs() {
        stream
            .offer(*job, &mut |c: ncss::core::NcCompletion| {
                per_job.completion[c.id] = c.completion;
                per_job.frac_flow[c.id] = c.frac_flow;
                per_job.int_flow[c.id] = c.int_flow;
            })
            .expect("offer");
        stream.spill_mut().drain().for_each(drop);
    }
    let summary = stream.finish().expect("finish");
    (summary.objective, per_job)
}

#[track_caller]
fn assert_objective_bits(tag: &str, a: &Objective, b: &Objective) {
    assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{tag}: energy {} vs {}", a.energy, b.energy);
    assert_eq!(a.frac_flow.to_bits(), b.frac_flow.to_bits(), "{tag}: frac_flow");
    assert_eq!(a.int_flow.to_bits(), b.int_flow.to_bits(), "{tag}: int_flow");
}

#[track_caller]
fn assert_per_job_bits(tag: &str, a: &PerJob, b: &PerJob) {
    for j in 0..a.completion.len() {
        assert_eq!(
            a.completion[j].to_bits(),
            b.completion[j].to_bits(),
            "{tag}: job {j} completion"
        );
        assert_eq!(a.frac_flow[j].to_bits(), b.frac_flow[j].to_bits(), "{tag}: job {j} frac");
        assert_eq!(a.int_flow[j].to_bits(), b.int_flow[j].to_bits(), "{tag}: job {j} int");
    }
}

/// Algorithm C under every kernel variant: the batch runner, the streaming
/// core, and the k = 1 sharded fleet replay are the same computation.
#[test]
fn c_batch_stream_sharded_agree_bitwise_per_kernel() {
    let pool = Pool::with_threads(3);
    let suites: Vec<Instance> = uniform_suite(7).into_iter().step_by(3).collect();
    for &(alpha, kernel) in &VARIANTS {
        let law = PowerLaw::new(alpha).unwrap();
        assert_eq!(law.kernel(), kernel);
        for (i, inst) in suites.iter().enumerate() {
            let tag = format!("C kernel={} α={alpha} instance {i}", law.kernel_name());
            let batch = run_c(inst, law).expect("batch C");
            let (obj, per_job) = stream_c_results(inst, law);
            assert_objective_bits(&tag, &obj, &batch.objective);
            assert_per_job_bits(&tag, &per_job, &batch.per_job);

            let log = DispatchLog::c_par(inst, law, 1).expect("k=1 dispatch");
            let sharded = replay_c(inst, law, &log, &pool).expect("sharded replay");
            assert_objective_bits(&format!("{tag} (sharded)"), &sharded.objective, &batch.objective);
            assert_per_job_bits(&format!("{tag} (sharded)"), &sharded.per_job, &batch.per_job);
        }
    }
}

/// Algorithm NC (uniform density) under every kernel variant, same trio.
/// The k = 1 fleet (serial NC-PAR and its sharded replay) runs batch NC
/// over the whole instance on its one machine, so it gives batch NC's
/// objective, per-job results and timeline bit for bit.
#[test]
fn nc_batch_stream_sharded_agree_bitwise_per_kernel() {
    let pool = Pool::with_threads(3);
    let suites: Vec<Instance> = uniform_suite(7).into_iter().step_by(3).collect();
    for &(alpha, _) in &VARIANTS {
        let law = PowerLaw::new(alpha).unwrap();
        for (i, inst) in suites.iter().enumerate() {
            let tag = format!("NC kernel={} α={alpha} instance {i}", law.kernel_name());
            let batch = run_nc_uniform(inst, law).expect("batch NC");
            let (obj, per_job) = stream_nc_results(inst, law);
            assert_objective_bits(&tag, &obj, &batch.objective);
            assert_per_job_bits(&tag, &per_job, &batch.per_job);

            let serial = run_nc_par(inst, law, 1).expect("serial NC-PAR");
            let log = DispatchLog::nc_par(inst, law, 1).expect("k=1 dispatch");
            let sharded = replay_nc(inst, law, &log, &pool).expect("sharded replay");
            for (side, par) in [("serial par", &serial), ("sharded", &sharded)] {
                let tag = format!("{tag} ({side})");
                assert_objective_bits(&tag, &par.objective, &batch.objective);
                assert_per_job_bits(&tag, &par.per_job, &batch.per_job);
                assert_eq!(par.schedules.len(), 1, "{tag}: machines");
                let timeline = par.schedules[0].segments();
                assert_eq!(timeline, batch.schedule.segments(), "{tag}: timeline");
            }
        }
    }
}
