//! E10 + A1–A3 — ablations of the design choices DESIGN.md calls out.
//!
//! * **E10** — the Section 5 reduction's ε: measured integral-cost factor
//!   vs the proven `max((1+ε)^α, 1+1/ε)`, and the location of the optimum.
//! * **A1** — the density-rounding base β of the non-uniform algorithm
//!   (the analysis wants β > 4).
//! * **A2** — the speed multiplier η, including the degeneration below the
//!   cold-start threshold `η_min(α)`.
//! * **A3** — FIFO vs newest-first information gathering under growth-law
//!   speed rules (the Section 1.2 FIFO/HDF conflict).
//! * **A5** — the non-uniform integrator's discretisation error.
//! * **A6** — non-uniform NC at scale: steps, time and cost ratios.

use ncss_analysis::{fmt_f, parallel_map, Table};
use ncss_core::baselines::{run_active_count, run_newest_first};
use ncss_core::nc_nonuniform::NonUniformRun;
use ncss_core::{
    reduce_to_integral, run_c, run_nc_nonuniform, run_nc_uniform, theory, NonUniformParams,
};
use ncss_sim::{Instance, PowerLaw};
use ncss_workloads::suite::{nonuniform_suite, tiny_suite};
use ncss_workloads::{fifo_stress, DensityDist, VolumeDist, WorkloadSpec};
use std::time::Instant;

use super::BASE_SEED;

fn e10_reduction_sweep(out: &mut String) {
    let alpha = 3.0;
    let law = PowerLaw::new(alpha).expect("valid alpha");
    let suite = tiny_suite(BASE_SEED, true);
    let base: Vec<_> = suite
        .iter()
        .map(|i| (i.clone(), run_nc_uniform(i, law).expect("NC base")))
        .collect();

    let mut table = Table::new(
        format!("E10: reduction cost factor vs eps (alpha = {alpha})"),
        &["eps", "max measured int/frac factor", "theory max((1+eps)^a, 1+1/eps)"],
    );
    let mut best = (f64::INFINITY, 0.0);
    for &eps in &[0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2.0] {
        let factor = base
            .iter()
            .map(|(inst, nc)| {
                let red = reduce_to_integral(&nc.schedule, inst, eps).expect("reduction");
                red.objective.integral() / nc.objective.fractional()
            })
            .fold(0.0, f64::max);
        if factor < best.0 {
            best = (factor, eps);
        }
        table.row(vec![fmt_f(eps), fmt_f(factor), fmt_f(theory::reduction_factor(alpha, eps))]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "best measured eps ~ {} (theory argmin: {})\n",
        fmt_f(best.1),
        fmt_f(theory::optimal_reduction_epsilon(alpha))
    ));
}

fn a1_beta_sweep(out: &mut String) {
    let alpha = 3.0;
    let law = PowerLaw::new(alpha).expect("valid alpha");
    let suite: Vec<Instance> = nonuniform_suite(BASE_SEED).into_iter().filter(|i| i.len() <= 10).collect();
    let betas = [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0];
    let rows: Vec<(f64, f64)> = parallel_map(&betas, |&beta| {
        let params = NonUniformParams { rounding_base: beta, ..NonUniformParams::recommended(alpha) };
        let worst = suite
            .iter()
            .map(|i| {
                let nc = run_nc_nonuniform(i, law, params).expect("NC run");
                let c = run_c(i, law).expect("C run");
                nc.objective.fractional() / c.objective.fractional()
            })
            .fold(0.0, f64::max);
        (beta, worst)
    });
    let mut table = Table::new(
        format!("A1: rounding base beta sweep (alpha = {alpha}; analysis requires beta > 4)"),
        &["beta", "worst cost vs Algorithm C"],
    );
    for (beta, worst) in rows {
        table.row(vec![fmt_f(beta), fmt_f(worst)]);
    }
    out.push_str(&table.render());
}

fn a2_eta_sweep(out: &mut String) {
    let alpha = 3.0;
    let law = PowerLaw::new(alpha).expect("valid alpha");
    let eta_min = theory::nonuniform_eta_min(alpha);
    let suite: Vec<Instance> = nonuniform_suite(BASE_SEED).into_iter().filter(|i| i.len() <= 5).collect();
    let factors = [0.6, 0.9, 1.05, 1.25, 1.6, 2.5];
    let rows: Vec<(f64, f64, f64)> = parallel_map(&factors, |&f| {
        let params = NonUniformParams { eta: f * eta_min, ..NonUniformParams::default() };
        let (mut flow, mut energy) = (0.0, 0.0);
        for i in &suite {
            let nc = run_nc_nonuniform(i, law, params).expect("NC run");
            flow += nc.objective.frac_flow;
            energy += nc.objective.energy;
        }
        (f, flow, energy)
    });
    let mut table = Table::new(
        format!("A2: speed multiplier eta sweep (eta_min(alpha={alpha}) = {})", fmt_f(eta_min)),
        &["eta/eta_min", "total frac flow", "total energy"],
    );
    for (f, flow, energy) in rows {
        table.row(vec![fmt_f(f), fmt_f(flow), fmt_f(energy)]);
    }
    out.push_str(&table.render());
    out.push_str("below eta/eta_min = 1 the flow-time blows up (the epsilon crawl); above, energy grows like eta^alpha.\n");
}

fn a3_fifo_vs_lifo(out: &mut String) {
    let alpha = 2.0;
    let law = PowerLaw::new(alpha).expect("valid alpha");
    let mut table = Table::new(
        "A3: information-gathering order on FIFO-stress instances (cost vs Algorithm C)",
        &["#small jobs", "NC (FIFO)", "newest-first (LIFO)", "active-count"],
    );
    for &n in &[4usize, 8, 16, 32] {
        let inst = fifo_stress(n, 8.0, 0.05, 0.2).expect("instance");
        let c = run_c(&inst, law).expect("C").objective.fractional();
        let nc = run_nc_uniform(&inst, law).expect("NC").objective.fractional();
        let lifo = run_newest_first(&inst, law).expect("LIFO").objective.fractional();
        let ajc = run_active_count(&inst, law).expect("AJC").objective.fractional();
        table.row(vec![format!("{n}"), fmt_f(nc / c), fmt_f(lifo / c), fmt_f(ajc / c)]);
    }
    out.push_str(&table.render());
}

/// The 24-job instances of A5 and the scaling instances of A6: rate-1.5
/// releases, Exp(1) volumes, log-uniform densities on [0.5, 10] — what
/// `ncss-cli generate --rate 1.5 --volumes exp:1.0 --densities
/// loguniform:0.5:10` writes for the same `--n` and `--seed`.
fn loguniform_instance(n: usize, seed: u64) -> Instance {
    WorkloadSpec {
        n_jobs: n,
        arrival_rate: 1.5,
        volumes: VolumeDist::Exponential { mean: 1.0 },
        densities: DensityDist::LogUniform { lo: 0.5, hi: 10.0 },
    }
    .generate(seed)
    .expect("valid spec")
}

/// A5: the discretisation error of the non-uniform integrator, its only
/// numerical component. On 11 instance/α pairs of 24 jobs, the fractional
/// objective at the 400-step default and at 3,200 steps per job is held
/// against a 12,800-step reference. The error does not decay as O(h²):
/// the bootstrap cap (2% of the stint's age) sets most steps, so
/// `steps_per_job` moves the step count little, an 8× finer grid cuts the
/// error far less than the 64× a second-order rule would, and the error is
/// not even monotone in the resolution.
fn a5_integrator_error(out: &mut String) {
    let pairs: Vec<(u64, f64)> = (1..=11u64).map(|seed| (seed, [1.5, 2.0, 2.5, 3.0, 4.0][seed as usize % 5])).collect();
    let rows = parallel_map(&pairs, |&(seed, alpha)| {
        let law = PowerLaw::new(alpha).expect("valid alpha");
        let inst = loguniform_instance(24, seed);
        let run = |steps| {
            let params = NonUniformParams { steps_per_job: steps, ..NonUniformParams::recommended(alpha) };
            run_nc_nonuniform(&inst, law, params).expect("NC run")
        };
        let (coarse, default, finer, reference) = (run(25), run(400), run(3200), run(12_800));
        let f_ref = reference.objective.fractional();
        let err = |r: &NonUniformRun| (r.objective.fractional() - f_ref).abs() / f_ref;
        (seed, alpha, coarse.steps, default.steps, err(&default), err(&finer))
    });
    let mut table = Table::new(
        "A5: integrator error, 24 jobs (relative to 12800 steps/job on the fractional objective)",
        &["seed", "alpha", "steps at 25/job", "steps at 400/job", "error at 400/job", "error at 3200/job"],
    );
    for &(seed, alpha, coarse, steps, e400, e3200) in &rows {
        table.row(vec![
            format!("{seed}"),
            fmt_f(alpha),
            format!("{coarse}"),
            format!("{steps}"),
            format!("{e400:.1e}"),
            format!("{e3200:.1e}"),
        ]);
    }
    out.push_str(&table.render());
    let (lo, hi) = rows.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), r| (lo.min(r.4), hi.max(r.4)));
    out.push_str(&format!("error bar of the 400-step default: {lo:.1e} to {hi:.1e} relative\n"));
}

/// A6: non-uniform NC at scale (α = 3, recommended parameters): steps,
/// in-process wall time, and the measured fractional-cost ratios against
/// Algorithm C beside the indicative `2^{α+2}` envelope, with the
/// active-count rule of the earlier non-clairvoyant work for comparison.
fn a6_scaling(out: &mut String) {
    let alpha = 3.0;
    let law = PowerLaw::new(alpha).expect("valid alpha");
    let params = NonUniformParams::recommended(alpha);
    let mut table = Table::new(
        "A6: non-uniform NC at scale (alpha = 3, seed 7)",
        &["jobs", "steps", "seconds", "NC / C", "active-count / C", "2^(alpha+2)"],
    );
    for n in [16usize, 256, 1024, 4096] {
        let inst = loguniform_instance(n, 7);
        let start = Instant::now();
        let nc = run_nc_nonuniform(&inst, law, params).expect("NC run");
        let seconds = start.elapsed().as_secs_f64();
        let c = run_c(&inst, law).expect("C").objective.fractional();
        let ajc = run_active_count(&inst, law).expect("AJC").objective.fractional();
        table.row(vec![
            format!("{n}"),
            format!("{}", nc.steps),
            format!("{seconds:.2}"),
            fmt_f(nc.objective.fractional() / c),
            fmt_f(ajc / c),
            fmt_f(theory::nc_nonuniform_indicative_bound(alpha)),
        ]);
    }
    out.push_str(&table.render());
}

/// Run the experiment and return the report.
#[must_use]
pub fn run() -> String {
    let mut out = String::from("\n==== E10 + A1-A3 (+A5, A6): ablations ====\n");
    e10_reduction_sweep(&mut out);
    a1_beta_sweep(&mut out);
    a2_eta_sweep(&mut out);
    a3_fifo_vs_lifo(&mut out);
    a5_integrator_error(&mut out);
    a6_scaling(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_factor_never_exceeds_theory() {
        let alpha = 2.0;
        let law = PowerLaw::new(alpha).unwrap();
        let inst = tiny_suite(BASE_SEED, true).remove(2);
        let nc = run_nc_uniform(&inst, law).unwrap();
        for eps in [0.2, 0.5, 1.0] {
            let red = reduce_to_integral(&nc.schedule, &inst, eps).unwrap();
            let factor = red.objective.integral() / nc.objective.fractional();
            assert!(factor <= theory::reduction_factor(alpha, eps) * (1.0 + 1e-9), "eps {eps}: {factor}");
        }
    }

    #[test]
    fn fifo_beats_lifo_on_stress() {
        let law = PowerLaw::new(2.0).unwrap();
        let inst = fifo_stress(16, 8.0, 0.05, 0.2).unwrap();
        let nc = run_nc_uniform(&inst, law).unwrap().objective.fractional();
        let lifo = run_newest_first(&inst, law).unwrap().objective.fractional();
        assert!(nc < lifo, "FIFO {nc} vs LIFO {lifo}");
    }
}
