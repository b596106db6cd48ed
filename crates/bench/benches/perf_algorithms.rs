//! Throughput benches for the single-machine algorithms, on the in-repo
//! harness (median/p95 to `BENCH_algorithms.json`).
//!
//! These quantify the cost model stated in DESIGN.md: Algorithm C is
//! event-driven (near-linear in jobs with an O(active) accrual scan per
//! event), Algorithm NC rides a continuous shadow C stream for its base
//! powers (O(n log n); it re-simulated prefixes at O(n²·log n) before
//! DESIGN.md §9), and the non-uniform algorithm reads Algorithm C's speed
//! on the current instance twice per integration step from one
//! checkpointed C stream per service stint, so a read costs O(jobs C
//! still holds at the checkpoint) rather than a whole C run. Its rows
//! carry the deterministic step count as the `steps` metric.
//!
//! Before timing, each algorithm runs once through `run_checked` so its
//! audit verdict — and the audit's own per-check `audit_timing` block —
//! lands next to the numbers in `BENCH_algorithms.json`: a speedup that
//! breaks an invariant fails the bench binary.

use ncss_audit::{AuditConfig, AuditReport};
use ncss_bench::harness::{black_box, Suite};
use ncss_core::{
    run_c, run_checked, run_nc_nonuniform, run_nc_uniform, CheckedAlgorithm, NonUniformParams,
};
use ncss_sim::{Instance, PowerLaw};
use ncss_workloads::{DensityDist, VolumeDist, WorkloadSpec};

fn uniform_instance(n: usize) -> ncss_sim::Instance {
    WorkloadSpec::uniform(n, 1.0, VolumeDist::Exponential { mean: 1.0 })
        .generate(42)
        .expect("valid spec")
}

/// One checked run before the clock starts: the full report (verdict plus
/// per-check timing) is recorded with the measurement. An algorithm error
/// yields an all-failed placeholder so the bench binary still fails.
fn gate(
    inst: &Instance,
    law: PowerLaw,
    algo: CheckedAlgorithm,
    config: AuditConfig,
) -> AuditReport {
    match run_checked(inst, law, algo, config) {
        Ok(run) => run.report,
        Err(_) => {
            let mut report = AuditReport::default();
            report.record("algorithm-ran", f64::INFINITY, 0.0, "run_checked errored".into());
            report
        }
    }
}

fn main() {
    let law = PowerLaw::cube();
    let mut suite = Suite::new("algorithms");

    // Uniform-density hot path: Algorithm C and Algorithm NC.
    for n in [10usize, 100, 1000] {
        let inst = uniform_instance(n);
        let r = gate(&inst, law, CheckedAlgorithm::C, AuditConfig::default());
        suite.bench_report(&format!("algorithm_c/{n}"), Some(&r), || {
            black_box(run_c(&inst, law).expect("C run"));
        });
    }
    for n in [10usize, 100, 400] {
        let inst = uniform_instance(n);
        let r = gate(&inst, law, CheckedAlgorithm::NcUniform, AuditConfig::default());
        suite.bench_report(&format!("algorithm_nc_uniform/{n}"), Some(&r), || {
            black_box(run_nc_uniform(&inst, law).expect("NC run"));
        });
    }

    // Non-uniform-density hot path: two reads of the nested C run per
    // integration step. The 4,096-job row takes seconds per run, so it
    // gets one warm-up and three timed runs.
    for (n, warmup, iters) in [(4usize, 2, 10), (8, 2, 10), (16, 2, 10), (256, 1, 5), (4096, 1, 3)] {
        let inst = WorkloadSpec {
            n_jobs: n,
            arrival_rate: 1.0,
            volumes: VolumeDist::Exponential { mean: 1.0 },
            densities: DensityDist::LogUniform { lo: 0.5, hi: 10.0 },
        }
        .generate(7)
        .expect("valid spec");
        let params = NonUniformParams { steps_per_job: 150, ..NonUniformParams::recommended(3.0) };
        // Step-integrated: reported numbers are accurate to the integration
        // step, so the audit runs at step-level tolerance.
        let config = AuditConfig { rel_tol: 1e-2, ..AuditConfig::default() };
        let r = gate(&inst, law, CheckedAlgorithm::NcNonUniform(params), config);
        let steps = run_nc_nonuniform(&inst, law, params).expect("NC run").steps;
        suite.bench_report_metrics_with(
            &format!("algorithm_nc_nonuniform/{n}"),
            Some(&r),
            vec![("steps".into(), steps as f64)],
            warmup,
            iters,
            || {
                black_box(run_nc_nonuniform(&inst, law, params).expect("NC run"));
            },
        );
    }

    {
        // The evaluator is itself part of the audit path, so it gets no
        // verdict of its own.
        let inst = uniform_instance(500);
        let run = run_c(&inst, law).expect("C run");
        suite.bench("evaluate_schedule/500", || {
            black_box(ncss_sim::evaluate(&run.schedule, &inst).expect("evaluation"));
        });
    }

    suite.finish();
}
