//! Benches for the parallel-machine algorithms and the lower-bound game,
//! on the in-repo harness (median/p95 to `BENCH_multi.json`).
//!
//! C-PAR and NC-PAR each run once through `run_checked_multi` (the
//! cross-machine auditor: per-machine invariants, no-double-service,
//! cross-machine volume conservation, objective re-derivation) before
//! timing; the verdict is recorded with the measurement and a failure
//! fails the binary. The adversary game produces no fleet schedule, so it
//! stays unaudited.

use ncss_audit::{AuditConfig, AuditReport};
use ncss_bench::harness::{black_box, Suite};
use ncss_core::run_checked_multi;
use ncss_multi::{immediate_dispatch_game, run_c_par, run_nc_par, RoundRobin};
use ncss_sim::{Instance, PowerLaw, SimResult};
use ncss_workloads::{VolumeDist, WorkloadSpec};

/// One audited run of a parallel-machine algorithm before timing it; the
/// full report carries the cross-machine per-check timings into
/// `BENCH_multi.json`.
fn multi_gate<F>(inst: &Instance, law: PowerLaw, machines: usize, run: F) -> AuditReport
where
    F: FnOnce(&Instance, PowerLaw, usize) -> SimResult<ncss_core::MultiRun>,
{
    match run_checked_multi(inst, law, machines, AuditConfig::default(), run) {
        Ok(checked) => checked.report,
        Err(_) => {
            let mut report = AuditReport::default();
            report.record("algorithm-ran", f64::INFINITY, 0.0, "run_checked_multi errored".into());
            report
        }
    }
}

fn main() {
    let law = PowerLaw::cube();
    let mut suite = Suite::new("multi");

    let inst = WorkloadSpec::uniform(60, 2.0, VolumeDist::Exponential { mean: 1.0 })
        .generate(3)
        .expect("valid spec");
    for k in [2usize, 4, 8] {
        let r = multi_gate(&inst, law, k, run_c_par);
        suite.bench_report_with(&format!("c_par/60x{k}"), Some(&r), 2, 20, || {
            black_box(run_c_par(&inst, law, k).expect("C-PAR"));
        });
        let r = multi_gate(&inst, law, k, run_nc_par);
        suite.bench_report_with(&format!("nc_par/60x{k}"), Some(&r), 2, 20, || {
            black_box(run_nc_par(&inst, law, k).expect("NC-PAR"));
        });
    }

    for k in [4usize, 8, 16] {
        suite.bench_with(&format!("immediate_dispatch_game/{k}"), 2, 10, || {
            let mut p = RoundRobin::default();
            black_box(immediate_dispatch_game(law, k, &mut p, 1.0, 1e-4).expect("game"));
        });
    }

    suite.finish();
}
