//! `bench-diff` — compare two `BENCH_<suite>.json` files and fail on
//! regressions.
//!
//! ```text
//! bench-diff <baseline.json> <candidate.json> [--threshold PCT]
//!            [--floor-ns N] [--residual-factor F] [--residual-floor R]
//! ```
//!
//! Exits 0 when no regression is found, 1 on regressions, 2 on usage or
//! parse errors. See EXPERIMENTS.md ("Comparing bench runs") for a worked
//! diagnosis.

use std::process::ExitCode;

use ncss_bench::diff::{diff, BenchDoc, DiffOptions, Kind};

const USAGE: &str = "usage: bench-diff <baseline.json> <candidate.json> \
[--threshold PCT] [--floor-ns N] [--residual-factor F] [--residual-floor R]

Compares every timing quantile (min/mean/median/p95/max_ns) and every
audit_timing check (elapsed_ns + residual) of the candidate against the
baseline. A quantile or check regresses when it is both PCT percent and
N nanoseconds slower; a residual regresses when it grows by more than F x
past the noise floor R; an audit verdict that leaves \"pass\" always fails.

Named \"metrics\" values (derived scalars such as the fleet k-sweep's
degradation ratio) are compared to float slack: any
real drift, loss, or nullification of a baseline metric fails the diff.

Rows where both documents carry the deterministic \"work_items\" metric
additionally print a normalised per-item throughput delta
(median_ns / work_items) — informational, never a failure, since the
quantile comparison already gates the timing. \"work_items\" itself is
exempt from the metric gate: it is a workload size, and the normalised
delta is how soaks of different lengths are compared. An \"attribution\"
block must reconcile (calls + timer + other = wall_ns, no term missing or
negative) but is not diffed. Both documents must be schema ncss-bench/6;
any other tag, or a block that does not reconcile, is a tool error
(exit 2).

  --threshold PCT        relative slowdown to flag, percent (default 25)
  --floor-ns N           absolute slowdown floor, nanoseconds (default 50000)
  --residual-factor F    residual growth factor to flag (default 10)
  --residual-floor R     residuals below R are noise (default 1e-9)
  --metric-rel-tol T     relative drift allowed on metrics (default 1e-6)
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench-diff: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag = |name: &str| -> Result<f64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<f64>()
                .map_err(|e| format!("bad {name} value: {e}"))
        };
        match arg.as_str() {
            "--threshold" => match flag("--threshold") {
                Ok(v) => opts.threshold = v / 100.0,
                Err(e) => return fail(&e),
            },
            "--floor-ns" => match flag("--floor-ns") {
                Ok(v) => opts.floor_ns = v as u64,
                Err(e) => return fail(&e),
            },
            "--residual-factor" => match flag("--residual-factor") {
                Ok(v) => opts.residual_factor = v,
                Err(e) => return fail(&e),
            },
            "--residual-floor" => match flag("--residual-floor") {
                Ok(v) => opts.residual_floor = v,
                Err(e) => return fail(&e),
            },
            "--metric-rel-tol" => match flag("--metric-rel-tol") {
                Ok(v) => opts.metric_rel_tol = v,
                Err(e) => return fail(&e),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return fail(&format!("unknown flag {other:?}")),
            path => paths.push(path),
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        return fail("expected exactly two bench JSON paths");
    };

    // Load errors — unreadable files, malformed JSON, schema drift (an
    // unknown ncss-bench/N tag, a row without audit_timing, or an
    // attribution block that does not reconcile) — are tool
    // errors: a named warning and exit 2, distinct from exit 1 (a real
    // perf/verdict regression). No usage spam: the command line was fine.
    let load = |path: &str| -> Result<BenchDoc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchDoc::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let tool_error = |msg: &str| -> ExitCode {
        eprintln!("bench-diff: warning: {msg}");
        eprintln!("bench-diff: cannot compare (tool error, not a regression)");
        ExitCode::from(2)
    };
    let base = match load(base_path) {
        Ok(doc) => doc,
        Err(e) => return tool_error(&e),
    };
    let new = match load(new_path) {
        Ok(doc) => doc,
        Err(e) => return tool_error(&e),
    };
    if base.suite != new.suite {
        eprintln!(
            "bench-diff: warning: comparing different suites ({:?} vs {:?})",
            base.suite, new.suite
        );
    }

    let report = diff(&base, &new, &opts);
    println!(
        "bench-diff: {} vs {} — {} comparisons, {} regression(s), {} improvement(s)",
        base_path,
        new_path,
        report.compared,
        report.regressions.len(),
        report.improvements.len()
    );
    for f in &report.improvements {
        println!("  improved   {f}");
    }
    for f in &report.throughput {
        println!("  throughput {f}");
    }
    for name in &report.added {
        println!("  added      {name} (no baseline; not compared)");
    }
    for f in &report.regressions {
        let tag = match f.kind {
            Kind::Quantile => "SLOWER",
            Kind::CheckTime => "CHECK-SLOWER",
            Kind::Residual => "RESIDUAL",
            Kind::Verdict => "VERDICT",
            Kind::Metric => "METRIC",
            Kind::Throughput => "THROUGHPUT",
            Kind::Missing => "MISSING",
        };
        println!("  {tag:<10} {f}");
    }
    if report.passed() {
        println!("bench-diff: OK");
        ExitCode::SUCCESS
    } else {
        println!("bench-diff: FAIL");
        ExitCode::FAILURE
    }
}
