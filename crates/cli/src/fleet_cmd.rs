//! The `fleet` subcommand: sharded multi-machine runs over the worker pool.
//!
//! Where `audit --algorithm c-par` drives the *serial* fleet runners, this
//! command drives the sharded path (`ncss_multi::fleet`): a deterministic
//! [`DispatchLog`] built by the serial dispatcher, replayed with one pool
//! task per machine, gated by the event-driven cross-machine auditor. The
//! serial runner is re-run alongside (unless `--check-serial 0`) and the
//! two outcomes must agree bit for bit — the fleet determinism contract of
//! DESIGN.md §12, here as an operational self-check rather than a test.

use crate::args::ParsedArgs;
use ncss_analysis::{fmt_f, Table};
use ncss_audit::AuditConfig;
use ncss_multi::fleet::{
    audit_fleet, replay_c, replay_nc, replay_nc_assigned, DispatchLog,
};
use ncss_multi::{run_c_par, run_immediate_dispatch, run_nc_par, LeastCount, ParOutcome};
use ncss_pool::Pool;
use ncss_sim::{Instance, PowerLaw};
use ncss_workloads::instance_from_csv;

/// Tamper with a sharded outcome before auditing (`--corrupt WHAT`); the
/// audit gate MUST then go red, which `scripts/verify.sh` asserts with a
/// mandatory-fail probe.
fn corrupt_outcome(out: &mut ParOutcome, what: &str) -> Result<(), String> {
    match what {
        "energy" => out.objective.energy *= 0.5,
        "frac-flow" => out.objective.frac_flow *= 0.5,
        "int-flow" => out.objective.int_flow *= 0.5,
        "completion" => {
            let c = out
                .per_job
                .completion
                .first_mut()
                .ok_or_else(|| "--corrupt completion needs at least one job".to_string())?;
            *c *= 0.5;
        }
        "schedule" => {
            // Replay a busy machine's timeline on a phantom extra machine:
            // double service only the cross-machine checks can see.
            let dup = out
                .schedules
                .iter()
                .find(|s| !s.segments().is_empty())
                .cloned()
                .ok_or_else(|| "--corrupt schedule needs a non-idle machine".to_string())?;
            out.schedules.push(dup);
        }
        other => {
            return Err(format!(
                "unknown --corrupt component '{other}' \
                 (energy | frac-flow | int-flow | completion | schedule)"
            ))
        }
    }
    Ok(())
}

/// Assert the sharded outcome is bitwise the serial runner's. Returns a
/// description of the first divergence, if any.
fn serial_divergence(serial: &ParOutcome, sharded: &ParOutcome) -> Option<String> {
    if serial.assignment != sharded.assignment {
        return Some("job->machine assignment differs".into());
    }
    let pairs = [
        ("energy", serial.objective.energy, sharded.objective.energy),
        ("frac flow", serial.objective.frac_flow, sharded.objective.frac_flow),
        ("int flow", serial.objective.int_flow, sharded.objective.int_flow),
    ];
    for (what, s, p) in pairs {
        if s.to_bits() != p.to_bits() {
            return Some(format!("objective {what}: serial {s:?} != sharded {p:?}"));
        }
    }
    for (j, (s, p)) in
        serial.per_job.completion.iter().zip(&sharded.per_job.completion).enumerate()
    {
        if s.to_bits() != p.to_bits() {
            return Some(format!("job {j} completion: serial {s:?} != sharded {p:?}"));
        }
    }
    for (m, (ss, ps)) in serial.schedules.iter().zip(&sharded.schedules).enumerate() {
        if ss.segments() != ps.segments() {
            return Some(format!("machine {m} timeline differs"));
        }
    }
    None
}

/// Per-machine queue/timeline summary of the sharded run.
fn fleet_table(log: &DispatchLog, out: &ParOutcome, max_rows: usize) -> String {
    let mut queued = vec![0usize; log.machines()];
    for e in log.entries() {
        queued[e.machine] += 1;
    }
    let mut t = Table::new(
        "per-machine shards (dispatch-log queues, pool-task timelines)".to_string(),
        &["machine", "queued jobs", "segments", "busy time", "energy", "volume"],
    );
    for (m, s) in out.schedules.iter().enumerate().take(max_rows) {
        t.row(vec![
            format!("{m}"),
            // A machine the log never dispatched to (e.g. the phantom
            // timeline a --corrupt schedule probe appends) has no queue.
            format!("{}", queued.get(m).copied().unwrap_or(0)),
            format!("{}", s.segments().len()),
            fmt_f(s.busy_time()),
            fmt_f(s.energy()),
            fmt_f(s.total_volume()),
        ]);
    }
    let mut rendered = t.render();
    if out.schedules.len() > max_rows {
        rendered.push_str(&format!(
            "... {} more machines (per-machine rows capped at {max_rows}; totals \
             and the audit always cover the whole fleet)\n",
            out.schedules.len() - max_rows
        ));
    }
    rendered
}

/// `ncss fleet`: sharded C-PAR / NC-PAR / immediate-dispatch run.
pub fn cmd_fleet(args: &ParsedArgs) -> Result<String, String> {
    let path = args.require("input")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let inst: Instance =
        instance_from_csv(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let law = PowerLaw::new(args.f64_or("alpha", 3.0)?).map_err(|e| e.to_string())?;
    let machines = args.usize_or("machines", 2)?;
    let threads = args.usize_or("threads", 0)?; // 0 = size to the host
    let pool = if threads == 0 { Pool::auto() } else { Pool::with_threads(threads) };
    let algorithm = args.get_or("algorithm", "nc-par");
    let check_serial = args.usize_or("check-serial", 1)? != 0;

    // Phase 1 (serial): record the dispatcher's decisions. Phase 2
    // (parallel): replay per-machine event queues as pool tasks.
    let (log, mut sharded, serial) = match algorithm.as_str() {
        "c-par" => {
            let log = DispatchLog::c_par(&inst, law, machines).map_err(|e| e.to_string())?;
            let sharded = replay_c(&inst, law, &log, &pool).map_err(|e| e.to_string())?;
            let serial = check_serial
                .then(|| run_c_par(&inst, law, machines).map_err(|e| e.to_string()))
                .transpose()?;
            (log, sharded, serial)
        }
        "nc-par" => {
            let log = DispatchLog::nc_par(&inst, law, machines).map_err(|e| e.to_string())?;
            let sharded = replay_nc(&inst, law, &log, &pool).map_err(|e| e.to_string())?;
            let serial = check_serial
                .then(|| run_nc_par(&inst, law, machines).map_err(|e| e.to_string()))
                .transpose()?;
            (log, sharded, serial)
        }
        "dispatch" => {
            let mut policy = LeastCount::default();
            let log = DispatchLog::from_policy(&inst, machines, &mut policy)
                .map_err(|e| e.to_string())?;
            let sharded =
                replay_nc_assigned(&inst, law, &log, &pool).map_err(|e| e.to_string())?;
            let serial = check_serial
                .then(|| {
                    let mut policy = LeastCount::default();
                    run_immediate_dispatch(&inst, law, machines, &mut policy)
                        .map_err(|e| e.to_string())
                })
                .transpose()?;
            (log, sharded, serial)
        }
        other => {
            return Err(format!(
                "unknown fleet algorithm '{other}' (c-par | nc-par | dispatch)"
            ))
        }
    };

    if let Some(serial) = &serial {
        if let Some(divergence) = serial_divergence(serial, &sharded) {
            return Err(format!(
                "fleet determinism contract VIOLATED (serial != sharded): {divergence}"
            ));
        }
    }

    if let Some(what) = args.options.get("corrupt") {
        corrupt_outcome(&mut sharded, what)?;
    }

    let report = audit_fleet(&inst, law, &sharded, AuditConfig::default());

    let o = &sharded.objective;
    let mut out = format!(
        "sharded {algorithm} on {} jobs x {machines} machines (alpha = {}, {} pool workers)\n",
        inst.len(),
        law.alpha(),
        pool.worker_count(machines),
    );
    out.push_str(&format!(
        "frac objective {}   int objective {}   serial==sharded: {}\n",
        fmt_f(o.fractional()),
        fmt_f(o.integral()),
        if check_serial { "bitwise-verified" } else { "not checked (--check-serial 0)" },
    ));
    out.push_str(&fleet_table(&log, &sharded, args.usize_or("max-rows", 16)?));
    out.push_str(&report.render());
    // A failed audit is a failed command: verify.sh's mandatory-red corrupt
    // probe relies on the exit status, not on scraping the report.
    if report.passed() {
        Ok(out)
    } else {
        Err(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::commands::run_cli;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    /// A generated instance at a path of the calling test's own (tests run
    /// in parallel, so a shared file would be rewritten under a reader).
    fn write_trace(test: &str) -> String {
        let dir = std::env::temp_dir().join("ncss_fleet_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{test}.{}.csv", std::process::id()));
        let csv = run_cli(&v(&["generate", "--n", "24", "--seed", "11"])).unwrap();
        std::fs::write(&path, csv).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn fleet_runs_all_algorithms_audited() {
        let path = write_trace("fleet_runs_all_algorithms_audited");
        for algo in ["c-par", "nc-par", "dispatch"] {
            let out = run_cli(&v(&[
                "fleet", "--algorithm", algo, "--input", &path, "--alpha", "2",
                "--machines", "3", "--threads", "2",
            ]))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.contains("audit: PASS"), "{algo}: {out}");
            assert!(out.contains("serial==sharded: bitwise-verified"), "{algo}: {out}");
            assert!(out.contains("no-double-service"), "{algo}: {out}");
            assert!(out.contains("x 3 machines"), "{algo}: {out}");
        }
    }

    #[test]
    fn fleet_unchecked_serial() {
        let path = write_trace("fleet_unchecked_serial");
        let out = run_cli(&v(&[
            "fleet", "--input", &path, "--alpha", "2", "--machines", "2",
            "--check-serial", "0",
        ]))
        .unwrap();
        assert!(out.contains("not checked"), "{out}");
        assert!(out.contains("audit: PASS"), "{out}");
    }

    #[test]
    fn fleet_corrupt_probes_go_red_with_named_checks() {
        let path = write_trace("fleet_corrupt_probes_go_red_with_named_checks");
        // Tampered energy trips the recomputation check by name; a
        // duplicated machine timeline trips double-service.
        for (what, check) in [("energy", "FAIL energy-recomputed"), ("schedule", "FAIL no-double-service")]
        {
            let msg = run_cli(&v(&[
                "fleet", "--input", &path, "--alpha", "2", "--machines", "2", "--corrupt", what,
            ]))
            .expect_err(&format!("--corrupt {what} must fail"));
            assert!(msg.contains(check), "{what}: {msg}");
        }
        assert!(run_cli(&v(&[
            "fleet", "--input", &path, "--corrupt", "entropy",
        ]))
        .is_err());
    }

    #[test]
    fn fleet_caps_per_machine_rows_but_audits_all() {
        let path = write_trace("fleet_caps_per_machine_rows_but_audits_all");
        let out = run_cli(&v(&[
            "fleet", "--input", &path, "--alpha", "2", "--machines", "24",
            "--max-rows", "4",
        ]))
        .unwrap();
        assert!(out.contains("... 20 more machines"), "{out}");
        assert!(out.contains("audit: PASS"), "{out}");
    }

    #[test]
    fn fleet_rejects_unknown_algorithm_and_bad_machines() {
        let path = write_trace("fleet_rejects_unknown_algorithm_and_bad_machines");
        assert!(run_cli(&v(&["fleet", "--input", &path, "--algorithm", "magic"])).is_err());
        assert!(run_cli(&v(&["fleet", "--input", &path, "--machines", "0"])).is_err());
    }
}
