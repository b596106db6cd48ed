//! The `stream` subcommand: bounded-memory event-driven simulation.
//!
//! Reads an ordered release stream (CSV from a file or stdin, or a
//! synthetic Poisson source for soak-scale runs), pushes it through the
//! streaming scheduler core (`ncss_core::streaming`), and emits completions
//! and running objectives as the event loop crosses them. Resident memory
//! is O(active jobs): the spill ring of retired segments is drained after
//! every arrival.
//!
//! Two self-checks close the loop:
//!
//! * `--check-batch 1` buffers the jobs, re-runs the batch runner, and
//!   demands **bitwise** equality of energy / fractional / integral flow
//!   (DESIGN.md §9's equivalence contract); any mismatch is a non-zero exit.
//! * `--audit 1` (alias `incremental`) attaches the always-on
//!   `IncrementalAudit` to the event feed: every retired segment and
//!   completion is checked in O(delta) as it happens (a tripped check exits
//!   non-zero immediately, naming the check), and the final report carries
//!   the same named checks a post-hoc `ScheduleAudit` of the run gives —
//!   they are one engine (DESIGN.md §11).

use crate::args::ParsedArgs;
use ncss_analysis::{fmt_f, Table};
use ncss_audit::{AuditConfig, IncrementalAudit, Trip};
use ncss_core::streaming::{CStream, NcStream, StreamConfig};
use ncss_core::{run_c, run_nc_uniform};
use ncss_rng::{dist, Pcg64};
use ncss_sim::{Instance, Job, Objective, PowerLaw, SpillRing};
use std::io::BufRead;

/// A source of released jobs, in non-decreasing release order. Shared with
/// the trace subcommands (`record`/`resume`), which replay the same inputs.
pub(crate) enum JobSource {
    /// CSV rows (`release,volume,density` header) from a file or stdin.
    Csv {
        /// Line iterator over the input.
        lines: Box<dyn Iterator<Item = std::io::Result<String>>>,
        /// Current 1-based line number (for named, line-numbered errors).
        line: usize,
        /// Whether the header row has been consumed.
        header_seen: bool,
        /// Highest release seen, for the ordered-stream contract.
        last_release: f64,
    },
    /// Synthetic Poisson arrivals with exponential volumes, density 1.
    Synthetic { remaining: usize, rate: f64, clock: f64, rng: Pcg64 },
}

impl JobSource {
    /// Build a source from the shared `--input FILE|-` / `--synthetic N
    /// [--rate R] [--seed S]` options. Returns the source plus the seed
    /// (0 for CSV inputs), which trace headers record as provenance.
    pub(crate) fn from_args(args: &ParsedArgs, who: &str) -> Result<(Self, u64), String> {
        let synthetic = args.usize_or("synthetic", 0)?;
        if synthetic > 0 {
            let seed = args.usize_or("seed", 1)? as u64;
            let source = JobSource::Synthetic {
                remaining: synthetic,
                rate: args.f64_or("rate", 2.0)?,
                clock: 0.0,
                rng: Pcg64::seed_from_u64(seed),
            };
            return Ok((source, seed));
        }
        let path = args
            .require("input")
            .map_err(|_| format!("{who} needs --input FILE|- or --synthetic N"))?;
        let lines: Box<dyn Iterator<Item = std::io::Result<String>>> = if path == "-" {
            Box::new(std::io::stdin().lock().lines())
        } else {
            let file =
                std::fs::File::open(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Box::new(std::io::BufReader::new(file).lines())
        };
        Ok((JobSource::Csv { lines, line: 0, header_seen: false, last_release: f64::NEG_INFINITY }, 0))
    }

    pub(crate) fn next_job(&mut self) -> Result<Option<Job>, String> {
        match self {
            JobSource::Csv { lines, line, header_seen, last_release } => loop {
                let Some(row) = lines.next() else { return Ok(None) };
                *line += 1;
                // Same named, line-numbered contract as the batch CSV
                // loader (SimError::InvalidRow): a bad row — including one
                // piped through stdin mid-run — says where and what, and
                // the run exits non-zero instead of panicking downstream.
                let bad = |line: usize, detail: String| {
                    ncss_sim::SimError::InvalidRow { line, detail }.to_string()
                };
                let row = row.map_err(|e| bad(*line, format!("read error: {e}")))?;
                let row = row.trim();
                if row.is_empty() || row.starts_with('#') {
                    continue;
                }
                if !*header_seen {
                    let cols: Vec<&str> = row.split(',').map(str::trim).collect();
                    if cols != ["release", "volume", "density"] {
                        return Err(bad(
                            *line,
                            format!("header must be release,volume,density (got `{row}`)"),
                        ));
                    }
                    *header_seen = true;
                    continue;
                }
                let fields: Vec<&str> = row.split(',').map(str::trim).collect();
                if fields.len() != 3 {
                    return Err(bad(*line, format!("expected 3 fields, got {}", fields.len())));
                }
                let f = |name: &str, s: &str| -> Result<f64, String> {
                    s.parse().map_err(|_| bad(*line, format!("{name} `{s}` is not a number")))
                };
                let job = Job::new(
                    f("release", fields[0])?,
                    f("volume", fields[1])?,
                    f("density", fields[2])?,
                );
                for (name, v, positive) in [
                    ("release", job.release, false),
                    ("volume", job.volume, true),
                    ("density", job.density, true),
                ] {
                    if !v.is_finite() || v < 0.0 || (positive && v == 0.0) {
                        return Err(bad(
                            *line,
                            format!(
                                "{name} `{v}` must be finite and {}",
                                if positive { "> 0" } else { ">= 0" }
                            ),
                        ));
                    }
                }
                if job.release < *last_release {
                    return Err(bad(
                        *line,
                        format!(
                            "release {} goes back in time (previous release {}; \
                             streamed input must be ordered by release)",
                            job.release, last_release
                        ),
                    ));
                }
                *last_release = job.release;
                return Ok(Some(job));
            },
            JobSource::Synthetic { remaining, rate, clock, rng } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                *remaining -= 1;
                *clock += dist::poisson_gap(rng, *rate);
                Ok(Some(Job::unit_density(*clock, dist::exponential(rng, 1.0))))
            }
        }
    }
}

/// Per-run accounting shared by both algorithms.
struct Tally {
    offered: usize,
    emitted: usize,
}

/// Drain the spill ring after an offer. Unaudited runs discard the retired
/// segments (the ring tracks its own peak/drop counters); audited runs
/// follow the incremental feeding contract (DESIGN.md §11): retired
/// segments first, then the completions the offer emitted. An eagerly
/// tripped check becomes an immediate, named, non-zero exit.
fn drain(
    audit: Option<&mut IncrementalAudit>,
    ring: &mut SpillRing,
    completions: &mut Vec<(usize, f64, f64, f64)>,
) -> Result<(), String> {
    let Some(audit) = audit else {
        drop(ring.drain());
        return Ok(());
    };
    let fail = |t: Trip| {
        format!(
            "incremental audit tripped {}: residual {:.3e} — {}",
            t.check, t.residual, t.detail
        )
    };
    for seg in ring.drain() {
        if let Some(t) = audit.on_segment(seg) {
            return Err(fail(t));
        }
    }
    for (id, completion, frac, int) in completions.drain(..) {
        if let Some(t) = audit.on_complete(id, completion, frac, int) {
            return Err(fail(t));
        }
    }
    Ok(())
}

/// Entry point for `ncss stream`.
pub(crate) fn cmd_stream(args: &ParsedArgs) -> Result<String, String> {
    let law = PowerLaw::new(args.f64_or("alpha", 3.0)?).map_err(|e| e.to_string())?;
    let algo = args.get_or("algorithm", "c");
    let emit = args.get_or("emit", "summary");
    if emit != "summary" && emit != "completions" {
        return Err(format!("--emit expects summary|completions, got '{emit}'"));
    }
    let every = args.usize_or("every", 1)?.max(1);
    let spill_cap = args.usize_or("spill", 4096)?;
    let audit = match args.get_or("audit", "0").as_str() {
        "0" => false,
        "1" | "incremental" => true,
        other => return Err(format!("--audit expects 0|1 (incremental = 1), got '{other}'")),
    };
    let check_batch = args.usize_or("check-batch", 0)? == 1;
    let assert_active = args.usize_or("assert-active", usize::MAX)?;
    // --strict 1: any spill-ring drop (segments evicted because the
    // consumer fell behind) fails the run instead of just being counted.
    let strict = args.usize_or("strict", 0)? == 1;
    // Verification probe, mirroring `audit --corrupt`: deliberately skew
    // the reported energy so the cross-check / audit gates must go red.
    let corrupt = args.get_or("corrupt", "none");
    if corrupt != "none" && corrupt != "energy" {
        return Err(format!("--corrupt expects none|energy, got '{corrupt}'"));
    }

    let (mut source, _seed) = JobSource::from_args(args, "stream")?;

    // The batch cross-check needs every job retained (and an unbounded
    // ring, so no segment can drop); plain streaming keeps memory flat.
    let config =
        if check_batch { StreamConfig::batch() } else { StreamConfig::streaming(spill_cap) };
    let mut jobs: Vec<Job> = Vec::new(); // only filled for the batch cross-check
    let mut tally = Tally { offered: 0, emitted: 0 };
    // Always-on auditor + the per-offer completion buffer of its feeding
    // contract (segments are fed before the completions they precede).
    let mut inc = audit.then(|| IncrementalAudit::new(law, AuditConfig::default()));
    let mut inc_buf: Vec<(usize, f64, f64, f64)> = Vec::new();

    let err = |e: ncss_sim::SimError| e.to_string();
    let (mut summary, stats) = match algo.as_str() {
        "c" => {
            let mut stream = CStream::new(law, config);
            loop {
                let Some(job) = source.next_job()? else { break };
                if check_batch {
                    jobs.push(job);
                }
                if let Some(a) = inc.as_mut() {
                    a.on_release(tally.offered, job);
                }
                let mut sink = |c: ncss_core::CCompletion| {
                    if audit {
                        inc_buf.push((c.id, c.completion, c.frac_flow, c.int_flow));
                    }
                    tally.emitted += 1;
                    if emit == "completions" && tally.emitted % every == 0 {
                        println!(
                            "complete id={} t={} frac={} int={}",
                            c.id, c.completion, c.frac_flow, c.int_flow
                        );
                    }
                };
                stream.offer(job, &mut sink).map_err(err)?;
                tally.offered += 1;
                drain(inc.as_mut(), stream.spill_mut(), &mut inc_buf)?;
            }
            let mut sink = |c: ncss_core::CCompletion| {
                if audit {
                    inc_buf.push((c.id, c.completion, c.frac_flow, c.int_flow));
                }
                tally.emitted += 1;
                if emit == "completions" && tally.emitted % every == 0 {
                    println!(
                        "complete id={} t={} frac={} int={}",
                        c.id, c.completion, c.frac_flow, c.int_flow
                    );
                }
            };
            let summary = stream.finish(&mut sink).map_err(err)?;
            drain(inc.as_mut(), stream.spill_mut(), &mut inc_buf)?;
            (summary, stream.stats())
        }
        "nc" => {
            let mut stream = NcStream::new(law, config);
            loop {
                let Some(job) = source.next_job()? else { break };
                if check_batch {
                    jobs.push(job);
                }
                if let Some(a) = inc.as_mut() {
                    a.on_release(tally.offered, job);
                }
                let mut sink = |c: ncss_core::NcCompletion| {
                    if audit {
                        inc_buf.push((c.id, c.completion, c.frac_flow, c.int_flow));
                    }
                    tally.emitted += 1;
                    if emit == "completions" && tally.emitted % every == 0 {
                        println!(
                            "complete id={} t={} frac={} int={} base={}",
                            c.id, c.completion, c.frac_flow, c.int_flow, c.base_power
                        );
                    }
                };
                stream.offer(job, &mut sink).map_err(err)?;
                tally.offered += 1;
                drain(inc.as_mut(), stream.spill_mut(), &mut inc_buf)?;
            }
            let summary = stream.finish().map_err(err)?;
            drain(inc.as_mut(), stream.spill_mut(), &mut inc_buf)?;
            (summary, stream.stats())
        }
        other => return Err(format!("stream supports --algorithm c|nc, got '{other}'")),
    };

    if stats.peak_active > assert_active {
        return Err(format!(
            "memory ceiling violated: peak active jobs {} > --assert-active {}",
            stats.peak_active, assert_active
        ));
    }
    if stats.spill_dropped > 0 && check_batch {
        return Err(format!(
            "{} segments dropped from a retained run (should be impossible)",
            stats.spill_dropped
        ));
    }
    if strict && stats.spill_dropped > 0 {
        return Err(format!(
            "--strict: {} segments dropped from the spill ring (cap {}); \
             raise --spill or drain faster",
            stats.spill_dropped, spill_cap
        ));
    }

    if corrupt == "energy" {
        summary.objective.energy *= 1.05;
    }

    let mut extra_rows: Vec<(String, String)> = Vec::new();
    if let Some(a) = inc {
        // Judged against the possibly `--corrupt`-skewed reported
        // objective, so the probe must go red here.
        let report = a.finalize(&summary.objective);
        extra_rows.push((
            "incremental audit".into(),
            format!(
                "{} (max residual {:.1e})",
                if report.passed() { "PASS" } else { "FAIL" },
                report.max_residual()
            ),
        ));
        if !report.passed() {
            return Err(format!("stream incremental audit FAILED:\n{}", report.render()));
        }
    }
    if check_batch {
        let inst = Instance::new(jobs).map_err(err)?;
        let batch = match algo.as_str() {
            "c" => run_c(&inst, law).map_err(err)?.objective,
            _ => run_nc_uniform(&inst, law).map_err(err)?.objective,
        };
        check_bitwise(&summary.objective, &batch)?;
        extra_rows.push(("batch cross-check".into(), "bitwise equal".into()));
    }

    let mut t = Table::new(
        format!("stream {} (alpha = {})", algo, law.alpha()),
        &["metric", "value"],
    );
    let o = &summary.objective;
    for (k, v) in [
        ("jobs offered", format!("{}", tally.offered)),
        ("jobs completed", format!("{}", summary.completed)),
        ("makespan", fmt_f(summary.makespan)),
        ("energy", fmt_f(o.energy)),
        ("frac flow", fmt_f(o.frac_flow)),
        ("int flow", fmt_f(o.int_flow)),
        ("frac objective", fmt_f(o.fractional())),
        ("int objective", fmt_f(o.integral())),
        ("peak active jobs", format!("{}", stats.peak_active)),
        ("arena slots", format!("{}", stats.arena_slots)),
        ("spill peak resident", format!("{}", stats.spill_peak_resident)),
        ("spill dropped", format!("{}", stats.spill_dropped)),
        ("segments retired", format!("{}", stats.spill_total)),
    ] {
        t.row(vec![k.to_string(), v]);
    }
    for (k, v) in extra_rows {
        t.row(vec![k, v]);
    }
    Ok(t.render())
}

/// The batch-vs-stream equivalence contract: same instance, bitwise-equal
/// objectives. Any ULP of drift is a bug, not noise.
fn check_bitwise(stream: &Objective, batch: &Objective) -> Result<(), String> {
    let pairs = [
        ("energy", stream.energy, batch.energy),
        ("frac_flow", stream.frac_flow, batch.frac_flow),
        ("int_flow", stream.int_flow, batch.int_flow),
    ];
    for (name, s, b) in pairs {
        if s.to_bits() != b.to_bits() {
            return Err(format!(
                "batch-vs-stream mismatch in {name}: stream {s:?} ({:#x}) vs batch {b:?} ({:#x})",
                s.to_bits(),
                b.to_bits()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::run_cli;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    fn write_csv(name: &str, body: &str) -> String {
        let dir = std::env::temp_dir().join("ncss_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn stream(input: &str, extra: &[&str]) -> Result<String, String> {
        let mut argv = v(&["stream", "--input", input, "--alpha", "2.5"]);
        argv.extend(extra.iter().map(|s| (*s).to_string()));
        run_cli(&argv)
    }

    #[test]
    fn ordered_csv_streams_fine() {
        let p = write_csv("ok.csv", "release,volume,density\n0,1,1\n0.5,2,1\n1.5,0.5,1\n");
        let out = stream(&p, &[]).unwrap();
        assert!(out.contains("completed"), "{out}");
    }

    #[test]
    fn out_of_order_release_names_the_line() {
        let p = write_csv("ooo.csv", "release,volume,density\n0,1,1\n2,1,1\n1,1,1\n");
        let err = stream(&p, &[]).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("goes back in time"), "{err}");
    }

    #[test]
    fn bad_rows_name_the_line_and_field() {
        for (name, body, line, want) in [
            ("hdr.csv", "time,volume,density\n0,1,1\n", 1, "header must be"),
            ("cols.csv", "release,volume,density\n0,1\n", 2, "expected 3 fields"),
            ("nan.csv", "release,volume,density\n0,abc,1\n", 2, "is not a number"),
            ("inf.csv", "release,volume,density\n0,inf,1\n", 2, "must be finite"),
            ("zero.csv", "release,volume,density\n0,0,1\n", 2, "must be finite and > 0"),
            ("negrel.csv", "release,volume,density\n-1,1,1\n", 2, ">= 0"),
        ] {
            let p = write_csv(name, body);
            let err = stream(&p, &[]).unwrap_err();
            assert!(err.contains(&format!("line {line}")), "{name}: {err}");
            assert!(err.contains(want), "{name}: {err}");
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped_but_lines_still_count() {
        let p = write_csv(
            "cmt.csv",
            "# a comment\nrelease,volume,density\n\n0,1,1\n# mid\n1,bad,1\n",
        );
        let err = stream(&p, &[]).unwrap_err();
        assert!(err.contains("line 6"), "{err}");
    }

    #[test]
    fn incremental_audit_passes_honest_runs_and_reports() {
        // `incremental` is an alias of `1`: both attach the live engine.
        for (algo, mode) in [("c", "incremental"), ("nc", "incremental"), ("c", "1")] {
            let out = run_cli(&v(&[
                "stream", "--synthetic", "300", "--rate", "1.5", "--seed", "11", "--algorithm",
                algo, "--audit", mode,
            ]))
            .unwrap();
            assert!(out.contains("incremental audit"), "{algo}/{mode}: {out}");
            assert!(out.contains("PASS"), "{algo}/{mode}: {out}");
        }
    }

    #[test]
    fn incremental_audit_trips_on_corrupt_energy() {
        let err = run_cli(&v(&[
            "stream", "--synthetic", "200", "--rate", "1.5", "--seed", "11", "--audit",
            "incremental", "--corrupt", "energy",
        ]))
        .unwrap_err();
        assert!(err.contains("energy-recomputed"), "{err}");
        assert!(err.contains("FAIL"), "{err}");
    }

    #[test]
    fn audit_flag_rejects_unknown_modes() {
        let err = run_cli(&v(&[
            "stream", "--synthetic", "10", "--audit", "sometimes",
        ]))
        .unwrap_err();
        assert!(err.contains("--audit expects 0|1"), "{err}");
    }

    #[test]
    fn strict_turns_spill_drops_into_failure() {
        // A one-slot ring with a workload that retires several segments per
        // arrival: lenient mode counts the drops, strict mode fails.
        let lenient = run_cli(&v(&[
            "stream", "--synthetic", "200", "--rate", "0.5", "--seed", "9", "--spill", "1",
        ]))
        .unwrap();
        assert!(lenient.contains("spill dropped"), "{lenient}");
        let err = run_cli(&v(&[
            "stream", "--synthetic", "200", "--rate", "0.5", "--seed", "9", "--spill", "1",
            "--strict", "1",
        ]))
        .unwrap_err();
        assert!(err.contains("--strict"), "{err}");
        assert!(err.contains("dropped from the spill ring"), "{err}");
    }
}
