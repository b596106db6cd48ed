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
use crate::trace_cmd::algo_of;
use ncss_analysis::{fmt_f, Table};
use ncss_audit::{AuditConfig, IncrementalAudit};
use ncss_core::streaming::StreamConfig;
use ncss_core::{run_c, run_nc_uniform};
use ncss_rng::{dist, Pcg64};
use ncss_sim::{Instance, Job, Objective, PowerLaw, SpillRing};
use ncss_trace::{Algo, Completion, Stream};
use std::io::{BufRead, Write};

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

/// `--emit completions --every N`: one line per N-th completion.
struct Emitter<'a> {
    /// Where lines go; `None` under `--emit summary`.
    out: Option<&'a mut dyn Write>,
    every: usize,
    emitted: usize,
}

impl Emitter<'_> {
    fn take(&mut self, c: &Completion) -> Result<(), String> {
        self.emitted += 1;
        let Some(out) = self.out.as_mut() else { return Ok(()) };
        if !self.emitted.is_multiple_of(self.every) {
            return Ok(());
        }
        let (id, t, frac, int) = c.outcome();
        match c {
            Completion::C(_) => writeln!(out, "complete id={id} t={t} frac={frac} int={int}"),
            Completion::Nc(nc) => {
                writeln!(out, "complete id={id} t={t} frac={frac} int={int} base={}", nc.base_power)
            }
        }
        .map_err(|e| format!("cannot write completions: {e}"))
    }
}

/// Settle one stream step (an offer, or the final `finish`): emit the
/// completions it produced, then either feed the live audit in the
/// feeding contract's order ([`IncrementalAudit::on_offer`], DESIGN.md
/// §11) or discard the retired segments (the ring tracks its own
/// peak/drop counters). An eagerly tripped check becomes an immediate,
/// named, non-zero exit.
fn settle(
    done: &mut Vec<Completion>,
    ring: &mut SpillRing,
    audit: Option<&mut IncrementalAudit>,
    emitter: &mut Emitter<'_>,
) -> Result<(), String> {
    for c in done.iter() {
        emitter.take(c)?;
    }
    let Some(audit) = audit else {
        done.clear();
        drop(ring.drain());
        return Ok(());
    };
    match audit.on_offer(ring.drain(), done.drain(..).map(|c| c.outcome())) {
        None => Ok(()),
        Some(t) => Err(format!(
            "incremental audit tripped {}: residual {:.3e} — {}",
            t.check, t.residual, t.detail
        )),
    }
}

/// Entry point for `ncss stream`: completion lines go to stdout.
pub(crate) fn cmd_stream(args: &ParsedArgs) -> Result<String, String> {
    stream_to(args, &mut std::io::stdout().lock())
}

/// `ncss stream`, writing `--emit completions` lines to `out`.
fn stream_to(args: &ParsedArgs, out: &mut dyn Write) -> Result<String, String> {
    let law = PowerLaw::new(args.f64_or("alpha", 3.0)?).map_err(|e| e.to_string())?;
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
    let algo = algo_of(args)?;

    // The batch cross-check needs every job retained (and an unbounded
    // ring, so no segment can drop); plain streaming keeps memory flat.
    let config =
        if check_batch { StreamConfig::batch() } else { StreamConfig::streaming(spill_cap) };
    let mut jobs: Vec<Job> = Vec::new(); // only filled for the batch cross-check
    let mut offered = 0usize;
    let mut emitter = Emitter { out: (emit == "completions").then_some(out), every, emitted: 0 };
    // Always-on auditor, fed one settled step at a time.
    let mut inc = audit.then(|| IncrementalAudit::new(law, AuditConfig::default()));
    let mut stream = Stream::new(algo, law, config);
    let mut done: Vec<Completion> = Vec::new();

    let err = |e: ncss_sim::SimError| e.to_string();
    while let Some(job) = source.next_job()? {
        if check_batch {
            jobs.push(job);
        }
        if let Some(a) = inc.as_mut() {
            a.on_release(offered, job);
        }
        stream.offer(job, &mut |c| done.push(c)).map_err(err)?;
        offered += 1;
        settle(&mut done, stream.spill_mut(), inc.as_mut(), &mut emitter)?;
    }
    let mut summary = stream.finish(&mut |c| done.push(c)).map_err(err)?;
    settle(&mut done, stream.spill_mut(), inc.as_mut(), &mut emitter)?;
    let stats = stream.stats();

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
        let batch = match algo {
            Algo::C => run_c(&inst, law).map_err(err)?.objective,
            Algo::Nc => run_nc_uniform(&inst, law).map_err(err)?.objective,
        };
        check_bitwise(&summary.objective, &batch)?;
        extra_rows.push(("batch cross-check".into(), "bitwise equal".into()));
    }

    let mut t = Table::new(
        format!("stream {} (alpha = {})", algo.name(), law.alpha()),
        &["metric", "value"],
    );
    let o = &summary.objective;
    for (k, v) in [
        ("jobs offered", format!("{offered}")),
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
    use crate::args::parse_args;
    use crate::run_cli;
    use ncss_core::streaming::{CStream, NcStream, StreamConfig};
    use ncss_sim::{Job, PowerLaw};

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

    #[test]
    fn emit_completions_prints_every_nth_line_for_c_and_nc() {
        let body = "release,volume,density\n0,1,1\n0.2,0.5,1\n0.3,2,1\n1.1,0.7,1\n\
                    1.2,0.1,1\n2.5,1.3,1\n2.6,0.4,1\n4,0.9,1\n";
        let p = write_csv("emit.csv", body);
        let jobs: Vec<Job> = body
            .lines()
            .skip(1)
            .map(|row| {
                let f: Vec<f64> = row.split(',').map(|x| x.parse().unwrap()).collect();
                Job::new(f[0], f[1], f[2])
            })
            .collect();
        let law = PowerLaw::new(2.5).unwrap();

        // Expected lines straight from the cores, in emission order.
        let mut c_lines = Vec::new();
        let mut c = CStream::new(law, StreamConfig::batch());
        let mut sink = |c: ncss_core::CCompletion| {
            c_lines.push(format!(
                "complete id={} t={} frac={} int={}",
                c.id, c.completion, c.frac_flow, c.int_flow
            ));
        };
        for job in &jobs {
            c.offer(*job, &mut sink).unwrap();
        }
        c.finish(&mut sink).unwrap();
        let mut nc_lines = Vec::new();
        let mut nc = NcStream::new(law, StreamConfig::batch());
        for job in &jobs {
            nc.offer(*job, &mut |c: ncss_core::NcCompletion| {
                nc_lines.push(format!(
                    "complete id={} t={} frac={} int={} base={}",
                    c.id, c.completion, c.frac_flow, c.int_flow, c.base_power
                ));
            })
            .unwrap();
        }

        for (algo, all) in [("c", c_lines), ("nc", nc_lines)] {
            assert_eq!(all.len(), jobs.len(), "{algo}: every job completes once");
            let args = parse_args(&v(&[
                "stream", "--input", &p, "--alpha", "2.5", "--algorithm", algo, "--emit",
                "completions", "--every", "3",
            ]))
            .unwrap();
            let mut out = Vec::new();
            let table = super::stream_to(&args, &mut out).unwrap();
            assert!(table.contains("jobs completed"), "{algo}: {table}");
            let want: String = all.iter().skip(2).step_by(3).map(|l| format!("{l}\n")).collect();
            assert_eq!(String::from_utf8(out).unwrap(), want, "{algo}");
            assert_eq!(want.lines().count(), 2, "{algo}: the 3rd and 6th of 8 completions");
        }
    }
}
