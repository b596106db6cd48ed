//! The crash-safety subcommands: `record`, `replay`, `resume`, `tamper`.
//!
//! * `record` runs a streaming scheduler over an input and appends every
//!   release, completion, and retired segment to a `.nct` WAL, with
//!   periodic checkpoint frames. `--kill-after K` deliberately stops the
//!   recording mid-run (optionally leaving a torn half-frame at the tail)
//!   so crash recovery can be exercised offline and deterministically.
//! * `resume` recovers a torn/unfinalized trace, restores the last
//!   checkpoint, re-offers the remaining input, and writes a finalized
//!   trace whose completions and objectives are **bitwise identical** to an
//!   uninterrupted run.
//! * `replay` reads a trace frame by frame, re-executes its releases, and
//!   verifies every completion, segment, checkpoint, and the final
//!   objectives down to the bit, in memory bounded by the jobs active at
//!   once; `--audit 1` additionally collects the run, rebuilds the
//!   schedule and runs the independent audit; `--check-against` compares
//!   two traces frame by frame.
//! * `tamper` applies one seeded corruption pattern — the verify gate
//!   records a golden trace, tampers it, and requires replay to go red.

use crate::args::ParsedArgs;
use crate::stream::JobSource;
use ncss_analysis::{fmt_f, Table};
use ncss_audit::{AuditConfig, ScheduleAudit};
use ncss_core::streaming::StreamConfig;
use ncss_sim::{Evaluated, Instance, Job, PerJob, PowerLaw, ScheduleBuilder};
use ncss_trace::{
    format, reader, replay_frames, tamper, Algo, Checkpoint, Event, Frame, Frames, Recorder,
    Stream, TraceError, TraceHeader, TraceSummary,
};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

fn trace_err(e: TraceError) -> String {
    format!("trace error [{}]: {e}", e.name())
}

fn sim_err(e: ncss_sim::SimError) -> String {
    e.to_string()
}

fn out_path(args: &ParsedArgs) -> Result<PathBuf, String> {
    Ok(PathBuf::from(args.require("out")?))
}

fn trace_path(args: &ParsedArgs) -> Result<PathBuf, String> {
    Ok(PathBuf::from(args.require("trace")?))
}

/// The `--algorithm c|nc` of `stream`, `record` and `resume` (default `c`).
pub(crate) fn algo_of(args: &ParsedArgs) -> Result<Algo, String> {
    match args.get_or("algorithm", "c").as_str() {
        "c" => Ok(Algo::C),
        "nc" => Ok(Algo::Nc),
        other => Err(format!("--algorithm expects c|nc, got '{other}'")),
    }
}

/// A fresh stream for a recording. Its spill ring is unbounded and drained
/// into the recorder after every offer, as replay runs it, so it holds one
/// offer's segments at a time and never drops any, however many one offer
/// retires.
fn fresh_stream(algo: Algo, law: PowerLaw) -> Stream {
    Stream::new(algo, law, StreamConfig::batch())
}

/// How a recording run ended.
enum RunEnd {
    /// Ran to completion and was finalized with this tally.
    Finalized(TraceSummary),
    /// Deliberately killed after this many offers (unfinalized trace).
    Killed(usize),
}

impl RunEnd {
    /// Jobs offered in total, including a resume's replayed prefix.
    fn offered(&self) -> usize {
        match self {
            RunEnd::Finalized(summary) => summary.ingested as usize,
            RunEnd::Killed(at) => *at,
        }
    }
}

/// Shared record loop: offer jobs from `source` to `stream` (skipping the
/// first `skip`, which a resume has already replayed from its checkpoint),
/// logging every offer to `rec`, checkpointing every `every` offers, and
/// finalizing at the end — or stopping after `kill_after` *new* offers
/// without finalizing.
fn drive(
    mut stream: Stream,
    source: &mut JobSource,
    mut rec: Recorder<BufWriter<File>>,
    skip: usize,
    every: usize,
    kill_after: usize,
    trace_jobs: &[Job],
) -> Result<RunEnd, String> {
    let mut offered = skip;
    let mut skipped = 0usize;
    while let Some(job) = source.next_job()? {
        if skipped < skip {
            // The resume path re-reads the original input; the skipped
            // prefix must agree with what the trace recorded, or the input
            // is not the run's input.
            if let Some(recorded) = trace_jobs.get(skipped) {
                if recorded != &job {
                    return Err(format!(
                        "input disagrees with trace at job {skipped}: \
                         recorded {recorded:?}, input {job:?}"
                    ));
                }
            }
            skipped += 1;
            continue;
        }
        rec.record_offer(&mut stream, job).map_err(trace_err)?;
        offered += 1;
        if every > 0 && offered.is_multiple_of(every) {
            let cp = Box::new(stream.checkpoint());
            rec.append(&Event::Checkpoint(cp)).map_err(trace_err)?;
            // A checkpoint is a durability point: everything up to it must
            // survive a crash right after.
            rec.flush().map_err(trace_err)?;
        }
        if kill_after > 0 && offered - skip >= kill_after {
            rec.flush().map_err(trace_err)?;
            return Ok(RunEnd::Killed(offered));
        }
    }
    let summary = rec.record_finish(&mut stream).map_err(trace_err)?;
    rec.finalize(&summary).map_err(trace_err)?;
    Ok(RunEnd::Finalized(summary))
}

/// Entry point for `ncss record`.
pub(crate) fn cmd_record(args: &ParsedArgs) -> Result<String, String> {
    let law = PowerLaw::new(args.f64_or("alpha", 3.0)?).map_err(sim_err)?;
    let algo = algo_of(args)?;
    let every = args.usize_or("checkpoint-every", 64)?;
    let kill_after = args.usize_or("kill-after", 0)?;
    let torn_bytes = args.usize_or("torn-bytes", 0)?;
    let out = out_path(args)?;
    let (mut source, seed) = JobSource::from_args(args, "record")?;
    let note = args.get_or("note", "");

    let header = TraceHeader::new(algo, law.alpha(), seed, note);
    let rec = Recorder::create(&out, &header).map_err(trace_err)?;
    let end = drive(fresh_stream(algo, law), &mut source, rec, 0, every, kill_after, &[])?;

    let mut t = Table::new(
        format!("record {} (alpha = {})", algo.name(), law.alpha()),
        &["metric", "value"],
    );
    t.row(vec!["trace".into(), out.display().to_string()]);
    t.row(vec!["jobs offered".into(), format!("{}", end.offered())]);
    match end {
        RunEnd::Finalized(summary) => {
            t.row(vec!["finalized".into(), "yes".into()]);
            t.row(vec!["makespan".into(), fmt_f(summary.makespan)]);
            t.row(vec!["energy".into(), fmt_f(summary.energy)]);
            t.row(vec!["frac flow".into(), fmt_f(summary.frac_flow)]);
            t.row(vec!["int flow".into(), fmt_f(summary.int_flow)]);
        }
        RunEnd::Killed(at) => {
            // Simulated crash: no summary frame. Optionally leave a torn
            // half-frame at the tail, as a real kill mid-append would.
            if torn_bytes > 0 {
                let mut frame = Vec::new();
                let release = Event::Release { id: u64::MAX, job: Job::unit_density(0.0, 1.0) };
                format::put_event_frame(&mut frame, u64::MAX, &release);
                let torn = &frame[..torn_bytes.min(frame.len() - 1)];
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&out)
                    .map_err(|e| format!("cannot append torn bytes: {e}"))?;
                file.write_all(torn).map_err(|e| format!("cannot append torn bytes: {e}"))?;
                t.row(vec!["torn tail bytes".into(), format!("{}", torn.len())]);
            }
            t.row(vec!["finalized".into(), format!("no (killed after {at} offers)")]);
        }
    }
    Ok(t.render())
}

/// Entry point for `ncss resume`.
pub(crate) fn cmd_resume(args: &ParsedArgs) -> Result<String, String> {
    let torn = trace_path(args)?;
    let out = out_path(args)?;
    let every = args.usize_or("checkpoint-every", 64)?;
    let kill_after = args.usize_or("kill-after", 0)?;

    let recovery = reader::recover_file(&torn).map_err(trace_err)?;
    let mut t = Table::new(format!("resume from {}", torn.display()), &["metric", "value"]);
    t.row(vec!["valid bytes".into(), format!("{}", recovery.valid_bytes)]);
    t.row(vec!["dropped bytes".into(), format!("{}", recovery.dropped_bytes)]);
    t.row(vec![
        "tail damage".into(),
        recovery.damage.as_ref().map_or("none".into(), |d| format!("[{}] {d}", d.name())),
    ]);
    if recovery.trace.finalized() {
        t.row(vec!["verdict".into(), "already finalized; nothing to resume".into()]);
        return Ok(t.render());
    }

    let header = recovery.trace.header.clone();
    let law = PowerLaw::new(header.alpha).map_err(sim_err)?;
    let trace_jobs = recovery.trace.jobs();

    // Resume point: the last checkpoint. Events up to and including it are
    // copied into the new trace verbatim (they are already validated);
    // everything after it is regenerated by re-offering the input, which
    // reproduces it bitwise.
    let (copy_until, restore) = match recovery.trace.last_checkpoint() {
        Some((idx, cp)) => (idx + 1, Some(cp.clone())),
        None => (0, None),
    };
    let skip = restore.as_ref().map_or(0, Checkpoint::ingested);
    t.row(vec!["resume from offer".into(), format!("{skip}")]);

    let mut rec = Recorder::create(&out, &header).map_err(trace_err)?;
    for event in &recovery.trace.events[..copy_until] {
        rec.append(event).map_err(trace_err)?;
    }

    let (mut source, _seed) = JobSource::from_args(args, "resume")?;
    let stream = match restore {
        Some(cp) => Stream::restore(cp).map_err(sim_err)?,
        None => fresh_stream(header.algorithm, law),
    };
    let end = drive(stream, &mut source, rec, skip, every, kill_after, &trace_jobs)?;
    t.row(vec!["jobs offered (total)".into(), format!("{}", end.offered())]);
    match end {
        RunEnd::Finalized(summary) => {
            t.row(vec!["finalized".into(), "yes".into()]);
            t.row(vec!["out".into(), out.display().to_string()]);
            t.row(vec!["energy".into(), fmt_f(summary.energy)]);
            t.row(vec!["frac flow".into(), fmt_f(summary.frac_flow)]);
            t.row(vec!["int flow".into(), fmt_f(summary.int_flow)]);
        }
        RunEnd::Killed(at) => {
            t.row(vec!["finalized".into(), format!("no (killed again after {at} offers)")]);
        }
    }
    Ok(t.render())
}

/// Entry point for `ncss replay`.
pub(crate) fn cmd_replay(args: &ParsedArgs) -> Result<String, String> {
    let path = trace_path(args)?;
    let audit = args.usize_or("audit", 0)? == 1;

    let frames = Frames::open(&path).map_err(trace_err)?;
    let header = frames.header().clone();
    let frames = frames.map(|f| f.map(|f| (f.index, f.event)));
    let report = replay_frames(&header, frames, audit).map_err(trace_err)?;

    let mut t = Table::new(format!("replay of {}", path.display()), &["metric", "value"]);
    let h = &report.header;
    t.row(vec!["algorithm".into(), h.algorithm.name().into()]);
    t.row(vec!["alpha".into(), fmt_f(h.alpha)]);
    t.row(vec!["seed".into(), format!("{}", h.seed)]);
    if !h.note.is_empty() {
        t.row(vec!["note".into(), h.note.clone()]);
    }
    t.row(vec!["jobs".into(), format!("{}", report.recorded.ingested)]);
    t.row(vec!["segments".into(), format!("{}", report.segments_verified)]);
    t.row(vec!["checkpoints verified".into(), format!("{}", report.checkpoints_verified)]);
    t.row(vec!["recorded == replayed".into(), "bitwise".into()]);
    t.row(vec!["energy".into(), fmt_f(report.recorded.energy)]);
    t.row(vec!["frac flow".into(), fmt_f(report.recorded.frac_flow)]);
    t.row(vec!["int flow".into(), fmt_f(report.recorded.int_flow)]);

    if let Some(other) = args.options.get("check-against") {
        check_equivalent(&path, Path::new(other))?;
        t.row(vec!["check-against".into(), format!("{other}: bitwise equal")]);
    }

    if audit {
        let inst = Instance::new(report.jobs.clone()).map_err(sim_err)?;
        let law = PowerLaw::new(h.alpha).map_err(sim_err)?;
        let mut builder = ScheduleBuilder::new(law);
        for seg in &report.segments {
            builder.push(*seg);
        }
        let schedule = builder.build().map_err(sim_err)?;
        let n = report.jobs.len();
        let mut per_job = PerJob {
            completion: vec![f64::NAN; n],
            frac_flow: vec![0.0; n],
            int_flow: vec![0.0; n],
        };
        for (id, completion, frac_flow, int_flow) in report.completions().map(|c| c.outcome()) {
            per_job.completion[id] = completion;
            per_job.frac_flow[id] = frac_flow;
            per_job.int_flow[id] = int_flow;
        }
        let objective = ncss_sim::Objective {
            energy: report.recorded.energy,
            frac_flow: report.recorded.frac_flow,
            int_flow: report.recorded.int_flow,
        };
        let reported = Evaluated { objective, per_job };
        let audit_report =
            ScheduleAudit::new(AuditConfig::default()).audit(&inst, &schedule, &reported);
        t.row(vec![
            "audit".into(),
            format!(
                "{} (max residual {:.1e})",
                if audit_report.passed() { "PASS" } else { "FAIL" },
                audit_report.max_residual()
            ),
        ]);
        if !audit_report.passed() {
            return Err(format!("{}replay audit FAILED:\n{}", t.render(), audit_report.render()));
        }
    }
    Ok(t.render())
}

/// Bitwise equivalence of two finalized traces, read frame by frame in
/// lockstep: the same algorithm and α, then the same release, completion
/// and summary frames in the same order, compared by their encoded bytes.
/// Used to prove a resumed run equals its uninterrupted twin. (Checkpoint
/// frames are *not* compared: heap layout may differ across a resume
/// boundary while remaining semantically identical — replay verifies each
/// trace's checkpoints on its own.)
fn check_equivalent(a: &Path, b: &Path) -> Result<(), String> {
    let fail = |what: String| Err(format!("traces differ: {what}"));
    let mut fa = Frames::open(a).map_err(trace_err)?;
    let mut fb = Frames::open(b).map_err(trace_err)?;
    let (ha, hb) = (fa.header(), fb.header());
    if ha.algorithm != hb.algorithm {
        return fail("algorithm".into());
    }
    if ha.alpha.to_bits() != hb.alpha.to_bits() {
        return fail("alpha".into());
    }
    let (mut xs, mut ys) = ((&mut fa).filter(compared), (&mut fb).filter(compared));
    let mut wire = format::WireEq::default();
    let mut i = 0;
    let (x, y) = loop {
        let x = xs.next().transpose().map_err(trace_err)?;
        let y = ys.next().transpose().map_err(trace_err)?;
        let (Some(fx), Some(fy)) = (&x, &y) else { break (x, y) };
        if !wire.same(&fx.event, &fy.event) {
            return fail(format!("event #{i}: {:?} vs {:?}", fx.event, fy.event));
        }
        i += 1;
    };
    let (na, nb) = (i + count(x, xs)?, i + count(y, ys)?);
    if !(fa.finalized() && fb.finalized()) {
        return Err(trace_err(TraceError::MissingSummary));
    }
    if na != nb {
        return fail(format!("event counts: {na} vs {nb}"));
    }
    Ok(())
}

/// The frames `--check-against` compares: releases, completions and the
/// summary.
fn compared(frame: &Result<Frame, TraceError>) -> bool {
    !matches!(
        frame,
        Ok(Frame { event: Event::Segment(_) | Event::Checkpoint(_) | Event::Audit(_), .. })
    )
}

/// The frame in hand, if any, plus every frame left in `rest`.
fn count(
    first: Option<Frame>,
    rest: impl Iterator<Item = Result<Frame, TraceError>>,
) -> Result<usize, String> {
    match first {
        None => Ok(0),
        Some(_) => rest.map(|f| f.map_err(trace_err)).try_fold(1, |n, f| f.map(|_| n + 1)),
    }
}

/// Entry point for `ncss tamper`.
pub(crate) fn cmd_tamper(args: &ParsedArgs) -> Result<String, String> {
    let path = trace_path(args)?;
    let out = out_path(args)?;
    let kind: tamper::Tamper = args.get_or("kind", "bit-flip").parse()?;
    let seed = args.usize_or("seed", 1)? as u64;
    let bytes = reader::read_raw(&path).map_err(trace_err)?;
    let corrupted = tamper::apply(&bytes, kind, seed)?;
    std::fs::write(&out, &corrupted)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(format!(
        "tampered {} -> {} ({}, seed {seed}, {} -> {} bytes)\n",
        path.display(),
        out.display(),
        kind.name(),
        bytes.len(),
        corrupted.len()
    ))
}

#[cfg(test)]
mod tests {
    use crate::run_cli;
    use ncss_trace::reader;
    use std::path::PathBuf;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("ncss_trace_cmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn record(out: &str, extra: &[&str]) -> String {
        let mut argv = v(&[
            "record", "--synthetic", "50", "--rate", "1.2", "--seed", "11", "--algorithm", "c",
            "--alpha", "2.5", "--checkpoint-every", "8", "--out", out,
        ]);
        argv.extend(extra.iter().map(|s| (*s).to_string()));
        run_cli(&argv).unwrap()
    }

    #[test]
    fn record_then_replay_roundtrips_bitwise() {
        let path = tmp("rt.nct");
        let out = record(&path, &[]);
        assert!(out.contains("finalized"), "{out}");
        let replay = run_cli(&v(&["replay", "--trace", &path, "--audit", "1"])).unwrap();
        assert!(replay.contains("recorded == replayed"), "{replay}");
        assert!(replay.contains("audit"), "{replay}");
        assert!(replay.contains("PASS"), "{replay}");
    }

    #[test]
    fn nc_record_replays_too() {
        let path = tmp("nc.nct");
        run_cli(&v(&[
            "record", "--synthetic", "30", "--seed", "5", "--algorithm", "nc", "--alpha", "3",
            "--checkpoint-every", "7", "--out", &path,
        ]))
        .unwrap();
        let replay = run_cli(&v(&["replay", "--trace", &path, "--audit", "1"])).unwrap();
        assert!(replay.contains("PASS"), "{replay}");
    }

    #[test]
    fn one_offer_retiring_thousands_of_segments_records_them_all() {
        // 5,000 tiny jobs at time 0, then one at 1000: offering the last
        // job retires all 5,000 of their segments at once, and finishing
        // retires its own.
        let input = tmp("burst.csv");
        let mut rows = String::from("release,volume,density\n");
        rows.push_str(&"0,0.001,1\n".repeat(5000));
        rows.push_str("1000,1,1\n");
        std::fs::write(&input, rows).unwrap();
        let path = tmp("burst.nct");
        let out = run_cli(&v(&[
            "record", "--algorithm", "c", "--alpha", "3", "--input", &input, "--out", &path,
        ]))
        .unwrap();
        assert!(out.contains("finalized") && out.contains("yes"), "{out}");
        let replay = run_cli(&v(&["replay", "--trace", &path, "--audit", "1"])).unwrap();
        let all = replay.lines().any(|l| l.contains("segments") && l.trim_end().ends_with(" 5001"));
        assert!(all, "{replay}");
        assert!(replay.contains("PASS"), "{replay}");
    }

    #[test]
    fn kill_resume_equals_uninterrupted_run() {
        let full = tmp("kr_full.nct");
        let torn = tmp("kr_torn.nct");
        let resumed = tmp("kr_resumed.nct");
        record(&full, &[]);
        let killed = record(&torn, &["--kill-after", "23", "--torn-bytes", "13"]);
        assert!(killed.contains("killed after 23 offers"), "{killed}");
        let res = run_cli(&v(&[
            "resume", "--trace", &torn, "--synthetic", "50", "--rate", "1.2", "--seed", "11",
            "--checkpoint-every", "8", "--out", &resumed,
        ]))
        .unwrap();
        assert!(res.contains("dropped bytes"), "{res}");
        assert!(res.contains("resume from offer"), "{res}");
        let replay = run_cli(&v(&[
            "replay", "--trace", &resumed, "--audit", "1", "--check-against", &full,
        ]))
        .unwrap();
        assert!(replay.contains("bitwise equal"), "{replay}");
    }

    #[test]
    fn nc_kill_resume_equals_uninterrupted_run() {
        let full = tmp("nc_kr_full.nct");
        let torn = tmp("nc_kr_torn.nct");
        let resumed = tmp("nc_kr_resumed.nct");
        record(&full, &["--algorithm", "nc"]);
        let killed =
            record(&torn, &["--algorithm", "nc", "--kill-after", "29", "--torn-bytes", "11"]);
        assert!(killed.contains("killed after 29 offers"), "{killed}");
        let res = run_cli(&v(&[
            "resume", "--trace", &torn, "--synthetic", "50", "--rate", "1.2", "--seed", "11",
            "--checkpoint-every", "8", "--out", &resumed,
        ]))
        .unwrap();
        let from_24 = res
            .lines()
            .any(|l| l.contains("resume from offer") && l.trim_end().ends_with(" 24"));
        assert!(from_24, "{res}");
        let replay = run_cli(&v(&[
            "replay", "--trace", &resumed, "--audit", "1", "--check-against", &full,
        ]))
        .unwrap();
        let nc = replay.lines().any(|l| l.contains("algorithm") && l.trim_end().ends_with(" nc"));
        assert!(nc, "{replay}");
        assert!(replay.contains("bitwise equal"), "{replay}");
    }

    #[test]
    fn resume_without_checkpoint_restarts_from_scratch() {
        let full = tmp("nc0_full.nct");
        let torn = tmp("nc0_torn.nct");
        let resumed = tmp("nc0_resumed.nct");
        record(&full, &[]);
        // Kill before the first checkpoint (every 8, kill after 3): the
        // torn trace holds releases but no checkpoint frame.
        record(&torn, &["--kill-after", "3"]);
        let res = run_cli(&v(&[
            "resume", "--trace", &torn, "--synthetic", "50", "--rate", "1.2", "--seed", "11",
            "--checkpoint-every", "8", "--out", &resumed,
        ]))
        .unwrap();
        let from_zero = res
            .lines()
            .any(|l| l.contains("resume from offer") && l.trim_end().ends_with(" 0"));
        assert!(from_zero, "{res}");
        run_cli(&v(&["replay", "--trace", &resumed, "--check-against", &full])).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_input() {
        let torn = tmp("mm_torn.nct");
        record(&torn, &["--kill-after", "23"]);
        // Different seed => different jobs => the skipped prefix disagrees.
        let err = run_cli(&v(&[
            "resume", "--trace", &torn, "--synthetic", "50", "--rate", "1.2", "--seed", "12",
            "--out", tmp("mm_out.nct").as_str(),
        ]))
        .unwrap_err();
        assert!(err.contains("input disagrees with trace"), "{err}");
    }

    #[test]
    fn resume_of_finalized_trace_is_a_noop() {
        let full = tmp("fin.nct");
        record(&full, &[]);
        let res = run_cli(&v(&[
            "resume", "--trace", &full, "--synthetic", "50", "--rate", "1.2", "--seed", "11",
            "--out", tmp("fin_out.nct").as_str(),
        ]))
        .unwrap();
        assert!(res.contains("already finalized"), "{res}");
    }

    #[test]
    fn every_tamper_kind_is_caught_by_name() {
        let clean = tmp("tk.nct");
        record(&clean, &[]);
        let cases = [
            ("bit-flip", &["CrcMismatch", "BadMagic"][..]),
            ("truncate", &["Truncated", "MissingSummary", "CrcMismatch"][..]),
            ("duplicate-frame", &["BadSequence", "TrailingFrame"][..]),
            ("reorder-frames", &["BadSequence"][..]),
            ("bad-length", &["BadLength"][..]),
            ("stale-version", &["UnsupportedVersion"][..]),
        ];
        for seed in 1..=5u64 {
            for (kind, names) in &cases {
                let bad = tmp(&format!("tk_{kind}_{seed}.nct"));
                run_cli(&v(&[
                    "tamper", "--trace", &clean, "--out", &bad, "--kind", kind, "--seed",
                    &seed.to_string(),
                ]))
                .unwrap();
                let err = run_cli(&v(&["replay", "--trace", &bad]))
                    .expect_err(&format!("{kind} seed {seed} must be detected"));
                assert!(
                    names.iter().any(|n| err.contains(&format!("[{n}]"))),
                    "{kind} seed {seed}: unexpected error {err}"
                );
            }
        }
    }

    #[test]
    fn torn_tail_is_recovered_not_fatal() {
        let torn = tmp("tt.nct");
        record(&torn, &["--kill-after", "23", "--torn-bytes", "7"]);
        // Strict replay refuses an unfinalized trace by name...
        let err = run_cli(&v(&["replay", "--trace", &torn])).unwrap_err();
        assert!(err.contains("[Truncated]") || err.contains("[MissingSummary]"), "{err}");
        // ...while recovery keeps the valid prefix and reports the tear.
        let rec = reader::recover_file(&PathBuf::from(&torn)).unwrap();
        assert_eq!(rec.dropped_bytes, 7);
        assert!(rec.damage.is_some());
        assert!(!rec.trace.finalized());
    }

    #[test]
    fn tamper_rejects_unknown_kind() {
        let clean = tmp("uk.nct");
        record(&clean, &[]);
        let err = run_cli(&v(&[
            "tamper", "--trace", &clean, "--out", tmp("uk_out.nct").as_str(), "--kind", "gamma-ray",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown tamper kind"), "{err}");
    }
}
