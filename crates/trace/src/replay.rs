//! Deterministic replay: re-run a trace's releases and hold the recorded
//! run to bitwise account.
//!
//! A trace is *evidence* of a run; replay re-executes the releases through
//! the same streaming core ([`Stream`]) and compares every completion,
//! every retired segment, and the final objectives against the recorded
//! frames with [`f64::to_bits`] equality — the same bitwise contract the
//! batch-vs-stream tests enforce. Completions and segments are compared
//! kind by kind, each in emission order, through the wire codec, so `0.0`
//! and `-0.0` differ. Checkpoints are verified in passing: the replaying
//! stream's state must agree with each recorded checkpoint on every
//! layout-independent field, and the checkpoint must actually restore
//! (heap *layout* may legitimately differ between a resumed recording and
//! an uninterrupted replay, so raw snapshot bytes are deliberately not
//! compared).
//!
//! Any disagreement is a named [`TraceError::ReplayDivergence`] — replay
//! never "mostly matches".

use crate::format::{put_event, Event, TraceHeader, TraceSummary};
use crate::reader::TraceFile;
use crate::snapshot::Checkpoint;
use crate::stream::{Completion, Stream};
use crate::TraceError;
use ncss_core::streaming::{CCompletion, NcCompletion, StreamConfig, StreamSummary};
use ncss_sim::{Job, PowerLaw, Segment};

/// Everything a verified replay produced — enough for a downstream audit
/// (jobs + segments rebuild the schedule, completions give per-job flows).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The trace's provenance header.
    pub header: TraceHeader,
    /// The recorded final tally.
    pub recorded: TraceSummary,
    /// The replayed final tally (bitwise-equal objectives to `recorded`).
    pub replayed: StreamSummary,
    /// Released jobs in arrival order.
    pub jobs: Vec<Job>,
    /// Replayed schedule segments in retirement order.
    pub segments: Vec<Segment>,
    /// Replayed C completions (empty for an NC trace).
    pub completions_c: Vec<CCompletion>,
    /// Replayed NC completions (empty for a C trace).
    pub completions_nc: Vec<NcCompletion>,
    /// Checkpoints verified against the replaying stream's state.
    pub checkpoints_verified: usize,
}

fn diverged(what: String) -> TraceError {
    TraceError::ReplayDivergence { what }
}

fn check_bits(
    what: impl FnOnce() -> String,
    recorded: f64,
    replayed: f64,
) -> Result<(), TraceError> {
    if recorded.to_bits() == replayed.to_bits() {
        Ok(())
    } else {
        Err(diverged(format!("{}: recorded {recorded:?} vs replayed {replayed:?}", what())))
    }
}

fn check_count(what: &str, recorded: usize, replayed: usize) -> Result<(), TraceError> {
    if recorded == replayed {
        Ok(())
    } else {
        Err(diverged(format!("{what} count: recorded {recorded} vs replayed {replayed}")))
    }
}

/// Replay a finalized trace, verifying it bitwise along the way.
pub fn replay(trace: &TraceFile) -> Result<ReplayReport, TraceError> {
    let Some(recorded) = trace.summary() else {
        return Err(TraceError::MissingSummary);
    };
    let law = PowerLaw::new(trace.header.alpha)?;
    let mut stream = Stream::new(trace.header.algorithm, law, StreamConfig::batch());
    let mut jobs = Vec::new();
    let mut completions_c = Vec::new();
    let mut completions_nc = Vec::new();
    let mut sink = |c| match c {
        Completion::C(c) => completions_c.push(c),
        Completion::Nc(c) => completions_nc.push(c),
    };
    let (mut recorded_completions, mut recorded_segments) = (0, 0);
    let mut checkpoints_verified = 0;

    for event in &trace.events {
        match event {
            Event::Release { job, .. } => {
                stream.offer(*job, &mut sink)?;
                jobs.push(*job);
            }
            Event::Segment(_) => recorded_segments += 1,
            e if is_completion(e) => recorded_completions += 1,
            Event::Checkpoint(cp) => {
                verify_checkpoint(cp, &stream, jobs.len())?;
                checkpoints_verified += 1;
            }
            _ => {}
        }
    }
    let replayed = stream.finish(&mut sink)?;
    let report = ReplayReport {
        header: trace.header.clone(),
        recorded,
        replayed,
        segments: stream.spill_mut().drain().collect(),
        jobs,
        completions_c,
        completions_nc,
        checkpoints_verified,
    };

    // Kind by kind: the n-th recorded completion (segment) frame against
    // the n-th replayed one, whatever the frames' interleaving.
    let mut scratch = [Vec::new(), Vec::new()];
    let replayed_completions = report.completions_c.len() + report.completions_nc.len();
    check_count("completion", recorded_completions, replayed_completions)?;
    let frames = trace.events.iter().filter(|e| is_completion(e));
    for (i, (frame, c)) in frames.zip(report.completions()).enumerate() {
        check_frame(&mut scratch, || format!("completion #{i}"), frame, &c.event())?;
    }
    check_count("segment", recorded_segments, report.segments.len())?;
    let frames = trace.events.iter().filter(|e| matches!(e, Event::Segment(_)));
    for (i, (frame, seg)) in frames.zip(&report.segments).enumerate() {
        check_frame(&mut scratch, || format!("segment #{i}"), frame, &Event::Segment(*seg))?;
    }
    verify_summary(recorded, &report.replayed, report.jobs.len())?;
    Ok(report)
}

impl ReplayReport {
    /// Every replayed completion, whichever core emitted it, in emission
    /// order.
    pub fn completions(&self) -> impl Iterator<Item = Completion> + '_ {
        let c = self.completions_c.iter().map(|&c| Completion::C(c));
        c.chain(self.completions_nc.iter().map(|&c| Completion::Nc(c)))
    }
}

fn is_completion(e: &Event) -> bool {
    matches!(e, Event::CompleteC { .. } | Event::CompleteNc { .. })
}

/// Require two frames to encode to the same kind and bytes — every field
/// equal by `to_bits`.
fn check_frame(
    scratch: &mut [Vec<u8>; 2],
    what: impl FnOnce() -> String,
    recorded: &Event,
    replayed: &Event,
) -> Result<(), TraceError> {
    let [a, b] = scratch;
    a.clear();
    b.clear();
    if put_event(a, recorded) == put_event(b, replayed) && a == b {
        Ok(())
    } else {
        Err(diverged(format!("{}: recorded {recorded:?} vs replayed {replayed:?}", what())))
    }
}

fn verify_summary(
    recorded: TraceSummary,
    replayed: &StreamSummary,
    jobs: usize,
) -> Result<(), TraceError> {
    if recorded.ingested != jobs as u64 || recorded.completed != replayed.completed as u64 {
        return Err(diverged(format!(
            "summary counts: recorded {}/{} vs replayed {}/{}",
            recorded.ingested, recorded.completed, jobs, replayed.completed
        )));
    }
    let o = &replayed.objective;
    for (name, r, p) in [
        ("makespan", recorded.makespan, replayed.makespan),
        ("energy", recorded.energy, o.energy),
        ("frac_flow", recorded.frac_flow, o.frac_flow),
        ("int_flow", recorded.int_flow, o.int_flow),
    ] {
        check_bits(|| format!("summary.{name}"), r, p)?;
    }
    Ok(())
}

/// A checkpoint's layout-independent state: five accumulators and one
/// count, by name.
fn scalars(cp: &Checkpoint) -> ([(&'static str, f64); 5], (&'static str, usize)) {
    match cp {
        Checkpoint::C(s) => (
            [
                ("t", s.t),
                ("total_w", s.total_w),
                ("energy", s.energy),
                ("frac_done", s.frac_done),
                ("int_done", s.int_done),
            ],
            ("completed", s.completed),
        ),
        Checkpoint::Nc(s) => (
            [
                ("t_free", s.t_free),
                ("energy", s.energy),
                ("frac_sum", s.frac_sum),
                ("int_sum", s.int_sum),
                ("makespan", s.makespan),
            ],
            ("ingested", s.ingested),
        ),
    }
}

fn verify_checkpoint(cp: &Checkpoint, stream: &Stream, releases: usize) -> Result<(), TraceError> {
    let at = format!("checkpoint after {releases} releases");
    let mine = stream.checkpoint();
    if cp.algo() != mine.algo() {
        // The reader already enforces algorithm agreement; defend anyway.
        return Err(diverged(format!(
            "{at}: {} checkpoint in a {} trace",
            cp.algo().name(),
            mine.algo().name()
        )));
    }
    let ((recorded, (count, n)), (replayed, (_, m))) = (scalars(cp), scalars(&mine));
    for ((name, r), (_, p)) in recorded.into_iter().zip(replayed) {
        check_bits(|| format!("{at}: {name}"), r, p)?;
    }
    if n != m {
        return Err(diverged(format!("{at}: {count} {n} vs {m}")));
    }
    // Prove the recorded checkpoint is actually restorable.
    Stream::restore(cp.clone())
        .map_err(|e| TraceError::BadCheckpoint { frame: 0, what: e.to_string() })?;
    Ok(())
}
