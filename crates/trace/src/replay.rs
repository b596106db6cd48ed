//! Deterministic replay: re-run a trace's releases and hold the recorded
//! run to bitwise account.
//!
//! A trace is *evidence* of a run; replay re-executes the releases through
//! the same streaming core ([`Stream`]) and compares every completion,
//! every retired segment, every checkpoint, and the final objectives
//! against the recorded frames with [`f64::to_bits`] equality — the same
//! bitwise contract the batch-vs-stream tests enforce. Completions and
//! segments are compared kind by kind, each in emission order, through the
//! wire codec, so `0.0` and `-0.0` differ.
//!
//! Replay is one pass over the frames, in [`replay_frames`]. The stream
//! runs on an unbounded spill ring drained after every offer, as `record`
//! runs it: a capped ring would drop the segments a lossy recording
//! dropped and replay that recording clean. Each replayed completion or
//! segment is compared with the next recorded frame of its kind as soon as
//! both exist, so what waits for a counterpart is at most one offer deep,
//! plus the finish tail, and memory stays bounded by the jobs active at
//! once. Collecting the jobs, segments and completions for an audit is
//! opt-in.
//!
//! Each checkpoint is compared whole with the replaying stream's own
//! state, through [`Checkpoint`]'s canonical form: live arena rows keyed
//! by job id, heap entries as a sorted set, and every scalar, NC's shadow
//! and tie state included. The form does not depend on memory layout,
//! which a resume may permute, and it leaves out only the spill ring's
//! contents and capacity. Both forms are walked as bits into buffers
//! reused across checkpoints; only when they differ are the labelled
//! forms built, to name the first field that differs. The checkpoint must
//! then also restore.
//!
//! Any disagreement is a named [`TraceError::ReplayDivergence`] — replay
//! never "mostly matches".

use crate::format::{Event, TraceHeader, TraceSummary, WireEq};
use crate::reader::TraceFile;
use crate::snapshot::{CanonicalEq, Checkpoint};
use crate::stream::{Completion, Stream};
use crate::TraceError;
use ncss_core::streaming::{CCompletion, NcCompletion, StreamConfig, StreamSummary};
use ncss_sim::{Job, PowerLaw, Segment};
use std::borrow::Borrow;
use std::collections::VecDeque;

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
    /// Released jobs in arrival order (collected runs only).
    pub jobs: Vec<Job>,
    /// Replayed schedule segments in retirement order (collected runs
    /// only).
    pub segments: Vec<Segment>,
    /// Replayed C completions (collected runs of a C trace only).
    pub completions_c: Vec<CCompletion>,
    /// Replayed NC completions (collected runs of an NC trace only).
    pub completions_nc: Vec<NcCompletion>,
    /// Segment frames verified, whether or not they were collected.
    pub segments_verified: usize,
    /// Checkpoints verified against the replaying stream's state.
    pub checkpoints_verified: usize,
}

impl ReplayReport {
    /// Every replayed completion, whichever core emitted it, in emission
    /// order.
    pub fn completions(&self) -> impl Iterator<Item = Completion> + '_ {
        let c = self.completions_c.iter().map(|&c| Completion::C(c));
        c.chain(self.completions_nc.iter().map(|&c| Completion::Nc(c)))
    }
}

fn diverged(what: String) -> TraceError {
    TraceError::ReplayDivergence { what }
}

/// Replay a finalized trace, verifying it bitwise along the way, and
/// collect its jobs, segments and completions.
pub fn replay(trace: &TraceFile) -> Result<ReplayReport, TraceError> {
    let frames = trace.events.iter().zip(1..).map(|(event, index)| Ok((index, event)));
    replay_frames(&trace.header, frames, true)
}

/// The replay loop: verify a trace's event frames, given in file order
/// with their frame indices (the header is frame 0), as they arrive.
/// A reader error ends the replay with that error. With `collect` the
/// report holds the jobs, segments and completions; without it, memory
/// stays bounded by the jobs active at once.
pub fn replay_frames<E: Borrow<Event>>(
    header: &TraceHeader,
    frames: impl IntoIterator<Item = Result<(usize, E), TraceError>>,
    collect: bool,
) -> Result<ReplayReport, TraceError> {
    let law = PowerLaw::new(header.alpha)?;
    let mut stream = Stream::new(header.algorithm, law, StreamConfig::batch());
    let mut run = Run::new(collect);
    let mut summary = None;
    let mut released = 0;
    let mut checkpoints_verified = 0;
    let mut canonical = CanonicalEq::default();

    for frame in frames {
        let (index, event) = frame?;
        match event.borrow() {
            Event::Release { job, .. } => {
                run.offer(&mut stream, *job)?;
                released += 1;
            }
            e @ Event::Segment(_) => run.segments.recorded(e)?,
            e @ (Event::CompleteC { .. } | Event::CompleteNc { .. }) => {
                run.completions.recorded(e)?;
            }
            Event::Checkpoint(cp) => {
                verify_checkpoint(index, cp, &stream, released, &mut canonical)?;
                checkpoints_verified += 1;
            }
            Event::Audit(_) => {}
            Event::Summary(s) => summary = Some(*s),
        }
    }
    let Some(recorded) = summary else {
        return Err(TraceError::MissingSummary);
    };
    let replayed = run.finish(&mut stream)?;
    verify_summary(recorded, &replayed, released)?;
    Ok(ReplayReport {
        header: header.clone(),
        recorded,
        replayed,
        jobs: run.jobs,
        segments_verified: run.segments.matched,
        segments: run.collected_segments,
        completions_c: run.completions_c,
        completions_nc: run.completions_nc,
        checkpoints_verified,
    })
}

/// The replayed side of a run: what each stream step emitted, compared
/// with the recorded frames as it arrives, and collected when asked.
struct Run {
    collect: bool,
    /// Completions of the step in hand, in emission order.
    done: Vec<Completion>,
    completions: Pending,
    segments: Pending,
    jobs: Vec<Job>,
    collected_segments: Vec<Segment>,
    completions_c: Vec<CCompletion>,
    completions_nc: Vec<NcCompletion>,
}

impl Run {
    fn new(collect: bool) -> Self {
        Self {
            collect,
            done: Vec::new(),
            completions: Pending::new("completion"),
            segments: Pending::new("segment"),
            jobs: Vec::new(),
            collected_segments: Vec::new(),
            completions_c: Vec::new(),
            completions_nc: Vec::new(),
        }
    }

    fn offer(&mut self, stream: &mut Stream, job: Job) -> Result<(), TraceError> {
        stream.offer(job, &mut |c| self.done.push(c))?;
        if self.collect {
            self.jobs.push(job);
        }
        self.settle(stream)
    }

    /// Finish the stream, compare its tail, and require every frame to
    /// have met its counterpart.
    fn finish(&mut self, stream: &mut Stream) -> Result<StreamSummary, TraceError> {
        let summary = stream.finish(&mut |c| self.done.push(c))?;
        self.settle(stream)?;
        self.completions.finish()?;
        self.segments.finish()?;
        Ok(summary)
    }

    /// Compare what the last stream step emitted — its completions, then
    /// the segments it retired — and drain the ring.
    fn settle(&mut self, stream: &mut Stream) -> Result<(), TraceError> {
        for c in self.done.drain(..) {
            self.completions.replayed(c.event())?;
            if self.collect {
                match c {
                    Completion::C(c) => self.completions_c.push(c),
                    Completion::Nc(c) => self.completions_nc.push(c),
                }
            }
        }
        for seg in stream.spill_mut().drain() {
            self.segments.replayed(Event::Segment(seg))?;
            if self.collect {
                self.collected_segments.push(seg);
            }
        }
        Ok(())
    }
}

/// Frames of one kind — completions or segments — waiting for their
/// counterpart: recorded frames the replay has not produced yet, or
/// replayed ones the trace has not shown yet. Each arrival is compared
/// with the oldest frame waiting on the other side, so at most one side
/// waits.
struct Pending {
    what: &'static str,
    waiting: VecDeque<Event>,
    /// Whether `waiting` holds recorded frames (else replayed ones).
    recorded_waits: bool,
    /// Pairs compared so far.
    matched: usize,
    wire: WireEq,
}

impl Pending {
    fn new(what: &'static str) -> Self {
        let wire = WireEq::default();
        Self { what, waiting: VecDeque::new(), recorded_waits: false, matched: 0, wire }
    }

    fn recorded(&mut self, event: &Event) -> Result<(), TraceError> {
        self.arrive(true, event.clone())
    }

    fn replayed(&mut self, event: Event) -> Result<(), TraceError> {
        self.arrive(false, event)
    }

    fn arrive(&mut self, recorded: bool, event: Event) -> Result<(), TraceError> {
        if self.waiting.is_empty() || self.recorded_waits == recorded {
            self.recorded_waits = recorded;
            self.waiting.push_back(event);
            return Ok(());
        }
        let other = self.waiting.pop_front().expect("the other side waits");
        let (rec, rep) = if recorded { (&event, &other) } else { (&other, &event) };
        if !self.wire.same(rec, rep) {
            return Err(diverged(format!(
                "{} #{}: recorded {rec:?} vs replayed {rep:?}",
                self.what, self.matched
            )));
        }
        self.matched += 1;
        Ok(())
    }

    /// Every frame must have met its counterpart.
    fn finish(&self) -> Result<(), TraceError> {
        let (mut recorded, mut replayed) = (self.matched, self.matched);
        if self.recorded_waits {
            recorded += self.waiting.len();
        } else {
            replayed += self.waiting.len();
        }
        if recorded == replayed {
            return Ok(());
        }
        Err(diverged(format!("{} count: recorded {recorded} vs replayed {replayed}", self.what)))
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
        if r.to_bits() != p.to_bits() {
            return Err(diverged(format!("summary.{name}: recorded {r:?} vs replayed {p:?}")));
        }
    }
    Ok(())
}

/// Compare checkpoint frame `frame` whole with the replaying stream's
/// state, then prove it restores.
fn verify_checkpoint(
    frame: usize,
    cp: &Checkpoint,
    stream: &Stream,
    releases: usize,
    canonical: &mut CanonicalEq,
) -> Result<(), TraceError> {
    let at = || format!("checkpoint at frame {frame}, after {releases} releases");
    let mine = stream.checkpoint();
    if cp.algo() != mine.algo() {
        // The reader already enforces algorithm agreement; defend anyway.
        return Err(diverged(format!(
            "{}: {} checkpoint in a {} trace",
            at(),
            cp.algo().name(),
            mine.algo().name()
        )));
    }
    if !canonical.same(cp, &mine) {
        let (recorded, replayed) = (cp.canonical(), mine.canonical());
        let what = match recorded.iter().zip(&replayed).find(|(r, p)| r != p) {
            Some((r, p)) => format!("recorded {r} vs replayed {p}"),
            None => format!("{} recorded values vs {} replayed", recorded.len(), replayed.len()),
        };
        return Err(diverged(format!("{}: {what}", at())));
    }
    Stream::restore(cp.clone())
        .map_err(|e| TraceError::BadCheckpoint { frame, what: e.to_string() })?;
    Ok(())
}
