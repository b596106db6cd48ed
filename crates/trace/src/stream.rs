//! One stream type over both streaming cores.
//!
//! The paper defines Algorithm NC through Algorithm C, and this crate runs
//! both as online streams behind the same WAL, replay, and live audit.
//! [`Stream`] chooses the core once, by [`Algo`], so every loop above the
//! cores — `record`/`resume`, [`crate::replay()`], the CLI's `stream`, and
//! `perf_stream`'s gate, audited soak and record rows — is written once.
//! [`Completion`] is the matching completion event;
//! [`crate::Recorder::record_offer`] owns the WAL order of one offer.

use crate::format::{Algo, Event};
use crate::snapshot::Checkpoint;
use ncss_core::streaming::{
    CCompletion, CStream, NcCompletion, NcStream, StreamConfig, StreamStats, StreamSummary,
};
use ncss_sim::{Job, JobId, PowerLaw, SimResult, SpillRing};

/// A streaming core chosen at run time: Algorithm C or Algorithm NC.
///
/// Every method forwards to the chosen core, so a run through `Stream`
/// has the same bits as the same run through [`CStream`] / [`NcStream`].
// A run holds one `Stream`, so unboxed variants cost a few hundred bytes of
// stack once, against a pointer chase on every offer.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Stream {
    /// Clairvoyant Algorithm C.
    C(CStream),
    /// Non-clairvoyant Algorithm NC (uniform densities).
    Nc(NcStream),
}

/// A completion emitted by a [`Stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completion {
    /// Emitted by Algorithm C.
    C(CCompletion),
    /// Emitted by Algorithm NC.
    Nc(NcCompletion),
}

impl Completion {
    /// `(id, completion, frac_flow, int_flow)`: what both cores report per
    /// job, and what [`ncss_audit::IncrementalAudit::on_complete`] checks.
    #[must_use]
    pub fn outcome(&self) -> (JobId, f64, f64, f64) {
        match self {
            Completion::C(c) => (c.id, c.completion, c.frac_flow, c.int_flow),
            Completion::Nc(c) => (c.id, c.completion, c.frac_flow, c.int_flow),
        }
    }

    /// The `CompleteC` / `CompleteNc` frame that records this completion.
    #[must_use]
    pub fn event(&self) -> Event {
        match *self {
            Completion::C(c) => Event::CompleteC {
                id: c.id as u64,
                completion: c.completion,
                frac_flow: c.frac_flow,
                int_flow: c.int_flow,
            },
            Completion::Nc(c) => Event::CompleteNc {
                id: c.id as u64,
                base_power: c.base_power,
                start: c.start,
                completion: c.completion,
                frac_flow: c.frac_flow,
                int_flow: c.int_flow,
            },
        }
    }
}

impl Stream {
    /// A fresh stream running `algo` under `law`.
    #[must_use]
    pub fn new(algo: Algo, law: PowerLaw, config: StreamConfig) -> Self {
        match algo {
            Algo::C => Stream::C(CStream::new(law, config)),
            Algo::Nc => Stream::Nc(NcStream::new(law, config)),
        }
    }

    /// Rebuild the stream a checkpoint was taken from.
    pub fn restore(checkpoint: Checkpoint) -> SimResult<Self> {
        match checkpoint {
            Checkpoint::C(s) => CStream::from_snapshot(s).map(Stream::C),
            Checkpoint::Nc(s) => NcStream::from_snapshot(s).map(Stream::Nc),
        }
    }

    /// The full stream state, as a checkpoint frame carries it.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        match self {
            Stream::C(s) => Checkpoint::C(s.snapshot()),
            Stream::Nc(s) => Checkpoint::Nc(s.snapshot()),
        }
    }

    /// Offer the next released job; completions the offer emits go to
    /// `sink`. Returns the job's arrival index.
    pub fn offer<F>(&mut self, job: Job, sink: &mut F) -> SimResult<JobId>
    where
        F: FnMut(Completion) + ?Sized,
    {
        match self {
            Stream::C(s) => s.offer(job, &mut |c| sink(Completion::C(c))),
            Stream::Nc(s) => s.offer(job, &mut |c| sink(Completion::Nc(c))),
        }
    }

    /// Run every remaining job to completion; completions go to `sink`
    /// (NC emits each one at its offer, so it has none left here).
    pub fn finish<F>(&mut self, sink: &mut F) -> SimResult<StreamSummary>
    where
        F: FnMut(Completion) + ?Sized,
    {
        match self {
            Stream::C(s) => s.finish(&mut |c| sink(Completion::C(c))),
            Stream::Nc(s) => s.finish(),
        }
    }

    /// The spill ring of retired segments, for draining.
    pub fn spill_mut(&mut self) -> &mut SpillRing {
        match self {
            Stream::C(s) => s.spill_mut(),
            Stream::Nc(s) => s.spill_mut(),
        }
    }

    /// Resident-memory counters.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        match self {
            Stream::C(s) => s.stats(),
            Stream::Nc(s) => s.stats(),
        }
    }
}
