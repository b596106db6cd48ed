//! WAL-style appending writer for `.nct` traces.
//!
//! A [`Recorder`] writes the magic and header up front, then appends one
//! CRC-framed event at a time, assigning the strictly sequential `seq`
//! numbers the reader later enforces. Appends go through a [`Write`] sink
//! (a `BufWriter<File>` for real recordings, a `Vec<u8>` in tests), so a
//! crash mid-append leaves at most one torn frame at the tail — exactly the
//! damage [`crate::reader::recover_bytes`] is specified to truncate away.
//!
//! [`Recorder::record_offer`] and [`Recorder::record_finish`] drive a
//! [`Stream`] and append what each step produced in the one WAL order every
//! recording uses. [`Recorder::finalize`] appends the [`TraceSummary`]
//! frame and flushes; a trace without a terminal summary is *unfinalized*
//! and is rejected by strict reads (the replay gate) while remaining
//! recoverable for resume.

use crate::format::{encode_event, encode_frame, encode_header, kind, Event, TraceHeader, TraceSummary, MAGIC};
use crate::stream::{Completion, Stream};
use crate::TraceError;
use ncss_sim::{Job, SimResult};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Appending trace writer. See the module docs for the durability contract.
#[derive(Debug)]
pub struct Recorder<W: Write> {
    sink: W,
    seq: u64,
    bytes: u64,
    finalized: bool,
}

impl Recorder<BufWriter<File>> {
    /// Create (truncate) `path` and write the magic + header.
    pub fn create(path: &Path, header: &TraceHeader) -> Result<Self, TraceError> {
        let file = File::create(path)
            .map_err(|e| TraceError::Io { detail: format!("{}: {e}", path.display()) })?;
        Self::new(BufWriter::new(file), header)
    }
}

impl<W: Write> Recorder<W> {
    /// Wrap `sink`, writing the magic and the header frame immediately.
    pub fn new(mut sink: W, header: &TraceHeader) -> Result<Self, TraceError> {
        let mut bytes = 0u64;
        sink.write_all(&MAGIC)?;
        bytes += MAGIC.len() as u64;
        let frame = encode_frame(kind::HEADER, &encode_header(header));
        sink.write_all(&frame)?;
        bytes += frame.len() as u64;
        Ok(Self { sink, seq: 0, bytes, finalized: false })
    }

    /// Append one event frame; returns the `seq` it was assigned.
    ///
    /// [`Event::Summary`] finalizes the trace (prefer [`Recorder::finalize`],
    /// which also flushes); any append after that is a [`TraceError::Misuse`].
    pub fn append(&mut self, event: &Event) -> Result<u64, TraceError> {
        if self.finalized {
            return Err(TraceError::Misuse { what: "append after summary frame" });
        }
        let seq = self.seq;
        let (frame_kind, payload) = encode_event(seq, event);
        let frame = encode_frame(frame_kind, &payload);
        self.sink.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        self.seq += 1;
        if matches!(event, Event::Summary(_)) {
            self.finalized = true;
        }
        Ok(seq)
    }

    /// Offer `job` to `stream` and log the offer: its release frame, then
    /// the completions the offer emitted, then the segments it retired.
    /// The release id is the stream's arrival index.
    pub fn record_offer(&mut self, stream: &mut Stream, job: Job) -> Result<(), TraceError> {
        let id = stream.stats().ingested as u64;
        self.append(&Event::Release { id, job })?;
        self.record_step(stream, |s, sink| s.offer(job, sink).map(drop))
    }

    /// Finish `stream` and log what finishing retired, as
    /// [`Recorder::record_offer`] does; returns the tally to
    /// [`Recorder::finalize`] with.
    pub fn record_finish(&mut self, stream: &mut Stream) -> Result<TraceSummary, TraceError> {
        let summary = self.record_step(stream, |s, sink| s.finish(sink))?;
        Ok(TraceSummary {
            ingested: stream.stats().ingested as u64,
            completed: summary.completed as u64,
            makespan: summary.makespan,
            energy: summary.objective.energy,
            frac_flow: summary.objective.frac_flow,
            int_flow: summary.objective.int_flow,
        })
    }

    /// The WAL order of one stream step, written once for every recording:
    /// each completion the step emits, appended as it is emitted, then
    /// every segment the step retired.
    fn record_step<T>(
        &mut self,
        stream: &mut Stream,
        step: impl FnOnce(&mut Stream, &mut dyn FnMut(Completion)) -> SimResult<T>,
    ) -> Result<T, TraceError> {
        let mut appended = Ok(());
        let out = step(stream, &mut |c| {
            if appended.is_ok() {
                appended = self.append(&c.event()).map(drop);
            }
        });
        appended?;
        let out = out?;
        for seg in stream.spill_mut().drain() {
            self.append(&Event::Segment(seg))?;
        }
        Ok(out)
    }

    /// Append the terminal summary frame, flush, and return the sink.
    pub fn finalize(mut self, summary: &TraceSummary) -> Result<W, TraceError> {
        self.append(&Event::Summary(*summary))?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Flush buffered frames to the sink (a checkpoint's durability point).
    pub fn flush(&mut self) -> Result<(), TraceError> {
        self.sink.flush()?;
        Ok(())
    }

    /// Bytes written so far (magic + all frames).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Next sequence number to be assigned.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Whether the summary frame has been written.
    #[must_use]
    pub fn finalized(&self) -> bool {
        self.finalized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Algo;
    use ncss_sim::Job;

    fn header() -> TraceHeader {
        TraceHeader::new(Algo::C, 2.0, 7, "test")
    }

    fn summary() -> TraceSummary {
        TraceSummary {
            ingested: 1,
            completed: 1,
            makespan: 1.0,
            energy: 1.0,
            frac_flow: 0.5,
            int_flow: 1.0,
        }
    }

    #[test]
    fn assigns_sequential_seq_numbers() {
        let mut rec = Recorder::new(Vec::new(), &header()).unwrap();
        for i in 0..5u64 {
            let seq = rec
                .append(&Event::Release { id: i, job: Job::unit_density(i as f64, 1.0) })
                .unwrap();
            assert_eq!(seq, i);
        }
        assert_eq!(rec.next_seq(), 5);
    }

    #[test]
    fn append_after_finalize_is_a_misuse_error() {
        let mut rec = Recorder::new(Vec::new(), &header()).unwrap();
        rec.append(&Event::Summary(summary())).unwrap();
        assert!(rec.finalized());
        let err = rec
            .append(&Event::Release { id: 0, job: Job::unit_density(0.0, 1.0) })
            .unwrap_err();
        assert!(matches!(err, TraceError::Misuse { .. }), "got {err:?}");
    }

    #[test]
    fn bytes_written_matches_sink_length() {
        let mut rec = Recorder::new(Vec::new(), &header()).unwrap();
        rec.append(&Event::Release { id: 0, job: Job::unit_density(0.0, 1.0) }).unwrap();
        let expected = rec.bytes_written();
        let sink = rec.finalize(&summary()).unwrap();
        assert!(sink.len() as u64 > expected, "summary frame not counted");
    }
}
