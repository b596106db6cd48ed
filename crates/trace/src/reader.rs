//! Validating trace readers: one streaming frame reader, collected by a
//! strict read and a torn-write recovery.
//!
//! [`Frames`] reads a trace from any [`BufRead`] one frame at a time: it
//! checks the frame's length and CRC, decodes it, and validates it against
//! the frames before it, holding only the frame in hand and the jobs that
//! are released but not yet completed. Its memory is therefore bounded by
//! the jobs active at once, not by the length of the trace, and
//! `ncss replay` runs on it directly. The first fault in file order ends
//! the iteration as a named [`TraceError`].
//!
//! Two collectors build a [`TraceFile`] from it, with deliberately
//! different contracts:
//!
//! * **Strict** ([`read_bytes`] / [`read_file`]) — the replay/CI gate. Any
//!   byte-level damage, any semantic violation, and any missing terminal
//!   summary frame is a hard [`TraceError`]. Golden traces must pass this.
//! * **Recovery** ([`recover_bytes`] / [`recover_file`]) — the resume path.
//!   Byte-level damage (torn append, partial flush) ends the trace at its
//!   longest valid frame prefix and reports what was dropped in a
//!   [`Recovery`]; the surviving prefix is still validated *semantically*
//!   in full, because a CRC-valid but semantically inconsistent prefix is
//!   tampering, not tearing, and must not be silently resumed.
//!
//! Validation enforced on every accepted frame sequence: exactly one header
//! (first), strictly sequential `seq`, sequential release ids with
//! non-decreasing release times, completions referencing released-and-not-
//! yet-completed jobs after their release time, chronological segments,
//! checkpoints whose ingest count matches the releases seen, at most one
//! summary (last, with matching counts), and finite floats everywhere.
//! What a checkpoint *holds* is checked by replay, which compares it whole
//! with the replaying stream's own state.

use crate::crc::crc32;
use crate::format::{
    decode_event, decode_header, kind, law_parts, Algo, Event, TraceHeader, TraceSummary, MAGIC,
    MAX_FRAME_LEN, VERSION,
};
use crate::snapshot::Checkpoint;
use crate::{TraceError, FILE_BUFFER_BYTES};
use ncss_sim::Job;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind};
use std::path::Path;

/// One CRC-checked, decoded and validated frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Index in file order; the header is frame 0.
    pub index: usize,
    /// Byte offset of the frame's kind byte in the file.
    pub offset: u64,
    /// The decoded event.
    pub event: Event,
}

/// The streaming frame reader (see the module docs).
///
/// [`Frames::new`] reads the magic and the header frame; iteration then
/// yields the event frames in file order. The iterator ends after the last
/// frame, or after the first error it yields.
#[derive(Debug)]
pub struct Frames<R> {
    src: R,
    header: TraceHeader,
    /// The frame in hand: kind, length, payload and CRC.
    buf: Vec<u8>,
    /// Byte offset of the next frame (magic plus every intact frame).
    offset: u64,
    /// Index of the next frame.
    index: usize,
    check: Validator,
    done: bool,
    torn: bool,
}

impl Frames<BufReader<File>> {
    /// Open a trace file and read its magic and header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path).map_err(|e| io_error(path, &e))?;
        Frames::new(BufReader::with_capacity(FILE_BUFFER_BYTES, file))
    }
}

impl<R: BufRead> Frames<R> {
    /// Read the magic and the header frame from `src`.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut magic = Vec::with_capacity(MAGIC.len());
        read_upto(&mut src, &mut magic, MAGIC.len())?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut buf = Vec::new();
        let offset = MAGIC.len() as u64;
        let payload = match read_frame(&mut src, &mut buf, offset)? {
            Some((kind::HEADER, payload)) => payload,
            _ => return Err(TraceError::MissingHeader),
        };
        let header =
            decode_header(payload).map_err(|what| TraceError::Malformed { offset, what })?;
        if header.version != VERSION {
            return Err(TraceError::UnsupportedVersion { found: header.version });
        }
        check_finite(&[header.alpha], 0, "header.alpha")?;
        let offset = offset + buf.len() as u64;
        let check = Validator::new(header.algorithm);
        Ok(Self { src, header, buf, offset, index: 1, check, done: false, torn: false })
    }

    /// The trace's provenance header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Bytes of the magic and of every frame read intact so far.
    #[must_use]
    pub fn valid_bytes(&self) -> u64 {
        self.offset
    }

    /// Whether the terminal summary frame has been read.
    #[must_use]
    pub fn finalized(&self) -> bool {
        self.check.finalized
    }

    /// Whether reading stopped at byte-level damage — a torn or corrupt
    /// frame — rather than at a semantic fault or the end of the file.
    #[must_use]
    pub fn torn(&self) -> bool {
        self.torn
    }

    fn next_frame(&mut self) -> Result<Option<Frame>, TraceError> {
        let offset = self.offset;
        let read = read_frame(&mut self.src, &mut self.buf, offset);
        self.torn = matches!(&read, Err(e) if !matches!(e, TraceError::Io { .. }));
        let Some((frame_kind, payload)) = read? else {
            return Ok(None);
        };
        let index = self.index;
        let event = self.check.check(index, offset, frame_kind, payload)?;
        self.offset += self.buf.len() as u64;
        self.index += 1;
        Ok(Some(Frame { index, offset, event }))
    }
}

impl<R: BufRead> Iterator for Frames<R> {
    type Item = Result<Frame, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let next = self.next_frame().transpose();
        self.done = !matches!(next, Some(Ok(_)));
        next
    }
}

fn io_error(path: &Path, e: &std::io::Error) -> TraceError {
    TraceError::Io { detail: format!("{}: {e}", path.display()) }
}

/// Append up to `n` bytes of `src` to `out`; returns how many arrived
/// before the end of the input. Grows `out` only by bytes actually read,
/// so a hostile length cannot drive an allocation.
fn read_upto(src: &mut impl BufRead, out: &mut Vec<u8>, n: usize) -> Result<usize, TraceError> {
    let mut got = 0;
    while got < n {
        let avail = match src.fill_buf() {
            Ok(avail) => avail,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if avail.is_empty() {
            break;
        }
        let take = avail.len().min(n - got);
        out.extend_from_slice(&avail[..take]);
        src.consume(take);
        got += take;
    }
    Ok(got)
}

/// Read the frame at `offset` into `buf` and return its kind and payload,
/// or `None` at a clean end of input. Byte-level checks only: length
/// bound, truncation, CRC, then kind, in that order.
fn read_frame<'b>(
    src: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    offset: u64,
) -> Result<Option<(u8, &'b [u8])>, TraceError> {
    buf.clear();
    let got = read_upto(src, buf, 5)?;
    if got == 0 {
        return Ok(None);
    }
    if got < 5 {
        return Err(TraceError::Truncated { offset, missing: (5 - got) as u64 });
    }
    let frame_kind = buf[0];
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]);
    if len > MAX_FRAME_LEN {
        return Err(TraceError::BadLength { offset, len });
    }
    let rest = len as usize + 4;
    let got = read_upto(src, buf, rest)?;
    if got < rest {
        return Err(TraceError::Truncated { offset, missing: (rest - got) as u64 });
    }
    let (body, crc) = buf.split_at(5 + len as usize);
    if crc32(body) != u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]) {
        return Err(TraceError::CrcMismatch { offset });
    }
    if !(kind::HEADER..=kind::AUDIT).contains(&frame_kind) {
        return Err(TraceError::UnknownFrameKind { offset, kind: frame_kind });
    }
    Ok(Some((frame_kind, &body[5..])))
}

fn check_finite(values: &[f64], frame: usize, what: &'static str) -> Result<(), TraceError> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(TraceError::NonFinite { frame, what })
    }
}

/// The semantic checks of the module docs, fed one frame at a time. Of
/// the jobs it keeps only those released and not yet completed, with
/// their release times.
#[derive(Debug)]
struct Validator {
    algo: Algo,
    next_seq: u64,
    released: u64,
    active: HashMap<u64, f64>,
    completed: u64,
    last_release: f64,
    last_seg_end: f64,
    finalized: bool,
}

impl Validator {
    fn new(algo: Algo) -> Self {
        Self {
            algo,
            next_seq: 0,
            released: 0,
            active: HashMap::new(),
            completed: 0,
            last_release: f64::NEG_INFINITY,
            last_seg_end: f64::NEG_INFINITY,
            finalized: false,
        }
    }

    /// Decode frame `idx` and validate it against the frames before it.
    fn check(
        &mut self,
        idx: usize,
        offset: u64,
        frame_kind: u8,
        payload: &[u8],
    ) -> Result<Event, TraceError> {
        if self.finalized {
            return Err(TraceError::TrailingFrame { offset });
        }
        if frame_kind == kind::HEADER {
            return Err(TraceError::UnexpectedHeader { offset });
        }
        let (seq, event) = decode_event(frame_kind, payload).map_err(|what| {
            if frame_kind == kind::CHECKPOINT {
                TraceError::BadCheckpoint { frame: idx, what }
            } else {
                TraceError::Malformed { offset, what }
            }
        })?;
        if seq != self.next_seq {
            return Err(TraceError::BadSequence { offset, expected: self.next_seq, found: seq });
        }
        self.next_seq += 1;

        match &event {
            Event::Release { id, job } => self.release(idx, offset, *id, job)?,
            Event::CompleteC { id, completion, frac_flow, int_flow } => {
                self.require(Algo::C, idx)?;
                check_finite(&[*completion, *frac_flow, *int_flow], idx, "completion fields")?;
                self.complete(idx, *id, *completion)?;
            }
            Event::CompleteNc { id, base_power, start, completion, frac_flow, int_flow } => {
                self.require(Algo::Nc, idx)?;
                check_finite(
                    &[*base_power, *start, *completion, *frac_flow, *int_flow],
                    idx,
                    "completion fields",
                )?;
                self.complete(idx, *id, *completion)?;
            }
            Event::Segment(seg) => {
                let (_, a, b) = law_parts(seg.law);
                check_finite(&[seg.start, seg.end, seg.scale, a, b], idx, "segment fields")?;
                if !(seg.end > seg.start) || seg.start < self.last_seg_end {
                    return Err(TraceError::NonChronologicalSegment { frame: idx });
                }
                self.last_seg_end = seg.end;
            }
            Event::Checkpoint(cp) => self.checkpoint(idx, cp)?,
            Event::Audit(snap) => {
                // Structural validation happened in the decode; the only
                // cross-frame invariant is that the auditor has not seen
                // more releases than the log has.
                if snap.released > self.released {
                    return Err(TraceError::Malformed {
                        offset,
                        what: format!(
                            "audit snapshot saw {} releases but log has {}",
                            snap.released, self.released
                        ),
                    });
                }
            }
            Event::Summary(s) => self.summary(idx, offset, s)?,
        }
        Ok(event)
    }

    fn require(&self, algo: Algo, frame: usize) -> Result<(), TraceError> {
        if self.algo == algo {
            Ok(())
        } else {
            Err(TraceError::AlgorithmMismatch { frame })
        }
    }

    fn release(&mut self, idx: usize, offset: u64, id: u64, job: &Job) -> Result<(), TraceError> {
        if id != self.released {
            return Err(TraceError::NonSequentialId {
                frame: idx,
                expected: self.released,
                found: id,
            });
        }
        check_finite(&[job.release, job.volume, job.density], idx, "release fields")?;
        if job.release < 0.0 || job.volume <= 0.0 || job.density <= 0.0 {
            return Err(TraceError::Malformed {
                offset,
                what: "release: negative time or non-positive volume/density".into(),
            });
        }
        if job.release < self.last_release {
            return Err(TraceError::OutOfOrderRelease { frame: idx, id });
        }
        self.last_release = job.release;
        self.active.insert(id, job.release);
        self.released += 1;
        Ok(())
    }

    fn complete(&mut self, frame: usize, id: u64, completion: f64) -> Result<(), TraceError> {
        if id >= self.released {
            return Err(TraceError::UnknownJob { frame, id });
        }
        let Some(release) = self.active.remove(&id) else {
            return Err(TraceError::DuplicateCompletion { frame, id });
        };
        if completion < release {
            return Err(TraceError::CompletionBeforeRelease { frame, id });
        }
        self.completed += 1;
        Ok(())
    }

    fn checkpoint(&self, frame: usize, cp: &Checkpoint) -> Result<(), TraceError> {
        self.require(cp.algo(), frame)?;
        if cp.ingested() as u64 != self.released {
            return Err(TraceError::BadCheckpoint {
                frame,
                what: format!(
                    "checkpoint ingested {} but {} releases seen",
                    cp.ingested(),
                    self.released
                ),
            });
        }
        Ok(())
    }

    fn summary(&mut self, idx: usize, offset: u64, s: &TraceSummary) -> Result<(), TraceError> {
        check_finite(&[s.makespan, s.energy, s.frac_flow, s.int_flow], idx, "summary fields")?;
        if s.ingested != self.released || s.completed != self.completed {
            return Err(TraceError::Malformed {
                offset,
                what: format!(
                    "summary counts ({} in / {} done) disagree with log ({} / {})",
                    s.ingested, s.completed, self.released, self.completed
                ),
            });
        }
        self.finalized = true;
        Ok(())
    }
}

/// A fully decoded and validated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Provenance header.
    pub header: TraceHeader,
    /// Events in log order (header excluded).
    pub events: Vec<Event>,
}

impl TraceFile {
    /// Whether the trace ends with its summary frame.
    #[must_use]
    pub fn finalized(&self) -> bool {
        matches!(self.events.last(), Some(Event::Summary(_)))
    }

    /// All released jobs in arrival order (index = job id).
    #[must_use]
    pub fn jobs(&self) -> Vec<Job> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Release { job, .. } => Some(*job),
                _ => None,
            })
            .collect()
    }

    /// The last checkpoint and its event index, if any — the resume point.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<(usize, &Checkpoint)> {
        self.events.iter().enumerate().rev().find_map(|(i, e)| match e {
            Event::Checkpoint(cp) => Some((i, cp.as_ref())),
            _ => None,
        })
    }
}

/// Outcome of a recovery read: the surviving trace plus damage accounting.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The validated longest-valid-prefix trace.
    pub trace: TraceFile,
    /// Bytes of the file that survived (magic + valid frames).
    pub valid_bytes: u64,
    /// Bytes truncated away (0 for an undamaged file).
    pub dropped_bytes: u64,
    /// The byte-level error that ended the read, if any.
    pub damage: Option<TraceError>,
}

/// Collect every frame strictly (see [`read_bytes`]).
fn collect_strict(mut frames: Frames<impl BufRead>) -> Result<TraceFile, TraceError> {
    let events = frames.by_ref().map(|f| f.map(|f| f.event)).collect::<Result<_, _>>()?;
    if !frames.finalized() {
        return Err(TraceError::MissingSummary);
    }
    Ok(TraceFile { header: frames.header, events })
}

/// Strict read: every frame valid, every invariant held, summary present.
pub fn read_bytes(bytes: &[u8]) -> Result<TraceFile, TraceError> {
    collect_strict(Frames::new(bytes)?)
}

/// Strict read of a file (see [`read_bytes`]).
pub fn read_file(path: &Path) -> Result<TraceFile, TraceError> {
    collect_strict(Frames::open(path)?)
}

/// Recovery read: end the trace at its first byte-level damage, keeping
/// the longest valid frame prefix, and validate that prefix semantically
/// (semantic errors are *not* recoverable — see the module docs).
pub fn recover_bytes(bytes: &[u8]) -> Result<Recovery, TraceError> {
    let mut frames = Frames::new(bytes)?;
    let mut events = Vec::new();
    let mut damage = None;
    while let Some(frame) = frames.next() {
        match frame {
            Ok(frame) => events.push(frame.event),
            Err(e) if frames.torn() => damage = Some(e),
            Err(e) => return Err(e),
        }
    }
    let valid_bytes = frames.valid_bytes();
    Ok(Recovery {
        trace: TraceFile { header: frames.header, events },
        valid_bytes,
        dropped_bytes: bytes.len() as u64 - valid_bytes,
        damage,
    })
}

/// Recovery read of a file (see [`recover_bytes`]).
pub fn recover_file(path: &Path) -> Result<Recovery, TraceError> {
    recover_bytes(&read_raw(path)?)
}

/// Read a whole trace file, mapping IO failures to [`TraceError::Io`].
pub fn read_raw(path: &Path) -> Result<Vec<u8>, TraceError> {
    std::fs::read(path).map_err(|e| io_error(path, &e))
}
