//! Crash-safe record/replay traces for the streaming schedulers.
//!
//! This crate gives the streaming cores ([`ncss_core::CStream`] /
//! [`ncss_core::NcStream`]) a durable, verifiable execution log — the
//! `.nct` format of DESIGN.md §10 — with three robustness layers:
//!
//! 1. **Durable WAL** ([`recorder`], [`mod@format`]): every release, dispatch
//!    decision, retired segment, and completion is appended as a
//!    CRC-framed, sequence-numbered record; the final summary frame
//!    finalizes the trace.
//! 2. **Torn-write recovery & checkpoint/resume** ([`reader`],
//!    [`snapshot`]): a killed run leaves at most a torn tail, which
//!    recovery truncates to the longest valid prefix (reporting exactly
//!    what was dropped); the last checkpoint frame restores the full
//!    stream state, and re-offering the remaining releases reproduces the
//!    uninterrupted run **bitwise**.
//! 3. **Corruption contract** ([`tamper`], [`mod@replay`]): every corruption an
//!    adversary (or a disk) can produce — bit flips, truncation,
//!    duplicated/reordered frames, hostile lengths, stale versions —
//!    surfaces as a *named* [`TraceError`]; replay re-executes the log and
//!    holds it to `f64::to_bits` equality.
//!
//! Zero external dependencies, like the rest of the workspace.
//!
//! # Examples
//!
//! Record a short C run into memory, read it back strictly, and replay it.
//! [`Stream`] picks the core; [`Recorder::record_offer`] logs each offer in
//! WAL order:
//!
//! ```
//! use ncss_core::streaming::StreamConfig;
//! use ncss_sim::{Job, PowerLaw};
//! use ncss_trace::{Algo, Recorder, Stream, TraceHeader};
//!
//! let law = PowerLaw::new(2.0).unwrap();
//! let mut stream = Stream::new(Algo::C, law, StreamConfig::batch());
//! let mut rec = Recorder::new(Vec::new(), &TraceHeader::new(Algo::C, 2.0, 0, "doc")).unwrap();
//!
//! for job in [Job::unit_density(0.0, 1.0), Job::unit_density(0.5, 2.0)] {
//!     rec.record_offer(&mut stream, job).unwrap();
//! }
//! let summary = rec.record_finish(&mut stream).unwrap();
//! let bytes = rec.finalize(&summary).unwrap();
//!
//! let trace = ncss_trace::read_bytes(&bytes).unwrap();
//! let report = ncss_trace::replay(&trace).unwrap();
//! assert_eq!(report.replayed.completed, 2);
//! ```

#![deny(missing_docs)]

pub mod crc;
pub mod format;
pub mod reader;
pub mod recorder;
pub mod replay;
pub mod snapshot;
pub mod stream;
pub mod tamper;

pub use format::{Algo, Event, TraceHeader, TraceSummary, MAGIC, MAX_FRAME_LEN, VERSION};
pub use reader::{read_bytes, read_file, recover_bytes, recover_file, Recovery, TraceFile};
pub use recorder::Recorder;
pub use replay::{replay, ReplayReport};
pub use snapshot::Checkpoint;
pub use stream::{Completion, Stream};
pub use tamper::Tamper;

use ncss_sim::SimError;

/// Every way a trace can be wrong — each a *named* failure, so tests and
/// the CLI can assert exactly which defense caught a given corruption.
/// Nothing in this crate panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// Filesystem-level failure.
    Io {
        /// Path and OS error.
        detail: String,
    },
    /// The file does not start with the `.nct` magic.
    BadMagic,
    /// Header declares a version this reader does not speak.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// No header frame (empty file or first frame of the wrong kind).
    MissingHeader,
    /// A second header frame appeared mid-log.
    UnexpectedHeader {
        /// Byte offset of the offending frame.
        offset: u64,
    },
    /// A frame extends past end-of-file (the torn-write signature).
    Truncated {
        /// Byte offset of the torn frame.
        offset: u64,
        /// Bytes missing to complete it.
        missing: u64,
    },
    /// A frame length field exceeds [`MAX_FRAME_LEN`].
    BadLength {
        /// Byte offset of the frame.
        offset: u64,
        /// The hostile length.
        len: u32,
    },
    /// A frame's stored CRC disagrees with its contents.
    CrcMismatch {
        /// Byte offset of the frame.
        offset: u64,
    },
    /// A CRC-valid frame with an unknown kind tag (format drift).
    UnknownFrameKind {
        /// Byte offset of the frame.
        offset: u64,
        /// The unknown kind byte.
        kind: u8,
    },
    /// A CRC-valid frame whose payload does not decode.
    Malformed {
        /// Byte offset of the frame.
        offset: u64,
        /// What failed to decode.
        what: String,
    },
    /// A frame's sequence number is not the expected next one
    /// (duplicated, dropped, or reordered frames).
    BadSequence {
        /// Byte offset of the frame.
        offset: u64,
        /// Sequence number expected.
        expected: u64,
        /// Sequence number found.
        found: u64,
    },
    /// A release frame's time is earlier than its predecessor's.
    OutOfOrderRelease {
        /// Frame index (in log order).
        frame: usize,
        /// Job id of the offending release.
        id: u64,
    },
    /// A release frame's id is not the next arrival index.
    NonSequentialId {
        /// Frame index.
        frame: usize,
        /// Id expected.
        expected: u64,
        /// Id found.
        found: u64,
    },
    /// A completion references a job never released.
    UnknownJob {
        /// Frame index.
        frame: usize,
        /// The unknown job id.
        id: u64,
    },
    /// A job completed twice.
    DuplicateCompletion {
        /// Frame index.
        frame: usize,
        /// The doubly-completed job id.
        id: u64,
    },
    /// A completion time precedes the job's release.
    CompletionBeforeRelease {
        /// Frame index.
        frame: usize,
        /// The job id.
        id: u64,
    },
    /// A segment overlaps its predecessor or is empty/inverted.
    NonChronologicalSegment {
        /// Frame index.
        frame: usize,
    },
    /// A float field is NaN or infinite.
    NonFinite {
        /// Frame index.
        frame: usize,
        /// Which field group.
        what: &'static str,
    },
    /// A frame belongs to the other algorithm than the header declares.
    AlgorithmMismatch {
        /// Frame index.
        frame: usize,
    },
    /// A checkpoint frame fails to decode or is inconsistent with the log.
    BadCheckpoint {
        /// Frame index.
        frame: usize,
        /// What is wrong with it.
        what: String,
    },
    /// The trace has no terminal summary frame (unfinalized).
    MissingSummary,
    /// A frame follows the summary frame.
    TrailingFrame {
        /// Byte offset of the trailing frame.
        offset: u64,
    },
    /// Replay produced different bits than the trace recorded.
    ReplayDivergence {
        /// First point of disagreement.
        what: String,
    },
    /// API misuse by the caller (e.g. appending after finalize).
    Misuse {
        /// What was misused.
        what: &'static str,
    },
    /// A simulation error during replay/resume (bad α, numeric overflow…).
    Sim {
        /// The underlying simulation error.
        detail: String,
    },
}

impl TraceError {
    /// The variant's stable name — what the CLI prints in brackets and
    /// what tests assert, independent of message wording.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceError::Io { .. } => "Io",
            TraceError::BadMagic => "BadMagic",
            TraceError::UnsupportedVersion { .. } => "UnsupportedVersion",
            TraceError::MissingHeader => "MissingHeader",
            TraceError::UnexpectedHeader { .. } => "UnexpectedHeader",
            TraceError::Truncated { .. } => "Truncated",
            TraceError::BadLength { .. } => "BadLength",
            TraceError::CrcMismatch { .. } => "CrcMismatch",
            TraceError::UnknownFrameKind { .. } => "UnknownFrameKind",
            TraceError::Malformed { .. } => "Malformed",
            TraceError::BadSequence { .. } => "BadSequence",
            TraceError::OutOfOrderRelease { .. } => "OutOfOrderRelease",
            TraceError::NonSequentialId { .. } => "NonSequentialId",
            TraceError::UnknownJob { .. } => "UnknownJob",
            TraceError::DuplicateCompletion { .. } => "DuplicateCompletion",
            TraceError::CompletionBeforeRelease { .. } => "CompletionBeforeRelease",
            TraceError::NonChronologicalSegment { .. } => "NonChronologicalSegment",
            TraceError::NonFinite { .. } => "NonFinite",
            TraceError::AlgorithmMismatch { .. } => "AlgorithmMismatch",
            TraceError::BadCheckpoint { .. } => "BadCheckpoint",
            TraceError::MissingSummary => "MissingSummary",
            TraceError::TrailingFrame { .. } => "TrailingFrame",
            TraceError::ReplayDivergence { .. } => "ReplayDivergence",
            TraceError::Misuse { .. } => "Misuse",
            TraceError::Sim { .. } => "Sim",
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { detail } => write!(f, "io error: {detail}"),
            TraceError::BadMagic => write!(f, "not an .nct trace (bad magic)"),
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found} (this reader speaks {VERSION})")
            }
            TraceError::MissingHeader => write!(f, "no header frame"),
            TraceError::UnexpectedHeader { offset } => {
                write!(f, "second header frame at byte {offset}")
            }
            TraceError::Truncated { offset, missing } => {
                write!(f, "torn frame at byte {offset}: {missing} bytes missing")
            }
            TraceError::BadLength { offset, len } => {
                write!(f, "frame at byte {offset} declares absurd length {len}")
            }
            TraceError::CrcMismatch { offset } => {
                write!(f, "CRC mismatch in frame at byte {offset}")
            }
            TraceError::UnknownFrameKind { offset, kind } => {
                write!(f, "unknown frame kind {kind:#04x} at byte {offset}")
            }
            TraceError::Malformed { offset, what } => {
                write!(f, "malformed frame at byte {offset}: {what}")
            }
            TraceError::BadSequence { offset, expected, found } => write!(
                f,
                "frame at byte {offset} has sequence {found}, expected {expected} \
                 (duplicated, dropped, or reordered frames)"
            ),
            TraceError::OutOfOrderRelease { frame, id } => {
                write!(f, "frame {frame}: release of job {id} goes back in time")
            }
            TraceError::NonSequentialId { frame, expected, found } => {
                write!(f, "frame {frame}: release id {found}, expected {expected}")
            }
            TraceError::UnknownJob { frame, id } => {
                write!(f, "frame {frame}: completion of never-released job {id}")
            }
            TraceError::DuplicateCompletion { frame, id } => {
                write!(f, "frame {frame}: job {id} completed twice")
            }
            TraceError::CompletionBeforeRelease { frame, id } => {
                write!(f, "frame {frame}: job {id} completes before its release")
            }
            TraceError::NonChronologicalSegment { frame } => {
                write!(f, "frame {frame}: segment is empty, inverted, or overlaps its predecessor")
            }
            TraceError::NonFinite { frame, what } => {
                write!(f, "frame {frame}: non-finite {what}")
            }
            TraceError::AlgorithmMismatch { frame } => {
                write!(f, "frame {frame}: event belongs to the other algorithm")
            }
            TraceError::BadCheckpoint { frame, what } => {
                write!(f, "frame {frame}: bad checkpoint: {what}")
            }
            TraceError::MissingSummary => write!(f, "trace is not finalized (no summary frame)"),
            TraceError::TrailingFrame { offset } => {
                write!(f, "frame after the summary at byte {offset}")
            }
            TraceError::ReplayDivergence { what } => {
                write!(f, "replay diverged from the recording: {what}")
            }
            TraceError::Misuse { what } => write!(f, "recorder misuse: {what}"),
            TraceError::Sim { detail } => write!(f, "simulation error: {detail}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io { detail: e.to_string() }
    }
}

impl From<SimError> for TraceError {
    fn from(e: SimError) -> Self {
        TraceError::Sim { detail: e.to_string() }
    }
}
