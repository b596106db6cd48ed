//! The `.nct` wire format: magic, frame kinds, and payload codecs.
//!
//! A trace file is an append-only log:
//!
//! ```text
//! magic (8 bytes) · frame · frame · … · Summary frame
//! frame = kind (u8) · len (u32 LE) · payload (len bytes) · crc32 (u32 LE)
//! ```
//!
//! The CRC covers `kind ‖ len ‖ payload`, so a flip anywhere in a frame —
//! including its own framing — is detected. Every payload after the header
//! opens with a strictly sequential `seq: u64`, which turns duplicated,
//! dropped, or reordered frames (all of which re-frame *correctly* and pass
//! the CRC) into a [`crate::TraceError::BadSequence`].
//!
//! All `f64` values travel as `to_bits()` in little-endian `u64`, so a
//! record → replay round trip is bitwise exact — the same contract the
//! batch-vs-stream equivalence tests already enforce in memory.
//!
//! Version policy: `VERSION` bumps on any layout change; readers accept
//! exactly their own version and reject others with
//! [`crate::TraceError::UnsupportedVersion`] rather than guessing.

use crate::crc::crc32;
use crate::snapshot::{put_audit, take_audit, Checkpoint};
use ncss_audit::IncrementalSnapshot;
use ncss_sim::{Job, Segment, SpeedLaw};

/// File magic: identifies an `.nct` trace (the trailing byte is the magic's
/// own revision, independent of the frame-level [`VERSION`]).
pub const MAGIC: [u8; 8] = *b"NCSSTRC1";

/// Frame-format version accepted by this reader/writer.
pub const VERSION: u32 = 1;

/// Upper bound on a frame payload length. Anything larger is a corrupt or
/// hostile length field ([`crate::TraceError::BadLength`]), refused *before*
/// any allocation or CRC pass over attacker-chosen gigabytes.
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// Frame kind tags (the `kind` byte of each frame).
pub mod kind {
    /// Trace header: version + provenance. First frame, exactly once.
    pub const HEADER: u8 = 0x01;
    /// A job release offered to the stream.
    pub const RELEASE: u8 = 0x02;
    /// A completion emitted by Algorithm C.
    pub const COMPLETE_C: u8 = 0x03;
    /// A completion emitted by Algorithm NC.
    pub const COMPLETE_NC: u8 = 0x04;
    /// A retired schedule segment.
    pub const SEGMENT: u8 = 0x05;
    /// A checkpoint: full serialized stream state for crash/resume.
    pub const CHECKPOINT: u8 = 0x06;
    /// Final tally. Last frame of a finalized trace, exactly once.
    pub const SUMMARY: u8 = 0x07;
    /// An incremental-auditor snapshot riding alongside a checkpoint, so a
    /// resumed run's audit verdicts match the uninterrupted run bitwise.
    pub const AUDIT: u8 = 0x08;
}

/// Which streaming core produced (and can replay) a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Clairvoyant Algorithm C ([`ncss_core::CStream`]).
    C,
    /// Non-clairvoyant Algorithm NC ([`ncss_core::NcStream`]).
    Nc,
}

impl Algo {
    /// Wire tag of the algorithm.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Algo::C => 0,
            Algo::Nc => 1,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Result<Self, String> {
        match tag {
            0 => Ok(Algo::C),
            1 => Ok(Algo::Nc),
            other => Err(format!("unknown algorithm tag {other}")),
        }
    }

    /// CLI-facing name (`c` / `nc`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::C => "c",
            Algo::Nc => "nc",
        }
    }
}

/// Trace provenance, written as the mandatory first frame.
///
/// Carries everything needed to regenerate or interpret the trace without
/// out-of-band context: the algorithm, its α, the workload seed, and a
/// free-form note (the golden traces record their generator line here).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Frame-format version ([`VERSION`] on write).
    pub version: u32,
    /// Algorithm that produced the trace.
    pub algorithm: Algo,
    /// Power-law exponent α of the run.
    pub alpha: f64,
    /// Workload seed (0 when the input was not synthetic).
    pub seed: u64,
    /// Free-form provenance note (UTF-8).
    pub note: String,
}

impl TraceHeader {
    /// A version-[`VERSION`] header for `algorithm` at `alpha`.
    #[must_use]
    pub fn new(algorithm: Algo, alpha: f64, seed: u64, note: impl Into<String>) -> Self {
        Self { version: VERSION, algorithm, alpha, seed, note: note.into() }
    }
}

/// Final tally frame of a finalized trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Jobs offered.
    pub ingested: u64,
    /// Jobs completed (equals `ingested` for a finished run).
    pub completed: u64,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Total energy.
    pub energy: f64,
    /// Total fractional weighted flow.
    pub frac_flow: f64,
    /// Total integral weighted flow.
    pub int_flow: f64,
}

/// One logged event — every frame kind except the header.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Job `id` (its arrival index) offered to the stream.
    Release {
        /// Arrival index (sequential from 0).
        id: u64,
        /// The job as offered.
        job: Job,
    },
    /// Algorithm C completed job `id`.
    CompleteC {
        /// Arrival index of the completed job.
        id: u64,
        /// Completion time.
        completion: f64,
        /// Fractional flow accrued by this job.
        frac_flow: f64,
        /// Integral (weighted) flow of this job.
        int_flow: f64,
    },
    /// Algorithm NC completed job `id` (emitted eagerly at offer time).
    CompleteNc {
        /// Arrival index of the completed job.
        id: u64,
        /// Base power level `K_j` used for this job.
        base_power: f64,
        /// Service start time.
        start: f64,
        /// Completion time.
        completion: f64,
        /// Fractional flow accrued by this job.
        frac_flow: f64,
        /// Integral (weighted) flow of this job.
        int_flow: f64,
    },
    /// A schedule segment retired from the spill ring.
    Segment(Segment),
    /// A checkpoint of the full stream state (boxed: it is by far the
    /// largest variant).
    Checkpoint(Box<Checkpoint>),
    /// An incremental-auditor snapshot (boxed: carries the active-job
    /// working set), written next to the stream checkpoint it pairs with.
    Audit(Box<IncrementalSnapshot>),
    /// The final tally; must be the last frame.
    Summary(TraceSummary),
}

// ---------------------------------------------------------------------------
// Little-endian put/take primitives shared by the event and snapshot codecs.
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Bounds-checked payload reader. Every decode error is a `String` naming
/// the field, mapped by callers to the right [`crate::TraceError`] variant
/// (frame-level `Malformed` or checkpoint-level `BadCheckpoint`).
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was consumed exactly — trailing garbage in
    /// a CRC-valid frame is still a malformed frame.
    pub(crate) fn finish(self, what: &str) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!("{what}: {} trailing bytes", self.remaining()))
        }
    }

    pub(crate) fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!("{what}: need {n} bytes, have {}", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.bytes(1, what)?[0])
    }

    pub(crate) fn bool(&mut self, what: &str) -> Result<bool, String> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("{what}: bad bool byte {other}")),
        }
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub(crate) fn usize(&mut self, what: &str) -> Result<usize, String> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| format!("{what}: {v} overflows usize"))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a `u64` element count and refuse it unless `count · elem_size`
    /// fits in the bytes actually present — a hostile count must not drive
    /// an allocation.
    pub(crate) fn count(&mut self, elem_size: usize, what: &str) -> Result<usize, String> {
        let n = self.usize(what)?;
        let need = n.checked_mul(elem_size).ok_or_else(|| format!("{what}: count overflow"))?;
        if need > self.remaining() {
            return Err(format!(
                "{what}: count {n} needs {need} bytes, only {} remain",
                self.remaining()
            ));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Segment codec (shared with the checkpoint codec in `snapshot`).
// ---------------------------------------------------------------------------

/// Sentinel for `Segment::job == None` (idle segment).
const NO_JOB: u64 = u64::MAX;

pub(crate) fn put_segment(out: &mut Vec<u8>, seg: &Segment) {
    put_f64(out, seg.start);
    put_f64(out, seg.end);
    put_u64(out, seg.job.map_or(NO_JOB, |j| j as u64));
    let (tag, a, b) = match seg.law {
        SpeedLaw::Idle => (0u8, 0.0, 0.0),
        SpeedLaw::Constant { speed } => (1, speed, 0.0),
        SpeedLaw::Decay { w0, rho } => (2, w0, rho),
        SpeedLaw::Growth { u0, rho } => (3, u0, rho),
    };
    put_u8(out, tag);
    put_f64(out, a);
    put_f64(out, b);
    put_f64(out, seg.scale);
}

pub(crate) fn take_segment(c: &mut Cursor<'_>, what: &str) -> Result<Segment, String> {
    let start = c.f64(what)?;
    let end = c.f64(what)?;
    let job = match c.u64(what)? {
        NO_JOB => None,
        j => Some(usize::try_from(j).map_err(|_| format!("{what}: job id overflows usize"))?),
    };
    let tag = c.u8(what)?;
    let a = c.f64(what)?;
    let b = c.f64(what)?;
    let law = match tag {
        0 => SpeedLaw::Idle,
        1 => SpeedLaw::Constant { speed: a },
        2 => SpeedLaw::Decay { w0: a, rho: b },
        3 => SpeedLaw::Growth { u0: a, rho: b },
        other => return Err(format!("{what}: unknown speed-law tag {other}")),
    };
    let scale = c.f64(what)?;
    Ok(Segment { start, end, job, law, scale })
}

// ---------------------------------------------------------------------------
// Frame and payload codecs.
// ---------------------------------------------------------------------------

/// Frame a payload: `kind ‖ len ‖ payload ‖ crc32(kind ‖ len ‖ payload)`.
#[must_use]
pub fn encode_frame(frame_kind: u8, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    let mut out = Vec::with_capacity(9 + payload.len());
    out.push(frame_kind);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Encode the header payload.
#[must_use]
pub fn encode_header(h: &TraceHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(29 + h.note.len());
    put_u32(&mut out, h.version);
    put_u8(&mut out, h.algorithm.tag());
    put_f64(&mut out, h.alpha);
    put_u64(&mut out, h.seed);
    put_u32(&mut out, h.note.len() as u32);
    out.extend_from_slice(h.note.as_bytes());
    out
}

/// Decode a header payload. The version is returned even on acceptance so
/// the caller can surface `UnsupportedVersion { found }`; this function only
/// checks structure.
pub fn decode_header(payload: &[u8]) -> Result<TraceHeader, String> {
    let mut c = Cursor::new(payload);
    let version = c.u32("header.version")?;
    let algorithm = Algo::from_tag(c.u8("header.algorithm")?)?;
    let alpha = c.f64("header.alpha")?;
    let seed = c.u64("header.seed")?;
    let note_len = c.u32("header.note_len")? as usize;
    let note_bytes = c.bytes(note_len, "header.note")?;
    let note = std::str::from_utf8(note_bytes)
        .map_err(|_| "header.note: invalid UTF-8".to_string())?
        .to_string();
    c.finish("header")?;
    Ok(TraceHeader { version, algorithm, alpha, seed, note })
}

/// Encode an event as `(kind, payload)`; the payload opens with `seq`.
#[must_use]
pub fn encode_event(seq: u64, event: &Event) -> (u8, Vec<u8>) {
    let mut out = Vec::with_capacity(64);
    put_u64(&mut out, seq);
    let frame_kind = put_event(&mut out, event);
    (frame_kind, out)
}

/// Append an event's payload after its `seq` to `out` and return its frame
/// kind. Every `f64` goes in by `to_bits`, so two events with equal kind
/// and bytes are equal bit for bit (what replay compares).
pub(crate) fn put_event(out: &mut Vec<u8>, event: &Event) -> u8 {
    match event {
        Event::Release { id, job } => {
            put_u64(out, *id);
            put_f64(out, job.release);
            put_f64(out, job.volume);
            put_f64(out, job.density);
            kind::RELEASE
        }
        Event::CompleteC { id, completion, frac_flow, int_flow } => {
            put_u64(out, *id);
            put_f64(out, *completion);
            put_f64(out, *frac_flow);
            put_f64(out, *int_flow);
            kind::COMPLETE_C
        }
        Event::CompleteNc { id, base_power, start, completion, frac_flow, int_flow } => {
            put_u64(out, *id);
            put_f64(out, *base_power);
            put_f64(out, *start);
            put_f64(out, *completion);
            put_f64(out, *frac_flow);
            put_f64(out, *int_flow);
            kind::COMPLETE_NC
        }
        Event::Segment(seg) => {
            put_segment(out, seg);
            kind::SEGMENT
        }
        Event::Checkpoint(cp) => {
            cp.encode_into(out);
            kind::CHECKPOINT
        }
        Event::Audit(snap) => {
            put_audit(out, snap);
            kind::AUDIT
        }
        Event::Summary(s) => {
            put_u64(out, s.ingested);
            put_u64(out, s.completed);
            put_f64(out, s.makespan);
            put_f64(out, s.energy);
            put_f64(out, s.frac_flow);
            put_f64(out, s.int_flow);
            kind::SUMMARY
        }
    }
}

/// Decode an event payload for `frame_kind`, returning `(seq, event)`.
///
/// Checkpoint payloads are decoded *structurally* here; semantic validation
/// of the restored state happens in [`crate::reader`] (against the event
/// history) and in the streams' `from_snapshot` constructors.
pub fn decode_event(frame_kind: u8, payload: &[u8]) -> Result<(u64, Event), String> {
    let mut c = Cursor::new(payload);
    let seq = c.u64("event.seq")?;
    let event = match frame_kind {
        kind::RELEASE => {
            let id = c.u64("release.id")?;
            let release = c.f64("release.release")?;
            let volume = c.f64("release.volume")?;
            let density = c.f64("release.density")?;
            Event::Release { id, job: Job { release, volume, density } }
        }
        kind::COMPLETE_C => Event::CompleteC {
            id: c.u64("complete_c.id")?,
            completion: c.f64("complete_c.completion")?,
            frac_flow: c.f64("complete_c.frac_flow")?,
            int_flow: c.f64("complete_c.int_flow")?,
        },
        kind::COMPLETE_NC => Event::CompleteNc {
            id: c.u64("complete_nc.id")?,
            base_power: c.f64("complete_nc.base_power")?,
            start: c.f64("complete_nc.start")?,
            completion: c.f64("complete_nc.completion")?,
            frac_flow: c.f64("complete_nc.frac_flow")?,
            int_flow: c.f64("complete_nc.int_flow")?,
        },
        kind::SEGMENT => Event::Segment(take_segment(&mut c, "segment")?),
        kind::CHECKPOINT => Event::Checkpoint(Box::new(Checkpoint::decode(&mut c)?)),
        kind::AUDIT => Event::Audit(Box::new(take_audit(&mut c)?)),
        kind::SUMMARY => Event::Summary(TraceSummary {
            ingested: c.u64("summary.ingested")?,
            completed: c.u64("summary.completed")?,
            makespan: c.f64("summary.makespan")?,
            energy: c.f64("summary.energy")?,
            frac_flow: c.f64("summary.frac_flow")?,
            int_flow: c.f64("summary.int_flow")?,
        }),
        other => return Err(format!("decode_event called with frame kind {other}")),
    };
    c.finish("event")?;
    Ok((seq, event))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = TraceHeader::new(Algo::Nc, 2.5, 42, "uniform_suite seed=42");
        let decoded = decode_header(&encode_header(&h)).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn events_round_trip_bitwise() {
        let events = vec![
            Event::Release { id: 0, job: Job::new(0.25, 1.5, 3.0) },
            Event::CompleteC { id: 0, completion: 1.125, frac_flow: 0.5, int_flow: 4.5 },
            Event::CompleteNc {
                id: 1,
                base_power: 2.0,
                start: 0.5,
                completion: 1.75,
                frac_flow: 0.25,
                int_flow: 1.0,
            },
            Event::Segment(Segment::new(0.0, 1.0, Some(3), SpeedLaw::Decay { w0: 4.0, rho: 2.0 })),
            Event::Segment(Segment::new(1.0, 2.0, None, SpeedLaw::Idle).with_scale(1.5)),
            Event::Summary(TraceSummary {
                ingested: 2,
                completed: 2,
                makespan: 1.75,
                energy: 10.0,
                frac_flow: 0.75,
                int_flow: 5.5,
            }),
        ];
        for (i, event) in events.iter().enumerate() {
            let (k, payload) = encode_event(i as u64, event);
            let (seq, decoded) = decode_event(k, &payload).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(&decoded, event, "event {i} failed to round trip");
        }
    }

    #[test]
    fn truncated_payload_is_a_named_decode_error() {
        let (k, payload) = encode_event(7, &Event::CompleteC {
            id: 3,
            completion: 1.0,
            frac_flow: 2.0,
            int_flow: 3.0,
        });
        let err = decode_event(k, &payload[..payload.len() - 1]).unwrap_err();
        assert!(err.contains("complete_c.int_flow"), "unexpected message: {err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (k, mut payload) = encode_event(0, &Event::Segment(Segment::new(
            0.0,
            1.0,
            None,
            SpeedLaw::Idle,
        )));
        payload.push(0);
        let err = decode_event(k, &payload).unwrap_err();
        assert!(err.contains("trailing"), "unexpected message: {err}");
    }

    #[test]
    fn frame_crc_covers_kind_and_length() {
        let frame = encode_frame(kind::RELEASE, b"payload");
        let body_len = frame.len() - 4;
        let crc = u32::from_le_bytes(frame[body_len..].try_into().unwrap());
        assert_eq!(crc, crc32(&frame[..body_len]));
        // Flipping the kind byte must invalidate the stored CRC.
        let mut bad = frame;
        bad[0] ^= 0x01;
        assert_ne!(crc, crc32(&bad[..body_len]));
    }
}
