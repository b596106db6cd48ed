//! Seeded trace tamperer — the adversary the readers are tested against.
//!
//! Each [`Tamper`] kind deterministically corrupts a pristine trace in a
//! distinct way, chosen to exercise a *different* detection layer:
//!
//! | kind             | detection layer                                    |
//! |------------------|----------------------------------------------------|
//! | `BitFlip`        | frame CRC (or magic check if the flip lands there) |
//! | `Truncate`       | torn-frame check / missing-summary rule            |
//! | `DuplicateFrame` | sequential `seq` numbers                           |
//! | `ReorderFrames`  | sequential `seq` numbers                           |
//! | `BadLength`      | length sanity bound (before CRC, before alloc)     |
//! | `StaleVersion`   | version policy (CRC is *recomputed*, so only the   |
//! |                  | version check can object)                          |
//!
//! The contract under test: every tampered trace must surface as a named
//! [`crate::TraceError`] from a strict read — never a panic, never silent
//! acceptance. `tests/trace_tamper.rs` sweeps all kinds × seeds.

use crate::crc::crc32;
use crate::format::{MAGIC, MAX_FRAME_LEN, VERSION};
use crate::reader::Frames;
use std::str::FromStr;

/// A corruption pattern (see the module docs for what each exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Flip one random bit anywhere in the file.
    BitFlip,
    /// Cut a random number of bytes off the tail (a torn append).
    Truncate,
    /// Duplicate one random event frame in place.
    DuplicateFrame,
    /// Swap two adjacent event frames.
    ReorderFrames,
    /// Overwrite one frame's length field with an absurd value.
    BadLength,
    /// Rewrite the header's version — with a *valid* CRC.
    StaleVersion,
}

impl Tamper {
    /// Every tamper kind, for exhaustive sweeps.
    pub const ALL: [Tamper; 6] = [
        Tamper::BitFlip,
        Tamper::Truncate,
        Tamper::DuplicateFrame,
        Tamper::ReorderFrames,
        Tamper::BadLength,
        Tamper::StaleVersion,
    ];

    /// Stable CLI-facing name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tamper::BitFlip => "bit-flip",
            Tamper::Truncate => "truncate",
            Tamper::DuplicateFrame => "duplicate-frame",
            Tamper::ReorderFrames => "reorder-frames",
            Tamper::BadLength => "bad-length",
            Tamper::StaleVersion => "stale-version",
        }
    }
}

impl FromStr for Tamper {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Tamper::ALL
            .into_iter()
            .find(|t| t.name() == s)
            .ok_or_else(|| format!("unknown tamper kind '{s}' (try one of: bit-flip, truncate, duplicate-frame, reorder-frames, bad-length, stale-version)"))
    }
}

/// SplitMix64 — tiny self-contained generator so the tamperer stays
/// deterministic without pulling the workload RNG into this crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `[0, n)` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Apply `kind` to a pristine trace, returning the corrupted copy.
///
/// Refuses damaged or invalid inputs — anything the frame reader rejects —
/// because tampering must start from a valid trace, or the resulting error
/// could be pre-existing; refuses traces too small for the requested
/// pattern too.
pub fn apply(bytes: &[u8], kind: Tamper, seed: u64) -> Result<Vec<u8>, String> {
    let damaged = |err| format!("refusing to tamper an already-damaged trace: {err}");
    // Frame byte ranges: (start, total length), the header first. Total =
    // kind + len + payload + crc; each frame ends where the next begins.
    let mut starts = vec![MAGIC.len()];
    for frame in Frames::new(bytes).map_err(damaged)? {
        starts.push(frame.map_err(damaged)?.offset as usize);
    }
    starts.push(bytes.len());
    let spans: Vec<(usize, usize)> = starts.windows(2).map(|w| (w[0], w[1] - w[0])).collect();
    let mut rng = SplitMix(seed ^ 0xA076_1D64_78BD_642F);
    let mut out = bytes.to_vec();

    match kind {
        Tamper::BitFlip => {
            let pos = rng.below(out.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            out[pos] ^= 1 << bit;
        }
        Tamper::Truncate => {
            let cut = 1 + rng.below(out.len() as u64 - 1) as usize;
            out.truncate(out.len() - cut);
        }
        Tamper::DuplicateFrame => {
            if spans.len() < 2 {
                return Err("trace has no event frame to duplicate".to_string());
            }
            let i = 1 + rng.below(spans.len() as u64 - 1) as usize;
            let (start, total) = spans[i];
            let copy = out[start..start + total].to_vec();
            out.splice(start + total..start + total, copy);
        }
        Tamper::ReorderFrames => {
            if spans.len() < 3 {
                return Err("trace has fewer than two event frames to reorder".to_string());
            }
            let i = 1 + rng.below(spans.len() as u64 - 2) as usize;
            let (a_start, a_total) = spans[i];
            let (b_start, b_total) = spans[i + 1];
            let mut swapped = Vec::with_capacity(a_total + b_total);
            swapped.extend_from_slice(&bytes[b_start..b_start + b_total]);
            swapped.extend_from_slice(&bytes[a_start..a_start + a_total]);
            out.splice(a_start..b_start + b_total, swapped);
        }
        Tamper::BadLength => {
            let i = rng.below(spans.len() as u64) as usize;
            let (start, _) = spans[i];
            let bogus = MAX_FRAME_LEN + 1 + rng.below(1_000_000) as u32;
            out[start + 1..start + 5].copy_from_slice(&bogus.to_le_bytes());
        }
        Tamper::StaleVersion => {
            // The header frame sits right after the magic; its payload's
            // first field is the version. Rewrite it and *recompute* the
            // CRC so only the version policy can reject the trace.
            let (start, total) = spans[0];
            debug_assert_eq!(start, MAGIC.len());
            let stale = VERSION + 1 + rng.below(1_000) as u32;
            out[start + 5..start + 9].copy_from_slice(&stale.to_le_bytes());
            let body_end = start + total - 4;
            let crc = crc32(&out[start..body_end]);
            out[body_end..start + total].copy_from_slice(&crc.to_le_bytes());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn tamper_names_round_trip() {
        for kind in Tamper::ALL {
            assert_eq!(kind.name().parse::<Tamper>().unwrap(), kind);
        }
        assert!("no-such-kind".parse::<Tamper>().is_err());
    }

    #[test]
    fn refuses_damaged_input() {
        assert!(apply(b"not a trace", Tamper::BitFlip, 1).is_err());
    }
}
