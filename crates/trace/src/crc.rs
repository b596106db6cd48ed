//! CRC-32 (ISO-HDLC / IEEE 802.3) — the frame checksum of the trace format.
//!
//! Slicing-by-16: sixteen 256-entry tables, generated at compile time, let
//! [`crc32`] fold 16 bytes per step with one lookup per byte and no
//! dependency between the lookups of a step, instead of one dependent
//! lookup per byte. A tail shorter than 16 bytes is folded 8 and then 4
//! bytes at a time with the same tables, and its last ≤ 3 bytes one at a
//! time. The value is the classic byte-at-a-time CRC's, bit for bit; that
//! loop stays only as the unit tests' oracle. Safe Rust, no CPU-feature
//! dispatch, zero dependencies.
//!
//! CRC-32 detects every single-bit error and every burst error of up to
//! 32 bits, which is exactly the failure model of a torn or bit-rotted
//! append: `tests/trace_wal.rs` flips random bits and the checksum must
//! notice every one, and the unit tests below prove the burst claim
//! exhaustively at several offsets of a checkpoint-sized frame.

/// The reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes, so a byte `k`
/// places before the end of a block is looked up in `TABLES[k]`.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Fold one block of `N` bytes (4 ≤ `N` ≤ 16) into `crc`: the running
/// CRC is xored into the block's first four bytes, then every byte is
/// looked up in the table of its distance from the block's end.
#[inline(always)]
fn fold<const N: usize>(crc: u32, block: &[u8; N]) -> u32 {
    let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
    let mut out = 0;
    for (i, b) in head.to_le_bytes().into_iter().enumerate() {
        out ^= TABLES[N - 1 - i][usize::from(b)];
    }
    for (i, &b) in block.iter().enumerate().skip(4) {
        out ^= TABLES[N - 1 - i][usize::from(b)];
    }
    out
}

/// One byte of the classic loop.
#[inline(always)]
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][usize::from(crc as u8 ^ b)]
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
///
/// # Examples
///
/// ```
/// // The classic check value of CRC-32/ISO-HDLC.
/// assert_eq!(ncss_trace::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        crc = fold::<16>(crc, block.try_into().expect("a 16-byte block"));
    }
    let mut tail = blocks.remainder();
    if let Some((block, rest)) = tail.split_first_chunk::<8>() {
        crc = fold(crc, block);
        tail = rest;
    }
    if let Some((block, rest)) = tail.split_first_chunk::<4>() {
        crc = fold(crc, block);
        tail = rest;
    }
    for &b in tail {
        crc = step(crc, b);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_rng::Pcg64;

    /// The byte-at-a-time CRC: the oracle [`crc32`] must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b)) ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Pcg64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        for v in [&b""[..], b"123456789", b"The quick brown fox jumps over the lazy dog"] {
            assert_eq!(crc32_bytewise(v), crc32(v));
        }
    }

    #[test]
    fn slicing_equals_the_byte_loop_at_every_length_and_alignment() {
        let buf = seeded_bytes(16 + 256, 0x5EED);
        for start in 0..16 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start}, length {len}");
            }
        }
        let big = seeded_bytes(1 << 20, 0xB16);
        assert_eq!(crc32(&big), crc32_bytewise(&big), "1 MiB buffer");
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        let base = b"ncss trace frame payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit} undetected");
            }
        }
    }

    /// Rank over GF(2) of `rows`, by elimination on the leading bit.
    fn rank(mut rows: Vec<u32>) -> usize {
        let mut rank = 0;
        for bit in (0..32).rev() {
            let Some(pivot) = rows[rank..].iter().position(|r| r >> bit & 1 == 1) else {
                continue;
            };
            rows.swap(rank, rank + pivot);
            let p = rows[rank];
            for r in &mut rows[rank + 1..] {
                if *r >> bit & 1 == 1 {
                    *r ^= p;
                }
            }
            rank += 1;
        }
        rank
    }

    /// Every error confined to 32 consecutive bits — every burst of up to
    /// 32 bits that starts there — changes the CRC of a checkpoint-sized
    /// frame, at several offsets, byte-aligned or not. For messages of one
    /// length the CRC is affine, so the change an error makes is the xor
    /// of the changes its single-bit flips make. Every nonzero error in
    /// the window is therefore detected exactly when those 32 changes are
    /// linearly independent: rank 32 over GF(2) proves all 2^32 − 1 at
    /// once. A few bursts are also flipped for real, to check the algebra.
    #[test]
    fn every_burst_of_up_to_32_bits_is_detected() {
        let mut frame = seeded_bytes(9_300, 0xF4A3);
        let reference = crc32(&frame);
        let flipped = |frame: &mut Vec<u8>, bits: &[usize]| {
            for &b in bits {
                frame[b / 8] ^= 1 << (b % 8);
            }
            let crc = crc32(frame);
            for &b in bits {
                frame[b / 8] ^= 1 << (b % 8);
            }
            crc ^ reference
        };
        let total_bits = frame.len() * 8;
        for window in [0, 3, 8 * 777 + 5, 8 * 4_650, 8 * 9_000 + 1, total_bits - 32] {
            let changes: Vec<u32> =
                (window..window + 32).map(|b| flipped(&mut frame, &[b])).collect();
            assert_eq!(rank(changes.clone()), 32, "window at bit {window}: an error goes unseen");
            for len in [2, 9, 17, 32] {
                let burst: Vec<usize> = (window..window + len).collect();
                let xor = changes[..len].iter().fold(0, |x, c| x ^ c);
                let change = flipped(&mut frame, &burst);
                assert_eq!(change, xor, "window {window}, burst {len}: the CRC is not affine");
                assert_ne!(change, 0, "window {window}, burst {len} undetected");
            }
        }
    }
}
