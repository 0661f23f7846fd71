//! A compact std-only LZSS byte codec for persisted artifacts.
//!
//! The job server persists every job's event stream and checkpoint bundle
//! on each checkpoint; at high job counts those JSON artifacts would
//! saturate disk (SNIPPETS.md snippet 1 solves the same problem with an
//! lzma dump cache). JSON trajectories are extremely repetitive — keys,
//! lattice runs, record framing — so even a small hand-rolled LZSS gets a
//! useful ratio without any registry dependency.
//!
//! ## Format (`TKZ1`)
//!
//! ```text
//! magic "TKZ1" | u64 LE decompressed length | token stream
//! ```
//!
//! The token stream is groups of up to 8 tokens, each group led by a flag
//! byte (bit *i* = 1 ⇒ token *i* is a match, LSB first):
//!
//! * literal — one raw byte;
//! * match — two bytes packing a 12-bit backward distance (1-based,
//!   window [`WINDOW`] = 4096) and a 4-bit length − [`MIN_MATCH`]
//!   (lengths 3..=18). A run of equal bytes compresses as overlapping
//!   matches with distance 1, so RLE falls out of the same code path.
//!
//! [`decompress`] validates every distance/length against the output
//! produced so far and the declared final length, so corrupt input yields
//! a typed [`LzError`], never a panic or unbounded allocation.

use std::collections::HashMap;

/// Magic prefix of the `TKZ1` container.
pub const MAGIC: &[u8; 4] = b"TKZ1";
/// Backward-reference window, bytes (12-bit distances).
pub const WINDOW: usize = 4096;
/// Shortest encodable match; shorter repeats ship as literals.
pub const MIN_MATCH: usize = 3;
/// Longest encodable match (4-bit length field).
pub const MAX_MATCH: usize = MIN_MATCH + 15;
/// Positions remembered per 3-byte hash bucket. More candidates find
/// longer matches at more compare cost; 8 is plenty for JSON text.
const CANDIDATES: usize = 8;

/// Why a `TKZ1` payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// The payload does not start with [`MAGIC`].
    BadMagic,
    /// The payload ends before the declared length is produced.
    Truncated,
    /// A match points before the start of the output.
    BadDistance {
        /// Output length when the bad reference was seen.
        at: usize,
        /// The offending backward distance.
        distance: usize,
    },
    /// The token stream would overrun the declared decompressed length.
    Overrun,
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::BadMagic => write!(f, "not a TKZ1 payload (bad magic)"),
            LzError::Truncated => write!(f, "TKZ1 payload is truncated"),
            LzError::BadDistance { at, distance } => {
                write!(f, "match distance {distance} at output byte {at} points before the stream")
            }
            LzError::Overrun => write!(f, "token stream overruns the declared length"),
        }
    }
}

impl std::error::Error for LzError {}

/// Compresses `input` into a self-describing `TKZ1` payload.
///
/// Worst case (incompressible input) costs 1 flag byte per 8 literals
/// (+12.5%) plus the 12-byte header; typical JSONL trajectories shrink
/// 3–10×.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());

    // Last few positions of each 3-byte prefix, newest first.
    let mut table: HashMap<u32, [usize; CANDIDATES]> = HashMap::new();
    let mut filled: HashMap<u32, usize> = HashMap::new();

    let mut i = 0;
    let mut group: Vec<(bool, [u8; 2], u8)> = Vec::with_capacity(8);
    let mut flags: u8 = 0;

    // Flushes one flag byte + its tokens.
    let flush = |out: &mut Vec<u8>, flags: u8, group: &mut Vec<(bool, [u8; 2], u8)>| {
        if group.is_empty() {
            return;
        }
        out.push(flags);
        for (is_match, pair, lit) in group.iter() {
            if *is_match {
                out.extend_from_slice(pair);
            } else {
                out.push(*lit);
            }
        }
        group.clear();
    };

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let key = hash3(&input[i..]);
            if let Some(positions) = table.get(&key) {
                let n = *filled.get(&key).unwrap_or(&0);
                for &pos in positions.iter().take(n) {
                    let dist = i - pos;
                    if dist == 0 || dist > WINDOW {
                        continue;
                    }
                    // Overlapping matches are legal (dist < len ⇒ RLE).
                    let limit = (input.len() - i).min(MAX_MATCH);
                    let mut len = 0;
                    while len < limit && input[pos + len % dist.max(1)] == input[i + len] {
                        // Compare against the *source region modulo dist* so
                        // overlap semantics match the decoder's byte-by-byte
                        // copy.
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_dist = dist;
                        if len == limit {
                            break;
                        }
                    }
                }
            }
        }

        if best_len >= MIN_MATCH {
            let token = (((best_dist - 1) as u16) << 4) | ((best_len - MIN_MATCH) as u16);
            flags |= 1 << group.len();
            group.push((true, token.to_le_bytes(), 0));
            // Index every covered position so later matches can refer into
            // this region too.
            let end = i + best_len;
            while i < end {
                insert(&mut table, &mut filled, input, i);
                i += 1;
            }
        } else {
            group.push((false, [0; 2], input[i]));
            insert(&mut table, &mut filled, input, i);
            i += 1;
        }
        if group.len() == 8 {
            flush(&mut out, flags, &mut group);
            flags = 0;
        }
    }
    flush(&mut out, flags, &mut group);
    out
}

fn hash3(bytes: &[u8]) -> u32 {
    (bytes[0] as u32) | ((bytes[1] as u32) << 8) | ((bytes[2] as u32) << 16)
}

fn insert(
    table: &mut HashMap<u32, [usize; CANDIDATES]>,
    filled: &mut HashMap<u32, usize>,
    input: &[u8],
    pos: usize,
) {
    if pos + MIN_MATCH > input.len() {
        return;
    }
    let key = hash3(&input[pos..]);
    let slots = table.entry(key).or_insert([0; CANDIDATES]);
    slots.rotate_right(1);
    slots[0] = pos;
    let n = filled.entry(key).or_insert(0);
    *n = (*n + 1).min(CANDIDATES);
}

/// Decompresses a `TKZ1` payload produced by [`compress`].
///
/// The length header is untrusted: a token byte expands to at most
/// `MAX_MATCH / 2` = 9 output bytes (a literal yields 1, a 2-byte match at
/// most [`MAX_MATCH`]), so a header claiming more than 9 × the token bytes
/// is rejected as [`LzError::Truncated`] before anything is allocated.
/// Token bytes left over once the declared length is produced are an
/// [`LzError::Overrun`].
pub fn decompress(payload: &[u8]) -> Result<Vec<u8>, LzError> {
    if payload.len() < 12 || &payload[..4] != MAGIC {
        return Err(LzError::BadMagic);
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&payload[4..12]);
    let mut rest = &payload[12..];
    let max_total = (rest.len() as u64).saturating_mul((MAX_MATCH / 2) as u64);
    let total = u64::from_le_bytes(len_bytes);
    if total > max_total {
        return Err(LzError::Truncated);
    }
    let total = total as usize;
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let (&flags, tokens) = rest.split_first().ok_or(LzError::Truncated)?;
        rest = tokens;
        for bit in 0..8 {
            if out.len() == total {
                break;
            }
            if flags & (1 << bit) != 0 {
                if rest.len() < 2 {
                    return Err(LzError::Truncated);
                }
                let token = u16::from_le_bytes([rest[0], rest[1]]);
                rest = &rest[2..];
                let distance = ((token >> 4) as usize) + 1;
                let length = ((token & 0xF) as usize) + MIN_MATCH;
                if distance > out.len() {
                    return Err(LzError::BadDistance {
                        at: out.len(),
                        distance,
                    });
                }
                if out.len() + length > total {
                    return Err(LzError::Overrun);
                }
                // Byte-by-byte: overlapping references (dist < len)
                // replicate the just-written bytes, which is what makes
                // runs compress.
                let start = out.len() - distance;
                for k in 0..length {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                let (&b, r) = rest.split_first().ok_or(LzError::Truncated)?;
                rest = r;
                if out.len() + 1 > total {
                    return Err(LzError::Overrun);
                }
                out.push(b);
            }
        }
    }
    if !rest.is_empty() {
        return Err(LzError::Overrun);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RngCore, StdRng};

    fn round_trip(data: &[u8]) {
        let z = compress(data);
        let back = decompress(&z).unwrap();
        assert_eq!(back, data, "round trip of {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn runs_compress_as_rle() {
        let data = vec![b'x'; 10_000];
        let z = compress(&data);
        // Matches cap at MAX_MATCH = 18 bytes (2 token bytes + 1/8 flag
        // byte each), so a pure run approaches 18/2.25 = 8x.
        assert!(
            z.len() < data.len() / 7,
            "10k run should shrink >7x, got {} bytes",
            z.len()
        );
        assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn jsonl_like_text_compresses_well() {
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!(
                "{{\"schema\":\"tensorkmc.metrics.v1\",\"type\":\"sample\",\"step\":{i},\"sim_time_s\":{}}}\n",
                i as f64 * 1.5e-9
            ));
        }
        let z = compress(text.as_bytes());
        assert!(
            z.len() * 3 < text.len(),
            "repetitive JSONL should shrink >3x: {} -> {}",
            text.len(),
            z.len()
        );
        assert_eq!(decompress(&z).unwrap(), text.as_bytes());
    }

    #[test]
    fn random_bytes_round_trip_with_bounded_overhead() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 64, 1000, 5000] {
            let data: Vec<u8> = (0..n).map(|_| (rng.next_u32() & 0xFF) as u8).collect();
            let z = compress(&data);
            // Worst case: 12-byte header + 1 flag byte per 8 literals.
            assert!(z.len() <= 12 + n + n / 8 + 1, "{n}: {} bytes", z.len());
            assert_eq!(decompress(&z).unwrap(), data);
        }
    }

    #[test]
    fn random_structured_blobs_round_trip() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = (rng.next_u32() % 4000) as usize;
            // A small alphabet forces plenty of matches at many offsets.
            let data: Vec<u8> = (0..n).map(|_| b'a' + (rng.next_u32() % 4) as u8).collect();
            round_trip(&data);
        }
    }

    #[test]
    fn bit_flips_are_typed_errors_without_panics() {
        use crate::prop::check;
        use crate::rng::Rng;
        check(|g| {
            let n = g.gen_range(0..2000usize);
            let data: Vec<u8> = (0..n).map(|_| b'a' + g.gen_range(0..4u8)).collect();
            let z = compress(&data);
            // Any flip in the length header is caught: a larger claim runs
            // out of tokens (or exceeds the maximum expansion, which is
            // checked before allocating), a smaller one leaves tokens over.
            let bit = g.gen_range(0..64usize);
            let mut bad = z.clone();
            bad[4 + bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(decompress(&bad), Err(LzError::Truncated | LzError::Overrun)),
                "length bit {bit} of a {n}-byte payload"
            );
            // A flip in the token stream may still decode (a literal byte
            // changes), but never panics and never exceeds the header.
            if z.len() > 12 {
                let bit = g.gen_range(0..(z.len() - 12) * 8);
                let mut bad = z.clone();
                bad[12 + bit / 8] ^= 1 << (bit % 8);
                if let Ok(out) = decompress(&bad) {
                    assert_eq!(out.len(), n, "token bit {bit}");
                }
            }
        });
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        assert_eq!(decompress(b"nope"), Err(LzError::BadMagic));
        assert_eq!(decompress(b""), Err(LzError::BadMagic));
        let mut z = compress(b"hello hello hello hello");
        // Declare more output than the tokens produce.
        z[4] = 0xFF;
        assert!(matches!(
            decompress(&z),
            Err(LzError::Truncated) | Err(LzError::Overrun)
        ));
        // A 1 TiB claim is refused before anything is allocated.
        z[4..12].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(decompress(&z), Err(LzError::Truncated));
        // A match token at output position 0 has nothing to refer to.
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.extend_from_slice(&8u64.to_le_bytes());
        forged.push(0b0000_0001); // first token is a match
        forged.extend_from_slice(&0u16.to_le_bytes()); // dist 1, len 3
        assert!(matches!(
            decompress(&forged),
            Err(LzError::BadDistance { .. })
        ));
    }

    #[test]
    fn truncated_payload_is_detected() {
        let z = compress(b"the quick brown fox jumps over the lazy dog, twice over");
        for cut in [12, z.len() - 1, z.len() - 3] {
            assert!(
                decompress(&z[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }
}
