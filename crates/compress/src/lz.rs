//! An LZ77-family byte codec.
//!
//! The format is a simplified LZ4-style token stream tuned for 4 KiB
//! pages:
//!
//! * control byte with high bit **clear**: a literal run of
//!   `(control + 1)` bytes (1..=128) follows;
//! * control byte with high bit **set**: a back-reference of length
//!   `(control & 0x7f) + MIN_MATCH` (4..=131) at the 16-bit little-endian
//!   offset that follows (1..=65535, within the already-decoded output).
//!
//! The compressor uses a greedy hash-chain matcher over 4-byte prefixes.
//! It is deliberately small and allocation-light rather than maximally
//! tight: the experiments depend on *relative* compressibility across
//! workloads, which this codec preserves.
//!
//! Until a call emits its first match, a bitset of the 4-byte values it
//! has inserted lets the matcher skip the chain walk at a position whose
//! value it has not seen: no candidate could pass the walk's 4-byte
//! probe. Positions a match covers go into the chains unmarked, so the
//! filter stops at the first match, and streams and accept/reject
//! decisions are those of walking at every position.

/// Minimum back-reference length; shorter matches are emitted as literals.
pub(crate) const MIN_MATCH: usize = 4;
/// Maximum back-reference length encodable in one token.
pub(crate) const MAX_MATCH: usize = MIN_MATCH + 0x7f;
/// Maximum literal run per token.
const MAX_LITERAL_RUN: usize = 128;
/// Window: the full page (offsets are 16-bit).
const MAX_OFFSET: usize = u16::MAX as usize;

const HASH_BITS: u32 = 12;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Bits of the no-match filter (4 KiB, on the stack of each call).
const SEEN_BITS: u32 = 15;

/// Hash of a 4-byte prefix, read as one little-endian `u32`.
#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The no-match filter's bit for a 4-byte prefix: a second hash, with a
/// multiplier of its own, so its collisions are not `hash4`'s.
#[inline]
fn seen_bit(v: u32) -> usize {
    (v.wrapping_mul(0x85eb_ca77) >> (32 - SEEN_BITS)) as usize
}

#[inline]
fn read_u32(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + 4].try_into().expect("4 bytes in bounds"))
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped at
/// `limit`. Both `a + limit` and `b + limit` must be in bounds.
#[inline]
fn match_len(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut len = 0;
    while len + 8 <= limit {
        let x = u64::from_le_bytes(input[a + len..a + len + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(input[b + len..b + len + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && input[a + len] == input[b + len] {
        len += 1;
    }
    len
}

/// Hash-chain tables reused across calls without ever being cleared.
///
/// `head[h]` is the most recent position with hash `h`; `prev[p]` is the
/// position before `p` in its chain. Both store `position + base`, and
/// each call moves `base` past its input, so every value an earlier call
/// left behind is below the current `base` and reads as an empty slot.
/// `prev[p]` is only read for positions inserted by the same call (chains
/// start at `head`), so `prev` never needs clearing at all, and `head`
/// only when `base` would overflow `u32`.
struct Matcher {
    head: Box<[u32; HASH_SIZE]>,
    prev: Vec<u32>,
    base: u32,
}

impl Matcher {
    fn new() -> Self {
        // Zeroed tables with `base = 1`: every slot starts out empty.
        Matcher {
            head: Box::new([0; HASH_SIZE]),
            prev: Vec::new(),
            base: 1,
        }
    }

    /// Readies the tables for an input of `len` bytes.
    fn begin(&mut self, len: usize) {
        let len = u32::try_from(len).expect("lz input below 4 GiB");
        if self.base.checked_add(len).is_none() {
            self.head.fill(0);
            self.base = 1;
        }
        if self.prev.len() < len as usize {
            self.prev.resize(len as usize, 0);
        }
    }

    /// Retires the input of `len` bytes just compressed: its entries go
    /// stale.
    fn end(&mut self, len: usize) {
        self.base += len as u32;
    }
}

std::thread_local! {
    static MATCHER: std::cell::RefCell<Matcher> = std::cell::RefCell::new(Matcher::new());
}

/// Compresses `input`, returning the token stream.
///
/// The output may be longer than the input for incompressible data;
/// callers that need a bound should compare lengths and keep the raw
/// bytes instead (as [`crate::PageCodec`] does).
///
/// # Examples
///
/// ```
/// use dmem_compress::lz;
///
/// let data = b"abcabcabcabcabcabc".to_vec();
/// let packed = lz::compress(&data);
/// assert!(packed.len() < data.len());
/// assert_eq!(lz::decompress(&packed, data.len()).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out);
    out
}

/// [`compress`] into a caller-provided buffer, reusing its capacity.
///
/// The buffer is cleared first; on return it holds exactly the token
/// stream. Together with the thread-local matcher scratch this makes
/// steady-state compression allocation-free once buffers have grown to
/// their working size.
pub(crate) fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    compress_within(input, usize::MAX, out);
}

/// Compresses `input` only if the token stream fits in `max_len` bytes.
///
/// Returns `true` with the complete stream in `out` (byte-identical to
/// [`compress`]) when it fits, and `false` as soon as the stream is
/// provably longer — without finishing the match search. Callers that
/// fall back to raw storage above a size threshold (the page codec, for
/// which any stream over the largest sub-page size class means "store
/// raw") use this to stop paying the matcher for incompressible input;
/// the accept/reject decision is exactly that of running [`compress`] to
/// completion and comparing lengths.
pub fn compress_within(input: &[u8], max_len: usize, out: &mut Vec<u8>) -> bool {
    out.clear();
    MATCHER.with(|matcher| {
        let matcher = &mut *matcher.borrow_mut();
        matcher.begin(input.len());
        let fits = compress_with(input, out, matcher, max_len);
        matcher.end(input.len());
        fits
    })
}

fn compress_with(input: &[u8], out: &mut Vec<u8>, m: &mut Matcher, max_len: usize) -> bool {
    let Matcher { head, prev, base } = m;
    let base = *base;
    // Sliced to the input once, so `prev[i]` needs no bounds check.
    let prev = &mut prev[..input.len()];
    let mut literal_start = 0usize;
    let mut i = 0usize;
    // The no-match filter: until the first match, the bit of every
    // inserted position's 4-byte value. See the loop for why it is exact.
    let mut seen = [0u64; 1 << (SEEN_BITS - 6)];
    let mut filtering = true;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut start = from;
        while start < to {
            let run = (to - start).min(MAX_LITERAL_RUN);
            out.push((run - 1) as u8);
            out.extend_from_slice(&input[start..start + run]);
            start += run;
        }
    };

    while i + MIN_MATCH <= input.len() {
        // Emitted bytes plus pending literals (everything before `i` not
        // covered by a match is committed to literal emission) is a lower
        // bound on the final stream length — once past the budget, stop
        // searching.
        if out.len() + (i - literal_start) > max_len {
            return false;
        }
        let cur4 = read_u32(input, i);
        let h = hash4(cur4);
        // Until the call's first match, every position in the chains was
        // inserted here, with its value's bit set. A clear bit means no
        // inserted position holds `cur4`, so every candidate of the walk
        // would fail its 4-byte probe, no match could be found, and the
        // walk can be skipped: the position goes into the chains exactly
        // as after a fruitless walk. A set bit (perhaps a collision) walks
        // as before. A match inserts the positions it covers without
        // setting their bits, so from the first match on a clear bit
        // proves nothing and filtering stops. Streams, and the budget
        // check above, are unchanged.
        if filtering {
            let bit = seen_bit(cur4);
            let (word, mask) = (&mut seen[bit / 64], 1u64 << (bit % 64));
            if *word & mask == 0 {
                *word |= mask;
                prev[i] = head[h];
                head[h] = i as u32 + base;
                i += 1;
                continue;
            }
        }
        let limit = (input.len() - i).min(MAX_MATCH);
        // Walk the chain looking for the longest match. Slots below
        // `floor` are stale or farther back than an offset can reach, and
        // chains are position-ordered, so the first one ends the walk.
        let floor = base + i.saturating_sub(MAX_OFFSET) as u32;
        let mut best_len = 0usize;
        let mut best_pos = 0usize;
        let mut slot = head[h];
        let mut probes = 16; // bounded effort per position
        while probes > 0 && slot >= floor {
            let candidate = (slot - base) as usize;
            // Only a strictly longer match replaces the best, so a
            // candidate that differs at byte `best_len` cannot win; one
            // failing the 4-byte probe scores below MIN_MATCH, which never
            // changes the stream. Either way its byte scan is skipped.
            if input[candidate + best_len] == input[i + best_len]
                && read_u32(input, candidate) == cur4
            {
                let len = match_len(input, candidate, i, limit);
                if len > best_len {
                    best_len = len;
                    best_pos = candidate;
                    if len == limit {
                        break;
                    }
                }
            }
            slot = prev[candidate];
            probes -= 1;
        }

        prev[i] = head[h];
        head[h] = i as u32 + base;
        if best_len >= MIN_MATCH {
            filtering = false;
            flush_literals(out, literal_start, i, input);
            let offset = (i - best_pos) as u16;
            out.push(0x80 | (best_len - MIN_MATCH) as u8);
            out.extend_from_slice(&offset.to_le_bytes());
            // Insert the covered positions into the hash chains so later
            // matches can reference them: each position's 4-byte window,
            // up to the last one that fits in the input.
            let end = (i + best_len).min(input.len() - (MIN_MATCH - 1));
            let windows = input[i + 1..end + MIN_MATCH - 1].windows(MIN_MATCH);
            for ((p, window), link) in (i + 1..).zip(windows).zip(&mut prev[i + 1..end]) {
                let h = hash4(u32::from_le_bytes(window.try_into().expect("4-byte window")));
                *link = head[h];
                head[h] = p as u32 + base;
            }
            i += best_len;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(out, literal_start, input.len(), input);
    out.len() <= max_len
}

/// The matcher as it was before its loop was tightened, kept verbatim as
/// the differential oracle for [`compress_within`]: the same decisions
/// and streams, from tables built fresh for every call.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) struct Matcher {
        head: Vec<u32>,
        prev: Vec<u32>,
        base: u32,
    }

    impl Matcher {
        fn position(&self, slot: u32) -> Option<usize> {
            slot.checked_sub(self.base).map(|p| p as usize)
        }

        fn insert(&mut self, h: usize, p: usize) {
            self.prev[p] = self.head[h];
            self.head[h] = p as u32 + self.base;
        }
    }

    pub(super) fn compress_within(input: &[u8], max_len: usize, out: &mut Vec<u8>) -> bool {
        out.clear();
        let mut matcher = Matcher {
            head: vec![0; HASH_SIZE],
            prev: vec![0; input.len()],
            base: 1,
        };
        compress_with(input, out, &mut matcher, max_len)
    }

    fn compress_with(input: &[u8], out: &mut Vec<u8>, m: &mut Matcher, max_len: usize) -> bool {
        let mut literal_start = 0usize;
        let mut i = 0usize;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
            let mut start = from;
            while start < to {
                let run = (to - start).min(MAX_LITERAL_RUN);
                out.push((run - 1) as u8);
                out.extend_from_slice(&input[start..start + run]);
                start += run;
            }
        };

        while i + MIN_MATCH <= input.len() {
            // Emitted bytes plus pending literals (everything before `i` not
            // covered by a match is committed to literal emission) is a lower
            // bound on the final stream length — once past the budget, stop
            // searching.
            if out.len() + (i - literal_start) > max_len {
                return false;
            }
            let cur4 = read_u32(input, i);
            let h = hash4(cur4);
            // Walk the chain looking for the longest match.
            let mut best_len = 0usize;
            let mut best_pos = 0usize;
            let mut slot = m.head[h];
            let mut probes = 16; // bounded effort per position
            while probes > 0 {
                let Some(candidate) = m.position(slot) else {
                    break;
                };
                if i - candidate > MAX_OFFSET {
                    break; // chains are position-ordered; older is farther
                }
                // An accepted match needs at least MIN_MATCH = 4 leading
                // bytes; a candidate failing the 4-byte probe could only score
                // a sub-minimum length, which never changes the emitted
                // stream — skip its byte scan.
                if read_u32(input, candidate) == cur4 {
                    let limit = (input.len() - i).min(MAX_MATCH);
                    let len = match_len(input, candidate, i, limit);
                    if len > best_len {
                        best_len = len;
                        best_pos = candidate;
                        if len == limit {
                            break;
                        }
                    }
                }
                slot = m.prev[candidate];
                probes -= 1;
            }

            if best_len >= MIN_MATCH {
                flush_literals(out, literal_start, i, input);
                let offset = (i - best_pos) as u16;
                out.push(0x80 | (best_len - MIN_MATCH) as u8);
                out.extend_from_slice(&offset.to_le_bytes());
                // Insert the covered positions into the hash chains so later
                // matches can reference them.
                let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
                m.insert(h, i);
                for p in i + 1..end {
                    m.insert(hash4(read_u32(input, p)), p);
                }
                i += best_len;
                literal_start = i;
            } else {
                m.insert(h, i);
                i += 1;
            }
        }
        flush_literals(out, literal_start, input.len(), input);
        out.len() <= max_len
    }
}

/// Errors produced by [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// The stream ended in the middle of a token.
    Truncated,
    /// A back-reference pointed before the start of the output.
    BadOffset {
        /// The offending offset.
        offset: usize,
        /// Output length at that point.
        have: usize,
    },
    /// The stream decoded to a different length than expected.
    LengthMismatch {
        /// Expected output length.
        expected: usize,
        /// Actual decoded length.
        actual: usize,
    },
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::Truncated => write!(f, "compressed stream truncated"),
            LzError::BadOffset { offset, have } => {
                write!(f, "back-reference offset {offset} exceeds decoded length {have}")
            }
            LzError::LengthMismatch { expected, actual } => {
                write!(f, "decoded {actual} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for LzError {}

/// Decompresses a token stream produced by [`compress`].
///
/// `expected_len` is the original input length (stored out-of-band by the
/// page codec, since pages have a fixed size).
///
/// # Errors
///
/// Returns an [`LzError`] if the stream is truncated, contains an invalid
/// back-reference, or does not decode to `expected_len` bytes.
pub fn decompress(stream: &[u8], expected_len: usize) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::with_capacity(expected_len);
    decompress_into(stream, expected_len, &mut out)?;
    Ok(out)
}

/// [`decompress`] into a caller-provided buffer, reusing its capacity.
///
/// The buffer is cleared first; on success it holds exactly the decoded
/// bytes. On error the buffer contents are unspecified.
///
/// # Errors
///
/// Same as [`decompress`].
pub(crate) fn decompress_into(
    stream: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), LzError> {
    out.clear();
    let mut i = 0usize;
    while i < stream.len() {
        let control = stream[i];
        i += 1;
        if control & 0x80 == 0 {
            let run = control as usize + 1;
            if i + run > stream.len() {
                return Err(LzError::Truncated);
            }
            out.extend_from_slice(&stream[i..i + run]);
            i += run;
        } else {
            if i + 2 > stream.len() {
                return Err(LzError::Truncated);
            }
            let len = (control & 0x7f) as usize + MIN_MATCH;
            let offset = u16::from_le_bytes([stream[i], stream[i + 1]]) as usize;
            i += 2;
            if offset == 0 || offset > out.len() {
                return Err(LzError::BadOffset {
                    offset,
                    have: out.len(),
                });
            }
            let start = out.len() - offset;
            if offset >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping copies are legal (e.g. offset 1 repeats a
                // byte): each byte may be one this copy just wrote.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if out.len() != expected_len {
        return Err(LzError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        decompress(&compress(data), data.len()).expect("roundtrip")
    }

    #[test]
    fn empty_input() {
        assert_eq!(compress(&[]), Vec::<u8>::new());
        assert_eq!(decompress(&[], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bounded_compress_matches_unbounded_when_within_budget() {
        let mut page = vec![0u8; 4096];
        for (i, byte) in page.iter_mut().enumerate() {
            *byte = (i / 64) as u8; // long runs: highly compressible
        }
        let full = compress(&page);
        assert!(full.len() <= 2048, "test page must fit the budget");
        let mut bounded = Vec::new();
        assert!(compress_within(&page, 2048, &mut bounded));
        assert_eq!(bounded, full, "bounded stream must be byte-identical");
    }

    #[test]
    fn bounded_compress_bails_on_incompressible_input() {
        // A simple xorshift fills the page with incompressible noise.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut page = vec![0u8; 4096];
        for byte in page.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = state as u8;
        }
        assert!(compress(&page).len() > 2048, "noise page must overflow");
        let mut bounded = Vec::new();
        assert!(!compress_within(&page, 2048, &mut bounded));
    }

    #[test]
    fn base_wrap_leaves_streams_unchanged() {
        let inputs: Vec<Vec<u8>> = (0..6usize)
            .map(|k| (0..4096usize).map(|i| ((i / (k + 3)) ^ (i % 7)) as u8).collect())
            .collect();
        let expected: Vec<Vec<u8>> = inputs.iter().map(|d| compress(d)).collect();
        // Two inputs still fit below u32::MAX; the third forces the reset.
        let near_wrap = u32::MAX - 2 * 4096 - 100;
        MATCHER.with(|m| m.borrow_mut().base = near_wrap);
        let streams: Vec<Vec<u8>> = inputs.iter().map(|d| compress(d)).collect();
        let base = MATCHER.with(|m| m.borrow().base);
        assert!(base < near_wrap, "the tables must have been reset");
        assert_eq!(streams, expected);
    }

    #[test]
    fn zero_page_compresses_hard() {
        let page = vec![0u8; 4096];
        let packed = compress(&page);
        assert!(packed.len() < 200, "zero page packed to {}", packed.len());
        assert_eq!(roundtrip(&page), page);
    }

    #[test]
    fn repeated_motif() {
        let page: Vec<u8> = (0..4096).map(|i| b"hello world! "[i % 13]).collect();
        let packed = compress(&page);
        assert!(packed.len() < page.len() / 4);
        assert_eq!(roundtrip(&page), page);
    }

    #[test]
    fn random_data_still_roundtrips() {
        let mut rng = dmem_sim::DetRng::new(1);
        let mut page = vec![0u8; 4096];
        rng.fill_bytes(&mut page);
        let packed = compress(&page);
        // Incompressible: expansion is bounded by the per-run control byte.
        assert!(packed.len() <= page.len() + page.len() / MAX_LITERAL_RUN + 1);
        assert_eq!(roundtrip(&page), page);
    }

    #[test]
    fn overlapping_match_offset_one() {
        let mut data = vec![7u8];
        data.extend(std::iter::repeat_n(7u8, 300));
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn truncated_literal_rejected() {
        // Control byte promises 4 literals, stream has 1.
        assert_eq!(decompress(&[3, 0xAA], 4), Err(LzError::Truncated));
    }

    #[test]
    fn truncated_match_rejected() {
        assert_eq!(decompress(&[0x80, 1], 10), Err(LzError::Truncated));
    }

    #[test]
    fn bad_offset_rejected() {
        // One literal, then a match at offset 5 with only 1 byte decoded.
        let stream = vec![0, 0xAA, 0x80, 5, 0];
        assert!(matches!(
            decompress(&stream, 5),
            Err(LzError::BadOffset { offset: 5, have: 1 })
        ));
    }

    #[test]
    fn zero_offset_rejected() {
        let stream = vec![0, 0xAA, 0x80, 0, 0];
        assert!(matches!(decompress(&stream, 5), Err(LzError::BadOffset { .. })));
    }

    #[test]
    fn length_mismatch_detected() {
        let packed = compress(b"abcd");
        assert!(matches!(
            decompress(&packed, 5),
            Err(LzError::LengthMismatch { expected: 5, actual: 4 })
        ));
    }

    #[test]
    fn into_variants_reuse_buffers_and_match_allocating_api() {
        let mut packed = Vec::new();
        let mut out = Vec::new();
        for rep in 1..6usize {
            let data: Vec<u8> = (0..512 * rep).map(|i| (i / 7) as u8).collect();
            compress_into(&data, &mut packed);
            assert_eq!(packed, compress(&data), "rep {rep}");
            decompress_into(&packed, data.len(), &mut out).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            LzError::Truncated,
            LzError::BadOffset { offset: 9, have: 1 },
            LzError::LengthMismatch {
                expected: 1,
                actual: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// An input built from `segments` of `(kind, len, seed)`, taken in
    /// turn until `len` bytes: random bytes, an 8-byte motif, a
    /// same-filled run, or a copy of earlier input (a match at an offset
    /// the seed picks).
    fn mixed_input(segments: &[(u8, usize, u64)], len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        for &(kind, seg_len, seed) in segments.iter().cycle() {
            if data.len() == len {
                break;
            }
            let seg_len = seg_len.min(len - data.len());
            match kind {
                0 => {
                    let mut state = seed | 1;
                    data.extend((0..seg_len).map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    }));
                }
                1 => data.extend(seed.to_le_bytes().iter().cycle().take(seg_len)),
                2 => data.extend(std::iter::repeat_n(seed as u8, seg_len)),
                _ => {
                    let from = if data.is_empty() { 0 } else { seed as usize % data.len() };
                    for k in 0..seg_len {
                        let b = data.get(from + k).copied().unwrap_or(seed as u8);
                        data.push(b);
                    }
                }
            }
        }
        data
    }

    /// `compress_within` against the verbatim reference matcher: the same
    /// accept/reject decision at every budget, and the same stream when
    /// accepted.
    fn assert_matches_reference(input: &[u8]) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for budget in [512, 1024, 2048, usize::MAX] {
            let accepted = compress_within(input, budget, &mut got);
            assert_eq!(
                accepted,
                reference::compress_within(input, budget, &mut want),
                "decision at budget {budget}, input of {}",
                input.len()
            );
            if accepted {
                assert!(got == want, "stream at budget {budget}, input of {}", input.len());
            }
        }
    }

    #[test]
    fn matches_reference_past_the_window() {
        // 160 KiB, with copies both inside and beyond the 64 KiB window.
        let segments = [
            (0, 20_000, 7),
            (3, 3_000, 1_234),
            (1, 9_000, 0x0102_0304_0506_0708),
            (0, 30_000, 99),
            (3, 5_000, 11),
            (2, 4_000, 0xAB),
        ];
        let mut input = mixed_input(&segments, 160 * 1024);
        // Random bytes repeated at exactly the largest offset and at one
        // past it, across a same-filled gap that keeps their chains short.
        input[1_200..70_000].fill(0x5A);
        input.copy_within(1_000..1_100, 1_000 + MAX_OFFSET);
        input.copy_within(1_100..1_200, 1_101 + MAX_OFFSET);
        assert_matches_reference(&input);
    }

    fn xorshift_bytes(mut state: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    /// The no-match filter's edge (the same inputs as `lz_stream_pin`'s
    /// second digest): a 4-byte value first inserted inside a match and
    /// repeated after a literal run, which a filter still on after the
    /// first match would not look up; and incompressible → motif →
    /// incompressible pages, which turn the filter off midway.
    #[test]
    fn filter_edge_matches_reference() {
        for seed in 1..=8u64 {
            // A random block, its copy (one match up to byte 128), fresh
            // bytes, a literal run, then the bytes from just before the
            // copy's end on.
            let block = xorshift_bytes(seed, 64);
            let mut input = block.clone();
            input.extend_from_slice(&block);
            input.extend(xorshift_bytes(seed + 100, 40));
            input.extend(xorshift_bytes(seed + 200, 300));
            let back = (seed % 3) as usize;
            input.extend_from_within(127 - back..168);
            input.extend(xorshift_bytes(seed + 300, 50));
            assert_matches_reference(&input);

            let split = 256 * seed as usize;
            let motif = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes();
            let mut page = xorshift_bytes(seed + 400, split);
            page.extend(motif.iter().cycle().take(1024));
            page.extend(xorshift_bytes(seed + 500, 4096 - split - 1024));
            assert_matches_reference(&page);
        }
    }

    proptest! {
        #[test]
        fn prop_matches_reference(
            segments in proptest::collection::vec((0u8..4, 1usize..2500, any::<u64>()), 1..10),
            len in 0usize..=9000,
        ) {
            assert_matches_reference(&mixed_input(&segments, len));
        }

        #[test]
        fn prop_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(roundtrip(&data), data);
        }

        #[test]
        fn prop_roundtrip_structured(motif in proptest::collection::vec(any::<u8>(), 1..32), reps in 1usize..256) {
            let data: Vec<u8> = motif.iter().cycle().take(motif.len() * reps).copied().collect();
            prop_assert_eq!(roundtrip(&data), data);
        }

        #[test]
        fn prop_structured_beats_random_size(seed in 0u64..100) {
            let mut rng = dmem_sim::DetRng::new(seed);
            let mut random = vec![0u8; 1024];
            rng.fill_bytes(&mut random);
            let structured: Vec<u8> = (0..1024).map(|i| (i / 64) as u8).collect();
            prop_assert!(compress(&structured).len() < compress(&random).len());
        }
    }
}
