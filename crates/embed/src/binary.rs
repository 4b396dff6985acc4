//! Versioned binary persistence for embeddings.
//!
//! The text format in [`crate::io`] is the interchange format; this is the
//! compact format: fixed-width little-endian `f32` rows that stream-decode
//! with no per-token parsing. (The mmap-able serving container lives in
//! `v2v-store`; this v1 layout remains the interchange/compat format.)
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size            field
//! 0       4               magic  b"V2VE"
//! 4       4               format version (currently 1)
//! 8       4               dimensions (u32, > 0)
//! 12      8               vertex count (u64)
//! 20      4*count*dims    row-major f32 vectors
//! end-8   8               FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! The trailing checksum turns silent truncation or bit rot into a hard
//! load error instead of a corrupted index.

use crate::embedding::Embedding;
use std::io::{Read, Write};
use v2v_base::hash::{fnv1a64, FNV_OFFSET};

/// File magic: "V2V Embedding".
pub const MAGIC: [u8; 4] = *b"V2VE";

/// Current format version, bumped on layout changes.
pub const FORMAT_VERSION: u32 = 1;

/// Errors while reading or writing a binary embedding file.
#[derive(Debug)]
pub enum BinaryIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content (bad magic/version/shape/checksum).
    Format(String),
}

impl std::fmt::Display for BinaryIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryIoError::Io(e) => write!(f, "i/o error: {e}"),
            BinaryIoError::Format(msg) => write!(f, "binary embedding format error: {msg}"),
        }
    }
}

impl std::error::Error for BinaryIoError {}

impl From<std::io::Error> for BinaryIoError {
    fn from(e: std::io::Error) -> Self {
        BinaryIoError::Io(e)
    }
}

/// Whether `head` starts with the binary-embedding magic (format sniffing
/// for loaders that accept both text and binary files).
pub fn is_binary_header(head: &[u8]) -> bool {
    head.len() >= MAGIC.len() && head[..MAGIC.len()] == MAGIC
}

/// Writes `emb` in the binary format described in the module docs.
pub fn write_embedding_binary<W: Write>(emb: &Embedding, mut w: W) -> Result<(), BinaryIoError> {
    let mut header = Vec::with_capacity(20);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(emb.dimensions() as u32).to_le_bytes());
    header.extend_from_slice(&(emb.len() as u64).to_le_bytes());

    let mut payload = Vec::with_capacity(emb.as_flat().len() * 4);
    for &x in emb.as_flat() {
        payload.extend_from_slice(&x.to_le_bytes());
    }

    let checksum = fnv1a64(fnv1a64(FNV_OFFSET, &header), &payload);
    w.write_all(&header)?;
    w.write_all(&payload)?;
    w.write_all(&checksum.to_le_bytes())?;
    Ok(())
}

/// Reads `buf.len()` bytes exactly, turning a clean EOF into a typed
/// truncation error naming the section that ran short.
fn read_section<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), BinaryIoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            BinaryIoError::Format(format!("truncated while reading {what}"))
        } else {
            BinaryIoError::Io(e)
        }
    })
}

/// Reads an embedding written by [`write_embedding_binary`], rejecting
/// wrong magic, unknown versions, shape overflow, truncation, trailing
/// garbage, and checksum mismatches.
///
/// Validation is streaming and section-by-section: the header is read and
/// checked first, then the payload is decoded in fixed-size chunks with
/// the checksum folded incrementally, then the trailer is compared. Peak
/// memory is the decoded `f32` table plus one 64 KiB scratch buffer — the
/// raw file bytes are never buffered whole, which at serving sizes halves
/// the loader's peak RSS relative to a read-to-end-then-parse pass.
pub fn read_embedding_binary<R: Read>(mut r: R) -> Result<Embedding, BinaryIoError> {
    let fail = |msg: String| Err(BinaryIoError::Format(msg));
    let mut header = [0u8; 20];
    read_section(&mut r, &mut header, "the 20-byte header")?;
    if !is_binary_header(&header) {
        return fail("bad magic (not a V2VE file)".into());
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return fail(format!("unsupported format version {version} (expected {FORMAT_VERSION})"));
    }
    let dims = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    let count = u64::from_le_bytes(header[12..20].try_into().unwrap());
    if dims == 0 {
        return fail("zero dimensions".into());
    }
    // Checked all the way down: a wrong-endianness or corrupted header
    // yields astronomical shapes, which must become typed errors, not
    // debug-mode multiply/add panics or release-mode wraparound.
    let payload_bytes = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(dims))
        .and_then(|v| v.checked_mul(4))
        .filter(|b| b.checked_add(28).is_some())
        .ok_or_else(|| BinaryIoError::Format(format!("shape {count} x {dims} overflows")))?;

    let mut hash = fnv1a64(FNV_OFFSET, &header);
    // Grown with the stream, not pre-reserved from the header: a lying
    // count hits the truncation error below after at most one chunk of
    // over-read, instead of pre-allocating an astronomical table.
    let mut data: Vec<f32> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut remaining = payload_bytes;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        read_section(&mut r, &mut chunk[..take], "the vector payload")?;
        hash = fnv1a64(hash, &chunk[..take]);
        // `take` is a multiple of 4 except possibly the final chunk of a
        // file whose byte budget is — by construction — 4-aligned, so
        // chunks_exact never strands bytes.
        data.extend(
            chunk[..take].chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())),
        );
        remaining -= take;
    }

    let mut trailer = [0u8; 8];
    read_section(&mut r, &mut trailer, "the trailing checksum")?;
    let stored = u64::from_le_bytes(trailer);
    if stored != hash {
        return fail(format!("checksum mismatch (stored {stored:#018x}, computed {hash:#018x})"));
    }

    // Anything after the checksum is not ours: reject rather than ignore.
    let mut probe = [0u8; 1];
    loop {
        match r.read(&mut probe) {
            Ok(0) => break,
            Ok(_) => return fail("trailing bytes after checksum".into()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(BinaryIoError::Io(e)),
        }
    }

    Ok(Embedding::from_flat(dims, data))
}

/// [`read_embedding_binary`] over an in-memory buffer.
pub fn parse_embedding_binary(bytes: &[u8]) -> Result<Embedding, BinaryIoError> {
    read_embedding_binary(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Embedding {
        let data: Vec<f32> = (0..6 * 5).map(|i| (i as f32 - 14.5) * 0.25).collect();
        Embedding::from_flat(5, data)
    }

    fn encode(e: &Embedding) -> Vec<u8> {
        let mut buf = Vec::new();
        write_embedding_binary(e, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_exact() {
        let e = sample();
        assert_eq!(read_embedding_binary(encode(&e).as_slice()).unwrap(), e);
    }

    #[test]
    fn roundtrip_preserves_special_values() {
        let e = Embedding::from_flat(2, vec![f32::MAX, f32::MIN_POSITIVE, -0.0, 1e-38]);
        assert_eq!(read_embedding_binary(encode(&e).as_slice()).unwrap(), e);
    }

    #[test]
    fn sniffs_magic() {
        assert!(is_binary_header(&encode(&sample())));
        assert!(!is_binary_header(b"4 5\n0 1.0"));
        assert!(!is_binary_header(b"V2"));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut buf = encode(&sample());
        buf[0] = b'X';
        let err = read_embedding_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn unknown_version_rejected() {
        let mut buf = encode(&sample());
        buf[4] = 99;
        // Version is upstream of the checksum, so it must fail on version,
        // not checksum, to give an actionable message.
        let err = read_embedding_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let buf = encode(&sample());
        for cut in [0, 10, 19, 20, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_embedding_binary(&buf[..cut]).is_err(),
                "accepted a {cut}-byte prefix of a {}-byte file",
                buf.len()
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = encode(&sample());
        buf.push(0);
        assert!(read_embedding_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn payload_bitflip_rejected() {
        let mut buf = encode(&sample());
        let mid = 20 + (buf.len() - 28) / 2;
        buf[mid] ^= 0x40;
        let err = read_embedding_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn zero_dims_rejected() {
        let mut buf = encode(&sample());
        buf[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(read_embedding_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_embedding_roundtrips() {
        let e = Embedding::from_flat(3, Vec::new());
        let back = read_embedding_binary(encode(&e).as_slice()).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.dimensions(), 3);
    }

    /// A file written on a big-endian machine (or with the shape fields
    /// byte-swapped by corruption) decodes to an astronomical count; the
    /// loader must return a typed error, never allocate or panic.
    #[test]
    fn wrong_endianness_header_rejected() {
        let mut buf = encode(&sample());
        buf[8..12].copy_from_slice(&(5u32.to_be_bytes()));   // dims byte-swapped
        buf[12..20].copy_from_slice(&(6u64.to_be_bytes()));  // count byte-swapped
        let err = read_embedding_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, BinaryIoError::Format(_)), "{err}");
    }

    /// A count/dims pair whose byte size overflows `usize` must fail with
    /// the typed overflow error (checked arithmetic, no wraparound).
    #[test]
    fn overflowing_shape_rejected() {
        let mut buf = encode(&sample());
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        buf[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_embedding_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    /// Fuzz-style corruption sweep: flip every byte of the encoded file in
    /// turn (and each bit of the header) — every mutation must either be
    /// rejected with a typed error or decode to the identical embedding
    /// (a flip in an ignored region); nothing may panic or zero-fill.
    #[test]
    fn single_byte_corruptions_never_panic_or_silently_differ() {
        let e = sample();
        let clean = encode(&e);
        for pos in 0..clean.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut buf = clean.clone();
                buf[pos] ^= flip;
                match parse_embedding_binary(&buf) {
                    Err(BinaryIoError::Format(_)) | Err(BinaryIoError::Io(_)) => {}
                    Ok(decoded) => panic!(
                        "corruption at byte {pos} (^{flip:#04x}) was silently accepted \
                         (decoded {} x {})",
                        decoded.len(),
                        decoded.dimensions()
                    ),
                }
            }
        }
    }

    /// Deterministic pseudo-random truncations and splices: arbitrary
    /// prefixes, suffixes, and mid-file deletions all fail typed.
    #[test]
    fn random_truncations_and_splices_rejected() {
        let clean = encode(&sample());
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as usize) % bound
        };
        for _ in 0..200 {
            let cut_at = next(clean.len());
            let cut_len = 1 + next(clean.len() - cut_at);
            let mut buf = clean.clone();
            buf.drain(cut_at..cut_at + cut_len);
            assert!(
                parse_embedding_binary(&buf).is_err(),
                "splice at {cut_at} len {cut_len} accepted"
            );
        }
    }
}
