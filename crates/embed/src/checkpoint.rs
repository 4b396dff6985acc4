//! Training checkpoints: the V2VC chunked binary container.
//!
//! A checkpoint freezes everything SGD needs to continue from an epoch
//! boundary: both weight matrices (`syn0`, the embedding, and `syn1`, the
//! output layer), the learning-rate schedule position (the processed-token
//! counter), the loss history, and a fingerprint binding the checkpoint to
//! the exact config + corpus shape that produced it. Random-walk
//! embeddings are stochastic-but-resumable by construction — per-walk RNG
//! streams are derived from `(seed, epoch, walk index)`, so no mutable RNG
//! state needs saving: restoring the epoch counter restores the streams.
//!
//! Layout (all integers little-endian): FNV-1a checksummed,
//! self-describing chunked sections, so the container can grow without a
//! format break:
//!
//! ```text
//! offset  size   field
//! 0       4      magic  b"V2VC"
//! 4       4      format version (currently 1)
//! 8       4      section count (u32)
//! then per section:
//!         4      tag (b"META" | b"LOSS" | b"SYN0" | b"SYN1")
//!         8      payload length (u64)
//!         len    payload
//!         8      FNV-1a 64 checksum of tag + length + payload
//! ```
//!
//! Per-section checksums mean a torn tail (the crash mode atomic writes
//! prevent at the destination, but which can still strike a copy in
//! flight) is pinpointed to the section it corrupts. Unknown tags are
//! skipped if their checksum holds, so old readers survive new sections.

use crate::config::{Architecture, EmbedConfig, OutputLayer};
use std::path::{Path, PathBuf};
use v2v_base::bytes::{self, seal, unseal, Put, Reader};
use v2v_base::hash::{fnv1a64, FNV_OFFSET};

/// Checkpoint file magic: "V2V Checkpoint".
pub const MAGIC: [u8; 4] = *b"V2VC";

/// Current container version, bumped on layout changes.
pub const FORMAT_VERSION: u32 = 1;

/// File name used inside a `--checkpoint-dir`.
pub const FILE_NAME: &str = "train.v2vc";

/// Errors while reading or writing a checkpoint file.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content (bad magic/version/shape/checksum).
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::Format(msg) => write!(f, "checkpoint format error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The checkpoint file path inside `dir`.
pub fn path_in(dir: &Path) -> PathBuf {
    dir.join(FILE_NAME)
}

/// When and where the trainer checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointOptions {
    /// Directory holding the checkpoint file (created if missing).
    pub dir: PathBuf,
    /// Checkpoint every this many epochs (0 is treated as 1).
    pub every_epochs: usize,
    /// Also checkpoint whenever this many seconds have passed since the
    /// last one, regardless of the epoch cadence.
    pub every_secs: Option<f64>,
    /// Resume from `dir`'s checkpoint if one exists (otherwise start
    /// fresh and begin checkpointing).
    pub resume: bool,
}

impl CheckpointOptions {
    /// Checkpoint into `dir` after every epoch, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointOptions {
        CheckpointOptions { dir: dir.into(), every_epochs: 1, every_secs: None, resume: false }
    }
}

/// A frozen mid-training state, restorable to an equivalent run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainCheckpoint {
    /// Binds the checkpoint to its config + corpus (see [`fingerprint`]).
    pub fingerprint: u64,
    /// The epoch training should continue from (epochs `0..next_epoch`
    /// are complete).
    pub next_epoch: usize,
    /// `config.epochs` at save time (informational).
    pub epochs_total: usize,
    /// Shared token counter driving the linear LR decay.
    pub processed: u64,
    /// Total (center, context) pairs processed so far.
    pub total_pairs: u64,
    /// Average loss per completed epoch (`next_epoch` entries).
    pub epoch_losses: Vec<f64>,
    /// Input/embedding matrix: (rows, cols, row-major data).
    pub syn0: (usize, usize, Vec<f32>),
    /// Output matrix (negative-sampling rows or Huffman inner nodes).
    pub syn1: (usize, usize, Vec<f32>),
}

/// Hashes the training-relevant config plus the corpus shape. Resume
/// refuses a checkpoint whose fingerprint differs — continuing SGD under
/// a different window, architecture, LR, corpus, or seed would silently
/// produce an embedding neither run describes.
///
/// The active SIMD kernel backend (`v2v_linalg::kernels::backend_name`)
/// is part of the fingerprint: backends agree only to within rounding,
/// so a checkpoint trained under AVX2 resumed under the scalar path (or
/// vice versa, e.g. via `V2V_NO_SIMD=1`) would not reproduce the
/// uninterrupted run bit for bit. Versioning the fingerprint keeps the
/// "resume equals uninterrupted" guarantee honest per backend.
pub fn fingerprint(config: &EmbedConfig, num_vertices: usize, num_tokens: usize) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a64(h, v2v_linalg::kernels::backend_name().as_bytes());
    let mut eat = |bytes: &[u8]| h = fnv1a64(h, bytes);
    eat(&(config.dimensions as u64).to_le_bytes());
    eat(&(config.window as u64).to_le_bytes());
    eat(&[match config.architecture {
        Architecture::Cbow => 0u8,
        Architecture::SkipGram => 1,
    }]);
    match config.output {
        OutputLayer::NegativeSampling { negatives } => {
            eat(&[0u8]);
            eat(&(negatives as u64).to_le_bytes());
        }
        OutputLayer::HierarchicalSoftmax => eat(&[1u8, 0, 0, 0, 0, 0, 0, 0, 0]),
    }
    eat(&config.initial_lr.to_bits().to_le_bytes());
    eat(&config.seed.to_le_bytes());
    eat(&config.subsample.map(|s| s.to_bits()).unwrap_or(0).to_le_bytes());
    eat(&(num_vertices as u64).to_le_bytes());
    eat(&(num_tokens as u64).to_le_bytes());
    h
}

fn push_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(tag);
    out.put(payload.len() as u64);
    out.extend_from_slice(payload);
    seal(out, start);
}

fn matrix_payload(rows: usize, cols: usize, data: &[f32]) -> Vec<u8> {
    let mut p = Vec::with_capacity(12 + data.len() * 4);
    p.put(rows as u64);
    p.put(cols as u32);
    p.put_all(data);
    p
}

impl From<bytes::Error> for CheckpointError {
    fn from(e: bytes::Error) -> Self {
        CheckpointError::Format(e.to_string())
    }
}

impl TrainCheckpoint {
    /// Serializes to the V2VC container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + (self.syn0.2.len() + self.syn1.2.len()) * 4 + self.epoch_losses.len() * 8,
        );
        out.extend_from_slice(&MAGIC);
        out.put(FORMAT_VERSION);
        out.put(4u32);

        let mut meta = Vec::with_capacity(40);
        meta.put_all(&[
            self.fingerprint,
            self.next_epoch as u64,
            self.epochs_total as u64,
            self.processed,
            self.total_pairs,
        ]);
        push_section(&mut out, b"META", &meta);

        let mut loss = Vec::with_capacity(4 + self.epoch_losses.len() * 8);
        loss.put(self.epoch_losses.len() as u32);
        loss.put_all(&self.epoch_losses);
        push_section(&mut out, b"LOSS", &loss);

        push_section(&mut out, b"SYN0", &matrix_payload(self.syn0.0, self.syn0.1, &self.syn0.2));
        push_section(&mut out, b"SYN1", &matrix_payload(self.syn1.0, self.syn1.1, &self.syn1.2));
        out
    }

    /// Parses a V2VC container, verifying every section checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
        let fail = |msg: String| Err(CheckpointError::Format(msg));
        let mut r = Reader::new(bytes);
        if r.array()? != MAGIC {
            return fail("bad magic (not a V2VC checkpoint)".into());
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return fail(format!("unsupported checkpoint version {version}"));
        }
        let sections = r.u32()?;

        let (mut meta, mut losses, mut syn0, mut syn1) = (None, None::<Vec<f64>>, None, None);
        for i in 0..sections {
            let start = r.pos();
            skip_section(&mut r)
                .map_err(|e| CheckpointError::Format(format!("section {i} {e}")))?;
            let frame = &bytes[start..r.pos()];
            let tag = String::from_utf8_lossy(&frame[..4]);
            let body = unseal(frame)
                .map_err(|e| CheckpointError::Format(format!("section {tag} {e}")))?;
            let mut p = Reader::new(&body[12..]);
            (|| -> Result<(), bytes::Error> {
                match &*tag {
                    "META" => meta = Some((p.u64()?, p.usize()?, p.usize()?, p.u64()?, p.u64()?)),
                    "LOSS" => losses = Some(p.u32().and_then(|n| p.f64s(n as usize))?.collect()),
                    "SYN0" => syn0 = Some(read_matrix(&mut p)?),
                    "SYN1" => syn1 = Some(read_matrix(&mut p)?),
                    // Forward compatibility: checksummed unknown sections are skipped.
                    _ => return Ok(()),
                }
                p.finish()
            })()
            .map_err(|e| CheckpointError::Format(format!("{tag} section: {e}")))?;
        }
        r.finish().map_err(|e| CheckpointError::Format(format!("{e} after last section")))?;

        let (fingerprint, next_epoch, epochs_total, processed, total_pairs) =
            meta.ok_or_else(|| CheckpointError::Format("missing META section".into()))?;
        let epoch_losses =
            losses.ok_or_else(|| CheckpointError::Format("missing LOSS section".into()))?;
        let syn0 = syn0.ok_or_else(|| CheckpointError::Format("missing SYN0 section".into()))?;
        let syn1 = syn1.ok_or_else(|| CheckpointError::Format("missing SYN1 section".into()))?;
        if epoch_losses.len() != next_epoch {
            return fail(format!(
                "loss history has {} entries but {next_epoch} epochs completed",
                epoch_losses.len()
            ));
        }
        Ok(TrainCheckpoint {
            fingerprint,
            next_epoch,
            epochs_total,
            processed,
            total_pairs,
            epoch_losses,
            syn0,
            syn1,
        })
    }

    /// Atomically writes the checkpoint to `path` (crash leaves the old
    /// checkpoint or the new one, never a torn file).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        v2v_fault::io::write_atomic(path, &self.to_bytes()).map_err(CheckpointError::Io)
    }

    /// Loads and verifies a checkpoint file.
    pub fn load(path: &Path) -> Result<TrainCheckpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        TrainCheckpoint::from_bytes(&bytes)
    }
}

/// Steps over one section frame: tag, payload length, payload, checksum.
fn skip_section(r: &mut Reader) -> Result<(), bytes::Error> {
    let len = Reader::new(&r.take(12)?[4..]).usize()?;
    r.take(len.checked_add(8).ok_or(bytes::Error::Overflow)?)?;
    Ok(())
}

fn read_matrix(r: &mut Reader) -> Result<(usize, usize, Vec<f32>), bytes::Error> {
    let (rows, cols) = (r.usize()?, r.u32()? as usize);
    let values = rows.checked_mul(cols).ok_or(bytes::Error::Overflow)?;
    Ok((rows, cols, r.f32s(values)?.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            next_epoch: 3,
            epochs_total: 10,
            processed: 123_456,
            total_pairs: 9_876,
            epoch_losses: vec![1.5, 1.1, 0.9],
            syn0: (4, 3, (0..12).map(|i| i as f32 * 0.5 - 2.0).collect()),
            syn1: (2, 3, vec![0.0, -1.0, 2.5, 0.125, f32::MIN_POSITIVE, -0.0]),
        }
    }

    #[test]
    fn roundtrip_exact() {
        let c = sample();
        assert_eq!(TrainCheckpoint::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    /// Captured before the codec moved into `v2v_base::bytes`: a V2VC file
    /// written by any earlier build must keep resuming.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let bytes = sample().to_bytes();
        assert_eq!((bytes.len(), fnv1a64(FNV_OFFSET, &bytes)), (256, 0x3c9d_d987_d791_a7cd));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("v2v_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = path_in(&dir);
        let c = sample();
        c.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap(), c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let buf = sample().to_bytes();
        for cut in [0, 4, 11, 12, 30, buf.len() / 2, buf.len() - 1] {
            assert!(
                TrainCheckpoint::from_bytes(&buf[..cut]).is_err(),
                "accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_rejected() {
        let clean = sample().to_bytes();
        for pos in 0..clean.len() {
            let mut buf = clean.clone();
            buf[pos] ^= 0x20;
            assert!(
                TrainCheckpoint::from_bytes(&buf).is_err(),
                "flip at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn section_checksum_names_the_section() {
        let mut buf = sample().to_bytes();
        let n = buf.len();
        buf[n - 10] ^= 0x01; // inside SYN1 payload
        let err = TrainCheckpoint::from_bytes(&buf).unwrap_err();
        assert!(err.to_string().contains("SYN1"), "{err}");
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let c = sample();
        let mut buf = c.to_bytes();
        buf[8..12].copy_from_slice(&5u32.to_le_bytes()); // now 5 sections
        push_section(&mut buf, b"XTRA", b"future payload");
        assert_eq!(TrainCheckpoint::from_bytes(&buf).unwrap(), c);
    }

    #[test]
    fn fingerprint_distinguishes_configs_and_corpora() {
        let base = EmbedConfig::default();
        let f = fingerprint(&base, 100, 5000);
        assert_eq!(f, fingerprint(&base, 100, 5000), "deterministic");
        assert_ne!(f, fingerprint(&base, 101, 5000), "corpus size matters");
        assert_ne!(f, fingerprint(&base, 100, 5001), "token count matters");
        let other = EmbedConfig { window: 7, ..base };
        assert_ne!(f, fingerprint(&other, 100, 5000), "window matters");
        let other = EmbedConfig { seed: 1, ..base };
        assert_ne!(f, fingerprint(&other, 100, 5000), "seed matters");
        let other = EmbedConfig { architecture: Architecture::SkipGram, ..base };
        assert_ne!(f, fingerprint(&other, 100, 5000), "architecture matters");
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let mut buf = sample().to_bytes();
        buf[0] = b'X';
        assert!(TrainCheckpoint::from_bytes(&buf).unwrap_err().to_string().contains("magic"));
        let mut buf = sample().to_bytes();
        buf[4] = 9;
        assert!(TrainCheckpoint::from_bytes(&buf).unwrap_err().to_string().contains("version"));
    }
}
