//! A file whose checksum holds but whose counts claim more data than any
//! machine could hold is refused with an error, never a panic: every
//! length a reader derives from on-disk counts is checked arithmetic.
//!
//! Each row hand-builds one such file, sealed with a valid FNV-1a 64
//! trailer so the reader gets past its checksum to the crafted count.

use v2v_base::hash::{fnv1a64, FNV_OFFSET};
use v2v_embed::checkpoint::TrainCheckpoint;
use v2v_serve::hnsw::{build_fingerprint, HnswConfig, HnswIndex};
use v2v_store::{EmbeddingStore, ShardedCorpus};

/// Reads one crafted file; `Err` is the only right answer.
type Row = fn() -> Result<(), String>;

/// `body` followed by the FNV-1a 64 of `body`.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a64(FNV_OFFSET, &body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// A corpus directory whose token-count sidecar claims 2^61 vertices.
fn huge_counts_sidecar() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("v2v_crafted_counts_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("manifest.json"),
        r#"{"format": "v2ws", "version": 1, "num_vertices": 1, "total_walks": 0,
            "total_tokens": 0, "counts_file": "counts.v2wc", "shards": []}"#,
    )
    .unwrap();
    let mut counts = b"V2WC".to_vec();
    counts.extend_from_slice(&1u32.to_le_bytes());
    counts.extend_from_slice(&(1u64 << 61).to_le_bytes());
    std::fs::write(dir.join("counts.v2wc"), sealed(counts)).unwrap();
    let result = ShardedCorpus::open(&dir)
        .map(drop)
        .map_err(|e| e.to_string());
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

/// A checkpoint whose one section, `SYN0`, claims a 2^62 x 1 matrix.
fn huge_checkpoint_matrix() -> Result<(), String> {
    let mut section = b"SYN0".to_vec();
    section.extend_from_slice(&12u64.to_le_bytes());
    section.extend_from_slice(&(1u64 << 62).to_le_bytes());
    section.extend_from_slice(&1u32.to_le_bytes());
    let mut file = b"V2VC".to_vec();
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&sealed(section));
    TrainCheckpoint::from_bytes(&file)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// A `.v2s` header whose rows x dims x 4 bytes lands just under 2^64, so
/// page-aligning the shard table offset behind that payload overflows.
fn huge_store_header() -> Result<(), String> {
    let mut header = b"V2VE".to_vec();
    header.extend_from_slice(&2u32.to_le_bytes());
    header.extend_from_slice(&((1u32 << 31) + 1).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    for word in [(1u64 << 31) - 1, 1, 4096, 0, 0, 0, 0] {
        header.extend_from_slice(&word.to_le_bytes());
    }
    let path = std::env::temp_dir().join(format!("v2v_crafted_{}.v2s", std::process::id()));
    std::fs::write(&path, sealed(header)).unwrap();
    let result = EmbeddingStore::open(&path).map(drop).map_err(|e| e.to_string());
    std::fs::remove_file(&path).unwrap();
    result
}

/// An HNSW snapshot that claims 2^62 vectors of 8 dimensions.
fn huge_snapshot() -> Result<(), String> {
    let (dims, config) = (8, HnswConfig::default());
    let mut snap = b"V2VH".to_vec();
    snap.extend_from_slice(&1u32.to_le_bytes());
    snap.extend_from_slice(&build_fingerprint(&config, dims).to_le_bytes());
    snap.extend_from_slice(&7u64.to_le_bytes());
    snap.extend_from_slice(&(1u64 << 62).to_le_bytes());
    snap.push(1);
    HnswIndex::from_snapshot(&sealed(snap), dims, Vec::new(), config, 7).map(drop)
}

#[test]
fn crafted_lengths_are_errors_not_panics() {
    let rows: [(&str, Row); 4] = [
        ("counts.v2wc", huge_counts_sidecar),
        ("V2VC SYN0", huge_checkpoint_matrix),
        ("V2VE header", huge_store_header),
        ("V2VH snapshot", huge_snapshot),
    ];
    let mut wrong = Vec::new();
    for (reader, row) in rows {
        match std::panic::catch_unwind(row) {
            Ok(Err(_)) => {}
            Ok(Ok(())) => wrong.push(format!("{reader}: accepted")),
            Err(_) => wrong.push(format!("{reader}: panicked")),
        }
    }
    assert!(wrong.is_empty(), "{wrong:?}");
}
