//! Out-of-core walk corpora: bounded-memory shard files on disk that the
//! trainer streams epochs from.
//!
//! `v2v walks` pushes walks into a [`CorpusShardWriter`] as they are
//! generated; the writer buffers about one shard's worth (default 8 MiB)
//! and lands each shard through `v2v-fault`'s atomic writer. A corpus
//! directory holds:
//!
//! * `shard-NNNNN.v2ws` — the walks, in global walk order:
//!   `magic "V2WS" | version u32 | walks u64 | tokens u64 |`
//!   per walk `len u32` + `len × u32` vertex ids, all LE, then a trailing
//!   FNV-1a 64 checksum over every preceding byte.
//! * `counts.v2wc` — per-vertex token counts (the unigram table the
//!   trainer's negative sampling needs), so training starts without a
//!   pre-pass over the corpus: `magic "V2WC" | version u32 |
//!   num_vertices u64 | num_vertices × u64` + trailing FNV-1a 64.
//! * `manifest.json` — shape and per-shard checksums; written **last**,
//!   so its presence marks the corpus complete (a crashed `v2v walks`
//!   leaves no manifest and the corpus is refused).
//!
//! [`ShardedCorpus`] implements `v2v_walks::WalkSource` by streaming
//! shards sequentially with one shard of readahead (a producer thread and
//! a depth-1 channel), so the trainer's global walk indexes — and
//! therefore its per-walk RNG streams — are identical to the in-RAM
//! corpus, while resident memory stays at ~2 shards per worker.

use crate::error::StoreError;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use v2v_base::bytes::{self, seal, unseal, Put, Reader};
use v2v_base::hash::{fnv1a64, FNV_OFFSET};
use v2v_graph::VertexId;
use v2v_walks::WalkSource;

const SHARD_MAGIC: [u8; 4] = *b"V2WS";
const COUNTS_MAGIC: [u8; 4] = *b"V2WC";
const FORMAT_VERSION: u32 = 1;
const SHARD_HEADER: usize = 24;

/// Tuning for [`CorpusShardWriter`].
#[derive(Clone, Copy, Debug)]
pub struct ShardWriterConfig {
    /// Approximate serialized size at which a shard is flushed to disk.
    /// This bounds the writer's buffer and the reader's per-shard load.
    pub target_shard_bytes: usize,
}

impl Default for ShardWriterConfig {
    fn default() -> Self {
        ShardWriterConfig { target_shard_bytes: 8 << 20 }
    }
}

#[derive(Debug)]
struct ShardMeta {
    file: String,
    walks: usize,
    tokens: usize,
    checksum: u64,
}

/// Streams walks to a shard directory with bounded memory.
pub struct CorpusShardWriter {
    dir: PathBuf,
    num_vertices: usize,
    target_bytes: usize,
    counts: Vec<u64>,
    /// Serialized payload of the shard currently being accumulated.
    buf: Vec<u8>,
    buf_walks: usize,
    buf_tokens: usize,
    shards: Vec<ShardMeta>,
    total_walks: usize,
    total_tokens: usize,
}

impl CorpusShardWriter {
    /// Creates the corpus directory (and parents) and an empty writer.
    pub fn create(
        dir: impl AsRef<Path>,
        num_vertices: usize,
        config: ShardWriterConfig,
    ) -> Result<CorpusShardWriter, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(CorpusShardWriter {
            dir,
            num_vertices,
            target_bytes: config.target_shard_bytes.max(1),
            counts: vec![0; num_vertices],
            buf: Vec::new(),
            buf_walks: 0,
            buf_tokens: 0,
            shards: Vec::new(),
            total_walks: 0,
            total_tokens: 0,
        })
    }

    /// Appends one walk. Walks must be pushed in global walk order; the
    /// order on disk is the order pushed.
    pub fn push_walk(&mut self, walk: &[VertexId]) -> Result<(), StoreError> {
        if walk.len() > u32::MAX as usize {
            return Err(StoreError::Format("walk longer than u32::MAX tokens".into()));
        }
        for v in walk {
            let i = v.index();
            if i >= self.num_vertices {
                return Err(StoreError::Format(format!(
                    "walk token {i} out of range for {} vertices",
                    self.num_vertices
                )));
            }
            self.counts[i] += 1;
        }
        self.buf.put(walk.len() as u32);
        walk.iter().for_each(|v| self.buf.put(v.0));
        self.buf_walks += 1;
        self.buf_tokens += walk.len();
        if self.buf.len() >= self.target_bytes {
            self.flush_shard()?;
        }
        Ok(())
    }

    fn flush_shard(&mut self) -> Result<(), StoreError> {
        if self.buf_walks == 0 {
            return Ok(());
        }
        let file = format!("shard-{:05}.v2ws", self.shards.len());
        let mut header = Vec::with_capacity(SHARD_HEADER);
        header.extend_from_slice(&SHARD_MAGIC);
        header.put(FORMAT_VERSION);
        header.put(self.buf_walks as u64);
        header.put(self.buf_tokens as u64);
        // The frame `bytes::seal` would close, chained so the shard is
        // never copied behind its header.
        let checksum = fnv1a64(fnv1a64(FNV_OFFSET, &header), &self.buf);
        let buf = &self.buf;
        v2v_fault::write_atomic_with(self.dir.join(&file), |w| {
            w.write_all(&header)?;
            w.write_all(buf)?;
            w.write_all(&checksum.to_le_bytes())
        })?;
        self.shards.push(ShardMeta {
            file,
            walks: self.buf_walks,
            tokens: self.buf_tokens,
            checksum,
        });
        self.total_walks += self.buf_walks;
        self.total_tokens += self.buf_tokens;
        v2v_obs::global_metrics().counter("corpus.shards_written").add(1);
        self.buf.clear();
        self.buf_walks = 0;
        self.buf_tokens = 0;
        Ok(())
    }

    /// Flushes the final shard, writes the token-count sidecar, then the
    /// manifest (last — its presence marks the corpus complete). Returns
    /// `(total_walks, total_tokens)`.
    pub fn finish(mut self) -> Result<(usize, usize), StoreError> {
        self.flush_shard()?;
        // counts.v2wc
        let mut counts = Vec::with_capacity(24 + self.counts.len() * 8);
        counts.extend_from_slice(&COUNTS_MAGIC);
        counts.put(FORMAT_VERSION);
        counts.put(self.num_vertices as u64);
        counts.put_all(&self.counts);
        seal(&mut counts, 0);
        v2v_fault::write_atomic(self.dir.join("counts.v2wc"), &counts)?;

        let mut json = String::from("{\n");
        json.push_str(&format!("  \"format\": \"v2ws\",\n  \"version\": {FORMAT_VERSION},\n"));
        json.push_str(&format!("  \"num_vertices\": {},\n", self.num_vertices));
        json.push_str(&format!("  \"total_walks\": {},\n", self.total_walks));
        json.push_str(&format!("  \"total_tokens\": {},\n", self.total_tokens));
        json.push_str("  \"counts_file\": \"counts.v2wc\",\n  \"shards\": [");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"walks\": {}, \"tokens\": {}, \"checksum\": \"{:016x}\"}}",
                s.file, s.walks, s.tokens, s.checksum
            ));
        }
        json.push_str("\n  ]\n}\n");
        v2v_fault::write_atomic(self.dir.join("manifest.json"), json.as_bytes())?;
        Ok((self.total_walks, self.total_tokens))
    }
}

/// One shard loaded into memory: a flat token array plus walk offsets.
struct LoadedShard {
    tokens: Vec<VertexId>,
    /// `offsets.len() == walks + 1`; walk `j` is `tokens[offsets[j]..offsets[j+1]]`.
    offsets: Vec<usize>,
}

impl LoadedShard {
    fn num_walks(&self) -> usize {
        self.offsets.len() - 1
    }

    fn walk(&self, j: usize) -> &[VertexId] {
        &self.tokens[self.offsets[j]..self.offsets[j + 1]]
    }
}

/// A completed shard corpus on disk, openable for streaming training.
#[derive(Debug)]
pub struct ShardedCorpus {
    dir: PathBuf,
    num_vertices: usize,
    total_walks: usize,
    total_tokens: usize,
    shards: Vec<ShardMeta>,
    /// `start[i]` = global index of shard `i`'s first walk; length `shards + 1`.
    start: Vec<usize>,
    counts: Vec<u64>,
}

impl ShardedCorpus {
    /// Opens a corpus directory: parses and cross-checks the manifest and
    /// eagerly loads + verifies the token-count sidecar (vocabulary-sized,
    /// not corpus-sized). Shard payloads are *not* read here — they are
    /// checksum-verified shard by shard as epochs stream them.
    pub fn open(dir: impl AsRef<Path>) -> Result<ShardedCorpus, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join("manifest.json");
        let text = std::fs::read_to_string(&manifest_path).map_err(|e| {
            StoreError::Format(format!(
                "no readable manifest at {} (incomplete corpus?): {e}",
                manifest_path.display()
            ))
        })?;
        let doc = v2v_obs::json::parse(&text)
            .map_err(|e| StoreError::Corrupt(format!("manifest is not valid JSON: {e}")))?;
        let field = |k: &str| {
            doc.get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| StoreError::Format(format!("manifest missing numeric \"{k}\"")))
        };
        if doc.get("format").and_then(|v| v.as_str()) != Some("v2ws") {
            return Err(StoreError::Format("manifest is not a v2ws corpus manifest".into()));
        }
        if field("version")? != FORMAT_VERSION as u64 {
            return Err(StoreError::Format("unsupported corpus manifest version".into()));
        }
        let num_vertices = field("num_vertices")? as usize;
        let total_walks = field("total_walks")? as usize;
        let total_tokens = field("total_tokens")? as usize;
        let shard_vals = doc
            .get("shards")
            .and_then(|v| v.as_array())
            .ok_or_else(|| StoreError::Format("manifest missing \"shards\" array".into()))?;
        let mut shards = Vec::with_capacity(shard_vals.len());
        let mut start = Vec::with_capacity(shard_vals.len() + 1);
        start.push(0);
        let (mut sum_walks, mut sum_tokens) = (0usize, 0usize);
        for v in shard_vals {
            let file = v
                .get("file")
                .and_then(|f| f.as_str())
                .ok_or_else(|| StoreError::Format("shard entry missing \"file\"".into()))?;
            if file.contains('/') || file.contains("..") {
                return Err(StoreError::Format(format!("shard file name {file:?} escapes the corpus directory")));
            }
            let walks = v
                .get("walks")
                .and_then(|w| w.as_u64())
                .ok_or_else(|| StoreError::Format("shard entry missing \"walks\"".into()))?
                as usize;
            let tokens = v
                .get("tokens")
                .and_then(|t| t.as_u64())
                .ok_or_else(|| StoreError::Format("shard entry missing \"tokens\"".into()))?
                as usize;
            let checksum = v
                .get("checksum")
                .and_then(|c| c.as_str())
                .and_then(|c| u64::from_str_radix(c, 16).ok())
                .ok_or_else(|| StoreError::Format("shard entry missing hex \"checksum\"".into()))?;
            sum_walks += walks;
            sum_tokens += tokens;
            start.push(sum_walks);
            shards.push(ShardMeta { file: file.to_string(), walks, tokens, checksum });
        }
        if sum_walks != total_walks || sum_tokens != total_tokens {
            return Err(StoreError::Corrupt(
                "manifest totals disagree with per-shard walk/token counts".into(),
            ));
        }

        let counts = read_counts(&dir.join(
            doc.get("counts_file").and_then(|v| v.as_str()).unwrap_or("counts.v2wc"),
        ))?;
        if counts.len() != num_vertices {
            return Err(StoreError::Corrupt("token-count sidecar has wrong vocabulary size".into()));
        }
        if counts.iter().sum::<u64>() != total_tokens as u64 {
            return Err(StoreError::Corrupt(
                "token-count sidecar does not sum to the manifest token total".into(),
            ));
        }
        Ok(ShardedCorpus { dir, num_vertices, total_walks, total_tokens, shards, start, counts })
    }

    /// Number of shard files.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Loads and checksum-verifies every shard once — an integrity scan
    /// without training.
    pub fn verify(&self) -> Result<(), StoreError> {
        for s in 0..self.shards.len() {
            self.load_shard(s)?;
        }
        Ok(())
    }

    fn load_shard(&self, s: usize) -> Result<LoadedShard, StoreError> {
        let meta = &self.shards[s];
        let bytes = std::fs::read(self.dir.join(&meta.file))
            .map_err(|e| StoreError::Format(format!("cannot open shard {}: {e}", meta.file)))?;
        let corrupt = |what: String| StoreError::Corrupt(format!("shard {} {what}", meta.file));
        let bad = |e: bytes::Error| corrupt(e.to_string());
        let body = unseal(&bytes).map_err(bad)?;
        if !bytes.ends_with(&meta.checksum.to_le_bytes()) {
            return Err(corrupt(format!("checksum disagrees with manifest {:016x}", meta.checksum)));
        }
        let mut r = Reader::new(body);
        if r.array() != Ok(SHARD_MAGIC) || r.u32() != Ok(FORMAT_VERSION) {
            return Err(StoreError::Format(format!("shard {} has a bad header", meta.file)));
        }
        let (walks, tokens) = (r.usize().map_err(bad)?, r.usize().map_err(bad)?);
        if walks != meta.walks || tokens != meta.tokens {
            return Err(corrupt("shape disagrees with manifest".into()));
        }
        // A length word per walk plus one word per token: the payload size
        // is known before anything is allocated for it.
        if walks.checked_add(tokens).and_then(|n| n.checked_mul(4)) != Some(body.len() - r.pos()) {
            return Err(corrupt("has trailing or missing payload bytes".into()));
        }
        let mut out = LoadedShard {
            tokens: Vec::with_capacity(tokens),
            offsets: Vec::with_capacity(walks + 1),
        };
        out.offsets.push(0);
        for _ in 0..walks {
            let len = r.u32().map_err(bad)? as usize;
            for id in r.u32s(len).map_err(bad)? {
                if (id as usize) >= self.num_vertices {
                    return Err(corrupt(format!("token {id} out of vocabulary range")));
                }
                out.tokens.push(VertexId(id));
            }
            out.offsets.push(out.tokens.len());
        }
        r.finish().map_err(bad)?;
        v2v_obs::global_metrics().counter("corpus.shards_loaded").add(1);
        Ok(out)
    }
}

fn read_counts(path: &Path) -> Result<Vec<u64>, StoreError> {
    let bytes = std::fs::read(path)
        .map_err(|e| StoreError::Format(format!("cannot read {}: {e}", path.display())))?;
    let bad = |e: bytes::Error| StoreError::Corrupt(format!("token-count sidecar {e}"));
    let mut r = Reader::new(unseal(&bytes).map_err(bad)?);
    if r.array() != Ok(COUNTS_MAGIC) || r.u32() != Ok(FORMAT_VERSION) {
        return Err(StoreError::Format("token-count sidecar has a bad header".into()));
    }
    let n = r.usize().map_err(bad)?;
    let counts = r.u64s(n).map_err(bad)?.collect();
    r.finish().map_err(bad)?;
    Ok(counts)
}

impl WalkSource for ShardedCorpus {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_walks(&self) -> usize {
        self.total_walks
    }

    fn num_tokens(&self) -> usize {
        self.total_tokens
    }

    fn token_counts(&self) -> Vec<u64> {
        self.counts.clone()
    }

    /// Streams the shards covering `range` in order, loading the next
    /// shard on a background thread while the current one is consumed
    /// (sequential readahead, depth 1).
    ///
    /// # Panics
    /// Panics if a shard fails its checksum or cannot be read — the
    /// corpus was validated at [`ShardedCorpus::open`], so mid-epoch
    /// corruption means the files changed underneath training, which has
    /// no sane continuation.
    fn for_each_walk_in(&self, range: Range<usize>, f: &mut dyn FnMut(u64, &[VertexId])) {
        if range.start >= range.end || range.start >= self.total_walks {
            return;
        }
        let end = range.end.min(self.total_walks);
        // Shard holding the first walk; `start` is sorted and starts at 0.
        let s0 = self.start.partition_point(|&s| s <= range.start) - 1;
        std::thread::scope(|scope| {
            let (tx, rx) = sync_channel::<Result<(usize, LoadedShard), StoreError>>(1);
            scope.spawn(move || {
                for s in s0..self.shards.len() {
                    if self.start[s] >= end {
                        break;
                    }
                    let loaded = self.load_shard(s);
                    let stop = loaded.is_err();
                    if tx.send(loaded.map(|sh| (s, sh))).is_err() || stop {
                        break;
                    }
                }
            });
            for item in rx {
                let (s, shard) =
                    item.unwrap_or_else(|e| panic!("walk corpus failed mid-stream: {e}"));
                let base = self.start[s];
                let lo = range.start.saturating_sub(base);
                let hi = (end - base).min(shard.num_walks());
                for j in lo..hi {
                    f((base + j) as u64, shard.walk(j));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v2v_corpus_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Deterministic fake walks: walk i has length 1 + (i % 5), token j is
    /// (i * 31 + j) % n.
    fn fake_walks(count: usize, n: usize) -> Vec<Vec<VertexId>> {
        (0..count)
            .map(|i| {
                (0..1 + i % 5).map(|j| VertexId(((i * 31 + j) % n) as u32)).collect()
            })
            .collect()
    }

    fn write_corpus(dir: &Path, walks: &[Vec<VertexId>], n: usize, shard_bytes: usize) {
        let mut w = CorpusShardWriter::create(
            dir,
            n,
            ShardWriterConfig { target_shard_bytes: shard_bytes },
        )
        .unwrap();
        for walk in walks {
            w.push_walk(walk).unwrap();
        }
        let (tw, tt) = w.finish().unwrap();
        assert_eq!(tw, walks.len());
        assert_eq!(tt, walks.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn round_trip_across_shard_sizes() {
        for shard_bytes in [1usize, 64, 4096, 1 << 20] {
            let dir = scratch(&format!("rt{shard_bytes}"));
            let walks = fake_walks(200, 17);
            write_corpus(&dir, &walks, 17, shard_bytes);
            let c = ShardedCorpus::open(&dir).unwrap();
            assert_eq!(WalkSource::num_walks(&c), 200);
            assert_eq!(WalkSource::num_vertices(&c), 17);
            assert_eq!(
                WalkSource::num_tokens(&c),
                walks.iter().map(Vec::len).sum::<usize>()
            );
            if shard_bytes == 1 {
                assert_eq!(c.num_shards(), 200, "1-byte target → one walk per shard");
            }
            let mut got: Vec<(u64, Vec<VertexId>)> = Vec::new();
            c.for_each_walk_in(0..200, &mut |i, w| got.push((i, w.to_vec())));
            assert_eq!(got.len(), 200);
            for (i, (idx, w)) in got.iter().enumerate() {
                assert_eq!(*idx, i as u64);
                assert_eq!(w, &walks[i]);
            }
            c.verify().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Captured before the codec moved into `v2v_base::bytes`: a corpus
    /// directory written by any earlier build must keep training.
    #[test]
    fn corpus_bytes_are_pinned() {
        let dir = scratch("pin");
        write_corpus(&dir, &fake_walks(120, 13), 13, 256);
        let pins = [
            ("shard-00000.v2ws", (292, 0x320e_9303_f5cb_f0ba)),
            ("counts.v2wc", (128, 0xc113_85d9_093f_1095)),
            ("manifest.json", (899, 0x7975_d722_6621_2743)),
        ];
        for (file, want) in pins {
            let bytes = std::fs::read(dir.join(file)).unwrap();
            assert_eq!((bytes.len(), fnv1a64(FNV_OFFSET, &bytes)), want, "{file}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranges_cut_across_shards() {
        let dir = scratch("range");
        let walks = fake_walks(100, 11);
        write_corpus(&dir, &walks, 11, 100); // many small shards
        let c = ShardedCorpus::open(&dir).unwrap();
        for (lo, hi) in [(0, 1), (37, 64), (99, 100), (0, 100), (50, 50), (95, 200)] {
            let mut got = Vec::new();
            c.for_each_walk_in(lo..hi, &mut |i, w| got.push((i, w.to_vec())));
            let expect: Vec<(u64, Vec<VertexId>)> = (lo..hi.min(100))
                .map(|i| (i as u64, walks[i].clone()))
                .collect();
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn token_counts_match_walks() {
        let dir = scratch("counts");
        let walks = fake_walks(150, 13);
        write_corpus(&dir, &walks, 13, 512);
        let c = ShardedCorpus::open(&dir).unwrap();
        let mut expect = vec![0u64; 13];
        for w in &walks {
            for v in w {
                expect[v.index()] += 1;
            }
        }
        assert_eq!(WalkSource::token_counts(&c), expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_means_incomplete() {
        let dir = scratch("nomanifest");
        let walks = fake_walks(10, 5);
        write_corpus(&dir, &walks, 5, 64);
        std::fs::remove_file(dir.join("manifest.json")).unwrap();
        let err = ShardedCorpus::open(&dir).unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_bit_flip_detected() {
        let dir = scratch("flip");
        let walks = fake_walks(60, 9);
        write_corpus(&dir, &walks, 9, 256);
        let c = ShardedCorpus::open(&dir).unwrap();
        let shard0 = dir.join("shard-00000.v2ws");
        let mut bytes = std::fs::read(&shard0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&shard0, &bytes).unwrap();
        assert!(c.verify().is_err());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.for_each_walk_in(0..5, &mut |_, _| {});
        }));
        assert!(caught.is_err(), "streaming a corrupt shard must fail loudly");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counts_sidecar_corruption_detected() {
        let dir = scratch("countsflip");
        write_corpus(&dir, &fake_walks(30, 7), 7, 256);
        let path = dir.join("counts.v2wc");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ShardedCorpus::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_token_refused_by_writer() {
        let dir = scratch("oob");
        let mut w = CorpusShardWriter::create(&dir, 4, ShardWriterConfig::default()).unwrap();
        assert!(w.push_walk(&[VertexId(3)]).is_ok());
        assert!(w.push_walk(&[VertexId(4)]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_corpus_round_trips() {
        let dir = scratch("emptyc");
        write_corpus(&dir, &[], 6, 1024);
        let c = ShardedCorpus::open(&dir).unwrap();
        assert_eq!(WalkSource::num_walks(&c), 0);
        assert_eq!(c.num_shards(), 0);
        let mut n = 0;
        c.for_each_walk_in(0..0, &mut |_, _| n += 1);
        assert_eq!(n, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
