//! The V2VE v2 container: a fixed-stride, page-aligned, shard-checksummed
//! embedding store designed to be served straight from `mmap`.
//!
//! This is the one binary embedding format. Its predecessor, V2VE v1 (a
//! streamed layout with one checksum over the whole payload, so a reader
//! had to touch every byte before trusting any of it), no longer has a
//! reader or writer: a v1 file is refused with "unsupported V2VE version
//! 1" and must be re-exported from text or retrained. v2 is built for
//! random access — cold start costs a map plus a header check, not a
//! full-file scan:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"V2VE"
//! 4       4     version = 2 (u32 LE)
//! 8       4     dims (u32 LE, > 0)
//! 12      4     reserved = 0
//! 16      8     count (u64 LE, rows)
//! 24      8     shard_rows (u64 LE, > 0)       ── checksum granularity
//! 32      8     payload_off (= 4096)
//! 40      8     shard_table_off
//! 48      8     index_off (0 = no index section)
//! 56      8     index_len
//! 64      8     fingerprint                    ── identity of the payload
//! 72      8     header checksum (FNV-1a over bytes 0..72)
//! 80      …     zero padding to 4096
//! 4096    count*dims*4   payload: row-major f32 LE, fixed stride dims*4
//! …       8-aligned      shard table: ceil(count/shard_rows) × u64 FNV-1a
//! …       index_len      opaque index section (HNSW snapshot; self-checksummed)
//! ```
//!
//! The payload starts on a page boundary so rows can be reinterpreted in
//! place as `&[f32]` on little-endian hosts. Integrity is per *shard*
//! (`shard_rows` rows each): a mapped reader verifies a shard's checksum
//! the first time any row in it is touched ([`EmbeddingStore::vector`]),
//! so cold start validates one page-sized header, not gigabytes. The heap
//! fallback (non-unix, big-endian, or a failed map) reads the file once,
//! verifying every shard as it streams.
//!
//! `fingerprint` — FNV over `(dims, count, shard checksums…)` — names the
//! payload's exact contents; the HNSW snapshot embeds it so a stale index
//! can be refused without touching the vectors.
//!
//! Fields are encoded by `v2v_base::bytes`; the header's first 72 bytes
//! are a sealed frame. All writes go through `v2v-fault`'s atomic
//! tmp+fsync+rename layer.

use crate::error::StoreError;
use crate::mmap::Mmap;
use v2v_base::bytes::{seal, unseal, Put, Reader};
use v2v_base::hash::{fnv1a64, FNV_OFFSET};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// The store's magic number — shared with V2VE v1 so one sniff routes both.
pub const MAGIC: [u8; 4] = *b"V2VE";
/// Format version written by this module.
pub const VERSION: u32 = 2;
/// Payload alignment: one page, so mapped rows are `f32`-aligned and the
/// header occupies exactly one page.
pub const PAGE: usize = 4096;

const HEADER_HASHED: usize = 72;
const HEADER_LEN: usize = 80;

/// Rows per checksum shard targeting ~1 MiB of payload per shard: small
/// enough that first-touch verification is invisible, large enough that
/// the shard table stays tiny (8 bytes per MiB).
pub fn default_shard_rows(dims: usize) -> usize {
    ((1 << 20) / (dims.max(1) * 4)).max(1)
}

/// Identity of a payload: folds the shape and every shard checksum, so
/// any bit flip in any row changes it.
fn payload_fingerprint(dims: usize, count: usize, shard_sums: &[u64]) -> u64 {
    let mut h = fnv1a64(FNV_OFFSET, &(dims as u32).to_le_bytes());
    h = fnv1a64(h, &(count as u64).to_le_bytes());
    for &s in shard_sums {
        h = fnv1a64(h, &s.to_le_bytes());
    }
    h
}

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// Atomically writes `data` (row-major, `count × dims`) as a V2VE v2
/// store, optionally with an opaque index section (an HNSW snapshot).
/// Returns the payload fingerprint that readers and snapshots will see.
pub fn write_store(
    path: impl AsRef<Path>,
    dims: usize,
    data: &[f32],
    shard_rows: usize,
    index: Option<&[u8]>,
) -> Result<u64, StoreError> {
    if dims == 0 {
        return Err(StoreError::Format("store dims must be > 0".into()));
    }
    if shard_rows == 0 {
        return Err(StoreError::Format("shard_rows must be > 0".into()));
    }
    if !data.len().is_multiple_of(dims) {
        return Err(StoreError::Format(format!(
            "payload length {} is not a multiple of dims {dims}",
            data.len()
        )));
    }
    let count = data.len() / dims;
    if count > u32::MAX as usize {
        return Err(StoreError::Format(format!("row count {count} exceeds the u32 vertex space")));
    }

    // Pass 1: per-shard checksums over the little-endian row bytes.
    let num_shards = count.div_ceil(shard_rows.max(1));
    let mut shard_sums = Vec::with_capacity(num_shards);
    let mut buf: Vec<u8> = Vec::new();
    for shard in data.chunks(shard_rows * dims) {
        buf.clear();
        buf.put_all(shard);
        shard_sums.push(fnv1a64(FNV_OFFSET, &buf));
    }
    let fingerprint = payload_fingerprint(dims, count, &shard_sums);

    let payload_len = count * dims * 4;
    let shard_table_off = PAGE + align8(payload_len);
    let table_len = num_shards * 8;
    let (index_off, index_len) = match index {
        Some(ix) => (shard_table_off + table_len, ix.len()),
        None => (0, 0),
    };

    let mut header = Vec::with_capacity(PAGE);
    header.extend_from_slice(&MAGIC);
    header.put(VERSION);
    header.put(dims as u32);
    header.put(0u32); // reserved
    header.put_all(&[
        count as u64,
        shard_rows as u64,
        PAGE as u64,
        shard_table_off as u64,
        index_off as u64,
        index_len as u64,
        fingerprint,
    ]);
    seal(&mut header, 0);
    header.resize(PAGE, 0);

    v2v_fault::write_atomic_with(path, |w| {
        w.write_all(&header)?;
        // Pass 2: re-encode and land the payload shard by shard, so peak
        // scratch is one shard, not the file.
        for shard in data.chunks(shard_rows * dims) {
            buf.clear();
            buf.put_all(shard);
            w.write_all(&buf)?;
        }
        let pad = align8(payload_len) - payload_len;
        w.write_all(&[0u8; 7][..pad])?;
        buf.clear();
        buf.put_all(&shard_sums);
        w.write_all(&buf)?;
        if let Some(ix) = index {
            w.write_all(ix)?;
        }
        Ok(())
    })?;
    Ok(fingerprint)
}

/// Validated header fields, offsets already range-checked against the
/// file length.
struct Header {
    dims: usize,
    count: usize,
    shard_rows: usize,
    num_shards: usize,
    payload_off: usize,
    shard_table_off: usize,
    index: Option<(usize, usize)>,
    fingerprint: u64,
    file_len: usize,
}

fn parse_header(bytes: &[u8; HEADER_LEN], file_len: u64) -> Result<Header, StoreError> {
    let mut r = Reader::new(&bytes[..HEADER_HASHED]);
    if r.array()? != MAGIC {
        return Err(StoreError::Format("bad magic: not a V2VE store".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(StoreError::Format(format!(
            "unsupported V2VE version {version} (this reader handles v{VERSION})"
        )));
    }
    unseal(bytes).map_err(|_| StoreError::Corrupt("header checksum mismatch".into()))?;
    let dims = r.u32()? as usize;
    r.u32()?; // reserved
    let (count, shard_rows) = (r.usize()?, r.usize()?);
    let (payload_off, shard_table_off) = (r.u64()?, r.u64()?);
    let (index_off, index_len, fingerprint) = (r.u64()?, r.usize()?, r.u64()?);
    r.finish()?;

    if dims == 0 || shard_rows == 0 {
        return Err(StoreError::Format("dims and shard_rows must be > 0".into()));
    }
    if count > u32::MAX as usize {
        return Err(StoreError::Format("row count exceeds the u32 vertex space".into()));
    }
    // Bounded by the file, so the offsets below cannot overflow.
    let payload_len = count
        .checked_mul(dims)
        .and_then(|n| n.checked_mul(4))
        .filter(|&n| n as u64 <= file_len)
        .ok_or_else(|| {
            StoreError::Corrupt(format!("file length {file_len} cannot hold {count} x {dims} rows"))
        })?;
    let num_shards = count.div_ceil(shard_rows);
    if payload_off != PAGE as u64 {
        return Err(StoreError::Format(format!("payload offset {payload_off} != {PAGE}")));
    }
    let expect_table = PAGE + align8(payload_len);
    if shard_table_off != expect_table as u64 {
        return Err(StoreError::Format("shard table offset disagrees with shape".into()));
    }
    let table_end = expect_table + num_shards * 8;
    let (index, expect_len) = if index_off == 0 {
        if index_len != 0 {
            return Err(StoreError::Format("index_len set without index_off".into()));
        }
        (None, table_end)
    } else {
        if index_off != table_end as u64 {
            return Err(StoreError::Format("index offset disagrees with shape".into()));
        }
        let end = table_end
            .checked_add(index_len)
            .ok_or_else(|| StoreError::Format("index section size overflows".into()))?;
        (Some((table_end, index_len)), end)
    };
    if file_len != expect_len as u64 {
        return Err(StoreError::Corrupt(format!(
            "file length {file_len} != expected {expect_len} (truncated or trailing bytes)"
        )));
    }
    Ok(Header {
        dims,
        count,
        shard_rows,
        num_shards,
        payload_off: PAGE,
        shard_table_off: expect_table,
        index,
        fingerprint,
        file_len: expect_len,
    })
}

enum Backing {
    /// Pages fault in on demand; shards verify on first touch.
    Mapped { map: Mmap, index: Option<(usize, usize)> },
    /// Fully loaded and fully verified at open time.
    Heap { payload: Vec<f32>, index: Option<Vec<u8>> },
}

/// An open V2VE v2 store: the embedding matrix, its integrity state, and
/// the optional index section.
pub struct EmbeddingStore {
    dims: usize,
    count: usize,
    shard_rows: usize,
    fingerprint: u64,
    shard_sums: Vec<u64>,
    verified: Vec<AtomicBool>,
    backing: Backing,
}

impl std::fmt::Debug for EmbeddingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingStore")
            .field("dims", &self.dims)
            .field("count", &self.count)
            .field("shard_rows", &self.shard_rows)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("backing", &self.source())
            .finish()
    }
}

impl EmbeddingStore {
    /// Opens a store, preferring `mmap` and falling back to a heap load
    /// when mapping is unavailable (non-unix, big-endian, or the map call
    /// itself fails; the `store.mmap` fault point forces it in tests).
    ///
    /// The mapped path validates the header and shard table only — O(1)
    /// in the payload size; row data is checksummed lazily per shard on
    /// first touch. The heap path streams the file once and verifies
    /// everything eagerly.
    pub fn open(path: impl AsRef<Path>) -> Result<EmbeddingStore, StoreError> {
        let path = path.as_ref();
        let start = std::time::Instant::now();
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN as u64 {
            return Err(StoreError::Corrupt(format!(
                "file is {file_len} bytes, smaller than the {HEADER_LEN}-byte header"
            )));
        }
        let mut head = [0u8; HEADER_LEN];
        file.read_exact(&mut head)?;
        let header = parse_header(&head, file_len)?;

        let no_mmap = v2v_fault::inject::check("store.mmap").is_some();
        let store = if Mmap::supported() && !no_mmap {
            match Mmap::map(&file, header.file_len) {
                Ok(map) => Self::from_map(header, map)?,
                Err(e) => {
                    v2v_obs::obs_info!("mmap failed ({e}); falling back to heap load");
                    Self::from_stream(header, &mut file)?
                }
            }
        } else {
            Self::from_stream(header, &mut file)?
        };

        let metrics = v2v_obs::global_metrics();
        metrics.counter(if store.is_mapped() { "store.open.mmap" } else { "store.open.heap" }).add(1);
        metrics.gauge("store.open_ms").set(start.elapsed().as_secs_f64() * 1e3);
        v2v_obs::obs_debug!(
            "opened {} store: {} x {} (fingerprint {:016x}, {} shards of {} rows)",
            store.source(),
            store.count,
            store.dims,
            store.fingerprint,
            store.shard_sums.len(),
            store.shard_rows,
        );
        Ok(store)
    }

    fn from_map(header: Header, map: Mmap) -> Result<EmbeddingStore, StoreError> {
        let shard_sums: Vec<u64> =
            Reader::new(&map.bytes()[header.shard_table_off..]).u64s(header.num_shards)?.collect();
        let verified = (0..header.num_shards).map(|_| AtomicBool::new(false)).collect();
        Ok(EmbeddingStore {
            dims: header.dims,
            count: header.count,
            shard_rows: header.shard_rows,
            fingerprint: header.fingerprint,
            shard_sums,
            verified,
            backing: Backing::Mapped { map, index: header.index },
        })
    }

    /// Heap fallback: streams the payload shard by shard (peak scratch =
    /// one shard), verifying each checksum as it goes — never holding raw
    /// file bytes and decoded floats at full size simultaneously.
    fn from_stream(header: Header, file: &mut File) -> Result<EmbeddingStore, StoreError> {
        file.seek(SeekFrom::Start(header.payload_off as u64))?;
        let mut payload: Vec<f32> = Vec::with_capacity(header.count * header.dims);
        let shard_bytes = header.shard_rows * header.dims * 4;
        let mut buf = vec![0u8; shard_bytes.min(header.count * header.dims * 4).max(1)];
        let mut shard_sums = Vec::with_capacity(header.num_shards);
        let mut remaining = header.count * header.dims * 4;
        while remaining > 0 {
            let take = shard_bytes.min(remaining);
            let chunk = &mut buf[..take];
            file.read_exact(chunk)?;
            shard_sums.push(fnv1a64(FNV_OFFSET, chunk));
            payload.extend(Reader::new(chunk).f32s(take / 4)?);
            remaining -= take;
        }
        // Skip alignment padding, then check the shard table.
        file.seek(SeekFrom::Start(header.shard_table_off as u64))?;
        let mut table = vec![0u8; header.num_shards * 8];
        file.read_exact(&mut table)?;
        for (i, expected) in Reader::new(&table).u64s(header.num_shards)?.enumerate() {
            if shard_sums[i] != expected {
                return Err(StoreError::Corrupt(format!(
                    "shard {i} checksum mismatch: payload {:016x} != table {expected:016x}",
                    shard_sums[i]
                )));
            }
        }
        if payload_fingerprint(header.dims, header.count, &shard_sums) != header.fingerprint {
            return Err(StoreError::Corrupt("fingerprint disagrees with shard table".into()));
        }
        let mut index = header.index.map(|(_, len)| vec![0u8; len]);
        if let Some(ix) = &mut index {
            file.read_exact(ix)?;
        }
        let verified = (0..header.num_shards).map(|_| AtomicBool::new(true)).collect();
        Ok(EmbeddingStore {
            dims: header.dims,
            count: header.count,
            shard_rows: header.shard_rows,
            fingerprint: header.fingerprint,
            shard_sums,
            verified,
            backing: Backing::Heap { payload, index },
        })
    }

    /// Rows per checksum shard — reuse this when rewriting a store so the
    /// payload fingerprint (which folds the shard checksums) is preserved.
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Embedding dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of rows (vertices).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Payload identity: FNV over shape + every shard checksum. An HNSW
    /// snapshot built over this store embeds this value and is refused
    /// when it no longer matches.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `"mmap"` or `"heap"` — how the payload is backed.
    pub fn source(&self) -> &'static str {
        match self.backing {
            Backing::Mapped { .. } => "mmap",
            Backing::Heap { .. } => "heap",
        }
    }

    /// Whether rows are served from a memory mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped { .. })
    }

    /// Row `i` as an `f32` slice. On the mapped path the containing shard
    /// is checksum-verified on first touch (and never again); a mismatch
    /// is a hard [`StoreError::Corrupt`].
    #[inline]
    pub fn vector(&self, i: usize) -> Result<&[f32], StoreError> {
        if i >= self.count {
            return Err(StoreError::Format(format!(
                "row {i} out of range for store of {} rows",
                self.count
            )));
        }
        match &self.backing {
            Backing::Heap { payload, .. } => Ok(&payload[i * self.dims..(i + 1) * self.dims]),
            Backing::Mapped { map, .. } => {
                self.ensure_shard_verified(map, i / self.shard_rows)?;
                let bytes = map.bytes();
                let off = PAGE + i * self.dims * 4;
                let row = &bytes[off..off + self.dims * 4];
                // SAFETY: the payload starts on a page boundary and rows are
                // a multiple of 4 bytes, so `row` is 4-aligned; the mapped
                // store is little-endian f32 by format (big-endian hosts
                // never take the mapped path), and the mapping lives as long
                // as `self`.
                debug_assert_eq!(row.as_ptr() as usize % 4, 0);
                Ok(unsafe { std::slice::from_raw_parts(row.as_ptr() as *const f32, self.dims) })
            }
        }
    }

    #[inline]
    fn ensure_shard_verified(&self, map: &Mmap, shard: usize) -> Result<(), StoreError> {
        if self.verified[shard].load(Ordering::Acquire) {
            return Ok(());
        }
        let lo = PAGE + shard * self.shard_rows * self.dims * 4;
        let hi = (lo + self.shard_rows * self.dims * 4).min(PAGE + self.count * self.dims * 4);
        let sum = fnv1a64(FNV_OFFSET, &map.bytes()[lo..hi]);
        if sum != self.shard_sums[shard] {
            return Err(StoreError::Corrupt(format!(
                "shard {shard} checksum mismatch: payload {sum:016x} != table {:016x}",
                self.shard_sums[shard]
            )));
        }
        // Two threads may race to verify the same shard; both compute the
        // same answer, so the double work is harmless.
        self.verified[shard].store(true, Ordering::Release);
        v2v_obs::global_metrics().counter("store.shards_verified").add(1);
        Ok(())
    }

    /// Verifies every remaining shard (no-op on the heap path, which
    /// verifies at open). Call before bulk reads via [`EmbeddingStore::payload`].
    pub fn verify_all(&self) -> Result<(), StoreError> {
        if let Backing::Mapped { map, .. } = &self.backing {
            map.advise(crate::mmap::Advice::Sequential);
            for shard in 0..self.shard_sums.len() {
                self.ensure_shard_verified(map, shard)?;
            }
        }
        Ok(())
    }

    /// The whole payload as one row-major slice; verifies every shard
    /// first so callers never bulk-read unchecked bytes.
    pub fn payload(&self) -> Result<&[f32], StoreError> {
        self.verify_all()?;
        match &self.backing {
            Backing::Heap { payload, .. } => Ok(payload),
            Backing::Mapped { map, .. } => {
                let bytes = &map.bytes()[PAGE..PAGE + self.count * self.dims * 4];
                debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
                // SAFETY: same invariants as `vector` — page-aligned LE f32
                // payload on a little-endian host, mapping outlives `self`.
                Ok(unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr() as *const f32, self.count * self.dims)
                })
            }
        }
    }

    /// The opaque index section (an HNSW snapshot), if the store has one.
    /// The section carries its own internal checksum; the store does not
    /// interpret it.
    pub fn index_section(&self) -> Option<&[u8]> {
        match &self.backing {
            Backing::Heap { index, .. } => index.as_deref(),
            Backing::Mapped { map, index } => {
                index.map(|(off, len)| &map.bytes()[off..off + len])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("v2v_store_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Fault points are process-global; tests that rely on (or suppress)
    /// the mapped path must not overlap.
    fn backend_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample(count: usize, dims: usize) -> Vec<f32> {
        (0..count * dims).map(|i| (i as f32).sin()).collect()
    }

    #[test]
    fn round_trip_mmap_and_heap() {
        let _g = backend_lock();
        let dir = scratch("rt");
        let path = dir.join("e.v2s");
        let data = sample(100, 7);
        let fp = write_store(&path, 7, &data, 16, None).unwrap();
        for forced_heap in [false, true] {
            if forced_heap {
                v2v_fault::arm("store.mmap", v2v_fault::FaultPlan::always(v2v_fault::Fault::Error));
            }
            let s = EmbeddingStore::open(&path).unwrap();
            assert_eq!(s.is_mapped(), !forced_heap && Mmap::supported());
            assert_eq!((s.len(), s.dims()), (100, 7));
            assert_eq!(s.fingerprint(), fp);
            for i in 0..100 {
                assert_eq!(s.vector(i).unwrap(), &data[i * 7..(i + 1) * 7]);
            }
            assert_eq!(s.payload().unwrap(), &data[..]);
            assert!(s.index_section().is_none());
            assert!(s.vector(100).is_err());
            v2v_fault::disarm_all();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_section_round_trips() {
        let dir = scratch("ix");
        let path = dir.join("e.v2s");
        let ix = vec![9u8; 1234];
        write_store(&path, 4, &sample(10, 4), 4, Some(&ix)).unwrap();
        let s = EmbeddingStore::open(&path).unwrap();
        assert_eq!(s.index_section().unwrap(), &ix[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_round_trips() {
        let dir = scratch("empty");
        let path = dir.join("e.v2s");
        write_store(&path, 3, &[], 8, None).unwrap();
        let s = EmbeddingStore::open(&path).unwrap();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.payload().unwrap(), &[] as &[f32]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_rejected() {
        let dir = scratch("trunc");
        let path = dir.join("e.v2s");
        write_store(&path, 8, &sample(64, 8), 16, None).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() - 100, PAGE + 5, 40, 0] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(EmbeddingStore::open(&path).is_err(), "cut at {cut} must be rejected");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_bit_flip_caught_lazily_on_mmap() {
        if !Mmap::supported() {
            return;
        }
        let _g = backend_lock();
        let dir = scratch("flip");
        let path = dir.join("e.v2s");
        // 4 shards of 8 rows.
        write_store(&path, 4, &sample(32, 4), 8, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the third shard's payload.
        let victim = PAGE + (2 * 8 * 4 + 1) * 4;
        bytes[victim] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let s = EmbeddingStore::open(&path).unwrap(); // header is fine → opens
        assert!(s.is_mapped());
        assert!(s.vector(0).is_ok(), "untouched shards still verify");
        assert!(s.vector(15).is_ok());
        let err = s.vector(16).unwrap_err(); // first row of shard 2
        assert!(err.to_string().contains("shard 2"), "{err}");
        assert!(s.verify_all().is_err());
        // Heap open verifies eagerly and refuses outright.
        v2v_fault::arm("store.mmap", v2v_fault::FaultPlan::always(v2v_fault::Fault::Error));
        assert!(EmbeddingStore::open(&path).is_err());
        v2v_fault::disarm_all();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_corruption_rejected() {
        let dir = scratch("head");
        let path = dir.join("e.v2s");
        write_store(&path, 8, &sample(16, 8), 8, None).unwrap();
        let good = std::fs::read(&path).unwrap();
        for off in [0usize, 5, 9, 17, 30, 45, 60, 70, 75] {
            let mut bad = good.clone();
            bad[off] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            assert!(EmbeddingStore::open(&path).is_err(), "header byte {off} flip must reject");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_garbage_rejected() {
        let dir = scratch("trail");
        let path = dir.join("e.v2s");
        write_store(&path, 2, &sample(5, 2), 2, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(EmbeddingStore::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_files_are_cleanly_refused() {
        let dir = scratch("v1");
        let path = dir.join("e.bin");
        // A minimal V2VE v1 header: magic + version 1.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"V2VE");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 100]);
        std::fs::write(&path, &bytes).unwrap();
        let err = EmbeddingStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Captured before the codec moved into `v2v_base::bytes`, from
    /// integer-valued rows (no kernel rounding): every `.v2s` an earlier
    /// build wrote, indexed or not, must keep opening.
    #[test]
    fn store_bytes_are_pinned() {
        let dir = scratch("pin");
        let path = dir.join("e.v2s");
        let data: Vec<f32> = (0..37 * 5).map(|i| (i % 11) as f32 - 5.0).collect();
        let ix: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        let pins = [
            (None, (0xe1e4_8858_540a_ff82, 4880, 0xeed7_b021_c9e5_b7b0)),
            (Some(&ix[..]), (0xe1e4_8858_540a_ff82, 5180, 0x3066_2dee_fe5a_cd55)),
        ];
        for (index, want) in pins {
            let fp = write_store(&path, 5, &data, 8, index).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!((fp, bytes.len(), fnv1a64(FNV_OFFSET, &bytes)), want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_shard_rows_targets_a_mebibyte() {
        assert_eq!(default_shard_rows(128), 2048);
        assert_eq!(default_shard_rows(1 << 20), 1);
        assert!(default_shard_rows(0) >= 1);
    }
}
