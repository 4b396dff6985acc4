//! The edge write-ahead log: segment files + manifest-last commit.
//!
//! On-disk layout inside the WAL directory:
//!
//! ```text
//! wal.manifest                     sealed segments, committed last
//! wal-00000000000000000001.seg     sealed (listed in the manifest)
//! wal-00000000000000004097.seg     active (not yet in the manifest)
//! ```
//!
//! Each segment starts with a 16-byte header (`V2WL` magic, format
//! version, first sequence number) followed by fixed-size records:
//!
//! ```text
//! [seq u64][src u64][dst u64][weight f32][timestamp u64][flags u8][fnv1a64 u64]
//! ```
//!
//! Each record is a sealed `v2v_base::bytes` frame: the checksum covers the
//! 37 record bytes before it. The sequence number must equal
//! `segment.first_seq + record_index`, so a scan can tell exactly where a
//! crashed append stopped: the first record that fails either check is the
//! torn tail, and [`Wal::open`] truncates the file back to the last valid
//! record. Sealed segments are immutable and fully validated on open —
//! corruption there is a disk fault, reported as [`WalError::Corrupt`]
//! rather than silently dropped.
//!
//! Rotation follows the manifest-last commit protocol used by the walk
//! corpus shards: the active segment is fsync'd, *then* the manifest
//! naming it is atomically replaced ([`v2v_fault::write_atomic`]), then a
//! new active segment is created. A crash between those steps leaves at
//! most one unmanifested segment, which open() treats as the active one.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use v2v_base::bytes::{self, seal, unseal, Put, Reader};
use v2v_fault::inject::{self, Fault};

/// Segment-file magic: "V2V Wal Log".
pub const SEGMENT_MAGIC: [u8; 4] = *b"V2WL";

/// Segment format version, bumped on layout changes.
pub const SEGMENT_VERSION: u32 = 1;

const HEADER_BYTES: u64 = 16;

/// Fixed on-disk record size: 37 body bytes + 8 checksum bytes.
pub const RECORD_BYTES: usize = 45;

const MANIFEST_NAME: &str = "wal.manifest";

/// One edge update, as submitted by a client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeUpdate {
    pub src: u64,
    pub dst: u64,
    pub weight: f32,
    pub timestamp: Option<u64>,
}

impl EdgeUpdate {
    /// A plain unit-weight edge.
    pub fn new(src: u64, dst: u64) -> EdgeUpdate {
        EdgeUpdate { src, dst, weight: 1.0, timestamp: None }
    }
}

/// One durable log entry: an edge plus its assigned sequence number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalRecord {
    pub seq: u64,
    pub edge: EdgeUpdate,
}

/// Why the log could not be opened, appended to, or replayed.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    /// A *sealed* (manifest-committed) segment failed validation — this is
    /// a disk fault, not a crashed append, and is never silently repaired.
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// Appends one record's fixed 45-byte on-disk form to `out`.
fn put_record(out: &mut Vec<u8>, rec: &WalRecord) {
    let start = out.len();
    out.put_all(&[rec.seq, rec.edge.src, rec.edge.dst]);
    out.put(rec.edge.weight);
    out.put(rec.edge.timestamp.unwrap_or(0));
    out.put(u8::from(rec.edge.timestamp.is_some()));
    seal(out, start);
}

/// Serializes one record into its fixed 45-byte on-disk form.
pub fn encode_record(rec: &WalRecord) -> [u8; RECORD_BYTES] {
    let mut out = Vec::with_capacity(RECORD_BYTES);
    put_record(&mut out, rec);
    out.try_into().expect("a record is RECORD_BYTES long")
}

/// Decodes one record, returning `None` on any checksum or flag-byte
/// violation — the caller decides whether that means "torn tail" (active
/// segment) or "corrupt" (sealed segment).
pub fn decode_record(bytes: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(unseal(bytes.get(..RECORD_BYTES)?).ok()?);
    let fields = |r: &mut Reader| -> Result<_, bytes::Error> {
        Ok((r.u64()?, r.u64()?, r.u64()?, r.f32()?, r.u64()?, r.u8()?))
    };
    let (seq, src, dst, weight, ts, flags) = fields(&mut r).ok()?;
    (flags <= 1).then(|| WalRecord {
        seq,
        edge: EdgeUpdate { src, dst, weight, timestamp: (flags == 1).then_some(ts) },
    })
}

/// Log tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Seal the active segment once it holds at least this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions { segment_bytes: 8 * 1024 * 1024 }
    }
}

#[derive(Clone, Debug)]
struct Segment {
    name: String,
    first_seq: u64,
    records: u64,
}

/// The open write-ahead log. All appends go through one `Wal` value;
/// callers needing shared access wrap it in a `Mutex`.
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    sealed: Vec<Segment>,
    active: File,
    active_path: PathBuf,
    active_first_seq: u64,
    /// Valid bytes in the active segment (header + whole records).
    active_len: u64,
    next_seq: u64,
    /// Torn bytes discarded from the active segment's tail on open.
    recovered_truncated_bytes: u64,
}

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.seg")
}

impl Wal {
    /// Opens (creating if absent) the log in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<Wal, WalError> {
        Wal::open_with(dir, WalOptions::default())
    }

    /// [`open`](Wal::open) with explicit tuning. Recovery runs here: the
    /// manifest names the sealed segments (each fully validated), any one
    /// unmanifested segment is the active tail, and a torn or corrupt
    /// suffix of the active segment is truncated back to the last valid
    /// record — never treated as fatal.
    pub fn open_with(dir: impl AsRef<Path>, options: WalOptions) -> Result<Wal, WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let sealed = read_manifest(&dir)?;
        let mut expected_seq = 1u64;
        for seg in &sealed {
            let records = scan_segment(&dir.join(&seg.name), seg.first_seq, true)?.0;
            if seg.first_seq != expected_seq || records != seg.records {
                return Err(WalError::Corrupt(format!(
                    "sealed segment {} holds {records} records from seq {} \
                     (manifest claims {} from {})",
                    seg.name, seg.first_seq, seg.records, expected_seq
                )));
            }
            expected_seq += records;
        }

        // Segment files on disk but not in the manifest: the rotation
        // protocol leaves at most one (the active tail).
        let manifested: Vec<&str> = sealed.iter().map(|s| s.name.as_str()).collect();
        let mut orphans: BTreeMap<u64, String> = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(first_seq) = parse_segment_name(&name) {
                if !manifested.contains(&name.as_str()) {
                    orphans.insert(first_seq, name);
                }
            }
        }
        if orphans.len() > 1 {
            return Err(WalError::Corrupt(format!(
                "{} unmanifested segments (expected at most one active tail): {:?}",
                orphans.len(),
                orphans.values().collect::<Vec<_>>()
            )));
        }

        let (active_path, active_first_seq, active_records, truncated) =
            match orphans.into_iter().next() {
                Some((first_seq, name)) => {
                    if first_seq != expected_seq {
                        return Err(WalError::Corrupt(format!(
                            "active segment {name} starts at seq {first_seq}, expected {expected_seq}"
                        )));
                    }
                    let path = dir.join(&name);
                    let (records, valid_len) = scan_segment(&path, first_seq, false)?;
                    let file_len = std::fs::metadata(&path)?.len();
                    let torn = file_len.saturating_sub(valid_len);
                    if torn > 0 {
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(valid_len)?;
                        f.sync_data()?;
                    }
                    (path, first_seq, records, torn)
                }
                None => {
                    let path = dir.join(segment_name(expected_seq));
                    create_segment(&path, expected_seq)?;
                    (path, expected_seq, 0, 0)
                }
            };

        let mut active = OpenOptions::new().append(true).open(&active_path)?;
        let active_len = active.seek(SeekFrom::End(0))?;
        let next_seq = active_first_seq + active_records;
        if truncated > 0 {
            v2v_obs::global_metrics()
                .counter("ingest.wal.torn_tail_recoveries")
                .inc();
            v2v_obs::obs_info!(
                "wal recovery: truncated {truncated} torn bytes from {}",
                active_path.display()
            );
        }
        let wal = Wal {
            dir,
            options,
            sealed,
            active,
            active_path,
            active_first_seq,
            active_len,
            next_seq,
            recovered_truncated_bytes: truncated,
        };
        wal.publish_size_gauges();
        Ok(wal)
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next appended edge will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest durable sequence number (0 = the log is empty).
    pub fn durable_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Total durable records across all segments.
    pub fn num_records(&self) -> u64 {
        self.durable_seq()
    }

    /// Torn bytes discarded from the active tail by the last open.
    pub fn recovered_truncated_bytes(&self) -> u64 {
        self.recovered_truncated_bytes
    }

    /// On-disk segment count (sealed plus the active one).
    pub fn num_segments(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Total durable bytes across all segments (headers included). Sealed
    /// segments are fixed-size records, so their length is arithmetic —
    /// no stat calls on the hot path.
    pub fn size_bytes(&self) -> u64 {
        self.sealed
            .iter()
            .map(|s| HEADER_BYTES + s.records * RECORD_BYTES as u64)
            .sum::<u64>()
            + self.active_len
    }

    /// Publishes the log's size gauges — the numbers a compaction policy
    /// (and capacity dashboards) will watch. Called on open, append, and
    /// rotation so the gauges never go stale.
    fn publish_size_gauges(&self) {
        let metrics = v2v_obs::global_metrics();
        metrics.gauge("ingest.wal.segments").set(self.num_segments() as f64);
        metrics.gauge("ingest.wal.bytes").set(self.size_bytes() as f64);
    }

    /// Appends `edges` as one durable batch: every record is written and
    /// fsync'd before `Ok((first_seq, last_seq))` returns — the caller may
    /// acknowledge the edges upstream only after that. On any failure the
    /// in-memory and on-disk state roll back to the pre-batch boundary
    /// (the partial tail is truncated), so a retry reuses the same
    /// sequence numbers and an interleaved crash recovers identically.
    ///
    /// Fault points: `ingest.wal.append` (the batch write; `ShortWrite`
    /// lands a real prefix), `ingest.wal.fsync`.
    pub fn append_batch(&mut self, edges: &[EdgeUpdate]) -> Result<(u64, u64), WalError> {
        if edges.is_empty() {
            return Ok((self.next_seq, self.next_seq - 1));
        }
        if self.active_len >= HEADER_BYTES + self.options.segment_bytes {
            self.rotate()?;
        }

        let first = self.next_seq;
        let mut buf = Vec::with_capacity(edges.len() * RECORD_BYTES);
        for (seq, &edge) in (first..).zip(edges) {
            put_record(&mut buf, &WalRecord { seq, edge });
        }

        let result = (|| -> std::io::Result<()> {
            injected_write(&mut self.active, &buf, "ingest.wal.append")?;
            inject::apply("ingest.wal.fsync")?;
            self.active.sync_data()?;
            Ok(())
        })();

        if let Err(e) = result {
            // Roll back to the batch boundary: truncate whatever prefix
            // landed, so the in-process log equals a freshly recovered one.
            self.active.set_len(self.active_len)?;
            self.active.seek(SeekFrom::End(0))?;
            return Err(e.into());
        }
        self.active_len += buf.len() as u64;
        self.next_seq += edges.len() as u64;
        let metrics = v2v_obs::global_metrics();
        metrics.counter("ingest.wal.appends").inc();
        metrics.counter("ingest.wal.records").add(edges.len() as u64);
        metrics.gauge("ingest.wal.durable_seq").set(self.durable_seq() as f64);
        self.publish_size_gauges();
        Ok((first, self.next_seq - 1))
    }

    /// Seals the active segment and starts a new one (manifest-last).
    fn rotate(&mut self) -> Result<(), WalError> {
        self.active.sync_data()?;
        let records = self.next_seq - self.active_first_seq;
        let name = self
            .active_path
            .file_name()
            .expect("segment has a file name")
            .to_string_lossy()
            .into_owned();
        let mut sealed = self.sealed.clone();
        sealed.push(Segment { name, first_seq: self.active_first_seq, records });
        write_manifest(&self.dir, &sealed)?;
        self.sealed = sealed;

        let path = self.dir.join(segment_name(self.next_seq));
        create_segment(&path, self.next_seq)?;
        self.active = OpenOptions::new().append(true).open(&path)?;
        self.active_path = path;
        self.active_first_seq = self.next_seq;
        self.active_len = HEADER_BYTES;
        self.publish_size_gauges();
        Ok(())
    }

    /// Streams every durable record with `seq >= from_seq`, in order.
    /// Replay is idempotent by construction: sequence numbers are strictly
    /// increasing, so an applier that tracks its last applied sequence can
    /// call this after every restart without double-applying anything.
    pub fn replay_from(
        &self,
        from_seq: u64,
        f: &mut dyn FnMut(&WalRecord),
    ) -> Result<u64, WalError> {
        let mut replayed = 0u64;
        for seg in &self.sealed {
            replayed += replay_segment(&self.dir.join(&seg.name), seg.first_seq, from_seq, f)?;
        }
        replayed += replay_segment(&self.active_path, self.active_first_seq, from_seq, f)?;
        Ok(replayed)
    }

    /// All durable records, in order. Convenience over
    /// [`replay_from`](Wal::replay_from) for tests and small logs.
    pub fn read_all(&self) -> Result<Vec<WalRecord>, WalError> {
        let mut out = Vec::new();
        self.replay_from(1, &mut |r| out.push(*r))?;
        Ok(out)
    }
}

/// Writes `buf` through the `point` fault gate, mirroring
/// `v2v-fault::io::InjectedWriter`: `ShortWrite` lands a real prefix on
/// disk before erroring, so recovery tests see a genuinely torn tail.
fn injected_write(file: &mut File, buf: &[u8], point: &str) -> std::io::Result<()> {
    match inject::check(point) {
        None => file.write_all(buf),
        Some(Fault::Error) => Err(inject::to_io_error(point)),
        Some(Fault::ShortWrite(n)) => {
            let n = n.min(buf.len());
            file.write_all(&buf[..n])?;
            let _ = file.flush();
            Err(inject::to_io_error(point))
        }
        Some(Fault::DelayMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            file.write_all(buf)
        }
    }
}

/// The 16-byte header a segment starting at `first_seq` begins with.
fn segment_header(first_seq: u64) -> Vec<u8> {
    let mut header = SEGMENT_MAGIC.to_vec();
    header.put(SEGMENT_VERSION);
    header.put(first_seq);
    header
}

fn create_segment(path: &Path, first_seq: u64) -> Result<(), WalError> {
    let mut f = File::create(path)?;
    f.write_all(&segment_header(first_seq))?;
    f.sync_data()?;
    sync_dir(path.parent().unwrap_or(Path::new(".")));
    Ok(())
}

fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".seg")?.parse().ok()
}

/// Scans one segment, validating the header and every record in order.
/// Returns `(valid_records, valid_byte_length)`. With `strict` (sealed
/// segments) any invalid byte is [`WalError::Corrupt`]; without it (the
/// active segment) the scan stops at the first invalid record — that is
/// the torn tail the caller truncates.
fn scan_segment(path: &Path, first_seq: u64, strict: bool) -> Result<(u64, u64), WalError> {
    let bytes = std::fs::read(path)
        .map_err(|e| WalError::Io(std::io::Error::other(format!("{}: {e}", path.display()))))?;
    if !bytes.starts_with(&segment_header(first_seq)) {
        return Err(WalError::Corrupt(format!(
            "segment {} has a bad header (expected V2WL v{SEGMENT_VERSION} first_seq {first_seq})",
            path.display()
        )));
    }
    let records = valid_records(&bytes, first_seq).count() as u64;
    let pos = HEADER_BYTES as usize + records as usize * RECORD_BYTES;
    if strict && pos != bytes.len() {
        return Err(WalError::Corrupt(format!(
            "sealed segment {} has {} invalid bytes after record {records}",
            path.display(),
            bytes.len() - pos
        )));
    }
    Ok((records, pos as u64))
}

/// The records after a segment's header that decode and carry the next
/// sequence number, in order, up to the first that does not.
fn valid_records(bytes: &[u8], first_seq: u64) -> impl Iterator<Item = WalRecord> + '_ {
    bytes
        .get(HEADER_BYTES as usize..)
        .unwrap_or_default()
        .chunks_exact(RECORD_BYTES)
        .zip(first_seq..)
        .map_while(|(raw, seq)| decode_record(raw).filter(|rec| rec.seq == seq))
}

fn replay_segment(
    path: &Path,
    first_seq: u64,
    from_seq: u64,
    f: &mut dyn FnMut(&WalRecord),
) -> Result<u64, WalError> {
    let bytes = std::fs::read(path)?;
    let mut replayed = 0u64;
    for rec in valid_records(&bytes, first_seq).filter(|rec| rec.seq >= from_seq) {
        f(&rec);
        replayed += 1;
    }
    Ok(replayed)
}

fn read_manifest(dir: &Path) -> Result<Vec<Segment>, WalError> {
    let path = dir.join(MANIFEST_NAME);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut lines = text.lines();
    if lines.next() != Some("v2v-wal 1") {
        return Err(WalError::Corrupt(format!("{} has a bad header line", path.display())));
    }
    let mut out = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (name, first_seq, records) = match (parts.next(), parts.next(), parts.next()) {
            (Some(n), Some(f), Some(r)) => (n, f, r),
            _ => {
                return Err(WalError::Corrupt(format!(
                    "{}: malformed manifest line {line:?}",
                    path.display()
                )))
            }
        };
        let first_seq = first_seq.parse().map_err(|_| {
            WalError::Corrupt(format!("{}: bad first_seq in {line:?}", path.display()))
        })?;
        let records = records.parse().map_err(|_| {
            WalError::Corrupt(format!("{}: bad record count in {line:?}", path.display()))
        })?;
        out.push(Segment { name: name.to_string(), first_seq, records });
    }
    Ok(out)
}

fn write_manifest(dir: &Path, sealed: &[Segment]) -> Result<(), WalError> {
    let mut text = String::from("v2v-wal 1\n");
    for seg in sealed {
        text.push_str(&format!("{} {} {}\n", seg.name, seg.first_seq, seg.records));
    }
    v2v_fault::write_atomic(dir.join(MANIFEST_NAME), text.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};
    use v2v_base::hash::{fnv1a64, FNV_OFFSET};
    use v2v_fault::FaultPlan;

    /// Fault points are process-global: an armed `ingest.wal.append` fails
    /// whichever test appends next, so every test here runs under this
    /// lock (poison is ignored, so one failure does not fail the rest).
    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v2v_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn edges(n: u64, salt: u64) -> Vec<EdgeUpdate> {
        (0..n)
            .map(|i| EdgeUpdate {
                src: i * 3 + salt,
                dst: i * 7 + salt + 1,
                weight: 1.0 + (i as f32) * 0.5,
                timestamp: (i % 2 == 0).then_some(1000 + i),
            })
            .collect()
    }

    #[test]
    fn append_assigns_sequential_seqs_and_replays_in_order() {
        let _serial = serial();
        let dir = scratch("basic");
        let mut wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.next_seq(), 1);
        let (a, b) = wal.append_batch(&edges(3, 0)).unwrap();
        assert_eq!((a, b), (1, 3));
        let (a, b) = wal.append_batch(&edges(2, 10)).unwrap();
        assert_eq!((a, b), (4, 5));
        let all = wal.read_all().unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert_eq!(all[3].edge, edges(2, 10)[0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_after_the_last_durable_record() {
        let _serial = serial();
        let dir = scratch("reopen");
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append_batch(&edges(4, 0)).unwrap();
        }
        let mut wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.next_seq(), 5);
        assert_eq!(wal.recovered_truncated_bytes(), 0);
        wal.append_batch(&edges(1, 99)).unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_segments_and_replay_crosses_them() {
        let _serial = serial();
        let dir = scratch("rotate");
        let opts = WalOptions { segment_bytes: 4 * RECORD_BYTES as u64 };
        let mut wal = Wal::open_with(&dir, opts).unwrap();
        for round in 0..6 {
            wal.append_batch(&edges(3, round)).unwrap();
        }
        assert!(wal.sealed.len() >= 2, "small segments must have rotated");
        let all = wal.read_all().unwrap();
        assert_eq!(all.len(), 18);
        assert!(all.windows(2).all(|w| w[1].seq == w[0].seq + 1));

        // Reopen across the manifest: same records, appends continue.
        drop(wal);
        let wal = Wal::open_with(&dir, opts).unwrap();
        assert_eq!(wal.next_seq(), 19);
        assert_eq!(wal.read_all().unwrap(), all);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Captured before the codec moved into `v2v_base::bytes`: two batches
    /// and one rotation leave a sealed and an active segment whose bytes
    /// any earlier build's log must keep replaying to.
    #[test]
    fn segment_bytes_are_pinned() {
        let _serial = serial();
        let dir = scratch("pin");
        let mut wal = Wal::open_with(&dir, WalOptions { segment_bytes: 2 * RECORD_BYTES as u64 })
            .unwrap();
        wal.append_batch(&edges(3, 0)).unwrap();
        wal.append_batch(&edges(4, 20)).unwrap();
        assert_eq!(wal.num_segments(), 2);
        let pins = [(1, (151, 0xb3ad_b1a9_ff88_a596)), (4, (196, 0xabf9_cec9_0270_5283))];
        for (first_seq, want) in pins {
            let bytes = std::fs::read(dir.join(segment_name(first_seq))).unwrap();
            assert_eq!((bytes.len(), fnv1a64(FNV_OFFSET, &bytes)), want, "segment {first_seq}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_accounting_tracks_segments_and_bytes() {
        let _serial = serial();
        let dir = scratch("sizes");
        let opts = WalOptions { segment_bytes: 4 * RECORD_BYTES as u64 };
        let mut wal = Wal::open_with(&dir, opts).unwrap();
        assert_eq!(wal.num_segments(), 1);
        assert_eq!(wal.size_bytes(), HEADER_BYTES);
        wal.append_batch(&edges(3, 0)).unwrap();
        assert_eq!(wal.size_bytes(), HEADER_BYTES + 3 * RECORD_BYTES as u64);
        for round in 1..6 {
            wal.append_batch(&edges(3, round)).unwrap();
        }
        assert!(wal.num_segments() >= 3, "small segments must have rotated");
        // The arithmetic size must match what is actually on disk.
        let on_disk: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert_eq!(wal.size_bytes(), on_disk);
        // Reopen sees the same numbers (and republishes the gauges —
        // asserted structurally here; the shared gauge values themselves
        // race with other tests' logs, so they are not compared).
        let segments = wal.num_segments();
        drop(wal);
        let wal = Wal::open_with(&dir, opts).unwrap();
        assert_eq!(wal.size_bytes(), on_disk);
        assert_eq!(wal.num_segments(), segments);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let _serial = serial();
        let dir = scratch("torn");
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append_batch(&edges(3, 0)).unwrap();
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let seg = dir.join(segment_name(1));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xAB; RECORD_BYTES / 2]).unwrap();
        drop(f);

        let wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.recovered_truncated_bytes(), (RECORD_BYTES / 2) as u64);
        assert_eq!(wal.read_all().unwrap().len(), 3, "valid prefix must survive");
        assert_eq!(wal.next_seq(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_full_record_at_tail_is_also_truncated() {
        let _serial = serial();
        let dir = scratch("corrupt_tail");
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append_batch(&edges(3, 0)).unwrap();
        }
        // Flip one bit inside the last record: checksum now fails.
        let seg = dir.join(segment_name(1));
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - RECORD_BYTES / 2;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();

        let wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 2, "corrupt record is dropped");
        assert_eq!(wal.next_seq(), 3, "its sequence number is reused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sealed_segment_is_rejected_not_repaired() {
        let _serial = serial();
        let dir = scratch("sealed");
        let opts = WalOptions { segment_bytes: 2 * RECORD_BYTES as u64 };
        {
            let mut wal = Wal::open_with(&dir, opts).unwrap();
            for round in 0..4 {
                wal.append_batch(&edges(2, round)).unwrap();
            }
            assert!(!wal.sealed.is_empty());
        }
        let first = dir.join(segment_name(1));
        let mut bytes = std::fs::read(&first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&first, &bytes).unwrap();
        match Wal::open_with(&dir, opts) {
            Err(WalError::Corrupt(msg)) => assert!(msg.contains("sealed"), "{msg}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("corrupt sealed segment must be refused"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_short_write_rolls_back_and_retry_is_bit_identical() {
        let _serial = serial();
        let dir = scratch("short");
        let reference = scratch("short_ref");

        // Uninterrupted run: the bytes every recovery must converge to.
        let mut ref_wal = Wal::open(&reference).unwrap();
        ref_wal.append_batch(&edges(3, 0)).unwrap();
        ref_wal.append_batch(&edges(2, 50)).unwrap();

        let mut wal = Wal::open(&dir).unwrap();
        wal.append_batch(&edges(3, 0)).unwrap();
        v2v_fault::arm("ingest.wal.append", FaultPlan::always(Fault::ShortWrite(20)));
        let err = wal.append_batch(&edges(2, 50)).unwrap_err();
        v2v_fault::inject::disarm("ingest.wal.append");
        assert!(err.to_string().contains("ingest.wal.append"), "{err}");
        assert_eq!(wal.next_seq(), 4, "failed batch must not consume seqs");

        // Retry lands the same seqs; the log equals the uninterrupted run.
        wal.append_batch(&edges(2, 50)).unwrap();
        assert_eq!(wal.read_all().unwrap(), ref_wal.read_all().unwrap());
        let a = std::fs::read(dir.join(segment_name(1))).unwrap();
        let b = std::fs::read(reference.join(segment_name(1))).unwrap();
        assert_eq!(a, b, "replayed log must be bit-identical to the uninterrupted run");

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&reference).unwrap();
    }

    #[test]
    fn injected_short_write_then_crash_recovers_every_acked_record() {
        let _serial = serial();
        let dir = scratch("short_crash");
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append_batch(&edges(3, 0)).unwrap(); // ACKed
            v2v_fault::arm("ingest.wal.append", FaultPlan::always(Fault::ShortWrite(30)));
            let _ = wal.append_batch(&edges(2, 50)); // never ACKed
            v2v_fault::inject::disarm("ingest.wal.append");
            // "Crash" here: drop without further writes. The rollback
            // truncated the torn prefix, but even if it had not, open()
            // would — simulate that harder case by re-tearing the file.
            let seg = dir.join(segment_name(1));
            let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
            f.write_all(&encode_record(&WalRecord { seq: 4, edge: EdgeUpdate::new(9, 9) })[..30])
                .unwrap();
        }
        let wal = Wal::open(&dir).unwrap();
        let all = wal.read_all().unwrap();
        assert_eq!(all.len(), 3, "every ACKed record survives, no partial applied");
        assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_fsync_error_fails_the_batch_without_acking() {
        let _serial = serial();
        let dir = scratch("fsync");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append_batch(&edges(2, 0)).unwrap();
        v2v_fault::arm("ingest.wal.fsync", FaultPlan::always(Fault::Error));
        assert!(wal.append_batch(&edges(1, 9)).is_err());
        v2v_fault::inject::disarm("ingest.wal.fsync");
        assert_eq!(wal.read_all().unwrap().len(), 2);
        // Delay faults stall but succeed.
        v2v_fault::arm("ingest.wal.fsync", FaultPlan::always(Fault::DelayMs(1)));
        assert!(wal.append_batch(&edges(1, 9)).is_ok());
        v2v_fault::inject::disarm("ingest.wal.fsync");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_from_skips_already_applied_prefix() {
        let _serial = serial();
        let dir = scratch("replay_from");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append_batch(&edges(5, 0)).unwrap();
        let mut seen = Vec::new();
        let n = wal.replay_from(4, &mut |r| seen.push(r.seq)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(seen, vec![4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let _serial = serial();
        let dir = scratch("empty");
        let mut wal = Wal::open(&dir).unwrap();
        let (first, last) = wal.append_batch(&[]).unwrap();
        assert!(first > last, "empty range signals nothing appended");
        assert_eq!(wal.next_seq(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
