//! Atomic durable file writes.
//!
//! The crash-safety contract: after [`write_atomic`] returns `Ok`, the
//! destination durably holds the new content; if the process dies at any
//! point before that — including mid-write and mid-rename — the
//! destination holds whatever it held before, byte for byte. There is no
//! instant at which a reader can observe a torn or partial file at the
//! destination path.
//!
//! Mechanism (the classic maildir/sqlite recipe):
//!
//! 1. stage content into `.<name>.tmp.<pid>` *in the destination
//!    directory* (same filesystem, so the final rename cannot degrade to
//!    copy+delete),
//! 2. `fsync` the temp file so the content is on disk before the name is,
//! 3. `rename(2)` over the destination — atomic on POSIX,
//! 4. `fsync` the directory so the rename itself survives power loss.
//!
//! Fault points (see [`crate::inject`]): `atomic.write` (each buffer
//! write; supports short writes), `atomic.fsync`, `atomic.rename`.

use crate::inject::{self, Fault};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Names the staging file for `path` in the same directory.
fn temp_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("artifact");
    path.with_file_name(format!(".{name}.tmp.{}", std::process::id()))
}

/// A writer that consults the `atomic.write` fault point on every write,
/// so tests can tear or stall the stream deterministically.
struct InjectedWriter<W: Write> {
    inner: W,
}

impl<W: Write> Write for InjectedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match inject::check("atomic.write") {
            None => self.inner.write(buf),
            Some(Fault::Error) => Err(inject::to_io_error("atomic.write")),
            Some(Fault::ShortWrite(n)) => {
                // Land a real prefix on disk, then fail — a torn write.
                let n = n.min(buf.len());
                self.inner.write_all(&buf[..n])?;
                let _ = self.inner.flush();
                Err(inject::to_io_error("atomic.write"))
            }
            Some(Fault::DelayMs(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.write(buf)
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Atomically replaces `path` with `bytes` (write temp + fsync + rename).
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_with(path, |w| w.write_all(bytes))
}

/// Atomically replaces `path` with whatever `fill` writes. `fill` streams
/// into a buffered temp-file writer; the destination is untouched unless
/// every step (fill, flush, fsync, rename) succeeds.
pub fn write_atomic_with(
    path: impl AsRef<Path>,
    fill: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = temp_path(path);

    // Any failure from here on removes the temp file; the destination is
    // never touched until the final rename.
    let result = (|| {
        let file = File::create(&tmp)?;
        let mut writer = InjectedWriter { inner: std::io::BufWriter::new(file) };
        fill(&mut writer)?;
        writer.flush()?;
        let file = writer.inner.into_inner().map_err(|e| e.into_error())?;
        inject::apply("atomic.fsync")?;
        file.sync_all()?;
        inject::apply("atomic.rename")?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    })();

    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Fsyncs the directory containing `path` so the rename is durable.
/// Best-effort: some filesystems refuse `fsync` on directories; the
/// rename's atomicity (the contract readers depend on) holds regardless.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{arm, disarm, FaultPlan};

    /// Fault points are process-global: a test that arms `atomic.*` must
    /// not overlap one that expects an undisturbed write.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v2v_fault_io_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let _guard = fault_lock();
        let dir = scratch("basic");
        let path = dir.join("a.txt");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_fill() {
        let _guard = fault_lock();
        let dir = scratch("fill");
        let path = dir.join("b.txt");
        write_atomic_with(&path, |w| {
            for i in 0..10 {
                writeln!(w, "line {i}")?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fill_error_leaves_old_content_and_no_temp() {
        let _guard = fault_lock();
        let dir = scratch("err");
        let path = dir.join("c.txt");
        write_atomic(&path, b"intact").unwrap();
        let err = write_atomic_with(&path, |w| {
            w.write_all(b"partial new content")?;
            Err(std::io::Error::other("simulated failure"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("simulated"));
        assert_eq!(std::fs::read(&path).unwrap(), b"intact", "old file must survive");
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(leftovers.len(), 1, "temp file must be cleaned up");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_short_write_never_tears_destination() {
        let _guard = fault_lock();
        let dir = scratch("short");
        let path = dir.join("d.bin");
        write_atomic(&path, b"original-content").unwrap();

        arm("atomic.write", FaultPlan::always(crate::Fault::ShortWrite(4)));
        let err = write_atomic(&path, b"replacement-content").unwrap_err();
        disarm("atomic.write");
        assert!(err.to_string().contains("atomic.write"), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"original-content",
            "a torn write must never reach the destination"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_rename_failure_leaves_old_content() {
        let _guard = fault_lock();
        let dir = scratch("rename");
        let path = dir.join("e.bin");
        write_atomic(&path, b"old").unwrap();
        arm("atomic.rename", FaultPlan::always(crate::Fault::Error));
        assert!(write_atomic(&path, b"new").is_err());
        disarm("atomic.rename");
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_errors_cleanly() {
        let path = Path::new("/nonexistent-v2v-dir/x.txt");
        assert!(write_atomic(path, b"x").is_err());
    }
}
