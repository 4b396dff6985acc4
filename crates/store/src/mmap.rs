//! Read-only memory mapping without a libc crate.
//!
//! Same zero-dependency approach as `v2v-obs`'s SIGPROF sampler: `std`
//! already links libc, so the handful of symbols we need (`mmap`,
//! `munmap`, `madvise`) are declared directly. Non-Unix targets get a
//! stub that always reports mmap as unavailable — callers (the store
//! opener) fall back to heap loading, which is the portable path.

use std::fs::File;
use std::io;

/// A read-only mapping of a whole file. Pages are faulted in lazily by
/// the kernel; dropping the value unmaps.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is read-only (PROT_READ, MAP_PRIVATE) for its whole
// lifetime, so concurrent reads from any thread are safe.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len` bytes
        // (len > 0 is enforced at map time) and stays mapped until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never: zero-length maps are rejected).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(unix)]
mod imp {
    use super::Mmap;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_SEQUENTIAL: i32 = 2;
    const MADV_WILLNEED: i32 = 3;

    extern "C" {
        fn mmap(
            addr: *mut std::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut std::ffi::c_void;
        fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }

    pub fn map_readonly(file: &File, len: usize) -> io::Result<Mmap> {
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "cannot map an empty file"));
        }
        // SAFETY: fd is a valid open file descriptor for the lifetime of
        // this call; a MAP_PRIVATE read-only mapping of it has no aliasing
        // requirements on our side. The result is checked against MAP_FAILED.
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr: ptr as *const u8, len })
    }

    pub fn advise(map: &Mmap, advice: Advice) {
        let code = match advice {
            Advice::Sequential => MADV_SEQUENTIAL,
            Advice::WillNeed => MADV_WILLNEED,
        };
        // Best-effort: advice is a performance hint, failure is ignored.
        // SAFETY: (ptr, len) is exactly the live mapping created above.
        unsafe {
            madvise(map.ptr as *mut std::ffi::c_void, map.len, code);
        }
    }

    pub fn unmap(map: &mut Mmap) {
        // SAFETY: (ptr, len) came from a successful mmap and is unmapped
        // exactly once (Drop).
        unsafe {
            munmap(map.ptr as *mut std::ffi::c_void, map.len);
        }
    }

    pub const AVAILABLE: bool = cfg!(target_endian = "little");

    pub enum Advice {
        Sequential,
        WillNeed,
    }
}

#[cfg(not(unix))]
mod imp {
    use super::Mmap;
    use std::fs::File;
    use std::io;

    pub fn map_readonly(_file: &File, _len: usize) -> io::Result<Mmap> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "mmap unavailable on this platform"))
    }

    pub fn advise(_map: &Mmap, _advice: Advice) {}

    pub fn unmap(_map: &mut Mmap) {
        unreachable!("no Mmap can be constructed on non-unix targets");
    }

    pub const AVAILABLE: bool = false;

    pub enum Advice {
        Sequential,
        WillNeed,
    }
}

pub use imp::Advice;

impl Mmap {
    /// Maps `len` bytes of `file` read-only, or errors when the platform
    /// (or the kernel) cannot. The store's embedding rows are
    /// reinterpreted in place as little-endian `f32`, so mapping is also
    /// refused on big-endian hosts ([`Mmap::supported`] is `false` there);
    /// such hosts use the byte-swapping heap loader instead.
    pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
        if !Self::supported() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mmap-backed stores require a little-endian unix host",
            ));
        }
        imp::map_readonly(file, len)
    }

    /// Whether this build can serve from a mapping at all.
    pub fn supported() -> bool {
        cfg!(unix) && imp::AVAILABLE
    }

    /// Issues an access-pattern hint for the whole mapping (best-effort).
    pub fn advise(&self, advice: Advice) {
        imp::advise(self, advice)
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        imp::unmap(self);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents() {
        let dir = std::env::temp_dir().join(format!("v2v_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();

        let file = File::open(&path).unwrap();
        let map = Mmap::map(&file, payload.len()).unwrap();
        drop(file); // the mapping must outlive the fd
        assert_eq!(map.len(), payload.len());
        assert_eq!(map.bytes(), &payload[..]);
        map.advise(Advice::Sequential);
        map.advise(Advice::WillNeed);
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_map_is_an_error() {
        let dir = std::env::temp_dir().join(format!("v2v_mmap_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("z.bin");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        assert!(Mmap::map(&file, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
