//! File-backed region storage: a `MAP_SHARED` memory map over a pool file.
//!
//! This is the "real durability" half of the backend split (the heap
//! simulator is the other). A mapped file survives `kill -9` of the
//! process — dirty pages live in the kernel page cache and are written
//! back regardless of how the process died — so crash-consistency claims
//! can be tested against *actual* process death instead of the simulated
//! media model. `msync` stands in for the flush path on real hardware:
//! power-loss durability (as opposed to process-death durability) is only
//! as strong as the last sync.
//!
//! No external crates: `mmap`/`munmap`/`msync`/`sysconf` are declared
//! directly against libc (std already links it), and file sizing goes
//! through [`std::fs::File::set_len`] (`ftruncate`).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// A failed file/mapping operation with enough context to act on: which
/// syscall, which file, what the OS said. Converted to `HdnhError::Io`
/// by the core crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvmIoError {
    /// The failing operation (`"mmap"`, `"msync"`, `"ftruncate"`, ...).
    pub op: &'static str,
    /// The file (or directory) the operation addressed.
    pub path: PathBuf,
    /// OS error text.
    pub msg: String,
}

impl NvmIoError {
    pub(crate) fn new(op: &'static str, path: &Path, err: std::io::Error) -> Self {
        NvmIoError {
            op,
            path: path.to_path_buf(),
            msg: err.to_string(),
        }
    }

    pub(crate) fn msg(op: &'static str, path: &Path, msg: impl Into<String>) -> Self {
        NvmIoError {
            op,
            path: path.to_path_buf(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for NvmIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed for {}: {}", self.op, self.path.display(), self.msg)
    }
}

impl std::error::Error for NvmIoError {}

mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MS_ASYNC: c_int = 1;
    pub const MS_SYNC: c_int = 4;
    pub const SC_PAGESIZE: c_int = 30;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }
}

/// The kernel's page size, read once. `msync` fails with `EINVAL` for an
/// address that is not a multiple of it, and it is not always 4 KiB:
/// aarch64 kernels run with 16 or 64 KiB pages.
fn page_size() -> usize {
    static PAGE: OnceLock<usize> = OnceLock::new();
    *PAGE.get_or_init(|| {
        // SAFETY: `sysconf` reads a configuration value; it has no
        // preconditions and touches no memory of ours.
        let page = unsafe { sys::sysconf(sys::SC_PAGESIZE) };
        usize::try_from(page)
            .ok()
            .filter(|p| p.is_power_of_two())
            .expect("sysconf(_SC_PAGESIZE) names the kernel's page size")
    })
}

/// A shared, writable memory map over one pool file, exposed as a slice
/// of `AtomicU64` words (the same representation the heap backend uses,
/// so every region access stays defined behaviour under concurrency).
pub struct FileMap {
    ptr: *mut u8,
    map_len: usize,
    file: File,
    path: PathBuf,
}

// SAFETY: the mapping is plain memory accessed exclusively through
// `&[AtomicU64]`; the raw pointer is only used for mapping lifecycle
// (msync/munmap), which the owning region serializes.
unsafe impl Send for FileMap {}
unsafe impl Sync for FileMap {}

impl FileMap {
    /// Creates (or truncates) `path` at `len` bytes and maps it shared.
    pub fn create(path: &Path, len: usize) -> Result<FileMap, NvmIoError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| NvmIoError::new("open", path, e))?;
        // ftruncate: size the file before mapping (mapping past EOF
        // SIGBUSes on access).
        file.set_len(Self::file_len(len))
            .map_err(|e| NvmIoError::new("ftruncate", path, e))?;
        Self::map(file, path, len)
    }

    /// Maps an existing file shared; the region length is the file length.
    pub fn open(path: &Path) -> Result<(FileMap, usize), NvmIoError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| NvmIoError::new("open", path, e))?;
        let len = file
            .metadata()
            .map_err(|e| NvmIoError::new("stat", path, e))?
            .len() as usize;
        let map = Self::map(file, path, len)?;
        Ok((map, len))
    }

    fn map(file: File, path: &Path, len: usize) -> Result<FileMap, NvmIoError> {
        use std::os::fd::AsRawFd;
        let map_len = (Self::file_len(len) as usize).max(8);
        // SAFETY: mapping a file we own at offset 0; failure is checked.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                map_len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(NvmIoError::new("mmap", path, std::io::Error::last_os_error()));
        }
        Ok(FileMap {
            ptr: ptr as *mut u8,
            map_len,
            file,
            path: path.to_path_buf(),
        })
    }

    /// Region bytes rounded up to whole words (the mapped file is always
    /// a multiple of 8 so the word slice covers every byte).
    fn file_len(len: usize) -> u64 {
        len.div_ceil(8) as u64 * 8
    }

    /// The mapping as atomic words. An mmap is page-aligned, so the
    /// 8-byte alignment `AtomicU64` needs always holds.
    #[inline]
    pub fn words(&self, n_words: usize) -> &[AtomicU64] {
        debug_assert!(n_words * 8 <= self.map_len);
        // SAFETY: the mapping is live for `self`'s lifetime, page-aligned,
        // at least `n_words * 8` bytes, and AtomicU64 accepts any bit
        // pattern. MAP_SHARED memory is ordinary memory to the CPU.
        unsafe { std::slice::from_raw_parts(self.ptr as *const AtomicU64, n_words) }
    }

    /// The backing file's path.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `msync` the pages covering `[off, off+len)`. `blocking` selects
    /// `MS_SYNC` (wait for the write-back) vs `MS_ASYNC` (schedule it) —
    /// the async form is the per-fence fast path, the sync form the
    /// clean-shutdown path.
    pub fn sync_range(&self, off: usize, len: usize, blocking: bool) -> Result<(), NvmIoError> {
        if len == 0 {
            return Ok(());
        }
        let lo = off - off % page_size();
        let hi = (off + len).min(self.map_len);
        let flags = if blocking { sys::MS_SYNC } else { sys::MS_ASYNC };
        // SAFETY: `lo..hi` lies inside the live mapping and lo is
        // page-aligned as msync requires.
        let rc = unsafe { sys::msync(self.ptr.add(lo) as *mut _, hi - lo, flags) };
        if rc != 0 {
            return Err(NvmIoError::new("msync", &self.path, std::io::Error::last_os_error()));
        }
        Ok(())
    }

    /// Full-strength durability point: `MS_SYNC` over the whole mapping
    /// plus `fsync` of the file (covers metadata too).
    pub fn sync_all(&self) -> Result<(), NvmIoError> {
        self.sync_range(0, self.map_len, true)?;
        self.file
            .sync_all()
            .map_err(|e| NvmIoError::new("fsync", &self.path, e))
    }
}

impl Drop for FileMap {
    fn drop(&mut self) {
        // SAFETY: the pointer came from a successful mmap of map_len bytes
        // and nothing dereferences it after drop.
        unsafe {
            sys::munmap(self.ptr as *mut _, self.map_len);
        }
    }
}

impl fmt::Debug for FileMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileMap")
            .field("path", &self.path)
            .field("map_len", &self.map_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hdnh_mapfile_{}_{name}", std::process::id()))
    }

    #[test]
    fn create_write_reopen_roundtrip() {
        let p = tmp("roundtrip");
        {
            let m = FileMap::create(&p, 4096).unwrap();
            m.words(512)[7].store(0xDEAD_BEEF, Ordering::Relaxed);
            m.sync_all().unwrap();
        }
        let (m, len) = FileMap::open(&p).unwrap();
        assert_eq!(len, 4096);
        assert_eq!(m.words(512)[7].load(Ordering::Relaxed), 0xDEAD_BEEF);
        drop(m);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn unsynced_write_survives_unmap() {
        // The page cache keeps dirty mmap writes alive without msync —
        // the property the kill -9 harness leans on.
        let p = tmp("unsynced");
        {
            let m = FileMap::create(&p, 256).unwrap();
            m.words(32)[0].store(42, Ordering::Relaxed);
        }
        let (m, _) = FileMap::open(&p).unwrap();
        assert_eq!(m.words(32)[0].load(Ordering::Relaxed), 42);
        drop(m);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn open_missing_file_is_typed() {
        let e = FileMap::open(Path::new("/nonexistent/hdnh.pool")).unwrap_err();
        assert_eq!(e.op, "open");
        assert!(e.to_string().contains("/nonexistent/hdnh.pool"), "{e}");
    }

    #[test]
    fn sync_range_aligns_to_pages() {
        let page = page_size();
        let p = tmp("range");
        let m = FileMap::create(&p, 4 * page).unwrap();
        // `msync` takes an address that is a multiple of the kernel's page
        // and refuses one that is not: `page` is such a multiple and half
        // of it is not, so `page` is the kernel's page size.
        // SAFETY: both ranges lie inside the live mapping.
        let msync_at =
            |off: usize| unsafe { sys::msync(m.ptr.add(off).cast(), 64, sys::MS_ASYNC) };
        assert_eq!(msync_at(page), 0);
        assert_ne!(msync_at(page / 2), 0);
        for off in (0..4 * page).step_by(512) {
            m.words(4 * page / 8)[off / 8].store(off as u64, Ordering::Relaxed);
            m.sync_range(off, 64, false).unwrap();
            m.sync_range(off, 64, true).unwrap();
        }
        drop(m);
        std::fs::remove_file(&p).unwrap();
    }
}
