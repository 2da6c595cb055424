//! Pool directory: names and allocates the files behind file-backed
//! regions, and collects sticky I/O faults from the flush path.
//!
//! A pool is one directory holding `meta.dat` (the 256-byte persisted
//! [`Meta`] block), `seg-<id>.dat` files (one per level region), and a
//! `superblock` written by the core crate. Region files are classified on
//! reopen by *size alone* — level sizes are always distinct (each resize
//! doubles), so the geometry in `meta.dat` maps every surviving file to
//! its role without any per-file header.
//!
//! One opener at a time: a [`PoolDir`] holds an exclusive advisory lock
//! (`flock`) on the directory from before the first file is looked at until
//! the handle — which every region mapped from the pool keeps alive — is
//! dropped. The kernel drops it with the process, so a `kill -9` leaves no
//! stale lock behind.
//!
//! Fault handling: `fence()` runs on the hot write path where an error
//! return would poison every caller signature, so a failed `msync` is
//! recorded *here* (sticky, first-error-wins) and surfaced by the table
//! as `HdnhError::Io` on the next acknowledgement boundary instead of
//! being silently dropped or panicking.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::mapfile::NvmIoError;

/// Filename of the persisted meta block inside a pool directory.
pub const META_FILE: &str = "meta.dat";

/// A pool directory handle: allocates region file names and records
/// flush-path faults.
#[derive(Debug)]
pub struct PoolDir {
    dir: PathBuf,
    /// The open directory, exclusively locked for the life of the handle.
    _lock: fs::File,
    next_id: AtomicU64,
    fault_flag: AtomicBool,
    fault: Mutex<Option<NvmIoError>>,
}

impl PoolDir {
    /// Creates the directory (and parents) if needed and [`open`]s it.
    /// Pre-existing region files are *not* removed; callers that want a
    /// truly fresh pool check for them under the returned handle's lock.
    ///
    /// [`open`]: Self::open
    pub fn create(dir: &Path) -> Result<PoolDir, NvmIoError> {
        fs::create_dir_all(dir).map_err(|e| NvmIoError::new("mkdir", dir, e))?;
        Self::open(dir)
    }

    /// Opens an existing pool directory: locks it — failing, with the
    /// directory named, while another handle in this or any other process
    /// holds it — and seeds the region-id counter past every
    /// `seg-<id>.dat` and `vlog-<id>.dat` already present so new
    /// allocations never collide with survivors.
    pub fn open(dir: &Path) -> Result<PoolDir, NvmIoError> {
        let lock = fs::File::open(dir).map_err(|e| NvmIoError::new("open", dir, e))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(fs::TryLockError::WouldBlock) => {
                return Err(NvmIoError::msg("lock", dir, "the pool is already open"));
            }
            Err(fs::TryLockError::Error(e)) => return Err(NvmIoError::new("lock", dir, e)),
        }
        let mut max_id = 0u64;
        for f in Self::scan_region_files(dir)? {
            if let Some(id) = seg_id(&f) {
                max_id = max_id.max(id + 1);
            }
        }
        for f in Self::scan_vlog_files(dir)? {
            if let Some(id) = vlog_id(&f) {
                max_id = max_id.max(id + 1);
            }
        }
        Ok(PoolDir {
            dir: dir.to_path_buf(),
            _lock: lock,
            next_id: AtomicU64::new(max_id),
            fault_flag: AtomicBool::new(false),
            fault: Mutex::new(None),
        })
    }

    /// The pool directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Path of the persisted meta block file.
    pub fn meta_path(&self) -> PathBuf {
        self.dir.join(META_FILE)
    }

    /// All `seg-*.dat` files currently in the directory (unordered).
    /// Value-log files (`vlog-*.dat`) are deliberately excluded: level
    /// regions are classified by size on reopen and the log files must
    /// never enter that classification.
    pub fn region_files(&self) -> Result<Vec<PathBuf>, NvmIoError> {
        Self::scan_region_files(&self.dir)
    }

    /// All `vlog-*.dat` (value-log segment) files currently in the
    /// directory (unordered).
    pub fn vlog_files(&self) -> Result<Vec<PathBuf>, NvmIoError> {
        Self::scan_vlog_files(&self.dir)
    }

    fn scan_region_files(dir: &Path) -> Result<Vec<PathBuf>, NvmIoError> {
        let rd = fs::read_dir(dir).map_err(|e| NvmIoError::new("readdir", dir, e))?;
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| NvmIoError::new("readdir", dir, e))?;
            let p = entry.path();
            if seg_id(&p).is_some() {
                out.push(p);
            }
        }
        Ok(out)
    }

    fn scan_vlog_files(dir: &Path) -> Result<Vec<PathBuf>, NvmIoError> {
        let rd = fs::read_dir(dir).map_err(|e| NvmIoError::new("readdir", dir, e))?;
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| NvmIoError::new("readdir", dir, e))?;
            let p = entry.path();
            if vlog_id(&p).is_some() {
                out.push(p);
            }
        }
        Ok(out)
    }

    /// Picks the file path for a new region. `"meta"` maps to the fixed
    /// meta filename (at most one per pool); `"vlog"` gets a fresh
    /// `vlog-<id>.dat` (a value-log segment, outside the size-classified
    /// level files); anything else gets a fresh `seg-<id>.dat`.
    pub fn new_region_path(&self, hint: &str) -> Result<PathBuf, NvmIoError> {
        if hint == "meta" {
            let p = self.meta_path();
            if p.exists() {
                return Err(NvmIoError::msg(
                    "create",
                    &p,
                    "meta region already exists in this pool",
                ));
            }
            return Ok(p);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if hint == "vlog" {
            return Ok(self.dir.join(format!("vlog-{id}.dat")));
        }
        Ok(self.dir.join(format!("seg-{id}.dat")))
    }

    /// Unlinks a region file of a pool together with whatever the pool
    /// keeps beside it (a strict region's media image). The error is the
    /// region file's; its companions go best-effort.
    pub fn remove_region(path: &Path) -> std::io::Result<()> {
        fs::remove_file(path)?;
        crate::shadow::remove_sidecar(path);
        Ok(())
    }

    /// Records a flush-path fault. First error wins; later ones are
    /// dropped (they are almost always the same failing device).
    pub fn record_fault(&self, err: NvmIoError) {
        let mut slot = self.fault.lock();
        if slot.is_none() {
            *slot = Some(err);
            self.fault_flag.store(true, Ordering::Release);
        }
    }

    /// Cheap check: has any flush failed since the pool opened?
    #[inline]
    pub fn has_fault(&self) -> bool {
        self.fault_flag.load(Ordering::Acquire)
    }

    /// The recorded fault, if any (left in place — the pool stays
    /// poisoned until reopened).
    pub fn fault(&self) -> Option<NvmIoError> {
        if !self.has_fault() {
            return None;
        }
        self.fault.lock().clone()
    }
}

/// Parses `seg-<id>.dat` → `id`.
fn seg_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("seg-")?.strip_suffix(".dat")?;
    rest.parse().ok()
}

/// Parses `vlog-<id>.dat` → `id`.
pub fn vlog_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("vlog-")?.strip_suffix(".dat")?;
    rest.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hdnh_pooldir_{}_{name}", std::process::id()))
    }

    #[test]
    fn naming_and_reopen_skips_used_ids() {
        let d = tmp("naming");
        let _ = fs::remove_dir_all(&d);
        let pool = PoolDir::create(&d).unwrap();
        let m = pool.new_region_path("meta").unwrap();
        assert_eq!(m, d.join("meta.dat"));
        let s0 = pool.new_region_path("seg").unwrap();
        let s1 = pool.new_region_path("seg").unwrap();
        assert_eq!(s0, d.join("seg-0.dat"));
        assert_eq!(s1, d.join("seg-1.dat"));
        fs::write(&s0, b"x").unwrap();
        fs::write(&s1, b"x").unwrap();
        fs::write(d.join("superblock"), b"x").unwrap(); // not a region file
        drop(pool);

        let pool2 = PoolDir::open(&d).unwrap();
        let mut files = pool2.region_files().unwrap();
        files.sort();
        assert_eq!(files, vec![s0, s1]);
        assert_eq!(pool2.new_region_path("seg").unwrap(), d.join("seg-2.dat"));
        // meta.dat doesn't exist on disk yet, so "meta" is still free.
        assert!(pool2.new_region_path("meta").is_ok());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn one_handle_at_a_time() {
        let d = tmp("lock");
        let _ = fs::remove_dir_all(&d);
        let pool = PoolDir::create(&d).unwrap();
        for second in [PoolDir::open(&d), PoolDir::create(&d)] {
            let e = second.unwrap_err();
            assert_eq!((e.op, &e.path), ("lock", &d), "{e}");
        }
        drop(pool);
        drop(PoolDir::open(&d).unwrap());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn meta_collision_is_an_error() {
        let d = tmp("metacoll");
        let _ = fs::remove_dir_all(&d);
        let pool = PoolDir::create(&d).unwrap();
        fs::write(pool.meta_path(), b"x").unwrap();
        let e = pool.new_region_path("meta").unwrap_err();
        assert!(e.msg.contains("already exists"), "{e}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn fault_is_sticky_first_wins() {
        let d = tmp("fault");
        let _ = fs::remove_dir_all(&d);
        let pool = PoolDir::create(&d).unwrap();
        assert!(!pool.has_fault());
        assert!(pool.fault().is_none());
        pool.record_fault(NvmIoError::msg("msync", &d, "first"));
        pool.record_fault(NvmIoError::msg("msync", &d, "second"));
        assert!(pool.has_fault());
        assert_eq!(pool.fault().unwrap().msg, "first");
        fs::remove_dir_all(&d).unwrap();
    }
}
