//! Pool-file lifecycle: superblock, open-or-recover, clean shutdown.
//!
//! A pool directory (see [`hdnh_nvm::PoolDir`]) holds the store's
//! persistent regions as `MAP_SHARED` files plus one 64-byte `superblock`
//! that this module owns. The superblock is the *outer* integrity layer:
//! it names the format (magic + version), pins the geometry
//! (`segment_bytes`), counts open generations (`layout_epoch`), records
//! whether the last process detached cleanly, and carries a CRC over the
//! whole block so any torn or bit-flipped header is detected before a
//! single region byte is trusted.
//!
//! Open protocol ([`Hdnh::open_pool`]):
//! 0. lock the directory ([`PoolDir`]): a second opener, in this or any
//!    other process, fails with a typed error naming the directory until
//!    the first one's table (and any `PersistentPool` taken from it) is
//!    gone;
//! 1. validate the superblock (typed errors, never a panic);
//! 2. read the meta block through [`Meta::open`], the one reader of its
//!    words: a wrong length, bad magic, unknown resize state word or
//!    foreign segment size is a typed error, and so is a clean flag beside
//!    a resize in flight — all before anything is written;
//! 3. mark the pool **dirty** (epoch+1) *before* mapping any level — if
//!    this process dies, the next open knows recovery is required;
//! 4. give the `seg-*.dat` files their roles by size against the persisted
//!    geometry (`Meta::assign_roles`, the function recovery runs over the
//!    regions it is handed), highest file id first on a tie, and map only
//!    the files that get a role;
//! 5. run the ordinary recovery path, [`Hdnh::try_recover`] (resize
//!    resume, then the one checksum-verified scan) — a clean previous
//!    shutdown makes this a pure rebuild;
//! 6. sweep orphan files left by a crash inside a resize window.
//!
//! Close protocol ([`Hdnh::close_pool`]): refuse if a flush fault is
//! pending, `msync(MS_SYNC)`+`fsync` every region, then — and only then —
//! rewrite the superblock with the clean flag set.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hdnh_nvm::{Backend, NvmRegion, PoolDir};

use crate::crc32::crc32_ieee;
use crate::meta::{Meta, ResizeState};
use crate::params::HdnhParams;
use crate::recovery::PersistentPool;
use crate::{Hdnh, HdnhError};

/// Filename of the pool superblock inside a pool directory.
pub const SUPERBLOCK_FILE: &str = "superblock";

/// Superblock magic: "HDNHPOOL" as ASCII bytes, read as little-endian.
pub(crate) const SUPERBLOCK_MAGIC: u64 = u64::from_le_bytes(*b"HDNHPOOL");

/// Superblock format version this build reads and writes. Version 2
/// added value-log segment files (`vlog-*.dat`) to the pool layout;
/// older builds would misclassify them as level regions, so v1 pools
/// are refused rather than silently reinterpreted.
pub(crate) const SUPERBLOCK_VERSION: u32 = 2;

/// Encoded superblock size on disk.
pub(crate) const SUPERBLOCK_BYTES: usize = 64;

const FLAG_CLEAN: u32 = 1;

/// Decoded pool superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Superblock {
    /// Format version (currently always `SUPERBLOCK_VERSION`).
    pub version: u32,
    /// Whether the previous holder detached through the clean-shutdown
    /// path (all regions synced, nothing in flight).
    pub clean: bool,
    /// The pool's segment size in bytes; must match the opener's params.
    pub segment_bytes: u64,
    /// Incremented on every dirty open; a monotone "generation" counter
    /// for diagnostics and log correlation.
    pub layout_epoch: u64,
}

impl Superblock {
    /// Serializes to the on-disk layout:
    /// `magic u64 | version u32 | flags u32 | segment_bytes u64 |
    /// layout_epoch u64 | reserved [u8; 28] | crc32 u32`, all
    /// little-endian, CRC computed over the whole block with the CRC
    /// field zeroed.
    pub(crate) fn encode(&self) -> [u8; SUPERBLOCK_BYTES] {
        let mut b = [0u8; SUPERBLOCK_BYTES];
        b[0..8].copy_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
        b[8..12].copy_from_slice(&self.version.to_le_bytes());
        let flags: u32 = if self.clean { FLAG_CLEAN } else { 0 };
        b[12..16].copy_from_slice(&flags.to_le_bytes());
        b[16..24].copy_from_slice(&self.segment_bytes.to_le_bytes());
        b[24..32].copy_from_slice(&self.layout_epoch.to_le_bytes());
        let crc = crc32_ieee(&b[..SUPERBLOCK_BYTES - 4]);
        b[60..64].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parses and validates an on-disk superblock. Every failure mode is
    /// a typed [`HdnhError::Recovery`] — truncation, wrong magic, any
    /// bit flip (caught by the CRC), unsupported version.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Superblock, HdnhError> {
        if bytes.len() != SUPERBLOCK_BYTES {
            return Err(HdnhError::Recovery(format!(
                "superblock is {} bytes, expected {SUPERBLOCK_BYTES} (truncated?)",
                bytes.len()
            )));
        }
        let stored_crc = u32::from_le_bytes(bytes[60..64].try_into().unwrap());
        let actual_crc = crc32_ieee(&bytes[..SUPERBLOCK_BYTES - 4]);
        if stored_crc != actual_crc {
            return Err(HdnhError::Recovery(format!(
                "superblock CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )));
        }
        let magic = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        if magic != SUPERBLOCK_MAGIC {
            return Err(HdnhError::Recovery(format!(
                "not an HDNH pool superblock (magic {magic:#018x})"
            )));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SUPERBLOCK_VERSION {
            return Err(HdnhError::Recovery(format!(
                "unsupported superblock version {version} (this build reads {SUPERBLOCK_VERSION})"
            )));
        }
        let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        Ok(Superblock {
            version,
            clean: flags & FLAG_CLEAN != 0,
            segment_bytes: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            layout_epoch: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
        })
    }
}

pub(crate) fn read_superblock(dir: &Path) -> Result<Superblock, HdnhError> {
    let path = dir.join(SUPERBLOCK_FILE);
    let bytes = fs::read(&path)
        .map_err(|e| HdnhError::Io(format!("read {}: {e}", path.display())))?;
    Superblock::decode(&bytes)
}

pub(crate) fn write_superblock(dir: &Path, sb: &Superblock) -> Result<(), HdnhError> {
    replace_file(dir, SUPERBLOCK_FILE, &sb.encode())
}

pub(crate) fn io_err(op: &str, p: &Path, e: std::io::Error) -> HdnhError {
    HdnhError::Io(format!("{op} {}: {e}", p.display()))
}

/// Crash-safe file replacement: write `<name>.tmp`, fsync it, rename it
/// over `name`, fsync the directory. A kill at any point leaves either
/// the old or the new (complete) file.
pub(crate) fn replace_file(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), HdnhError> {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, bytes).map_err(|e| io_err("write", &tmp, e))?;
    let f = fs::File::open(&tmp).map_err(|e| io_err("open", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    fs::rename(&tmp, dir.join(name)).map_err(|e| io_err("rename", &tmp, e))?;
    sync_dir(dir)
}

/// Makes the directory's entries — a rename, newly created files —
/// durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), HdnhError> {
    let d = fs::File::open(dir).map_err(|e| io_err("open", dir, e))?;
    d.sync_all().map_err(|e| io_err("fsync", dir, e))
}

/// What [`Hdnh::open_pool`] did.
#[derive(Debug, Clone, Copy)]
pub struct PoolOpenReport {
    /// `true` when the directory held no pool and one was created.
    pub created: bool,
    /// `true` when the previous holder shut down cleanly (recovery was a
    /// pure rebuild). Always `false` for a created pool.
    pub was_clean: bool,
    /// Orphan region files removed after recovery (left by a process
    /// killed inside a resize window).
    pub removed_orphans: usize,
    /// The pool's open generation after this open.
    pub layout_epoch: u64,
}

impl Hdnh {
    /// Opens (or creates) a file-backed pool at `dir` and returns the
    /// live table plus a report of what happened.
    ///
    /// `params.nvm` must be heap-backed on entry (the pool backend is
    /// injected here). With `params.nvm.strict` every region also tracks
    /// what media holds, so the table can lose power by handle
    /// ([`Hdnh::into_pool`], [`PersistentPool::crash`], drop, reopen); only
    /// [`SyncPolicy::Sync`](hdnh_nvm::SyncPolicy) acks survive that. A
    /// corrupt or truncated superblock, geometry mismatch, or
    /// unclassifiable region file set fails with a typed error — never a
    /// panic, and never by silently reformatting. A pool that is open already — the directory
    /// is locked for as long as a table opened from it lives — fails with
    /// [`HdnhError::Io`] naming the directory.
    pub fn open_pool(
        mut params: HdnhParams,
        dir: &Path,
        threads: usize,
    ) -> Result<(Hdnh, PoolOpenReport), HdnhError> {
        let sb_path = dir.join(SUPERBLOCK_FILE);
        let meta_path = dir.join(hdnh_nvm::META_FILE);
        // Locked from before the first look at the directory's contents.
        let pool = Arc::new(PoolDir::create(dir).map_err(HdnhError::from)?);
        if !sb_path.exists() {
            if meta_path.exists() {
                return Err(HdnhError::Recovery(format!(
                    "{} has region files but no superblock (interrupted creation?); \
                     refusing to guess — remove the directory to start over",
                    dir.display()
                )));
            }
            return Self::create_pool(params, dir, pool);
        }

        // ---- validate the superblock before trusting anything else ----
        let sb = read_superblock(dir)?;
        if sb.segment_bytes != params.segment_bytes as u64 {
            return Err(HdnhError::Recovery(format!(
                "pool was formatted with segment_bytes={} but params say {}",
                sb.segment_bytes, params.segment_bytes
            )));
        }
        params.nvm.backend = Backend::Pool(Arc::clone(&pool));

        // ---- read the meta block through `Meta` before writing anything ----
        let meta_region = NvmRegion::open_file(&meta_path, &params.nvm)?;
        let meta = Meta::open(Arc::new(meta_region), params.segment_bytes)?;
        if sb.clean && meta.state() != ResizeState::Stable {
            return Err(HdnhError::Recovery(format!(
                "superblock says clean shutdown but the resize state machine reads {:?}",
                meta.state()
            )));
        }

        // ---- mark dirty BEFORE mapping the levels ----
        let epoch = sb.layout_epoch + 1;
        write_superblock(
            dir,
            &Superblock {
                version: SUPERBLOCK_VERSION,
                clean: false,
                segment_bytes: sb.segment_bytes,
                layout_epoch: epoch,
            },
        )?;

        // ---- give the level files their roles; map only those ----
        let mut files: Vec<(PathBuf, u64)> = Vec::new();
        for p in pool.region_files().map_err(HdnhError::from)? {
            let len = fs::metadata(&p)
                .map_err(|e| HdnhError::Io(format!("stat {}: {e}", p.display())))?
                .len();
            files.push((p, len));
        }
        // Deterministic: highest seg id first, so the most recently
        // allocated file wins when sizes tie (a stale twin is orphaned).
        files.sort();
        files.reverse();
        let roles = meta.assign_roles(files.into_iter().map(|(p, len)| (len, p)))?;

        let open_region = |p: &Path| -> Result<Arc<NvmRegion>, HdnhError> {
            Ok(Arc::new(NvmRegion::open_file(p, &params.nvm)?))
        };
        // Value-log segments carry their id in the filename; a file whose
        // name does not parse is not ours to guess about.
        let mut vlog_regions = Vec::new();
        for p in pool.vlog_files().map_err(HdnhError::from)? {
            let id = hdnh_nvm::pool::vlog_id(&p).ok_or_else(|| {
                HdnhError::Recovery(format!(
                    "unparseable value-log filename {}",
                    p.display()
                ))
            })?;
            vlog_regions.push((id as u32, open_region(&p)?));
        }
        let persistent = PersistentPool {
            meta: Arc::clone(meta.region()),
            top: open_region(&roles.top)?,
            bottom: open_region(&roles.bottom)?,
            new_top: roles.new_top.as_deref().map(open_region).transpose()?,
            vlog: vlog_regions,
        };

        // ---- the ordinary recovery path does the rest ----
        let table = Hdnh::try_recover(params, persistent, threads)?;

        // ---- sweep orphans (files no live region claims) ----
        let live = table.region_file_paths();
        let mut removed = 0usize;
        for p in pool.region_files().map_err(HdnhError::from)? {
            if !live.contains(&p) && fs::remove_file(&p).is_ok() {
                removed += 1;
            }
        }

        Ok((
            table,
            PoolOpenReport {
                created: false,
                was_clean: sb.clean,
                removed_orphans: removed,
                layout_epoch: epoch,
            },
        ))
    }

    /// Formats a fresh pool: region files first, superblock (dirty) last,
    /// so a half-created directory is recognizably incomplete rather than
    /// silently openable.
    fn create_pool(
        mut params: HdnhParams,
        dir: &Path,
        pool: Arc<PoolDir>,
    ) -> Result<(Hdnh, PoolOpenReport), HdnhError> {
        params.nvm.backend = Backend::Pool(pool);
        let segment_bytes = params.segment_bytes as u64;
        let table = Hdnh::try_new(params)?;
        // The freshly formatted regions exist only in page cache; pin the
        // creation to disk before publishing the superblock.
        table.sync_regions_to_disk()?;
        write_superblock(
            dir,
            &Superblock {
                version: SUPERBLOCK_VERSION,
                clean: false,
                segment_bytes,
                layout_epoch: 1,
            },
        )?;
        Ok((
            table,
            PoolOpenReport {
                created: true,
                was_clean: false,
                removed_orphans: 0,
                layout_epoch: 1,
            },
        ))
    }

    /// Clean shutdown of a file-backed table: full-strength sync of every
    /// region, then the superblock's clean flag. Fails (without setting
    /// the flag) if a flush fault is pending or any sync fails — the next
    /// open then takes the recovery path, which is exactly right.
    pub fn close_pool(self) -> Result<(), HdnhError> {
        let pool = match &self.params().nvm.backend {
            Backend::Pool(p) => Arc::clone(p),
            Backend::Heap => {
                return Err(HdnhError::Config(
                    "close_pool called on a heap-backed table".into(),
                ));
            }
        };
        if let Some(fault) = self.io_fault() {
            return Err(fault);
        }
        let dir = pool.path().to_path_buf();
        let sb = read_superblock(&dir)?;
        for region in self.into_pool().regions() {
            region.sync_to_disk()?;
        }
        write_superblock(&dir, &Superblock { clean: true, ..sb })?;
        hdnh_obs::trace::milestone(hdnh_obs::trace::Milestone::PoolClosed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdnh_common::Key;

    #[test]
    fn a_write_over_a_sticky_io_fault_is_applied_but_not_acknowledged() {
        let dir = std::env::temp_dir().join(format!("hdnh-pool-io-fault-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let params = HdnhParams::builder().capacity(1_000).build().unwrap();
        let (t, _) = Hdnh::open_pool(params, &dir, 1).unwrap();
        let k = Key::from_u64;
        t.insert_bytes(&k(1), b"one").unwrap();
        t.params().nvm.backend.pool().unwrap().record_fault(hdnh_nvm::NvmIoError {
            op: "msync",
            path: dir.clone(),
            msg: "injected write-back failure".into(),
        });
        let spilled = [7u8; 200];
        for (key, value) in [(k(2), &b"two"[..]), (k(3), &spilled[..])] {
            match t.insert_bytes(&key, value) {
                Err(HdnhError::Io(msg)) => assert!(msg.contains("injected"), "{msg}"),
                other => panic!("acknowledged over a sticky i/o fault: {other:?}"),
            }
            assert_eq!(t.get_bytes(&key).unwrap().as_deref(), Some(value), "applied");
        }
        // The refused acknowledgement did not orphan the published record.
        assert_eq!(t.vlog_stats().garbage_bytes, 0);
        assert_eq!(t.insert_bytes(&k(1), b"nine"), Err(HdnhError::DuplicateKey));
        assert_eq!(t.update_bytes(&k(4), b"four"), Err(HdnhError::KeyNotFound));
        assert!(matches!(t.remove(&k(2)), Err(HdnhError::Io(_))));
        assert_eq!(t.get_bytes(&k(2)).unwrap(), None);
        drop(t);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn superblock_roundtrip() {
        let sb = Superblock {
            version: SUPERBLOCK_VERSION,
            clean: true,
            segment_bytes: 16384,
            layout_epoch: 42,
        };
        assert_eq!(Superblock::decode(&sb.encode()).unwrap(), sb);
        let dirty = Superblock { clean: false, ..sb };
        assert_eq!(Superblock::decode(&dirty.encode()).unwrap(), dirty);
    }

    #[test]
    fn superblock_rejects_any_single_bit_flip() {
        let sb = Superblock {
            version: SUPERBLOCK_VERSION,
            clean: true,
            segment_bytes: 4096,
            layout_epoch: 7,
        };
        let good = sb.encode();
        for byte in 0..SUPERBLOCK_BYTES {
            for bit in 0..8 {
                let mut bad = good;
                bad[byte] ^= 1 << bit;
                let r = Superblock::decode(&bad);
                assert!(r.is_err(), "bit {bit} of byte {byte} flipped but decode passed");
            }
        }
    }

    #[test]
    fn superblock_rejects_truncation() {
        let sb = Superblock {
            version: SUPERBLOCK_VERSION,
            clean: true,
            segment_bytes: 4096,
            layout_epoch: 1,
        };
        let good = sb.encode();
        for n in 0..SUPERBLOCK_BYTES {
            assert!(Superblock::decode(&good[..n]).is_err(), "len {n}");
        }
    }
}
