//! Crash-consistent live snapshots of a file-backed pool.
//!
//! [`Hdnh::snapshot`] copies every region file of a [`Backend::Pool`]
//! table into a target directory while the table keeps serving reads.
//! Consistency comes from the maintenance guard's writer pause, the one the
//! integrity scan and resize use: the generation counter is made odd, so
//! every mutator parks at its next generation check, then the epoch is
//! drained so no mutator is still mid-store. Readers never touch
//! the generation and keep running for the whole copy (IcebergHT makes the
//! same stability argument for its resize-free scans).
//!
//! The copy is taken *after* `msync(MS_SYNC)`+`fsync` of every region, so
//! the page-cache image being copied equals the on-media image; under
//! strict mode this also commits every line to the tracked media images,
//! keeping the power-loss model consistent across a backup.
//!
//! Snapshot directory layout:
//!
//! * `meta.dat`, `seg-*.dat` — byte-for-byte copies of the live regions;
//! * `superblock` — freshly encoded, **dirty** (clean flag clear), so a
//!   restore always runs the recovery path. This is what makes a snapshot
//!   taken mid-resize restorable: the copied meta block carries the resize
//!   state machine, and recovery resumes or unwinds it exactly as it would
//!   after a crash;
//! * `snapshot.manifest` — text manifest naming every file with its length
//!   and CRC-32, itself CRC-terminated, written last via temp-file +
//!   rename. A directory without a valid manifest is not a snapshot;
//!   restore refuses it.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use hdnh_nvm::Backend;
use hdnh_obs as obs;

use crate::crc32::{crc32_ieee, Crc32};
use crate::pool::{
    io_err, read_superblock, replace_file, sync_dir, write_superblock, Superblock,
    SUPERBLOCK_FILE, SUPERBLOCK_VERSION,
};
use crate::{Hdnh, HdnhError};

/// Filename of the CRC manifest inside a snapshot directory.
pub const SNAPSHOT_MANIFEST_FILE: &str = "snapshot.manifest";

/// Manifest header magic (first token of the first line).
const MANIFEST_MAGIC: &str = "HDNHSNAP";

/// Manifest format version this build reads and writes.
const MANIFEST_VERSION: u32 = 1;

/// One file covered by a snapshot manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Filename relative to the snapshot directory.
    pub name: String,
    /// Exact length in bytes.
    pub len: u64,
    /// CRC-32 (IEEE) of the file contents.
    pub crc32: u32,
}

/// Parsed `snapshot.manifest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// The pool's segment size; must match the restoring params.
    pub segment_bytes: u64,
    /// The source pool's open generation when the snapshot was taken.
    pub layout_epoch: u64,
    /// Every file in the snapshot, superblock included.
    pub entries: Vec<ManifestEntry>,
}

/// What [`Hdnh::snapshot`] did.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotReport {
    /// Files written into the snapshot directory (manifest included).
    pub files: usize,
    /// Region + superblock bytes copied (manifest excluded).
    pub bytes: u64,
}

/// Bytes read per step when a file is checksummed or copied: a region
/// file of any size costs one buffer of this size, never its length.
const CHUNK: usize = 1 << 20;

/// Reads `from` (opened from `path`) to its end in [`CHUNK`]s, hands each
/// chunk to `sink`, and returns `(len, crc32)` of everything read.
fn stream_crc(
    mut from: fs::File,
    path: &Path,
    mut sink: impl FnMut(&[u8]) -> Result<(), HdnhError>,
) -> Result<(u64, u32), HdnhError> {
    let mut buf = vec![0u8; CHUNK];
    let (mut len, mut crc) = (0u64, Crc32::new());
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err("read", path, e)),
        };
        crc.update(&buf[..n]);
        sink(&buf[..n])?;
        len += n as u64;
    }
    Ok((len, crc.finish()))
}

/// Copies `src` to `dst`, returning `(len, crc32)` of the bytes copied.
/// The destination is fsynced so a snapshot is durable once its manifest is.
fn copy_with_crc(src: &Path, dst: &Path) -> Result<(u64, u32), HdnhError> {
    let from = fs::File::open(src).map_err(|e| io_err("open", src, e))?;
    let mut to = fs::File::create(dst).map_err(|e| io_err("create", dst, e))?;
    let copied = stream_crc(from, src, |chunk| {
        to.write_all(chunk).map_err(|e| io_err("write", dst, e))
    })?;
    to.sync_all().map_err(|e| io_err("fsync", dst, e))?;
    Ok(copied)
}

fn file_crc(path: &Path) -> Result<(u64, u32), HdnhError> {
    let from = fs::File::open(path).map_err(|e| io_err("open", path, e))?;
    stream_crc(from, path, |_| Ok(()))
}

impl SnapshotManifest {
    fn encode(&self) -> String {
        let mut s = format!("{MANIFEST_MAGIC} {MANIFEST_VERSION}\n");
        s.push_str(&format!("segment_bytes {}\n", self.segment_bytes));
        s.push_str(&format!("layout_epoch {}\n", self.layout_epoch));
        for e in &self.entries {
            s.push_str(&format!("file {} {} {:08x}\n", e.name, e.len, e.crc32));
        }
        let crc = crc32_ieee(s.as_bytes());
        s.push_str(&format!("end {crc:08x}\n"));
        s
    }

    /// Parses and validates manifest text; every failure is a typed
    /// [`HdnhError::Recovery`].
    pub(crate) fn decode(text: &str) -> Result<SnapshotManifest, HdnhError> {
        let bad = |msg: String| Err(HdnhError::Recovery(format!("snapshot manifest: {msg}")));
        // The trailer covers every byte before its own line.
        let Some(end_at) = text.rfind("end ") else {
            return bad("missing end line (truncated?)".into());
        };
        let trailer = text[end_at..].trim_end();
        let Some(stored) = trailer
            .strip_prefix("end ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
        else {
            return bad(format!("malformed end line {trailer:?}"));
        };
        let actual = crc32_ieee(&text.as_bytes()[..end_at]);
        if stored != actual {
            return bad(format!(
                "CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
            ));
        }
        let mut lines = text[..end_at].lines();
        match lines.next().map(|l| l.split_whitespace().collect::<Vec<_>>()) {
            Some(v) if v.len() == 2 && v[0] == MANIFEST_MAGIC => {
                if v[1].parse::<u32>() != Ok(MANIFEST_VERSION) {
                    return bad(format!("unsupported version {}", v[1]));
                }
            }
            other => return bad(format!("bad header {other:?}")),
        }
        let mut field = |key: &str| -> Result<u64, HdnhError> {
            match lines.next().map(|l| l.split_whitespace().collect::<Vec<_>>()) {
                Some(v) if v.len() == 2 && v[0] == key => v[1]
                    .parse()
                    .map_err(|_| HdnhError::Recovery(format!("snapshot manifest: bad {key}"))),
                other => Err(HdnhError::Recovery(format!(
                    "snapshot manifest: expected {key}, got {other:?}"
                ))),
            }
        };
        let segment_bytes = field("segment_bytes")?;
        let layout_epoch = field("layout_epoch")?;
        let mut entries = Vec::new();
        for line in lines {
            let v: Vec<_> = line.split_whitespace().collect();
            let (Some(&"file"), Some(name), Some(len), Some(crc)) =
                (v.first(), v.get(1), v.get(2), v.get(3))
            else {
                return bad(format!("malformed file line {line:?}"));
            };
            // Reject path traversal: entries are plain basenames.
            if name.contains('/') || name.contains('\\') || *name == ".." {
                return bad(format!("entry name {name:?} is not a plain filename"));
            }
            entries.push(ManifestEntry {
                name: name.to_string(),
                len: len
                    .parse()
                    .map_err(|_| HdnhError::Recovery(format!("bad length in {line:?}")))?,
                crc32: u32::from_str_radix(crc, 16)
                    .map_err(|_| HdnhError::Recovery(format!("bad crc in {line:?}")))?,
            });
        }
        if entries.is_empty() {
            return bad("no file entries".into());
        }
        Ok(SnapshotManifest {
            segment_bytes,
            layout_epoch,
            entries,
        })
    }
}

/// Reads and validates `dir`'s manifest, then checks every listed file's
/// length and CRC against the bytes actually present. Returns the parsed
/// manifest on success; any mismatch is a typed [`HdnhError::Recovery`].
pub fn verify_snapshot(dir: &Path) -> Result<SnapshotManifest, HdnhError> {
    let mpath = dir.join(SNAPSHOT_MANIFEST_FILE);
    let text = fs::read_to_string(&mpath).map_err(|e| io_err("read", &mpath, e))?;
    let manifest = SnapshotManifest::decode(&text)?;
    for e in &manifest.entries {
        let p = dir.join(&e.name);
        let (len, crc) = file_crc(&p)?;
        if len != e.len {
            return Err(HdnhError::Recovery(format!(
                "snapshot file {} is {len} bytes, manifest says {}",
                e.name, e.len
            )));
        }
        if crc != e.crc32 {
            return Err(HdnhError::Recovery(format!(
                "snapshot file {} CRC mismatch (computed {crc:#010x}, manifest {:#010x})",
                e.name, e.crc32
            )));
        }
    }
    Ok(manifest)
}

impl Hdnh {
    /// Takes a crash-consistent snapshot of a file-backed pool into `dir`
    /// (created if absent; must not already hold a snapshot or pool).
    ///
    /// Writers are paused by the maintenance guard for the duration of the
    /// copy (odd generation + epoch drain); readers are never
    /// blocked. Heap-backed tables are rejected with
    /// [`HdnhError::Config`]; a pending pool I/O fault is surfaced instead
    /// of snapshotting possibly-stale pages.
    pub fn snapshot(&self, dir: &Path) -> Result<SnapshotReport, HdnhError> {
        obs::trace::milestone(obs::trace::Milestone::SnapshotStart);
        let r = self.snapshot_inner(dir);
        match &r {
            Ok(report) => {
                obs::count(obs::Counter::SnapshotTaken);
                obs::add(obs::Counter::SnapshotBytes, report.bytes);
                obs::trace::milestone(obs::trace::Milestone::SnapshotDone);
            }
            Err(_) => {
                obs::count(obs::Counter::SnapshotFailed);
                obs::trace::milestone(obs::trace::Milestone::SnapshotFailed);
            }
        }
        r
    }

    fn snapshot_inner(&self, dir: &Path) -> Result<SnapshotReport, HdnhError> {
        let pool = match &self.params().nvm.backend {
            Backend::Pool(p) => p.clone(),
            Backend::Heap => {
                return Err(HdnhError::Config(
                    "snapshot requires a file-backed pool (heap tables have \
                     nothing durable to copy)"
                        .into(),
                ));
            }
        };
        if let Some(fault) = self.io_fault() {
            return Err(fault);
        }
        fs::create_dir_all(dir).map_err(|e| io_err("mkdir", dir, e))?;
        for blocker in [SNAPSHOT_MANIFEST_FILE, SUPERBLOCK_FILE] {
            if dir.join(blocker).exists() {
                return Err(HdnhError::Config(format!(
                    "{} already holds {blocker}; refusing to overwrite",
                    dir.display()
                )));
            }
        }
        let src_sb = read_superblock(pool.path())?;

        // ---- consistent copy behind the writer pause ----
        let mut m = self.maintain();
        m.pause_writers();
        // Equalize page cache and media (and the tracked media images)
        // before reading the files back.
        m.sync_regions_to_disk()?;
        let mut entries = Vec::new();
        for src in m.region_file_paths() {
            let name = src
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| {
                    HdnhError::Io(format!("region path {} has no filename", src.display()))
                })?
                .to_string();
            let (len, crc32) = copy_with_crc(&src, &dir.join(&name))?;
            entries.push(ManifestEntry { name, len, crc32 });
        }
        drop(m);

        // ---- snapshot superblock: always dirty, restore always recovers ----
        let sb = Superblock {
            version: SUPERBLOCK_VERSION,
            clean: false,
            segment_bytes: src_sb.segment_bytes,
            layout_epoch: src_sb.layout_epoch,
        };
        write_superblock(dir, &sb)?;
        let enc = sb.encode();
        entries.push(ManifestEntry {
            name: SUPERBLOCK_FILE.to_string(),
            len: enc.len() as u64,
            crc32: crc32_ieee(&enc),
        });
        let bytes = entries.iter().map(|e| e.len).sum();

        // ---- manifest last: its presence marks the snapshot complete ----
        let manifest = SnapshotManifest {
            segment_bytes: src_sb.segment_bytes,
            layout_epoch: src_sb.layout_epoch,
            entries,
        };
        replace_file(dir, SNAPSHOT_MANIFEST_FILE, manifest.encode().as_bytes())?;
        Ok(SnapshotReport {
            files: manifest.entries.len() + 1,
            bytes,
        })
    }

    /// Restores the snapshot at `snap_dir` into `dest_dir` and opens it.
    ///
    /// Every file is CRC-verified against the manifest *before* anything
    /// is written, the copies land in `dest_dir` (created, locked against
    /// any other opener or restore, must not hold a pool), and the result
    /// is opened through the ordinary
    /// [`Hdnh::open_pool`] recovery path — the snapshot's superblock is
    /// dirty by construction, so resize resume and the checksum-verified
    /// rebuild always run.
    pub fn restore_snapshot(
        params: crate::HdnhParams,
        snap_dir: &Path,
        dest_dir: &Path,
        threads: usize,
    ) -> Result<(Hdnh, crate::PoolOpenReport), HdnhError> {
        let manifest = verify_snapshot(snap_dir)?;
        if manifest.segment_bytes != params.segment_bytes as u64 {
            return Err(HdnhError::Recovery(format!(
                "snapshot was taken with segment_bytes={} but params say {}",
                manifest.segment_bytes, params.segment_bytes
            )));
        }
        // Held across the emptiness check and the copy. `open_pool` takes
        // the lock afresh: should another opener get in between, it finds
        // a complete pool and this call reports the directory as open.
        let dest_lock = hdnh_nvm::PoolDir::create(dest_dir)?;
        let sb_dest = dest_dir.join(SUPERBLOCK_FILE);
        let meta_dest = dest_dir.join(hdnh_nvm::META_FILE);
        if sb_dest.exists() || meta_dest.exists() {
            return Err(HdnhError::Config(format!(
                "{} already holds a pool; refusing to overwrite",
                dest_dir.display()
            )));
        }
        for e in &manifest.entries {
            let src: PathBuf = snap_dir.join(&e.name);
            let (_, _) = copy_with_crc(&src, &dest_dir.join(&e.name))?;
        }
        sync_dir(dest_dir)?;
        drop(dest_lock);
        Hdnh::open_pool(params, dest_dir, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdnh_common::Key;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn a_snapshot_that_fails_mid_copy_lets_writers_back_in() {
        let base = std::env::temp_dir().join(format!("hdnh-snapshot-fail-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let params = crate::HdnhParams::builder().capacity(1_000).build().unwrap();
        let (t, _) = Hdnh::open_pool(params, &base.join("pool"), 1).unwrap();
        let t = Arc::new(t);
        t.insert_bytes(&Key::from_u64(1), b"one").unwrap();
        // Writers are paused by the time the first region is copied; its
        // copy cannot be created, because a directory holds the name.
        let snap = base.join("snap");
        fs::create_dir_all(snap.join(hdnh_nvm::META_FILE)).unwrap();
        assert!(matches!(t.snapshot(&snap), Err(HdnhError::Io(_))));
        let (tx, rx) = mpsc::channel();
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let _ = tx.send(t.insert_bytes(&Key::from_u64(2), b"two"));
            })
        };
        let wrote = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a write still waits on the pause of a failed snapshot");
        writer.join().unwrap();
        wrote.unwrap();
        assert_eq!(t.get_bytes(&Key::from_u64(2)).unwrap(), Some(b"two".to_vec()));
        drop(t);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn files_around_the_chunk_size_checksum_and_copy_whole() {
        let dir = std::env::temp_dir().join(format!("hdnh-snapshot-crc-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
            let (src, dst) = (dir.join("src"), dir.join("dst"));
            fs::write(&src, &bytes).unwrap();
            let want = (len as u64, crc32_ieee(&bytes));
            assert_eq!(file_crc(&src).unwrap(), want, "len {len}");
            assert_eq!(copy_with_crc(&src, &dst).unwrap(), want, "len {len}");
            assert!(fs::read(&dst).unwrap() == bytes, "len {len}: copy differs");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrip() {
        let m = SnapshotManifest {
            segment_bytes: 1024,
            layout_epoch: 3,
            entries: vec![
                ManifestEntry {
                    name: "meta.dat".into(),
                    len: 256,
                    crc32: 0xDEAD_BEEF,
                },
                ManifestEntry {
                    name: "seg-0.dat".into(),
                    len: 2048,
                    crc32: 0x0000_0001,
                },
            ],
        };
        assert_eq!(SnapshotManifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn manifest_rejects_any_edit() {
        let m = SnapshotManifest {
            segment_bytes: 4096,
            layout_epoch: 1,
            entries: vec![ManifestEntry {
                name: "seg-1.dat".into(),
                len: 4096,
                crc32: 7,
            }],
        };
        let good = m.encode();
        // Flip one character in the covered region: decode must fail.
        let tampered = good.replacen("4096", "8192", 1);
        assert!(SnapshotManifest::decode(&tampered).is_err());
        // Truncation loses the end line.
        assert!(SnapshotManifest::decode(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn manifest_rejects_traversal_names() {
        let m = SnapshotManifest {
            segment_bytes: 1024,
            layout_epoch: 1,
            entries: vec![ManifestEntry {
                name: "seg-0.dat".into(),
                len: 1,
                crc32: 0,
            }],
        };
        let evil = m.encode().replace("seg-0.dat", "../seg-0.dat");
        // Re-seal the CRC so only the name check can reject it.
        let body = &evil[..evil.rfind("end ").unwrap()];
        let resealed = format!("{body}end {:08x}\n", crc32_ieee(body.as_bytes()));
        let err = SnapshotManifest::decode(&resealed).unwrap_err();
        assert!(format!("{err}").contains("plain filename"), "{err}");
    }
}
