//! Typed error taxonomy for the HDNH stack.
//!
//! The public [`HashIndex`](hdnh_common::HashIndex) trait keeps its small
//! [`IndexError`] vocabulary (duplicate key, not found, full, retry); this
//! module adds the *system-level* failures that the media-error layer,
//! recovery, and the CLI need to report without panicking: detected
//! corruption (with what was done about it), simulated-I/O problems, an
//! unrecoverable pool, and capacity exhaustion.

use std::fmt;

use hdnh_common::IndexError;

/// What the resilience layer did with a slot whose record failed its
/// header checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionOutcome {
    /// The record was rewritten from the DRAM hot-table copy and its
    /// checksum recommitted; no data was lost.
    Repaired,
    /// No clean copy existed; the slot's valid bit was cleared so the
    /// damaged bytes can never be served. The record is lost.
    Quarantined,
}

impl fmt::Display for CorruptionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionOutcome::Repaired => write!(f, "repaired"),
            CorruptionOutcome::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// System-level errors surfaced by the HDNH stack.
///
/// The error type of every inherent table operation: `insert_bytes`
/// reports [`HdnhError::DuplicateKey`], `update_bytes` reports
/// [`HdnhError::KeyNotFound`], `verify_integrity` reports
/// [`HdnhError::Integrity`], and configuration problems surface as
/// [`HdnhError::Config`] from the params builder. The word level
/// (`HashIndex`) narrows it to [`IndexError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdnhError {
    /// A record's bytes failed their header checksum. Carries the slot's
    /// location (`level` 0 = top, 1 = bottom) and how the slot was
    /// handled; the damaged bytes were never returned to any caller.
    Corruption {
        /// Level index (0 = top, 1 = bottom).
        level: usize,
        /// Global bucket index within the level.
        bucket: usize,
        /// Slot index within the bucket.
        slot: usize,
        /// What was done with the damaged slot.
        outcome: CorruptionOutcome,
    },
    /// A value-log record failed its CRC or did not carry the key and
    /// length its spill pointer promised — media damage or a dangling
    /// pointer. The damaged bytes were never returned to any caller.
    VlogCorruption {
        /// Value-log segment id from the spill pointer.
        segment: u32,
        /// Byte offset of the record within the segment.
        offset: u32,
    },
    /// An insert found the key already present.
    DuplicateKey,
    /// An update addressed a key that is not in the table.
    KeyNotFound,
    /// An integrity audit found a violated invariant. Carries the first
    /// failing invariant's stable name and its (capped) violation list;
    /// the full per-invariant breakdown is available from
    /// [`verify_integrity_report`](crate::Hdnh::verify_integrity_report).
    Integrity {
        /// Stable identifier of the first failing invariant.
        invariant: &'static str,
        /// Human-readable violations under that invariant (capped).
        violations: Vec<String>,
    },
    /// An invalid configuration was rejected by the params builder.
    Config(String),
    /// An environment / simulated-I/O failure (file access, parse of an
    /// external artifact, …).
    Io(String),
    /// A persistent pool could not be opened or recovered (bad magic,
    /// geometry mismatch, torn metadata).
    Recovery(String),
    /// The table cannot admit more records (resize exhausted or
    /// disabled).
    Capacity(String),
}

impl fmt::Display for HdnhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdnhError::Corruption {
                level,
                bucket,
                slot,
                outcome,
            } => write!(
                f,
                "corrupted record at level {level} bucket {bucket} slot {slot} ({outcome})"
            ),
            HdnhError::VlogCorruption { segment, offset } => write!(
                f,
                "corrupted value-log record at segment {segment} offset {offset}"
            ),
            // Keep the per-operation wordings identical to the narrow
            // `IndexError` vocabulary the CLI grew up on.
            HdnhError::DuplicateKey => write!(f, "key already present"),
            HdnhError::KeyNotFound => write!(f, "key not found"),
            HdnhError::Integrity {
                invariant,
                violations,
            } => write!(
                f,
                "integrity violation [{invariant}]: {}",
                violations.join("; ")
            ),
            HdnhError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            HdnhError::Io(msg) => write!(f, "i/o error: {msg}"),
            HdnhError::Recovery(msg) => write!(f, "recovery failed: {msg}"),
            HdnhError::Capacity(msg) => write!(f, "capacity exhausted: {msg}"),
        }
    }
}

impl std::error::Error for HdnhError {}

impl From<hdnh_nvm::NvmIoError> for HdnhError {
    /// A file-backend failure (mmap/msync/ftruncate/…) with its path and
    /// operation context.
    fn from(e: hdnh_nvm::NvmIoError) -> Self {
        HdnhError::Io(e.to_string())
    }
}

impl From<HdnhError> for IndexError {
    /// Narrows the system taxonomy back to the trait vocabulary, for the
    /// [`HashIndex`](hdnh_common::HashIndex) adapter: the per-operation
    /// conditions map one-to-one; capacity exhaustion is `TableFull`;
    /// anything else (corruption, I/O, recovery) has no slot in the narrow
    /// enum and is reported as `RetryResize` — the trait's only
    /// "system interfered, not your request" variant.
    fn from(e: HdnhError) -> Self {
        match e {
            HdnhError::DuplicateKey => IndexError::DuplicateKey,
            HdnhError::KeyNotFound => IndexError::KeyNotFound,
            HdnhError::Capacity(_) => IndexError::TableFull,
            _ => IndexError::RetryResize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HdnhError::Corruption {
            level: 1,
            bucket: 7,
            slot: 3,
            outcome: CorruptionOutcome::Quarantined,
        };
        let s = e.to_string();
        assert!(s.contains("level 1") && s.contains("bucket 7") && s.contains("slot 3"));
        assert!(s.contains("quarantined"));
        assert!(HdnhError::Recovery("bad magic".into())
            .to_string()
            .contains("bad magic"));
    }

    #[test]
    fn round_trip_to_index_error() {
        assert_eq!(IndexError::from(HdnhError::DuplicateKey), IndexError::DuplicateKey);
        assert_eq!(IndexError::from(HdnhError::KeyNotFound), IndexError::KeyNotFound);
        assert_eq!(
            IndexError::from(HdnhError::Capacity("full".into())),
            IndexError::TableFull
        );
        assert_eq!(
            IndexError::from(HdnhError::Io("x".into())),
            IndexError::RetryResize
        );
    }

    #[test]
    fn operation_wordings_match_the_trait_vocabulary() {
        // The CLI prints these; they must not drift from IndexError's.
        assert_eq!(HdnhError::DuplicateKey.to_string(), IndexError::DuplicateKey.to_string());
        assert_eq!(HdnhError::KeyNotFound.to_string(), IndexError::KeyNotFound.to_string());
        let e = HdnhError::Integrity {
            invariant: "no-duplicate-keys",
            violations: vec!["duplicate key at L0/1/2".into()],
        };
        assert!(e.to_string().contains("no-duplicate-keys"));
        assert!(HdnhError::Config("bad ratio".into()).to_string().contains("bad ratio"));
    }
}
