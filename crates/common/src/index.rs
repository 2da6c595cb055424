//! The `HashIndex` trait.
//!
//! HDNH and the three baselines (Level hashing, CCEH, Path hashing) all
//! implement this trait so the YCSB harness, the figure generators and the
//! integration tests can drive any scheme through one interface, exactly
//! like the paper's evaluation drives four binaries with the same workloads.

use std::fmt;

use crate::kv::{Key, Value};

/// Errors surfaced by index operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The key is already present (insert of a duplicate).
    DuplicateKey,
    /// The key was not found (update/delete of a missing key).
    KeyNotFound,
    /// The table is full and the scheme cannot grow (static schemes such as
    /// Path hashing, or a resize limit was hit).
    TableFull,
    /// The system, not the request, failed the operation. HDNH's
    /// `HashIndex` impl reports an I/O, corruption, recovery or integrity
    /// error this way, having no narrower variant for it; resizes are
    /// retried internally and never surface.
    RetryResize,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::DuplicateKey => write!(f, "key already present"),
            IndexError::KeyNotFound => write!(f, "key not found"),
            IndexError::TableFull => write!(f, "hash table is full"),
            IndexError::RetryResize => write!(f, "operation raced with resize"),
        }
    }
}

impl std::error::Error for IndexError {}

/// Result alias for index operations.
pub type IndexResult<T> = Result<T, IndexError>;

/// A concurrent persistent hash index over fixed-size keys and values.
///
/// All methods take `&self`: implementations do their own concurrency
/// control (that is the point of the paper's comparison). Implementations
/// must be [`Send`] + [`Sync`] so the harness can share one instance across
/// worker threads.
pub trait HashIndex: Send + Sync {
    /// Inserts a new key/value pair. Fails with
    /// [`IndexError::DuplicateKey`] if the key already exists and
    /// [`IndexError::TableFull`] if there is no room and the scheme cannot
    /// grow.
    fn insert(&self, key: &Key, value: &Value) -> IndexResult<()>;

    /// Looks up `key`, returning its value if present.
    fn get(&self, key: &Key) -> Option<Value>;

    /// Replaces the value of an existing key. Fails with
    /// [`IndexError::KeyNotFound`] if absent.
    fn update(&self, key: &Key, value: &Value) -> IndexResult<()>;

    /// Removes `key`. Returns `true` if it was present.
    fn remove(&self, key: &Key) -> bool;

    /// Number of live records.
    fn len(&self) -> usize;

    /// `true` if no records are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of slots occupied (0.0 ..= 1.0).
    fn load_factor(&self) -> f64;

    /// Short scheme name for benchmark output (e.g. `"HDNH"`, `"CCEH"`).
    fn scheme_name(&self) -> &'static str;

    /// Insert-or-update convenience used by YCSB's `update` on schemes where
    /// the key may have been evicted (default: update, insert on miss).
    fn upsert(&self, key: &Key, value: &Value) -> IndexResult<()> {
        match self.update(key, value) {
            Err(IndexError::KeyNotFound) => match self.insert(key, value) {
                Err(IndexError::DuplicateKey) => self.update(key, value),
                other => other,
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// A trivial reference implementation used to test the trait's default
    /// methods and to serve as a behavioural oracle in higher-level tests.
    pub struct OracleIndex {
        map: Mutex<HashMap<Key, Value>>,
    }

    impl OracleIndex {
        pub fn new() -> Self {
            OracleIndex {
                map: Mutex::new(HashMap::new()),
            }
        }
    }

    impl HashIndex for OracleIndex {
        fn insert(&self, key: &Key, value: &Value) -> IndexResult<()> {
            let mut m = self.map.lock().unwrap();
            if m.contains_key(key) {
                return Err(IndexError::DuplicateKey);
            }
            m.insert(*key, *value);
            Ok(())
        }

        fn get(&self, key: &Key) -> Option<Value> {
            self.map.lock().unwrap().get(key).copied()
        }

        fn update(&self, key: &Key, value: &Value) -> IndexResult<()> {
            let mut m = self.map.lock().unwrap();
            match m.get_mut(key) {
                Some(v) => {
                    *v = *value;
                    Ok(())
                }
                None => Err(IndexError::KeyNotFound),
            }
        }

        fn remove(&self, key: &Key) -> bool {
            self.map.lock().unwrap().remove(key).is_some()
        }

        fn len(&self) -> usize {
            self.map.lock().unwrap().len()
        }

        fn load_factor(&self) -> f64 {
            0.0
        }

        fn scheme_name(&self) -> &'static str {
            "ORACLE"
        }
    }

    #[test]
    fn oracle_basic_flow() {
        let idx = OracleIndex::new();
        let k = Key::from_u64(1);
        assert!(idx.is_empty());
        idx.insert(&k, &Value::from_u64(10)).unwrap();
        assert_eq!(idx.get(&k).unwrap().as_u64(), 10);
        assert_eq!(idx.insert(&k, &Value::from_u64(11)), Err(IndexError::DuplicateKey));
        idx.update(&k, &Value::from_u64(12)).unwrap();
        assert_eq!(idx.get(&k).unwrap().as_u64(), 12);
        assert!(idx.remove(&k));
        assert!(!idx.remove(&k));
        assert_eq!(idx.update(&k, &Value::ZERO), Err(IndexError::KeyNotFound));
    }

    #[test]
    fn upsert_inserts_then_updates() {
        let idx = OracleIndex::new();
        let k = Key::from_u64(7);
        idx.upsert(&k, &Value::from_u64(1)).unwrap();
        assert_eq!(idx.get(&k).unwrap().as_u64(), 1);
        idx.upsert(&k, &Value::from_u64(2)).unwrap();
        assert_eq!(idx.get(&k).unwrap().as_u64(), 2);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn error_display() {
        assert_eq!(IndexError::DuplicateKey.to_string(), "key already present");
        assert_eq!(IndexError::KeyNotFound.to_string(), "key not found");
        assert_eq!(IndexError::TableFull.to_string(), "hash table is full");
    }
}
