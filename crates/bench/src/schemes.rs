//! Uniform scheme constructors for the comparison benchmarks.
//!
//! Every scheme is sized for the workload's record count (so search
//! benchmarks measure probing, not resizing) and wired to the same
//! [`LatencyModel`](hdnh_nvm::LatencyModel): AEP-like by default,
//! disabled with `HDNH_NO_LATENCY`.

use hdnh::{Hdnh, HdnhParams, HotPolicy, SyncMode};
use hdnh_baselines::{Cceh, CcehParams, LevelHash, LevelParams, PathHash, PathParams};
use hdnh_common::HashIndex;
use hdnh_nvm::NvmOptions;

use crate::latency_enabled;

/// The scheme axis used by the comparison figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Path hashing (static, coarse lock).
    Path,
    /// Level hashing (bucket locks, stop-the-world resize).
    Level,
    /// CCEH (segment locks in NVM, splits).
    Cceh,
    /// HDNH as evaluated (RAFL hot table, OCF, background sync writes).
    Hdnh,
    /// HDNH with the LRU hot-table policy (figure 12).
    HdnhLru,
    /// HDNH without the hot table (ablation).
    HdnhNoHot,
    /// HDNH without OCF fingerprint filtering (ablation).
    HdnhNoOcf,
    /// HDNH with inline (non-overlapped) hot-table writes (ablation).
    HdnhInline,
    /// HDNH with background (overlapped) hot-table writes forced on
    /// (ablation; the default picks by core count).
    HdnhBackground,
    /// HDNH probing a single segment choice per level (ablation of the
    /// "2-cuckoo strategy").
    HdnhOneChoice,
}

impl Scheme {
    /// Display name (matches the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Path => "PATH",
            Scheme::Level => "LEVEL",
            Scheme::Cceh => "CCEH",
            Scheme::Hdnh => "HDNH",
            Scheme::HdnhLru => "HDNH(LRU)",
            Scheme::HdnhNoHot => "HDNH(-hot)",
            Scheme::HdnhNoOcf => "HDNH(-ocf)",
            Scheme::HdnhInline => "HDNH(inline)",
            Scheme::HdnhBackground => "HDNH(bg)",
            Scheme::HdnhOneChoice => "HDNH(1-choice)",
        }
    }

    /// The paper's four-way comparison set.
    pub fn paper_set() -> [Scheme; 4] {
        [Scheme::Path, Scheme::Level, Scheme::Cceh, Scheme::Hdnh]
    }
}

/// NVM options for benchmarks (honours `HDNH_NO_LATENCY`).
pub fn bench_nvm() -> NvmOptions {
    if latency_enabled() {
        NvmOptions::bench()
    } else {
        NvmOptions::fast()
    }
}

/// HDNH parameters sized for `capacity` records, benchmark wiring.
///
/// The synchronous-write mechanism (§3.4) overlaps the hot-table write with
/// the NVM write on a *separate core*; on hosts with too few cores the
/// foreground and background threads fight for the same CPU and the overlap
/// inverts. Like a deployment would, default to background writers only
/// when the host has cores to spare (the paper's testbed had 32); the
/// ablation binary measures both modes explicitly.
pub fn hdnh_params(capacity: usize) -> HdnhParams {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    HdnhParams {
        nvm: bench_nvm(),
        sync_mode: if cores >= 4 { SyncMode::Background } else { SyncMode::Inline },
        ..HdnhParams::for_capacity(capacity)
    }
}

/// Builds a scheme sized for `capacity` records (plus headroom for
/// insert-heavy runs, which grow dynamic schemes anyway) on `nvm`: the
/// figure binaries pass [`bench_nvm`], tests [`NvmOptions::fast`].
pub fn build(scheme: Scheme, capacity: usize, nvm: NvmOptions) -> Box<dyn HashIndex> {
    let hdnh = HdnhParams {
        nvm: nvm.clone(),
        ..hdnh_params(capacity)
    };
    match scheme {
        // Static: sized to the workload (modest headroom), like the
        // paper's setup — PATH runs at a realistic load factor.
        Scheme::Path => Box::new(PathHash::new(PathParams {
            nvm,
            ..PathParams::for_capacity(capacity + capacity / 10)
        })),
        Scheme::Level => Box::new(LevelHash::new(LevelParams {
            nvm,
            ..LevelParams::for_capacity(capacity)
        })),
        Scheme::Cceh => Box::new(Cceh::new(CcehParams {
            nvm,
            ..CcehParams::for_capacity(capacity)
        })),
        Scheme::Hdnh => Box::new(Hdnh::new(hdnh)),
        Scheme::HdnhLru => Box::new(Hdnh::new(HdnhParams {
            hot_policy: HotPolicy::Lru,
            ..hdnh
        })),
        Scheme::HdnhNoHot => Box::new(Hdnh::new(HdnhParams {
            enable_hot_table: false,
            ..hdnh
        })),
        Scheme::HdnhNoOcf => Box::new(Hdnh::new(HdnhParams {
            enable_ocf: false,
            ..hdnh
        })),
        Scheme::HdnhInline => Box::new(Hdnh::new(HdnhParams {
            sync_mode: SyncMode::Inline,
            ..hdnh
        })),
        Scheme::HdnhBackground => Box::new(Hdnh::new(HdnhParams {
            sync_mode: SyncMode::Background,
            ..hdnh
        })),
        Scheme::HdnhOneChoice => Box::new(Hdnh::new(HdnhParams {
            two_choice_segments: false,
            ..hdnh
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdnh_common::{Key, Value};

    #[test]
    fn every_scheme_builds_and_works() {
        for scheme in [
            Scheme::Path,
            Scheme::Level,
            Scheme::Cceh,
            Scheme::Hdnh,
            Scheme::HdnhLru,
            Scheme::HdnhNoHot,
            Scheme::HdnhNoOcf,
            Scheme::HdnhInline,
            Scheme::HdnhBackground,
            Scheme::HdnhOneChoice,
        ] {
            let idx = build(scheme, 10_000, NvmOptions::fast());
            for i in 0..100u64 {
                idx.insert(&Key::from_u64(i), &Value::from_u64(i)).unwrap();
            }
            for i in 0..100u64 {
                assert_eq!(
                    idx.get(&Key::from_u64(i)).unwrap().as_u64(),
                    i,
                    "{}",
                    scheme.name()
                );
            }
            assert_eq!(idx.len(), 100);
        }
    }

    #[test]
    fn names_match_paper_legends() {
        let names: Vec<&str> = Scheme::paper_set().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["PATH", "LEVEL", "CCEH", "HDNH"]);
    }
}
