//! Exhaustive crash-point matrix (the fault-injection acceptance test).
//!
//! Drives `hdnh::faultexplore` over every named crash site discovered by
//! the built-in op mixes, crashing at sampled hit counts and verifying that
//! recovery restores an oracle-consistent, invariant-clean table. Runs in
//! its own test binary because the fault registry is process-global: one
//! `#[test]` owns the whole matrix so nothing else can arm or record
//! concurrently.

use hdnh::faultexplore::{
    explore, hit_samples, record_sites, run_single, CaseBackend, ExploreConfig, OpMix,
};
use hdnh_nvm::FaultPlan;

/// Site categories the ISSUE demands coverage for, with a witness prefix.
const REQUIRED_CATEGORIES: &[(&str, &str)] = &[
    ("insert", "insert."),
    ("update", "update."),
    ("update-fallback", "update.fallback."),
    ("remove", "remove."),
    ("resize-allocate", "resize.alloc"),
    ("resize-migrate", "migrate."),
    ("resize-swap", "resize.swapped"),
    ("sync-write", "hot."),
    ("recovery", "recover."),
    ("nvm-store", "nvm.write"),
    ("nvm-flush", "nvm.flush"),
    ("nvm-fence", "nvm.fence"),
    ("nvm-cas", "nvm.cas"),
];

#[test]
fn crash_point_matrix() {
    let cfg = ExploreConfig::full();
    let mut n = 0usize;
    let report = explore(&cfg, |case| {
        n += 1;
        if !case.pass {
            eprintln!("FAIL {} :: {}", case.repro(), case.detail);
        } else if n.is_multiple_of(50) {
            eprintln!("... {n} cases, last {}", case.repro());
        }
    });

    // Coverage: the matrix must have discovered a rich site inventory.
    assert!(
        report.sites_seen.len() >= 25,
        "only {} distinct crash sites discovered: {:?}",
        report.sites_seen.len(),
        report.sites_seen.keys().collect::<Vec<_>>()
    );
    for (category, prefix) in REQUIRED_CATEGORIES {
        assert!(
            report.sites_seen.keys().any(|s| s.starts_with(prefix)),
            "no crash site covers category '{category}' (prefix '{prefix}'); saw {:?}",
            report.sites_seen.keys().collect::<Vec<_>>()
        );
    }

    // Correctness: every (mix, site, hit, seed) case recovered cleanly.
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "{} of {} cases failed:\n{}",
        failures.len(),
        report.cases.len(),
        failures
            .iter()
            .map(|f| format!("  {} :: {}", f.repro(), f.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.cases.len() >= 100, "matrix suspiciously small: {n} cases");

    // ---- pool-backend rows: same sites, mmap flush path, power loss ----
    //
    // The same runner on `CaseBackend::Pool`, with shadow persistence and
    // the blocking sync policy: the injected crash is followed by a torn/
    // dropped/reordered power cut of every region the table reaches, and
    // recovery goes through the full `open_pool` path (superblock, size
    // classification, orphan sweep). Runs in the same #[test] because the
    // fault registry is process-global.
    //
    // Seeds 0/1/2 pick the three loss modes via `LossMode::from_seed`, so
    // every (site, hit) sample sees drop-pages, tear-lines and
    // reorder-pages at least once across the sweep. Bounded per-site to
    // keep the wall clock sane: first and last hit only, seeds rotated.
    let mut pool_cases = 0usize;
    let mut pool_failures: Vec<String> = Vec::new();
    let mut pool_sites = 0usize;
    for mix in OpMix::builtin() {
        let counts = record_sites(&mix, CaseBackend::Pool)
            .unwrap_or_else(|e| panic!("pool site recording failed for {}: {e}", mix.name));
        // One inventory for both backends: `faultrun-sites.txt`, recorded on
        // the heap, describes the pool too.
        let heap = record_sites(&mix, CaseBackend::Heap)
            .unwrap_or_else(|e| panic!("heap site recording failed for {}: {e}", mix.name));
        assert_eq!(counts, heap, "mix {}: pool and heap site inventories differ", mix.name);
        assert!(
            !counts.is_empty(),
            "pool recording discovered no crash sites for mix {}",
            mix.name
        );
        pool_sites += counts.len();
        for (site, hits) in &counts {
            let mut samples = hit_samples(*hits);
            // First and last hit: the middle sample buys little here and
            // the pool path is ~10× slower per case than the heap path.
            if samples.len() > 2 {
                samples = vec![samples[0], *samples.last().unwrap()];
            }
            for (i, hit) in samples.into_iter().enumerate() {
                let seed = (pool_cases + i) as u64 % 3;
                let plan = FaultPlan {
                    site: site.to_string(),
                    hit,
                };
                let r = run_single(&mix, &plan, seed, None, 2, CaseBackend::Pool);
                pool_cases += 1;
                if !r.pass {
                    eprintln!("POOL FAIL {} :: {}", r.repro(), r.detail);
                    pool_failures.push(format!("  {} :: {}", r.repro(), r.detail));
                } else if pool_cases.is_multiple_of(50) {
                    eprintln!("... {pool_cases} pool cases, last {}", r.repro());
                }
            }
        }
    }
    eprintln!("crash-point matrix: {} heap cases, {pool_cases} pool cases", report.cases.len());
    assert!(
        pool_failures.is_empty(),
        "{} of {} pool-backend cases failed:\n{}",
        pool_failures.len(),
        pool_cases,
        pool_failures.join("\n")
    );
    assert!(
        pool_cases >= 50,
        "pool matrix suspiciously small: {pool_cases} cases over {pool_sites} sites"
    );
}
