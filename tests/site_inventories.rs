//! Both crash-site inventories, held at ±0 against their fixtures: every
//! named site (and every NVM write, flush and fence) the built-in mixes
//! hit, and every site a recovery hits after each of the five base crashes
//! of the explorer's recovery phase. A change that adds or drops a flush,
//! a fence or a site, on the write paths or in recovery, fails here.
//!
//! On a mismatch the new rendering is written to `target/tmp/<fixture>`.
//! When the move is on purpose, commit it:
//!
//! ```text
//! cargo test --release --test site_inventories; cp target/tmp/*-sites.txt tests/fixtures/
//! ```
//!
//! Its own integration-test binary, and one `#[test]`, because the fault
//! registry is process-global.

use std::path::Path;

use hdnh::faultexplore::{render_recovery_sites, render_sites};

/// Compares `got` with the fixture; returns the mismatch, if any.
fn check(fixture: &str, got: String) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let want = std::fs::read_to_string(&path).unwrap();
    if got == want {
        return None;
    }
    let now = Path::new(env!("CARGO_TARGET_TMPDIR")).join(fixture);
    std::fs::write(&now, &got).unwrap();
    Some(format!("{} moved: diff it with {}", path.display(), now.display()))
}

#[test]
fn crash_site_inventories_match_their_fixtures() {
    let moved: Vec<String> = [
        check("faultrun-sites.txt", render_sites()),
        check("recovery-sites.txt", render_recovery_sites()),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
