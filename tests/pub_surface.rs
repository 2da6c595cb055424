//! The workspace's public surface, held at ±0 against
//! `tests/fixtures/pub-items.txt`: every `pub` item line (not `pub(crate)`
//! or `pub(super)`, and not a struct field) under `crates/*/src`, listed
//! per file, with a count per crate at the top. A change that exports or
//! hides an item fails here, so its `pub` delta is the fixture diff.
//!
//! On a mismatch the new rendering is written to `target/tmp/pub-items.txt`.
//! When the move is on purpose, commit it:
//!
//! ```text
//! cargo test --test pub_surface; cp target/tmp/pub-items.txt tests/fixtures/
//! ```

use std::path::{Path, PathBuf};

const FIXTURE: &str = "pub-items.txt";

/// Keywords that start an item, after `pub` and an optional `unsafe`.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

/// The item a line declares `pub`, as `kind name` (a `use` keeps its whole
/// path), or `None` when the line declares no `pub` item.
fn pub_item(line: &str) -> Option<String> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    // `const` qualifies `pub const fn`; alone it is the item (`pub const X`).
    let rest = rest
        .strip_prefix("const ")
        .filter(|r| r.starts_with("fn "))
        .unwrap_or(rest);
    let (kind, tail) = rest.split_once(' ')?;
    if !ITEM_KEYWORDS.contains(&kind) {
        return None;
    }
    if kind == "use" {
        return Some(format!("use {tail}"));
    }
    let name: String = tail
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    Some(format!("{kind} {name}"))
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The inventory: `crates/<name>: <count>` per crate, then each file
/// with its `pub` items, one per line.
fn render(root: &Path) -> String {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crates.sort();
    let (mut totals, mut listing) = (String::new(), String::new());
    for krate in crates {
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        let mut count = 0;
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            let items: Vec<String> = text.lines().filter_map(pub_item).collect();
            if items.is_empty() {
                continue;
            }
            count += items.len();
            let rel = file.strip_prefix(root).unwrap().to_string_lossy();
            listing += &format!("\n{rel}\n");
            for item in items {
                listing += &format!("    {item}\n");
            }
        }
        let rel = krate.strip_prefix(root).unwrap().to_string_lossy();
        totals += &format!("{rel}: {count}\n");
    }
    totals + &listing
}

#[test]
fn pub_items_match_their_fixture() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let got = render(root);
    let path = root.join("tests/fixtures").join(FIXTURE);
    let want = std::fs::read_to_string(&path).unwrap();
    if got != want {
        let now = Path::new(env!("CARGO_TARGET_TMPDIR")).join(FIXTURE);
        std::fs::write(&now, &got).unwrap();
        panic!("{} moved: diff it with {}", path.display(), now.display());
    }
}
