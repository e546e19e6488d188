//! The environment knobs the libraries read are exactly the rows of the
//! knob table in `docs/ARCHITECTURE.md`: a knob added or deleted in code
//! without its table row (or the reverse) fails here.
//!
//! A knob is a `"MBS_[A-Z_]+"` string literal in non-test library code —
//! the lines of a `crates/*/src` file before its first `#[cfg(test)]`.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Every `"MBS_[A-Z_]+"` string literal in `text`.
fn knob_literals(text: &str, out: &mut BTreeSet<String>) {
    let mut rest = text;
    while let Some(at) = rest.find("\"MBS_") {
        let name = &rest[at + 1..];
        let len = name
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(name.len());
        if name[len..].starts_with('"') && len > "MBS_".len() {
            out.insert(name[..len].to_owned());
        }
        rest = &name[len..];
    }
}

/// The non-test lines of every `.rs` file under `dir`, recursively.
fn scan(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).unwrap();
            let code = text
                .lines()
                .take_while(|l| !l.starts_with("#[cfg(test)]"))
                .collect::<Vec<_>>()
                .join("\n");
            knob_literals(&code, out);
        }
    }
}

#[test]
fn library_knobs_equal_the_architecture_knob_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_code = BTreeSet::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            scan(&src, &mut in_code);
        }
    }

    let doc = fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    let table = doc
        .split("| knob | default | consumer | meaning |")
        .nth(1)
        .expect("ARCHITECTURE.md has the knob table");
    let in_table: BTreeSet<String> = table
        .lines()
        .skip(2) // the rest of the header line and the separator row
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cell = row.split('|').nth(1).unwrap().trim();
            cell.trim_matches('`').to_owned()
        })
        .collect();

    assert!(!in_code.is_empty(), "the scan found no knob at all");
    assert_eq!(in_code, in_table, "knobs in code vs rows of the table");
}
