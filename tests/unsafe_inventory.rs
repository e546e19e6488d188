//! Every `unsafe` site in non-test library code states its contract: an
//! `unsafe { .. }` block or an `unsafe impl` has a `// SAFETY:` comment
//! directly above it, and an `unsafe fn` definition has a `# Safety`
//! section in its docs. A site added without one fails here.
//!
//! Non-test library code is the lines of a `crates/*/src` file before its
//! first `#[cfg(test)]`, as in `knob_inventory.rs`. A fn-pointer type
//! (`unsafe fn(`) is a type, not a definition, and needs no section.

use std::fs;
use std::path::Path;

/// The kinds of `unsafe` site this test checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Block,
    Impl,
    Fn,
}

/// The sites that start on one line of code (comments already removed).
fn sites(code: &str) -> Vec<Site> {
    let mut found = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("unsafe") {
        let word_start = at == 0 || !is_ident(rest[..at].chars().next_back().unwrap());
        let after = &rest[at + "unsafe".len()..];
        rest = after;
        if !word_start || after.starts_with(is_ident) {
            continue;
        }
        let next = after.trim_start();
        if next.starts_with('{') {
            found.push(Site::Block);
        } else if next.starts_with("impl") && !next["impl".len()..].starts_with(is_ident) {
            found.push(Site::Impl);
        } else if let Some(name) = next.strip_prefix("fn").and_then(|r| r.strip_prefix(' ')) {
            // `unsafe fn name(` defines a function (`$name` in a macro);
            // `unsafe fn(` is a type.
            if name.trim_start().starts_with(|c| is_ident(c) || c == '$') {
                found.push(Site::Fn);
            }
        }
    }
    found
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `line` without its `//` comment, if any.
fn strip_comment(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// Whether the run of comment lines directly above `lines[at]` holds a
/// `// SAFETY:` comment.
fn has_safety_comment(lines: &[&str], at: usize) -> bool {
    lines[..at]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//"))
        .any(|l| l.starts_with("// SAFETY:"))
}

/// Whether the docs and attributes directly above `lines[at]` hold a
/// `# Safety` section (a macro's optional attributes, `$(#[..])?`,
/// included).
fn has_safety_section(lines: &[&str], at: usize) -> bool {
    lines[..at]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//") || l.starts_with("#[") || l.starts_with("$(#["))
        .any(|l| l == "/// # Safety")
}

/// Site counts and contract violations of the non-test code of every
/// `.rs` file under `dir`, recursively.
fn scan(dir: &Path, counts: &mut [usize; 3], missing: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan(&path, counts, missing);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .collect();
        for (at, line) in lines.iter().enumerate() {
            for site in sites(strip_comment(line)) {
                counts[site as usize] += 1;
                let ok = match site {
                    Site::Block | Site::Impl => has_safety_comment(&lines, at),
                    Site::Fn => has_safety_section(&lines, at),
                };
                if !ok {
                    let need = match site {
                        Site::Block | Site::Impl => "a `// SAFETY:` comment above it",
                        Site::Fn => "a `# Safety` doc section",
                    };
                    missing.push(format!(
                        "{}:{}: {site:?} needs {need}",
                        path.display(),
                        at + 1
                    ));
                }
            }
        }
    }
}

#[test]
fn every_unsafe_site_states_its_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut counts = [0usize; 3];
    let mut missing = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            scan(&src, &mut counts, &mut missing);
        }
    }
    let [blocks, impls, fns] = counts;
    println!("unsafe sites: {blocks} blocks, {impls} impls, {fns} fn definitions");
    assert!(
        blocks + impls + fns > 0,
        "the scan found no unsafe site at all"
    );
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn site_scanner_tells_definitions_from_types() {
    assert_eq!(sites("unsafe { f() }"), [Site::Block]);
    assert_eq!(sites("let x = unsafe { f() };"), [Site::Block]);
    assert_eq!(sites("unsafe impl Sync for P {}"), [Site::Impl]);
    assert_eq!(
        sites("pub(crate) unsafe fn widen8(p: *const u16)"),
        [Site::Fn]
    );
    assert_eq!(sites("unsafe fn $name<const NV: usize>("), [Site::Fn]);
    assert!(sites("type Tile = unsafe fn(usize, *const f32);").is_empty());
    assert!(sites("    run: unsafe fn(kc: usize) -> f32,").is_empty());
    assert!(sites("let not_unsafe_code = 1;").is_empty());
    assert!(has_safety_comment(
        &["// SAFETY: in bounds", "unsafe { f() }"],
        1
    ));
    assert!(!has_safety_comment(
        &["// SAFETY: x", "", "unsafe { f() }"],
        2
    ));
    assert!(has_safety_section(
        &[
            "/// Does f.",
            "///",
            "/// # Safety",
            "#[inline]",
            "unsafe fn f() {}"
        ],
        4
    ));
}
