//! Shared parsing for the `MBS_*` environment knobs.
//!
//! Every knob in the workspace follows the same discipline: a malformed
//! value **warns once and falls back** to the documented default instead
//! of being silently ignored (or, worse, silently flipping a behavior the
//! user did not ask for). The parsers here are pure functions over the
//! raw string — `None` means "malformed" — so each knob's grammar can be
//! unit-tested without touching process-global environment state; the
//! `*_knob` wrappers add the env lookup and the warning.
//!
//! Knobs using this module:
//!
//! | knob | grammar | parser |
//! |---|---|---|
//! | `MBS_STASH` | on/off flag | [`parse_flag`] |
//! | `MBS_THREADS`, `MBS_CKPT_EVERY` | non-negative integer | [`parse_usize`] |
//! | `MBS_SERVE_DEADLINE_US`, `MBS_SERVE_MAX_RESPAWNS` | non-negative integer | [`parse_usize`] |
//! | `MBS_CACHE_BUDGET` | byte size with K/M/G suffix | [`parse_byte_size`] |
//! | `MBS_PREC` | `f32` or `bf16` | [`crate::prec::parse_precision`] |
//! | `MBS_SERVE_WORKERS`, `MBS_SERVE_MAX_BATCH`, `MBS_SERVE_QUEUE`, `MBS_SERVE_PRIORITY_LEVELS` | positive integer | [`positive_usize_knob`] |
//! | `MBS_LOADER_PREFETCH`, `MBS_LOADER_CHUNK` | positive integer | [`positive_usize_knob`] |
//!
//! (`MBS_KERNEL` is a name resolved against the detected kernel set and
//! keeps its own warn-and-fall-back resolution in `ops::kernel`;
//! `MBS_CKPT_DIR` is a path and needs no parsing.)

/// Parses an on/off flag: `1`/`true`/`on`/`yes` → `true`,
/// `0`/`false`/`off`/`no` → `false` (case-insensitive, surrounding
/// whitespace ignored). Anything else is malformed.
pub fn parse_flag(s: &str) -> Option<bool> {
    let t = s.trim();
    if t == "1"
        || t.eq_ignore_ascii_case("true")
        || t.eq_ignore_ascii_case("on")
        || t.eq_ignore_ascii_case("yes")
    {
        Some(true)
    } else if t == "0"
        || t.eq_ignore_ascii_case("false")
        || t.eq_ignore_ascii_case("off")
        || t.eq_ignore_ascii_case("no")
    {
        Some(false)
    } else {
        None
    }
}

/// Parses a non-negative decimal integer (surrounding whitespace ignored).
pub fn parse_usize(s: &str) -> Option<usize> {
    s.trim().parse().ok()
}

/// Parses `"8388608"`, `"8192K"`, `"8M"`, `"1G"` (suffixes are
/// case-insensitive, powers of 1024) into bytes. Suffixed products that
/// would overflow `usize` are malformed, not wrapped.
pub fn parse_byte_size(s: &str) -> Option<usize> {
    let t = s.trim();
    let (digits, shift) = match t.chars().last()? {
        'k' | 'K' => (&t[..t.len() - 1], 10),
        'm' | 'M' => (&t[..t.len() - 1], 20),
        'g' | 'G' => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    let n: usize = digits.trim().parse().ok()?;
    // checked_mul (not checked_shl) so a value whose suffixed product
    // overflows usize maps to None — shifts only guard the shift amount,
    // not shifted-out bits.
    n.checked_mul(1usize << shift)
}

/// Reads env var `name` and parses it with `parse`. Unset → `None`
/// (caller applies its default); set but malformed → one warning naming
/// the knob and the expected grammar, then `None` (same fallback).
pub fn knob<T>(name: &str, grammar: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match parse(&raw) {
        Some(v) => Some(v),
        None => {
            eprintln!("warning: {name}={raw:?} is not {grammar}; falling back to the default");
            None
        }
    }
}

/// [`knob`] for on/off flags: `default` when unset or malformed.
pub fn flag_knob(name: &str, default: bool) -> bool {
    knob(
        name,
        "an on/off flag (1/true/on/yes or 0/false/off/no)",
        parse_flag,
    )
    .unwrap_or(default)
}

/// [`knob`] for positive integers: `None` when unset, malformed, or zero
/// with `reject_zero` (zero is warned about like any malformed value).
pub fn positive_usize_knob(name: &str) -> Option<usize> {
    knob(name, "a positive integer", |s| {
        parse_usize(s).filter(|&n| n > 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test per knob grammar, against the pure parsers (the env-var
    // wrappers are exercised by each knob's own crate).

    #[test]
    fn flag_knobs_accept_both_spellings() {
        // MBS_STASH grammar.
        for on in ["1", "true", "TRUE", "on", "yes", " On "] {
            assert_eq!(parse_flag(on), Some(true), "{on:?}");
        }
        for off in ["0", "false", "off", "OFF", "no", " No "] {
            assert_eq!(parse_flag(off), Some(false), "{off:?}");
        }
        for bad in ["", "2", "enabled", "truee", "o n"] {
            assert_eq!(parse_flag(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn threads_knob_grammar() {
        // MBS_THREADS: positive integer.
        assert_eq!(parse_usize("4"), Some(4));
        assert_eq!(parse_usize(" 16 "), Some(16));
        assert_eq!(parse_usize("0"), Some(0)); // zero filtered by the knob wrapper
        assert_eq!(parse_usize("-1"), None);
        assert_eq!(parse_usize("four"), None);
        assert_eq!(parse_usize("4.0"), None);
    }

    #[test]
    fn ckpt_every_knob_grammar() {
        // MBS_CKPT_EVERY: non-negative integer (0 = epoch-end only).
        assert_eq!(parse_usize("0"), Some(0));
        assert_eq!(parse_usize("10"), Some(10));
        assert_eq!(parse_usize("every-step"), None);
    }

    #[test]
    fn cache_budget_knob_grammar() {
        // MBS_CACHE_BUDGET: byte size with optional K/M/G suffix.
        assert_eq!(parse_byte_size("8388608"), Some(8 * 1024 * 1024));
        assert_eq!(parse_byte_size("8192K"), Some(8 * 1024 * 1024));
        assert_eq!(parse_byte_size(" 8M "), Some(8 * 1024 * 1024));
        assert_eq!(parse_byte_size("1g"), Some(1 << 30));
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size(""), None);
        // Suffixed products that overflow usize are rejected, not wrapped.
        assert_eq!(parse_byte_size("18446744073709551615G"), None);
        assert_eq!(parse_byte_size(&format!("{}G", usize::MAX >> 29)), None);
    }

    #[test]
    fn unset_knobs_fall_back_silently() {
        assert!(flag_knob("MBS_TEST_KNOB_THAT_IS_NEVER_SET", true));
        assert!(!flag_knob("MBS_TEST_KNOB_THAT_IS_NEVER_SET", false));
        assert_eq!(positive_usize_knob("MBS_TEST_KNOB_THAT_IS_NEVER_SET"), None);
    }
}
