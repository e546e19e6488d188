//! Experiment harness for the MBS reproduction: regenerates every table and
//! figure of the paper's evaluation — one module per figure or table under
//! [`experiments`], one `figNN_*`/`tabNN_*` binary each — and hosts the
//! [`crash`] scenario behind the `crash_resume` SIGKILL test.
//!
//! Each figure binary (`cargo run --release -p mbs-bench --bin fig10_main`)
//! prints the same rows/series the paper reports; `all_experiments` runs
//! the whole suite and writes JSON reports. Performance is measured by the
//! repository benchmark (`examples/benchmark/`), not here.

pub mod crash;
pub mod experiments;
pub mod table;

use std::fs;
use std::path::Path;

use serde::Serialize;

/// Writes a serializable experiment result as pretty JSON.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_json<T: Serialize>(
    dir: &Path,
    name: &str,
    value: &T,
) -> Result<(), Box<dyn std::error::Error>> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_json_round_trips() {
        let dir = std::env::temp_dir().join("mbs-bench-test");
        write_json(&dir, "probe", &vec![1, 2, 3]).unwrap();
        let text = std::fs::read_to_string(dir.join("probe.json")).unwrap();
        let back: Vec<i32> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
