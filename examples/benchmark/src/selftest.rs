//! `--self-test`: checks of the benchmark's own helpers, in well under a
//! second. The package is outside the repository workspace, so `cargo
//! test` at the root never sees it; this flag is how its arithmetic is
//! checked wherever the benchmark runs.

use crate::json::Json;
use crate::metrics::{valid_name, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile, poisson_schedule};
use crate::trace::Tracer;

/// The benchmark's description at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Runs every check; returns how many there were.
pub fn run() -> Result<usize, String> {
    let checks: [fn() -> Result<(), String>; 6] = [
        percentiles,
        span_self_time,
        poisson_is_seeded,
        json_escapes,
        names_are_valid,
        tables_match_benchmark_json,
    ];
    for check in checks {
        check()?;
    }
    Ok(checks.len())
}

fn percentiles() -> Result<(), String> {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    ensure(percentile(&v, 50.0) == 50.0, "p50 of 1..=100 is 50")?;
    ensure(percentile(&v, 95.0) == 95.0, "p95 of 1..=100 is 95")?;
    ensure(percentile(&v, 100.0) == 100.0, "p100 is the maximum")?;
    ensure(
        percentile(&[7.0], 99.0) == 7.0,
        "one sample is every percentile",
    )?;
    ensure(percentile(&[], 50.0) == 0.0, "no sample reads 0")?;
    ensure(median(&[3.0, 1.0, 2.0]) == 2.0, "median sorts first")?;
    // Ten samples must lie beyond the percentile reported.
    ensure(
        highest_supported_percentile(19).is_none(),
        "19 samples support nothing",
    )?;
    ensure(
        highest_supported_percentile(20) == Some(50.0),
        "20 samples support p50",
    )?;
    ensure(
        highest_supported_percentile(199) == Some(50.0),
        "199 samples stop at p50",
    )?;
    ensure(
        highest_supported_percentile(200) == Some(95.0),
        "200 samples support p95",
    )?;
    ensure(
        highest_supported_percentile(1000) == Some(99.0),
        "1000 samples support p99",
    )?;
    ensure(
        highest_supported_percentile(10_000) == Some(99.9),
        "10000 samples support p99.9",
    )
}

fn span_self_time() -> Result<(), String> {
    let mut t = Tracer::new(true);
    let step = t.push("step", 0, 1_000_000, None, 0);
    t.push("fwd", 100_000, 400_000, Some(step), 0);
    let bwd = t.push("bwd", 400_000, 900_000, Some(step), 0);
    t.push("inner", 500_000, 600_000, Some(bwd), 0);
    ensure(
        t.self_ms("step") == [0.2],
        "step self time excludes fwd and bwd only",
    )?;
    ensure(
        t.self_ms("bwd") == [0.4],
        "bwd self time excludes its own child",
    )?;
    ensure(t.total_ms("fwd") == 0.3, "total time of a name")?;

    let mut nested = Tracer::new(true);
    nested.begin("outer", 1);
    nested.span("inner", 1, || ());
    nested.end();
    let spans = nested.spans();
    ensure(
        spans.len() == 2 && spans[1].parent == Some(0),
        "begin nests under the open span",
    )?;
    ensure(
        spans[0].parent.is_none(),
        "the outermost span has no parent",
    )?;

    let mut off = Tracer::new(false);
    off.span("step", 0, || ());
    ensure(off.spans().is_empty(), "a disabled tracer records nothing")
}

fn poisson_is_seeded() -> Result<(), String> {
    let a = poisson_schedule(7, 300.0, 2.0);
    ensure(
        a == poisson_schedule(7, 300.0, 2.0),
        "same seed, same schedule",
    )?;
    ensure(
        a != poisson_schedule(8, 300.0, 2.0),
        "another seed, another schedule",
    )?;
    ensure(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend")?;
    ensure(
        a.iter().all(|&t| t < 2_000_000_000),
        "due times stay inside the phase",
    )?;
    ensure(
        (450..750).contains(&a.len()),
        "about rate x seconds arrivals",
    )
}

fn json_escapes() -> Result<(), String> {
    let doc = Json::Obj(vec![
        ("a\"b".into(), Json::str("line\nbreak\\ \u{1}")),
        (
            "n".into(),
            Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN), Json::Int(3)]),
        ),
        ("t".into(), Json::Bool(true)),
        ("z".into(), Json::Null),
    ]);
    let want = r#"{"a\"b": "line\nbreak\\ \u0001", "n": [1.5, null, 3], "t": true, "z": null}"#;
    ensure(doc.to_line() == want, "JSON writer escapes and formats")
}

fn names_are_valid() -> Result<(), String> {
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.0));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        ensure(
            valid_name(name),
            &format!("metric name {name:?} keeps to [A-Za-z0-9_.-]"),
        )?;
        ensure(
            seen.insert(name),
            &format!("metric name {name:?} is used once"),
        )?;
    }
    ensure(
        !valid_name("has space") && !valid_name("") && !valid_name(".dot"),
        "bad names are refused",
    )
}

/// Every metric the binary prints is declared in `BENCHMARK.json` with
/// the same unit, and the file declares no other.
fn tables_match_benchmark_json() -> Result<(), String> {
    let declared = BENCHMARK_JSON.matches("\"unit\":").count();
    ensure(
        declared == END_TO_END.len() + PER_LAYER.len(),
        &format!(
            "BENCHMARK.json declares {declared} metrics, metrics.rs {}",
            END_TO_END.len() + PER_LAYER.len()
        ),
    )?;
    let units = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().copied());
    for (name, unit) in units {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        ensure(
            BENCHMARK_JSON.contains(&entry),
            &format!("BENCHMARK.json lacks {entry}"),
        )?;
    }
    for m in END_TO_END {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}",
            m.name, m.unit, m.bound
        );
        ensure(
            BENCHMARK_JSON.contains(&entry),
            &format!("BENCHMARK.json lacks {entry}"),
        )?;
    }
    Ok(())
}
