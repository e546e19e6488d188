//! The repository's benchmark: one workload per process, measured from
//! outside through the public `mbs` facade.
//!
//! ```sh
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload train_stream_conv --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no span recorded;
//! `--trace 1` is a separate, traced run that yields the per-layer
//! metrics and writes `bench-out/trace-<workload>.json`. Either way every
//! metric is printed as `name value unit` and the last line of standard
//! output is one JSON object. See README.md beside this package.

mod host;
mod json;
mod layers;
mod metrics;
mod selftest;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use host::HostProbe;
use json::Json;
use metrics::{Metrics, END_TO_END};

/// The open loop's pacer may run this late at its 99th percentile before
/// the run is marked disturbed.
const PACER_LATE_LIMIT_MS: f64 = 5.0;

const WORKLOADS: [&str; 4] = [
    "train_stream_conv",
    "train_overhead_incep",
    "train_dram_resnet",
    serve::NAME,
];

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Run {
    workload: String,
    pub seed: u64,
    /// Length of the timed section in seconds.
    pub seconds: f64,
    traced: bool,
    quick: bool,
    out_dir: PathBuf,
    /// Scratch directory of this process, removed at exit.
    pub work: PathBuf,
}

impl Run {
    /// Whether a `--trace 0` run that has set up `done` times in `spent`
    /// seconds sets up once more before it reports the median: five
    /// times, or three when set-up is slow enough to eat the run.
    pub fn sets_up_again(&self, done: usize, spent: f64) -> bool {
        !self.quick && (done < 3 || (done < 5 && spent < 3.0))
    }
}

/// One correctness check made inside the run.
#[derive(Debug)]
pub struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: training steps, or requests offered.
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<Check>,
    pub notes: Vec<String>,
    pub host: Option<HostProbe>,
    pub pacer_late_p99_ms: Option<f64>,
    /// Extra sections of the trace file (`spans`, `nodes`).
    pub trace: Vec<(String, Json)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn disturbed(&self) -> bool {
        self.host.is_some_and(|h| h.disturbed())
            || self
                .pacer_late_p99_ms
                .is_some_and(|l| l > PACER_LATE_LIMIT_MS)
    }
}

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
                 [--out <dir>] [--quick] [--aa]
       benchmark --self-test
workloads: train_stream_conv train_overhead_incep train_dram_resnet serve_open_loop";

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        traced: false,
        quick: false,
        out_dir: PathBuf::from("bench-out"),
        work: PathBuf::new(),
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => run.out_dir = PathBuf::from(value()?),
            "--quick" => run.quick = true,
            "--aa" => {}
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload {:?}", run.workload));
    }
    run.seed = seed.ok_or("--seed is required")?;
    if run.quick {
        run.seconds = 3.0;
    }
    if !(run.seconds.is_finite() && run.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    run.work = run.out_dir.join(format!("work-{}", std::process::id()));
    Ok(run)
}

/// Pins every knob the library reads from the environment, before the
/// first library call: nothing the caller's shell exports reaches a
/// measurement, and the configuration is the same on every host.
fn pin_environment() {
    let inherited: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MBS_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    for (key, value) in [
        ("MBS_THREADS", "1"),
        ("MBS_PREC", "f32"),
        ("MBS_FUSE", "1"),
        ("MBS_STASH", "1"),
    ] {
        std::env::set_var(key, value);
    }
}

fn dispatch(run: &Run) -> Result<Outcome, String> {
    if run.workload == serve::NAME {
        return if run.traced {
            serve::run_traced(run)
        } else {
            serve::run_untraced(run)
        };
    }
    let spec = train::SPECS
        .iter()
        .find(|s| s.name == run.workload)
        .expect("parse_args admits only known workloads");
    if run.traced {
        train::run_traced(spec, run)
    } else {
        train::run_untraced(spec, run)
    }
}

fn metrics_json(rows: &[(&'static str, f64, &'static str)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|&(name, value, unit)| {
                let fields = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::str(unit)),
                ];
                (name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Prints the header, every metric, the checks, and the result line.
fn report(run: &Run, mut outcome: Outcome) -> Result<bool, String> {
    let kernel = mbs::tensor::ops::kernel::selected().name;
    let threads = mbs::tensor::ops::configured_threads();
    let header = vec![
        ("workload".to_string(), Json::str(&run.workload)),
        ("seed".to_string(), Json::Int(run.seed)),
        ("seconds".to_string(), Json::Num(run.seconds)),
        ("traced".to_string(), Json::Bool(run.traced)),
        ("quick".to_string(), Json::Bool(run.quick)),
        ("git_sha".to_string(), Json::str(host::git_sha())),
        ("kernel".to_string(), Json::str(kernel)),
        ("threads".to_string(), Json::Int(threads as u64)),
        ("precision".to_string(), Json::str("f32")),
        ("nproc".to_string(), Json::Int(host::nproc() as u64)),
    ];
    println!("# {}", Json::Obj(header.clone()).to_line());

    let disturbed = outcome.disturbed();
    if let Some(h) = outcome.host {
        println!(
            "# host spin probe: {:.2} ms before, {:.2} ms after",
            h.spin_ms_before, h.spin_ms_after
        );
        if run.traced {
            let m = &mut outcome.metrics;
            m.set("host.nproc", host::nproc() as f64);
            m.set("host.spin_ms_before", h.spin_ms_before);
            m.set("host.spin_ms_after", h.spin_ms_after);
            m.set("host.disturbed", f64::from(u8::from(disturbed)));
        }
    }
    if disturbed {
        println!("# WARNING host.disturbed = 1: the host changed during the timed section; discard this run");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for c in &outcome.checks {
        println!(
            "# check {}: {} ({})",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }

    let rows = if run.traced {
        outcome.metrics.per_layer()
    } else {
        outcome
            .metrics
            .end_to_end()
            .map_err(|name| format!("end-to-end metric {name} was never measured"))?
    };
    for (name, value, unit) in &rows {
        println!("{name} {value} {unit}");
    }
    let failed_checks = outcome.checks.iter().filter(|c| !c.ok).count() as u64;
    println!("ops_attempted {} count", outcome.attempted);
    println!("ops_failed {} count", outcome.failed + failed_checks);

    if run.traced {
        let mut doc = header;
        doc.push(("metrics".to_string(), metrics_json(&rows)));
        doc.append(&mut outcome.trace);
        // The benchmark defines the measurement; it claims no gain.
        doc.push(("claim".to_string(), Json::Null));
        let path = run.out_dir.join(format!("trace-{}.json", run.workload));
        std::fs::write(&path, Json::Obj(doc).to_line() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
    }

    let correct = outcome.correct();
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(outcome.attempted.max(1))),
        (
            "failed".to_string(),
            Json::Int(outcome.failed + failed_checks),
        ),
        ("metrics".to_string(), metrics_json(&rows)),
    ]);
    println!("{}", result.to_line());
    Ok(correct)
}

/// `--aa`: the same workload and seed twice, each in a process of its
/// own (peak memory is per process), compared metric by metric.
fn run_aa(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child_args: Vec<&String> = args.iter().filter(|a| *a != "--aa").collect();
    let mut runs: Vec<String> = Vec::new();
    for i in 0..2 {
        let output = Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| format!("run {i}: {e}"))?;
        if !output.status.success() {
            return Err(format!("run {i} exited with {}", output.status));
        }
        runs.push(String::from_utf8_lossy(&output.stdout).into_owned());
    }
    /// The second word of the line whose first word is `name`.
    fn value_of<'a>(stdout: &'a str, name: &str) -> Option<&'a str> {
        stdout.lines().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next()? == name).then(|| words.next())?
        })
    }
    let mut agree = true;
    for m in END_TO_END {
        let (Some(a), Some(b)) = (value_of(&runs[0], m.name), value_of(&runs[1], m.name)) else {
            return Err(format!(
                "{} missing from a run (pass --trace 0 with --aa)",
                m.name
            ));
        };
        let (x, y): (f64, f64) = (a.parse().unwrap_or(f64::NAN), b.parse().unwrap_or(f64::NAN));
        let spread = (x - y).abs() / x.abs().min(y.abs());
        let ok = spread <= m.bound;
        agree &= ok;
        println!(
            "aa {} {a} {b} {} spread {spread:.4} bound {} {}",
            m.name,
            m.unit,
            m.bound,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    // The loss curve is arithmetic, not timing: it must repeat exactly.
    let curve = |stdout: &str| -> Option<String> {
        let line = stdout.lines().find(|l| l.contains(train::LOSS_CHECK))?;
        Some(line.to_string())
    };
    if let (Some(a), Some(b)) = (curve(&runs[0]), curve(&runs[1])) {
        let ok = a == b;
        agree &= ok;
        println!(
            "aa loss curve {}",
            if ok { "bit-identical" } else { "DIFFERS" }
        );
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return match selftest::run() {
            Ok(n) => {
                println!("self-test: {n} checks passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.iter().any(|a| a == "--aa") {
        return match run_aa(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("--aa: {e}");
                ExitCode::FAILURE
            }
        };
    }

    pin_environment();
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("{}: {e}", run.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = dispatch(&run);
    let _ = std::fs::remove_dir_all(&run.work);
    match outcome.and_then(|o| report(&run, o)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("a correctness check failed; see the `# check` lines");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
