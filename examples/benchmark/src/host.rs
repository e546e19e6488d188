//! What the benchmark reads from the host: core count, peak memory, the
//! checkout's commit, and a noise probe that calls no repository code.

use std::hint::black_box;
use std::time::Instant;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit `HEAD` names, read from `.git` without starting a process;
/// `"unknown"` outside a git checkout (the driver's checkouts are not).
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".into()
    } else {
        sha.chars().take(12).collect()
    }
}

/// Iterations of one spin: about 60 ms on the reference host.
const SPIN_ITERS: u64 = 6_000_000;

/// Steps 64 independent xorshift generators a fixed number of times,
/// three times over, and returns the shortest wall time in milliseconds.
/// The work never changes and calls no repository code, so a different
/// reading before and after a timed section means the host changed, not
/// the code under test. Independent chains (eight vector registers' worth) keep the core's
/// issue ports busy, as a GEMM does: a single dependent chain would not
/// notice another thread on the same core. The shortest of three ignores a core
/// that was asleep when the probe began.
fn spin_probe_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x: [u64; 64] = std::array::from_fn(|i| 0x9E37_79B9_7F4A_7C15 ^ (i as u64 + 1));
            for _ in 0..SPIN_ITERS {
                for v in &mut x {
                    *v ^= *v << 13;
                    *v ^= *v >> 7;
                    *v ^= *v << 17;
                }
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Readings of the noise probe around one timed section.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    pub spin_ms_before: f64,
    pub spin_ms_after: f64,
}

impl HostProbe {
    /// Runs `timed` between two readings of the probe.
    pub fn around(timed: impl FnOnce()) -> Self {
        let spin_ms_before = spin_probe_ms();
        timed();
        Self {
            spin_ms_before,
            spin_ms_after: spin_probe_ms(),
        }
    }

    /// Whether the two readings differ by more than a tenth.
    pub fn disturbed(&self) -> bool {
        let lo = self.spin_ms_before.min(self.spin_ms_after);
        let hi = self.spin_ms_before.max(self.spin_ms_after);
        lo <= 0.0 || hi / lo > 1.10
    }
}
