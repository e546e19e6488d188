//! Order statistics and the seeded arrival schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
/// An empty slice reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (nearest rank; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The percentiles the benchmark reports, lowest first.
const REPORTED_PERCENTILES: [f64; 4] = [50.0, 95.0, 99.0, 99.9];

/// The highest reported percentile that still has at least ten samples
/// beyond it among `n` — the highest one worth reading.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    REPORTED_PERCENTILES
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Due times, in nanoseconds from the start of a phase, of Poisson
/// arrivals at `rate_per_s` over `seconds`: a pure function of the seed.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due = Vec::with_capacity((rate_per_s * seconds) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}
