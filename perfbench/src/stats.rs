//! Sample statistics shared by every workload.

use std::sync::atomic::{AtomicBool, Ordering};

static SMOKE: AtomicBool = AtomicBool::new(false);

/// Smoke mode shrinks the cluster runs and lets a percentile without
/// enough samples read 0 (with a note) instead of stopping the run.
pub fn set_smoke(on: bool) {
    SMOKE.store(on, Ordering::Relaxed);
}

pub fn smoke() -> bool {
    SMOKE.load(Ordering::Relaxed)
}

/// Fewest samples a percentile must have strictly beyond it before the
/// benchmark reports it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// splitmix64: the benchmark's only source of randomness, so the same
/// `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x0005_EED0_FBE4_CA11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Exponential draw with the given mean (Poisson inter-arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -self.unit().ln() * mean
    }
}

/// Nearest-rank percentile of `samples`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Like [`percentile`], but a workload that is sized too small to
/// support the percentile is a bug in the benchmark: stop loudly.
pub fn require_percentile(what: &str, samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or_else(|| {
        if smoke() {
            println!(
                "  refused: p{} of {what} from {} samples",
                q * 100.0,
                samples.len()
            );
            return 0.0;
        }
        panic!(
            "{what}: {} samples cannot support p{} (needs {MIN_TAIL_SAMPLES} beyond it)",
            samples.len(),
            q * 100.0
        )
    })
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// How much slower, in percent, the traced half of a traced run went
/// than its untraced half (0 when nothing was traced).
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    if traced.is_empty() {
        0.0
    } else {
        (median(untraced) / median(traced) - 1.0) * 100.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.95), None, "only 5 samples beyond p95");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
