//! Exact order statistics over stored samples.

use crate::host::Probes;

/// The nearest-rank `q`-th percentile (`q` in `[0, 100]`) of ascending
/// `sorted` samples; `None` when there are none.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Latency samples of one window, each tagged with its sub-window, stored
/// as whole nanoseconds in `u32` (saturating at 4.29 s) in fixed-size
/// chunks: memory grows in small steps and is never copied, so the
/// benchmark's own storage barely moves the peak resident set it reports,
/// whatever the throughput.
#[derive(Debug, Default)]
pub struct Samples {
    chunks: Vec<Vec<u32>>,
    /// Consecutive samples of one sub-window: `(sub-window, count)`.
    runs: Vec<(usize, usize)>,
}

/// Samples per chunk (256 KiB).
const CHUNK: usize = 1 << 16;

impl Samples {
    /// Stores one sample of sub-window `window`, given in µs.
    pub fn push(&mut self, window: usize, us: f64) {
        let ns = (us * 1e3).round().min(f64::from(u32::MAX)) as u32;
        match self.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(ns),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(ns);
                self.chunks.push(c);
            }
        }
        match self.runs.last_mut() {
            Some((w, n)) if *w == window => *n += 1,
            _ => self.runs.push((window, 1)),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.1).sum()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Samples per sub-window, indexed by sub-window.
    pub fn per_window(&self) -> Vec<u64> {
        let mut counts = Vec::new();
        for &(w, n) in &self.runs {
            if counts.len() <= w {
                counts.resize(w + 1, 0);
            }
            counts[w] += n as u64;
        }
        counts
    }

    /// Every sample in µs, sorted.
    pub fn raw(&self) -> Vec<f64> {
        sorted(
            self.chunks
                .iter()
                .flatten()
                .map(|&ns| f64::from(ns) / 1e3)
                .collect(),
        )
    }

    /// Every sample in µs scaled by its sub-window's host factor, sorted.
    pub fn scaled(&self, probes: &Probes) -> Vec<f64> {
        let factors = self
            .runs
            .iter()
            .flat_map(|&(w, n)| std::iter::repeat_n(probes.factor(w), n));
        sorted(
            self.chunks
                .iter()
                .flatten()
                .zip(factors)
                .map(|(&ns, f)| f64::from(ns) / 1e3 * f)
                .collect(),
        )
    }
}

/// Sorts samples ascending (total order; the benchmark never stores NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of unsorted values, averaging the middle pair of an even
/// count as Python's `statistics.median` does; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method)
/// and `statistics.median` do. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), median(values)?, cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(500.0));
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
