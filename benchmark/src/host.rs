//! The host speed probe, and the scaling of timings by it.
//!
//! The benchmark runs on machines shared with other tenants. On the
//! 2-vCPU host it was tuned on, a fixed piece of work took from 4.5 to
//! 8 ms depending on what the neighbours were doing, and the program's
//! timings moved with it, by 30–50% between runs minutes apart. So each
//! run times the probe at every sub-window boundary, while the program is
//! idle, and scales the timings of each sub-window by
//! [`REFERENCE_MS`] / (mean of the probes around it). The probe is the
//! benchmark's own code and runs only while no request is in flight, so
//! nothing the program does changes it: a change to the program moves the
//! scaled timings exactly as it moves the raw ones, and a change in host
//! speed moves neither. Raw timings are reported beside the scaled ones.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// The probe's duration on a quiet host; scaled timings read as if the
/// probe had taken this long.
pub const REFERENCE_MS: f64 = 5.0;

/// Entries of the random-read table (16 MB, larger than a core's private
/// caches, so the reads meet the cache and memory traffic of other
/// tenants).
const TABLE: usize = 1 << 21;

/// A fixed mix of the kinds of work the program does: dependent random
/// reads, integer arithmetic, and string, hash-map and sorting work on the
/// allocator.
#[derive(Debug)]
pub struct Probe {
    table: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        let mut rng = Rng::new(0, 0x9e37);
        Self {
            table: (0..TABLE).map(|_| rng.next_u64()).collect(),
        }
    }
}

impl Probe {
    /// Runs the probe once and returns its wall time in ms.
    pub fn run(&self) -> f64 {
        let started = Instant::now();
        let mask = TABLE - 1;
        let mut x = 7u64;
        for _ in 0..20_000 {
            let i = (x >> 33) as usize & mask;
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(self.table[i]);
        }
        for _ in 0..1_000_000 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let mut rng = Rng::new(x, 0x9e38);
        let mut map: HashMap<String, u64, BuildHasherDefault<std::hash::DefaultHasher>> =
            HashMap::default();
        let keys: Vec<String> = (0..5_000u64)
            .map(|i| format!("user{} prop{i}", rng.below(100_000)))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            map.insert(k.clone(), i as u64);
        }
        let sum: u64 = keys.iter().map(|k| map[k]).sum();
        let mut values: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
        values.sort_unstable();
        black_box((sum, values));
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// Process CPU time in seconds (user + system, every thread, exited ones
/// included), from `/proc/self/stat`, in clock ticks of 10 ms.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// One sub-window boundary: the probe's time and the process CPU clock
/// just before and just after it.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    probe_ms: f64,
    cpu_before: f64,
    cpu_after: f64,
}

/// The probes of one run. Boundary `k` opens sub-window `k`; each
/// sub-window is scaled by the mean of the probes at its two ends.
#[derive(Debug, Default)]
pub struct Probes {
    probe: Probe,
    bounds: Vec<Boundary>,
}

impl Probes {
    /// Marks a boundary: runs the probe and reads the CPU clock around it.
    /// Returns the index of the sub-window it opens.
    pub fn boundary(&mut self) -> usize {
        let cpu_before = cpu_seconds();
        let probe_ms = self.probe.run();
        let cpu_after = cpu_seconds();
        self.bounds.push(Boundary {
            probe_ms,
            cpu_before,
            cpu_after,
        });
        self.bounds.len() - 1
    }

    /// Closed sub-windows (boundaries minus one).
    pub fn windows(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Forgets every boundary; the probe's table is kept.
    pub fn clear(&mut self) {
        self.bounds.clear();
    }

    /// The factor that scales sub-window `k`'s timings to the reference
    /// host speed.
    pub fn factor(&self, k: usize) -> f64 {
        match (self.bounds.get(k), self.bounds.get(k + 1)) {
            (Some(a), Some(b)) => 2.0 * REFERENCE_MS / (a.probe_ms + b.probe_ms),
            _ => 1.0,
        }
    }

    /// CPU seconds the process spent in sub-window `k`, probes excluded.
    pub fn cpu(&self, k: usize) -> f64 {
        match (self.bounds.get(k), self.bounds.get(k + 1)) {
            (Some(a), Some(b)) => b.cpu_before - a.cpu_after,
            _ => 0.0,
        }
    }

    /// Every probe time, in ms.
    pub fn probe_ms(&self) -> Vec<f64> {
        self.bounds.iter().map(|b| b.probe_ms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sub_window_is_scaled_by_the_mean_of_its_two_probes() {
        let mut p = Probes::default();
        for ms in [4.0, 6.0, 10.0] {
            p.bounds.push(Boundary {
                probe_ms: ms,
                cpu_before: 0.0,
                cpu_after: 0.0,
            });
        }
        assert_eq!(p.windows(), 2);
        assert_eq!(p.factor(0), 1.0);
        assert_eq!(p.factor(1), 0.625);
        assert_eq!(p.factor(2), 1.0, "an unclosed sub-window is not scaled");

        let mut samples = crate::stats::Samples::default();
        samples.push(0, 10.0);
        samples.push(1, 20.0);
        samples.push(1, 10.0);
        assert_eq!(samples.per_window(), vec![1, 2]);
        assert_eq!(samples.raw(), vec![10.0, 10.0, 20.0]);
        assert_eq!(samples.scaled(&p), vec![6.25, 10.0, 12.5]);
    }

    #[test]
    fn the_probe_takes_time_and_cpu_time_advances() {
        let probe = Probe::default();
        let cpu0 = cpu_seconds();
        // Well over the 10 ms resolution of the CPU clock.
        let ms: f64 = (0..20).map(|_| probe.run()).sum();
        assert!(ms > 0.0);
        assert!(cpu_seconds() > cpu0);
    }
}
