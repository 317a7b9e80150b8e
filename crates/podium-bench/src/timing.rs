//! The one timing rule of every `BENCH_*.json` writer: call each engine
//! [`CALLS`] times, interleaved, with the first engine rotating from one
//! round to the next so a change in the host's load hits every engine
//! alike, and keep each engine's median call.

use std::time::{Duration, Instant};

/// Calls per engine; the median of an odd count is one call.
pub const CALLS: usize = 31;

/// Runs every engine [`CALLS`] times, round `i` starting at engine
/// `i mod N`, and returns each engine's median call time.
pub fn interleaved_medians<const N: usize>(engines: [&mut dyn FnMut(); N]) -> [Duration; N] {
    let mut runs = engines.map(|engine| (engine, Vec::with_capacity(CALLS)));
    for call in 0..CALLS {
        let (before, from) = runs.split_at_mut(call % N.max(1));
        for (engine, samples) in from.iter_mut().chain(before) {
            let t0 = Instant::now();
            engine();
            samples.push(t0.elapsed());
        }
    }
    runs.map(|(_, mut samples)| {
        samples.sort();
        samples.get(CALLS / 2).copied().unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_alternate_and_each_runs_calls_times() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a = || order.borrow_mut().push('a');
        let mut b = || order.borrow_mut().push('b');
        let medians = interleaved_medians([&mut a, &mut b]);
        let order = order.into_inner();
        assert_eq!(order.len(), 2 * CALLS);
        assert_eq!(order[..6], ['a', 'b', 'b', 'a', 'a', 'b']);
        assert_eq!(medians.len(), 2);
        assert_eq!(interleaved_medians::<0>([]), []);
    }
}
