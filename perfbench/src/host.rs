//! Host-speed reference: a fixed piece of single-threaded work, timed again
//! and again through a run, that op and set-up times are scaled by.
//!
//! On a shared host the same op runs at different speeds from one minute to
//! the next, because other tenants use the same cores, caches and memory.
//! Runs of the same code then read up to ~1.5× apart, whatever statistic
//! is taken inside a run. The reference work runs around each set-up and
//! between ops (outside their timers) at least every [`EVERY`], and each
//! time is scaled by [`NOMINAL_MS`] over the median of the four reference
//! samples nearest to it. A change to the program's code leaves the
//! reference alone, so the scaled time still moves with it; a slow stretch
//! of the host slows both and cancels. The raw figures are in the report
//! line.

use crate::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Least time between two reference samples in a closed loop.
const EVERY: Duration = Duration::from_millis(100);
/// Scaled times are times on a host that runs the reference work in this
/// many ms: about the median of the samples on the shared 2-vCPU Xeon host
/// the benchmark was tuned on, where run medians ranged 1.5–3.0 ms.
pub const NOMINAL_MS: f64 = 2.5;
/// Samples a scale factor is the median of.
const NEAREST: usize = 4;

/// The reference work: sort seeded integers, index a share of them in a
/// hash map, format and re-split a run of them, i.e. the allocation,
/// hashing, branching and string handling the program's layers do.
fn work(seed: u64) -> u64 {
    let mut rng = Rng(seed);
    let mut v: Vec<u64> = (0..60_000).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let index: std::collections::HashMap<u64, usize> = v
        .iter()
        .step_by(8)
        .enumerate()
        .map(|(i, x)| (*x, i))
        .collect();
    let mut text = String::new();
    for x in v.iter().take(6_000) {
        use std::fmt::Write;
        let _ = write!(text, "{x} ");
    }
    let long = text.split(' ').filter(|w| w.len() > 18).count();
    (index.len() + long) as u64
}

impl Default for HostRef {
    fn default() -> Self {
        Self::new()
    }
}

/// Reference samples of one run, in time order.
pub struct HostRef {
    origin: Instant,
    /// (since `origin`, reference work ms).
    samples: Vec<(Duration, f64)>,
}

impl HostRef {
    /// Starts the run's clock and runs the reference work once untimed, so
    /// the first sample does not pay for the process's first allocations.
    pub fn new() -> Self {
        black_box(work(0));
        HostRef {
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Times the reference work once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(work(self.samples.len() as u64));
        self.samples
            .push((t - self.origin, t.elapsed().as_secs_f64() * 1e3));
    }

    /// Samples unless one was taken within the last [`EVERY`].
    pub fn tick(&mut self) {
        let due = self
            .samples
            .last()
            .is_none_or(|(at, _)| self.origin.elapsed() >= *at + EVERY);
        if due {
            self.sample();
        }
    }

    pub fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.origin)
    }

    /// `NOMINAL_MS` over the median of the [`NEAREST`] samples nearest to
    /// `at` (half before it, half after, where the run has them).
    pub fn scale(&self, at: Duration) -> f64 {
        assert!(!self.samples.is_empty(), "no host reference sample");
        let n = self.samples.len();
        let split = self.samples.partition_point(|(t, _)| *t <= at);
        let lo = split
            .saturating_sub(NEAREST / 2)
            .min(n.saturating_sub(NEAREST));
        let near: Vec<f64> = self.samples[lo..(lo + NEAREST).min(n)]
            .iter()
            .map(|(_, ms)| *ms)
            .collect();
        NOMINAL_MS / crate::median(&near)
    }

    pub fn ms(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, ms)| *ms).collect()
    }
}
