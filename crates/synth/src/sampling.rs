//! Small sampling utilities over `rand`.
//!
//! The generator needs Zipf-like heavy tails and weighted choice; rather
//! than pull in `rand_distr`, the two distributions MASS needs are
//! implemented here and unit-tested.

use rand::Rng;

/// Draws an index in `0..n` with probability proportional to
/// `1 / (index + 1)^exponent` — a Zipf law over ranks.
///
/// # Panics
/// Panics if `n == 0`.
pub fn zipf_index<R: Rng + ?Sized>(rng: &mut R, n: usize, exponent: f64) -> usize {
    assert!(n > 0, "zipf over empty support");
    // n is small (thousands); linear CDF walk is fine and exact.
    let total: f64 = (1..=n).map(|r| (r as f64).powf(-exponent)).sum();
    let mut target = rng.random::<f64>() * total;
    for r in 1..=n {
        target -= (r as f64).powf(-exponent);
        if target <= 0.0 {
            return r - 1;
        }
    }
    n - 1
}

/// Zipf-like weights for ranks `0..n`, normalised to sum to 1.
pub fn zipf_weights(n: usize, exponent: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Weighted index sampler with precomputed cumulative sums (O(log n) draws).
#[derive(Clone, Debug)]
pub struct WeightedSampler {
    cumulative: Vec<f64>,
}

impl WeightedSampler {
    /// Builds a sampler over non-negative weights.
    ///
    /// # Panics
    /// Panics if weights are empty, contain negatives/NaN, or all zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "no weights");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(
                w >= 0.0 && w.is_finite(),
                "weight must be finite and non-negative: {w}"
            );
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "all weights are zero");
        WeightedSampler { cumulative }
    }

    /// Draws an index with probability proportional to its weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_prefix(self.cumulative.len(), rng)
    }

    /// Draws an index in `0..k` with probability proportional to its
    /// weight — the same draw, bit for bit, as a sampler built over the
    /// first `k` weights alone: the cumulative sums are built left to
    /// right, so their first `k` entries are that sampler's sums.
    ///
    /// # Panics
    /// Panics if `k` is 0 or beyond [`len`](Self::len), or the first `k`
    /// weights are all zero.
    pub fn sample_prefix<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> usize {
        assert!(
            (1..=self.cumulative.len()).contains(&k),
            "prefix {k} outside 1..={}",
            self.cumulative.len()
        );
        let prefix = &self.cumulative[..k];
        let total = prefix[k - 1];
        assert!(total > 0.0, "all weights are zero");
        let target = rng.random::<f64>() * total;
        match prefix.binary_search_by(|c| c.partial_cmp(&target).expect("finite")) {
            Ok(i) => (i + 1).min(k - 1),
            Err(i) => i.min(k - 1),
        }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

/// Draws from a geometric-ish count distribution with the given mean:
/// `floor(-mean * ln(U))` clamped to `max` — a cheap heavy-ish tail for
/// per-post comment counts.
pub fn skewed_count<R: Rng + ?Sized>(rng: &mut R, mean: f64, max: usize) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let u: f64 = rng.random::<f64>().max(1e-12);
    ((-mean * u.ln()) as usize).min(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[zipf_index(&mut rng, 10, 1.0)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[5]);
        assert!(
            counts.iter().all(|&c| c > 0),
            "all ranks should appear: {counts:?}"
        );
    }

    #[test]
    fn zipf_weights_normalised_and_decreasing() {
        let w = zipf_weights(100, 1.2);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let w = zipf_weights(4, 0.0);
        for x in w {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn zipf_empty_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = zipf_index(&mut rng, 0, 1.0);
    }

    #[test]
    fn weighted_sampler_respects_weights() {
        let s = WeightedSampler::new(&[0.0, 3.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[s.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0, "zero-weight outcome drawn");
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "all weights are zero")]
    fn all_zero_weights_panic() {
        let _ = WeightedSampler::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        let _ = WeightedSampler::new(&[1.0, -0.5]);
    }

    #[test]
    fn skewed_count_mean_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let total: usize = (0..n).map(|_| skewed_count(&mut rng, 4.0, 1000)).sum();
        let mean = total as f64 / n as f64;
        // E[floor(-m ln U)] ≈ m - 0.5 for exponential with mean m.
        assert!((mean - 3.5).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn skewed_count_edge_cases() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(skewed_count(&mut rng, 0.0, 10), 0);
        for _ in 0..1000 {
            assert!(skewed_count(&mut rng, 100.0, 5) <= 5);
        }
    }
}
