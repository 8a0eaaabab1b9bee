//! Top-k extraction over score vectors.

use mass_types::BloggerId;
use std::cmp::Ordering;

/// The ranking order: score descending, then id ascending. A strict total
/// order on distinct ids (`0.0` and `-0.0` tie and fall back to the id), so
/// any algorithm that sorts by it returns the same list.
fn rank_order(a: &(BloggerId, f64), b: &(BloggerId, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("scores are finite")
        .then_with(|| a.0.cmp(&b.0))
}

/// The `k` best of `ranked` under [`rank_order`], best first: a selection
/// puts the k-th best at index `k − 1` with every better entry before it,
/// then only that prefix is sorted. O(n + k log k) instead of a full
/// O(n log n) sort; the order is total, so the output is exactly what a
/// full sort truncated to `k` returns.
fn best_k(mut ranked: Vec<(BloggerId, f64)>, k: usize) -> Vec<(BloggerId, f64)> {
    if k == 0 {
        return Vec::new();
    }
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k - 1, rank_order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(rank_order);
    ranked
}

/// The `k` highest-scoring bloggers, best first. Ties break toward the lower
/// id so results are deterministic. `k` larger than the population returns
/// everyone.
pub fn top_k(scores: &[f64], k: usize) -> Vec<(BloggerId, f64)> {
    best_k(
        scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (BloggerId::new(i), s))
            .collect(),
        k,
    )
}

/// Top-k over one column of a blogger × domain matrix.
pub fn top_k_in_domain(matrix: &[Vec<f64>], domain: usize, k: usize) -> Vec<(BloggerId, f64)> {
    best_k(
        matrix
            .iter()
            .enumerate()
            .map(|(i, row)| (BloggerId::new(i), row[domain]))
            .collect(),
        k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-sort reference the selection must reproduce exactly.
    fn top_k_full_sort(scores: &[f64], k: usize) -> Vec<(BloggerId, f64)> {
        let mut ranked: Vec<(BloggerId, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (BloggerId::new(i), s))
            .collect();
        ranked.sort_by(rank_order);
        ranked.truncate(k);
        ranked
    }

    /// Scores drawn from `levels` plateau values (always including `0.0`
    /// and `-0.0`), so ties are dense at every rank.
    fn plateau_scores(n: usize, levels: usize, seed: u64) -> Vec<f64> {
        let values = [0.0, -0.0, 0.25, 1.0, 0.5, -0.75, 1e-300, 0.125];
        let levels = levels.clamp(2, values.len());
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                values[(state % levels as u64) as usize]
            })
            .collect()
    }

    fn bits(list: &[(BloggerId, f64)]) -> Vec<(usize, u64)> {
        list.iter().map(|(b, s)| (b.index(), s.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Selection returns the identical list (ids and score bits) as the
        /// full sort, at every boundary k and population size.
        #[test]
        fn selection_matches_the_full_sort(seed in any::<u64>(), levels in 2usize..9) {
            for n in [0usize, 1, 2, 3000] {
                let scores = plateau_scores(n, levels, seed);
                for k in [0, 1, n.saturating_sub(1), n, n + 3] {
                    prop_assert_eq!(
                        bits(&top_k(&scores, k)),
                        bits(&top_k_full_sort(&scores, k)),
                        "n {} k {}", n, k
                    );
                }
                let matrix: Vec<Vec<f64>> = scores.iter().map(|&s| vec![1.0, s]).collect();
                for k in [1, n, n + 3] {
                    prop_assert_eq!(
                        bits(&top_k_in_domain(&matrix, 1, k)),
                        bits(&top_k_full_sort(&scores, k))
                    );
                }
            }
        }
    }

    #[test]
    fn orders_descending() {
        let got = top_k(&[0.1, 0.9, 0.5], 3);
        let ids: Vec<usize> = got.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(ids, vec![1, 2, 0]);
        assert_eq!(got[0].1, 0.9);
    }

    #[test]
    fn truncates_to_k() {
        assert_eq!(top_k(&[0.1, 0.9, 0.5], 2).len(), 2);
        assert_eq!(top_k(&[0.1], 5).len(), 1);
        assert!(top_k(&[], 3).is_empty());
        assert!(top_k(&[1.0], 0).is_empty());
    }

    #[test]
    fn ties_break_by_id() {
        let got = top_k(&[0.5, 0.5, 0.5], 3);
        let ids: Vec<usize> = got.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn agrees_with_full_sort() {
        let scores: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        let top = top_k(&scores, 10);
        let mut full: Vec<f64> = scores.clone();
        full.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (rank, (_, s)) in top.iter().enumerate() {
            assert_eq!(*s, full[rank]);
        }
    }

    #[test]
    fn tied_blocks_rank_by_id_everywhere_in_the_list() {
        // Several tie plateaus at different score levels, interleaved across
        // ids, so the secondary id ordering is exercised mid-list, not just
        // at the top.
        let scores = [0.5, 0.9, 0.5, 0.1, 0.9, 0.5, 0.1, 0.9];
        let got = top_k(&scores, scores.len());
        let ids: Vec<usize> = got.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(ids, vec![1, 4, 7, 0, 2, 5, 3, 6]);
        // Within every equal-score block, ids must ascend.
        for pair in got.windows(2) {
            if pair[0].1 == pair[1].1 {
                assert!(pair[0].0 < pair[1].0, "ids regress inside a tie block");
            }
        }
    }

    #[test]
    fn all_tied_truncation_keeps_lowest_ids() {
        let got = top_k(&[0.3; 7], 3);
        let ids: Vec<usize> = got.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(ids, vec![0, 1, 2], "truncation must keep the lowest ids");
    }

    #[test]
    fn tie_order_is_permutation_stable() {
        // Deterministic pseudo-random scores drawn from a small value set so
        // ties are plentiful; ranking twice (and via the matrix path) must
        // agree exactly.
        let scores: Vec<f64> = (0..200).map(|i| ((i * 13 + 5) % 7) as f64 / 7.0).collect();
        let a = top_k(&scores, 200);
        let b = top_k(&scores, 200);
        assert_eq!(a, b);
        let matrix: Vec<Vec<f64>> = scores.iter().map(|&s| vec![s]).collect();
        assert_eq!(top_k_in_domain(&matrix, 0, 200), a);
    }

    #[test]
    fn domain_ties_break_by_id_too() {
        let matrix = vec![vec![0.4, 0.7], vec![0.4, 0.2], vec![0.4, 0.7]];
        let got = top_k_in_domain(&matrix, 0, 3);
        let ids: Vec<usize> = got.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let d1 = top_k_in_domain(&matrix, 1, 2);
        assert_eq!(
            d1.iter().map(|(b, _)| b.index()).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn domain_column_selection() {
        let matrix = vec![vec![0.9, 0.1], vec![0.2, 0.8], vec![0.5, 0.5]];
        let travel = top_k_in_domain(&matrix, 0, 1);
        assert_eq!(travel[0].0.index(), 0);
        let sports = top_k_in_domain(&matrix, 1, 2);
        assert_eq!(sports[0].0.index(), 1);
        assert_eq!(sports[1].0.index(), 2);
    }
}
