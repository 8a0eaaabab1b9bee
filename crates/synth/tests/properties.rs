//! Property-based tests: the generator must produce consistent corpora for
//! any configuration in the supported envelope.

use mass_synth::sampling::WeightedSampler;
use mass_synth::{generate, SynthConfig};
use mass_types::BloggerId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        1usize..60,   // bloggers
        0.0f64..6.0,  // mean posts per blogger
        0.5f64..1.5,  // authority exponent
        0.0f64..1.0,  // copy rate
        0.0f64..1.0,  // tag prob
        0.3f64..0.9,  // domain word fraction
        0.0f64..1.0,  // sentiment correlation
        any::<u64>(), // seed
    )
        .prop_map(
            |(bloggers, ppb, exp, copy, tag, dwf, corr, seed)| SynthConfig {
                bloggers,
                mean_posts_per_blogger: ppb,
                authority_exponent: exp,
                copy_rate: copy,
                tag_sentiment_prob: tag,
                domain_word_fraction: dwf,
                sentiment_authority_corr: corr,
                seed,
                ..Default::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_config_generates_a_valid_corpus(cfg in arb_config()) {
        let out = generate(&cfg);
        prop_assert!(out.dataset.validate().is_ok());
        prop_assert_eq!(out.dataset.bloggers.len(), cfg.bloggers);
        prop_assert_eq!(out.truth.len(), cfg.bloggers);
    }

    #[test]
    fn truth_is_well_formed(cfg in arb_config()) {
        let out = generate(&cfg);
        let max = out.truth.authority.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!((max - 1.0).abs() < 1e-9, "authority max {max}");
        for (i, rel) in out.truth.domain_relevance.iter().enumerate() {
            let sum: f64 = rel.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "relevance row {i} sums to {sum}");
            prop_assert!(rel.iter().all(|&r| r >= 0.0));
            prop_assert!(out.truth.primary_domain[i].index() < 10);
        }
    }

    #[test]
    fn generation_is_deterministic(cfg in arb_config()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(a.dataset, b.dataset);
        prop_assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn no_self_comments_or_dangling_refs(cfg in arb_config()) {
        let out = generate(&cfg);
        for post in &out.dataset.posts {
            for c in &post.comments {
                prop_assert!(c.commenter != post.author);
                prop_assert!(c.commenter.index() < cfg.bloggers);
            }
        }
    }

    #[test]
    fn truth_top_k_is_a_valid_ranking(cfg in arb_config(), k in 1usize..10) {
        let out = generate(&cfg);
        let top = out.truth.top_k_general(k);
        prop_assert_eq!(top.len(), k.min(cfg.bloggers));
        for w in top.windows(2) {
            prop_assert!(
                out.truth.true_general_score(w[0]) >= out.truth.true_general_score(w[1])
            );
        }
        // The #1 has the max authority.
        if let Some(&first) = top.first() {
            let max = (0..cfg.bloggers)
                .map(|i| out.truth.authority[i])
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((out.truth.true_general_score(first) - max).abs() < 1e-12);
        }
        let _ = BloggerId::new(0);
    }
}

/// Weights with exact zeros mixed in (about one in three), ending in a
/// positive weight so the whole-vector sampler exists.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    (
        proptest::collection::vec((0u8..3, 0.0f64..10.0), 0..40),
        0.01f64..10.0,
    )
        .prop_map(|(raw, last)| {
            let mut w: Vec<f64> = raw
                .into_iter()
                .map(|(zero, x)| if zero == 0 { 0.0 } else { x })
                .collect();
            w.push(last);
            w
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The generator's post links draw from prefixes of one sampler; each
    /// draw must equal the draw of a sampler built over the prefix alone.
    #[test]
    fn prefix_draws_equal_a_prefix_sampler(w in arb_weights(), seed in any::<u64>()) {
        let whole = WeightedSampler::new(&w);
        let mut acc = 0.0;
        for k in 1..=w.len() {
            acc += w[k - 1];
            if acc == 0.0 {
                continue; // an all-zero prefix has no sampler to compare with
            }
            let prefix = WeightedSampler::new(&w[..k]);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..8 {
                prop_assert_eq!(whole.sample_prefix(k, &mut a), prefix.sample(&mut b));
            }
        }
    }
}
