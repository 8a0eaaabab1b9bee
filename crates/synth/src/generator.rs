//! The synthetic blogosphere generator.

use crate::config::SynthConfig;
use crate::sampling::{skewed_count, zipf_weights, WeightedSampler};
use crate::truth::GroundTruth;
use crate::vocab::{
    COPY_OPENERS, DOMAIN_VOCAB, GENERAL_WORDS, NEGATIVE_COMMENT_TEMPLATES,
    NEUTRAL_COMMENT_TEMPLATES, POSITIVE_COMMENT_TEMPLATES,
};
use mass_types::{
    Blogger, BloggerId, Comment, Dataset, DomainId, DomainSet, Post, PostId, Sentiment,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A generated corpus plus the latent quantities it was derived from.
#[derive(Clone, Debug)]
pub struct SynthOutput {
    /// The observable blogosphere (what a crawler would see).
    pub dataset: Dataset,
    /// The planted truth (what the evaluation scores against).
    pub truth: GroundTruth,
}

/// Generates a blogosphere according to `cfg`. Deterministic in `cfg.seed`.
pub fn generate(cfg: &SynthConfig) -> SynthOutput {
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let domains = DomainSet::paper();
    let nd = domains.len();
    let nb = cfg.bloggers;

    // ---- Latent state -----------------------------------------------------
    // Authority: Zipf weights over a shuffled rank assignment, rescaled so
    // the strongest blogger has authority 1.0.
    let mut ranks: Vec<usize> = (0..nb).collect();
    ranks.shuffle(&mut rng);
    let weights = zipf_weights(nb, cfg.authority_exponent);
    let w_max = weights[0];
    let authority: Vec<f64> = (0..nb).map(|i| weights[ranks[i]] / w_max).collect();

    // Domain affinity: one primary domain (60–90% of activity), one or two
    // secondary domains, epsilon elsewhere.
    let mut primary_domain = Vec::with_capacity(nb);
    let mut domain_relevance: Vec<Vec<f64>> = Vec::with_capacity(nb);
    for _ in 0..nb {
        let primary = rng.random_range(0..nd);
        primary_domain.push(DomainId::new(primary));
        let primary_share = 0.6 + 0.3 * rng.random::<f64>();
        let mut rel = vec![0.01; nd];
        rel[primary] = primary_share;
        let secondaries = 1 + rng.random_range(0..2usize);
        for _ in 0..secondaries {
            let s = rng.random_range(0..nd);
            if s != primary {
                rel[s] += (1.0 - primary_share) / secondaries as f64;
            }
        }
        let total: f64 = rel.iter().sum();
        rel.iter_mut().for_each(|r| *r /= total);
        domain_relevance.push(rel);
    }

    // ---- Bloggers ---------------------------------------------------------
    let mut bloggers = Vec::with_capacity(nb);
    for i in 0..nb {
        let pd = primary_domain[i].index();
        let vocab = DOMAIN_VOCAB[pd];
        let profile = format!(
            "I blog about {} and {} especially {}",
            vocab[0],
            vocab[1 + (i % (vocab.len() - 2))],
            vocab[2 + (i % (vocab.len() - 3))],
        );
        bloggers.push(Blogger::with_profile(format!("blogger_{i:04}"), profile));
    }

    // Friend links: targets drawn by authority (popular spaces collect links).
    let authority_sampler = WeightedSampler::new(&authority);
    for (i, blogger) in bloggers.iter_mut().enumerate() {
        let n_links = skewed_count(&mut rng, cfg.mean_friends, nb.saturating_sub(1));
        let mut targets = Vec::new();
        for _ in 0..n_links {
            let t = authority_sampler.sample(&mut rng);
            if t != i && !targets.contains(&BloggerId::new(t)) {
                targets.push(BloggerId::new(t));
            }
        }
        blogger.friends = targets;
    }

    // ---- Posts ------------------------------------------------------------
    // Post volume tracks authority (influencers blog more) with mild
    // multiplicative jitter. Low variance here is deliberate: the planted
    // construct "domain influence = authority × relevance" must be
    // recoverable from observable volume, as it is in a real crawl where
    // prolific domain posters are the domain influencers.
    let mut posts: Vec<Post> = Vec::new();
    // √authority: Zipf packs most bloggers into a narrow low-authority band;
    // the square root keeps the observable gradient steep there, so mid-tier
    // influence differences survive into post volume.
    let volume_weights: Vec<f64> = authority.iter().map(|&a| 0.3 + 3.0 * a.sqrt()).collect();
    let wsum: f64 = volume_weights.iter().sum();
    let total_posts = nb as f64 * cfg.mean_posts_per_blogger;
    for i in 0..nb {
        let jitter = 0.7 + 0.6 * rng.random::<f64>();
        let n_posts = (total_posts * volume_weights[i] / wsum * jitter).round() as usize;
        for _ in 0..n_posts {
            let post = generate_post(cfg, &mut rng, i, &authority, &domain_relevance[i], &posts);
            posts.push(post);
        }
    }

    // Post-to-post links: each post cites earlier posts, preferring posts by
    // high-authority bloggers.
    if posts.len() > 1 && cfg.mean_post_links > 0.0 {
        let post_weights: Vec<f64> = posts
            .iter()
            .map(|p| 0.05 + authority[p.author.index()])
            .collect();
        // One sampler over every post; post k draws from its prefix of
        // earlier posts.
        let by_weight = WeightedSampler::new(&post_weights);
        for k in (1..posts.len()).rev() {
            let n_links = skewed_count(&mut rng, cfg.mean_post_links, 8);
            if n_links == 0 {
                continue;
            }
            let mut targets = Vec::new();
            for _ in 0..n_links {
                let t = PostId::new(by_weight.sample_prefix(k, &mut rng));
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            posts[k].links_to = targets;
        }
    }

    // ---- Comments ---------------------------------------------------------
    // Commenter activity: everyone comments a little, influencers a bit more.
    let commenter_weights: Vec<f64> = authority.iter().map(|a| 0.3 + a).collect();
    let commenter_sampler = WeightedSampler::new(&commenter_weights);
    for post in posts.iter_mut() {
        let author = post.author;
        if nb < 2 {
            break;
        }
        let q = authority[author.index()].sqrt();
        let rate = cfg.mean_comments_top * (0.02 + 0.98 * q);
        let n_comments = skewed_count(&mut rng, rate, 400);
        let domain_word = {
            let d = post.true_domain.expect("generator tags domains").index();
            DOMAIN_VOCAB[d][rng.random_range(0..DOMAIN_VOCAB[d].len())]
        };
        for _ in 0..n_comments {
            let mut commenter = commenter_sampler.sample(&mut rng);
            if commenter == author.index() {
                commenter = (commenter + 1) % nb;
            }
            let sentiment = draw_sentiment(cfg, &mut rng, q);
            let template = match sentiment {
                Sentiment::Positive => {
                    POSITIVE_COMMENT_TEMPLATES
                        [rng.random_range(0..POSITIVE_COMMENT_TEMPLATES.len())]
                }
                Sentiment::Negative => {
                    NEGATIVE_COMMENT_TEMPLATES
                        [rng.random_range(0..NEGATIVE_COMMENT_TEMPLATES.len())]
                }
                Sentiment::Neutral => {
                    NEUTRAL_COMMENT_TEMPLATES[rng.random_range(0..NEUTRAL_COMMENT_TEMPLATES.len())]
                }
            };
            let text = template.replace("{}", domain_word);
            let tag = rng.random_bool(cfg.tag_sentiment_prob);
            post.comments.push(Comment {
                commenter: BloggerId::new(commenter),
                text,
                sentiment: tag.then_some(sentiment),
                ts: 0,
            });
        }
    }

    // ---- Timestamps (temporal facet, DESIGN.md §15) -----------------------
    // A separate RNG stream keeps the classic corpus untouched: with
    // `time_span == 0` this whole pass is skipped and the output is
    // byte-identical to pre-temporal builds, and with a span the text,
    // graph and sentiment above still come out of the main stream
    // unperturbed.
    let mut fading = Vec::new();
    let mut rising = Vec::new();
    if cfg.time_span > 0 {
        let mut trng = StdRng::seed_from_u64(cfg.seed ^ 0x5449_4d45_5354_414d); // "TIMESTAM"
        let span = cfg.time_span;
        let early_end = span.div_ceil(5);
        let late_start = span - span.div_ceil(5);
        for post in posts.iter_mut() {
            // Authority rank decides the activity profile: the strongest
            // bloggers are planted as faders (all activity early), the next
            // tier as risers (all activity late), everyone else is uniform.
            let rank = ranks[post.author.index()];
            post.ts = if rank < cfg.planted_fading {
                trng.random_range(0..early_end)
            } else if rank < cfg.planted_fading + cfg.planted_rising {
                trng.random_range(late_start.min(span - 1)..span)
            } else {
                trng.random_range(0..span)
            };
            for c in post.comments.iter_mut() {
                // Comments trail their post by a short reply delay, clamped
                // inside the span so every item is visible at `span − 1`.
                let delay = trng.random_range(0..span.div_ceil(10) + 1);
                c.ts = (post.ts + delay).min(span - 1);
            }
        }
        fading = (0..nb)
            .filter(|&i| ranks[i] < cfg.planted_fading)
            .map(BloggerId::new)
            .collect();
        rising = (0..nb)
            .filter(|&i| {
                ranks[i] >= cfg.planted_fading && ranks[i] < cfg.planted_fading + cfg.planted_rising
            })
            .map(BloggerId::new)
            .collect();
    }

    let dataset = Dataset {
        bloggers,
        posts,
        domains,
    };
    debug_assert!(dataset.validate().is_ok());
    SynthOutput {
        dataset,
        truth: GroundTruth {
            authority,
            primary_domain,
            domain_relevance,
            fading,
            rising,
        },
    }
}

fn generate_post(
    cfg: &SynthConfig,
    rng: &mut StdRng,
    author: usize,
    authority: &[f64],
    relevance: &[f64],
    earlier_posts: &[Post],
) -> Post {
    // Pick the post's domain from the author's affinity distribution.
    let domain = WeightedSampler::new(relevance).sample(rng);
    let vocab = DOMAIN_VOCAB[domain];

    let is_copy = rng.random_bool(cfg.copy_rate) && !earlier_posts.is_empty();
    let length = (cfg.base_post_words as f64
        * (0.35 + 1.3 * authority[author].sqrt() + 0.25 * rng.random::<f64>()))
        as usize;

    let mut text = String::new();
    if is_copy {
        let opener = COPY_OPENERS[rng.random_range(0..COPY_OPENERS.len())];
        let source = &earlier_posts[rng.random_range(0..earlier_posts.len())];
        text.push_str(opener);
        text.push(' ');
        text.push_str(&source.text);
    } else {
        for w in 0..length.max(5) {
            if w > 0 {
                text.push(' ');
            }
            let word = if rng.random_bool(cfg.domain_word_fraction) {
                vocab[rng.random_range(0..vocab.len())]
            } else {
                GENERAL_WORDS[rng.random_range(0..GENERAL_WORDS.len())]
            };
            text.push_str(word);
        }
    }

    let title = format!(
        "{} {}",
        vocab[rng.random_range(0..vocab.len())],
        GENERAL_WORDS[rng.random_range(0..GENERAL_WORDS.len())]
    );
    let mut post = Post::new(BloggerId::new(author), title, text);
    post.true_domain = Some(DomainId::new(domain));
    post
}

/// Draws a comment attitude whose positivity tracks the post author's
/// latent quality — the construct behind the paper's sentiment facet.
fn draw_sentiment(cfg: &SynthConfig, rng: &mut StdRng, author_quality: f64) -> Sentiment {
    let c = cfg.sentiment_authority_corr;
    let p_pos = 0.25 + 0.55 * c * author_quality;
    let p_neg = (0.35 - 0.30 * c * author_quality).max(0.05);
    let u: f64 = rng.random();
    if u < p_pos {
        Sentiment::Positive
    } else if u < p_pos + p_neg {
        Sentiment::Negative
    } else {
        Sentiment::Neutral
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_dataset_is_consistent() {
        let out = generate(&SynthConfig::default());
        out.dataset
            .validate()
            .expect("generator must produce consistent data");
        assert_eq!(out.dataset.bloggers.len(), 200);
        assert_eq!(out.truth.len(), 200);
        assert!(
            out.dataset.posts.len() > 200,
            "posts: {}",
            out.dataset.posts.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&SynthConfig::tiny(9));
        let b = generate(&SynthConfig::tiny(9));
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.truth, b.truth);
        let c = generate(&SynthConfig::tiny(10));
        assert_ne!(a.dataset, c.dataset);
    }

    #[test]
    fn authority_is_normalised_and_heavy_tailed() {
        let out = generate(&SynthConfig::default());
        let max = out.truth.authority.iter().cloned().fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        let above_half = out.truth.authority.iter().filter(|&&a| a > 0.5).count();
        assert!(
            above_half < out.truth.len() / 10,
            "too many strong bloggers: {above_half}"
        );
    }

    #[test]
    fn relevance_rows_are_distributions_peaked_on_primary() {
        let out = generate(&SynthConfig::tiny(3));
        for (i, rel) in out.truth.domain_relevance.iter().enumerate() {
            assert!((rel.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let primary = out.truth.primary_domain[i].index();
            let max_idx = rel
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(max_idx, primary);
        }
    }

    #[test]
    fn posts_are_domain_tagged_and_worded() {
        let out = generate(&SynthConfig::default());
        for post in &out.dataset.posts {
            let d = post.true_domain.expect("every synthetic post is tagged");
            assert!(d.index() < 10);
            assert!(!post.text.is_empty());
            assert!(!post.title.is_empty());
        }
    }

    #[test]
    fn influencers_get_more_comments() {
        let out = generate(&SynthConfig::default());
        let ix = out.dataset.index();
        let top = out.truth.top_k_general(10);
        let top_comments: u32 = top.iter().map(|&b| ix.comments_received(b)).sum();
        let bottom: Vec<_> = {
            let mut ids: Vec<BloggerId> = (0..out.truth.len()).map(BloggerId::new).collect();
            ids.sort_by(|&a, &b| {
                out.truth.authority[a.index()]
                    .partial_cmp(&out.truth.authority[b.index()])
                    .unwrap()
            });
            ids.truncate(10);
            ids
        };
        let bottom_comments: u32 = bottom.iter().map(|&b| ix.comments_received(b)).sum();
        assert!(
            top_comments > bottom_comments.saturating_mul(3),
            "top {top_comments} vs bottom {bottom_comments}"
        );
    }

    #[test]
    fn copies_exist_at_configured_rate() {
        let out = generate(&SynthConfig {
            copy_rate: 0.3,
            ..Default::default()
        });
        let copies = out
            .dataset
            .posts
            .iter()
            .filter(|p| mass_text::novelty::novelty_from_markers(&p.text) <= 0.1)
            .count();
        let frac = copies as f64 / out.dataset.posts.len() as f64;
        assert!((0.15..0.45).contains(&frac), "copy fraction {frac}");
    }

    #[test]
    fn zero_copy_rate_produces_no_marked_copies() {
        let out = generate(&SynthConfig {
            copy_rate: 0.0,
            ..Default::default()
        });
        for p in &out.dataset.posts {
            assert_eq!(mass_text::novelty::novelty_from_markers(&p.text), 1.0);
        }
    }

    #[test]
    fn sentiment_tags_follow_probability() {
        let all = generate(&SynthConfig {
            tag_sentiment_prob: 1.0,
            ..SynthConfig::tiny(5)
        });
        for p in &all.dataset.posts {
            for c in &p.comments {
                assert!(c.sentiment.is_some());
            }
        }
        let none = generate(&SynthConfig {
            tag_sentiment_prob: 0.0,
            ..SynthConfig::tiny(5)
        });
        for p in &none.dataset.posts {
            for c in &p.comments {
                assert!(c.sentiment.is_none());
            }
        }
    }

    #[test]
    fn comment_texts_carry_their_sentiment() {
        // The lexicon analyzer should agree with the generated tag far more
        // often than chance — the texts are built from sentiment templates.
        let out = generate(&SynthConfig {
            tag_sentiment_prob: 1.0,
            ..Default::default()
        });
        let lex = mass_text::sentiment::SentimentLexicon::default();
        let mut agree = 0usize;
        let mut total = 0usize;
        for p in &out.dataset.posts {
            for c in &p.comments {
                total += 1;
                if lex.classify(&c.text) == c.sentiment.unwrap() {
                    agree += 1;
                }
            }
        }
        assert!(
            total > 100,
            "expected a real comment population, got {total}"
        );
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.9, "lexicon agreement only {rate:.2}");
    }

    #[test]
    fn single_blogger_corpus_has_no_comments() {
        let out = generate(&SynthConfig {
            bloggers: 1,
            ..SynthConfig::tiny(1)
        });
        out.dataset.validate().unwrap();
        for p in &out.dataset.posts {
            assert!(p.comments.is_empty());
        }
    }

    #[test]
    fn timeless_corpus_has_zero_timestamps_and_no_planted_roles() {
        let out = generate(&SynthConfig::tiny(4));
        assert!(out.truth.fading.is_empty());
        assert!(out.truth.rising.is_empty());
        for p in &out.dataset.posts {
            assert_eq!(p.ts, 0);
            for c in &p.comments {
                assert_eq!(c.ts, 0);
            }
        }
    }

    #[test]
    fn temporal_planting_stamps_roles_into_their_eras() {
        let cfg = SynthConfig {
            time_span: 1000,
            planted_fading: 3,
            planted_rising: 3,
            ..SynthConfig::tiny(4)
        };
        let out = generate(&cfg);
        assert_eq!(out.truth.fading.len(), 3);
        assert_eq!(out.truth.rising.len(), 3);
        for post in &out.dataset.posts {
            assert!(post.ts < 1000);
            for c in &post.comments {
                assert!(c.ts >= post.ts && c.ts < 1000);
            }
            if out.truth.fading.contains(&post.author) {
                assert!(post.ts < 200, "fader posted at {}", post.ts);
            }
            if out.truth.rising.contains(&post.author) {
                assert!(post.ts >= 800, "riser posted at {}", post.ts);
            }
        }
        // Faders occupy the top authority ranks, risers the next tier.
        let min_fader = out
            .truth
            .fading
            .iter()
            .map(|b| out.truth.authority[b.index()])
            .fold(f64::INFINITY, f64::min);
        let max_riser = out
            .truth
            .rising
            .iter()
            .map(|b| out.truth.authority[b.index()])
            .fold(0.0, f64::max);
        assert!(min_fader >= max_riser);
    }

    #[test]
    fn stamping_leaves_the_classic_corpus_untouched() {
        // Same seed, with and without a span: everything except timestamps
        // must be identical — the stamping pass has its own RNG stream.
        let plain = generate(&SynthConfig::tiny(6));
        let stamped = generate(&SynthConfig {
            time_span: 500,
            planted_fading: 2,
            planted_rising: 2,
            ..SynthConfig::tiny(6)
        });
        assert_eq!(plain.dataset.bloggers, stamped.dataset.bloggers);
        assert_eq!(plain.dataset.posts.len(), stamped.dataset.posts.len());
        for (a, b) in plain.dataset.posts.iter().zip(&stamped.dataset.posts) {
            assert_eq!(a.text, b.text);
            assert_eq!(a.author, b.author);
            assert_eq!(a.comments.len(), b.comments.len());
            for (ca, cb) in a.comments.iter().zip(&b.comments) {
                assert_eq!(ca.text, cb.text);
                assert_eq!(ca.sentiment, cb.sentiment);
            }
        }
        assert_eq!(plain.truth.authority, stamped.truth.authority);
    }

    #[test]
    fn paper_scale_post_count_in_range() {
        let out = generate(&SynthConfig::paper_scale(11));
        let n = out.dataset.posts.len();
        // Mean of the skewed counter is ≈ rate − 0.5; accept a broad band
        // around the 40 000-post corpus the paper reports.
        assert!((25_000..60_000).contains(&n), "posts: {n}");
    }
}
