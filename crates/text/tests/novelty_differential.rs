//! Differential tests: the `TermId`-keyed novelty detector against the
//! string detector it replaced.
//!
//! The reference below keys each shingle on a SipHash of the resolved
//! token strings and keeps the hashes in a SipHash `HashSet<u64>`. The
//! production detector keys shingles on the exact id 4-gram. Novelty only
//! asks whether two shingles are equal, so both must give the same score,
//! compared with `f64::to_bits`, post by post.

use mass_text::novelty::novelty_from_markers;
use mass_text::{tokenize, NoveltyDetector, PreparedCorpus};
use mass_types::{Dataset, DatasetBuilder};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// The string detector: 4-token shingles hashed from the token strings,
/// posts under four tokens hashed whole.
#[derive(Default)]
struct ReferenceDetector {
    seen: HashSet<u64>,
}

impl ReferenceDetector {
    fn score_and_add(&mut self, text: &str) -> f64 {
        let marker_score = novelty_from_markers(text);
        let tokens = tokenize(text);
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        let shingles: Vec<u64> = if refs.len() < 4 {
            if refs.is_empty() {
                Vec::new()
            } else {
                vec![hash_tokens(&refs)]
            }
        } else {
            refs.windows(4).map(hash_tokens).collect()
        };
        let overlap = if shingles.is_empty() {
            0.0
        } else {
            let seen = shingles.iter().filter(|s| self.seen.contains(s)).count();
            seen as f64 / shingles.len() as f64
        };
        self.seen.extend(shingles);
        if overlap >= 0.8 {
            let dup_score = 0.1 * (1.0 - overlap).max(0.01) / (1.0 - 0.8f64).max(0.01);
            marker_score.min(dup_score.clamp(0.001, 0.1))
        } else {
            marker_score
        }
    }
}

fn hash_tokens(tokens: &[&str]) -> u64 {
    let mut h = DefaultHasher::new();
    for t in tokens {
        t.hash(&mut h);
        0xffu8.hash(&mut h);
    }
    h.finish()
}

fn dataset(texts: &[String]) -> Dataset {
    let mut b = DatasetBuilder::new();
    let a = b.blogger("a");
    for t in texts {
        b.post(a, "", t.clone());
    }
    b.build().unwrap()
}

/// Runs `texts` through the reference and through a batch detector fed
/// the corpus's ids, and returns the first post where they differ.
fn first_divergence(texts: &[String]) -> Option<(usize, f64, f64)> {
    let corpus = PreparedCorpus::build(&dataset(texts), 1);
    let mut reference = ReferenceDetector::default();
    let mut batch = NoveltyDetector::for_corpus(&corpus);
    let mut by_text = NoveltyDetector::new();
    for (k, text) in texts.iter().enumerate() {
        let want = reference.score_and_add(text);
        let got = batch.score_and_add_ids(text, corpus.text_tokens(k));
        let got_text = by_text.score_and_add(text);
        if want.to_bits() != got.to_bits() || want.to_bits() != got_text.to_bits() {
            return Some((k, want, got));
        }
    }
    assert_eq!(batch.indexed_shingles(), reference.seen.len());
    None
}

fn owned(texts: &[&str]) -> Vec<String> {
    texts.iter().map(|t| t.to_string()).collect()
}

#[test]
fn repeats_inside_one_post_count_as_unseen() {
    // Every shingle of the second post repeats inside it; none was seen
    // before it, so it stays original. The third post is all repeats of
    // shingles the second one indexed.
    let texts = owned(&[
        "rust tokio async runtime",
        "alpha beta gamma delta alpha beta gamma delta alpha beta gamma delta",
        "beta gamma delta alpha beta gamma delta alpha",
        "rust tokio async runtime rust tokio async runtime",
    ]);
    assert_eq!(first_divergence(&texts), None);
}

#[test]
fn empty_and_stopword_only_posts() {
    let texts = owned(&["", "the and of", "", "reprinted", "the and of", ""]);
    assert_eq!(first_divergence(&texts), None);
}

#[test]
fn posts_of_one_to_three_tokens() {
    let texts = owned(&[
        "kyoto",
        "kyoto",
        "kyoto hotel",
        "kyoto hotel",
        "kyoto hotel review",
        "kyoto hotel review",
        "hotel kyoto",
        "review",
    ]);
    assert_eq!(first_divergence(&texts), None);
}

#[test]
fn a_short_post_equal_to_a_long_posts_prefix_is_original() {
    let texts = owned(&[
        "kyoto hotel review breakfast",
        "kyoto hotel review",
        "kyoto hotel",
        "kyoto",
        "kyoto hotel review breakfast",
    ]);
    assert_eq!(first_divergence(&texts), None);
    let corpus = PreparedCorpus::build(&dataset(&texts), 1);
    let mut d = NoveltyDetector::for_corpus(&corpus);
    let scores: Vec<f64> = (0..texts.len())
        .map(|k| d.score_and_add_ids(&texts[k], corpus.text_tokens(k)))
        .collect();
    assert_eq!(&scores[..4], &[1.0; 4]);
    assert!(scores[4] <= 0.1, "{scores:?}");
}

#[test]
fn identical_short_posts_are_duplicates() {
    let texts = owned(&[
        "kyoto hotel",
        "kyoto hotel",
        "hotel",
        "hotel",
        "kyoto hotel",
    ]);
    assert_eq!(first_divergence(&texts), None);
}

#[test]
fn batch_and_string_calls_interleave_past_the_corpus_vocabulary() {
    let corpus_texts = owned(&[
        "kyoto hotel review breakfast onsen garden",
        "kyoto hotel",
        "rust compiler borrow checker lifetimes",
    ]);
    let corpus = PreparedCorpus::build(&dataset(&corpus_texts), 1);
    let later = [
        "kyoto hotel review breakfast onsen garden",
        "brand new words nobody indexed before today",
        "brand new words nobody indexed before today",
        "kyoto hotel",
        "lifetimes borrow checker compiler rust",
        "osaka",
        "osaka",
        "reprinted brand new words nobody indexed",
    ];
    let mut reference = ReferenceDetector::default();
    let mut d = NoveltyDetector::for_corpus(&corpus);
    let mut later = later.iter();
    for (k, text) in corpus_texts.iter().enumerate() {
        let want = reference.score_and_add(text);
        let got = d.score_and_add_ids(text, corpus.text_tokens(k));
        assert_eq!(want.to_bits(), got.to_bits(), "corpus post {k}");
        // An incremental post between every two batch posts.
        let text = later.next().unwrap();
        let want = reference.score_and_add(text);
        assert_eq!(want.to_bits(), d.score_and_add(text).to_bits(), "{text}");
    }
    for text in later {
        let want = reference.score_and_add(text);
        assert_eq!(want.to_bits(), d.score_and_add(text).to_bits(), "{text}");
    }
    assert!(d.vocabulary().len() > corpus.vocab_len());
    for (id, term) in corpus.interner().iter() {
        assert_eq!(
            d.vocabulary().resolve(id),
            term,
            "corpus ids keep their terms"
        );
    }
    assert_eq!(d.indexed_shingles(), reference.seen.len());
}

/// Posts drawn from three words (plus a stopword the tokenizer drops), so
/// long and short posts repeat each other's shingles all the time.
fn small_alphabet_post() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..4, 0..10).prop_map(|words| {
        words
            .iter()
            .map(|&w| ["kyoto", "hotel", "onsen", "the"][w])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_the_string_reference_on_a_three_word_alphabet(
        texts in proptest::collection::vec(small_alphabet_post(), 1..24),
    ) {
        prop_assert_eq!(first_divergence(&texts), None);
    }
}
