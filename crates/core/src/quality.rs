//! Post quality scores — the first facet of Eq. 2.
//!
//! `QualityScore(b_i, d_k) = length(d_k) × Novelty(b_i, d_k)`. Length is the
//! post's word count (raw, per the paper, or log-damped — see
//! [`LengthMode`]); novelty comes from `mass-text` (marker words, optionally
//! corpus shingles). The returned vector is max-normalised to [0, 1] so the
//! solver's facets combine on a common scale.

use crate::params::{LengthMode, MassParams};
use mass_text::novelty::novelty_from_markers;
use mass_text::{NoveltyDetector, PreparedCorpus};
use mass_types::Dataset;

/// The length factor of the quality score for a post of `len` words.
pub fn length_term(len: usize, mode: LengthMode) -> f64 {
    let len = len as f64;
    match mode {
        LengthMode::Raw => len,
        LengthMode::LogDamped => {
            if len > 0.0 {
                1.0 + len.ln()
            } else {
                0.0
            }
        }
    }
}

/// One post's *raw* (unnormalised) quality given a shared novelty detector.
/// The detector accumulates corpus state, so posts must be fed in corpus
/// order; `None` uses marker-word novelty only. The post's text is
/// tokenized into the detector's own vocabulary.
pub fn raw_quality_of(
    post: &mass_types::Post,
    params: &MassParams,
    detector: Option<&mut NoveltyDetector>,
) -> f64 {
    let novelty = if !params.use_novelty {
        1.0
    } else {
        match detector {
            Some(d) => d.score_and_add(&post.text),
            None => novelty_from_markers(&post.text),
        }
    };
    length_term(post.length_words(), params.length_mode) * novelty
}

fn wants_detector(params: &MassParams) -> bool {
    params.use_novelty && params.shingle_novelty
}

/// Creates the shingle detector a configuration calls for, over `corpus`'s
/// vocabulary so the corpus's token ids can be fed to it directly.
pub fn make_detector(params: &MassParams, corpus: &PreparedCorpus) -> Option<NoveltyDetector> {
    wants_detector(params).then(|| NoveltyDetector::for_corpus(corpus))
}

/// Per-post *raw* quality scores (length term × novelty, unnormalised).
pub fn raw_quality_scores(ds: &Dataset, params: &MassParams) -> Vec<f64> {
    let mut detector = wants_detector(params).then(NoveltyDetector::new);
    ds.posts
        .iter()
        .map(|post| raw_quality_of(post, params, detector.as_mut()))
        .collect()
}

/// [`raw_quality_scores`] over a [`PreparedCorpus`]: novelty shingles are
/// the already-interned body tokens, so no post is re-tokenized. The
/// scores are bit-identical to the string path, because novelty depends
/// only on which shingles are equal, and the marker scan still reads the
/// raw text.
///
/// The caller supplies — and keeps — the detector so later incremental
/// posts dedupe against this corpus. It must be built over this corpus's
/// vocabulary: pass [`make_detector`]`(params, corpus).as_mut()`.
pub fn raw_quality_scores_with_detector(
    ds: &Dataset,
    corpus: &PreparedCorpus,
    params: &MassParams,
    mut detector: Option<&mut NoveltyDetector>,
) -> Vec<f64> {
    ds.posts
        .iter()
        .enumerate()
        .map(|(k, post)| {
            let novelty = if !params.use_novelty {
                1.0
            } else {
                match detector.as_deref_mut() {
                    Some(d) => d.score_and_add_ids(&post.text, corpus.text_tokens(k)),
                    None => novelty_from_markers(&post.text),
                }
            };
            length_term(post.length_words(), params.length_mode) * novelty
        })
        .collect()
}

/// Per-post *raw* quality scores from a prepared corpus (tokenize-once path).
pub fn raw_quality_scores_prepared(
    ds: &Dataset,
    corpus: &PreparedCorpus,
    params: &MassParams,
) -> Vec<f64> {
    let mut detector = make_detector(params, corpus);
    raw_quality_scores_with_detector(ds, corpus, params, detector.as_mut())
}

/// Per-post quality scores, max-normalised (empty corpus → empty vector;
/// all-zero qualities stay zero).
pub fn quality_scores(ds: &Dataset, params: &MassParams) -> Vec<f64> {
    let mut scores = raw_quality_scores(ds, params);
    let max = scores.iter().cloned().fold(0.0f64, f64::max);
    if max > 0.0 {
        scores.iter_mut().for_each(|s| *s /= max);
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use mass_types::DatasetBuilder;

    fn params(mode: LengthMode, shingles: bool) -> MassParams {
        MassParams {
            length_mode: mode,
            shingle_novelty: shingles,
            ..MassParams::paper()
        }
    }

    fn ds_with_posts(texts: &[&str]) -> Dataset {
        let mut b = DatasetBuilder::new();
        let a = b.blogger("a");
        for t in texts {
            b.post(a, "t", *t);
        }
        b.build().unwrap()
    }

    #[test]
    fn longer_posts_score_higher() {
        let ds = ds_with_posts(&["one two three", "one two three four five six seven eight"]);
        for mode in [LengthMode::Raw, LengthMode::LogDamped] {
            let q = quality_scores(&ds, &params(mode, false));
            assert!(q[1] > q[0], "{mode:?}: {q:?}");
            assert_eq!(q[1], 1.0, "max-normalised");
        }
    }

    #[test]
    fn copies_are_penalised() {
        let ds = ds_with_posts(&[
            "original thoughtful words on many topics worth reading today",
            "reprinted from another blog: original thoughtful words on many topics",
        ]);
        let q = quality_scores(&ds, &params(LengthMode::Raw, false));
        assert!(q[1] < q[0] * 0.2, "copy not penalised: {q:?}");
    }

    #[test]
    fn shingle_duplicates_caught_without_markers() {
        let text = "a sufficiently long post about travel with hotels flights and food \
                    recommendations covering many days of a wonderful summer journey";
        let ds = ds_with_posts(&[text, text]);
        let with = quality_scores(&ds, &params(LengthMode::Raw, true));
        assert!(
            with[1] <= 0.1 * with[0].max(1e-12),
            "verbatim repost not caught: {with:?}"
        );
        let without = quality_scores(&ds, &params(LengthMode::Raw, false));
        assert_eq!(
            without[0], without[1],
            "marker-only mode treats both as original"
        );
    }

    #[test]
    fn raw_mode_is_linear_log_mode_is_compressed() {
        let ds = ds_with_posts(&["w ".repeat(10).trim(), "w ".repeat(1000).trim()]);
        let raw = quality_scores(&ds, &params(LengthMode::Raw, false));
        let log = quality_scores(&ds, &params(LengthMode::LogDamped, false));
        assert!(raw[0] < 0.02, "raw ratio should be ~1/100: {raw:?}");
        assert!(log[0] > 0.4, "log damping should compress the gap: {log:?}");
    }

    #[test]
    fn empty_post_scores_zero() {
        let ds = ds_with_posts(&["", "some words here"]);
        for mode in [LengthMode::Raw, LengthMode::LogDamped] {
            let q = quality_scores(&ds, &params(mode, false));
            assert_eq!(q[0], 0.0);
        }
    }

    #[test]
    fn empty_corpus_yields_empty() {
        let ds = DatasetBuilder::new().build().unwrap();
        assert!(quality_scores(&ds, &MassParams::paper()).is_empty());
    }

    #[test]
    fn prepared_path_is_bitwise_identical_to_string_path() {
        let ds = ds_with_posts(&[
            "original thoughtful words on many topics worth reading today",
            "reprinted from another blog: original thoughtful words on many topics",
            "a wholly different post about compilers rust and 3 web frameworks",
            "original thoughtful words on many topics worth reading today",
            "",
        ]);
        for shingles in [false, true] {
            for mode in [LengthMode::Raw, LengthMode::LogDamped] {
                let p = params(mode, shingles);
                let corpus = mass_text::PreparedCorpus::build(&ds, 1);
                let legacy = raw_quality_scores(&ds, &p);
                let prepared = raw_quality_scores_prepared(&ds, &corpus, &p);
                assert_eq!(
                    legacy.iter().map(|q| q.to_bits()).collect::<Vec<_>>(),
                    prepared.iter().map(|q| q.to_bits()).collect::<Vec<_>>(),
                    "shingles={shingles} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn scores_bounded_in_unit_interval() {
        let ds = ds_with_posts(&["a b c", "d e f g h", "reprinted: x y z"]);
        let q = quality_scores(&ds, &MassParams::paper());
        for s in q {
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
