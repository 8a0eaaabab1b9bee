//! Novelty scoring for the quality facet (`Novelty(b_i, d_k)`).
//!
//! The paper: "We collect a set of words indicating that an article is a
//! copy of other sources, and set Novelty to a value between 0 and 0.1 if
//! the article contains such words, and otherwise we consider the article
//! original and set its Novelty to 1" (Section II, following ref \[2\]'s
//! observation that reproduced content brings little influence).
//!
//! Two signals feed the score:
//!
//! 1. **Copy-indicator words** — "reprinted", "forwarded", "source:", … The
//!    more indicators, the closer the score drops toward 0 (within the
//!    paper's (0, 0.1] band).
//! 2. **Shingle overlap** (optional, corpus-level) — a [`NoveltyDetector`]
//!    indexes 4-token shingles of every post; a post whose shingles mostly
//!    appeared in *earlier* posts is treated as a copy even without marker
//!    words. This catches verbatim reposts the lexicon misses.

use crate::intern::{Interner, TermId};
use crate::prepared::PreparedCorpus;
use crate::tokenize::for_each_token;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Phrases that mark a post as reproduced content. Checked against the
/// lowercased text, so multi-word markers work.
const COPY_MARKERS: &[&str] = &[
    "reprinted",
    "repost",
    "reposted",
    "forwarded from",
    "copied from",
    "via ",
    "source:",
    "originally posted",
    "originally published",
    "courtesy of",
    "all rights reserved by the original",
    "zhuanzai", // transliteration of 转载, ubiquitous on 2000s Chinese blogs like MSN Spaces
];

/// Shingle width in tokens. One `u128` key holds exactly four `TermId`s.
pub const SHINGLE_LEN: usize = 4;

/// Fraction of a post's shingles that must have been seen before it for
/// the post to count as a near-duplicate.
pub const DUPLICATE_THRESHOLD: f64 = 0.8;

/// Fills the unused lanes of a short post's key. The interner never issues
/// this id, so a padded key cannot equal a real 4-gram, and the number of
/// padded lanes tags the post's length.
const PAD: TermId = TermId::MAX;

/// Scores the novelty of one post from its text alone (marker words only).
///
/// Returns 1.0 for original posts; for posts with `n ≥ 1` markers returns
/// `0.1 / n`, inside the paper's (0, 0.1] band and decreasing with stronger
/// copy evidence.
pub fn novelty_from_markers(text: &str) -> f64 {
    let lower = text.to_lowercase();
    let hits = COPY_MARKERS.iter().filter(|m| lower.contains(*m)).count();
    if hits == 0 {
        1.0
    } else {
        0.1 / hits as f64
    }
}

/// Number of shingle keys a post of `tokens` tokens contributes.
fn shingle_count(tokens: usize) -> usize {
    match tokens {
        0 => 0,
        n if n < SHINGLE_LEN => 1,
        n => n - SHINGLE_LEN + 1,
    }
}

/// Packs four ids into one key, lane `i` at bits `32i..32i + 32`.
fn pack(lanes: [TermId; SHINGLE_LEN]) -> u128 {
    lanes
        .iter()
        .rev()
        .fold(0u128, |key, &id| (key << 32) | u128::from(id))
}

/// Appends the shingle keys of one token stream: every exact 4-gram, or
/// one padded key for a post of one to three tokens.
fn shingle_keys(tokens: &[TermId], out: &mut Vec<u128>) {
    if tokens.len() < SHINGLE_LEN {
        if !tokens.is_empty() {
            let mut lanes = [PAD; SHINGLE_LEN];
            lanes[..tokens.len()].copy_from_slice(tokens);
            out.push(pack(lanes));
        }
        return;
    }
    out.extend(
        tokens
            .windows(SHINGLE_LEN)
            .map(|w| pack([w[0], w[1], w[2], w[3]])),
    );
}

/// Multiply-fold hasher for shingle keys. The keys are exact, so the hash
/// only spreads them over buckets; one 64×64→128-bit multiply of the two
/// key halves, folded, does that at a fraction of SipHash's cost.
#[derive(Clone, Copy, Default)]
struct ShingleHasher(u64);

const FOLD_LO: u64 = 0x243f_6a88_85a3_08d3;
const FOLD_HI: u64 = 0x1319_8a2e_0370_7344;

fn fold_mul(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

impl Hasher for ShingleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u128` keys are hashed; this keeps the trait total.
        for &b in bytes {
            self.0 = fold_mul(self.0 ^ u64::from(b) ^ FOLD_LO, FOLD_HI);
        }
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = fold_mul((key as u64) ^ FOLD_LO, ((key >> 64) as u64) ^ FOLD_HI);
    }
}

/// Corpus-level novelty detector combining marker words with shingle overlap.
///
/// Feed posts in (chronological) order; each call returns the post's
/// novelty given everything seen *before* it, then indexes it. The first
/// copy of a text scores 1.0, later near-verbatim copies fall into the
/// (0, 0.1] band.
///
/// A shingle is the exact `TermId` 4-gram packed into a `u128`. The
/// detector owns the vocabulary those ids come from: a batch detector
/// starts from the corpus's interner ([`NoveltyDetector::for_corpus`]) and
/// is fed the corpus's token ids, and [`NoveltyDetector::score_and_add`]
/// interns new text into the same vocabulary, appending unseen terms.
/// Whether two shingles are equal does not depend on which ids the terms
/// got, so every such id space gives the same scores.
#[derive(Debug, Default)]
pub struct NoveltyDetector {
    vocab: Interner,
    seen: HashSet<u128, BuildHasherDefault<ShingleHasher>>,
    /// Scratch: the current post's keys, ids and token buffer.
    keys: Vec<u128>,
    ids: Vec<TermId>,
    scratch: String,
}

impl NoveltyDetector {
    /// A detector with an empty corpus and an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A detector over `corpus`'s vocabulary, for feeding the corpus's
    /// posts through [`NoveltyDetector::score_and_add_ids`]. The shingle
    /// set is sized once for every shingle of the corpus, so indexing it
    /// never rehashes.
    pub fn for_corpus(corpus: &PreparedCorpus) -> Self {
        let shingles = (0..corpus.posts())
            .map(|k| shingle_count(corpus.text_tokens(k).len()))
            .sum();
        NoveltyDetector {
            vocab: corpus.interner().clone(),
            seen: HashSet::with_capacity_and_hasher(shingles, Default::default()),
            ..Self::default()
        }
    }

    /// The vocabulary the detector's token ids index.
    pub fn vocabulary(&self) -> &Interner {
        &self.vocab
    }

    /// Tokenizes `text`, interns its tokens into the detector's vocabulary,
    /// and scores it like [`NoveltyDetector::score_and_add_ids`].
    pub fn score_and_add(&mut self, text: &str) -> f64 {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        let vocab = &mut self.vocab;
        for_each_token(text, false, &mut self.scratch, |t| {
            ids.push(vocab.intern(t))
        });
        let score = self.score_and_add_ids(text, &ids);
        self.ids = ids;
        score
    }

    /// Scores a post against the corpus so far, then adds it to the corpus.
    /// `tokens` are the post body's (stopword-filtered) token ids in the
    /// detector's vocabulary; the raw text is still needed for the marker
    /// scan, which is a substring search, not a token match.
    ///
    /// All of the post's shingles are checked against the set as it stood
    /// before the post, and only then added, so a shingle repeated inside
    /// one post does not count as seen.
    pub fn score_and_add_ids(&mut self, text: &str, tokens: &[TermId]) -> f64 {
        let marker_score = novelty_from_markers(text);
        self.keys.clear();
        shingle_keys(tokens, &mut self.keys);
        let overlap = if self.keys.is_empty() {
            0.0
        } else {
            let seen = self.keys.iter().filter(|k| self.seen.contains(k)).count();
            seen as f64 / self.keys.len() as f64
        };
        self.seen.extend(self.keys.iter().copied());

        if overlap >= DUPLICATE_THRESHOLD {
            // Near-duplicate: squeeze into (0, 0.1], lower for higher overlap.
            let dup_score = 0.1 * (1.0 - overlap).max(0.01) / (1.0 - DUPLICATE_THRESHOLD).max(0.01);
            marker_score.min(dup_score.clamp(0.001, 0.1))
        } else {
            marker_score
        }
    }

    /// Distinct shingles indexed so far.
    pub fn indexed_shingles(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn original_text_scores_one() {
        assert_eq!(
            novelty_from_markers("my own thoughts on rust databases"),
            1.0
        );
    }

    #[test]
    fn marker_words_drop_into_paper_band() {
        let s = novelty_from_markers("Reprinted with permission");
        assert!(s > 0.0 && s <= 0.1);
        let s2 = novelty_from_markers("reprinted, forwarded from a friend, source: somewhere");
        assert!(s2 < s);
        assert!(s2 > 0.0);
    }

    #[test]
    fn markers_case_insensitive() {
        assert!(novelty_from_markers("REPOSTED from elsewhere") <= 0.1);
    }

    #[test]
    fn detector_first_copy_is_novel_second_is_not() {
        let mut d = NoveltyDetector::default();
        let text = "a long enough post about travel plans in summer with many details \
                    covering hotels flights and local food recommendations for everyone";
        assert_eq!(d.score_and_add(text), 1.0);
        let dup = d.score_and_add(text);
        assert!(dup > 0.0 && dup <= 0.1, "duplicate scored {dup}");
    }

    #[test]
    fn partial_overlap_below_threshold_is_original() {
        let mut d = NoveltyDetector::default();
        d.score_and_add("alpha beta gamma delta epsilon zeta");
        let s = d.score_and_add("alpha beta gamma delta totally different ending here now");
        assert_eq!(s, 1.0);
    }

    #[test]
    fn short_posts_handled() {
        let mut d = NoveltyDetector::default();
        assert_eq!(d.score_and_add("hi"), 1.0);
        let s = d.score_and_add("hi");
        assert!(s <= 0.1);
        assert_eq!(d.score_and_add(""), 1.0); // empty: no shingles, no markers
    }

    #[test]
    fn indexed_shingles_grow() {
        let mut d = NoveltyDetector::default();
        assert_eq!(d.indexed_shingles(), 0);
        d.score_and_add("one two three four five six");
        assert!(d.indexed_shingles() >= 3);
    }

    #[test]
    fn marker_beats_shingle_when_lower() {
        let mut d = NoveltyDetector::default();
        let s =
            d.score_and_add("reprinted reprinted something fresh entirely new words here today");
        assert!(s <= 0.1);
    }

    #[test]
    fn id_path_matches_text_path_even_interleaved() {
        let texts = [
            "a long enough post about travel plans in summer with many details",
            "a long enough post about travel plans in summer with many details",
            "reprinted, forwarded from a friend, source: somewhere",
            "hi",
            "hi",
            "",
            "alpha beta gamma delta totally different ending here now",
        ];
        let mut b = mass_types::DatasetBuilder::new();
        let a = b.blogger("a");
        for t in texts {
            b.post(a, "", t);
        }
        let corpus = PreparedCorpus::build(&b.build().unwrap(), 1);
        let mut by_text = NoveltyDetector::new();
        let mut mixed = NoveltyDetector::for_corpus(&corpus);
        for (k, text) in texts.iter().enumerate() {
            let a = by_text.score_and_add(text);
            let b = if k % 2 == 0 {
                mixed.score_and_add_ids(text, corpus.text_tokens(k))
            } else {
                mixed.score_and_add(text)
            };
            assert_eq!(a.to_bits(), b.to_bits(), "diverged on post {k}");
        }
        assert_eq!(by_text.indexed_shingles(), mixed.indexed_shingles());
        assert_eq!(mixed.vocabulary(), corpus.interner());
    }

    #[test]
    fn short_keys_never_equal_a_long_posts_shingles() {
        let mut keys = Vec::new();
        shingle_keys(&[1, 2, 3], &mut keys);
        shingle_keys(&[1, 2], &mut keys);
        shingle_keys(&[1], &mut keys);
        shingle_keys(&[1, 2, 3, 4], &mut keys);
        shingle_keys(&[], &mut keys);
        assert_eq!(keys.len(), 4);
        let distinct: HashSet<u128> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "{keys:x?}");
        assert_eq!(keys[3], 1 | 2 << 32 | 3 << 64 | 4 << 96);
    }

    #[test]
    fn shingle_count_matches_the_keys() {
        for n in 0..9u32 {
            let tokens: Vec<TermId> = (0..n).collect();
            let mut keys = Vec::new();
            shingle_keys(&tokens, &mut keys);
            assert_eq!(keys.len(), shingle_count(n as usize), "{n} tokens");
        }
    }
}
