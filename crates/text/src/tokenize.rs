//! Word tokenization and term counting.

use crate::stopwords::is_stopword;
use std::collections::HashMap;

/// Lowercased word tokens with stopwords removed — the classifier's input.
///
/// A token is a maximal run of alphanumeric characters; apostrophes inside
/// words are dropped ("it's" → "its" → filtered as a stopword). Tokens of a
/// single character are kept only if they are digits (so "C" the language
/// vanishes but "3" in "web 3" survives); this matches how sparse blog text
/// is usually cleaned.
pub fn tokenize(text: &str) -> Vec<String> {
    collect_tokens(text, false)
}

/// Like [`tokenize`] but keeps stopwords — the sentiment analyzer needs
/// negation words ("not", "never") in place.
pub fn tokenize_keep_stopwords(text: &str) -> Vec<String> {
    collect_tokens(text, true)
}

fn collect_tokens(text: &str, keep_stopwords: bool) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, keep_stopwords, &mut String::new(), |t| {
        tokens.push(t.to_owned())
    });
    tokens
}

/// The single-char filter: a normalized word survives iff it is longer than
/// one byte, or its one byte is an ASCII digit ("3" stays, "c" and "" go).
/// A one-byte token is necessarily one ASCII char, so checking the first
/// byte is exact; multi-byte single chars ("旅") pass the length test.
fn keep_token(w: &str) -> bool {
    w.len() > 1 || w.as_bytes().first().is_some_and(|b| b.is_ascii_digit())
}

/// Byte classes of the split, as bits so a word can OR together what it
/// holds. An ASCII byte is a word byte iff it is alphanumeric or `'`,
/// which is `char::is_alphanumeric` on ASCII plus the apostrophe.
const SEPARATOR: u8 = 0;
/// A lower-case letter or a digit: normalizing leaves it as it is.
const KEEP: u8 = 1;
/// An upper-case letter or an apostrophe: normalizing changes it.
const FOLD: u8 = 2;
/// The first byte of a non-ASCII char, which is decoded to decide whether
/// the char is alphanumeric.
const WIDE: u8 = 4;

fn byte_class(byte: u8) -> u8 {
    match byte {
        b'a'..=b'z' | b'0'..=b'9' => KEEP,
        b'A'..=b'Z' | b'\'' => FOLD,
        0x80.. => WIDE,
        _ => SEPARATOR,
    }
}

/// Normalizes `word` into `scratch`: strip apostrophes, lowercase. A
/// `wide` word (one holding a non-ASCII char) goes through
/// `str::to_lowercase`, whose context-sensitive cases (final sigma, `İ`)
/// need the whole word.
fn fold<'a>(word: &str, wide: bool, scratch: &'a mut String) -> &'a str {
    scratch.clear();
    if !wide {
        let folded = word.bytes().filter(|&b| b != b'\'');
        scratch.extend(folded.map(|b| b.to_ascii_lowercase() as char));
    } else if word.contains('\'') {
        scratch.push_str(&word.replace('\'', "").to_lowercase());
    } else {
        scratch.push_str(&word.to_lowercase());
    }
    scratch
}

/// Zero-copy tokenization: calls `visit` once per token of `text`, in
/// order — the token stream of [`tokenize`] (or
/// [`tokenize_keep_stopwords`] when `keep_stopwords`) without allocating a
/// `String` per token. `scratch` is a caller-owned reuse buffer; tokens are
/// only valid for the duration of each `visit` call. This is the hot path
/// the corpus interner feeds on.
///
/// One pass over the bytes: an ASCII byte is classified by its value
/// alone, and a `char` is decoded only at a non-ASCII byte. While scanning a word
/// the pass notes whether it needs lower-casing or apostrophe stripping,
/// so a clean ASCII word is handed on as a slice of `text`; a word with a
/// non-ASCII char is normalized by `str::to_lowercase`.
pub fn for_each_token(
    text: &str,
    keep_stopwords: bool,
    scratch: &mut String,
    mut visit: impl FnMut(&str),
) {
    let mut emit = |word: &str, seen: u8| {
        let token = if seen & (FOLD | WIDE) == 0 {
            word
        } else {
            fold(word, seen & WIDE != 0, scratch)
        };
        if keep_token(token) && (keep_stopwords || !is_stopword(token)) {
            visit(token);
        }
    };
    let bytes = text.as_bytes();
    // `seen` ORs the classes of the current word's bytes; 0 between words.
    let (mut start, mut seen) = (0, SEPARATOR);
    let mut i = 0;
    while i < bytes.len() {
        let mut class = byte_class(bytes[i]);
        let mut width = 1;
        if class == WIDE {
            // `i` only ever advances by whole chars, so it is a boundary.
            let c = text[i..].chars().next().unwrap_or(' ');
            width = c.len_utf8();
            if !c.is_alphanumeric() {
                class = SEPARATOR;
            }
        }
        if class != SEPARATOR {
            if seen == SEPARATOR {
                start = i;
            }
            seen |= class;
        } else if seen != SEPARATOR {
            emit(&text[start..i], seen);
            seen = SEPARATOR;
        }
        i += width;
    }
    if seen != SEPARATOR {
        emit(&text[start..], seen);
    }
}

/// A bag-of-words: term → occurrence count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TermCounts {
    counts: HashMap<String, u32>,
    total: u32,
}

impl TermCounts {
    /// Counts the (stopword-filtered) tokens of `text`.
    pub fn from_text(text: &str) -> Self {
        let mut tc = TermCounts::default();
        for t in tokenize(text) {
            tc.add(t);
        }
        tc
    }

    /// Counts an explicit token stream.
    pub fn from_tokens<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut tc = TermCounts::default();
        for t in tokens {
            tc.add(t);
        }
        tc
    }

    /// Adds one occurrence of `term`.
    pub fn add(&mut self, term: String) {
        *self.counts.entry(term).or_insert(0) += 1;
        self.total += 1;
    }

    /// Occurrences of `term`.
    pub fn get(&self, term: &str) -> u32 {
        self.counts.get(term).copied().unwrap_or(0)
    }

    /// Total token count.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of distinct terms.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterates `(term, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Cosine similarity between two bags — used by interest matching.
    pub fn cosine(&self, other: &TermCounts) -> f64 {
        if self.total == 0 || other.total == 0 {
            return 0.0;
        }
        let (small, large) = if self.distinct() <= other.distinct() {
            (self, other)
        } else {
            (other, self)
        };
        let dot: f64 = small
            .iter()
            .map(|(t, c)| c as f64 * large.get(t) as f64)
            .sum();
        let norm = |tc: &TermCounts| {
            tc.iter()
                .map(|(_, c)| (c as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let denom = norm(self) * norm(other);
        if denom == 0.0 {
            0.0
        } else {
            dot / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_filters() {
        let tokens = tokenize("The Quick BROWN fox, and the lazy dog!");
        assert_eq!(tokens, vec!["quick", "brown", "fox", "lazy", "dog"]);
    }

    #[test]
    fn apostrophes_folded() {
        let tokens = tokenize("it's Amery's blog");
        assert_eq!(tokens, vec!["amerys", "blog"]);
    }

    #[test]
    fn digits_survive_single_char_filter() {
        let tokens = tokenize("web 3 rocks x");
        assert_eq!(tokens, vec!["web", "3", "rocks"]);
    }

    #[test]
    fn unicode_words_kept() {
        let tokens = tokenize("旅行 blog über café");
        assert_eq!(tokens, vec!["旅行", "blog", "über", "café"]);
    }

    #[test]
    fn keep_stopwords_variant() {
        let tokens = tokenize_keep_stopwords("this is not good");
        assert_eq!(tokens, vec!["this", "is", "not", "good"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ... ???").is_empty());
    }

    #[test]
    fn term_counts_basics() {
        let tc = TermCounts::from_text("travel travel hotel");
        assert_eq!(tc.get("travel"), 2);
        assert_eq!(tc.get("hotel"), 1);
        assert_eq!(tc.get("absent"), 0);
        assert_eq!(tc.total(), 3);
        assert_eq!(tc.distinct(), 2);
    }

    #[test]
    fn cosine_identical_is_one() {
        let a = TermCounts::from_text("sports football match");
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_disjoint_is_zero() {
        let a = TermCounts::from_text("sports football");
        let b = TermCounts::from_text("medicine doctor");
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded() {
        let a = TermCounts::from_text("travel hotel flight hotel");
        let b = TermCounts::from_text("hotel resort travel");
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0 && ab < 1.0);
    }

    /// Golden snapshot: a fixed corpus must produce exactly this token list,
    /// forever. Locks tokenizer behavior (splitting, apostrophe folding,
    /// lowercasing incl. final sigma, single-char and stopword filters)
    /// across the zero-copy rewrite.
    #[test]
    fn golden_snapshot_fixed_corpus() {
        let corpus = "The Quick BROWN fox's den, at web 3.0 — it's NOT \
                      O'Brien's café!  ΣΊΣΥΦΟΣ & ΟΔΥΣΣΕΎΣ wrote 42 blogs; \
                      x y 7 'quoted' STRASSE-straße 旅行日記 über__alles";
        assert_eq!(
            tokenize(corpus),
            vec![
                "quick",
                "brown",
                "foxs",
                "den",
                "web",
                "3",
                "0",
                "not",
                "obriens",
                "café",
                "σίσυφος",
                "οδυσσεύς",
                "wrote",
                "42",
                "blogs",
                "7",
                "quoted",
                "strasse",
                "straße",
                "旅行日記",
                "über",
                "alles",
            ]
        );
        assert_eq!(
            tokenize_keep_stopwords("It's NOT the Best"),
            vec!["its", "not", "the", "best"]
        );
    }

    /// The zero-copy visitor and the collectors over it emit the stream of
    /// the reference char-split tokenizer on each of the split's paths: a
    /// borrowed clean ASCII word, an ASCII word folded in scratch, and a
    /// non-ASCII word lower-cased by `str::to_lowercase`. One scratch buffer
    /// is reused across texts and modes.
    #[test]
    fn for_each_token_matches_tokenize() {
        let mut scratch = String::new();
        for text in [
            "The Quick BROWN fox, and the lazy dog!",
            "it's Amery's blog",
            "web 3 rocks x",
            "旅行 blog über café",
            "ΣΊΣΥΦΟΣ ΟΔΥΣΣΕΎΣ İstanbul",
            "don't can't won't O'Brien's café's",
            "",
            "!!! ... ???",
            "mixed 'ΣΣ' CASE ß ẞ 42 a 7",
        ] {
            for keep in [false, true] {
                let mut got = Vec::new();
                for_each_token(text, keep, &mut scratch, |t| got.push(t.to_string()));
                let want = crate::reference::tokens(text, keep);
                assert_eq!(got, want, "diverged on {text:?} keep_stopwords={keep}");
                let collected = if keep {
                    tokenize_keep_stopwords(text)
                } else {
                    tokenize(text)
                };
                assert_eq!(
                    collected, want,
                    "collector on {text:?} keep_stopwords={keep}"
                );
            }
        }
    }

    #[test]
    fn cosine_with_empty_is_zero() {
        let a = TermCounts::from_text("x y");
        let empty = TermCounts::default();
        assert_eq!(a.cosine(&empty), 0.0);
        assert_eq!(empty.cosine(&a), 0.0);
    }
}
