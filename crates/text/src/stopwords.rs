//! English stopword list.
//!
//! A compact list tuned for blog text: frequent function words that carry no
//! domain signal for the classifier. Sentiment-bearing words ("not", "no",
//! "never") are deliberately *excluded* so the sentiment analyzer sees them.
//!
//! [`is_stopword`] runs once per token, so the list is compiled, at build
//! time, into an open-addressed table of packed words.

/// Words removed by [`crate::tokenize::tokenize`].
pub const STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "s",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "t",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// Longest word a table key holds: its bytes fill the low 15 bytes of a
/// `u128`, its length the top one. The longest stopword has 10 bytes, so a
/// longer word is never a stopword.
const MAX_KEY_BYTES: usize = 15;

/// Table slots: a power of two over four times the list, so probe chains
/// stay a slot or two long and an empty slot always ends a probe.
const SLOTS: usize = 512;

/// `word` packed as a table key. Words are never empty in the table, so
/// the all-zero key marks an empty slot.
const fn key(word: &[u8]) -> u128 {
    let mut key = (word.len() as u128) << 120;
    let mut i = 0;
    while i < word.len() {
        key |= (word[i] as u128) << (8 * i);
        i += 1;
    }
    key
}

/// Home slot of a key: a multiplicative hash of its two halves folded.
const fn home(key: u128) -> usize {
    let folded = (key as u64) ^ ((key >> 64) as u64);
    (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros())) as usize
}

/// [`STOPWORDS`] as an open-addressed, linearly probed table of keys.
static TABLE: [u128; SLOTS] = {
    let mut table = [0u128; SLOTS];
    let mut w = 0;
    while w < STOPWORDS.len() {
        let word = STOPWORDS[w].as_bytes();
        assert!(!word.is_empty() && word.len() <= MAX_KEY_BYTES);
        let key = key(word);
        let mut slot = home(key);
        while table[slot] != 0 {
            slot = (slot + 1) % SLOTS;
        }
        table[slot] = key;
        w += 1;
    }
    table
};

/// Whether `word` is in [`STOPWORDS`]: a probe of the compiled table.
pub fn is_stopword(word: &str) -> bool {
    let bytes = word.as_bytes();
    if bytes.len() > MAX_KEY_BYTES {
        return false;
    }
    // `key(bytes)`, built with one copy instead of a shift per byte.
    let mut packed = [0u8; 16];
    packed[..bytes.len()].copy_from_slice(bytes);
    packed[15] = bytes.len() as u8;
    let key = u128::from_le_bytes(packed);
    let mut slot = home(key);
    loop {
        match TABLE[slot] {
            0 => return false,
            k if k == key => return true,
            _ => slot = (slot + 1) % SLOTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_deduped() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted and unique");
    }

    #[test]
    fn membership() {
        assert!(is_stopword("the"));
        assert!(is_stopword("yourselves"));
        assert!(!is_stopword("database"));
        assert!(!is_stopword(""));
    }

    #[test]
    fn negations_are_not_stopwords() {
        for w in ["not", "no", "never", "nothing"] {
            assert!(
                !is_stopword(w),
                "{w} must survive for the sentiment analyzer"
            );
        }
    }
}
