//! The byte-class tokenizer and the segment-merging corpus build against
//! the plain references in `reference/`.
//!
//! The text is ASCII-heavy, as blog text is, with the cases each fast path
//! has to get right mixed in: apostrophes leading, trailing and doubled;
//! digits, capitals and one-character words; every stopword in random
//! case; words of 16 and of more than 64 bytes; and non-ASCII words with a
//! final sigma, `ß`, `İ`, CJK and non-ASCII digits, next to non-ASCII
//! separators. The debug
//! suite runs 512 texts; the release gate runs 20 000 under `--ignored`.

mod reference;

use mass_text::stopwords::{is_stopword, STOPWORDS};
use mass_text::{for_each_token, tokenize, tokenize_keep_stopwords, PreparedCorpus};
use mass_types::{Dataset, DatasetBuilder};
use proptest::prelude::*;
use reference::ReferenceCorpus;

/// splitmix64: the soup's seeded stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<'a>(state: &mut u64, from: &[&'a str]) -> &'a str {
    from[next(state) as usize % from.len()]
}

/// `len` random ASCII letters, each upper-case with probability 1/4.
fn letters(state: &mut u64, len: usize) -> String {
    (0..len)
        .map(|_| {
            let r = next(state);
            let c = (b'a' + (r % 26) as u8) as char;
            if r >> 32 & 3 == 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

const WIDE_WORDS: &[&str] = &[
    "ΟΔΥΣΣΕΎΣ",
    "ΣΊΣΥΦΟΣ",
    "Σ",
    "ΣΣ'Σ",
    "straße",
    "STRASSE",
    "ß",
    "ẞ",
    "İstanbul",
    "İ",
    "旅行日記",
    "日本",
    "café",
    "Café's",
    "Über",
    "naïve",
    "Ωmega",
    "m²",
    "٣٤",
    "½",
];

const SEPARATORS: &[&str] = &[
    " ", " ", " ", " ", "  ", ", ", ". ", "!", "\n", "\t", "-", "_", "—", "…", "☀", "😀", "'", "",
];

/// One word of the soup.
fn word(state: &mut u64) -> String {
    match next(state) % 20 {
        // Every stopword, in random case.
        0..=4 => {
            let w = STOPWORDS[next(state) as usize % STOPWORDS.len()];
            w.chars()
                .map(|c| {
                    if next(state).is_multiple_of(3) {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect()
        }
        // Plain and capitalised ASCII words.
        5..=10 => {
            let len = 2 + next(state) as usize % 10;
            letters(state, len)
        }
        // Apostrophes: leading, trailing, doubled, inside.
        11 | 12 => {
            let len = 1 + next(state) as usize % 6;
            let w = letters(state, len);
            match next(state) % 4 {
                0 => format!("'{w}"),
                1 => format!("{w}'"),
                2 => format!("{w}''s"),
                _ => format!("{w}'{}", letters(state, 1)),
            }
        }
        // Digits, alone or inside words.
        13 => {
            let n = next(state) % 10_000;
            match next(state) % 3 {
                0 => n.to_string(),
                1 => format!("web{n}"),
                _ => format!("{n}{}", letters(state, 2)),
            }
        }
        // One-character words.
        14 => letters(state, 1),
        // The edge of the stopword table's key, and far past it.
        15 => {
            let len = if next(state).is_multiple_of(2) {
                16
            } else {
                65 + next(state) as usize % 40
            };
            letters(state, len)
        }
        // Negations, which are not stopwords.
        16 => pick(state, &["not", "no", "never", "NOT", "Never"]).to_string(),
        // Non-ASCII words, sometimes glued to ASCII.
        _ => {
            let w = pick(state, WIDE_WORDS);
            match next(state) % 3 {
                0 => w.to_string(),
                1 => format!("{}{w}", letters(state, 2)),
                _ => format!("{w}{}", letters(state, 2)),
            }
        }
    }
}

/// `words` words of seeded soup joined by random separators.
fn soup(seed: u64, words: usize) -> String {
    let mut state = seed;
    let mut text = String::new();
    for _ in 0..words {
        text.push_str(&word(&mut state));
        text.push_str(pick(&mut state, SEPARATORS));
    }
    text
}

/// A dataset of `posts` soup posts with soup comments.
fn soup_dataset(seed: u64, posts: usize) -> Dataset {
    let mut state = seed;
    let mut b = DatasetBuilder::new();
    let author = b.blogger("author");
    let commenter = b.blogger("commenter");
    for _ in 0..posts {
        let title = soup(next(&mut state), next(&mut state) as usize % 4);
        let text = soup(next(&mut state), next(&mut state) as usize % 40);
        let p = b.post(author, title, text);
        for _ in 0..next(&mut state) % 4 {
            let comment = soup(next(&mut state), next(&mut state) as usize % 16);
            b.comment(p, commenter, comment, None);
        }
    }
    b.build().expect("soup dataset is valid")
}

/// Both modes of `for_each_token` (with a scratch buffer left dirty by
/// the other mode) and both collectors against the reference.
fn check_text(text: &str) -> Result<(), TestCaseError> {
    let mut scratch = String::from("left over from an earlier word");
    for keep in [false, true] {
        let want = reference::tokens(text, keep);
        let mut got = Vec::new();
        for_each_token(text, keep, &mut scratch, |t| got.push(t.to_string()));
        prop_assert_eq!(
            &got,
            &want,
            "for_each_token on {:?}, keep_stopwords={}: {:?} != {:?}",
            text,
            keep,
            got,
            want
        );
        let collected = if keep {
            tokenize_keep_stopwords(text)
        } else {
            tokenize(text)
        };
        prop_assert_eq!(
            &collected,
            &want,
            "collector on {:?}, keep_stopwords={}: {:?} != {:?}",
            text,
            keep,
            collected,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tokenizer_matches_reference(seed in any::<u64>(), words in 0usize..48) {
        check_text(&soup(seed, words))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "release-scale fuzz; run with --release -- --ignored"]
    fn tokenizer_matches_reference_release_fuzz(seed in any::<u64>(), words in 0usize..64) {
        check_text(&soup(seed, words))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn build_matches_reference_at_every_thread_count(seed in any::<u64>(), posts in 1usize..12) {
        let ds = soup_dataset(seed, posts);
        let want = ReferenceCorpus::build(&ds);
        for threads in [1, 2, 4] {
            let diff = want.diff(&PreparedCorpus::build(&ds, threads));
            prop_assert!(diff.is_none(), "threads {}: {:?}", threads, diff);
        }
    }
}

/// The comparisons can fail: one stopword kept by a perturbed reference
/// tokenizer is one token of difference, and both checks report it.
#[test]
fn a_one_token_perturbation_is_reported() {
    let keep_the = |text: &str, keep: bool| -> Vec<String> {
        reference::tokens(text, true)
            .into_iter()
            .filter(|w| keep || w == "the" || !reference::is_stopword(w))
            .collect()
    };
    let text = "The hotel was great, and the staff were kind";
    let mut got = Vec::new();
    for_each_token(text, false, &mut String::new(), |t| got.push(t.to_string()));
    assert_eq!(got, reference::tokens(text, false));
    assert_ne!(
        got,
        keep_the(text, false),
        "the tokenizer check missed a kept stopword"
    );

    let mut b = DatasetBuilder::new();
    let author = b.blogger("author");
    let reader = b.blogger("reader");
    let p = b.post(author, "Kyoto", "The hotel was great");
    b.comment(p, reader, "not great at all", None);
    let ds = b.build().unwrap();
    let corpus = PreparedCorpus::build(&ds, 1);
    assert_eq!(ReferenceCorpus::build(&ds).diff(&corpus), None);
    let perturbed = ReferenceCorpus::build_with(&ds, &keep_the);
    assert!(
        perturbed.diff(&corpus).is_some(),
        "the corpus check missed a kept stopword"
    );
}

/// The compiled stopword table agrees with a binary search of the list on
/// every entry and on near-misses. Some near-misses are stopwords too (`a`
/// is a prefix of `about`), so the two lookups are compared; absence is
/// not asserted.
#[test]
fn stopword_table_agrees_with_binary_search() {
    let mut probes: Vec<String> = [
        "not",
        "no",
        "never",
        "",
        "yourselvesyours",
        "abcdefghijklmnop",
    ]
    .iter()
    .map(|w| w.to_string())
    .collect();
    for &w in STOPWORDS {
        probes.push(w.to_string());
        probes.push(w.to_uppercase());
        probes.push(format!("{w}{}", "s".repeat(16 - w.len())));
        for i in 1..w.len() {
            probes.push(w[..i].to_string());
            probes.push(w[i..].to_string());
        }
        for i in 0..w.len() {
            for b in (b'a'..=b'z').chain([b'0', b'\'', b'A']) {
                let mut bytes = w.as_bytes().to_vec();
                bytes[i] = b;
                probes.push(String::from_utf8(bytes).unwrap());
            }
        }
    }
    let hits = probes.iter().filter(|p| reference::is_stopword(p)).count();
    assert!(hits > STOPWORDS.len(), "near-misses include stopwords");
    for p in &probes {
        assert_eq!(is_stopword(p), reference::is_stopword(p), "{p:?}");
    }
}
