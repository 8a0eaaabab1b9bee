//! Differential fuzzing: the interned zero-copy pipeline versus the legacy
//! string pipeline, on randomized unicode-heavy text.
//!
//! Every facet that was rewired onto [`PreparedCorpus`] — tokenization, NB
//! posteriors, novelty shingling, sentiment factors — must reproduce the
//! string path **bit for bit** (`f64::to_bits`), because the contract
//! promises byte-identical `rank --json-out` artifacts across the rewrite.
//! Tokens and the corpus layout are checked against the plain references
//! in `reference/`, at several thread counts.

mod reference;

use mass_text::{NaiveBayesTrainer, NoveltyDetector, PreparedCorpus, SentimentLexicon};
use mass_types::DatasetBuilder;
use proptest::prelude::*;
use reference::ReferenceCorpus;

/// Unicode-heavy word soup: ASCII, apostrophes, digits, Greek (including
/// final-sigma-sensitive uppercase), Cyrillic, accented Latin, CJK, emoji
/// range symbols, and stray punctuation between words.
const WORDS: &str = "([a-zA-Z0-9'À-ÿΑ-Ωα-ωА-Яа-я一-鿆☀-☕ .,;!?]{0,14} ){0,10}";

fn build_corpus(posts: &[(String, String)], comments: &[String]) -> mass_types::Dataset {
    let mut b = DatasetBuilder::new();
    let author = b.blogger("author");
    let commenter = b.blogger("commenter");
    let mut ids = Vec::new();
    for (title, text) in posts {
        ids.push(b.post(author, title.clone(), text.clone()));
    }
    for (i, text) in comments.iter().enumerate() {
        b.comment(ids[i % ids.len()], commenter, text.clone(), None);
    }
    b.build().expect("fuzz dataset is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interned_pipeline_matches_string_pipeline_bitwise(
        posts in proptest::collection::vec((WORDS, WORDS), 1..5),
        comments in proptest::collection::vec(WORDS, 0..6),
    ) {
        let ds = build_corpus(&posts, &comments);
        let corpus = PreparedCorpus::build(&ds, 1);

        // 1. Tokenization: resolved interned ids == reference tokenizer
        // output, and the whole layout == the reference build at every
        // thread count.
        for (k, p) in ds.posts.iter().enumerate() {
            let doc: Vec<&str> = corpus.doc_tokens(k).iter().map(|&t| corpus.resolve(t)).collect();
            let want = reference::tokens(&format!("{} {}", p.title, p.text), false);
            prop_assert_eq!(doc, want, "doc {}", k);
            let body: Vec<&str> =
                corpus.text_tokens(k).iter().map(|&t| corpus.resolve(t)).collect();
            prop_assert_eq!(body, reference::tokens(&p.text, false), "body {}", k);
            for (j, c) in p.comments.iter().enumerate() {
                let toks: Vec<&str> =
                    corpus.comment_tokens(k, j).iter().map(|&t| corpus.resolve(t)).collect();
                prop_assert_eq!(toks, reference::tokens(&c.text, true), "comment {}/{}", k, j);
            }
        }
        let want = ReferenceCorpus::build(&ds);
        for threads in [1, 2, 4] {
            let diff = want.diff(&PreparedCorpus::build(&ds, threads));
            prop_assert!(diff.is_none(), "threads {}: {:?}", threads, diff);
        }

        // 2. NB posterior: compiled gather over ids == string classify.
        let mut trainer = NaiveBayesTrainer::new(3);
        for (k, p) in ds.posts.iter().enumerate() {
            trainer.add_document(k % 3, &format!("{} {}", p.title, p.text));
        }
        let model = trainer.build(1);
        let compiled = model.compile(corpus.interner());
        for (k, p) in ds.posts.iter().enumerate() {
            let legacy = model.posterior(&format!("{} {}", p.title, p.text));
            let interned = compiled.posterior_ids(corpus.doc_tokens(k));
            prop_assert_eq!(
                legacy.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                interned.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "posterior {}", k
            );
        }

        // 3. Novelty: shingles over the corpus's ids == shingles over ids
        // the detector interns from the text itself, with the detectors
        // accumulating the same corpus state.
        let mut old = NoveltyDetector::new();
        let mut new = NoveltyDetector::for_corpus(&corpus);
        for (k, p) in ds.posts.iter().enumerate() {
            let legacy = old.score_and_add(&p.text);
            let interned = new.score_and_add_ids(&p.text, corpus.text_tokens(k));
            prop_assert_eq!(legacy.to_bits(), interned.to_bits(), "novelty {}", k);
        }

        // 4. Sentiment: compiled polarity gather == string lexicon.
        let lexicon = SentimentLexicon::default();
        let compiled = lexicon.compile(corpus.interner());
        for (k, p) in ds.posts.iter().enumerate() {
            for (j, c) in p.comments.iter().enumerate() {
                let legacy = lexicon.factor(&c.text);
                let interned = compiled.factor_ids(corpus.comment_tokens(k, j));
                prop_assert_eq!(legacy.to_bits(), interned.to_bits(), "sentiment {}/{}", k, j);
            }
        }
    }
}
