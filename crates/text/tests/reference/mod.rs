//! Plain reference implementations of the tokenizer and the corpus build,
//! kept independent of the production code so that the differential tests
//! compare two implementations, not one with itself.
//!
//! * [`tokens`] is the char-by-char split: `str::split` on a char
//!   predicate, `replace` + `to_lowercase` per word, the single-char
//!   filter, and a binary search of the sorted `STOPWORDS` list.
//! * [`ReferenceCorpus::build`] is the serial two-phase build: tokenize
//!   every document, then intern post documents (title then body) in
//!   dataset order before any comment, with a `HashMap` vocabulary.
//!
//! Included by the integration tests as `mod reference;` and by the
//! crate's own unit tests through a `#[path]` module.
#![allow(dead_code)]

use mass_text::stopwords::STOPWORDS;
use mass_text::PreparedCorpus;
use mass_types::Dataset;
use std::collections::HashMap;

/// Whether `word` is a stopword, by binary search of the sorted list.
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

/// The token stream of `text`: maximal runs of alphanumeric chars and
/// apostrophes, apostrophes stripped, lower-cased; one-byte words kept
/// only if they are digits; stopwords dropped unless `keep_stopwords`.
pub fn tokens(text: &str, keep_stopwords: bool) -> Vec<String> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '\''))
        .map(|w| w.replace('\'', "").to_lowercase())
        .filter(|w| w.len() > 1 || w.as_bytes().first().is_some_and(|b| b.is_ascii_digit()))
        .filter(|w| keep_stopwords || !is_stopword(w))
        .collect()
}

/// A tokenizer the reference build can run: `(text, keep_stopwords)`.
pub type Tokenizer<'a> = &'a dyn Fn(&str, bool) -> Vec<String>;

/// A corpus as the serial two-phase build lays it out, one `Vec` per
/// document.
#[derive(Debug, PartialEq)]
pub struct ReferenceCorpus {
    /// Terms in id (first-appearance) order.
    pub vocab: Vec<String>,
    /// Per post: title tokens then body tokens, stopwords dropped.
    pub docs: Vec<Vec<u32>>,
    /// Per post: how many leading tokens of its document are the title's.
    pub title_lens: Vec<usize>,
    /// Per post: `(term, count)` of its document, terms ascending.
    pub rows: Vec<Vec<(u32, u32)>>,
    /// Per post, per comment: its tokens, stopwords kept.
    pub comments: Vec<Vec<Vec<u32>>>,
}

impl ReferenceCorpus {
    /// The reference build of `ds` with the reference tokenizer.
    pub fn build(ds: &Dataset) -> ReferenceCorpus {
        Self::build_with(ds, &tokens)
    }

    /// The reference build of `ds` with `tokenize` in place of [`tokens`]
    /// (canaries pass a perturbed one).
    pub fn build_with(ds: &Dataset, tokenize: Tokenizer<'_>) -> ReferenceCorpus {
        // Phase 1: tokenize every document.
        let post_words: Vec<(Vec<String>, Vec<String>)> = ds
            .posts
            .iter()
            .map(|p| (tokenize(&p.title, false), tokenize(&p.text, false)))
            .collect();
        let comment_words: Vec<Vec<Vec<String>>> = ds
            .posts
            .iter()
            .map(|p| p.comments.iter().map(|c| tokenize(&c.text, true)).collect())
            .collect();
        // Phase 2: intern serially, every post document before any comment.
        let mut vocab: Vec<String> = Vec::new();
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut intern = |w: &String| {
            *ids.entry(w.clone()).or_insert_with(|| {
                vocab.push(w.clone());
                (vocab.len() - 1) as u32
            })
        };
        let mut docs = Vec::new();
        let mut title_lens = Vec::new();
        let mut rows = Vec::new();
        for (title, body) in &post_words {
            let doc: Vec<u32> = title.iter().chain(body).map(&mut intern).collect();
            let mut sorted = doc.clone();
            sorted.sort_unstable();
            let mut row: Vec<(u32, u32)> = Vec::new();
            for t in sorted {
                match row.last_mut() {
                    Some((term, count)) if *term == t => *count += 1,
                    _ => row.push((t, 1)),
                }
            }
            title_lens.push(title.len());
            docs.push(doc);
            rows.push(row);
        }
        let comments = comment_words
            .iter()
            .map(|post| {
                post.iter()
                    .map(|words| words.iter().map(&mut intern).collect())
                    .collect()
            })
            .collect();
        ReferenceCorpus {
            vocab,
            docs,
            title_lens,
            rows,
            comments,
        }
    }

    /// The first place where `corpus` differs from this reference, read
    /// through the corpus's public accessors; `None` if they agree.
    pub fn diff(&self, corpus: &PreparedCorpus) -> Option<String> {
        let vocab: Vec<&str> = corpus.interner().iter().map(|(_, t)| t).collect();
        if vocab != self.vocab {
            return Some(format!("vocabulary: {vocab:?} != {:?}", self.vocab));
        }
        if corpus.posts() != self.docs.len() {
            return Some(format!("{} posts != {}", corpus.posts(), self.docs.len()));
        }
        let total: usize = self.docs.iter().map(Vec::len).sum::<usize>()
            + self.comments.iter().flatten().map(Vec::len).sum::<usize>();
        if corpus.total_tokens() != total {
            return Some(format!("{} tokens != {total}", corpus.total_tokens()));
        }
        for (k, doc) in self.docs.iter().enumerate() {
            if corpus.doc_tokens(k) != doc.as_slice() {
                return Some(format!(
                    "post {k} document: {:?} != {doc:?}",
                    corpus.doc_tokens(k)
                ));
            }
            let body = &doc[self.title_lens[k]..];
            if corpus.text_tokens(k) != body {
                return Some(format!(
                    "post {k} body: {:?} != {body:?}",
                    corpus.text_tokens(k)
                ));
            }
            let (terms, counts) = corpus.doc_terms(k);
            let row: Vec<(u32, u32)> = terms.iter().copied().zip(counts.iter().copied()).collect();
            if row != self.rows[k] {
                return Some(format!("post {k} row: {row:?} != {:?}", self.rows[k]));
            }
            for (j, comment) in self.comments[k].iter().enumerate() {
                if corpus.comment_tokens(k, j) != comment.as_slice() {
                    return Some(format!(
                        "post {k} comment {j}: {:?} != {comment:?}",
                        corpus.comment_tokens(k, j)
                    ));
                }
            }
        }
        None
    }
}
