//! The prepared corpus: every post and comment tokenized **exactly once**.
//!
//! [`PreparedCorpus::build`] makes a single pass over a [`Dataset`] and
//! stores, per post, the interned token sequence of its classifier document
//! (`"{title} {text}"`), the token sequence of the body alone (what novelty
//! shingling sees), a CSR document-term count row, and, per comment, the
//! stopword-keeping token sequence the sentiment analyzer consumes. Every
//! downstream stage — NB training and classification, novelty, sentiment,
//! topic discovery — then works on dense `u32` [`TermId`]s instead of
//! re-tokenizing raw text and hashing `String`s (DESIGN.md §10).
//!
//! Determinism: tokenization (the expensive part) fans out over `mass-par`
//! into per-document flat buffers; interning — which assigns ids by first
//! appearance — is a serial second pass in dataset order, so the id mapping
//! and every downstream bit are identical at any thread count.

use crate::intern::{Interner, TermId};
use crate::tokenize::for_each_token;
use mass_obs::field;
use mass_types::Dataset;

/// One document's tokens, flattened into a private buffer before interning.
/// Crate-visible so the sharded builder (`shard` module) reuses the exact
/// tokenization path of the in-memory build.
pub(crate) struct FlatDoc {
    /// All token bytes back to back.
    buf: String,
    /// `ends[j]` = byte offset one past token `j` in `buf`.
    ends: Vec<u32>,
    /// How many leading tokens came from the title.
    pub(crate) title_count: u32,
}

pub(crate) fn flatten(parts: &[&str], keep_stopwords: bool) -> FlatDoc {
    let mut buf = String::with_capacity(parts.iter().map(|p| p.len()).sum());
    let mut ends = Vec::new();
    let mut scratch = String::new();
    let mut title_count = 0;
    for (i, part) in parts.iter().enumerate() {
        for_each_token(part, keep_stopwords, &mut scratch, |t| {
            buf.push_str(t);
            ends.push(buf.len() as u32);
        });
        if i == 0 {
            title_count = ends.len() as u32;
        }
    }
    FlatDoc {
        buf,
        ends,
        title_count,
    }
}

impl FlatDoc {
    pub(crate) fn tokens(&self) -> impl Iterator<Item = &str> {
        let mut start = 0usize;
        self.ends.iter().map(move |&end| {
            let tok = &self.buf[start..end as usize];
            start = end as usize;
            tok
        })
    }
}

/// A dataset's text, interned and indexed for the analysis hot paths.
#[derive(Clone, Debug)]
pub struct PreparedCorpus {
    interner: Interner,
    /// Post classifier documents (title then body tokens), flattened.
    doc_tokens: Vec<TermId>,
    /// `doc_offsets[k]..doc_offsets[k + 1]` = post `k`'s slice of
    /// `doc_tokens`. Length `posts + 1`.
    doc_offsets: Vec<u32>,
    /// Absolute index into `doc_tokens` where post `k`'s body tokens start
    /// (title tokens precede it).
    text_starts: Vec<u32>,
    /// CSR document-term count matrix over post documents: term ids
    /// (ascending within a row) and their counts.
    dt_terms: Vec<TermId>,
    dt_counts: Vec<u32>,
    /// Row offsets, length `posts + 1`.
    dt_offsets: Vec<u32>,
    /// Comment tokens (stopwords kept), flattened in `(post, comment)` order.
    comment_tokens: Vec<TermId>,
    /// Per-comment slice offsets, length `total comments + 1`.
    comment_offsets: Vec<u32>,
    /// `comment_starts[k]` = index of post `k`'s first comment in the
    /// flattened comment space. Length `posts + 1`.
    comment_starts: Vec<u32>,
}

/// Field-by-field equality. Because ids are assigned by first appearance,
/// two corpora are equal iff they observed the same document stream — this
/// is the relation the streamed-ingest differential tests assert.
impl PartialEq for PreparedCorpus {
    fn eq(&self, other: &Self) -> bool {
        self.interner == other.interner
            && self.doc_tokens == other.doc_tokens
            && self.doc_offsets == other.doc_offsets
            && self.text_starts == other.text_starts
            && self.dt_terms == other.dt_terms
            && self.dt_counts == other.dt_counts
            && self.dt_offsets == other.dt_offsets
            && self.comment_tokens == other.comment_tokens
            && self.comment_offsets == other.comment_offsets
            && self.comment_starts == other.comment_starts
    }
}

impl Eq for PreparedCorpus {}

impl PreparedCorpus {
    /// Assembles a corpus from already-interned arrays — the sharded
    /// builder's merge output. Callers (crate-internal only) guarantee the
    /// arrays satisfy the layout invariants documented on the fields.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        interner: Interner,
        doc_tokens: Vec<TermId>,
        doc_offsets: Vec<u32>,
        text_starts: Vec<u32>,
        dt_terms: Vec<TermId>,
        dt_counts: Vec<u32>,
        dt_offsets: Vec<u32>,
        comment_tokens: Vec<TermId>,
        comment_offsets: Vec<u32>,
        comment_starts: Vec<u32>,
    ) -> PreparedCorpus {
        PreparedCorpus {
            interner,
            doc_tokens,
            doc_offsets,
            text_starts,
            dt_terms,
            dt_counts,
            dt_offsets,
            comment_tokens,
            comment_offsets,
            comment_starts,
        }
    }

    /// Checks the layout invariants documented on the fields, so that
    /// every accessor stays in bounds: each offset array starts at 0, is
    /// monotone and ends at its data array's length; every body start lies
    /// inside its document; the count and term arrays pair up; and every
    /// term id is inside the vocabulary. For arrays read from outside the
    /// process (a spill file); the builders construct valid layouts.
    pub(crate) fn check_layout(&self) -> Result<(), String> {
        fn offsets(name: &str, o: &[u32], rows: usize, data: usize) -> Result<(), String> {
            if o.len() != rows + 1 {
                return Err(format!("{name} has {} entries for {rows} rows", o.len()));
            }
            if o[0] != 0 || o[rows] as usize != data || o.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!(
                    "{name} is not monotone from 0 to its data length {data}"
                ));
            }
            Ok(())
        }
        let posts = self.text_starts.len();
        let comments = self.comment_offsets.len().saturating_sub(1);
        offsets(
            "doc_offsets",
            &self.doc_offsets,
            posts,
            self.doc_tokens.len(),
        )?;
        offsets("dt_offsets", &self.dt_offsets, posts, self.dt_terms.len())?;
        offsets(
            "comment_offsets",
            &self.comment_offsets,
            comments,
            self.comment_tokens.len(),
        )?;
        offsets("comment_starts", &self.comment_starts, posts, comments)?;
        if self.dt_counts.len() != self.dt_terms.len() {
            return Err("dt_counts and dt_terms differ in length".into());
        }
        let body_outside = self
            .text_starts
            .iter()
            .zip(self.doc_offsets.windows(2))
            .any(|(&s, w)| s < w[0] || s > w[1]);
        if body_outside {
            return Err("a text start lies outside its document".into());
        }
        // A plain `u32::max` fold vectorises; these arrays hold millions
        // of ids.
        let vocab = self.interner.len();
        let max_id = [&self.doc_tokens, &self.dt_terms, &self.comment_tokens]
            .iter()
            .filter_map(|ids| ids.iter().copied().reduce(u32::max))
            .max();
        match max_id {
            Some(id) if id as usize >= vocab => Err(format!(
                "term id {id} is outside the {vocab}-term vocabulary"
            )),
            _ => Ok(()),
        }
    }

    /// Tokenizes and interns every post and comment of `ds` once.
    ///
    /// Records the `text.prepare` span and the `text.tokens_interned` /
    /// `text.vocab_size` counters. The result is a pure function of `ds` —
    /// `threads` only fans out the tokenization.
    pub fn build(ds: &Dataset, threads: usize) -> PreparedCorpus {
        let comment_count: usize = ds.posts.iter().map(|p| p.comments.len()).sum();
        let _span = mass_obs::span_with(
            "text.prepare",
            vec![
                field("posts", ds.posts.len() as i64),
                field("comments", comment_count as i64),
            ],
        );
        let ex = mass_par::executor(threads);

        // Phase 1 (parallel): normalize every document into a flat private
        // buffer. No interner access — nothing here is order-sensitive.
        let post_docs: Vec<FlatDoc> =
            ex.par_map(&ds.posts, |p| flatten(&[&p.title, &p.text], false));
        let comment_texts: Vec<&str> = ds
            .posts
            .iter()
            .flat_map(|p| p.comments.iter().map(|c| c.text.as_str()))
            .collect();
        let comment_docs: Vec<FlatDoc> = ex.par_map(&comment_texts, |t| flatten(&[t], true));

        // Phase 2 (serial): intern in dataset order so ids are deterministic.
        let mut interner = Interner::with_capacity(1024);
        let mut doc_tokens = Vec::new();
        let mut doc_offsets = Vec::with_capacity(ds.posts.len() + 1);
        let mut text_starts = Vec::with_capacity(ds.posts.len());
        let mut dt_terms = Vec::new();
        let mut dt_counts = Vec::new();
        let mut dt_offsets = Vec::with_capacity(ds.posts.len() + 1);
        doc_offsets.push(0);
        dt_offsets.push(0);
        let mut row: Vec<TermId> = Vec::new();
        for d in &post_docs {
            let start = doc_tokens.len();
            for tok in d.tokens() {
                doc_tokens.push(interner.intern(tok));
            }
            text_starts.push((start + d.title_count as usize) as u32);
            doc_offsets.push(doc_tokens.len() as u32);
            // Run-length encode the sorted row into the CSR count matrix.
            row.clear();
            row.extend_from_slice(&doc_tokens[start..]);
            row.sort_unstable();
            let mut i = 0;
            while i < row.len() {
                let term = row[i];
                let mut j = i + 1;
                while j < row.len() && row[j] == term {
                    j += 1;
                }
                dt_terms.push(term);
                dt_counts.push((j - i) as u32);
                i = j;
            }
            dt_offsets.push(dt_terms.len() as u32);
        }
        let mut comment_tokens = Vec::new();
        let mut comment_offsets = Vec::with_capacity(comment_docs.len() + 1);
        comment_offsets.push(0);
        for d in &comment_docs {
            for tok in d.tokens() {
                comment_tokens.push(interner.intern(tok));
            }
            comment_offsets.push(comment_tokens.len() as u32);
        }
        let mut comment_starts = Vec::with_capacity(ds.posts.len() + 1);
        comment_starts.push(0);
        for p in &ds.posts {
            comment_starts.push(comment_starts.last().unwrap() + p.comments.len() as u32);
        }

        mass_obs::counter("text.tokens_interned")
            .add((doc_tokens.len() + comment_tokens.len()) as u64);
        mass_obs::counter("text.vocab_size").add(interner.len() as u64);
        PreparedCorpus {
            interner,
            doc_tokens,
            doc_offsets,
            text_starts,
            dt_terms,
            dt_counts,
            dt_offsets,
            comment_tokens,
            comment_offsets,
            comment_starts,
        }
    }

    /// Number of post documents.
    pub fn posts(&self) -> usize {
        self.text_starts.len()
    }

    /// The vocabulary arena.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The term behind `id`.
    pub fn resolve(&self, id: TermId) -> &str {
        self.interner.resolve(id)
    }

    /// Distinct terms across the corpus.
    pub fn vocab_len(&self) -> usize {
        self.interner.len()
    }

    /// Total token occurrences (posts + comments).
    pub fn total_tokens(&self) -> usize {
        self.doc_tokens.len() + self.comment_tokens.len()
    }

    /// Post `k`'s classifier document: title tokens then body tokens,
    /// stopwords removed — the token stream of
    /// `tokenize(&format!("{title} {text}"))`.
    pub fn doc_tokens(&self, k: usize) -> &[TermId] {
        &self.doc_tokens[self.doc_offsets[k] as usize..self.doc_offsets[k + 1] as usize]
    }

    /// Post `k`'s body tokens only — the token stream of `tokenize(text)`,
    /// what novelty shingling consumes.
    pub fn text_tokens(&self, k: usize) -> &[TermId] {
        &self.doc_tokens[self.text_starts[k] as usize..self.doc_offsets[k + 1] as usize]
    }

    /// Post `k`'s CSR document-term row: `(terms, counts)`, term ids
    /// ascending.
    pub fn doc_terms(&self, k: usize) -> (&[TermId], &[u32]) {
        let r = self.dt_offsets[k] as usize..self.dt_offsets[k + 1] as usize;
        (&self.dt_terms[r.clone()], &self.dt_counts[r])
    }

    /// Number of comments on post `k`.
    #[cfg(test)]
    pub(crate) fn comment_count(&self, k: usize) -> usize {
        (self.comment_starts[k + 1] - self.comment_starts[k]) as usize
    }

    /// Tokens of comment `j` of post `k`, stopwords kept — the token stream
    /// of `tokenize_keep_stopwords(&comment.text)`.
    pub fn comment_tokens(&self, k: usize, j: usize) -> &[TermId] {
        let c = (self.comment_starts[k] + j as u32) as usize;
        &self.comment_tokens[self.comment_offsets[c] as usize..self.comment_offsets[c + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::{tokenize, tokenize_keep_stopwords};
    use mass_types::{DatasetBuilder, DomainId};

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        let alice = b.blogger("alice");
        let bob = b.blogger("bob");
        let p0 = b.post(
            alice,
            "Hotel Review — Kyoto 旅行",
            "The hotel was great; I'd stay again. Hotel staff spoke café French.",
        );
        b.comment(p0, bob, "I do NOT agree, not great at all", None);
        b.comment(p0, bob, "lovely write-up!", None);
        let p1 = b.post(bob, "", "rust compilers and 3 web frameworks");
        b.comment(p1, alice, "nice", None);
        b.post_in_domain(alice, "Σ test", "", DomainId::new(0));
        b.build().expect("sample dataset is valid")
    }

    #[test]
    fn tokens_match_string_tokenizer_exactly() {
        let ds = sample();
        let c = PreparedCorpus::build(&ds, 1);
        assert_eq!(c.posts(), ds.posts.len());
        for (k, p) in ds.posts.iter().enumerate() {
            let doc: Vec<&str> = c.doc_tokens(k).iter().map(|&t| c.resolve(t)).collect();
            assert_eq!(
                doc,
                tokenize(&format!("{} {}", p.title, p.text)),
                "doc tokens of post {k}"
            );
            let body: Vec<&str> = c.text_tokens(k).iter().map(|&t| c.resolve(t)).collect();
            assert_eq!(body, tokenize(&p.text), "body tokens of post {k}");
            for (j, cm) in p.comments.iter().enumerate() {
                let toks: Vec<&str> = c
                    .comment_tokens(k, j)
                    .iter()
                    .map(|&t| c.resolve(t))
                    .collect();
                assert_eq!(
                    toks,
                    tokenize_keep_stopwords(&cm.text),
                    "comment {j} of post {k}"
                );
            }
        }
    }

    #[test]
    fn doc_term_rows_are_sorted_counts() {
        let ds = sample();
        let c = PreparedCorpus::build(&ds, 1);
        for k in 0..c.posts() {
            let (terms, counts) = c.doc_terms(k);
            assert_eq!(terms.len(), counts.len());
            assert!(terms.windows(2).all(|w| w[0] < w[1]), "row {k} not sorted");
            let total: u32 = counts.iter().sum();
            assert_eq!(total as usize, c.doc_tokens(k).len(), "row {k} counts");
            // Spot-check one term against a naive count.
            if let Some((&t, &n)) = terms.iter().zip(counts).next() {
                let naive = c.doc_tokens(k).iter().filter(|&&x| x == t).count();
                assert_eq!(naive as u32, n);
            }
        }
        // "hotel" appears 3 times in post 0's doc (title + twice in body).
        let hotel = c.interner().get("hotel").unwrap();
        let (terms, counts) = c.doc_terms(0);
        let i = terms.iter().position(|&t| t == hotel).unwrap();
        assert_eq!(counts[i], 3);
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let ds = sample();
        let base = PreparedCorpus::build(&ds, 1);
        for threads in [2, 3, 8] {
            let par = PreparedCorpus::build(&ds, threads);
            assert_eq!(base.doc_tokens, par.doc_tokens, "threads={threads}");
            assert_eq!(base.comment_tokens, par.comment_tokens);
            assert_eq!(base.dt_terms, par.dt_terms);
            assert_eq!(base.dt_counts, par.dt_counts);
            assert_eq!(base.vocab_len(), par.vocab_len());
            for id in 0..base.vocab_len() as u32 {
                assert_eq!(base.resolve(id), par.resolve(id));
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = DatasetBuilder::new().build().unwrap();
        let c = PreparedCorpus::build(&ds, 1);
        assert_eq!(c.posts(), 0);
        assert_eq!(c.total_tokens(), 0);
        assert_eq!(c.vocab_len(), 0);
    }
}
