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
//! One builder makes every corpus: [`build`](PreparedCorpus::build) splits
//! the posts into contiguous ranges, one per executor thread, tokenizes and
//! interns each range into a [`SegmentBuilder`] with a local vocabulary,
//! and merges the segments with [`ShardedCorpusBuilder::finish`] — the
//! builder the streamed and spilled ingest use. The merge assigns global
//! ids in first-appearance order over the dataset's document stream for
//! any segmentation (`shard` module), so the id mapping and every
//! downstream bit are identical at any thread count.

use crate::intern::{Interner, TermId};
use crate::shard::{ArraySet, CorpusSegment, SegmentBuilder, ShardedCorpusBuilder};
use mass_obs::field;
use mass_types::{Dataset, Post};
use std::io;
use std::ops::Range;

/// A dataset's text, interned and indexed for the analysis hot paths.
///
/// Equality is field by field. Because ids are assigned by first
/// appearance, two corpora are equal iff they observed the same document
/// stream — the relation the streamed-ingest differential tests assert.
#[derive(Clone, Debug, PartialEq, Eq)]
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

impl PreparedCorpus {
    /// Assembles a corpus from already-interned arrays — the sharded
    /// builder's merge output. Callers (crate-internal only) guarantee the
    /// arrays satisfy the layout invariants documented on the fields.
    pub(crate) fn from_parts(interner: Interner, a: ArraySet) -> PreparedCorpus {
        PreparedCorpus {
            interner,
            doc_tokens: a.doc_tokens,
            doc_offsets: a.doc_offsets,
            text_starts: a.text_starts,
            dt_terms: a.dt_terms,
            dt_counts: a.dt_counts,
            dt_offsets: a.dt_offsets,
            comment_tokens: a.comment_tokens,
            comment_offsets: a.comment_offsets,
            comment_starts: a.comment_starts,
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
    /// Records the `text.prepare` span (with the number of `segments` on
    /// open, and the `tokens` and `vocab` built on close) and the
    /// `text.tokens_interned` / `text.vocab_size` counters. The result is
    /// a pure function of `ds` — `threads` only sets how many segments
    /// build at once.
    pub fn build(ds: &Dataset, threads: usize) -> PreparedCorpus {
        let comment_count: usize = ds.posts.iter().map(|p| p.comments.len()).sum();
        let ex = mass_par::executor(threads);
        let ranges = segment_ranges(ds.posts.len(), ex.threads());
        let mut span = mass_obs::span_with(
            "text.prepare",
            vec![
                field("posts", ds.posts.len()),
                field("comments", comment_count),
                field("segments", ranges.len()),
            ],
        );
        let segments = ex.par_tasks_collect(ranges.len(), |s| {
            build_segment(&ds.posts[ranges[s].clone()])
        });
        // Without a spill budget no segment and no merge touches the disk,
        // so there is no error to return.
        let corpus = merge(segments).expect("an unbudgeted corpus build does no I/O");
        span.record(field("tokens", corpus.total_tokens()));
        span.record(field("vocab", corpus.vocab_len()));
        mass_obs::counter("text.tokens_interned").add(corpus.total_tokens() as u64);
        mass_obs::counter("text.vocab_size").add(corpus.vocab_len() as u64);
        corpus
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

/// Splits `posts` posts into `threads` contiguous ranges whose sizes
/// differ by at most one (fewer ranges if there are fewer posts, so none
/// is empty). An empty dataset is one empty range.
fn segment_ranges(posts: usize, threads: usize) -> Vec<Range<usize>> {
    let segments = threads.clamp(1, posts.max(1));
    (0..segments)
        .map(|s| s * posts / segments..(s + 1) * posts / segments)
        .collect()
}

/// Merges the segments of consecutive post ranges, in range order.
fn merge(segments: Vec<io::Result<CorpusSegment>>) -> io::Result<PreparedCorpus> {
    let mut merge = ShardedCorpusBuilder::new(usize::MAX);
    for (index, segment) in segments.into_iter().enumerate() {
        merge.add_shard(index, segment?)?;
    }
    merge.finish()
}

/// One segment: its posts, then its posts' comments, as one shard of the
/// streamed ingest builds them.
fn build_segment(posts: &[Post]) -> io::Result<CorpusSegment> {
    let mut segment = SegmentBuilder::new(usize::MAX);
    for p in posts {
        segment.add_post(&p.title, &p.text)?;
    }
    segment.seal_posts();
    for p in posts {
        segment.add_post_comments(p.comments.iter().map(|c| c.text.as_str()))?;
    }
    segment.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{tokens, ReferenceCorpus};
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
                tokens(&format!("{} {}", p.title, p.text), false),
                "doc tokens of post {k}"
            );
            let body: Vec<&str> = c.text_tokens(k).iter().map(|&t| c.resolve(t)).collect();
            assert_eq!(body, tokens(&p.text, false), "body tokens of post {k}");
            for (j, cm) in p.comments.iter().enumerate() {
                let toks: Vec<&str> = c
                    .comment_tokens(k, j)
                    .iter()
                    .map(|&t| c.resolve(t))
                    .collect();
                assert_eq!(toks, tokens(&cm.text, true), "comment {j} of post {k}");
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
        assert_eq!(ReferenceCorpus::build(&ds).diff(&base), None);
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
            assert!(base == par, "threads={threads}");
        }
    }

    #[test]
    fn segments_are_contiguous_nonempty_and_even() {
        for (posts, threads) in [
            (40, 1),
            (40, 2),
            (40, 3),
            (40, 8),
            (40, 40),
            (40, 64),
            (7, 4),
        ] {
            let ranges = segment_ranges(posts, threads);
            assert_eq!(
                ranges.len(),
                threads.min(posts),
                "{posts} posts, {threads} threads"
            );
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, posts);
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            let (min, max) = (
                ranges.iter().map(|r| r.len()).min(),
                ranges.iter().map(|r| r.len()).max(),
            );
            assert!(min >= Some(1) && max <= min.map(|m| m + 1), "{ranges:?}");
        }
        assert_eq!(segment_ranges(0, 4), vec![0..0]);
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
