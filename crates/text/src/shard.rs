//! Sharded, out-of-core construction of [`PreparedCorpus`].
//!
//! Every corpus is built here. Each shard tokenizes and interns its own
//! slice of the documents into a [`CorpusSegment`] with a *local*
//! vocabulary (built by a [`SegmentBuilder`]), and a
//! [`ShardedCorpusBuilder`] merges the segments into one corpus whose
//! interned arrays are **bit-identical** to what one segment over the
//! concatenated document stream produces. The in-memory build
//! ([`PreparedCorpus::build`]) is one segment per thread over contiguous
//! post ranges of a [`Dataset`](mass_types::Dataset); streamed
//! million-blogger corpora arrive shard by shard and never need one.
//!
//! Three properties make the merge exact:
//!
//! 1. **Phase split.** A corpus interns *all post documents before any
//!    comment document*. Segments record how much of their local
//!    vocabulary was minted during the post phase (`post_vocab_len`); the
//!    merge interns every segment's post-phase vocabulary (in shard order,
//!    each in local-id = first-appearance order) before any comment-phase
//!    vocabulary, reproducing the global first-appearance order exactly.
//! 2. **Row re-sort.** Document-term rows are sorted by *local* id inside a
//!    segment; after remapping to global ids each row is re-sorted (terms in
//!    a row are distinct, so the sorted `(term, count)` pairs are unique).
//! 3. **Order-independent assembly.** [`ShardedCorpusBuilder::add_shard`]
//!    takes the shard index explicitly; segments may arrive in any order
//!    (parallel producers) and are merged by index.
//!
//! Past a byte budget, segment arrays spill to temp files; only the small
//! local vocabularies stay resident. A [`SegmentBuilder`] given a budget
//! ([`SegmentBuilder::new`]) streams its arrays to the segment's spill
//! file in blocks while it builds, so a building shard holds about one
//! budget of arrays; [`ShardedCorpusBuilder::new`]'s budget then bounds
//! the finished segments resident at once.
//! [`finish`](ShardedCorpusBuilder::finish) returns a resident corpus,
//! [`finish_spilled`](ShardedCorpusBuilder::finish_spilled) streams the
//! merged arrays straight back to disk as a [`SpilledCorpus`], bounding
//! peak memory by one segment regardless of corpus size. Every spill
//! failure is an `io::Error` for the caller, never a panic.

use crate::intern::{Interner, TermId};
use crate::prepared::PreparedCorpus;
use crate::tokenize::for_each_token;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The nine `u32` arrays behind a [`PreparedCorpus`], in canonical (spill
/// file) order.
const ARRAY_COUNT: usize = 9;

/// Terms a vocabulary is first sized for, local or merged, so that a
/// one-segment corpus's interner grows exactly as a merged one's does.
const VOCAB_CAPACITY: usize = 1024;

/// The arrays that start with a 0 (the three offset arrays and
/// `comment_starts`): segments keep their own, and a merge drops all but
/// one global leading 0.
const OFFSET_ARRAYS: [usize; 4] = [1, 5, 7, 8];

/// The arrays behind a [`PreparedCorpus`]; its fields document them.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ArraySet {
    pub(crate) doc_tokens: Vec<u32>,
    pub(crate) doc_offsets: Vec<u32>,
    pub(crate) text_starts: Vec<u32>,
    pub(crate) dt_terms: Vec<u32>,
    pub(crate) dt_counts: Vec<u32>,
    pub(crate) dt_offsets: Vec<u32>,
    pub(crate) comment_tokens: Vec<u32>,
    pub(crate) comment_offsets: Vec<u32>,
    pub(crate) comment_starts: Vec<u32>,
}

impl ArraySet {
    /// The arrays of no documents: each offset array holds its leading 0.
    fn empty() -> ArraySet {
        let mut arrays = ArraySet::default();
        for i in OFFSET_ARRAYS {
            arrays.as_muts()[i].push(0);
        }
        arrays
    }

    fn as_refs(&self) -> [&Vec<u32>; ARRAY_COUNT] {
        [
            &self.doc_tokens,
            &self.doc_offsets,
            &self.text_starts,
            &self.dt_terms,
            &self.dt_counts,
            &self.dt_offsets,
            &self.comment_tokens,
            &self.comment_offsets,
            &self.comment_starts,
        ]
    }

    fn lens(&self) -> [u64; ARRAY_COUNT] {
        self.as_refs().map(|a| a.len() as u64)
    }

    fn as_muts(&mut self) -> [&mut Vec<u32>; ARRAY_COUNT] {
        [
            &mut self.doc_tokens,
            &mut self.doc_offsets,
            &mut self.text_starts,
            &mut self.dt_terms,
            &mut self.dt_counts,
            &mut self.dt_offsets,
            &mut self.comment_tokens,
            &mut self.comment_offsets,
            &mut self.comment_starts,
        ]
    }

    fn bytes(&self) -> usize {
        self.as_refs().iter().map(|a| a.len() * 4).sum()
    }
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_spill_path(label: &str) -> PathBuf {
    let id = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mass-{label}-{}-{id}.bin", std::process::id()))
}

/// Creates a spill file, naming its path in any error.
fn create_spill(path: &Path) -> io::Result<File> {
    File::create(path)
        .map_err(|e| io::Error::new(e.kind(), format!("spill file {}: {e}", path.display())))
}

/// An owned temp file that is deleted on drop.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn write_u32s(w: &mut impl Write, data: &[u32]) -> io::Result<()> {
    // Chunked LE encode: bounded scratch, no per-element write calls.
    let mut buf = [0u8; 4 * 4096];
    for chunk in data.chunks(4096) {
        for (i, &v) in chunk.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 4])?;
    }
    Ok(())
}

fn read_u32s(r: &mut impl Read, len: usize) -> io::Result<Vec<u32>> {
    let mut out = Vec::with_capacity(len);
    read_u32s_into(r, len, &mut out)?;
    Ok(out)
}

/// Appends `len` LE `u32`s read from `r` to `out`.
fn read_u32s_into(r: &mut impl Read, len: usize, out: &mut Vec<u32>) -> io::Result<()> {
    out.reserve(len);
    let mut buf = [0u8; 4 * 4096];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(4096);
        r.read_exact(&mut buf[..take * 4])?;
        for i in 0..take {
            out.push(u32::from_le_bytes(
                buf[i * 4..i * 4 + 4].try_into().unwrap(),
            ));
        }
        remaining -= take;
    }
    Ok(())
}

/// Where a segment's arrays currently live.
#[derive(Debug)]
enum SegmentStore {
    Resident(ArraySet),
    /// Arrays on disk as blocks appended back to back: each block holds
    /// the nine arrays in canonical order (raw LE u32), and `blocks` keeps
    /// each block's nine lengths. The blocks concatenate, array by array,
    /// to the segment's arrays.
    Spilled {
        file: SpillFile,
        blocks: Vec<[u64; ARRAY_COUNT]>,
    },
}

impl SegmentStore {
    /// Each array's total length.
    fn lens(&self) -> [u64; ARRAY_COUNT] {
        match self {
            SegmentStore::Resident(a) => a.lens(),
            SegmentStore::Spilled { blocks, .. } => {
                let mut total = [0u64; ARRAY_COUNT];
                for block in blocks {
                    for (t, l) in total.iter_mut().zip(block) {
                        *t += l;
                    }
                }
                total
            }
        }
    }
}

/// A segment spill file being appended to, one block at a time.
#[derive(Debug)]
struct BlockWriter {
    file: SpillFile,
    out: BufWriter<File>,
    blocks: Vec<[u64; ARRAY_COUNT]>,
}

impl BlockWriter {
    fn create() -> io::Result<BlockWriter> {
        let file = SpillFile {
            path: fresh_spill_path("segment"),
        };
        let out = BufWriter::new(create_spill(&file.path)?);
        Ok(BlockWriter {
            file,
            out,
            blocks: Vec::new(),
        })
    }

    fn append(&mut self, arrays: &ArraySet) -> io::Result<()> {
        for a in arrays.as_refs() {
            write_u32s(&mut self.out, a)?;
        }
        self.blocks.push(arrays.lens());
        Ok(())
    }

    fn finish(mut self) -> io::Result<SegmentStore> {
        self.out.flush()?;
        Ok(SegmentStore::Spilled {
            file: self.file,
            blocks: self.blocks,
        })
    }
}

/// One shard's tokenized, locally-interned slice of the corpus.
#[derive(Debug)]
pub struct CorpusSegment {
    vocab: Interner,
    post_vocab_len: u32,
    posts: usize,
    comments: usize,
    store: SegmentStore,
}

impl CorpusSegment {
    /// Number of post documents in the segment.
    pub fn posts(&self) -> usize {
        self.posts
    }

    /// Number of comments in the segment.
    pub fn comments(&self) -> usize {
        self.comments
    }

    /// Distinct terms in the segment's local vocabulary.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Bytes of array data currently resident in memory (0 once spilled;
    /// the local vocabulary always stays resident).
    pub fn resident_bytes(&self) -> usize {
        match &self.store {
            SegmentStore::Resident(a) => a.bytes(),
            SegmentStore::Spilled { .. } => 0,
        }
    }

    /// Bytes of array data on disk (0 while resident).
    fn spilled_bytes(&self) -> usize {
        match &self.store {
            SegmentStore::Resident(_) => 0,
            SegmentStore::Spilled { .. } => self.store.lens().iter().sum::<u64>() as usize * 4,
        }
    }

    /// Moves the segment's arrays to a temp file, freeing their memory.
    /// No-op if already spilled.
    pub fn spill(&mut self) -> io::Result<usize> {
        let SegmentStore::Resident(arrays) = &self.store else {
            return Ok(0);
        };
        let mut w = BlockWriter::create()?;
        w.append(arrays)?;
        let bytes = arrays.bytes();
        self.store = w.finish()?;
        Ok(bytes)
    }

    /// The segment's arrays: a resident segment's by value, a spilled
    /// one's read back from its blocks in order.
    fn into_arrays(self) -> io::Result<ArraySet> {
        let total = self.store.lens();
        match self.store {
            SegmentStore::Resident(a) => Ok(a),
            SegmentStore::Spilled { file, blocks } => {
                let mut r = BufReader::new(File::open(&file.path)?);
                let mut arrays = ArraySet::default();
                for (a, &len) in arrays.as_muts().into_iter().zip(&total) {
                    a.reserve_exact(len as usize);
                }
                for block in &blocks {
                    for (a, &len) in arrays.as_muts().into_iter().zip(block) {
                        read_u32s_into(&mut r, len as usize, a)?;
                    }
                }
                Ok(arrays)
            }
        }
    }
}

/// Incrementally tokenizes one shard's documents into a [`CorpusSegment`].
///
/// Call order mirrors the global interning phases: every
/// [`add_post`](SegmentBuilder::add_post), then
/// [`seal_posts`](SegmentBuilder::seal_posts), then one
/// [`add_post_comments`](SegmentBuilder::add_post_comments) per post (in
/// post order), then [`finish`](SegmentBuilder::finish).
///
/// Whenever the arrays exceed the spill budget, they are appended as one
/// block to the segment's spill file and cleared, keeping their capacity.
/// Offsets are kept relative to the segment through running bases, so the
/// blocks concatenate to exactly the arrays an unbounded build holds. A
/// segment streams iff its arrays total more than the budget — exactly
/// the segments [`ShardedCorpusBuilder::add_shard`] would spill on
/// arrival — so the spill accounting is the same either way.
#[derive(Debug)]
pub struct SegmentBuilder {
    vocab: Interner,
    post_vocab_len: Option<u32>,
    arrays: ArraySet,
    /// Segment-relative positions of the arrays' first elements: the
    /// lengths of `doc_tokens`, `dt_terms` and `comment_tokens` already
    /// flushed to `spill`.
    base_doc_tokens: usize,
    base_dt: usize,
    base_comment_tokens: usize,
    posts: usize,
    comments: usize,
    comment_posts: usize,
    row: Vec<u32>,
    /// Reuse buffer of the tokenizer.
    scratch: String,
    spill_budget: usize,
    spill: Option<BlockWriter>,
}

impl SegmentBuilder {
    /// An empty builder that streams its arrays to a spill file whenever
    /// they exceed `spill_budget` bytes (`usize::MAX` = never).
    pub fn new(spill_budget: usize) -> SegmentBuilder {
        SegmentBuilder {
            vocab: Interner::with_capacity(VOCAB_CAPACITY),
            post_vocab_len: None,
            arrays: ArraySet::empty(),
            base_doc_tokens: 0,
            base_dt: 0,
            base_comment_tokens: 0,
            posts: 0,
            comments: 0,
            comment_posts: 0,
            row: Vec::new(),
            scratch: String::new(),
            spill_budget,
            spill: None,
        }
    }

    /// Appends the arrays to the spill file as one block and clears them,
    /// advancing the running bases past what was written.
    fn flush_block(&mut self) -> io::Result<()> {
        let w = match &mut self.spill {
            Some(w) => w,
            None => self.spill.insert(BlockWriter::create()?),
        };
        w.append(&self.arrays)?;
        let a = &mut self.arrays;
        self.base_doc_tokens += a.doc_tokens.len();
        self.base_dt += a.dt_terms.len();
        self.base_comment_tokens += a.comment_tokens.len();
        for v in a.as_muts() {
            v.clear();
        }
        Ok(())
    }

    fn enforce_budget(&mut self) -> io::Result<()> {
        if self.arrays.bytes() > self.spill_budget {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Tokenizes and interns one post document (title + body), stopwords
    /// removed. Fails only if a block flush fails.
    ///
    /// # Panics
    /// Panics if called after [`seal_posts`](SegmentBuilder::seal_posts).
    pub fn add_post(&mut self, title: &str, text: &str) -> io::Result<()> {
        assert!(
            self.post_vocab_len.is_none(),
            "add_post after seal_posts breaks the phase split"
        );
        let (a, vocab, scratch) = (&mut self.arrays, &mut self.vocab, &mut self.scratch);
        let start = a.doc_tokens.len();
        for_each_token(title, false, scratch, |t| {
            a.doc_tokens.push(vocab.intern(t))
        });
        let text_start = a.doc_tokens.len();
        for_each_token(text, false, scratch, |t| a.doc_tokens.push(vocab.intern(t)));
        let base = self.base_doc_tokens;
        a.text_starts.push((base + text_start) as u32);
        a.doc_offsets.push((base + a.doc_tokens.len()) as u32);
        // Run-length encode the locally-sorted row; the merge re-sorts it
        // under global ids.
        self.row.clear();
        self.row.extend_from_slice(&a.doc_tokens[start..]);
        self.row.sort_unstable();
        let mut i = 0;
        while i < self.row.len() {
            let term = self.row[i];
            let mut j = i + 1;
            while j < self.row.len() && self.row[j] == term {
                j += 1;
            }
            a.dt_terms.push(term);
            a.dt_counts.push((j - i) as u32);
            i = j;
        }
        a.dt_offsets.push((self.base_dt + a.dt_terms.len()) as u32);
        self.posts += 1;
        self.enforce_budget()
    }

    /// Ends the post phase, recording how much local vocabulary it minted.
    pub fn seal_posts(&mut self) {
        assert!(self.post_vocab_len.is_none(), "seal_posts called twice");
        self.post_vocab_len = Some(self.vocab.len() as u32);
    }

    /// Tokenizes the comments of the next post (stopwords kept). Must be
    /// called once per post added, in post order, after
    /// [`seal_posts`](SegmentBuilder::seal_posts); posts without comments
    /// take an empty iterator. Fails only if a block flush fails.
    pub fn add_post_comments<'a>(
        &mut self,
        texts: impl IntoIterator<Item = &'a str>,
    ) -> io::Result<()> {
        assert!(
            self.post_vocab_len.is_some(),
            "add_post_comments before seal_posts breaks the phase split"
        );
        let (a, vocab, scratch) = (&mut self.arrays, &mut self.vocab, &mut self.scratch);
        for text in texts {
            for_each_token(text, true, scratch, |t| {
                a.comment_tokens.push(vocab.intern(t))
            });
            a.comment_offsets
                .push((self.base_comment_tokens + a.comment_tokens.len()) as u32);
            self.comments += 1;
        }
        a.comment_starts.push(self.comments as u32);
        self.comment_posts += 1;
        self.enforce_budget()
    }

    /// Seals the segment. Once any block has streamed, the rest of the
    /// arrays follow it and the segment arrives spilled. Fails if that
    /// last flush fails.
    ///
    /// # Panics
    /// Panics unless [`seal_posts`](SegmentBuilder::seal_posts) ran and
    /// every post received its
    /// [`add_post_comments`](SegmentBuilder::add_post_comments) call.
    pub fn finish(mut self) -> io::Result<CorpusSegment> {
        let post_vocab_len = self.post_vocab_len.expect("finish before seal_posts");
        assert_eq!(
            self.comment_posts, self.posts,
            "every post needs an add_post_comments call"
        );
        let bytes = self.arrays.bytes();
        let store = if self.spill.is_some() || bytes > self.spill_budget {
            if bytes > 0 {
                self.flush_block()?;
            }
            self.spill.take().expect("flushed above").finish()?
        } else {
            SegmentStore::Resident(self.arrays)
        };
        Ok(CorpusSegment {
            vocab: self.vocab,
            post_vocab_len,
            posts: self.posts,
            comments: self.comments,
            store,
        })
    }
}

/// Spill accounting, reported by [`ShardedCorpusBuilder`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Segments whose arrays were written to temp files.
    pub segments_spilled: usize,
    /// Bytes of array data moved out of memory.
    pub bytes_spilled: usize,
}

/// Merges [`CorpusSegment`]s (any arrival order) into one corpus equal to
/// one segment over the concatenated document stream.
#[derive(Debug)]
pub struct ShardedCorpusBuilder {
    /// `(shard index, segment)`, sorted by index at merge time.
    segments: Vec<(usize, CorpusSegment)>,
    spill_budget: usize,
    resident_bytes: usize,
    stats: SpillStats,
}

impl ShardedCorpusBuilder {
    /// A builder that spills segment arrays to temp files whenever the
    /// resident total exceeds `spill_budget` bytes (`usize::MAX` = never
    /// spill).
    pub fn new(spill_budget: usize) -> ShardedCorpusBuilder {
        ShardedCorpusBuilder {
            segments: Vec::new(),
            spill_budget,
            resident_bytes: 0,
            stats: SpillStats::default(),
        }
    }

    /// Adds shard `index`'s segment. Indices must be unique and, at merge
    /// time, form a dense `0..shards` range; arrival order is free. A
    /// segment that streamed to disk while it was built counts as spilled
    /// here, just as if this builder had spilled it on arrival. Fails if
    /// spilling a segment to keep within the budget fails.
    pub fn add_shard(&mut self, index: usize, segment: CorpusSegment) -> io::Result<()> {
        assert!(
            self.segments.iter().all(|(i, _)| *i != index),
            "shard {index} added twice"
        );
        if let bytes @ 1.. = segment.spilled_bytes() {
            self.stats.segments_spilled += 1;
            self.stats.bytes_spilled += bytes;
        }
        self.resident_bytes += segment.resident_bytes();
        self.segments.push((index, segment));
        self.enforce_budget()
    }

    /// Spill accounting so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Bytes of segment array data currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    fn enforce_budget(&mut self) -> io::Result<()> {
        while self.resident_bytes > self.spill_budget {
            // Spill the largest resident segment first: fewest files for the
            // most relief. Ties break on lowest index for determinism.
            let victim = self
                .segments
                .iter_mut()
                .filter(|(_, s)| s.resident_bytes() > 0)
                .max_by_key(|(i, s)| (s.resident_bytes(), usize::MAX - *i));
            let Some((_, seg)) = victim else { break };
            let freed = seg.spill()?;
            self.resident_bytes -= freed;
            self.stats.segments_spilled += 1;
            self.stats.bytes_spilled += freed;
        }
        Ok(())
    }

    /// Sorts segments by shard index and validates density.
    fn ordered(mut self) -> Vec<CorpusSegment> {
        self.segments.sort_by_key(|(i, _)| *i);
        for (expect, (got, _)) in self.segments.iter().enumerate() {
            assert_eq!(*got, expect, "shard indices must form a dense 0..n range");
        }
        self.segments.into_iter().map(|(_, s)| s).collect()
    }

    /// Builds the global vocabulary (post-phase terms of every shard in
    /// order, then comment-phase terms) and the per-segment local→global id
    /// remap tables. A lone segment's vocabulary already is in that order,
    /// so it moves over whole.
    fn merge_vocab(segments: &mut [CorpusSegment]) -> (Interner, Vec<Vec<TermId>>) {
        if let [only] = segments {
            let vocab = std::mem::take(&mut only.vocab);
            let identity = (0..vocab.len() as TermId).collect();
            return (vocab, vec![identity]);
        }
        let mut global = Interner::with_capacity(VOCAB_CAPACITY);
        let mut remaps: Vec<Vec<TermId>> = segments
            .iter()
            .map(|s| Vec::with_capacity(s.vocab.len()))
            .collect();
        for (seg, remap) in segments.iter().zip(remaps.iter_mut()) {
            for id in 0..seg.post_vocab_len {
                remap.push(global.intern(seg.vocab.resolve(id)));
            }
        }
        for (seg, remap) in segments.iter().zip(remaps.iter_mut()) {
            for id in seg.post_vocab_len..seg.vocab.len() as u32 {
                remap.push(global.intern(seg.vocab.resolve(id)));
            }
        }
        (global, remaps)
    }

    /// Each merged array's length: the segments' arrays back to back, less
    /// the leading 0 each offset array drops, plus the one global leading 0.
    fn merged_lens(segments: &[CorpusSegment]) -> [u64; ARRAY_COUNT] {
        let mut lens = [0u64; ARRAY_COUNT];
        for i in OFFSET_ARRAYS {
            lens[i] = 1;
        }
        for seg in segments {
            for (i, (total, len)) in lens.iter_mut().zip(seg.store.lens()).enumerate() {
                *total += len - u64::from(OFFSET_ARRAYS.contains(&i));
            }
        }
        lens
    }

    /// Remaps one segment's term ids to global ids and rebases its offsets
    /// past the segments before it, in place. Its offset arrays keep their
    /// leading 0: the first segment's is the merged arrays' own, and the
    /// others' are skipped on the way out.
    fn remap_segment(
        a: &mut ArraySet,
        remap: &[TermId],
        post_vocab_len: u32,
        cursor: &mut MergeCursor,
    ) {
        let fixed = |ids: Range<u32>| ids.into_iter().all(|id| remap[id as usize] == id);
        // Post documents hold only post-phase ids; the first segment's
        // keep their values, so its documents and rows stay as they are.
        if !fixed(0..post_vocab_len) {
            for t in &mut a.doc_tokens {
                *t = remap[*t as usize];
            }
            // Re-sort every document-term row under global ids (terms
            // within a row are distinct, so (term, count) pairs keep their
            // counts).
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for w in a.dt_offsets.windows(2) {
                let row = w[0] as usize..w[1] as usize;
                pairs.clear();
                pairs.extend(
                    a.dt_terms[row.clone()]
                        .iter()
                        .zip(&a.dt_counts[row.clone()])
                        .map(|(&t, &c)| (remap[t as usize], c)),
                );
                pairs.sort_unstable();
                let slots = a.dt_terms[row.clone()]
                    .iter_mut()
                    .zip(&mut a.dt_counts[row]);
                for ((t, c), &(term, count)) in slots.zip(&pairs) {
                    (*t, *c) = (term, count);
                }
            }
        }
        if !fixed(0..remap.len() as u32) {
            for t in &mut a.comment_tokens {
                *t = remap[*t as usize];
            }
        }
        let rebase = |v: &mut Vec<u32>, by: u32| v.iter_mut().for_each(|x| *x += by);
        rebase(&mut a.doc_offsets, cursor.doc_tokens);
        rebase(&mut a.text_starts, cursor.doc_tokens);
        rebase(&mut a.dt_offsets, cursor.dt);
        rebase(&mut a.comment_offsets, cursor.comment_tokens);
        rebase(&mut a.comment_starts, cursor.comments);
        cursor.doc_tokens += a.doc_tokens.len() as u32;
        cursor.dt += a.dt_terms.len() as u32;
        cursor.comment_tokens += a.comment_tokens.len() as u32;
        cursor.comments += (a.comment_offsets.len() - 1) as u32;
    }

    /// The part of array `i` of a remapped segment that a merge appends.
    fn appended(i: usize, data: &[u32]) -> &[u32] {
        &data[usize::from(OFFSET_ARRAYS.contains(&i))..]
    }

    /// Merges all segments into a resident [`PreparedCorpus`], bit-identical
    /// to one segment over the same document stream. Resident segments are
    /// consumed, not copied: the first one's arrays become the merged
    /// arrays, and the others are appended to them. Fails if a spilled
    /// segment cannot be read back.
    pub fn finish(self) -> io::Result<PreparedCorpus> {
        let mut segments = self.ordered();
        let (global, remaps) = Self::merge_vocab(&mut segments);
        let lens = Self::merged_lens(&segments);
        let mut merged: Option<ArraySet> = None;
        let mut cursor = MergeCursor::default();
        for (seg, remap) in segments.into_iter().zip(&remaps) {
            let post_vocab_len = seg.post_vocab_len;
            let mut arrays = seg.into_arrays()?;
            Self::remap_segment(&mut arrays, remap, post_vocab_len, &mut cursor);
            match &mut merged {
                None => {
                    for (v, &len) in arrays.as_muts().into_iter().zip(&lens) {
                        v.reserve_exact(len as usize - v.len());
                    }
                    merged = Some(arrays);
                }
                Some(m) => {
                    let parts = m.as_muts().into_iter().zip(arrays.as_refs());
                    for (i, (v, data)) in parts.enumerate() {
                        v.extend_from_slice(Self::appended(i, data));
                    }
                }
            }
        }
        let arrays = merged.unwrap_or_else(ArraySet::empty);
        Ok(PreparedCorpus::from_parts(global, arrays))
    }

    /// Merges all segments straight to disk: peak memory is one segment's
    /// arrays plus the global vocabulary, independent of corpus size.
    pub fn finish_spilled(self) -> io::Result<SpilledCorpus> {
        let mut stats = self.stats;
        let mut segments = self.ordered();
        let (global, remaps) = Self::merge_vocab(&mut segments);
        // Make sure nothing large is resident while merging.
        for seg in segments.iter_mut() {
            let freed = seg.spill()?;
            if freed > 0 {
                stats.segments_spilled += 1;
                stats.bytes_spilled += freed;
            }
        }
        // Total lengths are known up front, so the output header and section
        // layout can be written before streaming the data.
        let lens = Self::merged_lens(&segments);
        let posts = segments.iter().map(|s| s.posts).sum();
        let comments = segments.iter().map(|s| s.comments).sum();
        let file = SpillFile {
            path: fresh_spill_path("corpus"),
        };
        let out = create_spill(&file.path)?;
        let mut w = BufWriter::new(out);
        for &l in &lens {
            w.write_all(&l.to_le_bytes())?;
        }
        // Section byte offsets within the file (after the header).
        let header = (ARRAY_COUNT * 8) as u64;
        let mut section_start = [0u64; ARRAY_COUNT];
        let mut acc = header;
        for i in 0..ARRAY_COUNT {
            section_start[i] = acc;
            acc += lens[i] * 4;
        }
        w.flush()?;
        let mut out = w.into_inner().map_err(|e| e.into_error())?;
        out.set_len(acc)?;
        // Write cursor per section; seed the restored leading zeros.
        let mut write_at = section_start;
        for i in OFFSET_ARRAYS {
            out.seek(SeekFrom::Start(write_at[i]))?;
            out.write_all(&0u32.to_le_bytes())?;
            write_at[i] += 4;
        }
        let mut cursor = MergeCursor::default();
        for (seg, remap) in segments.into_iter().zip(&remaps) {
            let post_vocab_len = seg.post_vocab_len;
            let mut arrays = seg.into_arrays()?;
            Self::remap_segment(&mut arrays, remap, post_vocab_len, &mut cursor);
            for (i, data) in arrays.as_refs().into_iter().enumerate() {
                let data = Self::appended(i, data);
                out.seek(SeekFrom::Start(write_at[i]))?;
                let mut bw = BufWriter::new(&mut out);
                write_u32s(&mut bw, data)?;
                bw.flush()?;
                write_at[i] += data.len() as u64 * 4;
            }
        }
        out.sync_all()?;
        Ok(SpilledCorpus {
            vocab: global,
            file,
            lens,
            posts,
            comments,
            stats,
        })
    }
}

/// Running totals while appending segments to the merged layout.
#[derive(Debug, Default)]
struct MergeCursor {
    doc_tokens: u32,
    dt: u32,
    comment_tokens: u32,
    comments: u32,
}

/// A merged corpus whose arrays live on disk: the resident footprint is the
/// vocabulary plus O(1) metadata. [`load`](SpilledCorpus::load) materialises
/// it as a [`PreparedCorpus`] for verification at small scales.
#[derive(Debug)]
pub struct SpilledCorpus {
    vocab: Interner,
    file: SpillFile,
    lens: [u64; ARRAY_COUNT],
    posts: usize,
    comments: usize,
    stats: SpillStats,
}

impl SpilledCorpus {
    /// Number of post documents.
    pub fn posts(&self) -> usize {
        self.posts
    }

    /// Number of comments.
    pub fn comments(&self) -> usize {
        self.comments
    }

    /// Distinct terms in the merged vocabulary.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Total token occurrences (posts + comments).
    pub fn total_tokens(&self) -> usize {
        (self.lens[0] + self.lens[6]) as usize
    }

    /// Bytes of array data in the on-disk layout.
    pub fn file_bytes(&self) -> u64 {
        self.lens.iter().sum::<u64>() * 4 + (ARRAY_COUNT * 8) as u64
    }

    /// Spill accounting accumulated while building.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Reads the merged arrays back into a resident [`PreparedCorpus`].
    ///
    /// The file is not trusted: a header that differs from this handle's
    /// lengths, a file whose size disagrees with its header, an offset
    /// array that is not monotone or does not end at its data array's
    /// length, or a term id outside the vocabulary is an
    /// [`io::ErrorKind::InvalidData`] error, never a panic.
    pub fn load(&self) -> io::Result<PreparedCorpus> {
        let file = File::open(&self.file.path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        let mut header = [0u8; ARRAY_COUNT * 8];
        r.read_exact(&mut header)?;
        let mut lens = [0u64; ARRAY_COUNT];
        for (i, l) in lens.iter_mut().enumerate() {
            *l = u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().unwrap());
        }
        if lens != self.lens {
            return Err(invalid(format!(
                "spill header lengths {lens:?} differ from the corpus's {:?}",
                self.lens
            )));
        }
        let needed = lens.iter().try_fold(header.len() as u64, |acc, &l| {
            l.checked_mul(4).and_then(|bytes| acc.checked_add(bytes))
        });
        if needed != Some(file_len) {
            return Err(invalid(format!(
                "spill file is {file_len} bytes, its header needs {lens:?} u32s"
            )));
        }
        let mut arrays = ArraySet::default();
        for (a, &l) in arrays.as_muts().into_iter().zip(&lens) {
            *a = read_u32s(&mut r, l as usize)?;
        }
        let corpus = PreparedCorpus::from_parts(self.vocab.clone(), arrays);
        corpus.check_layout().map_err(invalid)?;
        Ok(corpus)
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceCorpus;
    use mass_types::{Dataset, DatasetBuilder};

    /// Builds a segment per blogger-range the same way streamed ingest does,
    /// from an in-memory dataset (posts grouped by author in order).
    fn segment_for_posts(ds: &Dataset, posts: std::ops::Range<usize>) -> CorpusSegment {
        segment_with_budget(ds, posts, usize::MAX)
    }

    fn segment_with_budget(
        ds: &Dataset,
        posts: std::ops::Range<usize>,
        budget: usize,
    ) -> CorpusSegment {
        let mut b = SegmentBuilder::new(budget);
        for k in posts.clone() {
            b.add_post(&ds.posts[k].title, &ds.posts[k].text).unwrap();
        }
        b.seal_posts();
        for k in posts {
            b.add_post_comments(ds.posts[k].comments.iter().map(|c| c.text.as_str()))
                .unwrap();
        }
        b.finish().unwrap()
    }

    fn sample(posts: usize) -> Dataset {
        let mut b = DatasetBuilder::new();
        let n = 6;
        let ids: Vec<_> = (0..n).map(|i| b.blogger(format!("b{i}"))).collect();
        for k in 0..posts {
            let author = ids[k % n];
            let p = b.post(
                author,
                format!("title{} hotel shared", k % 5),
                format!(
                    "travel word{} flight beach shared vocabulary post number {k}",
                    k % 7
                ),
            );
            // Comments introduce vocabulary that sometimes reappears in
            // later posts, exercising the cross-phase interning order.
            b.comment(
                p,
                ids[(k + 1) % n],
                format!("I agree about word{} and beach", (k + 3) % 7),
                None,
            );
            if k % 3 == 0 {
                b.comment(
                    p,
                    ids[(k + 2) % n],
                    format!("fresh comment{} term", k),
                    None,
                );
            }
        }
        b.build().unwrap()
    }

    fn split(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
        let base = n / shards;
        let extra = n % shards;
        let mut out = Vec::new();
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            out.push(start..start + len);
            start += len;
        }
        out
    }

    #[test]
    fn sharded_merge_equals_in_memory_build() {
        let ds = sample(40);
        let want = ReferenceCorpus::build(&ds);
        for shards in [1usize, 2, 3, 7, 40, 64] {
            let mut b = ShardedCorpusBuilder::new(usize::MAX);
            for (i, r) in split(ds.posts.len(), shards).into_iter().enumerate() {
                b.add_shard(i, segment_for_posts(&ds, r)).unwrap();
            }
            let got = b.finish().unwrap();
            assert_eq!(want.diff(&got), None, "mismatch at {shards} shards");
            assert!(got == PreparedCorpus::build(&ds, 1), "{shards} shards");
        }
    }

    #[test]
    fn merge_is_shard_arrival_order_independent() {
        let ds = sample(30);
        let ranges = split(ds.posts.len(), 5);
        let mut forward = ShardedCorpusBuilder::new(usize::MAX);
        for (i, r) in ranges.iter().enumerate() {
            forward
                .add_shard(i, segment_for_posts(&ds, r.clone()))
                .unwrap();
        }
        let mut backward = ShardedCorpusBuilder::new(usize::MAX);
        for (i, r) in ranges.iter().enumerate().rev() {
            backward
                .add_shard(i, segment_for_posts(&ds, r.clone()))
                .unwrap();
        }
        assert!(forward.finish().unwrap() == backward.finish().unwrap());
    }

    #[test]
    fn spilled_segments_merge_identically() {
        let ds = sample(36);
        let want = ReferenceCorpus::build(&ds);
        // Budget 0: every segment spills on arrival.
        let mut b = ShardedCorpusBuilder::new(0);
        for (i, r) in split(ds.posts.len(), 4).into_iter().enumerate() {
            b.add_shard(i, segment_for_posts(&ds, r)).unwrap();
        }
        assert_eq!(b.stats().segments_spilled, 4);
        assert!(b.stats().bytes_spilled > 0);
        assert_eq!(b.resident_bytes(), 0);
        assert_eq!(want.diff(&b.finish().unwrap()), None);
    }

    #[test]
    fn finish_spilled_roundtrips_bit_identically() {
        let ds = sample(36);
        let want = PreparedCorpus::build(&ds, 1);
        assert_eq!(ReferenceCorpus::build(&ds).diff(&want), None);
        for budget in [0usize, usize::MAX] {
            let mut b = ShardedCorpusBuilder::new(budget);
            for (i, r) in split(ds.posts.len(), 3).into_iter().enumerate() {
                b.add_shard(i, segment_for_posts(&ds, r)).unwrap();
            }
            let spilled = b.finish_spilled().unwrap();
            assert_eq!(spilled.posts(), ds.posts.len());
            assert_eq!(spilled.vocab_len(), want.vocab_len());
            assert_eq!(spilled.total_tokens(), want.total_tokens());
            assert!(spilled.file_bytes() > 0);
            let got = spilled.load().unwrap();
            assert!(got == want, "budget {budget}");
        }
    }

    #[test]
    fn spill_files_are_deleted_on_drop() {
        let ds = sample(12);
        let mut seg = segment_for_posts(&ds, 0..12);
        seg.spill().unwrap();
        let path = match &seg.store {
            SegmentStore::Spilled { file, .. } => file.path.clone(),
            _ => unreachable!(),
        };
        assert!(path.exists());
        drop(seg);
        assert!(!path.exists(), "spill file leaked: {path:?}");
        // A builder dropped mid-stream deletes its partial file too.
        let mut b = SegmentBuilder::new(0);
        b.add_post("t", "streamed body").unwrap();
        let path = b.spill.as_ref().expect("streamed").file.path.clone();
        assert!(path.exists());
        drop(b);
        assert!(!path.exists(), "partial spill file leaked: {path:?}");
    }

    #[test]
    fn streamed_segments_equal_resident_ones() {
        let ds = sample(60);
        let n = ds.posts.len();
        let resident = segment_for_posts(&ds, 0..n);
        let (posts, comments) = (resident.posts(), resident.comments());
        let want = resident.into_arrays().unwrap();
        for budget in [0usize, 64, 1024, 4096, want.bytes() - 1] {
            let seg = segment_with_budget(&ds, 0..n, budget);
            let SegmentStore::Spilled { blocks, .. } = &seg.store else {
                panic!("budget {budget} never streamed");
            };
            assert!(budget > 1024 || blocks.len() > 1, "budget {budget}");
            assert_eq!(seg.posts(), posts);
            assert_eq!(seg.comments(), comments);
            assert_eq!(seg.spilled_bytes(), want.bytes());
            assert_eq!(seg.into_arrays().unwrap(), want, "budget {budget}");
        }
        // At or above the segment's size it never streams.
        for budget in [want.bytes(), usize::MAX] {
            let seg = segment_with_budget(&ds, 0..n, budget);
            assert_eq!(seg.resident_bytes(), want.bytes(), "budget {budget}");
        }
    }

    #[test]
    fn streaming_keeps_the_spill_accounting() {
        // A segment that streams while it builds is counted exactly as the
        // builder's own budget would have spilled it on arrival.
        let ds = sample(90);
        let ranges = split(ds.posts.len(), 5);
        let want = ReferenceCorpus::build(&ds);
        let bytes: Vec<usize> = ranges
            .iter()
            .map(|r| segment_for_posts(&ds, r.clone()).resident_bytes())
            .collect();
        let (lo, hi) = (*bytes.iter().min().unwrap(), *bytes.iter().max().unwrap());
        for budget in [0, lo - 1, lo, (lo + hi) / 2, hi, 2 * hi, usize::MAX] {
            let mut at_arrival = ShardedCorpusBuilder::new(budget);
            let mut streamed = ShardedCorpusBuilder::new(budget);
            for (i, r) in ranges.iter().enumerate() {
                at_arrival
                    .add_shard(i, segment_for_posts(&ds, r.clone()))
                    .unwrap();
                streamed
                    .add_shard(i, segment_with_budget(&ds, r.clone(), budget))
                    .unwrap();
            }
            assert_eq!(streamed.stats(), at_arrival.stats(), "budget {budget}");
            assert_eq!(streamed.resident_bytes(), at_arrival.resident_bytes());
            assert_eq!(
                want.diff(&streamed.finish().unwrap()),
                None,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn empty_segments_are_harmless() {
        let ds = sample(10);
        let want = ReferenceCorpus::build(&ds);
        let mut b = ShardedCorpusBuilder::new(usize::MAX);
        b.add_shard(0, segment_for_posts(&ds, 0..10)).unwrap();
        for i in 1..4 {
            b.add_shard(i, segment_for_posts(&ds, 10..10)).unwrap();
        }
        assert_eq!(want.diff(&b.finish().unwrap()), None);
        // No segments at all merge to the empty corpus.
        let empty = DatasetBuilder::new().build().unwrap();
        let none = ShardedCorpusBuilder::new(usize::MAX).finish().unwrap();
        assert!(none == PreparedCorpus::build(&empty, 1));
        assert_eq!(ReferenceCorpus::build(&empty).diff(&none), None);
    }

    /// splitmix64: a seeded stream for the spill-file fuzz.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Truncates, flips or splices a spilled corpus file `cases` times.
    /// Every load must give `Ok` with a corpus of the same shape whose
    /// accessors all stay in bounds, or an `Err` — never a panic.
    fn fuzz_spilled_load(cases: usize, seed: u64) {
        let ds = sample(40);
        let want = PreparedCorpus::build(&ds, 1);
        let mut b = ShardedCorpusBuilder::new(usize::MAX);
        for (i, r) in split(ds.posts.len(), 3).into_iter().enumerate() {
            b.add_shard(i, segment_for_posts(&ds, r)).unwrap();
        }
        let spilled = b.finish_spilled().unwrap();
        let path = spilled.file.path.clone();
        let clean = fs::read(&path).unwrap();
        let mut rng = seed;
        let (mut ok, mut err) = (0usize, 0usize);
        for case in 0..cases {
            let mut bytes = clean.clone();
            let at = next(&mut rng) as usize % bytes.len();
            match next(&mut rng) % 4 {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= 1 << (next(&mut rng) % 8),
                2 => {
                    // Overwrite a run with bytes from elsewhere in the file.
                    let from = next(&mut rng) as usize % bytes.len();
                    let len = 1 + next(&mut rng) as usize % 64;
                    let n = len.min(bytes.len() - at).min(bytes.len() - from);
                    bytes[at..at + n].copy_from_slice(&clean[from..from + n]);
                }
                _ => {
                    // Insert a run copied from elsewhere.
                    let from = next(&mut rng) as usize % bytes.len();
                    let len = 1 + next(&mut rng) as usize % 64;
                    let run: Vec<u8> = clean[from..(from + len).min(clean.len())].to_vec();
                    bytes.splice(at..at, run);
                }
            }
            fs::write(&path, &bytes).unwrap();
            match spilled.load() {
                Ok(got) => {
                    ok += 1;
                    assert_eq!(got.posts(), want.posts(), "case {case}");
                    assert_eq!(got.total_tokens(), want.total_tokens(), "case {case}");
                    assert_eq!(got.vocab_len(), want.vocab_len(), "case {case}");
                    for k in 0..got.posts() {
                        let _ = got.text_tokens(k);
                        let (terms, counts) = got.doc_terms(k);
                        assert_eq!(terms.len(), counts.len());
                        for &t in got.doc_tokens(k).iter().chain(terms) {
                            let _ = got.resolve(t);
                        }
                        for j in 0..got.comment_count(k) {
                            for &t in got.comment_tokens(k, j) {
                                let _ = got.resolve(t);
                            }
                        }
                    }
                }
                Err(e) => {
                    err += 1;
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "case {case}: unexpected error kind {e:?}"
                    );
                }
            }
        }
        fs::write(&path, &clean).unwrap();
        assert!(spilled.load().unwrap() == want);
        assert!(
            ok > 0 && err > 0,
            "fuzz never took both paths: {ok} ok, {err} err"
        );
    }

    #[test]
    fn corrupt_spill_files_are_errors_not_panics() {
        fuzz_spilled_load(400, 17);
    }

    #[test]
    #[ignore = "release-scale fuzz; run with --release -- --ignored"]
    fn corrupt_spill_files_release_fuzz() {
        fuzz_spilled_load(20_000, 2026);
    }

    #[test]
    fn a_header_that_differs_from_the_handle_is_invalid_data() {
        let ds = sample(12);
        let mut b = ShardedCorpusBuilder::new(usize::MAX);
        b.add_shard(0, segment_for_posts(&ds, 0..12)).unwrap();
        let spilled = b.finish_spilled().unwrap();
        let mut bytes = fs::read(&spilled.file.path).unwrap();
        // A doc_tokens length of 2^62 u32s: unchecked, this reached
        // `Vec::with_capacity` before any byte was read.
        bytes[..8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        fs::write(&spilled.file.path, &bytes).unwrap();
        let e = spilled.load().unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_shard_index_rejected() {
        let ds = sample(4);
        let mut b = ShardedCorpusBuilder::new(usize::MAX);
        b.add_shard(0, segment_for_posts(&ds, 0..2)).unwrap();
        let _ = b.add_shard(0, segment_for_posts(&ds, 2..4));
    }

    #[test]
    #[should_panic(expected = "phase split")]
    fn post_after_seal_rejected() {
        let mut b = SegmentBuilder::new(usize::MAX);
        b.add_post("t", "x").unwrap();
        b.seal_posts();
        let _ = b.add_post("t2", "y");
    }

    #[test]
    #[should_panic(expected = "add_post_comments")]
    fn finish_requires_comment_calls() {
        let mut b = SegmentBuilder::new(usize::MAX);
        b.add_post("t", "x").unwrap();
        b.seal_posts();
        let _ = b.finish();
    }
}
