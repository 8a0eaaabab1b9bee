//! Sharded, out-of-core ingest of a [`CorpusStream`].
//!
//! The XML round-trip (`generate → Dataset → archive → parse → Dataset →
//! PreparedCorpus`) is pointless for synthetic runs: the stream already
//! knows every document. [`ingest_sharded`] turns a stream directly into
//! the analysis substrate — a [`PreparedCorpus`] plus the friend-link
//! [`LinkCsr`] — shard by shard:
//!
//! * Shards are contiguous blogger ranges ([`crate::stream::shard_ranges`]),
//!   built **in parallel**: each wave of up to `threads` shards is a coarse
//!   task list on `mass-par` ([`mass_par::Exec::par_tasks_collect`]), one
//!   shard per thread, results in shard order. Each shard makes a posts
//!   pass (tokenize + intern locally, dropping each body as soon as it is
//!   tokenized) and a comments pass (regenerating comment texts from their
//!   own RNG streams — nothing is buffered between passes).
//! * Segments merge through [`ShardedCorpusBuilder`], whose result is
//!   **bit-identical** to `PreparedCorpus::build` over the materialised
//!   dataset — the differential suite in `mass-core` pins this at 600 and
//!   3000 bloggers across thread, shard and spill-budget settings.
//! * [`IngestOptions::spill_budget`] bounds the segment arrays in memory
//!   twice over. A building shard streams its arrays to its spill file in
//!   blocks whenever they exceed the budget, so each of the shards in
//!   flight holds at most about the budget. Finished segments spill
//!   whenever their resident total exceeds it. [`ingest_sharded_spilled`]
//!   keeps even the *merged* corpus on disk, so peak RSS is bounded by
//!   the merge of one segment plus the vocabulary, regardless of corpus
//!   size (the X16 bench gates this at 1M bloggers).
//! * A spill that fails (an unwritable temp dir, a full disk) is an
//!   `io::Error` for the caller, never a panic.

use crate::stream::CorpusStream;
use mass_graph::{CsrBuilder, LinkCsr};
use mass_text::shard::{SegmentBuilder, ShardedCorpusBuilder, SpillStats, SpilledCorpus};
use mass_text::PreparedCorpus;
use std::io;

/// Knobs for sharded ingest.
#[derive(Clone, Copy, Debug)]
pub struct IngestOptions {
    /// Number of contiguous blogger shards (≥ 1; more shards = smaller
    /// per-shard working set and more parallelism).
    pub shards: usize,
    /// Resident-byte budget for segment arrays before spilling to temp
    /// files, both per building shard and over the finished segments
    /// (`usize::MAX` = never spill).
    pub spill_budget: usize,
    /// Shards built at once, one per thread (0 = auto).
    pub threads: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            shards: 4,
            spill_budget: usize::MAX,
            threads: 0,
        }
    }
}

/// Per-shard accounting — the exactly-once evidence the `mass-par`
/// differential tests assert over.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Bloggers generated per shard (sums to the spec's blogger count).
    pub shard_bloggers: Vec<usize>,
    /// Posts tokenized per shard.
    pub shard_posts: Vec<usize>,
    /// Comments tokenized per shard.
    pub shard_comments: Vec<usize>,
    /// Friend edges emitted per shard.
    pub shard_friend_edges: Vec<usize>,
    /// Spill accounting from the merge.
    pub spill: SpillStats,
}

impl IngestStats {
    /// Total posts across shards.
    pub fn posts(&self) -> usize {
        self.shard_posts.iter().sum()
    }

    /// Total comments across shards.
    pub fn comments(&self) -> usize {
        self.shard_comments.iter().sum()
    }

    /// Total friend edges across shards.
    pub fn friend_edges(&self) -> usize {
        self.shard_friend_edges.iter().sum()
    }
}

/// A stream ingested into the analysis substrate, corpus resident.
#[derive(Debug)]
pub struct StreamIngest {
    /// The interned corpus — equal to `PreparedCorpus::build` over the
    /// materialised dataset.
    pub corpus: PreparedCorpus,
    /// Both views of the friend-link graph — equal to
    /// `LinkCsr::from_digraph` over the materialised friend lists.
    pub friends: LinkCsr,
    /// Per-shard accounting.
    pub stats: IngestStats,
}

/// A stream ingested out-of-core: the merged corpus stays on disk.
#[derive(Debug)]
pub struct SpilledStreamIngest {
    /// The merged corpus handle (arrays on disk, vocabulary resident).
    pub corpus: SpilledCorpus,
    /// Both views of the friend-link graph (resident — O(edges), small).
    pub friends: LinkCsr,
    /// Per-shard accounting.
    pub stats: IngestStats,
}

/// One shard's outputs before merging.
struct ShardOutput {
    segment: mass_text::shard::CorpusSegment,
    friend_rows: mass_graph::Csr,
    bloggers: usize,
    posts: usize,
    comments: usize,
    friend_edges: usize,
}

fn build_shard(
    stream: &CorpusStream,
    range: std::ops::Range<usize>,
    spill_budget: usize,
) -> io::Result<ShardOutput> {
    let mut seg = SegmentBuilder::new(spill_budget);
    let mut friends = CsrBuilder::new();
    let mut posts = 0usize;
    let mut comments = 0usize;
    let mut friend_edges = 0usize;
    let bloggers = range.len();
    // Posts pass: each body is tokenized into the segment and dropped
    // immediately — the shard's working set is its interned arrays.
    for i in range.clone() {
        let latent = stream.latent(i);
        for t in 0..stream.n_posts(i) {
            let content = stream.post_content(i, t, &latent);
            seg.add_post(&content.title, &content.text)?;
            posts += 1;
        }
        let row: Vec<u32> = stream.friends(i).iter().map(|f| f.index() as u32).collect();
        friend_edges += row.len();
        friends.push_row(&row);
    }
    seg.seal_posts();
    // Comments pass: texts are regenerated from their own RNG streams, so
    // nothing was buffered across the passes.
    for i in range {
        let latent = stream.latent(i);
        for t in 0..stream.n_posts(i) {
            let cs = stream.post_comments(i, t, &latent);
            comments += cs.len();
            seg.add_post_comments(cs.iter().map(|c| c.text.as_str()))?;
        }
    }
    Ok(ShardOutput {
        segment: seg.finish()?,
        friend_rows: friends.finish(),
        bloggers,
        posts,
        comments,
        friend_edges,
    })
}

fn ingest_to_builder(
    stream: &CorpusStream,
    opts: &IngestOptions,
) -> io::Result<(ShardedCorpusBuilder, LinkCsr, IngestStats)> {
    let shards = opts.shards.max(1);
    let ranges = stream.shard_ranges(shards);
    let ex = mass_par::executor(opts.threads);
    // Shards are generated in waves of executor width, one shard per
    // thread: collecting every segment before merging would make peak
    // memory linear in corpus size, while a wave keeps at most `width`
    // segments resident (the budget then spills them as each wave lands).
    // Wave boundaries cannot affect the result — segments are merged
    // strictly in shard-index order either way.
    let width = ex.threads();
    let mut builder = ShardedCorpusBuilder::new(opts.spill_budget);
    let mut friend_builder = CsrBuilder::new();
    let mut stats = IngestStats::default();
    let mut next = 0usize;
    while next < shards {
        let wave = width.min(shards - next);
        let base = next;
        let outputs: Vec<io::Result<ShardOutput>> = ex.par_tasks_collect(wave, |k| {
            build_shard(stream, ranges[base + k].clone(), opts.spill_budget)
        });
        for (k, out) in outputs.into_iter().enumerate() {
            let out = out?;
            stats.shard_bloggers.push(out.bloggers);
            stats.shard_posts.push(out.posts);
            stats.shard_comments.push(out.comments);
            stats.shard_friend_edges.push(out.friend_edges);
            friend_builder.append(&out.friend_rows);
            builder.add_shard(base + k, out.segment)?;
        }
        next += wave;
    }
    debug_assert_eq!(friend_builder.rows(), stream.len());
    let friends = LinkCsr::from_successors(friend_builder.finish());
    Ok((builder, friends, stats))
}

/// Ingests `stream` shard-by-shard into a resident [`StreamIngest`].
/// Fails only if spilling a segment to the temp dir, or reading it back,
/// fails.
pub fn ingest_sharded(stream: &CorpusStream, opts: &IngestOptions) -> io::Result<StreamIngest> {
    let (builder, friends, mut stats) = ingest_to_builder(stream, opts)?;
    stats.spill = builder.stats();
    let corpus = builder.finish()?;
    Ok(StreamIngest {
        corpus,
        friends,
        stats,
    })
}

/// Ingests `stream` fully out-of-core: the merged corpus lands on disk and
/// peak memory stays bounded by the shards in flight plus the vocabulary.
/// Fails if any spill to the temp dir fails.
pub fn ingest_sharded_spilled(
    stream: &CorpusStream,
    opts: &IngestOptions,
) -> io::Result<SpilledStreamIngest> {
    let (builder, friends, mut stats) = ingest_to_builder(stream, opts)?;
    let corpus = builder.finish_spilled()?;
    stats.spill = corpus.stats();
    Ok(SpilledStreamIngest {
        corpus,
        friends,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusSpec;
    use mass_graph::DiGraph;
    use mass_text::PreparedCorpus;

    fn stream(n: usize, seed: u64) -> CorpusStream {
        CorpusStream::new(CorpusSpec::sized(n, seed)).unwrap()
    }

    #[test]
    fn sharded_ingest_matches_materialized_build() {
        let s = stream(120, 17);
        let out = s.materialize();
        let want = PreparedCorpus::build(&out.dataset, 1);
        for shards in [1usize, 3, 8] {
            let opts = IngestOptions {
                shards,
                ..Default::default()
            };
            let got = ingest_sharded(&s, &opts).unwrap();
            assert!(got.corpus == want, "corpus mismatch at {shards} shards");
            // Friend CSR equals the graph built from materialised lists.
            let mut g = DiGraph::new(120);
            for (i, b) in out.dataset.bloggers.iter().enumerate() {
                for f in &b.friends {
                    g.add_edge(i, f.index());
                }
            }
            assert_eq!(got.friends, LinkCsr::from_digraph(&g));
            assert_eq!(got.stats.shard_bloggers.iter().sum::<usize>(), 120);
            assert_eq!(got.stats.posts(), out.dataset.posts.len());
            assert_eq!(
                got.stats.comments(),
                out.dataset
                    .posts
                    .iter()
                    .map(|p| p.comments.len())
                    .sum::<usize>()
            );
        }
    }

    #[test]
    fn spill_budget_zero_is_still_bit_identical() {
        let s = stream(80, 23);
        let free = ingest_sharded(
            &s,
            &IngestOptions {
                shards: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let tight = ingest_sharded(
            &s,
            &IngestOptions {
                shards: 4,
                spill_budget: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(tight.stats.spill.segments_spilled > 0);
        assert!(free.corpus == tight.corpus);
        assert_eq!(free.friends, tight.friends);
    }

    #[test]
    fn spilled_ingest_loads_back_identically() {
        let s = stream(80, 29);
        let resident = ingest_sharded(
            &s,
            &IngestOptions {
                shards: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let spilled = ingest_sharded_spilled(
            &s,
            &IngestOptions {
                shards: 4,
                spill_budget: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(spilled.corpus.posts(), resident.corpus.posts());
        assert_eq!(spilled.corpus.vocab_len(), resident.corpus.vocab_len());
        assert!(spilled.corpus.load().unwrap() == resident.corpus);
        assert_eq!(spilled.friends, resident.friends);
    }

    #[test]
    fn more_shards_than_bloggers() {
        let s = stream(5, 3);
        let got = ingest_sharded(
            &s,
            &IngestOptions {
                shards: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let want = PreparedCorpus::build(&s.materialize().dataset, 1);
        assert!(got.corpus == want);
        assert_eq!(got.stats.shard_bloggers.len(), 16);
    }
}
