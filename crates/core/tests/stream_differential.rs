//! The streamed-vs-in-memory differential suite (DESIGN.md §13).
//!
//! The sharded out-of-core ingest path (`mass_synth::ingest_sharded`) must
//! be indistinguishable — `f64::to_bits` indistinguishable — from the
//! classic in-memory path (`PreparedCorpus::build` over the materialised
//! dataset, then `MassAnalysis::analyze`). Not "close", not "same ranking":
//! the corpus arrays must be equal and every score must carry identical
//! bits, at every thread count, shard count, and spill budget.
//!
//! The 600-blogger matrix runs in the normal suite; the 3000-blogger
//! variant (the paper's corpus scale) is `#[ignore]`d in debug and run in
//! release by scripts/check.sh (`cargo test --release -- --ignored`).

use mass_core::{InfluenceScores, MassAnalysis, MassParams};
use mass_synth::{ingest_sharded, ingest_sharded_spilled, CorpusSpec, CorpusStream, IngestOptions};
use mass_text::PreparedCorpus;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_scores_identical(a: &InfluenceScores, b: &InfluenceScores, what: &str) {
    assert_eq!(bits(&a.blogger), bits(&b.blogger), "{what}: blogger scores");
    assert_eq!(bits(&a.post), bits(&b.post), "{what}: post scores");
    assert_eq!(bits(&a.ap), bits(&b.ap), "{what}: AP facet");
    assert_eq!(bits(&a.gl), bits(&b.gl), "{what}: GL facet");
    assert_eq!(bits(&a.quality), bits(&b.quality), "{what}: quality facet");
    assert_eq!(bits(&a.comment), bits(&b.comment), "{what}: comment facet");
    assert_eq!(a.iterations, b.iterations, "{what}: sweep count");
    assert_eq!(
        a.residual.to_bits(),
        b.residual.to_bits(),
        "{what}: residual"
    );
}

/// The full matrix at one corpus size: for every thread count, the
/// in-memory corpus and analysis are the reference; every shard count and
/// both spill regimes must reproduce them exactly.
fn run_matrix(bloggers: usize, seed: u64) {
    let stream = CorpusStream::new(CorpusSpec::sized(bloggers, seed)).unwrap();
    let out = stream.materialize();
    for threads in THREAD_COUNTS {
        let params = MassParams {
            threads,
            ..MassParams::paper()
        };
        let reference_corpus = PreparedCorpus::build(&out.dataset, threads);
        let reference = MassAnalysis::analyze(&out.dataset, &params);
        for shards in SHARD_COUNTS {
            let opts = IngestOptions {
                shards,
                threads,
                ..Default::default()
            };
            let what = format!("{bloggers} bloggers, threads {threads}, shards {shards}");
            let streamed = ingest_sharded(&stream, &opts).unwrap();
            assert!(
                streamed.corpus == reference_corpus,
                "{what}: streamed corpus differs from in-memory build"
            );
            let analysis =
                MassAnalysis::analyze_with_corpus(&out.dataset, &streamed.corpus, &params);
            assert_scores_identical(&reference.scores, &analysis.scores, &what);
            assert_eq!(
                reference.top_k_general(10),
                analysis.top_k_general(10),
                "{what}: top-10"
            );
        }
        // Spill regime: a zero budget forces every segment through the temp
        // files; the merged bytes must still be the same corpus.
        let spill_opts = IngestOptions {
            shards: 4,
            spill_budget: 0,
            threads,
        };
        let spilled = ingest_sharded(&stream, &spill_opts).unwrap();
        assert!(spilled.stats.spill.segments_spilled > 0);
        assert!(
            spilled.corpus == reference_corpus,
            "{bloggers} bloggers, threads {threads}: spilled merge differs"
        );
        let ooc = ingest_sharded_spilled(&stream, &spill_opts).unwrap();
        assert!(
            ooc.corpus.load().unwrap() == reference_corpus,
            "{bloggers} bloggers, threads {threads}: on-disk corpus differs after load"
        );
    }
}

#[test]
fn streamed_path_is_bit_identical_at_600_bloggers() {
    run_matrix(600, 12);
}

/// The paper-scale variant — too slow for the debug suite, release-gated
/// in scripts/check.sh.
#[test]
#[ignore = "release-only: run via `cargo test --release -- --ignored` (check.sh does)"]
fn streamed_path_is_bit_identical_at_3k_bloggers() {
    run_matrix(3000, 42);
}

/// The friend-link CSR assembled shard-by-shard equals the graph built
/// from the materialised dataset, and sharding never double-counts: the
/// per-shard totals sum to the corpus totals.
#[test]
fn streamed_graph_and_counts_are_exact() {
    let stream = CorpusStream::new(CorpusSpec::sized(600, 12)).unwrap();
    let out = stream.materialize();
    let mut g = mass_graph::DiGraph::new(out.dataset.bloggers.len());
    for (i, b) in out.dataset.bloggers.iter().enumerate() {
        for f in &b.friends {
            g.add_edge(i, f.index());
        }
    }
    let want = mass_graph::LinkCsr::from_digraph(&g);
    for shards in SHARD_COUNTS {
        let streamed = ingest_sharded(
            &stream,
            &IngestOptions {
                shards,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(streamed.friends, want, "{shards} shards");
        assert_eq!(streamed.stats.shard_bloggers.len(), shards);
        assert_eq!(streamed.stats.shard_bloggers.iter().sum::<usize>(), 600);
        assert_eq!(streamed.stats.posts(), out.dataset.posts.len());
        assert_eq!(
            streamed.stats.comments(),
            out.dataset
                .posts
                .iter()
                .map(|p| p.comments.len())
                .sum::<usize>()
        );
        assert_eq!(streamed.stats.friend_edges(), want.edge_count());
    }
}

/// Segments stream their arrays to disk in blocks while they build, under
/// the ingest's spill budget. Every budget — every block, a block per few
/// posts, blocks on the largest shards only, never — gives the same corpus
/// as the in-memory build, resident or spilled, at every shard and thread
/// count. Budgets that differ only in when blocks stream also agree on the
/// spill accounting.
#[test]
fn block_streaming_is_bit_identical_at_every_budget() {
    const BUDGETS: [usize; 4] = [0, 1 << 10, 64 << 10, usize::MAX];
    let stream = CorpusStream::new(CorpusSpec::sized(240, 19)).unwrap();
    let reference = PreparedCorpus::build(&stream.materialize().dataset, 1);
    for shards in SHARD_COUNTS {
        for threads in [1, 2, 4] {
            for spill_budget in BUDGETS {
                let what = format!("shards {shards}, threads {threads}, budget {spill_budget}");
                let opts = IngestOptions {
                    shards,
                    spill_budget,
                    threads,
                };
                let resident = ingest_sharded(&stream, &opts).unwrap();
                assert!(resident.corpus == reference, "{what}: resident merge");
                let spilled = ingest_sharded_spilled(&stream, &opts).unwrap();
                assert!(
                    spilled.corpus.load().unwrap() == reference,
                    "{what}: on-disk corpus"
                );
                assert_eq!(spilled.stats.shard_posts, resident.stats.shard_posts);
                if spill_budget == 0 {
                    assert_eq!(resident.stats.spill.segments_spilled, shards, "{what}");
                }
                if spill_budget == usize::MAX {
                    assert_eq!(resident.stats.spill.segments_spilled, 0, "{what}");
                }
            }
        }
    }
}
