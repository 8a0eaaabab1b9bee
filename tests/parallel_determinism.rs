//! The serial-vs-parallel differential harness (DESIGN.md §8).
//!
//! `mass-par`'s contract is that scores are a pure function of the input —
//! thread count, pool size, and scheduling must never reach the bits. Every
//! test here runs the same computation at `--threads` 1 (the exact legacy
//! serial path), 2, 3, and 8, and demands *bit-for-bit* equality: not
//! approximate equality, `f64::to_bits` equality, on randomized synthetic
//! corpora.
//!
//! These corpora are far below the solve and link-analysis work floors,
//! where each thread count takes the serial path. So the parallel sides of
//! those kernels run under [`without_work_floors`], which sends them
//! through their chunked paths; `the_floor_hook_reaches_the_pool` proves
//! the hook does. The NB batch has no floor and needs no hook.

use mass::core::{GlProvider, InfluenceScores, IvSource, MassAnalysis, MassParams};
use mass::graph::{hits, pagerank, DiGraph, HitsParams, PageRankParams};
use mass::par::without_work_floors;
use mass::synth::{generate, SynthConfig};
use mass::types::DomainId;

const THREADS: [usize; 4] = [1, 2, 3, 8];

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
    assert_eq!(
        bits(&a.residual_history),
        bits(&b.residual_history),
        "{what}: residual history"
    );
    assert_eq!(a.residual_stride, b.residual_stride, "{what}: stride");
    assert_eq!(a.converged, b.converged, "{what}: convergence flag");
}

/// Full MASS analysis — solver sweeps, NB classification, PageRank GL, and
/// the assembled domain matrix — is bit-identical at every thread count.
#[test]
fn analysis_is_bit_identical_across_thread_counts() {
    for seed in [3, 71, 2024] {
        let ds = generate(&SynthConfig {
            bloggers: 90,
            seed,
            ..Default::default()
        })
        .dataset;
        let serial = MassAnalysis::analyze(
            &ds,
            &MassParams {
                threads: 1,
                ..MassParams::paper()
            },
        );
        for threads in THREADS {
            let par = without_work_floors(|| {
                MassAnalysis::analyze(
                    &ds,
                    &MassParams {
                        threads,
                        ..MassParams::paper()
                    },
                )
            });
            let what = format!("seed {seed}, threads {threads}");
            assert_scores_identical(&serial.scores, &par.scores, &what);
            for (k, (a, b)) in serial.iv.iter().zip(&par.iv).enumerate() {
                assert_eq!(bits(a), bits(b), "{what}: iv vector of post {k}");
            }
            for (i, (a, b)) in serial
                .domain_matrix
                .iter()
                .zip(&par.domain_matrix)
                .enumerate()
            {
                assert_eq!(bits(a), bits(b), "{what}: domain matrix row {i}");
            }
        }
    }
}

/// Top-k rankings — the user-facing product — agree exactly in both order
/// and score, per domain and overall.
#[test]
fn top_k_rankings_are_thread_count_invariant() {
    let ds = generate(&SynthConfig {
        bloggers: 120,
        seed: 99,
        ..Default::default()
    })
    .dataset;
    let serial = MassAnalysis::analyze(
        &ds,
        &MassParams {
            threads: 1,
            ..MassParams::paper()
        },
    );
    for threads in THREADS {
        let par = without_work_floors(|| {
            MassAnalysis::analyze(
                &ds,
                &MassParams {
                    threads,
                    ..MassParams::paper()
                },
            )
        });
        assert_eq!(
            serial.top_k_general(10),
            par.top_k_general(10),
            "general top-10 diverged at threads={threads}"
        );
        for d in 0..ds.domains.len() {
            let d = DomainId::new(d);
            assert_eq!(
                serial.top_k_in_domain(d, 5),
                par.top_k_in_domain(d, 5),
                "top-5 in domain {d:?} diverged at threads={threads}"
            );
        }
    }
}

/// Every GL provider goes through the same executor; all must be invariant.
#[test]
fn every_gl_provider_is_thread_count_invariant() {
    let ds = generate(&SynthConfig {
        bloggers: 70,
        seed: 12,
        ..Default::default()
    })
    .dataset;
    for gl in [
        GlProvider::PageRank,
        GlProvider::Hits,
        GlProvider::CommentGraphPageRank,
    ] {
        let serial = MassAnalysis::analyze(
            &ds,
            &MassParams {
                gl,
                threads: 1,
                ..MassParams::paper()
            },
        );
        for threads in THREADS {
            let par = without_work_floors(|| {
                MassAnalysis::analyze(
                    &ds,
                    &MassParams {
                        gl,
                        threads,
                        ..MassParams::paper()
                    },
                )
            });
            assert_eq!(
                bits(&serial.scores.gl),
                bits(&par.scores.gl),
                "{gl:?} GL diverged at threads={threads}"
            );
            assert_eq!(bits(&serial.scores.blogger), bits(&par.scores.blogger));
        }
    }
}

/// The oracle IV source skips the classifier; the solver sweeps still run
/// through the pool and must stay exact.
#[test]
fn oracle_iv_analysis_is_invariant() {
    let ds = generate(&SynthConfig {
        bloggers: 60,
        seed: 55,
        ..Default::default()
    })
    .dataset;
    let mk = |threads| {
        MassAnalysis::analyze(
            &ds,
            &MassParams {
                iv: IvSource::TrueDomains,
                threads,
                ..MassParams::paper()
            },
        )
    };
    let serial = mk(1);
    for threads in THREADS {
        let par = without_work_floors(|| mk(threads));
        assert_scores_identical(&serial.scores, &par.scores, "oracle iv");
    }
}

/// Raw PageRank and HITS on an adversarial graph: heavy hubs, dangling
/// nodes, parallel edges, and a disconnected component.
#[test]
fn raw_graph_algorithms_are_invariant() {
    let n = 400usize;
    let mut edges = Vec::new();
    for u in 0..n {
        if u % 13 == 0 {
            continue; // dangling nodes
        }
        edges.push((u, (u * 37 + 5) % n));
        edges.push((u, (u * 101 + 17) % n));
        if u % 3 == 0 {
            edges.push((u, (u * 37 + 5) % n)); // parallel edge
            edges.push((u, 0)); // a heavy hub
        }
    }
    let g = DiGraph::from_edges(
        n,
        edges.into_iter().filter(|&(u, v)| (u < 350) == (v < 350)),
    );
    let pr1 = pagerank(&g, &PageRankParams::default());
    let h1 = hits(&g, &HitsParams::default());
    for threads in THREADS {
        let pr = without_work_floors(|| {
            pagerank(
                &g,
                &PageRankParams {
                    threads,
                    ..Default::default()
                },
            )
        });
        assert_eq!(
            bits(&pr1.scores),
            bits(&pr.scores),
            "pagerank, threads={threads}"
        );
        assert_eq!(pr1.iterations, pr.iterations);
        let h = without_work_floors(|| {
            hits(
                &g,
                &HitsParams {
                    threads,
                    ..Default::default()
                },
            )
        });
        assert_eq!(
            bits(&h1.authority),
            bits(&h.authority),
            "hits auth, threads={threads}"
        );
        assert_eq!(bits(&h1.hub), bits(&h.hub), "hits hub, threads={threads}");
    }
}

/// Naive-Bayes batch classification equals one-at-a-time classification at
/// every thread count (the same code path `iv_vectors` takes).
#[test]
fn nb_posterior_batch_matches_serial_calls() {
    let ds = generate(&SynthConfig {
        bloggers: 50,
        seed: 8,
        ..Default::default()
    })
    .dataset;
    let model =
        mass::core::domain::train_on_tagged(&ds, ds.domains.len()).expect("synth posts are tagged");
    let docs: Vec<String> = ds
        .posts
        .iter()
        .map(|p| format!("{} {}", p.title, p.text))
        .collect();
    let one_by_one: Vec<Vec<f64>> = docs.iter().map(|d| model.posterior(d)).collect();
    for threads in THREADS {
        let batch = model.posterior_batch(&docs, threads);
        assert_eq!(batch.len(), one_by_one.len());
        for (k, (a, b)) in one_by_one.iter().zip(&batch).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "posterior of doc {k} at threads={threads}"
            );
        }
    }
}

/// Spans named `par.region` that `f` opened on this thread: one per region
/// that ran on the pool (a region that runs inline opens none).
fn pool_regions(f: impl FnOnce()) -> usize {
    mass::obs::begin_capture();
    f();
    let spans = mass::obs::end_capture();
    spans.iter().filter(|s| s.name == "par.region").count()
}

/// The hook is what keeps the tests above comparing two different paths:
/// under it, a small solve and PageRank enter the pool; without it, the
/// floors keep them serial at every thread count.
#[test]
fn the_floor_hook_reaches_the_pool() {
    use mass::core::{solve_prepared_with_layout, SolverInputs, SweepLayout};
    use mass::graph::{pagerank_csr, LinkCsr};
    let ds = generate(&SynthConfig {
        bloggers: 90,
        seed: 3,
        ..Default::default()
    })
    .dataset;
    let params = MassParams {
        threads: 2,
        ..MassParams::paper()
    };
    let inputs = SolverInputs::build(&ds, &ds.index(), &params);
    let layout = SweepLayout::build(&ds, &inputs);
    let solve = || {
        solve_prepared_with_layout(&ds, &layout, &params, None);
    };
    assert!(pool_regions(|| without_work_floors(solve)) > 0);
    assert_eq!(pool_regions(solve), 0, "a 90-blogger solve left the caller");

    let link = LinkCsr::from_digraph(&mass::core::gl_graph(&ds, &params));
    let pr_params = PageRankParams {
        threads: 2,
        ..Default::default()
    };
    let rank = || {
        pagerank_csr(&link, &pr_params, None);
    };
    assert!(pool_regions(|| without_work_floors(rank)) > 0);
    assert_eq!(pool_regions(rank), 0, "a 90-node PageRank left the caller");
}

/// Shards are coarse tasks: a wave of two shards at two threads enters the
/// pool instead of running inline on the caller.
#[test]
fn sharded_ingest_fans_out_its_shards() {
    use mass::synth::{ingest_sharded, CorpusSpec, CorpusStream, IngestOptions};
    let stream = CorpusStream::new(CorpusSpec::sized(40, 5)).unwrap();
    let opts = IngestOptions {
        shards: 2,
        threads: 2,
        ..Default::default()
    };
    let regions = pool_regions(|| {
        ingest_sharded(&stream, &opts).unwrap();
    });
    assert_eq!(regions, 1, "one wave of two shards is one pool region");
}

/// Sharded corpus generation fans out per shard; the ingested corpus, the
/// friend-link CSR, and the per-shard accounting must all be independent of
/// the worker count.
#[test]
fn sharded_stream_ingest_is_thread_count_invariant() {
    use mass::synth::{ingest_sharded, CorpusSpec, CorpusStream, IngestOptions};
    let stream = CorpusStream::new(CorpusSpec::sized(150, 31)).unwrap();
    for shards in [1usize, 4, 16] {
        let serial = ingest_sharded(
            &stream,
            &IngestOptions {
                shards,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Exactly-once: per-shard tallies cover every blogger once and the
        // totals match the materialised dataset.
        assert_eq!(serial.stats.shard_bloggers.len(), shards);
        assert_eq!(serial.stats.shard_bloggers.iter().sum::<usize>(), 150);
        let ds = stream.materialize().dataset;
        assert_eq!(serial.stats.posts(), ds.posts.len());
        assert_eq!(
            serial.stats.comments(),
            ds.posts.iter().map(|p| p.comments.len()).sum::<usize>()
        );
        for threads in [2usize, 8] {
            let par = ingest_sharded(
                &stream,
                &IngestOptions {
                    shards,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            let what = format!("shards={shards}, threads={threads}");
            assert!(par.corpus == serial.corpus, "{what}: corpus diverged");
            assert_eq!(par.friends, serial.friends, "{what}: friend CSR");
            assert_eq!(par.stats, serial.stats, "{what}: per-shard accounting");
        }
    }
}

/// The record stream itself is embarrassingly parallel: evaluating records
/// through the executor at any worker count equals a serial sweep.
#[test]
fn record_generation_is_thread_count_invariant() {
    use mass::synth::{CorpusSpec, CorpusStream};
    let stream = CorpusStream::new(CorpusSpec::sized(120, 77)).unwrap();
    let serial: Vec<String> = (0..120)
        .map(|i| mass::synth::stream::record_json_line(&stream.record(i)))
        .collect();
    for threads in [2usize, 3, 8] {
        let ex = mass::par::executor(threads);
        let par = ex.par_map_collect(120, |i| {
            mass::synth::stream::record_json_line(&stream.record(i))
        });
        assert_eq!(par, serial, "records diverged at threads={threads}");
    }
}

/// Crawl assembly fans out per page; the assembled dataset must not depend
/// on the worker count.
#[test]
fn crawl_assembly_is_thread_count_invariant() {
    use mass::crawler::{archive_host, SimulatedHost};
    let ds = generate(&SynthConfig {
        bloggers: 40,
        seed: 23,
        tag_sentiment_prob: 0.0,
        ..Default::default()
    })
    .dataset;
    let host = SimulatedHost::new(ds);
    let dir = std::env::temp_dir().join("mass_par_det_archive");
    let _ = std::fs::remove_dir_all(&dir);
    archive_host(&dir, &host).unwrap();

    let serial = mass::crawler::crawl(
        &host,
        &mass::crawler::CrawlConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    for threads in [2, 3, 8] {
        let par = mass::crawler::crawl(
            &host,
            &mass::crawler::CrawlConfig {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            par.dataset, serial.dataset,
            "crawl+assembly diverged at threads={threads}"
        );
        assert_eq!(par.space_of, serial.space_of);
        assert_eq!(par.stub_start, serial.stub_start);
    }
}
