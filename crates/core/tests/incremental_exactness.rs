//! The exactness contract, enforced differentially (DESIGN.md §11).
//!
//! The same scripted edit storm is applied twice — once through the live
//! [`IncrementalMass`] analyzer (Exact refresh), once as plain dataset
//! appends followed by a full batch [`MassAnalysis::analyze`] — and every
//! score vector must match `f64::to_bits` for bit, at one solver thread and
//! at four — as must the sweep layout the engine derives from its
//! maintained stream, against the one a batch solve builds. Plus [`DirtySet`] algebra property tests and warm-start
//! convergence bounds. The four-thread runs go through
//! `without_work_floors`, so these small corpora reach the chunked kernels.

use mass_core::storm::{apply_to_dataset, apply_to_incremental, scripted_storm, StormMix};
use mass_core::{
    DirtySet, GlProvider, IncrementalMass, IvSource, MassAnalysis, MassParams, RefreshMode,
};
use mass_par::without_work_floors;
use mass_synth::{generate, SynthConfig};
use proptest::prelude::*;

mod common;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn storm_params(threads: usize, gl: GlProvider) -> MassParams {
    MassParams {
        // Oracle IV keeps batch and incremental on the same domain source;
        // the batch-side classifier retrain is the documented carve-out.
        iv: IvSource::TrueDomains,
        threads,
        gl,
        ..MassParams::paper()
    }
}

/// The headline differential: Exact refresh == full recompute, bit for bit,
/// across thread counts, providers, and multi-round storms.
#[test]
fn exact_refresh_is_bit_identical_to_full_recompute_across_threads() {
    for gl in [GlProvider::PageRank, GlProvider::CommentGraphPageRank] {
        for threads in [1usize, 4] {
            // Floors off: threads 4 takes the chunked solve and pull on
            // this small corpus, as it would on one above the floors.
            without_work_floors(|| {
                let params = storm_params(threads, gl);
                let out = generate(&SynthConfig {
                    bloggers: 20,
                    mean_posts_per_blogger: 2.0,
                    seed: 1217,
                    ..Default::default()
                });
                let mut inc = IncrementalMass::new(out.dataset.clone(), params.clone());
                let mut plain = out.dataset;

                for round in 0..3u64 {
                    let script = scripted_storm(&plain, 8, 900 + round, StormMix::Mixed);
                    apply_to_incremental(&mut inc, &script);
                    apply_to_dataset(&mut plain, &script);
                    assert_eq!(inc.dataset(), &plain, "datasets diverged before refresh");

                    let stats = inc.refresh();
                    assert!(stats.converged, "{gl:?} threads {threads} round {round}");
                    let batch = MassAnalysis::analyze(&plain, &params);
                    assert_eq!(
                        bits(&inc.scores().blogger),
                        bits(&batch.scores.blogger),
                        "{gl:?} threads {threads} round {round}: blogger scores"
                    );
                    assert_eq!(
                        bits(&inc.scores().post),
                        bits(&batch.scores.post),
                        "{gl:?} threads {threads} round {round}: post scores"
                    );
                    assert_eq!(
                        bits(&inc.scores().gl),
                        bits(&batch.scores.gl),
                        "{gl:?} threads {threads} round {round}: GL facet"
                    );
                    assert!(
                        inc.sweep_layout() == common::batch_layout(&plain, &params),
                        "{gl:?} threads {threads} round {round}: maintained layout"
                    );
                }
            });
        }
    }
}

/// Thread count must not leak into results: the same storm refreshed under
/// `threads = 1` and `threads = 4` produces identical bits.
#[test]
fn refresh_results_are_thread_count_invariant() {
    let out = generate(&SynthConfig::tiny(77));
    let script = scripted_storm(&out.dataset, 15, 31, StormMix::Mixed);
    let run = |threads: usize| {
        let mut inc = IncrementalMass::new(
            out.dataset.clone(),
            storm_params(threads, GlProvider::PageRank),
        );
        apply_to_incremental(&mut inc, &script);
        inc.refresh();
        (
            bits(&inc.scores().blogger),
            bits(&inc.scores().post),
            bits(&inc.scores().gl),
        )
    };
    assert_eq!(run(1), without_work_floors(|| run(4)));
}

/// Warm-started refresh lands on the same ranking as Exact and reaches a
/// residual at least as small as a cold solve stopped at the same sweep.
#[test]
fn warm_start_converges_no_worse_than_cold_at_equal_sweeps() {
    let out = generate(&SynthConfig::default());
    let capped = MassParams {
        epsilon: 1e-300, // unreachable: both runs spend the whole budget
        max_iterations: 6,
        ..MassParams::paper()
    };
    let script = scripted_storm(&out.dataset, 10, 59, StormMix::Mixed);
    let mut inc = IncrementalMass::new(out.dataset.clone(), capped.clone());
    apply_to_incremental(&mut inc, &script);
    let warm = inc.refresh_with(RefreshMode::WarmStart);
    assert_eq!(warm.sweeps, 6);

    let mut plain = out.dataset;
    apply_to_dataset(&mut plain, &script);
    let cold = MassAnalysis::analyze(&plain, &capped);
    assert_eq!(cold.scores.iterations, 6);
    assert!(
        warm.residual <= cold.scores.residual,
        "warm residual {} should not exceed cold residual {}",
        warm.residual,
        cold.scores.residual
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging dirty sets is commutative up to edge-batch order — and
    /// obligations (the only thing refresh planning reads besides the edge
    /// batches) are fully order-insensitive.
    #[test]
    fn dirty_merge_is_commutative_on_observables(
        a_bloggers in 0usize..4, b_bloggers in 0usize..4,
        a_friend in proptest::collection::vec((0u32..8, 0u32..8), 0..6),
        b_friend in proptest::collection::vec((0u32..8, 0u32..8), 0..6),
        a_comment in proptest::collection::vec((0u32..8, 0u32..8), 0..6),
        b_comment in proptest::collection::vec((0u32..8, 0u32..8), 0..6),
        a_posts in 0usize..4, b_posts in 0usize..4,
    ) {
        let a = DirtySet {
            bloggers_added: a_bloggers,
            friend_edges: a_friend,
            comment_edges: a_comment,
            posts_added: a_posts,
            comments_added: 0,
            ..Default::default()
        };
        let b = DirtySet {
            bloggers_added: b_bloggers,
            friend_edges: b_friend,
            comment_edges: b_comment,
            posts_added: b_posts,
            comments_added: 1,
            ..Default::default()
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);

        prop_assert_eq!(ab.bloggers_added, ba.bloggers_added);
        prop_assert_eq!(ab.posts_added, ba.posts_added);
        prop_assert_eq!(ab.comments_added, ba.comments_added);
        prop_assert_eq!(ab.is_empty(), ba.is_empty());
        let canon = |mut v: Vec<(u32, u32)>| { v.sort_unstable(); v };
        prop_assert_eq!(canon(ab.friend_edges.clone()), canon(ba.friend_edges.clone()));
        prop_assert_eq!(canon(ab.comment_edges.clone()), canon(ba.comment_edges.clone()));
        for gl in [
            GlProvider::PageRank,
            GlProvider::Hits,
            GlProvider::InlinkCount,
            GlProvider::CommentGraphPageRank,
            GlProvider::None,
        ] {
            let params = MassParams { gl, ..MassParams::paper() };
            prop_assert_eq!(ab.obligations(&params), ba.obligations(&params));
        }
    }

    /// Merging an empty set is the identity; clearing any set empties it.
    #[test]
    fn dirty_merge_identity_and_clear(
        bloggers in 0usize..4,
        friend in proptest::collection::vec((0u32..8, 0u32..8), 0..6),
        posts in 0usize..4,
    ) {
        let base = DirtySet {
            bloggers_added: bloggers,
            friend_edges: friend,
            comment_edges: Vec::new(),
            posts_added: posts,
            comments_added: 0,
            ..Default::default()
        };
        let mut merged = base.clone();
        merged.merge(&DirtySet::default());
        prop_assert_eq!(&merged, &base);
        let mut cleared = base;
        cleared.clear();
        prop_assert!(cleared.is_empty());
        prop_assert_eq!(cleared, DirtySet::default());
    }

    /// Applying a storm script is idempotent at the dataset level: two
    /// independent replays of the same script produce identical datasets
    /// (scripts are absolute-id, not stateful).
    #[test]
    fn script_replay_is_deterministic(seed in 0u64..500, edits in 1usize..25) {
        let out = generate(&SynthConfig::tiny(3));
        let script = scripted_storm(&out.dataset, edits, seed, StormMix::Mixed);
        let mut a = out.dataset.clone();
        apply_to_dataset(&mut a, &script);
        let mut b = out.dataset;
        apply_to_dataset(&mut b, &script);
        prop_assert_eq!(&a, &b);
        a.validate().unwrap();
    }
}
