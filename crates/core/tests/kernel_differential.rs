//! Kernel differential suite (DESIGN.md §14).
//!
//! The §14 hardware-limit kernels are opt-in rewrites of hot paths that
//! promise either bit-identity (blocked pull, exact NB gather) or a
//! documented tolerance (`NbPrecision::Fast`). This suite pins both
//! promises at corpus scale, through the public analysis entry points a
//! user actually reaches:
//!
//! * blocked CSR pull at several tile sizes vs the plain kernel —
//!   identical scores;
//! * the exact NB batch gather vs the scalar per-document reference —
//!   identical posterior bits;
//! * the `f32` fast NB gather vs the exact path — every posterior entry
//!   within [`NB_FAST_TOLERANCE`].

use mass_core::{domain, InfluenceScores, MassAnalysis, MassParams};
use mass_synth::{CorpusSpec, CorpusStream};
use mass_text::{NbPrecision, PreparedCorpus, NB_FAST_TOLERANCE};
use mass_types::Dataset;

fn corpus(bloggers: usize, seed: u64) -> Dataset {
    CorpusStream::new(CorpusSpec::sized(bloggers, seed))
        .unwrap()
        .materialize()
        .dataset
}

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

/// Blocked pull is opt-in (`block_nodes`), and any tile size must be a
/// pure scheduling choice: same bits as the plain kernel, including tiles
/// small enough to split this corpus many times over.
#[test]
fn block_size_never_changes_analysis_bits() {
    let ds = corpus(400, 7);
    let plain = MassAnalysis::analyze(
        &ds,
        &MassParams {
            block_nodes: 0,
            ..MassParams::paper()
        },
    );
    for block in [16usize, 101, 1 << 17, usize::MAX] {
        let blocked = MassAnalysis::analyze(
            &ds,
            &MassParams {
                block_nodes: block,
                ..MassParams::paper()
            },
        );
        let what = format!("block_nodes {block} vs plain");
        assert_scores_identical(&plain.scores, &blocked.scores, &what);
    }
}

/// The exact flat NB batch is bit-identical to the scalar per-document
/// reference gather at every thread count; the `f32` fast batch tracks it
/// within the documented tolerance on every posterior entry.
#[test]
fn nb_fast_path_within_documented_tolerance() {
    let ds = corpus(400, 11);
    let prepared = PreparedCorpus::build(&ds, 1);
    let model = domain::train_on_tagged_prepared(&ds, ds.domains.len(), &prepared)
        .expect("sized synthetic corpora carry tagged posts");
    let compiled = model.compile(prepared.interner());
    let classes = compiled.classes();

    let exact = compiled.posterior_batch_prepared_flat_with(&prepared, 1, NbPrecision::Exact);
    let reference: Vec<f64> = (0..ds.posts.len())
        .flat_map(|k| compiled.posterior_ids_ref(prepared.doc_tokens(k)))
        .collect();
    assert_eq!(
        bits(&exact),
        bits(&reference),
        "exact flat batch vs per-document reference"
    );
    let exact_mt = compiled.posterior_batch_prepared_flat_with(&prepared, 4, NbPrecision::Exact);
    assert_eq!(bits(&exact), bits(&exact_mt), "exact batch across threads");

    let fast = compiled.posterior_batch_prepared_flat_with(&prepared, 1, NbPrecision::Fast);
    assert_eq!(exact.len(), fast.len());
    assert_eq!(exact.len(), ds.posts.len() * classes);
    let mut max_diff = 0.0f64;
    for (k, (&e, &f)) in exact.iter().zip(&fast).enumerate() {
        let diff = (e - f).abs();
        assert!(
            diff <= NB_FAST_TOLERANCE,
            "fast posterior drifted {diff:e} at entry {k} (doc {}, class {}): \
             exact {e} vs fast {f}",
            k / classes,
            k % classes,
        );
        max_diff = max_diff.max(diff);
    }
    // The tolerance is a contract ceiling, not an estimate of typical
    // drift; confirm this corpus exercises the path without sitting at
    // the ceiling.
    assert!(
        max_diff < NB_FAST_TOLERANCE / 10.0,
        "max drift {max_diff:e}"
    );
}
