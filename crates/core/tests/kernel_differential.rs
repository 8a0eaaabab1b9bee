//! Kernel differential suite (DESIGN.md §14).
//!
//! The §14 NB batch gathers interned token ids through a compiled
//! term-major table and promises bit-identity with the string model. This
//! suite pins that promise at corpus scale: the flat batch, at one thread
//! and at four, against `NaiveBayes::posterior_tokens` over each post's
//! resolved tokens. The fused solve's reference lives with the solver's
//! unit tests; the thread-count contract of the whole analysis is
//! `parallel_determinism.rs`'s.

use mass_core::domain;
use mass_synth::{CorpusSpec, CorpusStream};
use mass_text::PreparedCorpus;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The flat NB batch is bit-identical to the string model's posterior over
/// the same tokens, at every thread count.
#[test]
fn nb_flat_batch_matches_string_posterior_bitwise() {
    let ds = CorpusStream::new(CorpusSpec::sized(400, 11))
        .unwrap()
        .materialize()
        .dataset;
    let prepared = PreparedCorpus::build(&ds, 1);
    let model = domain::train_on_tagged_prepared(&ds, ds.domains.len(), &prepared)
        .expect("sized synthetic corpora carry tagged posts");
    let compiled = model.compile(prepared.interner());

    let reference: Vec<f64> = (0..ds.posts.len())
        .flat_map(|k| {
            model.posterior_tokens(prepared.doc_tokens(k).iter().map(|&t| prepared.resolve(t)))
        })
        .collect();
    for threads in [1, 4] {
        let flat = compiled.posterior_batch_prepared_flat(&prepared, threads);
        assert_eq!(flat.len(), ds.posts.len() * compiled.classes());
        assert_eq!(
            bits(&flat),
            bits(&reference),
            "flat batch at threads {threads} vs the string posterior"
        );
    }
}
