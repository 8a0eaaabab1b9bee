//! Domain-specific influence (Eq. 5).
//!
//! `Inf(b_i, C_t) = Σ_k Inf(b_i, d_k) · iv(b_i, d_k, C_t)` — each post's
//! influence is apportioned to domains by the probability vector `iv`, and a
//! blogger's domain influence sums their posts' shares. The paper generates
//! `iv` "using naive Bayesian method" in the Post Analyzer; the oracle
//! variant (ground-truth one-hot) is kept for ablation upper bounds.

use crate::params::{IvSource, MassParams};
use mass_text::{NaiveBayes, NaiveBayesTrainer, PreparedCorpus};
use mass_types::{BloggerId, Dataset, DomainId};

/// Per-post domain probability vectors (`iv`), each summing to 1.
pub fn iv_vectors(ds: &Dataset, params: &MassParams) -> Vec<Vec<f64>> {
    let nd = ds.domains.len();
    match &params.iv {
        IvSource::TrueDomains => ds
            .posts
            .iter()
            .map(|p| match p.true_domain {
                Some(d) => one_hot(nd, d.index()),
                None => uniform(nd),
            })
            .collect(),
        IvSource::Classifier(model) => classify_all(ds, model, params.threads),
        IvSource::TrainOnTagged => match train_on_tagged(ds, nd) {
            Some(model) => classify_all(ds, &model, params.threads),
            None => ds.posts.iter().map(|_| uniform(nd)).collect(),
        },
    }
}

/// [`iv_vectors`] over a [`PreparedCorpus`]: classification is a dense
/// gather over interned token ids, and — for [`IvSource::TrainOnTagged`] —
/// the trained model is returned so callers reuse it instead of training a
/// second time. Bit-identical iv rows to the string path.
pub fn iv_vectors_prepared(
    ds: &Dataset,
    params: &MassParams,
    corpus: &PreparedCorpus,
) -> (Vec<Vec<f64>>, Option<NaiveBayes>) {
    let nd = ds.domains.len();
    match &params.iv {
        IvSource::TrueDomains => (
            ds.posts
                .iter()
                .map(|p| match p.true_domain {
                    Some(d) => one_hot(nd, d.index()),
                    None => uniform(nd),
                })
                .collect(),
            None,
        ),
        IvSource::Classifier(model) => (classify_all_prepared(model, corpus, params), None),
        IvSource::TrainOnTagged => match train_on_tagged_prepared(ds, nd, corpus) {
            Some(model) => {
                let iv = classify_all_prepared(&model, corpus, params);
                (iv, Some(model))
            }
            None => (ds.posts.iter().map(|_| uniform(nd)).collect(), None),
        },
    }
}

/// Batch classification over interned documents: the flat
/// `posts × classes` posterior block is computed in one allocation and
/// carved into per-post rows.
fn classify_all_prepared(
    model: &NaiveBayes,
    corpus: &PreparedCorpus,
    params: &MassParams,
) -> Vec<Vec<f64>> {
    model
        .compile(corpus.interner())
        .posterior_batch_prepared(corpus, params.threads)
}

/// Trains the Post Analyzer's classifier on the tagged subset of the corpus.
/// Returns `None` when no posts are tagged.
pub fn train_on_tagged(ds: &Dataset, domains: usize) -> Option<NaiveBayes> {
    if domains == 0 {
        return None;
    }
    let mut trainer = NaiveBayesTrainer::new(domains);
    let mut any = false;
    for post in &ds.posts {
        if let Some(d) = post.true_domain {
            trainer.add_document(d.index(), &format!("{} {}", post.title, post.text));
            any = true;
        }
    }
    any.then(|| trainer.build(1))
}

/// [`train_on_tagged`] from the prepared document-term rows: each tagged
/// post's CSR row is counted into a dense table by term id
/// ([`NaiveBayes::train_prepared`]) instead of being re-tokenized.
/// Produces a model with bit-identical posteriors.
pub fn train_on_tagged_prepared(
    ds: &Dataset,
    domains: usize,
    corpus: &PreparedCorpus,
) -> Option<NaiveBayes> {
    if domains == 0 {
        return None;
    }
    let tagged = ds
        .posts
        .iter()
        .enumerate()
        .filter_map(|(k, post)| post.true_domain.map(|d| (k, d.index())));
    NaiveBayes::train_prepared(corpus, domains, tagged, 1)
}

fn classify_all(ds: &Dataset, model: &NaiveBayes, threads: usize) -> Vec<Vec<f64>> {
    let docs: Vec<String> = ds
        .posts
        .iter()
        .map(|p| format!("{} {}", p.title, p.text))
        .collect();
    model.posterior_batch(&docs, threads)
}

fn one_hot(n: usize, hot: usize) -> Vec<f64> {
    let mut v = vec![0.0; n];
    v[hot] = 1.0;
    v
}

fn uniform(n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    vec![1.0 / n as f64; n]
}

/// The domain-influence matrix `Inf(b_i, C_t)`: rows are bloggers, columns
/// domains. Row `i` is the paper's `Inf(b_i, IV)` vector.
pub fn domain_influence(ds: &Dataset, post_scores: &[f64], iv: &[Vec<f64>]) -> Vec<Vec<f64>> {
    assert_eq!(
        post_scores.len(),
        ds.posts.len(),
        "post score vector mismatch"
    );
    assert_eq!(iv.len(), ds.posts.len(), "iv vector mismatch");
    let nd = ds.domains.len();
    let mut matrix = vec![vec![0.0f64; nd]; ds.bloggers.len()];
    for (k, post) in ds.posts.iter().enumerate() {
        let row = &mut matrix[post.author.index()];
        for (t, &p) in iv[k].iter().enumerate() {
            row[t] += post_scores[k] * p;
        }
    }
    matrix
}

/// Convenience: a blogger's influence in one domain.
pub fn influence_in(matrix: &[Vec<f64>], b: BloggerId, d: DomainId) -> f64 {
    matrix[b.index()][d.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mass_types::DatasetBuilder;

    fn tagged_dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let a = b.blogger("a");
        let c = b.blogger("c");
        // Domain 0 = Travel, 6 = Sports in the paper catalogue.
        b.post_in_domain(
            a,
            "trip",
            "travel hotel flight beach vacation",
            DomainId::new(0),
        );
        b.post_in_domain(
            a,
            "game",
            "football basketball match team goal",
            DomainId::new(6),
        );
        b.post_in_domain(
            c,
            "trip2",
            "travel hotel resort island cruise",
            DomainId::new(0),
        );
        b.build().unwrap()
    }

    #[test]
    fn oracle_iv_is_one_hot() {
        let ds = tagged_dataset();
        let iv = iv_vectors(
            &ds,
            &MassParams {
                iv: IvSource::TrueDomains,
                ..MassParams::paper()
            },
        );
        assert_eq!(iv[0][0], 1.0);
        assert_eq!(iv[0].iter().sum::<f64>(), 1.0);
        assert_eq!(iv[1][6], 1.0);
    }

    #[test]
    fn untagged_posts_get_uniform_oracle_iv() {
        let mut b = DatasetBuilder::new();
        let a = b.blogger("a");
        b.post(a, "t", "no tag here");
        let ds = b.build().unwrap();
        let iv = iv_vectors(
            &ds,
            &MassParams {
                iv: IvSource::TrueDomains,
                ..MassParams::paper()
            },
        );
        assert!((iv[0][0] - 0.1).abs() < 1e-12);
        assert!((iv[0].iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trained_iv_recovers_tags() {
        let ds = tagged_dataset();
        let iv = iv_vectors(&ds, &MassParams::paper()); // TrainOnTagged default
                                                        // Post 0 is a travel post: travel must dominate.
        let best0 = argmax(&iv[0]);
        assert_eq!(best0, 0, "iv[0] = {:?}", iv[0]);
        assert_eq!(argmax(&iv[1]), 6);
        for row in &iv {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    /// The dense trainer against the string trainer: same posterior bits
    /// on every post, with most domains left without a tagged post.
    #[test]
    fn dense_training_matches_string_training_on_every_post() {
        let synth = mass_synth::generate(&mass_synth::SynthConfig::tiny(9)).dataset;
        let mut partial = synth.clone();
        for (k, p) in partial.posts.iter_mut().enumerate() {
            if k % 3 != 0 {
                p.true_domain = None;
            }
        }
        for ds in [tagged_dataset(), synth, partial] {
            let corpus = PreparedCorpus::build(&ds, 1);
            let nd = ds.domains.len();
            let by_string = train_on_tagged(&ds, nd).unwrap();
            let dense = train_on_tagged_prepared(&ds, nd, &corpus).unwrap();
            assert_eq!(by_string.vocabulary_size(), dense.vocabulary_size());
            let compiled = dense.compile(corpus.interner());
            for (k, p) in ds.posts.iter().enumerate() {
                let doc = format!("{} {}", p.title, p.text);
                let want = bits(&by_string.posterior(&doc));
                assert_eq!(want, bits(&dense.posterior(&doc)), "post {k}");
                assert_eq!(
                    want,
                    bits(&compiled.posterior_ids(corpus.doc_tokens(k))),
                    "post {k}, compiled"
                );
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn untagged_corpus_falls_back_to_uniform() {
        let mut b = DatasetBuilder::new();
        let a = b.blogger("a");
        b.post(a, "t", "words with no domain tag");
        let ds = b.build().unwrap();
        let iv = iv_vectors(&ds, &MassParams::paper());
        assert!((iv[0][3] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn external_classifier_used_verbatim() {
        let ds = tagged_dataset();
        let model = train_on_tagged(&ds, ds.domains.len()).unwrap();
        let iv = iv_vectors(
            &ds,
            &MassParams {
                iv: IvSource::Classifier(model),
                ..MassParams::paper()
            },
        );
        assert_eq!(argmax(&iv[2]), 0);
    }

    #[test]
    fn domain_influence_sums_post_shares() {
        let ds = tagged_dataset();
        let post_scores = vec![0.8, 0.4, 0.5];
        let iv = iv_vectors(
            &ds,
            &MassParams {
                iv: IvSource::TrueDomains,
                ..MassParams::paper()
            },
        );
        let m = domain_influence(&ds, &post_scores, &iv);
        let a = BloggerId::new(0);
        let c = BloggerId::new(1);
        assert!((influence_in(&m, a, DomainId::new(0)) - 0.8).abs() < 1e-12);
        assert!((influence_in(&m, a, DomainId::new(6)) - 0.4).abs() < 1e-12);
        assert!((influence_in(&m, c, DomainId::new(0)) - 0.5).abs() < 1e-12);
        assert_eq!(influence_in(&m, c, DomainId::new(6)), 0.0);
    }

    #[test]
    fn row_mass_is_conserved() {
        // Σ_t Inf(b, C_t) == Σ_{k∈P(b)} Inf(b,d_k) because iv rows sum to 1.
        let ds = tagged_dataset();
        let post_scores = vec![0.3, 0.9, 0.2];
        let iv = iv_vectors(&ds, &MassParams::paper());
        let m = domain_influence(&ds, &post_scores, &iv);
        let a_total: f64 = m[0].iter().sum();
        assert!((a_total - (0.3 + 0.9)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn length_mismatch_panics() {
        let ds = tagged_dataset();
        let iv = iv_vectors(&ds, &MassParams::paper());
        let _ = domain_influence(&ds, &[0.1], &iv);
    }

    fn argmax(v: &[f64]) -> usize {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
    }
}
