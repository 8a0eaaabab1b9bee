//! The one-call MASS pipeline: solve influence, classify domains, build the
//! domain-influence matrix.

use crate::domain::{domain_influence, iv_vectors_prepared, train_on_tagged_prepared};
use crate::params::{IvSource, MassParams};
use crate::solver::{solve_prepared, InfluenceScores, SolverInputs};
use crate::topk::{top_k, top_k_in_domain};
use mass_text::{InterestMiner, NaiveBayes, PreparedCorpus};
use mass_types::{BloggerId, Dataset, DomainId};

/// The full output of analysing a blogosphere snapshot with MASS.
///
/// Corresponds to the Analyzer Module of Fig. 2: the Post Analyzer's
/// classification (`iv`), the Comment Analyzer's scoring (`scores`) and the
/// derived domain-influence matrix the user interface queries.
#[derive(Clone, Debug)]
pub struct MassAnalysis {
    /// Solver output: overall influence, post scores and per-facet vectors.
    pub scores: InfluenceScores,
    /// Per-post domain probability vectors (`iv`).
    pub iv: Vec<Vec<f64>>,
    /// `Inf(b_i, C_t)` — blogger × domain influence matrix.
    pub domain_matrix: Vec<Vec<f64>>,
    /// The trained domain classifier, when one exists (shared with the
    /// interest miner so advertisements classify in the same space).
    pub classifier: Option<NaiveBayes>,
    /// Parameters the analysis ran with.
    pub params: MassParams,
}

impl MassAnalysis {
    /// Runs the complete pipeline on a dataset.
    ///
    /// Every post and comment is tokenized exactly once, into the
    /// [`PreparedCorpus`] the solver, classifier and novelty stages share
    /// (DESIGN.md §10).
    pub fn analyze(ds: &Dataset, params: &MassParams) -> MassAnalysis {
        params.validate();
        let corpus = PreparedCorpus::build(ds, params.threads);
        Self::analyze_with_corpus(ds, &corpus, params)
    }

    /// [`analyze`](Self::analyze) over a corpus the caller already prepared
    /// — the entry point when the interned text is reused across runs (e.g.
    /// discovered-domain analysis prepares once and analyses the rebased
    /// dataset with the same corpus).
    pub fn analyze_with_corpus(
        ds: &Dataset,
        corpus: &PreparedCorpus,
        params: &MassParams,
    ) -> MassAnalysis {
        params.validate();
        let _span = mass_obs::span_with(
            "analysis.analyze",
            vec![
                mass_obs::field("bloggers", ds.bloggers.len()),
                mass_obs::field("posts", ds.posts.len()),
            ],
        );
        let ix = {
            let _s = mass_obs::span("analysis.index");
            ds.index()
        };
        let inputs = SolverInputs::build_prepared(ds, &ix, params, corpus);
        let decayed = crate::temporal::decay_inputs(ds, &inputs, params);
        let scores = solve_prepared(ds, &decayed, params, None);
        let (iv, trained) = {
            let _s = mass_obs::span("analysis.iv_vectors");
            iv_vectors_prepared(ds, params, corpus)
        };
        let domain_matrix = {
            let _s = mass_obs::span("analysis.domain_matrix");
            domain_influence(ds, &scores.post, &iv)
        };
        // TrainOnTagged already trained its model while building `iv`;
        // reuse it instead of training the same classifier twice.
        let classifier = match &params.iv {
            IvSource::Classifier(m) => Some(m.clone()),
            IvSource::TrainOnTagged => trained,
            IvSource::TrueDomains => {
                let _s = mass_obs::span("analysis.train_classifier");
                train_on_tagged_prepared(ds, ds.domains.len(), corpus)
            }
        };
        MassAnalysis {
            scores,
            iv,
            domain_matrix,
            classifier,
            params: params.clone(),
        }
    }

    /// Top-k bloggers by overall influence (the "general" list of Table I).
    pub fn top_k_general(&self, k: usize) -> Vec<(BloggerId, f64)> {
        top_k(&self.scores.blogger, k)
    }

    /// Top-k bloggers in one domain (the "domain specific" list of Table I).
    pub fn top_k_in_domain(&self, domain: DomainId, k: usize) -> Vec<(BloggerId, f64)> {
        top_k_in_domain(&self.domain_matrix, domain.index(), k)
    }

    /// A blogger's domain-influence vector `Inf(b_i, IV)`.
    pub fn influence_vector(&self, b: BloggerId) -> &[f64] {
        &self.domain_matrix[b.index()]
    }

    /// An interest miner sharing the Post Analyzer's classifier, for the
    /// recommendation scenarios. `None` when no classifier could be trained
    /// (fully untagged corpus without an external model).
    pub fn interest_miner(&self) -> Option<InterestMiner> {
        self.classifier.clone().map(InterestMiner::new)
    }

    /// Analyses a corpus with *automatically discovered* domains instead of
    /// a predefined catalogue — the paper's ref \[6\] alternative ("The
    /// domains can be predefined by the business applications or
    /// automatically discovered using existing topic discovery
    /// techniques").
    ///
    /// Topics are discovered by co-occurrence clustering over the post
    /// texts, a classifier is bootstrapped from the topic assignments, and
    /// the ordinary pipeline runs against the discovered catalogue. Any
    /// ground-truth tags on the input are ignored (they index the old
    /// catalogue). Returns `None` when the corpus is too small or
    /// homogeneous for discovery.
    pub fn analyze_discovered(
        ds: &Dataset,
        discovery: &mass_text::DiscoveryParams,
        params: &MassParams,
    ) -> Option<MassAnalysis> {
        let corpus = PreparedCorpus::build(ds, params.threads);
        let model = mass_text::discover_topics_prepared(&corpus, discovery);
        if model.is_empty() {
            return None;
        }
        let classifier = model.bootstrap_classifier_prepared(&corpus)?;

        // Rebasing only swaps the domain catalogue and drops stale tags —
        // post and comment text are untouched, so the corpus carries over.
        let mut rebased = ds.clone();
        rebased.domains = model.domain_set();
        for post in &mut rebased.posts {
            post.true_domain = None;
        }
        let params = MassParams {
            iv: IvSource::Classifier(classifier),
            ..params.clone()
        };
        Some(MassAnalysis::analyze_with_corpus(
            &rebased, &corpus, &params,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mass_synth::{generate, SynthConfig};
    use mass_types::DatasetBuilder;

    /// The interned pipeline must reproduce the legacy string pipeline —
    /// solve over string-built inputs plus string-path iv vectors — bit for
    /// bit, at one thread and several.
    #[test]
    fn prepared_pipeline_matches_legacy_bitwise() {
        use crate::domain::iv_vectors;
        use crate::solver::solve;
        let out = generate(&SynthConfig::tiny(21));
        let ds = &out.dataset;
        for threads in [1, 4] {
            let params = MassParams {
                threads,
                ..MassParams::paper()
            };
            // Floors off, so threads 4 runs the chunked kernels on this
            // tiny corpus.
            let (a, legacy_scores, legacy_iv) = mass_par::without_work_floors(|| {
                (
                    MassAnalysis::analyze(ds, &params),
                    solve(ds, &ds.index(), &params),
                    iv_vectors(ds, &params),
                )
            });
            assert_eq!(
                a.scores
                    .blogger
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                legacy_scores
                    .blogger
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "blogger scores diverged at threads={threads}"
            );
            assert_eq!(
                a.scores
                    .post
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                legacy_scores
                    .post
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "post scores diverged at threads={threads}"
            );
            for (k, (row_a, row_b)) in a.iv.iter().zip(&legacy_iv).enumerate() {
                assert_eq!(
                    row_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    row_b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "iv row {k} diverged at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn pipeline_runs_on_synthetic_corpus() {
        let out = generate(&SynthConfig::tiny(3));
        let a = MassAnalysis::analyze(&out.dataset, &MassParams::paper());
        assert!(a.scores.converged);
        assert_eq!(a.domain_matrix.len(), out.dataset.bloggers.len());
        assert_eq!(a.iv.len(), out.dataset.posts.len());
        assert!(
            a.classifier.is_some(),
            "synthetic posts are tagged; classifier trains"
        );
        assert!(a.interest_miner().is_some());
    }

    #[test]
    fn top_lists_have_k_entries_sorted() {
        let out = generate(&SynthConfig::tiny(4));
        let a = MassAnalysis::analyze(&out.dataset, &MassParams::paper());
        let general = a.top_k_general(5);
        assert_eq!(general.len(), 5);
        for w in general.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let domain = a.top_k_in_domain(DomainId::new(6), 3);
        assert_eq!(domain.len(), 3);
    }

    #[test]
    fn domain_ranking_differs_from_general() {
        // With 10 domains and planted per-domain specialists, at least one
        // domain's top-3 must differ from the general top-3.
        let out = generate(&SynthConfig::default());
        let a = MassAnalysis::analyze(&out.dataset, &MassParams::paper());
        let general: Vec<BloggerId> = a.top_k_general(3).into_iter().map(|(b, _)| b).collect();
        let mut any_differs = false;
        for d in 0..10 {
            let dom: Vec<BloggerId> = a
                .top_k_in_domain(DomainId::new(d), 3)
                .into_iter()
                .map(|(b, _)| b)
                .collect();
            if dom != general {
                any_differs = true;
                break;
            }
        }
        assert!(
            any_differs,
            "domain rankings should not all collapse to the general list"
        );
    }

    #[test]
    fn influence_vector_row_access() {
        let out = generate(&SynthConfig::tiny(5));
        let a = MassAnalysis::analyze(&out.dataset, &MassParams::paper());
        let v = a.influence_vector(BloggerId::new(0));
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn discovered_domains_pipeline_runs() {
        let out = generate(&SynthConfig::default());
        let analysis = MassAnalysis::analyze_discovered(
            &out.dataset,
            &mass_text::DiscoveryParams {
                topics: 10,
                ..Default::default()
            },
            &MassParams::paper(),
        )
        .expect("discovery succeeds on a 10-theme corpus");
        assert!(analysis.scores.converged);
        assert!(!analysis.domain_matrix[0].is_empty());
        // Each discovered domain has a coherent top list.
        let k = analysis.domain_matrix[0].len();
        for d in 0..k {
            assert!(!analysis.top_k_in_domain(DomainId::new(d), 3).is_empty());
        }
    }

    #[test]
    fn discovery_fails_gracefully_on_tiny_corpus() {
        let mut b = DatasetBuilder::new();
        let x = b.blogger("x");
        b.post(x, "t", "one single post");
        let ds = b.build().unwrap();
        assert!(MassAnalysis::analyze_discovered(
            &ds,
            &mass_text::DiscoveryParams::default(),
            &MassParams::paper()
        )
        .is_none());
    }

    #[test]
    fn untagged_corpus_still_analyzes() {
        let mut b = DatasetBuilder::new();
        let x = b.blogger("x");
        b.post(x, "t", "some words");
        let ds = b.build().unwrap();
        let a = MassAnalysis::analyze(&ds, &MassParams::paper());
        assert!(a.classifier.is_none());
        assert!(a.interest_miner().is_none());
        // iv falls back to uniform; mass spreads evenly.
        assert!((a.domain_matrix[0].iter().sum::<f64>() - a.scores.post[0]).abs() < 1e-9);
    }
}
