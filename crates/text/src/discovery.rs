//! Automatic topic discovery (the paper's ref \[6\] integration point).
//!
//! Section II: "The domains can be predefined by the business applications
//! or automatically discovered using existing topic discovery techniques
//! \[6\]." This module implements a 2008-era tag/interest-discovery scheme in
//! the spirit of Li et al.'s tag-based social interest discovery: frequent
//! terms are clustered by document co-occurrence into topics, each topic is
//! labelled by its most frequent term, and documents are assigned topic
//! distributions by cluster overlap. The discovered catalogue can then be
//! fed back into MASS as a [`mass_types::DomainSet`], with a naive-Bayes
//! classifier bootstrapped from the topic assignments.

use crate::intern::{Interner, TermId};
use crate::nb::{NaiveBayes, NaiveBayesTrainer};
use crate::prepared::PreparedCorpus;
use crate::tokenize::tokenize;
use mass_types::DomainSet;
use std::collections::{HashMap, HashSet};

/// One discovered topic: a labelled cluster of co-occurring terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topic {
    /// The cluster's most document-frequent term, used as the domain label.
    pub label: String,
    /// Member terms, most frequent first (includes the label).
    pub terms: Vec<String>,
}

/// Tuning for [`discover_topics`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiscoveryParams {
    /// Number of topics to discover.
    pub topics: usize,
    /// How many of the most document-frequent terms participate in
    /// clustering.
    pub vocabulary: usize,
    /// Seeds must have pairwise co-occurrence *lift* (observed/expected
    /// under independence) below this to count as distinct topics. Lift ≈ 1
    /// means independent; within-topic pairs typically score ≥ 2.
    pub seed_separation: f64,
    /// Minimum lift for a term to join a cluster; weaker terms stay
    /// unassigned.
    pub join_threshold: f64,
    /// A term qualifies as a seed only if at least this many vocabulary
    /// terms clear `join_threshold` against it. Filler words co-occur with
    /// everything at lift ≈ 1, so they have no neighbourhood and are never
    /// seeded.
    pub min_neighbourhood: usize,
}

impl Default for DiscoveryParams {
    fn default() -> Self {
        DiscoveryParams {
            topics: 10,
            vocabulary: 400,
            seed_separation: 1.5,
            join_threshold: 2.0,
            min_neighbourhood: 3,
        }
    }
}

/// A discovered topic model over a corpus.
#[derive(Clone, Debug)]
pub struct TopicModel {
    topics: Vec<Topic>,
    /// term → topic index, for assignment.
    membership: HashMap<String, usize>,
}

impl TopicModel {
    /// The discovered topics.
    pub fn topics(&self) -> &[Topic] {
        &self.topics
    }

    /// Number of topics actually discovered (≤ requested if the corpus is
    /// too homogeneous).
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Whether no topics were discovered (empty corpus).
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// A domain catalogue named after the topic labels, pluggable into the
    /// rest of MASS.
    pub fn domain_set(&self) -> DomainSet {
        DomainSet::new(self.topics.iter().map(|t| t.label.clone()))
    }

    /// A document's topic distribution: normalised count of its tokens that
    /// belong to each cluster. Uniform when nothing matches.
    pub fn assign(&self, text: &str) -> Vec<f64> {
        let n = self.topics.len();
        if n == 0 {
            return Vec::new();
        }
        let mut counts = vec![0.0f64; n];
        let mut total = 0.0;
        for token in tokenize(text) {
            if let Some(&t) = self.membership.get(&token) {
                counts[t] += 1.0;
                total += 1.0;
            }
        }
        if total == 0.0 {
            return vec![1.0 / n as f64; n];
        }
        counts.iter_mut().for_each(|c| *c /= total);
        counts
    }

    /// The dominant topic of a document.
    pub fn classify(&self, text: &str) -> Option<usize> {
        let dist = self.assign(text);
        dist.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
    }

    /// Bootstraps a naive-Bayes classifier by pseudo-labelling the corpus
    /// with the topic assignments and training on it — the hand-off from
    /// discovery to the Post Analyzer's usual classification flow.
    pub fn bootstrap_classifier(&self, docs: &[&str]) -> Option<NaiveBayes> {
        if self.topics.is_empty() || docs.is_empty() {
            return None;
        }
        let mut trainer = NaiveBayesTrainer::new(self.topics.len());
        let mut any = false;
        for doc in docs {
            if let Some(topic) = self.classify(doc) {
                trainer.add_document(topic, doc);
                any = true;
            }
        }
        any.then(|| trainer.build(2))
    }

    /// Maps every id of an interner's vocabulary to its topic index, or
    /// `u32::MAX` for terms outside every cluster — one membership probe per
    /// distinct term instead of one per token.
    pub fn membership_ids(&self, interner: &Interner) -> Vec<u32> {
        (0..interner.len() as u32)
            .map(|id| {
                self.membership
                    .get(interner.resolve(id))
                    .map_or(u32::MAX, |&t| t as u32)
            })
            .collect()
    }

    /// [`Self::assign`] over a prepared document-term row (`topic_of` from
    /// [`Self::membership_ids`]). Counts are whole numbers, so grouping the
    /// per-token 1.0-adds by term is exact and the distribution is
    /// bit-identical to the string path.
    pub fn assign_counts(&self, terms: &[TermId], counts: &[u32], topic_of: &[u32]) -> Vec<f64> {
        let n = self.topics.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out = vec![0.0f64; n];
        let mut total = 0.0;
        for (&t, &c) in terms.iter().zip(counts) {
            let topic = topic_of[t as usize];
            if topic != u32::MAX {
                out[topic as usize] += c as f64;
                total += c as f64;
            }
        }
        if total == 0.0 {
            return vec![1.0 / n as f64; n];
        }
        out.iter_mut().for_each(|c| *c /= total);
        out
    }

    /// [`Self::classify`] over a prepared document-term row.
    pub fn classify_counts(
        &self,
        terms: &[TermId],
        counts: &[u32],
        topic_of: &[u32],
    ) -> Option<usize> {
        let dist = self.assign_counts(terms, counts, topic_of);
        dist.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
    }

    /// [`Self::bootstrap_classifier`] over a prepared corpus — trains the
    /// identical model from the CSR document-term rows without re-tokenizing
    /// a single document ([`NaiveBayes::train_prepared`]).
    pub fn bootstrap_classifier_prepared(&self, corpus: &PreparedCorpus) -> Option<NaiveBayes> {
        if self.topics.is_empty() || corpus.posts() == 0 {
            return None;
        }
        let topic_of = self.membership_ids(corpus.interner());
        let labels = (0..corpus.posts()).filter_map(|k| {
            let (terms, counts) = corpus.doc_terms(k);
            self.classify_counts(terms, counts, &topic_of)
                .map(|topic| (k, topic))
        });
        NaiveBayes::train_prepared(corpus, self.topics.len(), labels, 2)
    }
}

/// Discovers topics in an untagged corpus by co-occurrence clustering of
/// frequent terms.
pub fn discover_topics(docs: &[&str], params: &DiscoveryParams) -> TopicModel {
    let _span = mass_obs::span_with(
        "text.discover_topics",
        vec![
            mass_obs::field("docs", docs.len()),
            mass_obs::field("topics", params.topics),
        ],
    );
    assert!(params.topics > 0, "must request at least one topic");
    assert!(
        params.vocabulary >= params.topics,
        "vocabulary smaller than topic count"
    );

    // 1. Document frequency over tokenized docs.
    let token_sets: Vec<HashSet<String>> = docs
        .iter()
        .map(|d| tokenize(d).into_iter().collect())
        .collect();
    let mut df: HashMap<&str, u32> = HashMap::new();
    for set in &token_sets {
        for t in set {
            *df.entry(t.as_str()).or_insert(0) += 1;
        }
    }
    // Keep the top-V terms (ties broken lexicographically for determinism),
    // excluding terms that appear in almost every document (no signal).
    let cap = (docs.len() as u32).max(1);
    let mut vocab: Vec<(&str, u32)> = df
        .iter()
        .map(|(&t, &c)| (t, c))
        .filter(|&(_, c)| c >= 2 && c * 10 <= cap * 8) // df < 80%
        .collect();
    vocab.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    vocab.truncate(params.vocabulary);
    if vocab.is_empty() {
        return TopicModel {
            topics: Vec::new(),
            membership: HashMap::new(),
        };
    }

    // 2. Pairwise co-occurrence lift over the kept vocabulary:
    //    lift(a, b) = N·docs(a ∧ b) / (df(a)·df(b)) — 1 under independence,
    //    ≫ 1 for terms of the same topic. Lift (unlike overlap ratios) is
    //    immune to ubiquitous filler terms that co-occur with everything.
    let term_index: HashMap<&str, usize> = vocab
        .iter()
        .enumerate()
        .map(|(i, &(t, _))| (t, i))
        .collect();
    let v = vocab.len();
    let mut cooc = vec![0u32; v * v];
    for set in &token_sets {
        let present: Vec<usize> = set
            .iter()
            .filter_map(|t| term_index.get(t.as_str()).copied())
            .collect();
        for (pos, &a) in present.iter().enumerate() {
            for &b in &present[pos + 1..] {
                cooc[a * v + b] += 1;
                cooc[b * v + a] += 1;
            }
        }
    }
    let terms: Vec<&str> = vocab.iter().map(|&(t, _)| t).collect();
    let dfs: Vec<u32> = vocab.iter().map(|&(_, c)| c).collect();
    cluster_vocab(&terms, &dfs, &cooc, docs.len(), params)
}

/// Discovers topics over a [`PreparedCorpus`] — the same clustering, fed by
/// the CSR document-term rows instead of re-tokenized strings. Produces a
/// model identical to [`discover_topics`] on the equivalent raw documents:
/// document frequencies and co-occurrence counts are integer sums (order
/// independent), the candidate order is fixed by the (df desc, term asc)
/// sort, and the lift arithmetic is shared.
pub fn discover_topics_prepared(corpus: &PreparedCorpus, params: &DiscoveryParams) -> TopicModel {
    let _span = mass_obs::span_with(
        "text.discover_topics",
        vec![
            mass_obs::field("docs", corpus.posts()),
            mass_obs::field("topics", params.topics),
        ],
    );
    assert!(params.topics > 0, "must request at least one topic");
    assert!(
        params.vocabulary >= params.topics,
        "vocabulary smaller than topic count"
    );

    // 1. Document frequency, dense over the interned vocabulary.
    let n = corpus.posts();
    let mut df = vec![0u32; corpus.vocab_len()];
    for k in 0..n {
        for &t in corpus.doc_terms(k).0 {
            df[t as usize] += 1;
        }
    }
    let cap = (n as u32).max(1);
    let mut vocab: Vec<(TermId, u32)> = df
        .iter()
        .enumerate()
        .map(|(id, &c)| (id as TermId, c))
        .filter(|&(_, c)| c >= 2 && c * 10 <= cap * 8) // df < 80%
        .collect();
    vocab.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| corpus.resolve(a.0).cmp(corpus.resolve(b.0)))
    });
    vocab.truncate(params.vocabulary);
    if vocab.is_empty() {
        return TopicModel {
            topics: Vec::new(),
            membership: HashMap::new(),
        };
    }

    // 2. Co-occurrence over kept terms, via a dense id → position map.
    let v = vocab.len();
    let mut pos = vec![u32::MAX; corpus.vocab_len()];
    for (i, &(id, _)) in vocab.iter().enumerate() {
        pos[id as usize] = i as u32;
    }
    let mut cooc = vec![0u32; v * v];
    let mut present: Vec<usize> = Vec::new();
    for k in 0..n {
        present.clear();
        present.extend(corpus.doc_terms(k).0.iter().filter_map(|&t| {
            let p = pos[t as usize];
            (p != u32::MAX).then_some(p as usize)
        }));
        for (i, &a) in present.iter().enumerate() {
            for &b in &present[i + 1..] {
                cooc[a * v + b] += 1;
                cooc[b * v + a] += 1;
            }
        }
    }
    let terms: Vec<&str> = vocab.iter().map(|&(id, _)| corpus.resolve(id)).collect();
    let dfs: Vec<u32> = vocab.iter().map(|&(_, c)| c).collect();
    cluster_vocab(&terms, &dfs, &cooc, n, params)
}

/// Steps 3–4 of discovery, shared by the string and prepared front ends:
/// seed selection and cluster assignment over a kept vocabulary (`terms[i]`
/// with document frequency `df[i]` and co-occurrence row `cooc[i * v ..]`).
fn cluster_vocab(
    terms: &[&str],
    df: &[u32],
    cooc: &[u32],
    docs: usize,
    params: &DiscoveryParams,
) -> TopicModel {
    let v = terms.len();
    let n_docs = docs.max(1) as f64;
    let sim = |a: usize, b: usize| -> f64 {
        let expected = df[a] as f64 * df[b] as f64 / n_docs;
        cooc[a * v + b] as f64 / expected.max(1e-12)
    };

    // 3. Seed selection: frequent terms with a real co-occurrence
    //    neighbourhood, mutually independent of every already-chosen seed.
    let support: Vec<usize> = (0..v)
        .map(|i| {
            (0..v)
                .filter(|&j| j != i && sim(i, j) >= params.join_threshold)
                .count()
        })
        .collect();
    let mut seeds: Vec<usize> = Vec::new();
    for (i, &sup) in support.iter().enumerate() {
        if seeds.len() == params.topics {
            break;
        }
        if sup >= params.min_neighbourhood
            && seeds.iter().all(|&s| sim(i, s) < params.seed_separation)
        {
            seeds.push(i);
        }
    }

    // 4. Assignment: every other vocabulary term joins its most similar
    //    seed's cluster if the similarity clears the join threshold.
    let mut clusters: Vec<Vec<usize>> = seeds.iter().map(|&s| vec![s]).collect();
    for i in 0..v {
        if seeds.contains(&i) {
            continue;
        }
        let best = seeds
            .iter()
            .enumerate()
            .map(|(c, &s)| (c, sim(i, s)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        if let Some((c, s)) = best {
            if s >= params.join_threshold {
                clusters[c].push(i);
            }
        }
    }

    let topics: Vec<Topic> = clusters
        .into_iter()
        .map(|members| Topic {
            label: terms[members[0]].to_string(),
            terms: members.iter().map(|&i| terms[i].to_string()).collect(),
        })
        .collect();
    let membership: HashMap<String, usize> = topics
        .iter()
        .enumerate()
        .flat_map(|(c, t)| t.terms.iter().map(move |term| (term.clone(), c)))
        .collect();
    TopicModel { topics, membership }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three synthetic "domains" with disjoint vocabularies.
    fn corpus() -> Vec<String> {
        let themes: [&[&str]; 3] = [
            &["travel", "hotel", "flight", "beach", "resort"],
            &["football", "match", "team", "goal", "league"],
            &["code", "compiler", "software", "debug", "program"],
        ];
        let mut docs = Vec::new();
        for round in 0..12 {
            for theme in themes {
                let mut doc = String::new();
                for k in 0..4 {
                    doc.push_str(theme[(round + k) % theme.len()]);
                    doc.push(' ');
                }
                doc.push_str("today blog post"); // shared filler
                docs.push(doc);
            }
        }
        docs
    }

    fn model() -> TopicModel {
        let docs = corpus();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        discover_topics(
            &refs,
            &DiscoveryParams {
                topics: 3,
                vocabulary: 50,
                ..Default::default()
            },
        )
    }

    #[test]
    fn discovers_the_planted_topics() {
        let m = model();
        assert_eq!(m.len(), 3);
        // Each theme's vocabulary should live in a single cluster.
        for theme in [
            ["travel", "hotel", "flight"],
            ["football", "match", "team"],
            ["code", "compiler", "software"],
        ] {
            let homes: Vec<Option<usize>> = theme
                .iter()
                .map(|t| {
                    m.topics()
                        .iter()
                        .position(|topic| topic.terms.iter().any(|x| x == t))
                })
                .collect();
            assert!(homes[0].is_some(), "{theme:?} not clustered");
            assert!(
                homes.windows(2).all(|w| w[0] == w[1]),
                "{theme:?} split: {homes:?}"
            );
        }
    }

    #[test]
    fn assignment_peaks_on_the_right_topic() {
        let m = model();
        let dist = m.assign("booked a hotel and a flight to the beach");
        let best = m
            .classify("booked a hotel and a flight to the beach")
            .unwrap();
        assert!(m.topics()[best]
            .terms
            .iter()
            .any(|t| t == "hotel" || t == "travel"));
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unmatched_text_gets_uniform_distribution() {
        let m = model();
        let dist = m.assign("zzz qqq completely unrelated");
        for d in &dist {
            assert!((d - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn domain_set_uses_labels() {
        let m = model();
        let ds = m.domain_set();
        assert_eq!(ds.len(), 3);
        for t in m.topics() {
            assert!(ds.id_of(&t.label).is_some());
        }
    }

    #[test]
    fn bootstrap_classifier_agrees_with_assignments() {
        let docs = corpus();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let m = discover_topics(
            &refs,
            &DiscoveryParams {
                topics: 3,
                vocabulary: 50,
                ..Default::default()
            },
        );
        let nb = m.bootstrap_classifier(&refs).expect("classifier trains");
        let mut agree = 0;
        for doc in &refs {
            if Some(nb.classify(doc)) == m.classify(doc) {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / refs.len() as f64 > 0.9,
            "agreement {agree}/{}",
            refs.len()
        );
    }

    #[test]
    fn empty_corpus_yields_empty_model() {
        let m = discover_topics(&[], &DiscoveryParams::default());
        assert!(m.is_empty());
        assert!(m.assign("anything").is_empty());
        assert!(m.bootstrap_classifier(&[]).is_none());
    }

    #[test]
    fn homogeneous_corpus_collapses_topics() {
        let docs = vec!["same words every time"; 20];
        let m = discover_topics(
            &docs,
            &DiscoveryParams {
                topics: 5,
                ..Default::default()
            },
        );
        assert!(
            m.len() <= 1,
            "found {} topics in a one-theme corpus",
            m.len()
        );
    }

    #[test]
    fn deterministic() {
        let a = model();
        let b = model();
        assert_eq!(a.topics(), b.topics());
    }

    #[test]
    fn prepared_discovery_matches_string_discovery() {
        let docs = corpus();
        let mut b = mass_types::DatasetBuilder::new();
        let blogger = b.blogger("author");
        for d in &docs {
            b.post(blogger, "", d.clone());
        }
        let ds = b.build().unwrap();
        let prepared = PreparedCorpus::build(&ds, 1);
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let params = DiscoveryParams {
            topics: 3,
            vocabulary: 50,
            ..Default::default()
        };
        let by_string = discover_topics(&refs, &params);
        let by_corpus = discover_topics_prepared(&prepared, &params);
        assert_eq!(by_string.topics(), by_corpus.topics());

        // Assignment and the bootstrapped classifier agree bit for bit.
        let topic_of = by_string.membership_ids(prepared.interner());
        for (k, doc) in refs.iter().enumerate() {
            let (terms, counts) = prepared.doc_terms(k);
            let a = by_string.assign(doc);
            let b = by_string.assign_counts(terms, counts, &topic_of);
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "assignment diverged on doc {k}"
            );
            assert_eq!(
                by_string.classify(doc),
                by_string.classify_counts(terms, counts, &topic_of)
            );
        }
        let nb_string = by_string.bootstrap_classifier(&refs).unwrap();
        let nb_prepared = by_string.bootstrap_classifier_prepared(&prepared).unwrap();
        for doc in &refs {
            assert_eq!(
                nb_string
                    .posterior(doc)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                nb_prepared
                    .posterior(doc)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "bootstrapped models diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn zero_topics_rejected() {
        let _ = discover_topics(
            &["x"],
            &DiscoveryParams {
                topics: 0,
                ..Default::default()
            },
        );
    }
}
