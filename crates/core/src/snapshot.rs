//! Immutable serving snapshots of a live [`IncrementalMass`].
//!
//! The online layer (`mass-serve`) answers every query from an
//! epoch-versioned [`ServingSnapshot`] swapped atomically behind an `Arc`:
//! readers never see a half-refreshed engine, and a refresh that fails
//! simply never publishes, leaving the last-good snapshot in place. The
//! snapshot precomputes what the hot path needs — the general and
//! per-domain top-k lists (capped at `cap`, the serving layer's `k`
//! ceiling) and the blogger × domain influence matrix — so `GET /topk` is
//! a slice copy and `POST /match` is one interest-vector classification
//! plus a dot product per blogger. What an epoch leaves unchanged — the
//! blogger names, the frozen interest miner, the domain matrix the refresh
//! built — is shared with the engine through `Arc`s, not copied per
//! capture.

use crate::incremental::IncrementalMass;
use crate::topk::{top_k, top_k_in_domain};
use mass_text::interest::dot;
use mass_text::InterestMiner;
use mass_types::{BloggerId, DomainId};
use std::sync::Arc;

/// A read-only, epoch-stamped view of one refresh of the engine.
#[derive(Clone, Debug)]
pub struct ServingSnapshot {
    epoch: u64,
    /// The engine's analysis horizon at capture time (None when the
    /// engine runs without temporal params).
    as_of: Option<u64>,
    cap: usize,
    blogger_names: Arc<Vec<String>>,
    domain_names: Vec<String>,
    /// General top-`cap` ranking, best first.
    general: Vec<(BloggerId, f64)>,
    /// Per-domain top-`cap` rankings, indexed by domain id.
    per_domain: Vec<Vec<(BloggerId, f64)>>,
    /// Blogger × domain influence (ad matching scans this).
    domain_matrix: Arc<Vec<Vec<f64>>>,
    miner: Option<Arc<InterestMiner>>,
}

impl ServingSnapshot {
    /// Captures the engine's current state. `cap` bounds every precomputed
    /// top-k list (and therefore the largest `k` the snapshot can answer);
    /// it is clamped to at least 1.
    pub fn capture(engine: &IncrementalMass, cap: usize) -> ServingSnapshot {
        let cap = cap.max(1);
        let ds = engine.dataset();
        let domain_matrix = engine.shared_domain_matrix();
        let per_domain = (0..ds.domains.len())
            .map(|d| top_k_in_domain(&domain_matrix, d, cap))
            .collect();
        ServingSnapshot {
            epoch: engine.epoch(),
            as_of: engine.as_of(),
            cap,
            blogger_names: engine.shared_blogger_names(),
            domain_names: ds.domains.names().to_vec(),
            general: engine.top_k_general(cap),
            per_domain,
            domain_matrix,
            miner: engine.interest_miner(),
        }
    }

    /// The refresh epoch this snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The analysis horizon the rankings were decayed at, when the engine
    /// runs the temporal facet (`GET /topk?as_of=` validates against it).
    pub fn as_of(&self) -> Option<u64> {
        self.as_of
    }

    /// The top-k cap every precomputed list honours.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of bloggers at capture time.
    pub fn bloggers(&self) -> usize {
        self.blogger_names.len()
    }

    /// Number of domains in the catalogue.
    pub fn domains(&self) -> usize {
        self.domain_names.len()
    }

    /// A blogger's display name (None when out of range).
    pub fn blogger_name(&self, id: BloggerId) -> Option<&str> {
        self.blogger_names.get(id.index()).map(String::as_str)
    }

    /// A domain's display name (None when out of range).
    pub fn domain_name(&self, id: DomainId) -> Option<&str> {
        self.domain_names.get(id.index()).map(String::as_str)
    }

    /// Case-insensitive domain lookup (the `?domain=` query parameter).
    pub fn domain_id(&self, name: &str) -> Option<DomainId> {
        self.domain_names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
            .map(DomainId::new)
    }

    /// Top-k ranking, general or in one domain, from the precomputed
    /// lists: a slice copy, no sorting. `k` is clamped to the snapshot cap.
    /// Returns `None` for an out-of-range domain.
    pub fn top_k(&self, domain: Option<DomainId>, k: usize) -> Option<&[(BloggerId, f64)]> {
        let list = match domain {
            None => &self.general,
            Some(d) => self.per_domain.get(d.index())?,
        };
        Some(&list[..k.min(list.len())])
    }

    /// Mines the interest vector of an advertisement / profile text.
    /// `None` when the snapshot carries no classifier (untagged corpus).
    pub fn mine_interest(&self, text: &str) -> Option<Vec<f64>> {
        Some(self.miner.as_ref()?.interest_vector(text))
    }

    /// The salient domains of a text, for echoing back what the miner saw
    /// (`None` without a classifier).
    pub fn salient_domains(&self, text: &str, lift: f64) -> Option<Vec<(DomainId, f64)>> {
        Some(self.miner.as_ref()?.salient_domains(text, lift))
    }

    /// Top-k bloggers for a mined interest vector: one dot product per
    /// blogger against the domain matrix (Scenario 1 of the paper).
    pub fn match_interest(&self, interest: &[f64], k: usize) -> Vec<(BloggerId, f64)> {
        let scores: Vec<f64> = self
            .domain_matrix
            .iter()
            .map(|row| dot(interest, row))
            .collect();
        top_k(&scores, k.min(self.cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::MassAnalysis;
    use crate::params::MassParams;
    use crate::recommend::Recommender;
    use mass_synth::{advertisement_text, generate, SynthConfig};

    fn engine() -> IncrementalMass {
        let out = generate(&SynthConfig::tiny(9));
        IncrementalMass::new(out.dataset, MassParams::paper())
    }

    #[test]
    fn capture_matches_the_engine_rankings() {
        let inc = engine();
        let snap = ServingSnapshot::capture(&inc, 5);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.top_k(None, 5).unwrap(), &inc.top_k_general(5)[..]);
        for d in 0..snap.domains() {
            let id = DomainId::new(d);
            assert_eq!(
                snap.top_k(Some(id), 5).unwrap(),
                &inc.top_k_in_domain(id, 5)[..],
                "domain {d}"
            );
        }
    }

    #[test]
    fn k_clamps_to_the_cap_and_population() {
        let inc = engine();
        let snap = ServingSnapshot::capture(&inc, 3);
        assert_eq!(snap.top_k(None, 100).unwrap().len(), 3);
        assert_eq!(snap.top_k(None, 2).unwrap().len(), 2);
        let wide = ServingSnapshot::capture(&inc, 10_000);
        assert_eq!(wide.top_k(None, 10_000).unwrap().len(), snap.bloggers());
    }

    #[test]
    fn unknown_domain_is_none_not_panic() {
        let inc = engine();
        let snap = ServingSnapshot::capture(&inc, 5);
        assert!(snap.top_k(Some(DomainId::new(999)), 3).is_none());
        assert!(snap.domain_id("no-such-domain").is_none());
        assert_eq!(snap.domain_id("sports"), Some(DomainId::new(6)));
    }

    #[test]
    fn match_interest_agrees_with_the_recommender() {
        let inc = engine();
        let snap = ServingSnapshot::capture(&inc, 8);
        let analysis = inc.to_analysis();
        let rec = Recommender::new(&analysis);
        let ad = advertisement_text(DomainId::new(6), 1);
        let iv = snap.mine_interest(&ad).expect("classifier available");
        let got = snap.match_interest(&iv, 8);
        let want = rec.for_advertisement(&ad, 8).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn epoch_tracks_refreshes() {
        let mut inc = engine();
        let before = ServingSnapshot::capture(&inc, 4);
        let pid = inc.add_post(mass_types::Post::new(
            mass_types::BloggerId::new(0),
            "t",
            "fresh words arriving",
        ));
        inc.add_comment(
            pid,
            mass_types::Comment::new(mass_types::BloggerId::new(1), "hi"),
        );
        inc.refresh();
        let after = ServingSnapshot::capture(&inc, 4);
        assert_eq!(before.epoch(), 0);
        assert_eq!(after.epoch(), 1);
    }

    #[test]
    fn untagged_corpus_has_no_miner() {
        let mut b = mass_types::DatasetBuilder::new();
        let x = b.blogger("x");
        b.post(x, "t", "words");
        let ds = b.build().unwrap();
        let inc = IncrementalMass::new(ds, MassParams::paper());
        let snap = ServingSnapshot::capture(&inc, 4);
        assert!(snap.mine_interest("anything").is_none());
        assert!(snap.salient_domains("anything", 1.0).is_none());
    }

    #[test]
    fn batch_and_incremental_snapshots_agree_on_scores() {
        // The snapshot is a pure function of the engine state, which at
        // epoch 0 equals a batch analysis.
        let out = generate(&SynthConfig::tiny(9));
        let params = MassParams::paper();
        let inc = IncrementalMass::new(out.dataset.clone(), params.clone());
        let snap = ServingSnapshot::capture(&inc, 6);
        let batch = MassAnalysis::analyze(&out.dataset, &params);
        assert_eq!(snap.top_k(None, 6).unwrap(), &batch.top_k_general(6)[..]);
    }
}
