//! Interest-vector mining for the two application scenarios.
//!
//! * **Scenario 1 (business advertisement)**: "We first mine the interest
//!   vector from a user-input advertisement `a_l`, denoted as `iv(a_l)`",
//!   then dot it with each blogger's domain-influence vector.
//! * **Scenario 2 (personalised recommendation)**: "MASS will extract the
//!   domain interest information from the profile" of a new user.
//!
//! Both are the same operation — map free text to a distribution over the
//! domain catalogue — so [`InterestMiner`] wraps the trained naive-Bayes
//! domain classifier and adds thresholding utilities (the Fig. 3 flow needs
//! "the domains mined from the advertisement", i.e. the salient subset, not
//! the full posterior).

use crate::nb::NaiveBayes;
use mass_types::DomainId;

/// Mines interest vectors over a domain catalogue from free text.
#[derive(Clone, Debug)]
pub struct InterestMiner {
    classifier: NaiveBayes,
}

impl InterestMiner {
    /// Wraps a trained domain classifier (same model the Post Analyzer uses,
    /// so advertisements and posts share one vocabulary).
    pub fn new(classifier: NaiveBayes) -> Self {
        InterestMiner { classifier }
    }

    /// The wrapped domain classifier.
    pub fn classifier(&self) -> &NaiveBayes {
        &self.classifier
    }

    /// Number of domains in the underlying catalogue.
    pub fn domain_count(&self) -> usize {
        self.classifier.classes()
    }

    /// The full interest vector `iv(text)`: a probability distribution over
    /// domains (sums to 1).
    pub fn interest_vector(&self, text: &str) -> Vec<f64> {
        self.classifier.posterior(text)
    }

    /// The salient domains of a text: those whose posterior exceeds
    /// `uniform × lift` (e.g. `lift = 2.0` means "at least twice as likely
    /// as chance"), sorted by decreasing weight.
    pub fn salient_domains(&self, text: &str, lift: f64) -> Vec<(DomainId, f64)> {
        let iv = self.interest_vector(text);
        let threshold = lift / iv.len() as f64;
        let mut out: Vec<(DomainId, f64)> = iv
            .into_iter()
            .enumerate()
            .filter(|&(_, w)| w >= threshold)
            .map(|(i, w)| (DomainId::new(i), w))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("posteriors are finite"));
        out
    }

    /// The single most likely domain of a text.
    pub fn dominant_domain(&self, text: &str) -> DomainId {
        DomainId::new(self.classifier.classify(text))
    }
}

/// Dot product of an interest vector and a blogger's domain-influence vector
/// — `Inf(b_i, a_l) = Inf(b_i, IV) · iv(a_l)` from Scenario 1.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn dot(interest: &[f64], influence: &[f64]) -> f64 {
    assert_eq!(interest.len(), influence.len(), "vector length mismatch");
    interest.iter().zip(influence).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nb::NaiveBayesTrainer;

    fn miner() -> InterestMiner {
        let mut t = NaiveBayesTrainer::new(3);
        t.add_document(0, "travel hotel flight beach vacation tour airport");
        t.add_document(1, "football basketball match team league goal sports shoes");
        t.add_document(2, "computer code software programming compiler");
        InterestMiner::new(t.build(1))
    }

    #[test]
    fn interest_vector_is_distribution() {
        let m = miner();
        let iv = m.interest_vector("new running shoes for the football team");
        assert_eq!(iv.len(), 3);
        assert!((iv.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(iv[1] > iv[0] && iv[1] > iv[2]);
    }

    #[test]
    fn nike_ad_maps_to_sports() {
        // The paper's running example: Nike would pick Sports.
        let m = miner();
        assert_eq!(
            m.dominant_domain("premium shoes for football and basketball"),
            DomainId::new(1)
        );
    }

    #[test]
    fn salient_domains_thresholded_and_sorted() {
        let m = miner();
        let sal = m.salient_domains("football match at the beach hotel", 1.0);
        assert!(!sal.is_empty());
        for w in sal.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Very high lift keeps only the dominant domain (or none).
        let strict = m.salient_domains("football football football", 2.0);
        assert_eq!(strict.first().map(|p| p.0), Some(DomainId::new(1)));
    }

    #[test]
    fn empty_text_yields_prior_distribution() {
        let m = miner();
        let iv = m.interest_vector("");
        assert!((iv.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[0.5, 0.5], &[2.0, 4.0]), 3.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn domain_count_matches_catalogue() {
        assert_eq!(miner().domain_count(), 3);
    }
}
