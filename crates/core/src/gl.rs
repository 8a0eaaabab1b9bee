//! General-Links authority scores — the second facet of Eq. 1.
//!
//! "External links to a blog provides another metrics to measure the
//! influence of the blogger, like PageRank and HITS" (Section I). The GL
//! vector is computed over the blogger friend/space link graph and
//! max-normalised to [0, 1] so it combines with AP on a common scale.

use crate::params::{GlProvider, MassParams};
use mass_graph::{hits_csr, pagerank_csr, DiGraph, HitsParams, LinkCsr, PageRankParams};
use mass_types::Dataset;

/// Builds the blogger-level link graph (friend/space links).
pub fn blogger_graph(ds: &Dataset) -> DiGraph {
    let mut g = DiGraph::new(ds.bloggers.len());
    for (id, blogger) in ds.bloggers_enumerated() {
        for &friend in &blogger.friends {
            g.add_edge(id.index(), friend.index());
        }
    }
    g
}

/// Builds the post-reply graph: one `commenter → author` edge per comment,
/// so parallel edges carry comment multiplicity (the Fig. 4 edge weights).
pub fn comment_graph(ds: &Dataset) -> DiGraph {
    let mut g = DiGraph::new(ds.bloggers.len());
    for post in &ds.posts {
        for c in &post.comments {
            g.add_edge(c.commenter.index(), post.author.index());
        }
    }
    g
}

/// Builds the post-level citation graph (used by baselines).
pub fn post_graph(ds: &Dataset) -> DiGraph {
    let mut g = DiGraph::new(ds.posts.len());
    for (id, post) in ds.posts_enumerated() {
        for &target in &post.links_to {
            g.add_edge(id.index(), target.index());
        }
    }
    g
}

/// The active provider's input graph, over bloggers.
///
/// [`GlProvider::None`] gets an edgeless graph (its GL vector is
/// identically zero, but the node count still has to track the dataset so
/// the incremental engine's maintained CSR stays dimensioned).
pub fn gl_graph(ds: &Dataset, params: &MassParams) -> DiGraph {
    match params.gl {
        GlProvider::PageRank | GlProvider::Hits | GlProvider::InlinkCount => blogger_graph(ds),
        GlProvider::CommentGraphPageRank => comment_graph(ds),
        GlProvider::None => DiGraph::new(ds.bloggers.len()),
    }
}

/// Output of [`gl_scores_csr`]: the normalised facet plus everything the
/// incremental engine needs to warm-start and report the next refresh.
#[derive(Clone, Debug, PartialEq)]
pub struct GlRefresh {
    /// Max-normalised GL facet (what `SolverInputs::gl` stores).
    pub gl: Vec<f64>,
    /// Provider-native state before normalisation — PageRank's stationary
    /// distribution, HITS's hub vector — the right seed for the next
    /// warm-started refresh. Empty for the closed-form providers.
    pub warm: Vec<f64>,
    /// Link-analysis sweeps performed (0 for closed-form providers).
    pub sweeps: usize,
    /// Final residual of the link iteration (0 for closed-form providers).
    pub residual: f64,
    /// Whether the link iteration converged.
    pub converged: bool,
}

/// [`gl_scores`] over a prebuilt [`LinkCsr`] of [`gl_graph`], optionally
/// warm-started from a previous [`GlRefresh::warm`] vector.
///
/// With `warm = None` the scores are bit-identical to [`gl_scores`] over
/// the same graph — the incremental engine's Exact mode relies on this.
pub fn gl_scores_csr(link: &LinkCsr, params: &MassParams, warm: Option<&[f64]>) -> GlRefresh {
    let n = link.len();
    let (mut scores, warm_out, sweeps, residual, converged) = match params.gl {
        GlProvider::PageRank | GlProvider::CommentGraphPageRank => {
            let r = pagerank_csr(
                link,
                &PageRankParams {
                    threads: params.threads,
                    ..Default::default()
                },
                warm,
            );
            let warm_out = r.scores.clone();
            (r.scores, warm_out, r.iterations, r.residual, r.converged)
        }
        GlProvider::Hits => {
            let r = hits_csr(
                link,
                &HitsParams {
                    threads: params.threads,
                    ..Default::default()
                },
                warm,
            );
            (r.authority, r.hub, r.iterations, r.residual, r.converged)
        }
        GlProvider::InlinkCount => {
            let scores: Vec<f64> = (0..n).map(|i| link.in_degree(i) as f64).collect();
            (scores, Vec::new(), 0, 0.0, true)
        }
        GlProvider::None => (vec![0.0; n], Vec::new(), 0, 0.0, true),
    };
    let max = scores.iter().cloned().fold(0.0f64, f64::max);
    if max > 0.0 {
        scores.iter_mut().for_each(|s| *s /= max);
    }
    GlRefresh {
        gl: scores,
        warm: warm_out,
        sweeps,
        residual,
        converged,
    }
}

/// Per-blogger GL scores in [0, 1] (max-normalised; all-zero inputs stay
/// zero, e.g. with [`GlProvider::None`]).
pub fn gl_scores(ds: &Dataset, params: &MassParams) -> Vec<f64> {
    gl_scores_csr(&LinkCsr::from_digraph(&gl_graph(ds, params)), params, None).gl
}

#[cfg(test)]
mod tests {
    use super::*;
    use mass_types::DatasetBuilder;

    fn linked_dataset() -> Dataset {
        // Everyone links to blogger 0; blogger 0 links to 1.
        let mut b = DatasetBuilder::new();
        let ids: Vec<_> = (0..5).map(|i| b.blogger(format!("b{i}"))).collect();
        for &x in &ids[1..] {
            b.friend(x, ids[0]);
        }
        b.friend(ids[0], ids[1]);
        b.build().unwrap()
    }

    #[test]
    fn graphs_mirror_dataset_links() {
        let ds = linked_dataset();
        let g = blogger_graph(&ds);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.in_degree(0), 4);
    }

    #[test]
    fn post_graph_mirrors_post_links() {
        let mut b = DatasetBuilder::new();
        let a = b.blogger("a");
        let p0 = b.post(a, "t", "x");
        let p1 = b.post(a, "t", "y");
        b.link_posts(p1, p0);
        let ds = b.build().unwrap();
        let g = post_graph(&ds);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.in_degree(p0.index()), 1);
    }

    #[test]
    fn pagerank_gl_peaks_at_hub_and_is_normalised() {
        let ds = linked_dataset();
        let gl = gl_scores(&ds, &MassParams::paper());
        assert_eq!(gl[0], 1.0, "hub must have the max score");
        for (i, s) in gl.iter().enumerate() {
            assert!((0.0..=1.0).contains(s), "gl[{i}] = {s}");
        }
        assert!(gl[0] > gl[2]);
    }

    #[test]
    fn hits_gl_also_peaks_at_hub() {
        let ds = linked_dataset();
        let gl = gl_scores(
            &ds,
            &MassParams {
                gl: GlProvider::Hits,
                ..MassParams::paper()
            },
        );
        assert_eq!(gl[0], 1.0);
    }

    #[test]
    fn inlink_gl_counts() {
        let ds = linked_dataset();
        let gl = gl_scores(
            &ds,
            &MassParams {
                gl: GlProvider::InlinkCount,
                ..MassParams::paper()
            },
        );
        assert_eq!(gl[0], 1.0); // 4 inlinks, max
        assert_eq!(gl[1], 0.25); // 1 inlink
        assert_eq!(gl[2], 0.0);
    }

    #[test]
    fn comment_graph_counts_replies() {
        let mut b = DatasetBuilder::new();
        let author = b.blogger("author");
        let fan = b.blogger("fan");
        let p = b.post(author, "t", "x");
        b.comment(p, fan, "one", None);
        b.comment(p, fan, "two", None);
        let ds = b.build().unwrap();
        let g = comment_graph(&ds);
        assert_eq!(g.edge_count(), 2, "parallel edges carry multiplicity");
        assert_eq!(g.in_degree(0), 2);
        let gl = gl_scores(
            &ds,
            &MassParams {
                gl: GlProvider::CommentGraphPageRank,
                ..MassParams::paper()
            },
        );
        assert_eq!(
            gl[0], 1.0,
            "the commented-on author has max reply authority"
        );
        assert!(gl[1] < 1.0);
    }

    #[test]
    fn none_provider_is_all_zero() {
        let ds = linked_dataset();
        let gl = gl_scores(
            &ds,
            &MassParams {
                gl: GlProvider::None,
                ..MassParams::paper()
            },
        );
        assert!(gl.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn csr_path_matches_gl_scores_bitwise_for_every_provider() {
        let mut b = DatasetBuilder::new();
        let ids: Vec<_> = (0..6).map(|i| b.blogger(format!("b{i}"))).collect();
        for &x in &ids[1..] {
            b.friend(x, ids[0]);
        }
        b.friend(ids[0], ids[1]);
        let p = b.post(ids[0], "t", "x");
        b.comment(p, ids[1], "one", None);
        b.comment(p, ids[2], "two", None);
        let ds = b.build().unwrap();
        for gl in [
            GlProvider::PageRank,
            GlProvider::Hits,
            GlProvider::InlinkCount,
            GlProvider::CommentGraphPageRank,
            GlProvider::None,
        ] {
            let params = MassParams {
                gl,
                ..MassParams::paper()
            };
            let legacy = gl_scores(&ds, &params);
            let link = LinkCsr::from_digraph(&gl_graph(&ds, &params));
            let r = gl_scores_csr(&link, &params, None);
            assert_eq!(
                legacy.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                r.gl.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{gl:?}"
            );
            assert!(r.converged, "{gl:?}");
        }
    }

    #[test]
    fn warm_started_gl_is_tolerance_close_with_fewer_or_equal_sweeps() {
        let ds = linked_dataset();
        let params = MassParams::paper();
        let link = LinkCsr::from_digraph(&gl_graph(&ds, &params));
        let cold = gl_scores_csr(&link, &params, None);
        assert!(cold.sweeps > 0 && !cold.warm.is_empty());
        let warm = gl_scores_csr(&link, &params, Some(&cold.warm));
        assert!(
            warm.sweeps <= cold.sweeps,
            "warm {} vs cold {}",
            warm.sweeps,
            cold.sweeps
        );
        for (a, b) in warm.gl.iter().zip(&cold.gl) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn linkless_corpus_is_uniform_pagerank() {
        let mut b = DatasetBuilder::new();
        b.blogger("x");
        b.blogger("y");
        let ds = b.build().unwrap();
        let gl = gl_scores(&ds, &MassParams::paper());
        assert_eq!(
            gl,
            vec![1.0, 1.0],
            "uniform PageRank normalises to all-ones"
        );
    }
}
