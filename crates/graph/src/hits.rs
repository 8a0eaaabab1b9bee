//! HITS — Kleinberg's hubs-and-authorities (ref \[4\] of the paper).
//!
//! The paper cites HITS alongside PageRank as a way to measure the authority
//! facet; `mass-core` exposes it as an alternative GL provider and the
//! evaluation harness compares both.

use crate::csr::LinkCsr;
use crate::digraph::DiGraph;
use crate::pagerank::warm_start;

/// Tuning knobs for [`hits`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HitsParams {
    /// Stop when the L1 change of the authority vector drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Worker threads for the `mass-par` layer: `0` = every available core,
    /// `1` = the exact legacy serial loop, `n` = cap. Scores are bit-identical
    /// at every setting (DESIGN.md §8).
    pub threads: usize,
    /// Source slots per cache tile for the authority pull: `0` = auto
    /// (plain kernel), an explicit value forces that tile, `usize::MAX` =
    /// never block. Scores are bit-identical at every setting (§14).
    pub block_nodes: usize,
}

impl Default for HitsParams {
    fn default() -> Self {
        HitsParams {
            tolerance: 1e-10,
            max_iterations: 200,
            threads: 1,
            block_nodes: 0,
        }
    }
}

/// Output of [`hits`]: parallel hub and authority vectors, each normalised
/// to sum to 1 (L1) for non-empty graphs with at least one edge.
#[derive(Clone, Debug, PartialEq)]
pub struct HitsScores {
    /// Authority score per node (how much good hubs point at it).
    pub authority: Vec<f64>,
    /// Hub score per node (how much it points at good authorities).
    pub hub: Vec<f64>,
    /// Sweeps performed.
    pub iterations: usize,
    /// Final L1 residual (authority + hub change of the last sweep; 0 for
    /// the degenerate early returns).
    pub residual: f64,
    /// Whether convergence was reached within the cap.
    pub converged: bool,
}

/// Runs the HITS mutual-reinforcement iteration.
///
/// `auth(v) = Σ_{u→v} hub(u)`, `hub(u) = Σ_{u→v} auth(v)`, with L1
/// normalisation after each half-step. Graphs with no edges yield uniform
/// vectors (degenerate but well-defined).
pub fn hits(g: &DiGraph, params: &HitsParams) -> HitsScores {
    hits_csr(&LinkCsr::from_digraph(g), params, None)
}

/// [`hits`] over a prebuilt [`LinkCsr`], optionally warm-starting the *hub*
/// vector (the authority half-step derives from hubs first, so the hub
/// vector is the iteration's true state) — the incremental engine's entry
/// point.
///
/// With `warm_hub = None` this is exactly [`hits`] (same bits). A warm hub
/// vector is padded/sanitised and L1-renormalised like
/// [`pagerank_csr`](crate::pagerank::pagerank_csr)'s warm start;
/// warm results are tolerance-close to cold ones, not bit-identical.
pub fn hits_csr(g: &LinkCsr, params: &HitsParams, warm_hub: Option<&[f64]>) -> HitsScores {
    let n = g.len();
    if n == 0 {
        return HitsScores {
            authority: vec![],
            hub: vec![],
            iterations: 0,
            residual: 0.0,
            converged: true,
        };
    }
    let uniform = 1.0 / n as f64;
    if g.edge_count() == 0 {
        return HitsScores {
            authority: vec![uniform; n],
            hub: vec![uniform; n],
            iterations: 0,
            residual: 0.0,
            converged: true,
        };
    }
    let ex = mass_par::kernel_executor(
        params.threads,
        n + g.edge_count(),
        mass_par::floor::LINK_ANALYSIS,
    );
    let mut auth = vec![uniform; n];
    let mut hub = match warm_hub {
        None => vec![uniform; n],
        Some(prev) => warm_start(prev, n, uniform),
    };
    let mut iterations = 0;
    let mut residual = f64::INFINITY;

    // Same CSR pull kernels as `pagerank`, for every thread count:
    // ascending-`u` predecessor rows reproduce the legacy serial scatter's
    // per-slot addition order bit for bit (cache-blocked on large graphs,
    // DESIGN.md §14), and the hub half-step's successor rows keep each
    // node's insertion-order sum. The next-vector buffers are allocated
    // once and swapped, not reallocated per sweep.
    let kernel = crate::pull::PullKernel::prepare(g.predecessors_csr(), params.block_nodes);
    let mut new_auth = vec![0.0f64; n];
    let mut new_hub = vec![0.0f64; n];
    while iterations < params.max_iterations {
        iterations += 1;
        kernel.pull(ex, &hub, 0.0, &mut new_auth);
        normalize_l1(&mut new_auth, uniform);

        {
            let new_auth = &new_auth;
            ex.par_fill(&mut new_hub, |u| {
                g.successors(u).iter().map(|&v| new_auth[v as usize]).sum()
            });
        }
        normalize_l1(&mut new_hub, uniform);

        residual = auth
            .iter()
            .zip(&new_auth)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            + hub
                .iter()
                .zip(&new_hub)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        std::mem::swap(&mut auth, &mut new_auth);
        std::mem::swap(&mut hub, &mut new_hub);
        if residual < params.tolerance {
            return HitsScores {
                authority: auth,
                hub,
                iterations,
                residual,
                converged: true,
            };
        }
    }
    HitsScores {
        authority: auth,
        hub,
        iterations,
        residual,
        converged: false,
    }
}

fn normalize_l1(v: &mut [f64], fallback: f64) {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        v.iter_mut().for_each(|x| *x /= sum);
    } else {
        v.iter_mut().for_each(|x| *x = fallback);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let s = hits(&DiGraph::new(0), &HitsParams::default());
        assert!(s.authority.is_empty());
        assert!(s.converged);
    }

    #[test]
    fn edgeless_graph_is_uniform() {
        let s = hits(&DiGraph::new(4), &HitsParams::default());
        for a in &s.authority {
            assert!((a - 0.25).abs() < 1e-12);
        }
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn star_center_is_authority_leaves_are_hubs() {
        // 1,2,3 all point at 0.
        let g = DiGraph::from_edges(4, [(1, 0), (2, 0), (3, 0)]);
        let s = hits(&g, &HitsParams::default());
        assert!(s.converged);
        assert!(s.authority[0] > 0.99);
        for leaf in 1..4 {
            assert!((s.hub[leaf] - 1.0 / 3.0).abs() < 1e-6);
            assert!(s.authority[leaf] < 1e-6);
        }
        assert!(s.hub[0] < 1e-6);
    }

    #[test]
    fn scores_are_l1_normalised() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let s = hits(&g, &HitsParams::default());
        assert!((s.authority.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((s.hub.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bipartite_hub_authority_split() {
        // Hubs {0,1} each point to authorities {2,3}.
        let g = DiGraph::from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]);
        let s = hits(&g, &HitsParams::default());
        assert!(s.authority[2] > 0.49 && s.authority[3] > 0.49);
        assert!(s.hub[0] > 0.49 && s.hub[1] > 0.49);
    }

    #[test]
    fn parallel_scores_are_bit_identical_to_serial() {
        let mut edges = Vec::new();
        for u in 0..83usize {
            edges.push((u, (u * 5 + 2) % 83));
            edges.push((u, (u * 17 + 7) % 83));
            if u % 4 == 0 {
                edges.push((u, (u * 5 + 2) % 83)); // parallel edge
            }
        }
        let g = DiGraph::from_edges(83, edges);
        let serial = hits(&g, &HitsParams::default());
        for threads in [2, 3, 8] {
            // Floors off: this graph is below the link-analysis floor.
            let par = mass_par::without_work_floors(|| {
                hits(
                    &g,
                    &HitsParams {
                        threads,
                        ..Default::default()
                    },
                )
            });
            assert_eq!(par.iterations, serial.iterations);
            assert_eq!(
                par.authority
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                serial
                    .authority
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                "hits authority diverged at threads={threads}"
            );
            assert_eq!(
                par.hub.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                serial.hub.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "hits hub diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn csr_entry_point_without_warm_start_matches_hits_bitwise() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 1), (3, 1), (4, 3)]);
        let a = hits(&g, &HitsParams::default());
        let b = hits_csr(&LinkCsr::from_digraph(&g), &HitsParams::default(), None);
        assert_eq!(
            a.authority.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            b.authority.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            a.hub.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            b.hub.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn warm_hub_start_reaches_the_fixed_point_in_fewer_or_equal_sweeps() {
        let mut edges = Vec::new();
        for u in 0..40usize {
            edges.push((u, (u * 3 + 1) % 40));
            edges.push((u, (u * 11 + 7) % 40));
        }
        let g = DiGraph::from_edges(40, edges);
        let link = LinkCsr::from_digraph(&g);
        let cold = hits_csr(&link, &HitsParams::default(), None);
        assert!(cold.converged);
        let warm = hits_csr(&link, &HitsParams::default(), Some(&cold.hub));
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        for (a, b) in warm.authority.iter().zip(&cold.authority) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn iteration_cap_respected() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let s = hits(
            &g,
            &HitsParams {
                tolerance: 0.0,
                max_iterations: 3,
                ..Default::default()
            },
        );
        assert_eq!(s.iterations, 3);
        assert!(!s.converged);
    }
}
