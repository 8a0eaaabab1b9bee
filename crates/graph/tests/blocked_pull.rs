//! Differential proptests for the cache-blocked CSR pull (DESIGN.md §14):
//! `pagerank_csr` and `hits_csr` must be `f64::to_bits`-identical across
//! every block size × thread count combination, on graphs built to stress
//! the blocking edge cases — dangling-heavy (most rows empty), stars (one
//! row spans every block), and dense multi-edge tangles (duplicate sources
//! inside one block segment). The multi-threaded runs go through
//! `without_work_floors`: these graphs sit below the link-analysis floor,
//! where every thread count would take the serial pull.

use mass_graph::{
    hits_csr, pagerank_csr, DiGraph, HitsParams, LinkCsr, PageRankParams, DEFAULT_BLOCK_NODES,
};
use mass_par::without_work_floors;
use proptest::prelude::*;

/// Adversarial graph shapes: `kind` selects dangling-heavy, star, or
/// multi-edge-dense construction over up to 60 nodes.
fn arb_adversarial_graph() -> impl Strategy<Value = DiGraph> {
    (0u8..3, 2usize..60).prop_flat_map(|(kind, n)| {
        proptest::collection::vec((0..n, 0..n), 0..60).prop_map(move |raw| match kind {
            // Dangling-heavy: only a few sources emit edges; most nodes
            // have empty rows on both sides and donate teleport mass.
            0 => DiGraph::from_edges(n, raw.into_iter().take(20).map(|(u, v)| (u % n.min(4), v))),
            // Star plus noise: every node links the hub (one predecessor
            // row crosses every source block), hub links a few back.
            1 => {
                let mut edges: Vec<(usize, usize)> = (1..n).map(|u| (u, 0)).collect();
                edges.extend((0..n.min(3)).map(|v| (0, v)));
                edges.extend(raw.into_iter().take(10));
                DiGraph::from_edges(n, edges)
            }
            // Multi-edge tangle: heavy duplication so block segments carry
            // repeated sources with multiplicity.
            _ => {
                let mut edges = raw.clone();
                edges.extend(raw.iter().take(20).copied());
                edges.extend(raw.iter().take(7).copied());
                DiGraph::from_edges(n, edges)
            }
        })
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pagerank_blocked_is_bit_identical_across_blocks_and_threads(
        g in arb_adversarial_graph(),
    ) {
        let link = LinkCsr::from_digraph(&g);
        let reference = pagerank_csr(
            &link,
            &PageRankParams { block_nodes: usize::MAX, ..Default::default() },
            None,
        );
        // Tiny blocks (every row splits), the auto default (never engages
        // at this scale), a mid-size tile, and ∞ (the plain kernel).
        for block_nodes in [2usize, 7, DEFAULT_BLOCK_NODES, 0] {
            for threads in [1usize, 4] {
                let got = without_work_floors(|| pagerank_csr(
                    &link,
                    &PageRankParams { block_nodes, threads, ..Default::default() },
                    None,
                ));
                prop_assert_eq!(got.iterations, reference.iterations);
                prop_assert_eq!(
                    bits(&got.scores),
                    bits(&reference.scores),
                    "pagerank drifted at block={} threads={}",
                    block_nodes,
                    threads
                );
                prop_assert_eq!(got.residual.to_bits(), reference.residual.to_bits());
            }
        }
    }

    #[test]
    fn hits_blocked_is_bit_identical_across_blocks_and_threads(
        g in arb_adversarial_graph(),
    ) {
        let link = LinkCsr::from_digraph(&g);
        let reference = hits_csr(
            &link,
            &HitsParams { block_nodes: usize::MAX, ..Default::default() },
            None,
        );
        for block_nodes in [2usize, 7, DEFAULT_BLOCK_NODES, 0] {
            for threads in [1usize, 4] {
                let got = without_work_floors(|| hits_csr(
                    &link,
                    &HitsParams { block_nodes, threads, ..Default::default() },
                    None,
                ));
                prop_assert_eq!(got.iterations, reference.iterations);
                prop_assert_eq!(
                    bits(&got.authority),
                    bits(&reference.authority),
                    "hits authority drifted at block={} threads={}",
                    block_nodes,
                    threads
                );
                prop_assert_eq!(
                    bits(&got.hub),
                    bits(&reference.hub),
                    "hits hub drifted at block={} threads={}",
                    block_nodes,
                    threads
                );
            }
        }
    }
}
