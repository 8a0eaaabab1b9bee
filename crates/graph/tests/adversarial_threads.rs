//! Thread-count differential proptests for the CSR pull (DESIGN.md §8):
//! `pagerank_csr` and `hits_csr` must be `f64::to_bits`-identical at every
//! thread count, on graphs built to stress the pull's edge cases —
//! dangling-heavy (most rows empty), stars (one row holds every source),
//! and dense multi-edge tangles (duplicate sources inside one row). The
//! multi-threaded runs go through `without_work_floors`: these graphs sit
//! below the link-analysis floor, where every thread count would take the
//! serial pull.

use mass_graph::{hits_csr, pagerank_csr, DiGraph, HitsParams, LinkCsr, PageRankParams};
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
            // row lists every node), hub links a few back.
            1 => {
                let mut edges: Vec<(usize, usize)> = (1..n).map(|u| (u, 0)).collect();
                edges.extend((0..n.min(3)).map(|v| (0, v)));
                edges.extend(raw.into_iter().take(10));
                DiGraph::from_edges(n, edges)
            }
            // Multi-edge tangle: heavy duplication so rows carry repeated
            // sources with multiplicity.
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
    fn pagerank_is_bit_identical_across_threads(g in arb_adversarial_graph()) {
        let link = LinkCsr::from_digraph(&g);
        let serial = pagerank_csr(&link, &PageRankParams::default(), None);
        for threads in [2usize, 4] {
            let got = without_work_floors(|| pagerank_csr(
                &link,
                &PageRankParams { threads, ..Default::default() },
                None,
            ));
            prop_assert_eq!(got.iterations, serial.iterations);
            prop_assert_eq!(
                bits(&got.scores),
                bits(&serial.scores),
                "pagerank drifted at threads={}",
                threads
            );
            prop_assert_eq!(got.residual.to_bits(), serial.residual.to_bits());
        }
    }

    #[test]
    fn hits_is_bit_identical_across_threads(g in arb_adversarial_graph()) {
        let link = LinkCsr::from_digraph(&g);
        let serial = hits_csr(&link, &HitsParams::default(), None);
        for threads in [2usize, 4] {
            let got = without_work_floors(|| hits_csr(
                &link,
                &HitsParams { threads, ..Default::default() },
                None,
            ));
            prop_assert_eq!(got.iterations, serial.iterations);
            prop_assert_eq!(
                bits(&got.authority),
                bits(&serial.authority),
                "hits authority drifted at threads={}",
                threads
            );
            prop_assert_eq!(
                bits(&got.hub),
                bits(&serial.hub),
                "hits hub drifted at threads={}",
                threads
            );
        }
    }
}
