//! Differential tests for incremental CSR maintenance: a [`LinkCsr`] kept
//! current through [`LinkCsr::apply_edits`] must equal a from-scratch
//! rebuild of the edited graph — structurally, and through the pull kernels
//! (`pagerank_csr` / `hits_csr`) bit for bit at several thread counts.
//!
//! The edit batches are adversarial on purpose: self-loops, duplicate
//! edges, edges into brand-new nodes, and nodes that stay isolated.
//! The kernels run under `without_work_floors`, so threads 4 takes the
//! chunked pull even on graphs below the link-analysis floor.

use mass_graph::{hits_csr, pagerank_csr, DiGraph, HitsParams, LinkCsr, PageRankParams};
use mass_par::without_work_floors;
use proptest::prelude::*;

/// A base graph plus a batch of append-only edits: `added_nodes` new nodes
/// and edges over the grown id range.
fn arb_base_and_edits() -> impl Strategy<Value = (DiGraph, usize, Vec<(u32, u32)>)> {
    (1usize..30, 0usize..6).prop_flat_map(|(n, added)| {
        let grown = n + added;
        (
            proptest::collection::vec((0..n, 0..n), 0..80)
                .prop_map(move |edges| DiGraph::from_edges(n, edges)),
            Just(added),
            proptest::collection::vec(((0..grown as u32), (0..grown as u32)), 0..40),
        )
    })
}

/// The rebuilt graph: base edges in base order, then the edit batch in
/// batch order — the same append discipline `apply_edits` assumes.
fn rebuilt(base: &DiGraph, added_nodes: usize, edits: &[(u32, u32)]) -> DiGraph {
    let mut g = DiGraph::new(base.len() + added_nodes);
    for u in 0..base.len() {
        for v in base.successors(u) {
            g.add_edge(u, v);
        }
    }
    for &(u, v) in edits {
        g.add_edge(u as usize, v as usize);
    }
    g
}

proptest! {
    /// Structural equality: the maintained bundle is indistinguishable from
    /// a rebuild — rows, degrees, orderings, everything.
    #[test]
    fn maintained_link_csr_equals_rebuild((base, added, edits) in arb_base_and_edits()) {
        let mut link = LinkCsr::from_digraph(&base);
        link.apply_edits(added, &edits);
        let want = LinkCsr::from_digraph(&rebuilt(&base, added, &edits));
        prop_assert_eq!(link, want);
    }

    /// Kernel equality: PageRank and HITS over the maintained bundle are
    /// bit-identical to the rebuild, at one thread and four.
    #[test]
    fn kernels_over_maintained_csr_are_bit_identical((base, added, edits) in arb_base_and_edits()) {
        let mut link = LinkCsr::from_digraph(&base);
        link.apply_edits(added, &edits);
        let fresh = LinkCsr::from_digraph(&rebuilt(&base, added, &edits));
        for threads in [1usize, 4] {
            let pr_params = PageRankParams { threads, ..Default::default() };
            let (a, b) = without_work_floors(|| {
                (pagerank_csr(&link, &pr_params, None), pagerank_csr(&fresh, &pr_params, None))
            });
            prop_assert_eq!(a.iterations, b.iterations, "pagerank sweeps at threads={}", threads);
            prop_assert_eq!(
                a.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                b.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "pagerank diverged at threads={}", threads
            );
            let h_params = HitsParams { threads, ..Default::default() };
            let (ha, hb) = without_work_floors(|| {
                (hits_csr(&link, &h_params, None), hits_csr(&fresh, &h_params, None))
            });
            prop_assert_eq!(
                ha.authority.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                hb.authority.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "hits authority diverged at threads={}", threads
            );
            prop_assert_eq!(
                ha.hub.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                hb.hub.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "hits hub diverged at threads={}", threads
            );
        }
    }

    /// Edit application in one batch equals the same edits over several
    /// refreshes: splitting a batch anywhere changes nothing.
    #[test]
    fn split_batches_compose((base, added, edits) in arb_base_and_edits(),
                             split in 0usize..40) {
        let mut one_shot = LinkCsr::from_digraph(&base);
        one_shot.apply_edits(added, &edits);
        let cut = split.min(edits.len());
        let mut staged = LinkCsr::from_digraph(&base);
        // Nodes must exist before edges reference them, so they all go in
        // the first stage.
        staged.apply_edits(added, &edits[..cut]);
        staged.apply_edits(0, &edits[cut..]);
        prop_assert_eq!(one_shot, staged);
    }
}

/// A hand-built worst case covering every edge class at once.
#[test]
fn adversarial_batch_matches_rebuild() {
    // Node 3 is isolated; 0 has a self-loop and duplicate out-edges.
    let base = DiGraph::from_edges(5, [(0, 0), (0, 1), (0, 1), (2, 4), (4, 2)]);
    let mut link = LinkCsr::from_digraph(&base);
    // Grow by two nodes; touch old rows, new rows, self-loop a new node,
    // duplicate an existing parallel edge, and leave node 6 isolated.
    let edits = [(0u32, 1u32), (5, 5), (5, 0), (2, 4), (0, 0)];
    link.apply_edits(2, &edits);
    let want = LinkCsr::from_digraph(&rebuilt(&base, 2, &edits));
    assert_eq!(link, want);
    assert_eq!(link.successors(0), &[0, 1, 1, 1, 0]);
    assert_eq!(link.predecessors(0), &[0, 0, 5]);
    assert!(link.successors(6).is_empty());
    assert!(link.predecessors(3).is_empty());

    let pr_params = PageRankParams::default();
    let a = pagerank_csr(&link, &pr_params, None);
    let b = pagerank_csr(&want, &pr_params, None);
    assert_eq!(
        a.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        b.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
    );
}
