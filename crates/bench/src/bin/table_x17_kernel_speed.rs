//! X17 — kernel speed: the §14 hardware-limit pass measured against the
//! kernels it replaced, with every bit-identity contract checked inline.
//!
//! Four rows, each an interleaved A/B race. Speedups are the median of
//! per-round ratios — old and new run back to back inside each round, so
//! VM steal and frequency phases cancel in the ratio:
//!
//! * **solve** — steady-state `solve_prepared_with_layout` (flat CSR
//!   [`SweepLayout`] prebuilt once) vs the pre-§14 kernel
//!   (`solve_prepared_reference`: nested `Vec` layout rebuilt per call,
//!   nine executor passes per sweep) on the X11 800-blogger corpus at one
//!   thread. **Release gate: ≥2×.** Scores bit-compared.
//! * **pagerank** — cache-blocked CSR pull (explicit L2 tile) vs the
//!   plain kernel on a synthetic 600k-node graph (10% dangling).
//!   Informational: blocking is opt-in precisely because this row loses on
//!   wide-LLC hosts. Scores bit-compared.
//! * **nb batch** — flat batch classification over the prepared corpus vs
//!   the pre-§14 per-document `posterior_ids_ref` loop. Rows bit-compared.
//!   The `f32` fast path is timed too and asserted within
//!   [`NB_FAST_TOLERANCE`] of the `f64` rows.
//!
//! Writes `BENCH_X17.json`.
//!
//! ```sh
//! cargo run --release -p mass-bench --bin table_x17_kernel_speed
//! ```

use mass_bench::{banner, corpus_of};
use mass_core::{
    solve_prepared, solve_prepared_reference, solve_prepared_with_layout, MassParams, SolverInputs,
    SweepLayout, NB_FAST_TOLERANCE,
};
use mass_eval::TextTable;
use mass_graph::{pagerank_csr, DiGraph, LinkCsr, PageRankParams};
use mass_obs::json::Json;
use mass_text::{NbPrecision, PreparedCorpus};
use std::time::Instant;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Interleaved A/B race: `samples` rounds, each timing `calls` calls of old
/// then new. Returns the median old/new times plus the median of the
/// per-round ratios — within one round the two sides run back to back, so
/// slow machine phases (VM steal, frequency steps) hit both and cancel in
/// the ratio even when they skew the absolute medians.
fn race(
    samples: usize,
    calls: usize,
    mut old: impl FnMut(),
    mut new: impl FnMut(),
) -> (f64, f64, f64) {
    old();
    new(); // warm caches and code paths outside the timed rounds
    let (mut old_s, mut new_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..calls {
            old();
        }
        let o = t.elapsed().as_secs_f64() * 1e6 / calls as f64;
        let t = Instant::now();
        for _ in 0..calls {
            new();
        }
        let n = t.elapsed().as_secs_f64() * 1e6 / calls as f64;
        old_s.push(o);
        new_s.push(n);
        ratios.push(o / n);
    }
    (median(old_s), median(new_s), median(ratios))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Synthetic link graph: `n` nodes, ~`deg` out-edges each from a cheap
/// LCG, every tenth node dangling so the dangling-mass path stays hot.
fn synth_graph(n: usize, deg: usize) -> LinkCsr {
    let mut g = DiGraph::new(n);
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for u in 0..n {
        if u % 10 == 3 {
            continue; // dangling
        }
        for _ in 0..deg {
            g.add_edge(u, next() % n);
        }
    }
    LinkCsr::from_digraph(&g)
}

fn main() {
    banner(
        "X17",
        "kernel speed",
        "steady-state solve vs the pre-PR kernel, plus pull/NB/build kernel rows",
    );
    let release = !cfg!(debug_assertions);
    let mut table = TextTable::new(["kernel", "old us", "new us", "speedup", "bit-identical"]);
    let mut artifact: Vec<(String, Json)> =
        vec![("experiment".into(), Json::from("X17 kernel speed"))];

    // --- solve: the gated row -------------------------------------------
    // X11 configuration: 800-blogger corpus, shingle novelty off so the
    // solver (not input prep) is under test, single thread.
    let base = MassParams {
        shingle_novelty: false,
        ..MassParams::paper()
    };
    let out = corpus_of(800, 42);
    let ds = &out.dataset;
    let ix = ds.index();
    let corpus = PreparedCorpus::build(ds, 1);
    let inputs = SolverInputs::build_prepared(ds, &ix, &base, &corpus);
    let layout = SweepLayout::build(ds, &inputs);

    let sweeps = {
        let pre = solve_prepared_reference(ds, &inputs, &base, None);
        let post = solve_prepared_with_layout(ds, &layout, &base, None);
        assert!(pre == post, "fused solve diverged from the pre-PR kernel");
        let per_call = solve_prepared(ds, &inputs, &base, None);
        assert_eq!(pre, per_call, "per-call layout build changed the solve");
        pre.iterations
    };

    let (mut old_s, mut new_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..11 {
        let t = Instant::now();
        for _ in 0..10 {
            std::hint::black_box(solve_prepared_reference(ds, &inputs, &base, None));
        }
        let o = t.elapsed().as_secs_f64() * 1e6 / 10.0;
        let t = Instant::now();
        for _ in 0..10 {
            std::hint::black_box(solve_prepared_with_layout(ds, &layout, &base, None));
        }
        let n = t.elapsed().as_secs_f64() * 1e6 / 10.0;
        old_s.push(o);
        new_s.push(n);
        ratios.push(o / n);
    }
    let (solve_old, solve_new, solve_speedup) = (median(old_s), median(new_s), median(ratios));
    table.row([
        "solve (steady-state)".into(),
        format!("{solve_old:.1}"),
        format!("{solve_new:.1}"),
        format!("{solve_speedup:.2}x"),
        "yes".into(),
    ]);

    // --- pagerank: blocked vs plain pull --------------------------------
    // Informational, not gated. The block-major layout is opt-in
    // (`block_nodes: 0` keeps the plain kernel) because it only pays when
    // the weight vector outruns the last-level cache and rows are dense
    // enough that per-block segments stay chunky; on wide-LLC hosts this
    // row documents the loss that justifies that default. Bit-identity is
    // asserted either way.
    let link = synth_graph(600_000, 12);
    let pr = |block_nodes: usize| PageRankParams {
        max_iterations: 20,
        block_nodes,
        ..PageRankParams::default()
    };
    let plain = pagerank_csr(&link, &pr(0), None);
    let blocked = pagerank_csr(&link, &pr(mass_graph::DEFAULT_BLOCK_NODES), None);
    let pull_identical = bits(&plain.scores) == bits(&blocked.scores);
    assert!(
        pull_identical,
        "blocked pull diverged from the plain kernel"
    );
    let (pull_old, pull_new, pull_speedup) = race(
        3,
        1,
        || {
            std::hint::black_box(pagerank_csr(&link, &pr(0), None));
        },
        || {
            std::hint::black_box(pagerank_csr(
                &link,
                &pr(mass_graph::DEFAULT_BLOCK_NODES),
                None,
            ));
        },
    );
    table.row([
        "pagerank pull (600k nodes)".into(),
        format!("{pull_old:.0}"),
        format!("{pull_new:.0}"),
        format!("{pull_speedup:.2}x"),
        "yes".into(),
    ]);

    // --- naive bayes: flat batch vs per-document reference --------------
    let model = mass_core::domain::train_on_tagged_prepared(ds, ds.domains.len(), &corpus)
        .expect("synthetic corpus is tagged");
    let compiled = model.compile(corpus.interner());
    let classes = compiled.classes();
    let flat = compiled.posterior_batch_prepared_flat_with(&corpus, 1, NbPrecision::Exact);
    let reference: Vec<f64> = (0..ds.posts.len())
        .flat_map(|k| compiled.posterior_ids_ref(corpus.doc_tokens(k)))
        .collect();
    let nb_identical = bits(&flat) == bits(&reference);
    assert!(
        nb_identical,
        "flat NB batch diverged from posterior_ids_ref"
    );
    let (nb_old, nb_new, nb_speedup) = race(
        9,
        3,
        || {
            let mut acc = 0.0;
            for k in 0..ds.posts.len() {
                acc += compiled.posterior_ids_ref(corpus.doc_tokens(k))[0];
            }
            std::hint::black_box(acc);
        },
        || {
            std::hint::black_box(compiled.posterior_batch_prepared_flat_with(
                &corpus,
                1,
                NbPrecision::Exact,
            ));
        },
    );
    table.row([
        format!("nb batch ({} docs x {classes})", ds.posts.len()),
        format!("{nb_old:.0}"),
        format!("{nb_new:.0}"),
        format!("{nb_speedup:.2}x"),
        "yes".into(),
    ]);

    // f32 fast path: tolerance, not bits.
    let fast = compiled.posterior_batch_prepared_flat_with(&corpus, 1, NbPrecision::Fast);
    let max_diff = flat
        .iter()
        .zip(&fast)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_diff <= NB_FAST_TOLERANCE,
        "f32 fast path drifted {max_diff} > {NB_FAST_TOLERANCE}"
    );
    let (nbf_old, nbf_new, nbf_speedup) = race(
        9,
        3,
        || {
            std::hint::black_box(compiled.posterior_batch_prepared_flat_with(
                &corpus,
                1,
                NbPrecision::Exact,
            ));
        },
        || {
            std::hint::black_box(compiled.posterior_batch_prepared_flat_with(
                &corpus,
                1,
                NbPrecision::Fast,
            ));
        },
    );
    table.row([
        "nb f32 fast path".into(),
        format!("{nbf_old:.0}"),
        format!("{nbf_new:.0}"),
        format!("{nbf_speedup:.2}x"),
        format!("<= {NB_FAST_TOLERANCE:.0e}"),
    ]);

    println!("{table}");
    println!(
        "corpus: 800 bloggers, {} posts, {} sweeps to converge; f32 max drift {max_diff:.2e}",
        ds.posts.len(),
        sweeps
    );

    artifact.extend([
        ("bloggers".into(), Json::from(800u64)),
        ("posts".into(), Json::from(ds.posts.len() as u64)),
        ("sweeps".into(), Json::from(sweeps as u64)),
        ("solve_old_us".into(), Json::Num(solve_old)),
        ("solve_new_us".into(), Json::Num(solve_new)),
        ("solve_speedup".into(), Json::Num(solve_speedup)),
        ("pull_old_us".into(), Json::Num(pull_old)),
        ("pull_new_us".into(), Json::Num(pull_new)),
        ("pull_speedup".into(), Json::Num(pull_speedup)),
        ("nb_old_us".into(), Json::Num(nb_old)),
        ("nb_new_us".into(), Json::Num(nb_new)),
        ("nb_speedup".into(), Json::Num(nb_speedup)),
        ("nb_f32_max_diff".into(), Json::Num(max_diff)),
        ("bit_identical".into(), Json::Bool(true)),
        ("release".into(), Json::Bool(release)),
    ]);
    std::fs::write("BENCH_X17.json", Json::Obj(artifact).render() + "\n")
        .expect("write BENCH_X17.json");
    println!("wrote BENCH_X17.json");

    if release {
        assert!(
            solve_speedup >= 2.0,
            "X17 gate: steady-state solve must be >= 2x the pre-PR kernel, got {solve_speedup:.2}x"
        );
        println!("X17 gate passed: {solve_speedup:.2}x >= 2.0x");
    } else {
        println!("debug build — the 2x solve gate only runs in release");
    }
}
