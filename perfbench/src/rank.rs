//! `rank-paper`: the batch `mass rank` path on a paper-scale XML corpus.
//!
//! One op loads the XML file, analyzes it with the parameters `mass rank`
//! uses by default, extracts the general and every per-domain top-10, and
//! renders each list as the `--json-out` artifact in memory. Traced ops
//! replay `MassAnalysis::analyze_with_corpus` call by call so each layer
//! gets its own span; their result bits must equal the untraced analysis.

use crate::trace::Tracer;
use crate::{bits, median, metric, ms_since, span_medians, Ctx, Outcome};
use mass::core::domain::{domain_influence, iv_vectors_prepared};
use mass::core::gl::gl_scores;
use mass::core::quality::raw_quality_scores_prepared;
use mass::core::{
    decay_inputs, solve_prepared, top_k, MassAnalysis, MassParams, SolveStatus, SolverInputs,
};
use mass::obs::json::Json;
use mass::obs::process::peak_rss_kb;
use mass::synth::{generate, SynthConfig};
use mass::text::PreparedCorpus;
use mass::types::{BloggerId, Dataset, DomainId};
use mass::xml::dataset_io;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `mass generate --bloggers 3000`: ~15k posts, ~19k comments, ~8.3 MB.
const BLOGGERS: usize = 3000;
const K: usize = 10;

fn params(threads: usize) -> MassParams {
    MassParams {
        threads,
        ..MassParams::paper()
    }
}

/// Everything an op's output checks compare, as bits.
fn result_bits(a: &MassAnalysis) -> Vec<u64> {
    let mut out = bits(&a.scores.blogger);
    out.extend(bits(&a.scores.post));
    for row in a.iv.iter().chain(&a.domain_matrix) {
        out.extend(bits(row));
    }
    out
}

/// The general list and every domain's list, with their titles.
fn top_lists(ds: &Dataset, a: &MassAnalysis) -> Vec<(String, Vec<(BloggerId, f64)>)> {
    let mut lists = vec![(format!("top-{K} general"), top_k(&a.scores.blogger, K))];
    for d in 0..ds.domains.len() {
        let id = DomainId::new(d);
        lists.push((
            format!("top-{K} in {}", ds.domains.name(id)),
            a.top_k_in_domain(id, K),
        ));
    }
    lists
}

/// The `rank --json-out` artifact for one list.
fn render(ds: &Dataset, p: &MassParams, title: &str, ranked: &[(BloggerId, f64)]) -> String {
    let ranking = ranked
        .iter()
        .enumerate()
        .map(|(rank, (b, score))| {
            Json::Obj(vec![
                ("rank".into(), Json::from((rank + 1) as u64)),
                ("blogger".into(), Json::from(b.index() as u64)),
                ("name".into(), Json::from(ds.blogger(*b).name.as_str())),
                ("score".into(), Json::Num(*score)),
                (
                    "score_bits".into(),
                    Json::Str(format!("{:016x}", score.to_bits())),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("title".into(), Json::from(title)),
        ("alpha".into(), Json::Num(p.alpha)),
        ("beta".into(), Json::Num(p.beta)),
        ("k".into(), Json::from(K as u64)),
        ("ranking".into(), Json::Arr(ranking)),
    ])
    .render()
        + "\n"
}

fn render_all(
    ds: &Dataset,
    p: &MassParams,
    lists: &[(String, Vec<(BloggerId, f64)>)],
) -> Vec<String> {
    lists.iter().map(|(t, r)| render(ds, p, t, r)).collect()
}

fn load(xml: &Path) -> Dataset {
    dataset_io::load(xml).expect("the corpus XML written in set-up loads")
}

fn op(xml: &Path, p: &MassParams) -> (MassAnalysis, Vec<String>) {
    let ds = load(xml);
    let a = MassAnalysis::analyze(&ds, p);
    let lists = top_lists(&ds, &a);
    let artifacts = render_all(&ds, p, &lists);
    (a, artifacts)
}

/// [`op`] with `MassAnalysis::analyze_with_corpus` replayed call by call,
/// each call in its own span. Also returns the dataset and corpus so the
/// probes can run beside the op.
fn traced_op(
    tr: &mut Tracer,
    xml: &Path,
    p: &MassParams,
) -> (MassAnalysis, Vec<String>, Dataset, PreparedCorpus) {
    tr.span("op.rank-paper", |tr| {
        let ds = tr.span("xml.load", |_| load(xml));
        let corpus = tr.span("text.prepare", |_| PreparedCorpus::build(&ds, p.threads));
        let ix = tr.span("core.index", |_| ds.index());
        let inputs = tr.span("core.inputs", |_| {
            SolverInputs::build_prepared(&ds, &ix, p, &corpus)
        });
        let decayed = tr.span("core.decay", |_| decay_inputs(&ds, &inputs, p));
        let scores = tr.span("core.solve", |_| solve_prepared(&ds, &decayed, p, None));
        let (iv, classifier) = tr.span("core.iv", |_| iv_vectors_prepared(&ds, p, &corpus));
        let domain_matrix = tr.span("core.domain_matrix", |_| {
            domain_influence(&ds, &scores.post, &iv)
        });
        let a = MassAnalysis {
            scores,
            iv,
            domain_matrix,
            classifier,
            params: p.clone(),
        };
        let lists = tr.span("core.topk", |_| top_lists(&ds, &a));
        let artifacts = tr.span("out.render", |_| render_all(&ds, p, &lists));
        (a, artifacts, ds, corpus)
    })
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let xml = ctx.work.join("rank-paper.xml");
    for _ in 0..ctx.setup_reps {
        out.host.sample();
        let t = Instant::now();
        let corpus = generate(&SynthConfig {
            bloggers: BLOGGERS,
            seed: ctx.seed,
            ..Default::default()
        });
        dataset_io::save(&corpus.dataset, &xml).expect("write the corpus XML");
        out.setup(t, t.elapsed().as_secs_f64());
    }
    out.host.sample();
    let xml_bytes = std::fs::metadata(&xml).map_or(0, |m| m.len());
    let p = params(0);

    // §8, once, outside every timer: threads 1 and auto agree bit for bit.
    // The auto-thread result is also what every op must reproduce.
    let ds = load(&xml);
    let want = result_bits(&MassAnalysis::analyze(&ds, &p));
    out.check(
        want == result_bits(&MassAnalysis::analyze(&ds, &params(1))),
        "rank-paper threads 1 vs auto bit-identical",
    );
    let stats = ds.stats();
    drop(ds);

    let mut sweeps = Vec::new();
    let (mut tokens, mut vocab) = (0, 0);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < ctx.budget {
        out.host.tick();
        let traced = ctx.traced(i);
        tr.set_enabled(traced);
        tr.set_op(i);
        let t = Instant::now();
        let (a, artifacts, ms) = if traced {
            let (a, artifacts, ds, corpus) = traced_op(tr, &xml, &p);
            let ms = ms_since(t);
            // Probes beside the op, outside its wall: novelty shingling and
            // link analysis on their own.
            tr.span("core.quality", |_| {
                black_box(raw_quality_scores_prepared(&ds, &corpus, &p))
            });
            tr.span("core.gl", |_| black_box(gl_scores(&ds, &p)));
            tokens = corpus.total_tokens();
            vocab = corpus.vocab_len();
            (a, artifacts, ms)
        } else {
            let (a, artifacts) = op(&xml, &p);
            (a, artifacts, ms_since(t))
        };
        black_box(&artifacts);
        sweeps.push(a.scores.iterations as f64);
        let problem = if result_bits(&a) != want {
            Some(format!(
                "op {i}: score bits differ from the untraced set-up analysis"
            ))
        } else if a.scores.status != SolveStatus::Converged {
            Some(format!("op {i}: solver {}", a.scores.status))
        } else {
            None
        };
        out.op(t, ms, traced, problem);
        i += 1;
    }
    tr.set_enabled(false);
    out.peak_rss_kb = peak_rss_kb();

    out.fact("bloggers", stats.bloggers as u64);
    out.fact("posts", stats.posts as u64);
    out.fact("comments", stats.comments as u64);
    out.fact("xml_bytes", xml_bytes);
    if ctx.trace {
        out.layers = span_medians(
            tr,
            &[
                "xml.load",
                "text.prepare",
                "core.index",
                "core.inputs",
                "core.quality",
                "core.gl",
                "core.decay",
                "core.solve",
                "core.iv",
                "core.domain_matrix",
                "core.topk",
                "out.render",
            ],
        );
        out.layers.extend([
            metric(
                "core.unattributed_ms",
                median(&tr.unattributed_ms("op.rank-paper")),
                "ms",
            ),
            metric("core.solve_sweeps", median(&sweeps), "count"),
            metric("xml.bytes", xml_bytes as f64, "bytes"),
            metric("text.tokens", tokens as f64, "count"),
            metric("text.vocab", vocab as f64, "count"),
        ]);
    }
    out
}
