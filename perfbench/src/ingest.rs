//! `ingest-spill`: sharded stream ingest with every shard spilled to disk,
//! then the spilled corpus loaded back.
//!
//! The stream generates each record while it is ingested, so the first
//! pass over it is the corpus generation: set-up is the stream spec plus
//! one warm-up op. Once per run, after the timers, the spilled corpus must
//! equal the resident sharded ingest of the same stream (§13).

use crate::trace::Tracer;
use crate::{metric, ms_since, span_medians, Ctx, Outcome};
use mass::obs::process::peak_rss_kb;
use mass::synth::{
    ingest_sharded, ingest_sharded_spilled, CorpusSpec, CorpusStream, IngestOptions,
};
use mass::text::PreparedCorpus;
use std::time::Instant;

const BLOGGERS: usize = 100_000;
const SHARDS: usize = 4;
/// Small enough that every shard spills.
const SPILL_BUDGET: usize = 1 << 20;

fn opts() -> IngestOptions {
    IngestOptions {
        shards: SHARDS,
        spill_budget: SPILL_BUDGET,
        threads: 0,
    }
}

fn stream(seed: u64) -> CorpusStream {
    CorpusStream::new(CorpusSpec::lean(BLOGGERS, seed)).expect("the lean spec validates")
}

/// One op: spilled ingest, then the spilled corpus loaded back.
fn ingest_and_load(s: &CorpusStream) -> PreparedCorpus {
    ingest_sharded_spilled(s, &opts())
        .expect("ingest")
        .corpus
        .load()
        .expect("load the spilled corpus")
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut warm = None;
    for _ in 0..ctx.setup_reps {
        drop(warm.take());
        out.host.sample();
        let t = Instant::now();
        let s = stream(ctx.seed);
        let loaded = ingest_and_load(&s);
        out.setup(t, t.elapsed().as_secs_f64());
        warm = Some((s, loaded.posts(), loaded.total_tokens()));
    }
    out.host.sample();
    let (s, posts, tokens) = warm.expect("at least one set-up");

    let (mut segments, mut spill_bytes, mut file_bytes) = (0, 0, 0);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < ctx.budget {
        out.host.tick();
        let traced = ctx.traced(i);
        tr.set_enabled(traced);
        tr.set_op(i);
        let t = Instant::now();
        let (ingest, corpus) = tr.span("op.ingest-spill", |tr| {
            let ingest = tr.span("synth.ingest", |_| ingest_sharded_spilled(&s, &opts()));
            let corpus = match &ingest {
                Ok(ing) => Some(tr.span("text.spill_load", |_| ing.corpus.load())),
                Err(_) => None,
            };
            (ingest, corpus)
        });
        let ms = ms_since(t);
        let problem = match (&ingest, &corpus) {
            (Err(e), _) => Some(format!("op {i}: ingest failed: {e}")),
            (_, Some(Err(e))) => Some(format!("op {i}: spill load failed: {e}")),
            (Ok(ing), Some(Ok(c))) => {
                segments = ing.stats.spill.segments_spilled;
                spill_bytes = ing.stats.spill.bytes_spilled;
                file_bytes = ing.corpus.file_bytes();
                if segments != SHARDS {
                    Some(format!("op {i}: {segments} of {SHARDS} shards spilled"))
                } else if c.posts() != posts || c.total_tokens() != tokens {
                    Some(format!(
                        "op {i}: loaded corpus differs from the warm-up op's"
                    ))
                } else {
                    None
                }
            }
            (Ok(_), None) => unreachable!("a successful ingest is always loaded"),
        };
        out.op(t, ms, traced, problem);
        i += 1;
    }
    tr.set_enabled(false);
    out.peak_rss_kb = peak_rss_kb();

    // §13, after the peak is read: the resident ingest holds the whole
    // corpus at once, which the spilled path exists to avoid.
    let resident: PreparedCorpus = ingest_sharded(&s, &opts()).expect("ingest").corpus;
    out.check(
        ingest_and_load(&s) == resident,
        "ingest-spill loaded corpus equals resident ingest",
    );

    out.fact("bloggers", BLOGGERS as u64);
    out.fact("posts", posts as u64);
    out.fact("tokens", tokens as u64);
    out.fact("spill_file_bytes", file_bytes);
    if ctx.trace {
        out.layers = span_medians(tr, &["synth.ingest", "text.spill_load"]);
        out.layers.extend([
            metric("synth.posts", posts as f64, "count"),
            metric("synth.spill_segments", segments as f64, "count"),
            metric("synth.spill_bytes", spill_bytes as f64, "bytes"),
        ]);
    }
    out
}
