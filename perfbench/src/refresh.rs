//! `refresh-stream`: the write path of a live, decaying analysis.
//!
//! The engine is built once per set-up over a temporal paper-scale corpus.
//! Op `i` is one seeded batch, then an exact refresh and a snapshot
//! capture; the batches cycle through a link-free storm, a mixed storm and
//! a window advance. Every edit grows the corpus, so the ops run in cycles
//! of [`CYCLE`]: each cycle starts from the set-up state (rebuilt outside
//! the timers) and replays the same seeded ops, and a run measures whole
//! cycles only. The states measured are thus the same however fast the
//! code is; only the number of cycles varies. Every batch is mirrored onto
//! a plain dataset outside the timers; at the end the engine must equal a
//! batch analysis of that dataset at the final horizon bit for bit (§11,
//! §15).

use crate::trace::Tracer;
use crate::{bits, median, metric, ms_since, span_medians, Ctx, Outcome};
use mass::core::{
    apply_to_dataset, apply_to_incremental, scripted_storm, DecayParams, IncrementalMass,
    MassAnalysis, MassParams, RefreshMode, ServingSnapshot, StormMix, TemporalParams,
};
use mass::obs::process::peak_rss_kb;
use mass::synth::{generate, SynthConfig};
use std::hint::black_box;
use std::time::Instant;

const BLOGGERS: usize = 3000;
/// The corpus spans ticks `0..SPAN`; the engine starts at its end.
const SPAN: u64 = 1000;
const HALF_LIFE: f64 = 200.0;
const STORM_EDITS: usize = 16;
/// Ticks one window advance moves the horizon.
const ADVANCE: u64 = 10;
/// `mass serve`'s default snapshot list cap.
const TOPK_CAP: usize = 100;
/// Ops per cycle (80 of each batch kind); the corpus grows by ~8% posts
/// over one.
const CYCLE: u64 = 240;

fn params(as_of: u64) -> MassParams {
    MassParams {
        threads: 0,
        temporal: Some(TemporalParams {
            as_of,
            decay: DecayParams::Exponential {
                half_life: HALF_LIFE,
            },
        }),
        ..MassParams::paper()
    }
}

/// The seed of op `i`'s storm.
fn op_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut built = None;
    tr.set_enabled(ctx.trace);
    for _ in 0..ctx.setup_reps {
        drop(built.take());
        out.host.sample();
        let start = Instant::now();
        let ds = generate(&SynthConfig {
            bloggers: BLOGGERS,
            seed: ctx.seed,
            time_span: SPAN,
            planted_fading: 5,
            planted_rising: 5,
            ..Default::default()
        })
        .dataset;
        let generated = start.elapsed().as_secs_f64();
        let base = ds.clone();
        let t = Instant::now();
        let engine = tr.span("incremental.new", |_| {
            IncrementalMass::new(ds, params(SPAN))
        });
        black_box(ServingSnapshot::capture(&engine, TOPK_CAP));
        out.setup(start, generated + t.elapsed().as_secs_f64());
        built = Some((engine, base));
    }
    out.host.sample();
    let (mut engine, base) = built.expect("at least one set-up");
    let mut mirror = base.clone();
    out.fact("bloggers", base.bloggers.len() as u64);
    out.fact("posts", base.posts.len() as u64);

    let mut as_of = SPAN;
    let (mut sweeps, mut redecayed) = (Vec::new(), Vec::new());
    let (mut refreshes, mut gl_refreshes) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let k = i % CYCLE;
        if k == 0 && i > 0 {
            if start.elapsed() >= ctx.budget {
                break;
            }
            // Back to the set-up state, outside the timers.
            tr.set_enabled(false);
            drop(engine);
            engine = IncrementalMass::new(base.clone(), params(SPAN));
            mirror = base.clone();
            as_of = SPAN;
        }
        let script = match k % 3 {
            0 => Some(StormMix::LinkFree),
            1 => Some(StormMix::Mixed),
            _ => None,
        }
        .map(|mix| scripted_storm(engine.dataset(), STORM_EDITS, op_seed(ctx.seed, k), mix));
        if let Some(s) = &script {
            apply_to_dataset(&mut mirror, s);
        } else {
            as_of += ADVANCE;
        }
        out.host.tick();
        let epoch = engine.epoch();
        let traced = ctx.traced(i);
        tr.set_enabled(traced);
        tr.set_op(i);
        let t = Instant::now();
        let (advance, stats, snap) = tr.span("op.refresh-stream", |tr| {
            let advance = match &script {
                Some(s) => {
                    tr.span("incremental.apply", |_| {
                        apply_to_incremental(&mut engine, s)
                    });
                    None
                }
                None => Some(tr.span("incremental.advance", |_| engine.advance_to(as_of))),
            };
            let stats = tr.span("incremental.refresh", |_| {
                engine.refresh_with(RefreshMode::Exact)
            });
            let snap = tr.span("snapshot.capture", |_| {
                ServingSnapshot::capture(&engine, TOPK_CAP)
            });
            (advance, stats, snap)
        });
        let ms = ms_since(t);
        refreshes += 1;
        gl_refreshes += u64::from(stats.gl_refreshed);
        sweeps.push(stats.sweeps as f64);
        let mut problem = None;
        if let Some(adv) = advance {
            match adv {
                Ok(a) => redecayed.push((a.posts_affected + a.comments_affected) as f64),
                Err(e) => problem = Some(format!("op {i}: advance_to({as_of}) failed: {e}")),
            }
        }
        if !stats.converged {
            problem = Some(format!("op {i}: refresh did not converge"));
        } else if stats.epoch != epoch + 1 || snap.epoch() != stats.epoch {
            problem = Some(format!(
                "op {i}: epoch {} after {epoch}, snapshot {}",
                stats.epoch,
                snap.epoch()
            ));
        }
        out.op(t, ms, traced, problem);
        i += 1;
    }
    tr.set_enabled(false);
    out.peak_rss_kb = peak_rss_kb();

    // §11/§15, outside the timers: the refreshed engine equals a batch
    // analysis of the mirrored dataset at the final horizon.
    let batch = MassAnalysis::analyze(&mirror, &params(as_of));
    out.check(
        bits(&engine.scores().blogger) == bits(&batch.scores.blogger)
            && bits(&engine.scores().post) == bits(&batch.scores.post),
        "refresh-stream engine equals batch analysis at the final horizon",
    );
    out.fact("cycles", i / CYCLE);
    out.fact("ops_per_cycle", CYCLE);
    out.fact("final_as_of", as_of);
    out.fact("final_posts", mirror.posts.len() as u64);
    out.fact("refreshes", refreshes);
    out.fact("gl_refreshes", gl_refreshes);
    if ctx.trace {
        out.layers = span_medians(
            tr,
            &[
                "incremental.new",
                "incremental.apply",
                "incremental.advance",
                "incremental.refresh",
                "snapshot.capture",
            ],
        );
        out.layers.extend([
            metric("incremental.refresh_sweeps", median(&sweeps), "count"),
            metric(
                "incremental.gl_recompute_ratio",
                gl_refreshes as f64 / refreshes.max(1) as f64,
                "fraction",
            ),
            metric("incremental.items_redecayed", median(&redecayed), "count"),
        ]);
    }
    out
}
