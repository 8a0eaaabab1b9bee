//! X16 — streaming million-blogger generation + out-of-core ingest.
//!
//! Measures wall-clock and **peak RSS** for turning a declarative
//! [`CorpusSpec`] into the analysis substrate, two ways:
//!
//! * `inmem`  — materialise the full `Dataset` (every string resident),
//!   then `PreparedCorpus::build`; the classic path.
//! * `stream` — sharded generation straight into the out-of-core merge
//!   (`ingest_sharded_spilled`), corpus landing on disk; no XML, no
//!   resident dataset, segments spilled past a fixed byte budget. Shards
//!   build one per hardware thread; the artifact records the count.
//!
//! Peak RSS is the kernel's per-process high-water mark (`VmHWM`), which is
//! unresettable — so every measurement runs in a **child process** (this
//! binary re-execs itself with `MASS_X16_TASK` set) and reports its own
//! peak on stdout. Scales: 100k bloggers (both paths) and 1M (streamed
//! only; the in-memory path at 1M is exactly the thing the streaming layer
//! exists to avoid). Before any timing, the overlap scales (600 and 3000
//! bloggers) assert `f64::to_bits`-level equality between the two paths
//! in-process.
//!
//! Release gates (debug builds measure but do not gate):
//! * streamed peak RSS at 100k is below the in-memory peak;
//! * streamed peak RSS grows sub-linearly: 10× the bloggers (100k → 1M)
//!   must cost < 5× the resident high-water mark.
//!
//! ```sh
//! cargo run --release -p mass-bench --bin table_x16_streaming
//! ```
//!
//! `MASS_BENCH_SCALE=quick` drops the scales to 20k/100k for smoke runs.

use mass_core::MassParams;
use mass_eval::TextTable;
use mass_obs::json::Json;
use mass_synth::{ingest_sharded, ingest_sharded_spilled, CorpusSpec, CorpusStream, IngestOptions};
use mass_text::PreparedCorpus;
use std::time::Instant;

const SPILL_BUDGET: usize = 32 << 20; // 32 MiB of resident segment arrays
const BLOGGERS_PER_SHARD: usize = 12_500;

fn lean_stream(bloggers: usize) -> CorpusStream {
    CorpusStream::new(CorpusSpec::lean(bloggers, 4242)).unwrap()
}

/// Constant-size shards: the per-shard working set must not grow with the
/// corpus, or peak RSS scales linearly no matter how eagerly we spill.
fn shards_for(bloggers: usize) -> usize {
    bloggers.div_ceil(BLOGGERS_PER_SHARD).max(1)
}

/// Child-process entry: run one measured task, print one parseable line.
fn run_child(task: &str) -> ! {
    let bloggers: usize = std::env::var("MASS_X16_BLOGGERS")
        .expect("MASS_X16_BLOGGERS")
        .parse()
        .expect("blogger count");
    let stream = lean_stream(bloggers);
    let start = Instant::now();
    let (posts, comments) = match task {
        "inmem" => {
            let out = stream.materialize();
            let corpus = PreparedCorpus::build(&out.dataset, 0);
            let comments: usize = out.dataset.posts.iter().map(|p| p.comments.len()).sum();
            assert_eq!(corpus.posts(), out.dataset.posts.len());
            (corpus.posts(), comments)
        }
        "stream" => {
            let opts = IngestOptions {
                shards: shards_for(bloggers),
                spill_budget: SPILL_BUDGET,
                threads: 0,
            };
            let out = ingest_sharded_spilled(&stream, &opts).unwrap();
            assert!(out.stats.spill.segments_spilled > 0 || bloggers < 100_000);
            (out.corpus.posts(), out.stats.comments())
        }
        other => panic!("unknown MASS_X16_TASK {other:?}"),
    };
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let peak = mass_obs::process::peak_rss_kb();
    println!("x16 elapsed_ms={elapsed_ms} peak_rss_kb={peak} posts={posts} comments={comments}");
    std::process::exit(0);
}

struct Measured {
    elapsed_ms: f64,
    peak_rss_kb: u64,
    posts: u64,
}

/// Re-exec this binary to run `task` at `bloggers` scale and parse its
/// self-report. One fresh process per measurement keeps `VmHWM` honest.
fn measure(task: &str, bloggers: usize) -> Measured {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .env("MASS_X16_TASK", task)
        .env("MASS_X16_BLOGGERS", bloggers.to_string())
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child {task}@{bloggers} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("x16 "))
        .unwrap_or_else(|| panic!("child {task}@{bloggers} printed no report: {stdout}"));
    let field = |key: &str| -> f64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in {line:?}"))
            .parse()
            .expect("numeric field")
    };
    Measured {
        elapsed_ms: field("elapsed_ms"),
        peak_rss_kb: field("peak_rss_kb") as u64,
        posts: field("posts") as u64,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// In-process bit-identity at the overlap scales: the streamed corpus and
/// the analysis scores over it must equal the in-memory path exactly.
fn assert_bit_identity(bloggers: usize) {
    let stream = lean_stream(bloggers);
    let out = stream.materialize();
    let reference = PreparedCorpus::build(&out.dataset, 0);
    for shards in [1usize, 4, 16] {
        let streamed = ingest_sharded(
            &stream,
            &IngestOptions {
                shards,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            streamed.corpus == reference,
            "{bloggers} bloggers, {shards} shards: streamed corpus != in-memory"
        );
    }
    let params = MassParams::paper();
    let streamed = ingest_sharded(&stream, &IngestOptions::default()).unwrap();
    let a = mass_core::MassAnalysis::analyze(&out.dataset, &params);
    let b = mass_core::MassAnalysis::analyze_with_corpus(&out.dataset, &streamed.corpus, &params);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.scores.blogger),
        bits(&b.scores.blogger),
        "{bloggers} bloggers: scores diverged over the streamed corpus"
    );
}

fn main() {
    if let Ok(task) = std::env::var("MASS_X16_TASK") {
        run_child(&task);
    }

    mass_bench::banner(
        "X16",
        "streaming corpus generation + out-of-core ingest",
        "generate+ingest wall clock and peak RSS, streamed vs in-memory; bit-identity inline",
    );

    let quick = matches!(std::env::var("MASS_BENCH_SCALE").as_deref(), Ok("quick"));
    let (small, large) = if quick {
        (20_000usize, 100_000usize)
    } else {
        (100_000, 1_000_000)
    };
    let reps_small = 3usize;
    let reps_large = 1usize;

    print!("bit-identity at overlap scales: 600");
    assert_bit_identity(600);
    print!(" ok, 3000");
    assert_bit_identity(3000);
    println!(" ok");

    // (scale, task, reps); the in-memory path only runs at the small scale
    // — at the large one it is the resident-memory blow-up under test.
    let cells: [(usize, &str, usize); 3] = [
        (small, "inmem", reps_small),
        (small, "stream", reps_small),
        (large, "stream", reps_large),
    ];
    let mut results = Vec::new();
    for &(bloggers, task, reps) in &cells {
        let mut times = Vec::new();
        let mut peak = 0u64;
        let mut posts = 0u64;
        for _ in 0..reps {
            let m = measure(task, bloggers);
            times.push(m.elapsed_ms);
            peak = peak.max(m.peak_rss_kb);
            posts = m.posts;
        }
        results.push((bloggers, task, median(&mut times), peak, posts, reps));
    }

    let mut table = TextTable::new([
        "bloggers",
        "path",
        "posts",
        "generate+ingest (ms)",
        "peak rss (MiB)",
    ]);
    let mut json_rows = Vec::new();
    for &(bloggers, task, ms, peak, posts, reps) in &results {
        table.row([
            bloggers.to_string(),
            task.to_string(),
            posts.to_string(),
            format!("{ms:.0}"),
            format!("{:.1}", peak as f64 / 1024.0),
        ]);
        json_rows.push(Json::Obj(vec![
            ("bloggers".into(), Json::from(bloggers as u64)),
            ("path".into(), Json::from(task)),
            ("posts".into(), Json::from(posts)),
            ("reps".into(), Json::from(reps as u64)),
            ("generate_ingest_ms".into(), Json::Num(ms)),
            ("peak_rss_kb".into(), Json::from(peak)),
            (
                "shards".into(),
                Json::from(if task == "stream" {
                    shards_for(bloggers) as u64
                } else {
                    0
                }),
            ),
        ]));
    }
    println!("{table}");
    println!(
        "lean spec, seed 4242; streamed path: {BLOGGERS_PER_SHARD} bloggers/shard, \
         {} MiB spill budget, corpus on disk",
        SPILL_BUDGET >> 20
    );

    let inmem_small = results.iter().find(|r| r.1 == "inmem").unwrap();
    let stream_small = results
        .iter()
        .find(|r| r.1 == "stream" && r.0 == small)
        .unwrap();
    let stream_large = results
        .iter()
        .find(|r| r.1 == "stream" && r.0 == large)
        .unwrap();
    let rss_ratio = stream_large.3 as f64 / stream_small.3 as f64;
    let scale_ratio = large as f64 / small as f64;
    let beats_inmem = stream_small.3 < inmem_small.3;
    let sublinear = rss_ratio < scale_ratio / 2.0;

    let artifact = Json::Obj(vec![
        ("experiment".into(), Json::from("X16 streaming ingest")),
        ("spec".into(), Json::from("lean")),
        ("seed".into(), Json::from(4242u64)),
        ("spill_budget_bytes".into(), Json::from(SPILL_BUDGET as u64)),
        (
            "hardware_threads".into(),
            Json::from(mass_par::available() as u64),
        ),
        ("rows".into(), Json::Arr(json_rows)),
        ("bitwise_identical".into(), Json::Bool(true)),
        ("stream_rss_below_inmem".into(), Json::Bool(beats_inmem)),
        ("stream_rss_growth".into(), Json::Num(rss_ratio)),
        ("rss_sublinear".into(), Json::Bool(sublinear)),
    ]);
    std::fs::write("BENCH_X16.json", artifact.render() + "\n").expect("write BENCH_X16.json");
    println!("wrote BENCH_X16.json");

    if cfg!(debug_assertions) {
        println!("shape SKIPPED: debug build (bit-identity was still verified)");
        return;
    }
    if quick {
        // At 20k bloggers the process floor (binary + runtime) dominates
        // both paths, so the RSS ratios are noise — smoke runs only check
        // that everything executes and stays bit-identical.
        println!("shape SKIPPED: quick scale (floors dominate; gates apply at 100k/1M)");
        return;
    }
    println!(
        "shape {}: streamed {:.1} MiB vs in-memory {:.1} MiB at {small}; {rss_ratio:.2}x RSS for {scale_ratio:.0}x bloggers (need < {:.0}x)",
        if beats_inmem && sublinear {
            "HOLDS"
        } else {
            "VIOLATED"
        },
        stream_small.3 as f64 / 1024.0,
        inmem_small.3 as f64 / 1024.0,
        scale_ratio / 2.0,
    );
    if !(beats_inmem && sublinear) {
        std::process::exit(1);
    }
}
