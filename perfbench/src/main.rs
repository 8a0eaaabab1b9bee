//! End-to-end and per-layer benchmark of the MASS operations users run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rank-paper --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. Each workload (see `BENCHMARK.json` for
//! why each exists) generates its inputs from `--seed`, sets up, then
//! measures ops for `--seconds` with every output check on:
//!
//! * `rank-paper` — XML load → analyze → top-k lists → `--json-out`
//!   artifacts, closed loop ([`rank`]);
//! * `refresh-stream` — edit batch or window advance → exact refresh →
//!   snapshot capture, closed loop ([`refresh`]);
//! * `serve-mixed` — open-loop HTTP reads and edits against an in-process
//!   server ([`serve`]);
//! * `ingest-spill` — sharded, spilled stream ingest plus reload, closed
//!   loop ([`ingest`]).
//!
//! With `--trace 0` the named workload runs untraced and the end-to-end
//! metrics are reported. With `--trace 1` every workload runs for a quarter
//! of `--seconds`, alternating traced and untraced ops; the spans go to
//! `perfbench/work/trace-<workload>.jsonl`, a per-layer table is printed,
//! and the per-layer metrics (with each workload's tracing overhead) are
//! reported. Inputs, the spill files and traces stay under
//! `perfbench/work/`.
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is a report with the
//! provenance block, op counts, the tail percentile and every ratio's
//! base.
//!
//! End-to-end times are scaled by a host-speed reference timed through the
//! run ([`host`]), so that the shared host's slow stretches cancel; only
//! `serve-mixed`'s request latencies are reported as measured. The report
//! line gives every scaled figure as measured as well.
//!
//! Which end-to-end metric each per-layer metric should move, and where:
//!
//! | per-layer metrics | moves |
//! |---|---|
//! | `xml.*` | `op_p50_ms` on rank-paper |
//! | `text.prepare_ms`, `text.tokens`, `text.vocab` | `op_p50_ms` on rank-paper |
//! | `core.inputs_ms` (probes beside it: `core.quality_ms`, `core.gl_ms`) | `op_p50_ms` on rank-paper, the largest share |
//! | `core.index/decay/solve/iv/domain_matrix/topk_ms`, `out.render_ms`, `core.unattributed_ms` | `op_p50_ms` on rank-paper (the solve is ~1%) |
//! | `incremental.*` | `op_p50_ms`/`op_tail_ms` on refresh-stream, `serve.edit_visible_ms`; `new_ms` → `setup_s` on refresh-stream and serve-mixed |
//! | `snapshot.capture_ms` | `op_p50_ms` on refresh-stream, `serve.edit_visible_ms` |
//! | `serve.*` | `op_p50_ms`/`op_tail_ms` on serve-mixed |
//! | `synth.*`, `text.spill_load_ms` | `op_p50_ms`, `peak_rss_mib` on ingest-spill |
//! | `obs.trace_overhead_frac.*` | the validity of the per-layer split |

mod host;
mod ingest;
mod rank;
mod refresh;
mod serve;
mod trace;

use host::HostRef;
use mass::obs::json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

const WORKLOADS: [&str; 4] = [
    "rank-paper",
    "refresh-stream",
    "serve-mixed",
    "ingest-spill",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// See [`tail`].
const TAIL_WINDOWS: usize = 50;
const TAIL_MIN_WINDOW: usize = 200;
/// Largest share of a traced op's wall that its layer spans may leave
/// uncovered before the per-layer split counts as invalid.
const SPLIT_GAP: f64 = 0.05;

/// What a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured loop runs.
    pub budget: Duration,
    /// Directory for generated inputs, spill files and traces.
    pub work: PathBuf,
    /// Trace run: every other op is traced.
    pub trace: bool,
    pub setup_reps: usize,
}

impl Ctx {
    /// Whether op `i` of a run is traced.
    pub fn traced(&self, i: u64) -> bool {
        self.trace && i % 2 == 1
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `<span>_ms`: the median duration of each named span.
pub fn span_medians(tr: &Tracer, spans: &[&str]) -> Vec<Metric> {
    spans
        .iter()
        .map(|s| metric(format!("{s}_ms"), median(&tr.durations(s)), "ms"))
        .collect()
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Host-speed reference samples of the run ([`host`]).
    pub host: HostRef,
    pub setup_s: Vec<f64>,
    /// When each set-up ran, on the `host` clock.
    pub setup_at: Vec<Duration>,
    /// Latency of each untraced op.
    pub op_ms: Vec<f64>,
    /// When each untraced op started, on the `host` clock.
    pub op_at: Vec<Duration>,
    /// Report op latencies as measured, not scaled to the host reference.
    pub raw_ops: bool,
    /// Latency of each traced op (trace runs only).
    pub traced_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `VmHWM` right after the measured loop, before the end-of-run checks.
    pub peak_rss_kb: u64,
    /// Per-layer metrics (trace runs only).
    pub layers: Vec<Metric>,
    /// Workload facts for the report line: sizes, counts, ratio bases.
    pub facts: Vec<(String, Json)>,
}

impl Outcome {
    /// Records one set-up that started at `start` and took `s` seconds.
    pub fn setup(&mut self, start: Instant, s: f64) {
        self.setup_s.push(s);
        self.setup_at
            .push(self.host.at(start) + Duration::from_secs_f64(s / 2.0));
    }

    /// Records one op that started at `start`; `problem` names the output
    /// check it failed.
    pub fn op(&mut self, start: Instant, ms: f64, traced: bool, problem: Option<String>) {
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.op_ms.push(ms);
            self.op_at.push(self.host.at(start));
        }
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a whole-run check (thread invariance, exactness, …).
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn fact(&mut self, key: &str, value: impl Into<Json>) {
        self.facts.push((key.to_string(), value.into()));
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail of a run's op latencies (in run order).
pub struct Tail {
    pub ms: f64,
    /// The percentile each window's value sits at.
    pub percentile: f64,
    pub windows: usize,
    pub window_samples: usize,
}

/// Per window of consecutive ops, the highest percentile with at least ten
/// samples beyond it (the eleventh-largest sample); the run's tail is the
/// median over windows. Runs with enough ops are cut into up to
/// `TAIL_WINDOWS` windows of at least `TAIL_MIN_WINDOW` ops, so a single
/// host stall (which delays a handful of ops at once) cannot decide the
/// number. Windows of fewer than eleven samples fall back to their maximum.
pub fn tail(xs: &[f64]) -> Tail {
    let windows = (xs.len() / TAIL_MIN_WINDOW).clamp(1, TAIL_WINDOWS);
    let m = xs.len() / windows;
    let per: Vec<f64> = (0..windows)
        .map(|w| {
            let mut s = xs[w * m..(w + 1) * m].to_vec();
            s.sort_by(f64::total_cmp);
            let k = s.len().checked_sub(11).unwrap_or(s.len().saturating_sub(1));
            s.get(k).copied().unwrap_or(f64::NAN)
        })
        .collect();
    Tail {
        ms: median(&per),
        percentile: if m < 11 {
            100.0
        } else {
            100.0 * (m - 10) as f64 / m as f64
        },
        windows,
        window_samples: m,
    }
}

/// `f64::to_bits` of a slice, for bit-exact comparisons.
pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64: seeded inputs, identical on every host.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    match name {
        "rank-paper" => rank::run(ctx, tr),
        "refresh-stream" => refresh::run(ctx, tr),
        "serve-mixed" => serve::run(ctx, tr),
        "ingest-spill" => ingest::run(ctx, tr),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_rev() -> String {
    let unavailable = || "unavailable (not a git checkout)".to_string();
    if !Path::new(".git").exists() {
        return unavailable();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(unavailable)
}

/// FNV-1a over every source file the benchmark builds from, in path order:
/// identifies the code measured where no git revision is available.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files: Vec<PathBuf> = [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo/config.toml",
        "perfbench/Cargo.toml",
    ]
    .map(PathBuf::from)
    .to_vec();
    for dir in ["src", "crates", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

fn provenance(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("nproc".into(), Json::from(nproc as u64)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        ("git_rev".into(), Json::Str(git_rev())),
        ("source_digest".into(), Json::Str(source_digest())),
        ("build_profile".into(), Json::from("release")),
        ("workload".into(), Json::from(args.workload.as_str())),
        ("seed".into(), Json::from(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::from(args.trace)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Prints the folded per-layer table and returns the share of the traced
/// op wall that no layer span covers.
fn print_table(workload: &str, tr: &Tracer) -> f64 {
    let root = format!("op.{workload}");
    let rows = tr.table(&root);
    println!("per-layer table, {workload} (traced ops; % of their summed wall):");
    println!(
        "  {:<24} {:>7} {:>12} {:>12} {:>8}",
        "span", "calls", "total_ms", "self_ms", "%wall"
    );
    for r in &rows {
        let note = if r.outside_op && r.name != root {
            "  (beside the op)"
        } else {
            ""
        };
        println!(
            "  {:<24} {:>7} {:>12.3} {:>12.3} {:>8.2}{note}",
            r.name, r.calls, r.total_ms, r.self_ms, r.wall_pct
        );
    }
    let gap = rows
        .iter()
        .find(|r| r.name == root)
        .map_or(0.0, |r| r.self_ms / r.total_ms);
    println!(
        "  layer self times cover the op wall to within {:.3}% (stated gap {:.0}%)",
        100.0 * gap,
        100.0 * SPLIT_GAP
    );
    gap
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to report timings from a debug build; build with --release");
        std::process::exit(2);
    }
    let work = PathBuf::from("perfbench/work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    // Spill files go to the temp dir; keep them inside the checkout. Set
    // before any thread starts.
    let abs = std::fs::canonicalize(&work).expect("work dir was just created");
    std::env::set_var("TMPDIR", &abs);

    let origin = Instant::now();
    let mut metrics = Vec::new();
    let mut report = vec![("provenance".to_string(), provenance(&args))];
    let (mut attempted, mut failed, mut problems) = (0u64, 0u64, Vec::new());

    // A traced run must report every per-layer metric, and those come from
    // all four workloads, so it runs them all (`--workload` is validated but
    // does not narrow it).
    let plan: Vec<&str> = if args.trace {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in plan {
        let ctx = Ctx {
            seed: args.seed,
            budget: Duration::from_secs_f64(if args.trace {
                args.seconds / WORKLOADS.len() as f64
            } else {
                args.seconds
            }),
            work: work.clone(),
            trace: args.trace,
            setup_reps: if args.trace { 1 } else { SETUP_REPS },
        };
        let mut tr = Tracer::new(false, origin);
        let out = run_workload(name, &ctx, &mut tr);
        attempted += out.attempted;
        failed += out.failed;
        problems.extend(out.problems.iter().map(|p| format!("{name}: {p}")));

        let scale = |at: &Duration| out.host.scale(*at);
        let op_ms: Vec<f64> = if out.raw_ops {
            out.op_ms.clone()
        } else {
            out.op_ms
                .iter()
                .zip(&out.op_at)
                .map(|(ms, at)| ms * scale(at))
                .collect()
        };
        let setup_s: Vec<f64> = out
            .setup_s
            .iter()
            .zip(&out.setup_at)
            .map(|(s, at)| s * scale(at))
            .collect();
        let measured_tail = tail(&out.op_ms).ms;
        let tail = tail(&op_ms);
        let host_ms = out.host.ms();
        let mut facts = vec![
            (
                "host_ref".to_string(),
                Json::Obj(vec![
                    ("nominal_ms".into(), Json::Num(host::NOMINAL_MS)),
                    ("median_ms".into(), Json::Num(median(&host_ms))),
                    ("samples".into(), Json::from(host_ms.len() as u64)),
                    ("ops_scaled".into(), Json::from(!out.raw_ops)),
                ]),
            ),
            (
                "as_measured".to_string(),
                Json::Obj(vec![
                    ("op_p50_ms".into(), Json::Num(median(&out.op_ms))),
                    ("op_tail_ms".into(), Json::Num(measured_tail)),
                    ("setup_s".into(), Json::Num(median(&out.setup_s))),
                ]),
            ),
            ("ops".to_string(), Json::from(out.op_ms.len() as u64)),
            (
                "traced_ops".to_string(),
                Json::from(out.traced_ms.len() as u64),
            ),
            ("attempted".to_string(), Json::from(out.attempted)),
            ("failed".to_string(), Json::from(out.failed)),
            (
                "setup_s_samples".to_string(),
                Json::Arr(out.setup_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
            (
                "op_tail".to_string(),
                Json::Obj(vec![
                    ("percentile".into(), Json::Num(tail.percentile)),
                    ("samples_beyond".into(), Json::from(10u64)),
                    ("windows".into(), Json::from(tail.windows as u64)),
                    (
                        "window_samples".into(),
                        Json::from(tail.window_samples as u64),
                    ),
                    ("samples".into(), Json::from(out.op_ms.len() as u64)),
                ]),
            ),
        ];
        facts.extend(out.facts);
        report.push((name.to_string(), Json::Obj(facts)));

        if args.trace {
            let overhead = median(&out.traced_ms) / median(&out.op_ms) - 1.0;
            metrics.extend(out.layers);
            metrics.push(metric(
                format!("obs.trace_overhead_frac.{name}"),
                overhead,
                "fraction",
            ));
            attempted += 1;
            if print_table(name, &tr) > SPLIT_GAP {
                problems.push(format!(
                    "{name}: layer spans leave more than the stated gap of the op wall"
                ));
                failed += 1;
            }
            let path = work.join(format!("trace-{name}.jsonl"));
            if let Err(e) = tr.write_jsonl(&path) {
                problems.push(format!("{name}: writing {}: {e}", path.display()));
                failed += 1;
            }
        } else {
            metrics.push(metric("op_p50_ms", median(&op_ms), "ms"));
            metrics.push(metric("op_tail_ms", tail.ms, "ms"));
            metrics.push(metric(
                "peak_rss_mib",
                out.peak_rss_kb as f64 / 1024.0,
                "MiB",
            ));
            metrics.push(metric("setup_s", median(&setup_s), "s"));
        }
    }

    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    report.push((
        "failed_frac".to_string(),
        Json::Obj(vec![
            (
                "value".into(),
                Json::Num(failed as f64 / attempted.max(1) as f64),
            ),
            ("base_attempted".into(), Json::from(attempted)),
        ]),
    ));
    println!(
        "{}",
        Json::Obj(vec![("report".into(), Json::Obj(report))]).render()
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::from(failed == 0 && attempted > 0)),
        ("attempted".into(), Json::from(attempted)),
        ("failed".into(), Json::from(failed)),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
}
