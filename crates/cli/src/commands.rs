//! Implementations of the `mass` subcommands.

use crate::args::Args;
use mass_core::storm::{apply_to_dataset, apply_to_incremental, scripted_storm, StormMix};
use mass_core::{
    DecayParams, IncrementalMass, MassAnalysis, MassParams, Recommender, RefreshMode,
    TemporalParams,
};
use mass_crawler::{
    archive_host, crawl, BlogHost, CrawlConfig, HostConfig, SimulatedHost, XmlArchiveHost,
};
use mass_eval::{run_user_study, TextTable, UserStudyConfig};
use mass_synth::{
    generate as synth_generate, ingest_sharded, ingest_sharded_spilled, CorpusSpec, CorpusStream,
    IngestOptions, SynthConfig,
};
use mass_text::DiscoveryParams;
use mass_types::{BloggerId, Dataset, DomainId};
use mass_viz::{apply_layout, LayoutParams, PostReplyNetwork};

type CmdResult = Result<(), String>;

fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let path = args.require("in")?;
    mass_xml::dataset_io::load(path).map_err(|e| format!("loading {path}: {e}"))
}

fn synth_config(
    args: &Args,
    default_bloggers: usize,
    default_ppb: f64,
) -> Result<SynthConfig, String> {
    let cfg = SynthConfig {
        bloggers: args.get_parse("bloggers", default_bloggers)?,
        mean_posts_per_blogger: args.get_parse("posts-per-blogger", default_ppb)?,
        seed: args.get_parse("seed", 42u64)?,
        time_span: args.get_parse("time-span", 0u64)?,
        planted_fading: args.get_parse("fading", 0usize)?,
        planted_rising: args.get_parse("rising", 0usize)?,
        ..Default::default()
    };
    // Pre-check what the generator would otherwise panic on.
    if cfg.time_span == 0 && (cfg.planted_fading > 0 || cfg.planted_rising > 0) {
        return Err("--fading/--rising need --time-span TICKS".into());
    }
    if cfg.planted_fading + cfg.planted_rising > cfg.bloggers {
        return Err(format!(
            "--fading {} + --rising {} exceed --bloggers {}",
            cfg.planted_fading, cfg.planted_rising, cfg.bloggers
        ));
    }
    Ok(cfg)
}

/// Builds a [`CorpusSpec`] from `--lean --domains --zipf --planted --boost
/// --posts-per-blogger` overrides on top of the sized defaults.
fn stream_spec(args: &Args, bloggers: usize, seed: u64) -> Result<CorpusSpec, String> {
    let mut spec = if args.flag("lean") {
        CorpusSpec::lean(bloggers, seed)
    } else {
        CorpusSpec::sized(bloggers, seed)
    };
    let mixture = spec.word_mixtures[0];
    spec.domains = args.get_parse("domains", spec.domains)?;
    spec.word_mixtures = vec![mixture; spec.domains];
    spec.zipf_exponent = args.get_parse("zipf", spec.zipf_exponent)?;
    spec.planted_influencers = args.get_parse("planted", spec.planted_influencers)?;
    spec.influencer_boost = args.get_parse("boost", spec.influencer_boost)?;
    spec.mean_posts_per_blogger =
        args.get_parse("posts-per-blogger", spec.mean_posts_per_blogger)?;
    spec.time_span = args.get_parse("time-span", spec.time_span)?;
    spec.planted_fading = args.get_parse("fading", spec.planted_fading)?;
    spec.planted_rising = args.get_parse("rising", spec.planted_rising)?;
    Ok(spec)
}

fn ingest_options(args: &Args) -> Result<IngestOptions, String> {
    Ok(IngestOptions {
        shards: args.get_parse("shards", 4usize)?,
        spill_budget: match args.get("spill-budget").filter(|s| !s.is_empty()) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --spill-budget: {raw:?}"))?,
            None => usize::MAX,
        },
        threads: args.get_parse("threads", 0usize)?,
    })
}

/// Parses the temporal facet's flags: `--as-of T` turns it on, `--decay
/// exp|window` picks the law (`exp` by default), `--half-life H` sets the
/// exponential half-life (default `inf` — horizoned but undecayed) and
/// `--window W` the hard-window age cutoff. Degenerate values come back as
/// errors via [`TemporalParams::validate`], never panics.
fn temporal_params(args: &Args) -> Result<Option<TemporalParams>, String> {
    let as_of = args.get("as-of").filter(|s| !s.is_empty());
    let Some(raw) = as_of else {
        for flag in ["decay", "half-life", "window"] {
            if args.get(flag).filter(|s| !s.is_empty()).is_some() {
                return Err(format!("--{flag} needs --as-of TICK to take effect"));
            }
        }
        return Ok(None);
    };
    let as_of: u64 = raw
        .parse()
        .map_err(|_| format!("invalid value for --as-of: {raw:?}"))?;
    let decay = match args.get("decay").filter(|s| !s.is_empty()).unwrap_or("exp") {
        "exp" | "exponential" => {
            let half_life = match args.get("half-life").filter(|s| !s.is_empty()) {
                Some("inf") | None => f64::INFINITY,
                Some(raw) => raw
                    .parse()
                    .map_err(|_| format!("invalid value for --half-life: {raw:?}"))?,
            };
            DecayParams::Exponential { half_life }
        }
        "window" => DecayParams::Window {
            horizon: args.get_parse("window", u64::MAX)?,
        },
        other => {
            return Err(format!(
                "invalid value for --decay: {other:?} (expected exp or window)"
            ))
        }
    };
    let t = TemporalParams { as_of, decay };
    t.validate().map_err(|e| e.to_string())?;
    Ok(Some(t))
}

fn mass_params(args: &Args) -> Result<MassParams, String> {
    let nb_precision = match args
        .get("nb-precision")
        .filter(|s| !s.is_empty())
        .unwrap_or("exact")
    {
        "exact" => mass_text::NbPrecision::Exact,
        "fast" => mass_text::NbPrecision::Fast,
        other => {
            return Err(format!(
                "invalid value for --nb-precision: {other:?} (expected exact or fast)"
            ))
        }
    };
    let params = MassParams {
        alpha: args.get_parse("alpha", 0.5)?,
        beta: args.get_parse("beta", 0.6)?,
        threads: args.get_parse("threads", 0usize)?,
        block_nodes: args.get_parse("block-size", 0usize)?,
        nb_precision,
        temporal: temporal_params(args)?,
        ..MassParams::paper()
    };
    if !(0.0..=1.0).contains(&params.alpha) || !(0.0..=1.0).contains(&params.beta) {
        return Err("alpha and beta must be in [0, 1]".into());
    }
    Ok(params)
}

fn resolve_domain(ds: &Dataset, name: &str) -> Result<DomainId, String> {
    ds.domains.id_of_ci(name).ok_or_else(|| {
        format!(
            "unknown domain {name:?}; available: {}",
            ds.domains.names().join(", ")
        )
    })
}

/// Emits a warn event when the solver run behind an analysis was not a
/// clean converged fixed point (shared by rank/recommend/search/report).
/// With no telemetry installed the event falls back to a stderr line, so
/// the warning stays visible by default; `--log-level off` silences it.
fn warn_on_solver_status(scores: &mass_core::InfluenceScores) {
    use mass_core::SolveStatus;
    use mass_obs::field;
    match scores.status {
        SolveStatus::Converged => {}
        SolveStatus::MaxIterations => mass_obs::warn(
            "solver.not_converged",
            &[
                field("residual", scores.residual),
                field("sweeps", scores.iterations),
                field("note", "scores are approximate"),
            ],
        ),
        SolveStatus::Degenerate => mass_obs::warn(
            "solver.degenerate_inputs",
            &[field(
                "note",
                "non-finite values neutralised; treat the ranking with suspicion",
            )],
        ),
    }
}

/// `mass generate` — synthesise a blogosphere and save it.
pub fn generate(args: &Args) -> CmdResult {
    let cfg = synth_config(args, 200, 5.0)?;
    let out_path = args.require("out")?;
    let out = synth_generate(&cfg);
    mass_xml::dataset_io::save(&out.dataset, out_path).map_err(|e| e.to_string())?;
    println!("wrote {out_path}: {}", out.dataset.stats());
    Ok(())
}

/// `mass synth` — stream a declarative corpus spec, optionally straight
/// into the analysis substrate (`--stream`) without an XML round-trip.
pub fn synth(args: &Args) -> CmdResult {
    let bloggers: usize = args.get_parse("bloggers", 1000)?;
    let seed: u64 = args.get_parse("seed", 7)?;
    let spec = stream_spec(args, bloggers, seed)?;
    let stream = CorpusStream::new(spec).map_err(|e| format!("invalid spec: {e}"))?;

    if args.flag("stream") {
        let opts = ingest_options(args)?;
        let started = std::time::Instant::now();
        if args.get("spill-budget").filter(|s| !s.is_empty()).is_some() {
            let out = ingest_sharded_spilled(&stream, &opts).map_err(|e| format!("ingest: {e}"))?;
            println!(
                "streamed {bloggers} bloggers -> {} posts, {} comments, vocab {} \
                 ({} shards, {} spilled segments / {} bytes, corpus on disk: {} bytes) \
                 in {:.2?}",
                out.corpus.posts(),
                out.stats.comments(),
                out.corpus.vocab_len(),
                opts.shards.max(1),
                out.stats.spill.segments_spilled,
                out.stats.spill.bytes_spilled,
                out.corpus.file_bytes(),
                started.elapsed(),
            );
        } else {
            let out = ingest_sharded(&stream, &opts).map_err(|e| format!("ingest: {e}"))?;
            println!(
                "streamed {bloggers} bloggers -> {} posts, {} comments, vocab {} \
                 ({} shards, resident) in {:.2?}",
                out.corpus.posts(),
                out.stats.comments(),
                out.corpus.interner().len(),
                opts.shards.max(1),
                started.elapsed(),
            );
        }
        let peak = mass_obs::process::peak_rss_kb();
        if peak > 0 {
            println!("peak rss: {peak} KiB");
        }
    }

    if let Some(path) = args.get("records-out").filter(|s| !s.is_empty()) {
        std::fs::write(path, stream.records_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("out").filter(|s| !s.is_empty()) {
        let out = stream.materialize();
        mass_xml::dataset_io::save(&out.dataset, path).map_err(|e| e.to_string())?;
        println!("wrote {path}: {}", out.dataset.stats());
    }
    if !args.flag("stream") && args.get("records-out").is_none() && args.get("out").is_none() {
        println!(
            "spec validates: {bloggers} bloggers, {} domains, seed {seed} \
             (add --stream, --out FILE or --records-out FILE to produce something)",
            stream.spec().domains
        );
    }
    Ok(())
}

/// `mass archive` — save a (synthetic) blogosphere as a per-space XML
/// archive directory, re-crawlable with `crawl --from-archive`.
pub fn archive(args: &Args) -> CmdResult {
    let cfg = synth_config(args, 200, 5.0)?;
    let dir = args.require("dir")?;
    let host = SimulatedHost::new(synth_generate(&cfg).dataset);
    let spaces = archive_host(dir, &host).map_err(|e| e.to_string())?;
    println!("archived {spaces} spaces to {dir}");
    Ok(())
}

/// `mass crawl` — crawl a simulated host (or an XML archive directory) and
/// save the assembled dataset.
pub fn crawl_cmd(args: &Args) -> CmdResult {
    let out_path = args.require("out")?;
    let failure_rate: f64 = args.get_parse("failure-rate", 0.0)?;
    let host: Box<dyn BlogHost> = match args.get("from-archive").filter(|s| !s.is_empty()) {
        Some(dir) => {
            Box::new(XmlArchiveHost::open(dir).map_err(|e| format!("opening archive {dir}: {e}"))?)
        }
        None => {
            let cfg = synth_config(args, 200, 5.0)?;
            Box::new(
                SimulatedHost::with_config(
                    synth_generate(&cfg).dataset,
                    HostConfig {
                        failure_rate,
                        ..Default::default()
                    },
                )
                .map_err(|e| format!("invalid host config: {e}"))?,
            )
        }
    };
    let crawl_cfg = CrawlConfig {
        seeds: match args.get("seed-space") {
            Some(s) if !s.is_empty() => {
                vec![s
                    .parse()
                    .map_err(|_| format!("invalid --seed-space {s:?}"))?]
            }
            _ => Vec::new(),
        },
        radius: match args.get("radius") {
            Some(r) if !r.is_empty() => {
                Some(r.parse().map_err(|_| format!("invalid --radius {r:?}"))?)
            }
            _ => None,
        },
        threads: args.get_parse("threads", 4usize)?,
        retries: args.get_parse("retries", CrawlConfig::default().retries)?,
        time_budget: match args.get_parse("time-budget-ms", 0u64)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        checkpoint_dir: args
            .get("checkpoint")
            .filter(|s| !s.is_empty())
            .map(std::path::PathBuf::from),
        resume: args.flag("resume"),
        ..Default::default()
    };
    let result = crawl(host.as_ref(), &crawl_cfg).map_err(|e| format!("crawl failed: {e}"))?;
    mass_xml::dataset_io::save(&result.dataset, out_path).map_err(|e| e.to_string())?;
    let r = &result.report;
    println!(
        "crawled {} spaces ({} posts, {} comments) in {:?}; {} retries, {} failed, {} missing",
        r.spaces_fetched,
        r.posts,
        r.comments,
        r.elapsed,
        r.retries,
        r.spaces_failed,
        r.spaces_missing
    );
    if r.resumed_from_checkpoint {
        println!(
            "resumed from checkpoint in {}",
            crawl_cfg.checkpoint_dir.as_ref().unwrap().display()
        );
    }
    if r.checkpoints_written > 0 {
        println!("wrote {} checkpoint(s)", r.checkpoints_written);
    }
    // Crawl health notices go through the event API: visible on stderr by
    // default (warn fallback), tunable with --log-level, and captured in
    // --trace-out artifacts.
    {
        use mass_obs::field;
        if !r.rejected_pages.is_empty() {
            mass_obs::warn(
                "crawl.pages_quarantined",
                &[
                    field("count", r.rejected_pages.len()),
                    field("spaces", format!("{:?}", r.rejected_pages)),
                ],
            );
        }
        if r.throttled > 0 || r.corrupt_fetches > 0 {
            mass_obs::info(
                "crawl.host_pushback",
                &[
                    field("throttled", r.throttled),
                    field("corrupt", r.corrupt_fetches),
                ],
            );
        }
        if r.breaker_trips > 0 {
            mass_obs::warn(
                "crawl.breaker_summary",
                &[
                    field("trips", r.breaker_trips),
                    field("open_ms", r.breaker_open_time.as_millis() as u64),
                ],
            );
        }
    }
    if r.budget_exhausted {
        println!("stopped early: time budget exhausted (resume with --checkpoint DIR --resume)");
    }
    println!("wrote {out_path}: {}", result.dataset.stats());
    Ok(())
}

/// `mass stats` — print corpus statistics.
pub fn stats(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    println!("{}", ds.stats());
    Ok(())
}

/// Applies a scripted edit storm (`--edit-storm N --edit-seed S`) to the
/// loaded dataset and analyses the result via the path `--refresh-mode`
/// names: `exact` / `warm` go through the incremental engine, `full` is a
/// plain batch recompute. The `exact`-vs-`full` pair is the CLI surface of
/// the exactness contract — check.sh diffs their `--json-out` artifacts.
/// With `--as-of T` (and no storm) the same pair applies to the window
/// advance: `exact` starts the engine at horizon 0 and advances to `T` as
/// a time-dirt edit storm, `full` is a batch analysis at `T`.
fn rank_analysis(
    args: &Args,
    ds: Dataset,
    params: &MassParams,
) -> Result<(Dataset, MassAnalysis), String> {
    let edits: usize = args.get_parse("edit-storm", 0usize)?;
    let mode = args.get("refresh-mode").filter(|s| !s.is_empty());
    if edits == 0 {
        if let Some(temporal) = params.temporal {
            return rank_asof_analysis(ds, params, temporal, mode);
        }
        if mode.is_some() {
            return Err("--refresh-mode requires --edit-storm N or --as-of T".into());
        }
        let analysis = MassAnalysis::analyze(&ds, params);
        return Ok((ds, analysis));
    }
    if ds.bloggers.len() < 2 || ds.posts.is_empty() {
        return Err("--edit-storm needs a corpus with >= 2 bloggers and >= 1 post".into());
    }
    let seed: u64 = args.get_parse("edit-seed", 42u64)?;
    let script = scripted_storm(&ds, edits, seed, StormMix::Mixed);
    match mode.unwrap_or("exact") {
        "full" => {
            let mut ds = ds;
            apply_to_dataset(&mut ds, &script);
            eprintln!("storm: {edits} edits (seed {seed}), full batch recompute");
            let analysis = MassAnalysis::analyze(&ds, params);
            Ok((ds, analysis))
        }
        m @ ("exact" | "warm") => {
            let refresh_mode = if m == "warm" {
                RefreshMode::WarmStart
            } else {
                RefreshMode::Exact
            };
            let mut live = IncrementalMass::new(ds, params.clone());
            apply_to_incremental(&mut live, &script);
            let stats = live.refresh_with(refresh_mode);
            eprintln!(
                "storm: {} edits (seed {seed}), {} refresh: {} sweeps, gl {}, residual {:.3e}",
                stats.edits_applied,
                stats.mode.as_str(),
                stats.sweeps,
                if stats.gl_refreshed {
                    "recomputed"
                } else {
                    "reused"
                },
                stats.residual,
            );
            Ok(live.into_parts())
        }
        other => Err(format!(
            "unknown --refresh-mode {other:?}; expected exact, warm or full"
        )),
    }
}

/// `rank --as-of T`: the window advance as an incrementally-refreshed edit
/// storm (DESIGN.md §15). The default `exact` path builds the engine at
/// horizon 0, `advance_to(T)` stages the decayed items as time dirt, and
/// one Exact refresh re-solves — bit-identical to `--refresh-mode full`
/// (batch recompute at `as_of = T`), which check.sh verifies by diffing
/// the two `--json-out` artifacts.
fn rank_asof_analysis(
    ds: Dataset,
    params: &MassParams,
    temporal: TemporalParams,
    mode: Option<&str>,
) -> Result<(Dataset, MassAnalysis), String> {
    match mode.unwrap_or("exact") {
        "full" => {
            eprintln!("as-of {}: full batch recompute", temporal.as_of);
            let analysis = MassAnalysis::analyze(&ds, params);
            Ok((ds, analysis))
        }
        m @ ("exact" | "warm") => {
            let refresh_mode = if m == "warm" {
                RefreshMode::WarmStart
            } else {
                RefreshMode::Exact
            };
            let start = MassParams {
                temporal: Some(TemporalParams {
                    as_of: 0,
                    decay: temporal.decay,
                }),
                ..params.clone()
            };
            let mut live = IncrementalMass::new(ds, start);
            let advance = live.advance_to(temporal.as_of).map_err(|e| e.to_string())?;
            let stats = live.refresh_with(refresh_mode);
            eprintln!(
                "window advance 0 -> {}: {} posts / {} comments re-decayed; \
                 {} refresh: {} sweeps, gl {}, residual {:.3e}",
                advance.to,
                advance.posts_affected,
                advance.comments_affected,
                stats.mode.as_str(),
                stats.sweeps,
                if stats.gl_refreshed {
                    "recomputed"
                } else {
                    "reused"
                },
                stats.residual,
            );
            Ok(live.into_parts())
        }
        other => Err(format!(
            "unknown --refresh-mode {other:?}; expected exact, warm or full"
        )),
    }
}

/// Builds the rank inputs from `--synth N --synth-seed S`: the dataset is
/// materialised from a [`CorpusStream`], and with `--stream` the corpus
/// comes from sharded ingest instead of in-memory tokenization — the two
/// paths must produce byte-identical `--json-out` artifacts (check.sh
/// diffs them).
fn rank_synth_analysis(
    args: &Args,
    bloggers: usize,
    params: &MassParams,
) -> Result<(Dataset, MassAnalysis), String> {
    if args.get_parse("edit-storm", 0usize)? != 0 {
        return Err("--synth cannot be combined with --edit-storm (use --in FILE)".into());
    }
    let seed: u64 = args.get_parse("synth-seed", 7)?;
    let spec = stream_spec(args, bloggers, seed)?;
    let stream = CorpusStream::new(spec).map_err(|e| format!("invalid spec: {e}"))?;
    let out = stream.materialize();
    let analysis = if args.flag("stream") {
        let opts = ingest_options(args)?;
        let ingest = ingest_sharded(&stream, &opts).map_err(|e| format!("ingest: {e}"))?;
        eprintln!(
            "streamed ingest: {} shards, {} posts, {} comments, {} spilled segments",
            opts.shards.max(1),
            ingest.stats.posts(),
            ingest.stats.comments(),
            ingest.stats.spill.segments_spilled,
        );
        MassAnalysis::analyze_with_corpus(&out.dataset, &ingest.corpus, params)
    } else {
        MassAnalysis::analyze(&out.dataset, params)
    };
    Ok((out.dataset, analysis))
}

/// `mass rank` — top-k general or domain-specific influencers.
pub fn rank(args: &Args) -> CmdResult {
    let k: usize = args.get_parse("k", 10)?;
    let params = mass_params(args)?;
    let synth_bloggers: usize = args.get_parse("synth", 0)?;
    let (ds, analysis) = if synth_bloggers > 0 {
        rank_synth_analysis(args, synth_bloggers, &params)?
    } else {
        let ds = load_dataset(args)?;
        rank_analysis(args, ds, &params)?
    };
    warn_on_solver_status(&analysis.scores);

    let (title, ranked) = match args.get("domain") {
        Some(name) if !name.is_empty() => {
            let d = resolve_domain(&ds, name)?;
            (
                format!("top-{k} in {}", ds.domains.name(d)),
                analysis.top_k_in_domain(d, k),
            )
        }
        _ => (format!("top-{k} general"), analysis.top_k_general(k)),
    };

    // `--rising-since T0` (with `--as-of T`): the rising-star detector —
    // influence snapshots at T0 and T, bloggers ranked by the largest
    // positive derivative (the planted-riser signal a static ranking
    // misses; see tests/ground_truth_recovery.rs).
    if let Some(raw) = args.get("rising-since").filter(|s| !s.is_empty()) {
        let temporal = params.temporal.ok_or("--rising-since needs --as-of TICK")?;
        let since: u64 = raw
            .parse()
            .map_err(|_| format!("invalid value for --rising-since: {raw:?}"))?;
        if since >= temporal.as_of {
            return Err(format!(
                "--rising-since {since} must lie before --as-of {}",
                temporal.as_of
            ));
        }
        let early = MassAnalysis::analyze(
            &ds,
            &MassParams {
                temporal: Some(TemporalParams {
                    as_of: since,
                    decay: temporal.decay,
                }),
                ..params.clone()
            },
        );
        let stars = mass_core::rising_stars(
            &[
                (since, early.scores.blogger.clone()),
                (temporal.as_of, analysis.scores.blogger.clone()),
            ],
            k,
        );
        println!("rising stars {since} -> {} :", temporal.as_of);
        let mut table = TextTable::new(["#", "blogger", "d(influence)/dt", "influence"]);
        for (rank, star) in stars.iter().enumerate() {
            table.row([
                (rank + 1).to_string(),
                ds.blogger(star.blogger).name.clone(),
                format!("{:+.6}", star.derivative),
                format!("{:.4}", star.influence),
            ]);
        }
        print!("{table}");
    }

    println!("{title} (α={}, β={}):", params.alpha, params.beta);
    let mut table = TextTable::new(["#", "blogger", "score", "posts", "comments recv"]);
    let ix = ds.index();
    for (rank, (b, score)) in ranked.iter().enumerate() {
        table.row([
            (rank + 1).to_string(),
            ds.blogger(*b).name.clone(),
            format!("{score:.4}"),
            ix.post_count(*b).to_string(),
            ix.comments_received(*b).to_string(),
        ]);
    }
    print!("{table}");

    // Machine-readable artifact. Scores are emitted at full precision and
    // `threads` is deliberately excluded, so two runs that differ only in
    // thread count must produce byte-identical files — the determinism gate
    // in scripts/check.sh diffs exactly this output.
    if let Some(path) = args.get("json-out").filter(|s| !s.is_empty()) {
        use mass_obs::json::Json;
        let mut fields = vec![
            ("title".into(), Json::from(title.as_str())),
            ("alpha".into(), Json::Num(params.alpha)),
            ("beta".into(), Json::Num(params.beta)),
        ];
        // Present only for temporal analyses: pre-temporal artifacts (and
        // their golden snapshots) stay byte-identical.
        if let Some(t) = params.temporal {
            fields.push(("as_of".into(), Json::from(t.as_of)));
        }
        fields.extend([
            ("k".into(), Json::from(k as u64)),
            (
                "ranking".into(),
                Json::Arr(
                    ranked
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
                        .collect(),
                ),
            ),
        ]);
        let artifact = Json::Obj(fields);
        std::fs::write(path, artifact.render() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `mass recommend` — Scenario 1 (ad text or domain dropdown) and
/// Scenario 2 (profile).
pub fn recommend(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let k: usize = args.get_parse("k", 3)?;
    let analysis = MassAnalysis::analyze(&ds, &mass_params(args)?);
    warn_on_solver_status(&analysis.scores);
    let rec = Recommender::new(&analysis);

    let ranked = if let Some(ad) = args.get("ad").filter(|s| !s.is_empty()) {
        if let Some(mined) = rec.mined_domains(ad, 1.5) {
            let names: Vec<String> = mined
                .iter()
                .map(|(d, w)| format!("{} ({:.0}%)", ds.domains.name(*d), w * 100.0))
                .collect();
            println!("domains mined from the advertisement: {}", names.join(", "));
        }
        rec.for_advertisement(ad, k)
            .ok_or("corpus has no domain tags; train a classifier or use --ad-domain")?
    } else if let Some(list) = args.get("ad-domain").filter(|s| !s.is_empty()) {
        let domains: Vec<DomainId> = list
            .split(',')
            .map(|n| resolve_domain(&ds, n.trim()))
            .collect::<Result<_, _>>()?;
        rec.for_domains(&domains, k)
    } else if let Some(profile) = args.get("profile").filter(|s| !s.is_empty()) {
        rec.for_profile(profile, k)
            .ok_or("corpus has no domain tags; cannot mine profile interests")?
    } else {
        println!("no --ad/--ad-domain/--profile given; showing the general list");
        rec.general(k)
    };

    let mut table = TextTable::new(["#", "blogger", "score"]);
    for (rank, (b, score)) in ranked.iter().enumerate() {
        table.row([
            (rank + 1).to_string(),
            ds.blogger(*b).name.clone(),
            format!("{score:.4}"),
        ]);
    }
    print!("{table}");
    Ok(())
}

/// `mass network` — export the Fig. 4 post-reply view.
pub fn network(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let radius: usize = args.get_parse("radius", 2)?;
    let mut net = match args.get("focus").filter(|s| !s.is_empty()) {
        Some(who) => {
            let focus = ds
                .blogger_by_name(who)
                .or_else(|| {
                    who.parse::<usize>()
                        .ok()
                        .filter(|&i| i < ds.bloggers.len())
                        .map(BloggerId::new)
                })
                .ok_or_else(|| format!("no blogger named or numbered {who:?}"))?;
            PostReplyNetwork::around(&ds, focus, radius)
        }
        None => PostReplyNetwork::build(&ds),
    };
    let analysis = MassAnalysis::analyze(&ds, &MassParams::paper());
    net.attach_scores(&analysis.scores.blogger, &analysis.domain_matrix);
    apply_layout(&mut net, &LayoutParams::default());

    let rendered = match args.get("format").unwrap_or("xml") {
        "xml" | "" => mass_viz::to_xml_string(&net),
        "dot" => mass_viz::to_dot(&net),
        "graphml" => mass_viz::to_graphml(&net),
        other => return Err(format!("unknown format {other:?} (xml|dot|graphml)")),
    };
    match args.get("out").filter(|s| !s.is_empty()) {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| e.to_string())?;
            println!(
                "wrote {path}: {} nodes, {} edges, {} comments",
                net.nodes.len(),
                net.edges.len(),
                net.total_comments()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// `mass search` — expert search: free-text query → influential bloggers
/// and posts on that subject.
pub fn search(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let query = args.require("query")?;
    let k: usize = args.get_parse("k", 5)?;
    let analysis = MassAnalysis::analyze(&ds, &mass_params(args)?);
    warn_on_solver_status(&analysis.scores);
    let engine = mass_core::ExpertSearch::build(&ds, &analysis);

    let bloggers = engine.bloggers(query, k);
    if bloggers.is_empty() {
        println!("no blogger matches {query:?}");
        return Ok(());
    }
    println!("top bloggers for {query:?}:");
    let mut table = TextTable::new(["#", "blogger", "score"]);
    for (rank, (b, s)) in bloggers.iter().enumerate() {
        table.row([
            (rank + 1).to_string(),
            ds.blogger(*b).name.clone(),
            format!("{s:.4}"),
        ]);
    }
    print!("{table}");

    println!("\ntop posts:");
    let mut table = TextTable::new(["post", "author", "score"]);
    for (p, s) in engine.posts(query, k) {
        let post = ds.post(p);
        table.row([
            post.title.clone(),
            ds.blogger(post.author).name.clone(),
            format!("{s:.4}"),
        ]);
    }
    print!("{table}");
    Ok(())
}

/// `mass report` — write a markdown analysis report.
pub fn report(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let k: usize = args.get_parse("k", 10)?;
    let analysis = MassAnalysis::analyze(&ds, &mass_params(args)?);
    warn_on_solver_status(&analysis.scores);
    let rendered = mass_eval::analysis_report(&ds, &analysis, k);
    match args.get("out").filter(|s| !s.is_empty()) {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| e.to_string())?;
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// `mass discover` — automatic topic discovery over an XML corpus
/// (the ref \[6\] alternative to predefined domains), then rank in the
/// discovered domains.
pub fn discover(args: &Args) -> CmdResult {
    let ds = load_dataset(args)?;
    let topics: usize = args.get_parse("topics", 10)?;
    let k: usize = args.get_parse("k", 3)?;
    if topics == 0 {
        return Err("--topics must be positive".into());
    }

    // One prepared corpus serves the whole command: topic discovery, the
    // bootstrap classifier, and the final analysis all read the same
    // interned tokens — the posts are never tokenized twice.
    let params = mass_params(args)?;
    let corpus = mass_text::PreparedCorpus::build(&ds, params.threads);
    let model = mass_text::discover_topics_prepared(
        &corpus,
        &DiscoveryParams {
            topics,
            ..Default::default()
        },
    );
    if model.is_empty() {
        return Err("corpus too small or homogeneous for topic discovery".into());
    }
    println!("discovered {} topics:", model.len());
    let mut table = TextTable::new(["label", "top terms"]);
    for t in model.topics() {
        let head: Vec<&str> = t.terms.iter().take(8).map(String::as_str).collect();
        table.row([t.label.clone(), head.join(", ")]);
    }
    print!("{table}");

    let classifier = model
        .bootstrap_classifier_prepared(&corpus)
        .ok_or("discovery produced no usable classifier")?;
    let mut rebased = ds.clone();
    rebased.domains = model.domain_set();
    for post in &mut rebased.posts {
        post.true_domain = None;
    }
    let params = MassParams {
        iv: mass_core::IvSource::Classifier(classifier),
        ..params
    };
    let analysis = MassAnalysis::analyze_with_corpus(&rebased, &corpus, &params);
    println!("\ntop-{k} per discovered domain:");
    let mut table = TextTable::new(["domain", "top bloggers"]);
    for d in 0..model.len() {
        let tops = analysis.top_k_in_domain(mass_types::DomainId::new(d), k);
        table.row([
            model.topics()[d].label.clone(),
            tops.iter()
                .map(|(b, _)| ds.blogger(*b).name.clone())
                .collect::<Vec<_>>()
                .join(", "),
        ]);
    }
    print!("{table}");
    Ok(())
}

/// `mass obs-validate` — check that `--trace-out` / `--metrics-out`
/// artifacts parse and contain the expected instrumentation. Used by the
/// `scripts/check.sh` observability gate and handy after any traced run.
pub fn obs_validate(args: &Args) -> CmdResult {
    use mass_obs::json::{self, Json};
    use std::collections::BTreeSet;

    let mut checked = false;

    if let Some(path) = args.get("trace").filter(|s| !s.is_empty()) {
        checked = true;
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading trace {path}: {e}"))?;
        let records = json::parse_lines(&text)
            .map_err(|(line, e)| format!("{path}:{line}: invalid JSON: {e}"))?;
        if records.is_empty() {
            return Err(format!("{path}: trace is empty"));
        }
        let mut names: BTreeSet<String> = BTreeSet::new();
        let (mut opens, mut closes, mut events) = (0usize, 0usize, 0usize);
        for (i, r) in records.iter().enumerate() {
            let line = i + 1;
            let kind = r
                .get("kind")
                .and_then(Json::as_str)
                .ok_or(format!("{path}:{line}: record has no kind"))?;
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("{path}:{line}: record has no name"))?;
            r.get("t_us")
                .and_then(Json::as_u64)
                .ok_or(format!("{path}:{line}: record has no t_us"))?;
            let level = r
                .get("level")
                .and_then(Json::as_str)
                .ok_or(format!("{path}:{line}: record has no level"))?;
            if !matches!(mass_obs::parse_level(level), Ok(Some(_))) {
                return Err(format!("{path}:{line}: unknown level {level:?}"));
            }
            match kind {
                "span_open" => opens += 1,
                "span_close" => {
                    closes += 1;
                    r.get("elapsed_us")
                        .and_then(Json::as_u64)
                        .ok_or(format!("{path}:{line}: span_close has no elapsed_us"))?;
                }
                "event" => events += 1,
                other => return Err(format!("{path}:{line}: unknown kind {other:?}")),
            }
            names.insert(name.to_string());
        }
        if opens != closes {
            return Err(format!(
                "{path}: {opens} span_open records vs {closes} span_close — spans leaked"
            ));
        }
        if let Some(expected) = args.get("expect-spans").filter(|s| !s.is_empty()) {
            for want in expected.split(',').map(str::trim) {
                if !names.contains(want) {
                    return Err(format!(
                        "{path}: expected span/event {want:?} not found; present: {}",
                        names.iter().cloned().collect::<Vec<_>>().join(", ")
                    ));
                }
            }
        }
        println!(
            "trace {path}: OK ({} records: {opens} spans, {events} events, {} distinct names)",
            records.len(),
            names.len()
        );
    }

    if let Some(path) = args.get("metrics").filter(|s| !s.is_empty()) {
        checked = true;
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading metrics {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        let mut names: BTreeSet<String> = BTreeSet::new();
        for section in ["counters", "gauges", "histograms"] {
            let obj = doc
                .get(section)
                .and_then(Json::as_obj)
                .ok_or(format!("{path}: missing {section:?} object"))?;
            names.extend(obj.iter().map(|(k, _)| k.clone()));
        }
        // Quantiles of every histogram must be ordered and bracketed.
        for (name, h) in doc.get("histograms").and_then(Json::as_obj).unwrap() {
            let q = |key: &str| {
                h.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{path}: histogram {name:?} has no {key}"))
            };
            let count = h
                .get("count")
                .and_then(Json::as_u64)
                .ok_or(format!("{path}: histogram {name:?} has no count"))?;
            if count == 0 {
                continue;
            }
            let (p50, p95, p99) = (q("p50")?, q("p95")?, q("p99")?);
            let (min, max) = (q("min")?, q("max")?);
            if !(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max) {
                return Err(format!(
                    "{path}: histogram {name:?} quantiles disordered: \
                     min {min} p50 {p50} p95 {p95} p99 {p99} max {max}"
                ));
            }
        }
        if let Some(expected) = args.get("expect-metrics").filter(|s| !s.is_empty()) {
            for want in expected.split(',').map(str::trim) {
                if !names.contains(want) {
                    return Err(format!(
                        "{path}: expected metric {want:?} not found; present: {}",
                        names.iter().cloned().collect::<Vec<_>>().join(", ")
                    ));
                }
            }
        }
        println!("metrics {path}: OK ({} metrics)", names.len());
    }

    if let Some(path) = args.get("prometheus").filter(|s| !s.is_empty()) {
        checked = true;
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading prometheus {path}: {e}"))?;
        // Syntax, TYPE precedence, bucket monotonicity/cumulativeness,
        // +Inf == _count, and _sum presence all checked by the validator.
        let report = mass_obs::prometheus::validate(&text).map_err(|e| format!("{path}: {e}"))?;
        if let Some(expected) = args.get("expect-families").filter(|s| !s.is_empty()) {
            for want in expected.split(',').map(str::trim) {
                if !report.families.contains_key(want) {
                    return Err(format!(
                        "{path}: expected metric family {want:?} not found; present: {}",
                        report
                            .families
                            .keys()
                            .cloned()
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
        }
        println!(
            "prometheus {path}: OK ({} families, {} samples)",
            report.families.len(),
            report.samples
        );
    }

    if let Some(path) = args.get("requests").filter(|s| !s.is_empty()) {
        checked = true;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading requests dump {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        // Collect every sampled trace from both lists (they may overlap).
        let mut traces: Vec<&Json> = Vec::new();
        for list in ["recent", "slowest"] {
            traces.extend(
                doc.get(list)
                    .and_then(Json::as_arr)
                    .ok_or(format!("{path}: missing {list:?} array"))?,
            );
        }
        if traces.is_empty() {
            return Err(format!("{path}: flight recorder holds no traces"));
        }
        // span name -> set of trace ids whose tree contains that span.
        let mut span_traces: Vec<(String, String)> = Vec::new();
        for (i, t) in traces.iter().enumerate() {
            let id = t
                .get("trace")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: trace {i} has no trace id"))?;
            if id.trim_matches('0').is_empty() {
                return Err(format!("{path}: trace {i} has a zero trace id"));
            }
            let spans = t
                .get("spans")
                .and_then(Json::as_arr)
                .ok_or(format!("{path}: trace {i} has no spans"))?;
            if spans.is_empty() {
                return Err(format!("{path}: trace {id} captured no spans"));
            }
            let mut roots = 0usize;
            for s in spans {
                let name = s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("{path}: trace {id} has an unnamed span"))?;
                let stamped = s
                    .get("trace")
                    .and_then(Json::as_str)
                    .ok_or(format!("{path}: span {name} has no trace id"))?;
                if stamped != id {
                    return Err(format!(
                        "{path}: trace {id} contains span {name} stamped {stamped} — \
                         inconsistent correlation"
                    ));
                }
                if s.get("depth").and_then(Json::as_u64) == Some(0) {
                    roots += 1;
                }
                span_traces.push((name.to_string(), id.to_string()));
            }
            if roots != 1 {
                return Err(format!(
                    "{path}: trace {id} has {roots} depth-0 spans — unbalanced tree"
                ));
            }
        }
        // `--expect-linked A=B`: some trace id must appear under span A in
        // one sampled trace and span B in another (request → refresh).
        if let Some(spec) = args.get("expect-linked").filter(|s| !s.is_empty()) {
            let (a, b) = spec
                .split_once('=')
                .ok_or(format!("--expect-linked wants SPAN=SPAN, got {spec:?}"))?;
            let ids_with = |name: &str| -> BTreeSet<&str> {
                span_traces
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, id)| id.as_str())
                    .collect()
            };
            let linked: Vec<&str> = ids_with(a).intersection(&ids_with(b)).copied().collect();
            if linked.is_empty() {
                return Err(format!(
                    "{path}: no trace id links span {a:?} to span {b:?}"
                ));
            }
            println!("requests {path}: linked {a} -> {b} via trace {}", linked[0]);
        }
        println!("requests {path}: OK ({} sampled traces)", traces.len());
    }

    if !checked {
        return Err(
            "nothing to validate; pass --trace, --metrics, --prometheus and/or --requests".into(),
        );
    }
    Ok(())
}

/// `mass user-study` — the Table I reproduction on a fresh corpus.
pub fn user_study(args: &Args) -> CmdResult {
    let cfg = synth_config(args, 3000, 13.3)?;
    let out = synth_generate(&cfg);
    println!("corpus: {}", out.dataset.stats());
    let table = run_user_study(&out.dataset, &out.truth, &UserStudyConfig::default());
    print!("{table}");
    Ok(())
}

/// `mass serve` — run the fault-tolerant online serving layer over a
/// loaded corpus until `POST /admin/shutdown` (or SIGKILL).
pub fn serve(args: &Args) -> CmdResult {
    use std::io::Write;

    let ds = load_dataset(args)?;
    let params = mass_params(args)?;
    let refresh_mode = match args.get("refresh-mode").filter(|s| !s.is_empty()) {
        None | Some("exact") => RefreshMode::Exact,
        Some("warm") => RefreshMode::WarmStart,
        Some(other) => {
            return Err(format!(
                "unknown --refresh-mode {other:?}; expected exact or warm"
            ))
        }
    };
    let engine = IncrementalMass::new(ds, params);
    let telemetry = mass_serve::PlaneConfig {
        flight_recorder_cap: args.get_parse("flight-recorder-cap", 256usize)?,
        sample_slow_ms: args.get_parse("sample-slow-ms", 50u64)?,
        window_secs: args.get_parse("window-secs", 60u64)?,
        trace_seed: args.get_parse("trace-seed", 0u64)?,
        ..mass_serve::PlaneConfig::default()
    };
    let config = mass_serve::ServeConfig {
        addr: format!("127.0.0.1:{}", args.get_parse("port", 0u16)?),
        workers: args.get_parse("workers", 4usize)?,
        queue_capacity: args.get_parse("queue", 64usize)?,
        topk_cap: args.get_parse("topk-cap", 100usize)?,
        enable_test_hooks: args.flag("chaos-hooks"),
        refresh_mode,
        telemetry,
        ..mass_serve::ServeConfig::default()
    };
    let handle = mass_serve::start(engine, config).map_err(|e| format!("bind: {e}"))?;
    // The smoke gate polls stdout for this line; flush past any pipe
    // buffering before blocking on the drain.
    println!("serving on {}", handle.addr());
    let _ = std::io::stdout().flush();
    let report = handle.wait();
    println!(
        "drained: {} requests answered, {} shed, {} refresh failures, final epoch {}",
        report.requests, report.shed, report.refresh_failures, report.epoch
    );
    Ok(())
}

/// `mass http` — a tiny scriptable HTTP probe against `mass serve`
/// (avoids a curl dependency in the smoke gates).
pub fn http(args: &Args) -> CmdResult {
    let url = args.require("url")?;
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// URLs are supported, got {url:?}"))?;
    let (addr, target) = match rest.find('/') {
        Some(slash) => (&rest[..slash], &rest[slash..]),
        None => (rest, "/"),
    };
    let method = args
        .get("method")
        .filter(|s| !s.is_empty())
        .unwrap_or("GET");
    let body = args.get("body").unwrap_or("");
    let expect: Option<u16> = match args.get("expect").filter(|s| !s.is_empty()) {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid --expect {raw:?}"))?,
        ),
    };
    let retries = args.get_parse("retry", 0usize)?;
    let delay = std::time::Duration::from_millis(args.get_parse("retry-delay-ms", 200u64)?);
    let timeout = std::time::Duration::from_secs(10);
    // `--header-expect NAME` asserts presence; `NAME=VALUE` asserts the
    // exact value — so check.sh can gate on X-Mass-Epoch/X-Mass-Degraded
    // without grepping raw responses.
    let header_expect = args
        .get("header-expect")
        .filter(|s| !s.is_empty())
        .map(|spec| match spec.split_once('=') {
            Some((name, value)) => (name.to_string(), Some(value.to_string())),
            None => (spec.to_string(), None),
        });
    let out = args.get("out").filter(|s| !s.is_empty());

    let mut last_err = String::new();
    for attempt in 0..=retries {
        if attempt > 0 {
            std::thread::sleep(delay);
        }
        match mass_serve::client::request(addr, method, target, Some(body.as_bytes()), timeout) {
            Ok(reply) => {
                if expect.is_some_and(|code| code != reply.status) {
                    last_err = format!(
                        "got {} (want {}): {}",
                        reply.status,
                        expect.unwrap(),
                        reply.body
                    );
                    continue;
                }
                if let Some((name, want)) = &header_expect {
                    let got = reply.header(&name.to_ascii_lowercase());
                    match (got, want) {
                        (None, _) => {
                            last_err = format!("header {name} absent (status {})", reply.status);
                            continue;
                        }
                        (Some(got), Some(want)) if got != want => {
                            last_err = format!("header {name}: got {got:?}, want {want:?}");
                            continue;
                        }
                        _ => {}
                    }
                }
                if let Some(path) = out {
                    std::fs::write(path, &reply.body)
                        .map_err(|e| format!("writing --out {path}: {e}"))?;
                    println!("{} -> {path} ({} bytes)", reply.status, reply.body.len());
                } else {
                    println!("{} {}", reply.status, reply.body);
                }
                return Ok(());
            }
            Err(e) => last_err = format!("request failed: {e}"),
        }
    }
    Err(format!("{method} {url}: {last_err}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mass_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_stats_and_rank() {
        let path = tmp("gen.xml");
        generate(&args(&[
            "generate",
            "--bloggers",
            "40",
            "--seed",
            "1",
            "--out",
            &path,
        ]))
        .unwrap();
        stats(&args(&["stats", "--in", &path])).unwrap();
        rank(&args(&["rank", "--in", &path, "--k", "5"])).unwrap();
        rank(&args(&[
            "rank", "--in", &path, "--k", "3", "--domain", "sports",
        ]))
        .unwrap();
    }

    #[test]
    fn rank_json_out_is_thread_count_invariant() {
        let path = tmp("gen_json.xml");
        generate(&args(&[
            "generate",
            "--bloggers",
            "50",
            "--seed",
            "7",
            "--out",
            &path,
        ]))
        .unwrap();
        let mut outputs = Vec::new();
        for threads in ["1", "2", "4", "8"] {
            let json_path = tmp(&format!("rank_t{threads}.json"));
            // Floors off: a 50-blogger corpus would otherwise solve and rank
            // serially at every --threads.
            mass_par::without_work_floors(|| {
                rank(&args(&[
                    "rank",
                    "--in",
                    &path,
                    "--k",
                    "10",
                    "--threads",
                    threads,
                    "--json-out",
                    &json_path,
                ]))
            })
            .unwrap();
            outputs.push(std::fs::read(&json_path).unwrap());
        }
        let baseline = &outputs[0];
        assert!(baseline.starts_with(b"{"));
        assert!(baseline.windows(10).any(|w| w == b"score_bits"));
        for (i, out) in outputs.iter().enumerate().skip(1) {
            assert_eq!(
                out, baseline,
                "rank --json-out differs from --threads 1 at run {i}"
            );
        }
    }

    #[test]
    fn rank_rejects_unknown_domain() {
        let path = tmp("gen2.xml");
        generate(&args(&["generate", "--bloggers", "20", "--out", &path])).unwrap();
        let err = rank(&args(&["rank", "--in", &path, "--domain", "Cooking"])).unwrap_err();
        assert!(err.contains("unknown domain"));
        assert!(err.contains("Travel"));
    }

    #[test]
    fn recommend_all_modes() {
        let path = tmp("gen3.xml");
        generate(&args(&[
            "generate",
            "--bloggers",
            "60",
            "--seed",
            "3",
            "--out",
            &path,
        ]))
        .unwrap();
        recommend(&args(&[
            "recommend",
            "--in",
            &path,
            "--ad",
            "premium football boots for the big match",
            "--k",
            "2",
        ]))
        .unwrap();
        recommend(&args(&[
            "recommend",
            "--in",
            &path,
            "--ad-domain",
            "Sports,Travel",
        ]))
        .unwrap();
        recommend(&args(&[
            "recommend",
            "--in",
            &path,
            "--profile",
            "I love hotels and flights",
        ]))
        .unwrap();
        recommend(&args(&["recommend", "--in", &path])).unwrap();
    }

    #[test]
    fn archive_then_crawl_from_it() {
        let dir = tmp("archive_dir");
        archive(&args(&[
            "archive",
            "--bloggers",
            "25",
            "--seed",
            "8",
            "--dir",
            &dir,
        ]))
        .unwrap();
        let out = tmp("from_archive.xml");
        crawl_cmd(&args(&["crawl", "--from-archive", &dir, "--out", &out])).unwrap();
        let ds = mass_xml::dataset_io::load(&out).unwrap();
        assert_eq!(ds.bloggers.len(), 25);
        let err = crawl_cmd(&args(&[
            "crawl",
            "--from-archive",
            "/no/such/dir",
            "--out",
            &out,
        ]))
        .unwrap_err();
        assert!(err.contains("opening archive"));
    }

    #[test]
    fn crawl_writes_dataset() {
        let path = tmp("crawl.xml");
        crawl_cmd(&args(&[
            "crawl",
            "--bloggers",
            "30",
            "--seed-space",
            "0",
            "--radius",
            "2",
            "--out",
            &path,
        ]))
        .unwrap();
        let ds = mass_xml::dataset_io::load(&path).unwrap();
        assert!(!ds.bloggers.is_empty());
    }

    #[test]
    fn crawl_rejects_invalid_failure_rate() {
        let path = tmp("never_written.xml");
        let err = crawl_cmd(&args(&[
            "crawl",
            "--bloggers",
            "10",
            "--failure-rate",
            "1.5",
            "--out",
            &path,
        ]))
        .unwrap_err();
        assert!(err.contains("failure_rate"), "got: {err}");
    }

    #[test]
    fn crawl_rejects_invalid_config() {
        let path = tmp("never_written2.xml");
        let err = crawl_cmd(&args(&[
            "crawl",
            "--bloggers",
            "10",
            "--threads",
            "0",
            "--out",
            &path,
        ]))
        .unwrap_err();
        assert!(err.contains("crawl failed"), "got: {err}");
        let err = crawl_cmd(&args(&[
            "crawl",
            "--bloggers",
            "10",
            "--resume",
            "--out",
            &path,
        ]))
        .unwrap_err();
        assert!(err.contains("resume"), "got: {err}");
    }

    #[test]
    fn crawl_checkpoint_then_resume() {
        let cp_dir = tmp("crawl_cp");
        let _ = std::fs::remove_dir_all(&cp_dir);
        let first = tmp("crawl_cp_first.xml");
        crawl_cmd(&args(&[
            "crawl",
            "--bloggers",
            "25",
            "--seed-space",
            "0",
            "--radius",
            "1",
            "--checkpoint",
            &cp_dir,
            "--out",
            &first,
        ]))
        .unwrap();
        // Resume with a wider radius: continues from the saved frontier.
        let second = tmp("crawl_cp_second.xml");
        crawl_cmd(&args(&[
            "crawl",
            "--bloggers",
            "25",
            "--seed-space",
            "0",
            "--radius",
            "3",
            "--checkpoint",
            &cp_dir,
            "--resume",
            "--out",
            &second,
        ]))
        .unwrap();
        let narrow = mass_xml::dataset_io::load(&first).unwrap();
        let wide = mass_xml::dataset_io::load(&second).unwrap();
        assert!(wide.posts.len() >= narrow.posts.len());
    }

    #[test]
    fn network_export_formats() {
        let gen_path = tmp("gen4.xml");
        generate(&args(&[
            "generate",
            "--bloggers",
            "25",
            "--seed",
            "4",
            "--out",
            &gen_path,
        ]))
        .unwrap();
        for fmt in ["xml", "dot", "graphml"] {
            let out_path = tmp(&format!("net.{fmt}"));
            network(&args(&[
                "network", "--in", &gen_path, "--focus", "0", "--radius", "1", "--format", fmt,
                "--out", &out_path,
            ]))
            .unwrap();
            assert!(std::fs::metadata(&out_path).unwrap().len() > 0);
        }
        let err = network(&args(&["network", "--in", &gen_path, "--format", "png"])).unwrap_err();
        assert!(err.contains("unknown format"));
        let err = network(&args(&["network", "--in", &gen_path, "--focus", "nobody"])).unwrap_err();
        assert!(err.contains("no blogger"));
    }

    #[test]
    fn search_finds_bloggers() {
        let corpus = tmp("gen_search.xml");
        generate(&args(&[
            "generate",
            "--bloggers",
            "60",
            "--seed",
            "2",
            "--out",
            &corpus,
        ]))
        .unwrap();
        search(&args(&[
            "search",
            "--in",
            &corpus,
            "--query",
            "travel hotel flight",
            "--k",
            "3",
        ]))
        .unwrap();
        search(&args(&[
            "search",
            "--in",
            &corpus,
            "--query",
            "zzzznomatch",
        ]))
        .unwrap();
        assert!(search(&args(&["search", "--in", &corpus])).is_err());
    }

    #[test]
    fn report_writes_markdown() {
        let corpus = tmp("gen_report.xml");
        generate(&args(&["generate", "--bloggers", "40", "--out", &corpus])).unwrap();
        let out = tmp("report.md");
        report(&args(&[
            "report", "--in", &corpus, "--k", "4", "--out", &out,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("# MASS analysis report"));
        report(&args(&["report", "--in", &corpus])).unwrap(); // stdout path
    }

    #[test]
    fn discover_finds_topics() {
        let path = tmp("gen_disc.xml");
        generate(&args(&[
            "generate",
            "--bloggers",
            "120",
            "--seed",
            "9",
            "--out",
            &path,
        ]))
        .unwrap();
        discover(&args(&[
            "discover", "--in", &path, "--topics", "8", "--k", "2",
        ]))
        .unwrap();
        let err = discover(&args(&["discover", "--in", &path, "--topics", "0"])).unwrap_err();
        assert!(err.contains("--topics"));
    }

    #[test]
    fn user_study_runs_small() {
        user_study(&args(&[
            "user-study",
            "--bloggers",
            "80",
            "--posts-per-blogger",
            "4",
            "--seed",
            "5",
        ]))
        .unwrap();
    }

    #[test]
    fn serve_rejects_unknown_refresh_mode() {
        let path = tmp("gen_serve.xml");
        generate(&args(&["generate", "--bloggers", "20", "--out", &path])).unwrap();
        let err = serve(&args(&["serve", "--in", &path, "--refresh-mode", "full"])).unwrap_err();
        assert!(err.contains("refresh-mode"), "{err}");
    }

    #[test]
    fn http_probes_a_live_server_and_checks_expectations() {
        let path = tmp("gen_http.xml");
        generate(&args(&[
            "generate",
            "--bloggers",
            "30",
            "--seed",
            "3",
            "--out",
            &path,
        ]))
        .unwrap();
        let ds = mass_xml::dataset_io::load(&path).unwrap();
        let engine = IncrementalMass::new(ds, MassParams::paper());
        let handle = mass_serve::start(engine, mass_serve::ServeConfig::default()).unwrap();
        let url = |target: &str| format!("http://{}{target}", handle.addr());

        http(&args(&[
            "http",
            "--url",
            &url("/topk?k=3"),
            "--expect",
            "200",
        ]))
        .unwrap();
        http(&args(&[
            "http",
            "--url",
            &url("/match?k=2"),
            "--method",
            "POST",
            "--body",
            "discount football boots",
            "--expect",
            "200",
        ]))
        .unwrap();
        let err = http(&args(&[
            "http",
            "--url",
            &url("/topk?domain=nonsense"),
            "--expect",
            "200",
        ]))
        .unwrap_err();
        assert!(err.contains("404"), "{err}");
        let err = http(&args(&["http", "--url", "ftp://x/y"])).unwrap_err();
        assert!(err.contains("http://"), "{err}");

        // Header assertions: presence, exact value, and failures.
        http(&args(&[
            "http",
            "--url",
            &url("/topk?k=1"),
            "--header-expect",
            "X-Mass-Epoch=0",
        ]))
        .unwrap();
        http(&args(&[
            "http",
            "--url",
            &url("/topk?k=1"),
            "--header-expect",
            "X-Mass-Trace",
        ]))
        .unwrap();
        let err = http(&args(&[
            "http",
            "--url",
            &url("/topk?k=1"),
            "--header-expect",
            "X-Mass-Epoch=999",
        ]))
        .unwrap_err();
        assert!(err.contains("X-Mass-Epoch"), "{err}");
        let err = http(&args(&[
            "http",
            "--url",
            &url("/topk?k=1"),
            "--header-expect",
            "X-Mass-Degraded",
        ]))
        .unwrap_err();
        assert!(err.contains("absent"), "{err}");

        // --out writes the raw body; a /metrics scrape round-trips
        // through the prometheus validator.
        let scrape = tmp("scrape.prom");
        http(&args(&[
            "http",
            "--url",
            &url("/metrics"),
            "--expect",
            "200",
            "--out",
            &scrape,
        ]))
        .unwrap();
        obs_validate(&args(&[
            "obs-validate",
            "--prometheus",
            &scrape,
            "--expect-families",
            "serve_requests,serve_request_us,serve_epoch",
        ]))
        .unwrap();
        let err = obs_validate(&args(&[
            "obs-validate",
            "--prometheus",
            &scrape,
            "--expect-families",
            "no_such_family",
        ]))
        .unwrap_err();
        assert!(err.contains("no_such_family"), "{err}");
        handle.shutdown();
    }

    #[test]
    fn obs_validate_checks_prometheus_and_requests_dumps() {
        // Invalid exposition text is rejected.
        let bad = tmp("bad.prom");
        std::fs::write(&bad, "serve_requests{ 3\n").unwrap();
        assert!(obs_validate(&args(&["obs-validate", "--prometheus", &bad])).is_err());

        // A well-formed flight-recorder dump with a linked request →
        // refresh pair passes; breaking the link or the tree fails.
        let good = tmp("requests.json");
        std::fs::write(
            &good,
            r#"{"recent": [
                {"trace": "00000000000000aa", "name": "POST /edits", "status": 202,
                 "error": false, "total_us": 900,
                 "spans": [{"name": "serve.request", "trace": "00000000000000aa",
                            "depth": 0, "start_us": 0, "elapsed_us": 900}]},
                {"trace": "00000000000000aa", "name": "incremental.refresh", "status": 0,
                 "error": false, "total_us": 5000,
                 "spans": [{"name": "incremental.refresh", "trace": "00000000000000aa",
                            "depth": 0, "start_us": 0, "elapsed_us": 5000}]}
            ], "slowest": []}"#,
        )
        .unwrap();
        obs_validate(&args(&[
            "obs-validate",
            "--requests",
            &good,
            "--expect-linked",
            "serve.request=incremental.refresh",
        ]))
        .unwrap();
        let err = obs_validate(&args(&[
            "obs-validate",
            "--requests",
            &good,
            "--expect-linked",
            "serve.request=no.such.span",
        ]))
        .unwrap_err();
        assert!(err.contains("no trace id links"), "{err}");

        let inconsistent = tmp("requests_bad.json");
        std::fs::write(
            &inconsistent,
            r#"{"recent": [
                {"trace": "00000000000000aa", "name": "GET /topk", "status": 200,
                 "error": false, "total_us": 10,
                 "spans": [{"name": "serve.request", "trace": "00000000000000bb",
                            "depth": 0, "start_us": 0, "elapsed_us": 10}]}
            ], "slowest": []}"#,
        )
        .unwrap();
        let err = obs_validate(&args(&["obs-validate", "--requests", &inconsistent])).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");

        let unbalanced = tmp("requests_unbalanced.json");
        std::fs::write(
            &unbalanced,
            r#"{"recent": [
                {"trace": "00000000000000aa", "name": "GET /topk", "status": 200,
                 "error": false, "total_us": 10,
                 "spans": [{"name": "a", "trace": "00000000000000aa",
                            "depth": 1, "start_us": 0, "elapsed_us": 5}]}
            ], "slowest": []}"#,
        )
        .unwrap();
        let err = obs_validate(&args(&["obs-validate", "--requests", &unbalanced])).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");
    }

    #[test]
    fn missing_file_reports_path() {
        let err = stats(&args(&["stats", "--in", "/no/such/file.xml"])).unwrap_err();
        assert!(err.contains("/no/such/file.xml"));
    }

    #[test]
    fn bad_alpha_rejected() {
        let path = tmp("gen5.xml");
        generate(&args(&["generate", "--bloggers", "20", "--out", &path])).unwrap();
        let err = rank(&args(&["rank", "--in", &path, "--alpha", "7"])).unwrap_err();
        assert!(err.contains("alpha"));
    }

    #[test]
    fn kernel_knobs_parse_into_params() {
        let a = args(&["rank", "--block-size", "4096", "--nb-precision", "fast"]);
        let p = mass_params(&a).unwrap();
        assert_eq!(p.block_nodes, 4096);
        assert_eq!(p.nb_precision, mass_text::NbPrecision::Fast);

        let defaults = mass_params(&args(&["rank"])).unwrap();
        assert_eq!(defaults.block_nodes, 0);
        assert_eq!(defaults.nb_precision, mass_text::NbPrecision::Exact);

        let err = mass_params(&args(&["rank", "--nb-precision", "f16"])).unwrap_err();
        assert!(err.contains("nb-precision"), "{err}");
    }
}
