//! `mass` — the headless demonstration CLI.
//!
//! Drives every flow Section IV of the paper demonstrates interactively:
//!
//! ```text
//! mass generate   --bloggers 3000 --posts-per-blogger 13.3 --seed 42 --out corpus.xml
//! mass crawl      --seed-space 0 --radius 2 --threads 8 --out crawl.xml
//! mass stats      --in corpus.xml
//! mass rank       --in corpus.xml --domain Sports --k 10
//! mass recommend  --in corpus.xml --ad "new football shoes..." --k 3
//! mass recommend  --in corpus.xml --ad-domain Sports --k 3
//! mass recommend  --in corpus.xml --profile "I love hiking and hotels" --k 3
//! mass network    --in corpus.xml --focus blogger_0001 --radius 2 --format dot --out net.dot
//! mass user-study --bloggers 500 --seed 7
//! mass serve      --in corpus.xml --port 8080 --workers 4
//! mass http       --url http://127.0.0.1:8080/topk?k=3 --expect 200
//! ```

mod args;
mod commands;
mod obs_session;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
mass — multi-facet domain-specific influential blogger mining (ICDE'10 reproduction)

USAGE: mass <command> [--option value ...]

COMMANDS:
  generate     generate a synthetic blogosphere and write it as XML
               --bloggers N (200)  --posts-per-blogger F (5.0)  --seed N (42)
               --time-span TICKS (0 = timeless)  --fading N  --rising N
               [plant fading/rising influencers into the span's edges]
               --out FILE (required)
  synth        stream a declarative corpus spec (O(1) state per blogger)
               --bloggers N (1000)  --seed N (7)  --lean  --domains N
               --zipf F  --planted N  --boost F  --posts-per-blogger F
               --time-span TICKS  --fading N  --rising N [temporal planting]
               --stream [ingest shard-by-shard, skipping XML]
               --shards N (4)  --spill-budget BYTES [out-of-core merge;
               bounds each building shard's and the finished segments'
               arrays in memory]
               --out FILE [XML]  --records-out FILE [JSON lines]
  crawl        crawl a simulated host (or XML archive) and write the XML
               --bloggers N (200)  --seed N (42)   [synthetic host corpus]
               --from-archive DIR  [crawl a saved archive instead]
               --seed-space N      --radius N      --threads N (4)
               --failure-rate F (0.0)  --retries N (3)
               --time-budget-ms N (unlimited)
               --checkpoint DIR [--resume]  --out FILE (required)
  archive      save a synthetic blogosphere as a per-space XML archive
               --bloggers N (200)  --seed N (42)  --dir DIR (required)
  stats        print corpus statistics
               --in FILE
  rank         print the top-k influential bloggers
               --in FILE  --k N (10)  --domain NAME (general if absent)
               --alpha F (0.5)  --beta F (0.6)
               --block-size N (0 = plain pull kernel; N forces that tile)
               --nb-precision exact|fast (exact)
               --json-out FILE  [full-precision machine-readable ranking]
               --edit-storm N  --edit-seed N (42)  [apply a scripted edit
               storm before ranking]  --refresh-mode exact|warm|full (exact)
               exact/warm refresh incrementally; full recomputes from
               scratch — exact and full produce identical artifacts
               --as-of TICK [temporal horizon: exact runs the window
               advance as an incremental edit storm, full recomputes]
               --decay exp|window (exp)  --half-life F (inf)  --window N
               --rising-since TICK [with --as-of: print the rising-star
               table, bloggers with the steepest influence growth]
               --synth N --synth-seed S [rank a streamed synthetic corpus
               instead of --in]  --stream --shards K --spill-budget B
               [sharded ingest; artifacts byte-identical to in-memory]
  recommend    scenario 1 & 2 recommendations
               --in FILE  --k N (3)
               one of: --ad TEXT | --ad-domain NAME[,NAME...] | --profile TEXT
  network      export a post-reply network view (Fig. 4)
               --in FILE  --focus NAME-or-ID  --radius N (2)
               --format xml|dot|graphml (xml)  --out FILE (stdout if absent)
  search       expert search: query text -> influential bloggers & posts
               --in FILE  --query TEXT  --k N (5)
  report       write a markdown analysis report
               --in FILE  --k N (10)  --out FILE (stdout if absent)
  discover     discover domains automatically (topic discovery, ref [6])
               --in FILE  --topics N (10)  --k N (3)
  user-study   reproduce Table I on a fresh synthetic corpus
               --bloggers N (3000)  --posts-per-blogger F (13.3)  --seed N (42)
  serve        run the fault-tolerant HTTP serving layer over a corpus
               --in FILE  --port N (0 = ephemeral; prints \"serving on ...\")
               --workers N (4)  --queue N (64)  --topk-cap N (100)
               --refresh-mode exact|warm (exact)  --chaos-hooks [enable
               /admin/inject-fault + ?debug-sleep-ms for drills]  --threads N
               --flight-recorder-cap N (256; 0 = off)  --sample-slow-ms N (50)
               --window-secs N (60)  --trace-seed N (0)
               --as-of TICK --decay exp|window --half-life F --window N
               [serve decayed rankings; POST /edits {\"advance_to\": T}
               advances the horizon, GET /topk?as_of=T pins it]
               endpoints: GET /topk?domain=d&k=n[&as_of=t]  POST /match?k=n
               (ad text body)  POST /edits  GET /healthz  GET /readyz  GET /metrics
               GET /debug/requests  GET /debug/slo
               POST /admin/shutdown [clean drain]
  http         one scriptable HTTP request (for smoke tests; no curl needed)
               --url http://HOST:PORT/PATH  --method GET|POST (GET)
               --body TEXT  --expect CODE  --retry N (0)
               --retry-delay-ms N (200)  --out FILE [write raw body]
               --header-expect NAME[=VALUE] [assert a response header]
  obs-validate check telemetry artifacts (offline files or live scrapes)
               --trace FILE  --metrics FILE
               --expect-spans NAME[,NAME...]  --expect-metrics NAME[,NAME...]
               --prometheus FILE [a /metrics scrape: syntax, TYPE lines,
               bucket monotonicity]  --expect-families NAME[,NAME...]
               --requests FILE [a /debug/requests dump: balanced span
               trees, consistent trace ids]  --expect-linked SPAN=SPAN
  help         print this message

PARALLELISM (rank/recommend/search/report/user-study):
  --threads N   mass-par worker threads: 0 = all cores (default), 1 = serial.
                A cap: kernels below their measured work floor run serial.
                Scores are bit-identical at every setting.

TELEMETRY (any command):
  --log-level off|error|warn|info|debug|trace   stderr verbosity (warn)
  --trace-out FILE    write spans/events as JSON lines
  --metrics-out FILE  write the metrics snapshot as JSON
  Any of these flags enables telemetry for the run and prints a metrics
  summary to stderr afterwards; without them instrumentation is off.
";

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(tokens) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let session = match obs_session::init(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.command.as_deref() {
        Some("generate") => commands::generate(&args),
        Some("synth") => commands::synth(&args),
        Some("crawl") => commands::crawl_cmd(&args),
        Some("archive") => commands::archive(&args),
        Some("stats") => commands::stats(&args),
        Some("rank") => commands::rank(&args),
        Some("recommend") => commands::recommend(&args),
        Some("network") => commands::network(&args),
        Some("search") => commands::search(&args),
        Some("report") => commands::report(&args),
        Some("discover") => commands::discover(&args),
        Some("user-study") => commands::user_study(&args),
        Some("serve") => commands::serve(&args),
        Some("http") => commands::http(&args),
        Some("obs-validate") => commands::obs_validate(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `mass help`")),
    };
    let teardown = match session {
        Some(s) => s.finish(),
        None => Ok(()),
    };
    match outcome.and(teardown) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
