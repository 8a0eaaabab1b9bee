#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip the release build
#
# Mirrors what reviewers run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

if [[ $fast -eq 0 ]]; then
  echo "== cargo build --release =="
  # --workspace: the root facade package does not depend on mass-cli, so a
  # bare `cargo build --release` would leave the `mass` binary the smoke
  # gates below run against stale.
  cargo build --release --workspace
fi

echo "== cargo test --workspace =="
cargo test --workspace --quiet

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --all --check

if [[ $fast -eq 0 ]]; then
  echo "== obs smoke: traced pipeline round-trips through obs-validate =="
  obs_dir="$(mktemp -d)"
  serve_pid=""
  trap '[[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null; rm -rf "$obs_dir"' EXIT
  mass=target/release/mass
  "$mass" crawl --bloggers 30 --seed 5 --out "$obs_dir/corpus.xml" \
    --log-level off --trace-out "$obs_dir/crawl.jsonl" \
    --metrics-out "$obs_dir/crawl_metrics.json" >/dev/null
  "$mass" obs-validate --trace "$obs_dir/crawl.jsonl" \
    --metrics "$obs_dir/crawl_metrics.json" \
    --expect-spans crawl.run,crawl.layer,crawl.assemble \
    --expect-metrics crawl.fetch_latency_us,crawl.retries,crawl.spaces_fetched
  "$mass" rank --in "$obs_dir/corpus.xml" --k 3 \
    --log-level off --trace-out "$obs_dir/rank.jsonl" \
    --metrics-out "$obs_dir/rank_metrics.json" >/dev/null
  "$mass" obs-validate --trace "$obs_dir/rank.jsonl" \
    --metrics "$obs_dir/rank_metrics.json" \
    --expect-spans xml.load,solver.solve,analysis.analyze,text.prepare \
    --expect-metrics solver.sweeps,solver.sweep_us,text.tokens_interned,text.vocab_size,text.classify_batch_us

  echo "== parallel determinism: rank at --threads 1 and 4 is byte-identical =="
  "$mass" rank --in "$obs_dir/corpus.xml" --k 10 --threads 1 \
    --json-out "$obs_dir/rank_t1.json" >/dev/null
  "$mass" rank --in "$obs_dir/corpus.xml" --k 10 --threads 4 \
    --json-out "$obs_dir/rank_t4.json" >/dev/null
  cmp "$obs_dir/rank_t1.json" "$obs_dir/rank_t4.json"

  echo "== thread policy: a corpus above the link-analysis floor is byte-identical at --threads 1 and 4 =="
  # The 30-blogger crawl above is below every work floor, so both runs
  # take the serial kernels. 8 000 streamed-spec bloggers put PageRank
  # (nodes + edges) above mass_par::floor::LINK_ANALYSIS, so --threads 4
  # runs the chunked pull against the serial one. The solve floor (~4.2M
  # work units, ~600k bloggers) is too large for a CI step; the
  # determinism suite covers the chunked solve under its test hook.
  "$mass" rank --synth 8000 --synth-seed 3 --k 10 --threads 1 \
    --json-out "$obs_dir/policy_t1.json" >/dev/null
  "$mass" rank --synth 8000 --synth-seed 3 --k 10 --threads 4 \
    --json-out "$obs_dir/policy_t4.json" >/dev/null
  cmp "$obs_dir/policy_t1.json" "$obs_dir/policy_t4.json"

  echo "== golden artifact: rank output matches the committed fixture =="
  # Guards the whole numeric pipeline against silent drift: same seed, same
  # scores, byte for byte. Regenerate deliberately (and review the diff)
  # with scripts/regen_golden.sh after an intentional scoring change.
  "$mass" generate --bloggers 40 --seed 12 --out "$obs_dir/golden.xml" >/dev/null
  "$mass" rank --in "$obs_dir/golden.xml" --k 8 \
    --json-out "$obs_dir/golden_rank.json" >/dev/null
  cmp tests/golden/rank_b40_s12_k8.json "$obs_dir/golden_rank.json"

  echo "== streaming ingest: streamed rank artifact equals in-memory, byte for byte =="
  # The CLI face of the streaming exactness contract (DESIGN.md §13): the
  # sharded out-of-core ingest path and the classic in-memory path must
  # produce byte-identical full-precision ranking artifacts.
  "$mass" rank --synth 600 --synth-seed 11 --k 10 \
    --json-out "$obs_dir/stream_mem.json" >/dev/null
  "$mass" rank --synth 600 --synth-seed 11 --k 10 --stream --shards 16 \
    --json-out "$obs_dir/stream_shard.json" >/dev/null 2>&1
  cmp "$obs_dir/stream_mem.json" "$obs_dir/stream_shard.json"

  echo "== streaming ingest: 16 shards built in parallel equal a serial build, byte for byte =="
  # Shards are coarse tasks (DESIGN.md §8): at --threads 4 they build four
  # at a time, at --threads 1 one after another.
  "$mass" rank --synth 600 --synth-seed 11 --k 10 --stream --shards 16 --threads 1 \
    --json-out "$obs_dir/stream_t1.json" >/dev/null 2>&1
  "$mass" rank --synth 600 --synth-seed 11 --k 10 --stream --shards 16 --threads 4 \
    --json-out "$obs_dir/stream_t4.json" >/dev/null 2>&1
  cmp "$obs_dir/stream_t1.json" "$obs_dir/stream_t4.json"

  echo "== streaming ingest: an unwritable spill dir is an error, not a panic =="
  set +e
  spill_err="$(TMPDIR="$obs_dir/no_such_dir" "$mass" synth --bloggers 2000 --lean \
    --stream --shards 4 --spill-budget 1024 2>&1 >/dev/null)"
  spill_status=$?
  set -e
  [[ $spill_status -eq 1 && "$spill_err" == *"ingest: "* && "$spill_err" != *panicked* ]] || {
    echo "unwritable TMPDIR: want exit 1 with an ingest error, got $spill_status: $spill_err"; exit 1; }

  echo "== streaming golden: generator records match the committed fixture =="
  "$mass" synth --bloggers 64 --seed 7 \
    --records-out "$obs_dir/stream_golden.json" >/dev/null
  cmp tests/golden/synth_stream_s7.json "$obs_dir/stream_golden.json"

  echo "== streaming smoke: 100k bloggers generate+ingest under the time budget =="
  # Out-of-core path at real scale: must finish inside 120 s on any box
  # (typically a few seconds in release).
  timeout 120 "$mass" synth --bloggers 100000 --seed 4242 --lean \
    --stream --shards 8 --spill-budget 33554432 >/dev/null

  echo "== release-only differential: streamed path bit-identical at 3k bloggers =="
  cargo test --release -q -p mass-core --test stream_differential -- --ignored

  echo "== kernel knobs: rank artifact byte-identical across block sizes =="
  # The CLI face of the §14 kernel contract: blocked pull tiles are a pure
  # scheduling choice, so the full-precision ranking artifact must not
  # move by a byte under any --block-size.
  "$mass" rank --in "$obs_dir/golden.xml" --k 10 \
    --json-out "$obs_dir/kernel_base.json" >/dev/null
  for block in 16 4096 131072; do
    "$mass" rank --in "$obs_dir/golden.xml" --k 10 --block-size "$block" \
      --json-out "$obs_dir/kernel_block.json" >/dev/null
    cmp "$obs_dir/kernel_base.json" "$obs_dir/kernel_block.json"
  done

  echo "== release-only XML loader fuzz: streaming loader equals the DOM reference =="
  # 20 000 seeded byte mutations of synthetic corpora: each must load to
  # equal datasets through both loaders or fail in both, never panic. The
  # debug suite runs a 500-mutation slice of the same fuzz.
  cargo test --release -q -p mass-xml --test dataset_differential -- --ignored

  echo "== release-only kernel gate: X17 speedups and bit-identity =="
  # table_x17_kernel_speed asserts the fused solve is >=2x the pre-PR
  # kernel and bit-compares every optimised kernel inline (f32 fast path
  # tolerance-bounded instead).
  cargo run --release -q -p mass-bench --bin table_x17_kernel_speed >/dev/null

  echo "== incremental exactness: Exact refresh artifact equals full recompute =="
  # The CLI face of the exactness contract (DESIGN.md §11): a scripted edit
  # storm refreshed incrementally in Exact mode must produce a byte-identical
  # ranking artifact to a from-scratch batch analysis of the same edits.
  "$mass" rank --in "$obs_dir/golden.xml" --k 10 --edit-storm 30 --edit-seed 7 \
    --refresh-mode exact --json-out "$obs_dir/storm_exact.json" \
    --log-level off --trace-out "$obs_dir/storm.jsonl" \
    --metrics-out "$obs_dir/storm_metrics.json" >/dev/null
  "$mass" rank --in "$obs_dir/golden.xml" --k 10 --edit-storm 30 --edit-seed 7 \
    --refresh-mode full --json-out "$obs_dir/storm_full.json" >/dev/null
  cmp "$obs_dir/storm_exact.json" "$obs_dir/storm_full.json"
  "$mass" obs-validate --trace "$obs_dir/storm.jsonl" \
    --metrics "$obs_dir/storm_metrics.json" \
    --expect-spans incremental.refresh \
    --expect-metrics incremental.refreshes,incremental.edits_applied

  echo "== temporal: rank --as-of window advance equals full recompute =="
  # The CLI face of the temporal exactness contract (DESIGN.md §15): the
  # default path starts the engine at horizon 0 and advances to T as an
  # incremental time-dirt edit storm; --refresh-mode full recomputes from
  # scratch at the same horizon. Byte-identical artifacts or the gate fails.
  "$mass" generate --bloggers 40 --seed 12 --time-span 1000 --fading 3 --rising 3 \
    --out "$obs_dir/temporal.xml" >/dev/null
  "$mass" rank --in "$obs_dir/temporal.xml" --k 8 --as-of 600 --half-life 200 \
    --json-out "$obs_dir/asof_inc.json" 2>/dev/null >/dev/null
  "$mass" rank --in "$obs_dir/temporal.xml" --k 8 --as-of 600 --half-life 200 \
    --refresh-mode full --json-out "$obs_dir/asof_full.json" 2>/dev/null >/dev/null
  cmp "$obs_dir/asof_inc.json" "$obs_dir/asof_full.json"

  echo "== temporal golden: decayed rank artifact matches the committed fixture =="
  cmp tests/golden/rank_asof_b40_s12_t600.json "$obs_dir/asof_inc.json"

  echo "== release-only temporal gate: X18 window-advance speedup and bit-identity =="
  # table_x18_window_advance asserts advance_to + Exact refresh is >=2x a
  # full recompute at every horizon and bit-compares scores at every step.
  cargo run --release -q -p mass-bench --bin table_x18_window_advance >/dev/null

  echo "== serve smoke: query+edit round-trip, chaos drill, clean drain =="
  # Boot the serving layer on an ephemeral port with chaos hooks on, walk it
  # through the degradation lifecycle (healthy -> injected refresh panic ->
  # degraded-but-answering -> recovered), then drain it cleanly and check
  # the telemetry it wrote on the way out.
  "$mass" serve --in "$obs_dir/golden.xml" --chaos-hooks \
    --flight-recorder-cap 128 --sample-slow-ms 40 --window-secs 30 --trace-seed 7 \
    --log-level off --trace-out "$obs_dir/serve.jsonl" \
    --metrics-out "$obs_dir/serve_metrics.json" > "$obs_dir/serve.out" &
  serve_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$obs_dir/serve.out")"
    [[ -n "$port" ]] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "serve died at startup"; cat "$obs_dir/serve.out"; exit 1; }
    sleep 0.1
  done
  [[ -n "$port" ]] || { echo "serve never printed its address"; exit 1; }
  base="http://127.0.0.1:$port"

  "$mass" http --url "$base/readyz" --expect 200 --retry 20 --retry-delay-ms 100 >/dev/null
  "$mass" http --url "$base/topk?domain=sports&k=3" --expect 200 >/dev/null
  "$mass" http --url "$base/match?k=2" --method POST \
    --body "cheap flights and hotel deals" --expect 200 >/dev/null
  # An edit batch publishes a fresh epoch: top-k must start reporting it.
  "$mass" http --url "$base/edits" --method POST \
    --body '{"storm": 10, "seed": 3}' --expect 202 >/dev/null
  epoch_ok=0
  for _ in $(seq 1 50); do
    if "$mass" http --url "$base/topk?k=3" | grep -q '"epoch":[1-9]'; then
      epoch_ok=1
      break
    fi
    sleep 0.1
  done
  [[ $epoch_ok -eq 1 ]] || { echo "edit storm never published a fresh epoch"; exit 1; }

  # Live telemetry: scrape /metrics mid-load and validate the exposition
  # (syntax, TYPE lines, bucket monotonicity, required families). The
  # header assertions replace response-grepping for the epoch stamp.
  "$mass" http --url "$base/topk?k=3" --expect 200 \
    --header-expect X-Mass-Epoch >/dev/null
  "$mass" http --url "$base/topk?k=3" --expect 200 \
    --header-expect X-Mass-Trace >/dev/null
  "$mass" http --url "$base/metrics" --expect 200 \
    --out "$obs_dir/scrape.prom" >/dev/null
  "$mass" obs-validate --prometheus "$obs_dir/scrape.prom" \
    --expect-families serve_requests,serve_request_us,serve_edit_publish_us,serve_epoch,serve_queue_depth,serve_window_requests,serve_flight_sampled
  "$mass" http --url "$base/debug/slo" --expect 200 >/dev/null

  # Flight recorder: an injected slow edit (debug sleep > the 40 ms
  # sampling threshold) must appear in /debug/requests, and its trace id
  # must link the request span to the refresh it triggered.
  "$mass" http --url "$base/edits?debug-sleep-ms=80" --method POST \
    --body '{"storm": 5, "seed": 6}' --expect 202 \
    --header-expect X-Mass-Trace >/dev/null
  linked_ok=0
  for _ in $(seq 1 50); do
    "$mass" http --url "$base/debug/requests" --expect 200 \
      --out "$obs_dir/requests.json" >/dev/null
    if "$mass" obs-validate --requests "$obs_dir/requests.json" \
        --expect-linked serve.request=incremental.refresh >/dev/null 2>&1; then
      linked_ok=1
      break
    fi
    sleep 0.1
  done
  [[ $linked_ok -eq 1 ]] || { echo "slow request never linked to its refresh in /debug/requests"; exit 1; }

  # Chaos drill: a refresh panic must degrade /healthz without killing
  # queries, and the next good batch must recover.
  "$mass" http --url "$base/admin/inject-fault" --method POST \
    --body during_solve --expect 202 >/dev/null
  "$mass" http --url "$base/edits" --method POST \
    --body '{"storm": 5, "seed": 4}' --expect 202 >/dev/null
  "$mass" http --url "$base/healthz" --expect 503 --retry 50 --retry-delay-ms 100 >/dev/null
  "$mass" http --url "$base/topk?k=3" --expect 200 \
    --header-expect X-Mass-Degraded=true >/dev/null
  "$mass" http --url "$base/edits" --method POST \
    --body '{"storm": 5, "seed": 5}' --expect 202 >/dev/null
  "$mass" http --url "$base/healthz" --expect 200 --retry 50 --retry-delay-ms 100 >/dev/null

  "$mass" http --url "$base/admin/shutdown" --method POST --expect 202 >/dev/null
  wait "$serve_pid" || { echo "serve exited non-zero"; exit 1; }
  serve_pid=""
  grep -q "drained:" "$obs_dir/serve.out" || { echo "serve never printed its drain report"; exit 1; }
  "$mass" obs-validate --trace "$obs_dir/serve.jsonl" \
    --metrics "$obs_dir/serve_metrics.json" \
    --expect-spans serve.request,incremental.refresh \
    --expect-metrics serve.requests,serve.request_us,serve.refreshes,serve.refresh_failures,serve.epoch,serve.edit_publish_us

  echo "== perfbench smoke: every workload builds, runs and passes its output check =="
  # perfbench (its own Cargo workspace; BENCHMARK.json runs it) checks the
  # output of every op it times. A short run of each workload catches a
  # broken benchmark build or a failed output check before a benchmark
  # run does. Inputs, spill files and traces go to the git-ignored
  # perfbench/work/.
  for workload in rank-paper refresh-stream serve-mixed ingest-spill; do
    last="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    [[ "$last" == *'"correct":true'* ]] || { echo "perfbench $workload failed its output check: $last"; exit 1; }
  done
fi

echo "all checks passed"
