#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, then a live smoke test of `v2v serve`.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace   # --workspace: smokes below need the
                                    # v2v member binary
cargo test -q --workspace           # --workspace: the root package alone is
                                    # the facade's 17 tests out of ~1000
# The f32 kernel layer dispatches on CPU features at runtime; run its test
# suites again with SIMD forced off so the scalar reference path (what
# non-x86 hosts and V2V_NO_SIMD=1 deployments run) stays verified too.
V2V_NO_SIMD=1 cargo test -q -p v2v-linalg -p v2v-embed -p v2v-serve
cargo clippy --workspace --all-targets -- -D warnings
# One threading idiom: `v2v_base::par` replaced the vendored rayon shim, and
# nothing may bring it back by name.
if grep -rn rayon --include=Cargo.toml --include=Cargo.lock --include='*.rs' \
    Cargo.toml Cargo.lock crates vendor src tests examples; then
  echo "rayon is mentioned again (see above); data-parallel code goes through v2v_base::par" >&2
  exit 1
fi
# One generator: every random stream is a `v2v_base::rng::Rng`. The vendored
# rand and criterion stand-ins are gone, and vendor/ keeps proptest alone.
if grep -rnw --include=Cargo.toml -e rand -e criterion Cargo.toml crates vendor \
    || grep -nw -e rand -e criterion Cargo.lock \
    || grep -rnE --include='*.rs' '\brand::|SmallRng|StdRng' crates src tests examples \
    || [ "$(find vendor -mindepth 1 -maxdepth 1 -type d | wc -l)" -gt 1 ]; then
  echo "a second generator, rand/criterion or another vendored crate is back (see above)" >&2
  exit 1
fi
# One byte codec: every binary format decodes through `v2v_base::bytes`, and
# the host, not an environment switch, picks the store's mmap or heap path.
if grep -rn 'from_le_bytes' crates/*/src | grep -v '^crates/base/src/' \
    || grep -rn 'V2V_NO_MMAP' crates README.md; then
  echo "a hand-rolled decoder or V2V_NO_MMAP is back (see above)" >&2
  exit 1
fi
# One way in: the server takes its settings as ServerConfig values, `.v2s`
# is the one binary embedding format, and hardware counters are `perf stat`'s
# job. None of the three may come back by name.
if grep -rn 'env::var' crates/serve/src \
    || grep -rn 'embed::binary\|embedding_binary' crates README.md \
    || grep -rn 'perf_counters\|perf_event' crates; then
  echo "a process-global knob, the v1 binary format or the perf wrapper is back (see above)" >&2
  exit 1
fi
# One training throughput number: `embed.pairs_per_s` in benchmark/. The
# single-snapshot bench bin and its checked-in JSON baseline stay gone.
if grep -rn 'bench_embed\|BENCH_embed' crates scripts --exclude=ci.sh; then
  echo "bench_embed or BENCH_embed is back (see above); track benchmark/'s embed.pairs_per_s" >&2
  exit 1
fi
# One route table: every endpoint is declared once in `crates/serve/src/api.rs`
# and its instruments are resolved when the router is built, so no request
# formats a metric name, guesses an endpoint from its path, or goes through
# a per-feature handler wrapper.
if grep -rn 'format!("serve\.' crates/serve/src \
    || grep -rnE 'fn endpoint_name|fn augment_healthz|pub fn handler' crates/serve/src; then
  echo "a per-request metric name, path heuristic or handler wrapper is back (see above)" >&2
  exit 1
fi
# One link layout: the HNSW graph lives in two flat `u32` tables (layer 0 at
# a fixed stride, upper layers by a per-vertex offset), so a patch copies it
# with a memcpy per table. A `Vec` per vertex and layer may not come back.
if grep -n 'Vec<Vec<Vec<u32>>>' crates/serve/src/hnsw.rs; then
  echo "a nested per-list link layout is back in hnsw.rs (see above); links live in the flat tables" >&2
  exit 1
fi

# --- Server smoke test -----------------------------------------------------
# Boot `v2v serve` on an ephemeral port against a tiny embedding, hit the
# JSON endpoints, then verify SIGINT produces a clean exit.
smoke_dir=$(mktemp -d)
server_pid=""
train_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  [ -n "$train_pid" ] && kill -9 "$train_pid" 2>/dev/null || true
  rm -rf "$smoke_dir"
}
trap cleanup EXIT

# Two 3-vector clusters on the x axis; vertex 5 is unlabeled.
printf '6 2\n0 1.0 0.0\n1 1.0 0.1\n2 0.9 -0.1\n3 -1.0 0.0\n4 -1.0 0.1\n5 -0.9 -0.1\n' \
  > "$smoke_dir/emb.txt"
printf '0 0\n1 0\n2 0\n3 1\n4 1\n' > "$smoke_dir/labels.txt"

V2V_ACCESS_LOG="$smoke_dir/access.jsonl" \
V2V_FLIGHT_DUMP="$smoke_dir/flight.json" \
./target/release/v2v serve \
  --embedding "$smoke_dir/emb.txt" \
  --labels "$smoke_dir/labels.txt" \
  --port 0 > "$smoke_dir/server.log" 2> "$smoke_dir/server.err" &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^listening on //p' "$smoke_dir/server.log")
  [ -n "$addr" ] && break
  kill -0 "$server_pid" 2>/dev/null || { cat "$smoke_dir/server.err" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "server never reported its address" >&2; exit 1; }

curl -sf "http://$addr/healthz" | grep -q '"status": "ok"'
curl -sf "http://$addr/healthz" | grep -q '"vectors": 6'
curl -sf "http://$addr/neighbors?v=0&k=2" | grep -q '"neighbors": \[{"vertex": '
curl -sf "http://$addr/similarity?a=0&b=1" | grep -q '"cosine": '
curl -sf "http://$addr/predict?v=5&k=3" | grep -q '"label": 1'
curl -sf "http://$addr/metricz" | grep -q '"serve.requests"'
# Malformed input is a JSON 400, not a dropped connection.
curl -s "http://$addr/neighbors?v=banana" | grep -q '"error"'
# /healthz reports whether the index came up degraded (it must not here).
curl -sf "http://$addr/healthz" | grep -q '"degraded": false'
# Unknown paths are 404s that make no per-route instrument.
for i in $(seq 1 50); do
  [ "$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/zz$i")" = 404 ] \
    || { echo "GET /zz$i was not a 404" >&2; exit 1; }
done
curl -sf "http://$addr/metricz" > "$smoke_dir/metricz.json"
if grep -q 'serve\.requests\.zz\|serve\.latency\.zz' "$smoke_dir/metricz.json"; then
  echo "unknown paths minted serve.requests.zz* / serve.latency.zz* instruments" >&2
  exit 1
fi

# --- Resilience smoke: a stalled client must not stall anyone else ---------
# Hold a connection open that sends an incomplete request and nothing more
# (a slow-loris in miniature), then prove other requests still answer fast.
host=${addr%:*}; port=${addr##*:}
exec 9<>"/dev/tcp/$host/$port"
printf 'GET /healthz HTTP/1.1\r\n' >&9   # no blank line: request never completes
for _ in 1 2 3; do
  curl -sf --max-time 5 "http://$addr/healthz" | grep -q '"status": "ok"'
done
exec 9>&- 9<&- || true
echo "stalled-client smoke test: ok"

# --- Hot reload smoke: swap the embedding file, POST /reload ---------------
printf '7 2\n0 1.0 0.0\n1 1.0 0.1\n2 0.9 -0.1\n3 -1.0 0.0\n4 -1.0 0.1\n5 -0.9 -0.1\n6 0.0 1.0\n' \
  > "$smoke_dir/emb.txt.new"
mv "$smoke_dir/emb.txt.new" "$smoke_dir/emb.txt"   # atomic, as the server expects
printf '0 0\n1 0\n2 0\n3 1\n4 1\n' > "$smoke_dir/labels.txt"
curl -sf -X POST "http://$addr/reload" | grep -q '"reloaded": true'
curl -sf "http://$addr/healthz" | grep -q '"vectors": 7'
echo "reload smoke test: ok"

# --- Observability smoke: tracing, prometheus, access log, SIGUSR1 ---------
# Every response carries X-Request-Id; a supplied ID is echoed and shows up
# in /tracez and the access log.
curl -sfD "$smoke_dir/headers.txt" -H 'X-Request-Id: smoke-trace-42' \
  "http://$addr/healthz" > /dev/null
grep -qi '^X-Request-Id: smoke-trace-42' "$smoke_dir/headers.txt" \
  || { echo "supplied request ID not echoed" >&2; exit 1; }
curl -sfD "$smoke_dir/headers2.txt" "http://$addr/healthz" > /dev/null
grep -qi '^X-Request-Id: ' "$smoke_dir/headers2.txt" \
  || { echo "no generated request ID on response" >&2; exit 1; }
curl -sf "http://$addr/tracez" | grep -q 'smoke-trace-42' \
  || { echo "request ID missing from /tracez" >&2; exit 1; }
grep -q 'smoke-trace-42' "$smoke_dir/access.jsonl" \
  || { echo "request ID missing from access log" >&2; exit 1; }

# Prometheus exposition: typed counter families, cumulative buckets, and
# live window quantiles must all be present.
curl -sf "http://$addr/metricz?format=prometheus" > "$smoke_dir/prom.txt"
grep -q '^# TYPE v2v_serve_requests_total counter$' "$smoke_dir/prom.txt"
grep -q 'v2v_serve_latency_ms_bucket{le="+Inf"}' "$smoke_dir/prom.txt"
grep -q '^v2v_serve_latency_healthz_p99 ' "$smoke_dir/prom.txt"
echo "tracing + prometheus smoke test: ok"

# SIGUSR1 dumps the flight recorder to V2V_FLIGHT_DUMP.
kill -USR1 "$server_pid"
for _ in $(seq 1 100); do
  [ -s "$smoke_dir/flight.json" ] && break
  sleep 0.1
done
grep -q 'smoke-trace-42' "$smoke_dir/flight.json" \
  || { echo "SIGUSR1 flight dump missing or incomplete" >&2; exit 1; }
echo "flight-recorder smoke test: ok"

# SIGINT must drain and exit within 2 s. The accept loop is blocked in
# accept(2); the server's shutdown waker notices the signal and wakes it, so
# a broken waker shows up here as a hang.
kill -INT "$server_pid"
for _ in $(seq 1 40); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "$server_pid" 2>/dev/null; then
  echo "server still running 2 s after SIGINT" >&2
  exit 1
fi
wait "$server_pid"   # non-zero (set -e) if shutdown was not clean
server_pid=""
echo "serve smoke test: ok"

# --- Crash-safety smoke: SIGKILL mid-training, then --resume ---------------
# A real kill -9 (no handlers, no destructors) must leave a durable
# checkpoint that a --resume run finishes from.
seq 0 199 | awk '{ print $1, ($1 + 1) % 200; print $1, ($1 * 37 + 11) % 200 }' \
  > "$smoke_dir/edges.txt"
# A flag the option table does not declare is refused before any work: the
# `--thread 1` typo used to train on every core and exit 0.
if ./target/release/v2v embed --input "$smoke_dir/edges.txt" --output "$smoke_dir/typo.txt" \
    --thread 1 2> /dev/null || [ -e "$smoke_dir/typo.txt" ]; then
  echo "v2v embed accepted the undeclared flag --thread" >&2
  exit 1
fi
embed_args=(embed --input "$smoke_dir/edges.txt" --output "$smoke_dir/emb-ck.txt"
            --dims 24 --walks 8 --length 60 --epochs 8 --threads 1 --seed 7
            --checkpoint-dir "$smoke_dir/ckpt")
./target/release/v2v "${embed_args[@]}" > /dev/null 2>&1 &
train_pid=$!
for _ in $(seq 1 200); do
  [ -f "$smoke_dir/ckpt/train.v2vc" ] && break
  kill -0 "$train_pid" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$train_pid" 2>/dev/null || true
wait "$train_pid" 2>/dev/null || true
train_pid=""
[ -f "$smoke_dir/ckpt/train.v2vc" ] || { echo "no checkpoint survived the kill" >&2; exit 1; }
./target/release/v2v "${embed_args[@]}" --resume 2> "$smoke_dir/resume.err"
grep -q 'resumed from checkpoint at epoch' "$smoke_dir/resume.err" \
  || { echo "resume did not pick up the checkpoint" >&2; cat "$smoke_dir/resume.err" >&2; exit 1; }
[ -s "$smoke_dir/emb-ck.txt" ] || { echo "resumed run produced no embedding" >&2; exit 1; }
echo "kill-and-resume smoke test: ok"

# --- Profiler smoke: `v2v profile` parses what `embed --profile` wrote ------
# High sampling rate so even this short run collects a real histogram.
V2V_PROFILE_HZ=2000 ./target/release/v2v embed \
  --input "$smoke_dir/edges.txt" --output "$smoke_dir/emb-prof.txt" \
  --dims 24 --walks 8 --length 60 --epochs 4 --threads 2 --seed 7 \
  --profile "$smoke_dir/prof.json" > /dev/null 2>&1
./target/release/v2v profile --input "$smoke_dir/prof.json" > "$smoke_dir/prof.txt"
grep -q 'gradient' "$smoke_dir/prof.txt" \
  || { echo "profile table missing the gradient phase" >&2; cat "$smoke_dir/prof.txt" >&2; exit 1; }
grep -q 'total' "$smoke_dir/prof.txt" \
  || { echo "profile table missing the total row" >&2; exit 1; }
# The JSON renderer's output must itself be a parseable profile.
./target/release/v2v profile --input "$smoke_dir/prof.json" --format json \
  > "$smoke_dir/prof2.json"
./target/release/v2v profile --input "$smoke_dir/prof2.json" > /dev/null
echo "profiler smoke test: ok"

# --- Out-of-core store smoke: shards -> .v2s -> snapshot serve --------------
# The full million-vertex pipeline in miniature: stream walks to disk
# shards, train from them out of core (asserting loss equality with the
# in-RAM path), persist the HNSW snapshot into the store, then serve from
# the mmap twice — the restart must come up from the snapshot in under a
# second (the acceptance bound is 250 ms; 1 s absorbs CI noise).
./target/release/v2v walks --input "$smoke_dir/edges.txt" --output "$smoke_dir/walks"   --walks 6 --length 50 --seed 11 --shard-mb 1 2> /dev/null
./target/release/v2v embed --corpus "$smoke_dir/walks" --output "$smoke_dir/emb.v2s"   --dims 24 --epochs 3 --threads 1 --seed 11 2> "$smoke_dir/shard-train.err"
./target/release/v2v embed --input "$smoke_dir/edges.txt" --output "$smoke_dir/emb-ram.txt"   --dims 24 --epochs 3 --threads 1 --seed 11 --walks 6 --length 50 2> "$smoke_dir/ram-train.err"
loss_disk=$(grep -o 'final loss [0-9.]*' "$smoke_dir/shard-train.err" | head -1)
loss_ram=$(grep -o 'final loss [0-9.]*' "$smoke_dir/ram-train.err" | head -1)
[ -n "$loss_disk" ] && [ "$loss_disk" = "$loss_ram" ]   || { echo "out-of-core loss ($loss_disk) != in-RAM loss ($loss_ram)" >&2; exit 1; }
./target/release/v2v index --store "$smoke_dir/emb.v2s" 2> /dev/null

serve_from_store() {
  : > "$smoke_dir/store-server.log"
  ./target/release/v2v serve --embedding "$smoke_dir/emb.v2s" --port 0     > "$smoke_dir/store-server.log" 2> "$smoke_dir/store-server.err" &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/store-server.log")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$smoke_dir/store-server.err" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "store server never reported its address" >&2; exit 1; }
}

serve_from_store
curl -sf "http://$addr/healthz" | grep -q '"index_source": "snapshot"'   || { echo "server did not boot from the persisted snapshot" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep -q '"backing": "mmap"'   || { echo "server did not mmap the store" >&2; exit 1; }
curl -sf "http://$addr/neighbors?v=0&k=3" | grep -q '"neighbors": \[{"vertex": '
kill -INT "$server_pid"; wait "$server_pid"; server_pid=""

# Kill + restart: the second boot is the cold start that matters.
serve_from_store
cold_ms=$(curl -sf "http://$addr/metricz"   | sed -n 's/.*"serve.cold_start_ms": \([0-9.]*\).*/\1/p' | head -1)
kill -INT "$server_pid"; wait "$server_pid"; server_pid=""
[ -n "$cold_ms" ] || { echo "no serve.cold_start_ms gauge on /metricz" >&2; exit 1; }
awk -v ms="$cold_ms" 'BEGIN {
  printf "store restart cold start: %.1f ms\n", ms
  exit !(ms < 1000)
}' || { echo "snapshot cold start took ${cold_ms} ms (>= 1 s)" >&2; exit 1; }
echo "out-of-core store smoke test: ok"

# --- Thread-count smoke: no output depends on the core count ----------------
# `v2v index` spreads both build phases over available_parallelism() threads,
# and `project` (covariance) and `communities` (k-means) their hot loops;
# pinned to one core they run on one. Same store in, same bytes out.
# (32 dims: below that the covariance runs on the calling thread anyway.)
seq 0 2399 | awk '{ print $1, ($1 + 1) % 2400; print $1, ($1 * 37 + 11) % 2400 }' \
  > "$smoke_dir/edges-2400.txt"
./target/release/v2v embed --input "$smoke_dir/edges-2400.txt" --output "$smoke_dir/one-core.v2s" \
  --dims 32 --walks 2 --length 20 --epochs 1 --threads 1 --seed 3 2> /dev/null
cp "$smoke_dir/one-core.v2s" "$smoke_dir/all-cores.v2s"
first_cpu=$(taskset -cp $$ | sed 's/.*: //; s/[,-].*//')   # first CPU we may run on
same_on_one_core() {   # <subcommand> [flags]: its --output must not depend on our CPUs
  taskset -c "$first_cpu" ./target/release/v2v "$@" --embedding "$smoke_dir/one-core.v2s" \
    --output "$smoke_dir/$1.one-core" 2> /dev/null
  ./target/release/v2v "$@" --embedding "$smoke_dir/one-core.v2s" \
    --output "$smoke_dir/$1.all-cores" 2> /dev/null
  cmp "$smoke_dir/$1.one-core" "$smoke_dir/$1.all-cores" \
    || { echo "v2v $1 wrote different bytes on one core and on $(nproc)" >&2; exit 1; }
}
same_on_one_core project
same_on_one_core communities --k 4 --restarts 5
taskset -c "$first_cpu" ./target/release/v2v index --store "$smoke_dir/one-core.v2s" 2> /dev/null
./target/release/v2v index --store "$smoke_dir/all-cores.v2s" 2> /dev/null
cmp "$smoke_dir/one-core.v2s" "$smoke_dir/all-cores.v2s" \
  || { echo "v2v index wrote different bytes on one core and on $(nproc)" >&2; exit 1; }
echo "thread-count smoke test (index, project, communities): ok"

# Restart in graph mode: 2 400 vectors is past the exact-scan threshold, so
# the WAL replay relinks the moved rows and inserts the new ones through the
# HNSW graph, on helper threads. Stream ~200 edges, kill -9, restart on the
# same --wal-dir; one core or all, the replayed index must answer alike.
seq 0 197 | awk '{ v = ($1 * 13) % 2400; print v, (v + 1) % 2400 }' > "$smoke_dir/stream-2400.txt"
printf '2400 0\n2401 1\n' >> "$smoke_dir/stream-2400.txt"
serve_graph_wal() {   # <tag> [command prefix...]: serve one-core.v2s on wal-<tag>
  local tag=$1; shift
  "$@" ./target/release/v2v serve --embedding "$smoke_dir/one-core.v2s" \
    --wal-dir "$smoke_dir/wal-$tag" --port 0 \
    > "$smoke_dir/$tag.log" 2> "$smoke_dir/$tag.err" &
  server_pid=$!
  addr=""
  for _ in $(seq 1 300); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/$tag.log")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$smoke_dir/$tag.err" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "graph-mode server ($tag) never reported its address" >&2; exit 1; }
}
replay_graph_mode() {   # <tag> [command prefix...]: stream, kill -9, restart, dump /neighbors
  local tag=$1
  serve_graph_wal "$@"
  ./target/release/v2v ingest --input "$smoke_dir/stream-2400.txt" --addr "$addr" \
    > "$smoke_dir/$tag.ingest" 2> /dev/null
  local acked
  acked=$(sed -n 's/^acked \([0-9]*\) edges.*/\1/p' "$smoke_dir/$tag.ingest")
  [ "$acked" = 200 ] || { echo "graph-mode ingest ($tag) acked '$acked' of 200" >&2; exit 1; }
  kill -9 "$server_pid"
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
  serve_graph_wal "$@"
  curl -sf "http://$addr/healthz" | grep -q "\"ingest.folded_edges\": $acked," \
    || { echo "graph-mode restart ($tag) did not fold all $acked ACKed edges" >&2; exit 1; }
  grep -qE 'replayed 200 WAL records .* in [0-9]+ ms: walks [0-9]+, fine-tune [0-9]+, patch [0-9]+, publish [0-9]+' \
    "$smoke_dir/$tag.err" \
    || { echo "graph-mode restart ($tag) logged no replay phase split" >&2; cat "$smoke_dir/$tag.err" >&2; exit 1; }
  for v in $(seq 0 97 2399) 2400 2401; do
    curl -sf "http://$addr/neighbors?v=$v&k=10"; echo
  done > "$smoke_dir/$tag.neighbors"
  kill -INT "$server_pid"; wait "$server_pid"; server_pid=""
}
replay_graph_mode replay-one-core taskset -c "$first_cpu"
replay_graph_mode replay-all-cores
cmp "$smoke_dir/replay-one-core.neighbors" "$smoke_dir/replay-all-cores.neighbors" \
  || { echo "a graph-mode WAL replay answered differently on one core and on $(nproc)" >&2; exit 1; }
grep -h 'replayed 200 WAL records' "$smoke_dir/replay-one-core.err" "$smoke_dir/replay-all-cores.err"
echo "graph-mode replay smoke test (one core vs all): ok"

# --- Durable ingest smoke: stream, SIGKILL mid-ingest, restart, recover -----
# The crash-consistency contract in miniature: every edge the server ACKs
# (200 from POST /ingest) must survive a kill -9, because the ACK follows
# the WAL fsync. Restarting against the same --wal-dir replays the log
# before serving, and the recovered state answers queries for the
# streamed-in vertices.
wal_dir="$smoke_dir/wal"
serve_ingest() {
  : > "$smoke_dir/ingest-server.log"
  ./target/release/v2v serve --embedding "$smoke_dir/emb.txt" \
    --wal-dir "$wal_dir" --port 0 \
    > "$smoke_dir/ingest-server.log" 2> "$smoke_dir/ingest-server.err" &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/ingest-server.log")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$smoke_dir/ingest-server.err" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "ingest server never reported its address" >&2; exit 1; }
}

serve_ingest
# Stream 5 edges via the CLI client; 7 is a brand-new vertex (emb.txt has 7
# vectors, ids 0..6, after the reload smoke above).
printf '0 3\n1 4\n2 5\n7 0\n7 1\n' > "$smoke_dir/stream.txt"
./target/release/v2v ingest --input "$smoke_dir/stream.txt" --addr "$addr" \
  > "$smoke_dir/ingest.out" 2> /dev/null
grep -q 'acked 5 edges' "$smoke_dir/ingest.out" \
  || { echo "ingest client did not ack the stream" >&2; cat "$smoke_dir/ingest.out" >&2; exit 1; }
for _ in $(seq 1 100); do
  curl -sf "http://$addr/healthz" | grep -q '"ingest.last_applied_seq": 5' && break
  sleep 0.1
done
curl -sf "http://$addr/healthz" | grep -q '"ingest.last_applied_seq": 5' \
  || { echo "refresh worker never applied the stream" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep -q '"vectors": 8' \
  || { echo "streamed-in vertex 7 did not grow the served set" >&2; exit 1; }
curl -sf "http://$addr/neighbors?v=7&k=3" | grep -q '"neighbors": \[{"vertex": ' \
  || { echo "new vertex 7 is not queryable after ingest" >&2; exit 1; }

# ACK one more batch, then kill -9 before the refresh can possibly matter:
# the ACKed edge must still be there after restart.
curl -sf -X POST --data '{"edges": [[6, 7]]}' "http://$addr/ingest" \
  | grep -q '"durable": true' || { echo "ingest ACK missing durable flag" >&2; exit 1; }
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

serve_ingest   # same --wal-dir: the whole log must replay before serving
curl -sf "http://$addr/healthz" | grep -q '"ingest.wal_replayed": 6' \
  || { echo "restart did not replay all 6 WAL records" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep -q '"ingest.last_applied_seq": 6' \
  || { echo "replayed edges were not applied before serving" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep -q '"vectors": 8' \
  || { echo "recovered state lost the streamed-in vertex" >&2; exit 1; }
curl -sf "http://$addr/neighbors?v=7&k=3" | grep -q '"neighbors": \[{"vertex": ' \
  || { echo "recovered state cannot answer for vertex 7" >&2; exit 1; }
ingest_cold_ms=$(curl -sf "http://$addr/metricz" \
  | sed -n 's/.*"serve.cold_start_ms": \([0-9.]*\).*/\1/p' | head -1)
kill -INT "$server_pid"; wait "$server_pid"; server_pid=""
[ -n "$ingest_cold_ms" ] || { echo "no cold-start gauge on the ingest restart" >&2; exit 1; }
awk -v ms="$ingest_cold_ms" 'BEGIN {
  printf "ingest restart (WAL replay included) cold start: %.1f ms\n", ms
  exit !(ms < 1000)
}' || { echo "ingest recovery cold start took ${ingest_cold_ms} ms (>= 1 s)" >&2; exit 1; }
echo "durable ingest smoke test: ok"

# --- Quality sentinel smoke: /qualityz, quality gauges, churn after swap ----
# The sentinel is on by default; a fast probe interval makes its signals
# observable within the smoke budget. The initial probe is synchronous, so
# /qualityz and the recall gauge answer from the first request; the
# per-swap churn gauge must appear once streamed edges hot-swap the state.
wal_q="$smoke_dir/wal-q"
./target/release/v2v serve --embedding "$smoke_dir/emb.txt" \
  --wal-dir "$wal_q" --quality-probe-ms 100 --port 0 \
  > "$smoke_dir/quality-server.log" 2> "$smoke_dir/quality-server.err" &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^listening on //p' "$smoke_dir/quality-server.log")
  [ -n "$addr" ] && break
  kill -0 "$server_pid" 2>/dev/null || { cat "$smoke_dir/quality-server.err" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "quality server never reported its address" >&2; exit 1; }

curl -sf "http://$addr/qualityz" | grep -q '"recall_at_10": ' \
  || { echo "/qualityz missing recall_at_10" >&2; exit 1; }
curl -sf "http://$addr/qualityz" | grep -q '"retrain_advised": false' \
  || { echo "/qualityz advised retrain on a fresh index" >&2; exit 1; }
curl -sf "http://$addr/metricz" | grep -q '"quality.recall_at_10": ' \
  || { echo "no quality.recall_at_10 gauge on /metricz" >&2; exit 1; }
curl -sf "http://$addr/metricz" | grep -q '"quality.retrain_advised": 0.0' \
  || { echo "quality.retrain_advised not initialized to 0" >&2; exit 1; }
# The build-info gauge identifies the binary on every Prometheus scrape.
# Scrape into a file and allow a couple of retries: under pipefail a
# transient curl hiccup on this loaded box would otherwise fail the gate
# even when the exposition is fine.
build_info_ok=""
for _ in 1 2 3; do
  if curl -sf "http://$addr/metricz?format=prometheus" > "$smoke_dir/prom.txt" \
    && grep -q '^v2v_build_info_version_' "$smoke_dir/prom.txt"; then
    build_info_ok=1
    break
  fi
  sleep 0.2
done
[ -n "$build_info_ok" ] \
  || { echo "no build_info gauge in the Prometheus exposition" >&2; exit 1; }
# A fresh WAL is one open segment of just its 16-byte header.
curl -sf "http://$addr/healthz" | grep -q '"ingest.wal.segments": 1' \
  || { echo "no ingest.wal.segments on /healthz" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep -q '"ingest.wal.bytes": 16' \
  || { echo "no ingest.wal.bytes on /healthz" >&2; exit 1; }

# Stream edges between existing vertices; the refresh worker hot-swaps the
# state and the sentinel's next probe publishes the per-swap churn gauge.
printf '0 4\n1 5\n2 6\n' > "$smoke_dir/stream-q.txt"
./target/release/v2v ingest --input "$smoke_dir/stream-q.txt" --addr "$addr" > /dev/null 2>&1
churn_seen=""
for _ in $(seq 1 100); do
  if curl -sf "http://$addr/metricz" | grep -q '"quality.neighbor_churn": '; then
    churn_seen=1; break
  fi
  sleep 0.1
done
[ -n "$churn_seen" ] \
  || { echo "quality.neighbor_churn never appeared after the refresh swap" >&2; exit 1; }
curl -sf "http://$addr/qualityz" | grep -vq '"swaps_observed": 0,' \
  || { echo "/qualityz never observed the refresh swap" >&2; exit 1; }
kill -INT "$server_pid"; wait "$server_pid"; server_pid=""
echo "quality sentinel smoke test: ok"

# --- Serving fast-path smoke: pipelining, /batch ----------------------------
serve_fast() {
  : > "$smoke_dir/fast-server.log"
  ./target/release/v2v serve "$@" --port 0 \
    > "$smoke_dir/fast-server.log" 2> "$smoke_dir/fast-server.err" &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/fast-server.log")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$smoke_dir/fast-server.err" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "fast-path server never reported its address" >&2; exit 1; }
}

serve_fast --embedding "$smoke_dir/emb.txt"
host=${addr%:*}; port=${addr##*:}

# Pipelining: three requests written back-to-back on one connection must
# all answer, in request order, each byte-identical to the same request
# on a fresh connection.
for v in 0 1 2; do
  curl -sf "http://$addr/neighbors?v=$v&k=3" > "$smoke_dir/fresh-$v.json"
done
exec 9<>"/dev/tcp/$host/$port"
printf 'GET /neighbors?v=0&k=3 HTTP/1.1\r\n\r\nGET /neighbors?v=1&k=3 HTTP/1.1\r\n\r\nGET /neighbors?v=2&k=3 HTTP/1.1\r\nConnection: close\r\n\r\n' >&9
cat <&9 > "$smoke_dir/pipelined.raw"
exec 9>&- 9<&- || true
[ "$(grep -ao 'HTTP/1.1 200' "$smoke_dir/pipelined.raw" | wc -l)" = 3 ] \
  || { echo "pipelined connection dropped responses" >&2; exit 1; }
for v in 0 1 2; do
  grep -aqF "$(cat "$smoke_dir/fresh-$v.json")" "$smoke_dir/pipelined.raw" \
    || { echo "pipelined response for v=$v is not byte-identical to a fresh connection" >&2; exit 1; }
done
[ "$(grep -ao '"vertex": [0-9]*, "k"' "$smoke_dir/pipelined.raw" | tr -dc '012')" = "012" ] \
  || { echo "pipelined responses came back out of order" >&2; exit 1; }
conn_reused=$(curl -sf "http://$addr/metricz" \
  | sed -n 's/.*"serve.conn.reused": \([0-9]*\).*/\1/p' | head -1)
[ -n "$conn_reused" ] && [ "$conn_reused" -ge 2 ] \
  || { echo "serve.conn.reused did not count the kept-alive requests" >&2; exit 1; }

# /batch: each embedded result must be byte-identical to the single
# endpoint's response for the same query.
n0=$(curl -sf "http://$addr/neighbors?v=0&k=3")
s01=$(curl -sf "http://$addr/similarity?a=0&b=1")
batch=$(curl -sf -X POST \
  --data '{"queries": [{"op": "neighbors", "v": 0, "k": 3}, {"op": "similarity", "a": 0, "b": 1}]}' \
  "http://$addr/batch")
printf '%s' "$batch" | grep -q '"count": 2' \
  || { echo "/batch did not answer both queries" >&2; exit 1; }
printf '%s' "$batch" | grep -qF "$n0" \
  || { echo "/batch neighbors result differs from /neighbors" >&2; exit 1; }
printf '%s' "$batch" | grep -qF "$s01" \
  || { echo "/batch similarity result differs from /similarity" >&2; exit 1; }
kill -INT "$server_pid"; wait "$server_pid"; server_pid=""
echo "pipelining + batch smoke test: ok"

# --- Drift smoke: the offline differ on real training artifacts -------------
# Identity: an embedding diffed against itself is exactly zero drift.
./target/release/v2v drift --a "$smoke_dir/emb-ck.txt" --b "$smoke_dir/emb-ck.txt" \
  --format json > "$smoke_dir/drift-same.json"
grep -q '"neighbor_churn": 0.0' "$smoke_dir/drift-same.json" \
  || { echo "self-drift reported nonzero churn" >&2; cat "$smoke_dir/drift-same.json" >&2; exit 1; }
grep -q '"retrain_advised": false' "$smoke_dir/drift-same.json"

# Interrupted-vs-uninterrupted: the kill -9 + --resume embedding from the
# crash smoke must be bit-identical to a never-interrupted run (the
# single-thread determinism contract), so drift is exactly zero.
./target/release/v2v embed --input "$smoke_dir/edges.txt" \
  --output "$smoke_dir/emb-uninterrupted.txt" \
  --dims 24 --walks 8 --length 60 --epochs 8 --threads 1 --seed 7 > /dev/null 2>&1
./target/release/v2v drift --a "$smoke_dir/emb-ck.txt" --b "$smoke_dir/emb-uninterrupted.txt" \
  --format json > "$smoke_dir/drift-resume.json"
grep -q '"neighbor_churn": 0.0' "$smoke_dir/drift-resume.json" \
  || { echo "interrupted vs uninterrupted run drifted" >&2; cat "$smoke_dir/drift-resume.json" >&2; exit 1; }
grep -q '"max_row_shift": 0.0' "$smoke_dir/drift-resume.json" \
  || { echo "interrupted vs uninterrupted rows differ" >&2; exit 1; }

# A genuinely different embedding (another seed) must trip the advisory
# under a tight churn threshold.
./target/release/v2v embed --input "$smoke_dir/edges.txt" \
  --output "$smoke_dir/emb-perturbed.txt" \
  --dims 24 --walks 8 --length 60 --epochs 8 --threads 1 --seed 8 > /dev/null 2>&1
./target/release/v2v drift --a "$smoke_dir/emb-uninterrupted.txt" --b "$smoke_dir/emb-perturbed.txt" \
  --quality-churn-threshold 0.05 --format json > "$smoke_dir/drift-pert.json"
grep -q '"retrain_advised": true' "$smoke_dir/drift-pert.json" \
  || { echo "perturbed store did not trip retrain_advised" >&2; cat "$smoke_dir/drift-pert.json" >&2; exit 1; }
echo "drift smoke test: ok"

# --- Benchmark correctness checks -------------------------------------------
# All four benchmark workloads end to end at --quick length: recall@10,
# purity, list-against-store and WAL-count checks; run.sh exits non-zero
# when one fails. Checks only — the timings it prints gate nothing here.
benchmark/run.sh --quick > "$smoke_dir/benchmark.out" \
  || { echo "benchmark/run.sh --quick failed a check" >&2; tail -5 "$smoke_dir/benchmark.out" >&2; exit 1; }
echo "benchmark checks: ok"
