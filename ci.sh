#!/bin/sh
# Local CI: everything a change must pass before it ships.
# TENWAYS_FAST=1 keeps the workload-driving tests at smoke scale.
set -eux

export TENWAYS_FAST=1

# Lines of non-test Rust code, per crate: information for judging a
# change's size, not a gate.
sh scripts/loc.sh

cargo build --release --workspace
cargo test -q --workspace
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: broken, private or ambiguous intra-doc links fail CI.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Overflow regressions: the stats layer must saturate, not wrap — run the
# workspace tests once in release with debug assertions (which turn silent
# wrap-around into panics). The same assertions check every StatSet bump
# these tests make that hits the slot cache against the ordered name
# index. Separate target dir so the release artifacts above survive for
# the sweep smoke test.
RUSTFLAGS="-C debug-assertions=on" CARGO_TARGET_DIR=target/ci-overflow \
    cargo test -q --release --workspace

# The benchmark package (benchmark/) is a workspace of its own that builds
# this repository's crates by path, so the workspace steps above never
# compile it. Build and test it here, so a change to an API it uses fails
# CI rather than only the benchmark run.
CARGO_TARGET_DIR=target/benchmark \
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Sweep smoke test: a 4-point grid with one injected failing point
# (threads = 0 fails at experiment start). The sweep must exit non-zero
# *after* completing the other three rows — fail-soft, no lost results.
SMOKE_DIR=target/sweep-smoke
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
cat > "$SMOKE_DIR/grid.toml" <<'EOF'
workload = "lu"
scale = 1

[sweep]
id = "ci-smoke"

[grid]
threads = [2, 3, 4, 0]
EOF
if ./target/release/tenways sweep --config "$SMOKE_DIR/grid.toml" \
    --out "$SMOKE_DIR" --quiet; then
    echo "sweep smoke test: expected a non-zero exit for the failing point" >&2
    exit 1
fi
test "$(grep -c '"status": "ok"' "$SMOKE_DIR/ci-smoke.json")" = 3
test "$(grep -c '"status": "failed"' "$SMOKE_DIR/ci-smoke.json")" = 1
# Completed sweep rows must carry host-side timing.
test "$(grep -c '"sim_ms":' "$SMOKE_DIR/ci-smoke.json")" = 3
test "$(grep -c '"sim_cycles_per_sec":' "$SMOKE_DIR/ci-smoke.json")" = 3
# Rerun into the same --out: the sweep resumes through its result cache
# (<out>/cache). The three ok rows are cache hits, the failing point runs
# and fails again, and the output directory holds nothing but the grid,
# the document and the cache.
if ./target/release/tenways sweep --config "$SMOKE_DIR/grid.toml" \
    --out "$SMOKE_DIR" --quiet; then
    echo "sweep rerun smoke: expected a non-zero exit for the failing point" >&2
    exit 1
fi
test "$(grep -c '"cache": "hit"' "$SMOKE_DIR/ci-smoke.json")" = 3
test "$(grep -c '"status": "failed"' "$SMOKE_DIR/ci-smoke.json")" = 1
test "$(ls "$SMOKE_DIR" | tr '\n' ' ')" = "cache ci-smoke.json grid.toml "

# Throughput bench smoke run: times naive stepping and the component-wake
# scheduler on every configuration (including the mixed 1-busy/15-idle
# machine), plus the epoch-parallel scheduler at 2/4/8 shard workers on
# the 256-core big-mesh config, and
# exits non-zero if any run record diverges or if parallel-epoch at 4
# workers is slower than component-wake on a host with the hardware
# threads to run the shards concurrently — the whole-binary scheduler
# regression gate. (The sequential-vs-parallel equivalence suite proper —
# crates/waste/tests/sched_equivalence.rs and the litmus conformance test
# — runs with the workspace tests above.) Run from a scratch dir so the
# committed full-scale BENCH_sim_throughput.json (and results/) are not
# overwritten with smoke-scale numbers.
BENCH_DIR=target/ci-results
rm -rf "$BENCH_DIR"
mkdir -p "$BENCH_DIR"
(cd "$BENCH_DIR" && TENWAYS_RESULTS_DIR=. "$OLDPWD/target/release/sim_throughput")
test -f "$BENCH_DIR/BENCH_sim_throughput.json"
# Every scheduler mode must appear, and the mixed active/idle machine —
# the wake scheduler's headline configuration — must be in the rows.
grep -q '"mode": "naive"' "$BENCH_DIR/BENCH_sim_throughput.json"
grep -q '"mode": "component_wake"' "$BENCH_DIR/BENCH_sim_throughput.json"
grep -q '"label": "mixed/1busy15idle/remote4000"' "$BENCH_DIR/BENCH_sim_throughput.json"
# Epoch-parallel rows must be present at >= 2 worker counts on the
# big-mesh config, and the 4-worker speedup gate must have passed (the
# binary computes it host-aware; a false value here is a perf regression
# on a capable host and fails CI).
grep -q '"mode": "parallel-epoch"' "$BENCH_DIR/BENCH_sim_throughput.json"
grep -q '"workers": 2' "$BENCH_DIR/BENCH_sim_throughput.json"
grep -q '"workers": 4' "$BENCH_DIR/BENCH_sim_throughput.json"
grep -q '"label": "ocean/tso/256c/mesh"' "$BENCH_DIR/BENCH_sim_throughput.json"
grep -q '"gate_speedup_ok": true' "$BENCH_DIR/BENCH_sim_throughput.json"
! grep -q '"gate_speedup_ok": false' "$BENCH_DIR/BENCH_sim_throughput.json"
# Every row records the host's thread count next to its timings.
test "$(grep -c '"host_threads":' "$BENCH_DIR/BENCH_sim_throughput.json")" = \
    "$(grep -c '"label":' "$BENCH_DIR/BENCH_sim_throughput.json")"

# Lock-ablation figure gate: fig12 sweeps every LockKind (ttas, ticket,
# mcs, clh) across the model/thread grid under the Schweizer-calibrated
# atomics config, and each job checks mutual exclusion on the protected
# counter — a broken lock exits non-zero. The bench_rows.v1 output must
# contain a row per lock algorithm with the waste split attached.
(cd "$BENCH_DIR" && TENWAYS_RESULTS_DIR=. "$OLDPWD/target/release/fig12_lock_ablation")
for lock in ttas ticket mcs clh; do
    grep -q "\"label\": \"RMO/8t/$lock\"" "$BENCH_DIR/fig12_lock_ablation.json"
done
grep -q '"fence_frac"' "$BENCH_DIR/fig12_lock_ablation.json"

# Atomics-priced sweep smoke test: a tiny grid over a queue-lock workload
# with the `[atomics]` section set to the Schweizer calibration. Both rows
# must complete, and the run records must carry the atomics provenance
# (rmw_cross_socket = 90 is the calibration's far-atomic cost).
ATOMICS_DIR=target/atomics-smoke
rm -rf "$ATOMICS_DIR"
mkdir -p "$ATOMICS_DIR"
cat > "$ATOMICS_DIR/grid.toml" <<'EOF'
workload = "mcs"
scale = 1
model = "rmo"
atomics = "schweizer"

[sweep]
id = "ci-atomics"

[grid]
threads = [2, 4]
EOF
./target/release/tenways sweep --config "$ATOMICS_DIR/grid.toml" \
    --out "$ATOMICS_DIR" --quiet
test "$(grep -c '"status": "ok"' "$ATOMICS_DIR/ci-atomics.json")" = 2
grep -q '"rmw_cross_socket": 90' "$ATOMICS_DIR/ci-atomics.json"

# Litmus conformance gate: the full corpus across every consistency model
# and speculation mode must come back clean — exit is non-zero on any
# observed forbidden state or any speculation-on vs speculation-off
# observable-state divergence. 16 points keeps this at smoke scale; the
# staggered-start probe points that anchor the state sets are always in
# the grid.
LITMUS_DIR=target/ci-litmus
rm -rf "$LITMUS_DIR"
mkdir -p "$LITMUS_DIR"
./target/release/tenways litmus --corpus --points 16 --out "$LITMUS_DIR" --quiet
test "$(grep -c '"status": "ok"' "$LITMUS_DIR/litmus.json")" = 36
test "$(grep -c '"status": "failed"' "$LITMUS_DIR/litmus.json")" = 0
# The report must carry replayable repro context and the transparency
# fields even on a clean run.
grep -q '"schema_version": 1' "$LITMUS_DIR/litmus.json"
grep -q '"spec_divergences": \[\]' "$LITMUS_DIR/litmus.json"
grep -q '"forbidden_violations": \[\]' "$LITMUS_DIR/litmus.json"

# Serve smoke gate: start the service on an ephemeral loopback port
# (--max-requests 3 makes it exit on its own), POST the same config
# twice, and read the counters. The first response must be a miss
# (cached: false), the second a hit (cached: true) — served from the
# content-addressed cache without re-simulating — and /stats must read
# exactly 1 hit, 1 miss, 1 simulation. The serve client is built into
# the binary, so the gate needs no external HTTP tooling.
SERVE_DIR=target/serve-smoke
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
cat > "$SERVE_DIR/job.toml" <<'EOF'
workload = "lu"
threads = 2
scale = 1
EOF
./target/release/tenways serve --addr 127.0.0.1:0 \
    --port-file "$SERVE_DIR/port" --cache-dir "$SERVE_DIR/cache" \
    --max-requests 3 &
SERVE_PID=$!
for _ in $(seq 1 50); do
    test -f "$SERVE_DIR/port" && break
    sleep 0.1
done
SERVE_ADDR=$(cat "$SERVE_DIR/port")
./target/release/tenways serve --addr "$SERVE_ADDR" \
    --post "$SERVE_DIR/job.toml" > "$SERVE_DIR/first.json"
grep -q '"cached": false' "$SERVE_DIR/first.json"
./target/release/tenways serve --addr "$SERVE_ADDR" \
    --post "$SERVE_DIR/job.toml" > "$SERVE_DIR/second.json"
grep -q '"cached": true' "$SERVE_DIR/second.json"
./target/release/tenways serve --addr "$SERVE_ADDR" --stats \
    > "$SERVE_DIR/stats.json"
grep -q '"hits": 1' "$SERVE_DIR/stats.json"
grep -q '"misses": 1' "$SERVE_DIR/stats.json"
grep -q '"sim_runs": 1' "$SERVE_DIR/stats.json"
# The stats document must expose the queue gauge (no miss waits for a
# worker once both answers are in) and the disk-tier cache counters (the
# one simulated record is on disk).
grep -q '"queue_depth": 0' "$SERVE_DIR/stats.json"
grep -q '"disk_entries": 1' "$SERVE_DIR/stats.json"
grep -q '"evicted": 0' "$SERVE_DIR/stats.json"
wait "$SERVE_PID"
# Both answers carry the same key and the same record bytes.
test "$(grep '"key"' "$SERVE_DIR/first.json")" = "$(grep '"key"' "$SERVE_DIR/second.json")"

# Batch dedup smoke: POST /batch with four byte-identical configs must
# canonicalize them to one key and cost exactly one simulation —
# /stats reads sim_runs 1, the report reads unique 1 / deduplicated 3.
BATCH_DIR=target/serve-batch-smoke
rm -rf "$BATCH_DIR"
mkdir -p "$BATCH_DIR"
cat > "$BATCH_DIR/batch.json" <<'EOF'
[
  {"workload": "lu", "threads": 2, "scale": 1},
  {"workload": "lu", "threads": 2, "scale": 1},
  {"workload": "lu", "threads": 2, "scale": 1},
  {"workload": "lu", "threads": 2, "scale": 1}
]
EOF
./target/release/tenways serve --addr 127.0.0.1:0 \
    --port-file "$BATCH_DIR/port" --cache-dir "$BATCH_DIR/cache" \
    --max-requests 2 &
SERVE_PID=$!
for _ in $(seq 1 50); do
    test -f "$BATCH_DIR/port" && break
    sleep 0.1
done
SERVE_ADDR=$(cat "$BATCH_DIR/port")
./target/release/tenways serve --addr "$SERVE_ADDR" \
    --batch "$BATCH_DIR/batch.json" > "$BATCH_DIR/batch_out.json"
grep -q '"total": 4' "$BATCH_DIR/batch_out.json"
grep -q '"unique": 1' "$BATCH_DIR/batch_out.json"
grep -q '"deduplicated": 3' "$BATCH_DIR/batch_out.json"
# Status counts are per submitted item: all four answer `computed`, but
# the dedup means they cost one simulation (asserted via /stats below).
grep -q '"computed": 4' "$BATCH_DIR/batch_out.json"
# A batch waits for every key: no item is left unfinished or refused, so
# the reply has no "queued" or "rejected" status or count.
test "$(grep -c '"queued"' "$BATCH_DIR/batch_out.json")" = 0
test "$(grep -c '"rejected"' "$BATCH_DIR/batch_out.json")" = 0
./target/release/tenways serve --addr "$SERVE_ADDR" --stats \
    > "$BATCH_DIR/stats.json"
grep -q '"sim_runs": 1' "$BATCH_DIR/stats.json"
wait "$SERVE_PID"

# Router smoke gate: two ephemeral-port backends behind a `tenways route`
# front. The same config POSTed through the router twice must answer a
# miss then a hit, and the cluster /stats must show exactly one backend
# simulated (the rendezvous owner) — content-addressed dedup holds
# cluster-wide. Then kill a backend: the next POST must still answer 200
# (a connect failure marks the backend down and the forward re-resolves
# to the survivor), and the next /stats census, which asks every backend
# not sitting out a wait, must read backends_up 1.
ROUTE_DIR=target/route-smoke
rm -rf "$ROUTE_DIR"
mkdir -p "$ROUTE_DIR"
cat > "$ROUTE_DIR/job.toml" <<'EOF'
workload = "lu"
threads = 2
scale = 1
EOF
./target/release/tenways serve --addr 127.0.0.1:0 \
    --port-file "$ROUTE_DIR/b0.port" --cache-dir "$ROUTE_DIR/cache0" \
    --workers 1 &
B0_PID=$!
./target/release/tenways serve --addr 127.0.0.1:0 \
    --port-file "$ROUTE_DIR/b1.port" --cache-dir "$ROUTE_DIR/cache1" \
    --workers 1 &
B1_PID=$!
for _ in $(seq 1 50); do
    test -f "$ROUTE_DIR/b0.port" && test -f "$ROUTE_DIR/b1.port" && break
    sleep 0.1
done
B0_ADDR=$(cat "$ROUTE_DIR/b0.port")
B1_ADDR=$(cat "$ROUTE_DIR/b1.port")
./target/release/tenways route --backend "$B0_ADDR" --backend "$B1_ADDR" \
    --addr 127.0.0.1:0 --port-file "$ROUTE_DIR/router.port" &
ROUTE_PID=$!
for _ in $(seq 1 50); do
    test -f "$ROUTE_DIR/router.port" && break
    sleep 0.1
done
ROUTE_ADDR=$(cat "$ROUTE_DIR/router.port")
./target/release/tenways serve --addr "$ROUTE_ADDR" \
    --post "$ROUTE_DIR/job.toml" > "$ROUTE_DIR/first.json"
grep -q '"cached": false' "$ROUTE_DIR/first.json"
./target/release/tenways serve --addr "$ROUTE_ADDR" \
    --post "$ROUTE_DIR/job.toml" > "$ROUTE_DIR/second.json"
grep -q '"cached": true' "$ROUTE_DIR/second.json"
test "$(grep '"key"' "$ROUTE_DIR/first.json")" = "$(grep '"key"' "$ROUTE_DIR/second.json")"
./target/release/tenways serve --addr "$ROUTE_ADDR" --stats \
    > "$ROUTE_DIR/stats.json"
grep -q '"schema_version": 2' "$ROUTE_DIR/stats.json"
grep -q '"backends_up": 2' "$ROUTE_DIR/stats.json"
# Exactly one backend ran the simulation: one per-backend stats document
# reads sim_runs 0, and the other — plus the cluster sum — reads 1.
test "$(grep -c '"sim_runs": 0' "$ROUTE_DIR/stats.json")" = 1
test "$(grep -c '"sim_runs": 1' "$ROUTE_DIR/stats.json")" = 2
# sweep --server through the router: job.toml's base over threads
# [2, 3, 3]. All three rows come back ok and marked "served"; threads = 2
# is job.toml's key, so it is served cached; the two threads = 3 points
# share one key, so the cluster simulates exactly one more run.
{ cat "$ROUTE_DIR/job.toml"; printf '\n[sweep]\nid = "ci-route"\n\n[grid]\nthreads = [2, 3, 3]\n'; } \
    > "$ROUTE_DIR/grid.toml"
./target/release/tenways sweep --config "$ROUTE_DIR/grid.toml" \
    --server "$ROUTE_ADDR" --out "$ROUTE_DIR" --quiet
test "$(grep -c '"status": "ok"' "$ROUTE_DIR/ci-route.json")" = 3
test "$(grep -c '"served": ' "$ROUTE_DIR/ci-route.json")" = 3
grep -q '"served": "cached"' "$ROUTE_DIR/ci-route.json"
test "$(grep -c '"queued"' "$ROUTE_DIR/ci-route.json")" = 0
test "$(grep -c '"rejected"' "$ROUTE_DIR/ci-route.json")" = 0
./target/release/tenways serve --addr "$ROUTE_ADDR" --stats \
    > "$ROUTE_DIR/stats_sweep.json"
sed -n '/"cluster":/,$p' "$ROUTE_DIR/stats_sweep.json" | grep -q '"sim_runs": 2'
# Hostile-body smoke: bodies nested far past the parsers' depth bound
# (40 KB of JSON arrays, 10 KB of TOML arrays) must each answer 400
# (client exit 1) from the router and from a backend, instead of
# overflowing a connection thread's stack. Afterwards the router still
# sees both backends up.
{ head -c 20000 /dev/zero | tr '\0' '['; head -c 20000 /dev/zero | tr '\0' ']'; } \
    > "$ROUTE_DIR/deep.json"
{ printf 'a = '; head -c 5000 /dev/zero | tr '\0' '['
  head -c 5000 /dev/zero | tr '\0' ']'; echo; } > "$ROUTE_DIR/deep.toml"
for target in "$ROUTE_ADDR" "$B1_ADDR"; do
    for body in deep.json deep.toml; do
        status=0
        ./target/release/tenways serve --addr "$target" \
            --post "$ROUTE_DIR/$body" > "$ROUTE_DIR/hostile.json" || status=$?
        test "$status" = 1
        grep -q 'nesting deeper than' "$ROUTE_DIR/hostile.json"
    done
done
# Configs that would overflow or abort a backend are refused by name: a
# scale past the decoder's bound answers 400, and an L1 too large to
# allocate fails its run with a 500 (client exit 1 for both).
printf '{"workload": "contended", "scale": 18446744073709551615}\n' \
    > "$ROUTE_DIR/scale.json"
printf '{"workload": "lu", "threads": 2, "machine": {"l1_sets": 1073741824}}\n' \
    > "$ROUTE_DIR/l1_sets.json"
for target in "$ROUTE_ADDR" "$B1_ADDR"; do
    for field in scale l1_sets; do
        status=0
        ./target/release/tenways serve --addr "$target" \
            --post "$ROUTE_DIR/$field.json" > "$ROUTE_DIR/hostile.json" || status=$?
        test "$status" = 1
        grep -q "$field" "$ROUTE_DIR/hostile.json"
    done
done
./target/release/tenways serve --addr "$ROUTE_ADDR" --stats \
    > "$ROUTE_DIR/stats_hostile.json"
grep -q '"backends_up": 2' "$ROUTE_DIR/stats_hostile.json"
# Kill-and-reroute: take down backend 0, POST again through the router.
kill "$B0_PID"
wait "$B0_PID" || true
./target/release/tenways serve --addr "$ROUTE_ADDR" \
    --post "$ROUTE_DIR/job.toml" > "$ROUTE_DIR/after_kill.json"
test "$(grep '"key"' "$ROUTE_DIR/after_kill.json")" = "$(grep '"key"' "$ROUTE_DIR/first.json")"
./target/release/tenways serve --addr "$ROUTE_ADDR" --stats \
    > "$ROUTE_DIR/stats_after.json"
grep -q '"backends_up": 1' "$ROUTE_DIR/stats_after.json"
kill "$ROUTE_PID" "$B1_PID"
wait "$ROUTE_PID" || true
wait "$B1_PID" || true

# Sweep-then-serve smoke: a local sweep fills a cache directory, and a
# server started over that directory answers the sweep's point as a hit
# on the very first POST. /stats reads 1 hit, 0 misses and 0 simulations:
# the sweep ran the point, the server only read it.
WARM_DIR=target/serve-warm-smoke
rm -rf "$WARM_DIR"
mkdir -p "$WARM_DIR"
cat > "$WARM_DIR/grid.toml" <<'EOF'
workload = "lu"
scale = 1

[sweep]
id = "ci-warm"

[grid]
threads = [2]
EOF
./target/release/tenways sweep --config "$WARM_DIR/grid.toml" \
    --out "$WARM_DIR" --cache "$WARM_DIR/cache" --quiet
./target/release/tenways serve --addr 127.0.0.1:0 \
    --port-file "$WARM_DIR/port" --cache-dir "$WARM_DIR/cache" \
    --max-requests 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    test -f "$WARM_DIR/port" && break
    sleep 0.1
done
SERVE_ADDR=$(cat "$WARM_DIR/port")
./target/release/tenways serve --addr "$SERVE_ADDR" \
    --post "$ROUTE_DIR/job.toml" > "$WARM_DIR/first.json"
grep -q '"cached": true' "$WARM_DIR/first.json"
./target/release/tenways serve --addr "$SERVE_ADDR" --stats \
    > "$WARM_DIR/stats.json"
grep -q '"hits": 1' "$WARM_DIR/stats.json"
grep -q '"misses": 0' "$WARM_DIR/stats.json"
grep -q '"sim_runs": 0' "$WARM_DIR/stats.json"
wait "$SERVE_PID"

# Serve bench gate: cold miss vs warm hit on the committed-scale path,
# plus the saturation load generator. The binary itself enforces the hard
# gates — zero simulations on the hit row, a >= 100x hit speedup, no
# extra simulations or failures under the hot-key burst (scaling is
# host-aware), and batch dedup costing one simulation — and exits
# non-zero otherwise.
(cd "$BENCH_DIR" && TENWAYS_RESULTS_DIR=. "$OLDPWD/target/release/serve_bench")
grep -q '"gate_zero_sim_runs": true' "$BENCH_DIR/BENCH_serve.json"
grep -q '"gate_speedup_ok": true' "$BENCH_DIR/BENCH_serve.json"
grep -q '"gate_hot_scaling": true' "$BENCH_DIR/BENCH_serve.json"
grep -q '"gate_batch_dedup": true' "$BENCH_DIR/BENCH_serve.json"
# Scale-out gates (router + 2 in-process backends): a batch with three
# copies of each config costs exactly one simulation per unique key
# cluster-wide, and killing a backend mid-run loses zero requests. The
# capacity gate is host-aware (vacuous on boxes without the cores to run
# two backends concurrently) but must never read false.
grep -q '"gate_cluster_dedup": true' "$BENCH_DIR/BENCH_serve.json"
grep -q '"gate_no_lost_requests": true' "$BENCH_DIR/BENCH_serve.json"
grep -q '"gate_scaleout_capacity": true' "$BENCH_DIR/BENCH_serve.json"
# Allocation-count gate: serve_bench counts allocations per
# `SimConfig::cache_key`, per warm in-process submit and per warm
# `POST /run` (direct and routed), and sim_throughput counts allocations
# per `Experiment::run` at fixed sizes and the marginal allocations per
# retired op between two of them, each in a pass of its own over fixed
# configs. Counts are deterministic where timings are not, so a fresh
# count may differ from its committed row in BENCH_serve.json or
# BENCH_sim_throughput.json by at most 1% either way. Every row repeats
# exactly: the 13 sim_throughput rows are pure simulation, and the 4
# serve_bench rows read the same counts on ten runs in a row. So a change
# that raises a count recommits the row and says why, and a saving is
# recommitted rather than left free to regress unseen.
alloc_rows() {
    awk '/"label": "allocs\// { split($0, q, "\""); label = q[4] }
         /"allocs_per_(op|run)":/ && label != "" {
             v = $2; sub(/,$/, "", v)
             print label, v; label = ""
         }' "$@"
}
alloc_rows BENCH_serve.json BENCH_sim_throughput.json > "$BENCH_DIR/allocs.committed"
alloc_rows "$BENCH_DIR/BENCH_serve.json" "$BENCH_DIR/BENCH_sim_throughput.json" \
    > "$BENCH_DIR/allocs.fresh"
test "$(wc -l < "$BENCH_DIR/allocs.committed")" = 17
test "$(wc -l < "$BENCH_DIR/allocs.fresh")" = 17
awk 'NR == FNR { committed[$1] = $2; next }
     !($1 in committed) || $2 > committed[$1] * 1.01 {
         print "allocation count over its committed row:", $1, $2, "vs", committed[$1]
         bad = 1
     }
     $1 in committed && $2 < committed[$1] * 0.99 {
         print "allocation count under its committed row (recommit it):", $1, $2, "vs", committed[$1]
         bad = 1
     }
     END { exit bad }' "$BENCH_DIR/allocs.committed" "$BENCH_DIR/allocs.fresh"
