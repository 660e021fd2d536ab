#!/usr/bin/env sh
# CI gate: build → e2ebench-build → e2ebench-invisibility → test
# (default / workspace / check / telemetry) → clippy → fedlint → fedobs
# summary smoke → perf-smoke → kernel-diff → fedobs-smoke → fedsim-smoke.
# Any failing stage fails the run.
set -eu

echo "==> cargo build --release"
cargo build --release

# e2ebench-build: the repository benchmark is a package of its own that
# builds the library crates by path. `--locked` fails when a library
# change breaks the API it calls or would rewrite its lockfile.
echo "==> e2ebench-build (benchmark package against the current library)"
cargo build --release --offline --locked --manifest-path e2ebench/Cargo.toml

# e2ebench-invisibility: each traced figure run rebuilds the round loop
# from public calls (every anchor computed by its own solve, loss and
# gradient evaluated in separate passes) and fails unless its final
# model equals FederatedTrainer::run's bitwise — the check that the
# engine's fused evaluation and anchor hand-off change no bit.
echo "==> e2ebench-invisibility (traced public-call loop vs the engine, fig2 + fig3)"
for w in fig2-convex fig3-cnn; do
    last="$(python3 e2ebench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1)"
    case "$last" in
        *'"correct": true'*) ;;
        *) echo "e2ebench-invisibility: $w traced run not correct: $last"; exit 1 ;;
    esac
done

echo "==> cargo test -q"
cargo test -q

# The root `cargo test` runs only the facade package; the member crates'
# unit and integration suites run here.
echo "==> cargo test --workspace -q (every member crate)"
cargo test --workspace -q

echo "==> cargo test -q --features check (numeric guards as hard errors)"
cargo test -q --features check

echo "==> cargo test -q --features telemetry (instrumentation compiled in)"
cargo test -q --features telemetry

# The TraceSession tests (one armed --obs file read by every fedobs
# view) need the bench crate's own telemetry feature.
echo "==> cargo test -q -p fedprox-bench --features telemetry --lib"
cargo test -q -p fedprox-bench --features telemetry --lib

# unwrap_used/expect_used are denied via [workspace.lints]; every
# `#[allow]` escaping the deny must carry an adjacent justified
# `// fedlint: allow(...)` annotation (enforced by the fedlint
# clippy-allow-sync rule in the gate below).
if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint stage"
fi

# fedlint-gate: the full AST/call-graph engine (determinism,
# panic-reachability and feature-gate rules) against the committed
# per-rule budgets. Any count over budget exits nonzero.
echo "==> fedlint-gate (check --baseline LINT_BASELINE.json --gate)"
cargo run -q --release -p fedprox-conformance --bin fedlint -- \
    check --baseline LINT_BASELINE.json --gate

echo "==> fedobs summary smoke (summarize the checked-in fixture trace)"
cargo run -q --release -p fedprox-obs --bin fedobs -- \
    summary crates/telemetry/tests/fixtures/sample_trace.jsonl >/dev/null

# perf-smoke: run the fedperf harness twice in --quick mode, validate the
# emitted reports against the fedperf/v1 schema, and check the two runs are
# structurally identical (same benchmark ids, same iteration counts).
# Deliberately NO gating on absolute times — CI machines are too noisy for
# that; regression gating (--baseline/--gate) is a manual/local workflow.
echo "==> perf-smoke (fedperf --quick: schema + determinism, no time gating)"
PERF_TMP="$(mktemp -d)"
trap 'rm -rf "$PERF_TMP"' EXIT
cargo build -q --release -p fedprox-perfbench
./target/release/fedperf --quick --name smoke-a --out "$PERF_TMP" >/dev/null
./target/release/fedperf --quick --name smoke-b --out "$PERF_TMP" >/dev/null
./target/release/fedperf --validate "$PERF_TMP/BENCH_smoke-a.json" "$PERF_TMP/BENCH_smoke-b.json"
./target/release/fedperf --check-determinism \
    "$PERF_TMP/BENCH_smoke-a.json" "$PERF_TMP/BENCH_smoke-b.json"
# Allocation gate (counted, so deterministic; no timing): the batched
# logistic gradients run through one reused scratch and must allocate
# nothing in steady state.
python3 - "$PERF_TMP/BENCH_smoke-a.json" <<'PY'
import json, sys
entries = {e["id"]: e for e in json.load(open(sys.argv[1]))["entries"]}
for bench in ("logistic_grad/784x10-b4", "logistic_grad/784x10-b32"):
    allocs = entries.get(bench, {}).get("allocs_per_iter")
    if allocs != 0:
        sys.exit(f"perf-smoke: {bench} allocs_per_iter = {allocs}, want 0")
PY

# kernel-diff: bitwise + speed gate over the tiled kernel rewrite. The
# cpu_reference differential suite proves tiled == naive bitwise (and
# parallel == sequential); the root determinism suite extends that to
# full networked runs. The fedperf baseline gate then catches kernel
# *speed* regressions against the committed BENCH_seed.json (recorded
# from the tiled kernels). The default ratio is deliberately loose
# (3.0, override with FEDPERF_GATE_RATIO): back-to-back identical runs
# on shared hosts swing 2-3x, so a tight gate would be flakier than it
# is protective — tight gating (e.g. 1.25) stays a manual/local
# workflow on a quiet machine.
echo "==> kernel-diff (cpu_reference suite + fedperf --baseline --gate)"
cargo test -q --release -p fedprox-tensor --test cpu_reference
cargo test -q --release -p fedprox --test determinism
./target/release/fedperf --baseline BENCH_seed.json --gate "${FEDPERF_GATE_RATIO:-3.0}"

# fedobs-smoke: every view of the one --obs stream, read from armed runs
# of the telemetry bench build. Reuses the perf-smoke tmp dir + trap.
#  - health: a tiny fedrun stream passes `fedobs health check`, its
#    report renders, and a self-diff is regression-free (exit 0).
#  - resilience: a short seeded faulted fedresil run (device crash at
#    round 3 plus a 20% flaky link) records exactly the expected
#    participation (1 crashed device, 0 skipped rounds — enforced by the
#    --expect-* flags) and a stream `fedobs health check` accepts.
#  - prof: two identical-seed fig2 runs; `prof report` must show the
#    local_solve path, `prof flame` must emit well-formed collapsed
#    stacks, and `prof agg --check-deterministic` must find the
#    deterministic columns (activation counts, alloc bytes/calls)
#    bitwise-identical across the two runs — wall-clock columns are
#    expected to differ and are reported as medians.
#  - correlation: a faulted fedresil run (device 1 crashes at round 3,
#    quorum demands all 3 devices, so every later round skips); the
#    flight recorder must fire and `postmortem` must blame the crashed
#    device. Two same-seed runs must carry identical run-ledger headers
#    (`ledger diff` exits 0 and prints "identical"), and `critpath`
#    must reconstruct the rounds.
echo "==> fedobs-smoke (armed --obs runs -> health / prof / postmortem / ledger / critpath)"
cat > "$PERF_TMP/fedrun_spec.json" <<'EOF'
{
  "dataset": {"kind": "synthetic", "alpha": 1.0, "beta": 1.0},
  "model": {"kind": "logistic"},
  "algorithms": ["fedproxvr-svrg"],
  "devices": 3, "min_size": 30, "max_size": 60,
  "beta": 5.0, "tau": 5, "mu": 0.5, "batch": 8, "rounds": 4
}
EOF
cargo build -q --release -p fedprox-bench --features telemetry
cargo build -q --release -p fedprox-obs
./target/release/fedrun "$PERF_TMP/fedrun_spec.json" \
    --obs "$PERF_TMP/health.jsonl" >/dev/null
./target/release/fedobs health check "$PERF_TMP/health.jsonl"
./target/release/fedobs health report "$PERF_TMP/health.jsonl" >/dev/null
./target/release/fedobs health diff "$PERF_TMP/health.jsonl" "$PERF_TMP/health.jsonl" >/dev/null

./target/release/fedresil --devices 4 --rounds 6 --seed 11 \
    --crash 1:3 --flaky 2:0.2:1:6 \
    --obs "$PERF_TMP/resil.jsonl" \
    --expect-crashed 1 --expect-skipped 0 >/dev/null
./target/release/fedobs health check "$PERF_TMP/resil.jsonl"

./target/release/fig2_convex --scale small --rounds 3 --seed 7 \
    --obs "$PERF_TMP/prof_a.jsonl" >/dev/null
./target/release/fig2_convex --scale small --rounds 3 --seed 7 \
    --obs "$PERF_TMP/prof_b.jsonl" >/dev/null
./target/release/fedobs prof report "$PERF_TMP/prof_a.jsonl" | grep -q "local_solve" \
    || { echo "fedobs-smoke: prof report missing the local_solve path"; exit 1; }
./target/release/fedobs prof flame "$PERF_TMP/prof_a.jsonl" > "$PERF_TMP/prof_a.flame"
grep -Eq '^([^ ;]+;)+[^ ;]+ [0-9]+$' "$PERF_TMP/prof_a.flame" \
    || { echo "fedobs-smoke: prof flame output has no nested collapsed stack"; exit 1; }
./target/release/fedobs prof agg "$PERF_TMP/prof_a.jsonl" "$PERF_TMP/prof_b.jsonl" \
    --check-deterministic >/dev/null

./target/release/fedresil --devices 3 --rounds 6 --seed 11 \
    --crash 1:3 --quorum-count 3 \
    --obs "$PERF_TMP/obs_a.jsonl" >/dev/null
./target/release/fedobs postmortem "$PERF_TMP/obs_a.jsonl" \
    | grep -q "quorum_skip at round 3 (device 1)" \
    || { echo "fedobs-smoke: postmortem did not blame the crashed device"; exit 1; }
./target/release/fedresil --devices 3 --rounds 6 --seed 11 \
    --crash 1:3 --quorum-count 3 \
    --obs "$PERF_TMP/obs_b.jsonl" >/dev/null
./target/release/fedobs ledger diff "$PERF_TMP/obs_a.jsonl" "$PERF_TMP/obs_b.jsonl" \
    | grep -q "^identical" \
    || { echo "fedobs-smoke: same-seed run ledgers differ"; exit 1; }
./target/release/fedobs critpath "$PERF_TMP/obs_a.jsonl" >/dev/null

# fedsim-smoke: the event-driven backend at population scale. Two
# same-seed 100k-device power-law runs sampling K=32 per round must
# finish with per-round allocation bounded by the active set (not the
# population — the --max-round-alloc-mib gate uses the counting
# allocator baked into the telemetry bench build; 19 MiB is ~2x the
# 9.4 MiB peak measured for this run), sample exactly 32
# devices every round (--expect-sampled), and stream obs feeds whose
# run ledgers are bitwise-identical. The eq. (19) critical path must
# reconstruct cleanly from a sampled round's sparse device legs.
# Device 28563 is sampled in round 1 only (seed 29), so crashing it
# exercises stable-id fault addressing on compact participation
# records: the crash must still be counted although the final round
# never samples the device. Reuses the telemetry-enabled bench build
# from the fedobs stage.
echo "==> fedsim-smoke (two same-seed 100k-device sampled runs -> alloc bound + ledger diff)"
./target/release/fedsim --devices 100000 --rounds 4 --seed 29 --sample k:32 \
    --crash 28563:1 --expect-crashed 1 \
    --expect-sampled 32 --max-round-alloc-mib 19 \
    --obs "$PERF_TMP/sim_a.jsonl" >/dev/null
./target/release/fedsim --devices 100000 --rounds 4 --seed 29 --sample k:32 \
    --crash 28563:1 --expect-crashed 1 \
    --expect-sampled 32 --max-round-alloc-mib 19 \
    --obs "$PERF_TMP/sim_b.jsonl" >/dev/null
./target/release/fedobs ledger diff "$PERF_TMP/sim_a.jsonl" "$PERF_TMP/sim_b.jsonl" \
    | grep -q "^identical" \
    || { echo "fedsim-smoke: same-seed sampled-run ledgers differ"; exit 1; }
./target/release/fedobs critpath "$PERF_TMP/sim_a.jsonl" >/dev/null

echo "CI green."
