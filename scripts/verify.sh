#!/usr/bin/env bash
# Full offline verification: build, test, formatting, lints.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> locality-lint"
cargo run -q -p locality-lint

echo "==> locality-lint --format json (empty baseline, stable)"
# The JSON stream is the machine-readable contract: a clean workspace
# emits nothing, and the output must be byte-identical across runs.
# `|| true`: the lint binary exits nonzero on findings, but the gate
# below wants to print them before failing.
lint_json_a="$(cargo run -q -p locality-lint -- --format json || true)"
lint_json_b="$(cargo run -q -p locality-lint -- --format json || true)"
if [ "$lint_json_a" != "$lint_json_b" ]; then
  echo "locality-lint: --format json output is not stable across runs" >&2
  exit 1
fi
if [ -n "$lint_json_a" ]; then
  echo "locality-lint: JSON findings differ from the empty baseline:" >&2
  printf '%s\n' "$lint_json_a" >&2
  exit 1
fi

echo "==> perfsmoke regression gate"
# Compare the live run against the committed BENCH_perfsmoke.json
# baseline. The factor is 0.6, not tighter: on a shared single-CPU
# host the speedup ratios scatter ~±25% run to run even with
# median-of-nine sampling inside perfsmoke (observed delivery-matrix
# draws 39-60 against a 53 baseline), and the binary already
# self-asserts absolute floors (>=2x matrix, >=3x sim and oracle), so
# this gate only needs to catch sustained multi-x regressions without
# tripping on scheduler noise.
perf_now="$(cargo run -q --release -p locality-bench --bin perfsmoke)"
gate() { # gate <label> <current> <baseline>
  awk -v cur="$2" -v base="$3" -v label="$1" 'BEGIN {
    if (cur + 0 < 0.6 * base) {
      printf "perfsmoke: %s regressed: %.2f < 0.6 * %.2f\n", label, cur, base > "/dev/stderr"
      exit 1
    }
  }'
}
extract() { # extract <json> <key> -> last numeric value for key
  printf '%s' "$1" | grep -o "\"$2\":[0-9.]*" | tail -n 1 | cut -d: -f2
}
gate delivery_matrix_speedup \
  "$(extract "$perf_now" delivery_matrix_speedup)" \
  "$(extract "$(cat BENCH_perfsmoke.json)" delivery_matrix_speedup)"
gate sim_speedup \
  "$(extract "$perf_now" sim_speedup)" \
  "$(extract "$(cat BENCH_perfsmoke.json)" sim_speedup)"
gate oracle_cold_start_speedup \
  "$(extract "$perf_now" oracle_cold_start_speedup)" \
  "$(extract "$(cat BENCH_perfsmoke.json)" oracle_cold_start_speedup)"
gate sustained_qps_at_slo \
  "$(extract "$perf_now" sustained_qps_at_slo)" \
  "$(extract "$(cat BENCH_perfsmoke.json)" sustained_qps_at_slo)"
gate tracecat_mb_per_sec \
  "$(extract "$perf_now" tracecat_mb_per_sec)" \
  "$(extract "$(cat BENCH_perfsmoke.json)" tracecat_mb_per_sec)"

echo "==> sharded-scale throughput gate"
# The sharded-simulator headline: hops/sec/core at n=32768, S=4, from
# median-of-five alternating pairs inside perfsmoke. A raw throughput
# figure (not a same-process ratio), so it moves with host load; the
# 25% gate catches a real engine regression while the fingerprint
# assertions inside perfsmoke catch any outcome divergence.
awk -v cur="$(extract "$perf_now" sim_hops_per_sec_per_core)" \
    -v base="$(extract "$(cat BENCH_perfsmoke.json)" sim_hops_per_sec_per_core)" 'BEGIN {
  if (cur + 0 < 0.75 * base) {
    printf "perfsmoke: sim_hops_per_sec_per_core regressed: %.0f < 0.75 * %.0f\n", cur, base > "/dev/stderr"
    exit 1
  }
}'

echo "==> simbench scale sweep smoke (fingerprint identity across shards, linear provisioning, flat per-hop cost)"
# The sweep itself asserts outcome fingerprints match at every shard
# count per n (2048, 32768, 100000, 1000000) — a panic here means
# sharding changed routing results. Smoke-sized traffic keeps this
# to about ten seconds even with n = 10^6.
scale_json="$(cargo run -q --release -p locality-bench --bin simbench -- --scale-smoke)"
# Provisioning costs O(view) per node, so build time per node must stay
# flat in n: at each shard count, provision_ms / n at n = 100000 and at
# n = 1000000 may be at most 3x its n = 2048 value (an O(n) scratch per
# view reads ~20x at n = 100000).
# Per-message loop state is sized by the route, and every n routes
# messages with the same target offsets (the same hop count), so run
# time per hop must stay near flat as well:
# elapsed_ms / hops at n = 100000 may be at most 4x its n = 2048 value
# (graph-sized loop state per message read 8-11x at S = 1). At
# n = 1000000 the per-hop ratio is printed but not gated: cold-cache
# runs there scatter 1.6-4.6x.
printf '%s' "$scale_json" | grep -oE '\{"n":[0-9]+,"shards":[0-9]+[^}]*\}' | awk '
  function field(row, key) {
    if (!match(row, "\"" key "\":[0-9.]+")) return ""
    return substr(row, RSTART + length(key) + 3, RLENGTH - length(key) - 3)
  }
  {
    n = field($0, "n"); s = field($0, "shards")
    per[n, s] = field($0, "provision_ms") / n
    hops = field($0, "hops")
    hop[n, s] = hops > 0 ? field($0, "elapsed_ms") / hops : 0
    shards[s] = 1
  }
  END {
    bad = 0
    for (s in shards) {
      small = per[2048, s]; big = per[100000, s]
      if (small <= 0 || big <= 0 || hop[2048, s] <= 0 || hop[100000, s] <= 0) {
        printf "simbench: S=%s scale rows missing n=2048 or n=100000\n", s > "/dev/stderr"
        bad = 1
        continue
      }
      printf "provisioning per node, n=100000 vs n=2048, S=%s: %.2fx\n", s, big / small
      if (big > 3 * small) {
        printf "simbench: S=%s provisioning per node grew %.2fx from n=2048 to n=100000 (limit 3x)\n", s, big / small > "/dev/stderr"
        bad = 1
      }
      ratio = hop[100000, s] / hop[2048, s]
      printf "run time per hop, n=100000 vs n=2048, S=%s: %.2fx\n", s, ratio
      if (ratio > 4) {
        printf "simbench: S=%s run time per hop grew %.2fx from n=2048 to n=100000 (limit 4x)\n", s, ratio > "/dev/stderr"
        bad = 1
      }
      huge = per[1000000, s]
      if (huge <= 0 || hop[1000000, s] <= 0) {
        printf "simbench: S=%s scale rows missing n=1000000\n", s > "/dev/stderr"
        bad = 1
        continue
      }
      printf "provisioning per node, n=1000000 vs n=2048, S=%s: %.2fx\n", s, huge / small
      if (huge > 3 * small) {
        printf "simbench: S=%s provisioning per node grew %.2fx from n=2048 to n=1000000 (limit 3x)\n", s, huge / small > "/dev/stderr"
        bad = 1
      }
      printf "run time per hop, n=1000000 vs n=2048, S=%s: %.2fx (not gated)\n", s, hop[1000000, s] / hop[2048, s]
    }
    exit bad
  }'

echo "==> tracing-off overhead gate"
# A recorder at Level::Off must cost nothing measurable: perfsmoke
# reports the traced-but-off simulator vs the bare one as a percent.
awk -v pct="$(extract "$perf_now" sim_trace_overhead_pct)" 'BEGIN {
  if (pct + 0 > 2.0) {
    printf "perfsmoke: tracing-off overhead %.2f%% exceeds 2%%\n", pct > "/dev/stderr"
    exit 1
  }
}'

echo "==> chaos determinism smoke (traced, tracecat diff)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
out_a="$(cargo run -q --release -p locality-bench --bin chaos -- --seed 7 --trace-out "$trace_dir/a.jsonl")"
out_b="$(cargo run -q --release -p locality-bench --bin chaos -- --seed 7 --trace-out "$trace_dir/b.jsonl")"
if [ "$out_a" != "$out_b" ]; then
  echo "chaos: seed 7 replay is not byte-identical" >&2
  exit 1
fi
cargo run -q --release -p locality-bench --bin tracecat -- \
  diff "$trace_dir/a.jsonl" "$trace_dir/b.jsonl"

echo "==> per-worker trace shards merge byte-identical (tracecat merge)"
# The soak written as 8 per-worker shard files (trial i -> shard i%8,
# the parallel driver's strided assignment), recombined with
# `tracecat merge`, must reproduce the single-writer trace byte for
# byte — the shard/merge surgery is a pure inversion, never a rewrite.
out_striped="$(cargo run -q --release -p locality-bench --bin chaos -- \
  --seed 7 --trace-shards 8 --trace-shard-dir "$trace_dir/shards")"
if [ "$out_a" != "$out_striped" ]; then
  echo "chaos: seed 7 report differs when writing shard traces" >&2
  exit 1
fi
cargo run -q --release -p locality-bench --bin tracecat -- \
  merge "$trace_dir"/shards/shard-*.jsonl --out "$trace_dir/merged.jsonl" 2> /dev/null
cmp "$trace_dir/a.jsonl" "$trace_dir/merged.jsonl" || {
  echo "tracecat: merged worker shards differ from the single-writer trace" >&2
  exit 1
}

echo "==> sharded chaos byte-identity (--shards 4 vs unsharded)"
# Partitioning every storm's network into 4 shards must not move a
# single byte of the report: the sharded engine's tick-barrier merge
# reproduces the single-wheel schedule exactly.
out_s4="$(cargo run -q --release -p locality-bench --bin chaos -- --seed 7 --shards 4)"
if [ "$out_a" != "$out_s4" ]; then
  echo "chaos: seed 7 report differs at 4 shards" >&2
  exit 1
fi

echo "==> oracle artifact tier: chaos routing byte-identity"
# Precompute view artifacts for the chaos seed-7 topology, rerun the
# soak with provisioning served from the artifacts, and demand a
# report byte-identical to the BFS-provisioned run above — the whole
# chaos machinery certifies the oracle tier for free.
cargo run -q --release -p locality-bench --bin oracle -- \
  build --chaos-seed 7 --out-dir "$trace_dir/artifacts"
out_oracle="$(cargo run -q --release -p locality-bench --bin chaos -- \
  --seed 7 --provisioner oracle --artifact-dir "$trace_dir/artifacts")"
if [ "$out_a" != "$out_oracle" ]; then
  echo "chaos: oracle-provisioned seed 7 run differs from the BFS path" >&2
  exit 1
fi

echo "==> loadgen capacity smoke (overload degradation + thread byte-identity)"
# The check run pins the whole overload story under the chaos seed-7
# fault plan: exact conservation with Rejected/Shed, admitted delivery
# ratio within 1% of the unloaded baseline, and replayed witnesses
# inside the dilation bounds — the binary exits nonzero if any fail.
# Running it at 1 and 8 driver threads and diffing the JSON pins the
# byte-identical-at-any-parallelism guarantee.
load_1="$(cargo run -q --release -p locality-bench --bin loadgen -- check --seed 7 --threads 1)"
load_8="$(cargo run -q --release -p locality-bench --bin loadgen -- check --seed 7 --threads 8)"
if [ "$load_1" != "$load_8" ]; then
  echo "loadgen: check output differs between 1 and 8 threads" >&2
  exit 1
fi
case "$load_1" in
  *'"conservation":"exact"'*) ;;
  *) echo "loadgen: check did not certify exact conservation: $load_1" >&2; exit 1;;
esac
sweep_1="$(cargo run -q --release -p locality-bench --bin loadgen -- sweep --seed 7 --threads 1)"
sweep_8="$(cargo run -q --release -p locality-bench --bin loadgen -- sweep --seed 7 --threads 8)"
if [ "$sweep_1" != "$sweep_8" ]; then
  echo "loadgen: sweep output differs between 1 and 8 threads" >&2
  exit 1
fi

echo "verify: OK"
