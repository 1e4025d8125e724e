#!/usr/bin/env bash
# The repository benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh --workload NAME [--seed S] [--trace 0|1]
#       one run of one workload; the last line of output is its JSON result
#   bench/e2e/run.sh [--seed S] [--trace 0|1] [--out DIR]
#       every workload, each in its own process; prints
#       "workload metric value unit" lines and writes DIR/results.json
#
# The run length is fixed at BENCHMARK.json's run_seconds. `--seconds 20`
# is accepted, because a harness running BENCHMARK.json's command passes
# `--seconds <run_seconds>`; any other value is a usage error.
#
# Builds utilrisk_benchmark from source first, in $CARGO_TARGET_DIR
# (default .bench_build) under the repository root, and checks that
# BENCHMARK.json names exactly the workloads and metrics the driver
# reports. Exits non-zero when the build or that check fails, or when any
# correctness gate fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
build="${build#"$root"/}"  # relative keeps the Unix socket paths short
out="$build/out"
log="$build/e2e-build.log"
mkdir -p "$build"

if [ ! -f "$build/e2e/CMakeCache.txt" ]; then
  if ! cmake -S bench/e2e -B "$build/e2e" -DCMAKE_BUILD_TYPE=Release \
      >"$log" 2>&1; then
    rm -rf "$build/e2e"
    tail -n 30 "$log" >&2
    echo "run.sh: configuring the benchmark failed (see $log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$build/e2e" --target utilrisk_benchmark \
    -j "$(nproc)" >>"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: building the benchmark failed (see $log)" >&2
  exit 1
fi
driver="$build/e2e/utilrisk_benchmark"
if ! python3 bench/e2e/compare.py --check-names BENCHMARK.json "$driver" \
    >"$build/e2e-names.log" 2>&1; then
  cat "$build/e2e-names.log" >&2
  echo "run.sh: BENCHMARK.json and the driver disagree" >&2
  exit 1
fi

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$driver" --out "$out" "$@"
  fi
done

# Every workload, one process each, so set-up time and peak memory are
# per workload.
seed=42
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --out) out="$2"; shift 2 ;;
    --seed) seed="$2"; args+=("$1" "$2"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
mkdir -p "$out"
status=0
results="{\"seed\": $seed, \"workloads\": {"
separator=""
for workload in $("$driver" --list-metrics | awk '$1 == "workload" {print $2}'); do
  set +e
  lines="$("$driver" --workload "$workload" --out "$out" "${args[@]}")"
  code=$?
  set -e
  [ "$code" -eq 0 ] || status=1
  printf '%s\n' "$lines" | sed '$d'
  last="$(printf '%s\n' "$lines" | tail -n 1)"
  case "$last" in
    "{"*) ;;
    *) last=null; status=1 ;;
  esac
  results+="$separator\"$workload\": $last"
  separator=", "
done
printf '%s}}\n' "$results" >"$out/results.json"
echo "wrote $out/results.json"
exit "$status"
