#!/usr/bin/env bash
# Paired benchmark comparison of two revisions, written to one report.
#
#   scripts/bench_compare.sh PARENT_REV CHANGE_REV --seeds S1,...,Sn --out FILE
#
# Exports each revision's tree (`git archive`) into its own directory under
# a fresh temporary directory ($TMPDIR, default /tmp), so neither the
# working tree nor the repository's worktree list is touched, and builds
# each side's bench/e2e benchmark binary there. Then, for every seed, runs
# `bench/e2e/run.sh --seed S --out DIR` once per side, alternating which
# side runs first (the parent first on the first seed), and compares the
# two sets with `bench/e2e/compare.py BENCHMARK.json DIR_A DIR_B`
# (A = PARENT_REV, B = CHANGE_REV; BENCHMARK.json from CHANGE_REV).
#
# FILE gets both revisions (and their src/ tree ids, which name the
# measured code even when a revision is a throwaway commit), the seeds,
# `nproc`, each side's median `host.speed` over all its runs, the date and
# compare.py's table. The script exits non-zero when a run's correctness
# gate fails or when compare.py reports a regression or an unresolved row;
# FILE is written either way once every run has finished. The temporary
# directory is removed on exit.
set -euo pipefail

usage() {
  sed -n '4p' "$0" | sed 's/^# */usage: /' >&2
  exit 2
}

[ $# -ge 2 ] || usage
parent_rev="$1"
change_rev="$2"
shift 2
seeds=""
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) [ $# -ge 2 ] || usage; seeds="$2"; shift 2 ;;
    --out) [ $# -ge 2 ] || usage; out="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$seeds" ] && [ -n "$out" ] || usage

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_sha="$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")"
change_sha="$(git -C "$root" rev-parse --verify "$change_rev^{commit}")"
IFS=, read -r -a seed_list <<<"$seeds"
for seed in "${seed_list[@]}"; do
  [[ "$seed" =~ ^[0-9]+$ ]] || { echo "bad seed '$seed'" >&2; exit 2; }
done
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for side in a b; do
  sha="$parent_sha"
  [ "$side" = b ] && sha="$change_sha"
  mkdir -p "$work/$side/tree" "$work/$side/results"
  git -C "$root" archive "$sha" | tar -x -C "$work/$side/tree"
done

# One run of every workload at `seed` on `side`. The first call on a side
# builds its benchmark binary.
run_side() {
  local side="$1" seed="$2"
  echo "[$(date -u +%H:%M:%S)] seed $seed side $side" >&2
  if ! (cd "$work/$side/tree" &&
        env -u CARGO_TARGET_DIR bash bench/e2e/run.sh --seed "$seed" \
          --out "$work/$side/results" >"$work/$side/run.$seed.log" 2>&1); then
    tail -n 20 "$work/$side/run.$seed.log" >&2
    echo "bench_compare: side $side failed at seed $seed" >&2
    exit 1
  fi
}

for i in "${!seed_list[@]}"; do
  seed="${seed_list[$i]}"
  if [ $((i % 2)) -eq 0 ]; then
    run_side a "$seed"
    run_side b "$seed"
  else
    run_side b "$seed"
    run_side a "$seed"
  fi
done

median_speed() {
  python3 - "$1" <<'EOF'
import glob, json, os, statistics, sys
values = []
for path in glob.glob(os.path.join(sys.argv[1], "*.trace0.json")):
    with open(path) as handle:
        for entry in json.load(handle)["metrics"]:
            if entry["name"] == "host.speed":
                values.append(entry["value"])
print("%.3f (%d runs)" % (statistics.median(values), len(values))
      if values else "n/a")
EOF
}

status=0
table="$(python3 "$work/b/tree/bench/e2e/compare.py" \
           "$work/b/tree/BENCHMARK.json" \
           "$work/a/results" "$work/b/results")" || status=$?
mkdir -p "$(dirname "$out")"
{
  echo "bench/e2e paired comparison"
  echo "A (parent): $parent_rev = $parent_sha"
  echo "B (change): $change_rev = $change_sha"
  echo "src trees: A $(git -C "$root" rev-parse "$parent_sha:src"), B $(git -C "$root" rev-parse "$change_sha:src")"
  echo "seeds: ${seed_list[*]} (pair i runs A first when i is even)"
  echo "nproc: $(nproc)"
  echo "host.speed median: A $(median_speed "$work/a/results"), B $(median_speed "$work/b/results")"
  echo "date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo "command: scripts/bench_compare.sh $parent_rev $change_rev --seeds $seeds --out FILE"
  echo
  printf '%s\n' "$table"
  echo
  echo "compare.py exit status: $status"
} >"$out"
cat "$out"
exit "$status"
