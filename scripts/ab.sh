#!/usr/bin/env bash
# Alternating A/B runs of one benchmark workload: a revision against the
# work tree.
#
#   scripts/ab.sh <rev> <workload> [pairs] [first-seed]
#
# Builds <rev> (from `git archive`) and the work tree (from
# `git stash create`, or HEAD when the tree is clean) in directories under
# ${TMPDIR:-/tmp}/ncss-ab/, one per source tree, so a second call on the
# same trees reuses the builds. `git stash create` leaves untracked files
# out: `git add` new files first. Then, for `pairs` seeds from
# `first-seed` (default 10 pairs from seed 1), it runs
#
#   bash benchmark/run.sh --workload W --seed S --seconds 12 --trace 0
#
# on both sides, parent then change in every pair, so the runs alternate
# strictly (parent, change, parent, change, ...) and no side runs twice in
# a row: a host phase longer than one run lands on both sides. For each
# end-to-end metric of BENCHMARK.json it prints each side's median, q1
# and q3, the median change and how many pairs the change won, and flags
# the metric when the parent's IQR is wider than the metric's bound times
# the parent's median: the runs spread too widely to tell a change of that
# size. Every run's result line goes to results/ in the work tree's build
# directory. Nothing in the repository changes.

set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/ab.sh <rev> <workload> [pairs] [first-seed]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
first_seed=${4:-1}

cd "$(dirname "$0")/.."
repo=$(pwd)
base_commit=$(git rev-parse --verify "$rev^{commit}")
change_commit=$(git stash create)
change_commit=${change_commit:-$(git rev-parse HEAD)}
root=${TMPDIR:-/tmp}/ncss-ab
mkdir -p "$root"

# Extract a commit's tree once, into a directory named after the tree.
extract() {
    local tree dir
    tree=$(git rev-parse "$1^{tree}")
    dir=$root/$tree
    if [ ! -f "$dir/.extracted" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$1" | tar -x -C "$dir"
        touch "$dir/.extracted"
    fi
    echo "$dir"
}

build() {
    echo "==> building $1" >&2
    (cd "$1" && CARGO_TARGET_DIR="$1/target" cargo build --release --offline --quiet -p ncss-cli \
        && CARGO_TARGET_DIR="$1/target" cargo build --release --offline --quiet \
            --manifest-path benchmark/Cargo.toml)
}

base=$(extract "$base_commit")
change=$(extract "$change_commit")
build "$base"
build "$change"
results=$change/results
mkdir -p "$results"

# run SIDE DIR SEED: one benchmark run; its result line goes to results/.
run() {
    local out=$results/$workload.$1.seed$3.json
    (cd "$2" && CARGO_TARGET_DIR="$2/target" bash benchmark/run.sh --workload "$workload" \
        --seed "$3" --seconds 12 --trace 0) | tail -n 1 > "$out"
    echo "  $1 seed $3: $(cat "$out")" >&2
}

for i in $(seq 0 $((pairs - 1))); do
    seed=$((first_seed + i))
    run parent "$base" "$seed"
    run change "$change" "$seed"
done

python3 - "$repo/BENCHMARK.json" "$results" "$workload" "$first_seed" "$pairs" <<'EOF'
import json, statistics, sys

spec_path, results, workload, first, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
spec = json.load(open(spec_path))
seeds = range(first, first + pairs)

def load(side, seed):
    return json.load(open(f"{results}/{workload}.{side}.seed{seed}.json"))

runs = {side: [load(side, s) for s in seeds] for side in ("parent", "change")}
for side, rs in runs.items():
    bad = [s for s, r in zip(seeds, rs) if not r.get("correct") or r.get("failed", 1) != 0]
    print(f"{side}: {len(rs)} runs, failed {sum(r.get('failed', 0) for r in rs)}, "
          f"incorrect or failing seeds {bad or 'none'}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"\n{workload}: {pairs} pairs, seeds {first}-{first + pairs - 1}")
print(f"{'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} {'change':>8} {'wins':>6}")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    pq, cq = quartiles(p), quartiles(c)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    rel = cq[1] / pq[1] - 1 if pq[1] else float("nan")
    flag = ""
    if pq[2] - pq[0] > m["bound"] * pq[1]:
        flag = f"  SPREAD: parent IQR above {m['bound']:.0%} of its median"
    print(f"{name:<12} {pq[1]:<10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(47)
          + f" {cq[1]:<10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(35)
          + f" {rel:>+7.1%} {wins:>3}/{pairs}{flag}")
EOF
echo "result lines: $results" >&2
