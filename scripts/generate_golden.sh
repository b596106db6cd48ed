#!/usr/bin/env sh
# Regenerate the committed golden traces under traces/ (EXPERIMENTS.md,
# "Record/replay and the golden-trace gate").
#
# Each golden is a small, fully-finalized `.nct` trace recorded from a
# seeded synthetic workload, with its generator line stored in the trace
# header's note field so the artifact is self-describing. verify.sh replays
# every golden on every run and requires bitwise-identical completions and
# objectives — a scheduler change that perturbs even one mantissa bit shows
# up as a red gate, not a silent drift.
#
# Regeneration is deterministic: same seed, same binary, same bytes. Run
# this only when a deliberate scheduler change makes the old goldens stale,
# and commit the new traces together with the change that explains them.
#
# Usage: scripts/generate_golden.sh [OUT_DIR]
# OUT_DIR defaults to traces/ (relative paths are taken from the repo
# root). verify.sh records into a temporary directory and compares each
# result with the committed trace byte for byte, so the argument lists
# below are the only copy.

set -eu

cd "$(dirname "$0")/.."
out_dir="${1:-traces}"

echo "==> cargo build --release --offline -p ncss-cli"
cargo build --release --offline -p ncss-cli
cli=target/release/ncss-cli

mkdir -p "$out_dir"

record() {
    out="$1"; algo="$2"; alpha="$3"; seed="$4"; n="$5"; rate="$6"
    note="generate_golden.sh: --synthetic $n --rate $rate --seed $seed --algorithm $algo --alpha $alpha"
    "$cli" record --synthetic "$n" --rate "$rate" --seed "$seed" \
        --algorithm "$algo" --alpha "$alpha" --checkpoint-every 10 \
        --note "$note" --out "$out_dir/$out"
    # A golden must replay bitwise and pass the independent audit before
    # it is allowed to exist.
    "$cli" replay --trace "$out_dir/$out" --audit 1 > /dev/null \
        || { echo "FAIL: fresh golden $out does not replay" >&2; exit 1; }
    echo "$out_dir/$out: ok"
}

record c_alpha2.nct    c  2.0 101 48 1.4
record nc_alpha3.nct   nc 3.0 202 40 1.1
record c_alpha2_5.nct  c  2.5 303 56 1.7

echo "golden traces regenerated in $out_dir; commit traces/*.nct if the change is intentional"
