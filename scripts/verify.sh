#!/usr/bin/env sh
# Offline verification gate for the ncss workspace.
#
# The dependency policy (DESIGN.md §5) requires the whole workspace to
# build, test, and document with zero external crates and no network
# access. This script is the enforcement: it must pass on a machine with
# no registry reachable.
#
#   1. offline release build of every crate
#   2. offline workspace test suite (unit + integration + property tests),
#      --no-fail-fast so one red crate cannot hide the others' results
#   3. offline doc-tests (the rustdoc examples are executable contracts)
#   4. fault-injection robustness contract in --release (the guard rails
#      must hold where debug_assert! is compiled out); its wall-time is
#      reported so sharding/step-cap regressions are visible in CI logs
#   5. closed-form-vs-quadrature property tests in --release (the
#      analytic fast path must match the quadrature reference to 1e-12
#      where debug_assert! is compiled out), the non-uniform NC
#      oracle over every fault-suite case of seeds 1-4 (debug builds
#      check every 7th), and the clairvoyant-shadow oracle in full: every
#      reader of K_j, NcStream's emitted K_j among them, against the
#      prefix re-run on 2,500 jobs (debug builds check part of it), plus
#      a tripwire that the capped and the firewalled NC finish 4,000 jobs
#      in under 2 s together (re-running Algorithm C over the prefix for
#      every job takes about 10 s); and the
#      capped and general-power runs against copies of their old loops
#      (debug builds check 4 of the 16 random instances), plus a tripwire
#      that general-power C and NC finish 50 jobs in under 8 s together
#      (they take about 3 s; re-running general-power C for every NC job
#      takes about a minute)
#   6. audit smoke: every schedule-producing algorithm on a generated
#      trace must pass the independent audit; the parallel algorithms
#      go through the cross-machine auditor, and a deliberately
#      corrupted report must come back non-zero; the kernel gate checks
#      that alpha=2 compiles the specialised quadratic power kernel and
#      that a mis-selected kernel (--corrupt kernel) trips the
#      energy-recomputed check, both at the default cross-check stride and
#      at --cross-check 1, where every integral goes through the
#      early-stopping quadrature tier alone; a scale tripwire audits
#      non-uniform NC on 256 jobs under a 10 s timeout (it takes under a
#      second; re-running Algorithm C on the whole current instance at
#      every integration step takes about 20 s)
#   7. fleet smoke: the sharded multi-machine runners (dispatch log +
#      per-machine pool tasks, DESIGN.md §12) must match the serial
#      runners bitwise and pass the cross-machine audit;
#      a corrupted outcome must come back non-zero naming the tripped
#      check; a linear-time tripwire runs C-PAR and NC-PAR on 50,000
#      jobs at 2 machines under a 30 s timeout (each takes under a
#      second; a dispatcher that re-runs Algorithm C over each
#      machine's history takes minutes); with NCSS_SOAK=1 the full
#      k-sweep study regenerates BENCH_fleet.json and bench-diffs it
#      against the committed baseline (metrics held to float slack)
#   8. stream smoke: the bounded-memory streaming core must match the
#      batch runner bitwise and pass the live O(delta) audit, ingest stdin,
#      and a corrupted streamed objective must exit non-zero under both
#      the audit and the batch cross-check; the default lane always runs
#      a short soak (NCSS_STREAM_SOAK_N=200000) through bench-diff against
#      the committed baseline — unlimited timing headroom (the normalised
#      ns/item report is the comparison), zero tolerance on audit-verdict
#      or metric flips; with NCSS_SOAK=1 the full ≥10M-release
#      flat-memory + audited-throughput soak bench runs too (off by
#      default), bench-diffed against the committed baseline
#   9. replay gate: every committed golden trace replays bitwise and
#      passes the audit, and re-recording the goldens with
#      scripts/generate_golden.sh gives the committed bytes; a flat-memory
#      tripwire records a 100,000-release NC trace (~30 MiB) under a
#      32 MiB address-space cap and replays it under a 64 MiB one, each
#      with a 20 s timeout (each takes well under a second in a few MiB;
#      a recorder or a replay that holds the whole trace aborts at its
#      cap); a tampered golden must go red; for C and NC, a record → kill
#      → resume chain must equal the uninterrupted recording
#  10. bench-diff smoke: each committed BENCH_*.json self-compares to
#      zero regressions (exercises the JSON parser + diff engine on the
#      real artifacts), and the tool's exit-code contract is probed; a
#      soak row's attribution block edited so it no longer sums to its
#      wall time must be a named tool error (exit 2)
#  11. warning-clean `cargo doc --no-deps`
#
# Run from anywhere; it cd's to the repo root.

set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test --workspace --no-fail-fast -q --offline"
cargo test --workspace --no-fail-fast -q --offline

echo "==> cargo test --workspace --doc -q --offline"
cargo test --workspace --doc -q --offline

echo "==> cargo test --release -q --offline --test fault_contract"
fault_start=$(date +%s)
cargo test --release -q --offline --test fault_contract
echo "fault contract wall-time: $(($(date +%s) - fault_start))s"

echo "==> cargo test --release -q --offline --test closed_form_quadrature --test audit_property --test fleet_identity --test nonuniform_identity --test shadow_identity --test generic_and_bounded"
cargo test --release -q --offline --test closed_form_quadrature --test audit_property --test fleet_identity \
    --test nonuniform_identity --test shadow_identity --test generic_and_bounded

echo "==> audit smoke (ncss-cli audit on a generated trace)"
cli=target/release/ncss-cli
trace="$(mktemp /tmp/ncss_verify_trace.XXXXXX.csv)"
trap 'rm -f "$trace"' EXIT
"$cli" generate --n 8 --seed 42 > "$trace"
for algo in c nc active-count newest-first constant:1.5 known-sharing; do
    "$cli" audit --algorithm "$algo" --input "$trace" --alpha 2 > /dev/null \
        || { echo "FAIL: audit rejected $algo" >&2; exit 1; }
done
# The step-integrated algorithm is audited at its honest tolerance.
"$cli" audit --algorithm nc-nonuniform --input "$trace" --alpha 2 --rel-tol 1e-2 > /dev/null \
    || { echo "FAIL: audit rejected nc-nonuniform" >&2; exit 1; }
# Scale tripwire (DESIGN.md §1 S4): each integration step reads Algorithm
# C's speed from a checkpointed nested stream, so 256 jobs (~230k steps)
# run and audit in well under a second; re-running C on the whole current
# instance twice per step takes about 20 s.
nonuniform="$(mktemp /tmp/ncss_verify_nonuniform.XXXXXX.csv)"
"$cli" generate --n 256 --rate 1.5 --volumes exp:1.0 --densities loguniform:0.5:10 --seed 7 > "$nonuniform"
timeout 10 "$cli" audit --algorithm nc-nonuniform --input "$nonuniform" --alpha 3 --rel-tol 1e-2 > /dev/null \
    || { echo "FAIL: nc-nonuniform audit of 256 jobs failed or took over 10 s" >&2; rm -f "$nonuniform"; exit 1; }
rm -f "$nonuniform"
echo "audit smoke passed"

echo "==> kernel gate (compiled power-kernel strategy)"
# alpha = 2 must compile the specialised quadratic chains — the soak
# bench's attribution and the audit's shared-kernel doctrine (DESIGN.md
# §13) both assume the selection table.
"$cli" run --algorithm c --input "$trace" --alpha 2 | grep -q "kernel = quadratic" \
    || { echo "FAIL: alpha=2 did not report the quadratic kernel" >&2; exit 1; }
# Mandatory-red probes: a mis-selected kernel (reports alpha = 2, evaluates
# with the cubic chains) must trip the honest energy re-derivation, at the
# default cross-check stride and at stride 1, where every integral is
# measured by the early-stopping tanh-sinh quadrature (DESIGN.md §8.4)
# alone.
kern_log="$(mktemp /tmp/ncss_verify_kern.XXXXXX.log)"
for stride_flag in "" "--cross-check 1"; do
    # shellcheck disable=SC2086 # the empty flag must vanish, not become ""
    if "$cli" audit --algorithm c --input "$trace" --alpha 2 --corrupt kernel \
            $stride_flag > "$kern_log" 2>&1; then
        echo "FAIL: mis-selected kernel passed the audit [$stride_flag]" >&2
        rm -f "$kern_log"; exit 1
    fi
    grep -q "energy-recomputed" "$kern_log" \
        || { echo "FAIL: kernel probe [$stride_flag] did not name energy-recomputed" >&2; rm -f "$kern_log"; exit 1; }
done
rm -f "$kern_log"
echo "kernel gate passed"

echo "==> multi-machine audit smoke (cross-machine auditor via ncss-cli)"
for algo in c-par nc-par dispatch; do
    "$cli" audit --algorithm "$algo" --machines 3 --input "$trace" --alpha 2 > /dev/null \
        || { echo "FAIL: multi audit rejected $algo" >&2; exit 1; }
done
# A corrupted report must be rejected (non-zero exit) by the same gate.
if "$cli" audit --algorithm nc-par --machines 3 --input "$trace" --alpha 2 \
        --corrupt energy > /dev/null 2>&1; then
    echo "FAIL: corrupted nc-par report passed the multi audit" >&2
    exit 1
fi
echo "multi audit smoke passed"

echo "==> fleet smoke (sharded runners vs serial, cross-machine audit gate)"
# Every sharded algorithm on a small fleet must reproduce the serial runner
# bit for bit (the command itself enforces --check-serial 1 by default) and
# pass the cross-machine audit.
for algo in c-par nc-par dispatch; do
    "$cli" fleet --algorithm "$algo" --machines 4 --threads 3 --input "$trace" \
        --alpha 2 > /dev/null \
        || { echo "FAIL: sharded $algo diverged from serial or failed audit" >&2; exit 1; }
done
# Mandatory-red probe: a corrupted sharded outcome must exit non-zero AND
# name the tripped check in the report.
fleet_log="$(mktemp /tmp/ncss_verify_fleet.XXXXXX.log)"
if "$cli" fleet --algorithm nc-par --machines 4 --input "$trace" --alpha 2 \
        --corrupt energy > /dev/null 2> "$fleet_log"; then
    echo "FAIL: corrupted sharded outcome passed the fleet audit" >&2
    rm -f "$fleet_log"; exit 1
fi
grep -q "energy-recomputed" "$fleet_log" \
    || { echo "FAIL: fleet audit rejection did not name energy-recomputed" >&2; rm -f "$fleet_log"; exit 1; }
# A phantom duplicate machine timeline must trip the cross-machine check.
if "$cli" fleet --algorithm c-par --machines 4 --input "$trace" --alpha 2 \
        --corrupt schedule > /dev/null 2> "$fleet_log"; then
    echo "FAIL: duplicated machine timeline passed the fleet audit" >&2
    rm -f "$fleet_log"; exit 1
fi
grep -q "no-double-service" "$fleet_log" \
    || { echo "FAIL: fleet audit rejection did not name no-double-service" >&2; rm -f "$fleet_log"; exit 1; }
rm -f "$fleet_log"
# Linear-time tripwire (DESIGN.md §12.2): with each machine's K_j read from
# its shadow stream, 50,000 jobs on two machines take under a second per
# algorithm; re-running Algorithm C over a machine's history on every
# dispatch is quadratic and would take minutes.
big="$(mktemp /tmp/ncss_verify_big.XXXXXX.csv)"
"$cli" generate --n 50000 --rate 4 --volumes exp:1.0 --seed 1 > "$big"
for algo in c-par nc-par; do
    timeout 30 "$cli" fleet --algorithm "$algo" --machines 2 --input "$big" > /dev/null \
        || { echo "FAIL: fleet $algo on 50,000 jobs failed or took over 30 s" >&2; rm -f "$big"; exit 1; }
done
rm -f "$big"
echo "fleet smoke passed"

echo "==> stream smoke (bounded-memory streaming vs batch, bitwise)"
# The streamed run must agree with the batch runner bitwise and pass the
# live audit; stdin ingestion must work; a deliberately skewed objective
# must turn both gates red (non-zero exit).
for algo in c nc; do
    "$cli" stream --algorithm "$algo" --input "$trace" --alpha 2 \
        --check-batch 1 --audit 1 > /dev/null \
        || { echo "FAIL: stream $algo diverged from batch or failed audit" >&2; exit 1; }
done
"$cli" stream --algorithm c --input - --alpha 2 --assert-active 64 < "$trace" > /dev/null \
    || { echo "FAIL: stream could not ingest stdin" >&2; exit 1; }
# The `incremental` alias of --audit 1 (the spelling the benchmark uses)
# rides the bounded-memory configuration and must pass on honest runs.
for algo in c nc; do
    "$cli" stream --algorithm "$algo" --input "$trace" --alpha 2 \
        --audit incremental > /dev/null \
        || { echo "FAIL: stream $algo failed the incremental audit" >&2; exit 1; }
done
# Mandatory-red probe: the incremental auditor must reject a corrupted
# streamed objective with a non-zero exit and a named check.
inc_log="$(mktemp /tmp/ncss_verify_inc.XXXXXX.log)"
if "$cli" stream --algorithm c --input "$trace" --alpha 2 \
        --audit incremental --corrupt energy > /dev/null 2> "$inc_log"; then
    echo "FAIL: corrupted streamed objective passed the incremental audit" >&2
    rm -f "$inc_log"; exit 1
fi
grep -q "energy-recomputed" "$inc_log" \
    || { echo "FAIL: incremental audit rejection did not name energy-recomputed" >&2; rm -f "$inc_log"; exit 1; }
rm -f "$inc_log"
if "$cli" stream --algorithm c --input "$trace" --alpha 2 \
        --check-batch 1 --corrupt energy > /dev/null 2>&1; then
    echo "FAIL: corrupted streamed objective passed the batch cross-check" >&2
    exit 1
fi
if "$cli" stream --algorithm nc --input "$trace" --alpha 2 \
        --audit 1 --corrupt energy > /dev/null 2>&1; then
    echo "FAIL: corrupted streamed objective passed the audit" >&2
    exit 1
fi
echo "stream smoke passed"

echo "==> short soak gate (perf_stream at 200k releases through bench-diff)"
# A fast always-on cut of the 10M soak: regenerate BENCH_stream.json at
# 200k releases and bench-diff it against the committed full-length
# baseline. Raw quantiles get unlimited headroom (a shorter soak is just
# faster; the normalised ns/item throughput report is the real
# comparison), but an audit-verdict flip, a drifted metric, or a vanished
# row fails with zero tolerance.
short_out="$(mktemp -d /tmp/ncss_verify_short.XXXXXX)"
NCSS_STREAM_SOAK_N=200000 NCSS_BENCH_DIR="$short_out" \
    cargo bench --offline -p ncss-bench --bench perf_stream > /dev/null
target/release/bench-diff BENCH_stream.json "$short_out/BENCH_stream.json" \
    --threshold 1000000 --floor-ns 100000000000 \
    || { echo "FAIL: short soak flipped a verdict/metric vs the committed baseline" >&2; rm -rf "$short_out"; exit 1; }
rm -rf "$short_out"
echo "short soak gate passed"

echo "==> replay gate (committed golden traces + crash/tamper probes)"
# Every committed golden trace must strict-read, replay with bitwise-equal
# completions/objectives, and pass the independent audit — offline, no
# regeneration. A scheduler change that moves one mantissa bit goes red.
golden_count=0
for golden in traces/*.nct; do
    [ -f "$golden" ] || { echo "FAIL: no committed golden traces under traces/" >&2; exit 1; }
    golden_count=$((golden_count + 1))
    "$cli" replay --trace "$golden" --audit 1 > /dev/null \
        || { echo "FAIL: golden $golden does not replay bitwise" >&2; exit 1; }
done
echo "replayed $golden_count golden traces bitwise"
# Byte identity: the generator, run into a temporary directory with its own
# argument lists, must reproduce every committed golden exactly.
golden_dir="$(mktemp -d /tmp/ncss_verify_golden.XXXXXX)"
sh scripts/generate_golden.sh "$golden_dir" > /dev/null \
    || { echo "FAIL: scripts/generate_golden.sh could not re-record the goldens" >&2; rm -rf "$golden_dir"; exit 1; }
for golden in traces/*.nct; do
    cmp -s "$golden" "$golden_dir/$(basename "$golden")" \
        || { echo "FAIL: $golden does not re-record byte-identically" >&2; rm -rf "$golden_dir"; exit 1; }
done
rm -rf "$golden_dir"
echo "re-recorded $golden_count golden traces byte-identically"
# Flat-memory tripwire (DESIGN.md §10.2, §10.3): record encodes each frame
# into one reused buffer and drains the segment ring after every offer, and
# replay reads one frame at a time and keeps only the jobs active at once,
# so this ~32 MB trace records in under 8 MiB of address space and replays
# in a few MiB. Record runs under 32 MiB, which a recorder whose frame
# buffer grows instead of being reused exceeds (the trace alone fills
# it; under 64 MiB such a recorder still passes). Replay runs under
# 64 MiB; a replay that holds the file, its decoded events or an
# ever-growing segment ring needs over 100 MiB.
flat_csv="$(mktemp /tmp/ncss_verify_flat.XXXXXX.csv)"
flat_nct="$(mktemp /tmp/ncss_verify_flat.XXXXXX.nct)"
"$cli" generate --n 100000 --rate 4 --volumes exp:1.0 --seed 1 > "$flat_csv"
( ulimit -v 32768 && exec timeout 20 "$cli" record --algorithm nc --alpha 3 \
        --input "$flat_csv" --out "$flat_nct" > /dev/null ) \
    || { echo "FAIL: record of a 100,000-release NC trace exceeded 32 MiB or 20 s" >&2; rm -f "$flat_csv" "$flat_nct"; exit 1; }
( ulimit -v 65536 && exec timeout 20 "$cli" replay --trace "$flat_nct" > /dev/null ) \
    || { echo "FAIL: replay of a 100,000-release NC trace exceeded 64 MiB or 20 s" >&2; rm -f "$flat_csv" "$flat_nct"; exit 1; }
rm -f "$flat_csv" "$flat_nct"
echo "recorded a 100,000-release NC trace under a 32 MiB cap and replayed it under 64 MiB"
# Mandatory-red probe: a tampered golden must be rejected with a named
# trace error and a non-zero exit. Silent acceptance fails the gate.
nct_tmp="$(mktemp /tmp/ncss_verify_tamper.XXXXXX.nct)"
for kind in bit-flip truncate duplicate-frame reorder-frames bad-length stale-version; do
    "$cli" tamper --trace traces/c_alpha2.nct --out "$nct_tmp" --kind "$kind" --seed 7 > /dev/null
    if "$cli" replay --trace "$nct_tmp" > /dev/null 2>&1; then
        echo "FAIL: $kind-tampered golden replayed as clean" >&2
        rm -f "$nct_tmp"; exit 1
    fi
done
# Crash chain, per algorithm: record, kill mid-run leaving a torn tail,
# resume from the last checkpoint, and require the resumed trace to equal
# an uninterrupted recording event-for-event.
full_tmp="$(mktemp /tmp/ncss_verify_full.XXXXXX.nct)"
torn_tmp="$(mktemp /tmp/ncss_verify_torn.XXXXXX.nct)"
res_tmp="$(mktemp /tmp/ncss_verify_resumed.XXXXXX.nct)"
cleanup_nct() { rm -f "$nct_tmp" "$full_tmp" "$torn_tmp" "$res_tmp"; }
for algo in c nc; do
    "$cli" record --synthetic 64 --rate 1.3 --seed 4242 --algorithm "$algo" --alpha 2.5 \
        --checkpoint-every 9 --out "$full_tmp" > /dev/null \
        || { echo "FAIL: record $algo could not write a trace" >&2; cleanup_nct; exit 1; }
    "$cli" record --synthetic 64 --rate 1.3 --seed 4242 --algorithm "$algo" --alpha 2.5 \
        --checkpoint-every 9 --kill-after 37 --torn-bytes 17 --out "$torn_tmp" > /dev/null \
        || { echo "FAIL: kill-after recording ($algo) failed" >&2; cleanup_nct; exit 1; }
    "$cli" resume --trace "$torn_tmp" --synthetic 64 --rate 1.3 --seed 4242 \
        --checkpoint-every 9 --out "$res_tmp" > /dev/null \
        || { echo "FAIL: resume could not recover the torn $algo trace" >&2; cleanup_nct; exit 1; }
    "$cli" replay --trace "$res_tmp" --audit 1 --check-against "$full_tmp" > /dev/null \
        || { echo "FAIL: resumed $algo trace is not bitwise-equal to the uninterrupted run" >&2; cleanup_nct; exit 1; }
done
cleanup_nct
echo "replay gate passed"

# Soak gate, opt-in (NCSS_SOAK=1): pushes NCSS_STREAM_SOAK_N (default 10M)
# releases through each streaming core with flat-memory assertions; writes
# BENCH_stream.json. Too slow for the default CI lane.
if [ "${NCSS_SOAK:-0}" = "1" ]; then
    echo "==> soak bench (cargo bench -p ncss-bench --bench perf_stream)"
    bench_out="$(mktemp -d /tmp/ncss_verify_bench.XXXXXX)"
    NCSS_BENCH_DIR="$bench_out" cargo bench --offline -p ncss-bench --bench perf_stream
    # Bench-diff the fresh artifact against the committed baseline with
    # generous timing headroom (soak boxes vary wildly) but zero tolerance
    # for audit-verdict flips or vanished rows.
    target/release/bench-diff BENCH_stream.json "$bench_out/BENCH_stream.json" \
        --threshold 10000 --floor-ns 1000000000 \
        || { echo "FAIL: fresh soak artifact regressed vs committed baseline" >&2; rm -rf "$bench_out"; exit 1; }
    echo "==> fleet k-sweep bench (cargo bench -p ncss-bench --bench perf_fleet)"
    # Regenerate the k ∈ {2..4096} sharded study and hold it to the committed
    # baseline: generous timing headroom, but the deterministic `metrics`
    # columns (degradation ratios, lower-bound envelopes, log-log slopes) are
    # compared to float slack — any real drift means the algorithm changed.
    NCSS_BENCH_DIR="$bench_out" cargo bench --offline -p ncss-bench --bench perf_fleet
    target/release/bench-diff BENCH_fleet.json "$bench_out/BENCH_fleet.json" \
        --threshold 10000 --floor-ns 1000000000 \
        || { echo "FAIL: fresh fleet k-sweep regressed vs committed baseline" >&2; rm -rf "$bench_out"; exit 1; }
    rm -rf "$bench_out"
    echo "soak bench passed"
fi

echo "==> bench-diff smoke (committed BENCH_*.json self-compare)"
bench_diff=target/release/bench-diff
for artifact in BENCH_*.json; do
    [ -f "$artifact" ] || { echo "FAIL: no committed BENCH_*.json artifacts" >&2; exit 1; }
    "$bench_diff" "$artifact" "$artifact" > /dev/null \
        || { echo "FAIL: bench-diff flagged $artifact against itself" >&2; exit 1; }
done
# Exit-code contract: a missing file is a usage error (2), not a diff.
if "$bench_diff" BENCH_algorithms.json /nonexistent.json > /dev/null 2>&1; then
    echo "FAIL: bench-diff accepted a nonexistent candidate" >&2
    exit 1
fi
# Verdict-flip probe: an audit that goes pass→fail must be a regression
# (exit 1) no matter how generous the timing thresholds are.
bench_tmp="$(mktemp /tmp/ncss_verify_bench.XXXXXX.json)"
sed 's/"audit":"pass"/"audit":"fail"/' BENCH_algorithms.json > "$bench_tmp"
rc=0
"$bench_diff" BENCH_algorithms.json "$bench_tmp" --threshold 10000 --floor-ns 1000000000 \
    > /dev/null 2>&1 || rc=$?
if [ "$rc" != "1" ]; then
    echo "FAIL: bench-diff exit $rc on an audit verdict flip (want 1)" >&2
    rm -f "$bench_tmp"; exit 1
fi
# Metric-drift probe: a deterministic `metrics` scalar (schema /4) that
# moves past float slack — here every fleet row's job count — must be a
# regression (exit 1) regardless of timing headroom.
sed 's/"jobs":[0-9.e+-]*/"jobs":1e0/g' BENCH_fleet.json > "$bench_tmp"
rc=0
"$bench_diff" BENCH_fleet.json "$bench_tmp" --threshold 10000 --floor-ns 1000000000 \
    > /dev/null 2>&1 || rc=$?
if [ "$rc" != "1" ]; then
    echo "FAIL: bench-diff exit $rc on a drifted fleet metric (want 1)" >&2
    rm -f "$bench_tmp"; exit 1
fi
# Schema-drift probe: an unknown ncss-bench/N is a named tool error (exit
# 2), never a parse panic and never a silent pass. Version-agnostic so the
# probe survives schema bumps of the committed artifacts.
sed 's|"schema":"ncss-bench/[0-9]*"|"schema":"ncss-bench/9"|' BENCH_algorithms.json > "$bench_tmp"
rc=0
"$bench_diff" BENCH_algorithms.json "$bench_tmp" > /dev/null 2>&1 || rc=$?
if [ "$rc" != "2" ]; then
    echo "FAIL: bench-diff exit $rc on schema drift (want 2)" >&2
    rm -f "$bench_tmp"; exit 1
fi
# Attribution probe: appending a digit to the first soak row's other_ns
# breaks calls + timer + other = wall_ns, which must be a named tool
# error (exit 2), never a silent pass.
bench_log="$(mktemp /tmp/ncss_verify_bench.XXXXXX.log)"
sed 's/"other_ns":\([0-9]*\)/"other_ns":\11/' BENCH_stream.json > "$bench_tmp"
rc=0
"$bench_diff" BENCH_stream.json "$bench_tmp" > /dev/null 2> "$bench_log" || rc=$?
if [ "$rc" != "2" ] || ! grep -q "does not reconcile" "$bench_log"; then
    echo "FAIL: bench-diff exit $rc on an attribution that does not reconcile (want 2, named)" >&2
    rm -f "$bench_tmp" "$bench_log"; exit 1
fi
rm -f "$bench_tmp" "$bench_log"
echo "bench-diff smoke passed"

echo "==> cargo doc --workspace --no-deps --offline (must be warning-clean)"
doc_log="$(RUSTDOCFLAGS="${RUSTDOCFLAGS:-}" cargo doc --workspace --no-deps --offline 2>&1)" || {
    printf '%s\n' "$doc_log"
    exit 1
}
printf '%s\n' "$doc_log"
if printf '%s\n' "$doc_log" | grep -q "^warning"; then
    echo "FAIL: cargo doc emitted warnings" >&2
    exit 1
fi

echo "verify.sh: all gates passed"
