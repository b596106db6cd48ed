#!/usr/bin/env bash
# Build ncss-cli and the benchmark from source, then run the benchmark with
# the given arguments. Run from the repository root. Both binaries land in
# the same target directory, where the benchmark finds ncss-cli.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ncss-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
