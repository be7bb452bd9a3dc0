#!/usr/bin/env bash
# The repository benchmark: builds `sigma-daemon` and `sigma-benchmark` in
# release with default features, then runs it. See benchmark/README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its result
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--runs R]
#                    [--sets 2] [--traced] [--held-out]
#       every workload, each run in its own process; one JSON document
#   benchmark/run.sh compare A.json B.json
#       judges two such documents against the benchmark's bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, inside the checkout.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p sigma-daemon --bin sigma-daemon >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bench="$target/release/sigma-benchmark"
daemon="$target/release/sigma-daemon"
out="$here/out"

mode=suite
for arg in "$@"; do
    [ "$arg" = "--trace" ] && mode=run
done
if [ "${1:-}" = "compare" ]; then
    exec "$bench" "$@"
fi
exec "$bench" "$mode" "$@" --daemon "$daemon" --out "$out"
