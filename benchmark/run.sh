#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload through both binaries: prints every metric by name
#       with its unit, verifies outputs, writes benchmark/out/{e2e,layers}.json
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, as the driver runs it: --trace 0 is the timed run
#       (end-to-end metrics), --trace 1 the traced run (per-layer metrics);
#       the last line of standard output is the result as one JSON object
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build from source where we stand; cargo's own output goes to stderr so the
# result stays the last line of stdout. A relative CARGO_TARGET_DIR is
# relative to the caller's directory, for cargo and for us alike.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release"

trace=0
workload=
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --trace) trace="${args[i + 1]:-0}" ;;
        --workload) workload="${args[i + 1]:-}" ;;
    esac
done

if [[ -n "$workload" ]]; then
    if [[ "$trace" == 1 ]]; then
        exec "$bin/bench-layers" "$@" --out "$here/out"
    fi
    exec "$bin/bench-e2e" "$@"
fi

"$bin/bench-e2e" "$@" --out "$here/out"
"$bin/bench-layers" "$@" --out "$here/out"
