#!/usr/bin/env bash
# Compare every deterministic output surface of two source trees.
#
#   tools/cmp_trees.sh A B        # e.g. a `git clone` of the parent, and .
#   tools/cmp_trees.sh . .        # two runs of one tree: run-to-run determinism
#
# In each tree (built here with `cargo build --release` if it is not yet) this
# runs `sweep_matrix` at 1 and 4 threads, `load_engine` with its trace and
# stream dumps, `fig05`, `fig07`-`fig13` and the five examples, then `cmp`s
# each pair. Every differing surface is printed with its first differing
# line; the exit status is non-zero if any differ. `BENCH_engine.json` is
# compared without its wall-clock fields. `fig06a`/`fig06b` print wall-clock
# ratios and are never compared.
#
# Outputs stay in $CMP_OUT (default: a fresh temporary directory) as a/ and
# b/, so `diff a/X b/X` shows everything that moved on a surface.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 TREE_A TREE_B" >&2
    exit 2
fi
tree_a=$(cd "$1" && pwd)
tree_b=$(cd "$2" && pwd)
out=${CMP_OUT:-$(mktemp -d)}

figures="fig05_throughput fig07_voip_latency_cdf fig08_voip_burst_cdf fig09_voip_pesq
fig10_priority_delay fig11_vpn_throughput fig12_vpn_decomposition fig13_web_multistream"
examples="quickstart priority_messaging voip_conference vpn_tunnel web_multistream"

# Run every surface of the tree at $1, writing into the directory $2.
run_tree() {
    local tree=$1 dir=$2 bin=$1/target/release
    (cd "$tree" && cargo build --release --locked --offline --quiet --bins --examples)
    rm -rf "$dir"
    mkdir -p "$dir"
    (
        cd "$dir"
        "$bin/sweep_matrix" --threads 1,4 --cc newreno,cubic,none \
            --report-prefix sweep --out BENCH_sweep.json >/dev/null
        "$bin/load_engine" --flows 1,64,1024 --threads 4 --cc newreno,cubic,none \
            --out BENCH_engine.full.json \
            --trace-out trace.jsonl --trace-stream stream.jsonl >/dev/null
        grep -v -E '"(wall_ms|events_per_wall_sec|phase_nanos)"' BENCH_engine.full.json \
            >BENCH_engine.json
        for fig in $figures; do
            "$bin/$fig" >"$fig.txt"
        done
        for example in $examples; do
            "$bin/examples/$example" >"example_$example.txt"
        done
        # Wall-clock throughput, and the unfiltered copy of what was compared.
        rm BENCH_sweep.json BENCH_engine.full.json
    )
}

run_tree "$tree_a" "$out/a"
run_tree "$tree_b" "$out/b"

differing=0
for path in "$out"/a/*; do
    surface=$(basename "$path")
    if ! cmp -s "$path" "$out/b/$surface"; then
        differing=$((differing + 1))
        line=$(cmp "$path" "$out/b/$surface" | sed -n 's/.* line \([0-9]*\)$/\1/p' || true)
        echo "DIFFERS $surface (first at line ${line:-EOF})"
        if [ -n "$line" ]; then
            echo "  a: $(sed -n "${line}p" "$path" | cut -c1-240)"
            echo "  b: $(sed -n "${line}p" "$out/b/$surface" | cut -c1-240)"
        fi
    fi
done
total=$(find "$out/a" -type f | wc -l)
echo "$((total - differing)) of $total surfaces identical; outputs in $out"
[ "$differing" -eq 0 ]
