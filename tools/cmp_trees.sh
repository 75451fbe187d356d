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
# It ends with each tree's `table1_code_size --json`, A beside B: implementation
# and test lines, public items and the unused ones, for the workspace and for
# every crate where any of the four differs. That table is for the PR text; it
# does not change the exit status.
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

# One "name impl_loc test_loc public_items unused" row per crate, then the
# workspace total's, from the tree at $1 (the binary counts the tree it was
# built in).
size_rows() {
    "$1/target/release/table1_code_size" --json | awk '
        function number(key) {
            match($0, "\"" key "\": [0-9]+")
            return substr($0, RSTART + length(key) + 4, RLENGTH - length(key) - 4)
        }
        /"impl_loc"/ {
            name = "workspace"
            if (match($0, /"crate": "[^"]*"/)) name = substr($0, RSTART + 10, RLENGTH - 11)
            unused = $0
            sub(/.*"unused": \[/, "", unused)
            print name, number("impl_loc"), number("test_loc"), number("public_items"), \
                gsub(/"[^"]*"/, "", unused)
        }'
}
size_rows "$tree_a" >"$out/size_a.txt"
size_rows "$tree_b" >"$out/size_b.txt"
echo
echo "code size, A | B (table1_code_size --json)"
awk '
    BEGIN { printf "%-16s %15s %15s %15s %9s\n", "", "impl_loc", "test_loc", "public_items", "unused" }
    NR == FNR { a[$1] = $2 " " $3 " " $4 " " $5; next }
    { b = $2 " " $3 " " $4 " " $5; split($1 in a ? a[$1] : "- - - -", x, " ") }
    $1 == "workspace" || a[$1] != b {
        printf "%-16s %7s %7s %7s %7s %7s %7s %4s %4s\n", $1, x[1], $2, x[2], $3, x[3], $4, x[4], $5
    }' "$out/size_a.txt" "$out/size_b.txt"
[ "$differing" -eq 0 ]
