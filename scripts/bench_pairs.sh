#!/usr/bin/env bash
# Alternating pairs of request-level benchmark runs: a parent build against
# a change build, on one workload and seed.
#
# Usage:
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS [ARGS...]
#
# PARENT_BIN and CHANGE_BIN are built benchmark binaries (each built from
# its own checkout with `cargo build --release --offline --manifest-path
# crates/bench/src/bin/benchmark/Cargo.toml`). Both are copied into one
# fresh temporary directory under names of equal length and run from
# there: small ops read up to ~25% apart when two binaries run from paths
# of different length, even on unchanged code.
#
# Each pair runs BENCHMARK.json's invocation once per side,
#   --workload WORKLOAD --seed SEED --seconds 10 --trace 0 [ARGS...]
# alternating which side starts, and writes each record with --out into
# the directory. A run that exits non-zero stops the script and shows its
# output. At the end the script prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles and how many pairs the
# change won, then runs the benchmark's own --compare on the two sets of
# runs. The records stay in the directory, whose path is printed. The exit
# status is 0 once every run and the comparison ran; a `worse` verdict is
# printed, not turned into a failure.
set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent_bin=$1
change_bin=$2
workload=$3
seed=$4
pairs=$5
shift 5
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "bench_pairs: PAIRS must be a positive whole number, not \`$pairs'" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
dir=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
cp "$parent_bin" "$dir/base"
cp "$change_bin" "$dir/edit"
cd "$dir"

run() { # side pair
    local log="$1-$2.log"
    if ! "./$1" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 \
        --out "$1-$2.json" "${@:3}" > "$log" 2>&1; then
        echo "bench_pairs: $1 run $2 failed; its output:" >&2
        cat "$log" >&2
        exit 1
    fi
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="base edit"; else order="edit base"; fi
    for side in $order; do
        run "$side" "$i" "$@"
    done
    echo "pair $i/$pairs done ($order)"
done

python3 - "$root/BENCHMARK.json" "$pairs" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
pairs = int(sys.argv[2])

def value(side, i, name):
    return json.load(open(f"{side}-{i}.json"))["metrics"][name]["value"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{'metric':<16} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'ratio':>7} {'won':>7}")
for metric in spec["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    base = [value("base", i, name) for i in range(1, pairs + 1)]
    edit = [value("edit", i, name) for i in range(1, pairs + 1)]
    won = sum((e > b) if higher else (e < b) for b, e in zip(base, edit))
    cells = []
    for xs in (base, edit):
        q1, q3 = quartiles(xs)
        cells.append(f"{statistics.median(xs):.4g} [{q1:.4g}, {q3:.4g}]")
    ratio = statistics.median(edit) / statistics.median(base)
    print(f"{name:<16} {cells[0]:>34} {cells[1]:>34} {ratio:>6.3f}x {won:>3}/{pairs}")
EOF

# --compare reads documents keyed by workload, as a run over all workloads
# writes them; wrap each single-workload record in one.
list() { # side
    local runs=()
    for ((i = 1; i <= pairs; i++)); do
        printf '{"workloads": {"%s": %s}}\n' "$workload" "$(cat "$1-$i.json")" > "$1-$i.doc.json"
        runs+=("$1-$i.doc.json")
    done
    (IFS=,; echo "${runs[*]}")
}
echo "records in $dir"
status=0
./edit --compare "$(list base)" "$(list edit)" || status=$?
# --compare exits 1 when a metric reads worse beyond its bound: a verdict to
# read in the table, not a failed run. Anything else is an error.
if [ "$status" -eq 1 ]; then
    echo "bench_pairs: --compare reads a metric worse beyond its bound"
elif [ "$status" -ne 0 ]; then
    exit "$status"
fi
