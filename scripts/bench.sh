#!/usr/bin/env bash
# Tracked-benchmark wrapper: builds the perf_report harness, runs it, and
# writes the next results/BENCH_N.json in the repo's benchmark trajectory.
#
#   scripts/bench.sh           # full kernels, writes results/BENCH_<next>.json
#   scripts/bench.sh --quick   # CI smoke: tiny iteration counts, prints only
#
# Checked-in BENCH files should come from a quiet machine; --quick runs are
# for validating that the harness builds and emits parseable JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p hb_bench --bin perf_report

if [[ "${1:-}" == "--quick" ]]; then
    ./target/release/perf_report --quick
    exit 0
fi

mkdir -p results
# Next number = highest existing + 1, never a gap: the trajectory is
# ordered by number, so each run must land after every earlier one.
last=1
for f in results/BENCH_*.json; do
    n="${f#results/BENCH_}"
    n="${n%.json}"
    if [[ "$n" =~ ^[0-9]+$ ]] && ((n > last)); then
        last=$n
    fi
done
next=$((last + 1))
./target/release/perf_report --out "results/BENCH_${next}.json"
echo "benchmark trajectory: $(ls results/BENCH_*.json | sort -t_ -k2 -n | tr '\n' ' ')"
