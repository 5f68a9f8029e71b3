#!/bin/sh
# Quick-mode goldens of the ten catalog benches (Figs 7/8, Tables
# 1/3/4, Figs 13-17): text and --format json for each, plus two
# sampled JSON plans, under tests/golden/catalog/.
#
#   tests/golden/regen.sh [BENCH_DIR]
#       rewrite every golden from the binaries in BENCH_DIR
#       (default: build/bench), running each bench serially;
#   tests/golden/regen.sh --check BENCH_DIR NAME
#       rerun golden NAME (e.g. fig13_lu.json) at --jobs 2 and diff
#       it against the committed file; ctest runs one per golden.
#
# A change that moves a number shows up as a diff of these files.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
out="$here/catalog"

# One line per golden: NAME BENCH ARGS...
manifest() {
    for b in fig7_icache_miss fig8_dcache_miss table1_ss5_vs_ss10 \
             table3_spec_estimates table4_spec_estimates_vc \
             fig13_lu fig14_mp3d fig15_ocean fig16_water fig17_pthor; do
        echo "$b.txt $b --quick"
        echo "$b.json $b --quick --format json"
    done
    # The sampled plans CI and EXPERIMENTS.md use.
    echo "fig7_icache_miss.sampled.json fig7_icache_miss --quick" \
         "--sample U=500,W=1000,k=20 --format json"
    echo "fig13_lu.sampled.json fig13_lu --quick" \
         "--sample U=500,W=1000,k=50 --format json"
}

if [ "${1:-}" = "--check" ]; then
    [ $# -eq 3 ] || { echo "usage: $0 --check BENCH_DIR NAME" >&2; exit 2; }
    bench_dir=$2 name=$3
    line=$(manifest | awk -v n="$name" '$1 == n')
    [ -n "$line" ] || { echo "$0: no golden named '$name'" >&2; exit 2; }
    # shellcheck disable=SC2086 # split the manifest line into words
    set -- $line
    bench=$2
    shift 2
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    "$bench_dir/$bench" "$@" --jobs 2 > "$tmp"
    diff -u "$out/$name" "$tmp"
    exit
fi

bench_dir=${1:-build/bench}
mkdir -p "$out"
manifest | while read -r name bench args; do
    # shellcheck disable=SC2086 # args is a word list
    "$bench_dir/$bench" $args --jobs 1 > "$out/$name"
    echo "wrote $out/$name"
done
