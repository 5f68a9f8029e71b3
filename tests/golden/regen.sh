#!/bin/sh
# Committed quick-mode goldens under tests/golden/: text and
# --format json of the ten catalog benches (Figs 7/8, Tables 1/3/4,
# Figs 13-17) plus two sampled JSON plans in catalog/, the JSON of
# the sampled-simulation crosscheck and the fault campaign, the text
# of the four CC-NUMA ablations (Simple-COMA, fabric contention, INC
# capacity and INC associativity), and the text of the five
# GSPN-driven benches outside the catalog (Figures 11 and 12, the
# Section 5.6 bank sweep, the GSPN/pipeline crosscheck and the
# scoreboarding ablation), Figure 12's also at --refs 100000.
#
#   tests/golden/regen.sh [BENCH_DIR]
#       rewrite every golden from the binaries in BENCH_DIR
#       (default: build/bench), running each bench serially;
#   tests/golden/regen.sh --check BENCH_DIR NAME
#       rerun golden NAME (its file name, e.g. fig13_lu.json) at
#       --jobs 2 and diff it against the committed file; ctest runs
#       one per golden.
#
# A change that moves a number shows up as a diff of these files.
set -eu

here=$(cd "$(dirname "$0")" && pwd)

# One line per golden: FILE BENCH ARGS..., FILE relative to $here.
manifest() {
    for b in fig7_icache_miss fig8_dcache_miss table1_ss5_vs_ss10 \
             table3_spec_estimates table4_spec_estimates_vc \
             fig13_lu fig14_mp3d fig15_ocean fig16_water fig17_pthor; do
        echo "catalog/$b.txt $b --quick"
        echo "catalog/$b.json $b --quick --format json"
    done
    # The systematic plan CI and EXPERIMENTS.md use.
    echo "catalog/fig7_icache_miss.sampled.json fig7_icache_miss" \
         "--quick --sample U=500,W=1000,k=20 --format json"
    # The stratified plan server-catalog serves.
    echo "catalog/fig8_dcache_miss.strat.json fig8_dcache_miss" \
         "--quick --sample mode=strat,n=6,U=500,W=1000 --format json"
    echo "sampling_crosscheck_quick.json" \
         "validation_sampling_crosscheck --quick --format json"
    echo "fault_campaign_quick.json validation_fault_campaign --quick" \
         "--format json"
    # The only end-to-end outputs of the Simple-COMA, contended-fabric
    # and INC-geometry paths, and the GSPN-driven benches outside the
    # catalog.
    for b in ablation_scoma ablation_contention ablation_inc_capacity \
             ablation_inc_assoc fig11_cache_latency_impact \
             fig12_memory_latency_impact sec56_bank_sweep \
             validation_cpi_crosscheck ablation_scoreboard; do
        echo "${b}_quick.txt $b --quick"
    done
    # --refs sets the measured window of the SPEC/GSPN benches.
    echo "fig12_memory_latency_impact_refs.txt" \
         "fig12_memory_latency_impact --quick --refs 100000"
}

if [ "${1:-}" = "--check" ]; then
    [ $# -eq 3 ] || { echo "usage: $0 --check BENCH_DIR NAME" >&2; exit 2; }
    bench_dir=$2 name=$3
    line=$(manifest | awk -v n="$name" \
        '{ f = $1; sub(/.*\//, "", f) } f == n')
    [ -n "$line" ] || { echo "$0: no golden named '$name'" >&2; exit 2; }
    # shellcheck disable=SC2086 # split the manifest line into words
    set -- $line
    file=$1 bench=$2
    shift 2
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    "$bench_dir/$bench" "$@" --jobs 2 > "$tmp"
    diff -u "$here/$file" "$tmp"
    exit
fi

bench_dir=${1:-build/bench}
manifest | while read -r file bench args; do
    mkdir -p "$(dirname "$here/$file")"
    # shellcheck disable=SC2086 # args is a word list
    "$bench_dir/$bench" $args --jobs 1 > "$here/$file"
    echo "wrote $here/$file"
done
