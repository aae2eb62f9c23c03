#!/usr/bin/env bash
# Paired benchmark runs of two revisions: the evidence a gain or a
# no-regression claim stands on.
#
#   make pairs BASE=<rev> [CHANGE=<rev>] WORKLOAD=<name> SEEDS="<seed> ..." [METRIC=<name>]
#   [METRIC=<name>] bash scripts/pairs.sh <base-rev> <change-rev> <workload> <seed>...
#
# Both revisions are exported from git (git archive) into two sibling
# directories of one scratch directory, PAIRS_DIR (default
# $TMPDIR/axml-pairs, emptied first), so the two sides build and run from
# paths of the same shape. Each seed is one pair: each side runs
#
#   bash benchmark/run.sh --workload W --seed S --seconds 15 --trace 0
#
# in its own tree, and the side that goes first alternates from pair to
# pair. Each side's runs are merged into one result set with jq
# (parent.json and change.json in PAIRS_DIR). Printed: the per-pair table of
# one end-to-end metric — METRIC, op_ms_p50 unless set — with each side's
# samples (the timed ops behind it: a change that moves how many ops are
# timed shows here), the pairs the change won by the direction BENCHMARK.json
# gives the metric (its `better`), both medians, the parent's interquartile
# range, and the verdict of
#
#   bash benchmark/run.sh --compare parent.json change.json
#
# whose exit status is the script's. A run that fails or answers wrongly
# stops the script; its log is kept in PAIRS_DIR. Needs git, tar and jq.
#
#   METRIC=<name> bash scripts/pairs.sh --table
#
# prints the table and the verdict again, for METRIC, from the runs already
# in PAIRS_DIR: another metric of the same pairs, without running them again.
set -euo pipefail

metric=${METRIC:-op_ms_p50}
repo=$(git rev-parse --show-toplevel)
dir=${PAIRS_DIR:-${TMPDIR:-/tmp}/axml-pairs}
better=$(jq -r --arg m "$metric" '.end_to_end[] | select(.name == $m) | .better' "$repo/BENCHMARK.json")
if [ "$better" != lower ] && [ "$better" != higher ]; then
    echo "pairs.sh: $metric is no end-to-end metric of BENCHMARK.json" >&2
    exit 2
fi

# report prints METRIC's per-pair table and the --compare verdict of the
# merged runs in PAIRS_DIR; the verdict's status is its own.
report() {
    jq -rn --arg m "$metric" --arg better "$better" --slurpfile p "$dir/parent.json" --slurpfile c "$dir/change.json" \
        '
        def q($f): sort as $s | ((($s | length) - 1) * $f) as $h | ($h | floor) as $i
            | $s[$i] + ($h - $i) * ($s[[$i + 1, ($s | length) - 1] | min] - $s[$i]);
        def r: . * 10000 | round / 10000;
        ($p[0].runs | map(.metrics[$m].value)) as $pv
        | ($c[0].runs | map(.metrics[$m].value)) as $cv
        | [range(0; $pv | length)] as $ix
        | ([$ix[] | select(if $better == "higher" then $cv[.] > $pv[.] else $cv[.] < $pv[.] end)] | length) as $wins
        | "pair\tseed\tparent\tchange\tdelta\tsamples parent\tsamples change",
          ($ix[] | "\(. + 1)\t\($p[0].runs[.].seed)\t\($pv[.] | r)\t\($cv[.] | r)\t"
              + (if $pv[.] == 0 then "-" else "\(($cv[.] / $pv[.] - 1) * 100 | r)%" end)
              + "\t\($p[0].runs[.].samples)\t\($c[0].runs[.].samples)"),
          "\($m) (\($better) is better): the change is better in \($wins) of \($pv | length) pairs",
          "median: parent \($pv | q(0.5) | r), change \($cv | q(0.5) | r)",
          "parent IQR: \(($pv | q(0.75)) - ($pv | q(0.25)) | r) (q1 \($pv | q(0.25) | r), q3 \($pv | q(0.75) | r))"'
    cd "$dir/change"
    bash benchmark/run.sh --compare "$dir/parent.json" "$dir/change.json"
}

if [ "${1:-}" = --table ]; then
    if [ ! -f "$dir/parent.json" ] || [ ! -f "$dir/change.json" ]; then
        echo "pairs.sh: no finished pairs in $dir; set PAIRS_DIR" >&2
        exit 2
    fi
    report
    exit
fi
if [ $# -lt 4 ]; then
    echo "usage: pairs.sh <base-rev> <change-rev> <workload> <seed>... | pairs.sh --table" >&2
    exit 2
fi
base=$1 change=$2 workload=$3
shift 3
seeds=("$@")

if [ -e "$dir" ]; then
    if [ ! -f "$dir/.axml-pairs" ]; then
        echo "pairs.sh: $dir exists and was not made by pairs.sh; set PAIRS_DIR" >&2
        exit 2
    fi
    rm -rf "$dir"
fi
mkdir -p "$dir"
touch "$dir/.axml-pairs"
for side in parent change; do
    rev=$base
    if [ "$side" = change ]; then rev=$change; fi
    mkdir "$dir/$side"
    git -C "$repo" rev-parse --verify "$rev^{commit}" >"$dir/$side.rev"
    git -C "$repo" archive "$rev" | tar -x -C "$dir/$side"
done

# run SIDE SEED measures one side on one seed.
run() {
    local out="$dir/$1-$2"
    echo "pairs: $1 seed $2" >&2
    if ! (cd "$dir/$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" \
        --seconds 15 --trace 0 --set "$out.json" >"$out.line" 2>"$out.log"); then
        echo "pairs.sh: $1 seed $2 failed or answered wrongly; see $out.log" >&2
        exit 1
    fi
}

i=0
for seed in "${seeds[@]}"; do
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
    i=$((i + 1))
done

for side in parent change; do
    files=()
    for seed in "${seeds[@]}"; do files+=("$dir/$side-$seed.json"); done
    jq -s --arg rev "$(cat "$dir/$side.rev")" \
        '{stamp: (.[0].stamp + {commit: $rev}), runs: [.[].runs[]]}' "${files[@]}" >"$dir/$side.json"
done

report
