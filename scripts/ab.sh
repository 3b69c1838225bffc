#!/usr/bin/env bash
# A/B runner for perfbench: the evidence for a performance claim, or for
# no regression, in one command.
#
#   scripts/ab.sh BASE CHANGE --workload W --pairs N --seconds S --seeds A-B \
#       [--size full|tiny]
#
# BASE and CHANGE are git revisions. Each is checked out in its own local
# clone under .bench_build/ab/ and its perfbench is built there, with its
# own CARGO_TARGET_DIR next to the clone (one build when both name the
# same commit). A clone, not a `git worktree`: perfbench reads the
# revision for its stamp from a `.git` directory, and a worktree's `.git`
# is a file. The clones are removed on exit; the target directories stay
# for the next run.
#
# Pair i runs seed A+i on both sides (the range must hold N seeds). The
# base runs first in even pairs and the change in odd ones, so neither
# side always runs in the other's wake. Each binary runs from its own
# checkout, so its stamp names its revision.
#
# Writes BENCH_ab_<workload>.json: both sides' stamps, every pair's four
# end-to-end metrics with its correct/attempted/failed, and per metric the
# medians, quartiles and IQRs of both sides and the change's win count
# (pairs where the change read lower; all four metrics are lower-is-better
# in BENCHMARK.json). Exits 1 if any run reads `correct: false` or
# `failed > 0`, or does not finish; exits 2 on bad arguments.
#
# Shell and awk only: no jq, no dependency beyond git and cargo.
set -euo pipefail

usage() {
    echo "usage: $0 BASE CHANGE --workload W --pairs N --seconds S --seeds A-B [--size full|tiny]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
base_arg=$1
change_arg=$2
shift 2
workload="" pairs="" seconds="" seeds="" size=full
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seeds) seeds=$2 ;;
        --size) size=$2 ;;
        *) usage ;;
    esac
    shift 2
done
case $workload in city | stars | txn) ;; *) usage ;; esac
case $size in full | tiny) ;; *) usage ;; esac
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seconds =~ ^[0-9]+(\.[0-9]+)?$ ]] || usage
[[ $seeds =~ ^([0-9]+)-([0-9]+)$ ]] || usage
first_seed=$((10#${BASH_REMATCH[1]}))
last_seed=$((10#${BASH_REMATCH[2]}))
if [ $((last_seed - first_seed + 1)) -lt "$pairs" ]; then
    echo "ab.sh: seeds $seeds hold fewer than $pairs seeds" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
root=$(pwd)
base=$(git rev-parse --verify --quiet "$base_arg^{commit}") || { echo "ab.sh: unknown revision $base_arg" >&2; exit 2; }
change=$(git rev-parse --verify --quiet "$change_arg^{commit}") || { echo "ab.sh: unknown revision $change_arg" >&2; exit 2; }

work="$root/.bench_build/ab"
runs="$work/runs-$workload"
mkdir -p "$work"
rm -rf "$runs"
mkdir -p "$runs"
cleanup() { rm -rf "$work/$base/src" "$work/$change/src"; }
trap cleanup EXIT

# Checks REV out at .bench_build/ab/REV/src and builds its perfbench.
build() {
    local rev=$1 dir="$work/$1"
    rm -rf "$dir/src"
    git clone --quiet --shared --no-checkout "$root" "$dir/src"
    git -C "$dir/src" checkout --quiet --detach "$rev"
    echo "==> building perfbench at $rev" >&2
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/src/perfbench/Cargo.toml"
}
build "$base"
[ "$change" = "$base" ] || build "$change"

# Runs SIDE (base|change) for pair I on SEED; its stdout is the run file.
run() {
    local side=$1 i=$2 seed=$3 rev out
    if [ "$side" = base ]; then rev=$base; else rev=$change; fi
    out="$runs/pair$i-$side"
    echo "==> pair $i seed $seed: $side" >&2
    if ! (cd "$work/$rev/src" && "$work/$rev/target/release/perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 --size "$size" >"$out.out" 2>"$out.err"); then
        echo "ab.sh: the $side run of pair $i did not finish; see $out.err" >&2
        exit 1
    fi
}
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run base "$i" "$seed"
        run change "$i" "$seed"
    else
        run change "$i" "$seed"
        run base "$i" "$seed"
    fi
done

artifact="BENCH_ab_$workload.json"
status=0
awk -v workload="$workload" -v pairs="$pairs" -v first_seed="$first_seed" \
    -v seconds="$seconds" -v size="$size" -v runs="$runs" '
function read_run(side, i,   file, line, stamp, last) {
    file = runs "/pair" i "-" side ".out"
    stamp = ""
    last = ""
    while ((getline line < file) > 0) {
        if (stamp == "") stamp = line
        last = line
    }
    close(file)
    if (i == 0) {
        sub(/^\{"stamp": /, "", stamp)
        sub(/\}$/, "", stamp)
        stamps[side] = stamp
    }
    correct[side, i] = field(last, "\"correct\": [a-z]+")
    attempted[side, i] = field(last, "\"attempted\": [0-9]+")
    failed[side, i] = field(last, "\"failed\": [0-9]+")
    if (correct[side, i] != "true" || failed[side, i] != "0") bad++
    for (m = 1; m <= nm; m++)
        value[side, i, m] = field(last, "\"" metric[m] "\": \\{\"value\": [^,}]+")
}
# The text after the last ": " of the first match of re in line.
function field(line, re,   s) {
    if (!match(line, re)) {
        printf "ab.sh: no %s in a run result\n", re > "/dev/stderr"
        missing = 1
        return "null"
    }
    s = substr(line, RSTART, RLENGTH)
    sub(/.*: /, "", s)
    return s
}
# Quantile p of v[1..n] (sorted ascending), linear interpolation.
function quantile(v, n, p,   h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    if (lo >= n) return v[n]
    return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sorted_side(side, m, v,   i, j, x) {
    for (i = 1; i <= pairs; i++) v[i] = value[side, i - 1, m] + 0
    for (i = 2; i <= pairs; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
}
function side_json(side, i,   s, m) {
    s = sprintf("{\"correct\": %s, \"attempted\": %s, \"failed\": %s", correct[side, i], attempted[side, i], failed[side, i])
    for (m = 1; m <= nm; m++) s = s sprintf(", \"%s\": %s", metric[m], value[side, i, m])
    return s "}"
}
function stats_json(side, m,   v, q1, q2, q3) {
    sorted_side(side, m, v)
    q1 = quantile(v, pairs, 0.25)
    q2 = quantile(v, pairs, 0.5)
    q3 = quantile(v, pairs, 0.75)
    median[side] = q2
    return sprintf("\"%s_median\": %.9g, \"%s_q1\": %.9g, \"%s_q3\": %.9g, \"%s_iqr\": %.9g", side, q2, side, q1, side, q3, side, q3 - q1)
}
BEGIN {
    nm = split("job_s cold_job_s peak_rss_mb setup_s", metric, " ")
    bad = 0
    for (i = 0; i < pairs; i++) {
        read_run("base", i)
        read_run("change", i)
    }
    if (missing) exit 3
    printf "{\"workload\": \"%s\", \"size\": \"%s\", \"seconds\": %s, \"pairs\": %d, \"seeds\": \"%d-%d\",\n", workload, size, seconds, pairs, first_seed, first_seed + pairs - 1
    printf " \"base_stamp\": %s,\n \"change_stamp\": %s,\n", stamps["base"], stamps["change"]
    printf " \"runs\": [\n"
    for (i = 0; i < pairs; i++) {
        printf "  {\"pair\": %d, \"seed\": %d, \"first\": \"%s\",\n   \"base\": %s,\n   \"change\": %s}%s\n", i, first_seed + i, (i % 2 == 0 ? "base" : "change"), side_json("base", i), side_json("change", i), (i + 1 < pairs ? "," : "")
    }
    printf " ],\n \"metrics\": {\n"
    for (m = 1; m <= nm; m++) {
        wins = 0
        for (i = 0; i < pairs; i++) if (value["change", i, m] + 0 < value["base", i, m] + 0) wins++
        b = stats_json("base", m)
        c = stats_json("change", m)
        frac = median["base"] != 0 ? (median["change"] - median["base"]) / median["base"] : 0
        printf "  \"%s\": {\"better\": \"lower\", %s, %s, \"median_change_frac\": %.6g, \"change_wins\": %d}%s\n", metric[m], b, c, frac, wins, (m < nm ? "," : "")
    }
    printf " },\n \"all_correct\": %s}\n", (bad == 0 ? "true" : "false")
    exit (bad > 0)
}' >"$artifact.tmp" || status=$?
if [ "$status" -ge 2 ]; then
    rm -f "$artifact.tmp"
    echo "ab.sh: could not read the run results in $runs" >&2
    exit 1
fi
mv "$artifact.tmp" "$artifact"
echo "wrote $artifact" >&2
if [ "$status" -ne 0 ]; then
    echo "ab.sh: a run read correct: false or failed > 0; see $artifact" >&2
    exit 1
fi
