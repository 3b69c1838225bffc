#!/usr/bin/env bash
# Offline CI gate: build, test, lint. No network access required — the
# workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> perfbench tests (the benchmark compiles against the public API, KernelCounters included)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> fault-injection suite (fail points armed, fixed seeds)"
cargo test --release -q -p geopattern-integration --test fault_injection
cargo test --release -q -p geopattern-integration --test dataset_fuzz

echo "==> CLI exit-code contract (timeout=4, worker panic=5, exceeded budget=7, absurd --tile-size=1, removed counting and format flags and algorithms=1, predicates sharing a label=0, closed stdout pipe=0, gain past 128 items=1, gain exact at 126 items)"
DATASET="$(mktemp -t geopattern-ci-XXXXXX.gpd)"
BIG_DATASET="$(mktemp -t geopattern-ci-XXXXXX.gpd)"
LABEL_DATASET="$(mktemp -t geopattern-ci-XXXXXX.gpd)"
trap 'rm -f "$DATASET" "$BIG_DATASET" "$LABEL_DATASET"' EXIT
cargo run --release -q -p geopattern --bin geopattern -- \
    generate-city --grid 4 --seed 9 --out "$DATASET"
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --timeout 0 >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 4 || { echo "expected exit 4 on --timeout 0, got $code"; exit 1; }
set +e
GEOPATTERN_FAILPOINTS='mining/apriori.count=panic@1:42' \
    cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 5 || { echo "expected exit 5 on injected worker panic, got $code"; exit 1; }
# A tile grid past 4096 per axis is a usage error, not an abort.
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --tile-size 100000 >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 1 || { echo "expected exit 1 on --tile-size 100000, got $code"; exit 1; }
# Counting has one policy (auto); the old flag is an unexpected argument.
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --counting bitmap >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 1 || { echo "expected exit 1 on the removed --counting flag, got $code"; exit 1; }
# mine has no --format: the file's first bytes pick the loader, and the
# old flag is an unexpected argument.
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --format gpb >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 1 || { echo "expected exit 1 on the removed --format flag, got $code"; exit 1; }
# The attribute contains_x=y and `contains` against the layer x=y render
# alike but are two items: mining them is exit 0, not a panic (101).
printf '%s\n' 'layer district reference' \
    'D1|POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))|contains_x=y' \
    'D2|POLYGON ((20 0, 30 0, 30 10, 20 10, 20 0))|contains_x=y' \
    'layer x=y' \
    'p1|POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))|' \
    'p2|POLYGON ((22 2, 24 2, 24 4, 22 4, 22 2))|' > "$LABEL_DATASET"
cargo run --release -q -p geopattern --bin geopattern -- mine "$LABEL_DATASET" \
    | grep -q '2 transactions, 2 items' \
    || { echo "predicates sharing a label did not mine as 2 items"; exit 1; }
# Eclat and AprioriTid are gone; their names are unknown algorithms.
for removed in eclat tid; do
    set +e
    cargo run --release -q -p geopattern --bin geopattern -- \
        mine "$DATASET" --algorithm "$removed" >/dev/null 2>&1
    code=$?
    set -e
    test "$code" -eq 1 || { echo "expected exit 1 on --algorithm $removed, got $code"; exit 1; }
done
# Budget gate: a budget never truncates output. FP-Growth refuses a
# conditional tree that does not fit and fails with exit 7.
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm fpgrowth --memory-budget 1 >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 7 || { echo "expected exit 7 on an exceeded --memory-budget, got $code"; exit 1; }
# A reader that closes stdout early ends the command quietly with exit 0,
# not a panic (101). The grid-8 report, about 99 KB, outgrows a 64 KiB
# pipe buffer, so the writer meets the closed pipe.
cargo run --release -q -p geopattern --bin geopattern -- \
    generate-city --grid 8 --seed 9 --out "$BIG_DATASET" >/dev/null
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$BIG_DATASET" --itemsets --rules | head -1 >/dev/null
code=${PIPESTATUS[0]}
set -e
test "$code" -eq 0 || { echo "expected exit 0 when stdout's reader stops early, got $code"; exit 1; }
# Gains are exact u128 counts for itemsets of up to 128 items; a larger
# itemset is a usage error, not a wrapped number.
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    gain --t 100 --n 100 >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 1 || { echo "expected exit 1 on gain with m = 200, got $code"; exit 1; }
cargo run --release -q -p geopattern --bin geopattern -- gain --t 126 \
    | grep -q 'minimal gain 85070591730234615865843651857942052737$' \
    || { echo "gain --t 126 did not print 2^126 - 127"; exit 1; }

echo "==> kill-and-resume gate (journaled crash, resume bit-identical, journal fuzz)"
cargo test --release -q -p geopattern-integration --test crash_resume

echo "==> CLI crash-safety contract (--journal/--resume/--max-retries, exit 6 on exhaustion)"
JOURNAL="$(mktemp -t geopattern-ci-XXXXXX.journal)"
trap 'rm -f "$DATASET" "$BIG_DATASET" "$LABEL_DATASET" "$JOURNAL"' EXIT
rm -f "$JOURNAL"
# Injected worker panics recover within the retry budget (exit 0), and
# the shared journal lets every retry resume the failed attempt's work.
GEOPATTERN_FAILPOINTS='mining/apriori.count=panic@0.5:42' \
    cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori --journal "$JOURNAL" --max-retries 8 \
    >/dev/null 2>&1 \
    || { echo "expected recovery via --max-retries, got exit $?"; exit 1; }
# A resumed rerun over the completed journal skips journaled levels and
# the untiled run's one journaled extraction tile.
resumed_metrics="$(cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori --journal "$JOURNAL" --resume --metrics json)"
echo "$resumed_metrics" | grep -q '"robust/resume_levels_skipped":[1-9]' \
    || { echo "resume served no journaled levels"; exit 1; }
echo "$resumed_metrics" | grep -q '"robust/resume_tiles_skipped":1[,}]' \
    || { echo "resume did not serve the one journaled extraction tile"; exit 1; }
# An unwinnable retry budget exhausts with exit code 6.
rm -f "$JOURNAL"
set +e
GEOPATTERN_FAILPOINTS='mining/apriori.count=panic@1:42' \
    cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori --journal "$JOURNAL" --max-retries 2 \
    >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 6 || { echo "expected exit 6 on exhausted retries, got $code"; exit 1; }
# Resuming under a changed configuration is a fingerprint mismatch (exit 2).
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --algorithm apriori --minsup 0.4 --journal "$JOURNAL" --resume \
    >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 2 || { echo "expected exit 2 on journal fingerprint mismatch, got $code"; exit 1; }
# The fingerprint covers the --dep pairs: resuming without them is exit 2.
rm -f "$JOURNAL"
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --minsup 0.1 --dep street illuminationPoint --journal "$JOURNAL" \
    >/dev/null 2>&1 \
    || { echo "journaled run with --dep failed, exit $?"; exit 1; }
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --minsup 0.1 --journal "$JOURNAL" --resume >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 2 || { echo "expected exit 2 on resume without the journaled --dep pairs, got $code"; exit 1; }
# The fingerprint covers the dataset's bytes, not its path: resuming
# after the file was regenerated with another seed is exit 2.
rm -f "$JOURNAL"
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --itemsets --journal "$JOURNAL" >/dev/null 2>&1 \
    || { echo "journaled run before the dataset change failed, exit $?"; exit 1; }
cargo run --release -q -p geopattern --bin geopattern -- \
    generate-city --grid 4 --seed 10 --out "$DATASET" >/dev/null
set +e
cargo run --release -q -p geopattern --bin geopattern -- \
    mine "$DATASET" --itemsets --journal "$JOURNAL" --resume >/dev/null 2>&1
code=$?
set -e
test "$code" -eq 2 || { echo "expected exit 2 on resume after the dataset changed, got $code"; exit 1; }

echo "==> strategy-equivalence gate (hash-subset, bitmap by joins and by scan, and auto bit-identical; choose() pure; budget peak equal at 1/2/8 threads)"
cargo test --release -q -p geopattern-integration --test strategy_equivalence
cargo test --release -q -p geopattern-integration --test bitmap_properties

echo "==> point-location gate (quant → exact equals Ring::locate and RingIndex::locate; certain grid answers exact)"
cargo test --release -q -p geopattern-integration --test quant_properties

echo "==> candidate-pair gate (classify on compiled patterns equals the string-pattern version on all 4^9 matrices x 9 dimension pairs; warm relate_to + classify and distance_within allocate nothing)"
cargo test --release -q -p geopattern-qsr --test classify_exhaustive
cargo test --release -q -p geopattern-integration --test pair_allocations

echo "==> tiling-equivalence gate (tiled extraction bit-identical to the one-tile default)"
cargo test --release -q -p geopattern-integration --test tiling_properties

echo "==> experiments scaling (emits BENCH_scaling.json, default grid)"
cargo run --release -q -p geopattern-bench --bin experiments -- scaling
test -s BENCH_scaling.json

echo "==> experiments counting smoke (emits BENCH_counting.json; dense and sparse workloads: bitmap > hash-subset on both, pass 2 by joins on dense and by scan on sparse; dense auto ≥ 3x hash-subset, auto ≤ 1.15x best fixed)"
cargo run --release -q -p geopattern-bench --bin experiments -- counting --check
test -s BENCH_counting.json

echo "==> experiments kernel (emits BENCH_kernel.json; quant → exact locate ≥2x the exact index alone, lattice fallbacks <5%, extraction bit-identical at 1/2/8 threads)"
cargo run --release -q -p geopattern-bench --bin experiments -- kernel --max 256 --check
test -s BENCH_kernel.json

echo "==> experiments tiling (emits BENCH_tiling.json; 1M-feature city, gpb one-tile fetch ≥5x full WKT parse, tiled ≤1.10x the one-tile default)"
cargo run --release -q -p geopattern-bench --bin experiments -- tiling --check
test -s BENCH_tiling.json

echo "==> ci.sh: all green"
