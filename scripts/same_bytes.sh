#!/bin/sh
# Same decisions, same bytes: unpacks BASE into target/ab-base (`git
# archive`, removed on exit) as scripts/ab.sh does, builds it and the
# working tree in release mode, runs each deterministic command below on
# both sides — the three chaos campaigns `make chaos-smoke` runs, the fleet
# report `make fleet-smoke` runs, the static analyzer's proofs and the
# paper's tables (`repro`'s CSVs: its stdout carries wall times) — and
# compares their output and exit status byte for byte. Prints one `same`
# or `DIFFERS` line per command. Each command runs in a directory of its
# own, target/same-bytes/<side>/<name>/ (`stdout`, `status`), kept for a
# `diff -r` after a DIFFERS; BASE builds under target/same-bytes-build.
#
# Exit status: 0 when every command printed the same bytes on both sides,
# 1 when one did not.
#
#   scripts/same_bytes.sh BASE
set -eu

BASE=${1:?usage: scripts/same_bytes.sh BASE}
CARGO=${CARGO:-cargo}

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
TREE=$ROOT/target/ab-base
OUT=$ROOT/target/same-bytes

# name|the output compared beside the exit status|binary and arguments
COMMANDS='chaos-1|stdout|hvraid chaos --seed 1 --episodes 25
chaos-2|stdout|hvraid chaos --seed 2 --episodes 25 --backend mem --spares 0
chaos-3|stdout|hvraid chaos --seed 3 --episodes 25 --threads 4 --stripes 8
fleet|stdout|hvraid fleet --volumes 12 --hours 96 --seed 5 --stripes 8 --element 16 --json
lint|stdout|hvraid lint --all --hazards --journal --schedules
repro|csv|repro --csv csv all'

rm -rf "$TREE" "$OUT"
trap 'rm -rf "$TREE"' EXIT
trap 'exit 130' INT TERM
mkdir -p "$TREE"
git archive "$BASE" | tar -x -C "$TREE"

echo "same-bytes: building $BASE (base) and the working tree (change)" >&2
(cd "$TREE" && CARGO_TARGET_DIR="$ROOT/target/same-bytes-build" \
    $CARGO build --release -q -p hvraid -p raid-bench)
$CARGO build --release -q -p hvraid -p raid-bench

# Every command with side $1's binaries, found in directory $2.
run_side() {
    side=$1
    bins=$2
    while IFS='|' read -r name _ cmd; do
        echo "same-bytes: $side: $cmd" >&2
        mkdir -p "$OUT/$side/$name"
        (
            cd "$OUT/$side/$name"
            set -- $cmd
            bin=$1
            shift
            status=0
            "$bins/$bin" "$@" > stdout 2> /dev/null || status=$?
            echo "$status" > status
        ) || exit 1
    done <<EOF
$COMMANDS
EOF
}
run_side base "$ROOT/target/same-bytes-build/release"
run_side change "$ROOT/target/release"

status=0
while IFS='|' read -r name output cmd; do
    base=$OUT/base/$name
    change=$OUT/change/$name
    if cmp -s "$base/status" "$change/status" && diff -r -q "$base/$output" "$change/$output" > /dev/null; then
        echo "same     $cmd"
    else
        echo "DIFFERS  $cmd"
        status=1
    fi
done <<EOF
$COMMANDS
EOF
exit $status
