#!/bin/sh
# Alternating parent/change pairs of one BENCHMARK.json workload
# (choosing-metrics §8): checks BASE out into target/ab-base (a git
# worktree, removed on exit), builds both hvbench binaries, runs N pairs —
# pair i at seed i on both sides, odd pairs parent first, even pairs change
# first — and prints each end-to-end metric's two medians, quartiles and
# the pairs the change won (ties count for neither). It runs BENCHMARK.json's
# own command in each checkout and edits nothing under benchmark/.
#
#   scripts/ab.sh BASE WORKLOAD [N]      (N defaults to 10)
set -eu

BASE=${1:?usage: scripts/ab.sh BASE WORKLOAD [N]}
WORKLOAD=${2:?usage: scripts/ab.sh BASE WORKLOAD [N]}
N=${3:-10}

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
TREE=$ROOT/target/ab-base
OUT=$ROOT/target/ab-out
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
# ["cargo", "run", …, "--"] → cargo run … --
COMMAND=$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')
grep -q "\"name\": \"$WORKLOAD\"" BENCHMARK.json || {
    echo "ab: no workload \"$WORKLOAD\" in BENCHMARK.json" >&2
    exit 2
}

mkdir -p target
git worktree remove --force "$TREE" 2>/dev/null || true
trap 'git worktree remove --force "$TREE" 2>/dev/null || true' EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$TREE" "$BASE"
rm -rf "$OUT"
mkdir -p "$OUT"

# One run of the benchmark's command in checkout $1 (its build under
# target/ab-build/$2, so neither side ever rebuilds the other's binary);
# the last line of its stdout — the result — goes to $OUT/$2.
run() {
    line=$(cd "$1" && CARGO_TARGET_DIR="$ROOT/target/ab-build/$2" $COMMAND \
        --workload "$WORKLOAD" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
    case $line in
    *'"correct": true'*) echo "$line" >> "$OUT/$2" ;;
    *) echo "ab: $2 run at seed $3 failed: $line" >&2; exit 1 ;;
    esac
}

echo "ab: building $BASE (base) and the working tree (change)" >&2
(cd "$TREE" && CARGO_TARGET_DIR="$ROOT/target/ab-build/base" $COMMAND --help > /dev/null)
CARGO_TARGET_DIR="$ROOT/target/ab-build/change" $COMMAND --help > /dev/null

i=1
while [ "$i" -le "$N" ]; do
    echo "ab: pair $i/$N" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run "$TREE" base "$i"
        run "$ROOT" change "$i"
    else
        run "$ROOT" change "$i"
        run "$TREE" base "$i"
    fi
    i=$((i + 1))
done

# Metric names and directions come from BENCHMARK.json's end_to_end rows
# (one per line); values from the result lines, pair i on line i.
echo "$WORKLOAD: $N pairs of ${SECONDS_PER_RUN} s, base = $BASE"
sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z0-9_]*\)".*"better": "\([a-z]*\)".*/\1 \2/p' BENCHMARK.json |
    while read -r metric better; do
        awk -v metric="$metric" -v better="$better" '
            function value(line,    at) {
                at = match(line, "\"" metric "\": \\{\"value\": [-+.eE0-9]+")
                return substr(line, at + length(metric) + 14, RLENGTH - length(metric) - 14) + 0
            }
            # Nearest-rank quantile of the sorted v[1..n].
            function quantile(v, n, q,    k) { k = int(q * n + 0.999999); return v[k < 1 ? 1 : k] }
            function ascending(v, n,    a, b, t) {
                for (a = 2; a <= n; a++)
                    for (b = a; b > 1 && v[b - 1] > v[b]; b--) { t = v[b]; v[b] = v[b - 1]; v[b - 1] = t }
            }
            FNR == NR { base[FNR] = value($0); next }
            { change[FNR] = value($0); n = FNR }
            END {
                for (k = 1; k <= n; k++) {
                    d = change[k] - base[k]
                    if (better == "lower") d = -d
                    won += d > 0
                }
                ascending(base, n); ascending(change, n)
                printf "  %-15s %-6s  base %11.4f [%11.4f, %11.4f]  change %11.4f [%11.4f, %11.4f]  change won %d/%d\n",
                    metric, better,
                    quantile(base, n, 0.5), quantile(base, n, 0.25), quantile(base, n, 0.75),
                    quantile(change, n, 0.5), quantile(change, n, 0.25), quantile(change, n, 0.75),
                    won, n
            }' "$OUT/base" "$OUT/change"
    done
