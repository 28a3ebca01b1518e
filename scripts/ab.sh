#!/bin/sh
# Alternating parent/change pairs of one BENCHMARK.json workload, or of
# each of them in turn (WORKLOAD = all) (choosing-metrics §8): unpacks BASE
# into target/ab-base (`git archive`, removed on exit), builds both
# hvbench binaries, runs N pairs — pair i at seed S + i − 1 on both sides,
# odd pairs parent first, even pairs change first — and prints, per
# workload, each end-to-end metric's two medians, quartiles, the pairs the
# change won (ties count for neither) and the relative change of the
# medians against the metric's bound in BENCHMARK.json: ok, or WORSE when
# the change's median is worse than the parent's by more than the bound.
# Under the peak_rss_mib row one informational line, never part of the
# verdict, says how much of each side's RSS is hvbench's own op log (32 B
# per completed op), and a second the ops_per_s at which that log alone
# would carry the base's median RSS to its bound — base ops_per_s + bound
# × base RSS ÷ (32 B × seconds) — next to the change's median ops_per_s:
# the headroom a faster change has before the ruler's log fails it. It runs BENCHMARK.json's own command in each checkout
# and edits nothing under benchmark/ (cargo's rewrite of its Cargo.lock is
# undone on exit).
#
# Exit status: 0 when no row is WORSE; 1 when one is, or when a run's
# result was not "correct": true (that aborts the series).
#
#   scripts/ab.sh BASE WORKLOAD|all [N] [S]      (N defaults to 10, S to 1;
#                                                 S=11 N=5: held-out seeds 11–15)
set -eu

BASE=${1:?usage: scripts/ab.sh BASE WORKLOAD|all [N] [S]}
WORKLOADS=${2:?usage: scripts/ab.sh BASE WORKLOAD|all [N] [S]}
N=${3:-10}
S=${4:-1}

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
TREE=$ROOT/target/ab-base
OUT=$ROOT/target/ab-out
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
# ["cargo", "run", …, "--"] → cargo run … --
COMMAND=$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')
if [ "$WORKLOADS" = all ]; then
    WORKLOADS=$(sed -n '/"workloads"/,/\]/s/.*{"name": "\([a-z0-9_]*\)".*/\1/p' BENCHMARK.json)
else
    grep -q "{\"name\": \"$WORKLOADS\", \"why\"" BENCHMARK.json || {
        echo "ab: no workload \"$WORKLOADS\" in BENCHMARK.json" >&2
        exit 2
    }
fi

rm -rf "$TREE" "$OUT"
trap 'rm -rf "$TREE"; git checkout -q -- benchmark/Cargo.lock' EXIT
trap 'exit 130' INT TERM
mkdir -p "$TREE"
git archive "$BASE" | tar -x -C "$TREE"

# One run of workload $4 by the benchmark's command in checkout $1 (its
# build under target/ab-build/$2, so neither side ever rebuilds the
# other's binary); the last line of its stdout — the result — goes to
# $OUT/$4/$2.
run() {
    line=$(cd "$1" && CARGO_TARGET_DIR="$ROOT/target/ab-build/$2" $COMMAND \
        --workload "$4" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
    case $line in
    *'"correct": true'*) echo "$line" >> "$OUT/$4/$2" ;;
    *) echo "ab: $2 run of $4 at seed $3 failed: $line" >&2; exit 1 ;;
    esac
}

echo "ab: building $BASE (base) and the working tree (change)" >&2
(cd "$TREE" && CARGO_TARGET_DIR="$ROOT/target/ab-build/base" $COMMAND --help > /dev/null)
CARGO_TARGET_DIR="$ROOT/target/ab-build/change" $COMMAND --help > /dev/null

for workload in $WORKLOADS; do
    mkdir -p "$OUT/$workload"
    i=1
    while [ "$i" -le "$N" ]; do
        seed=$((S + i - 1))
        echo "ab: $workload pair $i/$N (seed $seed)" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run "$TREE" base "$seed" "$workload"
            run "$ROOT" change "$seed" "$workload"
        else
            run "$ROOT" change "$seed" "$workload"
            run "$TREE" base "$seed" "$workload"
        fi
        i=$((i + 1))
    done
done

# One block per workload. Metric names, directions and bounds come from
# BENCHMARK.json's end_to_end rows (one per line); values from the result
# lines, pair i on line i. awk exits 1 if a row is WORSE.
status=0
for workload in $WORKLOADS; do
    echo "$workload: $N pairs of ${SECONDS_PER_RUN} s at seeds $S–$((S + N - 1)), base = $BASE"
    awk -v seconds="$SECONDS_PER_RUN" '
        function field(line, key,    rest) {
            rest = substr(line, index(line, "\"" key "\": ") + length(key) + 4)
            sub(/^"/, "", rest); sub(/[",}].*/, "", rest)
            return rest
        }
        function value(line, metric,    at) {
            at = match(line, "\"" metric "\": \\{\"value\": [-+.eE0-9]+")
            return substr(line, at + length(metric) + 14, RLENGTH - length(metric) - 14) + 0
        }
        # Nearest-rank quantile of the sorted v[1..n].
        function quantile(v, n, q,    k) { k = int(q * n + 0.999999); return v[k < 1 ? 1 : k] }
        function ascending(v, n,    a, b, t) {
            for (a = 2; a <= n; a++)
                for (b = a; b > 1 && v[b - 1] > v[b]; b--) { t = v[b]; v[b] = v[b - 1]; v[b - 1] = t }
        }
        # Median ops_per_s of result file f.
        function ops_per_s(f,    m, k, v) {
            for (m = 1; name[m] != "ops_per_s"; m++) if (m > metrics) return 0
            for (k = 1; k <= n; k++) v[k] = run[f, m, k]
            ascending(v, n)
            return quantile(v, n, 0.5)
        }
        # MiB of 32 B op records behind that rate.
        function op_log_mib(f) { return ops_per_s(f) * seconds * 32 / 1048576 }
        FNR == 1 { file++ }
        file == 1 && /"end_to_end"/ { rows = 1; next }
        file == 1 && rows && /\]/ { rows = 0 }
        file == 1 && rows {
            name[++metrics] = field($0, "name"); better[metrics] = field($0, "better")
            bound[metrics] = field($0, "bound") + 0
        }
        file > 1 { for (m = 1; m <= metrics; m++) run[file, m, FNR] = value($0, name[m]); n = FNR }
        END {
            for (m = 1; m <= metrics; m++) {
                won = 0
                for (k = 1; k <= n; k++) {
                    base[k] = run[2, m, k]; change[k] = run[3, m, k]
                    won += (better[m] == "lower" ? change[k] < base[k] : change[k] > base[k])
                }
                ascending(base, n); ascending(change, n)
                b = quantile(base, n, 0.5); c = quantile(change, n, 0.5)
                moved = b == 0 ? 0 : (c - b) / b
                worse = (better[m] == "lower" ? moved : -moved) > bound[m]
                failed += worse
                printf "  %-15s %-6s  base %11.4f [%11.4f, %11.4f]  change %11.4f [%11.4f, %11.4f]  change won %2d/%d  %+7.1f %% (bound %2.0f %%) %s\n",
                    name[m], better[m], b, quantile(base, n, 0.25), quantile(base, n, 0.75),
                    c, quantile(change, n, 0.25), quantile(change, n, 0.75),
                    won, n, 100 * moved, 100 * bound[m], worse ? "WORSE" : "ok"
                if (name[m] == "peak_rss_mib") {
                    printf "  %-15s %-6s  base %11.4f %26s  change %11.4f   ≈ hvbench%cs own op log: median ops_per_s × %d s × 32 B, MiB; not judged\n",
                        "", "", op_log_mib(2), "", op_log_mib(3), 39, seconds
                    printf "  %-15s %-6s  base %11.1f %26s  change %11.1f   ≈ ops_per_s ceiling: base ops_per_s + %.0f %% × base RSS ÷ (32 B × %d s), where the op log alone reaches the bound; the change%cs median beside it; not judged\n",
                        "", "", ops_per_s(2) + bound[m] * b * 1048576 / (32 * seconds), "", ops_per_s(3), 100 * bound[m], seconds, 39
                }
            }
            exit failed > 0
        }' BENCHMARK.json "$OUT/$workload/base" "$OUT/$workload/change" || status=1
done
exit $status
