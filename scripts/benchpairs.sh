#!/bin/sh
# benchpairs.sh — compare the repo benchmark (perfbench, BENCHMARK.json)
# between a git ref and the working tree. It exports <ref> into a temporary
# directory, then runs `bash perfbench/run.sh --trace 0` on one workload in
# alternating pairs: the ref first on odd pairs, the working tree first on
# even ones, with seed = pair index on both sides, so drift on the machine
# hits both sides alike. For every end-to-end metric in BENCHMARK.json it
# prints each side's median and quartiles, the change in the median, on how
# many pairs the working tree did better, and the exact two-sided sign-test
# p-value of that win count; then each side's failed-op count. The sign test
# leaves tied pairs out: wins are tested against the pairs that differed. The
# temporary directory is removed on exit.
#
# Too slow for scripts/check.sh: each run sets the workload up several times
# before its timed phase, and each side builds perfbench from source once.
#
# Usage: scripts/benchpairs.sh <ref> <workload> <pairs> <seconds>
#   ref        commit to compare against, e.g. HEAD or HEAD~1
#   workload   a BENCHMARK.json workload: scan-hot or scan-cold
#   pairs      number of (ref, working tree) run pairs
#   seconds    length of each run's timed phase
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 4 ]; then
    echo "usage: scripts/benchpairs.sh <ref> <workload> <pairs> <seconds>" >&2
    exit 2
fi
REF="$1"
WORKLOAD="$2"
PAIRS="$3"
SECONDS_PER_RUN="$4"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/ref"
git archive "$REF" | tar -x -C "$WORK/ref"

# run side dir pair — one perfbench run; appends "pair side metric value"
# lines for every metric, plus the attempted and failed op counts, to
# $WORK/data.
run() {
    line=$(cd "$2" && bash perfbench/run.sh --workload "$WORKLOAD" \
        --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 2>>"$WORK/log" | tail -1)
    # perfbench prints its result line even when an answer was wrong (its
    # failed count says so); a run without one failed outright.
    case "$line" in
    "{"*) ;;
    *)
        echo "benchpairs.sh: $1 run of pair $3 failed:" >&2
        tail -20 "$WORK/log" >&2
        exit 1
        ;;
    esac
    echo "$line" | tr ',' '\n' | sed -n \
        -e 's/^"attempted":\([0-9]*\)$/'"$3 $1"' attempted \1/p' \
        -e 's/^"failed":\([0-9]*\)$/'"$3 $1"' failed \1/p' \
        -e 's/^.*"\([a-z0-9_.]*\)":{"value":\([^}]*\)$/'"$3 $1"' \1 \2/p' >>"$WORK/data"
    echo "benchpairs.sh: pair $3 $1 done" >&2
}

: >"$WORK/data"
pair=1
while [ "$pair" -le "$PAIRS" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run ref "$WORK/ref" "$pair"
        run change . "$pair"
    else
        run change . "$pair"
        run ref "$WORK/ref" "$pair"
    fi
    pair=$((pair + 1))
done

# The end-to-end metrics and their direction, from BENCHMARK.json.
awk '
/"end_to_end"/ { on = 1 }
on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
on && /^  \]/ { exit }' BENCHMARK.json >"$WORK/metrics"

echo "benchpairs.sh: $WORKLOAD, $PAIRS pairs of ${SECONDS_PER_RUN}s runs, ref $REF vs working tree"
awk '
# quantile of the sorted values v[1..n], linear interpolation
function q(v, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
# exact two-sided sign-test p-value of w wins in n untied pairs:
# 2 * P(X <= min(w, n - w)) for X ~ Binomial(n, 1/2), capped at 1
function signp(w, n,    m, i, c, s) {
    if (n == 0) return 1
    m = w < n - w ? w : n - w
    c = 1; s = 0
    for (i = 0; i <= m; i++) { s += c; c = c * (n - i) / (i + 1) }
    s = 2 * s / 2 ^ n
    return s > 1 ? 1 : s
}
function sorted(side, m, v,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((i, side, m) in val) v[++n] = val[i, side, m]
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    return n
}
FNR == NR { better[$1] = $2; order[++nm] = $1; next }
{
    val[$1, $2, $3] = $4
    if ($1 > pairs) pairs = $1
    if ($3 == "failed") failed[$2] += $4
    if ($3 == "attempted") attempted[$2] += $4
}
END {
    printf "%-12s %-6s %28s %28s %8s %6s %8s\n", "metric", "better", "ref median [q1 q3]", "change median [q1 q3]", "delta", "wins", "sign p"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        nr = sorted("ref", m, r)
        nc = sorted("change", m, c)
        if (nr == 0 || nc == 0) { printf "%-12s missing from the results\n", m; continue }
        wins = 0; n = 0; ties = 0
        for (i = 1; i <= pairs; i++) {
            if (!((i, "ref", m) in val) || !((i, "change", m) in val)) continue
            n++
            d = val[i, "change", m] - val[i, "ref", m]
            if (d == 0) ties++
            else if ((better[m] == "higher" && d > 0) || (better[m] == "lower" && d < 0)) wins++
        }
        mr = q(r, nr, 0.5); mc = q(c, nc, 0.5)
        delta = mr != 0 ? sprintf("%+.1f%%", 100 * (mc - mr) / mr) : "n/a"
        printf "%-12s %-6s %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %8s %3d/%d %8.4g\n", m, better[m],
            mr, q(r, nr, 0.25), q(r, nr, 0.75), mc, q(c, nc, 0.25), q(c, nc, 0.75), delta, wins, n,
            signp(wins, n - ties)
    }
    printf "failed ops: ref %d of %d, change %d of %d\n", failed["ref"], attempted["ref"], failed["change"], attempted["change"]
}' "$WORK/metrics" "$WORK/data"
