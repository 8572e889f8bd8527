#!/usr/bin/env bash
# Two sets of N untraced runs of every workload (default 5), each run with
# another seed, as the driver measures them. Prints, per workload and
# end-to-end metric, both medians, how much worse the second is, each set's
# spread (distance between its quartiles over its median) and the bound from
# BENCHMARK.json. Exits non-zero if a second median is worse than the first
# by more than the bound, or a spread (except setup_s's) exceeds it.
#
#   benchmark/repeat.sh 10 > benchmark/REPEATABILITY.md
set -euo pipefail
n="${1:-5}"
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/melreq-benchmark"
diff <("$bin" --spec) "$here/../BENCHMARK.json" >&2 ||
    { echo "BENCHMARK.json is not what --spec prints" >&2; exit 1; }

mkdir -p "$here/out"
runs="$here/out/repeat-runs.jsonl" # kept (git ignores out/) for a closer look
: >"$runs"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/../BENCHMARK.json")"
for set in 1 2; do
    for i in $(seq 1 "$n"); do
        seed=$(((set - 1) * n + i))
        for w in $workloads; do
            echo "set $set seed $seed $w" >&2
            line="$("$bin" --workload "$w" --seed "$seed" --trace 0 | tail -n 1)"
            echo "{\"set\":$set,\"workload\":\"$w\",\"result\":$line}" >>"$runs"
        done
    done
done

python3 - "$runs" "$here/../BENCHMARK.json" "$n" <<'EOF'
import json, os, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
n = int(sys.argv[3])

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"# Repeatability: two sets of {n} runs, one seed per run\n")
print("`benchmark/repeat.sh %d` on %d vCPUs. `worse` is how much worse the second" % (n, os.cpu_count()))
print("set's median is than the first's (negative: better); `spread` is the distance")
print("between a set's quartiles over its median.\n")
print("| workload | metric | median 1 | median 2 | worse | spread 1 | spread 2 | bound | |")
print("|---|---|---:|---:|---:|---:|---:|---:|---|")
bad = 0
for w in spec["workloads"]:
    mine = [r for r in runs if r["workload"] == w["name"]]
    if not all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in mine):
        print(f"| {w['name']} | a run failed its checks | | | | | | | FAIL |")
        bad += 1
    for m in spec["end_to_end"]:
        sets = [[r["result"]["metrics"][m["name"]]["value"] for r in mine if r["set"] == s] for s in (1, 2)]
        med = [statistics.median(v) for v in sets]
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (med[1] - med[0]) / med[0]
        spreads = [spread(v) for v in sets]
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(spreads) <= m["bound"])
        bad += not ok
        print(f"| {w['name']} | {m['name']} ({m['unit']}) | {med[0]:.6g} | {med[1]:.6g} | {worse:+.2%} | "
              f"{spreads[0]:.2%} | {spreads[1]:.2%} | {m['bound']:.0%} | {'ok' if ok else 'FAIL'} |")
sys.exit(1 if bad else 0)
EOF
