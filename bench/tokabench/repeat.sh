#!/usr/bin/env bash
# Runs tokabench RUNS times per workload, each round with another seed and
# the workloads in rotated order (so no workload always runs first), then
# prints the median, the quartiles and the quartile spread (as a share of
# the median) of every metric, and the medians of the odd and the even
# rounds (two interleaved halves of the same code).
#
#   bash bench/tokabench/repeat.sh [-n RUNS] [-s SECONDS] [-t 0|1]
#                                  [-b FIRST_SEED] [-o OUT.json] [WORKLOAD...]
#
# -o writes the summary, every raw result, git_sha and host_cpus as JSON.
# Needs python3 (standard library only) for the statistics.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
runs=10
seconds=15
trace=0
first_seed=1
out=""
while getopts "n:s:t:b:o:" opt; do
  case $opt in
    n) runs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    t) trace=$OPTARG ;;
    b) first_seed=$OPTARG ;;
    o) out=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(wire_zipf wire_batch wire_mixed cluster_failover)
fi

build=${TOKABENCH_BUILD_DIR:-$root/.bench_build/tokabench}
mkdir -p "$build"
raw=$build/repeat-raw.jsonl
: > "$raw"
cd "$root"
for ((i = 0; i < runs; i++)); do
  seed=$((first_seed + i))
  for ((j = 0; j < ${#workloads[@]}; j++)); do
    w=${workloads[$(((i + j) % ${#workloads[@]}))]}
    line=$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" \
             --trace "$trace" 2> /dev/null | tail -n 1) || true
    case $line in
      "{"*) ;;
      *) line='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}' ;;
    esac
    printf '{"workload": "%s", "round": %d, "seed": %d, "result": %s}\n' \
      "$w" "$i" "$seed" "$line" >> "$raw"
    echo "repeat: round $((i + 1))/$runs $w seed $seed done" >&2
  done
done

git_sha=$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)
python3 - "$raw" "$out" "$git_sha" "$(nproc)" "$seconds" "$trace" "$first_seed" <<'EOF'
import json, statistics, sys, time

raw, out, git_sha, cpus, seconds, trace, first_seed = sys.argv[1:8]
rows = [json.loads(line) for line in open(raw)]
summary = {"git_sha": git_sha, "host_cpus": int(cpus),
           "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "seconds": float(seconds),
           "trace": int(trace), "first_seed": int(first_seed), "workloads": {}}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

ok = True
for w in dict.fromkeys(r["workload"] for r in rows):
    runs = [r for r in rows if r["workload"] == w]
    bad = [r["seed"] for r in runs if not r["result"]["correct"]]
    ok = ok and not bad
    entry = {"runs": len(runs), "incorrect_seeds": bad,
             "failed": [r["result"]["failed"] for r in runs], "metrics": {}}
    names = dict.fromkeys(n for r in runs for n in r["result"]["metrics"])
    print(f"== {w}: {len(runs)} runs, {len(bad)} incorrect")
    print(f"   {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'odd/even':>9}")
    for n in names:
        vals = [r["result"]["metrics"][n]["value"] for r in runs
                if n in r["result"]["metrics"]]
        unit = next(r["result"]["metrics"][n]["unit"] for r in runs
                    if n in r["result"]["metrics"])
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else 0.0
        odd = [r["result"]["metrics"][n]["value"] for r in runs
               if n in r["result"]["metrics"] and r["round"] % 2 == 0]
        even = [r["result"]["metrics"][n]["value"] for r in runs
                if n in r["result"]["metrics"] and r["round"] % 2 == 1]
        halves = 0.0
        if odd and even and statistics.median(odd):
            halves = abs(statistics.median(even) / statistics.median(odd) - 1)
        entry["metrics"][n] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "halves_diff": halves,
                               "values": vals}
        print(f"   {n:32} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
              f"{halves:9.4f}  {unit}")
    summary["workloads"][w] = entry
if out:
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
sys.exit(0 if ok else 1)
EOF
