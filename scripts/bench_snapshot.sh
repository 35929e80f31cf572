#!/bin/sh
# Captures performance snapshots as JSON documents, starting the perf
# trajectory the ROADMAP asks for:
#
#  - BENCH_engine.json: wall-clock times for the figure-driver smokes that
#    stress the engine hot paths, plus (when the Google-Benchmark binary was
#    built) the engine micro-benchmarks: select_peer, event queue push/pop,
#    churn toggles, MPSC op-queue push/pop and cross-thread hand-off, the
#    shard-engine op round trip, and the account table's per-acquire cost
#    (cache-missing hits on 2M keys, and first-contact inserts).
#  - BENCH_service.json: service_load --quick --gates, the service load
#    generator's runs and the outcome of every gate in its gate table
#    (kGates in bench/service_load.cpp, which also says which gates need
#    >= 4 CPUs). A failed gate does not stop the script: every other
#    snapshot (tokactl included) is still written, then the script exits
#    with service_load's status.
#
# Usage: bench_snapshot.sh [build-dir] [engine.json] [service.json] [scrape.txt] [traces.json] [tokactl.txt]
# CI uploads the outputs as artifacts per commit.
set -eu

build_dir=${1:-build}
out=${2:-BENCH_engine.json}
service_out=${3:-BENCH_service.json}
scrape_out=${4:-BENCH_scrape.txt}
trace_out=${5:-BENCH_traces.json}
tokactl_out=${6:-BENCH_tokactl.txt}
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Milliseconds of wall clock for a command, output discarded. GNU date
# gives nanoseconds via %N; BSD/macOS date prints a literal 'N', so fall
# back to whole seconds there.
case $(date +%N) in
  *N*) have_ns=0 ;;
  *)   have_ns=1 ;;
esac
time_ms() {
  if [ "$have_ns" = 1 ]; then
    start=$(date +%s%N)
    "$@" > /dev/null 2>&1
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
  else
    start=$(date +%s)
    "$@" > /dev/null 2>&1
    end=$(date +%s)
    echo $(( (end - start) * 1000 ))
  fi
}

# Provenance stamped into every BENCH_*.json this script produces.
git_sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
run_stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

fig4_ms=$(time_ms "$build_dir/fig4_scale" --quick)
fig2_ms=$(time_ms "$build_dir/fig2_failure_free" --quick)
fig3_ms=$(time_ms "$build_dir/fig3_trace" --quick)

micro_json=null
if [ -x "$build_dir/micro_bench" ]; then
  "$build_dir/micro_bench" \
      --benchmark_filter='BM_(SelectPeer|EventQueue|ChurnToggle|SimulatorThroughput|Protocol|ServiceRoundTrip|HashRing|MpscQueue|ShardOp|AccountTable)' \
      --benchmark_out="$tmpdir/micro.json" --benchmark_out_format=json \
      > /dev/null 2>&1
  micro_json=$(cat "$tmpdir/micro.json")
fi

cat > "$out" <<EOF
{
  "schema": "toka-bench-engine-v1",
  "timestamp": "$run_stamp",
  "commit": "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)",
  "git_sha": "$git_sha",
  "host_cpus": $(nproc 2>/dev/null || echo 1),
  "wall_ms": {
    "fig4_scale_quick": $fig4_ms,
    "fig2_failure_free_quick": $fig2_ms,
    "fig3_trace_quick": $fig3_ms
  },
  "micro_bench": $micro_json
}
EOF

echo "wrote $out (fig4_scale --quick: ${fig4_ms} ms)"

# Service-layer snapshot: service_load writes the JSON and the scenario
# server's scrape and spans itself, and its last line is the summary.
service_status=0
"$build_dir/service_load" --quick --gates --json="$service_out" \
    --scrape-out="$scrape_out" --trace-out="$trace_out" \
    --git-sha="$git_sha" --timestamp="$run_stamp" || service_status=$?

# The operator CLI against a live (in-process, kill+promote churned)
# cluster: the merged kStats sweep and the §3.4 watchdog verdict become a
# per-commit artifact, and a non-zero exit (sweep failed, watchdog
# violation, no cross-node trace) fails the job.
"$build_dir/tokactl" stats > "$tokactl_out"
echo "wrote $tokactl_out (tokactl merged cluster stats)"

if [ "$service_status" -ne 0 ]; then
  echo "FAIL: service_load exited $service_status; the failed gates are" \
       "marked \"pass\": false in $service_out" >&2
  exit "$service_status"
fi
