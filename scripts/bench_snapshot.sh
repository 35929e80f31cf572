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
#  - BENCH_service.json: the tokend service load generator (service_load
#    --quick): acquire throughput and latency percentiles over 1M+ Zipf-
#    distributed keys, raw (one thread on the table), plus the paired
#    single-connection sync and pipelined closed loops over the epoll mesh
#    (async client, pipelined ops/s + p99 recorded) and the tokad cluster pair
#    (1-node vs 3-node in-proc cluster, cluster micro numbers included via
#    the HashRing micro-benchmarks), and the shard-per-thread plane pair
#    (sharded: batches straight into the ShardEngine; epoll: pipelined
#    clients over the nonblocking event-loop mesh into the server), each
#    with shard-queue depth percentiles. Also enforces the 100k
#    acquire-ops/s floor, the pipelined >= sync floor, the 3-node >= 1.5x
#    1-node cluster scale-out floor, and (on >= 4 cores) the sharded-plane
#    absolute floor. service_load evaluates every gate and records each
#    outcome in the JSON's "gates" array; when any gate fails, this script
#    still writes the remaining snapshots (tokactl included) and then
#    exits non-zero.
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

# Service-layer snapshot: the load generator writes the JSON itself (it has
# the latency samples). --min-table-ops is the CI acceptance floor for raw
# acquire throughput; --min-pipeline-speedup demands the pipelined async
# client at least matches the sync closed loop on one epoll-mesh connection
# (locally it is many times faster; CI hardware is noisy, so the floor
# only catches the pipeline regressing into sync behaviour);
# --min-cluster-speedup is the tokad scale-out floor: 3 in-proc cluster
# nodes (one dispatcher lane each ≈ one machine) must beat one node by
# >= 1.5x on the same pipelined Zipf workload, with zero client-visible
# errors. The cluster floor needs real parallelism: on hosts with fewer
# than 4 cores (CI runners have 4 vCPUs) the 3 node lanes time-share one
# or two cores and the ratio measures the scheduler, not the sharding —
# so below 4 cores the floor is dropped and a warning printed instead of
# a hard failure. CI keeps the hard floor.
#
# The sharded floor follows the same rule: the engine (--min-sharded-ops)
# only shows its parallelism when the owner workers get their own cores —
# on one or two cores the workers time-slice against the submitters and
# the number measures the scheduler.
#
# The flight-recorder ceiling (--max-trace-overhead=2: the sharded run with
# the tracer attached and every batch stamped may cost at most 2% against
# the untraced run) is gated the same way: on one or two cores the
# recorder's worker-side clock reads steal cycles from the submitter
# thread and the delta measures time-slicing, not the recorder.
# The replication churn smoke always runs (--replicas=1 adds a replicated
# churn run whose failover time, forfeit accounting and delta-stream
# overhead land in the JSON's "replication" block), but its enforcement —
# the failover must install replicas with zero client errors and a bounded
# forfeit, and the delta stream may cost at most 15% of unreplicated churn
# throughput — follows the >= 4-core rule like every other ratio: on fewer
# cores the follower lanes time-share the primaries' cores and the
# overhead measures the scheduler, not the stream.
cpus=$(nproc 2>/dev/null || echo 1)
if [ "$cpus" -ge 4 ]; then
  cluster_floor="--min-cluster-speedup=1.5"
  sharded_floor="--min-sharded-ops=250000"
  trace_ceiling="--max-trace-overhead=2"
  watchdog_ceiling="--max-watchdog-overhead=2"
  repl_floor="--enforce-replication-churn --max-replication-overhead=15"
else
  cluster_floor=""
  sharded_floor=""
  trace_ceiling=""
  watchdog_ceiling=""
  repl_floor=""
  echo "WARN: only ${cpus} core(s); skipping the cluster scale-out floor" \
       "(needs >= 4 cores to measure sharding, not scheduling)" >&2
  echo "WARN: only ${cpus} core(s); skipping the sharded-plane floor" \
       "(shard-owner workers need their own cores)" >&2
  echo "WARN: only ${cpus} core(s); skipping the trace-overhead ceiling" \
       "(the delta measures time-slicing, not the recorder)" >&2
  echo "WARN: only ${cpus} core(s); skipping the watchdog-overhead ceiling" \
       "(same rule: the delta measures time-slicing, not the auditor)" >&2
  echo "WARN: only ${cpus} core(s); skipping the replication churn floors" \
       "(follower lanes need their own cores to price the delta stream)" >&2
fi
# A failed gate does not stop the script: its status is kept, every other
# snapshot is still written, and the script exits with it at the end.
service_status=0
# shellcheck disable=SC2086  # the floor vars are intentionally unquoted
"$build_dir/service_load" --quick --json="$service_out" \
    --scrape-out="$scrape_out" --trace-out="$trace_out" \
    --replicas=1 \
    --git-sha="$git_sha" --timestamp="$run_stamp" \
    --min-table-ops=100000 --min-pipeline-speedup=1.0 \
    $cluster_floor $sharded_floor $trace_ceiling $watchdog_ceiling \
    $repl_floor > /dev/null || service_status=$?
acquire_ops=$(sed -n 's/.*"acquire_ops_per_sec": \([0-9]*\).*/\1/p' "$service_out")
sharded_ops=$(sed -n 's/.*"sharded_ops_per_sec": \([0-9]*\).*/\1/p' "$service_out")
pipeline_ops=$(sed -n 's/.*"pipeline_ops_per_sec": \([0-9]*\).*/\1/p' "$service_out")
epoll_ops=$(sed -n 's/.*"epoll_ops_per_sec": \([0-9]*\).*/\1/p' "$service_out")
cluster_x=$(sed -n 's/.*"cluster_speedup": \([0-9.]*\).*/\1/p' "$service_out")
shed=$(sed -n 's/.*"overload_shed": \([0-9]*\).*/\1/p' "$service_out")
served=$(sed -n 's/.*"overload_served": \([0-9]*\).*/\1/p' "$service_out")
scn_served=$(sed -n 's/.*"served": \([0-9]*\), "shed".*/\1/p' "$service_out" | head -1)
scn_violations=$(sed -n 's/.*"violations": \([0-9]*\),$/\1/p' "$service_out" | head -1)
failover_ms=$(sed -n 's/.*"failover_ms": \([0-9.]*\).*/\1/p' "$service_out")
forfeited=$(sed -n 's/.*"tokens_forfeited": \([0-9-]*\),$/\1/p' "$service_out" | head -1)
echo "wrote $service_out (table: ${acquire_ops} ops/s, sharded: ${sharded_ops:-0} ops/s, pipelined wire: ${pipeline_ops} ops/s, epoll wire: ${epoll_ops:-0} ops/s, 3-node cluster: ${cluster_x}x one node, overload served/shed: ${served:-0}/${shed:-0}, scenario served: ${scn_served:-0}, violations: ${scn_violations:-0}, replicated failover: ${failover_ms:-n/a} ms, forfeited: ${forfeited:-0} tokens)"
echo "wrote $scrape_out (overload-run Prometheus exposition)"
echo "wrote $trace_out (scenario-run flight-recorder spans)"

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
