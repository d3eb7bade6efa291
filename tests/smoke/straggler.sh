# The client scheduler ablation emits valid JSON, the reflected
# client.sched.* knobs land through --set, and hedge activity surfaces in
# both the trace instants and the gated pfs.* counters.
. "$(dirname "$0")/common.sh"

"$bench/bench_straggler_sched" --threads=4 --no-progress --format=json \
  > "$tmp/sched.json"
json_ok "$tmp/sched.json"
"$examples/quickstart" \
  --set client.sched.policy=straggler_aware \
  --set client.sched.min_samples=1 \
  --set client.sched.hedge_quantile=0.5 \
  --set fault.max_jitter=3000000000 \
  --trace="$tmp/sched.trace.json" \
  --metrics="$tmp/sched.metrics.csv" > /dev/null
json_ok "$tmp/sched.trace.json"
has "$tmp/sched.metrics.csv" ',pfs\.hedges_issued,'
if traced; then
  "$tools/trace_summary" "$tmp/sched.trace.json" > "$tmp/summary.txt"
  has "$tmp/summary.txt" 'hedged strips'
  "$tools/trace_summary" --metrics "$tmp/sched.metrics.csv" \
    "$tmp/sched.trace.json" > "$tmp/summary.txt"
  has "$tmp/summary.txt" 'client scheduler'
fi
