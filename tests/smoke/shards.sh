# sim.shards is a pure performance knob, never a model input: a sweep at
# shards 1 and 4 emits identical metrics JSON, and the per-shard kernel
# and barrier counters reach the trace_summary utilization table.
. "$(dirname "$0")/common.sh"

"$examples/quickstart" --set sim.shards=4 > /dev/null
"$bench/bench_bw_1g" --threads=2 --no-progress --format=json \
  --set sim.shards=1 > "$tmp/bw.shards1.json"
"$bench/bench_bw_1g" --threads=2 --no-progress --format=json \
  --set sim.shards=4 > "$tmp/bw.shards4.json"
diff "$tmp/bw.shards1.json" "$tmp/bw.shards4.json"
"$examples/quickstart" --set sim.shards=4 \
  --trace="$tmp/shards.trace.json" \
  --metrics="$tmp/shards.metrics.csv" > /dev/null
"$tools/trace_summary" --metrics "$tmp/shards.metrics.csv" \
  "$tmp/shards.trace.json" > "$tmp/summary.txt"
has "$tmp/summary.txt" 'imbalance \(max/mean executed\)'
has "$tmp/summary.txt" 'sync_wait'
