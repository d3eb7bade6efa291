# The deep-server ablation emits valid JSON; with server.cache.* and
# server.sched.* set through --set, the span exporter grows the server
# sub-phases and the gated per-server counters feed the deep-server table.
. "$(dirname "$0")/common.sh"

"$bench/bench_server_depth" --threads=4 --no-progress --format=json \
  > "$tmp/depth.json"
json_ok "$tmp/depth.json"
"$examples/quickstart" \
  --set server.cache.capacity_bytes=1048576 \
  --set server.cache.readahead_blocks=16 \
  --set server.sched.enabled=true \
  --trace="$tmp/deep.trace.json" \
  --metrics="$tmp/deep.metrics.csv" > /dev/null
json_ok "$tmp/deep.trace.json"
has "$tmp/deep.metrics.csv" ',server0\.cache\.'
if traced; then
  "$tools/trace_summary" --phases-only "$tmp/deep.trace.json" \
    > "$tmp/phases.txt"
  has "$tmp/phases.txt" 'cache'
  "$tools/trace_summary" --metrics "$tmp/deep.metrics.csv" \
    "$tmp/deep.trace.json" > "$tmp/summary.txt"
  has "$tmp/summary.txt" 'deep I/O servers'
  # A per-server row with every column numeric: hit ratio, read-ahead
  # useful/issued, mean queue depth and flush share all found their rows.
  has "$tmp/summary.txt" \
    '^  [0-9]+ +[0-9]\.[0-9]{3} +[0-9]+/[0-9]+ +[0-9]+\.[0-9]{2} +[0-9]+\.[0-9]%$'
fi
