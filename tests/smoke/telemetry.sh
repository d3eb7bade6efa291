# Telemetry sampling on: the timeline CSV and the Perfetto "C" counter
# tracks appear and trace_summary renders the sparkline view; SLO
# thresholds without sampling are a usage error naming the knob.
# sample_period is a reflected Time field in picoseconds (1 ms here).
. "$(dirname "$0")/common.sh"

"$examples/quickstart" \
  --set telemetry.sample_period=1000000000 \
  --trace="$tmp/telemetry.trace.json" \
  --timeline="$tmp/telemetry.csv" > /dev/null
has "$tmp/telemetry.trace.json" '"ph":"C"'
has "$tmp/telemetry.csv" '^run,label,sample,time_us,metric,value$'
has "$tmp/telemetry.csv" 'cpu_qdepth'
"$tools/trace_summary" --timeline "$tmp/telemetry.trace.json" \
  > "$tmp/timeline.txt"
has "$tmp/timeline.txt" 'SLO breach'
expect_exit2 'sample_period' \
  "$examples/quickstart" --set telemetry.slo.p99_read_latency_us=1000
