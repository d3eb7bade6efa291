# Every sweep binary shares --trace/--metrics: an example and a bench
# export a trace and a counter CSV, a --trace-filter keeps the excluded
# subsystems out, and an unknown subsystem is a usage error.
. "$(dirname "$0")/common.sh"

"$examples/quickstart" \
  --trace="$tmp/quickstart.trace.json" \
  --metrics="$tmp/quickstart.metrics.csv" > /dev/null
json_ok "$tmp/quickstart.trace.json"
"$tools/trace_summary" --phases-only "$tmp/quickstart.trace.json"
head -3 "$tmp/quickstart.metrics.csv"
has "$tmp/quickstart.metrics.csv" '^run,label,counter,value$'
# Spans need the net/cpu/pfs/workload milestones; apic and mem events are
# filtered out and must not appear.
"$bench/bench_bw_1g" --threads=4 --no-progress --format=csv \
  --trace="$tmp/bw1g.trace.json" --trace-filter=net,cpu,pfs,workload \
  --metrics="$tmp/bw1g.metrics.csv" > /dev/null
"$tools/trace_summary" "$tmp/bw1g.trace.json" > "$tmp/bw1g.summary"
cat "$tmp/bw1g.summary"
if grep -qE '\bapic\b|\bmem\b' "$tmp/bw1g.summary"; then
  echo "filtered subsystems leaked into the trace" >&2
  exit 1
fi
expect_exit2 'nosuch' \
  "$examples/quickstart" --trace="$tmp/x.json" --trace-filter=nosuch
