# Every sweep binary shares the reflected config CLI: the resolved config
# dumps as JSON and replays with overrides, and an invalid override is a
# usage error naming its dotted path.
. "$(dirname "$0")/common.sh"

"$examples/quickstart" --dump-config > "$tmp/run.json"
json_ok "$tmp/run.json"
"$examples/quickstart" --config="$tmp/run.json" \
  --set num_servers=8 --set ior.total_bytes=2097152 \
  --dump-config > "$tmp/replay.json"
json_ok "$tmp/replay.json"
has "$tmp/replay.json" '"num_servers": 8'
has "$tmp/replay.json" '"ior.total_bytes": 2097152'
expect_exit2 'client.cores' "$examples/quickstart" --set client.cores=64
# The coin flip and the buffer cache are exclusive server residency models.
expect_exit2 'server.io.cache_hit_ratio' "$examples/quickstart" \
  --set server.io.cache_hit_ratio=0.5 \
  --set server.cache.capacity_bytes=1048576
has "$tmp/err.txt" 'server.cache.capacity_bytes'
# The bench CLI shares the same flags.
"$bench/bench_fig06_miss_1g" --threads=4 --dump-config > "$tmp/bench.json"
json_ok "$tmp/bench.json"
