# A sweep bench runs on four threads and emits valid JSON and CSV.
. "$(dirname "$0")/common.sh"

"$bench/bench_fig06_miss_1g" --threads=4 --no-progress --format=json \
  > "$tmp/fig06.json"
json_ok "$tmp/fig06.json"
"$bench/bench_fig06_miss_1g" --threads=4 --no-progress --format=csv \
  > "$tmp/fig06.csv"
head -3 "$tmp/fig06.csv"
