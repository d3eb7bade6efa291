# The fault ablation emits valid JSON, and the reflected fault.* knobs
# land through the shared --set channel.
. "$(dirname "$0")/common.sh"

"$bench/bench_fault" --threads=4 --no-progress --format=json > "$tmp/fault.json"
json_ok "$tmp/fault.json"
"$examples/quickstart" --set fault.loss_rate=0.05 \
  --set client.pfs.retransmit_timeout=50000000000 > /dev/null
