# The behaviour contract for the sweep benches: each bench's JSON is
# byte-identical to the committed sha256. The output does not depend on
# --threads (1, 2 and 4 give the same bytes), so the step runs at 4.
#
# A change that is meant to move simulated output re-pins here: run
#   bench/<name> --threads=4 --no-progress --format=json | sha256sum
# and record the old and new hash in CHANGES.md.
. "$(dirname "$0")/common.sh"

status=0
check() {
  local name=$1 want=$2 got
  got=$("$bench/$name" --threads=4 --no-progress --format=json | sha256sum)
  got=${got%% *}
  if [ "$got" != "$want" ]; then
    echo "$name: JSON sha256 $got, pinned $want" >&2
    status=1
  fi
}

check bench_fault \
  c4eb347f1e193d2c03d2c5e582625844eb23fb877fb05ba3f4d94a7838d2365c
check bench_straggler_sched \
  ec79c55eaa2c9edc67b08329e09821515841c24d349da856808bda281cc67428
check bench_server_depth \
  447ff25a8d8bf6bfc5f7207bf6d52c210b16c4cce73eb3bea4d127534f4f0ac7
check bench_fig12_multiclient \
  65d10e0bbfa008eafc322bfc63fea837a21dc3723b6bb68286ab72605c692fdf
exit $status
