# Shared prelude of the smoke scripts. ctest runs each step as
#   bash tests/smoke/<step>.sh BUILD_DIR SOURCE_DIR TRACING
# (label `smoke`, so `ctest -L smoke` runs them all); every step drives
# the built CLI binaries end to end and fails on the first broken check.
# TRACING is the build's SAISIM_TRACING setting, ON or OFF.
set -eu
if [ $# -ne 3 ]; then
  echo "usage: $0 BUILD_DIR SOURCE_DIR ON|OFF" >&2
  exit 2
fi
bench=$1/bench
examples=$1/examples
tools=$2/tools
tracing=$3
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# traced: the build records trace events. Without them a --trace file
# still parses but holds no span slices or instants, so the steps that
# read those (tools/trace_summary) run only when this holds.
traced() { [ "$tracing" = ON ]; }

# json_ok FILE: FILE parses as JSON.
json_ok() { python3 -m json.tool "$1" > /dev/null; }

# has FILE PATTERN: some line of FILE matches PATTERN (grep -E).
has() {
  grep -qE -- "$2" "$1" || { echo "no match for '$2' in $1" >&2; exit 1; }
}

# expect_exit2 NEEDLE CMD...: CMD exits 2 and names NEEDLE on stderr,
# which stays in $tmp/err.txt for further checks.
expect_exit2() {
  local needle=$1 status=0
  shift
  "$@" > /dev/null 2> "$tmp/err.txt" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2, got $status: $*" >&2
    exit 1
  fi
  has "$tmp/err.txt" "$needle"
}
