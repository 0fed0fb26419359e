#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root.
# Every argument is passed to perf/main.exe, e.g.
#   bash perf/run.sh --workload advise-cold --seed 1 --seconds 12 --trace 0
# Build and run write only inside the checkout (_build/, perf/out/).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p perf/out/tmp
export TMPDIR="$PWD/perf/out/tmp"
dune build --root . --cache=disabled --display=quiet ./perf/main.exe >&2
exec ./_build/default/perf/main.exe "$@"
