#!/bin/sh
# Build the end-to-end benchmark from source, then run it with the given
# arguments. Run from the repository root:
#   sh bench/e2e/run.sh --workload scale-ring --seed 0 --seconds 15 --trace 0
set -e
if [ ! -f dune-project ] || [ ! -d lib/dist ]; then
  echo "bench/e2e/run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
