#!/usr/bin/env bash
# Build perf.exe from source in this checkout, then measure one workload:
#
#   bash bench/perf/bench.sh --workload W --seed S --seconds T --trace 0|1
#
# Prints the tables of `perf.exe bench` and, as its last line, one JSON
# object with the result.  It may be started from any directory: it
# changes to the repository root first.  See README.md in this directory.
set -euo pipefail

cd "$(dirname "$0")/../.."

# The benchmark drives the simulator's libraries, so it needs the whole
# repository, not just this directory.
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/perf: $(pwd) holds no repository to build (dune-project and lib/ are missing)" >&2
  exit 2
fi

# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe bench "$@"
