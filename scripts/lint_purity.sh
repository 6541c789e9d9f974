#!/usr/bin/env bash
# Purity lint: the simulator must be deterministic.
#
# Everything under lib/{sim,core,heap,collectors,obs,util,runtime,
# experiments,workload} runs inside the discrete-event simulation, where
# runs are replayed bit-for-bit by the schedule-space explorer (gcsim
# check), fanned out over sibling domains by -j N, and diffed across
# collectors.  Host nondeterminism — wall-clock time, environment
# lookups, host randomness, hash-order iteration, shared toplevel cells,
# or stray printing that interleaves with test output — silently breaks
# that contract, so new uses fail CI here rather than surfacing as an
# unreproducible replay much later.
#
# This script is a thin wrapper over the AST-grounded analyzer in
# tools/gcsim_lint (built on compiler-libs), which replaced the old
# regex scan.  It lints all nine trees directly.  Rules (see DESIGN.md
# §10; R3 is retired):
#
#   R1  forbidden host-effect primitives (Unix.*, Random.*, Sys.time /
#       getenv, print*, Hashtbl.hash, Format.std_formatter, ...), seen
#       through module aliases, opens and functor arguments;
#   R2  toplevel mutable cells (ref / Hashtbl.create / Atomic.make /
#       Array.make / ...) outside Domain.DLS.new_key — including cells
#       built in toplevel "let () = ..." initializers and lazy blocks;
#   R4  DLS-handle caching discipline: Access.hooks () / Gobj.uid_source
#       () results may only be bound inside function bodies or
#       run-threaded records, never at module toplevel;
#   R5  allocation-free object graph: the type "Gobj.t option" may not
#       appear in lib/heap or lib/collectors — reference slots use the
#       unboxed Gobj.null sentinel, so the simulated heap's hot path
#       never boxes a reference on the host minor heap;
#   R6  no polymorphic comparison on hot paths: Stdlib's min, max and
#       compare may not appear in lib/{sim,core,heap,collectors,runtime,
#       workload} — each call goes through the runtime's compare_val;
#       use Int.min, Float.max, String.compare.
#
# Deliberate exemptions are annotated in-source with
#   [@gcsim.allow "reason"]   (expressions)
#   [@@gcsim.allow "reason"]  (toplevel bindings)
# and stale annotations — ones that no longer suppress anything — fail
# the lint, so paid-off debt is retired automatically.
#
# Usage:
#   scripts/lint_purity.sh               lint the real simulator trees
#   scripts/lint_purity.sh --self-test   run the analyzer's fixture tree
set -euo pipefail
cd "$(dirname "$0")/.."

LINTED="lib/sim lib/core lib/heap lib/collectors lib/obs lib/util lib/runtime
lib/experiments lib/workload"

dune build tools/gcsim_lint/main.exe 2>&1

# shellcheck disable=SC2086
exec dune exec --no-build tools/gcsim_lint/main.exe -- "$@" $LINTED
