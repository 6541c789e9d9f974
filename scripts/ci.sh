#!/usr/bin/env sh
# Continuous-integration entry point: build, run the full test suite,
# hold the benchmark to its fingerprints and allocation baseline, then
# smoke the benchmark driver in quick mode.
# Run from the repository root:  ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

# lint_probe LABEL PATH SOURCE RULE MISSED OK: plant SOURCE (printf %b
# escapes) at PATH in the real tree, assert scripts/lint_purity.sh
# rejects it and names the file and RULE, then remove the plant.
lint_probe() {
  label=$1 probe=$2 rule=$4
  printf '%b' "$3" > "$probe"
  if bash scripts/lint_purity.sh > /tmp/ci_lint_probe.txt 2>&1; then
    rm -f "$probe"
    echo "$label FAILED: $5 was not caught" >&2
    cat /tmp/ci_lint_probe.txt >&2
    exit 1
  fi
  rm -f "$probe"
  grep -q "$(basename "$probe" .ml).*$rule" /tmp/ci_lint_probe.txt || {
    echo "$label FAILED: rejection did not name the probe/$rule" >&2
    cat /tmp/ci_lint_probe.txt >&2
    exit 1
  }
  echo "$label OK ($6)"
}

echo "== lint-ast (simulator must stay deterministic) =="
# Build the analyzer, prove it still catches planted violations of each
# rule, then hold the real trees to it (R1, R2, R4-R6; DESIGN.md §10).
dune build tools/gcsim_lint/main.exe
bash scripts/lint_purity.sh --self-test
bash scripts/lint_purity.sh

echo "== lint-ast adversarial probe (a planted violation must fail) =="
# The self-test runs on fixtures; this plants a real violation in the
# real tree — an aliased module hiding host randomness — and asserts the
# lint rejects it.  Guards against the analyzer silently linting the
# wrong directories or losing its alias resolution.
lint_probe "lint-ast probe" lib/sim/ci_probe_deleteme.ml \
  'module R = Random\nlet x = R.int 3\n' R1 \
  "planted R1 violation" "planted violation rejected"

echo "== lint-ast R5 probe (a boxed reference slot must fail) =="
# Plant a Gobj.t option in the sentinel-only tree: the allocation-free
# object graph bans the boxed spelling from lib/{heap,collectors}
# (DESIGN.md §12), and this asserts the ban actually bites.
lint_probe "lint-ast R5 probe" lib/heap/ci_probe_r5_deleteme.ml \
  'type cell = { mutable slot : Gobj.t option }\n' R5 \
  "planted Gobj.t option" "boxed slot rejected"

echo "== lint-ast R6 probe (a polymorphic max on a hot path must fail) =="
# Plant Stdlib's polymorphic max in lib/workload, a hot-path tree
# outside the collector core: R6 must reach it, since every call goes
# through the runtime's compare_val (DESIGN.md §9).
lint_probe "lint-ast R6 probe" lib/workload/ci_probe_r6_deleteme.ml \
  'let wider a b = max a b\n' R6 \
  "planted polymorphic max" "polymorphic max rejected"

echo "== lint-ast helper-tree probes (helper trees are linted directly) =="
# lib/runtime and lib/util run inside every simulation, so R1 and R2 hold
# there as in the core: a toplevel ref is shared by the -j N domains,
# and a wall-clock read breaks replay.  These assert both trees are
# linted, not only parsed.
lint_probe "lint-ast runtime R2 probe" lib/runtime/ci_probe_r2_deleteme.ml \
  'let cache = ref 0\n' R2 \
  "planted toplevel ref" "toplevel ref rejected"
lint_probe "lint-ast util R1 probe" lib/util/ci_probe_r1_deleteme.ml \
  'let now () = Unix.gettimeofday ()\n' R1 \
  "planted wall-clock read" "wall-clock read rejected"

echo "== cross-module inlining (no simulator library is built with -opaque) =="
# dune-workspace selects the release profile, so ocamlopt may inline
# small accessors across modules (DESIGN.md §9).  Dune's dev profile
# passes -opaque to every module and turns that off.  Ask dune for the
# rule of one real module of each lib/* library and reject -opaque.
for dir in lib/*/; do
  dir=${dir%/}
  lib=$(sed -n 's/^ *(name \([a-z_]*\)).*/\1/p' "$dir/dune" | head -n 1)
  ml=$(ls "$dir"/*.ml | head -n 1)
  ml=$(basename "$ml" .ml)
  Ml=$(printf %s "$ml" | cut -c1 | tr a-z A-Z)$(printf %s "$ml" | cut -c2-)
  cmx="_build/default/$dir/.$lib.objs/native/${lib}__$Ml.cmx"
  dune rules "$cmx" > /tmp/ci_rules.txt
  grep -q 'ocamlopt' /tmp/ci_rules.txt || {
    echo "inlining check FAILED: dune printed no ocamlopt rule for $cmx" >&2
    exit 1
  }
  if grep -q -- '-opaque' /tmp/ci_rules.txt; then
    echo "inlining check FAILED: $cmx is compiled with -opaque" >&2
    exit 1
  fi
done
echo "no lib/* library is compiled with -opaque"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== sanitizer (invariant verifier + race detector, all collectors) =="
for c in jade g1 g1-10ms lxr zgc shenandoah genz genshen; do
  for w in h2-tpcc xalan; do
    echo "-- $c / $w --verify=full"
    dune exec bin/gcsim.exe -- run -c "$c" -w "$w" \
      -d 0.25 --warmup 0.1 --verify=full > /dev/null
  done
done

echo "== verify at the benchmark geometry (every evacuating collector) =="
# The loop above verifies at the CLI's 512 KiB regions, and whether a
# cell passes depends on the geometry (ROADMAP item 15).  gcsim trace's
# defaults are all8-lusearch-fixed's scenario: lusearch at 1.5x on 4
# cores with the regions Exp.machine_for picks.  Every collector's
# collection-set code (young snapshots, old slices, rollbacks, card
# scans) runs there under the full verifier; any violation exits 1.
dune exec bin/gcsim.exe -- trace \
  -c jade,g1,g1-10ms,lxr,zgc,shenandoah,genz,genshen \
  --requests 10000 --verify=full > /dev/null
echo "all eight collectors verified at lusearch 1.5x, 10000 requests"

echo "== verify outcome (a broken invariant is a report and exit 1) =="
# One collector's slice of the verify census (ROADMAP item 15): a
# passing cell and a failing one.  The passing cell is the benchmark's
# jade-h2-closed geometry (2x heap): Jade's old marks overlap most
# region releases there, so the verifier checks many batches of the
# dead records a mark holds back before the pool takes them when their
# grace period ends (DESIGN.md §12).  At 1.3x the verifier finds an
# uncovered old-to-young edge; gcsim run prints the report and exits 1,
# not cmdliner's crash code 125.  When ROADMAP item 12 mends that cell,
# pin another failing one.
echo "-- jade / h2-tpcc -m 2.0 --verify=full: passes --"
dune exec bin/gcsim.exe -- run -c jade -w h2-tpcc -m 2.0 \
  -d 0.25 --warmup 0.1 --verify=full > /dev/null
echo "-- jade / h2-tpcc -m 1.3 --verify=full: exits 1 naming remset-coverage --"
code=0
dune exec bin/gcsim.exe -- run -c jade -w h2-tpcc -m 1.3 \
  -d 0.25 --warmup 0.1 --verify=full > /tmp/ci_verify_fail.txt 2>&1 || code=$?
if [ "$code" -ne 1 ] || ! grep -q 'remset-coverage' /tmp/ci_verify_fail.txt; then
  cat /tmp/ci_verify_fail.txt >&2
  echo "verify outcome FAILED: exit $code, want 1 and a remset-coverage report" >&2
  exit 1
fi
echo "violation reported, exit 1"

echo "== verify at specjbb2015 1.75x (g1-specjbb-open's heap and regions) =="
# specjbb2015 at 1.75x on 8 cores with 512 KiB regions is the heap and
# region geometry of the benchmark's g1-specjbb-open.  Its set-up
# evacuates a large live set, and allocation takes the queued stubs
# once the dead-record freelist is empty (DESIGN.md §12), so this runs
# stub reuse by allocation as well as by copies under the full
# verifier.  Six collectors pass.  G1 and G1-10ms fail at this cell:
# the verifier finds an old-to-young edge that g1.remsets does not
# cover (ROADMAP items 12 and 15); gcsim run prints the report and
# exits 1.  When item 12 mends the cell, move them to the passing loop.
for c in jade lxr zgc shenandoah genz genshen; do
  echo "-- $c / specjbb2015 -m 1.75 --verify=full: passes --"
  dune exec bin/gcsim.exe -- run -c "$c" -w specjbb2015 -m 1.75 \
    -d 0.25 --warmup 0.1 --verify=full > /dev/null
done
for c in g1 g1-10ms; do
  echo "-- $c / specjbb2015 -m 1.75 --verify=full: exits 1 naming remset-coverage --"
  code=0
  dune exec bin/gcsim.exe -- run -c "$c" -w specjbb2015 -m 1.75 \
    -d 0.25 --warmup 0.1 --verify=full > /tmp/ci_verify_fail.txt 2>&1 || code=$?
  if [ "$code" -ne 1 ] \
    || ! grep -q 'remset-coverage violated (collector=g1 phase=remset-scan region=68 object=#1)' \
      /tmp/ci_verify_fail.txt; then
    cat /tmp/ci_verify_fail.txt >&2
    echo "verify outcome FAILED: exit $code, want 1 and remset-coverage at region 68, object #1" >&2
    exit 1
  fi
  echo "violation reported, exit 1"
done

echo "== schedule-space check smoke (explorer oracles stay clean) =="
# 64 random schedules at depth 8 over a small fixed workload: every
# schedule re-runs the simulation under the fast verifier + race
# detector, so this both exercises the explorer end to end and asserts
# that no legal interleaving of the default collector trips an oracle.
dune exec bin/gcsim.exe -- check -c jade -w avrora \
  --requests 2000 --schedules 64 --depth 8 --strategy rand \
  > /tmp/ci_check_j1.txt
cat /tmp/ci_check_j1.txt

echo "== parallel-check determinism fence (-j 2 byte-identical to -j 1) =="
# The same exploration fanned over two domains must print the same
# bytes: parallelism may only change wall-clock, never what is explored
# or reported (DESIGN.md §8).
dune exec bin/gcsim.exe -- check -c jade -w avrora \
  --requests 2000 --schedules 64 --depth 8 --strategy rand -j 2 \
  > /tmp/ci_check_j2.txt
diff -u /tmp/ci_check_j1.txt /tmp/ci_check_j2.txt
echo "check -j 2 output identical to -j 1"

echo "== schedule-space check smoke that evacuates (stub recycling under the oracles) =="
# The smoke above runs avrora at 4x, where no region is ever released.
# At 1.5x every schedule collects, evacuates and releases regions, so
# forwarded records pass through the grace-period limbo and the pool
# while the fast verifier (including its check of every recycled batch)
# and the race detector watch; and -j 2 must again print the same bytes.
dune exec bin/gcsim.exe -- check -c jade -w avrora -m 1.5 \
  --requests 400 --schedules 64 --depth 8 --strategy rand \
  > /tmp/ci_check_evac_j1.txt
cat /tmp/ci_check_evac_j1.txt
dune exec bin/gcsim.exe -- check -c jade -w avrora -m 1.5 \
  --requests 400 --schedules 64 --depth 8 --strategy rand -j 2 \
  > /tmp/ci_check_evac_j2.txt
diff -u /tmp/ci_check_evac_j1.txt /tmp/ci_check_evac_j2.txt
echo "evacuating check -j 2 output identical to -j 1"

echo "== heap-recycling fence (-j 2 byte-identical to -j 1 on a card-scanning cell) =="
# Each schedule's heap is rebuilt on the storage of the one its domain
# ran before (DESIGN.md §12), and at -j 2 the two domains recycle
# different chains of heaps.  Jade on lusearch at 1.5x scans cards in
# its schedules, so heap state that leaks from one schedule into the
# next prints different bytes here, in the end-state digest if no
# oracle trips: a build whose Heap_impl.reclaim leaves the card table
# dirty prints different digests at -j 1 and -j 2.
dune exec bin/gcsim.exe -- check -c jade -w lusearch -m 1.5 \
  --requests 300 --schedules 32 --depth 8 --strategy rand \
  > /tmp/ci_check_recycle_j1.txt
cat /tmp/ci_check_recycle_j1.txt
dune exec bin/gcsim.exe -- check -c jade -w lusearch -m 1.5 \
  --requests 300 --schedules 32 --depth 8 --strategy rand -j 2 \
  > /tmp/ci_check_recycle_j2.txt
diff -u /tmp/ci_check_recycle_j1.txt /tmp/ci_check_recycle_j2.txt
echo "recycling check -j 2 output identical to -j 1"

echo "== in-place recycling fence (-j 2 byte-identical to -j 1 where set-up dominates) =="
# On avrora at 4x nothing is collected, and every set-up object of a
# schedule is reissued in the record its slot held when the previous
# schedule on that domain ended (DESIGN.md §12); the run's first pool
# miss hands the slots left over to the pool.  A slot's record issued
# twice, or one of the old run's records left reachable, changes the
# end-state digest or trips an oracle, and differently at -j 2, where
# the two domains recycle different chains of heaps.
dune exec bin/gcsim.exe -- check -c jade -w avrora \
  --requests 400 --schedules 64 --depth 8 --strategy rand \
  > /tmp/ci_check_inplace_j1.txt
cat /tmp/ci_check_inplace_j1.txt
dune exec bin/gcsim.exe -- check -c jade -w avrora \
  --requests 400 --schedules 64 --depth 8 --strategy rand -j 2 \
  > /tmp/ci_check_inplace_j2.txt
diff -u /tmp/ci_check_inplace_j1.txt /tmp/ci_check_inplace_j2.txt
echo "in-place recycling check -j 2 output identical to -j 1"

echo "== pruned-strategy fence (-j 2 byte-identical to -j 1 with footprints recorded) =="
# Only --strategy pruned records per-thread access footprints and the
# candidates they are compared by (DESIGN.md §7); the fences above all
# run rand.  At 1.5x every schedule evacuates, so the footprints hold
# forwarding installs as well as cards, marks and region claims, and
# the pruned count and end-state digest must not depend on -j.
dune exec bin/gcsim.exe -- check -c jade -w avrora -m 1.5 \
  --requests 400 --schedules 32 --depth 8 --strategy pruned \
  > /tmp/ci_check_pruned_j1.txt
cat /tmp/ci_check_pruned_j1.txt
dune exec bin/gcsim.exe -- check -c jade -w avrora -m 1.5 \
  --requests 400 --schedules 32 --depth 8 --strategy pruned -j 2 \
  > /tmp/ci_check_pruned_j2.txt
diff -u /tmp/ci_check_pruned_j1.txt /tmp/ci_check_pruned_j2.txt
echo "pruned check -j 2 output identical to -j 1"

echo "== lint-ast obs probe (lib/obs is part of the linted tree) =="
# Same adversarial probe as above, planted in the observability library:
# the tracing/analysis layer runs host-side but must stay deterministic
# (its output is golden-tested byte-for-byte), so it is linted too.
lint_probe "lint-ast obs probe" lib/obs/ci_probe_deleteme.ml \
  'module R = Random\nlet x = R.int 3\n' R1 \
  "planted R1 violation" "planted violation rejected"

echo "== golden-trace fence (gcsim trace reproduces committed goldens) =="
# `gcsim trace` defaults are the golden scenario (lusearch, 4 cores,
# 1.5x heap, seed 42, 600 requests) — the same streams dune runtest
# snapshot-tests for all eight collectors.  Re-deriving two of them
# through the CLI path proves the CLI, the harness seam and the test
# harness agree byte-for-byte, and leaves a Chrome-JSON artifact
# (/tmp/ci_trace_jade.json, viewable in chrome://tracing or
# ui.perfetto.dev) behind for inspection.
for c in jade g1; do
  dune exec bin/gcsim.exe -- trace -c "$c" \
    --golden "/tmp/ci_trace_$c.trace" --out "/tmp/ci_trace_$c.json" \
    > /dev/null
  diff -u "test/golden/$c.trace" "/tmp/ci_trace_$c.trace"
done
echo "golden traces reproduced via the CLI (jade, g1)"

echo "== obs fence (bench obs reproduces the committed BENCH_obs.json) =="
# The full observability benchmark takes under a second.  It writes
# BENCH_obs.json to its working directory, so run it in a temp dir and
# diff the result against the committed file: a change that moves a
# pause percentile or MMU point must re-bless the file with it.
dune build bench/main.exe
root=$(pwd)
obs_dir=$(mktemp -d)
(cd "$obs_dir" && "$root/_build/default/bench/main.exe" obs > /dev/null)
diff -u BENCH_obs.json "$obs_dir/BENCH_obs.json"
rm -rf "$obs_dir"
echo "BENCH_obs.json reproduced"

echo "== table1 fence (quick Table 1 reproduces BENCH_table1_quick.txt) =="
# Quick Table 1 simulates four collectors on H2 in about ten seconds;
# every number it prints is simulated, so the output is byte-identical
# across hosts and -j N.  Only the host-time "done in" line is dropped.
# A change that moves a Table 1 metric must re-bless the file:
#   dune exec bench/main.exe -- --quick table1 \
#     | grep -v '^<<< .* done in ' > BENCH_table1_quick.txt
"$root/_build/default/bench/main.exe" --quick -j 2 table1 \
  | grep -v '^<<< .* done in ' > /tmp/ci_table1_quick.txt
diff -u BENCH_table1_quick.txt /tmp/ci_table1_quick.txt
echo "BENCH_table1_quick.txt reproduced"

echo "== benchmark fingerprint fence (bench/perf at seed 42) =="
# One repetition of each bench/perf workload.  Each workload's
# fingerprint digests exact integers of every simulation's end state
# (clock, requests, pauses, busy time, bytes allocated, objects minted);
# at seed 42 it must equal Catalog.seed42_fingerprints, and perf.exe
# exits non-zero on any mismatch.  So a refactor that claims to keep
# behaviour is held to it across all eight collectors.
if ! dune exec bench/perf/perf.exe -- run --seed 42 --reps 1 \
    --out /tmp/ci_perf_seed42.json > /tmp/ci_perf_seed42.txt 2>&1; then
  cat /tmp/ci_perf_seed42.txt >&2
  echo "benchmark fingerprint fence FAILED" >&2
  exit 1
fi
grep '^== ' /tmp/ci_perf_seed42.txt

echo "== perf gate (seed 42 vs committed BENCH_perf_seed42.json) =="
# Judge that run against the committed baseline row by row, not by
# compare's exit code: its wall-clock rows are noisy on a shared host.
# - alloc_mwords_per_sim_ms: host minor words repeat exactly for a seed,
#   so any workload more than 1.0% above the baseline fails (a 10%
#   regression confined to one of all8-lusearch-fixed's eight
#   collectors still moves that aggregate by about 1.25%);
# - promoted_mwords_per_sim_ms: fails when compare judges it worse;
# - sim_ms_per_host_s: fails below 0.5x the baseline, an
#   order-of-magnitude guard (an accidentally quadratic scan, a debug
#   hook left installed), not a noise gate.
dune exec bench/perf/perf.exe -- compare BENCH_perf_seed42.json \
  /tmp/ci_perf_seed42.json > /tmp/ci_perf_compare.txt 2>&1 || true
cat /tmp/ci_perf_compare.txt
awk '
  $2 == "alloc_mwords_per_sim_ms" { n++; if ($6 + 0 > 1.0) { print "FAIL " $0; bad++ } }
  $2 == "promoted_mwords_per_sim_ms" && $NF == "worse" { print "FAIL " $0; bad++ }
  $2 == "sim_ms_per_host_s" && $5 < 0.5 * $4 { print "FAIL " $0; bad++ }
  /missing from B/ { print "FAIL " $0; bad++ }
  END {
    if (n == 0) { print "FAIL compare printed no alloc_mwords_per_sim_ms rows"; bad++ }
    exit bad > 0
  }' /tmp/ci_perf_compare.txt || {
  echo "perf gate FAILED" >&2
  exit 1
}

echo "== no lint exemptions in lib/ =="
if grep -rn 'gcsim.allow' lib; then
  echo "[@gcsim.allow] found under lib/" >&2
  exit 1
fi

echo "== zero-perturbation fence (tracing must not move simulated time) =="
# Attaching the tracer must not move a single simulated number, the
# stream must be byte-identical at -j1 and -j4, and same-seed runs must
# match byte-for-byte.  These fences live in the obs suite's
# determinism group; run it explicitly so a CI log names it even when
# someone trims dune runtest.  The recorder group holds the host side
# of the same contract: recording an event allocates nothing on the
# minor heap, and every event reads back as emitted (DESIGN.md §11).
dune exec test/test_obs.exe -- test determinism
dune exec test/test_obs.exe -- test recorder

echo "== bench smoke (quick micro) =="
dune exec bench/main.exe -- --quick micro
