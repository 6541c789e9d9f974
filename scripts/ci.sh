#!/usr/bin/env sh
# Continuous-integration entry point: build, run the full test suite,
# then smoke the benchmark driver in quick mode (micro + engine speed).
# Run from the repository root:  ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== lint-ast (simulator core must stay deterministic) =="
# Build the analyzer, prove it still catches planted violations of each
# rule, then hold the real tree to it (R1-R4, see DESIGN.md §10).
dune build tools/gcsim_lint/main.exe
bash scripts/lint_purity.sh --self-test
bash scripts/lint_purity.sh

echo "== lint-ast adversarial probe (a planted violation must fail) =="
# The self-test runs on fixtures; this plants a real violation in the
# real tree — an aliased module hiding host randomness — and asserts the
# lint rejects it.  Guards against the analyzer silently linting the
# wrong directories or losing its alias resolution.
probe=lib/sim/ci_probe_deleteme.ml
printf 'module R = Random\nlet x = R.int 3\n' > "$probe"
if bash scripts/lint_purity.sh > /tmp/ci_lint_probe.txt 2>&1; then
  rm -f "$probe"
  echo "lint-ast probe FAILED: planted R1 violation was not caught" >&2
  cat /tmp/ci_lint_probe.txt >&2
  exit 1
fi
rm -f "$probe"
grep -q 'ci_probe_deleteme.*R1' /tmp/ci_lint_probe.txt || {
  echo "lint-ast probe FAILED: rejection did not name the probe/R1" >&2
  cat /tmp/ci_lint_probe.txt >&2
  exit 1
}
echo "lint-ast probe OK (planted violation rejected)"

echo "== lint-ast R5 probe (a boxed reference slot must fail) =="
# Plant a Gobj.t option in the sentinel-only tree: the allocation-free
# object graph bans the boxed spelling from lib/{heap,collectors}
# (DESIGN.md §12), and this asserts the ban actually bites.
probe=lib/heap/ci_probe_r5_deleteme.ml
printf 'type cell = { mutable slot : Gobj.t option }\n' > "$probe"
if bash scripts/lint_purity.sh > /tmp/ci_lint_r5_probe.txt 2>&1; then
  rm -f "$probe"
  echo "lint-ast R5 probe FAILED: planted Gobj.t option was not caught" >&2
  cat /tmp/ci_lint_r5_probe.txt >&2
  exit 1
fi
rm -f "$probe"
grep -q 'ci_probe_r5_deleteme.*R5' /tmp/ci_lint_r5_probe.txt || {
  echo "lint-ast R5 probe FAILED: rejection did not name the probe/R5" >&2
  cat /tmp/ci_lint_r5_probe.txt >&2
  exit 1
}
echo "lint-ast R5 probe OK (boxed slot rejected)"

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

echo "== lint-ast obs probe (lib/obs is part of the linted tree) =="
# Same adversarial probe as above, planted in the observability library:
# the tracing/analysis layer runs host-side but must stay deterministic
# (its output is golden-tested byte-for-byte), so it is linted too.
probe=lib/obs/ci_probe_deleteme.ml
printf 'module R = Random\nlet x = R.int 3\n' > "$probe"
if bash scripts/lint_purity.sh > /tmp/ci_lint_obs_probe.txt 2>&1; then
  rm -f "$probe"
  echo "lint-ast obs probe FAILED: planted R1 violation was not caught" >&2
  cat /tmp/ci_lint_obs_probe.txt >&2
  exit 1
fi
rm -f "$probe"
grep -q 'ci_probe_deleteme.*R1' /tmp/ci_lint_obs_probe.txt || {
  echo "lint-ast obs probe FAILED: rejection did not name the probe/R1" >&2
  cat /tmp/ci_lint_obs_probe.txt >&2
  exit 1
}
echo "lint-ast obs probe OK (planted violation rejected)"

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

echo "== benchmark fingerprint fence (bench/perf at seed 42) =="
# One repetition of each bench/perf workload.  Each workload's
# fingerprint digests exact integers of every simulation's end state
# (clock, requests, pauses, busy time, bytes allocated, objects minted);
# at seed 42 it must equal Catalog.seed42_fingerprints, and perf.exe
# exits non-zero on any mismatch.  So a refactor that claims to keep
# behaviour is held to it across all eight collectors.
if ! dune exec bench/perf/perf.exe -- run --seed 42 --reps 1 \
    > /tmp/ci_perf_seed42.txt 2>&1; then
  cat /tmp/ci_perf_seed42.txt >&2
  echo "benchmark fingerprint fence FAILED" >&2
  exit 1
fi
grep '^== ' /tmp/ci_perf_seed42.txt

echo "== no lint exemptions in the collectors (lib/collectors, lib/core) =="
if grep -rn 'gcsim.allow' lib/collectors lib/core; then
  echo "[@gcsim.allow] found under lib/collectors or lib/core" >&2
  exit 1
fi

echo "== zero-perturbation fence (tracing must not move simulated time) =="
# Attaching the tracer must not move a single simulated number, the
# stream must be byte-identical at -j1 and -j4, and same-seed runs must
# match byte-for-byte.  These fences live in the obs suite's
# determinism group; run it explicitly so a CI log names it even when
# someone trims dune runtest.
dune exec test/test_obs.exe -- test determinism

echo "== bench smoke (quick micro) =="
dune exec bench/main.exe -- --quick micro

echo "== perf smoke (quick speed vs committed quick baseline) =="
# Guard the hot path: measure the quick speed suite and diff it against
# the committed BENCH_speed_quick.json (same-duration rows — the
# allocation rate has a startup component, so quick never compares
# against full), failing on a >2x regression of any sim_ns_per_host_s
# row.  The wall-clock gate is deliberately loose (0.5x): it exists to
# catch order-of-magnitude slips (an accidentally quadratic scan, a
# debug hook left installed), not CI-host noise.  The allocation gate
# is tight (1.10x) because the meter it reads — minor words per
# simulated ns on the closed-loop rows — is deterministic for a fixed
# seed, so a >10% regression of the allocation-free object graph fails
# CI outright.
# Snapshot the baseline first — the bench overwrites the quick file.
cp BENCH_speed_quick.json /tmp/ci_speed_baseline.json
dune exec bench/main.exe -- --quick speed \
  --baseline /tmp/ci_speed_baseline.json --fail-under 0.5 \
  --fail-alloc-over 1.10
git checkout -- BENCH_speed_quick.json 2>/dev/null || true
