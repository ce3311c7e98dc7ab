#!/usr/bin/env bash
# Tier-1 verification: plain build + full test suite, then the fault, chaos,
# fuzz, retry-rule, scheduler and mbuf suites again under ASan+UBSan (mbuf for
# the checksum's unaligned word loads). This is the exact command sequence
# ROADMAP.md declares as "Tier-1 verify" — keep the two in sync.
#
# Every sub-step either runs or fails the script: the tools the steps depend
# on are probed up front, and a missing one aborts loudly instead of letting
# a step (most dangerously validate_trace.py) be skipped in silence. The one
# optional tool is clang-tidy, which this image does not carry; its absence
# is announced, and RENONFS_STRICT_TOOLS=1 promotes the announcement to a
# failure for images that should have it.
#
# The fuzz harness replays a fixed default seed; export RENONFS_FUZZ_SEED=<n>
# before running to explore a different (still fully deterministic) stream.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# --- tool probes -------------------------------------------------------------
require_tool() {
  if ! command -v "$1" >/dev/null 2>&1; then
    echo "check.sh: FATAL: required tool '$1' not found — refusing to skip $2" >&2
    exit 1
  fi
}
require_tool cmake "the build"
require_tool ctest "the test suites"
require_tool python3 "trace validation (scripts/validate_trace.py)"
require_tool git "the clang-tidy changed-file list"
[[ -f scripts/validate_trace.py ]] || {
  echo "check.sh: FATAL: scripts/validate_trace.py missing" >&2
  exit 1
}

CLANG_TIDY="$(command -v clang-tidy || true)"
if [[ -z "${CLANG_TIDY}" ]]; then
  if [[ "${RENONFS_STRICT_TOOLS:-0}" == "1" ]]; then
    echo "check.sh: FATAL: clang-tidy not found and RENONFS_STRICT_TOOLS=1" >&2
    exit 1
  fi
  echo "check.sh: NOTE: clang-tidy not in this image — tidy step SKIPPED" \
       "(set RENONFS_STRICT_TOOLS=1 to make this fatal)" >&2
fi

# --- build + full suite ------------------------------------------------------
cmake --preset default
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

# --- await-safety analyzer ---------------------------------------------------
# Tree scan must be clean, and the golden self-test must stay red: the
# fixtures re-create the historical UAF shapes (the PR 1 reply-epoch skip,
# the PR 4 Buf*-held-across-a-disk-await, and its interprocedural
# hidden-in-a-helper variant), and the self-test fails unless the analyzer
# still reports every one of them at its annotated file:line. Both also run
# under ctest (AnalyzeTree / AnalyzeSelfTest); running them here too keeps
# check.sh meaningful when invoked with a stale build directory.
#
# Two scans: the first warms build/analyze-cache, the second must be a full
# cache hit — zero SCCs re-analyzed — inside a wall-clock budget. That gates
# the incremental driver itself: a cache-key regression shows up here as a
# spurious re-analysis, not as a silent slowdown.
bash scripts/run_analyze.sh ./build/tools/analyze/renonfs_analyze . \
  --jobs "${JOBS}" --stats
warm_stats="$(bash scripts/run_analyze.sh ./build/tools/analyze/renonfs_analyze . \
  --jobs "${JOBS}" --stats | grep '^analyze: stats')"
echo "check.sh: warm re-scan: ${warm_stats}"
if ! grep -q 'sccs_reanalyzed=0' <<<"${warm_stats}"; then
  echo "check.sh: FATAL: warm analyzer re-scan re-analyzed SCCs — cache broken" >&2
  exit 1
fi
warm_ms="$(grep -o 'wall_ms=[0-9]*' <<<"${warm_stats}" | cut -d= -f2)"
if [[ "${warm_ms}" -gt 2000 ]]; then
  echo "check.sh: FATAL: warm analyzer re-scan took ${warm_ms} ms (budget 2000)" >&2
  exit 1
fi
./build/tools/analyze/renonfs_analyze --self-test \
  --allowlist tools/analyze/status_allowlist.txt tools/analyze/testdata/*.cc

# --- clang-tidy over changed sources (gated on the probe above) --------------
if [[ -n "${CLANG_TIDY}" ]]; then
  mapfile -t changed < <(
    {
      git diff --name-only HEAD -- 'src/**.cc' 'tests/**.cc' 'tools/**.cc'
      git diff --name-only HEAD~1..HEAD -- 'src/**.cc' 'tests/**.cc' 'tools/**.cc' \
        2>/dev/null || true
    } | sort -u
  )
  if [[ "${#changed[@]}" -gt 0 ]]; then
    echo "check.sh: clang-tidy over ${#changed[@]} changed file(s)"
    "${CLANG_TIDY}" -p build --quiet "${changed[@]}"
  else
    echo "check.sh: clang-tidy: no changed sources"
  fi
fi

# Bench smoke: the datapath-tuning ablations in quick mode. --check turns an
# ablation inversion (feature on losing to feature off) or a copied data
# byte on the loaning read-reply path into a hard failure; the micro bench
# just has to run.
./build/bench/bench_datapath_tuning --quick --check
./build/bench/bench_micro_datapath --benchmark_min_time=0.05 >/dev/null

# Lease envelope gate (BENCH_leases.json): the lease mount must keep landing
# between the push-on-close baseline and the no-consistency bound on both the
# Andrew run and the 100 KB create-delete cycle, with READ RPCs reduced —
# --check fails the build if leases regress outside the Section 5 envelope.
./build/bench/bench_leases --quick --check

# Sim-core events/sec gate (BENCH_simcore.json): no mix may land under its
# recorded regression floor (floor = captured full-run rate / 8, generous
# enough for CI noise but not for an O(1)->O(log n) backslide; the
# timer-churn floor alone is about 6x what a binary-heap scheduler reaches).
./build/bench/bench_sim_core --quick --check --baseline BENCH_simcore.json

# Latency-attribution gate (BENCH_breakdown.json in full mode): the span
# collector's critical-path breakdown must track the injected bottleneck —
# a sustained loss storm comes out backoff/network-dominated, a slow disk
# disk/server-queue-dominated — with the conservation invariant exact on
# every op and zero collector pool spills.
./build/bench/bench_breakdown --quick --check

# Scenario-matrix hash gate (BENCH_scenarios.json, plain build): every one of
# the 22 full-matrix cells must pass its gates, replay divergence-free, and
# reproduce its committed metrics-snapshot hash — the determinism contract
# behaviour-preserving refactors are judged by. A hash that moves on purpose
# means re-capturing the file with `bench_scenarios --check`.
MATRIX_TMP="$(mktemp -d /tmp/renonfs_matrix.XXXXXX)"
./build/bench/bench_scenarios --check --baseline BENCH_scenarios.json \
  --artifacts "${MATRIX_TMP}" | tail -n 2
rm -rf "${MATRIX_TMP}"

# Trace + timeline validation: a short chaos run must emit a well-formed
# Chrome trace (monotonic per-track timestamps, balanced async spans, flow
# steps tied to their starts, client/server span nesting) and a well-formed
# flight-recorder timeline (JSONL delta frames, strictly increasing
# timestamps). The validator fails the build on any violation.
TRACE_TMP="$(mktemp /tmp/renonfs_trace.XXXXXX.json)"
TIMELINE_TMP="$(mktemp /tmp/renonfs_timeline.XXXXXX.jsonl)"
./build/examples/nfsstat --seconds 5 --chaos --breakdown --trace "${TRACE_TMP}" \
  --timeline "${TIMELINE_TMP}" >/dev/null
python3 scripts/validate_trace.py "${TRACE_TMP}"
python3 scripts/validate_trace.py --timeline "${TIMELINE_TMP}"
rm -f "${TRACE_TMP}" "${TIMELINE_TMP}"

cmake --preset asan
cmake --build --preset asan -j "${JOBS}"
ctest --preset asan -j "${JOBS}" \
  -R 'FaultTest|ChaosTest|FuzzTest|RetryRuleTest|SchedulerWheelTest|SchedulerStampTest|MbufTest'

# Scenario-matrix smoke (ASan build): the 3-cell quick subset of the
# workload × transport × topology × fault matrix, every cell gated and its
# failure replay double-checked — --check exits 1 on any gate violation or
# replay divergence. A failing cell drops a replayable .trace artifact in
# the scratch dir; re-run it with `chaos_demo --replay <file>` (see
# DESIGN.md §13). The full matrix capture is `bench_scenarios` (no --quick),
# which refreshes BENCH_scenarios.json.
SCEN_TMP="$(mktemp -d /tmp/renonfs_scenarios.XXXXXX)"
./build-asan/bench/bench_scenarios --quick --check --artifacts "${SCEN_TMP}"
rm -rf "${SCEN_TMP}"

echo "check.sh: all tier-1 suites passed"
