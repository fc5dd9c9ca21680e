#!/usr/bin/env bash
# Local/CI pipeline. Stages:
#
#   unit      fast pre-commit lane: build + `ctest -L 'unit|metrics'`
#   full      build + the whole suite (unit, metrics, property,
#             differential, crash, dist, chaos, service, docs, slow),
#             the bounded-RSS full-universe scale lane, + the bench
#             regression gate
#   service   build + the originscand daemon battery (`ctest -L
#             service`) and the docs consistency checks
#   docs      build + the doc/header consistency checks on their own
#             (`ctest -L docs`: protocol_doc_check incl. its negative
#             self-test, metrics_doc_check)
#   chaos     build + the randomized fault-episode soak on its own
#             (25 rounds by default; ORIGINSCAN_CHAOS_ROUNDS=N deepens
#             or shortens it)
#   bench     build, run the microbenchmarks, and gate against the
#             checked-in BENCH_micro.json (fails on >25% cpu_time
#             regression; refresh baselines with bench/record.sh), the
#             5% metrics-on vs metrics-off overhead bound, and the
#             service loadgen p99 gate against BENCH_wall.json's
#             loadgen_p99_us (>25% regression fails)
#   tsan      ORIGINSCAN_SANITIZE=thread build; runs the suites that
#             exercise the parallel executor, the cell supervisor, the
#             multi-process worker pool, and the fault-injected
#             differential harness under thread sanitizer
#   asan      ORIGINSCAN_SANITIZE=address build; runs the suites that
#             exercise the framed transport (net::FramedConn) and the
#             buffers a peer controls — netbase, fuzz, dist, service,
#             chaos — under address sanitizer
#   ubsan     ORIGINSCAN_SANITIZE=undefined build (aborting on the first
#             report); runs the unit, property, fuzz, dist, service and
#             chaos labels — the parsers, the batch kernels and the
#             processes that exchange frames — under UB sanitizer
#   coverage  -DOSN_COVERAGE=ON build, full suite, gcov aggregation
#   all       unit + full + tsan + asan + ubsan (default; coverage stays
#             opt-in)
#
# Usage: ./ci.sh [unit|full|bench|chaos|service|docs|tsan|asan|ubsan|coverage|all]
set -euo pipefail
cd "$(dirname "$0")"

STAGE=${1:-all}
JOBS=$(nproc 2>/dev/null || echo 4)

configure_and_build() { # <dir> [cmake args...]
  local dir=$1
  shift
  cmake -S . -B "$dir" "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

run_unit() {
  configure_and_build build
  # The metrics label covers the observability determinism suite and the
  # registry-vs-docs consistency check — cheap enough for the fast lane.
  (cd build && ctest -L 'unit|metrics' --output-on-failure)
}

run_full() {
  configure_and_build build
  # The whole suite, then the kill/resume matrix and the observability
  # determinism suite by their own labels so a lane failure is obvious
  # in the log. The scale lane (2^28 bounded-RSS procedural sweep,
  # ~2 min) runs last and exactly once; the full 2^32 sweep stays a
  # manual invocation (README "Full-scale sweep").
  (cd build && ctest -LE scale --output-on-failure &&
    ctest -L crash --output-on-failure &&
    ctest -L dist --output-on-failure &&
    ctest -L chaos --output-on-failure &&
    ctest -L metrics --output-on-failure &&
    ctest -L service --output-on-failure &&
    ctest -L docs --output-on-failure &&
    ctest -L scale --output-on-failure)
  run_bench
}

run_service() {
  configure_and_build build
  (cd build && ctest -L 'service|docs' --output-on-failure)
}

run_docs() {
  configure_and_build build
  (cd build && ctest -L docs --output-on-failure)
}

run_chaos() {
  configure_and_build build
  # 25 randomized episodes by default; a nightly can deepen the soak
  # with ORIGINSCAN_CHAOS_ROUNDS=500 without touching the script.
  (cd build && ORIGINSCAN_CHAOS_ROUNDS="${ORIGINSCAN_CHAOS_ROUNDS:-25}" \
    ctest -L chaos --output-on-failure)
}

run_bench() {
  configure_and_build build
  # The committed baseline must cover the batched SoA pipeline
  # (DESIGN.md §13): a baseline recorded before those benches existed
  # would silently exempt the batch hot path from the regression gate.
  # The L7 handshakes and the record sort are gated the same way.
  for bench in BM_HandleProbeBatch BM_ResolveBatch BM_MixBatch4 \
      BM_ZGrabHttp BM_ZGrabTls BM_ZGrabSsh BM_RecordFinalize; do
    if ! grep -q "\"$bench\"" BENCH_micro.json; then
      echo "ci.sh bench: $bench missing from BENCH_micro.json —" >&2
      echo "  re-record with bench/record.sh from a Release build" >&2
      exit 1
    fi
  done
  # Short repetitions keep the lane fast; the 25% gate (bench_gate's
  # default) absorbs the extra noise that buys.
  build/bench/micro_scanner --benchmark_format=json \
    --benchmark_min_time=0.05 > build/BENCH_micro_candidate.json
  build/tools/bench_gate BENCH_micro.json build/BENCH_micro_candidate.json
  # Observability overhead bound: metrics-enabled probing must stay
  # within 5% of disabled (DESIGN.md §9). The pair is measured in its
  # own repeated run and compared by median — a single-shot sample is
  # too noisy for a 5% threshold.
  build/bench/micro_scanner --benchmark_format=json \
    --benchmark_filter='^BM_ProbeTarget' --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    > build/BENCH_overhead_candidate.json
  build/tools/bench_gate --overhead build/BENCH_overhead_candidate.json \
    BM_ProbeTarget_median BM_ProbeTargetMetricsOn_median 5
  # Service latency gate: replay the loadgen against an in-process
  # daemon and bound the p99 submit->answer latency against the
  # checked-in BENCH_wall.json. Same 25% allowance as the micro gate.
  if ! grep -q '"loadgen_p99_us"' BENCH_wall.json; then
    echo "ci.sh bench: loadgen_p99_us missing from BENCH_wall.json —" >&2
    echo "  re-record with bench/record.sh from a Release build" >&2
    exit 1
  fi
  build/tools/originscan loadgen --tenants 1000 --requests 1 \
    --connections 16 --scale 12 --no-verify \
    --json-out build/BENCH_loadgen_candidate.json
  build/tools/bench_gate --wall BENCH_wall.json \
    build/BENCH_loadgen_candidate.json loadgen_p99_us 25
}

run_tsan() {
  configure_and_build build-tsan -DORIGINSCAN_SANITIZE=thread
  (cd build-tsan &&
    ctest -R 'parallel_test|scanner_test|sim_test|core_test|journal_test|crash_resume_test|differential_test|dist_test|chaos_test|batch_test|service_test' \
      --output-on-failure)
}

run_asan() {
  configure_and_build build-asan -DORIGINSCAN_SANITIZE=address
  (cd build-asan &&
    ctest -R 'netbase_test|fuzz_test|dist_test|service_test|chaos_test' \
      --output-on-failure)
}

run_ubsan() {
  configure_and_build build-ubsan -DORIGINSCAN_SANITIZE=undefined
  (cd build-ubsan &&
    ctest -L 'unit|property|fuzz|dist|service|chaos' --output-on-failure)
}

run_coverage() {
  configure_and_build build-coverage -DOSN_COVERAGE=ON \
    -DCMAKE_BUILD_TYPE=Debug
  (cd build-coverage && ctest --output-on-failure)
  tools/coverage.sh build-coverage
}

case "$STAGE" in
  unit) run_unit ;;
  full) run_full ;;
  bench) run_bench ;;
  chaos) run_chaos ;;
  service) run_service ;;
  docs) run_docs ;;
  tsan) run_tsan ;;
  asan) run_asan ;;
  ubsan) run_ubsan ;;
  coverage) run_coverage ;;
  all)
    run_unit
    run_full
    run_tsan
    run_asan
    run_ubsan
    ;;
  *)
    echo "usage: $0 [unit|full|bench|chaos|service|docs|tsan|asan|ubsan|coverage|all]" >&2
    exit 2
    ;;
esac
