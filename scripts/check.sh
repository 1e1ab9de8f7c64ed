#!/usr/bin/env bash
# Tier-1 verify, optionally under a sanitizer preset.
#
#   scripts/check.sh            # plain RelWithDebInfo build + ctest + bench JSON
#                               # gates + E1 golden diff + short
#                               # replica_brownout, adapt_churn and rpc_mix
#                               # benchmark runs
#   scripts/check.sh tsan       # ThreadSanitizer build + ctest
#   scripts/check.sh asan       # Address+UB sanitizer build + ctest
#   scripts/check.sh all        # default, then tsan, then asan
#
# The tsan run is the gate for the ORB's concurrency code (listener thread
# reaping, connection pool, retry path); run it for any transport change.
#
# Every bound the default preset enforces is a row of the table in
# scripts/gates.py, which also checks the shape of every BENCH_*.json, so a
# broken machine-readable bench surface (schema drift, crash at exit,
# malformed output) fails the check even though the benches are not ctest
# targets.
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
  local preset="$1"
  echo "==> configure (${preset})"
  cmake --preset "${preset}"
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "$(nproc)"
}

gates() { python3 scripts/gates.py "$@"; }

# bench <binary> <name> <schema|gate> [bench args...]: runs build/bench/<binary>
# with --json=BENCH_<name>.json. A schema run is a --quick run whose
# document's shape is checked; a gate run uses full iteration counts,
# because its bounds compare percentiles that --quick leaves too noisy, and
# is checked against gate <name>'s rows as well.
#   reactor: 64-client throughput and pinned single-client p50 pairs,
#            reactor vs thread-per-connection.
#   lb: p2c and round-robin p99 with one replica degraded.
#   overload: goodput at 2x load, shed vs exec cost, and the Luma strategy
#             that watches orb.overload().shed_rate.
bench() {
  local binary="$1" name="$2" check="$3" quick=""
  shift 3
  if [[ ! -x "build/bench/${binary}" ]]; then
    echo "==> bench ${binary}: missing (benchmark library not available?) — skipped"
    return 0
  fi
  [[ "${check}" == schema ]] && quick="--quick"
  echo "==> bench ${binary} $* --json=BENCH_${name}.json ${quick}"
  (cd build && "bench/${binary}" "$@" --json="BENCH_${name}.json" ${quick} >/dev/null)
  gates "${check}" "${name}" "build/BENCH_${name}.json"
}

# E1 (bench_load_sharing) runs on simulated time with fixed seeds, so its
# whole output is deterministic: a diff against the committed golden file
# means the paper's load-sharing result moved. Regenerate the file only for
# a change meant to move it:
#   build/bench/bench_load_sharing > bench/bench_load_sharing.golden
e1_golden() {
  echo "==> bench_load_sharing (E1) against bench/bench_load_sharing.golden"
  diff -u bench/bench_load_sharing.golden <(build/bench/bench_load_sharing)
}

# A 2 s run of one workload of the repository benchmark (perfbench/run.py
# builds its own tree under .bench_build); its result line (the last line of
# output) must report "correct": true.
#   replica_brownout: the at-most-once write check drives the proxy's
#     balanced attempt loop, with hedging and deadlines, over TCP.
#   adapt_churn: the paper's adaptation loop; its checks cover outputs
#     (replies from the bound host, no proxy left on a spiked host), the
#     determinism self-test and the return of fds and threads.
#   rpc_mix: the plain call path over TCP; it deep-compares every reply
#     with what was sent, so it guards the wire codec's round trip.
# The optional second argument is the seed (default 1).
smoke() {
  local seed="${2:-1}"
  echo "==> perfbench $1 smoke run (seed ${seed})"
  local result
  result="$(python3 perfbench/run.py --workload "$1" --seed "${seed}" --seconds 2 --trace 0 | tail -n 1)"
  gates smoke "$1" "${result}"
}

default_steps() {
  gates selftest
  run_preset default
  gates lint build
  e1_golden
  bench bench_transport transport schema
  bench bench_overhead overhead schema
  bench bench_events events schema
  bench bench_lb lb schema
  bench bench_luma_analysis luma_analysis schema
  bench bench_overload overload schema
  bench bench_transport reactor gate --reactor
  bench bench_lb lb gate
  # The static-analysis cost gate reads the quick run above.
  gates gate luma_analysis build/BENCH_luma_analysis.json
  bench bench_overload overload gate
  smoke replica_brownout
  smoke adapt_churn
  # The held-out seed: a schedule no tuning looked at.
  smoke adapt_churn 9001
  smoke rpc_mix
}

case "${1:-default}" in
  default) default_steps ;;
  tsan|asan) run_preset "$1" ;;
  all) default_steps; run_preset tsan; run_preset asan ;;
  *) echo "usage: $0 [default|tsan|asan|all]" >&2; exit 2 ;;
esac
echo "==> OK"
