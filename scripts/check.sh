#!/usr/bin/env bash
# Configure, build, and test the whole tree.
#
#   scripts/check.sh                   # full suite, including the crash matrix
#   scripts/check.sh -LE crash_matrix  # quick run: skip the full matrix
#   scripts/check.sh -L crash_smoke    # only the crash smoke subset
#   scripts/check.sh -L ext4           # K-Split (ext4 model) tests only
#   scripts/check.sh -L examples       # build + run the examples/ smoke programs
#   scripts/check.sh -L obs            # observability layer: obs_test + the
#                                      # trace_tour export/reconciliation smoke
#   scripts/check.sh -L tenant         # tenant router: path/fd routing, shared
#                                      # service pools, per-tenant QoS, churn
#   scripts/check.sh -L analysis       # analysis layer: checker/witness unit +
#                                      # mutation self-tests, plus the crash-smoke/
#                                      # journal/U-Split/tenant/concurrency suites
#                                      # rerun with SPLITFS_ANALYSIS=1 (halt on any
#                                      # persistence-ordering or lock-order violation)
#   scripts/check.sh --tsan            # ThreadSanitizer build, concurrency tests only
#   scripts/check.sh --asan            # AddressSanitizer build, full quick suite
#   scripts/check.sh --ubsan           # UBSan build, full quick suite
#   scripts/check.sh --tidy            # clang-tidy over src/ (bugprone, concurrency,
#                                      # performance checks; see .clang-tidy)
#
# The default run includes the `examples` label: every examples/*.cpp builds as
# example_<name> and executes as a smoke test, so the worked examples cannot
# silently bit-rot against API changes. It finishes with the fsync-storm bench
# smoke: bench_scalability --trace (commit-coalescing + trace-reconciliation
# self-check), --schema-check (BENCH_scalability.json schema), and --repeat-check
# (determinism gates: posix append + the shared-hot-file range-lock cells), and
# bench_host_micro --scaling-check (MmapCache update cost flat in cached files).
# Last, `bench_splitfs/run.py --check` self-tests the repository benchmark
# against BENCHMARK.json.
#
# Extra arguments are forwarded to ctest.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--tsan" ]]; then
  shift
  cmake -B build-tsan -S . -DSPLITFS_TSAN=ON
  cmake --build build-tsan -j"$(nproc)"
  # TSAN_OPTIONS makes any report fail the run even if the test's asserts pass.
  # The `concurrency` label includes the K-Split metadata-stress group (parallel
  # create/rename/unlink/rmdir over the per-inode/dentry-shard locks), the
  # lock-free MmapCache translate-during-churn group (epoch reclamation), and the
  # *_async instantiations, which run every U-Split suite with async relink on
  # (Options::async_relink: intents fenced, then published on the fsync/close
  # caller, concurrent with other writers and readers) — so the
  # intent-log/publish/fence protocol is TSan-verified on every pass. The tenant
  # router's mount/unmount churn race suite (tenant_test) rides the same label,
  # and so does common_test: the ServicePool unit tests (the one background
  # executor) and the EpochGc group.
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -L concurrency "$@"
  exit 0
fi

if [[ "${1:-}" == "--asan" || "${1:-}" == "--ubsan" ]]; then
  # Sanitizer passes run the quick suite (crash matrix excluded: the full matrix
  # under ASan takes minutes and the smoke subset exercises the same code paths).
  # halt_on_error makes any report fail the run even when the test's own asserts
  # pass; detect_leaks stays on under ASan (default) so staged-allocation and
  # observer lifetimes are leak-checked too.
  san="${1#--}"
  shift
  opt="SPLITFS_ASAN"
  [[ "$san" == "ubsan" ]] && opt="SPLITFS_UBSAN"
  cmake -B "build-$san" -S . "-D$opt=ON"
  cmake --build "build-$san" -j"$(nproc)"
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir "build-$san" --output-on-failure -j"$(nproc)" -LE crash_matrix "$@"
  exit 0
fi

if [[ "${1:-}" == "--tidy" ]]; then
  shift
  if ! command -v clang-tidy > /dev/null; then
    echo "check.sh --tidy: clang-tidy not found in PATH; install LLVM clang-tools" >&2
    echo "(checks configured in .clang-tidy: bugprone-*, concurrency-*, performance-*)" >&2
    exit 2
  fi
  # clang-tidy needs a compilation database; reuse (or create) the normal build.
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
  clang-tidy -p build --quiet "${tidy_sources[@]}" "$@"
  exit 0
fi

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)" "$@"

# fsync-storm bench smoke: a 4-thread fsync-per-append run under a nonzero commit
# interval must export a Chrome trace whose spans reconcile with elapsed virtual
# time (per-thread top-level span sums within 5%) and show commit coalescing
# (fewer journal.writeout spans than fsyncs) — the binary self-checks and exits
# nonzero on either failure. --schema-check guards the committed
# BENCH_scalability.json artifact; --repeat-check guards the PR 6 wobble fix and
# the shared-hot-file cells' determinism (1T bit-identical, 8T drift <= 1%).
storm_trace="$(mktemp /tmp/splitfs_storm_trace.XXXXXX.json)"
trap 'rm -f "$storm_trace"' EXIT
./build/bench_scalability --trace="$storm_trace"
./build/bench_scalability --schema-check
./build/bench_scalability --repeat-check
# Multi-tenant QoS bench artifact: BENCH_multitenant.json must keep the
# schema_version-2 shape (per-tenant latency percentiles, contention ledger,
# qos_on/qos_off degradation factors).
./build/bench_multitenant --schema-check
# Host-time scaling gate: an MmapCache update (relink + unlink of one file) must
# not grow with the number of cached files — the 4096-file row stays within 4x
# of the 16-file row. A ratio of two rows of one run, so host load cancels out.
./build/bench_host_micro --scaling-check
# Repository benchmark self-test: builds bench_splitfs (into .bench_build/) and
# checks that every workload and metric BENCHMARK.json names is produced.
python3 bench_splitfs/run.py --check
