#!/usr/bin/env bash
# Thread-sanitized build and test run for the parallel execution paths
# (docs/parallel_execution.md). Runs the engine/txn suites, the
# free-running stress tests in parallel_test.cc and the cache tests
# (including the free-running LLC hammer); a data race anywhere on the
# one-thread-per-core path fails this script.
set -euo pipefail
cd "$(dirname "$0")/.."
cmake -B build-tsan -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan --target \
  parallel_test engine_test txn_test experiment_test stress_test cache_test
ctest --test-dir build-tsan --output-on-failure \
  -R 'ParallelMode|FreeModeStress|Engine|Txn|Experiment|Stress|^CacheTest|^Geometries/Cache|^SharedCacheTest'
