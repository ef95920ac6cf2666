#!/usr/bin/env bash
# Thread-sanitized build and test run for the parallel execution paths
# (docs/parallel_execution.md). Runs the engine/txn suites, the
# free-running stress tests in parallel_test.cc, the cache tests
# (including the free-running LLC hammer) and the free-running
# shared-structure case in stress_test.cc, where two threads on two
# cores share one B-tree and one ART (the locked index decorator), one
# heap table and one lock manager. Those structures take their host
# locks only while the machine free-runs, so this case is what shows
# the locks are still taken there. A data race anywhere on the
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
  -R 'ParallelMode|FreeModeStress|FreeRunningStress|Engine|Txn|Experiment|Stress|^CacheTest|^Geometries/Cache|^SharedCacheTest'
