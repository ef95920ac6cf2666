#!/usr/bin/env bash
# Thread-sanitized build and run of the one code path that starts host
# threads: the trace replay sweep (trace::RunSweep), which fans one
# recorded trace across configurations, one machine per thread. Every
# other path runs on one host thread (docs/parallel_execution.md). A
# data race between sweep cells fails this script.
set -euo pipefail
cd "$(dirname "$0")/.."
cmake -B build-tsan -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan --target trace_test
ctest --test-dir build-tsan --output-on-failure -R '^TraceReplayTest\.Sweep'
