#!/usr/bin/env bash
# CI entry point: the tier-1 build + test sweep (warnings are errors), the
# example programs, a lint sweep of every shipped input file, a
# nondeterminism grep-gate over shipped sources, a schedule-certificate
# sweep (every emitted soc/field schedule must re-certify; the seeded-bad
# corpus in tests/lint_cases/ must be rejected), a serve
# pipe-transport smoke against the committed golden responses, a
# ThreadSanitizer build that exercises the parallel engines (test_thread_pool
# + test_campaign + test_soc + test_field + test_serve + test_backend —
# test_thread_pool covers parallel_shards' completion handshake,
# test_campaign the packed kernel under threads, test_serve the session
# pool and shared caches, test_backend the sharded memtest engine) for
# data races, an Address+UndefinedBehaviorSanitizer build of
# the thread pool, linter, controller, fuzz, campaign, backend, serve, soc
# and field suites (test_thread_pool runs with
# detect_stack_use_after_return=1, so a worker touching the caller's dead
# frame is reported; the scalar/packed equivalence sweep under ASan pins
# the packed kernel's lane bookkeeping; test_backend pins the mmap'd
# hostram path; test_serve the TCP transport's descriptor handling;
# test_soc and test_field the host-RAM instance memories),
# and (when clang-tidy is installed) a
# static-analysis pass over the lint subsystem.  Mirrors
# .github/workflows/ci.yml so the pipeline can be reproduced locally with a
# single command.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "== tier 1: build + full test suite (-Werror) =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DPMBIST_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j "${JOBS}"
# On failure, list the failed tests once more at the end of the output,
# so a failure that does not repeat on a rerun is still named in the log.
if ! ctest --test-dir build --output-on-failure -j "${JOBS}"; then
  echo "== failed tests (build/Testing/Temporary/LastTestsFailed.log) ==" >&2
  cat build/Testing/Temporary/LastTestsFailed.log >&2 || true
  exit 1
fi

echo "== examples (end-to-end API walkthroughs) =="
for ex in quickstart fault_diagnosis custom_algorithm multiport_word \
          online_test repair_flow soc_schedule; do
  echo "-- ${ex}"
  ./build/examples/"${ex}" > /dev/null
done

echo "== lint sweep: every shipped march / image / chip / profile file =="
for f in examples/*.chip examples/*.march examples/*.hex; do
  echo "-- pmbist lint ${f}"
  ./build/tools/pmbist lint "${f}" > /dev/null
done
for f in examples/*.profile; do
  echo "-- pmbist lint ${f} --chip examples/soc_demo.chip"
  ./build/tools/pmbist lint "${f}" --chip examples/soc_demo.chip > /dev/null
done

echo "== nondeterminism gate: no unseeded RNG / wall clock in src/ tools/ =="
# Every engine result must be a pure function of its inputs and explicit
# seeds; these primitives are how nondeterminism sneaks in.  Seeded
# std::mt19937 in tests/benches is fine — this gate covers shipped code.
if grep -rnE '\brand\(|time\(nullptr|std::random_device' src tools; then
  echo "ci.sh: nondeterministic primitive in shipped code (seed it instead)" >&2
  exit 1
fi
# Pointer-keyed ordered containers iterate in allocation order — a
# nondeterminism source the RNG grep cannot see.  The lint subsystem's
# diagnostics are ordering-sensitive (stable codes, pinned golden output),
# so key on indices or names there instead.
if grep -rnE 'std::(map|set)<[^,>]*\*' src/lint; then
  echo "ci.sh: pointer-keyed ordered container in src/lint (iteration order follows allocation; key on indices or names)" >&2
  exit 1
fi

echo "== schedule certificates: emit -> re-certify every example =="
mkdir -p build/certify
./build/tools/pmbist soc --jobs 2 --certify \
  --emit-schedule build/certify/demo.schedule > /dev/null
for chip in examples/*.chip; do
  base="$(basename "${chip}" .chip)"
  ./build/tools/pmbist soc --chip "${chip}" --jobs 2 --certify \
    --emit-schedule "build/certify/${base}.schedule" > /dev/null
  ./build/tools/pmbist lint "build/certify/${base}.schedule" \
    --chip "${chip}" > /dev/null
done
./build/tools/pmbist field --chip examples/soc_demo.chip \
  --profile examples/soc_demo.profile --jobs 2 --certify \
  --emit-schedule build/certify/soc_demo.fieldsched > /dev/null
./build/tools/pmbist lint build/certify/soc_demo.fieldsched \
  --chip examples/soc_demo.chip --profile examples/soc_demo.profile > /dev/null

echo "== schedule certificates: seeded-bad corpus must be rejected =="
for f in tests/lint_cases/*.schedule tests/lint_cases/*.fieldsched; do
  ctx=(--chip examples/soc_demo.chip --profile examples/soc_demo.profile)
  if [[ "$(basename "${f}")" == soc_demo.* ]]; then
    echo "-- ${f} (baseline, must certify clean)"
    ./build/tools/pmbist lint "${f}" "${ctx[@]}" > /dev/null
  else
    echo "-- ${f} (seeded corruption, must be rejected)"
    if ./build/tools/pmbist lint "${f}" "${ctx[@]}" > /dev/null 2>&1; then
      echo "ci.sh: ${f} certified clean but is a seeded-bad case" >&2
      exit 1
    fi
  fi
done

echo "== serve smoke: deterministic pipe transport vs committed golden =="
./build/tools/pmbist serve < tests/serve_golden/requests.ndjson \
  | diff - tests/serve_golden/responses.golden

echo "== campaign at benchmark scale: scalar vs packed kernel (smoke) =="
# 4096 words x 1024 faults per class: packs skip most of the stream
# (docs/KERNEL.md, "Sparse projection"); March C+ adds pauses (DRF).  The
# table prints whole percentages, so this only smoke-tests the CLI path;
# test_campaign's Projection.BenchmarkScaleRecordsMatchScalar compares
# the records themselves.
for alg in "March C" "March C+"; do
  echo "-- ${alg}"
  diff <(./build/tools/pmbist coverage "${alg}" --addr-bits 12 \
           --samples 1024 --kernel scalar) \
       <(./build/tools/pmbist coverage "${alg}" --addr-bits 12 \
           --samples 1024 --kernel packed --jobs 4)
done

echo "== memtest smoke: march the host RAM (64 MiB, one pass) =="
./build/tools/pmbist memtest --size 64M --passes 1 > /dev/null

echo "== self-checking benches (determinism + scheduling gates included) =="
./build/bench/bench_fault_coverage
./build/bench/bench_campaign
./build/bench/bench_qualifier
./build/bench/bench_soc_schedule
./build/bench/bench_field
./build/bench/bench_serve
./build/bench/bench_backend

echo "== tsan: parallel engines + serve session pool =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPMBIST_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "${JOBS}" --target test_campaign --target test_soc \
  --target test_field --target test_serve --target test_backend \
  --target test_thread_pool
./build-tsan/tests/test_thread_pool
./build-tsan/tests/test_campaign
./build-tsan/tests/test_soc
./build-tsan/tests/test_field
./build-tsan/tests/test_serve
./build-tsan/tests/test_backend

echo "== asan+ubsan: thread pool, linter, controllers, fuzz, packed-kernel equivalence, serve, soc, field =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPMBIST_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j "${JOBS}" \
  --target test_lint --target test_fuzz --target test_ucode --target test_pfsm \
  --target test_campaign --target test_backend --target test_thread_pool \
  --target test_serve --target test_soc --target test_field
ASAN_OPTIONS=detect_stack_use_after_return=1 ./build-asan/tests/test_thread_pool
./build-asan/tests/test_lint
./build-asan/tests/test_fuzz
./build-asan/tests/test_ucode
./build-asan/tests/test_pfsm
./build-asan/tests/test_campaign
./build-asan/tests/test_backend
./build-asan/tests/test_serve
./build-asan/tests/test_soc
./build-asan/tests/test_field

if command -v clang-tidy > /dev/null; then
  echo "== clang-tidy: src/ tools/ tests/ =="
  # tools/ and tests/ carry their own .clang-tidy with the pinned
  # suppressions for CLI/gtest idioms; src/ uses the root profile.
  clang-tidy -p build --warnings-as-errors='*' \
    src/*/*.cpp tools/*.cpp tests/*.cpp
else
  echo "== clang-tidy not installed; skipping (runs in the workflow) =="
fi

echo "== ci.sh: all green =="
