#!/usr/bin/env bash
# CI entry point: configure + build with warnings-as-errors, run the tier-1
# test suite, run an ASan+UBSan build-and-ctest leg (the co-sim's retry
# loops and engine shims are exactly where UB hides), run a TSan leg over
# the concurrent subset (threaded rank worlds, TCP pump loops, thread
# pool), then run the training hot-path and closed-loop benches in
# Release.
#
#   scripts/check.sh [build-dir]
#
# Environment:
#   BOOSTER_THREADS   thread count for the bench's threaded leg (default 8)
#   BOOSTER_SKIP_SANITIZE=1   skip the sanitizer legs (local quick runs)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DBOOSTER_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Tier-1 suite twice: once at the host's native SIMD dispatch level (the
# widest of scalar/avx2/avx512 the CPU supports) and once forced scalar,
# proving the dispatch override works end to end and that every
# bit-identity assertion holds on both the wide and the portable kernels.
# (The in-process cross-level EXPECT_EQ sweeps live in test_simd and
# test_hotpath_equivalence; this leg additionally covers the env-var path.)
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
BOOSTER_SIMD=scalar ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc)"
# AVX2 leg over the kernel and training-equivalence suites: on an AVX-512
# host the native pass above never trains end to end on the AVX2 table
# (the in-process cross-level sweeps only pin single kernels and short
# runs to it). test_loss adds Loss::refresh against its per-row scalar
# lane at the AVX2 level; test_simd's low-bit logistic sweep is what
# catches a multiply-add contracted into an FMA in one level's build.
# test_stream runs warm-start refreshes -- every one a tile-major replay
# through the AVX2 table's traversal, which is the scalar body -- across
# its threads x shards grid,
# and test_split runs the threaded bin-chunked split scan beside the AVX2
# prefix sums of the serial one. On a host without AVX2 the override
# clamps to the detected level and this leg reruns that level.
BOOSTER_SIMD=avx2 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc)" \
  -R '^(test_simd|test_loss|test_histogram|test_hotpath_equivalence|test_sharded_equivalence|test_stream|test_split)$'

# ASan+UBSan leg: RelWithDebInfo keeps it fast enough for CI while the
# sanitizers still see every retry loop and shim. -fno-sanitize-recover
# turns any UB finding into a test failure. The SIMD kernels run here at
# the native dispatch level too, so the wide loads/stores and gathers are
# sanitizer-checked, not just the scalar reference. ctest globs every
# tests/*.cc
# binary, so the sharded-equivalence layer (test_sharded_equivalence and
# the histogram merge property tests) AND the distributed layer
# (test_distributed, test_distributed_faults, test_ipc_*) run under the
# sanitizers too -- exactly where a cross-shard race, arena overrun, or
# codec out-of-bounds read would surface. The multi_process example runs
# its loopback (threads-as-ranks) variant here so the full rank-0 driver
# + worker protocol executes under the sanitizers in one process, and its
# tcp variant so the same protocol -- catch-up admission, assignments,
# the goodbye barrier -- also runs over real sockets between forked
# processes under the sanitizers.
if [[ "${BOOSTER_SKIP_SANITIZE:-0}" != "1" ]]; then
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBOOSTER_SANITIZE=ON
  cmake --build "$ASAN_DIR" -j "$(nproc)"
  ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$(nproc)"
  "$ASAN_DIR/multi_process" --transport loopback --procs 3 --shards 8 \
    --records 6000 --trees 3
  "$ASAN_DIR/multi_process" --transport tcp --procs 3 --shards 8 \
    --records 6000 --trees 3

  # Serve smoke under the sanitizers: the demo covers the whole
  # train -> save (checked container) -> serve -> /reload -> query flow
  # over a real socket and exits non-zero on any bitwise divergence;
  # bench_serve --quick additionally drives the concurrency x batch-window
  # sweep (pipelined connections, batching windows, buffer-pool recycling)
  # through ASan/UBSan-instrumented server code.
  "$ASAN_DIR/serve_demo" > /dev/null
  "$ASAN_DIR/bench_serve" --quick > /dev/null

  # Overload-robustness suite under ASan (already in the full ctest pass
  # above, but run by name so a filter change there cannot silently drop
  # it): every close route -- graceful, shed, the out_max_bytes hard
  # close, and the idle reap -- must release its pooled buffers exactly
  # once, and the reload worker's mailbox hand-off must stay clean.
  "$ASAN_DIR/test_serve" --gtest_filter='ServeOverload.*' > /dev/null

  # Step-5 leaf-span equivalence under ASan, by name for the same reason:
  # the leaf scatter writes through arena row ids into the delta scratch,
  # so an arena span that outlived its tree or a mis-tiled leaf set would
  # surface here as an out-of-bounds write or a bit mismatch against the
  # Tree::predict reference. The step-3 partition tests ride along: the
  # kernel's two-cursor scratch writes and its ordered copies back into
  # the span get bounds-checked at every edge span length and thread count.
  "$ASAN_DIR/test_hotpath_equivalence" \
    --gtest_filter='*/LeafSpanStep5.*:*ArenaPartition*' > /dev/null

  # Streaming smoke under the sanitizers: bench_stream --quick drives the
  # frozen-bin-map chunk path, the recycled window arenas, warm-start
  # replay, and the ModelSlot hand-off through ASan/UBSan-instrumented
  # code, and exits non-zero if any refreshed generation diverges across
  # the (threads x shards) verification grid.
  "$ASAN_DIR/bench_stream" --quick > /dev/null

  # TSan leg: the concurrent subset only -- threaded rank worlds, the
  # reliable channel's heartbeat/liveness machinery, the elastic TCP
  # worlds (worker incarnations on threads), the thread pool, the
  # serving tests (event loop + off-loop reload worker + client threads
  # sharing the ModelSlot and the reload mailbox), the threaded
  # trainer hot path (parallel histogram build, partition, and the step-5
  # leaf scatter), and the streaming suite (every warm-start refresh runs
  # ShardGroup::reset, whose tasks read the carried predictions of the
  # previous refresh concurrently while each writes its own rows). TSan
  # and ASan cannot share a build, hence the third tree.
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBOOSTER_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j "$(nproc)"
  ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
    -R '(ipc|distributed|elastic|sharded|thread_pool|serve|hotpath|trainer|stream)'

  # The pool's spin-then-park hand-off under TSan, by name and repeated so
  # that a -R change above cannot drop it and a rare interleaving (a
  # worker snapshotting one generation while the caller publishes the
  # next, shutdown while workers spin or park) gets many chances to show.
  "$TSAN_DIR/test_thread_pool" --gtest_repeat=20 > /dev/null
fi

# Scenario smoke leg: the CLI must list exactly the checked-in scenario
# specs (names golden-checked against bench/scenarios/), and every spec
# must parse, round-trip, and execute under --quick.
LISTED=$("$BUILD_DIR/booster_scenarios" --list | awk '{print $1}' | sort)
CHECKED_IN=$(ls bench/scenarios/*.json | xargs -n1 basename | sed 's/\.json$//' | sort)
if ! diff <(echo "$LISTED") <(echo "$CHECKED_IN"); then
  echo "booster_scenarios --list does not match bench/scenarios/*.json" >&2
  exit 1
fi
for name in $LISTED; do
  if ! diff <("$BUILD_DIR/booster_scenarios" dump "$name") \
            "bench/scenarios/$name.json"; then
    echo "bench/scenarios/$name.json drifted from the builtin spec;" \
         "regenerate with: booster_scenarios dump $name" >&2
    exit 1
  fi
done
for spec in bench/scenarios/*.json; do
  echo "--- scenario: $spec (--quick)"
  "$BUILD_DIR/booster_scenarios" run "$spec" --quick > /dev/null
done

# The shard-sweep DSE scenario must also run through the builtin path (the
# ISSUE 4 acceptance command): its functional sample trains through the
# sharded engine (runner.shards) before the perf sweep.
"$BUILD_DIR/booster_scenarios" run-builtin dse_shard_sweep --quick > /dev/null

# Cross-process TCP leg: real worker processes over localhost TCP. First
# two fixed worlds (more shards than ranks, then more ranks than shards),
# then the churn flow under the live membership rule: one worker SIGKILLs
# itself mid-tree (rank 0 adopts its shards) and a fresh incarnation of
# the same rank rejoins two boundaries later with a catch-up replay. Every
# run exits non-zero unless every surviving rank's model is bit-identical
# to the in-process trainer.
"$BUILD_DIR/multi_process" --transport tcp --procs 3 --shards 8 \
  --records 8000 --trees 4
"$BUILD_DIR/multi_process" --transport tcp --procs 4 --shards 3 \
  --records 8000 --trees 4
"$BUILD_DIR/multi_process" --transport tcp --procs 3 --shards 8 \
  --records 8000 --trees 6 --kill-rejoin --die-rank 2 --die-tree 1 \
  --rejoin-tree 3

# Benches (quick mode keeps CI fast; JSON goes to stdout so the trajectory
# can be archived by the caller). bench_sharded and bench_distributed exit
# non-zero if sharded / distributed output ever diverges from the
# in-process trainer.
"$BUILD_DIR/bench_train_hotpath" --quick
"$BUILD_DIR/bench_closed_loop" --quick
"$BUILD_DIR/bench_sharded" --quick
"$BUILD_DIR/bench_distributed" --quick

# Serve leg (ISSUE 8 acceptance): the demo proves the train -> save ->
# serve -> query pipeline end to end; bench_serve runs the closed-loop
# load harness over real localhost TCP and exits non-zero if any served
# prediction differs bitwise from local Model::predict or any request
# fails. (The "serving" scenario above already ran the measured
# serving leg through the Scenario API under --quick.)
"$BUILD_DIR/serve_demo" > /dev/null
"$BUILD_DIR/bench_serve" --quick

# Streaming leg (ISSUE 9 acceptance): bench_stream sweeps refresh cadence
# and arrival rate through the chunked-ingestion + warm-start-retraining
# pipeline and exits non-zero unless every refreshed generation is
# bit-identical across the (threads x shards) verification grid and every
# hand-off landed. The scalar rerun of the warm-start determinism tests
# proves the refresh path (including the init-model prediction replay,
# which runs the dispatched traversal kernel) is also independent of the
# dispatch level. bench_stream is the one streaming harness (the scenario
# layer has no streaming leg), and the full scalar ctest pass at the top
# reran test_stream with scalar kernels.
"$BUILD_DIR/bench_stream" --quick
BOOSTER_SIMD=scalar "$BUILD_DIR/test_stream" \
  --gtest_filter='Retrainer.WarmStartRefreshesBitIdenticalAcrossThreadsAndShards'
