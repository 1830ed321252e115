#!/bin/sh
# CI entry point: build and test the two configurations that gate a change.
#
#   1. Release         — the configuration the benchmarks run in;
#   2. ASan + UBSan    — memory errors and UB across the whole test suite.
#
# An optional third pass (`scripts/ci.sh tsan`) builds with ThreadSanitizer
# and runs the concurrency-heavy suites (obs registry/tracer, dispatcher,
# executor, failure recovery, net reactor/TCP, stress, chaos) — slower, so it is opt-in.
#
# An optional benchmark pass (`scripts/ci.sh bench`) runs the dispatch-path
# benchmarks and gates on the committed baselines (scripts/bench.sh) —
# opt-in because throughput numbers only mean something on a quiet host.
#
# The chaos stage re-runs the fault-injection soak (test_chaos, fixed seeds
# — see docs/FAULTS.md) under each sanitizer explicitly, so a recovery-path
# regression fails CI with the soak's own diagnostics even when the rest of
# the suite passes.
#
# The prop stage re-runs the seeded property suites (ctest -L prop, see
# docs/TESTING.md) at a raised fixed budget, so every CI run scans more
# workloads than a default local ctest while staying reproducible.
#
# The ha stage (ctest -L ha, see docs/HA.md) does the same for the
# durability/failover stack — WAL torn-tail fuzzing, standby takeover, the
# primary-kill chaos case, the two-standby election/split-brain regression
# and the multi-standby double-failover soak (kill the primary, then kill
# the winning standby) — under ASan+UBSan, and again under TSan in the
# opt-in pass (the WAL append path, the replication tail thread, the
# election exchange and the promotion handoff are exactly the cross-thread
# sharing TSan is for).
#
# The data stage (ctest -L data, see docs/DATA.md) re-runs the
# data-diffusion stack — wire fuzz for the digest/fetch/evict messages and
# the end-to-end TCP locality/P2P-fetch suite — under ASan+UBSan, and the
# TCP suite again under TSan in the opt-in pass (digest application races
# the router's holder index; evictions race in-flight routing decisions).
#
# An optional coverage pass (`scripts/ci.sh coverage`) builds with gcov
# instrumentation, runs the tier-1 + prop suites, and reports line/branch
# coverage via gcovr when the tool is installed — informational only,
# never a gate (and skipped gracefully where gcovr is absent).
set -eu
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== Release build + ctest =="
cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci-release -j "$JOBS"
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS"

echo "== Property suites (raised fixed budget) =="
FALKON_PROP_CASES=400 \
  ctest --test-dir build-ci-release --output-on-failure -L prop

echo "== ASan+UBSan build + ctest =="
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFALKON_ASAN=ON >/dev/null
cmake --build build-ci-asan -j "$JOBS"
ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS"

echo "== Chaos soak under ASan+UBSan =="
ctest --test-dir build-ci-asan --output-on-failure -R 'test_chaos|test_fault'

echo "== Multi-standby double-failover chaos variant under ASan+UBSan =="
# Run the election chaos cases by themselves too: a split-brain or a
# stalled second election fails this stage with only its own output,
# instead of being buried in the full soak log.
build-ci-asan/tests/test_chaos --gtest_filter='ChaosHa.*'

echo "== HA durability/failover suite under ASan+UBSan =="
ctest --test-dir build-ci-asan --output-on-failure -L ha

echo "== HA suite with 2 reactor loops and reuseport accepts under ASan+UBSan =="
# A standby takes over the primary's one port, and executors and clients
# re-subscribe on their new connections; run that path with the
# multi-loop reactor in SO_REUSEPORT accept mode too.
FALKON_REACTOR_LOOPS=2 FALKON_REUSEPORT=1 build-ci-asan/tests/test_ha

echo "== Data-diffusion suite under ASan+UBSan =="
# ctest -L data (see docs/DATA.md): digest advertising over heartbeats,
# good-cache-compute routing, peer-to-peer fetch and the LRU evict path —
# the suites to re-run by themselves when touching the data plane.
ctest --test-dir build-ci-asan --output-on-failure -L data

echo "== Net + TCP suites with 2 reactor loops forced =="
# FALKON_REACTOR_LOOPS=2 (see core/service_tcp.h) overrides the auto loop
# count, so the multi-loop reactor paths — cross-loop accept handoff,
# affinity migration, sibling listeners, push-stream drains racing loop
# threads — run even on single-core CI hosts where auto resolves to 1.
FALKON_REACTOR_LOOPS=2 \
  ctest --test-dir build-ci-asan --output-on-failure -R 'test_net$|test_tcp'
# Push bindings on a reconnected or closed connection, in both accept
# modes: the re-subscribe and the unbind may run on a loop other than the
# one that owns the connection.
for reuseport in 0 1; do
  FALKON_REACTOR_LOOPS=2 FALKON_REUSEPORT=$reuseport \
    build-ci-asan/tests/test_tcp --gtest_filter='TcpPushChannel.ExecutorResubscribesWhenItsLinkReconnects:TcpPushChannel.BindingsEndWithInstanceAndExecutor'
done

if [ "${1:-}" = "bench" ]; then
  echo "== Benchmark gate =="
  scripts/bench.sh
fi

if [ "${1:-}" = "coverage" ]; then
  echo "== Coverage build + tier-1 and prop suites =="
  cmake -B build-ci-cov -S . -DCMAKE_BUILD_TYPE=Debug \
        -DFALKON_COVERAGE=ON >/dev/null
  cmake --build build-ci-cov -j "$JOBS"
  ctest --test-dir build-ci-cov --output-on-failure -j "$JOBS" \
        -L 'unit|integration'
  ctest --test-dir build-ci-cov --output-on-failure -L prop
  if command -v gcovr >/dev/null 2>&1; then
    echo "== Coverage report (informational, no gate) =="
    gcovr --root . --filter 'src/' build-ci-cov \
          --print-summary --txt build-ci-cov/coverage.txt || true
    echo "full report: build-ci-cov/coverage.txt"
  else
    echo "gcovr not installed; skipping coverage report"
  fi
fi

if [ "${1:-}" = "tsan" ]; then
  echo "== TSan build + concurrency suites =="
  cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFALKON_TSAN=ON >/dev/null
  cmake --build build-ci-tsan -j "$JOBS"
  # test_net/test_tcp cover the reactor: loop threads owning disjoint
  # connection sets while producers append to outboxes and handlers run on
  # the pool — exactly the sharing TSan is for. (test_net$ keeps the
  # 10k-connection test_net_soak out of the TSan pass: 20k fds at TSan
  # slowdown blows the time budget without adding new interleavings.)
  # test_failures: recovery sweeps run on the caller's thread in-process
  # and on a reactor loop thread over TCP, racing executor RPC handlers.
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
        -R 'test_common|test_obs|test_dispatcher|test_executor|test_failures|test_stress|test_net$|test_tcp|test_wal|test_ha|test_dataaware'
  echo "== Sharded-reactor suites under TSan =="
  # The multi-loop paths alone first, so a race report names the shard
  # machinery (accept handoff, set_affinity migration, cross-thread flush
  # routing, per-loop buffer pools, write-through sends racing the owning
  # loop's flush) instead of being buried in the suite.
  FALKON_REACTOR_LOOPS=2 \
    build-ci-tsan/tests/test_net --gtest_filter='Reactor.*:WriteThrough.*:Rpc.AffinityKeyPinsConnectionsToKeyedLoop:Rpc.WatermarkBackpressureIsolatedPerLoop:Rpc.AcceptBackoffRecoversWithShardedLoops:RpcPush.PushFromForeignThreadLandsOnOwningLoop:Rpc.RunOnLoopServesAdmittedRequestsPastABusyPool:RpcPush.ResubscribeAfterStopGetsFrames'
  echo "== Loop-thread handlers and inline notifies under TSan =="
  # Small requests are answered on the loop that read them, and executor
  # notifies go out on the thread that made work available, so one loop
  # thread writes replies, pushes and notifies to connections another loop
  # owns. Run the tests for that path with two loops in both accept modes.
  for reuseport in 0 1; do
    FALKON_REACTOR_LOOPS=2 FALKON_REUSEPORT=$reuseport \
      build-ci-tsan/tests/test_tcp --gtest_filter='TcpLoopHandlers.*:TcpStackTest.*:TcpPushChannel.ExecutorResubscribesWhenItsLinkReconnects:TcpPushChannel.BindingsEndWithInstanceAndExecutor'
    FALKON_REACTOR_LOOPS=2 FALKON_REUSEPORT=$reuseport \
      build-ci-tsan/tests/test_ha --gtest_filter='HaClient.StreamedInstanceGetsResultsOnTheStream'
  done
  build-ci-tsan/tests/test_dispatcher --gtest_filter='DispatcherTest.NotificationSentWhenWorkArrives'
  echo "== Net + TCP suites with 2 reactor loops forced under TSan =="
  # Same forced multi-loop coverage as the ASan stage: the streaming
  # client's RPC reader thread, the dispatcher's stream drain and two loop
  # threads all touch the mailbox/cursor state.
  FALKON_REACTOR_LOOPS=2 \
    ctest --test-dir build-ci-tsan --output-on-failure -R 'test_net$|test_tcp'
  echo "== Election and split-brain regression under TSan =="
  # The election path is all cross-thread: tail threads answering
  # ElectionPing while the failover timer promotes, two standbys racing
  # for the shared-directory fence. Run those cases alone first so a race
  # report names the election, then the full chaos soak.
  build-ci-tsan/tests/test_ha --gtest_filter='HaElection.*:HaSoak.*'
  build-ci-tsan/tests/test_chaos --gtest_filter='ChaosHa.*'
  echo "== Chaos soak under TSan =="
  ctest --test-dir build-ci-tsan --output-on-failure -R 'test_chaos|test_fault'
fi

echo "CI OK"
