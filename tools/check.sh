#!/usr/bin/env bash
# Full verification sweep: plain, AddressSanitizer and ThreadSanitizer
# build+test lanes, plus a quick tier-1 lane for inner-loop development.
# Usage:
#
#   tools/check.sh           # all three full lanes + the simd sweep
#   tools/check.sh plain     # just one lane: fast | plain | asan | tsan |
#                            # simd | chaos | quant
#   tools/check.sh fast      # plain build + only the tier1-labelled tests
#                            # (the fast, dependency-light unit tests —
#                            # see tests/CMakeLists.txt)
#   tools/check.sh simd      # plain build + the kernels-labelled suites
#                            # rerun once per available kernel ISA, forced
#                            # via T2H_KERNEL_ISA (DESIGN.md 14)
#   tools/check.sh chaos     # asan build + the replica_net-labelled suites
#                            # (socket framing / transport / reconnect
#                            # chaos, DESIGN.md 16) plus the serve-bench
#                            # netsplit drill on real data
#   tools/check.sh quant     # plain build + the quant-labelled suites
#                            # (int8 store / re-ranker / quantized kernels,
#                            # DESIGN.md 17) plus the full-scale bench_quant
#                            # gate run (memory ratio, recall, avx2 speedup)
#
# Each lane configures into its own build directory (build, build-asan,
# build-tsan; fast shares build), so incremental re-runs are cheap. A lane
# failing stops the sweep with that lane's ctest output on screen.
set -euo pipefail

cd "$(dirname "$0")/.."

run_lane() {
  local lane="$1" dir="$2" sanitize="$3"
  shift 3
  echo "==== lane: ${lane} (${dir}) ===="
  cmake -B "${dir}" -S . -DT2H_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${dir}" -j "$(nproc)"
  ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)" "$@"
}

# The replica failover stress (ReadRouterTest.RollingRestartUnderChurnStress:
# concurrent readers + mutator + shipper across a rolling restart) is the
# most race-prone test in the tree; the tsan lane gives it a dedicated
# repeated run on top of the full sweep.
replica_stress() {
  echo "==== lane: tsan-replica-stress (build-tsan) ===="
  ctest --test-dir build-tsan --output-on-failure \
    -R 'RollingRestartUnderChurnStress' --repeat until-fail:3
}

# The front-end stress (FrontendStressTest.CoalescerCacheChurnStress: readers
# through the coalescer + single-flight cache while a mutator churns the
# index, with oracle-at-observed-epoch exactness checks) gets the same
# repeated-tsan treatment — it is where a cache/epoch race would surface.
frontend_stress() {
  echo "==== lane: tsan-frontend-stress (build-tsan) ===="
  ctest --test-dir build-tsan --output-on-failure \
    -R 'CoalescerCacheChurnStress' --repeat until-fail:3
}

# The quantized-store churn stress
# (QuantChurnTest.ConcurrentRerankAndMutationsAreRaceFree: re-rank readers
# against writers that widen the int8 params in place and trigger
# compaction rescales) is where a torn param/row pair would surface —
# DESIGN.md 17.
quant_stress() {
  echo "==== lane: tsan-quant-stress (build-tsan) ===="
  ctest --test-dir build-tsan --output-on-failure \
    -R 'ConcurrentRerankAndMutationsAreRaceFree' --repeat until-fail:3
}

# The inference-encoder stress
# (EmbedConcurrencyTest.ThreadsAndBatchMatchSerialStress: eight threads call
# Traj2Hash::Embed beside an EmbedBatch on a pool, each result checked
# bitwise against the serial one) is where encoder scratch or a cache shared
# across threads would surface — DESIGN.md 8.
embed_stress() {
  echo "==== lane: tsan-embed-stress (build-tsan) ===="
  ctest --test-dir build-tsan --output-on-failure \
    -R 'ThreadsAndBatchMatchSerialStress' --repeat until-fail:3
}

# The quantized embedding store end to end (DESIGN.md 17): the
# quant-labelled suites (params / lattice round trips, re-ranker
# bit-identity, per-ISA quantized kernels, snapshot v3, churn property
# tests), then the full-scale bench_quant run whose gates — resident-memory
# ratio ≥ 3.5x, recall@k == 1.0 against the exact float scan, avx2 ≥ 2x
# scalar on the cache-resident sweep — exit non-zero when violated.
quant_lane() {
  run_lane quant build "" -L quant
  echo "==== lane: quant-bench-gates (build) ===="
  ./build/bench/bench_quant > /dev/null
}

# The socket-transport reconnect storm
# (SocketReplicaChurnStress.SurvivesPartitionsUnderChurn: two socket-tailing
# replicas under a mutator + readers while a chaos thread severs and heals
# the link) is the network analogue — raced reconnect/heartbeat state would
# surface here first.
socket_stress() {
  echo "==== lane: tsan-socket-stress (build-tsan) ===="
  ctest --test-dir build-tsan --output-on-failure \
    -R 'SurvivesPartitionsUnderChurn' --repeat until-fail:3
}

# Network fault-injection sweep under ASan: the replica_net-labelled suites
# (socket framing, ship transport, injected net faults, protocol resync —
# DESIGN.md 16), then the serve-bench netsplit drill end-to-end on real
# data: partition the socket transport mid-churn, assert zero dropped
# queries, backoff reconnect without re-bootstrap, and bit-identical
# convergence. The drill exits non-zero on any violated invariant.
chaos_lane() {
  T2H_KERNEL_ISA=scalar run_lane chaos build-asan address -L replica_net
  echo "==== lane: chaos-netsplit-drill (build-asan) ===="
  local dir
  dir="$(mktemp -d)"
  trap 'rm -rf "${dir}"' RETURN
  ./build-asan/tools/t2h_cli generate --out "${dir}/trips.csv" \
    --count 300 --max-points 12 --seed 7
  T2H_KERNEL_ISA=scalar ./build-asan/tools/t2h_cli serve-bench \
    --data "${dir}/trips.csv" --queries 64 --rounds 4 --clients 2 \
    --wal "${dir}/bench.wal" --replicas 2 --transport socket \
    --drill netsplit --churn 64 --max-lag-records 512
}

# Reruns the kernels-labelled suites once per ISA this host can actually
# run, each pass forced via T2H_KERNEL_ISA (an unavailable forced ISA is a
# hard startup failure, never a silent fallback — so availability is probed
# first with `t2h_cli version`). Guarantees the scalar and sse2 paths keep
# passing on machines where avx2 would otherwise shadow them.
simd_lane() {
  echo "==== lane: simd (build) ===="
  cmake -B build -S . -DT2H_SANITIZE="" >/dev/null
  cmake --build build -j "$(nproc)"
  local isa
  for isa in scalar sse2 avx2; do
    if T2H_KERNEL_ISA="${isa}" ./build/tools/t2h_cli version >/dev/null 2>&1; then
      echo "---- simd: forcing T2H_KERNEL_ISA=${isa} ----"
      T2H_KERNEL_ISA="${isa}" ctest --test-dir build --output-on-failure \
        -j "$(nproc)" -L kernels
    else
      echo "---- simd: ${isa} unavailable on this host, SKIPPED ----"
    fi
  done
}

# Note: the fast lane filters by label, not by name, so new tier1-labelled
# suites (e.g. the replica/ and router tests) are picked up automatically.
# It also runs the frontend-labelled serve front-end suites (DESIGN.md 15)
# and the replica_net-labelled socket transport suites (DESIGN.md 16).
lanes="${1:-all}"
case "${lanes}" in
  fast)  run_lane fast build "" -L 'tier1|frontend|replica_net' ;;
  plain) run_lane plain build "" ;;
  # The sanitizer lane pins the scalar backend: asan instruments the
  # portable loops (the contract every SIMD path is checked against), and
  # the vector paths' aligned whole-block loads would only re-test the
  # same bytes at higher noise.
  asan)  T2H_KERNEL_ISA=scalar run_lane asan build-asan address ;;
  tsan)
    run_lane tsan build-tsan thread
    replica_stress
    frontend_stress
    socket_stress
    quant_stress
    embed_stress
    ;;
  simd)  simd_lane ;;
  chaos) chaos_lane ;;
  quant) quant_lane ;;
  all)
    run_lane plain build ""
    simd_lane
    T2H_KERNEL_ISA=scalar run_lane asan build-asan address
    chaos_lane
    quant_lane
    run_lane tsan build-tsan thread
    replica_stress
    frontend_stress
    socket_stress
    quant_stress
    embed_stress
    ;;
  *)
    echo "usage: tools/check.sh [fast|plain|asan|tsan|simd|chaos|quant|all]" >&2
    exit 2
    ;;
esac
echo "==== all requested lanes passed ===="
