#!/usr/bin/env bash
# Re-measure the numbers recorded in BENCH_hotpath.json / BENCH_wire.json
# and leave the raw outputs in one place, so updating the committed JSON
# is a copy job instead of a scavenger hunt.
#
# Usage: tools/record_bench.sh [build-dir] [out-dir]
#   build-dir  where the bench binaries live   (default: build)
#   out-dir    where to write raw results      (default: bench_results)
#
# Produces in out-dir:
#   acl_session_cost.txt   microbench ns/op (BM_SessionCreate and friends)
#   fig4_inline.json       end-to-end sweep, adaptive inline dispatch ON
#   fig4_inline_off.json   ablation: every request takes the worker handoff
#   wire.json              per-protocol round-trip cost
#   wire_codecs.txt        microbench ns/op: 64 KiB binary payload per
#                          protocol and the base64 kernel
#                          (binary_payload_64k_roundtrip_ns)
#   store.json             storage-engine churn rows (BENCH_store.json)
#   federation.json        cluster redirect tax + replication overhead
#                          and fsck scrub throughput (BENCH_federation.json)
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-bench_results}"
mkdir -p "$OUT"

if [[ ! -x "$BUILD/bench/bench_fig4_throughput" ]]; then
  echo "error: $BUILD/bench/bench_fig4_throughput not built" >&2
  echo "hint: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

echo "== microbench: session/ACL hot path =="
"$BUILD/bench/bench_acl_session_cost" --benchmark_min_time=0.2 \
  | tee "$OUT/acl_session_cost.txt"

echo
echo "== fig4 end-to-end: inline dispatch on =="
"$BUILD/bench/bench_fig4_throughput" --json "$OUT/fig4_inline.json"

echo
echo "== fig4 end-to-end: inline dispatch off (ablation) =="
"$BUILD/bench/bench_fig4_throughput" --inline off \
  --json "$OUT/fig4_inline_off.json"

echo
echo "== wire protocols =="
"$BUILD/bench/bench_wire_protocols" --json "$OUT/wire.json"

echo
echo "== wire codecs: binary payloads and the base64 kernel =="
"$BUILD/bench/bench_protocol_serialization" \
  --benchmark_filter='BM_BinaryPayload|BM_Base64' \
  --benchmark_repetitions=10 --benchmark_report_aggregates_only=true \
  | tee "$OUT/wire_codecs.txt"

echo
echo "== storage engine: multi-writer session churn =="
"$BUILD/bench/bench_session_persistence" --json "$OUT/store.json"

echo
echo "== federation: redirect-to-node I/O vs standalone =="
"$BUILD/bench/bench_federation" --json "$OUT/federation.json"

echo
echo "Raw results in $OUT/. Fold the summaries into BENCH_hotpath.json,"
echo "BENCH_wire.json, BENCH_store.json and BENCH_federation.json when"
echo "committing a performance change."
