#!/usr/bin/env bash
# Scheduler/perf smoke: runs a short TPC-C burst at 1, 4, and 8 workers and
# emits BENCH_sched.json with tpmC plus the per-point scheduler dispatch
# counters (steals, parks, queue high-water), then an allocation smoke that
# emits BENCH_alloc.json (allocs/txn + bytes/txn from the codec/MVCC micro
# benches and a short TPC-C run). The TPC-C numbers come from each run's
# "#METRICS {json}" line, the micro-bench counters from google-benchmark's
# JSON output. Future PRs diff these files to see the perf trajectory of the
# dispatch layer and the allocation hot path. Usage:
#   scripts/bench_smoke.sh [seconds-per-point] [sched.json] [alloc.json] [btree.json]
set -eu

cd "$(dirname "$0")/.."

SECONDS_PER_POINT="${1:-2}"
OUT="${2:-BENCH_sched.json}"
ALLOC_OUT="${3:-BENCH_alloc.json}"
BTREE_OUT="${4:-BENCH_btree.json}"
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target exp2_scalability micro_coding micro_mvcc order_management \
  micro_btree \
  >/dev/null

# Reads bench output on stdin and prints the snapshot of every
# "#METRICS {json}" line as one JSON list. Fails when a line does not parse
# as JSON or when there is none.
metrics_of() {
  python3 -c '
import json, sys
out = [json.loads(line[len("#METRICS "):])
       for line in sys.stdin if line.startswith("#METRICS ")]
assert out, "no #METRICS line in the bench output"
json.dump(out, sys.stdout)
'
}

RAW=$("$BUILD_DIR/bench/exp2_scalability" \
  --sweep=1,4,8 \
  --seconds="$SECONDS_PER_POINT" \
  --warmup=0.5 \
  --warehouses=4)
echo "$RAW"
SCHED_METRICS=$(printf '%s\n' "$RAW" | metrics_of)

# One point per sweep step: tpmC plus the scheduler's total dispatch
# counters (the snapshot's sched.* entries, prefix dropped).
SCHED_METRICS="$SCHED_METRICS" python3 - "$OUT" "$SECONDS_PER_POINT" <<'EOF'
import json, os, sys
points = []
for m in json.loads(os.environ["SCHED_METRICS"]):
    point = {
        "workers": sum(1 for k in m
                       if k.startswith("sched.w") and k.endswith(".pulled")),
        "tpmC": round(m["tpcc.tpmc"]),
        "tpm": round(m["tpcc.tpm"]),
    }
    point.update({k[len("sched."):]: v for k, v in m.items()
                  if k.startswith("sched.") and not k.startswith("sched.w")})
    points.append(point)
doc = {
    "bench": "tpcc_sched_smoke",
    "seconds_per_point": float(sys.argv[2]),
    "points": points,
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF

echo "wrote $OUT"

# --- Allocation smoke ------------------------------------------------------
# Micro benches report heap_allocs_per_op / arena_bytes_per_op counters for
# the EncodeTo/arena codec paths and the visibility chain walk; the TPC-C
# run's snapshot carries the driver's tpcc.*_per_txn allocation rates.
MICRO_CODING=$("$BUILD_DIR/bench/micro_coding" --benchmark_filter=Allocs \
  --benchmark_min_time=0.1 --benchmark_format=json 2>/dev/null)
MICRO_MVCC=$("$BUILD_DIR/bench/micro_mvcc" --benchmark_filter=Allocs \
  --benchmark_min_time=0.1 --benchmark_format=json 2>/dev/null)
TPCC=$("$BUILD_DIR/examples/order_management" 1 "$SECONDS_PER_POINT")
echo "$TPCC"
TPCC_METRICS=$(printf '%s\n' "$TPCC" | metrics_of)

MICRO_CODING="$MICRO_CODING" MICRO_MVCC="$MICRO_MVCC" \
TPCC_METRICS="$TPCC_METRICS" python3 - "$ALLOC_OUT" <<'EOF'
import json, os, sys
micro = []
for var in ("MICRO_CODING", "MICRO_MVCC"):
    for b in json.loads(os.environ[var]).get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        point = {"name": b["name"]}
        point.update({k: v for k, v in b.items() if k.endswith("_per_op")})
        micro.append(point)
m = json.loads(os.environ["TPCC_METRICS"])[-1]
doc = {
    "bench": "alloc_smoke",
    "micro": micro,
    "tpcc": {
        "allocs_per_txn": round(m["tpcc.allocs_per_txn"], 1),
        "heap_bytes_per_txn": round(m["tpcc.heap_bytes_per_txn"]),
        "arena_bytes_per_txn": round(m["tpcc.arena_bytes_per_txn"]),
        "txns": m["tpcc.commits"],
    },
    # Pre-arena reference, measured at the growth seed with a temporary
    # operator-new counter (EXPERIMENTS.md Exp 7): the hot-path rewrite
    # must stay >= 5x below it.
    "baseline_pre_arena": {"allocs_per_txn": 895.5,
                           "heap_bytes_per_txn": 96588},
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF

echo "wrote $ALLOC_OUT"

# --- B-Tree node-kernel smoke ----------------------------------------------
# Point lookup / insert / short scan over three key shapes: 8-byte integer,
# TPC-C composite (shared prefixes — the layout-v2 sweet spot), and
# distinct-prefix (worst case: truncation finds nothing to strip). The
# baseline_pre_v2 block is the pre-layout-v2 kernel measured back-to-back
# with the v2 kernel in the same window on the same machine; ci.sh asserts
# the composite lookup speedup and the worst-case non-regression against it.
BTREE_RAW=$("$BUILD_DIR/bench/micro_btree" \
  --benchmark_filter=BM_BTree \
  --benchmark_min_time=0.2 \
  --benchmark_format=json 2>/dev/null)

python3 - "$BTREE_OUT" <<EOF
import json, sys
raw = json.loads('''$BTREE_RAW''')
points = [
    {"name": b["name"], "ns": round(b["real_time"], 1)}
    for b in raw.get("benchmarks", [])
    if b.get("run_type", "iteration") == "iteration"
]
doc = {
    "bench": "btree_node_kernel",
    "points": points,
    # Pre-layout-v2 kernel (growth seed 580808d) on the same workloads,
    # RelWithDebInfo, measured back-to-back with v2 (EXPERIMENTS.md Exp 7).
    "baseline_pre_v2": {
        "BM_BTreeLookup/10000": 208,
        "BM_BTreeLookup/1000000": 901,
        "BM_BTreeInsert": 259,
        "BM_BTreeScan100": 1215,
        "BM_BTreeLookupComposite/10000": 213,
        "BM_BTreeLookupComposite/1000000": 917,
        "BM_BTreeLookupDistinctPrefix/10000": 218,
        "BM_BTreeLookupDistinctPrefix/1000000": 908,
        "BM_BTreeInsertComposite": 312,
        "BM_BTreeScan100Composite": 1409,
    },
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF

echo "wrote $BTREE_OUT"
