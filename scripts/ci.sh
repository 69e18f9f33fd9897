#!/usr/bin/env bash
# Tier-1 CI entry point: release build + full ctest suite + bench smoke
# gates, then (optionally) the sanitizer smoke suites. The tier1 job of
# .github/workflows/ci.yml runs this script, so it is the one definition of
# the tier-1 steps; the asan/tsan jobs run the scripts behind --asan/--tsan.
# Usage:
#   scripts/ci.sh              # tier-1: configure, build, ctest
#   scripts/ci.sh --asan       # tier-1 + ASan/UBSan suite
#   scripts/ci.sh --tsan       # tier-1 + TSan suite
#   scripts/ci.sh --sanitizers # tier-1 + both sanitizer suites
set -eu

cd "$(dirname "$0")/.."

run_asan=0
run_tsan=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --tsan) run_tsan=1 ;;
    --sanitizers) run_asan=1; run_tsan=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "===== tier-1: configure + build ====="
cmake -B build -S .
cmake --build build -j "$(nproc)"

echo "===== tier-1: ctest ====="
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "===== tier-1: bench smoke (sched + alloc + btree) ====="
scripts/bench_smoke.sh 1
python3 - <<'EOF'
import json
d = json.load(open("BENCH_alloc.json"))
cur = d["tpcc"]["allocs_per_txn"]
base = d["baseline_pre_arena"]["allocs_per_txn"]
assert cur > 0 and cur * 5 <= base, (cur, base)
print(f"allocs/txn {cur} vs pre-arena {base}: {base / cur:.1f}x")
EOF
python3 - <<'EOF'
import json
d = json.load(open("BENCH_btree.json"))
cur = {p["name"]: p["ns"] for p in d["points"]}
base = d["baseline_pre_v2"]
# Tentpole gate: composite-key point lookup must hold >= 1.5x over the
# pre-layout-v2 kernel (measured margin is ~1.8x, so this absorbs CI noise).
name = "BM_BTreeLookupComposite/1000000"
assert cur[name] * 1.5 <= base[name], (name, cur[name], base[name])
print(f"{name}: {cur[name]} ns vs pre-v2 {base[name]}: "
      f"{base[name] / cur[name]:.2f}x")
# Worst-case guard: keys with no common prefix must not regress past noise.
name = "BM_BTreeLookupDistinctPrefix/1000000"
assert cur[name] <= base[name] * 1.3, (name, cur[name], base[name])
print(f"{name}: {cur[name]} ns vs pre-v2 {base[name]} (guard <= 1.3x)")
EOF

if [ "$run_asan" = 1 ]; then
  echo "===== sanitizer smoke: asan ====="
  scripts/run_asan.sh
fi
if [ "$run_tsan" = 1 ]; then
  echo "===== sanitizer smoke: tsan ====="
  scripts/run_tsan.sh
fi

echo "===== ci: all suites passed ====="
