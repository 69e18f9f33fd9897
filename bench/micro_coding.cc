// Codec hot paths: varint, CRC32C, row encode/decode, frozen-block
// compression ratio and speed.
#include <benchmark/benchmark.h>

#include "common/arena.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/profiler.h"
#include "common/random.h"
#include "storage/frozen_block.h"
#include "storage/schema.h"

namespace phoebe {
namespace {

void BM_Varint64(benchmark::State& state) {
  Random rng(1);
  std::vector<uint64_t> values(1024);
  for (auto& v : values) v = rng.Next() >> (rng.Next() % 56);
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    for (uint64_t v : values) PutVarint64(&buf, v);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Varint64);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

Schema BenchSchema() {
  return Schema({{"a", ColumnType::kInt64, 0, false},
                 {"b", ColumnType::kInt32, 0, false},
                 {"c", ColumnType::kDouble, 0, false},
                 {"d", ColumnType::kString, 64, false}});
}

void BM_RowEncode(benchmark::State& state) {
  Schema s = BenchSchema();
  for (auto _ : state) {
    RowBuilder b(&s);
    b.SetInt64(0, 123456).SetInt32(1, 42).SetDouble(2, 3.14)
        .SetString(3, "some medium length string value");
    benchmark::DoNotOptimize(b.Encode());
  }
}
BENCHMARK(BM_RowEncode);

/// Measures heap allocs/op of `body` and reports them as counters.
template <typename Fn>
void RunWithAllocCounters(benchmark::State& state, Fn body) {
  Profiler::Reset();
  Profiler::EnableAllocTracking(true);
  Profiler::Totals before = Profiler::Aggregate();
  uint64_t iters = 0;
  for (auto _ : state) {
    body();
    ++iters;
  }
  Profiler::Totals after = Profiler::Aggregate();
  Profiler::EnableAllocTracking(false);
  if (iters > 0) {
    state.counters["heap_allocs_per_op"] = static_cast<double>(
        (after.total_heap_allocs - before.total_heap_allocs) / iters);
    state.counters["arena_bytes_per_op"] = static_cast<double>(
        (after.arena_bytes - before.arena_bytes) / iters);
  }
}

/// Scratch-string path: hoisted builder + EncodeTo(std::string*) reusing
/// capacity; steady state is allocation-free.
void BM_RowEncodeToStringAllocs(benchmark::State& state) {
  Schema s = BenchSchema();
  RowBuilder b(&s);
  std::string out;
  RunWithAllocCounters(state, [&] {
    b.SetInt64(0, 123456).SetInt32(1, 42).SetDouble(2, 3.14)
        .SetStringRef(3, Slice("some medium length string value"));
    benchmark::DoNotOptimize(b.EncodeTo(&out));
  });
}
BENCHMARK(BM_RowEncodeToStringAllocs);

/// Arena path: hoisted builder + EncodeTo(Arena*) with the per-transaction
/// reset pattern; zero heap allocations, bytes land in the arena.
void BM_RowEncodeToArenaAllocs(benchmark::State& state) {
  Schema s = BenchSchema();
  RowBuilder b(&s);
  Arena arena;
  RunWithAllocCounters(state, [&] {
    b.SetInt64(0, 123456).SetInt32(1, 42).SetDouble(2, 3.14)
        .SetStringRef(3, Slice("some medium length string value"));
    benchmark::DoNotOptimize(b.EncodeTo(&arena));
    arena.Reset();
  });
}
BENCHMARK(BM_RowEncodeToArenaAllocs);

/// Delta codec: MakeDelta into the arena, the UNDO-assembly hot path of
/// UpdateApply; zero heap allocations.
void BM_MakeDeltaArenaAllocs(benchmark::State& state) {
  Schema s = BenchSchema();
  RowBuilder b(&s);
  b.SetInt64(0, 123456).SetInt32(1, 42).SetDouble(2, 3.14)
      .SetString(3, "some medium length string value");
  std::string row = b.Encode().value();
  RowView view(&s, row.data());
  const uint32_t cols[] = {0, 1, 3};
  Arena arena;
  RunWithAllocCounters(state, [&] {
    benchmark::DoNotOptimize(DeltaCodec::MakeDelta(s, view, cols, 3, &arena));
    arena.Reset();
  });
}
BENCHMARK(BM_MakeDeltaArenaAllocs);

void BM_FrozenBlockEncode(benchmark::State& state) {
  Schema s = BenchSchema();
  std::vector<RowId> rids;
  std::vector<std::string> rows;
  Random rng(3);
  for (int i = 0; i < 256; ++i) {
    rids.push_back(static_cast<RowId>(i + 1));
    RowBuilder b(&s);
    b.SetInt64(0, 100000 + i).SetInt32(1, static_cast<int32_t>(rng.Uniform(100)))
        .SetDouble(2, 1.0).SetString(3, "repetitivestringvalue");
    rows.push_back(b.Encode().value());
  }
  size_t encoded_size = 0, raw = 0;
  for (const auto& r : rows) raw += r.size();
  for (auto _ : state) {
    auto block = FrozenBlockCodec::Encode(s, rids, rows);
    encoded_size = block.value().size();
    benchmark::DoNotOptimize(block.value().data());
  }
  state.counters["compression"] =
      static_cast<double>(raw) / static_cast<double>(encoded_size);
}
BENCHMARK(BM_FrozenBlockEncode);

}  // namespace
}  // namespace phoebe
