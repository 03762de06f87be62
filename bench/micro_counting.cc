// Experiment E10a — micro-benchmarks for the counting backends (the
// DESIGN.md ablation: vertical TID-bitmaps vs horizontal hashing).
//
// Besides google-benchmark's own console/JSON output, --bench_json=FILE
// writes per-benchmark real time through bench::Reporter in the
// BENCH_*.json schema tools/bench_diff compares; --quick lowers
// --benchmark_min_time for CI smoke runs; --no-simd pins the scalar
// counting kernel for the backend benchmarks (the BM_Kernel* series
// pin their own kernel per run regardless).

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/gbench_main.h"
#include "common/rng.h"
#include "data/synthetic_gen.h"
#include "mining/bitmap_counter.h"
#include "mining/candidate_gen.h"
#include "mining/hash_counter.h"
#include "mining/hash_tree_counter.h"

namespace cfq {
namespace {

TransactionDb* SharedDb() {
  static TransactionDb* db = [] {
    QuestParams params;
    params.num_transactions = 5000;
    params.num_items = 200;
    params.num_patterns = 100;
    params.seed = 9;
    auto generated = GenerateQuestDb(params);
    auto* owned = new TransactionDb(std::move(generated).value());
    owned->BuildVerticalIndex();
    return owned;
  }();
  return db;
}

// Random batch of distinct size-k candidates. `count` is capped by the
// number of distinct size-k sets available (only 200 singletons exist).
std::vector<Itemset> MakeCandidates(size_t k, size_t count) {
  if (k == 1) count = std::min<size_t>(count, 128);
  Rng rng(k * 1000 + count);
  std::vector<Itemset> out;
  std::unordered_set<Itemset, ItemsetHash> seen;
  while (out.size() < count) {
    std::vector<ItemId> raw(k);
    for (auto& x : raw) {
      x = static_cast<ItemId>(rng.UniformInt(0, 199));
    }
    Itemset c = MakeItemset(raw);
    if (c.size() == k && seen.insert(c).second) out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BM_HashCount(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto candidates = MakeCandidates(k, 256);
  HashCounter counter(SharedDb());
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.Count(candidates, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_HashCount)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_BitmapCount(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto candidates = MakeCandidates(k, 256);
  BitmapCounter counter(SharedDb());
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.Count(candidates, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_BitmapCount)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_HashTreeCount(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto candidates = MakeCandidates(k, 256);
  HashTreeCounter counter(SharedDb());
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.Count(candidates, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_HashTreeCount)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// --- Kernel-level series (tools/bench_diff gates simd vs scalar) -----
//
// BM_KernelAndCount measures the raw AND-popcount loop (words/sec) and
// BM_KernelAndCountMany the fused multi-way variant (candidate
// intersections/sec) under a pinned kernel, so the committed baseline
// records the vectorized-vs-scalar ratio on the build machine. The
// previously active kernel is restored after each run — these series
// must not leak a pinned kernel into the backend benchmarks above.

constexpr size_t kKernelWords = 4096;  // 256 KiB of bitmap per operand.
constexpr size_t kKernelCandidates = 16;

const std::vector<uint64_t>& KernelOperand(uint64_t seed) {
  static std::vector<std::vector<uint64_t>>* operands = [] {
    auto* owned = new std::vector<std::vector<uint64_t>>();
    for (uint64_t s = 0; s < kKernelCandidates + 1; ++s) {
      Rng rng(s + 77);
      std::vector<uint64_t> words(kKernelWords);
      for (auto& w : words) {
        w = rng.UniformInt(0, (uint64_t{1} << 62) - 1);
      }
      owned->push_back(std::move(words));
    }
    return owned;
  }();
  return (*operands)[seed];
}

bool PinKernel(benchmark::State& state, const char* name) {
  if (!simd::SetKernel(name)) {
    state.SkipWithError("kernel unavailable on this CPU");
    return false;
  }
  return true;
}

void BM_KernelAndCount(benchmark::State& state, const char* kernel) {
  const simd::Kernel previous = simd::ActiveKernel();
  if (!PinKernel(state, kernel)) return;
  const auto& a = KernelOperand(0);
  const auto& b = KernelOperand(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::AndCount(a.data(), b.data(), kKernelWords));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelWords));
  simd::SetKernel(simd::KernelName(previous));
}
BENCHMARK_CAPTURE(BM_KernelAndCount, scalar, "scalar");
BENCHMARK_CAPTURE(BM_KernelAndCount, simd,
                  simd::KernelName(simd::DetectBestKernel()));

void BM_KernelAndCountMany(benchmark::State& state, const char* kernel) {
  const simd::Kernel previous = simd::ActiveKernel();
  if (!PinKernel(state, kernel)) return;
  const auto& base = KernelOperand(0);
  std::vector<const uint64_t*> others;
  for (size_t j = 0; j < kKernelCandidates; ++j) {
    others.push_back(KernelOperand(j + 1).data());
  }
  uint64_t counts[kKernelCandidates];
  for (auto _ : state) {
    simd::AndCountMany(base.data(), others.data(), kKernelCandidates,
                       kKernelWords, counts);
    benchmark::DoNotOptimize(counts[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelCandidates));
  simd::SetKernel(simd::KernelName(previous));
}
BENCHMARK_CAPTURE(BM_KernelAndCountMany, scalar, "scalar");
BENCHMARK_CAPTURE(BM_KernelAndCountMany, simd,
                  simd::KernelName(simd::DetectBestKernel()));

void BM_BuildVerticalIndex(benchmark::State& state) {
  TransactionDb& db = *SharedDb();
  for (auto _ : state) {
    db.BuildVerticalIndex();
    benchmark::DoNotOptimize(db.vertical(0).Count());
  }
}
BENCHMARK(BM_BuildVerticalIndex);

void BM_CandidateJoinPrune(benchmark::State& state) {
  const auto frequent = MakeCandidates(2, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidatesJoinPrune(frequent));
  }
}
BENCHMARK(BM_CandidateJoinPrune)->Arg(64)->Arg(256)->Arg(1024);

void BM_QuestGeneration(benchmark::State& state) {
  QuestParams params;
  params.num_transactions = static_cast<uint64_t>(state.range(0));
  params.num_items = 200;
  params.num_patterns = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateQuestDb(params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuestGeneration)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace cfq

int main(int argc, char** argv) {
  return cfq::bench::GbenchMain(
      argc, argv, "micro_counting", [](const std::string& arg) {
        if (arg != "--no-simd" && arg != "--no-simd=1") return false;
        cfq::simd::SetKernel("scalar");
        return true;
      });
}
