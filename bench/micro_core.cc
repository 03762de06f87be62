// Experiment E10b — micro-benchmarks for the paper-contribution paths:
// the quasi-succinct reduction ("little extra cost", Section 4.1) and
// the Jmax / V^k computation ("the time taken to find Jmax is
// negligible", Section 5.2) — plus pair formation, which those
// reductions feed: BM_PairJoin/nested is the EvalAllPairs loop over
// every (S, T) pair, BM_PairJoin/columns the per-set-column join
// (core/pair_join.h), both serial over the same 2000 x 2000 side sets.
// On that answer capped at 100k rows, as the daemon serves it:
// BM_AnswerDigest/rows is the reference digest that sorts the row
// strings (obs::DigestRowViews), BM_AnswerDigest/ranked the per-side
// rank digest RenderAnswer computes (AnswerDigest, core/answer_rows.h),
// and BM_RespondLine writes one cached answer's response line.
//
// --bench_json=FILE and --quick as in micro_counting (bench/gbench_main.h).

#include <benchmark/benchmark.h>

#include "bench/gbench_main.h"
#include "common/rng.h"
#include "constraints/eval.h"
#include "core/answer_rows.h"
#include "core/jmax.h"
#include "core/pair_join.h"
#include "core/reduction.h"
#include "mining/apriori.h"
#include "obs/digest.h"
#include "server/service.h"

namespace cfq {
namespace {

struct Fixture {
  ItemCatalog catalog{1000};
  Itemset l1_s;
  Itemset l1_t;
  std::vector<FrequentSet> level3;
};

const Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture;
    Rng rng(17);
    std::vector<AttrValue> a(1000), b(1000);
    for (size_t i = 0; i < 1000; ++i) {
      a[i] = static_cast<AttrValue>(rng.UniformInt(0, 999));
      b[i] = static_cast<AttrValue>(rng.UniformInt(0, 999));
    }
    (void)f->catalog.AddNumericAttr("A", a);
    (void)f->catalog.AddNumericAttr("B", b);
    for (ItemId i = 0; i < 1000; i += 2) f->l1_s.push_back(i);
    for (ItemId i = 1; i < 1000; i += 2) f->l1_t.push_back(i);
    // Synthetic level-3 frequent sets for the Jmax benchmarks.
    for (int s = 0; s < 2000; ++s) {
      std::vector<ItemId> raw(3);
      for (auto& x : raw) {
        x = static_cast<ItemId>(rng.UniformInt(0, 999) | 1);  // Odd items.
      }
      Itemset set = MakeItemset(raw);
      if (set.size() == 3) {
        f->level3.push_back(FrequentSet{set, 10});
      }
    }
    return f;
  }();
  return *fixture;
}

void BM_ReduceQuasiSuccinctDomain(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  const auto c = MakeDomain2("A", SetCmp::kDisjoint, "B");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceTwoVar(c, f.l1_s, f.l1_t, f.catalog));
  }
}
BENCHMARK(BM_ReduceQuasiSuccinctDomain);

void BM_ReduceQuasiSuccinctAgg(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  const auto c = MakeAgg2(AggFn::kMax, "A", CmpOp::kLe, AggFn::kMin, "B");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceTwoVar(c, f.l1_s, f.l1_t, f.catalog));
  }
}
BENCHMARK(BM_ReduceQuasiSuccinctAgg);

void BM_InduceWeaker(benchmark::State& state) {
  const auto c = MakeAgg2(AggFn::kAvg, "A", CmpOp::kLe, AggFn::kAvg, "B");
  for (auto _ : state) {
    benchmark::DoNotOptimize(InduceWeaker(c));
  }
}
BENCHMARK(BM_InduceWeaker);

void BM_ComputeJmax(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeJmax(f.level3, 3));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.level3.size()));
}
BENCHMARK(BM_ComputeJmax);

void BM_ComputeVk(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeVk(f.level3, 3, "B", f.catalog));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.level3.size()));
}
BENCHMARK(BM_ComputeVk);

void BM_AchievableAgg(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AchievableAgg(AggFn::kSum, "B", f.l1_t, f.catalog));
  }
}
BENCHMARK(BM_AchievableAgg);

// Side sets shaped like a served pair-heavy query: 2000 sets of 1-3
// items per side over 120 items with fractional prices.
struct PairFixture {
  ItemCatalog catalog{120};
  CfqResult sides;
  std::vector<TwoVarConstraint> two_var = {
      MakeAgg2(AggFn::kMax, "Price", CmpOp::kLe, AggFn::kMin, "Price")};
};

const PairFixture& SharedPairFixture() {
  static PairFixture* fixture = [] {
    auto* f = new PairFixture;
    Rng rng(23);
    std::vector<AttrValue> price(120);
    for (AttrValue& p : price) p = rng.UniformReal(1, 100);
    (void)f->catalog.AddNumericAttr("Price", price);
    for (std::vector<FrequentSet>* side : {&f->sides.s_sets, &f->sides.t_sets}) {
      for (int k = 0; k < 2000; ++k) {
        std::vector<ItemId> raw(static_cast<size_t>(rng.UniformInt(1, 3)));
        for (ItemId& x : raw) x = static_cast<ItemId>(rng.UniformInt(0, 119));
        side->push_back(FrequentSet{MakeItemset(std::move(raw)), 100});
      }
    }
    return f;
  }();
  return *fixture;
}

void BM_PairJoin(benchmark::State& state, bool columns) {
  const PairFixture& f = SharedPairFixture();
  for (auto _ : state) {
    CfqResult result;
    result.s_sets = f.sides.s_sets;
    result.t_sets = f.sides.t_sets;
    if (columns) {
      benchmark::DoNotOptimize(FormPairs(f.two_var, f.catalog, {}, &result));
    } else {
      for (uint32_t i = 0; i < result.s_sets.size(); ++i) {
        for (uint32_t j = 0; j < result.t_sets.size(); ++j) {
          auto ok = EvalAllPairs(f.two_var, result.s_sets[i].items,
                                 result.t_sets[j].items, f.catalog);
          if (ok.ok() && ok.value()) result.pairs.emplace_back(i, j);
        }
      }
    }
    benchmark::DoNotOptimize(result.pairs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.sides.s_sets.size() *
                                               f.sides.t_sets.size()));
}
BENCHMARK_CAPTURE(BM_PairJoin, nested, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PairJoin, columns, true)->Unit(benchmark::kMillisecond);

constexpr uint64_t kServedRows = 100000;  // The daemon's default row cap.

const CfqResult& SharedPairAnswer() {
  static CfqResult* answer = [] {
    const PairFixture& f = SharedPairFixture();
    auto* result = new CfqResult;
    result->s_sets = f.sides.s_sets;
    result->t_sets = f.sides.t_sets;
    (void)FormPairs(f.two_var, f.catalog, {}, result);
    return result;
  }();
  return *answer;
}

void BM_AnswerDigest(benchmark::State& state, bool ranked) {
  const CfqResult& answer = SharedPairAnswer();
  std::vector<std::string> rows;
  if (!ranked) {
    auto rendered = server::RenderAnswer(answer, kServedRows, "");
    auto parsed = server::JsonValue::Parse(*rendered->rows_json);
    for (const server::JsonValue& row : parsed->as_array()) {
      rows.push_back(row.as_string());
    }
  }
  const std::vector<std::string_view> views(rows.begin(), rows.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ranked ? AnswerDigest(answer, kServedRows)
                                    : obs::DigestRowViews(views));
  }
}
BENCHMARK_CAPTURE(BM_AnswerDigest, rows, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AnswerDigest, ranked, true)
    ->Unit(benchmark::kMillisecond);

void BM_RespondLine(benchmark::State& state) {
  const auto answer = server::RenderAnswer(SharedPairAnswer(), kServedRows, "");
  for (auto _ : state) {
    server::JsonValue::Object response = server::AnswerResponse(*answer);
    response["cached"] = true;
    std::string line = server::JsonValue(std::move(response)).Write();
    line += '\n';
    benchmark::DoNotOptimize(line.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RespondLine)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cfq

int main(int argc, char** argv) {
  return cfq::bench::GbenchMain(argc, argv, "micro_core");
}
