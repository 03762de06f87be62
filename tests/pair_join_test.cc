#include "core/pair_join.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraints/eval.h"
#include "incremental/answer.h"
#include "incremental/mining_state.h"
#include "stream/ingestor.h"

namespace cfq {
namespace {

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;

constexpr size_t kItems = 24;

// Seeded catalog: fractional "Price" (float sum/avg order matters),
// integer "Qty" with ties, categorical "Type" and "Color".
ItemCatalog RandomCatalog(uint64_t seed) {
  Rng rng(seed);
  ItemCatalog catalog(kItems);
  std::vector<AttrValue> price(kItems), qty(kItems);
  std::vector<int32_t> type(kItems), color(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    price[i] = rng.UniformReal(0.0, 10.0);
    qty[i] = static_cast<AttrValue>(rng.UniformInt(1, 6));
    type[i] = static_cast<int32_t>(rng.UniformInt(0, 4));
    color[i] = static_cast<int32_t>(rng.UniformInt(0, 2));
  }
  EXPECT_TRUE(catalog.AddNumericAttr("Price", price).ok());
  EXPECT_TRUE(catalog.AddNumericAttr("Qty", qty).ok());
  EXPECT_TRUE(catalog.AddCategoricalAttr("Type", type).ok());
  EXPECT_TRUE(catalog.AddCategoricalAttr("Color", color).ok());
  return catalog;
}

// `n` random side sets of 1-4 items; with `with_empty`, the first set
// is empty so min/max/avg over it are undefined.
std::vector<FrequentSet> RandomSides(Rng* rng, size_t n, bool with_empty) {
  std::vector<FrequentSet> out;
  for (size_t k = 0; k < n; ++k) {
    std::vector<ItemId> raw(static_cast<size_t>(rng->UniformInt(1, 4)));
    for (ItemId& x : raw) {
      x = static_cast<ItemId>(rng->UniformInt(0, kItems - 1));
    }
    out.push_back(FrequentSet{MakeItemset(std::move(raw)),
                              static_cast<uint64_t>(rng->UniformInt(1, 50))});
  }
  if (with_empty && !out.empty()) out[0] = FrequentSet{Itemset{}, 1};
  return out;
}

struct Oracle {
  Status status;
  PairList pairs;
  uint64_t checks = 0;
};

// The ground truth: EvalAllPairs on every participating (i, j),
// row-major, stopping at the first error.
Oracle NestedLoop(const std::vector<TwoVarConstraint>& two_var,
                  const CfqResult& sides, const ItemCatalog& catalog,
                  const std::vector<char>* s_mask = nullptr,
                  const std::vector<char>* t_mask = nullptr) {
  Oracle out;
  for (uint32_t i = 0; i < sides.s_sets.size(); ++i) {
    if (s_mask != nullptr && (*s_mask)[i] == 0) continue;
    for (uint32_t j = 0; j < sides.t_sets.size(); ++j) {
      if (t_mask != nullptr && (*t_mask)[j] == 0) continue;
      ++out.checks;
      auto ok = EvalAllPairs(two_var, sides.s_sets[i].items,
                             sides.t_sets[j].items, catalog);
      if (!ok.ok()) {
        out.status = ok.status();
        return out;
      }
      if (ok.value()) out.pairs.emplace_back(i, j);
    }
  }
  return out;
}

CfqResult Sides(std::vector<FrequentSet> s, std::vector<FrequentSet> t) {
  CfqResult result;
  result.s_sets = std::move(s);
  result.t_sets = std::move(t);
  return result;
}

// Joins through the module and checks pairs and checks against the
// nested loop.
void ExpectMatchesOracle(const std::vector<TwoVarConstraint>& two_var,
                         CfqResult sides, const ItemCatalog& catalog,
                         const PairJoinOptions& options = {}) {
  const Oracle oracle = NestedLoop(two_var, sides, catalog,
                                   options.s_participants,
                                   options.t_participants);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status;
  ASSERT_TRUE(FormPairs(two_var, catalog, options, &sides).ok());
  EXPECT_FALSE(sides.cross_product);
  EXPECT_EQ(sides.pairs, oracle.pairs);
  EXPECT_EQ(sides.stats.pair_checks, oracle.checks);
}

const AggFn kAggFns[] = {AggFn::kMin, AggFn::kMax, AggFn::kSum, AggFn::kAvg,
                         AggFn::kCount};
const CmpOp kCmpOps[] = {CmpOp::kLe, CmpOp::kGe, CmpOp::kLt,
                         CmpOp::kGt, CmpOp::kEq, CmpOp::kNe};
const SetCmp kSetCmps[] = {SetCmp::kDisjoint, SetCmp::kIntersects,
                           SetCmp::kSubset,   SetCmp::kNotSubset,
                           SetCmp::kSuperset, SetCmp::kNotSuperset,
                           SetCmp::kEqual,    SetCmp::kNotEqual};

TEST(PairJoinTest, EveryAggFnAndCmpOpMatchesNestedLoop) {
  const ItemCatalog catalog = RandomCatalog(1);
  Rng rng(2);
  const std::vector<FrequentSet> s = RandomSides(&rng, 40, true);
  const std::vector<FrequentSet> t = RandomSides(&rng, 40, true);
  for (AggFn agg_s : kAggFns) {
    for (AggFn agg_t : kAggFns) {
      for (CmpOp cmp : kCmpOps) {
        for (const char* attr : {"Price", "Qty"}) {
          const TwoVarConstraint c = MakeAgg2(agg_s, attr, cmp, agg_t, "Qty");
          SCOPED_TRACE(ToString(c));
          ExpectMatchesOracle({c}, Sides(s, t), catalog);
        }
      }
    }
  }
}

TEST(PairJoinTest, EverySetCmpMatchesNestedLoop) {
  const ItemCatalog catalog = RandomCatalog(3);
  Rng rng(4);
  const std::vector<FrequentSet> s = RandomSides(&rng, 40, true);
  const std::vector<FrequentSet> t = RandomSides(&rng, 40, true);
  for (SetCmp cmp : kSetCmps) {
    for (const char* attr : {"Type", "Color", kItemAttr}) {
      SCOPED_TRACE(ToString(MakeDomain2(attr, cmp, attr)));
      ExpectMatchesOracle({MakeDomain2(attr, cmp, attr)}, Sides(s, t),
                          catalog);
    }
  }
}

TwoVarConstraint RandomConjunct(Rng* rng) {
  static const char* kNumeric[] = {"Price", "Qty", "Type"};
  static const char* kCategorical[] = {"Type", "Color", kItemAttr};
  if (rng->UniformInt(0, 1) == 0) {
    return MakeDomain2(kCategorical[rng->UniformInt(0, 2)],
                       kSetCmps[rng->UniformInt(0, 7)],
                       kCategorical[rng->UniformInt(0, 2)]);
  }
  return MakeAgg2(kAggFns[rng->UniformInt(0, 4)],
                  kNumeric[rng->UniformInt(0, 2)],
                  kCmpOps[rng->UniformInt(0, 5)],
                  kAggFns[rng->UniformInt(0, 4)],
                  kNumeric[rng->UniformInt(0, 2)]);
}

TEST(PairJoinTest, MixedConjunctionsMatchNestedLoop) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    const ItemCatalog catalog = RandomCatalog(100 + seed);
    Rng rng(seed);
    std::vector<TwoVarConstraint> two_var;
    const int64_t conjuncts = rng.UniformInt(1, 3);
    for (int64_t c = 0; c < conjuncts; ++c) {
      two_var.push_back(RandomConjunct(&rng));
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(two_var,
                        Sides(RandomSides(&rng, 30, seed % 3 == 0),
                              RandomSides(&rng, 30, seed % 4 == 0)),
                        catalog);
  }
}

// Fractional prices: sum/avg equality verdicts hinge on the exact
// floating-point summation order, which the columns must reproduce.
TEST(PairJoinTest, FractionalSumAndAvgAreBitIdentical) {
  ItemCatalog catalog(4);
  ASSERT_TRUE(catalog.AddNumericAttr("Price", {0.1, 0.2, 0.3, 0.6}).ok());
  // 0.1 + 0.2 != 0.3 in binary floating point, so sum(S.Price) of {0, 1}
  // equals sum(T.Price) of {2} only if the join rounds differently from
  // the evaluator.
  const std::vector<FrequentSet> s = {{{0, 1}, 1}, {{0, 1, 2}, 1}, {{3}, 1}};
  const std::vector<FrequentSet> t = {{{2}, 1}, {{3}, 1}, {{0, 1, 2}, 1}};
  for (AggFn agg : {AggFn::kSum, AggFn::kAvg}) {
    for (CmpOp cmp : kCmpOps) {
      ExpectMatchesOracle({MakeAgg2(agg, "Price", cmp, agg, "Price")},
                          Sides(s, t), catalog);
    }
  }
  CfqResult sides = Sides(s, t);
  ASSERT_TRUE(FormPairs({MakeAgg2(AggFn::kSum, "Price", CmpOp::kEq,
                                  AggFn::kSum, "Price")},
                        catalog, {}, &sides)
                  .ok());
  // {0, 1} sums to 0.30000000000000004, matching neither 0.3 nor 0.6.
  EXPECT_EQ(sides.pairs, (PairList{{1, 2}, {2, 1}}));
}

TEST(PairJoinTest, EmptySideFormsNoPairsAndChecksNothing) {
  const ItemCatalog catalog = RandomCatalog(5);
  Rng rng(6);
  const auto c = MakeAgg2(AggFn::kMax, "Price", CmpOp::kLe, AggFn::kMin,
                          "Price");
  for (bool s_empty : {true, false}) {
    CfqResult sides =
        Sides(s_empty ? std::vector<FrequentSet>{} : RandomSides(&rng, 5, false),
              s_empty ? RandomSides(&rng, 5, false) : std::vector<FrequentSet>{});
    ASSERT_TRUE(FormPairs({c}, catalog, {}, &sides).ok());
    EXPECT_TRUE(sides.pairs.empty());
    EXPECT_EQ(sides.stats.pair_checks, 0u);
    EXPECT_FALSE(sides.cross_product);
  }
}

TEST(PairJoinTest, NoTwoVarConstraintIsTheCrossProduct) {
  const ItemCatalog catalog = RandomCatalog(7);
  Rng rng(8);
  CfqResult sides = Sides(RandomSides(&rng, 4, false),
                          RandomSides(&rng, 4, false));
  ASSERT_TRUE(FormPairs({}, catalog, {}, &sides).ok());
  EXPECT_TRUE(sides.cross_product);
  EXPECT_TRUE(sides.pairs.empty());
  EXPECT_EQ(sides.stats.pair_checks, 0u);
}

TEST(PairJoinTest, UndefinedAggregatesFailEveryPair) {
  ItemCatalog catalog(3);
  ASSERT_TRUE(catalog.AddNumericAttr("Price", {1, 2, 3}).ok());
  const std::vector<FrequentSet> s = {{{}, 1}, {{0}, 1}};
  const std::vector<FrequentSet> t = {{{}, 1}, {{2}, 1}};
  for (AggFn agg : kAggFns) {
    SCOPED_TRACE(AggFnName(agg));
    ExpectMatchesOracle({MakeAgg2(agg, "Price", CmpOp::kLe, agg, "Price")},
                        Sides(s, t), catalog);
  }
  CfqResult sides = Sides(s, t);
  ASSERT_TRUE(FormPairs({MakeAgg2(AggFn::kAvg, "Price", CmpOp::kLe,
                                  AggFn::kMax, "Price")},
                        catalog, {}, &sides)
                  .ok());
  EXPECT_EQ(sides.pairs, (PairList{{1, 1}}));
  EXPECT_EQ(sides.stats.pair_checks, 4u);
}

TEST(PairJoinTest, ParticipantMasksSkipSetsButKeepFullIndices) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const ItemCatalog catalog = RandomCatalog(200 + seed);
    Rng rng(seed);
    CfqResult sides = Sides(RandomSides(&rng, 30, false),
                            RandomSides(&rng, 30, true));
    std::vector<char> s_mask(sides.s_sets.size()), t_mask(sides.t_sets.size());
    for (char& m : s_mask) m = rng.UniformInt(0, 2) != 0;
    for (char& m : t_mask) m = rng.UniformInt(0, 2) != 0;
    PairJoinOptions options;
    options.s_participants = &s_mask;
    options.t_participants = &t_mask;
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle({RandomConjunct(&rng), RandomConjunct(&rng)}, sides,
                        catalog, options);
  }
}

TEST(PairJoinTest, ThreadCountsEmitTheSameOrder) {
  const ItemCatalog catalog = RandomCatalog(9);
  Rng rng(10);
  const CfqResult base = Sides(RandomSides(&rng, 120, true),
                               RandomSides(&rng, 90, false));
  const std::vector<TwoVarConstraint> two_var = {
      MakeAgg2(AggFn::kSum, "Price", CmpOp::kLe, AggFn::kSum, "Price"),
      MakeDomain2("Type", SetCmp::kIntersects, "Type")};
  const Oracle oracle = NestedLoop(two_var, base, catalog);
  ASSERT_TRUE(oracle.status.ok());
  ASSERT_FALSE(oracle.pairs.empty());
  for (size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    PairJoinOptions options;
    options.pool = &pool;
    CfqResult sides = base;
    ASSERT_TRUE(FormPairs(two_var, catalog, options, &sides).ok());
    EXPECT_EQ(sides.pairs, oracle.pairs) << "threads " << threads;
    EXPECT_EQ(sides.stats.pair_checks, oracle.checks) << "threads " << threads;
  }
}

TEST(PairJoinTest, UnknownAttributeGivesTheNestedLoopsStatus) {
  const ItemCatalog catalog = RandomCatalog(11);
  Rng rng(12);
  const CfqResult sides = Sides(RandomSides(&rng, 6, false),
                                RandomSides(&rng, 6, false));
  const std::vector<std::vector<TwoVarConstraint>> shapes = {
      {MakeAgg2(AggFn::kSum, "Nope", CmpOp::kLe, AggFn::kSum, "Price")},
      {MakeAgg2(AggFn::kSum, "Price", CmpOp::kLe, AggFn::kSum, "Nope")},
      {MakeDomain2("Type", SetCmp::kEqual, "Nope")},
      {MakeDomain2("Type", SetCmp::kNotEqual, "Color"),
       MakeAgg2(AggFn::kMin, "Nope", CmpOp::kLe, AggFn::kMax, "Price")},
  };
  for (const auto& two_var : shapes) {
    const Oracle oracle = NestedLoop(two_var, sides, catalog);
    ASSERT_FALSE(oracle.status.ok());
    CfqResult joined = sides;
    const Status status = FormPairs(two_var, catalog, {}, &joined);
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
    EXPECT_EQ(status.ToString(), oracle.status.ToString());
  }
  // No pair to check, no error: the nested loop never reaches the
  // attribute either.
  CfqResult empty = Sides(sides.s_sets, {});
  EXPECT_TRUE(FormPairs(shapes[0], catalog, {}, &empty).ok());
}

TEST(PairJoinTest, ExpiredTokenStopsSerialAndShardedJoins) {
  const ItemCatalog catalog = RandomCatalog(13);
  Rng rng(14);
  const CfqResult base = Sides(RandomSides(&rng, 100, false),
                               RandomSides(&rng, 100, false));
  CancelToken expired;
  expired.Cancel();
  const Status want = CancelToken::ExpiredError("pair formation");
  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    PairJoinOptions options;
    options.pool = &pool;
    options.cancel = &expired;
    CfqResult sides = base;
    const Status status = FormPairs(
        {MakeAgg2(AggFn::kMax, "Price", CmpOp::kLe, AggFn::kMin, "Price")},
        catalog, options, &sides);
    EXPECT_EQ(status.code(), want.code()) << "threads " << threads;
    EXPECT_EQ(status.ToString(), want.ToString()) << "threads " << threads;
  }
  // A live token changes nothing.
  CancelToken live;
  live.SetDeadline(std::chrono::hours(1));
  PairJoinOptions options;
  options.cancel = &live;
  ExpectMatchesOracle(
      {MakeAgg2(AggFn::kMax, "Price", CmpOp::kLe, AggFn::kMin, "Price")},
      base, catalog, options);
}

TEST(PairJoinTest, RecordsPairPhaseAndMetrics) {
  const ItemCatalog catalog = RandomCatalog(15);
  Rng rng(16);
  CfqResult sides = Sides(RandomSides(&rng, 20, false),
                          RandomSides(&rng, 20, false));
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  PairJoinOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  ASSERT_TRUE(FormPairs({MakeAgg2(AggFn::kSum, "Price", CmpOp::kLe,
                                  AggFn::kSum, "Price")},
                        catalog, options, &sides)
                  .ok());
  size_t events = 0;
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (const auto* p = std::get_if<obs::PairPhaseEvent>(&e.payload)) {
      ++events;
      EXPECT_EQ(p->checks, 400u);
      EXPECT_EQ(p->kept, sides.pairs.size());
      EXPECT_LE(p->columns_seconds, p->seconds);
    }
  }
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(metrics.histogram("pair.form_seconds").count(), 1u);
  EXPECT_EQ(metrics.histogram("pair.columns_seconds").count(), 1u);
}

// --- The three callers ----------------------------------------------

struct Workload {
  TransactionDb db{0};
  ItemCatalog catalog{0};
  CfqQuery query;
  std::vector<std::vector<ItemId>> transactions;
};

Workload MakeWorkload() {
  constexpr size_t n = 12;
  Workload w;
  w.db = TransactionDb(n);
  Rng rng(17);
  for (int t = 0; t < 120; ++t) {
    std::vector<ItemId> txn(static_cast<size_t>(rng.UniformInt(1, 5)));
    for (ItemId& x : txn) x = static_cast<ItemId>(rng.UniformInt(0, n - 1));
    w.transactions.push_back(MakeItemset(txn));
    w.db.Add(w.transactions.back());
  }
  w.catalog = ItemCatalog(n);
  std::vector<AttrValue> price(n);
  for (size_t i = 0; i < n; ++i) price[i] = rng.UniformReal(1, 9);
  EXPECT_TRUE(w.catalog.AddNumericAttr("Price", price).ok());
  for (ItemId i = 0; i < n; ++i) {
    w.query.s_domain.push_back(i);
    w.query.t_domain.push_back(i);
  }
  w.query.min_support_s = 8;
  w.query.min_support_t = 8;
  w.query.two_var.push_back(
      MakeAgg2(AggFn::kSum, "Price", CmpOp::kLe, AggFn::kSum, "Price"));
  return w;
}

// One exact (eps = 0) unit holding every transaction: windowed answers
// equal the offline ones.
stream::StreamOptions ExactStream(const Workload& w) {
  stream::StreamOptions options;
  auto ttw = stream::TtwDefinition::Parse("2,2");
  EXPECT_TRUE(ttw.ok());
  options.ttw = ttw.value();
  options.eps = 0;
  options.num_items = w.catalog.num_items();
  return options;
}

bool IsExpiredError(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded &&
         status.message().rfind("query cancelled at ", 0) == 0;
}

TEST(PairJoinCallersTest, ExpiredTokenIsTheSameErrorEverywhere) {
  Workload w = MakeWorkload();
  CancelToken expired;
  expired.Cancel();

  for (size_t threads : {1, 4}) {
    PlanOptions plan;
    plan.cancel = &expired;
    plan.threads = threads;
    auto executed = ExecuteOptimized(&w.db, w.catalog, w.query, plan);
    ASSERT_FALSE(executed.ok());
    EXPECT_TRUE(IsExpiredError(executed.status())) << executed.status();
  }

  auto state = incremental::BuildMiningState(&w.db, w.query.s_domain,
                                             w.query.min_support_s, 0);
  ASSERT_TRUE(state.ok()) << state.status();
  incremental::StateAnswerOptions answer_options;
  answer_options.cancel = &expired;
  auto answered = incremental::AnswerFromState(state.value(), w.catalog,
                                               w.query, answer_options);
  ASSERT_FALSE(answered.ok());
  EXPECT_TRUE(IsExpiredError(answered.status())) << answered.status();

  stream::StreamIngestor ingestor(ExactStream(w));
  ASSERT_TRUE(ingestor.Ingest(w.transactions).ok());
  stream::StreamQueryOptions query_options;
  query_options.cancel = &expired;
  auto windowed = ingestor.Query(w.catalog, w.query, query_options, nullptr);
  ASSERT_FALSE(windowed.ok());
  EXPECT_TRUE(IsExpiredError(windowed.status())) << windowed.status();
}

// With a live token, all three callers form the same pairs over the
// same side sets, and each records one pair phase.
TEST(PairJoinCallersTest, AllCallersRecordThePairPhase) {
  Workload w = MakeWorkload();
  auto reference = ExecuteAprioriPlus(&w.db, w.catalog, w.query);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->pairs.empty());

  const auto pair_phases = [](const obs::Tracer& tracer) {
    size_t n = 0;
    for (const obs::TraceEvent& e : tracer.Events()) {
      n += std::holds_alternative<obs::PairPhaseEvent>(e.payload) ? 1 : 0;
    }
    return n;
  };

  {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    auto state = incremental::BuildMiningState(&w.db, w.query.s_domain,
                                               w.query.min_support_s, 0);
    ASSERT_TRUE(state.ok());
    incremental::StateAnswerOptions options;
    options.tracer = &tracer;
    options.metrics = &metrics;
    auto answered =
        incremental::AnswerFromState(state.value(), w.catalog, w.query, options);
    ASSERT_TRUE(answered.ok()) << answered.status();
    EXPECT_EQ(AnswerPairs(answered.value()), AnswerPairs(reference.value()));
    EXPECT_EQ(pair_phases(tracer), 1u);
    EXPECT_EQ(metrics.histogram("pair.form_seconds").count(), 1u);
    EXPECT_EQ(metrics.histogram("pair.columns_seconds").count(), 1u);
  }
  {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    stream::StreamIngestor ingestor(ExactStream(w));
    ASSERT_TRUE(ingestor.Ingest(w.transactions).ok());
    stream::StreamQueryOptions options;
    options.tracer = &tracer;
    options.metrics = &metrics;
    auto windowed = ingestor.Query(w.catalog, w.query, options, nullptr);
    ASSERT_TRUE(windowed.ok()) << windowed.status();
    EXPECT_EQ(AnswerPairs(windowed.value()), AnswerPairs(reference.value()));
    EXPECT_EQ(pair_phases(tracer), 1u);
    EXPECT_EQ(metrics.histogram("pair.form_seconds").count(), 1u);
    EXPECT_EQ(metrics.histogram("pair.columns_seconds").count(), 1u);
  }
}

}  // namespace
}  // namespace cfq
