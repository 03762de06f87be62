// The streaming subsystem (src/stream/): tilted-time-window boundary
// determinism against hand-computed merges, the FP-Stream epsilon
// guarantee (approximate window supports within [true - eps * N, true]
// and no misses above the slack) against a brute-force oracle, the
// bit-identical-state contract for two ingestors fed the same batches,
// and the serving integration — eps = 0 windowed answers digest-equal
// to offline FP-Growth over the same span, window-scoped cache purge
// on ingest, and the window/strategy request validation.

#include "stream/ingestor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "data/item_catalog.h"
#include "data/transaction_db.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "server/json.h"
#include "server/service.h"
#include "stream/pattern_tree.h"
#include "stream/query.h"
#include "stream/ttw.h"

namespace cfq::stream {
namespace {

using Batch = std::vector<std::vector<ItemId>>;

// --- TtwDefinition ---------------------------------------------------

TEST(TtwDefinitionTest, ParsesRoundTripsAndRejects) {
  auto ttw = TtwDefinition::Parse("2,2");
  ASSERT_TRUE(ttw.ok()) << ttw.status();
  EXPECT_EQ(ttw->ToString(), "2,2");
  EXPECT_EQ(ttw->SpanAt(0), 1u);
  EXPECT_EQ(ttw->SpanAt(1), 2u);
  EXPECT_EQ(ttw->MaxRetainedUnits(), 2u + 2u * 2u);

  auto deep = TtwDefinition::Parse("4,24,7");
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(deep->SpanAt(2), 4u * 24u);
  EXPECT_EQ(deep->MaxRetainedUnits(), 4u + 24u * 4u + 7u * 96u);

  EXPECT_FALSE(TtwDefinition::Parse("").ok());
  EXPECT_FALSE(TtwDefinition::Parse("4,0,7").ok());
  EXPECT_FALSE(TtwDefinition::Parse("4,,7").ok());
  EXPECT_FALSE(TtwDefinition::Parse("abc").ok());
}

// --- TiltedTimeWindow ------------------------------------------------

// One (level, unit_begin, unit_end) triple per live bucket, oldest
// first — the whole data-independent boundary contract in one literal.
std::vector<std::vector<uint64_t>> Shape(const TiltedTimeWindow& ttw) {
  std::vector<std::vector<uint64_t>> out;
  for (const TtwBucket& b : ttw.buckets()) {
    out.push_back({b.level, b.unit_begin, b.unit_end});
  }
  return out;
}

TEST(TiltedTimeWindowTest, MergesAndExpiresAtHandComputedBoundaries) {
  auto definition = TtwDefinition::Parse("2,2");
  ASSERT_TRUE(definition.ok());
  TiltedTimeWindow ttw(definition.value());
  using Rows = std::vector<std::vector<uint64_t>>;

  // Batch sizes 10, 11, ... so merged transaction counts are checkable.
  EXPECT_FALSE(ttw.AddUnit(10).tilted());  // u0
  EXPECT_EQ(Shape(ttw), (Rows{{0, 0, 1}}));
  EXPECT_FALSE(ttw.AddUnit(11).tilted());  // u1
  EXPECT_EQ(Shape(ttw), (Rows{{0, 0, 1}, {0, 1, 2}}));

  // u2 overflows level 0: the oldest two one-unit buckets merge into
  // one level-1 bucket [0, 2).
  TiltEvent event = ttw.AddUnit(12);
  ASSERT_EQ(event.merges.size(), 1u);
  EXPECT_TRUE(event.expired.empty());
  EXPECT_EQ(Shape(ttw), (Rows{{1, 0, 2}, {0, 2, 3}}));
  EXPECT_EQ(ttw.buckets()[0].transactions, 21u);

  EXPECT_FALSE(ttw.AddUnit(13).tilted());  // u3
  EXPECT_EQ(Shape(ttw), (Rows{{1, 0, 2}, {0, 2, 3}, {0, 3, 4}}));

  event = ttw.AddUnit(14);  // u4: second level-1 merge, [2, 4).
  ASSERT_EQ(event.merges.size(), 1u);
  EXPECT_TRUE(event.expired.empty());
  EXPECT_EQ(Shape(ttw), (Rows{{1, 0, 2}, {1, 2, 4}, {0, 4, 5}}));
  EXPECT_EQ(ttw.buckets()[1].transactions, 25u);

  EXPECT_FALSE(ttw.AddUnit(15).tilted());  // u5

  // u6: level 0 overflows into a third level-1 bucket, which overflows
  // the last level — the stream forgets [0, 2).
  event = ttw.AddUnit(16);
  ASSERT_EQ(event.merges.size(), 1u);
  ASSERT_EQ(event.expired.size(), 1u);
  EXPECT_EQ(Shape(ttw), (Rows{{1, 2, 4}, {1, 4, 6}, {0, 6, 7}}));
  EXPECT_EQ(ttw.units(), 7u);

  // Window resolution against this shape: exact at a bucket boundary,
  // overshooting inside a coarse bucket, clamped at retention.
  EXPECT_EQ(ttw.CoverIndex(1), 2u);
  EXPECT_EQ(ttw.CoveredUnits(2), 1u);
  EXPECT_EQ(ttw.CoveredTransactions(2), 16u);
  EXPECT_EQ(ttw.CoverIndex(2), 1u);  // Overshoot: [4,6) + [6,7).
  EXPECT_EQ(ttw.CoveredUnits(1), 3u);
  EXPECT_EQ(ttw.CoverIndex(0), 0u);  // 0 = everything retained.
  EXPECT_EQ(ttw.CoveredUnits(0), 5u);
  EXPECT_EQ(ttw.CoverIndex(100), 0u);  // Beyond retention: all we have.
}

// --- Ingestor determinism -------------------------------------------

Batch RandomBatch(std::mt19937* rng, size_t num_items, size_t num_txns) {
  std::uniform_int_distribution<int> len(1, 5);
  std::uniform_int_distribution<ItemId> item(
      0, static_cast<ItemId>(num_items - 1));
  Batch batch(num_txns);
  for (auto& txn : batch) {
    txn.resize(static_cast<size_t>(len(*rng)));
    for (auto& x : txn) x = item(*rng);
  }
  return batch;
}

StreamOptions SmallOptions(double eps) {
  StreamOptions options;
  auto ttw = TtwDefinition::Parse("2,2");
  EXPECT_TRUE(ttw.ok());
  options.ttw = ttw.value();
  options.eps = eps;
  options.num_items = 12;
  return options;
}

TEST(StreamIngestorTest, SameBatchesProduceBitIdenticalState) {
  StreamIngestor a(SmallOptions(0.2));
  StreamIngestor b(SmallOptions(0.2));
  std::mt19937 rng(7);
  for (int unit = 0; unit < 12; ++unit) {
    const Batch batch = RandomBatch(&rng, 12, 30);
    auto stats_a = a.Ingest(batch);
    auto stats_b = b.Ingest(batch);
    ASSERT_TRUE(stats_a.ok()) << stats_a.status();
    ASSERT_TRUE(stats_b.ok()) << stats_b.status();
    EXPECT_EQ(stats_a->tilted, stats_b->tilted);
    EXPECT_EQ(stats_a->tree_nodes, stats_b->tree_nodes);
    // The whole state, every unit — not just the final snapshot, so a
    // divergence is pinned to the batch that introduced it.
    EXPECT_EQ(a.DumpCanonical(), b.DumpCanonical()) << "unit " << unit;
  }
  EXPECT_EQ(a.watermark().tilts, b.watermark().tilts);
  EXPECT_GT(a.watermark().tilts, 0u);
}

TEST(StreamIngestorTest, RejectsItemsOutsideTheUniverse) {
  StreamIngestor ingestor(SmallOptions(0.1));
  EXPECT_FALSE(ingestor.Ingest({{0, 12}}).ok());  // num_items = 12.
  EXPECT_TRUE(ingestor.Ingest({{0, 11}}).ok());
}

TEST(StreamIngestorTest, MemoryStaysBoundedAsTheStreamGrows) {
  // 40 units through a "2,2" window retain at most 6 units of history;
  // the tree must track retention, not stream length.
  StreamIngestor ingestor(SmallOptions(0.3));
  std::mt19937 rng(11);
  uint64_t peak_nodes = 0;
  for (int unit = 0; unit < 40; ++unit) {
    auto stats = ingestor.Ingest(RandomBatch(&rng, 12, 25));
    ASSERT_TRUE(stats.ok());
    peak_nodes = std::max(peak_nodes, stats->tree_nodes);
    if (unit == 9) {
      // After warm-up the live node count may wobble but not trend:
      // every later fold stays within the warm-up peak's envelope.
      ASSERT_GT(peak_nodes, 0u);
    }
  }
  const uint64_t warm_peak = peak_nodes;
  EXPECT_LE(ingestor.watermark().tree_nodes, warm_peak);
  EXPECT_EQ(ingestor.watermark().units, 40u);
}

// --- The epsilon guarantee ------------------------------------------

ItemCatalog PriceCatalog(size_t num_items) {
  ItemCatalog catalog(num_items);
  std::vector<AttrValue> values(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    values[i] = static_cast<AttrValue>(10 * (i + 1));
  }
  EXPECT_TRUE(catalog.AddNumericAttr("Price", values).ok());
  return catalog;
}

CfqQuery FreqOnlyQuery(size_t num_items, uint64_t threshold,
                       uint64_t window_units) {
  CfqQuery query;
  for (ItemId i = 0; i < num_items; ++i) {
    query.s_domain.push_back(i);
    query.t_domain.push_back(i);
  }
  query.min_support_s = threshold;
  query.min_support_t = threshold;
  query.window_units = window_units;
  return query;
}

// Every itemset of size 1..3 over `num_items` items — small enough to
// brute-force, large enough to include sets the miner never records.
std::vector<Itemset> AllSmallItemsets(size_t num_items) {
  std::vector<Itemset> out;
  for (ItemId a = 0; a < num_items; ++a) {
    out.push_back({a});
    for (ItemId b = a + 1; b < num_items; ++b) {
      out.push_back({a, b});
      for (ItemId c = b + 1; c < num_items; ++c) out.push_back({a, b, c});
    }
  }
  return out;
}

TEST(StreamEpsilonTest, WindowSupportsStayInsideTheBudget) {
  constexpr double kEps = 0.25;
  constexpr size_t kItems = 12;
  StreamIngestor ingestor(SmallOptions(kEps));
  const ItemCatalog attrs = PriceCatalog(kItems);
  std::mt19937 rng(23);
  std::vector<Batch> batches;
  for (int unit = 0; unit < 9; ++unit) {
    batches.push_back(RandomBatch(&rng, kItems, 40));
    auto stats = ingestor.Ingest(batches.back());
    ASSERT_TRUE(stats.ok()) << stats.status();
  }

  for (const uint64_t window : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                                uint64_t{4}}) {
    const uint64_t threshold = 8;
    const CfqQuery query = FreqOnlyQuery(kItems, threshold, window);
    StreamWindowInfo info;
    auto result = ingestor.Query(attrs, query, StreamQueryOptions{}, &info);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->cross_product);  // No 2-var constraint.

    // The ground truth: the covering suffix spans the last
    // `covered_units` batches, verbatim.
    ASSERT_LE(info.covered_units, info.unit_watermark);
    TransactionDb oracle(kItems);
    for (uint64_t unit = info.unit_watermark - info.covered_units;
         unit < info.unit_watermark; ++unit) {
      for (const auto& txn : batches[unit]) {
        oracle.Add(std::vector<ItemId>(txn));
      }
    }
    ASSERT_EQ(oracle.num_transactions(), info.transactions);
    const double slack = kEps * static_cast<double>(info.transactions);

    // Soundness: every reported support is an undercount within slack.
    std::map<Itemset, uint64_t> reported;
    for (const FrequentSet& f : result->s_sets) {
      const uint64_t truth = oracle.CountSupport(f.items);
      EXPECT_LE(f.support, truth);
      EXPECT_GE(static_cast<double>(f.support),
                static_cast<double>(truth) - slack);
      reported[f.items] = f.support;
    }
    // Completeness: anything frequent beyond the slack must appear.
    for (const Itemset& candidate : AllSmallItemsets(kItems)) {
      const uint64_t truth = oracle.CountSupport(candidate);
      if (static_cast<double>(truth) >=
          static_cast<double>(threshold) + slack) {
        EXPECT_EQ(reported.count(candidate), 1u)
            << "window=" << window << " missed a set with support "
            << truth;
      }
    }
  }
}

TEST(StreamEpsilonTest, EpsZeroIsExactForExactlyCoveredWindows) {
  constexpr size_t kItems = 12;
  StreamIngestor ingestor(SmallOptions(0.0));
  const ItemCatalog attrs = PriceCatalog(kItems);
  std::mt19937 rng(31);
  std::vector<Batch> batches;
  for (int unit = 0; unit < 4; ++unit) {
    batches.push_back(RandomBatch(&rng, kItems, 25));
    ASSERT_TRUE(ingestor.Ingest(batches.back()).ok());
  }

  // After 4 units of "2,2": [L1 0,2) [L0 2,3) [L0 3,4) — window(2) is
  // an exact bucket-boundary cover.
  StreamWindowInfo info;
  auto result = ingestor.Query(attrs, FreqOnlyQuery(kItems, 5, 2),
                               StreamQueryOptions{}, &info);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(info.exact);
  EXPECT_EQ(info.covered_units, 2u);

  TransactionDb oracle(kItems);
  for (size_t unit = 2; unit < 4; ++unit) {
    for (const auto& txn : batches[unit]) {
      oracle.Add(std::vector<ItemId>(txn));
    }
  }
  ASSERT_FALSE(result->s_sets.empty());
  for (const FrequentSet& f : result->s_sets) {
    EXPECT_EQ(f.support, oracle.CountSupport(f.items));
  }
}

// --- Serving integration --------------------------------------------

using server::JsonValue;
using server::QueryService;
using server::ServiceOptions;

JsonValue IngestRequest(const std::string& stream, const Batch& batch,
                        const std::string& ttw, double eps,
                        int64_t num_items, int64_t seed) {
  JsonValue::Object request;
  request["cmd"] = "ingest";
  request["stream"] = stream;
  JsonValue::Array transactions;
  for (const auto& txn : batch) {
    JsonValue::Array row;
    for (ItemId item : txn) row.emplace_back(static_cast<int64_t>(item));
    transactions.emplace_back(std::move(row));
  }
  request["transactions"] = std::move(transactions);
  request["ttw"] = ttw;
  request["eps"] = eps;
  request["num_items"] = num_items;
  request["seed"] = seed;
  return request;
}

JsonValue StreamQueryRequest(const std::string& name,
                             const std::string& query) {
  JsonValue::Object request;
  request["cmd"] = "query";
  request["dataset"] = name;
  request["query"] = query;
  request["strategy"] = "stream";
  return request;
}

class StreamServiceTest : public ::testing::Test {
 protected:
  StreamServiceTest() : service_(ServiceOptions{}, &metrics_) {}

  obs::MetricsRegistry metrics_;
  QueryService service_;
};

TEST_F(StreamServiceTest, WindowedEpsZeroMatchesOfflineFpGrowthDigest) {
  constexpr int64_t kItems = 40;
  constexpr int64_t kSeed = 7;
  std::mt19937 rng(13);
  std::vector<Batch> batches;
  for (int unit = 0; unit < 4; ++unit) {
    batches.push_back(RandomBatch(&rng, kItems, 30));
    JsonValue response = service_.Handle(
        IngestRequest("s", batches.back(), "2,2", 0.0, kItems, kSeed));
    ASSERT_EQ(response.GetString("status", ""), "OK")
        << response.Write();
    EXPECT_EQ(response.GetInt("unit", -1), unit);
  }

  // The offline twin: an empty dataset with the SAME demo catalog
  // (num_items + seed pin it), appended exactly the window's batches.
  JsonValue::Object gen;
  gen["cmd"] = "gen";
  gen["dataset"] = "off";
  gen["num_transactions"] = static_cast<int64_t>(0);
  gen["num_items"] = kItems;
  gen["seed"] = kSeed;
  ASSERT_EQ(service_.Handle(std::move(gen)).GetString("status", ""), "OK");
  for (size_t unit = 2; unit < 4; ++unit) {  // window(2) covers [2, 4).
    JsonValue::Object append =
        IngestRequest("off", batches[unit], "", 0, 0, 0).as_object();
    append["cmd"] = "append";
    append["dataset"] = "off";
    ASSERT_EQ(service_.Handle(std::move(append)).GetString("status", ""),
              "OK");
  }

  const std::string constraints =
      "freq(S, 3) & freq(T, 3) & max(S.Price) <= min(T.Price)";
  JsonValue windowed = service_.Handle(
      StreamQueryRequest("s", constraints + " & window(2)"));
  ASSERT_EQ(windowed.GetString("status", ""), "OK") << windowed.Write();
  const JsonValue* window = windowed.Find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_TRUE(window->GetBool("exact", false));
  EXPECT_EQ(window->GetInt("covered_units", -1), 2);

  JsonValue::Object offline;
  offline["cmd"] = "query";
  offline["dataset"] = "off";
  offline["query"] = constraints;
  offline["strategy"] = "fpgrowth";
  JsonValue baseline = service_.Handle(std::move(offline));
  ASSERT_EQ(baseline.GetString("status", ""), "OK") << baseline.Write();

  // The acceptance bar: bit-identical answers, not just equal counts.
  EXPECT_FALSE(windowed.GetString("digest", "").empty());
  EXPECT_EQ(windowed.GetString("digest", "w"),
            baseline.GetString("digest", "b"));
  ASSERT_NE(windowed.Find("rows"), nullptr);
  ASSERT_NE(baseline.Find("rows"), nullptr);
  EXPECT_EQ(windowed.Find("rows")->Write(), baseline.Find("rows")->Write());
}

TEST_F(StreamServiceTest, IngestPurgesWindowScopedCacheEntries) {
  std::mt19937 rng(17);
  ASSERT_EQ(service_
                .Handle(IngestRequest("s", RandomBatch(&rng, 12, 20), "2,2",
                                      0.1, 12, 3))
                .GetString("status", ""),
            "OK");
  const std::string query = "freq(S, 2) & freq(T, 2) & window(1)";
  JsonValue cold = service_.Handle(StreamQueryRequest("s", query));
  ASSERT_EQ(cold.GetString("status", ""), "OK") << cold.Write();
  EXPECT_FALSE(cold.GetBool("cached", true));
  JsonValue hit = service_.Handle(StreamQueryRequest("s", query));
  ASSERT_EQ(hit.GetString("status", ""), "OK");
  EXPECT_TRUE(hit.GetBool("cached", false));

  // New unit: the watermark moves AND the stale entries are purged
  // under the stream's own eviction counter.
  ASSERT_EQ(service_
                .Handle(IngestRequest("s", RandomBatch(&rng, 12, 20), "",
                                      0, 0, 0))
                .GetString("status", ""),
            "OK");
  EXPECT_GT(metrics_.counter("server.cache.evict.stream"), 0u);
  JsonValue fresh = service_.Handle(StreamQueryRequest("s", query));
  ASSERT_EQ(fresh.GetString("status", ""), "OK");
  EXPECT_FALSE(fresh.GetBool("cached", true));
  EXPECT_EQ(fresh.GetInt("unit", -1), 2);
}

TEST_F(StreamServiceTest, WindowAndStrategyValidation) {
  std::mt19937 rng(19);
  ASSERT_EQ(service_
                .Handle(IngestRequest("s", RandomBatch(&rng, 12, 10), "2,2",
                                      0.1, 12, 3))
                .GetString("status", ""),
            "OK");

  // window(N) without strategy=stream is a request error, not a parse
  // error — the text is valid, the routing is not.
  JsonValue::Object batch_query;
  batch_query["cmd"] = "query";
  batch_query["dataset"] = "s";
  batch_query["query"] = "freq(S, 2) & freq(T, 2) & window(1)";
  EXPECT_EQ(service_.Handle(std::move(batch_query)).GetString("status", ""),
            "BAD_REQUEST");

  // strategy=stream against a name no ingest ever touched.
  EXPECT_EQ(service_.Handle(StreamQueryRequest("ghost", "freq(S, 2) & freq(T, 2)"))
                .GetString("status", ""),
            "NOT_FOUND");

  // The request-level "window" field conflicts with an in-text window().
  JsonValue::Object conflict =
      StreamQueryRequest("s", "freq(S, 2) & freq(T, 2) & window(1)")
          .as_object();
  conflict["window"] = static_cast<int64_t>(2);
  EXPECT_EQ(service_.Handle(std::move(conflict)).GetString("status", ""),
            "BAD_REQUEST");

  // The request-level field alone is the flag-friendly spelling.
  JsonValue::Object via_field =
      StreamQueryRequest("s", "freq(S, 2) & freq(T, 2)").as_object();
  via_field["window"] = static_cast<int64_t>(1);
  JsonValue ok = service_.Handle(std::move(via_field));
  ASSERT_EQ(ok.GetString("status", ""), "OK") << ok.Write();
  EXPECT_EQ(ok.GetInt("window_units", -1), 1);
}

TEST_F(StreamServiceTest, StatsHealthzAndDropCoverStreams) {
  std::mt19937 rng(29);
  ASSERT_EQ(service_
                .Handle(IngestRequest("s", RandomBatch(&rng, 12, 15), "2,2",
                                      0.1, 12, 3))
                .GetString("status", ""),
            "OK");

  JsonValue::Object stats_request;
  stats_request["cmd"] = "stats";
  JsonValue stats = service_.Handle(std::move(stats_request));
  ASSERT_EQ(stats.GetString("status", ""), "OK");
  const JsonValue* streams = stats.Find("streams");
  ASSERT_NE(streams, nullptr);
  ASSERT_TRUE(streams->is_array());
  ASSERT_EQ(streams->as_array().size(), 1u);
  const JsonValue& row = streams->as_array()[0];
  EXPECT_EQ(row.GetString("name", ""), "s");
  EXPECT_EQ(row.GetInt("units", -1), 1);
  EXPECT_EQ(row.GetString("ttw", ""), "2,2");

  const server::HttpResponse healthz = service_.HandleHttp("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("streams=1"), std::string::npos);
  EXPECT_NE(healthz.body.find("stream_units=1"), std::string::npos);

  // drop releases streams too; a later query finds nothing.
  JsonValue::Object drop;
  drop["cmd"] = "drop";
  drop["dataset"] = "s";
  EXPECT_EQ(service_.Handle(std::move(drop)).GetString("status", ""), "OK");
  EXPECT_EQ(service_.Handle(StreamQueryRequest("s", "freq(S, 2) & freq(T, 2)"))
                .GetString("status", ""),
            "NOT_FOUND");
}

}  // namespace
}  // namespace cfq::stream
