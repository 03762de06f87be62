// Serving-layer tests: the transport-free QueryService path (parse ->
// canonicalize -> cache -> admit -> execute), the LRU/admission pieces
// in isolation, and the real TCP server + client over an ephemeral
// port, including the drain sequence and deadline cancellation.

#include "server/service.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/answer_rows.h"
#include "obs/digest.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/http.h"
#include "server/json.h"
#include "server/result_cache.h"
#include "server/server.h"

namespace cfq::server {
namespace {

// --- Answer rendering ------------------------------------------------

// The per-pair rendering RenderAnswer replaced: both item lists joined
// and both supports formatted again for every row.
std::string PerPairRow(const FrequentSet& s, const FrequentSet& t) {
  const auto join = [](const Itemset& items) {
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(items[i]);
    }
    return out;
  };
  return join(s.items) + ';' + join(t.items) + ';' +
         std::to_string(s.support) + ';' + std::to_string(t.support);
}

std::vector<std::string> PerPairRows(const CfqResult& result,
                                     uint64_t max_rows) {
  std::vector<std::string> rows;
  if (result.cross_product) {
    for (const FrequentSet& s : result.s_sets) {
      for (const FrequentSet& t : result.t_sets) {
        if (rows.size() >= max_rows) return rows;
        rows.push_back(PerPairRow(s, t));
      }
    }
    return rows;
  }
  for (const auto& [i, j] : result.pairs) {
    if (rows.size() >= max_rows) break;
    rows.push_back(PerPairRow(result.s_sets[i], result.t_sets[j]));
  }
  return rows;
}

// The rows of a cached answer, decoded from its pre-encoded JSON.
std::vector<std::string> DecodedRows(const CachedAnswer& answer) {
  std::vector<std::string> rows;
  auto parsed = JsonValue::Parse(*answer.rows_json);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok() || !parsed->is_array()) return rows;
  for (const JsonValue& row : parsed->as_array()) {
    EXPECT_TRUE(row.is_string());
    if (row.is_string()) rows.push_back(row.as_string());
  }
  return rows;
}

// Renders `result` at every cap around the edges and checks the rows
// against the per-pair rendering and the digest against the reference
// that sorts the row strings.
void ExpectRenderMatchesPerPair(CfqResult result) {
  for (bool cross : {false, true}) {
    result.cross_product = cross;
    const uint64_t total =
        cross ? result.s_sets.size() * result.t_sets.size()
              : result.pairs.size();
    for (uint64_t max_rows : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                              total - 1, total, total + 5}) {
      const std::vector<std::string> want = PerPairRows(result, max_rows);
      auto answer = RenderAnswer(result, max_rows, "q");
      EXPECT_EQ(DecodedRows(*answer), want)
          << "cross " << cross << " max_rows " << max_rows;
      EXPECT_EQ(answer->num_rows, want.size());
      EXPECT_EQ(answer->digest, obs::RowsDigestHex(want))
          << "cross " << cross << " max_rows " << max_rows;
      EXPECT_EQ(obs::DigestHex(AnswerDigest(result, max_rows)),
                answer->digest);
      EXPECT_EQ(answer->num_pairs, total);
      EXPECT_EQ(answer->truncated, want.size() < total);
      EXPECT_EQ(answer->canonical_query, "q");
    }
  }
}

TEST(RenderAnswerTest, RowsAndDigestMatchPerPairRendering) {
  std::mt19937 rng(5);
  CfqResult result;
  for (int k = 0; k < 9; ++k) {
    Itemset items;
    for (ItemId x = 0; x < 12; ++x) {
      if (rng() % 3 == 0) items.push_back(x);
    }
    result.s_sets.push_back(FrequentSet{items, 100u + rng() % 900});
    result.t_sets.push_back(FrequentSet{items, 1u + rng() % 9});
  }
  result.t_sets.pop_back();
  for (uint32_t i = 0; i < result.s_sets.size(); ++i) {
    for (uint32_t j = 0; j < result.t_sets.size(); ++j) {
      if (rng() % 2 == 0) result.pairs.emplace_back(i, j);
    }
  }
  ExpectRenderMatchesPerPair(std::move(result));
}

// Distinct itemsets over 1-3 digit ids that prefix one another ("1",
// "1 2", "10", "1 20", "100" ...), in random order, so byte order,
// item order and set index order all disagree.
std::vector<FrequentSet> PrefixHeavySets(size_t count, std::mt19937* rng) {
  static const ItemId kIds[] = {1,  2,  3,  10,  12,  13,  20,  21,  100,
                                101, 102, 110, 120, 121, 200, 201, 210, 999};
  std::set<Itemset> seen;
  std::vector<FrequentSet> sets;
  while (sets.size() < count) {
    std::vector<ItemId> raw(1 + (*rng)() % 3);
    for (ItemId& x : raw) x = kIds[(*rng)() % std::size(kIds)];
    Itemset items = MakeItemset(std::move(raw));
    if (!seen.insert(items).second) continue;
    // Supports of 1-4 digits, so the support fields prefix one another
    // as well.
    const uint64_t support = 1 + (*rng)() % (uint64_t{10} << ((*rng)() % 10));
    sets.push_back(FrequentSet{std::move(items), support});
  }
  return sets;
}

TEST(RenderAnswerTest, RankedDigestMatchesSortedRowsOnPrefixHeavyItems) {
  std::mt19937 rng(11);
  CfqResult result;
  result.s_sets = PrefixHeavySets(310, &rng);
  result.t_sets = PrefixHeavySets(300, &rng);
  for (uint32_t i = 0; i < result.s_sets.size(); ++i) {
    for (uint32_t j = 0; j < result.t_sets.size(); ++j) {
      if (rng() % 5 == 0) result.pairs.emplace_back(i, j);
    }
  }
  ExpectRenderMatchesPerPair(std::move(result));
}

// --- JSON codec ------------------------------------------------------

TEST(JsonTest, RoundTripsValues) {
  const std::string text =
      R"({"a":[1,2.5,-3],"b":{"nested":true},"c":null,"d":"x\ny"})";
  auto value = JsonValue::Parse(text);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value->Write(), text);
}

TEST(JsonTest, ParsesEscapesAndSurrogatePairs) {
  auto value = JsonValue::Parse(R"({"s":"aé😀\t"})");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value->GetString("s", ""), "a\xC3\xA9\xF0\x9F\x98\x80\t");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nulll").ok());
}

TEST(JsonTest, TypedAccessorsFallBack) {
  auto value = JsonValue::Parse(R"({"n":7,"s":"x","b":true})");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->GetInt("n", 0), 7);
  EXPECT_EQ(value->GetInt("missing", -1), -1);
  EXPECT_EQ(value->GetString("n", "fallback"), "fallback");  // Wrong type.
  EXPECT_TRUE(value->GetBool("b", false));
}

// The escaper the appending JsonEscape replaced: one output string per
// value, built a character at a time.
std::string PerCharJsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

TEST(JsonTest, AppendingEscapeMatchesPerCharEscape) {
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(JsonEscape(one), PerCharJsonEscape(one)) << "byte " << b;
    const std::string mixed = "ab" + one + "cd" + one + one + "\"e\\";
    std::string appended = "prefix";
    JsonEscape(mixed, &appended);
    EXPECT_EQ(appended, "prefix" + PerCharJsonEscape(mixed)) << "byte " << b;
  }
  std::mt19937 rng(9);
  for (int k = 0; k < 200; ++k) {
    std::string text(rng() % 40, '\0');
    for (char& c : text) c = static_cast<char>(rng() % 256);
    EXPECT_EQ(JsonEscape(text), PerCharJsonEscape(text));
  }
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonTest, PreEncodedTextIsSplicedVerbatim) {
  const auto text = std::make_shared<const std::string>(R"(["a;b",[1,2]])");
  const JsonValue encoded = JsonValue::PreEncoded(text);
  EXPECT_TRUE(encoded.is_pre_encoded());
  EXPECT_FALSE(encoded.is_array());
  EXPECT_EQ(encoded.Write(), *text);

  JsonValue::Object object;
  object["b"] = encoded;
  object["a"] = int64_t{1};
  object["c"] = JsonValue::Array{encoded, "x"};
  EXPECT_EQ(JsonValue(object).Write(),
            R"({"a":1,"b":["a;b",[1,2]],"c":[["a;b",[1,2]],"x"]})");
  // Parsing the written text gives plain values, never pre-encoded ones.
  auto parsed = JsonValue::Parse(JsonValue(object).Write());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->Find("b")->is_array());
  EXPECT_EQ(parsed->Write(), JsonValue(object).Write());
}

// --- ResultCache -----------------------------------------------------

std::shared_ptr<const CachedAnswer> Answer(const std::string& tag) {
  auto answer = std::make_shared<CachedAnswer>();
  answer->canonical_query = tag;
  return answer;
}

TEST(ResultCacheTest, LruEvictionOrder) {
  ResultCache cache(2);
  cache.Put("a", Answer("a"));
  cache.Put("b", Answer("b"));
  ASSERT_NE(cache.Get("a"), nullptr);  // "a" is now most recent.
  cache.Put("c", Answer("c"));         // Evicts "b".
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, CountsHitsAndMissesIntoRegistry) {
  obs::MetricsRegistry metrics;
  ResultCache cache(4, &metrics);
  EXPECT_EQ(cache.Get("missing"), nullptr);
  cache.Put("k", Answer("k"));
  EXPECT_NE(cache.Get("k"), nullptr);
  EXPECT_EQ(metrics.counter("server.cache.hits"), 1u);
  EXPECT_EQ(metrics.counter("server.cache.misses"), 1u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.Put("k", Answer("k"));
  EXPECT_EQ(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// --- AdmissionController ---------------------------------------------

TEST(AdmissionTest, RejectsWhenQueueFull) {
  AdmissionController admission(/*max_concurrent=*/1, /*max_queued=*/0);
  auto first = admission.Admit(nullptr);
  ASSERT_TRUE(first.ok());
  auto second = admission.Admit(nullptr);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(admission.rejected_total(), 1u);
  first->Release();
  EXPECT_TRUE(admission.Admit(nullptr).ok());
}

TEST(AdmissionTest, WaiterTimesOutOnDeadline) {
  AdmissionController admission(1, 4);
  auto held = admission.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  CancelToken cancel;
  cancel.SetDeadline(std::chrono::milliseconds(50));
  auto waited = admission.Admit(&cancel);
  EXPECT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(AdmissionTest, ShutdownReleasesWaiters) {
  AdmissionController admission(1, 4);
  auto held = admission.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  std::thread closer([&admission] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    admission.Shutdown();
  });
  auto waited = admission.Admit(nullptr);
  closer.join();
  EXPECT_FALSE(waited.ok());
  EXPECT_EQ(admission.queued(), 0u);
}

// --- QueryService (transport-free) -----------------------------------

constexpr char kQuery[] =
    "freq(S, 30) & freq(T, 30) & max(S.Price) <= min(T.Price)";

JsonValue GenRequest(const std::string& name) {
  JsonValue::Object request;
  request["cmd"] = "gen";
  request["dataset"] = name;
  request["num_transactions"] = static_cast<int64_t>(400);
  request["num_items"] = static_cast<int64_t>(40);
  request["num_patterns"] = static_cast<int64_t>(20);
  return request;
}

JsonValue QueryRequest(const std::string& name, const std::string& query) {
  JsonValue::Object request;
  request["cmd"] = "query";
  request["dataset"] = name;
  request["query"] = query;
  request["max_rows"] = static_cast<int64_t>(50);
  return request;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : service_(Options(), &metrics_) {}

  static ServiceOptions Options() {
    ServiceOptions options;
    options.cache_capacity = 8;
    options.max_concurrent = 2;
    options.max_queued = 2;
    return options;
  }

  obs::MetricsRegistry metrics_;
  QueryService service_;
};

TEST_F(ServiceTest, UnknownCommandAndDatasetErrors) {
  JsonValue::Object bogus;
  bogus["cmd"] = "frobnicate";
  EXPECT_EQ(service_.Handle(std::move(bogus)).GetString("status", ""),
            "BAD_REQUEST");
  EXPECT_EQ(
      service_.Handle(QueryRequest("nope", kQuery)).GetString("status", ""),
      "NOT_FOUND");
}

TEST_F(ServiceTest, ParseErrorsAreIsolated) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  EXPECT_EQ(
      service_.Handle(QueryRequest("d", "freq(S &")).GetString("status", ""),
      "PARSE_ERROR");
  // The connection-level state is fine: a good query still runs.
  EXPECT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "OK");
}

TEST_F(ServiceTest, RepeatedQueryIsServedFromCacheWithIdenticalRows) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue cold = service_.Handle(QueryRequest("d", kQuery));
  ASSERT_EQ(cold.GetString("status", ""), "OK");
  EXPECT_FALSE(cold.GetBool("cached", true));

  // Same query, different spelling: extra whitespace + reordered
  // commutative conjuncts.
  JsonValue hit = service_.Handle(QueryRequest(
      "d", "max(S.Price)<=min(T.Price)   & freq(T, 30) & freq(S, 30)"));
  ASSERT_EQ(hit.GetString("status", ""), "OK");
  EXPECT_TRUE(hit.GetBool("cached", false));
  EXPECT_EQ(hit.GetString("canonical_query", "h"),
            cold.GetString("canonical_query", "c"));
  ASSERT_NE(hit.Find("rows"), nullptr);
  EXPECT_EQ(hit.Find("rows")->Write(), cold.Find("rows")->Write());
  EXPECT_EQ(service_.cache().hits(), 1u);
}

TEST_F(ServiceTest, RebindingDatasetInvalidatesCache) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  ASSERT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "OK");
  // Re-generate under the same name: new generation id, so the repeat
  // must MISS even though name and query text are unchanged.
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue repeat = service_.Handle(QueryRequest("d", kQuery));
  ASSERT_EQ(repeat.GetString("status", ""), "OK");
  EXPECT_FALSE(repeat.GetBool("cached", true));
  EXPECT_EQ(repeat.GetInt("generation", -1), 2);
}

TEST_F(ServiceTest, StrategiesShareNoCacheEntriesButAgreeOnAnswers) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue optimized = service_.Handle(QueryRequest("d", kQuery));
  JsonValue request = QueryRequest("d", kQuery);
  JsonValue::Object with_strategy = request.as_object();
  with_strategy["strategy"] = "apriori";
  JsonValue apriori = service_.Handle(std::move(with_strategy));
  ASSERT_EQ(apriori.GetString("status", ""), "OK");
  EXPECT_FALSE(apriori.GetBool("cached", true));  // Different cache key.
  EXPECT_EQ(apriori.GetInt("num_pairs", -1),
            optimized.GetInt("num_pairs", -2));
}

TEST_F(ServiceTest, DropThenQueryIsNotFound) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue::Object drop;
  drop["cmd"] = "drop";
  drop["dataset"] = "d";
  EXPECT_EQ(service_.Handle(std::move(drop)).GetString("status", ""), "OK");
  EXPECT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "NOT_FOUND");
}

TEST_F(ServiceTest, StatsExposesCacheCountersAndPrometheus) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  (void)service_.Handle(QueryRequest("d", kQuery));
  (void)service_.Handle(QueryRequest("d", kQuery));
  JsonValue::Object stats_request;
  stats_request["cmd"] = "stats";
  JsonValue stats = service_.Handle(std::move(stats_request));
  ASSERT_EQ(stats.GetString("status", ""), "OK");
  const JsonValue* cache = stats.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->GetInt("hits", -1), 1);
  EXPECT_EQ(cache->GetInt("misses", -1), 1);
  const std::string prometheus = stats.GetString("prometheus", "");
  EXPECT_NE(prometheus.find("cfq_server_cache_hits 1"), std::string::npos)
      << prometheus;
}

JsonValue AppendRequest(const std::string& name) {
  // A handful of transactions over the GenRequest item universe.
  auto request = JsonValue::Parse(
      R"({"cmd":"append","dataset":")" + name +
      R"(","transactions":[[1,2,3],[4,5],[1,2,3,4],[7,8,9],[1,3,5]]})");
  EXPECT_TRUE(request.ok());
  return std::move(request).value();
}

TEST_F(ServiceTest, AppendBumpsGenerationAndMissesStaleCache) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue cold = service_.Handle(QueryRequest("d", kQuery));
  ASSERT_EQ(cold.GetString("status", ""), "OK");
  EXPECT_EQ(cold.GetString("source", ""), "cold");

  JsonValue appended = service_.Handle(AppendRequest("d"));
  ASSERT_EQ(appended.GetString("status", ""), "OK");
  EXPECT_EQ(appended.GetInt("appended", -1), 5);
  EXPECT_GT(appended.GetInt("generation", -1), cold.GetInt("generation", 99));
  EXPECT_EQ(appended.GetInt("num_transactions", -1), 405);

  // The generation is part of the cache key: the same query text must
  // recompute against the grown data.
  JsonValue repeat = service_.Handle(QueryRequest("d", kQuery));
  ASSERT_EQ(repeat.GetString("status", ""), "OK");
  EXPECT_FALSE(repeat.GetBool("cached", true));
  EXPECT_EQ(metrics_.counter("server.datasets.appends"), 1u);
  EXPECT_EQ(metrics_.counter("server.datasets.appended_transactions"), 5u);
}

TEST_F(ServiceTest, AppendValidatesRequestShape) {
  JsonValue::Object no_txns;
  no_txns["cmd"] = "append";
  no_txns["dataset"] = "d";
  EXPECT_EQ(service_.Handle(std::move(no_txns)).GetString("status", ""),
            "BAD_REQUEST");
  EXPECT_EQ(service_.Handle(AppendRequest("ghost")).GetString("status", ""),
            "NOT_FOUND");
  auto bad_item = JsonValue::Parse(
      R"({"cmd":"append","dataset":"d","transactions":[[1,-2]]})");
  ASSERT_TRUE(bad_item.ok());
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  EXPECT_EQ(service_.Handle(std::move(bad_item).value())
                .GetString("status", ""),
            "BAD_REQUEST");
}

// The serving loop the incremental subsystem exists for: cold mine
// once, serve repeats from the result cache, and after an append ride
// the maintained state instead of re-mining — with the three source
// labels distinguishing the paths and the answers staying identical to
// a from-scratch strategy at every generation.
TEST_F(ServiceTest, IncrementalStrategyRefreshesAcrossAppends) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue request = QueryRequest("d", kQuery);
  JsonValue::Object incremental = request.as_object();
  incremental["strategy"] = "incremental";

  JsonValue cold = service_.Handle(JsonValue(incremental));
  ASSERT_EQ(cold.GetString("status", ""), "OK");
  EXPECT_EQ(cold.GetString("source", ""), "cold");
  EXPECT_EQ(service_.state_cache().size(), 1u);

  JsonValue hit = service_.Handle(JsonValue(incremental));
  ASSERT_EQ(hit.GetString("status", ""), "OK");
  EXPECT_EQ(hit.GetString("source", ""), "hit");
  EXPECT_TRUE(hit.GetBool("cached", false));

  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(service_.Handle(AppendRequest("d")).GetString("status", ""),
              "OK");
    JsonValue refreshed = service_.Handle(JsonValue(incremental));
    ASSERT_EQ(refreshed.GetString("status", ""), "OK");
    EXPECT_FALSE(refreshed.GetBool("cached", true));
    EXPECT_EQ(refreshed.GetString("source", ""), "incremental-refresh")
        << "round " << round;

    // Byte-identical to mining the grown database from scratch.
    JsonValue::Object apriori = request.as_object();
    apriori["strategy"] = "apriori";
    JsonValue scratch = service_.Handle(std::move(apriori));
    ASSERT_EQ(scratch.GetString("status", ""), "OK");
    EXPECT_EQ(refreshed.Find("rows")->Write(), scratch.Find("rows")->Write());
    EXPECT_EQ(refreshed.GetInt("num_pairs", -1),
              scratch.GetInt("num_pairs", -2));
    EXPECT_EQ(refreshed.GetInt("s_sets", -1), scratch.GetInt("s_sets", -2));
    EXPECT_EQ(refreshed.GetInt("t_sets", -1), scratch.GetInt("t_sets", -2));
  }
  EXPECT_GE(metrics_.counter("server.reuse.incremental_refresh"), 3u);
  EXPECT_GE(metrics_.counter("server.reuse.cold"), 1u);
  EXPECT_GE(metrics_.counter("server.reuse.hit"), 1u);
  EXPECT_GE(metrics_.counter("incr.refreshes"), 3u);
}

TEST_F(ServiceTest, DropPurgesAnswersAndStates) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue request = QueryRequest("d", kQuery);
  JsonValue::Object incremental = request.as_object();
  incremental["strategy"] = "incremental";
  ASSERT_EQ(service_.Handle(JsonValue(incremental)).GetString("status", ""),
            "OK");
  ASSERT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "OK");
  ASSERT_GE(service_.cache().size(), 2u);
  ASSERT_EQ(service_.state_cache().size(), 1u);

  JsonValue::Object drop;
  drop["cmd"] = "drop";
  drop["dataset"] = "d";
  JsonValue dropped = service_.Handle(std::move(drop));
  ASSERT_EQ(dropped.GetString("status", ""), "OK");
  EXPECT_EQ(dropped.GetInt("purged_answers", -1), 2);
  EXPECT_EQ(dropped.GetInt("purged_states", -1), 1);
  EXPECT_EQ(service_.cache().size(), 0u);
  EXPECT_EQ(service_.state_cache().size(), 0u);
  EXPECT_EQ(metrics_.counter("server.cache.evict.dropped"), 2u);
  EXPECT_EQ(metrics_.counter("incr.state_cache.purged"), 1u);
}

// The ISSUE's cancellation case: a tiny deadline on a large synthetic
// dataset must produce a clean TIMEOUT response, leak nothing, and
// leave the service fully usable — the next (smaller) query runs
// normally and its metrics/tracer identities are intact.
TEST_F(ServiceTest, TimedOutQueryLeavesServiceHealthy) {
  JsonValue::Object gen = GenRequest("big").as_object();
  gen["num_transactions"] = static_cast<int64_t>(4000);
  gen["num_items"] = static_cast<int64_t>(120);
  gen["num_patterns"] = static_cast<int64_t>(60);
  ASSERT_EQ(service_.Handle(std::move(gen)).GetString("status", ""), "OK");

  JsonValue request = QueryRequest(
      "big", "freq(S, 2) & freq(T, 2) & sum(S.Price) <= sum(T.Price)");
  JsonValue::Object timed = request.as_object();
  timed["deadline_ms"] = static_cast<int64_t>(1);
  JsonValue timeout = service_.Handle(std::move(timed));
  EXPECT_EQ(timeout.GetString("status", ""), "TIMEOUT");
  EXPECT_NE(timeout.GetString("error", "").find("DEADLINE_EXCEEDED"),
            std::string::npos);

  // No permit leaked: both slots are free again, so two concurrent
  // admissions succeed immediately.
  EXPECT_EQ(service_.admission().active(), 0u);
  EXPECT_EQ(service_.admission().queued(), 0u);

  // Nothing was cached for the aborted query.
  EXPECT_EQ(service_.cache().size(), 0u);

  // The next query (tighter support: small lattice) runs to completion
  // on the same dataset, and its stats merge under the same metric
  // names the timed-out attempt would have used.
  JsonValue ok = service_.Handle(
      QueryRequest("big", "freq(S, 300) & freq(T, 300) & "
                          "max(S.Price) <= min(T.Price)"));
  ASSERT_EQ(ok.GetString("status", ""), "OK");
  EXPECT_EQ(metrics_.counter("server.query.timeouts"), 1u);
  EXPECT_EQ(metrics_.counter("server.queries_total"), 1u);
  EXPECT_GT(metrics_.counter("s.sets_counted"), 0u);
}

// --- Query tracing + flight recorder ---------------------------------

TEST_F(ServiceTest, EveryQueryResponseCarriesTraceIdAndPhases) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue ok = service_.Handle(QueryRequest("d", kQuery));
  ASSERT_EQ(ok.GetString("status", ""), "OK");
  const JsonValue* trace = ok.Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->GetInt("id", 0), 0);
  const JsonValue* phases = trace->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_object());
  // The cold path ran the full pipeline: every top-level phase named.
  for (const char* phase :
       {"catalog", "parse", "cache", "admission", "plan", "execute",
        "render"}) {
    EXPECT_NE(phases->Find(phase), nullptr) << phase;
  }

  // Error responses are traced too, with distinct monotone ids.
  JsonValue missing = service_.Handle(QueryRequest("ghost", kQuery));
  ASSERT_EQ(missing.GetString("status", ""), "NOT_FOUND");
  const JsonValue* error_trace = missing.Find("trace");
  ASSERT_NE(error_trace, nullptr);
  EXPECT_GT(error_trace->GetInt("id", 0), trace->GetInt("id", 0));
  // And error traces are retained by the recorder alongside successes.
  EXPECT_EQ(service_.flight_recorder().Summary().recorded_total, 2u);
}

TEST_F(ServiceTest, ClientTraceIdIsEchoed) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue::Object request = QueryRequest("d", kQuery).as_object();
  request["trace_id"] = "req-abc-123";
  JsonValue response = service_.Handle(std::move(request));
  ASSERT_EQ(response.GetString("status", ""), "OK");
  const JsonValue* trace = response.Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->GetString("client_trace_id", ""), "req-abc-123");
  const auto traces = service_.flight_recorder().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].client_trace_id, "req-abc-123");
}

// The acceptance bar for phase attribution: on a refresh-path query the
// named top-level phases account for >= 95% of the reported wall time.
TEST_F(ServiceTest, PhasesAttributeRefreshWallTime) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue::Object incremental = QueryRequest("d", kQuery).as_object();
  incremental["strategy"] = "incremental";
  ASSERT_EQ(service_.Handle(JsonValue(incremental)).GetString("status", ""),
            "OK");
  ASSERT_EQ(service_.Handle(AppendRequest("d")).GetString("status", ""),
            "OK");
  JsonValue refreshed = service_.Handle(JsonValue(incremental));
  ASSERT_EQ(refreshed.GetString("status", ""), "OK");
  ASSERT_EQ(refreshed.GetString("source", ""), "incremental-refresh");

  const JsonValue* phases = refreshed.Find("trace")->Find("phases");
  ASSERT_NE(phases, nullptr);
  double attributed = 0;
  bool saw_refresh_detail = false;
  for (const auto& [name, seconds] : phases->as_object()) {
    ASSERT_TRUE(seconds.is_number()) << name;
    if (name.find('.') == std::string::npos) {
      attributed += seconds.as_number();
    }
    if (name.rfind("execute.refresh", 0) == 0) saw_refresh_detail = true;
  }
  const double elapsed = refreshed.GetNumber("elapsed_seconds", 0.0);
  ASSERT_GT(elapsed, 0.0);
  EXPECT_GE(attributed, 0.95 * elapsed)
      << "attributed " << attributed << "s of " << elapsed << "s";
  EXPECT_TRUE(saw_refresh_detail)
      << "refresh sub-phases missing from " << phases->Write();
}

TEST_F(ServiceTest, DumpTraceCommandYieldsParseableChromeTrace) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  ASSERT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "OK");
  JsonValue::Object dump;
  dump["cmd"] = "dumptrace";
  JsonValue response = service_.Handle(std::move(dump));
  ASSERT_EQ(response.GetString("status", ""), "OK");
  EXPECT_EQ(response.GetInt("traces", -1), 1);
  auto doc = JsonValue::Parse(response.GetString("chrome_trace", ""));
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->as_array().empty());
}

TEST(ServiceSlowQueryTest, BelowThresholdQueriesArePinnedAsSlow) {
  ServiceOptions options;
  options.slow_query_threshold_seconds = 0.0;  // Everything is "slow".
  obs::MetricsRegistry metrics;
  QueryService service(options, &metrics);
  ASSERT_EQ(service.Handle(GenRequest("d")).GetString("status", ""), "OK");
  JsonValue response = service.Handle(QueryRequest("d", kQuery));
  ASSERT_EQ(response.GetString("status", ""), "OK");
  EXPECT_TRUE(response.Find("trace")->GetBool("slow", false));
  const auto summary = service.flight_recorder().Summary();
  EXPECT_EQ(summary.slow_total, 1u);
  EXPECT_EQ(summary.slow_size, 1u);
}

TEST_F(ServiceTest, AdmissionObservesQueueWaitPerAdmittedQuery) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  ASSERT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "OK");
  // One observation per admitted query — the free-slot fast path
  // observes 0s so the histogram count equals the admission count.
  EXPECT_EQ(
      metrics_.histogram("server.admission.queue_wait_seconds").count(), 1u);
}

// --- One pipeline, every strategy -------------------------------------

using Names = std::set<std::string>;

Names KeysOf(const JsonValue& value) {
  Names out;
  for (const auto& [key, field] : value.as_object()) out.insert(key);
  return out;
}

Names PhasesOf(const JsonValue& response) {
  const JsonValue* trace = response.Find("trace");
  if (trace == nullptr || trace->Find("phases") == nullptr) return {};
  return KeysOf(*trace->Find("phases"));
}

// Every strategy runs through the same parse -> resolve -> cache ->
// admit -> run -> render -> respond steps. Pins, per strategy, the
// error and drain outcomes and the exact response fields and trace
// phase names of a cold answer, a timeout, a hit and a refused miss.
class ServicePipelineTest : public ::testing::TestWithParam<const char*> {
 protected:
  ServicePipelineTest() : service_(Options(), &metrics_) {}

  static ServiceOptions Options() {
    ServiceOptions options;
    options.cache_capacity = 8;
    options.max_concurrent = 2;
    options.max_queued = 2;
    return options;
  }

  bool is_stream() const { return std::string(GetParam()) == "stream"; }

  // A 4000-transaction source named "big": a generated dataset, or a
  // stream fed one batch of random 10-item transactions.
  void SetUp() override {
    if (!is_stream()) {
      JsonValue::Object gen = GenRequest("big").as_object();
      gen["num_transactions"] = static_cast<int64_t>(4000);
      gen["num_items"] = static_cast<int64_t>(120);
      gen["num_patterns"] = static_cast<int64_t>(60);
      ASSERT_EQ(service_.Handle(std::move(gen)).GetString("status", ""), "OK");
      return;
    }
    std::mt19937 rng(7);
    std::uniform_int_distribution<int64_t> item(0, 119);
    JsonValue::Array transactions;
    for (int t = 0; t < 4000; ++t) {
      std::set<int64_t> txn;
      while (txn.size() < 10) txn.insert(item(rng));
      JsonValue::Array row;
      for (int64_t x : txn) row.emplace_back(x);
      transactions.emplace_back(std::move(row));
    }
    JsonValue::Object ingest;
    ingest["cmd"] = "ingest";
    ingest["stream"] = "big";
    ingest["transactions"] = std::move(transactions);
    ingest["eps"] = 0.01;
    ingest["num_items"] = static_cast<int64_t>(120);
    ASSERT_EQ(service_.Handle(std::move(ingest)).GetString("status", ""),
              "OK");
  }

  JsonValue Query(const std::string& text, int64_t deadline_ms = 0) {
    JsonValue::Object request = QueryRequest("big", text).as_object();
    request["strategy"] = GetParam();
    if (deadline_ms > 0) request["deadline_ms"] = deadline_ms;
    return service_.Handle(std::move(request));
  }

  // The fields of an OK answer: the answer itself, plus the dataset
  // generation or the stream window it was answered at.
  Names AnswerKeys() const {
    Names keys = {"cached",    "canonical_query", "cross_product", "dataset",
                  "digest",    "elapsed_seconds", "num_pairs",     "rows",
                  "s_sets",    "source",          "status",        "strategy",
                  "t_sets",    "trace",           "truncated"};
    if (is_stream()) {
      keys.insert({"unit", "window", "window_units"});
    } else {
      keys.insert("generation");
    }
    return keys;
  }

  // The phases a cold run records up to and including `execute`.
  Names RunPhases() const {
    Names phases = {"parse", "catalog", "cache", "admission", "execute"};
    if (std::string(GetParam()) == "optimized") phases.insert("plan");
    return phases;
  }

  obs::MetricsRegistry metrics_;
  QueryService service_;
};

TEST_P(ServicePipelineTest, ErrorDrainAndHitPathsKeepTheirShape) {
  constexpr char kSmall[] =
      "freq(S, 300) & freq(T, 300) & max(S.Price) <= min(T.Price)";
  constexpr char kOther[] =
      "freq(S, 350) & freq(T, 350) & max(S.Price) <= min(T.Price)";
  constexpr char kLarge[] =
      "freq(S, 2) & freq(T, 2) & sum(S.Price) <= sum(T.Price)";

  JsonValue cold = Query(kSmall);
  ASSERT_EQ(cold.GetString("status", ""), "OK") << cold.Write();
  EXPECT_FALSE(cold.GetBool("cached", true));
  EXPECT_EQ(KeysOf(cold), AnswerKeys());
  Names cold_phases = RunPhases();
  cold_phases.insert({"render", "respond"});
  if (std::string(GetParam()) == "incremental") {
    cold_phases.insert({"execute.build", "execute.answer",
                        "execute.answer.filter", "execute.answer.reduce",
                        "execute.answer.audit", "execute.answer.pair"});
  } else {
    cold_phases.insert({"execute.mine", "execute.pair"});
  }
  EXPECT_EQ(PhasesOf(cold), cold_phases);
  ASSERT_EQ(service_.cache().size(), 1u);

  // A deadline that expires mid-run: TIMEOUT, no permit leaked, and
  // nothing cached for the aborted query.
  JsonValue timeout = Query(kLarge, /*deadline_ms=*/1);
  EXPECT_EQ(timeout.GetString("status", ""), "TIMEOUT") << timeout.Write();
  EXPECT_NE(timeout.GetString("error", "").find("DEADLINE_EXCEEDED"),
            std::string::npos);
  EXPECT_EQ(KeysOf(timeout), (Names{"error", "status", "trace"}));
  EXPECT_EQ(PhasesOf(timeout), RunPhases());
  EXPECT_EQ(service_.admission().active(), 0u);
  EXPECT_EQ(service_.admission().queued(), 0u);
  EXPECT_EQ(service_.cache().size(), 1u);
  EXPECT_EQ(metrics_.counter("server.query.timeouts"), 1u);

  service_.BeginDrain();

  // Hits are served before admission, so they still answer while the
  // service drains.
  JsonValue hit = Query(kSmall);
  ASSERT_EQ(hit.GetString("status", ""), "OK") << hit.Write();
  EXPECT_TRUE(hit.GetBool("cached", false));
  EXPECT_EQ(hit.GetString("source", ""), "hit");
  EXPECT_EQ(hit.GetString("digest", "h"), cold.GetString("digest", "c"));
  EXPECT_EQ(KeysOf(hit), AnswerKeys());
  EXPECT_EQ(PhasesOf(hit), (Names{"parse", "catalog", "cache", "respond"}));

  // A miss needs a permit, which a draining service refuses.
  JsonValue refused = Query(kOther);
  EXPECT_EQ(refused.GetString("status", ""), "SHUTTING_DOWN")
      << refused.Write();
  EXPECT_EQ(KeysOf(refused), (Names{"error", "status", "trace"}));
  EXPECT_EQ(PhasesOf(refused),
            (Names{"parse", "catalog", "cache", "admission"}));
  EXPECT_EQ(metrics_.counter("server.admission.drained"), 1u);
  EXPECT_EQ(service_.cache().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, ServicePipelineTest,
                         ::testing::Values("optimized", "cap", "apriori",
                                           "fpgrowth", "incremental",
                                           "stream"));

// --- HTTP telemetry endpoint -----------------------------------------

// Minimal raw-socket GET against the telemetry listener; returns the
// full response (status line + headers + body).
std::string HttpGet(uint16_t port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  const std::string request = request_line + "\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class HttpTelemetryTest : public ::testing::Test {
 protected:
  HttpTelemetryTest() : service_(ServiceOptions{}, &metrics_) {}

  void SetUp() override {
    server_ = std::make_unique<HttpServer>(
        HttpOptions{},  // port 0 = ephemeral.
        [this](const std::string& path) { return service_.HandleHttp(path); });
    ASSERT_TRUE(server_->Start().ok());
  }

  obs::MetricsRegistry metrics_;
  QueryService service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpTelemetryTest, HealthzFlipsTo503OnDrain) {
  const std::string healthy = HttpGet(server_->port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(healthy.find("200 OK"), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("ok"), std::string::npos);
  service_.BeginDrain();
  const std::string draining =
      HttpGet(server_->port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(draining.find("503"), std::string::npos) << draining;
  EXPECT_NE(draining.find("draining"), std::string::npos);
}

TEST_F(HttpTelemetryTest, MetricsServesLivePrometheusText) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  ASSERT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "OK");
  ASSERT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "OK");
  const std::string response =
      HttpGet(server_->port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  // Live counters from the same registry --metrics-out flushes.
  EXPECT_NE(response.find("cfq_server_cache_hits 1"), std::string::npos)
      << response;
  EXPECT_NE(response.find("cfq_server_queries_total 2"), std::string::npos);
  EXPECT_NE(response.find("# TYPE cfq_server_query_seconds_cold histogram"),
            std::string::npos);
}

TEST_F(HttpTelemetryTest, StatsServesJsonSummaries) {
  const std::string response =
      HttpGet(server_->port(), "GET /stats?pretty=1 HTTP/1.0");
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  auto stats = JsonValue::Parse(response.substr(body_at + 4));
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->GetString("status", ""), "OK");
  for (const char* section :
       {"cache", "admission", "state_cache", "flight_recorder"}) {
    EXPECT_NE(stats->Find(section), nullptr) << section;
  }
}

TEST_F(HttpTelemetryTest, TraceServesChromeDumpAndBadPathsGetErrors) {
  ASSERT_EQ(service_.Handle(GenRequest("d")).GetString("status", ""), "OK");
  ASSERT_EQ(
      service_.Handle(QueryRequest("d", kQuery)).GetString("status", ""),
      "OK");
  const std::string trace = HttpGet(server_->port(), "GET /trace HTTP/1.0");
  const size_t body_at = trace.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  auto doc = JsonValue::Parse(trace.substr(body_at + 4));
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_FALSE(doc->Find("traceEvents")->as_array().empty());

  EXPECT_NE(HttpGet(server_->port(), "GET /nope HTTP/1.0").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(server_->port(), "POST /metrics HTTP/1.0").find("405"),
            std::string::npos);
  EXPECT_NE(HttpGet(server_->port(), "garbage").find("400"),
            std::string::npos);
}

// --- TCP server + client ---------------------------------------------

class TcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions service_options;
    service_options.cache_capacity = 8;
    service_ = std::make_unique<QueryService>(service_options, &metrics_);
    ServerOptions server_options;  // port 0 = ephemeral.
    server_ = std::make_unique<Server>(server_options, service_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  Client MustConnect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  obs::MetricsRegistry metrics_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(TcpTest, PingAndQueryOverTheWire) {
  Client client = MustConnect();
  JsonValue::Object ping;
  ping["cmd"] = "ping";
  auto pong = client.Call(std::move(ping));
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->GetString("status", ""), "OK");

  ASSERT_TRUE(client.Call(GenRequest("d")).ok());
  auto cold = client.Call(QueryRequest("d", kQuery));
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->GetString("status", ""), "OK");
  auto hit = client.Call(QueryRequest("d", kQuery));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->GetBool("cached", false));
  EXPECT_EQ(hit->Find("rows")->Write(), cold->Find("rows")->Write());
}

TEST_F(TcpTest, QueryLineIsTheArrayEncodingOfItsRows) {
  Client client = MustConnect();
  ASSERT_TRUE(client.Call(GenRequest("d")).ok());
  for (int round = 0; round < 2; ++round) {  // Cold, then a cache hit.
    auto line = client.CallRaw(QueryRequest("d", kQuery).Write());
    ASSERT_TRUE(line.ok()) << line.status();
    // Parsing yields plain arrays and strings; writing them again is
    // the per-row encoding the pre-encoded rows replaced.
    auto parsed = JsonValue::Parse(line.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_TRUE(parsed->Find("rows")->is_array());
    EXPECT_FALSE(parsed->Find("rows")->as_array().empty());
    EXPECT_EQ(parsed->GetBool("cached", !round), round == 1);
    EXPECT_EQ(parsed->Write(), line.value());
  }
}

TEST_F(TcpTest, MalformedLineGetsBadRequestAndConnectionSurvives) {
  Client client = MustConnect();
  auto garbage = client.CallRaw("this is not json");
  ASSERT_TRUE(garbage.ok()) << garbage.status();
  EXPECT_NE(garbage->find("BAD_REQUEST"), std::string::npos);
  JsonValue::Object ping;
  ping["cmd"] = "ping";
  auto pong = client.Call(std::move(ping));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->GetString("status", ""), "OK");
}

TEST_F(TcpTest, ConnectionFaultsAreCounted) {
  Client client = MustConnect();
  ASSERT_TRUE(client.CallRaw("definitely not json").ok());
  EXPECT_GE(metrics_.counter("server.conn.errors"), 1u);
}

TEST_F(TcpTest, ErrorsAreIsolatedPerConnection) {
  Client bad = MustConnect();
  Client good = MustConnect();
  ASSERT_TRUE(bad.CallRaw("{{{{").ok());
  bad.Close();  // Abrupt disconnect.
  JsonValue::Object ping;
  ping["cmd"] = "ping";
  auto pong = good.Call(std::move(ping));
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->GetString("status", ""), "OK");
}

TEST_F(TcpTest, ShutdownCommandDrains) {
  Client client = MustConnect();
  JsonValue::Object shutdown;
  shutdown["cmd"] = "shutdown";
  auto response = client.Call(std::move(shutdown));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->GetString("status", ""), "OK");
  server_->Wait();  // Returns once every connection thread joined.
  // New connections are refused (or reset) after the drain.
  auto late = Client::Connect("127.0.0.1", server_->port());
  if (late.ok()) {
    JsonValue::Object ping;
    ping["cmd"] = "ping";
    EXPECT_FALSE(late->Call(std::move(ping)).ok());
  }
}

TEST_F(TcpTest, RequestShutdownFinishesInFlightQueries) {
  Client client = MustConnect();
  ASSERT_TRUE(client.Call(GenRequest("d")).ok());
  // Start a query, then request the drain from another thread while it
  // is (likely) still executing; the response must still arrive.
  std::thread drainer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server_->RequestShutdown();
  });
  auto response = client.Call(QueryRequest("d", kQuery));
  drainer.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->GetString("status", ""), "OK");
  server_->Wait();
}

// A peer that answers with pre-scripted bytes: Client must return one
// line per call however the bytes are split across recv()s, including
// responses that arrive before their request was sent (pipelined).
TEST(ClientTest, PipelinedResponsesSplitAcrossRecvsComeBackLineByLine) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  const std::string big(300 * 1024, 'x');  // Spans several 64 KB recv()s.
  std::thread peer([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const auto send_now = [fd](const std::string& bytes) {
      size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) return;
        sent += static_cast<size_t>(n);
      }
    };
    send_now("one\ntw");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    send_now("o\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    send_now(big.substr(0, 1000));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    send_now(big.substr(1000) + "\nthree\nfour\n");
    char sink[256];  // Drain the requests until the client closes.
    while (::recv(fd, sink, sizeof(sink), 0) > 0) {
    }
    ::close(fd);
  });

  auto client = Client::Connect("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<std::string> want = {"one", "two", big, "three", "four"};
  for (const std::string& expected : want) {
    auto line = client->CallRaw("{}");
    ASSERT_TRUE(line.ok()) << line.status();
    EXPECT_EQ(line.value(), expected);
  }
  client->Close();
  peer.join();
  ::close(listener);
}

}  // namespace
}  // namespace cfq::server
