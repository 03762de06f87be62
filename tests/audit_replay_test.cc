// Workload capture and replay: the AuditRecord JSONL codec, the
// AuditLog writer (rotation, restart numbering, flush), the reader's
// malformed-line tolerance, and the QueryService integration — every
// served query (success or error) lands in the log with the same
// digest the response carried, and BeginDrain flushes it.

#include "server/audit_log.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "server/json.h"
#include "server/service.h"

namespace cfq::server {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cfq_audit_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

AuditRecord SampleRecord() {
  AuditRecord r;
  r.ts_us = 1700000000123456;
  r.trace_id = 42;
  r.client_trace_id = "client-7";
  r.dataset = "demo";
  r.generation = 3;
  r.strategy = "optimized";
  r.status = "OK";
  r.source = "cold";
  r.cached = false;
  r.query = "{(S, T) | freq(S, 30) & freq(T, 30)}";
  r.digest = "8d6025c924fe06c3";
  r.rows = 10;
  r.num_pairs = 25;
  r.max_rows = 10;
  r.deadline_ms = 5000;
  r.elapsed_seconds = 0.125;
  r.phases["parse"] = 0.001;
  r.phases["execute"] = 0.1;
  return r;
}

// --- AuditRecord codec ------------------------------------------------

TEST(AuditRecordTest, RoundTripsAllFields) {
  const AuditRecord r = SampleRecord();
  auto parsed = AuditRecord::Parse(r.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ts_us, r.ts_us);
  EXPECT_EQ(parsed->trace_id, r.trace_id);
  EXPECT_EQ(parsed->client_trace_id, r.client_trace_id);
  EXPECT_EQ(parsed->dataset, r.dataset);
  EXPECT_EQ(parsed->generation, r.generation);
  EXPECT_EQ(parsed->strategy, r.strategy);
  EXPECT_EQ(parsed->status, r.status);
  EXPECT_EQ(parsed->source, r.source);
  EXPECT_EQ(parsed->cached, r.cached);
  EXPECT_EQ(parsed->query, r.query);
  EXPECT_EQ(parsed->digest, r.digest);
  EXPECT_EQ(parsed->rows, r.rows);
  EXPECT_EQ(parsed->num_pairs, r.num_pairs);
  EXPECT_EQ(parsed->max_rows, r.max_rows);
  EXPECT_EQ(parsed->deadline_ms, r.deadline_ms);
  EXPECT_DOUBLE_EQ(parsed->elapsed_seconds, r.elapsed_seconds);
  ASSERT_EQ(parsed->phases.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->phases.at("parse").as_number(), 0.001);
}

TEST(AuditRecordTest, StreamFieldsRoundTripAndDefaultAway) {
  // A query record: kind defaults to "query" and is not emitted; the
  // window and unit only appear when meaningful.
  AuditRecord query = SampleRecord();
  query.window = 24;
  query.unit = 7;
  const std::string query_line = query.ToJsonLine();
  EXPECT_EQ(query_line.find("\"kind\""), std::string::npos);
  auto parsed_query = AuditRecord::Parse(query_line);
  ASSERT_TRUE(parsed_query.ok());
  EXPECT_EQ(parsed_query->window, 24u);
  EXPECT_EQ(parsed_query->unit, 7);

  // An ingest record carries its whole batch so replay can re-drive it.
  AuditRecord ingest;
  ingest.ts_us = 1700000000123457;
  ingest.kind = "ingest";
  ingest.dataset = "clicks";
  ingest.strategy = "stream";
  ingest.status = "OK";
  ingest.source = "stream";
  ingest.query = "-";
  ingest.unit = 0;
  ingest.rows = 2;
  auto transactions = server::JsonValue::Parse("[[1,2],[3]]");
  ASSERT_TRUE(transactions.ok());
  ingest.ingest["transactions"] = transactions.value();
  ingest.ingest["ttw"] = "2,2";
  ingest.ingest["eps"] = 0.0;
  auto parsed_ingest = AuditRecord::Parse(ingest.ToJsonLine());
  ASSERT_TRUE(parsed_ingest.ok()) << parsed_ingest.status();
  EXPECT_EQ(parsed_ingest->kind, "ingest");
  EXPECT_EQ(parsed_ingest->unit, 0);
  ASSERT_EQ(parsed_ingest->ingest.count("transactions"), 1u);
  EXPECT_EQ(parsed_ingest->ingest.at("transactions").Write(),
            "[[1,2],[3]]");
  EXPECT_EQ(parsed_ingest->ingest.at("ttw").as_string(), "2,2");

  // Old logs (no stream fields) parse with inert defaults.
  auto legacy = AuditRecord::Parse(
      R"({"dataset":"d","query":"q","status":"OK"})");
  ASSERT_TRUE(legacy.ok());
  EXPECT_TRUE(legacy->kind.empty());
  EXPECT_EQ(legacy->window, 0u);
  EXPECT_EQ(legacy->unit, -1);
  EXPECT_TRUE(legacy->ingest.empty());
}

TEST(AuditRecordTest, RejectsMalformedAndIncompleteLines) {
  EXPECT_FALSE(AuditRecord::Parse("not json").ok());
  EXPECT_FALSE(AuditRecord::Parse("[1,2,3]").ok());
  // Missing each required field in turn.
  EXPECT_FALSE(
      AuditRecord::Parse(R"({"query":"q","status":"OK"})").ok());
  EXPECT_FALSE(
      AuditRecord::Parse(R"({"dataset":"d","status":"OK"})").ok());
  EXPECT_FALSE(
      AuditRecord::Parse(R"({"dataset":"d","query":"q"})").ok());
  EXPECT_TRUE(AuditRecord::Parse(
                  R"({"dataset":"d","query":"q","status":"OK"})")
                  .ok());
}

// --- AuditLog writer --------------------------------------------------

TEST(AuditLogTest, AppendsAndReadsBack) {
  const std::string dir = TempDir("append");
  AuditLog log(AuditLogOptions{dir, 64});
  ASSERT_TRUE(log.Open().ok());
  log.Append(SampleRecord());
  log.Append(SampleRecord());
  log.Flush();
  EXPECT_EQ(log.appended(), 2u);
  EXPECT_EQ(log.errors(), 0u);

  AuditReadStats stats;
  auto records = ReadAuditLog(dir, &stats);
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(records->size(), 2u);
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(AuditLogTest, RotatesPastThresholdAndReadsInOrder) {
  const std::string dir = TempDir("rotate");
  // 1 MB threshold; ~4000 records of ~400 bytes crosses it once.
  AuditLog log(AuditLogOptions{dir, 1});
  ASSERT_TRUE(log.Open().ok());
  AuditRecord r = SampleRecord();
  r.query.assign(300, 'q');
  const size_t n = 4000;
  for (size_t i = 0; i < n; ++i) {
    r.ts_us = static_cast<int64_t>(i);  // Read-back order check.
    log.Append(r);
  }
  log.Flush();
  EXPECT_GE(log.rotations(), 1u);
  EXPECT_EQ(log.appended(), n);

  AuditReadStats stats;
  auto records = ReadAuditLog(dir, &stats);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), n);
  EXPECT_GE(stats.files, 2u);
  // Directory reads concatenate rotation files in name order, which is
  // append order.
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ((*records)[i].ts_us, static_cast<int64_t>(i));
  }
}

TEST(AuditLogTest, ReopenNumbersPastExistingFiles) {
  const std::string dir = TempDir("reopen");
  {
    AuditLog log(AuditLogOptions{dir, 64});
    ASSERT_TRUE(log.Open().ok());
    log.Append(SampleRecord());
  }
  AuditLog second(AuditLogOptions{dir, 64});
  ASSERT_TRUE(second.Open().ok());
  EXPECT_NE(second.current_path().find("audit-000002.jsonl"),
            std::string::npos);
  second.Append(SampleRecord());
  second.Flush();

  auto records = ReadAuditLog(dir, nullptr);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST(AuditLogTest, ReaderSkipsButCountsMalformedLines) {
  const std::string dir = TempDir("malformed");
  AuditLog log(AuditLogOptions{dir, 64});
  ASSERT_TRUE(log.Open().ok());
  log.Append(SampleRecord());
  log.Flush();
  {
    // A torn final line, as a crashed daemon would leave.
    std::ofstream out(log.current_path(), std::ios::app);
    out << "{\"dataset\":\"demo\",\"query\":\"tru";
  }
  AuditReadStats stats;
  auto records = ReadAuditLog(dir, &stats);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
  EXPECT_EQ(stats.malformed, 1u);
}

TEST(AuditLogTest, ReadFailsOnMissingPathAndEmptyDir) {
  EXPECT_FALSE(ReadAuditLog("/nonexistent/audit.jsonl", nullptr).ok());
  const std::string dir = TempDir("empty");
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(ReadAuditLog(dir, nullptr).ok());
}

// --- QueryService integration ----------------------------------------

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
  return request;
}

constexpr char kQuery[] =
    "freq(S, 30) & freq(T, 30) & max(S.Price) <= min(T.Price)";

TEST(ServiceAuditTest, CapturesServedQueriesWithDigests) {
  const std::string dir = TempDir("service");
  ServiceOptions options;
  options.audit_log_dir = dir;
  obs::MetricsRegistry metrics;
  QueryService service(options, &metrics);
  ASSERT_NE(service.audit_log(), nullptr);

  ASSERT_EQ(service.Handle(GenRequest("d")).GetString("status", ""), "OK");
  const JsonValue cold = service.Handle(QueryRequest("d", kQuery));
  ASSERT_EQ(cold.GetString("status", ""), "OK");
  const std::string digest = cold.GetString("digest", "");
  ASSERT_EQ(digest.size(), 16u);

  // A cache hit returns the identical digest without recomputation,
  // and an error query is captured too.
  const JsonValue hit = service.Handle(QueryRequest("d", kQuery));
  EXPECT_TRUE(hit.GetBool("cached", false));
  EXPECT_EQ(hit.GetString("digest", ""), digest);
  EXPECT_EQ(service.Handle(QueryRequest("d", "freq(S &"))
                .GetString("status", ""),
            "PARSE_ERROR");

  // BeginDrain is the flush hook shared by every drain path.
  service.BeginDrain();

  auto records = ReadAuditLog(dir, nullptr);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].status, "OK");
  EXPECT_EQ((*records)[0].digest, digest);
  EXPECT_FALSE((*records)[0].cached);
  EXPECT_EQ((*records)[0].source, "cold");
  // The captured query is the canonical text, replayable as-is.
  EXPECT_EQ((*records)[0].query,
            cold.GetString("canonical_query", "missing"));
  EXPECT_TRUE((*records)[1].cached);
  EXPECT_EQ((*records)[1].digest, digest);
  EXPECT_EQ((*records)[1].source, "hit");
  EXPECT_EQ((*records)[2].status, "PARSE_ERROR");
  EXPECT_TRUE((*records)[2].digest.empty());
  EXPECT_EQ(metrics.counter("server.audit.appended"), 3u);
}

TEST(ServiceAuditTest, RecordsTheRowCountServed) {
  const std::string dir = TempDir("service-rows");
  ServiceOptions options;
  options.audit_log_dir = dir;
  obs::MetricsRegistry metrics;
  QueryService service(options, &metrics);
  ASSERT_EQ(service.Handle(GenRequest("d")).GetString("status", ""), "OK");
  // The rows a client decodes from the response, whatever their
  // in-process representation.
  const auto decoded_rows = [](const JsonValue& response) -> uint64_t {
    auto parsed = JsonValue::Parse(response.Write());
    EXPECT_TRUE(parsed.ok());
    const JsonValue* rows = parsed.ok() ? parsed->Find("rows") : nullptr;
    return rows != nullptr && rows->is_array() ? rows->as_array().size() : 0;
  };
  const JsonValue cold = service.Handle(QueryRequest("d", kQuery));
  ASSERT_EQ(cold.GetString("status", ""), "OK");
  const uint64_t all_rows = decoded_rows(cold);
  ASSERT_GT(all_rows, 3u);
  JsonValue::Object capped = QueryRequest("d", kQuery).as_object();
  capped["max_rows"] = int64_t{3};
  const JsonValue three = service.Handle(capped);
  ASSERT_EQ(decoded_rows(three), 3u);
  const JsonValue hit = service.Handle(QueryRequest("d", kQuery));
  ASSERT_TRUE(hit.GetBool("cached", false));
  ASSERT_EQ(service.Handle(QueryRequest("d", "freq(S &")).GetString("status", ""),
            "PARSE_ERROR");
  service.BeginDrain();

  auto records = ReadAuditLog(dir, nullptr);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ((*records)[0].rows, all_rows);
  EXPECT_EQ((*records)[1].rows, 3u);
  EXPECT_EQ((*records)[2].rows, all_rows);
  EXPECT_EQ((*records)[3].rows, 0u);
}

TEST(ServiceAuditTest, NoAuditDirMeansNoLog) {
  obs::MetricsRegistry metrics;
  QueryService service(ServiceOptions{}, &metrics);
  EXPECT_EQ(service.audit_log(), nullptr);
  // Queries still carry digests without capture enabled.
  ASSERT_EQ(service.Handle(GenRequest("d")).GetString("status", ""), "OK");
  EXPECT_EQ(service.Handle(QueryRequest("d", kQuery))
                .GetString("digest", "")
                .size(),
            16u);
}

TEST(ServiceAuditTest, HealthzCarriesUptimeAndCatalogWatermark) {
  obs::MetricsRegistry metrics;
  QueryService service(ServiceOptions{}, &metrics);
  ASSERT_EQ(service.Handle(GenRequest("d")).GetString("status", ""), "OK");
  const HttpResponse health = service.HandleHttp("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body.rfind("ok ", 0), 0u) << health.body;
  EXPECT_NE(health.body.find("uptime_seconds="), std::string::npos);
  EXPECT_NE(health.body.find("datasets=1"), std::string::npos);
  EXPECT_NE(health.body.find("max_generation=1"), std::string::npos);
}

}  // namespace
}  // namespace cfq::server
