#include "server/service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/cancellation.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/version.h"
#include "core/analyze.h"
#include "core/answer_rows.h"
#include "core/cfq.h"
#include "core/executor.h"
#include "core/optimizer.h"
#include "incremental/answer.h"
#include "incremental/refresh.h"
#include "obs/digest.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "parser/parser.h"

namespace cfq::server {

namespace {

JsonValue::Object ErrorObject(const std::string& status,
                              const std::string& error) {
  JsonValue::Object response;
  response["status"] = status;
  response["error"] = error;
  return response;
}

JsonValue ErrorResponse(const std::string& status, const std::string& error) {
  return ErrorObject(status, error);
}

// Decodes a "transactions" array-of-arrays (append/ingest requests).
Result<std::vector<std::vector<ItemId>>> DecodeBatch(
    const JsonValue& transactions) {
  std::vector<std::vector<ItemId>> batch;
  batch.reserve(transactions.as_array().size());
  for (const JsonValue& txn : transactions.as_array()) {
    if (!txn.is_array()) {
      return Status::InvalidArgument(
          "each transaction must be an array of item ids");
    }
    std::vector<ItemId> items;
    items.reserve(txn.as_array().size());
    for (const JsonValue& item : txn.as_array()) {
      if (!item.is_number() || item.as_number() < 0) {
        return Status::InvalidArgument(
            "item ids must be non-negative numbers");
      }
      items.push_back(static_cast<ItemId>(item.as_number()));
    }
    batch.push_back(std::move(items));
  }
  return batch;
}

// A query's strategy: the executor's (core/executor.h, same order),
// then the two only the service runs, from a maintained mining state
// or a stream.
enum class ServedStrategy {
  kOptimized,
  kCap,
  kApriori,
  kFpGrowth,
  kIncremental,
  kStream
};
static_assert(static_cast<int>(ServedStrategy::kFpGrowth) ==
              static_cast<int>(Strategy::kFpGrowth));

std::optional<ServedStrategy> ParseServedStrategy(std::string_view name) {
  if (const std::optional<Strategy> strategy = ParseStrategy(name)) {
    return static_cast<ServedStrategy>(*strategy);
  }
  if (name == "incremental") return ServedStrategy::kIncremental;
  if (name == "stream") return ServedStrategy::kStream;
  return std::nullopt;
}

}  // namespace

std::shared_ptr<CachedAnswer> RenderAnswer(const CfqResult& result,
                                           uint64_t max_rows,
                                           const std::string& canonical) {
  auto fresh = std::make_shared<CachedAnswer>();
  fresh->canonical_query = canonical;
  fresh->s_sets = result.s_sets.size();
  fresh->t_sets = result.t_sets.size();
  fresh->cross_product = result.cross_product;
  const AnswerRows rows(result, max_rows);
  fresh->num_pairs = rows.total();
  fresh->num_rows = rows.size();
  fresh->truncated = rows.size() < rows.total();
  SideFragments s_side(result.s_sets), t_side(result.t_sets);
  size_t bytes = 2;  // '[' ']'
  for (uint64_t r = 0; r < rows.size(); ++r) {
    const auto [i, j] = rows[r];
    bytes += s_side.head(i).size() + t_side.head(j).size() +
             s_side.support(i).size() + t_side.support(j).size() + 4;
  }
  // Each row is quoted, not escaped: see SideFragments' byte invariant.
  auto text = std::make_shared<std::string>();
  text->reserve(bytes);
  *text += '[';
  for (uint64_t r = 0; r < rows.size(); ++r) {
    const auto [i, j] = rows[r];
    if (r > 0) *text += ',';
    *text += '"';
    *text += s_side.head(i);
    *text += t_side.head(j);
    *text += s_side.support(i);
    *text += ';';
    *text += t_side.support(j);
    *text += '"';
  }
  *text += ']';
  fresh->rows_json = std::move(text);
  fresh->digest = obs::DigestHex(RankedDigest(rows, &s_side, &t_side));
  return fresh;
}

JsonValue::Object AnswerResponse(const CachedAnswer& answer) {
  JsonValue::Object response;
  response["status"] = "OK";
  response["canonical_query"] = answer.canonical_query;
  response["s_sets"] = static_cast<int64_t>(answer.s_sets);
  response["t_sets"] = static_cast<int64_t>(answer.t_sets);
  response["num_pairs"] = static_cast<int64_t>(answer.num_pairs);
  response["cross_product"] = answer.cross_product;
  response["truncated"] = answer.truncated;
  response["digest"] = answer.digest;
  response["rows"] = JsonValue::PreEncoded(answer.rows_json);
  return response;
}

// The per-query trace: its own small event ring (so one query's spans
// never interleave with another's) plus the phase accumulator whose
// entries become the response's "trace" breakdown. The request's
// identity fields ride along so every early-error return still records
// a complete flight-recorder entry.
struct QueryService::QueryTrace {
  explicit QueryTrace(size_t capacity) : tracer(capacity) {}

  uint64_t id = 0;
  int64_t start_us = 0;
  obs::Tracer tracer;
  obs::PhaseAccumulator phases;
  std::string dataset;
  std::string strategy;
  std::string source = "cold";
  std::string client_trace_id;
  uint64_t rows = 0;  // Rows in the answer served, for the audit record.
};

QueryService::QueryService(const ServiceOptions& options,
                           obs::MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics),
      cache_(options.cache_capacity, metrics),
      state_cache_(options.state_cache_capacity, metrics),
      admission_(options.max_concurrent, options.max_queued, metrics),
      flight_recorder_(obs::FlightRecorderOptions{
          options.flight_recorder_recent, options.flight_recorder_slow,
          options.slow_query_threshold_seconds}) {
  if (!options.audit_log_dir.empty()) {
    AuditLogOptions audit;
    audit.dir = options.audit_log_dir;
    audit.rotate_mb = std::max<uint64_t>(options.audit_rotate_mb, 1);
    audit_log_ = std::make_unique<AuditLog>(audit, metrics);
    if (Status s = audit_log_->Open(); !s.ok()) {
      // Capture is best-effort: a daemon that can serve but not record
      // stays up, and the failure is visible in the metrics surface.
      metrics_->Add("server.audit.open_errors");
      audit_log_.reset();
    }
  }
}

JsonValue QueryService::Handle(const JsonValue& request) {
  metrics_->Add("server.requests_total");
  if (!request.is_object()) {
    return ErrorResponse("BAD_REQUEST", "request must be a JSON object");
  }
  const std::string cmd = request.GetString("cmd", "");
  JsonValue response = JsonValue::Object{};
  if (cmd == "ping") {
    JsonValue::Object pong;
    pong["status"] = "OK";
    pong["pong"] = true;
    response = std::move(pong);
  } else if (cmd == "load") {
    response = HandleLoad(request);
  } else if (cmd == "gen") {
    response = HandleGen(request);
  } else if (cmd == "save") {
    response = HandleSave(request);
  } else if (cmd == "drop") {
    response = HandleDrop(request);
  } else if (cmd == "datasets") {
    response = HandleDatasets();
  } else if (cmd == "append") {
    response = HandleAppend(request);
  } else if (cmd == "ingest") {
    response = HandleIngest(request);
  } else if (cmd == "query") {
    response = HandleQuery(request);
  } else if (cmd == "stats") {
    response = HandleStats();
  } else if (cmd == "dumptrace") {
    response = HandleDumpTrace();
  } else if (cmd == "shutdown") {
    shutdown_requested_.store(true, std::memory_order_release);
    JsonValue::Object ok;
    ok["status"] = "OK";
    ok["draining"] = true;
    response = std::move(ok);
  } else {
    response = ErrorResponse(
        "BAD_REQUEST", cmd.empty() ? "missing \"cmd\" field"
                                   : "unknown cmd '" + cmd + "'");
  }
  metrics_->Add("server.responses." +
                response.GetString("status", "INTERNAL"));
  return response;
}

JsonValue QueryService::HandleLoad(const JsonValue& request) {
  const std::string name = request.GetString("dataset", "");
  const std::string db_path = request.GetString("db", "");
  const std::string catalog_path = request.GetString("catalog", "");
  if (name.empty() || db_path.empty() || catalog_path.empty()) {
    return ErrorResponse("BAD_REQUEST",
                         "load needs \"dataset\", \"db\" and \"catalog\"");
  }
  auto generation = catalog_.Load(name, db_path, catalog_path);
  if (!generation.ok()) {
    return ErrorResponse(
        generation.status().code() == StatusCode::kNotFound ? "NOT_FOUND"
                                                            : "BAD_REQUEST",
        generation.status().ToString());
  }
  metrics_->Add("server.datasets.loaded");
  auto entry = catalog_.Get(name);
  JsonValue::Object response;
  response["status"] = "OK";
  response["dataset"] = name;
  response["generation"] = static_cast<int64_t>(generation.value());
  if (entry.ok()) {
    response["num_transactions"] =
        static_cast<int64_t>(entry->data->db.num_transactions());
    response["num_items"] = static_cast<int64_t>(entry->data->db.num_items());
  }
  return response;
}

JsonValue QueryService::HandleGen(const JsonValue& request) {
  const std::string name = request.GetString("dataset", "");
  if (name.empty()) {
    return ErrorResponse("BAD_REQUEST", "gen needs \"dataset\"");
  }
  QuestParams params;
  params.num_transactions = static_cast<uint64_t>(
      request.GetInt("num_transactions", 10000));
  params.num_items =
      static_cast<uint64_t>(request.GetInt("num_items", 1000));
  params.avg_transaction_size =
      request.GetNumber("avg_transaction_size", 10);
  params.avg_pattern_size = request.GetNumber("avg_pattern_size", 4);
  params.num_patterns =
      static_cast<uint64_t>(request.GetInt("num_patterns", 500));
  params.seed = static_cast<uint64_t>(request.GetInt("seed", 42));
  auto generation = catalog_.Generate(name, params);
  if (!generation.ok()) {
    return ErrorResponse("BAD_REQUEST", generation.status().ToString());
  }
  metrics_->Add("server.datasets.generated");
  JsonValue::Object response;
  response["status"] = "OK";
  response["dataset"] = name;
  response["generation"] = static_cast<int64_t>(generation.value());
  response["num_transactions"] =
      static_cast<int64_t>(params.num_transactions);
  response["num_items"] = static_cast<int64_t>(params.num_items);
  return response;
}

JsonValue QueryService::HandleSave(const JsonValue& request) {
  const std::string name = request.GetString("dataset", "");
  const std::string db_path = request.GetString("db", "");
  const std::string catalog_path = request.GetString("catalog", "");
  if (name.empty() || db_path.empty() || catalog_path.empty()) {
    return ErrorResponse("BAD_REQUEST",
                         "save needs \"dataset\", \"db\" and \"catalog\"");
  }
  auto entry = catalog_.Get(name);
  if (!entry.ok()) {
    return ErrorResponse("NOT_FOUND", entry.status().ToString());
  }
  if (auto s = SaveDataset(entry->data->db, entry->data->catalog, db_path,
                           catalog_path);
      !s.ok()) {
    return ErrorResponse("EXEC_ERROR", s.ToString());
  }
  JsonValue::Object response;
  response["status"] = "OK";
  response["dataset"] = name;
  response["db"] = db_path;
  response["catalog"] = catalog_path;
  return response;
}

JsonValue QueryService::HandleDrop(const JsonValue& request) {
  const std::string name = request.GetString("dataset", "");
  if (name.empty()) {
    return ErrorResponse("BAD_REQUEST", "drop needs \"dataset\"");
  }
  const Status dataset_drop = catalog_.Drop(name);
  bool stream_dropped = false;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    stream_dropped = streams_.erase(name) > 0;
  }
  if (!dataset_drop.ok() && !stream_dropped) {
    return ErrorResponse("NOT_FOUND", dataset_drop.ToString());
  }
  // The data is gone: cached answers and maintained mining states for
  // it must not survive (a later re-register reuses the name — and
  // although generations never repeat, dead entries would otherwise
  // squat in both LRUs until natural eviction). "<name>@" covers both
  // the dataset-generation keys and the "@stream:" watermark keys.
  const size_t purged_answers = cache_.PurgePrefix(name + "@");
  const size_t purged_states = state_cache_.PurgeDataset(name);
  JsonValue::Object response;
  response["status"] = "OK";
  response["dataset"] = name;
  response["purged_answers"] = static_cast<int64_t>(purged_answers);
  response["purged_states"] = static_cast<int64_t>(purged_states);
  return response;
}

JsonValue QueryService::HandleAppend(const JsonValue& request) {
  const std::string name = request.GetString("dataset", "");
  const JsonValue* transactions = request.Find("transactions");
  if (name.empty() || transactions == nullptr || !transactions->is_array()) {
    return ErrorResponse(
        "BAD_REQUEST",
        "append needs \"dataset\" and a \"transactions\" array of item-id "
        "arrays");
  }
  auto decoded = DecodeBatch(*transactions);
  if (!decoded.ok()) {
    return ErrorResponse("BAD_REQUEST", decoded.status().ToString());
  }
  const std::vector<std::vector<ItemId>> batch = std::move(decoded).value();
  auto generation = catalog_.Append(name, batch);
  if (!generation.ok()) {
    return ErrorResponse("NOT_FOUND", generation.status().ToString());
  }
  metrics_->Add("server.datasets.appends");
  metrics_->Add("server.datasets.appended_transactions", batch.size());
  auto entry = catalog_.Get(name);
  JsonValue::Object response;
  response["status"] = "OK";
  response["dataset"] = name;
  response["generation"] = static_cast<int64_t>(generation.value());
  response["appended"] = static_cast<int64_t>(batch.size());
  if (entry.ok()) {
    response["num_transactions"] =
        static_cast<int64_t>(entry->data->db.num_transactions());
  }
  return response;
}

std::shared_ptr<const QueryService::StreamEntry> QueryService::FindStream(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(streams_mu_);
  auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second;
}

std::vector<QueryService::StreamSummary> QueryService::StreamSummaries()
    const {
  std::vector<std::shared_ptr<const StreamEntry>> entries;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    for (const auto& [name, entry] : streams_) {
      names.push_back(name);
      entries.push_back(entry);
    }
  }
  std::vector<StreamSummary> out;
  out.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    StreamSummary summary;
    summary.name = names[i];
    summary.watermark = entries[i]->ingestor->watermark();
    summary.eps = entries[i]->ingestor->options().eps;
    summary.ttw = entries[i]->ingestor->options().ttw.ToString();
    out.push_back(std::move(summary));
  }
  return out;
}

JsonValue QueryService::HandleIngest(const JsonValue& request) {
  const std::string name = request.GetString("stream", "");
  const JsonValue* transactions = request.Find("transactions");
  if (name.empty() || transactions == nullptr || !transactions->is_array()) {
    return ErrorResponse(
        "BAD_REQUEST",
        "ingest needs \"stream\" and a \"transactions\" array of item-id "
        "arrays");
  }
  auto decoded = DecodeBatch(*transactions);
  if (!decoded.ok()) {
    return ErrorResponse("BAD_REQUEST", decoded.status().ToString());
  }
  const std::vector<std::vector<ItemId>> batch = std::move(decoded).value();

  // First touch creates the stream from the request's parameters (or
  // the daemon defaults); later ingests reuse the live stream and
  // ignore any parameters they carry — the stream's shape is fixed at
  // birth so its tilt boundaries stay data-independent.
  std::shared_ptr<const StreamEntry> entry;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    auto it = streams_.find(name);
    if (it == streams_.end()) {
      auto ttw = stream::TtwDefinition::Parse(
          request.GetString("ttw", options_.stream_ttw));
      if (!ttw.ok()) {
        return ErrorResponse("BAD_REQUEST", ttw.status().ToString());
      }
      stream::StreamOptions stream_options;
      stream_options.ttw = std::move(ttw).value();
      stream_options.eps =
          request.GetNumber("eps", options_.stream_eps);
      if (stream_options.eps < 0 || stream_options.eps >= 1) {
        return ErrorResponse("BAD_REQUEST", "eps must be in [0, 1)");
      }
      stream_options.num_items = static_cast<size_t>(request.GetInt(
          "num_items", static_cast<int64_t>(options_.stream_num_items)));
      const uint64_t seed = static_cast<uint64_t>(
          request.GetInt("seed", static_cast<int64_t>(options_.stream_seed)));
      auto attrs = MakeDemoCatalog(stream_options.num_items, seed);
      if (!attrs.ok()) {
        return ErrorResponse("BAD_REQUEST", attrs.status().ToString());
      }
      auto fresh = std::make_shared<StreamEntry>();
      fresh->ingestor = std::make_shared<stream::StreamIngestor>(
          stream_options);
      fresh->attrs =
          std::make_shared<const ItemCatalog>(std::move(attrs).value());
      fresh->seed = seed;
      it = streams_.emplace(name, std::move(fresh)).first;
      metrics_->Add("stream.created");
    }
    entry = it->second;
  }

  // Mining runs outside streams_mu_; the ingestor serializes its own
  // fold+tilt critical section (shared-read / exclusive-tilt).
  auto stats = entry->ingestor->Ingest(batch);
  if (!stats.ok()) {
    return ErrorResponse("BAD_REQUEST", stats.status().ToString());
  }
  // Every windowed answer cached against the old watermark is stale now.
  cache_.PurgePrefix(name + "@stream:", "server.cache.evict.stream");

  const stream::StreamIngestor::Watermark watermark =
      entry->ingestor->watermark();
  metrics_->Add("stream.batches");
  metrics_->Add("stream.transactions", stats->batch_transactions);
  if (stats->tilted) metrics_->Add("stream.tilts");
  if (stats->dropped_tails > 0) {
    metrics_->Add("stream.dropped_tails", stats->dropped_tails);
  }
  metrics_->SetGauge("stream.tree.nodes",
                     static_cast<double>(watermark.tree_nodes));
  metrics_->Observe("stream.ingest_seconds", stats->seconds);

  // Capture the batch itself: an interleaved ingest+query audit log
  // replays deterministically only if replay can re-drive the exact
  // transactions (and recreate the stream with identical parameters).
  if (audit_log_ != nullptr) {
    AuditRecord record;
    record.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
    record.kind = "ingest";
    record.dataset = name;
    record.strategy = "stream";
    record.status = "OK";
    record.source = "stream";
    record.query = "-";
    record.unit = static_cast<int64_t>(stats->unit);
    record.rows = stats->batch_transactions;
    record.elapsed_seconds = stats->seconds;
    JsonValue::Object payload;
    payload["transactions"] = *transactions;
    payload["eps"] = entry->ingestor->options().eps;
    payload["ttw"] = entry->ingestor->options().ttw.ToString();
    payload["num_items"] =
        static_cast<int64_t>(entry->ingestor->options().num_items);
    payload["seed"] = static_cast<int64_t>(entry->seed);
    record.ingest = std::move(payload);
    audit_log_->Append(record);
  }

  JsonValue::Object response;
  response["status"] = "OK";
  response["stream"] = name;
  response["unit"] = static_cast<int64_t>(stats->unit);
  response["units"] = static_cast<int64_t>(watermark.units);
  response["transactions"] = static_cast<int64_t>(stats->batch_transactions);
  response["mined_patterns"] = static_cast<int64_t>(stats->mined_patterns);
  response["mining_threshold"] =
      static_cast<int64_t>(stats->mining_threshold);
  response["tilted"] = stats->tilted;
  response["tilts"] = static_cast<int64_t>(watermark.tilts);
  response["dropped_tails"] = static_cast<int64_t>(stats->dropped_tails);
  response["tree_nodes"] = static_cast<int64_t>(watermark.tree_nodes);
  response["eps"] = entry->ingestor->options().eps;
  response["ttw"] = entry->ingestor->options().ttw.ToString();
  response["elapsed_seconds"] = stats->seconds;
  return response;
}

JsonValue QueryService::HandleDatasets() {
  JsonValue::Array rows;
  for (const DatasetInfo& info : catalog_.List()) {
    JsonValue::Object row;
    row["name"] = info.name;
    row["generation"] = static_cast<int64_t>(info.generation);
    row["num_transactions"] = static_cast<int64_t>(info.num_transactions);
    row["num_items"] = static_cast<int64_t>(info.num_items);
    JsonValue::Array attrs;
    for (const std::string& attr : info.attrs) attrs.push_back(attr);
    row["attrs"] = std::move(attrs);
    rows.emplace_back(std::move(row));
  }
  JsonValue::Object response;
  response["status"] = "OK";
  response["datasets"] = std::move(rows);
  return response;
}

JsonValue QueryService::HandleQuery(const JsonValue& request) {
  const auto started = std::chrono::steady_clock::now();
  QueryTrace trace(std::max<size_t>(options_.query_trace_capacity, 64));
  trace.id = flight_recorder_.NextTraceId();
  trace.start_us = flight_recorder_.NowMicros();
  trace.dataset = request.GetString("dataset", "");
  trace.strategy = request.GetString("strategy", "optimized");
  trace.client_trace_id = request.GetString("trace_id", "");

  trace.tracer.BeginSpan("query");
  JsonValue::Object response = ExecuteQuery(request, &trace);
  trace.tracer.EndSpan("query");

  const double elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  const auto status_it = response.find("status");
  const std::string status =
      status_it != response.end() && status_it->second.is_string()
          ? status_it->second.as_string()
          : "INTERNAL";
  if (status == "OK") {
    const auto cached_it = response.find("cached");
    const bool cached =
        cached_it != response.end() && cached_it->second.is_bool() &&
        cached_it->second.as_bool();
    metrics_->Add("server.queries_total");
    metrics_->Add("server.reuse." +
                  (trace.source == "incremental-refresh"
                       ? std::string("incremental_refresh")
                       : trace.source));
    metrics_->Observe(cached ? "server.query_seconds.cache_hit"
                             : "server.query_seconds.cold",
                      elapsed_seconds);
    response["elapsed_seconds"] = elapsed_seconds;
  }

  // Every query response — success or error — carries its trace id and
  // the per-phase wall-time breakdown. Top-level (undotted) phases
  // partition the wall time; dotted entries attribute time INSIDE
  // their parent phase and must not be added to the top-level sum.
  JsonValue::Object phases;
  for (const obs::QueryPhase& phase : trace.phases.phases()) {
    phases[phase.name] = phase.seconds;
  }
  JsonValue::Object trace_json;
  trace_json["id"] = static_cast<int64_t>(trace.id);
  if (!trace.client_trace_id.empty()) {
    trace_json["client_trace_id"] = trace.client_trace_id;
  }
  trace_json["slow"] =
      elapsed_seconds >= flight_recorder_.slow_threshold_seconds();
  trace_json["phases"] = std::move(phases);
  response["trace"] = std::move(trace_json);

  obs::CompletedQueryTrace completed;
  completed.id = trace.id;
  completed.start_us = trace.start_us;
  completed.elapsed_seconds = elapsed_seconds;
  completed.dataset = trace.dataset;
  completed.strategy = trace.strategy;
  completed.source = trace.source;
  completed.status = status;
  completed.client_trace_id = trace.client_trace_id;
  completed.phases = trace.phases.phases();
  completed.events = trace.tracer.Events();
  flight_recorder_.Record(std::move(completed));

  // Workload capture: one JSONL record per served query, success or
  // error. Requests with no query text at all (protocol misuse) carry
  // nothing replayable and are not recorded.
  if (audit_log_ != nullptr) {
    AuditRecord record;
    // Replay the canonical text when parsing succeeded — it keys the
    // result cache identically — and the raw text otherwise.
    const auto canonical = response.find("canonical_query");
    record.query =
        canonical != response.end() && canonical->second.is_string()
            ? canonical->second.as_string()
            : request.GetString("query", "");
    if (!record.query.empty()) {
      record.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
      record.trace_id = trace.id;
      record.client_trace_id = trace.client_trace_id;
      record.dataset = trace.dataset.empty() ? "-" : trace.dataset;
      record.strategy = trace.strategy;
      record.status = status;
      record.source = trace.source;
      record.elapsed_seconds = elapsed_seconds;
      const auto get_int = [&response](const char* key) -> uint64_t {
        const auto it = response.find(key);
        return it != response.end() && it->second.is_number()
                   ? static_cast<uint64_t>(it->second.as_number())
                   : 0;
      };
      record.generation = get_int("generation");
      record.num_pairs = get_int("num_pairs");
      record.window = get_int("window_units");
      const auto unit_it = response.find("unit");
      if (unit_it != response.end() && unit_it->second.is_number()) {
        record.unit = static_cast<int64_t>(unit_it->second.as_number());
      }
      record.rows = trace.rows;
      const auto cached_flag = response.find("cached");
      record.cached = cached_flag != response.end() &&
                      cached_flag->second.is_bool() &&
                      cached_flag->second.as_bool();
      const auto digest = response.find("digest");
      if (digest != response.end() && digest->second.is_string()) {
        record.digest = digest->second.as_string();
      }
      // Only the request's explicit cap/deadline (0 = server default),
      // so replay against a differently configured daemon still sends
      // what the client sent.
      record.max_rows = static_cast<uint64_t>(request.GetInt("max_rows", 0));
      record.deadline_ms =
          static_cast<uint64_t>(request.GetInt("deadline_ms", 0));
      for (const obs::QueryPhase& phase : trace.phases.phases()) {
        record.phases[phase.name] = phase.seconds;
      }
      audit_log_->Append(record);
    }
  }

  return response;
}

JsonValue::Object QueryService::ExecuteQuery(const JsonValue& request,
                                             QueryTrace* trace) {
  const std::string& name = trace->dataset;
  const std::string query_text = request.GetString("query", "");
  if (name.empty() || query_text.empty()) {
    return ErrorObject("BAD_REQUEST", "query needs \"dataset\" and \"query\"");
  }
  const std::optional<ServedStrategy> strategy =
      ParseServedStrategy(trace->strategy);
  if (!strategy.has_value()) {
    return ErrorObject("BAD_REQUEST",
                       "unknown strategy '" + trace->strategy + "' (want " +
                           StrategyNameList() + "|incremental|stream)");
  }
  const bool is_stream = *strategy == ServedStrategy::kStream;

  obs::ScopedPhase parse_phase(&trace->phases, &trace->tracer, "parse");
  auto parsed = ParseCfq(query_text);
  if (!parsed.ok()) {
    return ErrorObject("PARSE_ERROR", parsed.status().ToString());
  }
  CfqQuery query = std::move(parsed).value();
  parse_phase.End();

  // The request-level "window" attribute is sugar for a window(N)
  // conjunct; when the text carries its own, they must agree.
  const uint64_t requested_window =
      static_cast<uint64_t>(request.GetInt("window", 0));
  if (requested_window > 0) {
    if (query.window_units != 0 && query.window_units != requested_window) {
      return ErrorObject("BAD_REQUEST",
                         "request \"window\" conflicts with the query's "
                         "window() conjunct");
    }
    query.window_units = requested_window;
  }
  if (!is_stream && query.window_units != 0) {
    return ErrorObject("BAD_REQUEST",
                       "window(" + std::to_string(query.window_units) +
                           ") requires strategy=stream (the batch "
                           "strategies answer over the whole dataset)");
  }

  // Resolve the source: a catalog dataset at its current generation,
  // or a live stream (streams are not in the catalog).
  CatalogEntry entry;
  std::shared_ptr<const StreamEntry> stream;
  std::string not_found;
  {
    obs::ScopedPhase phase(&trace->phases, &trace->tracer, "catalog");
    if (is_stream) {
      stream = FindStream(name);
      if (stream == nullptr) {
        not_found = "no stream named '" + name +
                    "' (streams are created by their first ingest)";
      }
    } else if (auto found = catalog_.Get(name); found.ok()) {
      entry = std::move(found).value();
    } else {
      not_found = found.status().ToString();
    }
  }
  if (!not_found.empty()) return ErrorObject("NOT_FOUND", not_found);
  const size_t num_items = is_stream ? stream->ingestor->options().num_items
                                     : entry.data->db.num_items();
  for (ItemId i = 0; i < num_items; ++i) {
    query.s_domain.push_back(i);
    query.t_domain.push_back(i);
  }
  const std::string canonical = CanonicalizeQuery(query);

  uint64_t max_rows =
      static_cast<uint64_t>(request.GetInt("max_rows",
                                           static_cast<int64_t>(
                                               options_.max_rows)));
  if (max_rows > options_.max_rows) max_rows = options_.max_rows;

  // The cache key covers exactly what determines the answer bytes; see
  // result_cache.h. A stream's unit watermark plays the role the dataset
  // generation plays: every ingest advances it, so stale windowed
  // answers can never be served (the ingest-time purge is belt and
  // braces on top).
  stream::StreamWindowInfo window;
  if (is_stream) window = stream->ingestor->ResolveWindow(query.window_units);
  const auto cache_key = [&] {
    return name + (is_stream ? "@stream:" : "@") +
           std::to_string(is_stream ? window.unit_watermark
                                    : entry.generation) +
           '|' + trace->strategy + "|rows=" + std::to_string(max_rows) + '|' +
           canonical;
  };

  auto answer = [&] {
    obs::ScopedPhase phase(&trace->phases, &trace->tracer, "cache");
    return cache_.Get(cache_key());
  }();
  bool cached = answer != nullptr;
  // How this answer was obtained: a result-cache "hit", an
  // "incremental-refresh" riding a maintained mining state, or a "cold"
  // computation from the raw transactions.
  trace->source = cached ? "hit" : "cold";
  if (!cached) {
    // Miss: admit, run, populate.
    uint64_t deadline_ms = static_cast<uint64_t>(
        request.GetInt("deadline_ms",
                       static_cast<int64_t>(options_.default_deadline_ms)));
    if (deadline_ms == 0 || deadline_ms > options_.max_deadline_ms) {
      deadline_ms = options_.max_deadline_ms;
    }
    CancelToken cancel;
    cancel.SetDeadline(std::chrono::milliseconds(deadline_ms));

    auto permit = [&] {
      obs::ScopedPhase phase(&trace->phases, &trace->tracer, "admission");
      return admission_.Admit(&cancel);
    }();
    if (!permit.ok()) {
      if (permit.status().code() == StatusCode::kDeadlineExceeded) {
        metrics_->Add("server.admission.timeouts");
        return ErrorObject("TIMEOUT", permit.status().ToString());
      }
      const bool draining =
          permit.status().message().find("shutting down") !=
          std::string::npos;
      metrics_->Add(draining ? "server.admission.drained"
                             : "server.admission.rejected");
      return ErrorObject(draining ? "SHUTTING_DOWN" : "REJECTED",
                         permit.status().ToString());
    }

    PlanOptions plan_options;
    plan_options.threads = options_.threads;
    plan_options.cancel = &cancel;
    obs::MetricsRegistry query_metrics;
    plan_options.metrics = &query_metrics;
    // The executor's lattice/level/Jmax events nest under this query's
    // execute span in the flight recorder.
    plan_options.tracer = &trace->tracer;

    Result<CfqPlan> plan = CfqPlan{};
    if (*strategy == ServedStrategy::kOptimized) {
      obs::ScopedPhase phase(&trace->phases, &trace->tracer, "plan");
      plan = BuildPlan(query, plan_options);
    }
    if (!plan.ok()) {
      return ErrorObject("PLAN_ERROR", plan.status().ToString());
    }

    // The catalog pre-built the vertical index, so execution treats the
    // shared database as read-only despite the non-const signature.
    TransactionDb* db =
        is_stream ? nullptr : const_cast<TransactionDb*>(&entry.data->db);
    auto result = [&]() -> Result<CfqResult> {
      obs::ScopedPhase phase(&trace->phases, &trace->tracer, "execute");
      switch (*strategy) {
        case ServedStrategy::kOptimized:
          return ExecutePlan(db, entry.data->catalog, plan.value());
        case ServedStrategy::kCap:
          return ExecuteCapOneVar(db, entry.data->catalog, query,
                                  plan_options);
        case ServedStrategy::kApriori:
          return ExecuteAprioriPlus(db, entry.data->catalog, query,
                                    plan_options);
        case ServedStrategy::kFpGrowth:
          return ExecuteFpGrowth(db, entry.data->catalog, query,
                                 plan_options);
        case ServedStrategy::kIncremental:
          return RunIncremental(name, entry, query, &cancel, &query_metrics,
                                trace, &trace->source);
        case ServedStrategy::kStream: {
          stream::StreamQueryOptions stream_options;
          stream_options.tracer = &trace->tracer;
          stream_options.metrics = &query_metrics;
          stream_options.cancel = &cancel;
          // Query holds the reader lock, so `window` comes back exact
          // even if an ingest slipped in since the lookup above.
          return stream->ingestor->Query(*stream->attrs, query,
                                         stream_options, &window);
        }
      }
      return Status::Internal("unreachable");
    }();
    if (!result.ok()) {
      if (result.status().code() == StatusCode::kDeadlineExceeded) {
        metrics_->Add("server.query.timeouts");
        return ErrorObject("TIMEOUT", result.status().ToString());
      }
      return ErrorObject(result.status().code() == StatusCode::kNotFound
                             ? "PLAN_ERROR"
                             : "EXEC_ERROR",
                         result.status().ToString());
    }

    // Finer attribution inside the execute phase. Dotted names mark
    // them as sub-phases of `execute`.
    if (*strategy == ServedStrategy::kIncremental) {
      // From the per-query registry the incremental stack observed into.
      const auto sub_phase = [&](const char* phase_name, const char* metric) {
        const double seconds = query_metrics.histogram(metric).sum();
        if (seconds > 0) trace->phases.Add(phase_name, seconds);
      };
      sub_phase("execute.build", "incr.build_seconds");
      sub_phase("execute.refresh", "incr.refresh_seconds");
      sub_phase("execute.refresh.recount", "incr.delta.recount_seconds");
      sub_phase("execute.refresh.expand", "incr.expand.count_seconds");
      sub_phase("execute.refresh.partition", "incr.level.partition_seconds");
      sub_phase("execute.refresh.candidate_gen",
                "incr.level.candidate_gen_seconds");
      sub_phase("execute.answer", "incr.answer_seconds");
      sub_phase("execute.answer.filter", "incr.answer.filter_seconds");
      sub_phase("execute.answer.reduce", "incr.answer.reduce_seconds");
      sub_phase("execute.answer.audit", "incr.answer.audit_seconds");
      sub_phase("execute.answer.pair", "incr.answer.pair_seconds");
    } else {
      if (result->stats.mining_seconds > 0) {
        trace->phases.Add("execute.mine", result->stats.mining_seconds);
      }
      if (result->stats.pair_seconds > 0) {
        trace->phases.Add("execute.pair", result->stats.pair_seconds);
      }
    }

    obs::ScopedPhase render_phase(&trace->phases, &trace->tracer, "render");
    auto fresh = RenderAnswer(result.value(), max_rows, canonical);
    if (!is_stream) ExportMetrics(result->stats, &query_metrics);
    metrics_->MergeFrom(query_metrics);
    // A stream answer is keyed at the watermark it answered at.
    cache_.Put(cache_key(), fresh);
    answer = std::move(fresh);
    render_phase.End();
  }

  obs::ScopedPhase respond_phase(&trace->phases, &trace->tracer, "respond");
  trace->rows = answer->num_rows;
  JsonValue::Object response = AnswerResponse(*answer);
  response["dataset"] = name;
  response["strategy"] = trace->strategy;
  response["source"] = trace->source;
  response["cached"] = cached;
  if (!is_stream) {
    response["generation"] = static_cast<int64_t>(entry.generation);
    return response;
  }
  response["window_units"] = static_cast<int64_t>(query.window_units);
  response["unit"] = static_cast<int64_t>(window.unit_watermark);
  JsonValue::Object window_json;
  window_json["requested_units"] = static_cast<int64_t>(window.requested_units);
  window_json["covered_units"] = static_cast<int64_t>(window.covered_units);
  window_json["transactions"] = static_cast<int64_t>(window.transactions);
  window_json["eps"] = window.eps;
  window_json["exact"] = window.exact;
  response["window"] = std::move(window_json);
  return response;
}

Result<CfqResult> QueryService::RunIncremental(
    const std::string& name, const CatalogEntry& entry, const CfqQuery& query,
    const CancelToken* cancel, obs::MetricsRegistry* query_metrics,
    QueryTrace* trace, std::string* source) {
  // One maintained state serves both sides: mine the union of the two
  // domains at the lower of the two thresholds, then AnswerFromState
  // filters each side down (its requirements are exactly these bounds).
  const uint64_t state_minsup =
      std::min(query.min_support_s, query.min_support_t);
  Itemset domain = query.s_domain;
  domain.insert(domain.end(), query.t_domain.begin(), query.t_domain.end());
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());

  // A cached state is only usable if it covers the query's items — an
  // append can widen the item universe, which silently invalidates
  // every narrower state in the lineage.
  const auto covers =
      [&domain](const std::shared_ptr<const incremental::CachedState>& c) {
        return c != nullptr &&
               std::includes(c->state.domain.begin(), c->state.domain.end(),
                             domain.begin(), domain.end());
      };

  TransactionDb* db = const_cast<TransactionDb*>(&entry.data->db);
  ThreadPool pool(options_.threads);
  incremental::IncrOptions incr;
  incr.pool = &pool;
  incr.metrics = query_metrics;
  incr.cancel = cancel;
  incr.tracer = &trace->tracer;

  const incremental::MiningState* state = nullptr;
  std::shared_ptr<incremental::StateAnswerContext> ctx;
  // Keeps a cache hit's state alive / owns a freshly produced one.
  std::shared_ptr<const incremental::CachedState> hit =
      state_cache_.Get(name, entry.generation, state_minsup);
  incremental::MiningState owned;

  if (covers(hit)) {
    state = &hit->state;
    ctx = hit->ctx;
    *source = "incremental-refresh";
  } else {
    bool refreshed = false;
    auto ancestor =
        entry.log == nullptr
            ? nullptr
            : state_cache_.FindAncestor(name, *entry.log, entry.generation,
                                        state_minsup);
    if (covers(ancestor)) {
      // The delta span the ancestor must advance across. The defensive
      // size checks only fail if the cache and catalog disagree about
      // the lineage — then mining cold is correct, refreshing is not.
      auto span =
          entry.log->Between(ancestor->state.generation, entry.generation);
      if (span.has_value() &&
          ancestor->state.num_transactions == span->tid_begin &&
          db->num_transactions() == span->tid_end) {
        auto outcome = [&] {
          obs::TraceSpan refresh_span(&trace->tracer, "refresh");
          return incremental::RefreshMiningState(
              ancestor->state, db, span->tid_begin, span->tid_end,
              entry.generation, state_minsup, incr);
        }();
        if (!outcome.ok()) return outcome.status();
        owned = std::move(outcome.value().state);
        ctx = ancestor->ctx;
        refreshed = true;
        *source = "incremental-refresh";
      }
    }
    if (!refreshed) {
      auto built = [&] {
        obs::TraceSpan build_span(&trace->tracer, "build_state");
        return incremental::BuildMiningState(db, domain, state_minsup,
                                             entry.generation, incr);
      }();
      if (!built.ok()) return built.status();
      owned = std::move(built).value();
      ctx = state_cache_.ContextFor(name);
      *source = "cold";
    }
    state_cache_.Put(name, owned, ctx);
    state = &owned;
  }

  incremental::ReuseStats reuse;
  incremental::StateAnswerOptions answer_options;
  answer_options.ctx = ctx.get();
  answer_options.reuse = &reuse;
  answer_options.metrics = query_metrics;
  answer_options.cancel = cancel;
  answer_options.tracer = &trace->tracer;
  obs::TraceSpan answer_span(&trace->tracer, "answer");
  return incremental::AnswerFromState(*state, entry.data->catalog, query,
                                      answer_options);
}

JsonValue::Object QueryService::StatsJson() {
  JsonValue::Object cache;
  cache["hits"] = static_cast<int64_t>(cache_.hits());
  cache["misses"] = static_cast<int64_t>(cache_.misses());
  cache["evictions"] = static_cast<int64_t>(cache_.evictions());
  cache["size"] = static_cast<int64_t>(cache_.size());
  cache["capacity"] = static_cast<int64_t>(cache_.capacity());

  JsonValue::Object admission;
  admission["active"] = static_cast<int64_t>(admission_.active());
  admission["queued"] = static_cast<int64_t>(admission_.queued());
  admission["rejected_total"] =
      static_cast<int64_t>(admission_.rejected_total());
  admission["max_concurrent"] =
      static_cast<int64_t>(admission_.max_concurrent());
  admission["max_queued"] = static_cast<int64_t>(admission_.max_queued());

  JsonValue::Object state_cache;
  state_cache["hits"] = static_cast<int64_t>(state_cache_.hits());
  state_cache["misses"] = static_cast<int64_t>(state_cache_.misses());
  state_cache["evictions"] = static_cast<int64_t>(state_cache_.evictions());
  state_cache["size"] = static_cast<int64_t>(state_cache_.size());
  state_cache["capacity"] = static_cast<int64_t>(state_cache_.capacity());

  const obs::FlightRecorderSummary recorder = flight_recorder_.Summary();
  JsonValue::Object flight;
  flight["recorded_total"] = static_cast<int64_t>(recorder.recorded_total);
  flight["slow_total"] = static_cast<int64_t>(recorder.slow_total);
  flight["recent_size"] = static_cast<int64_t>(recorder.recent_size);
  flight["slow_size"] = static_cast<int64_t>(recorder.slow_size);
  flight["slow_threshold_seconds"] = recorder.slow_threshold_seconds;

  // The build that is serving: configure-time git describe and build
  // type plus the runtime-dispatched counting kernel, so any scraped
  // stats snapshot identifies the binary it came from.
  JsonValue::Object build;
  build["git_describe"] = std::string(BuildGitDescribe());
  build["build_type"] = std::string(BuildType());
  build["simd_kernel"] = std::string(simd::KernelName(simd::ActiveKernel()));

  JsonValue::Object audit;
  audit["enabled"] = audit_log_ != nullptr;
  if (audit_log_ != nullptr) {
    audit["appended"] = static_cast<int64_t>(audit_log_->appended());
    audit["rotations"] = static_cast<int64_t>(audit_log_->rotations());
    audit["errors"] = static_cast<int64_t>(audit_log_->errors());
    audit["current_path"] = audit_log_->current_path();
  }

  JsonValue::Array streams;
  for (const StreamSummary& summary : StreamSummaries()) {
    JsonValue::Object row;
    row["name"] = summary.name;
    row["units"] = static_cast<int64_t>(summary.watermark.units);
    row["batches"] = static_cast<int64_t>(summary.watermark.batches);
    row["transactions"] =
        static_cast<int64_t>(summary.watermark.transactions);
    row["tilts"] = static_cast<int64_t>(summary.watermark.tilts);
    row["dropped_tails"] =
        static_cast<int64_t>(summary.watermark.dropped_tails);
    row["tree_nodes"] = static_cast<int64_t>(summary.watermark.tree_nodes);
    row["last_tilt_unit"] = summary.watermark.last_tilt_unit;
    row["eps"] = summary.eps;
    row["ttw"] = summary.ttw;
    streams.emplace_back(std::move(row));
  }

  JsonValue::Object stats;
  stats["cache"] = std::move(cache);
  stats["admission"] = std::move(admission);
  stats["state_cache"] = std::move(state_cache);
  stats["streams"] = std::move(streams);
  stats["flight_recorder"] = std::move(flight);
  stats["build"] = std::move(build);
  stats["audit"] = std::move(audit);
  stats["datasets"] = static_cast<int64_t>(catalog_.size());
  stats["max_generation"] = static_cast<int64_t>(catalog_.max_generation());
  stats["uptime_seconds"] = static_cast<int64_t>(uptime_seconds());
  stats["simd_kernel"] = std::string(simd::KernelName(simd::ActiveKernel()));
  return stats;
}

JsonValue QueryService::HandleStats() {
  JsonValue::Object response = StatsJson();
  response["status"] = "OK";

  // The same registry the daemon flushes at drain, in the same
  // Prometheus text the rest of the toolchain exports. The simd.*
  // families are refreshed first so the snapshot reflects counting
  // work up to this request.
  obs::ExportSimdMetrics(metrics_);
  std::ostringstream prometheus;
  obs::WritePrometheus(*metrics_, prometheus);
  response["prometheus"] = prometheus.str();
  return response;
}

JsonValue QueryService::HandleDumpTrace() {
  std::ostringstream os;
  flight_recorder_.WriteChromeTrace(os);
  JsonValue::Object response;
  response["status"] = "OK";
  response["traces"] =
      static_cast<int64_t>(flight_recorder_.Snapshot().size());
  response["chrome_trace"] = os.str();
  return response;
}

HttpResponse QueryService::HandleHttp(const std::string& path) {
  metrics_->Add("server.http.requests");
  HttpResponse response;
  if (path == "/healthz") {
    // First token stays "ok"/"draining" (probes grep for it); the rest
    // of the line is liveness context for humans and smoke tests,
    // including the stream watermark (summed over live streams).
    uint64_t stream_units = 0, stream_nodes = 0;
    size_t stream_count = 0;
    for (const StreamSummary& summary : StreamSummaries()) {
      ++stream_count;
      stream_units += summary.watermark.units;
      stream_nodes += summary.watermark.tree_nodes;
    }
    const std::string detail =
        " uptime_seconds=" + std::to_string(uptime_seconds()) +
        " datasets=" + std::to_string(catalog_.size()) +
        " max_generation=" + std::to_string(catalog_.max_generation()) +
        " streams=" + std::to_string(stream_count) +
        " stream_units=" + std::to_string(stream_units) +
        " stream_nodes=" + std::to_string(stream_nodes);
    if (admission_.shutting_down()) {
      response.status = 503;
      response.body = "draining" + detail + "\n";
    } else {
      response.body = "ok" + detail + "\n";
    }
    return response;
  }
  if (path == "/metrics") {
    obs::ExportSimdMetrics(metrics_);
    std::ostringstream os;
    obs::WritePrometheus(*metrics_, os);
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = os.str();
    return response;
  }
  if (path == "/stats") {
    JsonValue::Object stats = StatsJson();
    stats["status"] = "OK";
    response.content_type = "application/json";
    response.body = JsonValue(std::move(stats)).Write() + "\n";
    return response;
  }
  if (path == "/trace") {
    std::ostringstream os;
    flight_recorder_.WriteChromeTrace(os);
    response.content_type = "application/json";
    response.body = os.str();
    return response;
  }
  response.status = 404;
  response.body = "not found (try /metrics, /healthz, /stats, /trace)\n";
  return response;
}

}  // namespace cfq::server
