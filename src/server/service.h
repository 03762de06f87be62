// QueryService: the daemon's protocol brain, independent of sockets.
//
// Handle() takes one decoded request object and returns one response
// object; the TCP layer (server.h) only frames lines and moves bytes.
// Keeping the service transport-free is what lets tests drive the full
// parse -> canonicalize -> cache -> admit -> plan -> execute path
// in-process, without ports.
//
// Commands (see docs/SERVING.md for the full grammar):
//   ping | load | gen | save | drop | datasets | append | ingest |
//   query | stats | shutdown
//
// Every response carries "status": OK, or one of PARSE_ERROR,
// PLAN_ERROR, EXEC_ERROR, TIMEOUT, REJECTED, NOT_FOUND, BAD_REQUEST,
// SHUTTING_DOWN, plus "error" text on failures.

#ifndef CFQ_SERVER_SERVICE_H_
#define CFQ_SERVER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "core/executor.h"
#include "incremental/state_cache.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "server/admission.h"
#include "server/audit_log.h"
#include "server/catalog.h"
#include "server/http.h"
#include "server/json.h"
#include "server/result_cache.h"
#include "stream/ingestor.h"

namespace cfq::server {

struct ServiceOptions {
  // Per-query mining parallelism (PlanOptions::threads; 0 = hardware).
  size_t threads = 1;
  // Admission control: concurrent executing queries / waiting queries.
  size_t max_concurrent = 4;
  size_t max_queued = 16;
  // Result cache entries (0 disables caching).
  size_t cache_capacity = 64;
  // Deadline applied when the request names none / upper bound on any
  // requested deadline.
  uint64_t default_deadline_ms = 60000;
  uint64_t max_deadline_ms = 600000;
  // Default/upper bound for rows returned by one `query` response.
  uint64_t max_rows = 100000;
  // Maintained mining states kept per daemon for strategy=incremental
  // (0 disables the state cache; every incremental query mines cold).
  size_t state_cache_capacity = 8;
  // Flight recorder retention: the last N completed queries plus the
  // last N queries at or over the slow threshold (0 disables a ring).
  size_t flight_recorder_recent = 32;
  size_t flight_recorder_slow = 32;
  double slow_query_threshold_seconds = 1.0;
  // Per-query tracer ring capacity (events retained per trace). The
  // ring grows with the events a query records, up to this bound.
  size_t query_trace_capacity = 4096;
  // Workload capture: when non-empty, every served query (success or
  // error) is appended to rotating audit-*.jsonl files in this
  // directory (server/audit_log.h); cfq_replay re-drives them.
  std::string audit_log_dir;
  uint64_t audit_rotate_mb = 64;
  // Streaming defaults, used when the creating `ingest` request names
  // no override (docs/STREAMING.md): tilted-time-window shape
  // (TtwDefinition::Parse), approximation budget, item universe and the
  // demo-catalog seed (MakeDemoCatalog — matching `gen` so windowed
  // answers are comparable to offline ones).
  std::string stream_ttw = "4,24,7";
  double stream_eps = 0.05;
  uint64_t stream_num_items = 1000;
  uint64_t stream_seed = 42;
};

class QueryService {
 public:
  // `metrics` (not owned, required) is the daemon-lifetime registry:
  // cache and admission counters, per-query mining stats merged in,
  // and the source of the STATS command's Prometheus text.
  QueryService(const ServiceOptions& options, obs::MetricsRegistry* metrics);

  // Decodes and executes one request. Never throws; malformed requests
  // get BAD_REQUEST responses.
  JsonValue Handle(const JsonValue& request);

  // True once a `shutdown` command was served; the transport layer
  // polls this to start the drain.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  // Stops admitting new queries (drain phase 1); in-flight queries
  // finish normally. Also flushes the audit log, so every drain path
  // (shutdown command, SIGTERM, fatal accept error) durably lands the
  // records captured so far.
  void BeginDrain() {
    admission_.Shutdown();
    if (audit_log_ != nullptr) audit_log_->Flush();
  }

  // Serves the telemetry listener: GET /metrics (live Prometheus
  // text), /healthz (503 while draining), /stats (JSON summaries),
  // /trace (the flight recorder as a Chrome trace).
  HttpResponse HandleHttp(const std::string& path);

  // One live stream: the ingestor plus the demo attribute catalog its
  // windowed queries evaluate against (shared_ptr so queries keep both
  // alive across a concurrent drop).
  struct StreamEntry {
    std::shared_ptr<stream::StreamIngestor> ingestor;
    std::shared_ptr<const ItemCatalog> attrs;
    uint64_t seed = 0;
  };

  // Snapshot of every stream's watermark, for /stats and the daemon's
  // drain-time stream summary.
  struct StreamSummary {
    std::string name;
    stream::StreamIngestor::Watermark watermark;
    double eps = 0;
    std::string ttw;
  };
  std::vector<StreamSummary> StreamSummaries() const;

  DatasetCatalog& catalog() { return catalog_; }
  ResultCache& cache() { return cache_; }
  incremental::MiningStateCache& state_cache() { return state_cache_; }
  AdmissionController& admission() { return admission_; }
  obs::FlightRecorder& flight_recorder() { return flight_recorder_; }
  obs::MetricsRegistry* metrics() { return metrics_; }
  const ServiceOptions& options() const { return options_; }
  // Null unless ServiceOptions::audit_log_dir was set and Open succeeded.
  AuditLog* audit_log() { return audit_log_.get(); }

  // Whole seconds since this service was constructed (daemon start).
  uint64_t uptime_seconds() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - started_)
            .count());
  }

 private:
  struct QueryTrace;  // Per-query tracer + phase accumulator (service.cc).

  JsonValue HandleLoad(const JsonValue& request);
  JsonValue HandleGen(const JsonValue& request);
  JsonValue HandleSave(const JsonValue& request);
  JsonValue HandleDrop(const JsonValue& request);
  JsonValue HandleDatasets();
  JsonValue HandleAppend(const JsonValue& request);
  JsonValue HandleIngest(const JsonValue& request);
  JsonValue HandleQuery(const JsonValue& request);
  // The one query pipeline: parse, resolve the source (a catalog
  // dataset, or for strategy=stream a live stream's pattern tree),
  // canonicalize, cache, admit, run, render, respond.
  JsonValue::Object ExecuteQuery(const JsonValue& request, QueryTrace* trace);
  JsonValue HandleStats();
  JsonValue HandleDumpTrace();

  // The cache/admission/state-cache/flight-recorder summaries shared
  // by the `stats` command and GET /stats.
  JsonValue::Object StatsJson();

  // Serves strategy=incremental: resolves a MiningState for the
  // entry's generation (state-cache hit, FUP refresh from a lineage
  // ancestor, or cold build), answers from it, and reports which of
  // those happened via `source`.
  Result<CfqResult> RunIncremental(const std::string& name,
                                   const CatalogEntry& entry,
                                   const CfqQuery& query,
                                   const CancelToken* cancel,
                                   obs::MetricsRegistry* query_metrics,
                                   QueryTrace* trace, std::string* source);

  // Resolves `name` to a live stream, or null when none exists.
  std::shared_ptr<const StreamEntry> FindStream(const std::string& name) const;

  const ServiceOptions options_;
  obs::MetricsRegistry* const metrics_;
  DatasetCatalog catalog_;
  mutable std::mutex streams_mu_;
  std::map<std::string, std::shared_ptr<const StreamEntry>> streams_;
  ResultCache cache_;
  incremental::MiningStateCache state_cache_;
  AdmissionController admission_;
  obs::FlightRecorder flight_recorder_;
  std::unique_ptr<AuditLog> audit_log_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::atomic<bool> shutdown_requested_{false};
};

// Renders a finished result into the cacheable answer: protocol rows
// "s_items;t_items;s_support;t_support" (row-major, capped at
// `max_rows`) encoded once as a JSON array, the pre-cap pair count, and
// the FNV-1a digest (AnswerDigest, core/answer_rows.h) cache hits
// return byte-for-byte. Each side set is formatted at most once, and
// only if it appears in an emitted row.
std::shared_ptr<CachedAnswer> RenderAnswer(const CfqResult& result,
                                           uint64_t max_rows,
                                           const std::string& canonical);

// The answer's part of a `query` response: status, counts, digest, and
// the pre-encoded rows spliced in without a per-row copy.
JsonValue::Object AnswerResponse(const CachedAnswer& answer);

}  // namespace cfq::server

#endif  // CFQ_SERVER_SERVICE_H_
