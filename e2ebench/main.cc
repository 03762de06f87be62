// e2ebench: end-to-end load generator for the CFQ daemon stack.
//
//   e2ebench --workload=NAME --seed=N --seconds=S --trace=0|1
//            --daemon=PATH --out=DIR
//   e2ebench --selftest
//
// Starts cfq_served, sets it up (datasets generated and indexed, a
// stream created, connections open), drives the workload's seeded
// request sequence over loopback TCP for at least --seconds, checks
// every answer, and prints the workload's metrics; the last stdout line
// is one JSON object {correct, attempted, failed, metrics}. --trace=1
// runs an untraced loop, then a traced loop that records spans, then an
// in-process pass that times each repo module's public entry points
// directly; it reports the per-layer metrics. run.py builds this binary
// and wraps it.

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_stats.h"
#include "common/version.h"
#include "constraints/eval.h"
#include "core/cfq.h"
#include "core/executor.h"
#include "core/optimizer.h"
#include "daemon.h"
#include "obs/digest.h"
#include "parser/parser.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/json.h"
#include "spans.h"
#include "stream/ingestor.h"
#include "workload.h"

namespace e2e {
namespace {

using cfq::server::Client;
using cfq::server::JsonValue;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------
// Samples and the checks applied to them.

struct Sample {
  Kind kind = Kind::kQuery;
  int tmpl = -1;
  int strategy = -1;
  int64_t max_rows = 0;
  int64_t window = 0;
  bool probe = false;   // Part of a cold workload's probe block.
  bool to_copy = false;  // Append to the probe copy of the dataset.
  int epoch = 0;        // Stream epoch: resets of the stream before it.
  bool setup = false;   // Issued during set-up.
  double latency = 0;   // Send to response line fully read.
  size_t bytes = 0;     // Response line, newline included.
  bool transport_error = false;
  std::string status;
  std::string error;
  bool cached = false;
  std::string digest;
  int64_t num_pairs = -1;
  int64_t rows = 0;
  bool truncated = false;
  int64_t generation = -1;
  int64_t unit = -1;          // Ingest: the unit the batch became.
  int64_t watermark = -1;     // Stream query: units ingested when answered.
  double elapsed = 0;         // Server-reported elapsed_seconds.
  std::map<std::string, double> phases;
  int64_t mined_patterns = 0;
  int64_t tree_nodes = 0;
  Transactions transactions;  // Appends and ingests, for the mirrors.
  // Traced run only.
  double client_seconds = 0;  // Encode + round trip + decode.
  double digest_seconds = 0;
  bool digest_recomputed_ok = true;
};

// Cold workloads run at least this many whole rounds per loop, and
// served_mix at least this many whole epochs.
constexpr int kMinRounds = 3;
constexpr int kMinEpochs = 2;
// Set-ups per run; setup_s is their median. The first kSetupReps run
// before the timed loops (the last one is kept and measured); the other
// kLateSetupReps run after them, so the samples span the run rather than
// one moment of the host's load.
constexpr int kSetupReps = 8;
constexpr int kLateSetupReps = 7;

bool CountsAsFailure(const Sample& s) {
  return s.transport_error || s.status != "OK";
}

// A timed request of a cold workload answered from the cache: the run
// no longer measures what it claims to, so it is aborted.
bool ColdViolation(const WorkloadSpec& spec, const Sample& s) {
  return spec.cold && !s.probe && !s.setup && s.kind == Kind::kQuery &&
         s.status == "OK" && s.cached;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Tally TallySamples(const std::vector<Sample>& samples) {
  Tally t;
  for (const Sample& s : samples) {
    if (s.setup) continue;
    ++t.attempted;
    if (CountsAsFailure(s)) ++t.failed;
  }
  return t;
}

// ---------------------------------------------------------------------
// Sending one request.

const std::vector<std::string> kPhaseOrder = {
    "catalog", "parse", "cache", "admission", "plan", "execute", "render"};

std::string PhaseLayer(const std::string& phase, Kind kind,
                       const std::string& strategy) {
  if (kind == Kind::kStreamQuery &&
      phase.rfind("execute", 0) == 0) {
    return "stream";
  }
  if (phase == "parse") return "parser";
  if (phase == "plan" || phase == "execute" || phase == "execute.pair") {
    return "core";
  }
  if (phase == "execute.mine") {
    return strategy == "fpgrowth" ? "fpgrowth" : "mining";
  }
  return "server";
}

// Lays the response's phase breakdown out as synthetic spans inside the
// call span: the server's query span centred in the round trip, its
// undotted phases back to back, execute.mine/.pair inside execute.
void AddServerSpans(SpanLog* log, const Sample& s, const std::string& strategy,
                    int call_span, int64_t t0, int64_t t1, int64_t request,
                    int lane) {
  const int64_t server_ns = static_cast<int64_t>(s.elapsed * 1e9);
  const int64_t start = t0 + std::max<int64_t>(0, (t1 - t0 - server_ns) / 2);
  const int root = log->Add(s.kind == Kind::kIngest ? "stream.ingest"
                                                    : "server.query",
                            s.kind == Kind::kIngest ? "stream" : "server",
                            start, start + server_ns, call_span, request,
                            lane);
  int64_t cursor = start;
  std::vector<std::string> order = kPhaseOrder;
  for (const auto& [name, seconds] : s.phases) {
    if (name.find('.') == std::string::npos &&
        std::find(order.begin(), order.end(), name) == order.end()) {
      order.push_back(name);
    }
  }
  for (const std::string& name : order) {
    auto it = s.phases.find(name);
    if (it == s.phases.end()) continue;
    const int64_t ns = static_cast<int64_t>(it->second * 1e9);
    const int phase = log->Add(name, PhaseLayer(name, s.kind, strategy),
                               cursor, cursor + ns, root, request, lane);
    if (name == "execute") {
      int64_t inner = cursor;
      for (const char* sub : {"execute.mine", "execute.pair"}) {
        auto sub_it = s.phases.find(sub);
        if (sub_it == s.phases.end()) continue;
        const int64_t sub_ns = static_cast<int64_t>(sub_it->second * 1e9);
        log->Add(sub, PhaseLayer(sub, s.kind, strategy), inner,
                 inner + sub_ns, phase, request, lane);
        inner += sub_ns;
      }
    }
    cursor += ns;
  }
}

Sample Send(Client* client, const WorkloadSpec& spec, const Request& req,
            int conn, SpanLog* spans, int64_t request_id) {
  Sample s;
  s.kind = req.kind;
  s.tmpl = req.tmpl;
  s.strategy = req.strategy;
  s.max_rows = req.max_rows;
  s.window = req.window;
  s.to_copy = req.to_copy;
  if (req.kind == Kind::kAppend || req.kind == Kind::kIngest) {
    s.transactions = req.transactions;
  }

  const int64_t t_enc = NowNs();
  const std::string line = RequestJson(spec, req).Write();
  const auto t0 = Clock::now();
  auto raw = client->CallRaw(line);
  const auto t1 = Clock::now();
  s.latency = std::chrono::duration<double>(t1 - t0).count();
  const int64_t t_dec = NowNs();
  if (!raw.ok()) {
    s.transport_error = true;
    s.status = "TRANSPORT";
    s.error = raw.status().ToString();
    return s;
  }
  s.bytes = raw->size() + 1;
  auto parsed = JsonValue::Parse(raw.value(), 64);
  const int64_t t_end = NowNs();
  if (!parsed.ok() || !parsed->is_object()) {
    s.transport_error = true;
    s.status = "TRANSPORT";
    s.error = "undecodable response";
    return s;
  }
  const JsonValue& r = parsed.value();
  s.status = r.GetString("status", "MISSING");
  s.error = r.GetString("error", "");
  s.cached = r.GetBool("cached", false);
  s.digest = r.GetString("digest", "");
  s.num_pairs = r.GetInt("num_pairs", -1);
  s.truncated = r.GetBool("truncated", false);
  s.generation = r.GetInt("generation", -1);
  s.elapsed = r.GetNumber("elapsed_seconds", 0);
  if (req.kind == Kind::kIngest) {
    s.unit = r.GetInt("unit", -1);
    s.mined_patterns = r.GetInt("mined_patterns", 0);
    s.tree_nodes = r.GetInt("tree_nodes", 0);
  }
  if (req.kind == Kind::kStreamQuery) s.watermark = r.GetInt("unit", -1);
  const JsonValue* rows = r.Find("rows");
  if (rows != nullptr && rows->is_array()) {
    s.rows = static_cast<int64_t>(rows->as_array().size());
  }
  if (const JsonValue* trace = r.Find("trace"); trace != nullptr) {
    if (const JsonValue* phases = trace->Find("phases");
        phases != nullptr && phases->is_object()) {
      for (const auto& [name, v] : phases->as_object()) {
        if (v.is_number()) s.phases[name] = v.as_number();
      }
    }
  }
  if (spans == nullptr) return s;

  // Traced: recompute the digest over the rendered rows client-side
  // (obs::RowsDigestHex) and record the client-side spans.
  int64_t t_digest_end = t_end;
  if (rows != nullptr && rows->is_array() && !s.digest.empty()) {
    std::vector<std::string> texts;
    texts.reserve(rows->as_array().size());
    for (const JsonValue& row : rows->as_array()) {
      if (row.is_string()) texts.push_back(row.as_string());
    }
    const int64_t d0 = NowNs();
    const std::string digest = cfq::obs::RowsDigestHex(texts);
    t_digest_end = NowNs();
    s.digest_seconds = static_cast<double>(t_digest_end - d0) * 1e-9;
    s.digest_recomputed_ok = digest == s.digest;
  }
  s.client_seconds = static_cast<double>(t_end - t_enc) * 1e-9;
  const int64_t t0_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t0.time_since_epoch())
          .count();
  const int64_t t1_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t1.time_since_epoch())
          .count();
  const int root = spans->Add(std::string("request.") + KindName(req.kind),
                              "client", t_enc, t_digest_end, -1, request_id,
                              conn);
  spans->Add("json.write", "server", t_enc, t0_ns, root, request_id, conn);
  const int call =
      spans->Add("transport", "server", t0_ns, t1_ns, root, request_id, conn);
  const std::string strategy =
      req.strategy >= 0 ? spec.strategies[req.strategy] : "stream";
  if (s.elapsed > 0) {
    AddServerSpans(spans, s, strategy, call, t0_ns, t1_ns, request_id, conn);
  }
  spans->Add("json.parse", "server", t_dec, t_end, root, request_id, conn);
  if (t_digest_end > t_end) {
    spans->Add("obs.digest", "obs", t_end, t_digest_end, root, request_id,
               conn);
  }
  return s;
}

// ---------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string out = ".";
  bool selftest = false;
};

bool ParseOptions(int argc, char** argv, Options* o, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string key = arg, value;
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (key != "--selftest") {
      if (i + 1 >= argc) {
        *error = key + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    if (key == "--workload") o->workload = value;
    else if (key == "--seed") o->seed = std::stoull(value);
    else if (key == "--seconds") o->seconds = std::stod(value);
    else if (key == "--trace") o->trace = value == "1";
    else if (key == "--daemon") o->daemon = value;
    else if (key == "--out") o->out = value;
    else if (key == "--selftest") o->selftest = true;
    else {
      *error = "unknown flag '" + key + "'";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// In-process mirrors: the same data the daemon holds, for reference
// answers and for timing the modules directly.

cfq::Result<cfq::Dataset> GenerateDataset(const GenSpec& gen) {
  cfq::QuestParams params;
  params.num_transactions = static_cast<uint64_t>(gen.num_transactions);
  params.num_items = static_cast<uint64_t>(gen.num_items);
  params.num_patterns = static_cast<uint64_t>(gen.num_patterns);
  params.seed = static_cast<uint64_t>(gen.seed);
  cfq::server::DatasetCatalog catalog;
  auto generation = catalog.Generate(gen.dataset, params);
  if (!generation.ok()) return generation.status();
  auto entry = catalog.Get(gen.dataset);
  if (!entry.ok()) return entry.status();
  return *entry->data;
}

JsonValue GenRequest(const GenSpec& gen, const std::string& dataset) {
  JsonValue::Object o;
  o["cmd"] = "gen";
  o["dataset"] = dataset;
  o["num_transactions"] = gen.num_transactions;
  o["num_items"] = gen.num_items;
  o["num_patterns"] = gen.num_patterns;
  o["seed"] = gen.seed;
  return o;
}

cfq::Result<cfq::CfqQuery> ParseWithDomains(const std::string& text,
                                            size_t num_items) {
  auto parsed = cfq::ParseCfq(text);
  if (!parsed.ok()) return parsed.status();
  cfq::CfqQuery q = std::move(parsed).value();
  for (cfq::ItemId i = 0; i < num_items; ++i) {
    q.s_domain.push_back(i);
    q.t_domain.push_back(i);
  }
  return q;
}

int64_t PairCount(const cfq::CfqResult& r) {
  return r.cross_product
             ? static_cast<int64_t>(r.s_sets.size() * r.t_sets.size())
             : static_cast<int64_t>(r.pairs.size());
}

cfq::Result<cfq::CfqResult> RunStrategy(const std::string& strategy,
                                        cfq::Dataset* data,
                                        const cfq::CfqQuery& query,
                                        const cfq::PlanOptions& options) {
  if (strategy == "optimized") {
    auto plan = cfq::BuildPlan(query, options);
    if (!plan.ok()) return plan.status();
    return cfq::ExecutePlan(&data->db, data->catalog, plan.value());
  }
  if (strategy == "cap") {
    return cfq::ExecuteCapOneVar(&data->db, data->catalog, query, options);
  }
  if (strategy == "fpgrowth") {
    return cfq::ExecuteFpGrowth(&data->db, data->catalog, query, options);
  }
  return cfq::ExecuteAprioriPlus(&data->db, data->catalog, query, options);
}

cfq::Result<int64_t> ReferencePairs(cfq::Dataset* data,
                                    const std::string& text, size_t threads) {
  auto q = ParseWithDomains(text, data->db.num_items());
  if (!q.ok()) return q.status();
  cfq::PlanOptions options;
  options.threads = threads;
  auto r = cfq::ExecuteAprioriPlus(&data->db, data->catalog, q.value(),
                                   options);
  if (!r.ok()) return r.status();
  return PairCount(r.value());
}

struct StreamMirror {
  std::unique_ptr<cfq::stream::StreamIngestor> ingestor;
  std::unique_ptr<cfq::ItemCatalog> attrs;
};

cfq::Result<StreamMirror> MakeStreamMirror(const WorkloadSpec& spec) {
  auto ttw = cfq::stream::TtwDefinition::Parse("4,24,7");
  if (!ttw.ok()) return ttw.status();
  cfq::stream::StreamOptions options;
  options.ttw = std::move(ttw).value();
  options.eps = 0.05;
  options.num_items = static_cast<size_t>(spec.stream_items);
  auto attrs = cfq::server::MakeDemoCatalog(options.num_items, 42);
  if (!attrs.ok()) return attrs.status();
  StreamMirror m;
  m.ingestor = std::make_unique<cfq::stream::StreamIngestor>(options);
  m.attrs = std::make_unique<cfq::ItemCatalog>(std::move(attrs).value());
  return m;
}

std::vector<std::vector<cfq::ItemId>> ToBatch(const Transactions& t) {
  std::vector<std::vector<cfq::ItemId>> out;
  out.reserve(t.size());
  for (const auto& txn : t) out.emplace_back(txn.begin(), txn.end());
  return out;
}

// ---------------------------------------------------------------------
// The run.

class Run {
 public:
  Run(const Options& options, const WorkloadSpec& spec)
      : o_(options),
        spec_(spec),
        nproc_(Nproc()),
        connections_(spec.connections == 0 ? std::min<size_t>(nproc_, 16)
                                           : spec.connections),
        query_threads_(spec.query_threads == 0 ? nproc_
                                               : spec.query_threads) {}

  int Execute();

 private:
  bool Fail(const std::string& what) {
    errors_.push_back(what);
    return false;
  }
  bool SetUp();
  bool SetUpOnce(bool keep);
  bool CheckBuild();
  bool BaseReferences();
  bool ResetState(bool dataset);
  void TimedLoop(bool traced, uint64_t seed, std::vector<Sample>* out,
                 double* wall);
  bool ProbeBlock(const std::vector<Request>& answered, int block,
                  SpanLog* log, std::vector<Sample>* out);
  bool VerifyAnswers();
  void LayerPass();
  struct LayerClass;
  bool MeasureClass(int tmpl, int strategy, int lane, LayerClass* out);
  JsonValue StatsSnapshot();
  void Shutdown();
  int Report(int exit_code);
  JsonValue::Object TraceChecks();

  std::vector<Sample> AllSamples() const {
    std::vector<Sample> all = setup_samples_;
    all.insert(all.end(), untraced_.begin(), untraced_.end());
    all.insert(all.end(), traced_.begin(), traced_.end());
    return all;
  }

  const Options& o_;
  const WorkloadSpec& spec_;
  const size_t nproc_;
  const size_t connections_;
  const size_t query_threads_;
  Pools pools_;
  Daemon daemon_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<double> setup_seconds_;
  std::vector<double> gen_seconds_;
  int64_t base_generation_ = -1;
  // Generations that hold the set-up data: the first gen and every
  // regeneration before a served_mix epoch.
  std::set<int64_t> base_generations_;
  int stream_epoch_ = 0;  // Resets of the stream so far.
  int64_t cache_capacity_ = -1;  // The daemon's, from `stats`.
  std::vector<Sample> setup_samples_;
  std::vector<Sample> untraced_;
  std::vector<Sample> traced_;
  double untraced_wall_ = 0;
  double traced_wall_ = 0;
  int next_round_ = 0;
  std::unique_ptr<cfq::Dataset> base_;
  std::map<std::pair<int64_t, int>, int64_t> refs_;  // (generation, tmpl).
  double peak_rss_mb_ = 0;
  JsonValue stats_before_;  // Trace mode: cache counters around the loop.
  JsonValue stats_after_;
  SpanLog spans_;
  std::atomic<int64_t> next_request_{0};
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  bool aborted_ = false;
  std::string stages_;  // Cumulative wall seconds at each stage's end.
  // In-process layer pass results, per class.
  struct LayerClass {
    std::string label;
    double parse_s = 0, plan_s = 0, exec_s = 0, mine_s = 0, pair_s = 0;
    double pair_checks = 0, pairs = 0, side_sets = 0, sets_counted = 0;
    double useful_ratio = -1, pool_busy = 0, pool_idle = 0;
    double fp_nodes = -1, fp_trees = -1, pair_check_ns = -1;
  };
  std::vector<LayerClass> layer_classes_;
  std::vector<double> append_inproc_;
};

bool Run::SetUpOnce(bool keep) {
  clients_.clear();
  const auto t0 = Clock::now();
  if (auto s = daemon_.Start(
          o_.daemon,
          {"--threads=" + std::to_string(query_threads_)},
          o_.out + "/daemon.log");
      !s.ok()) {
    return Fail(s.ToString());
  }
  auto first = Client::Connect("127.0.0.1", daemon_.port());
  if (!first.ok()) return Fail("connect: " + first.status().ToString());
  clients_.push_back(std::make_unique<Client>(std::move(first).value()));

  const auto g0 = Clock::now();
  auto gen_response =
      clients_[0]->Call(GenRequest(spec_.gen, spec_.gen.dataset));
  gen_seconds_.push_back(
      std::chrono::duration<double>(Clock::now() - g0).count());
  if (!gen_response.ok() ||
      gen_response->GetString("status", "") != "OK") {
    return Fail("gen failed");
  }
  base_generation_ = gen_response->GetInt("generation", -1);
  base_generations_ = {base_generation_};

  for (const Request& ingest : SetupIngests(spec_, pools_)) {
    Sample s = Send(clients_[0].get(), spec_, ingest, 0, nullptr, -1);
    s.setup = true;
    if (CountsAsFailure(s)) return Fail("set-up ingest failed: " + s.error);
    if (keep) setup_samples_.push_back(std::move(s));
  }
  while (clients_.size() < connections_) {
    auto c = Client::Connect("127.0.0.1", daemon_.port());
    if (!c.ok()) return Fail("connect: " + c.status().ToString());
    clients_.push_back(std::make_unique<Client>(std::move(c).value()));
  }
  setup_seconds_.push_back(
      std::chrono::duration<double>(Clock::now() - t0).count());
  if (!keep) Shutdown();
  return true;
}

bool Run::SetUp() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!SetUpOnce(rep + 1 == kSetupReps)) return false;
  }
  return true;
}

void Run::Shutdown() {
  if (!clients_.empty()) {
    JsonValue::Object shutdown;
    shutdown["cmd"] = "shutdown";
    (void)clients_[0]->Call(JsonValue(shutdown));
  }
  clients_.clear();
  if (daemon_.Wait(30) != 0) notes_.push_back("daemon did not exit cleanly");
}

JsonValue Run::StatsSnapshot() {
  JsonValue::Object stats;
  stats["cmd"] = "stats";
  auto r = clients_[0]->Call(JsonValue(stats));
  return r.ok() ? r.value() : JsonValue();
}

bool Run::CheckBuild() {
  const std::string describe = cfq::BuildGitDescribe();
  if (describe.empty() || describe == "unknown") {
    return Fail("build identity is 'unknown'; results are not recorded");
  }
  const JsonValue stats = StatsSnapshot();
  if (const JsonValue* cache = stats.Find("cache"); cache != nullptr) {
    cache_capacity_ = cache->GetInt("capacity", -1);
  }
  const JsonValue* build = stats.Find("build");
  const std::string daemon_describe =
      build != nullptr ? build->GetString("git_describe", "") : "";
  if (daemon_describe != describe) {
    return Fail("daemon build '" + daemon_describe +
                "' differs from the benchmark's '" + describe + "'");
  }
  return true;
}

bool Run::BaseReferences() {
  auto data = GenerateDataset(spec_.gen);
  if (!data.ok()) return Fail("mirror gen: " + data.status().ToString());
  base_ = std::make_unique<cfq::Dataset>(std::move(data).value());
  for (size_t t = 0; t < spec_.templates.size(); ++t) {
    auto ref = ReferencePairs(base_.get(), spec_.templates[t], nproc_);
    if (!ref.ok()) return Fail("reference: " + ref.status().ToString());
    refs_[{base_generation_, static_cast<int>(t)}] = ref.value();
  }
  return true;
}

// Returns the daemon to its set-up state between timed parts, outside
// the timed wall: the stream dropped and re-ingested from the set-up
// batches (a new stream epoch) and, with `dataset`, the batch dataset
// regenerated.
bool Run::ResetState(bool dataset) {
  Client* client = clients_[0].get();
  if (dataset) {
    auto g = client->Call(GenRequest(spec_.gen, spec_.gen.dataset));
    if (!g.ok() || g->GetString("status", "") != "OK") {
      return Fail("regenerating the dataset failed");
    }
    base_generations_.insert(g->GetInt("generation", -1));
  }
  JsonValue::Object drop;
  drop["cmd"] = "drop";
  drop["dataset"] = spec_.stream;
  auto d = client->Call(JsonValue(drop));
  if (!d.ok() || d->GetString("status", "") != "OK") {
    return Fail("dropping the stream failed");
  }
  ++stream_epoch_;
  for (const Request& ingest : SetupIngests(spec_, pools_)) {
    const Sample s = Send(client, spec_, ingest, 0, nullptr, -1);
    if (CountsAsFailure(s)) return Fail("re-ingesting the stream: " + s.error);
  }
  return true;
}

void Run::TimedLoop(bool traced, uint64_t seed, std::vector<Sample>* out,
                    double* wall) {
  double timed = 0;
  std::vector<std::vector<Sample>> per_conn(connections_);
  std::vector<SpanLog> logs(connections_);
  std::atomic<bool> abort{false};
  auto send = [&](size_t c, const Request& req) {
    Sample s = Send(clients_[c].get(), spec_, req, static_cast<int>(c),
                    traced ? &logs[c] : nullptr, next_request_++);
    s.epoch = stream_epoch_;
    const bool stop = s.transport_error || ColdViolation(spec_, s);
    per_conn[c].push_back(std::move(s));
    if (stop) abort = true;
    return !stop;
  };
  if (spec_.cold) {
    // Whole rounds (at least kMinRounds, so every class has a median of
    // three), so every seed measures the same grid; probe blocks are not
    // part of the timed wall.
    int block = 0;
    const int first_round = next_round_;
    while ((timed < o_.seconds || next_round_ - first_round < kMinRounds) &&
           !abort) {
      const std::vector<Request> round = ColdRound(spec_, seed, next_round_);
      for (size_t first = 0; first < round.size() && !abort;
           first += spec_.probe_every) {
        const std::vector<Request> part(
            round.begin() + first,
            round.begin() +
                std::min(round.size(), first + spec_.probe_every));
        const auto t0 = Clock::now();
        for (const Request& req : part) {
          if (!send(0, req)) break;
        }
        timed += std::chrono::duration<double>(Clock::now() - t0).count();
        if (!abort &&
            !ProbeBlock(part, block++, traced ? &logs[0] : nullptr,
                        &per_conn[0])) {
          abort = true;
        }
      }
      ++next_round_;
    }
  } else {
    // served_mix: whole epochs (at least kMinEpochs), each from the
    // set-up state, every connection sending its epoch's requests.
    std::vector<std::vector<Request>> epoch(connections_);
    for (size_t c = 0; c < connections_; ++c) {
      epoch[c] = MixEpoch(spec_, pools_, seed, c, connections_);
    }
    for (int done = 0; (timed < o_.seconds || done < kMinEpochs) && !abort;
         ++done) {
      if (!ResetState(true)) {
        abort = true;
        break;
      }
      const auto t0 = Clock::now();
      std::vector<std::thread> threads;
      for (size_t c = 0; c < connections_; ++c) {
        threads.emplace_back([&, c] {
          for (const Request& req : epoch[c]) {
            if (abort || !send(c, req)) return;
          }
        });
      }
      for (std::thread& t : threads) t.join();
      timed += std::chrono::duration<double>(Clock::now() - t0).count();
    }
  }
  *wall = timed;
  for (size_t c = 0; c < connections_; ++c) {
    out->insert(out->end(), per_conn[c].begin(), per_conn[c].end());
    spans_.Merge(logs[c]);
  }
  if (abort) aborted_ = true;
}

bool Run::ProbeBlock(const std::vector<Request>& answered, int block,
                     SpanLog* log, std::vector<Sample>* out) {
  // The probe copy and the stream start from the set-up data in every
  // block.
  auto copy = clients_[0]->Call(GenRequest(spec_.gen, CopyDataset(spec_)));
  if (!copy.ok() || copy->GetString("status", "") != "OK") {
    return Fail("probe copy gen failed");
  }
  if (!ResetState(false)) return false;
  // Re-issue the queries just answered: each must be a hit carrying the
  // digest of the miss that filled the entry (checked later).
  std::vector<Request> all;
  for (size_t rep = 0; rep < spec_.probe_hit_rounds; ++rep) {
    all.insert(all.end(), answered.begin(), answered.end());
  }
  const size_t hits = all.size();
  for (Request& req : ProbeRequests(spec_, pools_, o_.seed, block)) {
    all.push_back(std::move(req));
  }
  for (size_t i = 0; i < all.size(); ++i) {
    Sample s = Send(clients_[0].get(), spec_, all[i], 0, log, next_request_++);
    s.probe = true;
    s.epoch = stream_epoch_;
    if (i < hits && s.status == "OK" && !s.cached) {
      return Fail("probe re-issue of a just-answered query was not a hit");
    }
    const bool transport = s.transport_error;
    out->push_back(std::move(s));
    if (transport) return Fail("transport error in probe");
  }
  return true;
}

// The correctness gate. Every OK answer must match its in-process
// reference pair count; answers to one template, generation (or stream
// watermark and window) and row cap must carry one digest, across
// strategies and across hits and misses.
bool Run::VerifyAnswers() {
  const std::vector<Sample> all = AllSamples();
  bool ok = true;

  // Batch answers. The data at a generation is the set-up data plus the
  // batches appended since the last (re)generation, so references are
  // keyed by that set of batches: served_mix epochs repeat the same
  // appends, and each set is computed once. A mirror replays the
  // generations in order.
  std::map<int64_t, const Sample*> appends;
  std::set<std::pair<int64_t, int>> needed;
  for (const Sample& s : all) {
    if (s.status != "OK") continue;
    if (s.kind == Kind::kAppend && !s.to_copy) appends[s.generation] = &s;
    if (s.kind == Kind::kQuery && !refs_.count({s.generation, s.tmpl})) {
      needed.insert({s.generation, s.tmpl});
    }
  }
  if (!needed.empty()) {
    std::set<int64_t> generations = base_generations_;
    for (const auto& [generation, sample] : appends) {
      generations.insert(generation);
    }
    std::map<std::pair<std::vector<Transactions>, int>, int64_t> by_appends;
    std::vector<Transactions> applied;  // Sorted.
    cfq::Dataset mirror = *base_;
    for (int64_t generation : generations) {
      if (base_generations_.count(generation)) {
        mirror = *base_;
        applied.clear();
      } else {
        const Sample& a = *appends.at(generation);
        mirror.db.Append(ToBatch(a.transactions));
        applied.insert(std::upper_bound(applied.begin(), applied.end(),
                                        a.transactions),
                       a.transactions);
      }
      for (size_t t = 0; t < spec_.templates.size(); ++t) {
        const int tmpl = static_cast<int>(t);
        if (!needed.count({generation, tmpl})) continue;
        auto [it, fresh] = by_appends.emplace(std::pair{applied, tmpl}, 0);
        if (fresh) {
          auto ref = ReferencePairs(&mirror, spec_.templates[t], nproc_);
          if (!ref.ok()) return Fail("reference: " + ref.status().ToString());
          it->second = ref.value();
        }
        refs_[{generation, tmpl}] = it->second;
      }
    }
  }

  // Stream answers, per stream epoch: replay the set-up ingests and the
  // epoch's ingests, in unit order, into a mirror ingestor and answer
  // each (watermark, template, window) once.
  std::map<int, std::map<int64_t, const Sample*>> ingests;
  std::map<int, std::set<std::tuple<int64_t, int, int64_t>>> windowed;
  for (const Sample& s : all) {
    if (s.status != "OK" || s.setup) continue;
    if (s.kind == Kind::kIngest) ingests[s.epoch][s.unit] = &s;
    if (s.kind == Kind::kStreamQuery) {
      windowed[s.epoch].insert({s.watermark, s.tmpl, s.window});
    }
  }
  std::map<std::tuple<int, int64_t, int, int64_t>, int64_t> stream_refs;
  for (const auto& [epoch, keys] : windowed) {
    auto mirror = MakeStreamMirror(spec_);
    if (!mirror.ok()) {
      return Fail("stream mirror: " + mirror.status().ToString());
    }
    int64_t watermark = 0;
    auto ingest = [&](const Transactions& batch) {
      if (!mirror->ingestor->Ingest(ToBatch(batch)).ok()) {
        return Fail("stream mirror ingest failed");
      }
      ++watermark;
      for (const auto& key : keys) {
        if (std::get<0>(key) != watermark) continue;
        auto q = ParseWithDomains(spec_.stream_templates[std::get<1>(key)],
                                  static_cast<size_t>(spec_.stream_items));
        if (!q.ok()) return Fail("stream reference parse");
        q->window_units = static_cast<uint64_t>(std::get<2>(key));
        cfq::stream::StreamWindowInfo info;
        auto r = mirror->ingestor->Query(*mirror->attrs, q.value(), {}, &info);
        if (!r.ok()) return Fail("stream reference: " + r.status().ToString());
        stream_refs[std::tuple_cat(std::tuple{epoch}, key)] =
            PairCount(r.value());
      }
      return true;
    };
    for (const Request& r : SetupIngests(spec_, pools_)) {
      if (!ingest(r.transactions)) return false;
    }
    for (const auto& [unit, sample] : ingests[epoch]) {
      if (unit != watermark) {
        return Fail("ingest units are not contiguous at " +
                    std::to_string(unit));
      }
      if (!ingest(sample->transactions)) return false;
    }
  }

  std::map<std::string, std::string> digests;
  auto same_digest = [&](const std::string& key, const Sample& s) {
    auto [it, fresh] = digests.emplace(key, s.digest);
    if (!fresh && it->second != s.digest) {
      ok = Fail("digest mismatch for " + key + ": " + it->second + " vs " +
                s.digest);
    }
  };
  for (const Sample& s : all) {
    if (s.status != "OK") continue;
    if (!s.digest_recomputed_ok) {
      ok = Fail("client-side RowsDigestHex differs from the served digest");
    }
    const int64_t cap = s.max_rows > 0 ? s.max_rows : 100000;
    if (s.kind == Kind::kQuery) {
      const int64_t ref = refs_.at({s.generation, s.tmpl});
      if (s.num_pairs != ref) {
        ok = Fail("template " + std::to_string(s.tmpl) + " strategy " +
                  spec_.strategies[s.strategy] + " at generation " +
                  std::to_string(s.generation) + ": num_pairs " +
                  std::to_string(s.num_pairs) + ", reference " +
                  std::to_string(ref));
      }
      same_digest("batch g" + std::to_string(s.generation) + " t" +
                      std::to_string(s.tmpl) + " rows" + std::to_string(cap),
                  s);
    } else if (s.kind == Kind::kStreamQuery) {
      const int64_t ref =
          stream_refs.at({s.epoch, s.watermark, s.tmpl, s.window});
      if (s.num_pairs != ref) {
        ok = Fail("stream template " + std::to_string(s.tmpl) + " window " +
                  std::to_string(s.window) + " at unit " +
                  std::to_string(s.watermark) + ": num_pairs " +
                  std::to_string(s.num_pairs) + ", reference " +
                  std::to_string(ref));
      }
      same_digest("stream e" + std::to_string(s.epoch) + " u" +
                      std::to_string(s.watermark) + " t" +
                      std::to_string(s.tmpl) + " w" +
                      std::to_string(s.window) + " rows" + std::to_string(cap),
                  s);
    } else {
      continue;
    }
    if (s.rows != std::min(s.num_pairs, cap) ||
        s.truncated != (s.rows < s.num_pairs)) {
      ok = Fail("row count/truncation inconsistent with num_pairs");
    }
  }
  return ok;
}

// One in-process run of a query class through the modules' entry points.
bool Run::MeasureClass(int tmpl, int strategy, int lane, LayerClass* out) {
  const std::string& name = spec_.strategies[strategy];
  const int64_t request = next_request_++;
  LayerClass& lc = *out;
  lc.label = "t" + std::to_string(tmpl) + "/" + name;
  const int64_t t0 = NowNs();
  const int root =
      spans_.Open("inprocess." + lc.label, "client", t0, -1, request, lane);
  auto q = ParseWithDomains(spec_.templates[tmpl], base_->db.num_items());
  const std::string canonical = q.ok() ? cfq::CanonicalizeQuery(*q) : "";
  const int64_t t1 = NowNs();
  spans_.Add("ParseCfq+CanonicalizeQuery", "parser", t0, t1, root, request,
             lane);
  if (!q.ok() || canonical.empty()) return false;
  cfq::PlanOptions options;
  options.threads = query_threads_;
  auto plan = cfq::BuildPlan(*q, options);
  const int64_t t2 = NowNs();
  spans_.Add("BuildPlan", "core", t1, t2, root, request, lane);
  cfq::Result<cfq::CfqResult> result = cfq::Status::Internal("unset");
  if (name == "optimized" && plan.ok()) {
    result = cfq::ExecutePlan(&base_->db, base_->catalog, plan.value());
  } else {
    result = RunStrategy(name, base_.get(), *q, options);
  }
  const int64_t t3 = NowNs();
  const int exec = spans_.Add("Execute." + name, "core", t2, t3, root,
                              request, lane);
  if (!result.ok()) return false;
  const cfq::StrategyStats& st = result->stats;
  const int64_t mine_ns = static_cast<int64_t>(st.mining_seconds * 1e9);
  const int64_t pair_ns = static_cast<int64_t>(st.pair_seconds * 1e9);
  spans_.Add("mine", name == "fpgrowth" ? "fpgrowth" : "mining", t2,
             t2 + mine_ns, exec, request, lane);
  spans_.Add("pair", "core", t2 + mine_ns, t2 + mine_ns + pair_ns, exec,
             request, lane);

  // EvalAllPairs on the first up-to-32 x 32 side-set pairs.
  const size_t ns = std::min<size_t>(32, result->s_sets.size());
  const size_t nt = std::min<size_t>(32, result->t_sets.size());
  const int64_t t4 = NowNs();
  size_t checks = 0;
  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = 0; j < nt; ++j) {
      (void)cfq::EvalAllPairs(q->two_var, result->s_sets[i].items,
                              result->t_sets[j].items, base_->catalog);
      ++checks;
    }
  }
  const int64_t t5 = NowNs();
  if (checks > 0) {
    spans_.Add("EvalAllPairs", "constraints", t4, t5, root, request, lane);
    lc.pair_check_ns =
        static_cast<double>(t5 - t4) / static_cast<double>(checks);
  }
  spans_.Close(root, NowNs());

  lc.parse_s = static_cast<double>(t1 - t0) * 1e-9;
  lc.plan_s = static_cast<double>(t2 - t1) * 1e-9;
  lc.exec_s = static_cast<double>(t3 - t2) * 1e-9;
  lc.mine_s = st.mining_seconds;
  lc.pair_s = st.pair_seconds;
  lc.pair_checks = static_cast<double>(st.pair_checks);
  lc.pairs = static_cast<double>(PairCount(result.value()));
  lc.side_sets =
      static_cast<double>(result->s_sets.size() + result->t_sets.size());
  const double counted =
      static_cast<double>(st.s.sets_counted + st.t.sets_counted);
  lc.sets_counted = counted;
  if (counted > 0) lc.useful_ratio = lc.side_sets / counted;
  lc.pool_busy = st.pool.busy_seconds;
  lc.pool_idle = st.pool.idle_seconds;
  if (name == "fpgrowth") {
    lc.fp_nodes = static_cast<double>(st.s.fp_tree_nodes + st.t.fp_tree_nodes);
    lc.fp_trees = static_cast<double>(st.s.fp_conditional_trees +
                                      st.t.fp_conditional_trees);
  }
  return true;
}


// Times the modules' public entry points directly, once per query class
// seen in the traced loop: ParseCfq + CanonicalizeQuery, BuildPlan, the
// Execute* strategy (StrategyStats), EvalAllPairs on a fixed sample of
// side-set pairs, DatasetCatalog::Append.
void Run::LayerPass() {
  const int lane = static_cast<int>(connections_) + 1;
  std::set<std::pair<int, int>> classes;
  for (const Sample& s : traced_) {
    if (s.kind == Kind::kQuery && s.status == "OK") {
      classes.insert({s.tmpl, s.strategy});
    }
  }
  // Each class runs three times; the run with the median Execute* time
  // is kept.
  for (const auto& [tmpl, strategy] : classes) {
    std::vector<LayerClass> reps;
    for (int rep = 0; rep < 3; ++rep) {
      LayerClass lc;
      if (MeasureClass(tmpl, strategy, lane, &lc)) reps.push_back(lc);
    }
    if (reps.empty()) continue;
    std::sort(reps.begin(), reps.end(),
              [](const LayerClass& a, const LayerClass& b) {
                return a.exec_s < b.exec_s;
              });
    layer_classes_.push_back(reps[reps.size() / 2]);
  }

  // The server's append path: copy-on-write catalog append of the
  // run's own append batches onto the base dataset.
  cfq::server::DatasetCatalog catalog;
  catalog.Register(spec_.gen.dataset, *base_);
  for (const Sample& s : AllSamples()) {
    if (s.kind != Kind::kAppend || s.status != "OK") continue;
    const int64_t a0 = NowNs();
    auto g = catalog.Append(spec_.gen.dataset, ToBatch(s.transactions));
    const int64_t a1 = NowNs();
    if (!g.ok()) continue;
    spans_.Add("DatasetCatalog::Append", "data", a0, a1, -1, next_request_++,
               lane);
    append_inproc_.push_back(static_cast<double>(a1 - a0) * 1e-9);
    if (append_inproc_.size() >= 16) break;
  }
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string how;  // Statistic and sample count, for the human table.
};

// Request class for the per-class medians: (template, strategy) for
// batch queries, the window for windowed queries.
int ClassOf(const Sample& s) {
  return s.kind == Kind::kQuery ? s.tmpl * 64 + s.strategy
                                : -1 - static_cast<int>(s.window);
}

bool IsQuery(const Sample& s) {
  return s.kind == Kind::kQuery || s.kind == Kind::kStreamQuery;
}

// Latencies of the timed (non-probe) OK queries, by class.
std::map<int, std::vector<double>> TimedQueries(
    const std::vector<Sample>& samples) {
  std::map<int, std::vector<double>> out;
  for (const Sample& s : samples) {
    if (s.status == "OK" && IsQuery(s) && !s.probe) {
      out[ClassOf(s)].push_back(s.latency);
    }
  }
  return out;
}

std::vector<double> Pooled(const std::map<int, std::vector<double>>& classes) {
  std::vector<double> out;
  for (const auto& [cls, values] : classes) {
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

// The median the workload reports: pooled (request-weighted), or with
// `per_class` the geometric mean of the per-class medians. Classes can
// differ tenfold, so a median over them would sit in the gap between
// two classes and jump with noise; the geometric mean moves in
// proportion to every class.
double ClassMedian(const std::map<int, std::vector<double>>& classes,
                   bool per_class, std::string* how) {
  const std::vector<double> pooled = Pooled(classes);
  if (!per_class || classes.size() == 1) {
    *how = "p50 of n=" + std::to_string(pooled.size());
    return Median(pooled);
  }
  std::vector<double> medians;
  for (const auto& [cls, values] : classes) medians.push_back(Median(values));
  *how = "geomean of " + std::to_string(medians.size()) +
         " class p50s, n=" + std::to_string(pooled.size());
  return GeoMean(medians);
}

void AddMedian(std::vector<Metric>* out, const std::string& name,
               const std::vector<double>& values, const std::string& unit) {
  out->push_back({name, Median(values), unit,
                  "p50 of n=" + std::to_string(values.size())});
}

int Run::Execute() {
  mkdir(o_.out.c_str(), 0755);
  pools_ = MakePools(spec_);
  const auto started = Clock::now();
  auto stage = [&](const char* name) {
    char text[64];
    std::snprintf(text, sizeof(text), "%s%s %.1f", stages_.empty() ? "" : ", ",
                  name,
                  std::chrono::duration<double>(Clock::now() - started).count());
    stages_ += text;
  };
  bool ok = SetUp();
  stage("setup");
  ok = ok && CheckBuild() && BaseReferences();
  stage("references");
  if (ok) {
    TimedLoop(false, o_.seed, &untraced_, &untraced_wall_);
    if (o_.trace && !aborted_) {
      // The traced loop gets its own sequence, derived from the seed.
      stats_before_ = StatsSnapshot();
      TimedLoop(true, o_.seed + 1000003, &traced_, &traced_wall_);
      stats_after_ = StatsSnapshot();
    }
    if (aborted_) {
      ok = false;
      bool cold_hit = false;
      for (const Sample& s : AllSamples()) cold_hit |= ColdViolation(spec_, s);
      if (cold_hit) {
        Fail("a timed cold_* query was answered from the cache (cached: "
             "true); run aborted");
      } else if (errors_.empty()) {
        Fail("transport error; run aborted");
      }
    }
  }
  stage("loops");
  if (ok) peak_rss_mb_ = daemon_.PeakRssMb();
  if (daemon_.running()) Shutdown();
  if (ok) ok = VerifyAnswers();
  stage("verify");
  for (int rep = 0; ok && rep < kLateSetupReps; ++rep) ok = SetUpOnce(false);
  stage("late setups");
  if (ok && o_.trace) LayerPass();
  stage("layers");
  return Report(ok ? 0 : 1);
}

int Run::Report(int exit_code) {
  const std::vector<Sample>& timed = o_.trace ? traced_ : untraced_;
  const double wall = o_.trace ? traced_wall_ : untraced_wall_;

  // Latencies per metric, grouped by request class: (template, strategy)
  // for batch queries, the window for windowed queries.
  std::map<int, std::vector<double>> query, hit, miss, window, append,
      ingest;
  query = TimedQueries(timed);
  for (const Sample& s : timed) {
    if (s.status != "OK") continue;
    const int cls = ClassOf(s);
    if (IsQuery(s) && s.cached) hit[cls].push_back(s.latency);
    if (s.kind == Kind::kQuery && !s.cached) miss[cls].push_back(s.latency);
    if (s.kind == Kind::kStreamQuery) window[cls].push_back(s.latency);
    if (s.kind == Kind::kAppend) append[0].push_back(s.latency);
    if (s.kind == Kind::kIngest) ingest[0].push_back(s.latency);
  }
  const Tail tail = TailPercentile(Pooled(query));
  if (exit_code == 0 && !tail.ok) {
    errors_.push_back("too few query samples for the tail percentile");
    exit_code = 1;
  }
  for (const auto* v : {&hit, &miss, &window, &append, &ingest}) {
    if (exit_code == 0 && v->empty()) {
      errors_.push_back("a request class has no samples");
      exit_code = 1;
    }
  }

  std::vector<Metric> metrics;
  // Cold workloads weigh every class equally by design (whole rounds),
  // so their medians are taken per class first (see ClassMedian).
  // served_mix keeps the pooled, request-weighted median: its skew is the
  // point, and every seed sends the same mix.
  auto p50 = [&](const std::string& name,
                 const std::map<int, std::vector<double>>& classes) {
    std::string how;
    const double value = ClassMedian(classes, spec_.cold, &how);
    metrics.push_back({name, value, "s", how});
  };
  const size_t query_count = Pooled(query).size();
  if (!o_.trace) {
    AddMedian(&metrics, "setup_s", setup_seconds_, "s");
    p50("query_p50_s", query);
    char how[96];
    std::snprintf(how, sizeof(how), "p%.1f of n=%zu (%zu beyond)",
                  tail.percentile, tail.n, tail.beyond);
    metrics.push_back({"query_tail_s", tail.value, "s", how});
    metrics.push_back({"queries_per_s",
                       wall > 0 ? static_cast<double>(query_count) / wall : 0,
                       "1/s",
                       std::to_string(query_count) + " over " +
                           cfq::server::JsonNumber(wall) + " s"});
    p50("hit_p50_s", hit);
    p50("miss_p50_s", miss);
    p50("window_p50_s", window);
    p50("append_p50_s", append);
    p50("ingest_p50_s", ingest);
    metrics.push_back({"peak_rss_mb", peak_rss_mb_, "MB", "VmHWM"});
  } else {
    std::vector<double> transport, bytes, render, catalog, admission, digest,
        stream_query, ingest_s, mined, nodes;
    for (const Sample& s : traced_) {
      if (s.status != "OK") continue;
      if (s.kind == Kind::kIngest) {
        ingest_s.push_back(s.elapsed);
        mined.push_back(static_cast<double>(s.mined_patterns));
        nodes.push_back(static_cast<double>(s.tree_nodes));
        continue;
      }
      if (s.kind == Kind::kStreamQuery && !s.cached &&
          s.phases.count("execute")) {
        stream_query.push_back(s.phases.at("execute"));
      }
      if (s.kind == Kind::kAppend || s.probe) continue;
      transport.push_back(s.client_seconds - s.elapsed);
      bytes.push_back(static_cast<double>(s.bytes));
      digest.push_back(s.digest_seconds);
      auto phase = [&](const char* name) {
        auto it = s.phases.find(name);
        return it == s.phases.end() ? -1.0 : it->second;
      };
      if (phase("render") >= 0) render.push_back(phase("render"));
      catalog.push_back(std::max(0.0, phase("catalog")));
      admission.push_back(std::max(0.0, phase("admission")));
    }
    auto cache = [&](const JsonValue& stats, const char* key) {
      const JsonValue* c = stats.Find("cache");
      return c != nullptr ? c->GetNumber(key, 0) : 0.0;
    };
    const double hits = cache(stats_after_, "hits") - cache(stats_before_, "hits");
    const double misses =
        cache(stats_after_, "misses") - cache(stats_before_, "misses");
    auto field = [&](double LayerClass::*member, bool skip_negative) {
      std::vector<double> v;
      for (const LayerClass& lc : layer_classes_) {
        if (skip_negative && lc.*member < 0) continue;
        v.push_back(lc.*member);
      }
      return v;
    };
    AddMedian(&metrics, "server.transport_s", transport, "s");
    AddMedian(&metrics, "server.response_bytes", bytes, "bytes");
    AddMedian(&metrics, "server.render_s", render, "s");
    metrics.push_back({"server.catalog_s", Mean(catalog), "s",
                       "mean of n=" + std::to_string(catalog.size())});
    metrics.push_back({"server.admission_s", Mean(admission), "s",
                       "mean of n=" + std::to_string(admission.size())});
    metrics.push_back({"server.cache.hit_ratio",
                       hits + misses > 0 ? hits / (hits + misses) : 0, "1",
                       "stats delta over the traced loop"});
    metrics.push_back(
        {"server.cache.evictions",
         cache(stats_after_, "evictions") - cache(stats_before_, "evictions"),
         "count", "stats delta over the traced loop"});
    AddMedian(&metrics, "parser.parse_s", field(&LayerClass::parse_s, false),
              "s");
    AddMedian(&metrics, "core.plan_s", field(&LayerClass::plan_s, false), "s");
    AddMedian(&metrics, "core.mine_s", field(&LayerClass::mine_s, false), "s");
    AddMedian(&metrics, "core.pair_s", field(&LayerClass::pair_s, false), "s");
    AddMedian(&metrics, "core.pair_checks",
              field(&LayerClass::pair_checks, false), "count");
    AddMedian(&metrics, "core.pairs", field(&LayerClass::pairs, false),
              "count");
    {
      double checks = 0, pairs = 0;
      for (const LayerClass& lc : layer_classes_) {
        checks += lc.pair_checks;
        pairs += lc.pairs;
      }
      metrics.push_back({"core.pair_yield", checks > 0 ? pairs / checks : 0,
                         "1", "sum pairs / sum checks"});
    }
    AddMedian(&metrics, "core.side_sets", field(&LayerClass::side_sets, false),
              "count");
    AddMedian(&metrics, "constraints.pair_check_ns",
              field(&LayerClass::pair_check_ns, true), "ns");
    AddMedian(&metrics, "mining.sets_counted",
              field(&LayerClass::sets_counted, false), "count");
    AddMedian(&metrics, "mining.useful_ratio",
              field(&LayerClass::useful_ratio, true), "1");
    AddMedian(&metrics, "fpgrowth.tree_nodes", field(&LayerClass::fp_nodes, true),
              "count");
    AddMedian(&metrics, "fpgrowth.conditional_trees",
              field(&LayerClass::fp_trees, true), "count");
    AddMedian(&metrics, "pool.busy_s", field(&LayerClass::pool_busy, false),
              "s");
    AddMedian(&metrics, "pool.idle_s", field(&LayerClass::pool_idle, false),
              "s");
    AddMedian(&metrics, "obs.digest_s", digest, "s");
    AddMedian(&metrics, "data.gen_s", gen_seconds_, "s");
    AddMedian(&metrics, "data.append_s", append_inproc_, "s");
    AddMedian(&metrics, "stream.ingest_s", ingest_s, "s");
    AddMedian(&metrics, "stream.mined_patterns", mined, "count");
    AddMedian(&metrics, "stream.tree_nodes", nodes, "count");
    AddMedian(&metrics, "stream.query_s", stream_query, "s");
  }
  const Tally tally = TallySamples(timed);
  std::cout << "workload " << spec_.name << " seed " << o_.seed << " trace "
            << (o_.trace ? 1 : 0) << " build " << cfq::BuildGitDescribe()
            << " (" << cfq::BuildType() << ") nproc " << nproc_
            << " connections " << connections_ << " query_threads "
            << query_threads_ << "\n";
  std::cout << "samples: " << query_count << " query, "
            << Pooled(hit).size() << " hit, " << Pooled(miss).size()
            << " miss, " << Pooled(window).size() << " window, "
            << Pooled(append).size() << " append, " << Pooled(ingest).size()
            << " ingest; fail_ratio "
            << (tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                          static_cast<double>(tally.attempted)
                                    : 0)
            << " (" << tally.failed << "/" << tally.attempted << ")\n";
  std::cout << "stages (cumulative s): " << stages_ << "\n";
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.how.c_str());
  }

  JsonValue::Object checks;
  if (o_.trace && exit_code == 0) {
    checks = TraceChecks();
  }
  for (const std::string& note : notes_) std::cout << "note: " << note << "\n";
  for (const std::string& e : errors_) std::cout << "ERROR: " << e << "\n";

  // The result file: attribution, parameters, sample counts, metrics.
  JsonValue::Object result;
  JsonValue::Object build;
  build["git_describe"] = std::string(cfq::BuildGitDescribe());
  build["build_type"] = std::string(cfq::BuildType());
  result["build"] = std::move(build);
  result["workload"] = spec_.name;
  result["seed"] = static_cast<int64_t>(o_.seed);
  result["seconds"] = o_.seconds;
  result["trace"] = o_.trace;
  result["nproc"] = static_cast<int64_t>(nproc_);
  JsonValue::Object params;
  params["dataset"] = spec_.gen.dataset;
  params["num_transactions"] = spec_.gen.num_transactions;
  params["num_items"] = spec_.gen.num_items;
  params["num_patterns"] = spec_.gen.num_patterns;
  params["gen_seed"] = spec_.gen.seed;
  params["connections"] = static_cast<int64_t>(connections_);
  params["query_threads"] = static_cast<int64_t>(query_threads_);
  params["cache_capacity"] = cache_capacity_;
  params["epoch_requests"] = static_cast<int64_t>(spec_.epoch_requests);
  params["epoch_appends"] = static_cast<int64_t>(spec_.epoch_appends);
  params["setup_reps"] = static_cast<int64_t>(kSetupReps + kLateSetupReps);
  JsonValue::Array templates;
  for (const std::string& t : spec_.templates) templates.push_back(t);
  params["templates"] = std::move(templates);
  result["params"] = std::move(params);
  JsonValue::Object counts;
  counts["query"] = static_cast<int64_t>(query_count);
  counts["hit"] = static_cast<int64_t>(Pooled(hit).size());
  counts["miss"] = static_cast<int64_t>(Pooled(miss).size());
  counts["window"] = static_cast<int64_t>(Pooled(window).size());
  counts["append"] = static_cast<int64_t>(Pooled(append).size());
  counts["ingest"] = static_cast<int64_t>(Pooled(ingest).size());
  counts["attempted"] = static_cast<int64_t>(tally.attempted);
  counts["failed"] = static_cast<int64_t>(tally.failed);
  result["samples"] = std::move(counts);
  JsonValue::Object metric_json;
  JsonValue::Object out_metrics;
  for (const Metric& m : metrics) {
    JsonValue::Object entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    entry["statistic"] = m.how;
    metric_json[m.name] = std::move(entry);
    JsonValue::Object brief;
    brief["value"] = m.value;
    brief["unit"] = m.unit;
    out_metrics[m.name] = std::move(brief);
  }
  result["metrics"] = std::move(metric_json);
  result["checks"] = std::move(checks);
  JsonValue::Array errors;
  for (const std::string& e : errors_) errors.push_back(e);
  result["errors"] = std::move(errors);
  result["correct"] = exit_code == 0;
  const std::string results_dir = o_.out + "/results";
  mkdir(results_dir.c_str(), 0755);
  const std::string path = results_dir + "/" + spec_.name + "-seed" +
                           std::to_string(o_.seed) + "-trace" +
                           (o_.trace ? "1" : "0") + ".json";
  if (cfq::BuildGitDescribe() != std::string("unknown")) {
    std::ofstream(path) << JsonValue(result).Write() << "\n";
    std::cout << "result file: " << path << "\n";
  }

  JsonValue::Object last;
  last["correct"] = exit_code == 0;
  last["attempted"] = static_cast<int64_t>(std::max<uint64_t>(tally.attempted, 1));
  last["failed"] = static_cast<int64_t>(tally.failed);
  last["metrics"] = std::move(out_metrics);
  std::cout << JsonValue(last).Write() << std::endl;
  return exit_code;
}

// Traced-run report: layer table, phase coverage, in-process coverage,
// what the workload is for, tracing overhead, and the Chrome trace.
JsonValue::Object Run::TraceChecks() {
  JsonValue::Object checks;
  static const std::map<std::string, std::string> kLayerMetrics = {
      {"client", "(load generator)"},
      {"server",
       "server.transport_s server.response_bytes server.render_s "
       "server.catalog_s server.admission_s server.cache.hit_ratio "
       "server.cache.evictions"},
      {"parser", "parser.parse_s"},
      {"core",
       "core.plan_s core.mine_s core.pair_s core.pair_checks core.pairs "
       "core.pair_yield core.side_sets pool.busy_s pool.idle_s"},
      {"mining", "mining.sets_counted mining.useful_ratio"},
      {"fpgrowth", "fpgrowth.tree_nodes fpgrowth.conditional_trees"},
      {"constraints", "constraints.pair_check_ns"},
      {"obs", "obs.digest_s"},
      {"data", "data.gen_s data.append_s"},
      {"stream",
       "stream.ingest_s stream.mined_patterns stream.tree_nodes "
       "stream.query_s"},
  };
  std::cout << "layer table (self time = span minus child spans):\n";
  std::printf("  %-12s %12s %8s  %s\n", "layer", "self_s", "spans",
              "metrics");
  for (const auto& [layer, row] : LayerTable(spans_.spans())) {
    auto it = kLayerMetrics.find(layer);
    std::printf("  %-12s %12.6f %8llu  %s\n", layer.c_str(), row.self_seconds,
                static_cast<unsigned long long>(row.spans),
                it == kLayerMetrics.end() ? "" : it->second.c_str());
  }

  // Server phases against elapsed_seconds, per query class.
  std::map<std::string, double> coverage;
  std::map<std::string, double> elapsed;
  for (const Sample& s : traced_) {
    if (s.status != "OK" || s.elapsed <= 0 || !IsQuery(s)) continue;
    double covered = 0;
    for (const auto& [name, seconds] : s.phases) {
      if (name.find('.') == std::string::npos) covered += seconds;
    }
    const std::string label =
        (s.kind == Kind::kQuery ? "t" + std::to_string(s.tmpl) + "/" +
                                      spec_.strategies[s.strategy]
                                : "stream/t" + std::to_string(s.tmpl)) +
        (s.cached ? "/hit" : "/miss");
    auto [it, fresh] = coverage.emplace(label, covered / s.elapsed);
    if (!fresh) it->second = std::min(it->second, covered / s.elapsed);
    elapsed[label] = std::max(elapsed[label], s.elapsed);
  }
  double worst_phase = 1;
  size_t below = 0;
  for (const auto& [label, c] : coverage) {
    worst_phase = std::min(worst_phase, c);
    if (c < 0.95) {
      ++below;
      std::printf("  phases cover %.4f of elapsed_seconds (max %.6f s) in "
                  "class %s\n",
                  c, elapsed[label], label.c_str());
    }
  }
  std::printf("server phase coverage: %zu of %zu classes below 0.95, worst "
              "%.4f\n",
              below, coverage.size(), worst_phase);
  checks["phase_coverage_min"] = worst_phase;

  double worst_exec = 1;
  for (const LayerClass& lc : layer_classes_) {
    if (lc.exec_s <= 0) continue;
    const double c = (lc.mine_s + lc.pair_s) / lc.exec_s;
    worst_exec = std::min(worst_exec, c);
    if (c < 0.95) {
      std::printf("  mine+pair cover %.4f of Execute* (%.6f s) in class %s\n",
                  c, lc.exec_s, lc.label.c_str());
    }
  }
  std::printf("in-process mine+pair coverage of Execute*: worst class %.4f "
              "over %zu classes (%s)\n",
              worst_exec, layer_classes_.size(),
              worst_exec >= 0.95 ? "PASS >= 0.95" : "BELOW 0.95");
  checks["execute_coverage_min"] = worst_exec;

  std::string how;
  const double p50_traced =
      ClassMedian(TimedQueries(traced_), spec_.cold, &how);
  const double p50_untraced =
      ClassMedian(TimedQueries(untraced_), spec_.cold, &how);
  std::printf("tracing overhead: query_p50_s traced %.6f vs untraced %.6f "
              "(%+.1f%%)\n",
              p50_traced, p50_untraced,
              p50_untraced > 0 ? 100 * (p50_traced / p50_untraced - 1) : 0);
  checks["query_p50_traced_s"] = p50_traced;
  checks["query_p50_untraced_s"] = p50_untraced;

  std::vector<double> mine, pair;
  for (const LayerClass& lc : layer_classes_) {
    mine.push_back(lc.mine_s);
    pair.push_back(lc.pair_s);
  }
  // Shares against query_p50_s, whose cold-workload figure is a geometric
  // mean over classes, so the layer times are aggregated the same way.
  if (spec_.name == "cold_pairs") {
    const double share = GeoMean(pair) / p50_traced;
    std::printf("purpose: core.pair_s / query_p50_s = %.3f (%s)\n", share,
                share >= 0.5 ? "PASS >= 0.5" : "BELOW 0.5");
    checks["pair_share"] = share;
  } else if (spec_.name == "cold_mine") {
    const double share = GeoMean(mine) / p50_traced;
    std::printf("purpose: core.mine_s / query_p50_s = %.3f (%s)\n", share,
                share >= 0.6 ? "PASS >= 0.6" : "BELOW 0.6");
    checks["mine_share"] = share;
  } else {
    double hits = 0, total = 0;
    for (const Sample& s : traced_) {
      if (s.status != "OK" ||
          (s.kind != Kind::kQuery && s.kind != Kind::kStreamQuery)) {
        continue;
      }
      ++total;
      if (s.cached) ++hits;
    }
    const double share = total > 0 ? hits / total : 0;
    std::printf("purpose: hits %.3f / misses %.3f of queries (%s)\n", share,
                1 - share,
                share >= 0.1 && share <= 0.9 ? "PASS both >= 0.1"
                                             : "UNBALANCED");
    checks["hit_share"] = share;
  }

  const std::string trace_dir = o_.out + "/trace";
  mkdir(trace_dir.c_str(), 0755);
  const std::string path = trace_dir + "/" + spec_.name + "-seed" +
                           std::to_string(o_.seed) + ".json";
  if (WriteChromeTrace(path, spans_.spans())) {
    std::cout << "chrome trace: " << path << " ("
              << spans_.spans().size() << " spans)\n";
  }
  return checks;
}

// ---------------------------------------------------------------------
// Self-test: the benchmark's own rules, without a daemon.

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool condition, const std::string& what) {
    std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
    if (!condition) ++failures;
  };

  // Tail percentile: p99, but never fewer than kTailBeyond samples
  // beyond the chosen one.
  for (size_t n : {11, 12, 24, 100, 1000, 1001, 4321, 20000}) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7919) % n));
    const Tail t = TailPercentile(v);
    size_t beyond = 0;
    for (double x : v) beyond += x > t.value ? 1 : 0;
    const size_t rank = std::min(n - kTailBeyond, (n * 99 + 99) / 100);
    expect(t.ok && t.beyond == n - rank && beyond == n - rank &&
               beyond >= kTailBeyond &&
               std::abs(t.percentile - 100.0 * static_cast<double>(rank) /
                                           static_cast<double>(n)) < 1e-9,
           "tail percentile keeps >= 10 samples beyond it, n=" +
               std::to_string(n) + " (" + std::to_string(beyond) + ")");
  }
  expect(!TailPercentile(std::vector<double>(10, 1.0)).ok,
         "tail percentile refuses n=10");
  expect(TailPercentile(std::vector<double>(100, 2.0)).percentile == 90,
         "n=100 reports p90");
  expect(TailPercentile(std::vector<double>(20000, 2.0)).percentile == 99,
         "n=20000 reports p99");

  // fail_ratio accounting.
  std::vector<Sample> samples(5);
  samples[0].status = "OK";
  samples[1].status = "REJECTED";
  samples[2].status = "TIMEOUT";
  samples[3].status = "TRANSPORT";
  samples[3].transport_error = true;
  samples[4].status = "OK";
  const Tally tally = TallySamples(samples);
  expect(tally.attempted == 5 && tally.failed == 3,
         "REJECTED, TIMEOUT and transport errors count as failures");

  // A cold timed query answered from the cache aborts the run.
  const WorkloadSpec& pairs = *FindWorkload("cold_pairs");
  const WorkloadSpec& mix = *FindWorkload("served_mix");
  Sample hit;
  hit.kind = Kind::kQuery;
  hit.status = "OK";
  hit.cached = true;
  expect(ColdViolation(pairs, hit), "cold_* timed hit is a violation");
  Sample probe_hit = hit;
  probe_hit.probe = true;
  expect(!ColdViolation(pairs, probe_hit), "cold_* probe hit is allowed");
  expect(!ColdViolation(mix, hit), "served_mix hit is allowed");

  // Same seed, byte-identical request sequence; another seed differs.
  for (const WorkloadSpec& spec : Workloads()) {
    const Pools pools = MakePools(spec);
    const std::string a = SequenceText(spec, pools, 7, 4, 300);
    const std::string b = SequenceText(spec, pools, 7, 4, 300);
    const std::string c = SequenceText(spec, pools, 8, 4, 300);
    expect(!a.empty() && a == b, spec.name + ": same seed, same bytes");
    expect(a != c, spec.name + ": another seed, another sequence");
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options options;
  std::string error;
  if (!e2e::ParseOptions(argc, argv, &options, &error)) {
    std::cerr << "e2ebench: " << error << "\n";
    return 2;
  }
  if (options.selftest) return e2e::SelfTest();
  const e2e::WorkloadSpec* spec = e2e::FindWorkload(options.workload);
  if (spec == nullptr || options.daemon.empty() || options.seconds <= 0) {
    std::cerr << "e2ebench: need --workload (cold_pairs|cold_mine|served_mix),"
                 " --daemon and --seconds > 0\n";
    return 2;
  }
  e2e::Run run(options, *spec);
  return run.Execute();
}
