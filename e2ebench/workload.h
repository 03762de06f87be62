// The benchmark's workloads and their seeded request sequences.
//
// Datasets and transaction pools are fixed (the same for every seed), so
// figures from different seeds measure the same data; `--seed` drives
// only the request sequence: round order, Zipf draws, which pool slices
// appends and ingests carry. The same seed gives a byte-identical
// sequence (checked by the self-test).

#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/json.h"

namespace e2e {

enum class Kind { kQuery, kStreamQuery, kAppend, kIngest };
const char* KindName(Kind kind);

// A `gen` request for the workload's batch dataset.
struct GenSpec {
  std::string dataset;
  int64_t num_transactions = 0;
  int64_t num_items = 0;
  int64_t num_patterns = 0;
  int64_t seed = 42;
};

struct WorkloadSpec {
  std::string name;
  GenSpec gen;
  std::vector<std::string> templates;  // Batch CFQ texts.
  std::vector<std::string> strategies;
  size_t connections = 1;     // 0 = one per hardware thread.
  size_t query_threads = 0;   // Daemon --threads; 0 = hardware.
  // Every timed query must be a cache miss; the timed loop runs whole
  // rounds over the templates x strategies grid.
  bool cold = false;
  // served_mix runs in epochs. Each starts from the set-up state (the
  // dataset regenerated, the stream dropped and re-ingested, outside the
  // timed wall), and in each every connection sends the same
  // epoch_requests requests (see MixEpoch): shares p_ingest and p_stream
  // of them are ingests and windowed queries, the remainder batch
  // queries weighted by Zipf skew zipf_s over the templates x strategies
  // combos, default_cap_share of those at the daemon's default row cap
  // and the rest at 100 rows. The epoch's epoch_appends appends of
  // append_size transactions are shared by the connections.
  size_t epoch_requests = 0;
  size_t epoch_appends = 0;
  size_t append_size = 30;
  double default_cap_share = 0;
  double p_ingest = 0;
  double p_stream = 0;
  double zipf_s = 1.0;
  // The stream every workload creates at set-up.
  std::string stream = "clicks";
  int64_t stream_items = 1000;
  size_t stream_batch = 200;
  size_t stream_setup_units = 24;
  // stream_templates[i] is asked over windows[i] (0 = the whole stream).
  std::vector<std::string> stream_templates;
  std::vector<int64_t> windows = {1, 4, 16, 0};
  // Cold workloads: after every probe_every timed queries, a probe block
  // (not part of the timed wall) re-issues those queries
  // probe_hit_rounds times (all cache hits), then sends probe_each
  // appends, ingests and windowed queries, so the hit/append/ingest/window
  // metrics exist there too, sampled across the whole run. Probe appends
  // go to a copy of the dataset, regenerated before each block, so the
  // timed queries always see the same data; the stream is reset to its
  // set-up state before each block, so every block's windowed queries
  // see a stream of the same length.
  size_t probe_every = 8;
  size_t probe_each = 8;
  size_t probe_hit_rounds = 2;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

using Transactions = std::vector<std::vector<uint32_t>>;

struct Request {
  Kind kind = Kind::kQuery;
  int tmpl = -1;        // Index into templates / stream_templates.
  int strategy = -1;    // Index into strategies (batch queries).
  int64_t max_rows = 0;  // 0 = daemon default.
  int64_t window = 0;    // Stream queries; 0 = whole stream.
  bool to_copy = false;  // Append to the probe copy of the dataset.
  Transactions transactions;  // Appends and ingests.
};

cfq::server::JsonValue RequestJson(const WorkloadSpec& spec,
                                   const Request& request);

// Fixed transaction pools the write requests slice from.
struct Pools {
  Transactions append;  // Over the batch dataset's item universe.
  Transactions stream;  // Over the stream's item universe.
};
Pools MakePools(const WorkloadSpec& spec);

// splitmix64: portable, so sequences match across standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Cold workloads: round `round` is the whole templates x strategies grid
// in a seeded order. Round 0 uses the default row cap; round r > 0 caps
// at default - r rows so its cache keys are new.
std::vector<Request> ColdRound(const WorkloadSpec& spec, uint64_t seed,
                               int round);

// served_mix: connection `connection`'s requests in every epoch. The
// reads and ingests are a fixed multiset (each share rounded to whole
// requests) in a seeded order, so every seed sends the same mix; the
// connection's share of the epoch's appends (append j goes to connection
// j % connections) sits at evenly spaced positions among them.
std::vector<Request> MixEpoch(const WorkloadSpec& spec, const Pools& pools,
                              uint64_t seed, size_t connection,
                              size_t connections);

// The set-up ingests (fixed, seed-independent) that give windowed
// queries a history to cover.
std::vector<Request> SetupIngests(const WorkloadSpec& spec,
                                  const Pools& pools);

// The dataset probe appends go to (cold workloads).
std::string CopyDataset(const WorkloadSpec& spec);

// The writes and windowed queries of probe block `block`.
std::vector<Request> ProbeRequests(const WorkloadSpec& spec,
                                   const Pools& pools, uint64_t seed,
                                   int block);

// The first `count` requests per connection, serialized one per line:
// what the self-test compares across two generations from one seed.
std::string SequenceText(const WorkloadSpec& spec, const Pools& pools,
                         uint64_t seed, size_t connections, size_t count);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
