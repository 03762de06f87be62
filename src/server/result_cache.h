// ResultCache: an LRU over fully-computed query answers.
//
// The key is built by the service from everything that determines the
// answer bytes: dataset name, the generation id of the dataset the
// answer was computed against, the execution strategy, the effective
// row cap, and the canonicalized query text (core/cfq.h
// CanonicalizeQuery) — so `freq(S,20)&freq(T,20)` and the same query
// with shuffled conjuncts and extra whitespace share one entry.
// Thread count and counter backend are deliberately NOT part of the
// key: mining results are bit-identical across them.
//
// Values are shared_ptr<const CachedAnswer>, so an entry evicted while
// a response is still being serialized stays alive until that response
// finishes. Hits, misses and evictions are counted locally (for the
// STATS command) and mirrored into an optional MetricsRegistry under
// server.cache.* names.

#ifndef CFQ_SERVER_RESULT_CACHE_H_
#define CFQ_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace cfq::server {

// The response payload of a successful `query`. The rows
// ("s_items;t_items;s_support;t_support") are encoded once, when the
// answer is rendered, as one JSON array (`["r0","r1",...]`) that every
// response splices in verbatim (JsonValue::PreEncoded). There are no
// per-row strings or offsets: a cached answer is one buffer however
// many rows it holds, and hits write the same bytes as the miss did.
struct CachedAnswer {
  std::shared_ptr<const std::string> rows_json;
  uint64_t num_rows = 0;    // Rows in rows_json.
  uint64_t s_sets = 0;
  uint64_t t_sets = 0;
  uint64_t num_pairs = 0;   // Pre-cap pair count (cross products expanded).
  bool cross_product = false;
  bool truncated = false;   // rows hit the row cap.
  std::string canonical_query;
  // FNV-1a digest of the rows in canonical (sorted) order, 16 hex
  // digits (obs/digest.h). Computed once when the answer is rendered so
  // cache hits return the identical digest without touching the rows.
  std::string digest;
};

class ResultCache {
 public:
  // `capacity` = max entries; 0 disables caching (every Get misses,
  // Put is a no-op). `metrics` (not owned, may be null) receives
  // server.cache.{hits,misses,evictions} counters and a
  // server.cache.size gauge.
  explicit ResultCache(size_t capacity,
                       obs::MetricsRegistry* metrics = nullptr)
      : capacity_(capacity), metrics_(metrics) {}

  // Returns the cached answer and promotes it to most-recent, or null.
  std::shared_ptr<const CachedAnswer> Get(const std::string& key);

  // Inserts (or replaces) `answer` under `key`, evicting the least
  // recently used entry when over capacity.
  void Put(const std::string& key, std::shared_ptr<const CachedAnswer> answer);

  void Clear();

  // Drops every entry whose key starts with `prefix` (the service uses
  // "<dataset>@" when a dataset is dropped, and "<stream>@stream:" when
  // an ingest advances a stream, so answers cannot outlive the data
  // they were computed from). Returns the number removed and counts
  // them under `metric` (default server.cache.evict.dropped; ingest
  // purges use server.cache.evict.stream).
  size_t PurgePrefix(const std::string& prefix,
                     const std::string& metric = "server.cache.evict.dropped");

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedAnswer> answer;
  };

  const size_t capacity_;
  obs::MetricsRegistry* const metrics_;
  mutable std::mutex mu_;
  // Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace cfq::server

#endif  // CFQ_SERVER_RESULT_CACHE_H_
