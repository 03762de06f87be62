// Structured tracing for the mining stack.
//
// A Tracer collects typed events (per-level pruning attribution, Jmax
// V^k series points, database scans, pair-formation summaries) plus
// RAII begin/end spans into a fixed-capacity ring buffer. Recording is
// thread-safe: a short mutex-guarded critical section claims the slot
// and fills it, so concurrent lattice threads and sharded counters can
// share one tracer and a snapshot never observes a torn event (the
// memory model the attribution identity tests rely on). When the ring
// wraps, the oldest events are overwritten and counted in dropped().
// The ring grows on demand up to its capacity, so a short-lived tracer
// (one per served query) costs only the events it records.
// A null Tracer* everywhere means tracing is off and costs one pointer
// test per site, so instrumentation stays compiled in.
//
// Exporters (export.h) turn a snapshot into Chrome trace_event JSON
// (chrome://tracing, Perfetto) or JSONL for harnesses and CI.

#ifndef CFQ_OBS_TRACE_H_
#define CFQ_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <variant>
#include <vector>

#include "obs/mechanism.h"

namespace cfq::obs {

// One completed lattice level: `candidates` were generated, `pruned_by`
// attributes everyone discarded before counting, `counted` had their
// support computed, `frequent` met the threshold. Invariant:
// candidates - pruned_by.Total() == counted.
struct LevelEvent {
  char var = '?';  // 'S' or 'T' ('?' for an unbound miner).
  uint32_t level = 0;
  uint64_t candidates = 0;
  uint64_t counted = 0;
  uint64_t frequent = 0;
  PruneCounts pruned_by;
};

// One point of the decreasing V^k series (Theorem 5): computed from
// `source_var`'s level-`level` frequent sets, bounding sum() on the
// other side. `v_k` is the running bound after this level (monotone
// non-increasing); `jmax_k` is the Figure-5 J bound behind it.
struct JmaxEvent {
  char source_var = '?';
  uint32_t level = 0;
  int64_t jmax_k = -1;
  double v_k = 0;
};

// One (symbolic) pass over the transaction file.
struct ScanEvent {
  uint64_t scans = 0;
  uint64_t pages = 0;
};

// Pair-formation summary: `checks` candidate pairs verified against the
// 2-var constraints, `kept` survived; `columns_seconds` is the part of
// `seconds` spent building the per-set columns (core/pair_join.h).
struct PairPhaseEvent {
  uint64_t checks = 0;
  uint64_t kept = 0;
  double seconds = 0;
  double columns_seconds = 0;
};

// One FUP-style incremental refresh (src/incremental/): the mining
// state moved from `from_generation` to `to_generation` by recounting
// `recounted` known sets over `delta_transactions` appended
// transactions, fully counting `fresh` previously-unseen candidates,
// and reusing `reused` supports untouched; `promoted`/`demoted` sets
// crossed minsup in either direction.
struct DeltaEvent {
  uint64_t from_generation = 0;
  uint64_t to_generation = 0;
  uint64_t delta_transactions = 0;
  uint64_t recounted = 0;
  uint64_t fresh = 0;
  uint64_t reused = 0;
  uint64_t promoted = 0;
  uint64_t demoted = 0;
};

enum class EventPhase : uint8_t {
  kSpanBegin,  // Chrome "B"
  kSpanEnd,    // Chrome "E"
  kInstant,    // Chrome "i"; typed payloads export as instants.
};

using EventPayload = std::variant<std::monostate, LevelEvent, JmaxEvent,
                                  ScanEvent, PairPhaseEvent, DeltaEvent>;

struct TraceEvent {
  const char* name = "";  // Must have static storage duration.
  EventPhase phase = EventPhase::kInstant;
  int64_t ts_us = 0;  // Microseconds since Tracer construction.
  EventPayload payload;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity = 1 << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void BeginSpan(const char* name) {
    Push(name, EventPhase::kSpanBegin, std::monostate{});
  }
  void EndSpan(const char* name) {
    Push(name, EventPhase::kSpanEnd, std::monostate{});
  }
  void Instant(const char* name) {
    Push(name, EventPhase::kInstant, std::monostate{});
  }
  void RecordLevel(const LevelEvent& e) {
    Push("level", EventPhase::kInstant, e);
  }
  void RecordJmax(const JmaxEvent& e) { Push("jmax", EventPhase::kInstant, e); }
  void RecordScan(const ScanEvent& e) { Push("scan", EventPhase::kInstant, e); }
  void RecordPairPhase(const PairPhaseEvent& e) {
    Push("pair_phase", EventPhase::kInstant, e);
  }
  void RecordDelta(const DeltaEvent& e) {
    Push("delta", EventPhase::kInstant, e);
  }

  // Snapshot in record order, oldest surviving event first. Safe
  // against concurrent writers (events recorded while snapshotting are
  // either fully included or fully absent, never torn).
  std::vector<TraceEvent> Events() const;

  // Events overwritten because the ring wrapped.
  uint64_t dropped() const;

 private:
  void Push(const char* name, EventPhase phase, EventPayload payload);
  int64_t NowMicros() const;

  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  const size_t capacity_;
  std::vector<TraceEvent> ring_;  // Grows to capacity_, then wraps.
  uint64_t next_ = 0;  // Total events ever recorded; guarded by mu_.
};

// RAII span; a null tracer makes both ends no-ops.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name) : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) tracer_->BeginSpan(name_);
  }
  ~TraceSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(name_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
};

}  // namespace cfq::obs

#endif  // CFQ_OBS_TRACE_H_
