#include "obs/trace.h"

namespace cfq::obs {

Tracer::Tracer(size_t capacity)
    : start_(std::chrono::steady_clock::now()),
      capacity_(capacity == 0 ? 1 : capacity) {}

int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void Tracer::Push(const char* name, EventPhase phase, EventPayload payload) {
  // Timestamp outside the lock so contention does not skew ts ordering
  // more than it has to; slot claim + fill inside so a wrapped slot is
  // never written by two threads at once and snapshots see whole
  // events.
  const int64_t ts = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) ring_.emplace_back();
  TraceEvent& slot = ring_[next_ % capacity_];
  ++next_;
  slot.name = name;
  slot.phase = phase;
  slot.ts_us = ts;
  slot.payload = std::move(payload);
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t total = next_;
  const uint64_t n = capacity_;
  std::vector<TraceEvent> out;
  if (total <= n) {
    out.assign(ring_.begin(), ring_.end());
    return out;
  }
  out.reserve(n);
  const uint64_t head = total % n;  // Oldest surviving slot.
  out.insert(out.end(), ring_.begin() + static_cast<size_t>(head),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<size_t>(head));
  return out;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ > capacity_ ? next_ - capacity_ : 0;
}

}  // namespace cfq::obs
