#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/simd.h"

namespace cfq::obs {

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonEscape(const char* s) { return TraceJsonEscape(s); }

// Renders the typed payload's fields as JSON members (no braces),
// e.g. `"var":"S","level":2,...`. Empty for plain spans/instants.
std::string PayloadFields(const EventPayload& payload) {
  std::string out;
  if (const auto* level = std::get_if<LevelEvent>(&payload)) {
    out += "\"var\":\"";
    out += level->var;
    out += "\",\"level\":" + std::to_string(level->level);
    out += ",\"candidates\":" + std::to_string(level->candidates);
    out += ",\"counted\":" + std::to_string(level->counted);
    out += ",\"frequent\":" + std::to_string(level->frequent);
    out += ",\"pruned\":{";
    for (size_t m = 0; m < kNumMechanisms; ++m) {
      if (m > 0) out += ',';
      out += '"';
      out += MechanismName(static_cast<Mechanism>(m));
      out += "\":" + std::to_string(level->pruned_by.by[m]);
    }
    out += '}';
  } else if (const auto* jmax = std::get_if<JmaxEvent>(&payload)) {
    out += "\"source_var\":\"";
    out += jmax->source_var;
    out += "\",\"level\":" + std::to_string(jmax->level);
    out += ",\"jmax_k\":" + std::to_string(jmax->jmax_k);
    out += ",\"v_k\":" + JsonNumber(jmax->v_k);
  } else if (const auto* scan = std::get_if<ScanEvent>(&payload)) {
    out += "\"scans\":" + std::to_string(scan->scans);
    out += ",\"pages\":" + std::to_string(scan->pages);
  } else if (const auto* pair = std::get_if<PairPhaseEvent>(&payload)) {
    out += "\"checks\":" + std::to_string(pair->checks);
    out += ",\"kept\":" + std::to_string(pair->kept);
    out += ",\"seconds\":" + JsonNumber(pair->seconds);
    out += ",\"columns_seconds\":" + JsonNumber(pair->columns_seconds);
  } else if (const auto* delta = std::get_if<DeltaEvent>(&payload)) {
    out += "\"from_generation\":" + std::to_string(delta->from_generation);
    out += ",\"to_generation\":" + std::to_string(delta->to_generation);
    out += ",\"delta_transactions\":" +
           std::to_string(delta->delta_transactions);
    out += ",\"recounted\":" + std::to_string(delta->recounted);
    out += ",\"fresh\":" + std::to_string(delta->fresh);
    out += ",\"reused\":" + std::to_string(delta->reused);
    out += ",\"promoted\":" + std::to_string(delta->promoted);
    out += ",\"demoted\":" + std::to_string(delta->demoted);
  }
  return out;
}

}  // namespace

std::string TraceJsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void AppendChromeEvents(const std::vector<TraceEvent>& events, int pid,
                        int64_t ts_offset_us, bool* first, std::ostream& os) {
  const std::string common =
      "\"pid\":" + std::to_string(pid) + ",\"tid\":1";
  auto emit = [&](const std::string& body) {
    if (!*first) os << ',';
    *first = false;
    os << "\n{" << body << '}';
  };
  for (const TraceEvent& e : events) {
    const int64_t ts = e.ts_us + ts_offset_us;
    std::string body = "\"name\":\"" + JsonEscape(e.name) + "\",";
    switch (e.phase) {
      case EventPhase::kSpanBegin:
        body += "\"ph\":\"B\",";
        break;
      case EventPhase::kSpanEnd:
        body += "\"ph\":\"E\",";
        break;
      case EventPhase::kInstant:
        body += "\"ph\":\"i\",\"s\":\"t\",";
        break;
    }
    body += common + ",\"ts\":" + std::to_string(ts);
    const std::string fields = PayloadFields(e.payload);
    if (!fields.empty()) body += ",\"args\":{" + fields + '}';
    emit(body);
    // Counter tracks make the level series visible as graphs in
    // Perfetto without digging into instant args.
    if (const auto* level = std::get_if<LevelEvent>(&e.payload)) {
      std::string track = "\"name\":\"lattice ";
      track += level->var;
      track += "\",\"ph\":\"C\",";
      track += common + ",\"ts\":" + std::to_string(ts);
      track += ",\"args\":{\"candidates\":" +
               std::to_string(level->candidates) +
               ",\"frequent\":" + std::to_string(level->frequent) + '}';
      emit(track);
    }
  }
}

void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  AppendChromeEvents(events, /*pid=*/1, /*ts_offset_us=*/0, &first, os);
  os << "\n]}\n";
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
// names map onto that by replacing every other character with '_' and
// prefixing the exporter namespace.
std::string PromName(const std::string& dotted) {
  std::string out = "cfq_";
  for (char c : dotted) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Prometheus floats: the text format accepts C-style doubles; inf/nan
// are legal there, but the registry never produces them.
std::string PromNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void WritePrometheus(const MetricsRegistry& registry, std::ostream& os) {
  using Kind = MetricsRegistry::SampleKind;
  for (const MetricsRegistry::Sample& s : registry.Snapshot()) {
    const std::string name = PromName(s.name);
    switch (s.kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n"
           << name << " " << s.count << "\n";
        break;
      case Kind::kGauge:
        os << "# TYPE " << name << " gauge\n"
           << name << " " << PromNumber(s.value) << "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = s.histogram;
        os << "# TYPE " << name << " histogram\n";
        // Emit the populated sub-range of the power-of-two ladder:
        // buckets are cumulative, and the mandatory +Inf bucket equals
        // _count. An empty histogram still gets +Inf/_sum/_count.
        size_t first = Histogram::kNumBuckets, last = 0;
        for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          if (h.bucket_counts()[i] == 0) continue;
          first = std::min(first, i);
          last = i;
        }
        uint64_t cumulative = 0;
        for (size_t i = first; i < Histogram::kNumBuckets && i <= last; ++i) {
          cumulative += h.bucket_counts()[i];
          os << name << "_bucket{le=\""
             << PromNumber(Histogram::BucketUpperBound(i)) << "\"} "
             << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << h.count() << "\n"
           << name << "_sum " << PromNumber(h.sum()) << "\n"
           << name << "_count " << h.count() << "\n";
        break;
      }
    }
  }
}

void WriteTraceJsonl(const std::vector<TraceEvent>& events, std::ostream& os) {
  for (const TraceEvent& e : events) {
    const char* type = "instant";
    switch (e.phase) {
      case EventPhase::kSpanBegin:
        type = "span_begin";
        break;
      case EventPhase::kSpanEnd:
        type = "span_end";
        break;
      case EventPhase::kInstant:
        break;
    }
    if (e.phase == EventPhase::kInstant &&
        !std::holds_alternative<std::monostate>(e.payload)) {
      type = e.name;  // Typed events use their kind as the type tag.
    }
    os << "{\"type\":\"" << JsonEscape(type) << "\",\"name\":\""
       << JsonEscape(e.name) << "\",\"ts_us\":" << e.ts_us;
    const std::string fields = PayloadFields(e.payload);
    if (!fields.empty()) os << ',' << fields;
    os << "}\n";
  }
}

void ExportSimdMetrics(MetricsRegistry* registry) {
  registry->SetGauge(
      std::string("simd.kernel.") + simd::KernelName(simd::ActiveKernel()),
      1.0);
  for (size_t i = 0; i < simd::kNumOps; ++i) {
    const auto op = static_cast<simd::Op>(i);
    const simd::OpCounters counters = simd::CountersFor(op);
    const std::string base = std::string("simd.") + simd::OpName(op);
    registry->SetGauge(base + ".calls", static_cast<double>(counters.calls));
    registry->SetGauge(base + ".bytes",
                       static_cast<double>(counters.words * 8));
  }
}

}  // namespace cfq::obs
