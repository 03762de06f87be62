#include "spans.h"

#include <algorithm>
#include <fstream>

#include "server/json.h"

namespace e2e {

void SpanLog::Merge(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, LayerRow> LayerTable(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerRow> table;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t self =
        std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns - child_ns[i]);
    LayerRow& row = table[spans[i].layer];
    row.self_seconds += static_cast<double>(self) * 1e-9;
    ++row.spans;
  }
  return table;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  using cfq::server::JsonEscape;
  using cfq::server::JsonNumber;
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << JsonEscape(s.name)
        << "\",\"cat\":\"" << JsonEscape(s.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << JsonNumber(static_cast<double>(s.start_ns - origin) / 1e3)
        << ",\"dur\":" << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"request\":" << s.request << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
