// In-memory span log for the traced run.
//
// Spans carry a name, the repo layer they are attributed to, start and
// end (steady-clock nanoseconds), a parent index and the request id.
// Nothing is written while the run is measuring: WriteChromeTrace dumps
// the whole log once at the end, and LayerTable folds it into per-layer
// self time (a span's duration minus its children's).

#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // Index into the same log; -1 for a root.
  int64_t request = -1;
  int lane = 0;  // Chrome trace tid: the connection, or the in-process pass.
};

class SpanLog {
 public:
  // Records a finished span; returns its index for children to use.
  int Add(const std::string& name, const std::string& layer,
          int64_t start_ns, int64_t end_ns, int parent, int64_t request,
          int lane) {
    spans_.push_back(Span{name, layer, start_ns, end_ns, parent, request,
                          lane});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Opens a span whose end is filled in later by Close().
  int Open(const std::string& name, const std::string& layer,
           int64_t start_ns, int parent, int64_t request, int lane) {
    return Add(name, layer, start_ns, start_ns, parent, request, lane);
  }
  void Close(int index, int64_t end_ns) { spans_[index].end_ns = end_ns; }

  // Appends `other`, re-basing its parent indices.
  void Merge(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct LayerRow {
  double self_seconds = 0;
  uint64_t spans = 0;
};

// Self time and span count per layer.
std::map<std::string, LayerRow> LayerTable(const std::vector<Span>& spans);

// Chrome trace_event JSON ("X" complete events, microseconds).
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2e

#endif  // E2EBENCH_SPANS_H_
