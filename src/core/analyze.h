// EXPLAIN ANALYZE rendering and metrics export.
//
// RenderExplainAnalyze turns the per-level pruning attribution recorded
// in StrategyStats (plus the V^k series captured by a Tracer) into the
// per-variable tables shown by `cfq_mine --explain` and the shell's
// `analyze` command. Each row obeys the identity
//   generated - (infrequent-subset + 1-var + quasi-succinct + induced
//                + jmax) == counted.
//
// ExportMetrics flattens the same stats into a MetricsRegistry under
// stable dotted names (s.sets_counted, t.level.2.pruned.jmax, ...) for
// the JSONL surface consumed by harnesses and CI.

#ifndef CFQ_CORE_ANALYZE_H_
#define CFQ_CORE_ANALYZE_H_

#include <string>
#include <vector>

#include "core/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cfq {

// Per-level tables for both variables. `events` supplies the V^k column
// (JmaxEvents keyed by source variable and level); pass {} when no
// tracer ran and the column renders as "-". When `metrics` is non-null
// its histograms (per-level gen/count latencies, pair formation, scan
// bytes) are rendered as a count/p50/p90/p99/max table, and the
// resource/pool summary from `stats` is appended.
std::string RenderExplainAnalyze(const StrategyStats& stats,
                                 const std::vector<obs::TraceEvent>& events,
                                 const obs::MetricsRegistry* metrics = nullptr);

// The canonical result digest of a CfqResult as 16 hex digits:
// AnswerDigest (core/answer_rows.h) over every row, cross products
// expanded. The same value, by construction, as digesting the rows of
// a served response with no row cap: the identity replayed workloads
// verify against.
std::string DigestCfqResult(const CfqResult& result);

// Flattens StrategyStats into `registry` under dotted names:
//   {s,t}.sets_counted / .constraint_checks / .io.scans / .io.pages
//   {s,t}.level.<k>.generated / .counted / .frequent
//   {s,t}.level.<k>.pruned.<mechanism>
//   pair_checks (counter); elapsed/mining/pair_seconds (gauges);
//   resource.* and pool.* via obs::ExportResource / ExportPoolStats.
void ExportMetrics(const StrategyStats& stats, obs::MetricsRegistry* registry);

}  // namespace cfq

#endif  // CFQ_CORE_ANALYZE_H_
