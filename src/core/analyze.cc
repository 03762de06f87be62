#include "core/analyze.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/table_printer.h"
#include "core/answer_rows.h"
#include "obs/digest.h"
#include "obs/export.h"
#include "obs/resource.h"

namespace cfq {

namespace {

// V^k points per (source variable, level), taken from the trace.
std::map<std::pair<char, uint32_t>, double> VkByLevel(
    const std::vector<obs::TraceEvent>& events) {
  std::map<std::pair<char, uint32_t>, double> out;
  for (const obs::TraceEvent& e : events) {
    if (const auto* j = std::get_if<obs::JmaxEvent>(&e.payload)) {
      out[{j->source_var, j->level}] = j->v_k;
    }
  }
  return out;
}

void RenderSide(char var, const CccStats& stats,
                const std::map<std::pair<char, uint32_t>, double>& vk,
                std::ostringstream* os) {
  *os << "lattice " << var << " (sets counted " << stats.sets_counted
      << ", constraint checks " << stats.constraint_checks << ", scans "
      << stats.io.scans << ", pages " << stats.io.pages_read << ")\n";
  if (stats.fp_tree_nodes > 0 || stats.fp_conditional_trees > 0) {
    *os << "fp-tree: " << stats.fp_tree_nodes << " nodes, "
        << stats.fp_conditional_trees << " conditional trees\n";
  }
  std::vector<std::string> header = {"level", "generated"};
  for (size_t m = 0; m < obs::kNumMechanisms; ++m) {
    header.push_back(obs::MechanismName(static_cast<obs::Mechanism>(m)));
  }
  header.push_back("counted");
  header.push_back("frequent");
  header.push_back("V^k");
  TablePrinter table(std::move(header));
  const size_t levels = stats.generated_per_level.size();
  for (size_t i = 0; i < levels; ++i) {
    std::vector<std::string> row;
    row.push_back(std::to_string(i + 1));
    row.push_back(TablePrinter::Fmt(stats.generated_per_level[i]));
    for (size_t m = 0; m < obs::kNumMechanisms; ++m) {
      row.push_back(TablePrinter::Fmt(
          stats.pruned_per_level[i].Get(static_cast<obs::Mechanism>(m))));
    }
    row.push_back(TablePrinter::Fmt(stats.candidates_per_level[i]));
    row.push_back(TablePrinter::Fmt(stats.frequent_per_level[i]));
    auto it = vk.find({var, static_cast<uint32_t>(i + 1)});
    row.push_back(it == vk.end() ? "-" : TablePrinter::Fmt(it->second));
    table.AddRow(std::move(row));
  }
  table.Print(*os);
}

void ExportSide(const std::string& prefix, const CccStats& stats,
                obs::MetricsRegistry* registry) {
  registry->Add(prefix + ".sets_counted", stats.sets_counted);
  registry->Add(prefix + ".constraint_checks", stats.constraint_checks);
  registry->Add(prefix + ".io.scans", stats.io.scans);
  registry->Add(prefix + ".io.pages", stats.io.pages_read);
  if (stats.fp_tree_nodes > 0) {
    registry->Add(prefix + ".fpgrowth.tree.nodes", stats.fp_tree_nodes);
  }
  if (stats.fp_conditional_trees > 0) {
    registry->Add(prefix + ".fpgrowth.conditional.trees",
                  stats.fp_conditional_trees);
  }
  for (size_t i = 0; i < stats.generated_per_level.size(); ++i) {
    const std::string level = prefix + ".level." + std::to_string(i + 1);
    registry->Add(level + ".generated", stats.generated_per_level[i]);
    registry->Add(level + ".counted", stats.candidates_per_level[i]);
    registry->Add(level + ".frequent", stats.frequent_per_level[i]);
    for (size_t m = 0; m < obs::kNumMechanisms; ++m) {
      const auto mech = static_cast<obs::Mechanism>(m);
      const uint64_t n = stats.pruned_per_level[i].Get(mech);
      if (n > 0) {
        registry->Add(level + ".pruned." + obs::MechanismName(mech), n);
      }
    }
  }
}

// Short general-precision format for histogram cells, whose values
// range from sub-microsecond latencies to multi-megabyte scan sizes.
std::string FmtG(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

void RenderLatencies(const obs::MetricsRegistry& metrics,
                     std::ostringstream* os) {
  TablePrinter table({"histogram", "count", "p50", "p90", "p99", "max"});
  bool any = false;
  for (const obs::MetricsRegistry::Sample& s : metrics.Snapshot()) {
    if (s.kind != obs::MetricsRegistry::SampleKind::kHistogram) continue;
    any = true;
    table.AddRow({s.name, TablePrinter::Fmt(s.histogram.count()),
                  FmtG(s.histogram.Quantile(0.5)),
                  FmtG(s.histogram.Quantile(0.9)),
                  FmtG(s.histogram.Quantile(0.99)), FmtG(s.histogram.max())});
  }
  if (!any) return;
  *os << "\nlatency histograms (seconds unless named .bytes)\n";
  table.Print(*os);
}

}  // namespace

std::string RenderExplainAnalyze(const StrategyStats& stats,
                                 const std::vector<obs::TraceEvent>& events,
                                 const obs::MetricsRegistry* metrics) {
  const auto vk = VkByLevel(events);
  std::ostringstream os;
  RenderSide('S', stats.s, vk, &os);
  os << "\n";
  RenderSide('T', stats.t, vk, &os);
  os << "\npair phase: " << stats.pair_checks << " checks";
  for (const obs::TraceEvent& e : events) {
    if (const auto* p = std::get_if<obs::PairPhaseEvent>(&e.payload)) {
      os << ", " << p->kept << " kept, columns "
         << TablePrinter::Fmt(p->columns_seconds, 4) << "s";
    }
  }
  os << "\ntiming: mining " << TablePrinter::Fmt(stats.mining_seconds, 4)
     << "s, pairs " << TablePrinter::Fmt(stats.pair_seconds, 4) << "s, total "
     << TablePrinter::Fmt(stats.elapsed_seconds, 4) << "s\n";
  if (!stats.miner.empty()) {
    os << "miner: " << stats.miner << "\n";
  }
  if (!stats.simd_kernel.empty()) {
    os << "counting kernel: " << stats.simd_kernel << "\n";
  }
  if (!stats.result_digest.empty()) {
    os << "result digest: " << stats.result_digest << "\n";
  }
  if (metrics != nullptr) RenderLatencies(*metrics, &os);
  if (stats.resources.wall_seconds > 0) {
    os << "\n" << obs::RenderResourceUsage(stats.resources, stats.pool);
  }
  return os.str();
}

std::string DigestCfqResult(const CfqResult& result) {
  return obs::DigestHex(AnswerDigest(result, UINT64_MAX));
}

void ExportMetrics(const StrategyStats& stats, obs::MetricsRegistry* registry) {
  ExportSide("s", stats.s, registry);
  ExportSide("t", stats.t, registry);
  registry->Add("pair_checks", stats.pair_checks);
  if (stats.s.fp_tree_nodes + stats.t.fp_tree_nodes > 0) {
    registry->Add("fpgrowth.tree.nodes",
                  stats.s.fp_tree_nodes + stats.t.fp_tree_nodes);
  }
  if (stats.s.fp_conditional_trees + stats.t.fp_conditional_trees > 0) {
    registry->Add("fpgrowth.conditional.trees",
                  stats.s.fp_conditional_trees + stats.t.fp_conditional_trees);
  }
  registry->SetGauge("elapsed_seconds", stats.elapsed_seconds);
  registry->SetGauge("mining_seconds", stats.mining_seconds);
  registry->SetGauge("pair_seconds", stats.pair_seconds);
  ExportResource(stats.resources, registry);
  ExportPoolStats(stats.pool, registry);
  obs::ExportSimdMetrics(registry);
}

}  // namespace cfq
