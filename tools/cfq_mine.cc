// cfq_mine: command-line CFQ mining over serialized datasets.
//
//   cfq_mine --db=baskets.txt --catalog=items.txt \
//            --query='freq(S, 40) & freq(T, 40) & max(S.Price) <= min(T.Price)' \
//            [--strategy=optimized|cap|apriori|fpgrowth] [--explain] \
//            [--threads=N] [--no-simd | --simd=scalar|avx2|neon] \
//            [--trace=run.json] [--metrics-out=run.jsonl] \
//            [--metrics-format=jsonl|prom] \
//            [--rules] [--min_confidence=0.5] [--top_k=20] \
//            [--output=pairs.csv]
//
// --trace writes a Chrome trace_event JSON file (load in Perfetto);
// --metrics-out writes the metrics registry — counters, gauges, and the
// per-level latency / scan-size histograms — as JSONL (one JSON object
// per line, the default) or Prometheus text exposition
// (--metrics-format=prom). --metrics is an alias for --metrics-out.
// --metrics-format without --metrics-out prints to stdout. With
// --explain, the EXPLAIN ANALYZE tables include latency percentiles and
// the query's resource usage (CPU, peak RSS, pool busy/idle).
//
// Exit codes: 0 ok, 1 generic error, 3 the query references an
// attribute the catalog does not define or --strategy names an unknown
// strategy (the error lists the valid set).
//
// Input files use the formats of src/data/serialize.h. When --db is
// omitted a Quest-generated demo database is used (--num_transactions,
// --num_items, --seed control it) with uniform prices and 8 types.
//
// Output: one CSV row per answer pair —
//   s_items;t_items;s_support;t_support
// plus, with --rules, one row per rule —
//   s_items;t_items;support;confidence;lift

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "bench/bench_util.h"
#include "common/version.h"
#include "core/analyze.h"
#include "core/executor.h"
#include "data/serialize.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "rules/rule_gen.h"

namespace {

using namespace cfq;

std::string JoinItems(const Itemset& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(items[i]);
  }
  return out;
}

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

// Exit code when the query names an attribute the catalog lacks.
constexpr int kUnknownAttrExit = 3;

// Like Fail, but recognizes unknown-attribute errors and lists what the
// catalog actually defines.
int FailQuery(const Status& status, const ItemCatalog& catalog) {
  std::cerr << "error: " << status << "\n";
  if (status.code() != StatusCode::kNotFound ||
      status.message().find("unknown attribute") == std::string::npos) {
    return 1;
  }
  std::cerr << "hint: the catalog defines these attributes:";
  for (const std::string& name : catalog.AttrNames()) {
    std::cerr << ' ' << name;
  }
  std::cerr << "\n";
  return kUnknownAttrExit;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  bench::ApplySimdArgs(args);
  if (args.GetBool("version", false)) {
    std::cout << VersionLine("cfq_mine") << "\n";
    return 0;
  }
  const std::string query_text = args.GetString("query", "");
  if (query_text.empty()) {
    std::cerr << "usage: cfq_mine --query='<cfq>' [--db=... --catalog=...]\n"
                 "see the header of tools/cfq_mine.cc for all flags\n";
    return 1;
  }

  // --- Data. ---------------------------------------------------------------
  TransactionDb db(0);
  ItemCatalog catalog(0);
  const std::string db_path = args.GetString("db", "");
  if (!db_path.empty()) {
    const std::string catalog_path = args.GetString("catalog", "");
    if (catalog_path.empty()) {
      std::cerr << "error: --db requires --catalog\n";
      return 1;
    }
    auto loaded = LoadDataset(db_path, catalog_path);
    if (!loaded.ok()) return Fail(loaded.status());
    db = std::move(loaded->db);
    catalog = std::move(loaded->catalog);
  } else {
    bench::DbConfig config = bench::DbConfig::FromArgs(args);
    if (args.GetInt("num_transactions", -1) < 0) {
      config.num_transactions = 5000;
    }
    if (args.GetInt("num_items", -1) < 0) config.num_items = 200;
    if (args.GetInt("num_patterns", -1) < 0) config.num_patterns = 100;
    db = bench::MustGenerate(config);
    catalog = ItemCatalog(config.num_items);
    if (auto s = AssignUniformPrices(&catalog, "Price", 1, 1000,
                                     config.seed + 1);
        !s.ok()) {
      return Fail(s);
    }
    std::vector<int32_t> types(config.num_items);
    for (ItemId i = 0; i < config.num_items; ++i) {
      types[i] = static_cast<int32_t>(i % 8);
    }
    (void)catalog.AddCategoricalAttr("Type", types);
    std::cerr << "note: no --db given; using a generated demo database ("
              << config.num_transactions << " baskets, " << config.num_items
              << " items, attributes Price and Type)\n";
  }

  // --- Query. ----------------------------------------------------------
  auto parsed = ParseCfq(query_text);
  if (!parsed.ok()) return Fail(parsed.status());
  CfqQuery query = std::move(parsed).value();
  for (ItemId i = 0; i < db.num_items(); ++i) {
    query.s_domain.push_back(i);
    query.t_domain.push_back(i);
  }

  PlanOptions options;
  options.counter = bench::CounterFromArgs(args);
  options.threads = bench::ThreadsFromArgs(args);

  const std::string trace_path = args.GetString("trace", "");
  // --metrics-out with --metrics as a backward-compatible alias.
  std::string metrics_path = args.GetString("metrics-out", "");
  if (metrics_path.empty()) metrics_path = args.GetString("metrics", "");
  const std::string metrics_format = args.GetString("metrics-format", "");
  if (!metrics_format.empty() && metrics_format != "jsonl" &&
      metrics_format != "prom") {
    std::cerr << "error: unknown --metrics-format '" << metrics_format
              << "' (want jsonl|prom)\n";
    return 1;
  }
  // Probe writability up front so a bad path fails before mining.
  if (!metrics_path.empty()) {
    std::ofstream probe(metrics_path, std::ios::app);
    if (!probe) {
      std::cerr << "error: cannot open '" << metrics_path
                << "' for writing\n";
      return 1;
    }
  }
  const bool explain = args.GetBool("explain", false);
  const bool want_metrics =
      !metrics_path.empty() || !metrics_format.empty() || explain;
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty() || explain) {
    tracer = std::make_unique<obs::Tracer>();
    options.tracer = tracer.get();
  }
  obs::MetricsRegistry registry;
  if (want_metrics) options.metrics = &registry;

  auto plan = BuildPlan(query, options);
  if (!plan.ok()) return FailQuery(plan.status(), catalog);
  if (explain) {
    std::cout << ExplainPlan(plan.value());
  }

  // --- Execute. --------------------------------------------------------
  const std::string strategy_name = args.GetString("strategy", "optimized");
  const std::optional<Strategy> strategy = ParseStrategy(strategy_name);
  if (!strategy.has_value()) {
    std::cerr << "error: unknown --strategy '" << strategy_name << "' (want "
              << StrategyNameList() << ")\n";
    return kUnknownAttrExit;
  }
  auto result = ExecuteStrategy(*strategy, &db, catalog, plan.value());
  if (!result.ok()) return FailQuery(result.status(), catalog);
  // Answer identity for cross-build / cross-kernel comparison; shown by
  // EXPLAIN ANALYZE and on stderr next to the pair count.
  result->stats.result_digest = DigestCfqResult(result.value());

  // --- Observability output. -------------------------------------------
  const std::vector<obs::TraceEvent> events =
      tracer != nullptr ? tracer->Events() : std::vector<obs::TraceEvent>{};
  if (want_metrics) ExportMetrics(result->stats, &registry);
  if (explain) {
    std::cout << "\n" << RenderExplainAnalyze(result->stats, events, &registry);
  }
  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "error: cannot open '" << trace_path << "'\n";
      return 1;
    }
    obs::WriteChromeTrace(events, trace_file);
    if (tracer->dropped() > 0) {
      std::cerr << "note: trace ring wrapped; " << tracer->dropped()
                << " oldest events dropped\n";
    }
  }
  if (!metrics_path.empty() || !metrics_format.empty()) {
    std::ofstream metrics_file;
    if (!metrics_path.empty()) {
      metrics_file.open(metrics_path);
      if (!metrics_file) {
        std::cerr << "error: cannot open '" << metrics_path << "'\n";
        return 1;
      }
    }
    std::ostream& sink = metrics_path.empty() ? std::cout : metrics_file;
    if (metrics_format == "prom") {
      obs::WritePrometheus(registry, sink);
    } else {
      registry.WriteJsonl(sink);
    }
  }

  std::cerr << result->s_sets.size() << " valid frequent S-sets, "
            << result->t_sets.size() << " T-sets, "
            << AnswerPairs(result.value()).size() << " answer pairs in "
            << result->stats.elapsed_seconds << "s ("
            << result->stats.s.sets_counted + result->stats.t.sets_counted
            << " candidates counted), digest "
            << result->stats.result_digest << "\n";

  // --- Output. ---------------------------------------------------------
  std::ofstream file;
  const std::string output = args.GetString("output", "");
  if (!output.empty()) {
    file.open(output);
    if (!file) {
      std::cerr << "error: cannot open '" << output << "'\n";
      return 1;
    }
  }
  std::ostream& out = output.empty() ? std::cout : file;

  if (args.GetBool("rules", false)) {
    RuleOptions rule_options;
    rule_options.min_confidence = args.GetDouble("min_confidence", 0.0);
    rule_options.min_lift = args.GetDouble("min_lift", 0.0);
    rule_options.top_k = static_cast<size_t>(args.GetInt("top_k", 0));
    auto rules = FormRules(&db, result.value(), rule_options);
    if (!rules.ok()) return Fail(rules.status());
    out << "antecedent;consequent;support;confidence;lift\n";
    for (const AssociationRule& rule : *rules) {
      out << JoinItems(rule.antecedent) << ';' << JoinItems(rule.consequent)
          << ';' << rule.support << ';' << rule.confidence << ';'
          << rule.lift << '\n';
    }
  } else {
    out << "s_items;t_items;s_support;t_support\n";
    auto emit = [&](const FrequentSet& s, const FrequentSet& t) {
      out << JoinItems(s.items) << ';' << JoinItems(t.items) << ';'
          << s.support << ';' << t.support << '\n';
    };
    if (result->cross_product) {
      for (const FrequentSet& s : result->s_sets) {
        for (const FrequentSet& t : result->t_sets) emit(s, t);
      }
    } else {
      for (const auto& [i, j] : result->pairs) {
        emit(result->s_sets[i], result->t_sets[j]);
      }
    }
  }
  return 0;
}
