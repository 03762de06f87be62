// Interactive CFQ shell: type queries in the paper's syntax against a
// Quest-generated market-basket database, get EXPLAIN output, answer
// pairs and the top association rules.
//
//   ./examples/cfq_shell [--num_transactions=3000] [--threads=N]
//                        [--metrics-out=FILE] [--metrics-format=jsonl|prom]
//   cfq> {(S, T) | freq(S, 20) & freq(T, 20) & max(S.Price) <= min(T.Price)}
//   cfq> sum(S.Price) <= 100 & S.Type = T.Type
//   cfq> explain max(S.Price) <= min(T.Price)
//   cfq> quit

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "core/analyze.h"
#include "core/executor.h"
#include "data/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "rules/rule_gen.h"

namespace {

constexpr char kHelp[] = R"(commands:
  <query>            run a CFQ, e.g.  freq(S, 20) & max(S.Price) <= min(T.Price)
  explain <query>    show the optimizer's strategy without running it
  analyze <query>    run with tracing; per-level pruning tables, latency
                     percentiles and resource usage (CPU, peak RSS)
  strategy [<name>]  show or set the execution strategy for subsequent
                     queries: optimized|cap|apriori|fpgrowth
  load <db> <cat>    replace the session dataset with serialized files
                     (the cfqdb/cfqcat formats of cfq_gen and cfq_mine)
  save <db> <cat>    write the session dataset to serialized files
  help               this text
  quit               exit

query syntax: freq(S, N), freq(T, N), agg(S.Attr) <= c, S.Attr subset {..},
  agg(S.Attr) <= agg(T.Attr), S.Attr = T.Attr, S.Attr disjoint T.Attr, ...
attributes (generated dataset): Price (uniform 1..1000), Type (8 categories)
)";

// Splits "cmd <a> <b>" arguments; returns false unless exactly two.
bool TwoPaths(const std::string& rest, std::string* a, std::string* b) {
  std::istringstream fields(rest);
  std::string extra;
  return static_cast<bool>(fields >> *a >> *b) && !(fields >> extra);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cfq;
  bench::Args args(argc, argv);

  bench::DbConfig config;
  config.num_transactions =
      static_cast<uint64_t>(args.GetInt("num_transactions", 3000));
  config.num_items = 200;
  config.num_patterns = 100;
  TransactionDb db = bench::MustGenerate(config);

  ItemCatalog catalog(config.num_items);
  if (auto s = AssignUniformPrices(&catalog, "Price", 1, 1000, 3); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  {
    std::vector<int32_t> types(config.num_items);
    for (ItemId i = 0; i < config.num_items; ++i) {
      types[i] = static_cast<int32_t>(i % 8);
    }
    (void)catalog.AddCategoricalAttr("Type", types);
  }
  Itemset universe;
  for (ItemId i = 0; i < config.num_items; ++i) universe.push_back(i);
  auto rebuild_universe = [&] {
    universe.clear();
    for (ItemId i = 0; i < catalog.num_items(); ++i) universe.push_back(i);
  };

  // Each `analyze` overwrites the metrics file with that query's
  // registry; an unwritable path fails at startup, not mid-session.
  const bool want_metrics_file = bench::MetricsRequested(args);
  {
    std::string probe_path = args.GetString("metrics-out", "");
    if (probe_path.empty()) probe_path = args.GetString("metrics", "");
    if (!probe_path.empty()) {
      std::ofstream probe(probe_path, std::ios::app);
      if (!probe) {
        std::cerr << "error: cannot open '" << probe_path
                  << "' for writing\n";
        return 1;
      }
    }
  }

  std::cout << "CFQ shell over " << config.num_transactions << " baskets, "
            << config.num_items << " items. 'help' for syntax.\n";

  // Execution strategy for subsequent queries; `strategy <name>` swaps it.
  Strategy strategy = Strategy::kOptimized;

  std::string line;
  while (std::cout << "cfq> " << std::flush, std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    if (line == "help") {
      std::cout << kHelp;
      continue;
    }
    if (line == "strategy" || line.rfind("strategy ", 0) == 0) {
      std::istringstream fields(line.substr(8));
      std::string name, extra;
      if (!(fields >> name)) {
        std::cout << "strategy: " << StrategyName(strategy) << " (want "
                  << StrategyNameList() << ")\n";
        continue;
      }
      const std::optional<Strategy> parsed = ParseStrategy(name);
      if ((fields >> extra) || !parsed.has_value()) {
        std::cout << "unknown strategy '" << name << "' (want "
                  << StrategyNameList() << ")\n";
        continue;
      }
      strategy = *parsed;
      std::cout << "strategy: " << StrategyName(strategy) << "\n";
      continue;
    }
    if (line.rfind("load ", 0) == 0) {
      std::string db_path, cat_path;
      if (!TwoPaths(line.substr(5), &db_path, &cat_path)) {
        std::cout << "usage: load <db-path> <catalog-path>\n";
        continue;
      }
      auto loaded = LoadDataset(db_path, cat_path);
      if (!loaded.ok()) {
        std::cout << "load error: " << loaded.status() << "\n";
        continue;
      }
      db = std::move(loaded->db);
      catalog = std::move(loaded->catalog);
      rebuild_universe();
      std::cout << "loaded " << db.num_transactions() << " baskets over "
                << db.num_items() << " items; attributes:";
      for (const std::string& name : catalog.AttrNames()) {
        std::cout << ' ' << name;
      }
      std::cout << "\n";
      continue;
    }
    if (line.rfind("save ", 0) == 0) {
      std::string db_path, cat_path;
      if (!TwoPaths(line.substr(5), &db_path, &cat_path)) {
        std::cout << "usage: save <db-path> <catalog-path>\n";
        continue;
      }
      if (auto s = SaveDataset(db, catalog, db_path, cat_path); !s.ok()) {
        std::cout << "save error: " << s << "\n";
        continue;
      }
      std::cout << "wrote " << db.num_transactions() << " baskets to "
                << db_path << " and the catalog to " << cat_path << "\n";
      continue;
    }
    bool explain_only = false;
    bool analyze = false;
    std::string text = line;
    if (text.rfind("explain ", 0) == 0) {
      explain_only = true;
      text = text.substr(8);
    } else if (text.rfind("analyze ", 0) == 0) {
      analyze = true;
      text = text.substr(8);
    }
    auto parsed = ParseCfq(text);
    if (!parsed.ok()) {
      std::cout << "parse error: " << parsed.status().message() << "\n";
      continue;
    }
    CfqQuery query = std::move(parsed).value();
    query.s_domain = universe;
    query.t_domain = universe;
    // Sensible default thresholds if the query gave none.
    if (query.min_support_s <= 1) {
      query.min_support_s = std::max<uint64_t>(1, db.num_transactions() / 100);
    }
    if (query.min_support_t <= 1) {
      query.min_support_t = std::max<uint64_t>(1, db.num_transactions() / 100);
    }

    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    PlanOptions plan_options;
    plan_options.threads = bench::ThreadsFromArgs(args);
    if (analyze || want_metrics_file) {
      plan_options.tracer = &tracer;
      plan_options.metrics = &registry;
    }
    auto plan = BuildPlan(query, plan_options);
    if (!plan.ok()) {
      std::cout << "plan error: " << plan.status().message() << "\n";
      continue;
    }
    std::cout << ExplainPlan(plan.value());
    if (explain_only) continue;

    auto result = ExecuteStrategy(strategy, &db, catalog, plan.value());
    if (!result.ok()) {
      std::cout << "execution error: " << result.status().message() << "\n";
      continue;
    }
    if (analyze) {
      std::cout << "\n"
                << RenderExplainAnalyze(result->stats, tracer.Events(),
                                        &registry);
    }
    if (want_metrics_file) {
      ExportMetrics(result->stats, &registry);
      bench::WriteMetricsFromArgs(args, registry);
    }
    const auto answers = AnswerPairs(result.value());
    std::cout << result->s_sets.size() << " valid frequent S-sets, "
              << result->t_sets.size() << " T-sets, " << answers.size()
              << " answer pairs ("
              << result->stats.s.sets_counted + result->stats.t.sets_counted
              << " candidates counted)\n";

    RuleOptions rule_options;
    rule_options.top_k = 5;
    rule_options.min_confidence = 0.1;
    auto rules = FormRules(&db, result.value(), rule_options);
    if (rules.ok() && !rules->empty()) {
      std::cout << "top rules:\n";
      for (const AssociationRule& rule : *rules) {
        std::cout << "  " << ToString(rule) << "\n";
      }
    }
  }
  return 0;
}
