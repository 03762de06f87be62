#include "stream/query.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "constraints/agg.h"
#include "constraints/eval.h"
#include "core/optimizer.h"
#include "core/pair_join.h"

namespace cfq::stream {

namespace {

// One anti-monotone sum(X.attr) <= bound descent prune (the FP-Growth
// FpGrowthBound, applied to trie paths instead of conditional trees).
struct SumBound {
  std::string attr;
  double bound = 0;
};

// DFS over the pattern trie for one side. Descends only while the
// node's approximate window support holds the threshold, its item is
// inside the domain and every sum bound still admits the path; emits
// sets passing the side's full 1-var conjunction.
Status MineSide(const PatternTree& tree,
                const std::vector<uint64_t>& covered_ids,
                const ItemCatalog& attrs, const CfqQuery& query, Var var,
                const std::vector<SumBound>& bounds, const CancelToken* cancel,
                std::vector<FrequentSet>* out) {
  const Itemset& domain = var == Var::kS ? query.s_domain : query.t_domain;
  const uint64_t min_support =
      var == Var::kS ? query.min_support_s : query.min_support_t;

  struct Frame {
    uint32_t node;
    size_t depth;
    // Running sums along the path, parallel to `bounds`.
    std::vector<double> sums;
  };
  std::vector<Frame> stack;
  Itemset path;
  const PatternTree::Node& root = tree.root();
  for (auto it = root.children.rbegin(); it != root.children.rend(); ++it) {
    stack.push_back(Frame{*it, 1, std::vector<double>(bounds.size(), 0)});
  }
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (cancel != nullptr && cancel->Expired()) {
      return CancelToken::ExpiredError("stream mining");
    }
    const PatternTree::Node& node = tree.nodes()[frame.node];
    if (!Contains(domain, node.item)) continue;  // Subtree out of domain.
    const uint64_t support = tree.SupportOver(frame.node, covered_ids);
    // Approximate supports are anti-monotone down the trie, so a
    // below-threshold node dooms its whole subtree.
    if (support < min_support) continue;
    bool pruned = false;
    for (size_t b = 0; b < bounds.size(); ++b) {
      auto value = attrs.Value(bounds[b].attr, node.item);
      if (!value.ok()) return value.status();
      frame.sums[b] += value.value();
      // Nonnegative attribute (the route's anti-monotone premise):
      // the sum only grows deeper, so exceeding the bound prunes.
      if (frame.sums[b] > bounds[b].bound) {
        pruned = true;
        break;
      }
    }
    if (pruned) continue;
    path.resize(frame.depth - 1);
    path.push_back(node.item);
    auto valid = EvalAll(query.one_var, var, path, attrs);
    if (!valid.ok()) return valid.status();
    if (valid.value()) out->push_back(FrequentSet{path, support});
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back(Frame{*it, frame.depth + 1, frame.sums});
    }
  }
  // The lex-ordered DFS emission becomes the strategy-wide
  // (size, lexicographic) answer order every other miner produces.
  std::sort(out->begin(), out->end(),
            [](const FrequentSet& a, const FrequentSet& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
  return Status::Ok();
}

}  // namespace

Result<CfqResult> ExecuteStreamQuery(const PatternTree& tree,
                                     const TiltedTimeWindow& ttw, double eps,
                                     const ItemCatalog& attrs,
                                     const CfqQuery& query,
                                     const StreamQueryOptions& options,
                                     StreamWindowInfo* info) {
  Stopwatch timer;

  // Resolve the window once: the covering bucket suffix fixes both the
  // support sums and the reported coverage.
  const size_t cover = ttw.CoverIndex(query.window_units);
  std::vector<uint64_t> covered_ids;
  for (size_t i = cover; i < ttw.buckets().size(); ++i) {
    covered_ids.push_back(ttw.buckets()[i].id);
  }
  std::sort(covered_ids.begin(), covered_ids.end());
  if (info != nullptr) {
    info->requested_units = query.window_units;
    info->covered_units = ttw.CoveredUnits(cover);
    info->transactions = ttw.CoveredTransactions(cover);
    info->eps = eps;
    const uint64_t effective = query.window_units == 0
                                   ? ttw.units()
                                   : std::min(query.window_units, ttw.units());
    info->exact = eps == 0 && info->covered_units == effective;
    info->unit_watermark = ttw.units();
  }

  // The optimizer's routes tell us which direction (if any) carries an
  // anti-monotone Jmax bound — same orientation logic as
  // ExecuteFpGrowth, with window-aggregated supports underneath.
  auto plan = BuildPlan(query, PlanOptions{});
  if (!plan.ok()) return plan.status();
  bool bound_s = false, bound_t = false;
  if (options.use_jmax) {
    for (const TwoVarRoute& route : plan.value().routes) {
      bound_s = bound_s ||
                (route.jmax_prunes_s && route.jmax_s_bound_anti_monotone);
      bound_t = bound_t ||
                (route.jmax_prunes_t && route.jmax_t_bound_anti_monotone);
    }
  }
  if (bound_s) bound_t = false;

  // Exact bound over the mined source side's VALID sets (see
  // core/executor.cc bounds_from): sound for the answer pairs because
  // approximate supports only shrink each side within the stream's
  // answer semantics.
  const auto bounds_from =
      [&](const std::vector<FrequentSet>& source,
          bool for_s) -> Result<std::vector<SumBound>> {
    std::vector<SumBound> out;
    for (const TwoVarRoute& route : plan.value().routes) {
      const bool wants =
          for_s ? (route.jmax_prunes_s && route.jmax_s_bound_anti_monotone)
                : (route.jmax_prunes_t && route.jmax_t_bound_anti_monotone);
      if (!wants) continue;
      const auto& a = std::get<AggConstraint2>(route.constraint);
      double bound = -std::numeric_limits<double>::infinity();
      for (const FrequentSet& f : source) {
        auto v = AggregateOver(AggFn::kSum, for_s ? a.attr_t : a.attr_s,
                               f.items, attrs);
        if (!v.ok()) return v.status();
        bound = std::max(bound, v.value());
      }
      out.push_back(SumBound{for_s ? a.attr_s : a.attr_t, bound});
    }
    return out;
  };

  CfqResult result;
  {
    obs::TraceSpan mine_span(options.tracer, "stream_mine");
    if (bound_t) {
      CFQ_RETURN_IF_ERROR(MineSide(tree, covered_ids, attrs, query, Var::kS,
                                   {}, options.cancel, &result.s_sets));
      auto bounds = bounds_from(result.s_sets, /*for_s=*/false);
      if (!bounds.ok()) return bounds.status();
      CFQ_RETURN_IF_ERROR(MineSide(tree, covered_ids, attrs, query, Var::kT,
                                   bounds.value(), options.cancel,
                                   &result.t_sets));
    } else {
      CFQ_RETURN_IF_ERROR(MineSide(tree, covered_ids, attrs, query, Var::kT,
                                   {}, options.cancel, &result.t_sets));
      std::vector<SumBound> bounds;
      if (bound_s) {
        auto computed = bounds_from(result.t_sets, /*for_s=*/true);
        if (!computed.ok()) return computed.status();
        bounds = std::move(computed).value();
      }
      CFQ_RETURN_IF_ERROR(MineSide(tree, covered_ids, attrs, query, Var::kS,
                                   bounds, options.cancel, &result.s_sets));
    }
  }
  result.stats.mining_seconds = timer.ElapsedSeconds();

  // Pair formation through the shared join: the executor's row-major
  // order exactly (digest identity with the offline path).
  PairJoinOptions join;
  join.cancel = options.cancel;
  join.tracer = options.tracer;
  join.metrics = options.metrics;
  CFQ_RETURN_IF_ERROR(FormPairs(query.two_var, attrs, join, &result));
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  result.stats.pair_seconds =
      result.stats.elapsed_seconds - result.stats.mining_seconds;
  result.stats.miner = "stream";
  if (options.metrics != nullptr) {
    options.metrics->Observe("stream.query_seconds",
                             result.stats.elapsed_seconds);
  }
  return result;
}

}  // namespace cfq::stream
