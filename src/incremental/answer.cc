#include "incremental/answer.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "constraints/eval.h"
#include "core/pair_join.h"
#include "core/reduction.h"
#include "obs/trace.h"

namespace cfq::incremental {

namespace {

// Filters the state's frequent sets into one query side, preserving the
// state's (level-ascending, lex-within-level) order — the order mining
// the side directly would produce. `closed_by_level` receives the sets
// surviving the ANTI-MONOTONE filters only (domain restriction and the
// side threshold); that family is frequency-closed, which is what the
// reduction constants and the V^k audit require — the returned side
// sets additionally pass the (not necessarily anti-monotone) 1-var
// constraints and are what the answer reports.
Result<std::vector<FrequentSet>> FilterSide(
    const MiningState& state, const Itemset& domain, Var var,
    uint64_t min_support, const std::vector<OneVarConstraint>& one_var,
    const ItemCatalog& catalog,
    std::vector<std::vector<FrequentSet>>* closed_by_level) {
  std::vector<FrequentSet> out;
  for (const LevelState& level : state.levels) {
    std::vector<FrequentSet> closed;
    for (const FrequentSet& f : level.frequent) {
      if (f.support < min_support || !IsSubset(f.items, domain)) continue;
      closed.push_back(f);
      CFQ_ASSIGN_OR_RETURN(const bool valid,
                           EvalAll(one_var, var, f.items, catalog));
      if (valid) out.push_back(f);
    }
    closed_by_level->push_back(std::move(closed));
  }
  // Closure means a trailing empty level implies nothing deeper; keep
  // the level list tight for the audit.
  while (!closed_by_level->empty() && closed_by_level->back().empty()) {
    closed_by_level->pop_back();
  }
  return out;
}

Itemset SingletonItems(const std::vector<std::vector<FrequentSet>>& by_level) {
  Itemset out;
  if (by_level.empty()) return out;
  out.reserve(by_level[0].size());
  for (const FrequentSet& f : by_level[0]) out.push_back(f.items[0]);
  return MakeItemset(std::move(out));
}

}  // namespace

Result<CfqResult> AnswerFromState(const MiningState& state,
                                  const ItemCatalog& catalog,
                                  const CfqQuery& query,
                                  const StateAnswerOptions& options) {
  if (!IsSubset(query.s_domain, state.domain) ||
      !IsSubset(query.t_domain, state.domain)) {
    return Status::InvalidArgument(
        "query domain is not covered by the mining state's domain");
  }
  if (query.min_support_s < state.min_support ||
      query.min_support_t < state.min_support) {
    return Status::InvalidArgument(
        "query threshold " +
        std::to_string(std::min(query.min_support_s, query.min_support_t)) +
        " is below the mining state's " + std::to_string(state.min_support) +
        "; the state cannot contain all frequent sets");
  }
  Stopwatch timer;
  CfqResult result;
  std::vector<std::vector<FrequentSet>> s_closed, t_closed;
  {
    obs::TraceSpan filter_span(options.tracer, "answer.filter");
    CFQ_ASSIGN_OR_RETURN(
        result.s_sets,
        FilterSide(state, query.s_domain, Var::kS, query.min_support_s,
                   query.one_var, catalog, &s_closed));
    CFQ_ASSIGN_OR_RETURN(
        result.t_sets,
        FilterSide(state, query.t_domain, Var::kT, query.min_support_t,
                   query.one_var, catalog, &t_closed));
  }
  result.stats.mining_seconds = timer.ElapsedSeconds();
  if (options.metrics != nullptr) {
    options.metrics->Observe("incr.answer.filter_seconds",
                             result.stats.mining_seconds);
  }

  if (query.two_var.empty()) {
    result.cross_product = true;
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    if (options.metrics != nullptr) {
      options.metrics->Observe("incr.answer_seconds",
                               result.stats.elapsed_seconds);
    }
    return result;
  }

  Status live = CheckCancel(options.cancel, "state answer: pair setup");
  if (!live.ok()) return live;

  // Sound participant prefilters from the quasi-succinct reductions: a
  // side set failing its reduced condition belongs to no valid pair, so
  // it can skip exact verification without changing the answer. The
  // constants are derived from the frequency-closed sides' L1
  // singletons (a superset of any answer participant's items, which is
  // what keeps the reduction sound) and come from the lineage's shared
  // cache when one is threaded through.
  const Itemset l1_s = SingletonItems(s_closed);
  const Itemset l1_t = SingletonItems(t_closed);
  ReuseStats local_reuse;
  std::vector<OneVarConstraint> s_conditions, t_conditions;
  bool s_unsat = false, t_unsat = false;
  {
    Stopwatch reduce_wall;
    obs::TraceSpan reduce_span(options.tracer, "answer.reduce");
    for (const TwoVarConstraint& c : query.two_var) {
      Reduction reduction;
      if (options.ctx != nullptr) {
        CFQ_ASSIGN_OR_RETURN(
            reduction, options.ctx->GetReduction(c, l1_s, l1_t, catalog,
                                                 options.nonnegative,
                                                 &local_reuse));
      } else {
        CFQ_ASSIGN_OR_RETURN(reduction,
                             ReduceTwoVar(c, l1_s, l1_t, catalog,
                                          options.nonnegative));
        ++local_reuse.reductions_recomputed;
      }
      s_unsat = s_unsat || !reduction.s.satisfiable;
      t_unsat = t_unsat || !reduction.t.satisfiable;
      for (const OneVarConstraint& rc : reduction.s.constraints) {
        s_conditions.push_back(rc);
      }
      for (const OneVarConstraint& rc : reduction.t.constraints) {
        t_conditions.push_back(rc);
      }
    }
    if (options.metrics != nullptr) {
      options.metrics->Observe("incr.answer.reduce_seconds",
                               reduce_wall.ElapsedSeconds());
    }
  }

  // Jmax V^k audit for every sum aggregate a 2-var constraint bounds:
  // re-derives the series over the source side's (possibly refreshed)
  // closed levels — levels whose frequent sets are unchanged come back
  // from the cache — and fails loudly if the maintained state broke the
  // bound's monotone soundness.
  {
    Stopwatch audit_wall;
    obs::TraceSpan audit_span(options.tracer, "answer.audit");
    for (const TwoVarConstraint& c : query.two_var) {
      const auto* agg = std::get_if<AggConstraint2>(&c);
      if (agg == nullptr) continue;
      if (agg->agg_s == AggFn::kSum && s_closed.size() >= 2) {
        CFQ_ASSIGN_OR_RETURN(
            const VkAudit audit,
            AuditVkSeries(s_closed, agg->attr_s, catalog, options.ctx,
                          &local_reuse, options.tracer, 'S'));
        if (!audit.sound) {
          return Status::Internal("V^k series over S is unsound for attr " +
                                  agg->attr_s + "; state diverged");
        }
      }
      if (agg->agg_t == AggFn::kSum && t_closed.size() >= 2) {
        CFQ_ASSIGN_OR_RETURN(
            const VkAudit audit,
            AuditVkSeries(t_closed, agg->attr_t, catalog, options.ctx,
                          &local_reuse, options.tracer, 'T'));
        if (!audit.sound) {
          return Status::Internal("V^k series over T is unsound for attr " +
                                  agg->attr_t + "; state diverged");
        }
      }
    }
    if (options.metrics != nullptr) {
      options.metrics->Observe("incr.answer.audit_seconds",
                               audit_wall.ElapsedSeconds());
    }
  }
  if (options.reuse != nullptr) options.reuse->MergeFrom(local_reuse);

  // Pair formation over the prefilter survivors; emitted (i, j) index
  // the FULL side lists, so surviving pairs appear in exactly the order
  // an unfiltered join would emit.
  Stopwatch pair_timer;
  obs::TraceSpan pair_span(options.tracer, "answer.pair");
  uint64_t prefiltered = 0;
  std::vector<char> s_ok(result.s_sets.size(), 1);
  std::vector<char> t_ok(result.t_sets.size(), 1);
  if (s_unsat || t_unsat) {
    // Some constraint is unsatisfiable on one side: no valid pair
    // exists at all.
    std::fill(s_ok.begin(), s_ok.end(), 0);
    std::fill(t_ok.begin(), t_ok.end(), 0);
    prefiltered = result.s_sets.size() + result.t_sets.size();
  } else {
    for (size_t i = 0; i < result.s_sets.size(); ++i) {
      CFQ_ASSIGN_OR_RETURN(
          const bool ok,
          EvalAll(s_conditions, Var::kS, result.s_sets[i].items, catalog));
      if (!ok) {
        s_ok[i] = 0;
        ++prefiltered;
      }
    }
    for (size_t j = 0; j < result.t_sets.size(); ++j) {
      CFQ_ASSIGN_OR_RETURN(
          const bool ok,
          EvalAll(t_conditions, Var::kT, result.t_sets[j].items, catalog));
      if (!ok) {
        t_ok[j] = 0;
        ++prefiltered;
      }
    }
  }
  PairJoinOptions join;
  join.cancel = options.cancel;
  join.s_participants = &s_ok;
  join.t_participants = &t_ok;
  join.tracer = options.tracer;
  join.metrics = options.metrics;
  CFQ_RETURN_IF_ERROR(FormPairs(query.two_var, catalog, join, &result));
  result.stats.pair_seconds = pair_timer.ElapsedSeconds();
  if (options.metrics != nullptr) {
    options.metrics->Observe("incr.answer.pair_seconds",
                             result.stats.pair_seconds);
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  if (options.metrics != nullptr) {
    options.metrics->Observe("incr.answer_seconds",
                             result.stats.elapsed_seconds);
    options.metrics->Add("incr.pair.checks", result.stats.pair_checks);
    options.metrics->Add("incr.pair.prefiltered", prefiltered);
    options.metrics->Add("incr.reductions.reused",
                         local_reuse.reductions_reused);
    options.metrics->Add("incr.reductions.recomputed",
                         local_reuse.reductions_recomputed);
    options.metrics->Add("incr.vk.levels_reused",
                         local_reuse.vk_levels_reused);
    options.metrics->Add("incr.vk.levels_recomputed",
                         local_reuse.vk_levels_recomputed);
  }
  return result;
}

}  // namespace cfq::incremental
