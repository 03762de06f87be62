#include "core/ccc_audit.h"

#include <unordered_set>

#include "constraints/eval.h"
#include "core/pair_join.h"
#include "mining/apriori.h"

namespace cfq {

namespace {

using ItemsetSet = std::unordered_set<Itemset, ItemsetHash>;

// All frequent sets of `domain` as a hash set.
ItemsetSet FrequentIndex(const TransactionDb& db, const Itemset& domain,
                         uint64_t min_support) {
  ItemsetSet out;
  for (const FrequentSet& f :
       MineFrequentBruteForce(db, domain, min_support)) {
    out.insert(f.items);
  }
  return out;
}

// True iff every proper non-empty subset of `x` is frequent.
bool AllSubsetsFrequent(const Itemset& x, const ItemsetSet& frequent) {
  if (x.size() <= 1) return true;
  // Frequency is anti-monotone: checking the size-(k-1) subsets
  // suffices (they are in `frequent` only if all their subsets are,
  // recursively, because brute force found them frequent directly —
  // and an infrequent deeper subset implies an infrequent (k-1) one).
  for (size_t drop = 0; drop < x.size(); ++drop) {
    if (frequent.find(WithoutIndex(x, drop)) == frequent.end()) return false;
  }
  return true;
}

CccAudit Compare(const std::vector<Itemset>& counted, uint64_t checks,
                 uint64_t budget, const ItemsetSet& required) {
  CccAudit audit;
  audit.required = required.size();
  audit.counted = counted.size();
  audit.checks = checks;
  audit.check_budget = budget;
  audit.checks_within_budget = checks <= budget;

  ItemsetSet counted_index(counted.begin(), counted.end());
  for (const Itemset& x : counted) {
    if (required.find(x) == required.end()) {
      ++audit.extra_counted;
      audit.counted_only_required = false;
    }
  }
  for (const Itemset& x : required) {
    if (counted_index.find(x) == counted_index.end()) {
      ++audit.missed;
      audit.counted_all_required = false;
    }
  }
  return audit;
}

}  // namespace

Result<CccAudit> AuditOneVar(const TransactionDb& db,
                             const ItemCatalog& catalog, const Itemset& domain,
                             Var var,
                             const std::vector<OneVarConstraint>& constraints,
                             uint64_t min_support,
                             const std::vector<Itemset>& counted,
                             uint64_t checks) {
  const ItemsetSet frequent = FrequentIndex(db, domain, min_support);
  ItemsetSet required;
  Status error;
  ForEachNonEmptySubset(domain, [&](const Itemset& x) {
    if (!error.ok()) return;
    if (!AllSubsetsFrequent(x, frequent)) return;
    auto ok = EvalAll(constraints, var, x, catalog);
    if (!ok.ok()) {
      error = ok.status();
      return;
    }
    if (ok.value()) required.insert(x);
  });
  CFQ_RETURN_IF_ERROR(error);
  return Compare(counted, checks, domain.size(), required);
}

Result<CccAudit> AuditCfqSide(const TransactionDb& db,
                              const ItemCatalog& catalog,
                              const CfqQuery& query, Var side,
                              const std::vector<Itemset>& counted,
                              uint64_t checks) {
  const bool s_side = side == Var::kS;
  const Itemset& domain = s_side ? query.s_domain : query.t_domain;
  const Itemset& other_domain = s_side ? query.t_domain : query.s_domain;
  const uint64_t min_support =
      s_side ? query.min_support_s : query.min_support_t;
  const uint64_t other_support =
      s_side ? query.min_support_t : query.min_support_s;

  const ItemsetSet frequent = FrequentIndex(db, domain, min_support);

  // Validity per Definitions 3 & 6: 1-var constraints hold, and for the
  // 2-var conjunction a frequent witness on the other side exists.
  std::vector<FrequentSet> one_var_valid;
  Status error;
  ForEachNonEmptySubset(domain, [&](const Itemset& x) {
    if (!error.ok()) return;
    if (!AllSubsetsFrequent(x, frequent)) return;
    auto ok = EvalAll(query.one_var, side, x, catalog);
    if (!ok.ok()) {
      error = ok.status();
      return;
    }
    if (ok.value()) one_var_valid.push_back(FrequentSet{x, 0});
  });
  CFQ_RETURN_IF_ERROR(error);

  ItemsetSet required;
  if (query.two_var.empty()) {
    for (const FrequentSet& x : one_var_valid) required.insert(x.items);
  } else {
    // One join of the candidates against every frequent set of the
    // other side: a candidate is valid iff it forms at least one pair.
    CfqResult join;
    (s_side ? join.s_sets : join.t_sets) = std::move(one_var_valid);
    (s_side ? join.t_sets : join.s_sets) =
        MineFrequentBruteForce(db, other_domain, other_support);
    CFQ_RETURN_IF_ERROR(FormPairs(query.two_var, catalog, {}, &join));
    const std::vector<FrequentSet>& candidates =
        s_side ? join.s_sets : join.t_sets;
    for (const auto& [i, j] : join.pairs) {
      required.insert(candidates[s_side ? i : j].items);
    }
  }
  return Compare(counted, checks, domain.size(), required);
}

}  // namespace cfq
