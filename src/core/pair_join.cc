#include "core/pair_join.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "common/stopwatch.h"
#include "constraints/agg.h"
#include "constraints/eval.h"

namespace cfq {

namespace {

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;

// One side of one conjunct, indexed by side-set position. Aggregate
// conjuncts fill `value`/`defined`, domain conjuncts fill `values` (the
// sorted, deduplicated projection). Non-participating sets keep their
// default entries and are never read.
struct SideColumn {
  std::vector<double> value;
  std::vector<char> defined;
  std::vector<std::vector<AttrValue>> values;
};

struct ConjunctColumns {
  bool is_agg = false;
  CmpOp cmp = CmpOp::kLe;
  SetCmp set_cmp = SetCmp::kEqual;
  SideColumn s;
  SideColumn t;
};

// Keeps the candidates j with t defined and CompareScalar(lhs, kOp,
// t.value[j]); a compile-time operator lets the comparison inline.
template <CmpOp kOp>
size_t KeepAgg(double lhs, const SideColumn& t, uint32_t* cand, size_t n) {
  size_t kept = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t j = cand[k];
    cand[kept] = j;
    kept += static_cast<size_t>(t.defined[j] != 0 &&
                                CompareScalar(lhs, kOp, t.value[j]));
  }
  return kept;
}

// Narrows `cand` (T-set indices, ascending) to the j for which (S_i,
// T_j) satisfies conjunct `c` — EvalPair's verdict, read off the
// columns. Stable, so row-major order survives.
void Narrow(const ConjunctColumns& c, uint32_t i,
            std::vector<uint32_t>* cand) {
  uint32_t* data = cand->data();
  const size_t n = cand->size();
  size_t kept = 0;
  if (!c.is_agg) {
    const std::vector<AttrValue>& x = c.s.values[i];
    for (size_t k = 0; k < n; ++k) {
      const uint32_t j = data[k];
      if (EvalSetCmp(x, c.set_cmp, c.t.values[j])) data[kept++] = j;
    }
  } else if (c.s.defined[i] != 0) {
    const double lhs = c.s.value[i];
    switch (c.cmp) {
      case CmpOp::kLe:
        kept = KeepAgg<CmpOp::kLe>(lhs, c.t, data, n);
        break;
      case CmpOp::kGe:
        kept = KeepAgg<CmpOp::kGe>(lhs, c.t, data, n);
        break;
      case CmpOp::kLt:
        kept = KeepAgg<CmpOp::kLt>(lhs, c.t, data, n);
        break;
      case CmpOp::kGt:
        kept = KeepAgg<CmpOp::kGt>(lhs, c.t, data, n);
        break;
      case CmpOp::kEq:
        kept = KeepAgg<CmpOp::kEq>(lhs, c.t, data, n);
        break;
      case CmpOp::kNe:
        kept = KeepAgg<CmpOp::kNe>(lhs, c.t, data, n);
        break;
    }
  }
  // An undefined S-side aggregate keeps nothing.
  cand->resize(kept);
}

Status BuildAggColumn(AggFn fn, const std::string& attr,
                      const std::vector<FrequentSet>& sets,
                      const std::vector<uint32_t>& members,
                      const ItemCatalog& catalog, SideColumn* out) {
  out->value.assign(sets.size(), 0);
  out->defined.assign(sets.size(), 0);
  for (uint32_t k : members) {
    CFQ_ASSIGN_OR_RETURN(const std::vector<AttrValue> projected,
                         catalog.Project(attr, sets[k].items));
    auto value = Aggregate(fn, projected);
    if (value.ok()) {
      out->value[k] = value.value();
      out->defined[k] = 1;
    } else if (value.status().code() != StatusCode::kFailedPrecondition) {
      return value.status();
    }
    // Otherwise undefined (empty projection): every pair with k fails.
  }
  return Status::Ok();
}

Status BuildSetColumn(const std::string& attr,
                      const std::vector<FrequentSet>& sets,
                      const std::vector<uint32_t>& members,
                      const ItemCatalog& catalog, SideColumn* out) {
  out->values.assign(sets.size(), {});
  for (uint32_t k : members) {
    CFQ_ASSIGN_OR_RETURN(out->values[k],
                         ProjectSet(attr, sets[k].items, catalog));
  }
  return Status::Ok();
}

// Built conjunct by conjunct, S before T: the order EvalAllPairs meets
// the attributes in, so a bad attribute surfaces with the same status.
Result<std::vector<ConjunctColumns>> BuildColumns(
    const std::vector<TwoVarConstraint>& two_var, const CfqResult& result,
    const std::vector<uint32_t>& rows, const std::vector<uint32_t>& cols,
    const ItemCatalog& catalog) {
  std::vector<ConjunctColumns> columns(two_var.size());
  for (size_t c = 0; c < two_var.size(); ++c) {
    ConjunctColumns& col = columns[c];
    if (const auto* d = std::get_if<DomainConstraint2>(&two_var[c])) {
      col.set_cmp = d->cmp;
      CFQ_RETURN_IF_ERROR(
          BuildSetColumn(d->attr_s, result.s_sets, rows, catalog, &col.s));
      CFQ_RETURN_IF_ERROR(
          BuildSetColumn(d->attr_t, result.t_sets, cols, catalog, &col.t));
      continue;
    }
    const auto& a = std::get<AggConstraint2>(two_var[c]);
    col.is_agg = true;
    col.cmp = a.cmp;
    CFQ_RETURN_IF_ERROR(BuildAggColumn(a.agg_s, a.attr_s, result.s_sets,
                                       rows, catalog, &col.s));
    CFQ_RETURN_IF_ERROR(BuildAggColumn(a.agg_t, a.attr_t, result.t_sets,
                                       cols, catalog, &col.t));
  }
  return columns;
}

std::vector<uint32_t> Participants(size_t n, const std::vector<char>* mask) {
  std::vector<uint32_t> out;
  out.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    if (mask == nullptr || (*mask)[k] != 0) out.push_back(k);
  }
  return out;
}

}  // namespace

Status FormPairs(const std::vector<TwoVarConstraint>& two_var,
                 const ItemCatalog& catalog, const PairJoinOptions& options,
                 CfqResult* result) {
  if (two_var.empty()) {
    result->cross_product = true;
    return Status::Ok();
  }
  obs::TraceSpan span(options.tracer, "form_pairs");
  Stopwatch timer;
  const std::vector<uint32_t> rows =
      Participants(result->s_sets.size(), options.s_participants);
  const std::vector<uint32_t> cols =
      Participants(result->t_sets.size(), options.t_participants);
  // The first row's poll, taken before paying for the columns.
  if (!rows.empty()) {
    CFQ_RETURN_IF_ERROR(CheckCancel(options.cancel, "pair formation"));
  }

  PairList pairs;
  double columns_seconds = 0;
  if (!rows.empty() && !cols.empty()) {
    Stopwatch column_timer;
    CFQ_ASSIGN_OR_RETURN(const std::vector<ConjunctColumns> columns,
                         BuildColumns(two_var, *result, rows, cols, catalog));
    columns_seconds = column_timer.ElapsedSeconds();

    // Joins rows[begin, end) into `out`; false once the token expired.
    const auto join_rows = [&](size_t begin, size_t end, PairList* out) {
      std::vector<uint32_t> cand;
      cand.reserve(cols.size());
      for (size_t r = begin; r < end; ++r) {
        if (options.cancel != nullptr && options.cancel->Expired()) {
          return false;
        }
        const uint32_t i = rows[r];
        cand.assign(cols.begin(), cols.end());
        for (const ConjunctColumns& c : columns) {
          Narrow(c, i, &cand);
          if (cand.empty()) break;
        }
        for (uint32_t j : cand) out->emplace_back(i, j);
      }
      return true;
    };

    ThreadPool* pool = options.pool;
    if (pool != nullptr && pool->num_threads() > 1 && rows.size() >= 2 &&
        rows.size() * cols.size() >= 2048) {
      const size_t shards = std::min(pool->num_threads() * 4, rows.size());
      std::vector<PairList> partial(shards);
      std::atomic<bool> expired{false};
      pool->ParallelChunks(
          rows.size(), shards, [&](size_t shard, size_t begin, size_t end) {
            if (!join_rows(begin, end, &partial[shard])) {
              expired.store(true, std::memory_order_relaxed);
            }
          });
      if (expired.load(std::memory_order_relaxed)) {
        return CancelToken::ExpiredError("pair formation");
      }
      size_t total = 0;
      for (const PairList& local : partial) total += local.size();
      pairs.reserve(total);
      for (const PairList& local : partial) {
        pairs.insert(pairs.end(), local.begin(), local.end());
      }
    } else if (!join_rows(0, rows.size(), &pairs)) {
      return CancelToken::ExpiredError("pair formation");
    }
  }

  const uint64_t checks =
      static_cast<uint64_t>(rows.size()) * static_cast<uint64_t>(cols.size());
  result->pairs = std::move(pairs);
  result->stats.pair_checks += checks;
  const double seconds = timer.ElapsedSeconds();
  if (options.tracer != nullptr) {
    options.tracer->RecordPairPhase(obs::PairPhaseEvent{
        checks, result->pairs.size(), seconds, columns_seconds});
  }
  if (options.metrics != nullptr) {
    options.metrics->Observe("pair.form_seconds", seconds);
    options.metrics->Observe("pair.columns_seconds", columns_seconds);
  }
  return Status::Ok();
}

}  // namespace cfq
