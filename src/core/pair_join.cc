#include "core/pair_join.h"

#include <algorithm>
#include <atomic>
#include <bit>
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

// S-rows per pass of JoinRows: their match bitmaps stay within 4 MB.
constexpr size_t kBlockBitmapWords = size_t{1} << 19;

// Joins every S-row against `cols` into `pairs`, row-major, in blocks of
// rows sharded over `pool`: one pass narrows each row and records its
// matches as a bitmap over T-set indices, the next expands each bitmap
// at its row's offset into `pairs`, grown once per block. Every buffer
// is allocated on the calling thread, so the join's heap use does not
// depend on which thread runs which shard. False once `cancel` expired
// (polled once per row).
bool JoinRows(const std::vector<ConjunctColumns>& columns,
              const std::vector<uint32_t>& rows,
              const std::vector<uint32_t>& cols, size_t num_t,
              const CancelToken* cancel, ThreadPool* pool, PairList* pairs) {
  const size_t words = (num_t + 63) / 64;
  const size_t block =
      std::min(rows.size(), std::max<size_t>(1, kBlockBitmapWords / words));
  const size_t shards = std::min(pool->num_threads() * 4, block);
  std::vector<uint64_t> bits(block * words);
  std::vector<size_t> offset(block + 1);
  std::vector<std::vector<uint32_t>> cands(shards);
  for (std::vector<uint32_t>& cand : cands) cand.reserve(cols.size());
  for (size_t first = 0; first < rows.size(); first += block) {
    const size_t n = std::min(block, rows.size() - first);
    std::fill_n(bits.begin(), n * words, 0);
    std::atomic<bool> expired{false};
    pool->ParallelChunks(n, shards, [&](size_t shard, size_t begin,
                                        size_t end) {
      std::vector<uint32_t>& cand = cands[shard];
      for (size_t b = begin; b < end; ++b) {
        if (cancel != nullptr && cancel->Expired()) {
          expired.store(true, std::memory_order_relaxed);
          return;
        }
        cand.assign(cols.begin(), cols.end());
        for (const ConjunctColumns& c : columns) {
          Narrow(c, rows[first + b], &cand);
          if (cand.empty()) break;
        }
        for (uint32_t j : cand) bits[b * words + j / 64] |= 1ULL << j % 64;
        offset[b + 1] = cand.size();
      }
    });
    if (expired.load(std::memory_order_relaxed)) return false;
    offset[0] = pairs->size();
    for (size_t b = 0; b < n; ++b) offset[b + 1] += offset[b];
    pairs->resize(offset[n]);
    pool->ParallelChunks(n, shards, [&](size_t, size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) {
        std::pair<uint32_t, uint32_t>* out = pairs->data() + offset[b];
        for (size_t w = 0; w < words; ++w) {
          for (uint64_t word = bits[b * words + w]; word != 0;
               word &= word - 1) {
            *out++ = {rows[first + b],
                      static_cast<uint32_t>(w * 64 + std::countr_zero(word))};
          }
        }
      }
    });
  }
  return true;
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

    ThreadPool serial(1);
    const bool shard =
        options.pool != nullptr && rows.size() * cols.size() >= 2048;
    if (!JoinRows(columns, rows, cols, result->t_sets.size(), options.cancel,
                  shard ? options.pool : &serial, &pairs)) {
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
