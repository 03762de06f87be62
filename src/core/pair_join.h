// Pair formation: the one place answer pairs are formed.
//
// Every strategy ends the same way: both sides' valid frequent sets are
// mined, and each candidate pair (S_i, T_j) is verified against the
// query's 2-var conjunction. Evaluating a conjunct only needs one value
// per side set — agg(S_i.A) for an aggregate constraint, the value set
// S_i.A for a domain constraint — so the join computes those once per
// side set into per-conjunct columns (the per-set analogue of the
// paper's quasi-succinct constants over L1^S.A / L1^T.B, Section 4).
// Each S-row then narrows its T candidates conjunct by conjunct on the
// columns, so every (i, j) is decided without touching the catalog.
//
// Columns are built with the ground-truth evaluator's own primitives
// (ItemCatalog::Project, ProjectSet, Aggregate) and compared with
// CompareScalar / EvalSetCmp, so every verdict — float sum/avg
// included — equals EvalAllPairs on the same pair. An undefined
// aggregate (min/max/avg over an empty projection) fails every pair it
// takes part in, exactly as EvalPair does.
//
// Emission is row-major (i ascending, then j ascending). With a pool,
// S-rows are sharded: each row's matches are first recorded as a bitmap
// and then expanded at the row's offset into a pair vector sized once,
// so the pair vector, the check count and every digest downstream are
// identical at every thread count, and so is every allocation the join
// makes (all on the calling thread). The cancel token is polled once per
// S-row on both the serial and the sharded path.

#ifndef CFQ_CORE_PAIR_JOIN_H_
#define CFQ_CORE_PAIR_JOIN_H_

#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "constraints/two_var.h"
#include "core/executor.h"
#include "data/item_catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cfq {

struct PairJoinOptions {
  // Shards S-rows when it has more than one thread; null runs serially.
  ThreadPool* pool = nullptr;
  const CancelToken* cancel = nullptr;  // Not owned; may be null.
  // Optional participant masks, one entry per side set: a zero entry
  // excludes the set from the join (it is neither checked nor emitted).
  // The incremental answer passes its sound quasi-succinct prefilter
  // here. Null means every set participates.
  const std::vector<char>* s_participants = nullptr;
  const std::vector<char>* t_participants = nullptr;
  // Records a "form_pairs" span and one PairPhaseEvent per join.
  obs::Tracer* tracer = nullptr;
  // Observes pair.form_seconds (whole join) and pair.columns_seconds
  // (the column build inside it).
  obs::MetricsRegistry* metrics = nullptr;
};

// Forms result->pairs from result->s_sets x result->t_sets. With no
// 2-var constraint the answer is the cross product: result->cross_product
// is set, `pairs` stays empty, and nothing is checked or recorded.
// Otherwise result->pairs is replaced by the verified pairs and
// result->stats.pair_checks grows by the number of pairs checked.
//
// Errors: kDeadlineExceeded when the token expires with S-rows left to
// check; a column-build error (unknown attribute, item outside the
// catalog) whenever both sides have participants, i.e. whenever at
// least one pair would have been checked.
Status FormPairs(const std::vector<TwoVarConstraint>& two_var,
                 const ItemCatalog& catalog, const PairJoinOptions& options,
                 CfqResult* result);

}  // namespace cfq

#endif  // CFQ_CORE_PAIR_JOIN_H_
