// CFQ execution strategies.
//
// ExecuteOptimized runs the Figure-7 strategy: CAP on both variables
// with reduced / induced / Jmax conditions injected as levels complete
// (dovetailed), then pair formation with exact verification.
//
// ExecuteAprioriPlus and ExecuteCapOneVar are the paper's comparison
// points: the naive generate-and-test baseline and CAP restricted to
// the query's 1-var constraints. ExecuteBruteForce is the exponential
// oracle used by tests.
//
// All strategies return the same set of (S, T) answer pairs; they
// differ in the counting / checking work recorded in StrategyStats.

#ifndef CFQ_CORE_EXECUTOR_H_
#define CFQ_CORE_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/cfq.h"
#include "core/optimizer.h"
#include "data/transaction_db.h"
#include "mining/apriori.h"
#include "mining/ccc_stats.h"
#include "obs/resource.h"

namespace cfq {

struct StrategyStats {
  CccStats s;
  CccStats t;
  uint64_t pair_checks = 0;
  double elapsed_seconds = 0;
  // Phase split: finding the frequent valid S-/T-sets vs forming pairs.
  // The paper's comparisons target the mining phase (Section 6.2: "the
  // first step typically requires a total runtime many orders of
  // magnitude higher"), which holds at disk-bound 1999 scale; on an
  // in-memory substrate pair formation can rival mining, so harnesses
  // report both.
  double mining_seconds = 0;
  double pair_seconds = 0;
  // Per-query process resource deltas (CPU, peak RSS, faults) and the
  // counting pool's busy/idle accounting; see obs/resource.h. The
  // brute-force oracle leaves both zeroed.
  obs::ResourceUsage resources;
  ThreadPoolStats pool;
  // Counting kernel the run dispatched to ("scalar", "avx2", "neon");
  // see common/simd.h. Empty for strategies that never count (oracle).
  std::string simd_kernel;
  // Mining engine that produced the side sets ("optimized", "cap",
  // "apriori+", "fpgrowth", ...); surfaced by EXPLAIN ANALYZE.
  std::string miner;
  // Stable FNV-1a digest of the canonically-ordered answer rows
  // (obs/digest.h), as 16 hex digits. Filled by the surfaces that
  // render rows (cfq_mine, the serving layer) via DigestCfqResult, not
  // by the executor itself; empty when no digest was computed. The
  // cross-build / cross-kernel / cross-backend identity check.
  std::string result_digest;

  // Accumulates another run's stats (e.g. repeated harness iterations):
  // per-side CccStats merge levelwise, counts add, timings add.
  void MergeFrom(const StrategyStats& other) {
    s.MergeFrom(other.s);
    t.MergeFrom(other.t);
    pair_checks += other.pair_checks;
    elapsed_seconds += other.elapsed_seconds;
    mining_seconds += other.mining_seconds;
    pair_seconds += other.pair_seconds;
    resources.MergeFrom(other.resources);
    pool.MergeFrom(other.pool);
    if (simd_kernel.empty()) simd_kernel = other.simd_kernel;
    if (miner.empty()) miner = other.miner;
    if (result_digest.empty()) result_digest = other.result_digest;
  }
};

struct CfqResult {
  // Frequent sets surviving each side's (1-var + pushed 2-var)
  // conditions. The optimized strategy's side sets can be strictly
  // smaller than the baselines'; the `pairs` answer is always the same.
  std::vector<FrequentSet> s_sets;
  std::vector<FrequentSet> t_sets;
  // Answer pairs as (index into s_sets, index into t_sets).
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  // True when the query has no 2-var constraint: every (s, t)
  // combination is an answer and `pairs` is left empty.
  bool cross_product = false;
  StrategyStats stats;
};

Result<CfqResult> ExecuteOptimized(TransactionDb* db,
                                   const ItemCatalog& catalog,
                                   const CfqQuery& query,
                                   const PlanOptions& options = {});

// Runs a previously built plan (lets callers EXPLAIN then execute).
Result<CfqResult> ExecutePlan(TransactionDb* db, const ItemCatalog& catalog,
                              const CfqPlan& plan);

Result<CfqResult> ExecuteAprioriPlus(TransactionDb* db,
                                     const ItemCatalog& catalog,
                                     const CfqQuery& query,
                                     const PlanOptions& options = {});

Result<CfqResult> ExecuteCapOneVar(TransactionDb* db,
                                   const ItemCatalog& catalog,
                                   const CfqQuery& query,
                                   const PlanOptions& options = {});

// Pattern-growth execution (src/fpgrowth/): both sides are mined by
// FP-Growth with the 1-var constraint machinery pushed into the tree
// recursion. When the plan routes an anti-monotone Jmax bound against
// S (resp. T), the source side is mined first and the exact bound over
// its valid sets caps the other side's conditional trees. Answer pairs
// and digests are bit-identical to ExecuteAprioriPlus at every thread
// count.
Result<CfqResult> ExecuteFpGrowth(TransactionDb* db,
                                  const ItemCatalog& catalog,
                                  const CfqQuery& query,
                                  const PlanOptions& options = {});

// Exponential-oracle execution over small domains (tests only).
Result<CfqResult> ExecuteBruteForce(const TransactionDb& db,
                                    const ItemCatalog& catalog,
                                    const CfqQuery& query);

// The "full materialization" strategy of Section 6.2: first find all
// VALID sets by checking every subset of the domain against the 1-var
// constraints, then count the valid ones levelwise. It satisfies
// condition (1) of ccc-optimality (it counts only valid sets with
// frequent subsets) but performs up to 2^N constraint checks — the
// paper's motivating counterexample for condition (2). Exponential:
// refuses domains larger than `kFmMaxDomain` items.
inline constexpr size_t kFmMaxDomain = 20;
Result<CfqResult> ExecuteFullMaterialization(TransactionDb* db,
                                             const ItemCatalog& catalog,
                                             const CfqQuery& query);

// The strategies a caller picks by name (cfq_mine --strategy, the
// shell's `strategy`, the daemon's "strategy" field).
enum class Strategy { kOptimized, kCap, kApriori, kFpGrowth };

// Each strategy's name, indexed by the enum.
inline constexpr std::array<std::string_view, 4> kStrategyNames = {
    "optimized", "cap", "apriori", "fpgrowth"};

inline std::string_view StrategyName(Strategy strategy) {
  return kStrategyNames[static_cast<size_t>(strategy)];
}

// The strategy spelled `name`, or nullopt.
std::optional<Strategy> ParseStrategy(std::string_view name);

// "optimized|cap|apriori|fpgrowth", for usage and error text.
std::string StrategyNameList();

// Runs `strategy` on the query and options `plan` was built from:
// ExecutePlan for kOptimized, else the strategy's Execute* function.
Result<CfqResult> ExecuteStrategy(Strategy strategy, TransactionDb* db,
                                  const ItemCatalog& catalog,
                                  const CfqPlan& plan);

// Canonicalized answer pairs for cross-strategy comparison in tests.
std::vector<std::pair<Itemset, Itemset>> AnswerPairs(const CfqResult& result);

}  // namespace cfq

#endif  // CFQ_CORE_EXECUTOR_H_
