#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "constraints/eval.h"
#include "core/pair_join.h"
#include "core/reduction.h"
#include "fpgrowth/fp_growth.h"
#include "mining/apriori_plus.h"
#include "mining/cap.h"
#include "mining/hash_counter.h"
#include "mining/lattice.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace cfq {

namespace {

// A 1-var constraint that no non-empty set satisfies; injected when a
// reduction proves a side unsatisfiable (its MGF form has allowed = ∅).
OneVarConstraint Impossible(Var var) {
  return MakeAgg1(var, AggFn::kCount, kItemAttr, CmpOp::kLe, 0);
}

// Collects the item ids of level-1 frequent singletons.
Itemset LevelOneItems(const std::vector<FrequentSet>& level1) {
  Itemset out;
  out.reserve(level1.size());
  for (const FrequentSet& f : level1) out.push_back(f.items[0]);
  return MakeItemset(std::move(out));
}

// Tracks the Jmax V^k series for one bounded side (Section 5.2): the
// sound upper bound on sum(attr) over every frequent set of the source
// lattice is max(exact max over mined levels, V^k over deeper levels).
class VkSeries {
 public:
  VkSeries(std::string attr, const ItemCatalog* catalog,
           const JmaxOptions& options, obs::Tracer* tracer = nullptr,
           char source_var = '?')
      : attr_(std::move(attr)),
        catalog_(catalog),
        options_(options),
        tracer_(tracer),
        source_var_(source_var) {}

  // Feeds the frequent sets of a completed source-lattice level.
  // Returns the updated bound (only meaningful once level >= 1).
  Result<double> OnLevel(size_t level, const std::vector<FrequentSet>& sets,
                         bool lattice_done) {
    for (const FrequentSet& f : sets) {
      double sum = 0;
      for (ItemId item : f.items) {
        sum += catalog_->ValueUnchecked(attr_, item);
      }
      known_max_ = std::max(known_max_, sum);
    }
    if (lattice_done) {
      // Every frequent set has been enumerated: the bound is exact.
      bound_ = known_max_;
      return bound_;
    }
    if (level >= 2) {
      auto vk = ComputeVkDetail(sets, level, attr_, *catalog_, options_);
      if (!vk.ok()) return vk.status();
      bound_ = std::min(bound_, std::max(known_max_, vk.value().v_k));
      if (tracer_ != nullptr) {
        tracer_->RecordJmax(obs::JmaxEvent{source_var_,
                                           static_cast<uint32_t>(level),
                                           vk.value().jmax, vk.value().v_k});
      }
    }
    return bound_;
  }

  double bound() const { return bound_; }

 private:
  std::string attr_;
  const ItemCatalog* catalog_;
  JmaxOptions options_;
  obs::Tracer* tracer_;
  char source_var_;
  double known_max_ = 0;
  double bound_ = std::numeric_limits<double>::infinity();
};

// A dynamic bound crossing from one lattice thread to the other.
struct ChannelBound {
  AggFn agg;
  std::string attr;
  double value;
  bool prunable;
  size_t source_level;  // Producer level that computed this bound.
};

// Hands Jmax V^k bounds between the two concurrently mined lattices.
// The producer publishes after completing each level; the consumer
// blocks until the producer has published the level the sequential
// dovetail schedule would require, so the exact same bounds are in
// force before every PrepareLevel regardless of thread interleaving
// (this is what makes concurrent mining bit-identical to serial).
// `expects_bounds == false` means no Jmax hook feeds this direction,
// so the consumer never waits and the sides run fully decoupled.
class BoundsChannel {
 public:
  explicit BoundsChannel(bool expects_bounds)
      : expects_bounds_(expects_bounds) {}

  // Called by the producer after completing `level`. `bounds` may be
  // empty; the level watermark still advances so the consumer can make
  // progress. `closed` marks the producer's final level.
  void Publish(size_t level, std::vector<ChannelBound> bounds, bool closed) {
    std::lock_guard<std::mutex> lock(mu_);
    published_level_ = std::max(published_level_, level);
    for (ChannelBound& b : bounds) pending_.push_back(std::move(b));
    closed_ = closed_ || closed;
    cv_.notify_all();
  }

  // Unblocks the consumer unconditionally (producer finished or erred).
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  // Blocks until the producer has published `level` (or closed), then
  // drains the pending bounds computed at producer levels <= `level`.
  // Later bounds stay queued: if the producer ran ahead (possible when
  // the reverse direction has no hooks), applying its deeper-level
  // bounds early would prune more than the sequential schedule and
  // break bit-identity. Immediate when no bounds flow this way.
  std::vector<ChannelBound> TakeForLevel(size_t level) {
    std::unique_lock<std::mutex> lock(mu_);
    if (expects_bounds_) {
      cv_.wait(lock, [&] { return closed_ || published_level_ >= level; });
    }
    // Publishes arrive in level order, so eligible bounds are a prefix.
    size_t take = 0;
    while (take < pending_.size() && pending_[take].source_level <= level) {
      ++take;
    }
    std::vector<ChannelBound> out(
        std::make_move_iterator(pending_.begin()),
        std::make_move_iterator(pending_.begin() + take));
    pending_.erase(pending_.begin(), pending_.begin() + take);
    return out;
  }

 private:
  const bool expects_bounds_;
  std::mutex mu_;
  std::condition_variable cv_;
  // Level 1 is mined on the caller thread before the sides split, so
  // both channels start with level 1 already published.
  size_t published_level_ = 1;
  std::vector<ChannelBound> pending_;
  bool closed_ = false;
};

CapOptions ToCapOptions(const PlanOptions& options,
                        ThreadPool* pool = nullptr) {
  CapOptions cap;
  cap.counter = options.counter;
  cap.max_level = options.max_level;
  cap.nonnegative = options.nonnegative;
  cap.tracer = options.tracer;
  cap.metrics = options.metrics;
  cap.pool = pool;
  cap.cancel = options.cancel;
  return cap;
}

PairJoinOptions ToJoinOptions(const PlanOptions& options, ThreadPool* pool) {
  PairJoinOptions join;
  join.pool = pool;
  join.cancel = options.cancel;
  join.tracer = options.tracer;
  join.metrics = options.metrics;
  return join;
}

// The frame of every strategy's two steps (Section 6.2): constructed
// before mining, it times the run, tracks its resources and owns the
// counting pool; once the strategy has mined `result`'s side sets and
// per-side stats, Finish joins them into answer pairs and fills the
// shared stats. A null `options` runs without a pool and joins serially.
class StrategyRun {
 public:
  explicit StrategyRun(const PlanOptions* options) : options_(options) {
    // 0 threads resolves to hardware concurrency.
    if (options != nullptr) pool_.emplace(options->threads);
  }

  ThreadPool* pool() { return pool_.has_value() ? &*pool_ : nullptr; }

  // Moves two mined sides (each with `valid_frequent` and `stats`) into
  // `result`.
  template <typename Side>
  void TakeSides(Side s, Side t) {
    result.s_sets = std::move(s.valid_frequent);
    result.t_sets = std::move(t.valid_frequent);
    result.stats.s = std::move(s.stats);
    result.stats.t = std::move(t.stats);
  }

  Result<CfqResult> Finish(const char* miner, const CfqQuery& query,
                           const ItemCatalog& catalog) {
    result.stats.mining_seconds = timer_.ElapsedSeconds();
    CFQ_RETURN_IF_ERROR(FormPairs(
        query.two_var, catalog,
        options_ != nullptr ? ToJoinOptions(*options_, pool())
                            : PairJoinOptions{},
        &result));
    result.stats.elapsed_seconds = timer_.ElapsedSeconds();
    result.stats.pair_seconds =
        result.stats.elapsed_seconds - result.stats.mining_seconds;
    if (pool_.has_value()) result.stats.pool = pool_->stats();
    result.stats.resources = resource_tracker_.Finish();
    result.stats.simd_kernel = simd::KernelName(simd::ActiveKernel());
    result.stats.miner = miner;
    return std::move(result);
  }

  CfqResult result;

 private:
  Stopwatch timer_;
  obs::ResourceTracker resource_tracker_;
  const PlanOptions* const options_;
  std::optional<ThreadPool> pool_;
};

}  // namespace

Result<CfqResult> ExecutePlan(TransactionDb* db, const ItemCatalog& catalog,
                              const CfqPlan& plan) {
  const CfqQuery& query = plan.query;
  const PlanOptions& options = plan.options;
  StrategyRun run(&options);
  ThreadPool& pool = *run.pool();

  // Each side records into its own registry (the concurrent dovetail
  // mines the lattices on separate threads); merging S then T below
  // keeps the caller's registry deterministic at every thread count.
  obs::MetricsRegistry s_metrics, t_metrics;
  CapOptions s_options = ToCapOptions(options, &pool);
  s_options.counted_log = options.counted_log_s;
  s_options.metrics = options.metrics != nullptr ? &s_metrics : nullptr;
  CapOptions t_options = ToCapOptions(options, &pool);
  t_options.counted_log = options.counted_log_t;
  t_options.metrics = options.metrics != nullptr ? &t_metrics : nullptr;
  auto s_lattice = ConstrainedLattice::Create(
      db, catalog, query.s_domain, Var::kS, query.one_var,
      query.min_support_s, s_options);
  if (!s_lattice.ok()) return s_lattice.status();
  auto t_lattice = ConstrainedLattice::Create(
      db, catalog, query.t_domain, Var::kT, query.one_var,
      query.min_support_t, t_options);
  if (!t_lattice.ok()) return t_lattice.status();
  ConstrainedLattice& s = **s_lattice;
  ConstrainedLattice& t = **t_lattice;

  // --- Level 1 on both sides; then decouple the 2-var constraints. ------
  s.Step();
  t.Step();
  const Itemset l1_s = LevelOneItems(s.last_level_frequent());
  const Itemset l1_t = LevelOneItems(t.last_level_frequent());

  // Reduced constraints are kept apart by the mechanism that produced
  // them (Section 4 vs Section 5.1) so pruning can be attributed.
  std::vector<OneVarConstraint> decoupled_qs;
  std::vector<OneVarConstraint> decoupled_induced;
  auto add_reduction = [&](const TwoVarConstraint& c,
                           std::vector<OneVarConstraint>* out) -> Status {
    auto reduction = ReduceTwoVar(c, l1_s, l1_t, catalog, options.nonnegative,
                                  options.tracer);
    if (!reduction.ok()) return reduction.status();
    const Reduction& r = reduction.value();
    if (!r.s.satisfiable) {
      out->push_back(Impossible(Var::kS));
    } else {
      for (const OneVarConstraint& rc : r.s.constraints) {
        out->push_back(rc);
      }
    }
    if (!r.t.satisfiable) {
      out->push_back(Impossible(Var::kT));
    } else {
      for (const OneVarConstraint& rc : r.t.constraints) {
        out->push_back(rc);
      }
    }
    return Status::Ok();
  };

  // Jmax series: bounds on sum over the T lattice pruning S, and vice
  // versa. Pairs of (series, target aggregate on the bounded side).
  struct JmaxHook {
    VkSeries series;
    AggFn target_agg;
    std::string target_attr;
    bool prunable;
    bool source_is_t;
  };
  std::vector<JmaxHook> jmax_hooks;

  for (const TwoVarRoute& route : plan.routes) {
    if (route.quasi_succinct) {
      CFQ_RETURN_IF_ERROR(add_reduction(route.constraint, &decoupled_qs));
      continue;
    }
    for (const TwoVarConstraint& induced : route.induced) {
      CFQ_RETURN_IF_ERROR(add_reduction(induced, &decoupled_induced));
    }
    if (route.loose_reduction) {
      CFQ_RETURN_IF_ERROR(add_reduction(route.constraint, &decoupled_induced));
    }
    if (route.jmax_prunes_s || route.jmax_prunes_t) {
      const auto& a = std::get<AggConstraint2>(route.constraint);
      if (route.jmax_prunes_s) {
        jmax_hooks.push_back(JmaxHook{
            VkSeries(a.attr_t, &catalog, options.jmax, options.tracer, 'T'),
            a.agg_s, a.attr_s, route.jmax_s_bound_anti_monotone,
            /*source_is_t=*/true});
      }
      if (route.jmax_prunes_t) {
        jmax_hooks.push_back(JmaxHook{
            VkSeries(a.attr_s, &catalog, options.jmax, options.tracer, 'S'),
            a.agg_t, a.attr_t, route.jmax_t_bound_anti_monotone,
            /*source_is_t=*/false});
      }
    }
  }
  CFQ_RETURN_IF_ERROR(
      s.AddConstraints(decoupled_qs, obs::Mechanism::kQuasiSuccinct));
  CFQ_RETURN_IF_ERROR(
      t.AddConstraints(decoupled_qs, obs::Mechanism::kQuasiSuccinct));
  CFQ_RETURN_IF_ERROR(
      s.AddConstraints(decoupled_induced, obs::Mechanism::kInduced));
  CFQ_RETURN_IF_ERROR(
      t.AddConstraints(decoupled_induced, obs::Mechanism::kInduced));

  // Feed level-1 information into the Jmax series too (it tracks the
  // exact max over mined sets).
  auto feed_jmax = [&](bool from_t, size_t level,
                       const std::vector<FrequentSet>& sets,
                       bool source_done) -> Status {
    for (JmaxHook& hook : jmax_hooks) {
      if (hook.source_is_t != from_t) continue;
      auto bound = hook.series.OnLevel(level, sets, source_done);
      if (!bound.ok()) return bound.status();
      ConstrainedLattice& target = from_t ? s : t;
      if (std::isfinite(bound.value())) {
        target.SetDynamicBound(hook.target_agg, hook.target_attr,
                               bound.value(), hook.prunable);
      }
    }
    return Status::Ok();
  };
  CFQ_RETURN_IF_ERROR(
      feed_jmax(true, t.level(), t.last_level_frequent(), t.done()));
  CFQ_RETURN_IF_ERROR(
      feed_jmax(false, s.level(), s.last_level_frequent(), s.done()));

  // --- Remaining levels. -------------------------------------------------
  const bool concurrent_dovetail = options.dovetail &&
                                   pool.num_threads() > 1 &&
                                   options.counter != CounterKind::kHash;
  if (concurrent_dovetail) {
    // Mine the two lattices on separate threads (T on a spawned thread,
    // S on the caller), exchanging Jmax V^k bounds through monotonic
    // channels. The wait discipline reproduces the sequential dovetail
    // schedule exactly: before S counts level k it has T's bounds
    // through level k, and before T counts level k it has S's bounds
    // through level k-1 — so pruning, counted totals and mined sets are
    // bit-identical to threads=1. Each side's support counting still
    // shards transactions over the shared pool.
    bool t_feeds_s = false, s_feeds_t = false;
    for (const JmaxHook& hook : jmax_hooks) {
      (hook.source_is_t ? t_feeds_s : s_feeds_t) = true;
    }
    BoundsChannel t_to_s(t_feeds_s);
    BoundsChannel s_to_t(s_feeds_t);
    auto run_side = [&](ConstrainedLattice& self, bool is_t,
                        BoundsChannel& incoming,
                        BoundsChannel& outgoing) -> Status {
      while (!self.done()) {
        if (Status st = CheckCancel(
                options.cancel,
                std::string("level boundary (") + (is_t ? 'T' : 'S') + ")");
            !st.ok()) {
          outgoing.Close();
          return st;
        }
        // About to count level self.level()+1: T needs S through the
        // previous level, S needs T through the level being counted.
        const size_t need = is_t ? self.level() : self.level() + 1;
        for (const ChannelBound& b : incoming.TakeForLevel(need)) {
          self.SetDynamicBound(b.agg, b.attr, b.value, b.prunable);
        }
        if (!self.Step()) break;
        std::vector<ChannelBound> out;
        for (JmaxHook& hook : jmax_hooks) {
          if (hook.source_is_t != is_t) continue;
          auto bound = hook.series.OnLevel(
              self.level(), self.last_level_frequent(), self.done());
          if (!bound.ok()) {
            outgoing.Close();
            return bound.status();
          }
          if (std::isfinite(bound.value())) {
            out.push_back(ChannelBound{hook.target_agg, hook.target_attr,
                                       bound.value(), hook.prunable,
                                       self.level()});
          }
        }
        outgoing.Publish(self.level(), std::move(out), self.done());
      }
      outgoing.Close();
      return Status::Ok();
    };
    Status t_status, s_status;
    std::thread t_thread(
        [&] { t_status = run_side(t, /*is_t=*/true, s_to_t, t_to_s); });
    s_status = run_side(s, /*is_t=*/false, t_to_s, s_to_t);
    t_thread.join();
    CFQ_RETURN_IF_ERROR(t_status);
    CFQ_RETURN_IF_ERROR(s_status);
  } else if (options.dovetail) {
    while (!s.done() || !t.done()) {
      CFQ_RETURN_IF_ERROR(CheckCancel(options.cancel, "level boundary"));
      // With a horizontal backend, dovetailing lets one pass over the
      // transaction file count both lattices' levels (Section 5.2's
      // I/O argument for dovetailing).
      if (options.counter == CounterKind::kHash) {
        // Note: counting both sides in one scan means S's level-k
        // candidates see the V^k bound from T's level k-1 rather than
        // level k (a one-level lag vs. sequential stepping) — still
        // sound, slightly less pruning, half the scans. The scan itself
        // is sharded over the pool, so this path stays the same at
        // every thread count and keeps its one-scan-per-level I/O.
        const std::vector<Itemset>& t_batch = t.PrepareLevel();
        const std::vector<Itemset>& s_batch = s.PrepareLevel();
        if (!t_batch.empty() && !s_batch.empty()) {
          CccStats scan_stats;
          scan_stats.tracer = options.tracer;
          scan_stats.metrics = t_options.metrics;  // One scan; T's books.
          const auto supports = CountBatchesSharedScan(
              *db, {&t_batch, &s_batch}, &scan_stats, &pool);
          // One physical scan for the whole query; attribute it to T.
          t.AccountIo(scan_stats.io.scans, scan_stats.io.pages_read);
          t.CompleteLevel(supports[0]);
          CFQ_RETURN_IF_ERROR(
              feed_jmax(true, t.level(), t.last_level_frequent(), t.done()));
          s.CompleteLevel(supports[1]);
          CFQ_RETURN_IF_ERROR(feed_jmax(false, s.level(),
                                        s.last_level_frequent(), s.done()));
          continue;
        }
        // One side exhausted: fall through to plain stepping.
      }
      if (t.Step()) {
        CFQ_RETURN_IF_ERROR(
            feed_jmax(true, t.level(), t.last_level_frequent(), t.done()));
      }
      if (s.Step()) {
        CFQ_RETURN_IF_ERROR(
            feed_jmax(false, s.level(), s.last_level_frequent(), s.done()));
      }
    }
  } else {
    // Non-dovetailed: finish T first so S sees the exact global bound.
    while (!t.done()) {
      CFQ_RETURN_IF_ERROR(CheckCancel(options.cancel, "level boundary (T)"));
      if (!t.Step()) break;
      CFQ_RETURN_IF_ERROR(
          feed_jmax(true, t.level(), t.last_level_frequent(), t.done()));
    }
    CFQ_RETURN_IF_ERROR(feed_jmax(true, t.level(), {}, /*source_done=*/true));
    while (!s.done()) {
      CFQ_RETURN_IF_ERROR(CheckCancel(options.cancel, "level boundary (S)"));
      if (!s.Step()) break;
      CFQ_RETURN_IF_ERROR(
          feed_jmax(false, s.level(), s.last_level_frequent(), s.done()));
    }
  }

  if (options.metrics != nullptr) {
    options.metrics->MergeFrom(s_metrics);
    options.metrics->MergeFrom(t_metrics);
  }

  run.result.s_sets = s.valid_frequent();
  run.result.t_sets = t.valid_frequent();
  run.result.stats.s = s.stats();
  run.result.stats.t = t.stats();
  // The per-side registries are locals; don't let their pointers escape.
  run.result.stats.s.metrics = nullptr;
  run.result.stats.t.metrics = nullptr;
  return run.Finish("optimized", query, catalog);
}

Result<CfqResult> ExecuteOptimized(TransactionDb* db,
                                   const ItemCatalog& catalog,
                                   const CfqQuery& query,
                                   const PlanOptions& options) {
  auto plan = BuildPlan(query, options);
  if (!plan.ok()) return plan.status();
  return ExecutePlan(db, catalog, plan.value());
}

Result<CfqResult> ExecuteAprioriPlus(TransactionDb* db,
                                     const ItemCatalog& catalog,
                                     const CfqQuery& query,
                                     const PlanOptions& options) {
  StrategyRun run(&options);
  AprioriOptions apriori_options;
  apriori_options.counter = options.counter;
  apriori_options.max_level = options.max_level;
  apriori_options.tracer = options.tracer;
  apriori_options.metrics = options.metrics;
  apriori_options.pool = run.pool();
  apriori_options.cancel = options.cancel;

  apriori_options.var_label = 'S';
  auto s = RunAprioriPlus(db, catalog, query.s_domain, Var::kS, query.one_var,
                          query.min_support_s, apriori_options);
  if (!s.ok()) return s.status();
  apriori_options.var_label = 'T';
  auto t = RunAprioriPlus(db, catalog, query.t_domain, Var::kT, query.one_var,
                          query.min_support_t, apriori_options);
  if (!t.ok()) return t.status();
  run.TakeSides(std::move(s).value(), std::move(t).value());
  return run.Finish("apriori+", query, catalog);
}

Result<CfqResult> ExecuteCapOneVar(TransactionDb* db,
                                   const ItemCatalog& catalog,
                                   const CfqQuery& query,
                                   const PlanOptions& options) {
  StrategyRun run(&options);
  auto s = RunCap(db, catalog, query.s_domain, Var::kS, query.one_var,
                  query.min_support_s, ToCapOptions(options, run.pool()));
  if (!s.ok()) return s.status();
  auto t = RunCap(db, catalog, query.t_domain, Var::kT, query.one_var,
                  query.min_support_t, ToCapOptions(options, run.pool()));
  if (!t.ok()) return t.status();
  run.TakeSides(std::move(s).value(), std::move(t).value());
  return run.Finish("cap", query, catalog);
}

Result<CfqResult> ExecuteFpGrowth(TransactionDb* db,
                                  const ItemCatalog& catalog,
                                  const CfqQuery& query,
                                  const PlanOptions& options) {
  StrategyRun run(&options);
  auto plan = BuildPlan(query, options);
  if (!plan.ok()) return plan.status();
  const std::vector<TwoVarRoute>& routes = plan.value().routes;

  // Which direction (if any) carries an anti-monotone Jmax bound. When
  // both do, bound S and mine T first (the optimizer's default
  // orientation); bounding one side already needs the other complete.
  bool bound_s = false, bound_t = false;
  if (options.use_jmax) {
    for (const TwoVarRoute& route : routes) {
      bound_s = bound_s ||
                (route.jmax_prunes_s && route.jmax_s_bound_anti_monotone);
      bound_t = bound_t ||
                (route.jmax_prunes_t && route.jmax_t_bound_anti_monotone);
    }
  }
  if (bound_s) bound_t = false;

  // Exact bound over the mined source side's VALID sets. Sound for the
  // answer pairs: a pair only forms with a valid partner, so a target
  // set whose sum exceeds every partner's can appear in no pair (and
  // an empty source side proves no pair exists at all).
  auto bounds_from = [&](const std::vector<FrequentSet>& source,
                         bool for_s) -> Result<std::vector<FpGrowthBound>> {
    std::vector<FpGrowthBound> out;
    for (const TwoVarRoute& route : routes) {
      const bool wants =
          for_s ? (route.jmax_prunes_s && route.jmax_s_bound_anti_monotone)
                : (route.jmax_prunes_t && route.jmax_t_bound_anti_monotone);
      if (!wants) continue;
      const auto& a = std::get<AggConstraint2>(route.constraint);
      double bound = -std::numeric_limits<double>::infinity();
      for (const FrequentSet& f : source) {
        auto v = AggregateOver(AggFn::kSum, for_s ? a.attr_t : a.attr_s,
                               f.items, catalog);
        if (!v.ok()) return v.status();
        bound = std::max(bound, v.value());
      }
      out.push_back(FpGrowthBound{for_s ? a.attr_s : a.attr_t, bound});
    }
    return out;
  };

  FpGrowthOptions base;
  base.max_level = options.max_level;
  base.nonnegative = options.nonnegative;
  base.pool = run.pool();
  base.tracer = options.tracer;
  base.metrics = options.metrics;
  base.cancel = options.cancel;
  FpGrowthOptions s_opts = base;
  s_opts.var_label = 'S';
  s_opts.counted_log = options.counted_log_s;
  FpGrowthOptions t_opts = base;
  t_opts.var_label = 'T';
  t_opts.counted_log = options.counted_log_t;

  auto mine = [&](Var var, const FpGrowthOptions& side_opts)
      -> Result<FpGrowthResult> {
    const bool is_s = var == Var::kS;
    return RunFpGrowth(db, catalog,
                       is_s ? query.s_domain : query.t_domain, var,
                       query.one_var,
                       is_s ? query.min_support_s : query.min_support_t,
                       side_opts);
  };
  if (bound_t) {
    auto s = mine(Var::kS, s_opts);
    if (!s.ok()) return s.status();
    auto bounds = bounds_from(s.value().valid_frequent, /*for_s=*/false);
    if (!bounds.ok()) return bounds.status();
    t_opts.bounds = std::move(bounds.value());
    auto t = mine(Var::kT, t_opts);
    if (!t.ok()) return t.status();
    run.TakeSides(std::move(s).value(), std::move(t).value());
  } else {
    auto t = mine(Var::kT, t_opts);
    if (!t.ok()) return t.status();
    if (bound_s) {
      auto bounds = bounds_from(t.value().valid_frequent, /*for_s=*/true);
      if (!bounds.ok()) return bounds.status();
      s_opts.bounds = std::move(bounds.value());
    }
    auto s = mine(Var::kS, s_opts);
    if (!s.ok()) return s.status();
    run.TakeSides(std::move(s).value(), std::move(t).value());
  }
  return run.Finish("fpgrowth", query, catalog);
}

namespace {

// One side of the FM strategy: materialize valid sets by exhaustive
// constraint checking, then count them in ascending size, keeping the
// frequency-closed prefix.
Result<std::vector<FrequentSet>> FmSide(TransactionDb* db,
                                        const ItemCatalog& catalog,
                                        const CfqQuery& query, Var var,
                                        uint64_t min_support,
                                        CccStats* stats) {
  const Itemset& domain = var == Var::kS ? query.s_domain : query.t_domain;
  // Phase 1: constraint checking on EVERY subset (2^N - 1 checks).
  std::vector<std::vector<Itemset>> valid_by_size(domain.size() + 1);
  Status error;
  ForEachNonEmptySubset(domain, [&](const Itemset& x) {
    if (!error.ok()) return;
    ++stats->constraint_checks;
    auto ok = EvalAll(query.one_var, var, x, catalog);
    if (!ok.ok()) {
      error = ok.status();
      return;
    }
    if (ok.value()) valid_by_size[x.size()].push_back(x);
  });
  CFQ_RETURN_IF_ERROR(error);

  // Phase 2: count valid sets in ascending cardinality. Pruning may
  // only use subsets whose frequency is known, i.e. VALID subsets
  // (invalid ones were never counted); a set with an infrequent invalid
  // subset still gets counted and simply turns out infrequent.
  auto counter = MakeCounter(CounterKind::kBitmap, db);
  std::unordered_set<Itemset, ItemsetHash> valid_index;
  for (const auto& level : valid_by_size) {
    valid_index.insert(level.begin(), level.end());
  }
  std::unordered_set<Itemset, ItemsetHash> frequent_index;
  std::vector<FrequentSet> out;
  for (size_t size = 1; size < valid_by_size.size(); ++size) {
    std::vector<Itemset> candidates;
    for (Itemset& x : valid_by_size[size]) {
      bool known_infrequent_subset = false;
      for (size_t drop = 0;
           x.size() > 1 && drop < x.size() && !known_infrequent_subset;
           ++drop) {
        Itemset sub = WithoutIndex(x, drop);
        if (valid_index.find(sub) != valid_index.end() &&
            frequent_index.find(sub) == frequent_index.end()) {
          known_infrequent_subset = true;
        }
      }
      if (!known_infrequent_subset) candidates.push_back(std::move(x));
    }
    std::sort(candidates.begin(), candidates.end());
    const std::vector<uint64_t> supports = counter->Count(candidates, stats);
    uint64_t frequent = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (supports[i] < min_support) continue;
      ++frequent;
      frequent_index.insert(candidates[i]);
      out.push_back(FrequentSet{candidates[i], supports[i]});
    }
    stats->RecordLevel(candidates.size(), frequent);
  }
  return out;
}

}  // namespace

Result<CfqResult> ExecuteFullMaterialization(TransactionDb* db,
                                             const ItemCatalog& catalog,
                                             const CfqQuery& query) {
  if (query.s_domain.size() > kFmMaxDomain ||
      query.t_domain.size() > kFmMaxDomain) {
    return Status::InvalidArgument(
        "full materialization is exponential; domains are capped at " +
        std::to_string(kFmMaxDomain) + " items");
  }
  StrategyRun run(/*options=*/nullptr);
  auto s = FmSide(db, catalog, query, Var::kS, query.min_support_s,
                  &run.result.stats.s);
  if (!s.ok()) return s.status();
  run.result.s_sets = std::move(s).value();
  auto t = FmSide(db, catalog, query, Var::kT, query.min_support_t,
                  &run.result.stats.t);
  if (!t.ok()) return t.status();
  run.result.t_sets = std::move(t).value();
  return run.Finish("full-materialization", query, catalog);
}

Result<CfqResult> ExecuteBruteForce(const TransactionDb& db,
                                    const ItemCatalog& catalog,
                                    const CfqQuery& query) {
  CfqResult result;
  for (const FrequentSet& f :
       MineFrequentBruteForce(db, query.s_domain, query.min_support_s)) {
    auto ok = EvalAll(query.one_var, Var::kS, f.items, catalog);
    if (!ok.ok()) return ok.status();
    if (ok.value()) result.s_sets.push_back(f);
  }
  for (const FrequentSet& f :
       MineFrequentBruteForce(db, query.t_domain, query.min_support_t)) {
    auto ok = EvalAll(query.one_var, Var::kT, f.items, catalog);
    if (!ok.ok()) return ok.status();
    if (ok.value()) result.t_sets.push_back(f);
  }
  CFQ_RETURN_IF_ERROR(FormPairs(query.two_var, catalog, {}, &result));
  return result;
}

std::optional<Strategy> ParseStrategy(std::string_view name) {
  for (size_t i = 0; i < kStrategyNames.size(); ++i) {
    if (kStrategyNames[i] == name) return static_cast<Strategy>(i);
  }
  return std::nullopt;
}

std::string StrategyNameList() {
  std::string out;
  for (std::string_view name : kStrategyNames) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

Result<CfqResult> ExecuteStrategy(Strategy strategy, TransactionDb* db,
                                  const ItemCatalog& catalog,
                                  const CfqPlan& plan) {
  switch (strategy) {
    case Strategy::kOptimized:
      return ExecutePlan(db, catalog, plan);
    case Strategy::kCap:
      return ExecuteCapOneVar(db, catalog, plan.query, plan.options);
    case Strategy::kApriori:
      return ExecuteAprioriPlus(db, catalog, plan.query, plan.options);
    case Strategy::kFpGrowth:
      return ExecuteFpGrowth(db, catalog, plan.query, plan.options);
  }
  return Status::InvalidArgument("unknown strategy");
}

std::vector<std::pair<Itemset, Itemset>> AnswerPairs(const CfqResult& result) {
  std::vector<std::pair<Itemset, Itemset>> out;
  if (result.cross_product) {
    for (const FrequentSet& s : result.s_sets) {
      for (const FrequentSet& t : result.t_sets) {
        out.emplace_back(s.items, t.items);
      }
    }
  } else {
    out.reserve(result.pairs.size());
    for (const auto& [i, j] : result.pairs) {
      out.emplace_back(result.s_sets[i].items, result.t_sets[j].items);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cfq
