#include "workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "data/synthetic_gen.h"

namespace e2e {
namespace {

using cfq::server::JsonValue;

constexpr int64_t kDefaultRows = 100000;  // cfq_served --max_rows default.

std::vector<WorkloadSpec> BuildWorkloads() {
  const std::vector<std::string> strategies = {"optimized", "cap", "apriori",
                                               "fpgrowth"};
  // One stream template per window in WorkloadSpec::windows {1, 4, 16,
  // all}, with the support threshold scaled to the window's size so the
  // four windows cost about the same.
  const std::vector<std::string> stream_templates = {
      "freq(S, 10) & freq(T, 10) & max(S.Price) <= min(T.Price)",
      "freq(S, 40) & freq(T, 40) & sum(S.Price) <= sum(T.Price) & "
      "S.Type disjoint T.Type",
      "freq(S, 160) & freq(T, 160) & max(S.Price) <= min(T.Price)",
      "freq(S, 400) & freq(T, 400) & sum(S.Price) <= sum(T.Price) & "
      "S.Type disjoint T.Type",
  };
  std::vector<WorkloadSpec> out;

  WorkloadSpec pairs;
  pairs.name = "cold_pairs";
  pairs.gen = {"pairs", 4000, 120, 60, 42};
  const std::string f100 = "freq(S, 100) & freq(T, 100) & ";
  pairs.templates = {
      f100 + "max(S.Price) <= min(T.Price)",
      f100 + "sum(S.Price) <= sum(T.Price)",
      f100 + "avg(S.Price) >= avg(T.Price)",
      f100 + "S.Type subset T.Type",
      f100 + "S.Type disjoint T.Type",
      f100 + "S.Type = T.Type",
  };
  pairs.strategies = strategies;
  pairs.connections = 1;
  pairs.query_threads = 0;
  pairs.cold = true;
  pairs.probe_every = 6;
  pairs.probe_each = 16;
  pairs.stream_templates = stream_templates;
  out.push_back(pairs);

  WorkloadSpec mine;
  mine.name = "cold_mine";
  mine.gen = {"mine", 50000, 1000, 500, 42};
  const std::string f50 = "freq(S, 50) & freq(T, 50) & ";
  mine.templates = {
      f50 + "S.Price <= 300 & T.Price >= 800 & sum(S.Price) >= sum(T.Price)",
      f50 + "avg(S.Price) <= 150 & min(T.Price) >= 850 & "
            "sum(S.Price) >= min(T.Price)",
      f50 + "S.Price <= 200 & T.Price >= 700 & max(S.Price) >= min(T.Price)",
      f50 + "S.Price >= 900 & T.Price <= 100 & S.Type disjoint T.Type",
  };
  mine.strategies = strategies;
  mine.connections = 1;
  mine.query_threads = 0;
  mine.cold = true;
  mine.probe_every = 16;
  mine.stream_templates = stream_templates;
  out.push_back(mine);

  WorkloadSpec mix;
  mix.name = "served_mix";
  mix.gen = {"mix", 10000, 200, 500, 42};
  const std::string f300 = "freq(S, 300) & freq(T, 300) & ";
  mix.templates = {
      f300 + "max(S.Price) <= min(T.Price)",
      f300 + "sum(S.Price) <= sum(T.Price)",
      f300 + "S.Type disjoint T.Type",
      f300 + "S.Price <= 500 & avg(S.Price) >= avg(T.Price)",
      f300 + "S.Type = T.Type",
      f300 + "T.Price >= 300 & min(S.Price) >= max(T.Price)",
  };
  mix.strategies = strategies;
  mix.connections = 0;
  mix.query_threads = 1;
  mix.cold = false;
  // The traffic shares below are assumptions, not measurements: no
  // captured audit log of real traffic exists to derive them from.
  // - Zipf s = 1.1 over the 24 template x strategy combos: the top 3 take
  //   about half the reads, so hits dominate, while the long tail still
  //   misses after every append.
  // - 15% of batch queries at the default cap, the rest at 100 rows: most
  //   clients are assumed to page, a minority to fetch whole answers
  //   (10-50 ms hits) that would otherwise dominate the wall.
  // - 4% ingests and 6% windowed queries: "a small share" each, enough
  //   for hundreds of samples per run.
  // - 12 appends of 20 transactions per epoch: "a few tens" each; the
  //   dataset grows by 240 transactions, 2.4%, before the next epoch
  //   starts again from the set-up data.
  // An epoch of 500 requests per connection takes about 3 s on a 4-vCPU
  // VM, so a 20 s run makes 7 or 8 of them.
  mix.epoch_requests = 500;
  mix.epoch_appends = 12;
  mix.append_size = 20;
  mix.default_cap_share = 0.15;
  mix.p_ingest = 0.04;
  mix.p_stream = 0.06;
  mix.zipf_s = 1.1;
  mix.stream_templates = stream_templates;
  out.push_back(mix);
  return out;
}

Transactions PoolFrom(int64_t num_transactions, int64_t num_items,
                      int64_t num_patterns, uint64_t seed) {
  cfq::QuestParams params;
  params.num_transactions = static_cast<uint64_t>(num_transactions);
  params.num_items = static_cast<uint64_t>(num_items);
  params.num_patterns = static_cast<uint64_t>(num_patterns);
  params.seed = seed;
  auto db = cfq::GenerateQuestDb(params);
  Transactions out;
  if (!db.ok()) return out;
  out.reserve(db->num_transactions());
  for (const cfq::Itemset& txn : db->transactions()) {
    out.emplace_back(txn.begin(), txn.end());
  }
  return out;
}

Transactions Slice(const Transactions& pool, size_t offset, size_t size) {
  Transactions out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(pool[(offset + i) % pool.size()]);
  }
  return out;
}

JsonValue TransactionsJson(const Transactions& transactions) {
  JsonValue::Array rows;
  rows.reserve(transactions.size());
  for (const auto& txn : transactions) {
    JsonValue::Array items;
    items.reserve(txn.size());
    for (uint32_t item : txn) items.push_back(static_cast<int64_t>(item));
    rows.push_back(std::move(items));
  }
  return rows;
}

// Largest-remainder rounding of `weights` to whole counts summing to
// `total`; ties go to the lower index.
std::vector<size_t> Apportion(const std::vector<double>& weights,
                              size_t total) {
  double sum = 0;
  for (double w : weights) sum += w;
  std::vector<size_t> out(weights.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t given = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = weights[i] / sum * static_cast<double>(total);
    out[i] = static_cast<size_t>(exact);
    given += out[i];
    remainders.push_back({exact - static_cast<double>(out[i]), i});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first > b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  for (size_t k = 0; given + k < total; ++k) ++out[remainders[k].second];
  return out;
}

Request StreamQuery(const WorkloadSpec& spec, size_t window_index) {
  Request r;
  r.kind = Kind::kStreamQuery;
  r.tmpl = static_cast<int>(window_index);
  r.window = spec.windows[window_index];
  return r;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kQuery: return "query";
    case Kind::kStreamQuery: return "window";
    case Kind::kAppend: return "append";
    case Kind::kIngest: return "ingest";
  }
  return "?";
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = BuildWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

JsonValue RequestJson(const WorkloadSpec& spec, const Request& request) {
  JsonValue::Object o;
  switch (request.kind) {
    case Kind::kQuery:
      o["cmd"] = "query";
      o["dataset"] = spec.gen.dataset;
      o["query"] = spec.templates[request.tmpl];
      o["strategy"] = spec.strategies[request.strategy];
      break;
    case Kind::kStreamQuery:
      o["cmd"] = "query";
      o["dataset"] = spec.stream;
      o["query"] = spec.stream_templates[request.tmpl];
      o["strategy"] = "stream";
      if (request.window > 0) o["window"] = request.window;
      break;
    case Kind::kAppend:
      o["cmd"] = "append";
      o["dataset"] = request.to_copy ? CopyDataset(spec) : spec.gen.dataset;
      o["transactions"] = TransactionsJson(request.transactions);
      break;
    case Kind::kIngest:
      o["cmd"] = "ingest";
      o["stream"] = spec.stream;
      o["num_items"] = spec.stream_items;
      o["transactions"] = TransactionsJson(request.transactions);
      break;
  }
  if (request.max_rows > 0) o["max_rows"] = request.max_rows;
  return o;
}

Pools MakePools(const WorkloadSpec& spec) {
  Pools pools;
  pools.append = PoolFrom(2000, spec.gen.num_items, spec.gen.num_patterns,
                          static_cast<uint64_t>(spec.gen.seed) + 1000);
  pools.stream = PoolFrom(8000, spec.stream_items, 500, 7);
  return pools;
}

std::vector<Request> ColdRound(const WorkloadSpec& spec, uint64_t seed,
                               int round) {
  std::vector<Request> grid;
  for (size_t t = 0; t < spec.templates.size(); ++t) {
    for (size_t s = 0; s < spec.strategies.size(); ++s) {
      Request r;
      r.kind = Kind::kQuery;
      r.tmpl = static_cast<int>(t);
      r.strategy = static_cast<int>(s);
      r.max_rows = round == 0 ? 0 : kDefaultRows - round;
      grid.push_back(std::move(r));
    }
  }
  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(round));
  for (size_t i = grid.size(); i > 1; --i) {
    std::swap(grid[i - 1], grid[rng.Below(i)]);
  }
  return grid;
}

std::vector<Request> MixEpoch(const WorkloadSpec& spec, const Pools& pools,
                              uint64_t seed, size_t connection,
                              size_t connections) {
  const size_t total = spec.epoch_requests;
  const size_t ingests =
      static_cast<size_t>(std::lround(spec.p_ingest * static_cast<double>(total)));
  const size_t windowed =
      static_cast<size_t>(std::lround(spec.p_stream * static_cast<double>(total)));
  // Batch cells (combo, row cap), Zipf-weighted over the combos in a
  // fixed rank order, so every seed sees the same hot set.
  const size_t combos = spec.templates.size() * spec.strategies.size();
  std::vector<double> weights;
  for (size_t rank = 0; rank < combos; ++rank) {
    const double w = 1.0 / std::pow(static_cast<double>(rank + 1), spec.zipf_s);
    weights.push_back(w * spec.default_cap_share);
    weights.push_back(w * (1 - spec.default_cap_share));
  }
  const std::vector<size_t> counts =
      Apportion(weights, total - ingests - windowed);

  Rng rng(seed * 7919ULL + 1000 * (connection + 1));
  std::vector<Request> reads;
  for (size_t cell = 0; cell < counts.size(); ++cell) {
    const size_t combo = cell / 2;
    for (size_t i = 0; i < counts[cell]; ++i) {
      Request r;
      r.kind = Kind::kQuery;
      r.tmpl = static_cast<int>(combo / spec.strategies.size());
      r.strategy = static_cast<int>(combo % spec.strategies.size());
      r.max_rows = cell % 2 == 0 ? 0 : 100;
      reads.push_back(std::move(r));
    }
  }
  for (size_t i = 0; i < windowed; ++i) {
    reads.push_back(StreamQuery(spec, i % spec.windows.size()));
  }
  for (size_t i = 0; i < ingests; ++i) {
    Request r;
    r.kind = Kind::kIngest;
    r.transactions = Slice(pools.stream, rng.Below(pools.stream.size()),
                           spec.stream_batch);
    reads.push_back(std::move(r));
  }
  for (size_t i = reads.size(); i > 1; --i) {
    std::swap(reads[i - 1], reads[rng.Below(i)]);
  }

  // The epoch's appends, drawn independently of the connection count.
  Rng append_rng(seed * 104729ULL + 3);
  std::vector<Request> appends;
  for (size_t j = 0; j < spec.epoch_appends; ++j) {
    Request r;
    r.kind = Kind::kAppend;
    r.transactions = Slice(pools.append, append_rng.Below(pools.append.size()),
                           spec.append_size);
    if (j % connections == connection) appends.push_back(std::move(r));
  }
  std::vector<Request> out;
  size_t next = 0;
  for (size_t k = 0; k <= reads.size(); ++k) {
    // Append i of n goes before read (2i + 1) * total / (2n).
    while (next < appends.size() &&
           (2 * next + 1) * reads.size() / (2 * appends.size()) == k) {
      out.push_back(std::move(appends[next++]));
    }
    if (k < reads.size()) out.push_back(std::move(reads[k]));
  }
  return out;
}

std::vector<Request> SetupIngests(const WorkloadSpec& spec,
                                  const Pools& pools) {
  std::vector<Request> out;
  for (size_t unit = 0; unit < spec.stream_setup_units; ++unit) {
    Request r;
    r.kind = Kind::kIngest;
    r.transactions =
        Slice(pools.stream, unit * spec.stream_batch, spec.stream_batch);
    out.push_back(std::move(r));
  }
  return out;
}

std::string CopyDataset(const WorkloadSpec& spec) {
  return spec.gen.dataset + "_copy";
}

std::vector<Request> ProbeRequests(const WorkloadSpec& spec,
                                   const Pools& pools, uint64_t seed,
                                   int block) {
  // Grouped by kind, so each request follows one of its own kind rather
  // than a heavy query of another. Windowed queries repeat each window
  // at another row cap, so every one is a miss without an ingest between.
  Rng rng(seed * 31337ULL + 17 + 7919ULL * static_cast<uint64_t>(block));
  std::vector<Request> out;
  for (size_t i = 0; i < spec.probe_each; ++i) {
    Request append;
    append.kind = Kind::kAppend;
    append.to_copy = true;
    append.transactions = Slice(pools.append, rng.Below(pools.append.size()),
                                spec.append_size);
    out.push_back(std::move(append));
  }
  for (size_t i = 0; i < spec.probe_each; ++i) {
    Request ingest;
    ingest.kind = Kind::kIngest;
    ingest.transactions = Slice(pools.stream, rng.Below(pools.stream.size()),
                                spec.stream_batch);
    out.push_back(std::move(ingest));
  }
  const size_t windows = spec.windows.size();
  for (size_t i = 0; i < spec.probe_each; ++i) {
    Request r = StreamQuery(spec, i % windows);
    const int64_t repeat = static_cast<int64_t>(i / windows);
    r.max_rows = repeat == 0 ? 0 : kDefaultRows - repeat;
    out.push_back(std::move(r));
  }
  return out;
}

std::string SequenceText(const WorkloadSpec& spec, const Pools& pools,
                         uint64_t seed, size_t connections, size_t count) {
  std::string out;
  if (spec.cold) {
    size_t emitted = 0;
    for (int round = 0; emitted < count; ++round) {
      for (const Request& r : ColdRound(spec, seed, round)) {
        if (emitted++ == count) break;
        out += RequestJson(spec, r).Write() + "\n";
      }
    }
    for (int block = 0; block < 3; ++block) {
      for (const Request& r : ProbeRequests(spec, pools, seed, block)) {
        out += RequestJson(spec, r).Write() + "\n";
      }
    }
    return out;
  }
  for (size_t c = 0; c < connections; ++c) {
    const std::vector<Request> epoch =
        MixEpoch(spec, pools, seed, c, connections);
    for (size_t i = 0; i < count && i < epoch.size(); ++i) {
      out += std::to_string(c) + " " + RequestJson(spec, epoch[i]).Write() +
             "\n";
    }
  }
  return out;
}

}  // namespace e2e
