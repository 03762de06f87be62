// Shared helpers for the experiment harnesses: a tiny --key=value flag
// parser and the workload builders for the paper's Section 7 setups.
//
// Defaults are scaled for a laptop run (10k transactions); pass
// --num_transactions=100000 --num_items=1000 to reproduce the paper's
// database scale exactly.

#ifndef CFQ_BENCH_BENCH_UTIL_H_
#define CFQ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/simd.h"
#include "common/version.h"
#include "data/attribute_gen.h"
#include "mining/counter.h"
#include "data/synthetic_gen.h"
#include "data/transaction_db.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace cfq::bench {

// The flags any harness binary may accept. Kept as one table so Args
// can reject typos (--num_transaction silently falling back to the
// default cost us a benchmark run once) and print --help.
struct KnownFlag {
  const char* name;
  const char* help;
};
inline constexpr KnownFlag kKnownFlags[] = {
    {"num_transactions", "Quest generator: basket count"},
    {"num_items", "Quest generator: item universe size"},
    {"avg_transaction_size", "Quest generator: mean basket size"},
    {"avg_pattern_size", "Quest generator: mean pattern size"},
    {"num_patterns", "Quest generator: number of seed patterns"},
    {"seed", "Quest generator: RNG seed"},
    {"price_lo", "catalog: lowest uniform price"},
    {"price_hi", "catalog: highest uniform price"},
    {"num_types", "catalog: number of Type categories"},
    {"min_support", "support threshold for both variables"},
    {"min_support_s", "support threshold for S (jmax harness)"},
    {"min_support_t", "support threshold for T (jmax harness)"},
    {"counter", "support counter: bitmap|hash|hashtree|fptree"},
    {"no-simd", "pin the scalar counting kernel (same as --simd=scalar)"},
    {"simd", "counting kernel: scalar|avx2|neon (default: CFQ_SIMD env,"
             " else CPU detection)"},
    {"threads", "parallelism degree (0 = hardware concurrency)"},
    {"max_threads", "thread sweep: highest thread count to measure"},
    {"query", "the CFQ to run, in the paper's syntax"},
    {"db", "path to a serialized transaction database"},
    {"catalog", "path to a serialized item catalog"},
    {"strategy", "execution strategy: optimized|cap|apriori|fpgrowth"},
    {"explain", "print the optimizer's plan (and, when traced, the"
                " per-level EXPLAIN ANALYZE tables)"},
    {"trace", "write a Chrome trace_event JSON file here"},
    {"metrics", "alias for --metrics-out (JSONL by default)"},
    {"metrics-out", "write the metrics registry to this file"},
    {"metrics-format", "metrics encoding: jsonl (default) or prom"},
    {"bench_json", "write BENCH_*.json perf samples to this file"},
    {"quick", "CI smoke mode: smaller database, fewer iterations"},
    {"rules", "emit association rules instead of raw pairs"},
    {"min_confidence", "rule filter: minimum confidence"},
    {"min_lift", "rule filter: minimum lift"},
    {"top_k", "rule filter: keep the k best"},
    {"output", "write CSV output here instead of stdout"},
    {"host", "daemon: IPv4 address to listen on / connect to"},
    {"port", "daemon: TCP port (0 = pick an ephemeral port)"},
    {"max_concurrent", "daemon: queries executing at once"},
    {"max_queued", "daemon: queries allowed to wait for a slot"},
    {"cache_capacity", "daemon: result cache entries (0 = off)"},
    {"deadline_ms", "daemon/client: per-query deadline in milliseconds"},
    {"timeout-ms", "client: per-request deadline in milliseconds"
                   " (alias of --deadline_ms)"},
    {"max_rows", "daemon/client: row cap per query response"},
    {"cmd", "client: protocol command (ping|load|gen|save|drop|"
            "datasets|append|ingest|query|stats|shutdown)"},
    {"dataset", "client: dataset name the command refers to"},
    {"transactions", "client append/ingest: JSON array of item-id arrays"},
    {"stream", "client ingest: stream name the batch feeds"},
    {"window", "client query: window(N) units for strategy=stream"},
    {"ttw", "stream: tilted-time-window capacities, e.g. 4,24,7"},
    {"eps", "stream: approximation budget (0 = exact)"},
    {"stream-ttw", "daemon: default tilted-time-window shape for new"
                   " streams"},
    {"stream-eps", "daemon: default approximation budget for new streams"},
    {"batches", "stream bench: number of ingest batches"},
    {"batch_size", "stream bench: transactions per batch"},
    {"assert-ratio", "bench: hard gate 'a,b,frac' — fail unless sample"
                     " a stays under frac * sample b"},
    {"json", "client: send this raw JSON request line as-is"},
    {"expect", "client: fail unless the response status matches"
               " (default OK; empty disables)"},
    {"repeat", "client: send the request this many times"},
    {"clients", "server bench: number of concurrent client threads"},
    {"iters", "server bench: queries per client thread"},
    {"http_port", "daemon: serve GET telemetry (/metrics /healthz"
                  " /stats /trace) on this port (0 = ephemeral)"},
    {"slow-query-ms", "daemon: flight recorder slow-query threshold"},
    {"flight-recorder", "daemon: flight recorder ring capacity"
                        " (recent and slow each keep this many)"},
    {"trace-id", "client: client-chosen trace id echoed in the"
                 " response's trace.client_trace_id"},
    {"dump-trace", "client: fetch the flight recorder (cmd defaults"
                   " to dumptrace) and write the Chrome trace here"},
    {"version", "print build identity (git describe, build type,"
                " counting kernel) and exit"},
    {"audit-log", "daemon: capture every served query as JSONL in"
                  " this directory (rotating audit-*.jsonl)"},
    {"audit-rotate-mb", "daemon: start a new audit file past this size"},
    {"log", "replay: audit log file or directory to read"},
    {"speed", "replay: pacing — N times the captured rate, or 'max'"
              " (default) for back-to-back"},
    {"shuffle", "replay: randomize query order (seeded by --seed)"},
    {"verify-digests", "replay: compare each response digest to the"
                       " captured one; exit 3 on any divergence"},
    {"summarize", "replay: print the captured workload mix and exit"},
    {"limit", "replay: stop after this many records"},
    {"help", "print the flag listing and exit"},
};

// Parses --key=value command-line flags. Unknown --flags are an error
// (exit 2); --help prints the table above (exit 0). Arguments without
// a "--" prefix and google-benchmark's --benchmark_* flags pass
// through untouched.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const size_t eq = arg.find('=');
      const std::string name =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      if (name.rfind("benchmark_", 0) == 0) continue;
      if (!IsKnownFlag(name)) {
        std::cerr << "error: unknown flag --" << name
                  << " (try --help for the list)\n";
        std::exit(2);
      }
      if (name == "help") {
        PrintHelp(argv[0]);
        std::exit(0);
      }
      if (eq == std::string::npos) {
        values_[name] = "1";
      } else {
        values_[name] = arg.substr(eq + 1);
      }
    }
  }

  bool Has(const std::string& name) const {
    return values_.find(name) != values_.end();
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  bool GetBool(const std::string& name, bool fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second != "0" && it->second != "false";
  }
  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  static bool IsKnownFlag(const std::string& name) {
    for (const KnownFlag& flag : kKnownFlags) {
      if (name == flag.name) return true;
    }
    return false;
  }

  static void PrintHelp(const char* binary) {
    std::cout << "usage: " << binary << " [--flag=value ...]\n"
              << "flags (not every binary reads every flag):\n";
    for (const KnownFlag& flag : kKnownFlags) {
      std::cout << "  --" << flag.name;
      for (size_t pad = std::string(flag.name).size(); pad < 22; ++pad) {
        std::cout << ' ';
      }
      std::cout << flag.help << "\n";
    }
  }

  std::unordered_map<std::string, std::string> values_;
};

// Common generator knobs shared by all experiment binaries.
struct DbConfig {
  uint64_t num_transactions = 10000;
  uint64_t num_items = 1000;
  double avg_transaction_size = 10;
  double avg_pattern_size = 4;
  uint64_t num_patterns = 500;
  uint64_t seed = 42;

  static DbConfig FromArgs(const Args& args) {
    DbConfig config;
    config.num_transactions = static_cast<uint64_t>(
        args.GetInt("num_transactions", 10000));
    config.num_items =
        static_cast<uint64_t>(args.GetInt("num_items", 1000));
    config.avg_transaction_size =
        args.GetDouble("avg_transaction_size", 10);
    config.avg_pattern_size = args.GetDouble("avg_pattern_size", 4);
    config.num_patterns =
        static_cast<uint64_t>(args.GetInt("num_patterns", 500));
    config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    return config;
  }

  QuestParams ToQuestParams() const {
    QuestParams params;
    params.num_transactions = num_transactions;
    params.num_items = num_items;
    params.avg_transaction_size = avg_transaction_size;
    params.avg_pattern_size = avg_pattern_size;
    params.num_patterns = num_patterns;
    params.seed = seed;
    return params;
  }
};

// Generates the transaction database or aborts with a message.
inline TransactionDb MustGenerate(const DbConfig& config) {
  auto db = GenerateQuestDb(config.ToQuestParams());
  if (!db.ok()) {
    std::cerr << "database generation failed: " << db.status() << "\n";
    std::exit(1);
  }
  return std::move(db).value();
}

// Parses --threads=N (default 0 = hardware concurrency; benches opt
// into parallelism by default, unlike the library whose default is 1).
inline size_t ThreadsFromArgs(const Args& args) {
  const int64_t threads = args.GetInt("threads", 0);
  if (threads < 0) {
    std::cerr << "error: --threads must be >= 0\n";
    std::exit(2);
  }
  return static_cast<size_t>(threads);
}

// Applies --no-simd / --simd=KERNEL to the counting-kernel dispatcher
// (common/simd.h). Call early, before any counting runs: SetKernel is
// single-threaded setup. Exits 2 on a kernel this build or CPU cannot
// run — silently falling back would invalidate a benchmark series.
inline void ApplySimdArgs(const Args& args) {
  if (args.GetBool("no-simd", false)) {
    simd::SetKernel("scalar");
    return;
  }
  const std::string kernel = args.GetString("simd", "");
  if (kernel.empty()) return;
  if (!simd::SetKernel(kernel.c_str())) {
    std::cerr << "error: --simd='" << kernel
              << "' is not a usable kernel here (want scalar|avx2|neon,"
              << " supported by this CPU)\n";
    std::exit(2);
  }
}

// Parses --counter=bitmap|hash|hashtree|fptree (default bitmap).
inline CounterKind CounterFromArgs(const Args& args) {
  const std::string name = args.GetString("counter", "bitmap");
  if (name == "hash") return CounterKind::kHash;
  if (name == "hashtree") return CounterKind::kHashTree;
  if (name == "fptree") return CounterKind::kFpTree;
  if (name != "bitmap") {
    std::cerr << "unknown --counter '" << name
              << "' (want bitmap|hash|hashtree|fptree); using bitmap\n";
  }
  return CounterKind::kBitmap;
}

inline void Banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

// --- BENCH_*.json perf reporting -------------------------------------
//
// Every harness emits its timing samples through this one reporter so
// tools/bench_diff can compare any two runs. Schema (one file per run):
//
//   {
//     "bench": "scaling",
//     "commit": "<GITHUB_SHA | CFQ_COMMIT | unknown>",
//     "timestamp": "2026-08-07T12:34:56Z",
//     "config": {"num_transactions": "10000", ...},
//     "samples": [
//       {"name": "optimized/threads=4", "count": 5,
//        "mean": 0.0123, "p99": 0.0140, "min": 0.0119, "max": 0.0141}
//     ]
//   }

// The commit the run measures: CI exports GITHUB_SHA; local runs may
// set CFQ_COMMIT; otherwise the configure-time `git describe` baked
// into the build (common/version.h), "unknown" only outside a checkout.
inline std::string BenchCommit() {
  if (const char* sha = std::getenv("GITHUB_SHA")) return sha;
  if (const char* sha = std::getenv("CFQ_COMMIT")) return sha;
  return BuildGitDescribe();
}

inline std::string BenchTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

class Reporter {
 public:
  explicit Reporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  // Records one run configuration entry (shown in bench_diff output and
  // compared to warn about config drift between runs).
  void SetConfig(const std::string& key, const std::string& value) {
    config_[key] = value;
  }
  void SetConfig(const std::string& key, int64_t value) {
    config_[key] = std::to_string(value);
  }

  // Appends one timed iteration (seconds) to the named sample series.
  void Add(const std::string& name, double seconds) {
    samples_[name].push_back(seconds);
  }

  bool empty() const { return samples_.empty(); }

  // Writes the BENCH schema above. Returns false (with a message on
  // stderr) when the file cannot be opened.
  bool WriteJson(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "error: cannot open '" << path << "' for writing\n";
      return false;
    }
    os << "{\n";
    os << "  \"bench\": \"" << JsonEscape(bench_name_) << "\",\n";
    os << "  \"commit\": \"" << JsonEscape(BenchCommit()) << "\",\n";
    os << "  \"timestamp\": \"" << BenchTimestampUtc() << "\",\n";
    os << "  \"config\": {";
    bool first = true;
    for (const auto& [key, value] : config_) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << JsonEscape(key) << "\": \"" << JsonEscape(value) << "\"";
    }
    os << "},\n";
    os << "  \"samples\": [\n";
    first = true;
    for (const auto& [name, values] : samples_) {
      if (!first) os << ",\n";
      first = false;
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const size_t n = sorted.size();
      double sum = 0;
      for (double v : sorted) sum += v;
      // Nearest-rank p99 (the max for small n, like most bench runs).
      const size_t p99_rank =
          std::max<size_t>(1, static_cast<size_t>(
                                  std::ceil(0.99 * static_cast<double>(n))));
      os << "    {\"name\": \"" << JsonEscape(name) << "\", \"count\": " << n
         << ", \"mean\": " << sum / static_cast<double>(n)
         << ", \"p99\": " << sorted[p99_rank - 1]
         << ", \"min\": " << sorted.front() << ", \"max\": " << sorted.back()
         << "}";
    }
    os << "\n  ]\n}\n";
    return os.good();
  }

  // Honors --bench_json=FILE; exits 1 on an unwritable path so CI fails
  // loudly rather than silently comparing stale snapshots.
  void WriteJsonFromArgs(const Args& args) const {
    const std::string path = args.GetString("bench_json", "");
    if (path.empty()) return;
    if (!WriteJson(path)) std::exit(1);
    std::cout << "wrote " << path << "\n";
  }

 private:
  std::string bench_name_;
  std::map<std::string, std::string> config_;
  std::map<std::string, std::vector<double>> samples_;
};

// --- --metrics-out / --metrics-format --------------------------------

// Validates --metrics-format (jsonl|prom); exits 2 on anything else.
inline std::string MetricsFormatFromArgs(const Args& args) {
  const std::string format = args.GetString("metrics-format", "");
  if (!format.empty() && format != "jsonl" && format != "prom") {
    std::cerr << "error: unknown --metrics-format '" << format
              << "' (want jsonl|prom)\n";
    std::exit(2);
  }
  return format;
}

// True when the binary should populate a MetricsRegistry. Call early:
// validates the format flag before any work runs.
inline bool MetricsRequested(const Args& args) {
  const std::string format = MetricsFormatFromArgs(args);
  return !args.GetString("metrics-out", "").empty() ||
         !args.GetString("metrics", "").empty() || !format.empty();
}

// Writes `registry` per --metrics-out (--metrics as alias) and
// --metrics-format; stdout when only a format is given. Exits 1 on an
// unwritable path. No-op when neither flag is present.
inline void WriteMetricsFromArgs(const Args& args,
                                 const obs::MetricsRegistry& registry) {
  std::string path = args.GetString("metrics-out", "");
  if (path.empty()) path = args.GetString("metrics", "");
  const std::string format = MetricsFormatFromArgs(args);
  if (path.empty() && format.empty()) return;
  std::ofstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) {
      std::cerr << "error: cannot open '" << path << "' for writing\n";
      std::exit(1);
    }
  }
  std::ostream& sink = path.empty() ? std::cout : file;
  if (format == "prom") {
    obs::WritePrometheus(registry, sink);
  } else {
    registry.WriteJsonl(sink);
  }
}

}  // namespace cfq::bench

#endif  // CFQ_BENCH_BENCH_UTIL_H_
