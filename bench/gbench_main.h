// Shared main for the google-benchmark harnesses (micro_counting,
// micro_core).
//
// Besides google-benchmark's own console/JSON output, --bench_json=FILE
// writes per-benchmark real time through bench::Reporter in the
// BENCH_*.json schema tools/bench_diff compares, and --quick lowers
// --benchmark_min_time for CI smoke runs. A harness may claim further
// flags of its own through `extra_flag`.

#ifndef CFQ_BENCH_GBENCH_MAIN_H_
#define CFQ_BENCH_GBENCH_MAIN_H_

#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/simd.h"

namespace cfq::bench {

// Console output as usual, plus every per-iteration-run's real time
// captured into the shared BENCH_*.json reporter.
class PerfCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit PerfCaptureReporter(Reporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration ||
          run.iterations == 0) {
        continue;
      }
      out_->Add(run.benchmark_name(),
                run.real_accumulated_time /
                    static_cast<double>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  Reporter* out_;
};

// Runs every registered benchmark. `extra_flag` sees each argument that
// is not --bench_json/--quick first and returns true to consume it.
inline int GbenchMain(
    int argc, char** argv, const std::string& name,
    const std::function<bool(const std::string&)>& extra_flag = nullptr) {
  // Split our flags from google-benchmark's: gbench rejects flags it
  // does not know, so ours must not reach Initialize.
  std::string bench_json;
  bool quick = false;
  std::vector<char*> gbench_args;
  gbench_args.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bench_json=", 0) == 0) {
      bench_json = arg.substr(std::strlen("--bench_json="));
    } else if (arg == "--quick" || arg == "--quick=1") {
      quick = true;
    } else if (i == 0 || !extra_flag || !extra_flag(arg)) {
      gbench_args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.05";
  if (quick) gbench_args.push_back(min_time.data());
  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());

  Reporter reporter(name);
  reporter.SetConfig("quick", quick ? "1" : "0");
  reporter.SetConfig("simd_kernel", simd::KernelName(simd::ActiveKernel()));
  PerfCaptureReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();

  if (!bench_json.empty()) {
    if (!reporter.WriteJson(bench_json)) return 1;
    std::cout << "wrote " << bench_json << "\n";
  }
  return 0;
}

}  // namespace cfq::bench

#endif  // CFQ_BENCH_GBENCH_MAIN_H_
