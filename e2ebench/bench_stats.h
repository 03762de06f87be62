// Order statistics the benchmark reports: medians and the tail
// percentile rule (p99, or with fewer than 1000 samples the highest
// percentile that still has kTailBeyond samples beyond it).

#ifndef E2EBENCH_BENCH_STATS_H_
#define E2EBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2e {

// Samples that must lie strictly above the reported tail value.
inline constexpr size_t kTailBeyond = 10;

// Median (mean of the two middle values for even counts); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Geometric mean of positive values; 0 when empty.
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct Tail {
  bool ok = false;      // False when fewer than kTailBeyond + 1 samples.
  double value = 0;     // The sample at the chosen rank.
  double percentile = 0;  // 100 * rank / n, rank counted from 1.
  size_t beyond = 0;    // Samples strictly after the chosen rank.
  size_t n = 0;
};

// The sample of rank min(n - kTailBeyond, ceil(0.99 n)) (1-based) in
// sorted order: p99, unless that leaves fewer than kTailBeyond samples
// beyond it; then the highest rank that still leaves kTailBeyond. (A
// rank only kTailBeyond from the top of a large run measures the few
// slowest requests, which swing from run to run.)
inline Tail TailPercentile(std::vector<double> values) {
  Tail tail;
  const size_t n = values.size();
  tail.n = n;
  if (n <= kTailBeyond) return tail;
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(n - kTailBeyond, (n * 99 + 99) / 100);
  tail.ok = true;
  tail.value = values[rank - 1];
  tail.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = n - rank;
  return tail;
}

}  // namespace e2e

#endif  // E2EBENCH_BENCH_STATS_H_
