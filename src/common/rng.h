// Deterministic random number helpers. All randomized components of the
// library (synthetic data generation, property tests) take an explicit
// seed so runs are reproducible.

#ifndef CFQ_COMMON_RNG_H_
#define CFQ_COMMON_RNG_H_

#include <cstdint>
#include <random>

namespace cfq {

// Thin wrapper over mt19937_64 with the distribution helpers the
// generator needs. Copyable so generator state can be forked.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Uniform real in [lo, hi).
  double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Normal with the given mean and standard deviation (>= 0): a standard
  // normal draw scaled by hand, which is the distribution's own
  // arithmetic, so stddev 0 returns `mean` rather than building a
  // distribution whose stddev must be positive.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }

  // Poisson with the given mean (> 0).
  int64_t Poisson(double mean) {
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  // Exponential with the given mean (> 0).
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Bernoulli with probability p of returning true.
  bool Flip(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace cfq

#endif  // CFQ_COMMON_RNG_H_
