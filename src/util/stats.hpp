// Sample statistics for the benchmark reports: running moments, and the
// median and quartiles bench_ciphers reports per cell (robust to the
// bursts of a shared host, where a mean or max is not).
#pragma once

#include <cstddef>
#include <vector>

namespace mhhea::util {

/// Running mean / variance (Welford). Numerically stable.
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The lower quartile, median and upper quartile of a sample (linear
/// interpolation between order statistics); all zero for an empty sample.
struct Quartiles {
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> samples);

}  // namespace mhhea::util
