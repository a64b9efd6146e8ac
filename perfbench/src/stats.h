#ifndef PXBENCH_STATS_H_
#define PXBENCH_STATS_H_

// Exact order statistics over one run's samples. A quantile is always one
// of the measured samples (nearest rank), never an interpolation or a
// histogram bucket bound, so it cannot exceed the largest sample.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pxbench {

/// 0-based index of the nearest-rank q-quantile in a sorted array of n
/// samples: the smallest k with (k + 1) / n >= q.
inline std::size_t QuantileRank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(k, n - 1);
}

/// Samples strictly above the q-quantile's rank. A named percentile is
/// reported only when this is at least kMinSamplesBeyond.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - QuantileRank(n, q);
}

inline constexpr std::size_t kMinSamplesBeyond = 10;

inline bool EnoughSamplesBeyond(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// The nearest-rank q-quantile of `values` (copied and sorted); 0 for an
/// empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t k = QuantileRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

inline double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

}  // namespace pxbench

#endif  // PXBENCH_STATS_H_
