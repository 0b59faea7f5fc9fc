#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Summary statistics the benchmark reports. Header-only so the unit test
// builds without the gnndm libraries.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median as Python's statistics.median: the middle value, or the mean of
/// the two middle values for an even count. 0 for no values.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), the one the run-to-run spread check
/// uses, so a spread computed here is the spread that check sees. Needs at
/// least two values; fewer give all three quartiles equal to the median.
inline std::array<double, 3> Quartiles(std::vector<double> v) {
  const size_t ld = v.size();
  if (ld < 2) {
    const double m = Median(v);
    return {m, m, m};
  }
  std::sort(v.begin(), v.end());
  const size_t m = ld + 1;
  std::array<double, 3> q{};
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return q;
}

/// A tail timing: the value at the highest percentile that still has at
/// least `kMinBeyond` samples above it, so the tail rests on data rather
/// than on one outlier.
struct Tail {
  static constexpr size_t kMinBeyond = 10;
  bool ok = false;          ///< false when even the median lacks support
  double percentile = 0.0;  ///< e.g. 95.0
  double value = 0.0;       ///< nearest-rank value at `percentile`
  size_t count = 0;         ///< samples the tail was taken from
  size_t beyond = 0;        ///< samples ranked above `value`
};

/// Highest percentile of {99.9, 99, 95, 90, 75, 50} whose nearest-rank
/// position leaves at least Tail::kMinBeyond samples above it. With fewer
/// than 20 samples none qualifies and the result is !ok.
inline Tail HighestSupportedPercentile(std::vector<double> v) {
  Tail tail;
  tail.count = v.size();
  std::sort(v.begin(), v.end());
  constexpr std::array<uint32_t, 6> kPermille = {999, 990, 950, 900, 750,
                                                 500};
  const size_t n = v.size();
  for (uint32_t pm : kPermille) {
    const size_t rank = (pm * n + 999) / 1000;  // 1-based, ceil(p * n)
    if (rank == 0 || n - rank < Tail::kMinBeyond) continue;
    tail.ok = true;
    tail.percentile = pm / 10.0;
    tail.value = v[rank - 1];
    tail.beyond = n - rank;
    return tail;
  }
  return tail;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
