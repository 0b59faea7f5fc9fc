// Unit test for perfbench/stats.h. Expected quartiles are the values
// Python's statistics.quantiles(values, n=4) prints for the same inputs.
// Exit code 0 when every check holds.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using perfbench::HighestSupportedPercentile;
  using perfbench::Median;
  using perfbench::Quartiles;
  using perfbench::Tail;

  // Median.
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({7.0}) == 7.0, "median of one value");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");

  // Quartiles, exclusive method.
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto q10 = Quartiles(Range(10));
  Expect(Near(q10[0], 2.75) && Near(q10[1], 5.5) && Near(q10[2], 8.25),
         "quartiles of 1..10");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  auto q2 = Quartiles({2.0, 1.0});
  Expect(Near(q2[0], 0.75) && Near(q2[1], 1.5) && Near(q2[2], 2.25),
         "quartiles of two values");
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  auto q5 = Quartiles(Range(5));
  Expect(Near(q5[0], 1.5) && Near(q5[1], 3.0) && Near(q5[2], 4.5),
         "quartiles of 1..5");
  auto q1 = Quartiles({4.0});
  Expect(q1[0] == 4.0 && q1[2] == 4.0, "one value: quartiles collapse");

  // Tail: too few samples for even the median to have 10 beyond it.
  Tail none = HighestSupportedPercentile(Range(19));
  Expect(!none.ok && none.count == 19, "19 samples support no percentile");
  // 20 samples: p50 sits at rank 10, leaving exactly 10 above.
  Tail p50 = HighestSupportedPercentile(Range(20));
  Expect(p50.ok && p50.percentile == 50.0 && p50.value == 10.0 &&
             p50.beyond == 10,
         "20 samples support p50 only");
  // 100 samples: p90 at rank 90 leaves 10; p95 would leave 5.
  Tail p90 = HighestSupportedPercentile(Range(100));
  Expect(p90.ok && p90.percentile == 90.0 && p90.value == 90.0 &&
             p90.beyond == 10 && p90.count == 100,
         "100 samples support p90");
  // 200 samples: p95 at rank 190 leaves 10.
  Tail p95 = HighestSupportedPercentile(Range(200));
  Expect(p95.ok && p95.percentile == 95.0 && p95.value == 190.0,
         "200 samples support p95");
  // 10000 samples: p99.9 at rank 9990 leaves 10.
  Tail p999 = HighestSupportedPercentile(Range(10000));
  Expect(p999.ok && p999.percentile == 99.9 && p999.value == 9990.0,
         "10000 samples support p99.9");
  Expect(!HighestSupportedPercentile({}).ok, "no samples: no tail");

  if (g_failures == 0) std::printf("perfbench_stats_test: all checks pass\n");
  return g_failures == 0 ? 0 : 1;
}
