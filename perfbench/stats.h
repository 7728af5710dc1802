// Order statistics over host-time and simulated samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <utility>
#include <vector>

namespace perfbench {

// Linear interpolation between closest ranks; q in [0, 1]. 0 when empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
