// Small helpers shared by the serving benchmark's files: a microsecond
// clock, a seeded generator, and order statistics.
#ifndef SERVEBENCH_COMMON_H_
#define SERVEBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace servebench {

/// Monotonic microseconds (steady_clock), the benchmark's one time base.
inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic nanoseconds, for spans of in-process calls.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the workload generator. Every schedule property (session
/// order, ids, arrival gaps, think times) is drawn from one of these,
/// seeded from the workload seed, so a seed reproduces its schedule.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Quantile q of `values` (nearest rank on a sorted copy); 0 when empty.
template <typename T>
double Quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::clamp<size_t>(rank, 1, values.size()) - 1]);
}

template <typename T>
double Median(const std::vector<T>& values) {
  if (values.empty()) return 0;
  std::vector<T> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? static_cast<double>(sorted[n / 2])
                    : (static_cast<double>(sorted[n / 2 - 1]) +
                       static_cast<double>(sorted[n / 2])) /
                          2.0;
}

/// `"name": {"value": v, "unit": "u"}` members of the result object.
inline void AppendMetric(const std::string& name, double value,
                         const std::string& unit, std::string* out) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  if (!out->empty() && out->back() != '{') out->push_back(',');
  *out += "\"" + name + "\":{\"value\":" + buffer + ",\"unit\":\"" + unit +
          "\"}";
}

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H_
