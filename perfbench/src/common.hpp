#pragma once
// Shared helpers of the perfbench program: clocks, order statistics,
// seeded randomness and process probes.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time consumed by all threads of this process, in ms. Across one
/// request it is the request's service time, including work handed to
/// another thread, without the host's stalls (vCPU steal, other tenants)
/// that wall time also counts.
double process_cpu_ms();

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// The tail statistic the benchmark reports: the highest percentile that
/// still has at least ten samples beyond it at this sample count.
struct Tail {
  double value = 0;       ///< the order statistic itself
  double percentile = 0;  ///< its percentile, 0..100
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> samples);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double>& v);

/// splitmix64 finalizer: derives independent sub-seeds from the workload
/// seed (seed, salt) so every generator draws from its own stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Small deterministic PRNG (splitmix64 stream).
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi] (inclusive).
  unsigned range(unsigned lo, unsigned hi);
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  }

private:
  std::uint64_t state_;
};

/// The result object printed as the last line of standard output. add()
/// also prints the metric on the readable report.
class Result {
public:
  void add(const std::string& name, double value, const char* unit);
  /// Prints {"correct", "attempted", "failed", "metrics"}.
  void print(std::size_t attempted, std::size_t failed) const;

private:
  std::string metrics_;
};

/// Peak resident set of this process in MB (VmHWM), 0 when unavailable.
double peak_rss_mb();

/// 1-minute load average at call time, -1 when unavailable.
double loadavg_1m();

} // namespace perfbench
