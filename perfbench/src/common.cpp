#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Index n-11 leaves exactly ten samples above it; with fewer than eleven
  // samples the maximum is the best that can be said.
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  t.value = samples[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::next() {
  state_ += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

unsigned Rng::range(unsigned lo, unsigned hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
  return lo + static_cast<unsigned>(next() % span);
}

void Result::add(const std::string& name, double value, const char* unit) {
  std::printf("  %-30s %14.6g %s\n", name.c_str(), value, unit);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  metrics_ += (metrics_.empty() ? "\"" : ",\"") + name +
              "\":{\"value\":" + buf + ",\"unit\":\"" + unit + "\"}";
}

void Result::print(std::size_t attempted, std::size_t failed) const {
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{%s}}\n",
      failed == 0 ? "true" : "false", attempted, failed, metrics_.c_str());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double loadavg_1m() {
  std::ifstream in("/proc/loadavg");
  double load = -1;
  if (!(in >> load)) return -1;
  return load;
}

} // namespace perfbench
