#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "dse/cache.hpp"
#include "sched/core.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hls {

namespace obs_detail {
std::atomic<bool> g_metrics_armed{false};
}  // namespace obs_detail

// ---------------------------------------------------------------------------
// Histogram

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // underflow bucket (incl. NaN, zero, negatives)
  const double lg = std::log2(v);
  if (lg < kMinExp) return 0;
  if (lg >= kMaxExp) return kBuckets - 1;  // overflow bucket
  // floor() rather than a cast: lg is negative below 1.0.
  const int idx =
      static_cast<int>(std::floor((lg - kMinExp) * kSubBuckets)) + 1;
  return idx >= kBuckets - 1 ? kBuckets - 2 : (idx < 1 ? 1 : idx);
}

double Histogram::bucket_upper_bound(int i) {
  if (i <= 0) return std::exp2(static_cast<double>(kMinExp));
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::exp2(kMinExp + static_cast<double>(i) / kSubBuckets);
}

void Histogram::record(double v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Double accumulation over a uint64 cell: CAS loop on the bit pattern.
  std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const double next = std::bit_cast<double>(bits) + v;
    if (sum_bits_.compare_exchange_weak(bits, std::bit_cast<std::uint64_t>(next),
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  // Rank of the q-th sample (nearest-rank, 1-based), then the upper bound
  // of the bucket holding it. Cumulative scan over the fixed layout keeps
  // the estimate monotone in q.
  const std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += bucket_count(i);
    if (cum >= target) {
      if (i == kBuckets - 1) {
        // Overflow bucket has no finite upper bound; report its lower one.
        return std::exp2(static_cast<double>(kMaxExp));
      }
      return bucket_upper_bound(i);
    }
  }
  return bucket_upper_bound(kBuckets - 2);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry;  // leaked: process-wide
  return *reg;
}

namespace {

template <typename T>
T& get_or_create(std::mutex& mu,
                 std::map<std::string, std::unique_ptr<T>>& own,
                 const std::map<std::string, std::unique_ptr<Counter>>& c,
                 const std::map<std::string, std::unique_ptr<Gauge>>& g,
                 const std::map<std::string, std::unique_ptr<Histogram>>& h,
                 const std::string& name, const char* kind) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = own.find(name);
  if (it != own.end()) return *it->second;
  const bool taken = (static_cast<const void*>(&own) != &c && c.count(name)) ||
                     (static_cast<const void*>(&own) != &g && g.count(name)) ||
                     (static_cast<const void*>(&own) != &h && h.count(name));
  if (taken) {
    throw Error("metric '" + name + "' already registered as a different "
                "kind; cannot re-register as " + kind);
  }
  auto inserted = own.emplace(name, std::make_unique<T>());
  return *inserted.first->second;
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

std::string render_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::string s = strformat("%.9g", v);
  return s;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  return get_or_create(mu_, counters_, counters_, gauges_, histograms_, name,
                       "a counter");
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return get_or_create(mu_, gauges_, counters_, gauges_, histograms_, name,
                       "a gauge");
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return get_or_create(mu_, histograms_, counters_, gauges_, histograms_, name,
                       "a histogram");
}

std::string MetricsRegistry::exposition() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " counter\n";
    out += strformat("%s %llu\n", n.c_str(),
                     static_cast<unsigned long long>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + render_double(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t in_bucket = h->bucket_count(i);
      cum += in_bucket;
      if (in_bucket == 0 && i != Histogram::kBuckets - 1) continue;
      out += n + "_bucket{le=\"" +
             render_double(Histogram::bucket_upper_bound(i)) + "\"} " +
             strformat("%llu", static_cast<unsigned long long>(cum)) + "\n";
    }
    out += n + "_sum " + render_double(h->sum()) + "\n";
    out += strformat("%s_count %llu\n", n.c_str(),
                     static_cast<unsigned long long>(h->count()));
  }
  return out;
}

std::string MetricsRegistry::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += strformat("\"%s\":%llu", name.c_str(),
                     static_cast<unsigned long long>(c->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":" + strformat("%.6g", g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += strformat(
        "\"%s\":{\"count\":%llu,\"sum\":%.6g,\"p50\":%.6g,\"p99\":%.6g}",
        name.c_str(), static_cast<unsigned long long>(h->count()), h->sum(),
        h->quantile(0.5), h->quantile(0.99));
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Legacy-struct bridges

void publish_cache_stats(MetricsRegistry& reg, const CacheStats& stats) {
  const struct {
    const char* name;
    const CacheStats::Counter* c;
  } rows[] = {
      {"kernel", &stats.kernel},       {"narrow", &stats.narrow},
      {"prep", &stats.prep},           {"transform", &stats.transform},
      {"schedule", &stats.schedule},   {"datapath", &stats.datapath},
      {"partition", &stats.partition},
  };
  for (const auto& row : rows) {
    const std::string base = std::string("cache.") + row.name;
    reg.gauge(base + ".hits").set(static_cast<double>(row.c->hits));
    reg.gauge(base + ".misses").set(static_cast<double>(row.c->misses));
    reg.gauge(base + ".evictions").set(static_cast<double>(row.c->evictions));
    reg.gauge(base + ".resident_bytes")
        .set(static_cast<double>(row.c->resident_bytes));
  }
}

void publish_oracle_counters(MetricsRegistry& reg,
                             const OracleCounters& counters) {
  reg.counter("oracle.candidates_evaluated").add(counters.candidates_evaluated);
  reg.counter("oracle.candidates_filtered").add(counters.candidates_filtered);
  reg.counter("oracle.candidates_refined").add(counters.candidates_refined);
  reg.counter("oracle.candidates_probed").add(counters.candidates_probed);
  reg.counter("oracle.candidates_rejected").add(counters.candidates_rejected);
  reg.counter("oracle.candidates_committed").add(counters.candidates_committed);
  reg.counter("oracle.words_repropagated").add(counters.words_repropagated);
}

}  // namespace hls
