// Observability layer (src/obs/): tracing ring buffers, span nesting and
// Chrome export; the metrics registry's histogram layout and quantiles;
// the legacy-counter bridges; and the byte-stability contract — armed
// observability must never change a flow's serialized results.
//
// The multi-thread emission tests double as the TSan target (the tsan CI
// job runs this binary): concurrent ScopedSpans on pool threads must be
// race-free by construction (each thread writes only its own ring).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dse/cache.hpp"
#include "flow/json.hpp"
#include "flow/session.hpp"
#include "frag/transform.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/core.hpp"
#include "suites/suites.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace hls {
namespace {

// --- tracing --------------------------------------------------------------

TEST(TraceTest, DisarmedSpansAreInert) {
  ASSERT_FALSE(trace_armed());
  ScopedSpan span("never", "test");
  EXPECT_FALSE(span.live());
  span.note("formatting must be skipped %d", 1);
}

TEST(TraceTest, CapturesNestedSpansWithParentLinks) {
  TraceScope scope(true);
  ASSERT_TRUE(scope.enabled());
  ASSERT_TRUE(trace_armed());
  {
    ScopedSpan outer("outer", "test");
    EXPECT_TRUE(outer.live());
    { ScopedSpan inner("inner", "test"); }
    { ScopedSpan inner("inner2", "test"); }
  }
  const auto spans = TraceSession::global().collect(scope.trace_id());
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by (start, id): outer first, then the two inner spans, both
  // parented to outer; outer itself is a trace root.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent, spans[0].id);
    EXPECT_GE(spans[i].start_ns, spans[0].start_ns);
    EXPECT_LE(spans[i].start_ns + spans[i].dur_ns,
              spans[0].start_ns + spans[0].dur_ns);
  }
}

TEST(TraceTest, DisabledScopeIsInert) {
  TraceScope scope(false);
  EXPECT_FALSE(scope.enabled());
  EXPECT_FALSE(trace_armed());
  ScopedSpan span("never", "test");
  EXPECT_FALSE(span.live());
  EXPECT_TRUE(TraceSession::global().collect(scope.trace_id()).empty());
}

TEST(TraceTest, RingWrapsKeepingTheNewestSpans) {
  TraceScope scope(true);
  const std::size_t cap = TraceSession::ring_capacity();
  for (std::size_t i = 0; i < cap + 100; ++i) {
    ScopedSpan span("wrap", "test");
  }
  const auto spans = TraceSession::global().collect(scope.trace_id());
  // The oldest 100 spans were overwritten; everything retained is newest.
  EXPECT_EQ(spans.size(), cap);
}

TEST(TraceTest, NoteAppendsTruncatingAtTheBufferBound) {
  TraceScope scope(true);
  {
    ScopedSpan span("noted", "test");
    span.note("k=%d", 7);
    span.note("s=%s", "x");
    span.note("%s", std::string(300, 'y').c_str());  // truncates, no overrun
  }
  const auto spans = TraceSession::global().collect(scope.trace_id());
  ASSERT_EQ(spans.size(), 1u);
  const std::string detail = spans[0].detail;
  EXPECT_EQ(detail.substr(0, 7), "k=7 s=x");
  EXPECT_LT(detail.size(), sizeof spans[0].detail);
}

TEST(TraceTest, ContextScopePropagatesAcrossThreads) {
  TraceScope scope(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 600;  // > capacity in aggregate: rings
                                        // are per-thread, so nothing wraps
  const TraceContext ctx = TraceSession::current_context();
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&ctx] {
      TraceContextScope trace_scope(ctx);
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span("worker", "test");
        span.note("i=%d", i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const auto spans = TraceSession::global().collect(scope.trace_id());
  EXPECT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  std::set<std::uint32_t> threads, ids;
  for (const TraceSpan& s : spans) {
    threads.insert(s.thread);
    ids.insert(s.id);
    EXPECT_EQ(s.trace_id, scope.trace_id());
  }
  EXPECT_EQ(threads.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(ids.size(), spans.size());  // span ids unique across rings
}

TEST(TraceTest, WorkerWithoutContextStaysInert) {
  TraceScope scope(true);
  std::thread worker([] {
    ScopedSpan span("orphan", "test");
    EXPECT_FALSE(span.live());  // armed globally, but not on this thread
  });
  worker.join();
  EXPECT_TRUE(TraceSession::global().collect(scope.trace_id()).empty());
}

TEST(TraceTest, ConcurrentIndependentTraceScopesStaySeparate) {
  // Two threads each run their OWN trace concurrently (the serve shape:
  // two traced requests in flight). Spans must not leak across traces.
  std::uint64_t ids[2] = {0, 0};
  std::size_t counts[2] = {0, 0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 2; ++t) {
    pool.emplace_back([t, &ids, &counts] {
      TraceScope scope(true);
      ids[t] = scope.trace_id();
      for (int i = 0; i < 100 + t; ++i) {
        ScopedSpan span("own", "test");
      }
      counts[t] =
          TraceSession::global().collect(scope.trace_id()).size();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_EQ(counts[0], 100u);
  EXPECT_EQ(counts[1], 101u);
}

TEST(TraceTest, ChromeJsonIsAValidTraceDocument) {
  TraceScope scope(true);
  {
    ScopedSpan outer("session.run", "session");
    ScopedSpan inner("schedule \"quoted\"", "flow");  // escaping
    inner.note("k=%d", 3);
  }
  const auto spans = TraceSession::global().collect(scope.trace_id());
  const JsonValue doc = parse_json(TraceSession::chrome_json(spans));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
  const JsonValue& root = events->as_array()[0];
  EXPECT_EQ(root.find("name")->as_string(), "session.run");
  EXPECT_EQ(root.find("ph")->as_string(), "X");
  const JsonValue& child = events->as_array()[1];
  EXPECT_EQ(child.find("name")->as_string(), "schedule \"quoted\"");
  EXPECT_EQ(child.find("args")->find("parent")->as_double(),
            root.find("args")->find("span_id")->as_double());
  EXPECT_EQ(child.find("args")->find("detail")->as_string(), "k=3");
}

TEST(TraceTest, SchedulerEmitsSampledCommitSpans) {
  const SuiteEntry suite = synthetic_suites().front();
  const TransformResult t = transform_spec(suite.build(),
                                           suite.latencies.front());
  TraceScope scope(true);
  {
    // Spans land in the ring when they close, so the stage span must end
    // before collection — exactly the flow's own shape.
    ScopedSpan root("schedule", "flow");
    (void)run_scheduler("list", t, {});
  }
  const auto spans = TraceSession::global().collect(scope.trace_id());
  ASSERT_FALSE(spans.empty());
  EXPECT_STREQ(spans[0].name, "schedule");  // earliest start: the stage
  std::size_t commits = 0;
  for (const TraceSpan& s : spans) {
    if (std::string(s.name) == "sched.commit") {
      ++commits;
      EXPECT_EQ(s.parent, spans[0].id);  // nested under the stage span
    }
  }
  EXPECT_GE(commits, 1u);  // the finish() flush guarantees the tail batch
}

// --- histogram ------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesBracketPowersOfTwo) {
  // A power of two lands exactly on a bucket boundary; values just below
  // and above it fall into adjacent octave regions, monotonically.
  int prev = 0;
  for (double v : {0.001, 0.5, 0.99, 1.0, 1.5, 2.0, 7.9, 8.0, 1000.0,
                   1e6, 2e6}) {
    const int i = Histogram::bucket_index(v);
    ASSERT_GE(i, prev) << "bucket_index not monotone at " << v;
    prev = i;
    EXPECT_LE(v, Histogram::bucket_upper_bound(i)) << "value " << v
        << " above its bucket's upper bound";
    if (i > 0) {
      EXPECT_GT(v, Histogram::bucket_upper_bound(i - 1) * 0.999)
          << "value " << v << " below its bucket";
    }
  }
  // Layout edges: non-positives and tiny values underflow to bucket 0,
  // huge values saturate the overflow bucket.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_index(1e-9), 0);
  EXPECT_EQ(Histogram::bucket_index(1e12), Histogram::kBuckets - 1);
  // Upper bounds are strictly increasing over the finite buckets.
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    EXPECT_GT(Histogram::bucket_upper_bound(i),
              Histogram::bucket_upper_bound(i - 1));
  }
}

TEST(HistogramTest, CountSumAndQuantilesTrackRecords) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram reports 0
  double sum = 0;
  for (int i = 1; i <= 100; ++i) {
    h.record(static_cast<double>(i));
    sum += i;
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  // The quantile is the holding bucket's upper bound: at most one
  // sub-bucket (2^(1/8) ~ 9%) above the exact order statistic, never below.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 50.0);
  EXPECT_LE(p50, 50.0 * 1.1);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 99.0);
  EXPECT_LE(p99, 99.0 * 1.1);
}

TEST(HistogramTest, QuantileIsMonotoneInQ) {
  Histogram h;
  // A deliberately skewed distribution across several octaves.
  for (int i = 0; i < 1000; ++i) h.record(0.1);
  for (int i = 0; i < 100; ++i) h.record(10.0);
  for (int i = 0; i < 10; ++i) h.record(1000.0);
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    prev = v;
  }
  EXPECT_LE(h.quantile(1.0), 1000.0 * 1.1);
}

TEST(HistogramTest, ConcurrentRecordsNeverDrop) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kRecords = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h] {
      for (int i = 0; i < kRecords; ++i) h.record(1.0 + (i % 7));
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kRecords);
  std::uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, h.count());  // the never-dropping ledger
}

// --- registry -------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsStableInstruments) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.counter");
  c.add(3);
  EXPECT_EQ(&reg.counter("a.counter"), &c);
  EXPECT_EQ(reg.counter("a.counter").value(), 3u);
  reg.gauge("a.gauge").set(1.5);
  reg.histogram("a.hist").record(2.0);
  // A name owns its first-seen kind.
  EXPECT_THROW(reg.gauge("a.counter"), Error);
  EXPECT_THROW(reg.counter("a.hist"), Error);
}

TEST(MetricsRegistryTest, ExpositionAndJsonCarryEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("requests.run").add(2);
  reg.gauge("active-connections").set(3);
  reg.histogram("latency.ms").record(5.0);
  const std::string text = reg.exposition();
  EXPECT_NE(text.find("# TYPE requests_run counter"), std::string::npos);
  EXPECT_NE(text.find("requests_run 2"), std::string::npos);
  EXPECT_NE(text.find("active_connections 3"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 1"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  const JsonValue doc = parse_json(reg.json());
  EXPECT_EQ(doc.find("counters")->find("requests.run")->as_double(), 2.0);
  EXPECT_EQ(doc.find("gauges")->find("active-connections")->as_double(),
            3.0);
  const JsonValue* hist = doc.find("histograms")->find("latency.ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_double(), 1.0);
  EXPECT_GE(hist->find("p99")->as_double(), 5.0);
}

// --- legacy-counter bridges ----------------------------------------------

TEST(MetricsBridgeTest, CacheStatsGaugesMatchTheLedger) {
  ArtifactCache cache;
  const Session session;
  FlowRequest req{motivational(), "optimized", 3};
  req.cache = std::shared_ptr<ArtifactCache>(&cache, [](ArtifactCache*) {});
  ASSERT_TRUE(session.run(req).ok);
  ASSERT_TRUE(session.run(req).ok);  // second run hits
  const CacheStats stats = cache.stats();
  MetricsRegistry reg;
  publish_cache_stats(reg, stats);
  EXPECT_EQ(reg.gauge("cache.kernel.hits").value(),
            static_cast<double>(stats.kernel.hits));
  EXPECT_EQ(reg.gauge("cache.kernel.misses").value(),
            static_cast<double>(stats.kernel.misses));
  EXPECT_EQ(reg.gauge("cache.schedule.hits").value(),
            static_cast<double>(stats.schedule.hits));
  EXPECT_GT(stats.kernel.hits + stats.schedule.hits, 0u);
}

TEST(MetricsBridgeTest, OracleCountersSumIntoTheRegistry) {
  OracleCounters counters;
  counters.candidates_evaluated = 10;
  counters.candidates_filtered = 5;
  counters.candidates_refined = 2;
  counters.candidates_probed = 7;
  counters.candidates_rejected = 3;
  counters.candidates_committed = 4;
  counters.words_repropagated = 99;
  MetricsRegistry reg;
  publish_oracle_counters(reg, counters);
  publish_oracle_counters(reg, counters);  // counters accumulate
  EXPECT_EQ(reg.counter("oracle.candidates_evaluated").value(), 20u);
  EXPECT_EQ(reg.counter("oracle.candidates_filtered").value(), 10u);
  EXPECT_EQ(reg.counter("oracle.candidates_refined").value(), 4u);
  EXPECT_EQ(reg.counter("oracle.candidates_probed").value(), 14u);
  EXPECT_EQ(reg.counter("oracle.candidates_rejected").value(), 6u);
  EXPECT_EQ(reg.counter("oracle.candidates_committed").value(), 8u);
  EXPECT_EQ(reg.counter("oracle.words_repropagated").value(), 198u);
}

// --- byte-stability -------------------------------------------------------

TEST(ObsStabilityTest, ArmedObservabilityNeverChangesResults) {
  const Session session;
  const FlowRequest req{diffeq(), "optimized", 4};
  const std::string baseline = to_json(session.run(req));
  {
    // A live trace on this very thread: spans are captured, results are
    // byte-identical.
    TraceScope scope(true);
    ScopedSpan root("test", "test");
    EXPECT_EQ(to_json(session.run(req)), baseline);
    EXPECT_FALSE(
        TraceSession::global().collect(scope.trace_id()).empty());
  }
  {
    // The global metrics registry armed: instruments record, results are
    // byte-identical.
    MetricsRegistry::arm_global();
    EXPECT_EQ(to_json(session.run(req)), baseline);
    MetricsRegistry::disarm_global();
  }
  EXPECT_EQ(to_json(session.run(req)), baseline);
}

}  // namespace
}  // namespace hls
