// Tests for the Session flow engine: registry lookup, request validation,
// structured diagnostics, batch/sweep execution (determinism across worker
// counts, actual multi-thread fan-out), and FlowResult JSON round-trips.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "flow/json.hpp"
#include "flow/session.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

// --- registry ----------------------------------------------------------------

TEST(Registry, BuiltinFlowsAreRegistered) {
  FlowRegistry& reg = FlowRegistry::global();
  for (const char* name : {"conventional", "original", "blc", "optimized"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_TRUE(static_cast<bool>(reg.resolve(name))) << name;
  }
  EXPECT_FALSE(reg.contains("no-such-flow"));
  EXPECT_THROW(reg.resolve("no-such-flow"), Error);
}

TEST(Registry, NamesAreSortedAndComplete) {
  const std::vector<std::string> names = FlowRegistry::global().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 4u);
}

TEST(Registry, UserFlowsRunThroughSession) {
  FlowRegistry reg;
  reg.add("constant", [](const FlowRequest& req) {
    FlowResult r;
    r.report.flow = "constant";
    r.report.latency = req.latency;
    r.ok = true;
    return r;
  });
  const Session session(reg);
  const FlowResult r = session.run({motivational(), "constant", 7});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.flow, "constant");
  EXPECT_EQ(r.report.latency, 7u);
  // The custom registry does not know the builtins.
  EXPECT_FALSE(session.run({motivational(), "optimized", 3}).ok);
}

TEST(Registry, RejectsEmptyNameAndEmptyFunction) {
  FlowRegistry reg;
  EXPECT_THROW(reg.add("", flows::conventional), Error);
  EXPECT_THROW(reg.add("x", FlowFn{}), Error);
}

// --- run(): results and diagnostics -----------------------------------------

TEST(Session, UnknownFlowYieldsRegistryDiagnostic) {
  const Session session;
  const FlowResult r = session.run({motivational(), "no-such-flow", 3});
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics[0].severity, DiagSeverity::Error);
  EXPECT_EQ(r.diagnostics[0].stage, "registry");
  // The message lists the registered flows, so typos are self-diagnosing.
  EXPECT_NE(r.diagnostics[0].message.find("optimized"), std::string::npos);
  EXPECT_THROW(r.require(), Error);
}

TEST(Session, ZeroLatencyYieldsRequestDiagnostic) {
  const Session session;
  const FlowResult r = session.run({motivational(), "optimized", 0});
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics[0].stage, "request");
}

TEST(Session, InfeasibleBudgetYieldsStagedDiagnosticNotThrow) {
  // n_bits = 5 is below the motivational example's feasible budget: the old
  // API threw from deep inside the transform; Session reports the stage.
  const Session session;
  const FlowResult r = session.run({motivational(), "optimized", 3, 5});
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.diagnostics.empty());
  bool has_error = false;
  for (const FlowDiagnostic& d : r.diagnostics) {
    if (d.severity != DiagSeverity::Error) continue;
    has_error = true;
    EXPECT_TRUE(d.stage == "transform" || d.stage == "schedule" ||
                d.stage == "allocate")
        << d.stage;
  }
  EXPECT_TRUE(has_error);
  EXPECT_NE(r.error_text(), "");
}

TEST(Session, SuccessfulOptimizedRunCarriesAllArtefacts) {
  const Session session;
  const FlowResult r = session.run({motivational(), "optimized", 3}).require();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.flow, "optimized");
  EXPECT_EQ(r.report.cycle_deltas, 6u);
  ASSERT_TRUE(r.kernel_stats.has_value());
  ASSERT_TRUE(r.kernel.has_value());
  ASSERT_TRUE(r.transform.has_value());
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_EQ(r.transform->n_bits, 6u);
  EXPECT_EQ(r.schedule->schedule.latency, 3u);
  // Notes document what the stages did.
  EXPECT_FALSE(r.diagnostics.empty());
  for (const FlowDiagnostic& d : r.diagnostics) {
    EXPECT_EQ(d.severity, DiagSeverity::Note);
  }
}

TEST(Session, ConventionalAndBlcCarryNoArtefacts) {
  const Session session;
  for (const char* flow : {"conventional", "blc"}) {
    const FlowResult r = session.run({motivational(), flow, 2}).require();
    EXPECT_FALSE(r.kernel_stats.has_value()) << flow;
    EXPECT_FALSE(r.transform.has_value()) << flow;
    EXPECT_FALSE(r.schedule.has_value()) << flow;
  }
}

TEST(Session, AliasOriginalMatchesConventional) {
  const Session session;
  const FlowResult a = session.run({diffeq(), "conventional", 6}).require();
  const FlowResult b = session.run({diffeq(), "original", 6}).require();
  EXPECT_EQ(to_json(a.report), to_json(b.report));
  EXPECT_EQ(a.report.flow, "original");  // legacy report label
}

// --- batch and sweep ---------------------------------------------------------

TEST(SessionBatch, SixteenPointSweepIsBitIdenticalToSequentialRuns) {
  // The acceptance-criteria batch: a 16-point latency sweep fanned over a
  // multi-worker pool must produce bit-identical reports to 16 sequential
  // run() calls. JSON captures report + artefact summaries + diagnostics.
  const Dfg d = diffeq();
  std::vector<FlowRequest> requests;
  for (unsigned lat = 3; lat <= 18; ++lat) {
    requests.push_back({d, "optimized", lat});
  }
  ASSERT_EQ(requests.size(), 16u);

  const Session pooled({.workers = 4});
  ASSERT_GT(pooled.worker_count(requests.size()), 1u);
  const std::vector<FlowResult> batch = pooled.run_batch(requests);

  ASSERT_EQ(batch.size(), 16u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const FlowResult sequential = pooled.run(requests[i]);
    EXPECT_TRUE(batch[i].ok) << "latency " << requests[i].latency;
    EXPECT_EQ(to_json(batch[i]), to_json(sequential))
        << "latency " << requests[i].latency;
  }
}

TEST(SessionBatch, ResultsIndependentOfWorkerCount) {
  const Dfg d = fig3_dfg();
  std::vector<FlowRequest> requests;
  for (unsigned lat = 2; lat <= 9; ++lat) {
    requests.push_back({d, "optimized", lat});
    requests.push_back({d, "original", lat});
  }
  const std::vector<FlowResult> one = Session({.workers = 1}).run_batch(requests);
  const std::vector<FlowResult> eight =
      Session({.workers = 8}).run_batch(requests);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(to_json(one[i]), to_json(eight[i])) << i;
  }
}

TEST(SessionBatch, WorkerCountClampsToJobsAndHardware) {
  // A pool of 64 configured workers over 3 jobs must spawn 3 threads, not
  // 61 idle ones; 0 means hardware concurrency, also clamped by the job
  // count; and even zero jobs keeps the count at >= 1.
  const Session wide({.workers = 64});
  EXPECT_EQ(wide.worker_count(3), 3u);
  EXPECT_EQ(wide.worker_count(0), 1u);
  EXPECT_EQ(wide.worker_count(64), 64u);
  EXPECT_EQ(wide.worker_count(1000), 64u);  // configured cap still holds
  const Session automatic({.workers = 0});
  const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
  EXPECT_EQ(automatic.worker_count(1), 1u);
  EXPECT_EQ(automatic.worker_count(100000), hw);
  const Session one({.workers = 1});
  EXPECT_EQ(one.worker_count(100), 1u);
}

TEST(SessionBatch, UsesMoreThanOneWorkerThread) {
  // A probe flow records which threads execute it. The jobs block until at
  // least two distinct threads have arrived (with a bounded wait), so the
  // test cannot pass with a single-threaded pool and cannot rely on timing.
  std::mutex mu;
  std::set<std::thread::id> seen;
  FlowRegistry reg;
  reg.add("probe", [&](const FlowRequest&) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    }
    for (int spins = 0; spins < 2000; ++spins) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (seen.size() >= 2) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FlowResult r;
    r.ok = true;
    return r;
  });
  const Session session(reg, {.workers = 4});
  std::vector<FlowRequest> requests(16);
  for (FlowRequest& req : requests) {
    req.flow = "probe";
    req.latency = 1;
  }
  const std::vector<FlowResult> results = session.run_batch(requests);
  EXPECT_EQ(results.size(), 16u);
  for (const FlowResult& r : results) EXPECT_TRUE(r.ok);
  EXPECT_GT(seen.size(), 1u);
}

TEST(SessionBatch, FailuresStayPositionalAndDoNotPoisonNeighbours) {
  const Dfg d = motivational();
  const std::vector<FlowResult> rs = Session({.workers = 3}).run_batch({
      {d, "optimized", 3},
      {d, "no-such-flow", 3},
      {d, "optimized", 3, 5},  // infeasible budget
      {d, "blc", 1},
  });
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_TRUE(rs[0].ok);
  EXPECT_FALSE(rs[1].ok);
  EXPECT_EQ(rs[1].diagnostics[0].stage, "registry");
  EXPECT_FALSE(rs[2].ok);
  EXPECT_TRUE(rs[3].ok);
}

TEST(SessionBatch, SweepConvenienceMatchesExplicitRequests) {
  const Session session;
  const std::vector<FlowResult> sweep =
      session.run_sweep({fir2(), "optimized"}, 3, 6);
  ASSERT_EQ(sweep.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_TRUE(sweep[i].ok);
    EXPECT_EQ(sweep[i].report.latency, 3 + i);
    EXPECT_EQ(to_json(sweep[i]),
              to_json(session.run({fir2(), "optimized", 3 + i})));
  }
}

TEST(SessionBatch, InvalidSweepRangeYieldsStructuredDiagnostic) {
  // An empty/inverted range is a malformed request: one ok == false result
  // with a "request"-stage Error naming both bounds — not a throw, not a
  // silently empty vector. ExploreRequest reuses validate_latency_range.
  const Session session;
  for (const auto& [lo, hi] : {std::pair<unsigned, unsigned>{5, 4}, {0, 4}}) {
    const std::vector<FlowResult> rs =
        session.run_sweep({fir2(), "optimized"}, lo, hi);
    ASSERT_EQ(rs.size(), 1u) << lo << ".." << hi;
    EXPECT_FALSE(rs[0].ok);
    EXPECT_EQ(rs[0].flow, "optimized");
    ASSERT_FALSE(rs[0].diagnostics.empty());
    EXPECT_EQ(rs[0].diagnostics[0].severity, DiagSeverity::Error);
    EXPECT_EQ(rs[0].diagnostics[0].stage, "request");
    EXPECT_NE(rs[0].diagnostics[0].message.find(
                  "lo=" + std::to_string(lo)),
              std::string::npos)
        << rs[0].diagnostics[0].message;
    EXPECT_THROW(rs[0].require(), Error);
  }
  // The shared validator itself: well-formed ranges pass.
  EXPECT_FALSE(validate_latency_range(1, 1).has_value());
  EXPECT_FALSE(validate_latency_range(3, 18).has_value());
  ASSERT_TRUE(validate_latency_range(9, 2).has_value());
  EXPECT_EQ(validate_latency_range(9, 2)->stage, "request");
}

// --- FlowResult JSON ---------------------------------------------------------

/// Pulls `"key":<number>` out of a JSON string (first occurrence inside the
/// serialized object) — enough structure checking without a JSON parser.
double json_number(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " missing in " << json;
  if (at == std::string::npos) return -1;
  return std::stod(json.substr(at + key.size() + 3));
}

TEST(SessionJson, FlowResultRoundTripsItsFields) {
  const Session session;
  const FlowResult r = session.run({motivational(), "optimized", 3}).require();
  const std::string j = to_json(r);
  // Round-trip: every numeric field extracted from the JSON matches the
  // in-memory result it was serialized from.
  EXPECT_NE(j.find("\"flow\":\"optimized\""), std::string::npos);
  EXPECT_NE(j.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(json_number(j, "latency"), r.report.latency);
  EXPECT_EQ(json_number(j, "cycle_deltas"), r.report.cycle_deltas);
  EXPECT_EQ(json_number(j, "total"), r.report.area.total());
  EXPECT_EQ(json_number(j, "ops_before"), r.kernel_stats->ops_before);
  EXPECT_EQ(json_number(j, "adds_after"), r.kernel_stats->adds_after);
  EXPECT_EQ(json_number(j, "n_bits"), r.transform->n_bits);
  EXPECT_EQ(json_number(j, "fragmented_ops"), r.transform->fragmented_op_count);
  EXPECT_EQ(json_number(j, "fu_ops"), r.schedule->fu_ops.size());
  // And serialization is deterministic.
  EXPECT_EQ(j, to_json(session.run({motivational(), "optimized", 3})));
}

TEST(SessionJson, FailedResultSerializesDiagnostics) {
  const Session session;
  const FlowResult r = session.run({motivational(), "no-such-flow", 3});
  const std::string j = to_json(r);
  EXPECT_NE(j.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(j.find("\"report\""), std::string::npos);  // no report when failed
  EXPECT_NE(j.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(j.find("\"stage\":\"registry\""), std::string::npos);
}

TEST(SessionJson, TimingsBlockRoundTripsWhenRequested) {
  // FlowOptions::timing populates FlowResult::timings; the JSON carries one
  // {stage, ms} object per stage, in stage order, with the same values.
  const Session session;
  FlowOptions opt;
  opt.timing = true;
  const FlowResult r =
      session.run({motivational(), "optimized", 3, 0, opt}).require();
  ASSERT_FALSE(r.timings.empty());
  const std::string j = to_json(r);
  EXPECT_NE(j.find("\"timings\":["), std::string::npos);
  std::size_t cursor = j.find("\"timings\":[");
  for (const StageTiming& st : r.timings) {
    const std::string entry = "{\"stage\":\"" + st.stage + "\",\"ms\":";
    cursor = j.find(entry, cursor);
    EXPECT_NE(cursor, std::string::npos) << st.stage;
  }
  for (const char* stage :
       {"kernel", "transform", "schedule", "allocate", "verify"}) {
    EXPECT_NE(j.find("{\"stage\":\"" + std::string(stage) + "\""),
              std::string::npos)
        << stage;
  }
  // Without the option the block is absent entirely (byte-stable output).
  const std::string plain =
      to_json(session.run({motivational(), "optimized", 3}).require());
  EXPECT_EQ(plain.find("\"timings\""), std::string::npos);
}

TEST(SessionJson, OracleCountersRideTheTimingOptIn) {
  // FlowOptions::timing also surfaces the scheduling stage's oracle work:
  // every fragment commits exactly once, probes cover at least the commits,
  // and probes split exactly into rejects + commits. The counters serialize
  // as the "oracle" JSON block and stay absent without the opt-in.
  // Only force-directed scans candidates, so only it evaluates or filters.
  const Session session;
  FlowOptions opt;
  opt.timing = true;
  for (const char* scheduler : {"list", "forcedirected"}) {
    const FlowResult r =
        session.run({motivational(), "optimized", 3, 0, opt, scheduler})
            .require();
    ASSERT_TRUE(r.counters.has_value()) << scheduler;
    const OracleCounters& c = *r.counters;
    EXPECT_EQ(c.candidates_committed, r.transform->adds.size()) << scheduler;
    EXPECT_GE(c.candidates_probed, c.candidates_committed) << scheduler;
    EXPECT_EQ(c.candidates_probed, c.candidates_rejected + c.candidates_committed)
        << scheduler;
    EXPECT_GT(c.words_repropagated, 0u) << scheduler;
    EXPECT_LE(c.candidates_refined, c.candidates_evaluated) << scheduler;
    if (std::string(scheduler) == "list") {
      EXPECT_EQ(c.candidates_evaluated, 0u);
      EXPECT_EQ(c.candidates_filtered, 0u);
      EXPECT_EQ(c.candidates_refined, 0u);
    }
    const std::string j = to_json(r);
    EXPECT_NE(j.find("\"oracle\":{\"candidates_evaluated\":" +
                     std::to_string(c.candidates_evaluated) +
                     ",\"candidates_filtered\":" +
                     std::to_string(c.candidates_filtered) +
                     ",\"candidates_refined\":" +
                     std::to_string(c.candidates_refined) + ","),
              std::string::npos)
        << scheduler;
  }
  // The force-directed strategy also reports its force evaluations, and the
  // candidates its earliest-cycle bound removed before evaluating them.
  const FlowResult fd =
      session.run({motivational(), "optimized", 3, 0, opt, "forcedirected"})
          .require();
  EXPECT_GT(fd.counters->candidates_evaluated, 0u);
  EXPECT_GT(fd.counters->candidates_filtered, 0u);

  // Without the option: no counters, no "oracle" block (byte-stable output).
  const FlowResult plain =
      session.run({motivational(), "optimized", 3}).require();
  EXPECT_FALSE(plain.counters.has_value());
  EXPECT_EQ(to_json(plain).find("\"oracle\""), std::string::npos);
}

TEST(SessionBatch, TargetAxisSweepsNextToLatencies) {
  // run_sweep's target axis: 2 targets x 3 latencies, target-major, every
  // result carrying its resolved target name.
  const Session session;
  const std::vector<FlowResult> rs =
      session.run_sweep({fir2(), "optimized"}, 3, 5,
                        {std::string(kDefaultTargetName), "cla"});
  ASSERT_EQ(rs.size(), 6u);
  for (unsigned i = 0; i < 6; ++i) {
    EXPECT_TRUE(rs[i].ok) << i;
    EXPECT_EQ(rs[i].report.target, i < 3 ? kDefaultTargetName : "cla") << i;
    EXPECT_EQ(rs[i].report.latency, 3 + (i % 3)) << i;
  }
  // Same latency, different technology: the cla rows price differently.
  EXPECT_NE(rs[0].report.cycle_ns, rs[3].report.cycle_ns);
}

TEST(SessionJson, ArrayOfResults) {
  const Session session;
  const std::string j = to_json(session.run_sweep({fir2(), "optimized"}, 3, 4));
  EXPECT_EQ(j.front(), '[');
  EXPECT_EQ(j.back(), ']');
  EXPECT_NE(j.find("},{"), std::string::npos);
}

} // namespace
} // namespace hls
