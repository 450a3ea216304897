// Tests for cooperative cancellation (support/cancel.hpp): token/source
// semantics, the counter-gated checkpoint, and the cancellation property
// the serve deadline path depends on — cancelling a flow at *any*
// checkpoint index and rerunning cleanly on the same cache yields a result
// and cache contents bit-identical to a never-cancelled run.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "flow/json.hpp"
#include "flow/session.hpp"
#include "suites/suites.hpp"
#include "support/cancel.hpp"
#include "support/json.hpp"
#include "timing/target.hpp"

namespace hls {
namespace {

// --- token semantics ---------------------------------------------------------

TEST(Cancel, UnarmedTokenIsInertAndNeverThrows) {
  const CancelToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.poll());
}

TEST(Cancel, CancelTripsEveryTokenOfTheSource) {
  CancelSource source;
  const CancelToken a = source.token();
  const CancelToken b = source.token();
  EXPECT_TRUE(a.armed());
  EXPECT_NO_THROW(a.poll());
  source.cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_THROW(a.poll(), CancelledError);
  EXPECT_THROW(b.poll(), CancelledError);
  // Once tripped, every later poll keeps throwing.
  EXPECT_THROW(a.poll(), CancelledError);
}

TEST(Cancel, TripAfterBudgetCancelsAtAnExactPollIndex) {
  CancelSource source;
  source.trip_after(2);
  const CancelToken token = source.token();
  EXPECT_NO_THROW(token.poll());  // 1st
  EXPECT_NO_THROW(token.poll());  // 2nd
  EXPECT_THROW(token.poll(), CancelledError);
  EXPECT_TRUE(source.cancelled());
  EXPECT_EQ(source.polls(), 3u);
}

TEST(Cancel, CheckpointPollsOnlyEveryStride) {
  CancelSource source;
  source.trip_after(0);  // the very first poll trips
  CancelCheckpoint checkpoint(source.token(), 4);
  // Three ticks stay under the stride: no poll, no throw.
  EXPECT_NO_THROW(checkpoint.tick());
  EXPECT_NO_THROW(checkpoint.tick());
  EXPECT_NO_THROW(checkpoint.tick());
  EXPECT_EQ(source.polls(), 0u);
  EXPECT_THROW(checkpoint.tick(), CancelledError);
  EXPECT_EQ(source.polls(), 1u);
}

TEST(Cancel, TokenOutlivesItsSource) {
  CancelToken token;
  {
    CancelSource source;
    token = source.token();
    source.cancel();
  }
  EXPECT_THROW(token.poll(), CancelledError);
}

// --- the cancellation property over the flow engine --------------------------

FlowRequest request_for(const Dfg& spec, unsigned latency,
                        const std::string& scheduler,
                        std::shared_ptr<ArtifactCache> cache,
                        CancelToken token = {},
                        const std::string& flow = "optimized") {
  FlowRequest fr;
  fr.spec = spec;
  fr.flow = flow;
  fr.latency = latency;
  fr.scheduler = scheduler;
  fr.cache = std::move(cache);
  fr.cancel = std::move(token);
  return fr;
}

bool has_cancelled_diagnostic(const FlowResult& r) {
  for (const FlowDiagnostic& d : r.diagnostics) {
    if (d.stage == "cancelled") return true;
  }
  return false;
}

/// Cancels `spec` at checkpoint `index`, then reruns cleanly on the same
/// cache and asserts result + cache contents match the never-cancelled
/// reference.
void check_cancel_at(const Session& session, const Dfg& spec, unsigned latency,
                     const std::string& scheduler, std::uint64_t index,
                     const std::string& clean_json,
                     const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                         clean_keys,
                     const std::string& flow = "optimized") {
  SCOPED_TRACE("checkpoint index " + std::to_string(index));
  auto cache = std::make_shared<ArtifactCache>();
  CancelSource source;
  source.trip_after(index);
  const FlowResult aborted = session.run(
      request_for(spec, latency, scheduler, cache, source.token(), flow));
  ASSERT_FALSE(aborted.ok);
  EXPECT_TRUE(has_cancelled_diagnostic(aborted));
  // No partial artefact: everything resident is a completed, pure stage
  // value — a subset of what the clean run inserts.
  const auto keys = cache->resident_keys();
  const std::set<std::pair<std::uint64_t, std::uint64_t>> clean_set(
      clean_keys.begin(), clean_keys.end());
  for (const auto& k : keys) {
    EXPECT_TRUE(clean_set.count(k))
        << "cancelled run left an artefact the clean run never makes";
  }
  // Clean rerun on the same cache: bit-identical result, identical cache.
  const FlowResult rerun =
      session.run(request_for(spec, latency, scheduler, cache, {}, flow));
  EXPECT_EQ(to_json(rerun), clean_json);
  EXPECT_EQ(cache->resident_keys(), clean_keys);
}

TEST(Cancel, CancellingAtEveryCheckpointLeavesNoTrace) {
  // For every registry suite: count the checkpoints an armed-but-never-
  // tripped run polls (asserting byte-identity with the unarmed run along
  // the way), then cancel at a sample of those indices — first, last, and
  // interior points — and require the rerun to be indistinguishable from a
  // run that was never cancelled.
  const Session session;
  for (const SuiteEntry& s : registry_suites()) {
    SCOPED_TRACE(s.name);
    const Dfg spec = s.build();
    const unsigned latency = s.latencies.front();

    auto clean_cache = std::make_shared<ArtifactCache>();
    const FlowResult clean =
        session.run(request_for(spec, latency, "list", clean_cache));
    ASSERT_TRUE(clean.ok);
    const std::string clean_json = to_json(clean);
    const auto clean_keys = clean_cache->resident_keys();

    // Armed but never tripped: same bytes, and the poll count tells us how
    // many checkpoints the run crosses.
    auto armed_cache = std::make_shared<ArtifactCache>();
    CancelSource probe;
    const FlowResult armed = session.run(
        request_for(spec, latency, "list", armed_cache, probe.token()));
    EXPECT_EQ(to_json(armed), clean_json);
    EXPECT_EQ(armed_cache->resident_keys(), clean_keys);
    const std::uint64_t total = probe.polls();
    ASSERT_GT(total, 0u) << "flow crossed no checkpoints";

    const std::set<std::uint64_t> indices = {0, total / 4, total / 2,
                                             (3 * total) / 4, total - 1};
    for (const std::uint64_t index : indices) {
      check_cancel_at(session, spec, latency, "list", index, clean_json,
                      clean_keys);
    }
  }
}

Dfg suite_named(const std::string& name) {
  for (const SuiteEntry& s : registry_suites()) {
    if (s.name == name) return s.build();
  }
  ADD_FAILURE() << "no registry suite " << name;
  return {};
}

TEST(Cancel, CancellingThePartitionedFlowAtEveryCheckpointLeavesNoTrace) {
  // The same property over the partitioned flow's multi-kernel path:
  // every checkpoint of a synth-2kernel run — the partition stage, each
  // kernel's schedule.k<i> loop, the per-kernel transforms and datapaths —
  // cancels cleanly.
  const Session session;
  const Dfg spec = suite_named("synth-2kernel");
  const unsigned latency = 6;
  auto clean_cache = std::make_shared<ArtifactCache>();
  const FlowResult clean = session.run(
      request_for(spec, latency, "list", clean_cache, {}, "partitioned"));
  ASSERT_TRUE(clean.ok) << clean.error_text();
  ASSERT_TRUE(clean.composite) << "synth-2kernel must split into kernels";
  const std::string clean_json = to_json(clean);
  const auto clean_keys = clean_cache->resident_keys();
  CancelSource probe;
  const FlowResult armed = session.run(
      request_for(spec, latency, "list", std::make_shared<ArtifactCache>(),
                  probe.token(), "partitioned"));
  EXPECT_EQ(to_json(armed), clean_json);
  const std::uint64_t total = probe.polls();
  ASSERT_GT(total, 0u);
  for (std::uint64_t index = 0; index < total; ++index) {
    check_cancel_at(session, spec, latency, "list", index, clean_json,
                    clean_keys, "partitioned");
  }
}

TEST(Cancel, UncachedCancelledRunRerunsByteIdentically) {
  // A request without a cache runs through its own per-request stage hook;
  // cancelling it mid-run and rerunning must give the never-cancelled bytes.
  const Session session;
  for (const auto& [suite, flow] :
       {std::pair<std::string, std::string>{"elliptic", "optimized"},
        {"synth-2kernel", "partitioned"}}) {
    SCOPED_TRACE(suite + "/" + flow);
    const Dfg spec = suite_named(suite);
    const FlowResult clean =
        session.run(request_for(spec, 6, "forcedirected", nullptr, {}, flow));
    ASSERT_TRUE(clean.ok) << clean.error_text();
    const std::string clean_json = to_json(clean);
    CancelSource probe;
    session.run(
        request_for(spec, 6, "forcedirected", nullptr, probe.token(), flow));
    ASSERT_GT(probe.polls(), 1u);
    CancelSource source;
    source.trip_after(probe.polls() / 2);
    const FlowResult aborted = session.run(
        request_for(spec, 6, "forcedirected", nullptr, source.token(), flow));
    ASSERT_FALSE(aborted.ok);
    EXPECT_TRUE(has_cancelled_diagnostic(aborted));
    EXPECT_EQ(to_json(session.run(request_for(spec, 6, "forcedirected",
                                              nullptr, {}, flow))),
              clean_json);
  }
}

TEST(Cancel, ForceDirectedUnwindIsCleanMidCommitLoop) {
  // The force-directed scheduler owns worker threads and a commit journal;
  // cancelling inside its main loop must unwind both without leaking or
  // corrupting the cache.
  const Session session;
  const Dfg spec = elliptic();
  auto clean_cache = std::make_shared<ArtifactCache>();
  const FlowResult clean =
      session.run(request_for(spec, 10, "forcedirected", clean_cache));
  ASSERT_TRUE(clean.ok);
  CancelSource probe;
  const FlowResult armed = session.run(request_for(
      spec, 10, "forcedirected", std::make_shared<ArtifactCache>(),
      probe.token()));
  EXPECT_EQ(to_json(armed), to_json(clean));
  const std::uint64_t total = probe.polls();
  ASSERT_GT(total, 0u);
  for (const std::uint64_t index : {total / 2, total - 1}) {
    check_cancel_at(session, spec, 10, "forcedirected", index, to_json(clean),
                    clean_cache->resident_keys());
  }
}

TEST(Cancel, ExplorerAbortsWithCancelledErrorAndSharedCacheStaysClean) {
  const Explorer explorer;
  ExploreRequest req;
  req.spec = diffeq();
  req.latency_lo = 4;
  req.latency_hi = 7;
  req.workers = 1;

  req.cache = std::make_shared<ArtifactCache>();
  const ExploreResult clean = explorer.run(req);
  ASSERT_TRUE(clean.ok);
  const auto clean_keys = req.cache->resident_keys();

  // Count the grid's checkpoints, then cancel mid-grid.
  ExploreRequest probe_req = req;
  probe_req.cache = std::make_shared<ArtifactCache>();
  CancelSource probe;
  probe_req.cancel = probe.token();
  (void)explorer.run(probe_req);
  const std::uint64_t total = probe.polls();
  ASSERT_GT(total, 0u);

  ExploreRequest cut_req = req;
  cut_req.cache = std::make_shared<ArtifactCache>();
  CancelSource source;
  source.trip_after(total / 2);
  cut_req.cancel = source.token();
  EXPECT_THROW(explorer.run(cut_req), CancelledError);
  // Rerun on the cache the aborted exploration touched: identical frontier
  // and points, identical cache contents. The serialized cache *counters*
  // legitimately differ (the rerun hits what the aborted pass computed), so
  // compare modulo the "cache" member — the same one deliberate exception
  // the serve layer documents.
  ExploreRequest rerun_req = req;
  rerun_req.cache = cut_req.cache;
  const ExploreResult rerun = explorer.run(rerun_req);
  const auto strip_cache = [](const std::string& json) {
    const JsonValue doc = parse_json(json);
    std::vector<JsonValue::Member> members;
    for (const JsonValue::Member& m : doc.members()) {
      if (m.first != "cache") members.push_back(m);
    }
    return write_json(JsonValue::object(std::move(members)));
  };
  EXPECT_EQ(strip_cache(to_json(rerun)), strip_cache(to_json(clean)));
  EXPECT_EQ(cut_req.cache->resident_keys(), clean_keys);
}

} // namespace
} // namespace hls
