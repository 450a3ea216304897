// Tests for the dse/ subsystem: Dfg content digests and their per-object
// memo, the ArtifactCache (hit/miss accounting, cross-target artefact
// sharing, the bit-identical cached-replay contract) and the Explorer
// (request validation, Pareto dominance consistency across registry suites
// and seeds, §3.2 bound pruning with its non-silent report, point budgets,
// objective weights, and the JSON/CSV renderings including the committed
// golden).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "flow/json.hpp"
#include "ir/hash.hpp"
#include "sched/core.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

// --- content digest ----------------------------------------------------------

TEST(Digest, EqualSpecsEqualDigests) {
  EXPECT_EQ(digest_of(motivational()), digest_of(motivational()));
  EXPECT_EQ(digest_of(synthetic_mesh(4, 4, 8, 7)),
            digest_of(synthetic_mesh(4, 4, 8, 7)));
}

TEST(Digest, StructureNamesAndSeedsAllCount) {
  const Digest base = digest_of(motivational());
  EXPECT_NE(base, digest_of(fig3_dfg()));
  EXPECT_NE(digest_of(synthetic_mesh(4, 4, 8, 7)),
            digest_of(synthetic_mesh(4, 4, 8, 8)));  // seed changes content
  // Node names are semantically inert but flow into labels and emitted
  // VHDL, so the digest must see them (the cached-replay invariant).
  Dfg renamed = motivational();
  renamed.rename_node(renamed.operations().front(), "relabelled");
  EXPECT_NE(base, digest_of(renamed));
  Dfg retitled = motivational();
  retitled.set_name("other");
  EXPECT_NE(base, digest_of(retitled));
}

// The memo contract (ir/hash.hpp): digest_of memoizes the digest in the
// graph object, every mutator drops it, copies carry it and a move empties
// its source. The graphs below are hashed before they change, so a missed
// invalidation reads as a stale digest.

/// The digest a graph with `g`'s content reports when built fresh, without
/// reading or filling `g`'s memo.
Digest rehashed(const Dfg& g) {
  Dfg fresh(g.name());
  for (const Node& n : g.nodes()) fresh.add_node(n);
  return digest_of(fresh);
}

TEST(Digest, EveryMutatorDropsTheMemo) {
  // One construction sequence through every mutator, one edit per entry.
  const std::vector<std::function<void(Dfg&)>> edits = {
      [](Dfg& g) { g.add_input("A", 8); },
      [](Dfg& g) { g.add_input("B", 8); },
      [](Dfg& g) { g.add_const(3, 8); },
      [](Dfg& g) {
        g.add_op(OpKind::Add, 8, g.whole(NodeId{0}), g.whole(NodeId{1}));
      },
      [](Dfg& g) {
        g.add_add_cin(8, g.whole(NodeId{3}), g.whole(NodeId{2}),
                      g.bit(NodeId{0}, 0));
      },
      [](Dfg& g) {
        g.add_concat({g.slice(NodeId{4}, 3, 0), g.slice(NodeId{1}, 7, 4)});
      },
      [](Dfg& g) { g.add_output("S", g.whole(NodeId{5})); },
      [](Dfg& g) { g.set_name("renamed"); },
      [](Dfg& g) { g.rename_node(NodeId{3}, "sum"); },
  };
  Dfg g("memo");
  Digest before = digest_of(g);
  for (std::size_t i = 0; i < edits.size(); ++i) {
    edits[i](g);
    Dfg fresh("memo");
    for (std::size_t j = 0; j <= i; ++j) edits[j](fresh);
    const Digest after = digest_of(g);  // refills the memo for edit i + 1
    EXPECT_EQ(after, digest_of(fresh)) << "edit " << i;
    EXPECT_NE(after, before) << "edit " << i;
    before = after;
  }
}

TEST(Digest, CopiesCarryTheMemoAndDivergeAfterTheirOwnEdit) {
  const Dfg original = motivational();
  const Digest base = digest_of(original);
  Dfg copy = original;
  EXPECT_EQ(digest_of(copy), base);
  copy.rename_node(copy.operations().front(), "relabelled");
  EXPECT_NE(digest_of(copy), base);
  EXPECT_EQ(digest_of(copy), rehashed(copy));
  EXPECT_EQ(digest_of(original), base);
}

TEST(Digest, AssignedGraphsReportTheirNewContent) {
  // From a hashed source (the memo travels) and from an unhashed one (the
  // target's old memo must not survive), by copy and by move.
  for (const bool hash_source : {true, false}) {
    SCOPED_TRACE(hash_source ? "hashed source" : "unhashed source");
    const Dfg source = diffeq();
    const Digest want = rehashed(source);
    if (hash_source) (void)digest_of(source);

    Dfg copied = motivational();
    (void)digest_of(copied);
    copied = source;
    EXPECT_EQ(digest_of(copied), want);

    Dfg moved = motivational();
    (void)digest_of(moved);
    Dfg temp = source;
    moved = std::move(temp);
    EXPECT_EQ(digest_of(moved), want);
  }
}

TEST(Digest, MovedFromGraphNeverReportsItsOldDigest) {
  Dfg constructed_from = motivational();
  const Digest base = digest_of(constructed_from);
  const Dfg target(std::move(constructed_from));
  EXPECT_EQ(digest_of(target), base);

  Dfg assigned_from = motivational();
  (void)digest_of(assigned_from);
  Dfg assigned = fig3_dfg();
  assigned = std::move(assigned_from);
  EXPECT_EQ(digest_of(assigned), base);

  // Valid but unspecified content: whatever is left hashes as itself.
  for (const Dfg* g : {&constructed_from, &assigned_from}) {
    EXPECT_NE(digest_of(*g), base);
    EXPECT_EQ(digest_of(*g), rehashed(*g));
  }
}

TEST(Digest, ConcurrentFirstHashesAllSeeTheFreshValue) {
  const Dfg spec = elliptic();  // never hashed before the threads start
  const Digest want = rehashed(spec);
  constexpr unsigned kThreads = 8;
  std::vector<Digest> seen(kThreads);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = digest_of(spec);
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], want) << "thread " << t;
  }
  EXPECT_EQ(digest_of(spec), want);
}

// --- ArtifactCache -----------------------------------------------------------

TEST(ArtifactCache, CountsMissesThenHits) {
  ArtifactCache cache;
  const Dfg spec = diffeq();
  const DelayModel ripple;
  (void)cache.fragment_schedule("list", spec, false, 6, 0, ripple);
  const CacheStats first = cache.stats();
  // One cold chain: kernel, prep, transform, schedule all computed once.
  EXPECT_EQ(first.kernel.misses, 1u);
  EXPECT_EQ(first.prep.misses, 1u);
  EXPECT_EQ(first.transform.misses, 1u);
  EXPECT_EQ(first.schedule.misses, 1u);
  EXPECT_EQ(first.schedule.hits, 0u);
  (void)cache.fragment_schedule("list", spec, false, 6, 0, ripple);
  const CacheStats second = cache.stats();
  EXPECT_EQ(second.schedule.hits, 1u);
  EXPECT_EQ(second.schedule.misses, 1u);
  EXPECT_GT(second.total().hit_rate(), 0.0);
  cache.clear();
  EXPECT_EQ(cache.stats().total().hits + cache.stats().total().misses, 0u);
}

TEST(ArtifactCache, TargetsWithEqualBudgetsShareTransforms) {
  // "fast-logic" is the ripple structure on a faster family: budgets and
  // schedules are bit-identical to "paper-ripple", so the cache must key
  // transforms on the *resolved* budget and serve one entry to both.
  ArtifactCache cache;
  const Dfg spec = fir2();
  const DelayModel ripple = resolve_target("paper-ripple").delay;
  const DelayModel fast = resolve_target("fast-logic").delay;
  const auto a = cache.transform(spec, false, 4, 0, ripple);
  const auto b = cache.transform(spec, false, 4, 0, fast);
  EXPECT_EQ(a.get(), b.get());  // same shared artefact, not a recompute
  EXPECT_EQ(cache.stats().transform.misses, 1u);
  EXPECT_EQ(cache.stats().transform.hits, 1u);
  // The schedule and datapath layers share the same way.
  const auto sa = cache.fragment_schedule("list", spec, false, 4, 0, ripple);
  const auto sb = cache.fragment_schedule("list", spec, false, 4, 0, fast);
  EXPECT_EQ(sa.get(), sb.get());
}

TEST(ArtifactCache, CachedSessionRunsAreBitIdentical) {
  // The StageCache contract: attaching a cache to a request must not change
  // one byte of the result — across flows, schedulers, targets, narrow.
  const Session session;
  const auto cache = std::make_shared<ArtifactCache>();
  const Dfg spec = iir4();
  for (const char* flow : {"optimized", "blc", "conventional"}) {
    for (const char* target : {"paper-ripple", "cla"}) {
      FlowRequest req{spec, flow, 8, 0, {}, "list", target};
      const std::string uncached = to_json(session.run(req));
      req.cache = cache;
      // Twice: once cold (miss path), once warm (hit path).
      EXPECT_EQ(to_json(session.run(req)), uncached) << flow << "/" << target;
      EXPECT_EQ(to_json(session.run(req)), uncached) << flow << "/" << target;
    }
  }
  FlowOptions narrow_opt;
  narrow_opt.narrow = true;
  FlowRequest req{spec, "optimized", 8, 0, narrow_opt, "forcedirected"};
  const std::string uncached = to_json(session.run(req));
  req.cache = cache;
  EXPECT_EQ(to_json(session.run(req)), uncached);
  EXPECT_GT(cache->stats().narrow.misses, 0u);
}

TEST(ArtifactCache, FailuresAreNotCached) {
  // An infeasible override budget throws inside the stage; replays must
  // fail with the same staged diagnostics, not serve a stale artefact.
  const Session session;
  const auto cache = std::make_shared<ArtifactCache>();
  FlowRequest req{motivational(), "optimized", 3, 5};  // budget too small
  req.cache = cache;
  const FlowResult first = session.run(req);
  EXPECT_FALSE(first.ok);
  const FlowResult again = session.run(req);
  EXPECT_EQ(to_json(again), to_json(first));
  FlowRequest plain{motivational(), "optimized", 3, 5};
  EXPECT_EQ(to_json(session.run(plain)), to_json(first));
}

TEST(ArtifactCache, HitRateEdgeCases) {
  ArtifactCache cache;
  // Empty cache: zero lookups must read as 0.0, not 0/0.
  EXPECT_EQ(cache.stats().total().hit_rate(), 0.0);
  const DelayModel ripple;
  (void)cache.kernel(motivational());
  EXPECT_EQ(cache.stats().kernel.hit_rate(), 0.0);  // one miss, no hits
  (void)cache.kernel(motivational());
  EXPECT_DOUBLE_EQ(cache.stats().kernel.hit_rate(), 0.5);
  (void)cache.kernel(motivational());
  (void)cache.kernel(motivational());
  EXPECT_DOUBLE_EQ(cache.stats().kernel.hit_rate(), 0.75);
  (void)ripple;
}

TEST(ArtifactCache, ConcurrentLookupsShareOneArtifactAndCountEveryLookup) {
  // The deliberate compute race: many threads miss the same cold key at
  // once. Compute runs outside the shard lock (first insert wins), so more
  // than one thread may compute — but every caller must get the *same*
  // shared artefact and every lookup must be counted exactly once:
  // hits + misses == lookups, with no lost updates under contention.
  ArtifactCache cache;
  const Dfg spec = iir4();
  const DelayModel ripple = resolve_target("paper-ripple").delay;
  constexpr unsigned kThreads = 8, kRounds = 16;
  std::vector<std::shared_ptr<const TransformResult>> seen(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned r = 0; r < kRounds; ++r) {
        seen[t] = cache.transform(spec, false, 8, 0, ripple);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].get(), seen[0].get()) << "thread " << t;
  }
  const CacheStats::Counter c = cache.stats().transform;
  EXPECT_EQ(c.hits + c.misses, kThreads * kRounds);
  EXPECT_GE(c.misses, 1u);
  EXPECT_EQ(cache.stats().total().evictions, 0u);  // unbounded: no eviction
}

TEST(ArtifactCache, ByteBoundEvictsLeastRecentlyUsedAndCounts) {
  // One shard and a bound far below one suite's working set: filling the
  // cache across latencies must evict, the counters must say so, resident
  // bytes must respect the bound, and an evicted key must recompute as a
  // fresh miss (correct, just cold again).
  ArtifactCache cache({.shards = 1, .max_resident_bytes = 16 * 1024});
  const Dfg spec = elliptic();
  const DelayModel ripple = resolve_target("paper-ripple").delay;
  (void)cache.fragment_schedule("list", spec, false, 8, 0, ripple);
  const std::uint64_t cold_misses = cache.stats().schedule.misses;
  for (unsigned lat = 9; lat < 24; ++lat) {
    (void)cache.fragment_schedule("list", spec, false, lat, 0, ripple);
  }
  const CacheStats after = cache.stats();
  EXPECT_GT(after.total().evictions, 0u);
  EXPECT_LE(after.total().resident_bytes, 16u * 1024u);
  // Latency 8 was the least recently used entry — long evicted by now.
  (void)cache.fragment_schedule("list", spec, false, 8, 0, ripple);
  EXPECT_GT(cache.stats().schedule.misses, cold_misses);
  // Counters survive eviction: lookups still balance.
  const CacheStats::Counter s = cache.stats().schedule;
  EXPECT_EQ(s.hits + s.misses, 16u + 1u);
}

TEST(ArtifactCache, BoundedCacheStaysCorrectUnderContention) {
  // Eviction under contention: threads hammer overlapping latency ranges
  // against a bound small enough to thrash. Values stay correct (the
  // shared_ptr keeps a just-evicted artefact alive for its holder) and the
  // per-stage ledgers stay exact.
  ArtifactCache cache({.shards = 2, .max_resident_bytes = 8 * 1024});
  const Dfg spec = diffeq();
  const DelayModel ripple = resolve_target("paper-ripple").delay;
  constexpr unsigned kThreads = 4, kRounds = 8, kLats = 6;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned r = 0; r < kRounds; ++r) {
        for (unsigned l = 0; l < kLats; ++l) {
          const unsigned lat = 4 + (l + t) % kLats;
          const auto fs =
              cache.fragment_schedule("list", spec, false, lat, 0, ripple);
          if (!fs || fs->schedule.latency != lat) failed.store(true);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  const CacheStats::Counter s = cache.stats().schedule;
  EXPECT_EQ(s.hits + s.misses, kThreads * kRounds * kLats);
  EXPECT_LE(cache.stats().total().resident_bytes, 8u * 1024u);
}

// --- Explorer: validation ----------------------------------------------------

TEST(Explorer, MalformedRequestsComeBackStructured) {
  ExploreRequest req;
  req.spec = motivational();
  req.flows = {"no-such-flow"};
  req.latency_lo = 5;
  req.latency_hi = 2;  // inverted, the shared validate_latency_range path
  req.targets.clear();
  const ExploreResult r = Explorer().run(req);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.points.empty());
  bool saw_registry = false, saw_range = false, saw_axis = false;
  for (const FlowDiagnostic& d : r.diagnostics) {
    if (d.severity != DiagSeverity::Error) continue;
    saw_registry |= d.stage == "registry" &&
                    d.message.find("no-such-flow") != std::string::npos;
    saw_range |= d.stage == "request" &&
                 d.message.find("lo=5") != std::string::npos;
    saw_axis |= d.stage == "request" &&
                d.message.find("targets axis") != std::string::npos;
  }
  EXPECT_TRUE(saw_registry);
  EXPECT_TRUE(saw_range);  // all problems reported at once
  EXPECT_TRUE(saw_axis);
  EXPECT_NE(r.error_text(), "");
  // The serialization still works for failed requests.
  EXPECT_NE(to_json(r).find("\"ok\":false"), std::string::npos);
}

// --- Explorer: frontier properties ------------------------------------------

/// Dominance consistency of one result: frontier flags match the index
/// list, no frontier point is dominated by any evaluated ok point, and
/// every ok non-frontier point is dominated by some frontier point.
void expect_dominance_consistent(const ExploreResult& r) {
  ASSERT_TRUE(r.ok);
  std::set<std::size_t> front(r.frontier.begin(), r.frontier.end());
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    EXPECT_EQ(r.points[i].on_frontier, front.count(i) != 0) << i;
  }
  for (const std::size_t i : r.frontier) {
    ASSERT_TRUE(r.points[i].result.ok);
    for (std::size_t j = 0; j < r.points.size(); ++j) {
      if (!r.points[j].result.ok) continue;
      EXPECT_FALSE(
          dominates(r.points[j].objectives, r.points[i].objectives))
          << "frontier point " << i << " dominated by evaluated point " << j;
    }
  }
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    if (!r.points[i].result.ok || r.points[i].on_frontier) continue;
    bool dominated = false;
    for (const std::size_t j : r.frontier) {
      dominated |= dominates(r.points[j].objectives, r.points[i].objectives);
    }
    EXPECT_TRUE(dominated) << "non-frontier point " << i
                           << " dominated by nobody on the frontier";
  }
}

TEST(Explorer, DominanceConsistentAcrossRegistrySuitesAndSeeds) {
  // The acceptance property, over every registry suite plus extra seeds of
  // the synthetic generators: the frontier is exactly the non-dominated
  // set, and every frontier point's FlowResult is bit-identical to an
  // uncached Session::run of the same request.
  std::vector<std::pair<std::string, Dfg>> specs;
  std::vector<unsigned> lats;
  for (const SuiteEntry& s : registry_suites()) {
    specs.push_back({s.name, s.build()});
    lats.push_back(s.latencies.front());
  }
  for (const std::uint64_t seed : {7ull, 1234ull}) {
    specs.push_back({"mesh3x3-seed" + std::to_string(seed),
                     synthetic_mesh(3, 3, 8, seed)});
    lats.push_back(4);
  }
  const Session session;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    ExploreRequest req;
    req.spec = specs[k].second;
    req.targets = {"paper-ripple", "cla"};
    req.latency_lo = lats[k];
    req.latency_hi = lats[k] + 4;
    const ExploreResult r = Explorer().run(req);
    SCOPED_TRACE(specs[k].first);
    expect_dominance_consistent(r);
    EXPECT_FALSE(r.frontier.empty());
    for (const std::size_t i : r.frontier) {
      const ExplorePoint& p = r.points[i];
      const FlowResult uncached = session.run(
          {req.spec, p.flow, p.latency, 0, req.options, p.scheduler,
           p.target});
      EXPECT_EQ(to_json(p.result), to_json(uncached))
          << p.flow << "/" << p.scheduler << "/" << p.target << "/"
          << p.latency;
    }
  }
}

TEST(Explorer, SchedulerAndFlowAxesJoinTheGrid) {
  ExploreRequest req;
  req.spec = fig3_dfg();
  req.flows = {"optimized", "original"};
  req.schedulers = {"list", "forcedirected"};
  req.latency_lo = 3;
  req.latency_hi = 5;
  req.prune = false;
  const ExploreResult r = Explorer().run(req);
  expect_dominance_consistent(r);
  // original never fragment-schedules, so its grid is still 2 schedulers
  // wide (the axis applies uniformly); all 2*2*3 points evaluated.
  EXPECT_EQ(r.evaluated, 12u);
  std::set<std::string> flows_seen;
  for (const ExplorePoint& p : r.points) flows_seen.insert(p.flow);
  EXPECT_EQ(flows_seen.size(), 2u);
}

TEST(Explorer, PrunedPointsAreReportedNeverSilent) {
  ExploreRequest req;
  req.spec = motivational();
  req.latency_lo = 2;
  req.latency_hi = 16;  // saturated tail: budget stops shrinking
  const ExploreResult pruned_run = Explorer().run(req);
  ASSERT_TRUE(pruned_run.ok);
  EXPECT_FALSE(pruned_run.pruned.empty());
  for (const PrunedPoint& p : pruned_run.pruned) {
    EXPECT_EQ(p.reason, "dominated-bound");
    EXPECT_GT(p.bound.cycle_ns, 0.0);  // the dominated bound is recorded
  }
  req.prune = false;
  const ExploreResult full = Explorer().run(req);
  EXPECT_TRUE(std::none_of(full.pruned.begin(), full.pruned.end(),
                           [](const PrunedPoint& p) {
                             return p.reason == "dominated-bound";
                           }));
  EXPECT_EQ(full.evaluated, 15u);
  EXPECT_EQ(pruned_run.evaluated + pruned_run.pruned.size(), full.evaluated);
  // Pruning is sound on the timing axes: every pruned latency's evaluated
  // counterpart in the full run is timing-dominated by some evaluated
  // point of the pruned run.
  for (const PrunedPoint& p : pruned_run.pruned) {
    bool dominated = false;
    for (const ExplorePoint& q : pruned_run.points) {
      if (!q.result.ok) continue;
      Objectives timing_only = q.objectives;
      timing_only.area_gates = 0;
      dominated |= dominates(timing_only, p.bound);
    }
    EXPECT_TRUE(dominated) << "latency " << p.latency;
  }
}

TEST(Explorer, RescuesPrunesWhoseDominatorFailed) {
  // Bound pruning assumes the dominating candidate delivers its bound; a
  // user-registered scheduler may fail exactly there. The plateau points
  // it pruned must then be rescued and evaluated, not silently lost.
  // ("fussy" stays registered for the rest of this binary — registries
  // have no removal; no test here enumerates scheduler names.)
  SchedulerRegistry::global().add(
      "fussy", [](const TransformResult& t, const SchedulerOptions& o) {
        // Refuses the first latency of every saturated plateau (where the
        // §3.2 bound of the next-larger latency ties on cycle): latency 6
        // for the motivational example's 3-delta budget.
        if (t.latency == 6) throw Error("fussy scheduler rejects latency 6");
        return schedule_transformed(t, o);
      });
  ExploreRequest req;
  req.spec = motivational();
  req.schedulers = {"fussy"};
  req.latency_lo = 2;
  req.latency_hi = 8;
  const ExploreResult r = Explorer().run(req);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.failed, 1u);  // latency 6 failed...
  std::set<unsigned> ok_lats;
  for (const ExplorePoint& p : r.points) {
    if (p.result.ok) ok_lats.insert(p.latency);
  }
  // ...but the 7- and 8-cycle points it had pruned were rescued: every
  // feasible latency of the range is evaluated or soundly dominated by a
  // *successful* point.
  EXPECT_TRUE(ok_lats.count(7));
  expect_dominance_consistent(r);
  for (const PrunedPoint& p : r.pruned) {
    bool covered = false;
    for (const ExplorePoint& q : r.points) {
      if (!q.result.ok) continue;
      Objectives timing_only = q.objectives;
      timing_only.area_gates = 0;
      covered |= dominates(timing_only, p.bound);
    }
    EXPECT_TRUE(covered) << "latency " << p.latency;
  }
}

TEST(Explorer, BudgetCapsEvaluationInCoverageOrder) {
  ExploreRequest req;
  req.spec = fir2();
  req.latency_lo = 2;
  req.latency_hi = 9;
  req.budget = 3;
  req.prune = false;
  const ExploreResult r = Explorer().run(req);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.evaluated, 3u);
  std::size_t budget_pruned = 0;
  for (const PrunedPoint& p : r.pruned) budget_pruned += p.reason == "budget";
  EXPECT_EQ(budget_pruned, 5u);
  // Coverage order samples the range, not just its low end: both endpoints
  // survive any budget >= 2.
  std::set<unsigned> lats;
  for (const ExplorePoint& p : r.points) lats.insert(p.latency);
  EXPECT_TRUE(lats.count(2));
  EXPECT_TRUE(lats.count(9));
}

TEST(Explorer, ObjectiveWeightsPickBest) {
  ExploreRequest req;
  req.spec = motivational();
  req.latency_lo = 2;
  req.latency_hi = 8;
  const ExploreResult by_cycle = Explorer().run(req);  // default: cycle
  ASSERT_TRUE(by_cycle.best.has_value());
  req.weights = {};
  req.weights.cycle_ns = 0;
  req.weights.area = 1;
  const ExploreResult by_area = Explorer().run(req);
  ASSERT_TRUE(by_area.best.has_value());
  const ExplorePoint& cycle_best = by_cycle.points[*by_cycle.best];
  const ExplorePoint& area_best = by_area.points[*by_area.best];
  // Weights only reorder: the frontier itself is weight-free...
  ASSERT_EQ(by_cycle.frontier, by_area.frontier);
  // ...but best follows the objective.
  for (const std::size_t i : by_cycle.frontier) {
    EXPECT_LE(cycle_best.objectives.cycle_ns,
              by_cycle.points[i].objectives.cycle_ns);
    EXPECT_LE(area_best.objectives.area_gates,
              by_area.points[i].objectives.area_gates);
  }
}

// --- serialization -----------------------------------------------------------

TEST(ExploreJson, MatchesCommittedGolden) {
  // The byte-exact --explore --json rendering of the motivational suite
  // (generated by `fraghls --suite motivational --explore --sweep 2..8
  // --targets paper-ripple,cla --workers 1 --json`). Single-worker, so
  // cache counters are deterministic; no timing, so no wall_ms.
  ExploreRequest req;
  req.spec = motivational();
  req.targets = {"paper-ripple", "cla"};
  req.latency_lo = 2;
  req.latency_hi = 8;
  req.workers = 1;
  const std::string json = to_json(Explorer().run(req));
  std::ifstream golden(std::string(FRAGHLS_GOLDEN_DIR) +
                       "/motivational_explore.json");
  ASSERT_TRUE(golden) << "missing golden motivational_explore.json";
  std::stringstream buf;
  buf << golden.rdbuf();
  std::string expected = buf.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(json, expected);
}

TEST(ExploreJson, CarriesSchemaFrontierAndCache) {
  ExploreRequest req;
  req.spec = fir2();
  req.latency_lo = 3;
  req.latency_hi = 6;
  req.workers = 1;
  const ExploreResult r = Explorer().run(req);
  const std::string j = to_json(r);
  EXPECT_NE(j.find("\"schema\":\"fraghls-explore-v1\""), std::string::npos);
  EXPECT_NE(j.find("\"frontier\":["), std::string::npos);
  EXPECT_NE(j.find("\"cache\":{"), std::string::npos);
  EXPECT_NE(j.find("\"hit_rate\":"), std::string::npos);
  EXPECT_EQ(j.find("\"wall_ms\""), std::string::npos);  // timing off
  // Deterministic at one worker.
  EXPECT_EQ(j, to_json(Explorer().run(req)));
  req.options.timing = true;
  EXPECT_NE(to_json(Explorer().run(req)).find("\"wall_ms\""),
            std::string::npos);
}

TEST(ExploreCsv, OneRowPerPoint) {
  ExploreRequest req;
  req.spec = fir2();
  req.latency_lo = 3;
  req.latency_hi = 6;
  const ExploreResult r = Explorer().run(req);
  const std::string csv = to_csv(r);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            r.points.size() + 1);  // header + rows
  EXPECT_EQ(csv.rfind("flow,scheduler,target,latency,ok,", 0), 0u);
}

} // namespace
} // namespace hls
