// Tests for the registry-backed hls::Target technology API: builtin
// registry contents, resolution through Session/batch/sweep runs (including
// user-registered targets), the bit-identity of the default "paper-ripple"
// target, the cla/fast-logic differences, and the JSON surfacing of the
// resolved target name.

#include <gtest/gtest.h>

#include "flow/json.hpp"
#include "flow/session.hpp"
#include "suites/suites.hpp"
#include "timing/target.hpp"

namespace hls {
namespace {

FlowResult run(const FlowRequest& req) {
  static const Session session;
  return session.run(req).require();
}

// --- registry ----------------------------------------------------------------

TEST(TargetRegistry, BuiltinTargetsAreRegistered) {
  TargetRegistry& reg = TargetRegistry::global();
  for (const char* name : {"paper-ripple", "cla", "fast-logic"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_EQ(reg.resolve(name).name, name);
    EXPECT_FALSE(reg.resolve(name).description.empty()) << name;
  }
  EXPECT_FALSE(reg.contains("no-such-target"));
  EXPECT_THROW(reg.resolve("no-such-target"), Error);
  EXPECT_TRUE(reg.contains(kDefaultTargetName));
}

TEST(TargetRegistry, NamesAreSortedAndResolveThrows) {
  const std::vector<std::string> names = TargetRegistry::global().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 3u);
  EXPECT_EQ(resolve_target(kDefaultTargetName).name, kDefaultTargetName);
  try {
    resolve_target("typo");
    FAIL() << "resolve_target must throw on unknown names";
  } catch (const Error& e) {
    // Lists the registered names, so typos are self-diagnosing.
    EXPECT_NE(std::string(e.what()).find("paper-ripple"), std::string::npos);
  }
}

TEST(TargetRegistry, RejectsEmptyName) {
  EXPECT_THROW(TargetRegistry::global().register_target(Target{}), Error);
}

TEST(TargetRegistry, BuiltinModels) {
  const Target ripple = resolve_target(kDefaultTargetName);
  EXPECT_EQ(ripple.delay.style, AdderStyle::Ripple);
  EXPECT_DOUBLE_EQ(ripple.delay.delta_ns, 0.5);
  EXPECT_DOUBLE_EQ(ripple.delay.sequential_overhead_ns, 1.4);
  EXPECT_EQ(ripple.gates.adder(16), 162u);  // Table I calibration point

  const Target cla = resolve_target("cla");
  EXPECT_EQ(cla.delay.style, AdderStyle::CarryLookahead);
  EXPECT_LT(cla.delay.adder_depth(16), 16u);
  EXPECT_GT(cla.gates.adder(16), ripple.gates.adder(16));  // prefix network

  const Target fast = resolve_target("fast-logic");
  EXPECT_EQ(fast.delay.style, AdderStyle::Ripple);
  EXPECT_LT(fast.delay.delta_ns, ripple.delay.delta_ns);
}

// --- flow threading ----------------------------------------------------------

TEST(TargetFlows, DefaultTargetIsBitIdenticalToUnspecified) {
  // The hard invariant: naming "paper-ripple" explicitly changes nothing,
  // and the numbers are the paper's Table I row (16/18/6 deltas).
  const Dfg d = motivational();
  for (const char* flow : {"conventional", "blc", "optimized"}) {
    const unsigned lat = std::string(flow) == "blc" ? 1 : 3;
    FlowRequest implicit{d, flow, lat};
    FlowRequest explicit_req{d, flow, lat, 0, {}, "list", kDefaultTargetName};
    EXPECT_EQ(to_json(run(implicit)), to_json(run(explicit_req))) << flow;
  }
  EXPECT_EQ(run({d, "conventional", 3}).report.cycle_deltas, 16u);
  EXPECT_EQ(run({d, "blc", 1}).report.cycle_deltas, 18u);
  EXPECT_EQ(run({d, "optimized", 3}).report.cycle_deltas, 6u);
  EXPECT_EQ(run({d, "optimized", 3}).report.target, kDefaultTargetName);
}

TEST(TargetFlows, ClaTargetChangesEstimateFragmentationAndReport) {
  // The acceptance scenario: the same request under "cla" resolves through
  // the registry and produces a different budget, cycle and fragmentation.
  const Dfg d = motivational();
  const FlowResult ripple = run({d, "optimized", 3});
  const FlowResult cla = run({d, "optimized", 3, 0, {}, "list", "cla"});
  EXPECT_EQ(cla.report.target, "cla");
  EXPECT_EQ(cla.target, "cla");
  // Budget widens within the carry-lookahead depth step: 7 bits chain into
  // a 4-delta cycle where ripple chains 6 bits into 6 deltas.
  EXPECT_EQ(ripple.transform->n_bits, 6u);
  EXPECT_EQ(cla.transform->n_bits, 7u);
  EXPECT_EQ(cla.report.cycle_deltas, 4u);
  EXPECT_LT(cla.report.cycle_ns, ripple.report.cycle_ns);
  // Different fragment widths => different schedules and areas.
  EXPECT_NE(cla.schedule->fu_ops.size(), 0u);
  EXPECT_NE(cla.report.area.total(), ripple.report.area.total());
  // The baseline resolves the same target, so savings stay comparable.
  const FlowResult orig = run({d, "original", 3, 0, {}, "list", "cla"});
  EXPECT_LT(cla.report.cycle_ns, orig.report.cycle_ns);
}

TEST(TargetFlows, FastLogicScalesNsButKeepsSchedules) {
  // A ripple-style target with a smaller delta: identical structural
  // schedule (same deltas, same fragments), shorter nanoseconds.
  const Dfg d = fig3_dfg();
  const FlowResult base = run({d, "optimized", 3});
  const FlowResult fast = run({d, "optimized", 3, 0, {}, "list", "fast-logic"});
  EXPECT_EQ(fast.report.cycle_deltas, base.report.cycle_deltas);
  EXPECT_EQ(fast.transform->n_bits, base.transform->n_bits);
  EXPECT_EQ(fast.schedule->fu_ops.size(), base.schedule->fu_ops.size());
  EXPECT_LT(fast.report.cycle_ns, base.report.cycle_ns);
}

TEST(TargetFlows, EverySuiteStaysFeasibleUnderEveryBuiltinTarget) {
  // Scenario diversity: all registry suites x all builtin targets run to
  // completion and keep the paper's conclusion (fragmentation wins).
  const Session session;
  for (const SuiteEntry& s : all_suites()) {
    const Dfg d = s.build();
    const unsigned lat = s.latencies.front();
    // The builtin names, not names(): sibling tests register extra targets.
    for (const std::string target :
         {"paper-ripple", "cla", "fast-logic"}) {
      const FlowResult orig =
          session.run({d, "original", lat, 0, {}, "list", target}).require();
      const FlowResult opt =
          session.run({d, "optimized", lat, 0, {}, "list", target}).require();
      EXPECT_EQ(opt.report.target, target) << s.name;
      EXPECT_LT(opt.report.cycle_ns, orig.report.cycle_ns)
          << s.name << " under " << target;
    }
  }
}

TEST(TargetFlows, UserRegisteredTargetResolvesInBatchAndSweep) {
  // A custom target registers next to the builtins and is picked up by
  // name in concurrent batch and sweep runs, like user flows/schedulers.
  Target t = resolve_target(kDefaultTargetName);
  t.name = "batch-test-asic";
  t.description = "registered by target_test";
  t.delay.delta_ns = 0.1;
  t.delay.sequential_overhead_ns = 0.3;
  TargetRegistry::global().register_target(t);

  const Session session({.workers = 4});
  const Dfg d = fir2();
  std::vector<FlowRequest> requests;
  for (unsigned lat = 3; lat <= 6; ++lat) {
    requests.push_back({d, "optimized", lat, 0, {}, "list", "batch-test-asic"});
  }
  const std::vector<FlowResult> batch = session.run_batch(requests);
  ASSERT_EQ(batch.size(), 4u);
  for (const FlowResult& r : batch) {
    ASSERT_TRUE(r.ok) << r.error_text();
    EXPECT_EQ(r.report.target, "batch-test-asic");
    // delta 0.1/overhead 0.3: cycle = 0.3 + deltas * 0.1.
    EXPECT_DOUBLE_EQ(r.report.cycle_ns, 0.3 + r.report.cycle_deltas * 0.1);
  }

  const std::vector<FlowResult> sweep = session.run_sweep(
      {d, "optimized"}, 3, 6, {"batch-test-asic"});
  ASSERT_EQ(sweep.size(), 4u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(to_json(sweep[i]), to_json(batch[i])) << i;
  }
}

TEST(TargetFlows, UnknownTargetIsAStructuredError) {
  const Session session;
  const FlowResult r =
      session.run({motivational(), "optimized", 3, 0, {}, "list", "bogus"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.target, "bogus");  // failure echoes the request
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics[0].severity, DiagSeverity::Error);
  EXPECT_EQ(r.diagnostics[0].stage, "registry");
  EXPECT_NE(r.diagnostics[0].message.find("unknown target 'bogus'"),
            std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("fast-logic"), std::string::npos);
}

// --- JSON --------------------------------------------------------------------

TEST(TargetJson, ResolvedTargetRoundTripsThroughJson) {
  // The resolved name appears both on the FlowResult wrapper and inside the
  // report object, and matches the in-memory result exactly.
  const FlowResult r = run({motivational(), "optimized", 3, 0, {}, "list",
                            "cla"});
  const std::string j = to_json(r);
  EXPECT_EQ(r.target, "cla");
  EXPECT_NE(j.find("\"scheduler\":\"list\",\"target\":\"cla\",\"ok\":true"),
            std::string::npos);
  EXPECT_NE(j.find("\"flow\":\"optimized\",\"target\":\"cla\",\"latency\":3"),
            std::string::npos);
  // Serialization stays deterministic under an explicit target.
  EXPECT_EQ(j, to_json(run({motivational(), "optimized", 3, 0, {}, "list",
                            "cla"})));
  // A failed run still carries the echoed target key.
  const FlowResult bad =
      Session().run({motivational(), "optimized", 0, 0, {}, "list", "cla"});
  EXPECT_NE(to_json(bad).find("\"target\":\"cla\",\"ok\":false"),
            std::string::npos);
}

TEST(TargetJson, TargetNoteDocumentsTheResolvedModel) {
  const FlowResult r = run({motivational(), "blc", 1, 0, {}, "list", "cla"});
  bool noted = false;
  for (const FlowDiagnostic& d : r.diagnostics) {
    if (d.stage == "flow" &&
        d.message.find("target 'cla'") != std::string::npos &&
        d.message.find("carry-lookahead") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

} // namespace
} // namespace hls
