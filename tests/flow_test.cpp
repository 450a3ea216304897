// End-to-end flow tests: the paper's headline comparisons and full-pipeline
// functional equivalence across every benchmark suite.

#include <gtest/gtest.h>

#include <random>

#include "flow/json.hpp"
#include "flow/session.hpp"
#include "ir/eval.hpp"
#include "sched/core.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

/// Routes every request of this file through one shared Session, failing
/// loudly (throw via require) on any flow error.
FlowResult run(const FlowRequest& req) {
  static const Session session;
  return session.run(req).require();
}

TEST(Flows, TableIShape) {
  // Table I: conventional (lat 3), BLC (lat 1), optimized (lat 3).
  const Dfg d = motivational();
  const ImplementationReport orig = run({d, "conventional", 3}).report;
  const ImplementationReport blc = run({d, "blc", 1}).report;
  const FlowResult opt = run({d, "optimized", 3});

  // Cycle lengths in deltas: 16 / 18 / 6.
  EXPECT_EQ(orig.cycle_deltas, 16u);
  EXPECT_EQ(blc.cycle_deltas, 18u);
  EXPECT_EQ(opt.report.cycle_deltas, 6u);

  // Execution time: optimized close to BLC, far below the original.
  EXPECT_LT(blc.execution_ns, orig.execution_ns / 2);
  EXPECT_LT(opt.report.execution_ns, orig.execution_ns / 2);
  EXPECT_LT(opt.report.execution_ns, blc.execution_ns * 1.5);

  // Area: BLC pays the most FU area; optimized stays near the original.
  EXPECT_GT(blc.area.fu_gates, orig.area.fu_gates * 2);
  EXPECT_LT(opt.report.area.fu_gates, blc.area.fu_gates / 2);
  EXPECT_LT(std::abs(opt.report.area_delta_vs(orig)), 0.15);
}

TEST(Flows, Fig3HeadlineNumbers) {
  // Fig. 3 h): 62 % cycle reduction at the same latency.
  const Dfg d = fig3_dfg();
  const ImplementationReport orig = run({d, "conventional", 3}).report;
  const FlowResult opt = run({d, "optimized", 3});
  EXPECT_EQ(opt.report.cycle_deltas, 3u);
  const double saved = opt.report.cycle_saving_vs(orig);
  EXPECT_GT(saved, 0.35);  // paper: 62 % on their ns scale
  EXPECT_LT(opt.report.area_delta_vs(orig), 0.25);
}

TEST(Flows, ReportFieldsAreConsistent) {
  const ImplementationReport r = run({diffeq(), "conventional", 6}).report;
  EXPECT_EQ(r.flow, "original");
  EXPECT_DOUBLE_EQ(r.execution_ns, r.latency * r.cycle_ns);
  EXPECT_EQ(r.area.total(), r.area.fu_gates + r.area.reg_gates +
                                r.area.mux_gates + r.area.controller_gates);
  EXPECT_EQ(r.op_count, diffeq().operations().size());
}

TEST(Flows, CurvesDivergeWithLatency) {
  // The Fig. 4 phenomenon: once the conventional cycle bottoms out at the
  // slowest atomic operation (diffeq: the 16x16 multiplier), the optimized
  // cycle keeps shrinking with the latency, so the curves diverge.
  const Dfg d = diffeq();
  auto cycles_at = [&d](unsigned lat) {
    const ImplementationReport orig = run({d, "conventional", lat}).report;
    const FlowResult opt = run({d, "optimized", lat});
    return std::make_pair(orig.cycle_ns, opt.report.cycle_ns);
  };
  const auto [o5, p5] = cycles_at(5);
  const auto [o10, p10] = cycles_at(10);
  const auto [o15, p15] = cycles_at(15);
  EXPECT_DOUBLE_EQ(o10, o15);          // baseline is flat (multiplier-bound)
  EXPECT_LT(p15, p10);                 // optimized keeps improving
  EXPECT_GT(o15 - p15, o5 - p5);       // the gap widens
}

TEST(Flows, OptimizedNeverMissesLatency) {
  for (const SuiteEntry& s : all_suites()) {
    const Dfg d = s.build();
    for (unsigned lat : s.latencies) {
      const FlowResult o = run({d, "optimized", lat});
      EXPECT_EQ(o.report.latency, lat) << s.name;
      EXPECT_EQ(o.schedule->schedule.latency, lat) << s.name;
    }
  }
}

TEST(Flows, CycleSavingsInPaperBandAcrossSuites) {
  // Table II/III report 30-85 % savings; require every suite/latency to
  // show a strictly positive saving and the average to be substantial.
  double total = 0;
  unsigned n = 0;
  for (const SuiteEntry& s : all_suites()) {
    const Dfg d = s.build();
    for (unsigned lat : s.latencies) {
      const ImplementationReport orig = run({d, "conventional", lat}).report;
      const FlowResult opt = run({d, "optimized", lat});
      const double saved = opt.report.cycle_saving_vs(orig);
      EXPECT_GT(saved, 0.0) << s.name << " lat " << lat;
      total += saved;
      n++;
    }
  }
  EXPECT_GT(total / n, 0.40);  // paper: ~60-67 % average
}

TEST(Flows, FullPipelineEquivalenceOnAllSuites) {
  // The strongest property in the repo: for every suite and every paper
  // latency, the transformed specification evaluates identically to the
  // original on random inputs.
  std::mt19937_64 rng(20260612);
  for (const SuiteEntry& s : all_suites()) {
    const Dfg original = s.build();
    for (unsigned lat : s.latencies) {
      const FlowResult o = run({original, "optimized", lat});
      for (int trial = 0; trial < 40; ++trial) {
        InputValues in;
        for (NodeId id : original.inputs()) {
          in[original.node(id).name] = rng();
        }
        EXPECT_EQ(evaluate(original, in), evaluate(o.transform->spec, in))
            << s.name << " lat " << lat << " trial " << trial;
      }
    }
  }
}

TEST(Flows, KernelStatsReportRewrites) {
  const FlowResult o = run({diffeq(), "optimized", 6});
  EXPECT_EQ(o.kernel_stats->rewritten_muls, 5u);
  EXPECT_EQ(o.kernel_stats->rewritten_subs, 2u);
  EXPECT_EQ(o.kernel_stats->rewritten_compares, 1u);
  EXPECT_EQ(o.kernel_stats->ops_before, 10u);
}

TEST(Flows, SchedulerIsSurfacedInResultAndJson) {
  // The resolved strategy is a first-class part of the result: a field on
  // FlowResult, a note diagnostic, and a JSON key.
  const FlowResult r = run({motivational(), "optimized", 3});
  EXPECT_EQ(r.scheduler, "list");
  EXPECT_NE(to_json(r).find("\"scheduler\":\"list\""), std::string::npos);
  bool noted = false;
  for (const FlowDiagnostic& d : r.diagnostics) {
    if (d.stage == "schedule" &&
        d.message.find("scheduler 'list'") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
  // Flows that never fragment-schedule leave the field empty (and JSON
  // omits it).
  const FlowResult blc = run({motivational(), "blc", 1});
  EXPECT_TRUE(blc.scheduler.empty());
  EXPECT_EQ(to_json(blc).find("\"scheduler\""), std::string::npos);
}

TEST(Flows, UnknownSchedulerIsAStructuredError) {
  // Since the request-validation consolidation, unknown schedulers are
  // rejected by the same pre-flight path as unknown flows and targets:
  // stage "registry", with the registered names listed.
  const Session session;
  const FlowResult r =
      session.run({motivational(), "optimized", 3, 0, {}, "annealing"});
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.diagnostics.empty());
  const FlowDiagnostic& d = r.diagnostics.back();
  EXPECT_EQ(d.severity, DiagSeverity::Error);
  EXPECT_EQ(d.stage, "registry");
  EXPECT_NE(d.message.find("unknown scheduler 'annealing'"), std::string::npos);
  EXPECT_NE(d.message.find("forcedirected"), std::string::npos);  // lists names
}

TEST(Flows, ValidateRequestReportsEveryProblemAtOnce) {
  // One malformed request, four problems, one code path: unknown flow,
  // zero latency, unknown scheduler, unknown target.
  FlowRequest req{motivational(), "no-such-flow", 0, 0, {}, "no-such-sched",
                  "no-such-target"};
  const std::vector<FlowDiagnostic> problems =
      validate_request(req, FlowRegistry::global());
  ASSERT_EQ(problems.size(), 4u);
  for (const FlowDiagnostic& d : problems) {
    EXPECT_EQ(d.severity, DiagSeverity::Error);
  }
  EXPECT_EQ(problems[0].stage, "registry");  // flow
  EXPECT_EQ(problems[1].stage, "request");   // latency
  EXPECT_EQ(problems[2].stage, "registry");  // scheduler
  EXPECT_EQ(problems[3].stage, "registry");  // target
  EXPECT_NE(problems[3].message.find("unknown target 'no-such-target'"),
            std::string::npos);
  EXPECT_NE(problems[3].message.find(kDefaultTargetName), std::string::npos);
  // A well-formed request validates clean.
  EXPECT_TRUE(
      validate_request({motivational(), "optimized", 3}, FlowRegistry::global())
          .empty());
  // Session::run surfaces all of them on one result.
  const FlowResult r = Session().run(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.diagnostics.size(), 4u);
}

TEST(Flows, InfeasibleBudgetFailsViaDiagnosticsNotThrow) {
  // n_bits override 5 cannot hold the motivational kernel at latency 3 (the
  // old shims threw here); Session reports it as Error diagnostics.
  const Session session;
  const FlowResult r = session.run({motivational(), "optimized", 3, 5});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error_text().empty());
  EXPECT_THROW(r.require(), Error);
}

TEST(Flows, BlcFlowAcceptsOriginalSpecs) {
  // BLC extracts the kernel internally when needed.
  const ImplementationReport r = run({fir2(), "blc", 3}).report;
  EXPECT_EQ(r.flow, "blc");
  EXPECT_GT(r.cycle_deltas, 0u);
}

TEST(Flows, NBitsOverrideControlsBudget) {
  const Dfg d = motivational();
  const FlowResult tight = run({d, "optimized", 3});
  const FlowResult loose = run({d, "optimized", 3, 18});
  EXPECT_EQ(tight.report.cycle_deltas, 6u);
  EXPECT_EQ(loose.report.cycle_deltas, 18u);
  EXPECT_GT(loose.report.cycle_ns, tight.report.cycle_ns);
}

TEST(Flows, NarrowOptionPreservesSemanticsAndNeverGrowsArea) {
  std::mt19937_64 rng(0x99);
  for (const SuiteEntry& s : adpcm_suites()) {
    const Dfg d = s.build();
    const unsigned lat = s.latencies.front();
    FlowOptions narrow_opt;
    narrow_opt.narrow = true;
    const FlowResult plain = run({d, "optimized", lat});
    const FlowResult thin = run({d, "optimized", lat, 0, narrow_opt});
    EXPECT_LE(thin.report.area.total(), plain.report.area.total() * 11 / 10)
        << s.name;
    for (int i = 0; i < 20; ++i) {
      InputValues in;
      for (NodeId id : d.inputs()) in[d.node(id).name] = rng();
      EXPECT_EQ(evaluate(thin.transform->spec, in), evaluate(d, in)) << s.name;
    }
  }
}

TEST(Flows, ForceDirectedSchedulerViaRequestKnob) {
  const FlowResult o = run({fig3_dfg(), "optimized", 3, 0, {}, "forcedirected"});
  EXPECT_EQ(o.scheduler, "forcedirected");
  EXPECT_EQ(o.report.cycle_deltas, 3u);
  EXPECT_EQ(o.schedule->schedule.latency, 3u);
}

TEST(Flows, UserRegisteredSchedulerIsResolvedByName) {
  // A custom strategy registers next to the builtins and is picked up by
  // name, exactly like user flows in the FlowRegistry.
  SchedulerRegistry::global().add(
      "asap-test", [](const TransformResult& t, const SchedulerOptions&) {
        SchedulerCore core(t);
        for (std::size_t done = 0; done < core.size(); ++done) {
          for (std::size_t k = 0; k < core.size(); ++k) {
            if (core.placed(k)) continue;
            if (core.try_place(k, t.adds[k].asap)) break;
          }
        }
        return core.finish();
      });
  const FlowResult o = run({motivational(), "optimized", 3, 0, {}, "asap-test"});
  EXPECT_EQ(o.scheduler, "asap-test");
  EXPECT_EQ(o.report.latency, 3u);
  EXPECT_TRUE(SchedulerRegistry::global().contains("asap-test"));
}

TEST(Suites, OperationProfiles) {
  // The classical benchmarks carry their canonical operation mixes.
  EXPECT_EQ(diffeq().operations().size(), 10u);   // 5 mul, 2 sub, 2 add, 1 cmp
  EXPECT_EQ(fir2().operations().size(), 5u);      // 3 mul, 2 add
  EXPECT_EQ(iir4().operations().size(), 18u);     // 10 mul, 8 add/sub
  const Dfg e = elliptic();
  unsigned muls = 0, adds = 0;
  for (const Node& n : e.nodes()) {
    if (n.kind == OpKind::Mul) muls++;
    if (n.kind == OpKind::Add || n.kind == OpKind::Sub) adds++;
  }
  EXPECT_EQ(muls, 8u);   // the EWF's 8 constant multiplications
  EXPECT_GE(adds, 24u);  // ~26 additive operations
}

TEST(Suites, DiffeqComputesTheRecurrence) {
  // One HAL iteration with small values, against hand-computed results.
  const Dfg d = diffeq();
  const InputValues in{{"x", 2}, {"y", 1}, {"u", 3}, {"dx", 1}, {"a", 10}};
  const OutputValues out = evaluate(d, in);
  EXPECT_EQ(out.at("x1"), 3u);                  // x + dx
  EXPECT_EQ(out.at("y1"), 4u);                  // y + u*dx
  // u1 = u - 3*x*u*dx - 3*y*dx = 3 - 18 - 3 = -18 (mod 2^16)
  EXPECT_EQ(out.at("u1"), truncate(static_cast<std::uint64_t>(-18), 16));
  EXPECT_EQ(out.at("c"), 1u);                   // 3 < 10
}

TEST(Suites, AdpcmIaqAppliesSign) {
  const Dfg d = adpcm_iaq();
  // I with sign bit clear vs set: DQ flips sign.
  const InputValues base{{"I", 0x3}, {"WI", 100}, {"Y", 40}};
  InputValues neg = base;
  neg["I"] = 0xB;  // same magnitude, sign bit set
  const std::uint64_t dq_pos = evaluate(d, base).at("DQ");
  const std::uint64_t dq_neg = evaluate(d, neg).at("DQ");
  EXPECT_EQ(truncate(dq_pos + dq_neg, 12), 0u);  // dq_neg == -dq_pos
}

TEST(Suites, RegistryIsComplete) {
  EXPECT_EQ(classical_suites().size(), 4u);
  EXPECT_EQ(adpcm_suites().size(), 3u);
  EXPECT_EQ(all_suites().size(), 9u);
  for (const SuiteEntry& s : all_suites()) {
    EXPECT_FALSE(s.latencies.empty()) << s.name;
    EXPECT_NO_THROW(s.build().verify()) << s.name;
  }
}

} // namespace
} // namespace hls
