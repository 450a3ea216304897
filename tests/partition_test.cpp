// Tests for the multi-kernel partition subsystem (src/partition/):
// legality of the kernel split across every registry suite, bit-identity of
// the partitioned flow with the optimized flow on single-kernel specs
// (shared cache entries included), per-kernel cache isolation (editing one
// kernel re-runs only it), the aggregated all-kernels-at-once infeasibility
// diagnostic, functional equivalence of the composed datapath, and the
// committed JSON golden of a multi-kernel run.

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <random>
#include <sstream>

#include "testutil.hpp"
#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "flow/json.hpp"
#include "ir/builder.hpp"
#include "ir/eval.hpp"
#include "kernel/extract.hpp"
#include "partition/composite.hpp"
#include "rtl/cycle_sim.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

Dfg kernel_form_of(const Dfg& spec) {
  return is_kernel_form(spec) ? spec : extract_kernel(spec);
}

InputValues random_inputs(const Dfg& spec, std::mt19937_64& rng) {
  InputValues in;
  for (NodeId id : spec.inputs()) in[spec.node(id).name] = rng();
  return in;
}

/// Two adder chains joined by glue, with a seeded tail so "editing kernel B"
/// is one parameter away. Kernel 0 is byte-identical for every `tail_adds`,
/// which is what the cache-isolation test relies on.
Dfg two_kernel_spec(unsigned tail_adds) {
  SpecBuilder b("edit_shared");
  Val acc = b.in("a0", 8);
  for (unsigned i = 1; i <= 3; ++i) {
    acc = b.add(acc, b.in("a" + std::to_string(i), 8), 8);
  }
  const Val glue = acc ^ b.cst(0x5A, 8);
  Val tail = b.add(glue, b.in("b0", 8), 8);
  for (unsigned i = 1; i <= tail_adds; ++i) {
    tail = b.add(tail, b.in("b" + std::to_string(i), 8), 8);
  }
  b.out("y", tail);
  return std::move(b).take();
}

TEST(Partition, LegalAcrossRegistrySuites) {
  for (const SuiteEntry& s : registry_suites()) {
    const Dfg kernel = kernel_form_of(s.build());
    const KernelPartition p = partition_kernel(kernel);
    ASSERT_GE(p.kernels.size(), 1u) << s.name;
    EXPECT_NO_THROW(verify_partition(p, kernel)) << s.name;
    // The kernel graph is a renumbered DAG: every cut edge goes forward.
    for (const KernelPartition::CutEdge& e : p.cut_edges) {
      EXPECT_LT(e.from, e.to) << s.name;
    }
  }
}

TEST(Partition, SingleComponentIsVerbatim) {
  const Dfg chain = synthetic_chain(16, 8, 1);
  const KernelPartition p = partition_kernel(chain);
  ASSERT_TRUE(p.single());
  EXPECT_TRUE(p.cut_edges.empty());
  // Verbatim graph => same content digest => shared cache entries with the
  // optimized flow.
  EXPECT_EQ(digest_of(p.kernels[0].spec).a, digest_of(chain).a);
  EXPECT_EQ(digest_of(p.kernels[0].spec).b, digest_of(chain).b);
}

TEST(Partition, MultiKernelGeneratorSplits) {
  const Dfg two = synthetic_multi_kernel(2, 10, 10, 0x2BAD);
  const KernelPartition p2 = partition_kernel(two);
  EXPECT_EQ(p2.kernels.size(), 2u);
  verify_partition(p2, two);

  // Stage 0 feeds both stage 1 and stage 2 (the skip edge), so the kernel
  // graph is a DAG rather than a chain, and the spec has two outputs.
  const Dfg three = synthetic_multi_kernel(3, 6, 8, 0xFEED);
  const KernelPartition p3 = partition_kernel(three);
  EXPECT_EQ(p3.kernels.size(), 3u);
  verify_partition(p3, three);
  EXPECT_GE(p3.edges().size(), 3u);
}

TEST(Partition, SingleKernelFlowBitIdenticalToOptimized) {
  // On single-kernel specs the partitioned flow must produce the optimized
  // flow's exact schedule and report (only the flow label differs), cached
  // and uncached alike. Suites whose kernel splits into several components
  // are covered by the composition tests instead.
  std::size_t covered = 0;
  for (const bool cached : {false, true}) {
    const auto cache =
        cached ? std::make_shared<ArtifactCache>() : nullptr;
    const Session session;
    for (const SuiteEntry& s : all_suites()) {
      const Dfg spec = s.build();
      if (!partition_kernel(kernel_form_of(spec)).single()) continue;
      ++covered;
      for (unsigned lat : s.latencies) {
        FlowRequest a{spec, "optimized", lat};
        FlowRequest b{spec, "partitioned", lat};
        a.cache = cache;
        b.cache = cache;
        const FlowResult ra = session.run(a).require();
        const FlowResult rb = session.run(b).require();
        ASSERT_TRUE(rb.partition) << s.name;
        EXPECT_TRUE(rb.partition->kernels.size() == 1) << s.name;
        EXPECT_EQ(ra.report.latency, rb.report.latency);
        EXPECT_EQ(ra.report.cycle_deltas, rb.report.cycle_deltas);
        EXPECT_EQ(ra.report.cycle_ns, rb.report.cycle_ns);
        EXPECT_EQ(ra.report.execution_ns, rb.report.execution_ns);
        EXPECT_EQ(ra.report.area.total(), rb.report.area.total());
        EXPECT_EQ(ra.report.op_count, rb.report.op_count);
        ASSERT_TRUE(ra.schedule && rb.schedule);
        EXPECT_EQ(ra.schedule->schedule.rows, rb.schedule->schedule.rows)
            << s.name << " lat " << lat << " cached=" << cached;
        EXPECT_EQ(ra.transform->n_bits, rb.transform->n_bits);
      }
    }
  }
  EXPECT_GE(covered, 2u);  // the registry must keep single-kernel specs
}

TEST(Partition, SharedCacheServesBothFlows) {
  // Single-kernel specs key per-spec stages identically in both flows: the
  // partitioned run after an optimized run misses only the partition stage.
  const auto cache = std::make_shared<ArtifactCache>();
  const Session session;
  const Dfg spec = synthetic_chain(24, 10, 7);
  FlowRequest a{spec, "optimized", 5};
  a.cache = cache;
  session.run(a).require();
  const CacheStats before = cache->stats();
  FlowRequest b{spec, "partitioned", 5};
  b.cache = cache;
  session.run(b).require();
  const CacheStats after = cache->stats();
  EXPECT_EQ(after.transform.misses, before.transform.misses);
  EXPECT_EQ(after.schedule.misses, before.schedule.misses);
  EXPECT_EQ(after.datapath.misses, before.datapath.misses);
  EXPECT_GT(after.schedule.hits, before.schedule.hits);
  EXPECT_EQ(after.partition.misses, before.partition.misses + 1);
}

TEST(Partition, EditingOneKernelRerunsOnlyIt) {
  // Two parents share kernel 0 byte-for-byte and differ only in kernel 1.
  // Because per-kernel stages are keyed on each sub-kernel's own digest,
  // the second run hits every kernel-0 artefact and re-runs only kernel 1.
  const auto cache = std::make_shared<ArtifactCache>();
  const Session session;
  FlowRequest first{two_kernel_spec(2), "partitioned", 6};
  first.cache = cache;
  const FlowResult r1 = session.run(first).require();
  ASSERT_TRUE(r1.partition);
  ASSERT_EQ(r1.partition->kernels.size(), 2u);
  const CacheStats before = cache->stats();
  FlowRequest second{two_kernel_spec(3), "partitioned", 6};
  second.cache = cache;
  const FlowResult r2 = session.run(second).require();
  ASSERT_EQ(r2.partition->kernels.size(), 2u);
  const CacheStats after = cache->stats();
  // One new parent => one partition/kernel miss; exactly ONE kernel's
  // transform/schedule/datapath column re-ran (kernel B), kernel A hit.
  EXPECT_EQ(after.transform.misses, before.transform.misses + 1);
  EXPECT_EQ(after.schedule.misses, before.schedule.misses + 1);
  EXPECT_EQ(after.datapath.misses, before.datapath.misses + 1);
  EXPECT_GE(after.transform.hits, before.transform.hits + 1);
  EXPECT_GE(after.schedule.hits, before.schedule.hits + 1);
  EXPECT_GE(after.datapath.hits, before.datapath.hits + 1);
}

TEST(Partition, ReportsAllInfeasibleKernelsAtOnce) {
  // A 3-stage spec at latency 2: every kernel's proportional share floors
  // to zero, and the one aggregated "partition" diagnostic names them all.
  const Dfg spec = synthetic_multi_kernel(3, 8, 8, 0xABCD);
  const Session session;
  const FlowResult r = session.run({spec, "partitioned", 2});
  ASSERT_FALSE(r.ok);
  std::size_t errors = 0;
  std::string message;
  for (const FlowDiagnostic& d : r.diagnostics) {
    if (d.severity != DiagSeverity::Error) continue;
    ++errors;
    EXPECT_EQ(d.stage, "partition");
    message = d.message;
  }
  EXPECT_EQ(errors, 1u);
  EXPECT_NE(message.find("synth_multikernel.k0"), std::string::npos);
  EXPECT_NE(message.find("synth_multikernel.k1"), std::string::npos);
  EXPECT_NE(message.find("synth_multikernel.k2"), std::string::npos);
}

TEST(Partition, ComposedSimulationMatchesEvaluatorAcrossSuites) {
  // Functional equivalence of what the partitioned flow itself returns: for
  // every registry suite, both builtin strategies, cached and uncached, the
  // result's composition (per-kernel datapaths chained through the boundary
  // map) — or, for a single-kernel result, its one datapath — computes
  // exactly what the specification means. Suite latencies can be
  // infeasible for the split (a composed path needs >= 1 cycle per kernel
  // on it), so retry upward.
  std::mt19937_64 rng(0x9E37);
  const Session session;
  std::size_t multi_kernel = 0;
  for (const SuiteEntry& s : registry_suites()) {
    const Dfg spec = s.build();
    for (const char* scheduler : {"list", "forcedirected"}) {
      for (const bool cached : {false, true}) {
        FlowRequest req;
        req.spec = spec;
        req.flow = "partitioned";
        req.scheduler = scheduler;
        if (cached) req.cache = std::make_shared<ArtifactCache>();
        FlowResult r;
        for (req.latency = s.latencies.front();; ++req.latency) {
          ASSERT_LE(req.latency, s.latencies.front() + 32u) << s.name;
          r = session.run(req);
          if (r.ok) break;  // else an infeasible split at this latency
        }
        ASSERT_TRUE(r.partition) << s.name;
        const bool multi = r.partition->kernels.size() > 1;
        ASSERT_EQ(multi, r.composite != nullptr) << s.name;
        ASSERT_EQ(multi, !r.transform && !r.schedule) << s.name;
        if (multi) ++multi_kernel;
        std::optional<Netlist> nl;
        if (!multi) {
          nl = lower_rtl(*r.transform, *r.schedule, r.report.datapath);
        }
        for (int trial = 0; trial < 10; ++trial) {
          const InputValues in = random_inputs(spec, rng);
          const OutputValues got =
              multi ? simulate_composite(*r.composite, in)
                    : simulate_netlist(*nl, r.transform->spec, in);
          EXPECT_EQ(got, evaluate(spec, in))
              << s.name << " lat " << req.latency << " " << scheduler
              << " cached=" << cached;
        }
      }
    }
  }
  EXPECT_GE(multi_kernel, 4u);  // the registry must keep multi-kernel specs
}

TEST(Partition, ComposedReportSumsAreaAndStaggersKernels) {
  const Dfg spec = synthetic_multi_kernel(2, 10, 10, 0x2BAD);
  for (const bool cached : {false, true}) {
    FlowRequest req{spec, "partitioned", 4};
    if (cached) req.cache = std::make_shared<ArtifactCache>();
    const FlowResult r = testutil::run_flow(req);
    ASSERT_TRUE(r.partition);
    ASSERT_EQ(r.partition->kernels.size(), 2u);
    // Kernel 1 starts after kernel 0's slice; the composed critical path is
    // what the report prices as latency.
    EXPECT_EQ(r.partition->kernels[0].start_cycle, 0u);
    EXPECT_EQ(r.partition->kernels[1].start_cycle,
              r.partition->kernels[0].latency);
    EXPECT_EQ(r.partition->composed_latency, r.report.latency);
    EXPECT_LE(r.report.latency, 4u);
    // Merged datapath spans the composed schedule.
    EXPECT_EQ(r.report.datapath.states, r.partition->composed_latency);
    // Area equals the sum over the flow's own per-kernel datapaths, each
    // priced with its own controller.
    ASSERT_TRUE(r.composite);
    ASSERT_EQ(r.composite->runs.size(), 2u);
    const GateModel gates = resolve_target(r.target).gates;
    unsigned area = 0;
    for (const KernelRun& run : r.composite->runs) {
      area += area_of(*run.datapath, gates).total();
    }
    EXPECT_EQ(r.report.area.total(), area) << "cached=" << cached;
  }
}

TEST(Partition, ExplorerPricesPartitionedAxis) {
  ExploreRequest req;
  req.spec = synthetic_multi_kernel(2, 10, 10, 0x2BAD);
  req.flows = {"optimized", "partitioned"};
  req.latency_lo = 4;
  req.latency_hi = 10;
  req.workers = 1;
  const ExploreResult er = Explorer().run(req);
  ASSERT_TRUE(er.ok) << er.error_text();
  EXPECT_EQ(er.failed, 0u);
  // The partitioned series is priced exactly (price_partition is the one
  // source of truth), so §3.2 pruning applies to it: every evaluated
  // partitioned point's report must equal its plan-time bound.
  bool saw_partitioned = false;
  for (const ExplorePoint& p : er.points) {
    if (p.flow != "partitioned") continue;
    saw_partitioned = true;
    EXPECT_EQ(p.objectives.cycle_ns, p.result.report.cycle_ns);
  }
  EXPECT_TRUE(saw_partitioned);
}

TEST(Partition, GoldenMultiKernelJson) {
  // Byte-golden of the synth-2kernel partitioned FlowResult (no timing, so
  // the rendering is byte-stable). Guards the composed report, the
  // partition summary serialization and the diagnostics wording at once.
  const FlowResult r =
      testutil::run_flow({synthetic_multi_kernel(2, 10, 10, 0x2BAD),
                          "partitioned", 4});
  const std::string json = to_json(r);
  std::ifstream golden(std::string(FRAGHLS_GOLDEN_DIR) +
                       "/synth2kernel_partition.json");
  ASSERT_TRUE(golden) << "missing golden synth2kernel_partition.json";
  std::stringstream buf;
  buf << golden.rdbuf();
  std::string expected = buf.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(json, expected);
}

} // namespace
} // namespace hls
