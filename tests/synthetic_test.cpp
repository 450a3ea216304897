// Tests for the synthetic stress suite: determinism of the seeded
// generators, kernel-form shape, registry completeness, and end-to-end
// flows over kernels far larger than the paper's circuits.

#include <gtest/gtest.h>

#include <random>

#include "ir/eval.hpp"
#include "ir/print.hpp"
#include "kernel/extract.hpp"
#include "suites/suites.hpp"
#include "testutil.hpp"

namespace hls {
namespace {

TEST(Synthetic, GeneratorsAreDeterministic) {
  // Same parameters -> bit-identical DFGs; a different seed -> a different
  // circuit (goldens and benches rely on reproducibility).
  EXPECT_EQ(to_string(synthetic_chain(16, 12, 7)),
            to_string(synthetic_chain(16, 12, 7)));
  EXPECT_EQ(to_string(synthetic_tree(32, 10, 9)),
            to_string(synthetic_tree(32, 10, 9)));
  EXPECT_EQ(to_string(synthetic_mesh(4, 4, 8, 11)),
            to_string(synthetic_mesh(4, 4, 8, 11)));
  EXPECT_NE(to_string(synthetic_chain(16, 12, 7)),
            to_string(synthetic_chain(16, 12, 8)));
}

TEST(Synthetic, AllShapesAreKernelForm) {
  // Pure unsigned adder DFGs skip kernel extraction entirely.
  EXPECT_TRUE(is_kernel_form(synthetic_chain(32, 14, 1)));
  EXPECT_TRUE(is_kernel_form(synthetic_tree(64, 10, 2)));
  EXPECT_TRUE(is_kernel_form(synthetic_mesh(6, 6, 10, 3)));
  for (const SuiteEntry& s : synthetic_suites()) {
    const Dfg d = s.build();
    EXPECT_NO_THROW(d.verify()) << s.name;
    EXPECT_TRUE(is_kernel_form(d)) << s.name;
  }
}

TEST(Synthetic, StressKernelsDwarfThePaperCircuits) {
  std::size_t max_paper_ops = 0;
  for (const SuiteEntry& s : all_suites()) {
    max_paper_ops = std::max(max_paper_ops, s.build().operations().size());
  }
  std::size_t max_synth_ops = 0;
  for (const SuiteEntry& s : synthetic_suites()) {
    max_synth_ops = std::max(max_synth_ops, s.build().operations().size());
  }
  EXPECT_GE(max_synth_ops, max_paper_ops * 2);
}

TEST(Synthetic, RegistryIncludesEveryFamily) {
  EXPECT_EQ(synthetic_suites().size(), 5u);
  const std::size_t expected = all_suites().size() +
                               extended_suites().size() +
                               synthetic_suites().size();
  EXPECT_EQ(registry_suites().size(), expected);
}

TEST(Synthetic, OptimizedFlowPreservesSemanticsOnStressKernels) {
  // End-to-end: fragmentation + scheduling over the stress kernels computes
  // exactly what the specification means, for both scheduling strategies.
  std::mt19937_64 rng(0x5CA1E);
  for (const SuiteEntry& s : synthetic_suites()) {
    if (s.name == "synth-mesh8x8") continue;  // bench-only size, skip here
    const Dfg d = s.build();
    for (const char* sched : {"list", "forcedirected"}) {
      const FlowResult o =
          testutil::run_optimized(d, s.latencies.front(), {}, 0, sched);
      EXPECT_EQ(o.scheduler, sched) << s.name;
      for (int i = 0; i < 10; ++i) {
        InputValues in;
        for (NodeId id : d.inputs()) in[d.node(id).name] = rng();
        EXPECT_EQ(evaluate(o.transform->spec, in), evaluate(d, in))
            << s.name << " " << sched;
      }
    }
  }
}

TEST(Synthetic, SweepsRunThroughTheSessionPool) {
  const Session session;
  const std::vector<FlowResult> sweep =
      session.run_sweep({synthetic_chain(24, 12, 42), "optimized"}, 3, 8);
  ASSERT_EQ(sweep.size(), 6u);
  for (const FlowResult& r : sweep) {
    EXPECT_TRUE(r.ok) << r.error_text();
    EXPECT_EQ(r.scheduler, "list");
  }
}

} // namespace
} // namespace hls
