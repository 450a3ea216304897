// Tests for allocation/binding: interval coloring, op-level allocation for
// conventional/BLC schedules, and the paper's bit-level allocation.

#include <gtest/gtest.h>

#include <random>

#include "alloc/bitlevel.hpp"
#include "alloc/oplevel.hpp"
#include "ir/builder.hpp"
#include "testutil.hpp"
#include "sched/blc.hpp"
#include "sched/conventional.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

TEST(ColorIntervals, DisjointShareOneColor) {
  const std::vector<std::vector<std::pair<unsigned, unsigned>>> busy = {
      {{0, 0}}, {{1, 1}}, {{2, 2}}};
  const auto color = color_intervals(busy);
  EXPECT_EQ(color, (std::vector<unsigned>{0, 0, 0}));
}

TEST(ColorIntervals, OverlapsForceNewColors) {
  const std::vector<std::vector<std::pair<unsigned, unsigned>>> busy = {
      {{0, 2}}, {{1, 1}}, {{2, 3}}, {{4, 4}}};
  const auto color = color_intervals(busy);
  EXPECT_EQ(color[0], 0u);
  EXPECT_EQ(color[1], 1u);  // overlaps 0
  EXPECT_EQ(color[2], 1u);  // overlaps 0, fits after 1
  EXPECT_EQ(color[3], 0u);
}

TEST(ColorIntervals, MultiIntervalItems) {
  // Item occupying cycles {0, 2} conflicts with items in either cycle.
  const std::vector<std::vector<std::pair<unsigned, unsigned>>> busy = {
      {{0, 0}, {2, 2}}, {{2, 2}}, {{1, 1}}};
  const auto color = color_intervals(busy);
  EXPECT_EQ(color[0], 0u);
  EXPECT_EQ(color[1], 1u);
  EXPECT_EQ(color[2], 0u);
}

/// The reference first fit: an item takes the lowest color none of whose
/// placed intervals overlaps any of its own, tested pairwise.
std::vector<unsigned> naive_first_fit(
    const std::vector<std::vector<std::pair<unsigned, unsigned>>>& busy) {
  std::vector<std::vector<std::pair<unsigned, unsigned>>> placed;
  std::vector<unsigned> color;
  for (const auto& item : busy) {
    unsigned k = 0;
    for (; k < placed.size(); ++k) {
      bool conflict = false;
      for (const auto& [a1, a2] : placed[k]) {
        for (const auto& [b1, b2] : item) {
          conflict = conflict || (a1 <= b2 && b1 <= a2);
        }
      }
      if (!conflict) break;
    }
    if (k == placed.size()) placed.emplace_back();
    placed[k].insert(placed[k].end(), item.begin(), item.end());
    color.push_back(k);
  }
  return color;
}

TEST(ColorIntervals, MatchesPairwiseFirstFitAcrossWordBoundaries) {
  // Fixed cases straddling and sitting on the 64-cycle word boundaries.
  const std::vector<std::vector<std::pair<unsigned, unsigned>>> fixed = {
      {{60, 70}}, {{64, 64}}, {{130, 130}}, {{63, 63}}, {{71, 129}},
      {{0, 200}}, {{128, 128}, {64, 64}}, {{65, 127}}};
  EXPECT_EQ(color_intervals(fixed), naive_first_fit(fixed));

  // More than 64 colors stacked on the same cycles, then items that fit
  // around them.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> stacked(
      140, {{7, 9}});
  stacked.push_back({{0, 6}});
  stacked.push_back({{8, 8}});
  stacked.push_back({{10, 200}});
  stacked.push_back({{9, 10}});
  EXPECT_EQ(color_intervals(stacked), naive_first_fit(stacked));

  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    // Odd trials crowd many items into few cycles, so colors pass 64.
    const unsigned max_cycle =
        1 + static_cast<unsigned>(rng() % (trial % 2 ? 8 : 200));
    const std::size_t items = 1 + rng() % 150;
    std::vector<std::vector<std::pair<unsigned, unsigned>>> busy(items);
    for (auto& item : busy) {
      const std::size_t n = rng() % 4;  // items with no interval included
      for (std::size_t j = 0; j < n; ++j) {
        const unsigned first = static_cast<unsigned>(rng() % (max_cycle + 1));
        const unsigned len = static_cast<unsigned>(rng() % 8 == 0 ? rng() % 100
                                                                  : rng() % 4);
        item.push_back({first, std::min(max_cycle, first + len)});
      }
    }
    EXPECT_EQ(color_intervals(busy), naive_first_fit(busy)) << "trial " << trial;
  }
}

TEST(ColorIntervals, RejectsInvertedIntervals) {
  EXPECT_THROW(color_intervals({{{3, 2}}}), Error);
}

TEST(OpLevel, MotivationalSharesOneAdder) {
  // Fig. 1 b): three additions in three cycles -> one 16-bit adder, one
  // 16-bit register (C then E), two 3:1 operand muxes.
  const Dfg d = motivational();
  const OpSchedule s = schedule_conventional(d, 3);
  const Datapath dp = allocate_oplevel(d, s);
  ASSERT_EQ(dp.fus.size(), 1u);
  EXPECT_EQ(dp.fus[0].cls, FuClass::Adder);
  EXPECT_EQ(dp.fus[0].width, 16u);
  ASSERT_EQ(dp.regs.size(), 1u);
  EXPECT_EQ(dp.regs[0].width, 16u);
  ASSERT_EQ(dp.muxes.size(), 2u);
  EXPECT_EQ(dp.muxes[0].inputs, 3u);
  EXPECT_EQ(dp.muxes[1].inputs, 3u);
  EXPECT_EQ(dp.states, 3u);
}

TEST(OpLevel, BlcSingleCycleNeedsThreeAdders) {
  // Fig. 1 d): all three additions chained in one cycle -> three dedicated
  // adders, no registers, no muxes.
  const Dfg d = motivational();
  const OpSchedule s = schedule_blc(d, 1);
  const Datapath dp = allocate_oplevel(d, s);
  EXPECT_EQ(dp.fus.size(), 3u);
  EXPECT_TRUE(dp.regs.empty());
  EXPECT_TRUE(dp.muxes.empty());
}

TEST(OpLevel, MixedKindsGetSeparateFuClasses) {
  const Dfg d = diffeq();
  const OpSchedule s = schedule_conventional(d, 6);
  const Datapath dp = allocate_oplevel(d, s);
  EXPECT_GE(dp.fu_count(FuClass::Multiplier), 1u);
  EXPECT_GE(dp.fu_count(FuClass::Adder), 1u);
  EXPECT_GE(dp.fu_count(FuClass::Subtractor), 1u);
  EXPECT_GE(dp.fu_count(FuClass::Comparator), 1u);
}

TEST(OpLevel, MulticycleOpHoldsItsFu) {
  // One 16-bit add at latency 2 is multicycle: the adder is busy in both
  // cycles but there is only one op, so exactly one FU.
  SpecBuilder b("mc");
  const Val x = b.in("x", 16), y = b.in("y", 16);
  b.out("o", x + y);
  const Dfg d = std::move(b).take();
  const OpSchedule s =
      schedule_conventional(d, 2, ConventionalOptions{.allow_multicycle = true});
  const Datapath dp = allocate_oplevel(d, s);
  EXPECT_EQ(dp.fus.size(), 1u);
}

TEST(BitLevel, MotivationalMatchesTableI) {
  // The paper's optimized implementation: 3 adders of 6 bits, 5 stored bits
  // (C5, E4, and the three fragment carries).
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const Datapath& dp = o.report.datapath;
  ASSERT_EQ(dp.fus.size(), 3u);
  for (const FuInstance& f : dp.fus) {
    EXPECT_EQ(f.cls, FuClass::Adder);
    EXPECT_EQ(f.width, 6u);
  }
  unsigned reg_bits = 0;
  for (const RegInstance& r : dp.regs) reg_bits += r.width;
  EXPECT_EQ(reg_bits, 5u);
  EXPECT_EQ(dp.states, 3u);
}

TEST(BitLevel, FragmentsOfOneOpShareOneAdder) {
  // Dedicated binding: each original addition's fragments use one adder
  // across cycles (paper: "every adder is dedicated to calculate just one
  // addition").
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  for (const FuInstance& f : o.report.datapath.fus) {
    ASSERT_FALSE(f.bound.empty());
    const NodeId orig = f.bound.front().second;
    for (const auto& [cycle, op] : f.bound) EXPECT_EQ(op, orig);
  }
}

TEST(BitLevel, CarryRegistersAreOneBitRuns) {
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  // No register instance may exceed 2 bits (data bit + adjacent carry).
  for (const RegInstance& r : o.report.datapath.regs) {
    EXPECT_LE(r.width, 2u);
  }
}

TEST(BitLevel, WideAddStoresOnlyCarryBetweenCycles) {
  // A single 12-bit addition split over two cycles needs exactly one stored
  // bit: the inter-fragment carry.
  SpecBuilder b("carry");
  const Val x = b.in("x", 12), y = b.in("y", 12);
  b.out("o", x + y);
  const Dfg d = std::move(b).take();
  const FlowResult o = testutil::run_optimized(d, 2);
  EXPECT_EQ(o.report.datapath.total_register_bits(), 1u);
  ASSERT_EQ(o.report.datapath.fus.size(), 1u);
  EXPECT_EQ(o.report.datapath.fus[0].width, 6u);
}

TEST(BitLevel, RegistersSharedAcrossDisjointBoundaries) {
  // Values live across boundary 0 only and boundary 1 only can share.
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  unsigned reg_bits = o.report.datapath.total_register_bits();
  // 5 bits live at each boundary, shared registers keep the total at 5
  // (not 10).
  EXPECT_EQ(reg_bits, 5u);
}

TEST(BitLevel, ControlSignalsCountSelectsAndEnables) {
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const Datapath& dp = o.report.datapath;
  unsigned expected = static_cast<unsigned>(dp.regs.size());
  for (const MuxInstance& m : dp.muxes) {
    expected += m.inputs <= 2 ? 1 : 2;  // log2-ceil for small muxes
  }
  EXPECT_EQ(dp.control_signals, expected);
}

} // namespace
} // namespace hls
