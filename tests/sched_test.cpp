// Tests for the scheduling layer: bit-slot simulator, schedule validation,
// conventional baseline, BLC baseline, and the fragment-aware scheduler.

#include <gtest/gtest.h>

#include <tuple>

#include "flow/session.hpp"
#include "frag/transform.hpp"
#include "ir/builder.hpp"
#include "kernel/extract.hpp"
#include "sched/bitsim.hpp"
#include "sched/blc.hpp"
#include "sched/conventional.hpp"
#include "sched/core.hpp"
#include "sched/fragsched.hpp"
#include "sched/schedule.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

Dfg motivational() {
  SpecBuilder b("example");
  const Val A = b.in("A", 16), B = b.in("B", 16);
  const Val D = b.in("D", 16), F = b.in("F", 16);
  b.out("G", A + B + D + F);
  return std::move(b).take();
}
constexpr NodeId kC{4}, kE{5}, kG{6};

Dfg fig3() {
  SpecBuilder b("fig3");
  const Val i1 = b.in("i1", 6), i2 = b.in("i2", 6), i3 = b.in("i3", 6);
  const Val i4 = b.in("i4", 6), i5 = b.in("i5", 5), i6 = b.in("i6", 5);
  const Val i7 = b.in("i7", 8), i8 = b.in("i8", 8), i9 = b.in("i9", 8);
  const Val A = b.add(i5, i6, 5);
  const Val B = b.add(i1, i2, 6);
  const Val C = b.add(B, i3, 6);
  const Val E = b.add(C, i4, 6);
  const Val D = b.add(i1, i4, 6);
  const Val F = b.add(i7, i8, 8);
  const Val G = b.add(i8, i9, 8);
  const Val H = b.add(F, G, 8);
  b.out("oA", A);
  b.out("oD", D);
  b.out("oE", E);
  b.out("oH", H);
  return std::move(b).take();
}

// ---------------------------------------------------------------- bitsim --

TEST(BitSim, SameCycleChainingSlots) {
  const Dfg d = motivational();
  BitCycles assign = make_unassigned(d);
  for (NodeId op : {kC, kE, kG}) {
    for (unsigned b = 0; b < 16; ++b) assign[op.index][b] = 0;
  }
  const BitSim sim = simulate_bit_schedule(d, assign);
  EXPECT_EQ(sim.at(kC, 0), (BitAvail{0, 1}));
  EXPECT_EQ(sim.at(kE, 0), (BitAvail{0, 2}));
  EXPECT_EQ(sim.at(kG, 15), (BitAvail{0, 18}));
  EXPECT_EQ(sim.max_slot, 18u);
}

TEST(BitSim, RegisteredValuesRestartAtSlotZero) {
  const Dfg d = motivational();
  BitCycles assign = make_unassigned(d);
  for (unsigned b = 0; b < 16; ++b) {
    assign[kC.index][b] = 0;
    assign[kE.index][b] = 1;
    assign[kG.index][b] = 2;
  }
  const BitSim sim = simulate_bit_schedule(d, assign);
  // E reads registered C: its ripple starts fresh.
  EXPECT_EQ(sim.at(kE, 0), (BitAvail{1, 1}));
  EXPECT_EQ(sim.max_slot, 16u);
}

TEST(BitSim, RejectsBackwardsPrecedence) {
  const Dfg d = motivational();
  BitCycles assign = make_unassigned(d);
  for (unsigned b = 0; b < 16; ++b) {
    assign[kC.index][b] = 2;  // C later than its consumer E
    assign[kE.index][b] = 1;
    assign[kG.index][b] = 2;
  }
  EXPECT_THROW(simulate_bit_schedule(d, assign), Error);
}

TEST(BitSim, RejectsBackwardsCarryChain) {
  const Dfg d = motivational();
  BitCycles assign = make_unassigned(d);
  for (unsigned b = 0; b < 16; ++b) {
    assign[kC.index][b] = b < 8 ? 1u : 0u;  // high bits before low bits
    assign[kE.index][b] = 2;
    assign[kG.index][b] = 2;
  }
  EXPECT_THROW(simulate_bit_schedule(d, assign), Error);
}

TEST(BitSim, ErrorsCarryStructuredContext) {
  // Simulator errors locate themselves as node/bit/cycle fields, which
  // FlowResult diagnostics carry through to JSON.
  const Dfg d = motivational();
  BitCycles assign = make_unassigned(d);
  for (unsigned b = 0; b < 16; ++b) {
    assign[kC.index][b] = 2;  // C later than its consumer E
    assign[kE.index][b] = 1;
    assign[kG.index][b] = 2;
  }
  try {
    simulate_bit_schedule(d, assign);
    FAIL() << "expected hls::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.context().node, kE.index);  // E reads a future value
    EXPECT_EQ(e.context().bit, 0u);
    EXPECT_EQ(e.context().cycle, 2u);       // the producer's (later) cycle
    EXPECT_FALSE(e.context().empty());
  }
}

TEST(BitSim, PartialSchedulesAreAllowed) {
  const Dfg d = motivational();
  BitCycles assign = make_unassigned(d);
  for (unsigned b = 0; b < 16; ++b) assign[kC.index][b] = 0;
  // E and G unassigned: fine, they are simply not simulated.
  EXPECT_NO_THROW(simulate_bit_schedule(d, assign));
}

// ------------------------------------------------------------- validator --

TEST(Validate, AcceptsFragmentedMotivationalSchedule) {
  const TransformResult t = transform_spec(motivational(), 3);
  const FragSchedule fs = schedule_transformed(t);
  EXPECT_NO_THROW(validate_schedule(t.spec, fs.schedule));
  EXPECT_EQ(fs.schedule.cycle_deltas, 6u);
}

TEST(Validate, RejectsMissingBits) {
  const Dfg d = motivational();
  Schedule s;
  s.latency = 3;
  s.cycle_deltas = 16;
  s.rows = {{kC, 0, BitRange::whole(16)}, {kE, 1, BitRange::whole(16)}};
  EXPECT_THROW(validate_schedule(d, s), Error);  // G unscheduled
}

TEST(Validate, RejectsDoubleScheduledBits) {
  const Dfg d = motivational();
  Schedule s;
  s.latency = 3;
  s.cycle_deltas = 16;
  s.rows = {{kC, 0, BitRange::whole(16)},
            {kC, 1, BitRange::downto(7, 4)},
            {kE, 1, BitRange::whole(16)},
            {kG, 2, BitRange::whole(16)}};
  EXPECT_THROW(validate_schedule(d, s), Error);
}

TEST(Validate, RejectsChainDeeperThanCycle) {
  const Dfg d = motivational();
  Schedule s;
  s.latency = 3;
  s.cycle_deltas = 16;
  // C and E in the same cycle chain 17 deep > 16.
  s.rows = {{kC, 0, BitRange::whole(16)},
            {kE, 0, BitRange::whole(16)},
            {kG, 2, BitRange::whole(16)}};
  EXPECT_THROW(validate_schedule(d, s), Error);
}

TEST(Validate, AcceptsLegalConventionalShape) {
  const Dfg d = motivational();
  Schedule s;
  s.latency = 3;
  s.cycle_deltas = 16;
  s.rows = {{kC, 0, BitRange::whole(16)},
            {kE, 1, BitRange::whole(16)},
            {kG, 2, BitRange::whole(16)}};
  EXPECT_NO_THROW(validate_schedule(d, s));
}

// ---------------------------------------------------------- conventional --

TEST(Conventional, DepthModel) {
  SpecBuilder b("d");
  const Val x = b.in("x", 16), y = b.in("y", 12);
  const Val p = b.mul(x, y, 16);
  const Val s = x - b.zext(y, 16);
  const Val c = x < b.zext(y, 16);
  const Val m = b.max(x, x);
  b.out("o", p + s);
  b.out("c", c);
  b.out("m", m);
  const Dfg d = b.dfg();
  EXPECT_EQ(conventional_depth(d.node(p.node())), 28u);  // 16 + 12 array mul
  EXPECT_EQ(conventional_depth(d.node(s.node())), 16u);
  EXPECT_EQ(conventional_depth(d.node(c.node())), 17u);
  EXPECT_EQ(conventional_depth(d.node(m.node())), 18u);

  // Under a carry-lookahead delay model the chains compress to their
  // adder_depth; the comparator/mux levels stay on top.
  DelayModel cla;
  cla.style = AdderStyle::CarryLookahead;
  EXPECT_EQ(conventional_depth(d.node(p.node()), cla), 6u);  // depth(28)
  EXPECT_EQ(conventional_depth(d.node(s.node()), cla), 6u);  // depth(16)
  EXPECT_EQ(conventional_depth(d.node(c.node()), cla), 7u);  // depth(16)+1
  EXPECT_EQ(conventional_depth(d.node(m.node()), cla), 8u);  // depth(16)+2
}

TEST(Conventional, MotivationalLatency3IsTableIRow) {
  // Table I, Fig. 1 b): one 16-bit addition per cycle, cycle length = 16
  // chained bits, execution = 48 deltas.
  const OpSchedule s = schedule_conventional(motivational(), 3);
  EXPECT_EQ(s.cycle_deltas, 16u);
  ASSERT_EQ(s.spans.size(), 3u);
  for (const OpSpan& sp : s.spans) EXPECT_EQ(sp.first_cycle, sp.last_cycle);
  EXPECT_EQ(s.spans[0].first_cycle, 0u);
  EXPECT_EQ(s.spans[1].first_cycle, 1u);
  EXPECT_EQ(s.spans[2].first_cycle, 2u);
}

TEST(Conventional, SingleCycleChainsOpLevel) {
  // At latency 1 the conventional model chains whole ops: 48 deltas.
  const OpSchedule s = schedule_conventional(motivational(), 1);
  EXPECT_EQ(s.cycle_deltas, 48u);
}

TEST(Conventional, WithoutMulticycleCycleCoversLongestOp) {
  // The default baseline never clocks faster than its slowest operation.
  SpecBuilder b("nmc");
  const Val x = b.in("x", 16), y = b.in("y", 16);
  b.out("o", x + y);
  const Dfg d = std::move(b).take();
  EXPECT_EQ(schedule_conventional(d, 2).cycle_deltas, 16u);
  EXPECT_EQ(schedule_conventional(d, 8).cycle_deltas, 16u);
}

TEST(Conventional, MulticycleSplitsLongOps) {
  SpecBuilder b("mc");
  const Val x = b.in("x", 16), y = b.in("y", 16);
  b.out("o", x + y);
  const Dfg d = std::move(b).take();
  const OpSchedule s =
      schedule_conventional(d, 2, ConventionalOptions{.allow_multicycle = true});
  EXPECT_EQ(s.cycle_deltas, 8u);  // 16-bit add spans two 8-delta cycles
  ASSERT_EQ(s.spans.size(), 1u);
  EXPECT_EQ(s.spans[0].first_cycle, 0u);
  EXPECT_EQ(s.spans[0].last_cycle, 1u);
}

TEST(Conventional, WorksOnOriginalSpecWithMul) {
  SpecBuilder b("orig");
  const Val x = b.in("x", 8), y = b.in("y", 8), z = b.in("z", 16);
  b.out("o", b.mul(x, y, 16) + z);
  const Dfg d = std::move(b).take();
  const OpSchedule s = schedule_conventional(d, 2);
  // mul depth 16 in cycle 0, add 16 in cycle 1.
  EXPECT_EQ(s.cycle_deltas, 16u);
  ASSERT_EQ(s.spans.size(), 2u);
}

TEST(Conventional, FitsProbeMonotone) {
  const Dfg d = motivational();
  EXPECT_FALSE(conventional_fits(d, 3, 15));
  EXPECT_TRUE(conventional_fits(d, 3, 16));
  EXPECT_TRUE(conventional_fits(d, 3, 30));
}

// ------------------------------------------------------------------ blc --

TEST(Blc, SingleCycleMatchesFig1d) {
  // Fig. 1 d): all three additions in one cycle, 18 chained 1-bit adders.
  const OpSchedule s = schedule_blc(motivational(), 1);
  EXPECT_EQ(s.cycle_deltas, 18u);
  for (const OpSpan& sp : s.spans) EXPECT_EQ(sp.first_cycle, 0u);
}

TEST(Blc, AtomicOpsBoundCycleLength) {
  // At latency 3 ops cannot split, so the 16-bit width floors the cycle.
  const OpSchedule s = schedule_blc(motivational(), 3);
  EXPECT_EQ(s.cycle_deltas, 16u);
}

TEST(Blc, BeatsConventionalWhenChaining) {
  // Two chained 8-bit adds in one cycle: conventional pays 16 deltas,
  // BLC pays 9.
  SpecBuilder b("c2");
  const Val x = b.in("x", 8), y = b.in("y", 8), z = b.in("z", 8);
  b.out("o", x + y + z);
  const Dfg d = std::move(b).take();
  EXPECT_EQ(schedule_conventional(d, 1).cycle_deltas, 16u);
  EXPECT_EQ(schedule_blc(d, 1).cycle_deltas, 9u);
}

TEST(Blc, RequiresKernelForm) {
  SpecBuilder b("nk");
  const Val x = b.in("x", 8), y = b.in("y", 8);
  b.out("o", b.mul(x, y, 8));
  const Dfg d = std::move(b).take();
  EXPECT_THROW(schedule_blc(d, 1), Error);
  EXPECT_NO_THROW(schedule_blc(extract_kernel(d), 1));
}

// ------------------------------------------------------------ fragsched --

TEST(FragSched, MotivationalMatchesFig2) {
  const TransformResult t = transform_spec(motivational(), 3);
  const FragSchedule fs = schedule_transformed(t);
  EXPECT_EQ(fs.schedule.cycle_deltas, 6u);
  EXPECT_EQ(fs.fu_ops.size(), 9u);
  // Exactly three adder ops per cycle (one fragment of each operation).
  for (unsigned c = 0; c < 3; ++c) {
    unsigned count = 0;
    for (const auto& f : fs.fu_ops) {
      if (f.cycle == c) count++;
    }
    EXPECT_EQ(count, 3u) << "cycle " << c;
  }
  // Widest adder op is 6 bits: the paper's "3 chained adders of 6 bits".
  unsigned widest = 0;
  for (const auto& f : fs.fu_ops) widest = std::max(widest, f.bits.width);
  EXPECT_EQ(widest, 6u);
}

TEST(FragSched, Fig3BalancesAndSplitsAcrossUnconsecutiveCycles) {
  const Dfg d = fig3();
  const TransformResult t = transform_spec(d, 3);
  EXPECT_EQ(t.n_bits, 3u);
  const FragSchedule fs = schedule_transformed(t);
  // The paper's schedule executes operation A in cycles 1 and 3; exact
  // placement may differ, but balancing must produce at least one
  // unconsecutive execution on this DFG.
  EXPECT_TRUE(fs.has_unconsecutive_execution());
  // Load must be balanced: 8 ops over 3 cycles -> 8 adder ops per cycle
  // (paper Fig. 3 g schedules 8 fragments in every cycle).
  std::vector<unsigned> load(3, 0);
  for (const auto& f : fs.fu_ops) load[f.cycle]++;
  EXPECT_LE(*std::max_element(load.begin(), load.end()), 8u);
}

TEST(FragSched, MergesAdjacentFragmentsInSameCycle) {
  // One 12-bit add with latency 2 and a loose budget: fragments may merge
  // back when placed together.
  SpecBuilder b("m");
  const Val x = b.in("x", 12), y = b.in("y", 12);
  b.out("o", x + y);
  const Dfg d = std::move(b).take();
  const TransformResult t = transform_spec(d, 2);  // n_bits = 6
  const FragSchedule fs = schedule_transformed(t);
  // Two fragments in two cycles; each fu_op is one fragment.
  EXPECT_EQ(fs.fu_ops.size(), 2u);
  EXPECT_EQ(fs.fu_ops[0].bits.width + fs.fu_ops[1].bits.width, 12u);
}

TEST(FragSched, RowsCoverEveryFragmentNode) {
  const TransformResult t = transform_spec(motivational(), 3);
  const FragSchedule fs = schedule_transformed(t);
  EXPECT_EQ(fs.schedule.rows.size(), t.adds.size());
  // fu_ops node lists partition the fragment nodes.
  std::size_t total = 0;
  for (const auto& f : fs.fu_ops) total += f.nodes.size();
  EXPECT_EQ(total, t.adds.size());
}

TEST(FragSched, WindowsAreRespected) {
  const Dfg d = fig3();
  const TransformResult t = transform_spec(d, 3);
  const FragSchedule fs = schedule_transformed(t);
  std::map<std::uint32_t, unsigned> cycle_of_node;
  for (const ScheduleRow& r : fs.schedule.rows) {
    cycle_of_node[r.op.index] = r.cycle;
  }
  for (const TransformedAdd& a : t.adds) {
    const unsigned c = cycle_of_node.at(a.node.index);
    EXPECT_GE(c, a.asap);
    EXPECT_LE(c, a.alap);
  }
}

TEST(FragSched, DeepPipelineManyLatencies) {
  // Property sweep: the whole flow (kernel + transform + schedule +
  // validate) succeeds for a range of latencies on a mixed spec.
  SpecBuilder b("sweep");
  const Val a = b.in("a", 12), c = b.in("c", 12), e = b.in("e", 12);
  const Val t1 = a + c;
  const Val t2 = b.mul(t1, e, 12);
  const Val t3 = t2 - a;
  b.out("o", t3 + c);
  const Dfg kernel = extract_kernel(std::move(b).take());
  for (unsigned latency = 1; latency <= 10; ++latency) {
    const TransformResult t = transform_spec(kernel, latency);
    const FragSchedule fs = schedule_transformed(t);
    EXPECT_NO_THROW(validate_schedule(t.spec, fs.schedule)) << latency;
    EXPECT_EQ(fs.schedule.latency, latency);
  }
}

// ------------------------------------------------------ merge cost --

/// List-places every fragment of `t` on a SchedulerCore and, after every
/// commit, compares marginal(k, c) for each unplaced fragment k and cycle c
/// of its window with a brute-force scan over the placed fragments of k's
/// op. The next fragment is the ready one (every operand bit scheduled) of
/// least (mobility, asap, index); its cycles are tried in (marginal, load,
/// cycle) order, or ASAP-first without `balance`. Returns false when a
/// balanced placement gets stuck.
bool place_checking_marginal(const TransformResult& t, bool balance,
                             const std::string& what) {
  SchedulerCore core(t);
  const std::size_t n = core.size();
  std::vector<std::vector<std::size_t>> of_op(t.spec.size());
  for (std::size_t k = 0; k < n; ++k) of_op[t.adds[k].orig.index].push_back(k);
  const auto brute = [&](std::size_t k, unsigned c) {
    for (std::size_t j : of_op[t.adds[k].orig.index]) {
      if (core.placed(j) && core.cycle_of(j) == c &&
          (t.adds[j].bits.abuts_below(t.adds[k].bits) ||
           t.adds[k].bits.abuts_below(t.adds[j].bits))) {
        return 0u;
      }
    }
    return 1u;
  };
  for (std::size_t done = 0; done < n; ++done) {
    std::size_t best = n;
    for (std::size_t k = 0; k < n; ++k) {
      if (core.placed(k) || core.earliest_cycle(k) == kUnassignedCycle) continue;
      const auto key = [&](std::size_t i) {
        return std::make_tuple(t.adds[i].alap - t.adds[i].asap, t.adds[i].asap, i);
      };
      if (best == n || key(k) < key(best)) best = k;
    }
    if (best == n) {
      ADD_FAILURE() << what << ": no ready fragment";
      return false;
    }
    std::vector<std::tuple<unsigned, unsigned, unsigned>> candidates;
    for (unsigned c = t.adds[best].asap; c <= t.adds[best].alap; ++c) {
      candidates.emplace_back(balance ? core.marginal(best, c) : 0,
                              balance ? core.load(c) : 0, c);
    }
    std::sort(candidates.begin(), candidates.end());
    bool placed = false;
    for (const auto& cand : candidates) {
      if (core.try_place(best, std::get<2>(cand))) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      EXPECT_TRUE(balance) << what << ": ASAP placement infeasible";
      return false;
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (core.placed(k)) continue;
      for (unsigned c = core.window_lo(k); c <= core.window_hi(k); ++c) {
        if (core.marginal(k, c) != brute(k, c)) {
          ADD_FAILURE() << what << ": marginal(" << k << ", " << c
                        << ") disagrees with the brute-force scan";
          return false;
        }
      }
    }
  }
  return true;
}

TEST(FragSched, MarginalMatchesBruteForceOnEveryRegistrySuite) {
  const Session session(SessionOptions{.workers = 1});
  std::size_t designs = 0;
  for (const SuiteEntry& suite : registry_suites()) {
    const Dfg spec = suite.build();
    const std::vector<unsigned>& lat = suite.latencies;
    for (const unsigned latency :
         {lat.front(), lat[lat.size() / 2], lat.back()}) {
      for (const bool narrow : {false, true}) {
        FlowRequest req{spec, "optimized", latency};
        req.options.narrow = narrow;
        const FlowResult r = session.run(req);
        ASSERT_TRUE(r.ok && r.transform) << suite.name << " L" << latency;
        const std::string what = suite.name + " L" + std::to_string(latency) +
                                 (narrow ? " narrow" : "");
        if (!place_checking_marginal(*r.transform, true, what)) {
          place_checking_marginal(*r.transform, false, what);
        }
        ++designs;
      }
    }
  }
  EXPECT_GT(designs, 0u);
}

} // namespace
} // namespace hls
