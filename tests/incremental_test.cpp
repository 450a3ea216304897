// Property tests for the incremental bit-slot engine: after every commit
// and rollback, IncrementalBitSim must agree bit-for-bit with a full
// simulate_bit_schedule() pass over the same assignment — across randomized
// placement sequences on every registry suite (paper + extended +
// synthetic), plus unit tests of the rollback and budget machinery.

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <type_traits>

#include "ir/builder.hpp"
#include "kernel/extract.hpp"
#include "sched/core.hpp"
#include "sched/incremental.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

/// Full-simulator reference: the incremental state must match exactly.
void expect_matches_full(const Dfg& spec, const IncrementalBitSim& sim,
                         const std::string& what) {
  const BitSim full = simulate_bit_schedule(spec, sim.assignment());
  EXPECT_EQ(full.max_slot, sim.max_slot()) << what;
  EXPECT_EQ(full.avail, sim.avail()) << what;
}

TEST(IncrementalBitSim, MatchesFullSimulatorOnEveryRegistrySuite) {
  std::mt19937_64 rng(0x1BC5);
  for (const SuiteEntry& s : registry_suites()) {
    const Dfg built = s.build();
    const Dfg kernel = is_kernel_form(built) ? built : extract_kernel(built);
    const unsigned latency = s.latencies.front();
    const TransformResult t = transform_spec(kernel, latency);

    IncrementalBitSim sim(t.spec, t.n_bits);
    sim.set_cross_check(false);  // this test IS the cross-check
    expect_matches_full(t.spec, sim, s.name + " initial");

    // Random placement sequence: place fragments in a random feasible
    // order at random cycles of their windows, occasionally undoing, and
    // compare against the full simulator after every mutation. Rejected
    // placements must leave the state untouched.
    std::vector<std::size_t> unplaced(t.adds.size());
    std::vector<std::size_t> placed_stack;
    for (std::size_t k = 0; k < t.adds.size(); ++k) unplaced[k] = k;
    unsigned mutations = 0;
    const unsigned mutation_cap = 160;  // bounds runtime on the big kernels
    while (!unplaced.empty() && mutations < mutation_cap) {
      if (!placed_stack.empty() && rng() % 8 == 0) {
        sim.undo();
        unplaced.push_back(placed_stack.back());
        placed_stack.pop_back();
        expect_matches_full(t.spec, sim, s.name + " after undo");
        ++mutations;
        continue;
      }
      const std::size_t pick = rng() % unplaced.size();
      const std::size_t k = unplaced[pick];
      const TransformedAdd& a = t.adds[k];
      const unsigned c = a.asap + rng() % (a.alap - a.asap + 1);
      const std::vector<PackedAvail> avail_before = sim.avail();
      const unsigned max_before = sim.max_slot();
      if (sim.try_place(a.node, c)) {
        placed_stack.push_back(k);
        std::swap(unplaced[pick], unplaced.back());
        unplaced.pop_back();
        expect_matches_full(t.spec, sim, s.name + " after commit");
      } else {
        EXPECT_EQ(avail_before, sim.avail()) << s.name << " rejected leak";
        EXPECT_EQ(max_before, sim.max_slot()) << s.name << " rejected leak";
      }
      ++mutations;
    }
    // Unwind everything: the all-unassigned state must be restored exactly.
    while (!placed_stack.empty()) {
      sim.undo();
      placed_stack.pop_back();
    }
    expect_matches_full(t.spec, sim, s.name + " after full unwind");
    EXPECT_EQ(sim.max_slot(), 0u) << s.name;
  }
}

/// At the engine's current state: every unplaced Add must be rejected at
/// every cycle below its earliest_cycle (every cycle while the bound is
/// kUnassignedCycle), and each rejection must leave the state untouched.
void expect_bound_is_sound(const TransformResult& t, IncrementalBitSim& sim,
                           const std::string& what) {
  const std::vector<PackedAvail> avail = sim.avail();
  const BitCycles assign = sim.assignment();
  const unsigned max_slot = sim.max_slot();
  for (const TransformedAdd& a : t.adds) {
    if (assign[a.node.index][0] != kUnassignedCycle) continue;
    const unsigned bound = std::min(sim.earliest_cycle(a.node), t.latency);
    for (unsigned c = 0; c < bound; ++c) {
      ASSERT_FALSE(sim.try_place(a.node, c))
          << what << ": node " << a.node.index << " accepted at cycle " << c
          << " below its earliest cycle " << sim.earliest_cycle(a.node);
      ASSERT_EQ(max_slot, sim.max_slot()) << what << " rejected leak";
      ASSERT_TRUE(avail == sim.avail()) << what << " rejected leak";
      ASSERT_TRUE(assign == sim.assignment()) << what << " rejected leak";
    }
  }
}

void run_bound_property(unsigned budget_divisor, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (const SuiteEntry& s : registry_suites()) {
    const Dfg built = s.build();
    const Dfg kernel = is_kernel_form(built) ? built : extract_kernel(built);
    const TransformResult t = transform_spec(kernel, s.latencies.front());
    const unsigned budget = std::max(1u, t.n_bits / budget_divisor);
    IncrementalBitSim sim(t.spec, budget);
    sim.set_cross_check(false);

    // flatsim_test's place/undo walk, long enough to reach deep partial
    // schedules. Every rejected probe of the check costs a full-state
    // compare (~9k probes per state on ar_lattice), so the bound is checked
    // at 12 evenly spaced states of the walk and at its end.
    auto unplaced = [&](std::size_t k) {
      return sim.assignment()[t.adds[k].node.index][0] == kUnassignedCycle;
    };
    std::vector<std::size_t> placed_stack;
    std::size_t lowest = 0;
    const std::size_t steps = 3 * t.adds.size();
    const std::size_t stride = std::max<std::size_t>(1, steps / 12);
    for (std::size_t step = 0; step <= steps; ++step) {
      if (step % stride == 0 || step == steps) {
        expect_bound_is_sound(t, sim, s.name + " step " + std::to_string(step));
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (!placed_stack.empty() && rng() % 8 == 0) {
        sim.undo();
        lowest = std::min(lowest, placed_stack.back());
        placed_stack.pop_back();
        continue;
      }
      while (lowest < t.adds.size() && !unplaced(lowest)) ++lowest;
      if (lowest == t.adds.size()) continue;
      // Half the picks extend the ASAP schedule (feasible by construction
      // of the windows) at the lowest-index unplaced fragment, which drives
      // the walk deep; the rest are flatsim_test's random fragment at a
      // mostly in-window cycle.
      const bool extend = rng() % 2 == 0;
      const std::size_t k = extend ? lowest : rng() % t.adds.size();
      if (!unplaced(k)) continue;
      const TransformedAdd& a = t.adds[k];
      const unsigned c = extend ? a.asap
                         : rng() % 4 == 0
                             ? static_cast<unsigned>(rng() % t.latency)
                             : a.asap + rng() % (a.alap - a.asap + 1);
      if (sim.try_place(a.node, c)) placed_stack.push_back(k);
    }
  }
}

// The force-directed pre-filter drops every candidate below the bound
// without probing it, so the bound must never exceed a cycle the oracle
// accepts — at the §3.2 budget and at a tight one.
TEST(IncrementalBitSim, EarliestCycleBoundNeverHidesAnAcceptedCycle) {
  run_bound_property(/*budget_divisor=*/1, 0xEA71ull);
  run_bound_property(/*budget_divisor=*/2, 0xEA72ull);
}

TEST(IncrementalBitSim, SchedulersAgreeAcrossOraclesOnRegistrySuites) {
  // The two feasibility oracles (incremental vs full re-simulation) must
  // drive both builtin strategies to bit-identical schedules everywhere.
  SchedulerOptions full;
  full.feasibility = SchedulerOptions::Feasibility::FullResim;
  for (const SuiteEntry& s : registry_suites()) {
    const Dfg built = s.build();
    const Dfg kernel = is_kernel_form(built) ? built : extract_kernel(built);
    const TransformResult t = transform_spec(kernel, s.latencies.front());
    // The full-resimulation oracle is quadratic-times-simulation — the very
    // cost this PR removes — so the largest kernels (ar_lattice: 1202
    // fragments, synth-mesh8x8: 601) would dominate the whole test suite's
    // runtime here. bench_micro compares the oracles at that scale.
    if (t.adds.size() > 400) continue;
    for (const char* name : {"list", "forcedirected"}) {
      OracleCounters inc_counters, ref_counters;
      SchedulerOptions inc_options, ref_options = full;
      inc_options.counters = &inc_counters;
      ref_options.counters = &ref_counters;
      const FragSchedule inc = run_scheduler(name, t, inc_options);
      const FragSchedule ref = run_scheduler(name, t, ref_options);
      EXPECT_EQ(to_string(t.spec, inc.schedule), to_string(t.spec, ref.schedule))
          << s.name << " " << name;
      // Full re-simulation has no earliest-cycle bound, so it evaluates
      // exactly the candidates the incremental run evaluated or filtered.
      EXPECT_EQ(ref_counters.candidates_filtered, 0u) << s.name << " " << name;
      EXPECT_EQ(inc_counters.candidates_evaluated +
                    inc_counters.candidates_filtered,
                ref_counters.candidates_evaluated)
          << s.name << " " << name;
    }
  }
}

TEST(IncrementalBitSim, RejectsOverBudgetPlacement) {
  // Three chained 16-bit adds, budget 6: C alone fits a cycle (max_slot
  // 16 > 6 fails), so placing the raw kernel's C in one cycle must bounce.
  SpecBuilder b("chain");
  const Val A = b.in("A", 16), B = b.in("B", 16), D = b.in("D", 16);
  b.out("G", A + B + D);
  const Dfg d = std::move(b).take();
  IncrementalBitSim sim(d, 6);
  const NodeId c_node{3};
  ASSERT_EQ(d.node(c_node).kind, OpKind::Add);
  EXPECT_FALSE(sim.try_place(c_node, 0));  // 16 chained bits > budget 6
  EXPECT_EQ(sim.depth(), 0u);
  EXPECT_EQ(sim.max_slot(), 0u);

  IncrementalBitSim loose(d, 16);
  EXPECT_TRUE(loose.try_place(c_node, 0));
  EXPECT_EQ(loose.max_slot(), 16u);
}

TEST(IncrementalBitSim, RejectsPrecedenceViolation) {
  SpecBuilder b("prec");
  const Val A = b.in("A", 8), B = b.in("B", 8), D = b.in("D", 8);
  const Val C = A + B;
  b.out("G", C + D);
  const Dfg d = std::move(b).take();
  IncrementalBitSim sim(d, 16);
  const NodeId c_node = C.node();
  const NodeId g_add{4};
  ASSERT_EQ(d.node(g_add).kind, OpKind::Add);
  // G consumes unplaced C: infeasible now ...
  EXPECT_FALSE(sim.try_place(g_add, 0));
  // ... place C in cycle 1: G in cycle 0 would read the future ...
  ASSERT_TRUE(sim.try_place(c_node, 1));
  EXPECT_FALSE(sim.try_place(g_add, 0));
  // ... and in cycle 1 both chain: G's ripple rides C's carry chain one
  // slot behind, topping out at slot 9.
  ASSERT_TRUE(sim.try_place(g_add, 1));
  EXPECT_EQ(sim.max_slot(), 9u);
  // LIFO undo restores the intermediate and initial states.
  sim.undo();
  EXPECT_EQ(sim.max_slot(), 8u);
  sim.undo();
  EXPECT_EQ(sim.max_slot(), 0u);
}

TEST(IncrementalBitSim, JournalIndexCoversTheWholeJournal) {
  // Frame::journal_begin used to be uint32_t while the journal itself was
  // indexed by size_t: a search placing enough fragments to push the
  // journal past 2^32 touches would silently truncate the frame's rollback
  // point and corrupt every later undo. The index type is now the
  // journal's own size type, so no journal the process can address can
  // overflow a frame.
  using Journal = std::vector<int>;  // stand-in: any vector's size_type
  static_assert(
      std::is_same_v<IncrementalBitSim::JournalIndex, std::size_t>,
      "journal frames must use the journal's own index width");
  static_assert(std::numeric_limits<IncrementalBitSim::JournalIndex>::max() >=
                    std::numeric_limits<Journal::size_type>::max(),
                "a frame must be able to record any journal position");

  // Deep LIFO churn as a runtime smoke test: many frames, each rolled back
  // to exactly its recorded begin.
  const TransformResult t = transform_spec(fig3_dfg(), 3);
  IncrementalBitSim sim(t.spec, t.n_bits);
  sim.set_cross_check(false);
  for (unsigned round = 0; round < 64; ++round) {
    unsigned placed = 0;
    for (const TransformedAdd& a : t.adds) {
      if (sim.try_place(a.node, a.asap)) ++placed;
    }
    ASSERT_EQ(placed, t.adds.size());
    for (unsigned u = 0; u < placed; ++u) sim.undo();
    ASSERT_EQ(sim.depth(), 0u);
    ASSERT_EQ(sim.max_slot(), 0u);
  }
}

TEST(IncrementalBitSim, CrossCheckedPlacementSequence) {
  // The built-in debug cross-check: every mutation re-verified against the
  // full simulator inside the engine itself.
  const TransformResult t = transform_spec(fig3_dfg(), 3);
  IncrementalBitSim sim(t.spec, t.n_bits);
  sim.set_cross_check(true);
  unsigned placed = 0;
  for (const TransformedAdd& a : t.adds) {
    if (sim.try_place(a.node, a.asap)) ++placed;
  }
  EXPECT_EQ(placed, t.adds.size());
  EXPECT_LE(sim.max_slot(), t.n_bits);
}

} // namespace
} // namespace hls
