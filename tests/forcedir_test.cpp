// Tests for the force-directed fragment scheduler: validity, equivalence to
// the spec, and resource quality relative to the list scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "alloc/bitlevel.hpp"
#include "kernel/extract.hpp"
#include "ir/builder.hpp"
#include "rtl/cycle_sim.hpp"
#include "sched/core.hpp"
#include "sched/forcedir.hpp"
#include "suites/suites.hpp"
#include "timing/target.hpp"

namespace hls {
namespace {

TEST(ForceDirected, MotivationalIsValidAndTight) {
  const TransformResult t = transform_spec(motivational(), 3);
  const FragSchedule fs = schedule_transformed_forcedirected(t);
  EXPECT_NO_THROW(validate_schedule(t.spec, fs.schedule));
  EXPECT_EQ(fs.schedule.cycle_deltas, 6u);
  // Everything pre-scheduled: both schedulers must agree.
  const FragSchedule list = schedule_transformed(t);
  EXPECT_EQ(fs.fu_ops.size(), list.fu_ops.size());
}

TEST(ForceDirected, ValidOnEverySuite) {
  for (const SuiteEntry& s : all_suites()) {
    const Dfg kernel = extract_kernel(s.build());
    for (unsigned lat : s.latencies) {
      const TransformResult t = transform_spec(kernel, lat);
      const FragSchedule fs = schedule_transformed_forcedirected(t);
      EXPECT_NO_THROW(validate_schedule(t.spec, fs.schedule))
          << s.name << " lat " << lat;
    }
  }
}

TEST(ForceDirected, DatapathStillComputesCorrectValues) {
  // Allocation + cycle simulation over the force-directed schedule.
  const Dfg d = fig3_dfg();
  const TransformResult t = transform_spec(d, 3);
  const FragSchedule fs = schedule_transformed_forcedirected(t);
  const Netlist nl = lower_rtl(t, fs, allocate_bitlevel(t, fs));
  std::mt19937_64 rng(31);
  for (int i = 0; i < 100; ++i) {
    InputValues in;
    for (NodeId id : d.inputs()) in[d.node(id).name] = rng();
    EXPECT_EQ(simulate_netlist(nl, t.spec, in), evaluate(d, in));
  }
}

TEST(ForceDirected, BalancesBitDemand) {
  // On the Fig. 3 DFG the mobile fragments must spread: no cycle may carry
  // more than half of all adder bits.
  const TransformResult t = transform_spec(fig3_dfg(), 3);
  const FragSchedule fs = schedule_transformed_forcedirected(t);
  std::vector<unsigned> bits(3, 0);
  unsigned total = 0;
  for (const auto& f : fs.fu_ops) {
    bits[f.cycle] += f.bits.width;
    total += f.bits.width;
  }
  for (unsigned c = 0; c < 3; ++c) EXPECT_LT(bits[c], total / 2 + 1);
}

TEST(ForceDirected, RespectsWindows) {
  const TransformResult t = transform_spec(fig3_dfg(), 3);
  const FragSchedule fs = schedule_transformed_forcedirected(t);
  std::map<std::uint32_t, unsigned> cycle_of;
  for (const ScheduleRow& r : fs.schedule.rows) cycle_of[r.op.index] = r.cycle;
  for (const TransformedAdd& a : t.adds) {
    EXPECT_GE(cycle_of.at(a.node.index), a.asap);
    EXPECT_LE(cycle_of.at(a.node.index), a.alap);
  }
}

TEST(ForceDirected, ParallelCandidateEvaluationIsBitIdentical) {
  // Speculative parallel candidate evaluation must not change a single bit
  // of any schedule: force its parallel path on (several workers, no
  // fragment-count floor) and diff the full schedule text against the
  // serial path for every registry suite × every latency.
  SchedulerOptions serial;
  serial.cross_check = false;
  serial.candidate_workers = 1;
  for (const unsigned workers : {2u, 3u, 5u}) {
    SchedulerOptions par = serial;
    par.candidate_workers = workers;
    par.parallel_min_fragments = 1;
    for (const SuiteEntry& s : registry_suites()) {
      const Dfg built = s.build();
      const Dfg kernel = is_kernel_form(built) ? built : extract_kernel(built);
      for (unsigned lat : s.latencies) {
        const TransformResult t = transform_spec(kernel, lat);
        const FragSchedule a = schedule_transformed_forcedirected(t, serial);
        const FragSchedule b = schedule_transformed_forcedirected(t, par);
        EXPECT_EQ(to_string(t.spec, a.schedule), to_string(t.spec, b.schedule))
            << s.name << " lat " << lat << " workers " << workers;
      }
    }
  }
}

TEST(ForceDirected, ProbesOnlyCandidatesTheOracleCanAccept) {
  // The earliest-cycle pre-filter keeps out of the heap every candidate the
  // oracle would reject for an operand computed too late, so nearly every
  // probe commits; only over-budget rejections remain. Counters are
  // deterministic, so this is a regression test, not a timing test.
  auto counters_of = [](const TransformResult& t) {
    OracleCounters c;
    SchedulerOptions options;
    options.cross_check = false;
    options.candidate_workers = 1;
    options.counters = &c;
    (void)schedule_transformed_forcedirected(t, options);
    return c;
  };
  for (const SuiteEntry& s : registry_suites()) {
    const Dfg built = s.build();
    const Dfg kernel = is_kernel_form(built) ? built : extract_kernel(built);
    for (unsigned lat : s.latencies) {
      const TransformResult t = transform_spec(kernel, lat);
      const OracleCounters c = counters_of(t);
      EXPECT_EQ(c.candidates_committed, t.adds.size())
          << s.name << " lat " << lat;
      EXPECT_LE(c.candidates_refined, c.candidates_evaluated)
          << s.name << " lat " << lat;
      // Without the filter: up to 90 probes per commit (ar_lattice, L=8).
      EXPECT_LE(c.candidates_probed * 2, c.candidates_committed * 5)
          << s.name << " lat " << lat << ": " << c.candidates_probed
          << " probes for " << c.candidates_committed << " commits";
      // The mesh kernels lose every rejection (8,873 at synth-mesh8x8 L=8
      // and 4,149 at synth-mesh6x6 L=6 without the filter).
      if ((s.name == "synth-mesh8x8" && lat == 8) ||
          (s.name == "synth-mesh6x6" && lat == 6)) {
        EXPECT_EQ(c.candidates_rejected, 0u) << s.name << " lat " << lat;
      }
    }
  }
}

TEST(ForceDirected, BoundsNeverExceedTheExactForce) {
  // cross_check asserts, for every candidate scored by a bound, that the
  // bound is at most its exact force, and must not change the schedule.
  // Run it in every build type, at the registry's lowest latency and at 3x
  // it, where candidate windows are wide.
  SchedulerOptions plain;
  plain.cross_check = false;
  SchedulerOptions checked;
  checked.cross_check = true;
  for (const SuiteEntry& s : registry_suites()) {
    const Dfg built = s.build();
    const Dfg kernel = is_kernel_form(built) ? built : extract_kernel(built);
    const unsigned lowest =
        *std::min_element(s.latencies.begin(), s.latencies.end());
    for (const unsigned lat : {lowest, 3 * lowest}) {
      for (const char* target : {"paper-ripple", "cla"}) {
        const TransformResult t =
            transform_spec(kernel, lat, 0, resolve_target(target).delay);
        const FragSchedule a = schedule_transformed_forcedirected(t, plain);
        FragSchedule b;
        ASSERT_NO_THROW(b = schedule_transformed_forcedirected(t, checked))
            << s.name << " lat " << lat << " " << target;
        EXPECT_EQ(to_string(t.spec, a.schedule), to_string(t.spec, b.schedule))
            << s.name << " lat " << lat << " " << target;
      }
    }
  }
}

TEST(ForceDirected, ExactForcesOnlyWhereTheyCanWin) {
  // At 3x its lowest latency OPFC + SCA has wide windows: most candidates
  // lose to the winner on their bound alone and never need an exact force.
  const SuiteEntry& s = adpcm_suites()[2];
  ASSERT_EQ(s.name, "OPFC + SCA");
  const TransformResult t = transform_spec(extract_kernel(s.build()), 36);
  OracleCounters c;
  SchedulerOptions options;
  options.cross_check = false;
  options.counters = &c;
  (void)schedule_transformed_forcedirected(t, options);
  EXPECT_GT(c.candidates_refined, 0u);
  EXPECT_LE(c.candidates_refined * 10, c.candidates_evaluated)
      << c.candidates_refined << " of " << c.candidates_evaluated;
}

TEST(ForceDirected, ComparableResourceQuality) {
  // Force-directed should never need dramatically more adder bits per cycle
  // than the list scheduler (usually equal or better balance).
  for (const SuiteEntry& s : {classical_suites()[1], classical_suites()[3]}) {
    const Dfg kernel = extract_kernel(s.build());
    const unsigned lat = s.latencies.front();
    const TransformResult t = transform_spec(kernel, lat);
    auto peak_bits = [&](const FragSchedule& fs) {
      std::vector<unsigned> bits(lat, 0);
      for (const auto& f : fs.fu_ops) bits[f.cycle] += f.bits.width;
      return *std::max_element(bits.begin(), bits.end());
    };
    const unsigned fd = peak_bits(schedule_transformed_forcedirected(t));
    const unsigned ls = peak_bits(schedule_transformed(t));
    EXPECT_LE(fd, ls * 3 / 2 + 8) << s.name;
  }
}

} // namespace
} // namespace hls
