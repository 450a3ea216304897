// Tests for the cycle-accurate datapath simulator and the structural RTL
// emitter, including failure injection on the register plan.

#include <gtest/gtest.h>

#include <random>
#include <regex>
#include <sstream>

#include "testutil.hpp"
#include "ir/builder.hpp"
#include "rtl/cycle_sim.hpp"
#include "rtl/rtl_emit.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

TEST(CycleSim, MotivationalMatchesEvaluator) {
  const Dfg d = motivational();
  const FlowResult o = testutil::run_optimized(d, 3);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 300; ++i) {
    const InputValues in{{"A", rng()}, {"B", rng()}, {"D", rng()}, {"F", rng()}};
    EXPECT_EQ(simulate_datapath(*o.transform, *o.schedule,
                                o.report.datapath, in),
              evaluate(d, in));
  }
}

TEST(CycleSim, AllSuitesAllLatenciesMatchEvaluator) {
  // The repo's strongest end-to-end property: the scheduled, bound, and
  // register-allocated datapath computes exactly what the specification
  // means, for every suite at every paper latency.
  std::mt19937_64 rng(77);
  for (const SuiteEntry& s : all_suites()) {
    const Dfg original = s.build();
    for (unsigned lat : s.latencies) {
      const FlowResult o = testutil::run_optimized(original, lat);
      for (int trial = 0; trial < 25; ++trial) {
        InputValues in;
        for (NodeId id : original.inputs()) {
          in[original.node(id).name] = rng();
        }
        EXPECT_EQ(simulate_datapath(*o.transform, *o.schedule,
                                    o.report.datapath, in),
                  evaluate(original, in))
            << s.name << " lat " << lat;
      }
    }
  }
}

TEST(CycleSim, DisconnectedMultiOutputSpecMatchesEvaluator) {
  // Two adder chains sharing no nodes, each with its own primary output:
  // scheduling, binding and register allocation must keep the disconnected
  // components independent, and the cycle-level execution must still equal
  // the evaluator on both ports.
  SpecBuilder b("islands");
  const Val A = b.in("A", 10), B = b.in("B", 10), C = b.in("C", 10);
  b.out("s", A + B + C);
  const Val P = b.in("P", 14), Q = b.in("Q", 14);
  b.out("t", P - Q);
  const Dfg d = std::move(b).take();
  for (const char* sched : {"list", "forcedirected"}) {
    const FlowResult o = testutil::run_optimized(d, 3, {}, 0, sched);
    std::mt19937_64 rng(31);
    for (int i = 0; i < 200; ++i) {
      const InputValues in{{"A", rng()}, {"B", rng()}, {"C", rng()},
                           {"P", rng()}, {"Q", rng()}};
      EXPECT_EQ(simulate_datapath(*o.transform, *o.schedule,
                                  o.report.datapath, in),
                evaluate(d, in))
          << sched;
    }
  }
}

TEST(CycleSim, MissingInputThrows) {
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  EXPECT_THROW(
      simulate_datapath(*o.transform, *o.schedule, o.report.datapath, {{"A", 1}}),
      Error);
}

TEST(CycleSim, DetectsDroppedRegisterRun) {
  // Failure injection: delete one stored run; a cross-cycle read must be
  // caught (the motivational example stores C5, E4 and three carries).
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  ASSERT_FALSE(o.report.datapath.stored.empty());
  Datapath broken = o.report.datapath;
  broken.stored.erase(broken.stored.begin());
  const InputValues in{{"A", 11}, {"B", 22}, {"D", 33}, {"F", 44}};
  EXPECT_THROW(simulate_datapath(*o.transform, *o.schedule, broken, in), Error);
}

TEST(CycleSim, DetectsTruncatedLiveness) {
  // Failure injection: shorten a run's live span below its real last use.
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  Datapath broken = o.report.datapath;
  bool shortened = false;
  for (StoredRun& r : broken.stored) {
    if (r.last_use > r.produced + 0) {
      r.last_use = r.produced;  // dies immediately: never readable
      shortened = true;
      break;
    }
  }
  ASSERT_TRUE(shortened);
  const InputValues in{{"A", 3}, {"B", 5}, {"D", 7}, {"F", 9}};
  EXPECT_THROW(simulate_datapath(*o.transform, *o.schedule, broken, in), Error);
}

TEST(CycleSim, DetectsScheduleTamperedAfterAllocation) {
  // Move a fragment to a later cycle than its consumers: the read-before-
  // compute check fires.
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  FragSchedule tampered = *o.schedule;
  // Row 0 is C's first fragment (cycle 0); push it to the last cycle.
  tampered.schedule.rows[0].cycle = 2;
  const InputValues in{{"A", 1}, {"B", 2}, {"D", 3}, {"F", 4}};
  EXPECT_THROW(
      simulate_datapath(*o.transform, tampered, o.report.datapath, in), Error);
}

TEST(CycleSim, WideCarryChainAcrossManyCycles) {
  // 48-bit addition over 8 cycles: carries hop 7 boundaries.
  SpecBuilder b("wide");
  const Val x = b.in("x", 48), y = b.in("y", 48);
  b.out("o", x + y);
  const Dfg d = std::move(b).take();
  const FlowResult o = testutil::run_optimized(d, 8);
  std::mt19937_64 rng(13);
  for (int i = 0; i < 200; ++i) {
    const InputValues in{{"x", rng()}, {"y", rng()}};
    EXPECT_EQ(simulate_datapath(*o.transform, *o.schedule, o.report.datapath, in),
              evaluate(d, in));
  }
}

TEST(RtlEmit, StructuralShape) {
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const std::string v =
      emit_rtl_vhdl(*o.transform, *o.schedule, o.report.datapath);
  EXPECT_NE(v.find("entity example_opt_rtl is"), std::string::npos);
  EXPECT_NE(v.find("use ieee.numeric_std.all;"), std::string::npos);
  EXPECT_NE(v.find("signal state: natural range 0 to 2"), std::string::npos);
  EXPECT_NE(v.find("when 0 =>"), std::string::npos);
  EXPECT_NE(v.find("when 2 =>"), std::string::npos);
  EXPECT_NE(v.find("done <= '1' when state = 2"), std::string::npos);
  // Registers exist and are loaded somewhere.
  EXPECT_NE(v.find("signal r0"), std::string::npos);
  EXPECT_NE(v.find("r0("), std::string::npos);
  // Additions render through unsigned arithmetic.
  EXPECT_NE(v.find("unsigned("), std::string::npos);
}

TEST(RtlEmit, ReadsRegistersForCrossCycleValues) {
  // The second fragment of C consumes the stored carry: some expression in
  // a later state must reference a register slice.
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const std::string v =
      emit_rtl_vhdl(*o.transform, *o.schedule, o.report.datapath);
  const std::size_t when1 = v.find("when 1 =>");
  ASSERT_NE(when1, std::string::npos);
  const std::size_t next = v.find("when 2 =>");
  const std::string state1 = v.substr(when1, next - when1);
  EXPECT_NE(state1.find("r"), std::string::npos);
  // All three fragment adds of state 1 appear.
  EXPECT_NE(state1.find("v_C_11_downto_6"), std::string::npos);
}

TEST(RtlEmit, WorksForEverySuite) {
  for (const SuiteEntry& s : all_suites()) {
    const FlowResult o =
        testutil::run_optimized(s.build(), s.latencies.front());
    const std::string v =
        emit_rtl_vhdl(*o.transform, *o.schedule, o.report.datapath);
    EXPECT_NE(v.find("architecture rtl"), std::string::npos) << s.name;
    EXPECT_NE(v.find("end rtl;"), std::string::npos) << s.name;
  }
}

TEST(RtlEmit, EveryStatementLineIsWhole) {
  // Between `case state is` and `end case;` every line is a state label or
  // exactly one complete assignment: a glue net whose operands are not
  // available in a state must leave no partial line behind. Checked over
  // every registry suite x latency x target x scheduler x narrow.
  const Session session(SessionOptions{.workers = 1});
  const std::regex label(R"(\s*when \d+ =>)");
  std::size_t points = 0, designs = 0;
  for (const SuiteEntry& suite : registry_suites()) {
    const Dfg spec = suite.build();
    for (const std::string scheduler : {"list", "forcedirected"}) {
      for (const unsigned latency : suite.latencies) {
        for (const std::string target : {"paper-ripple", "cla"}) {
          for (const bool narrow : {false, true}) {
            FlowRequest req{spec, "optimized", latency, 0, {}, scheduler, target};
            req.options.narrow = narrow;
            const FlowResult o = session.run(req);
            ++points;
            if (!o.ok) continue;
            ++designs;
            const std::string v =
                emit_rtl_vhdl(*o.transform, *o.schedule, o.report.datapath);
            const std::size_t begin = v.find("case state is\n");
            const std::size_t end = v.find("        end case;\n");
            ASSERT_NE(begin, std::string::npos);
            ASSERT_NE(end, std::string::npos);
            std::istringstream lines(
                v.substr(begin + 14, end - (begin + 14)));
            std::string line;
            while (std::getline(lines, line)) {
              if (std::regex_match(line, label)) continue;
              std::size_t assignments = 0;
              for (const char* op : {":=", "<="}) {
                for (std::size_t p = line.find(op); p != std::string::npos;
                     p = line.find(op, p + 2)) {
                  ++assignments;
                }
              }
              EXPECT_EQ(assignments, 1u)
                  << suite.name << " L" << latency << " " << scheduler << " "
                  << target << " narrow=" << narrow << ": " << line;
              EXPECT_TRUE(!line.empty() && line.back() == ';') << line;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(designs, points / 2) << designs << " of " << points;
}

} // namespace
} // namespace hls
