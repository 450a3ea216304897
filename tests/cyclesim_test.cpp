// Tests for the cycle-accurate datapath simulator and the structural RTL
// emitter, including failure injection on the register plan.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
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
      const Netlist nl = lower_rtl(*o.transform, *o.schedule, o.report.datapath);
      for (int trial = 0; trial < 25; ++trial) {
        InputValues in;
        for (NodeId id : original.inputs()) {
          in[original.node(id).name] = rng();
        }
        EXPECT_EQ(simulate_netlist(nl, o.transform->spec, in),
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
    const Netlist nl = lower_rtl(*o.transform, *o.schedule, o.report.datapath);
    std::mt19937_64 rng(31);
    for (int i = 0; i < 200; ++i) {
      const InputValues in{{"A", rng()}, {"B", rng()}, {"C", rng()},
                           {"P", rng()}, {"Q", rng()}};
      EXPECT_EQ(simulate_netlist(nl, o.transform->spec, in), evaluate(d, in))
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
  const Netlist nl = lower_rtl(*o.transform, *o.schedule, o.report.datapath);
  std::mt19937_64 rng(13);
  for (int i = 0; i < 200; ++i) {
    const InputValues in{{"x", rng()}, {"y", rng()}};
    EXPECT_EQ(simulate_netlist(nl, o.transform->spec, in), evaluate(d, in));
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

/// Emits the RTL of every registry suite x latency x target x scheduler x
/// narrow design that compiles, and calls `check(where, vhdl)` on it.
void for_each_grid_rtl(
    const std::function<void(const std::string&, const std::string&)>& check) {
  const Session session(SessionOptions{.workers = 1});
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
            check(suite.name + " L" + std::to_string(latency) + " " +
                      scheduler + " " + target +
                      " narrow=" + std::to_string(narrow),
                  emit_rtl_vhdl(*o.transform, *o.schedule, o.report.datapath));
          }
        }
      }
    }
  }
  EXPECT_GT(designs, points / 2) << designs << " of " << points;
}

/// The lines between `case state is` and `end case;`.
std::vector<std::string> case_lines(const std::string& v) {
  const std::size_t begin = v.find("case state is\n");
  const std::size_t end = v.find("        end case;\n");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  std::istringstream in(v.substr(begin + 14, end - (begin + 14)));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(RtlEmit, EveryStatementLineIsWhole) {
  // Between `case state is` and `end case;` every line is a state label or
  // exactly one complete assignment: a glue net whose operands are not
  // available in a state must leave no partial line behind.
  const std::regex label(R"(\s*when \d+ =>)");
  for_each_grid_rtl([&](const std::string& where, const std::string& v) {
    for (const std::string& line : case_lines(v)) {
      if (std::regex_match(line, label)) continue;
      std::size_t assignments = 0;
      for (const char* op : {":=", "<="}) {
        for (std::size_t p = line.find(op); p != std::string::npos;
             p = line.find(op, p + 2)) {
          ++assignments;
        }
      }
      EXPECT_EQ(assignments, 1u) << where << ": " << line;
      EXPECT_TRUE(!line.empty() && line.back() == ';') << line;
    }
  });
}

/// A variable reference `v_<name>` or `v_<name>(<hi> downto <lo>)` at
/// line[pos]; advances pos past it. A reference without a range covers the
/// whole variable, of declared width `width`.
struct VarRef {
  std::string name;
  std::uint64_t bits = 0;
};
VarRef var_ref(const std::string& line, std::size_t& pos,
               const std::map<std::string, unsigned>& width) {
  VarRef r;
  const std::size_t start = pos;
  const auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while (pos < line.size() && word(line[pos])) ++pos;
  r.name = line.substr(start, pos - start);
  const auto w = width.find(r.name);
  unsigned hi = 0, lo = 0;
  if (std::sscanf(line.c_str() + pos, "(%u downto %u)", &hi, &lo) == 2) {
    pos = line.find(')', pos) + 1;
  } else if (w != width.end()) {
    hi = w->second - 1;
  }
  r.bits = truncate(~std::uint64_t{0}, hi - lo + 1) << lo;
  return r;
}

TEST(RtlEmit, EveryVariableBitReadWasAssignedEarlierInItsState) {
  // VHDL process variables keep their value between activations, so a
  // state that reads a v_ variable bit none of its earlier lines assigned
  // reads whatever another state left there. Checked over the registry grid.
  std::size_t stale_designs = 0, designs = 0;
  for_each_grid_rtl([&](const std::string& where, const std::string& v) {
    std::map<std::string, unsigned> width;  // declared variables
    for (std::size_t p = v.find("    variable v_"); p != std::string::npos;
         p = v.find("    variable v_", p + 1)) {
      unsigned hi = 0;
      const std::size_t colon = v.find(':', p);
      std::sscanf(v.c_str() + colon, ": std_logic_vector(%u downto 0)", &hi);
      width[v.substr(p + 13, colon - (p + 13))] = hi + 1;
    }
    ++designs;
    std::map<std::string, std::uint64_t> assigned;
    std::string first_stale;
    for (const std::string& line : case_lines(v)) {
      std::size_t pos = line.find_first_not_of(' ');
      if (line.compare(pos, 5, "when ") == 0) {
        assigned.clear();
        continue;
      }
      std::optional<VarRef> target;
      if (line.compare(pos, 2, "v_") == 0) target = var_ref(line, pos, width);
      for (std::size_t p = line.find("v_", pos); p != std::string::npos;
           p = line.find("v_", p)) {
        if (std::isalnum(static_cast<unsigned char>(line[p - 1])) ||
            line[p - 1] == '_') {
          p += 2;
          continue;
        }
        const VarRef read = var_ref(line, p, width);
        if (width.count(read.name) != 0 &&
            (assigned[read.name] & read.bits) != read.bits &&
            first_stale.empty()) {
          first_stale = line;
        }
      }
      if (target) assigned[target->name] |= target->bits;
    }
    if (!first_stale.empty()) ++stale_designs;
    EXPECT_EQ(first_stale, "") << where;
  });
  EXPECT_EQ(stale_designs, 0u) << stale_designs << " of " << designs;
}

TEST(CycleSim, DeletingAnyGlueStatementMakesSimulationThrow) {
  // Every glue statement is read later in its block, so the interpreter
  // must notice each one missing.
  const Dfg d = diffeq();
  const InputValues in = [&] {
    InputValues v;
    for (NodeId id : d.inputs()) v[d.node(id).name] = 0x5A5A5A5A;
    return v;
  }();
  std::size_t deleted = 0;
  for (const unsigned latency : {4u, 5u, 6u}) {
    const FlowResult o = testutil::run_optimized(d, latency);
    const Netlist nl = lower_rtl(*o.transform, *o.schedule, o.report.datapath);
    ASSERT_EQ(simulate_netlist(nl, o.transform->spec, in), evaluate(d, in));
    for (std::uint32_t i = 0; i < nl.statements.size(); ++i) {
      const Statement& st = nl.statements[i];
      if (st.kind != Statement::Net ||
          !is_glue(o.transform->spec.node(NodeId{st.target}).kind)) {
        continue;
      }
      Netlist mutated = nl;
      mutated.statements.erase(mutated.statements.begin() + i);
      for (std::uint32_t& b : mutated.block) b -= b > i ? 1 : 0;
      try {
        simulate_netlist(mutated, o.transform->spec, in);
        ADD_FAILURE() << "L" << latency << ": statement " << i
                      << " deleted, simulation did not throw";
      } catch (const Error& e) {
        EXPECT_EQ(e.context().node, st.target) << e.what();
      }
      ++deleted;
    }
  }
  EXPECT_GT(deleted, 0u);
}

TEST(CycleSim, MissingSourceThrowsTheSameContextFromEmitAndSimulate) {
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  Datapath broken = o.report.datapath;
  const StoredRun dropped = broken.stored.front();
  broken.stored.erase(broken.stored.begin());
  const InputValues in{{"A", 11}, {"B", 22}, {"D", 33}, {"F", 44}};
  ErrorContext emitted, simulated;
  try {
    emit_rtl_vhdl(*o.transform, *o.schedule, broken);
  } catch (const Error& e) {
    emitted = e.context();
  }
  try {
    simulate_datapath(*o.transform, *o.schedule, broken, in);
  } catch (const Error& e) {
    simulated = e.context();
  }
  EXPECT_EQ(emitted, simulated);
  EXPECT_EQ(emitted.node, dropped.node.index);
  EXPECT_TRUE(dropped.bits.contains(emitted.bit)) << emitted.bit;
  EXPECT_GT(emitted.cycle, dropped.produced);
  EXPECT_LE(emitted.cycle, dropped.last_use);
}

} // namespace
} // namespace hls
