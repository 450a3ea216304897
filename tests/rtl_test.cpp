// Tests for the RTL layer: gate model calibration points from Table I and
// the VHDL emitter.

#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <regex>
#include <set>
#include <sstream>

#include "ir/builder.hpp"
#include "ir/eval.hpp"
#include "testutil.hpp"
#include "rtl/area.hpp"
#include "rtl/vhdl.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

TEST(GateModel, TableICalibrationPoints) {
  const GateModel gm;
  EXPECT_EQ(gm.adder(16), 162u);          // Table I: 16-bit adder, 162 gates
  EXPECT_EQ(3 * gm.adder(16), 486u);      // BLC row: 3 adders
  EXPECT_EQ(gm.register_(1) * 5, 55u);    // 5 one-bit registers, 55 gates
  EXPECT_EQ(gm.controller(1, 0), 32u);    // BLC controller: 32 gates
  EXPECT_EQ(gm.controller(3, 0), 60u);    // conventional controller: 60
  // Mux constants solved from Table I's routing rows: 3/bit for 2:1,
  // 4/bit for 3:1.
  EXPECT_EQ(gm.mux(2, 1), 3u);
  EXPECT_EQ(gm.mux(3, 16), 64u);
  EXPECT_EQ(gm.mux(1, 16), 0u);  // single source: wire, not a mux
}

TEST(GateModel, MonotoneInWidthAndInputs) {
  const GateModel gm;
  for (unsigned w = 1; w < 32; ++w) {
    EXPECT_LT(gm.adder(w), gm.adder(w + 1));
    EXPECT_LT(gm.register_(w), gm.register_(w + 1));
    EXPECT_LT(gm.mux(2, w), gm.mux(3, w));
  }
  EXPECT_LT(gm.adder(16), gm.subtractor(16));
  EXPECT_GT(gm.multiplier(16, 16), 10 * gm.adder(16));
}

TEST(GateModel, FuDispatch) {
  const GateModel gm;
  EXPECT_EQ(gm.fu(FuInstance{FuClass::Adder, 16, 0, {}}), gm.adder(16));
  EXPECT_EQ(gm.fu(FuInstance{FuClass::Multiplier, 8, 12, {}}),
            gm.multiplier(8, 12));
  EXPECT_EQ(gm.fu(FuInstance{FuClass::Comparator, 8, 0, {}}), gm.comparator(8));
}

TEST(AreaOf, SumsComponentsAndController) {
  Datapath dp;
  dp.fus = {FuInstance{FuClass::Adder, 6, 0, {}},
            FuInstance{FuClass::Adder, 6, 0, {}}};
  dp.regs = {RegInstance{1, 0, 0}, RegInstance{2, 0, 1}};
  dp.muxes = {MuxInstance{3, 6}};
  dp.states = 3;
  dp.control_signals = 7;
  const GateModel gm;
  const AreaBreakdown a = area_of(dp, gm);
  EXPECT_EQ(a.fu_gates, 2 * gm.adder(6));
  EXPECT_EQ(a.reg_gates, gm.register_(1) + gm.register_(2));
  EXPECT_EQ(a.mux_gates, gm.mux(3, 6));
  EXPECT_EQ(a.controller_gates, gm.controller(3, 7));
  EXPECT_EQ(a.total(),
            a.fu_gates + a.reg_gates + a.mux_gates + a.controller_gates);
}

TEST(Vhdl, EmitsEntityPortsAndProcess) {
  const std::string v = emit_vhdl(motivational());
  EXPECT_NE(v.find("entity example is"), std::string::npos);
  EXPECT_NE(v.find("A: in std_logic_vector(15 downto 0);"), std::string::npos);
  EXPECT_NE(v.find("G: out std_logic_vector(15 downto 0));"), std::string::npos);
  EXPECT_NE(v.find("main: process"), std::string::npos);
  EXPECT_NE(v.find("end process main;"), std::string::npos);
}

TEST(Vhdl, TransformedSpecUsesSlicedOperandsAndCarries) {
  // Fig. 2 a) shape: zero-padded slices and carry-in additions.
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const std::string v = emit_vhdl(o.transform->spec, "beh2");
  EXPECT_NE(v.find("architecture beh2"), std::string::npos);
  // A 6-bit slice of A zero-extended into a 7-bit addition.
  EXPECT_NE(v.find("(\"0\" & A(5 downto 0))"), std::string::npos);
  // Some addition consumes a single carry bit (+ x(6) style operand).
  EXPECT_NE(v.find("(6)"), std::string::npos);
}

TEST(Vhdl, ConstantsInlineAsBinaryLiterals) {
  SpecBuilder b("k");
  const Val x = b.in("x", 4);
  b.out("o", b.add(x, b.cst(5, 4), 4));
  const std::string v = emit_vhdl(b.dfg());
  EXPECT_NE(v.find("\"0101\""), std::string::npos);
}

TEST(Vhdl, OperatorsRenderWithVhdlSpelling) {
  SpecBuilder b("ops");
  const Val x = b.in("x", 8), y = b.in("y", 8);
  b.out("s", x - y);
  b.out("p", b.mul(x, y, 8));
  b.out("l", x & y);
  b.out("n", ~x);
  b.out("c", x != y);
  const std::string v = emit_vhdl(b.dfg());
  EXPECT_NE(v.find(" - "), std::string::npos);
  EXPECT_NE(v.find(" * "), std::string::npos);
  EXPECT_NE(v.find(" and "), std::string::npos);
  EXPECT_NE(v.find("not "), std::string::npos);
  EXPECT_NE(v.find(" /= "), std::string::npos);
}

TEST(Vhdl, NamesAreSanitizedAndUnique) {
  // Fragment names contain "(15 downto 12)" style text that must flatten to
  // identifiers; duplicates get suffixes.
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const std::string v = emit_vhdl(o.transform->spec);
  EXPECT_EQ(v.find("downto 0)("), std::string::npos);  // no nested slices
  // Declared variable names must be identifier-shaped (spot check one).
  EXPECT_NE(v.find("variable G_3_downto_0"), std::string::npos);
}

} // namespace
} // namespace hls

// -- appended: testbench generator tests -------------------------------------
#include "rtl/rtl_emit.hpp"
#include "rtl/testbench.hpp"

namespace hls {
namespace {

TEST(Testbench, SelfCheckingShape) {
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const std::string tb = emit_testbench(*o.transform, 3, 42);
  EXPECT_NE(tb.find("entity example_opt_rtl_tb is"), std::string::npos);
  EXPECT_NE(tb.find("dut: entity work.example_opt_rtl"), std::string::npos);
  EXPECT_NE(tb.find("clk <= not clk after 5 ns;"), std::string::npos);
  // Three vectors, each asserting G.
  std::size_t asserts = 0;
  for (std::size_t p = tb.find("assert G ="); p != std::string::npos;
       p = tb.find("assert G =", p + 1)) {
    asserts++;
  }
  EXPECT_EQ(asserts, 3u);
  // One full latency wait per vector.
  EXPECT_NE(tb.find("for i in 1 to 3 loop"), std::string::npos);
}

TEST(Testbench, GoldenValuesMatchEvaluator) {
  // The generated expected literal must equal the evaluator's result for
  // the same seeded stimulus.
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const std::string tb = emit_testbench(*o.transform, 1, 7);
  std::mt19937_64 rng(7);
  InputValues in;
  for (NodeId id : o.transform->spec.inputs()) {
    in[o.transform->spec.node(id).name] = rng();
  }
  const std::uint64_t g = evaluate(o.transform->spec, in).at("G");
  std::string bits;
  for (unsigned b = 16; b-- > 0;) bits += ((g >> b) & 1) ? '1' : '0';
  EXPECT_NE(tb.find("assert G = \"" + bits + "\""), std::string::npos);
}

TEST(Testbench, EmitsForEverySuite) {
  for (const SuiteEntry& s : all_suites()) {
    const FlowResult o =
        testutil::run_optimized(s.build(), s.latencies.front());
    const std::string tb = emit_testbench(*o.transform, 2, 1);
    EXPECT_NE(tb.find("end tb;"), std::string::npos) << s.name;
  }
}

/// The port names an RTL entity declares, in order ("      a: in ...").
std::vector<std::string> entity_ports(const std::string& rtl) {
  std::vector<std::string> ports;
  std::istringstream in(rtl.substr(0, rtl.find("end ")));
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t start = line.rfind('(', colon);
    start = start == std::string::npos ? 0 : start + 1;
    const std::size_t first = line.find_first_not_of(' ', start);
    ports.push_back(line.substr(first, colon - first));
  }
  return ports;
}

/// The formal names of a testbench's DUT port map, each checked to be
/// mapped to a declared signal of the same name.
std::vector<std::string> port_map_formals(const std::string& tb) {
  const std::size_t open = tb.find("port map (");
  EXPECT_NE(open, std::string::npos);
  const std::size_t close = tb.find(");", open);
  std::vector<std::string> formals;
  std::istringstream in(tb.substr(open + 10, close - open - 10));
  std::string assoc;
  while (std::getline(in, assoc, ',')) {
    const std::size_t first = assoc.find_first_not_of(' ');
    const std::size_t arrow = assoc.find(" => ");
    const std::string formal = assoc.substr(first, arrow - first);
    EXPECT_EQ(assoc.substr(arrow + 4), formal);
    if (formal != "clk" && formal != "rst" && formal != "done") {
      EXPECT_NE(tb.find("  signal " + formal + ": "), std::string::npos)
          << formal;
    }
    formals.push_back(formal);
  }
  return formals;
}

/// Every identifier the RTL declares (entity ports, signals, process
/// variables), checked to be distinct case-insensitively, as VHDL compares
/// identifiers.
void expect_distinct_declarations(const std::string& rtl,
                                  const std::string& where) {
  std::vector<std::string> names = entity_ports(rtl);
  std::istringstream in(rtl.substr(rtl.find("architecture ")));
  std::string line;
  while (std::getline(in, line)) {
    for (const std::string kind : {"  signal ", "    variable "}) {
      if (line.rfind(kind, 0) == 0) {
        names.push_back(line.substr(kind.size(), line.find(':') - kind.size()));
      }
    }
  }
  std::set<std::string> seen;
  for (std::string name : names) {
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    EXPECT_TRUE(seen.insert(name).second) << where << ": " << name;
  }
}

/// Every identifier a VHDL text declares (entity and architecture names,
/// ports, signals, variables and labels), checked to be a basic identifier
/// that starts with a letter.
void expect_declarations_start_with_letters(const std::string& vhdl,
                                            const std::string& where) {
  static const std::regex declaration(
      R"(entity (\w+) is|architecture (\w+) of (\w+) is|)"
      R"((?:signal|variable) (\w+):|(\w+): (?:in|out|process|entity)\b)");
  for (std::sregex_iterator m(vhdl.begin(), vhdl.end(), declaration), end;
       m != end; ++m) {
    for (std::size_t g = 1; g < m->size(); ++g) {
      const std::string id = (*m)[g].str();
      if (id.empty()) continue;
      EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(id.front())))
          << where << ": " << id;
    }
  }
}

/// The entity's ports, checked against the testbench's port map and for
/// distinct declarations. Every identifier the RTL, its testbench and the
/// behavioural VHDL of the transformed spec declare starts with a letter.
std::vector<std::string> checked_ports(const FlowResult& o,
                                       const std::string& where) {
  const std::string rtl =
      emit_rtl_vhdl(*o.transform, *o.schedule, o.report.datapath);
  const std::string tb = emit_testbench(*o.transform, 1, 3);
  expect_distinct_declarations(rtl, where);
  expect_declarations_start_with_letters(rtl, where);
  expect_declarations_start_with_letters(tb, where);
  expect_declarations_start_with_letters(emit_vhdl(o.transform->spec), where);
  const std::vector<std::string> ports = entity_ports(rtl);
  EXPECT_EQ(port_map_formals(tb), ports) << where;
  return ports;
}

TEST(Testbench, PortMapNamesTheEntitysPorts) {
  // "a" and "a_" sanitize to the same identifier; the RTL entity declares
  // them as a and a_1, and the testbench must map exactly those ports.
  SpecBuilder b("clash");
  const Val a = b.in("a", 8), a_ = b.in("a_", 8);
  b.out("s", a + a_);
  EXPECT_EQ(checked_ports(testutil::run_optimized(std::move(b).take(), 2),
                          "clash"),
            (std::vector<std::string>{"clk", "rst", "a", "a_1", "s", "done"}));

  // Ports named like the RTL's own clk, done, register r0 and output latch
  // G_r are renamed, and so are reserved words.
  SpecBuilder own("own");
  const Val clk = own.in("clk", 8), r0 = own.in("r0", 8);
  const Val g_r = own.in("G_r", 8);
  own.out("G", clk + r0);
  own.out("done", g_r + clk);
  // (The suffix is the node's index in the transformed spec.)
  EXPECT_EQ(checked_ports(testutil::run_optimized(std::move(own).take(), 2),
                          "own"),
            (std::vector<std::string>{"clk", "rst", "clk_0", "r0_1", "G_r",
                                      "G_6", "done_10", "done"}));
  SpecBuilder words("words");
  const Val sig = words.in("signal", 8), end = words.in("end", 8);
  words.out("out", sig + end);
  EXPECT_EQ(checked_ports(testutil::run_optimized(std::move(words).take(), 2),
                          "words"),
            (std::vector<std::string>{"clk", "rst", "signal_0", "end_1",
                                      "out_5", "done"}));

  // A basic identifier starts with a letter: leading digits of the design,
  // port and node names get an 'n' prefix.
  SpecBuilder digits("9lives");
  const Val x2 = digits.in("2x", 8), seven = digits.in("7", 8);
  digits.out("3out", x2 + seven);
  EXPECT_EQ(checked_ports(testutil::run_optimized(std::move(digits).take(), 2),
                          "digits"),
            (std::vector<std::string>{"clk", "rst", "n2x", "n7", "n3out",
                                      "done"}));

  // dct4 reads x0..x3 and writes X0..X3: one identifier each.
  const Dfg dct = dct4();
  for (const unsigned latency : {4u, 3u, 2u}) {
    const std::vector<std::string> ports =
        checked_ports(testutil::run_optimized(dct, latency),
                      "dct4 L" + std::to_string(latency));
    EXPECT_EQ(ports.size(), 11u);
  }
  for (const SuiteEntry& s : registry_suites()) {
    checked_ports(testutil::run_optimized(s.build(), s.latencies.front()),
                  s.name);
  }
}

} // namespace
} // namespace hls
