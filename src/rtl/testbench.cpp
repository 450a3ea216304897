#include "rtl/testbench.hpp"

#include <random>
#include <sstream>

#include "rtl/names.hpp"
#include "support/strings.hpp"

namespace hls {

namespace {

std::string bin(std::uint64_t v, unsigned w) {
  std::string s;
  for (unsigned b = w; b-- > 0;) s += ((v >> b) & 1) ? '1' : '0';
  return "\"" + s + "\"";
}

} // namespace

std::string emit_testbench(const TransformResult& t, unsigned vectors,
                           std::uint64_t rng_seed) {
  const Dfg& dfg = t.spec;
  const std::string dut = sanitize_id(dfg.name(), "design") + "_rtl";
  // The DUT's own port names (emit_rtl_vhdl names nodes the same way).
  const std::vector<std::string> names = node_names(dfg);
  std::mt19937_64 rng(rng_seed);

  // Stimulus and golden responses.
  std::vector<InputValues> stim(vectors);
  std::vector<OutputValues> gold(vectors);
  for (unsigned v = 0; v < vectors; ++v) {
    for (NodeId id : dfg.inputs()) stim[v][dfg.node(id).name] = rng();
    gold[v] = evaluate(dfg, stim[v]);
  }

  std::ostringstream os;
  os << "library ieee;\nuse ieee.std_logic_1164.all;\n\n";
  os << "entity " << dut << "_tb is\nend " << dut << "_tb;\n\n";
  os << "architecture tb of " << dut << "_tb is\n";
  os << "  signal clk: std_logic := '0';\n  signal rst: std_logic := '1';\n";
  os << "  signal done: std_logic;\n";
  for (NodeId id : dfg.inputs()) {
    os << "  signal " << names[id.index] << ": std_logic_vector("
       << dfg.node(id).width - 1 << " downto 0);\n";
  }
  for (NodeId id : dfg.outputs()) {
    os << "  signal " << names[id.index] << ": std_logic_vector("
       << dfg.node(id).width - 1 << " downto 0);\n";
  }
  os << "begin\n";
  os << "  clk <= not clk after 5 ns;\n\n";
  os << "  dut: entity work." << dut << " port map (clk => clk, rst => rst";
  for (NodeId id : dfg.inputs()) {
    os << ", " << names[id.index] << " => " << names[id.index];
  }
  for (NodeId id : dfg.outputs()) {
    os << ", " << names[id.index] << " => " << names[id.index];
  }
  os << ", done => done);\n\n";
  os << "  stimulus: process\n  begin\n";
  os << "    rst <= '1';\n    wait for 12 ns;\n    rst <= '0';\n";
  for (unsigned v = 0; v < vectors; ++v) {
    os << "    -- vector " << v << "\n";
    for (NodeId id : dfg.inputs()) {
      const Node& n = dfg.node(id);
      os << "    " << names[id.index] << " <= "
         << bin(truncate(stim[v].at(n.name), n.width), n.width) << ";\n";
    }
    // One full iteration: latency rising edges.
    os << "    for i in 1 to " << t.latency << " loop wait until "
          "rising_edge(clk); end loop;\n";
    for (NodeId id : dfg.outputs()) {
      const Node& n = dfg.node(id);
      os << "    assert " << names[id.index] << " = "
         << bin(gold[v].at(n.name), n.width) << " report \"vector " << v
         << ": " << names[id.index] << " mismatch\" severity error;\n";
    }
  }
  os << "    report \"testbench finished: " << vectors
     << " vectors\" severity note;\n";
  os << "    wait;\n  end process stimulus;\nend tb;\n";
  return os.str();
}

} // namespace hls
