#include "rtl/rtl_emit.hpp"

#include <charconv>
#include <string_view>

#include "rtl/names.hpp"
#include "rtl/netlist.hpp"

namespace hls {

namespace {

/// The emitted text, with integers appended through std::to_chars.
struct Text {
  std::string s;
  Text& operator<<(std::string_view v) { s.append(v); return *this; }
  Text& operator<<(std::uint64_t v) {
    char buf[24];
    s.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
};

void declare(Text& os, unsigned width) {
  os << "std_logic_vector(" << width - 1 << " downto 0);\n";
}

Text& range(Text& os, unsigned lo, unsigned width) {
  return os << "(" << lo + width - 1 << " downto " << lo << ")";
}

} // namespace

std::string emit_rtl_vhdl(const TransformResult& t, const FragSchedule& fs,
                          const Datapath& dp) {
  const Netlist nl = lower_rtl(t, fs, dp);
  const Dfg& dfg = t.spec;
  const std::vector<std::string> names = node_names(dfg);
  Text os;
  // Operand k of `st`, MSB-first, parenthesized when it has several slices.
  const auto operand = [&](const Statement& st, unsigned k) {
    const Slice* first = nl.slices.data() + st.at[k];
    const Slice* last = nl.slices.data() + st.at[k + 1];
    if (last - first > 1) os << "(";
    for (const Slice* s = last; s-- != first;) {
      if (s + 1 != last) os << " & ";
      if (s->kind == Slice::Zero || s->kind == Slice::One) {
        const char bit = s->kind == Slice::One ? '1' : '0';
        os.s.append(1, '"').append(s->width, bit).append(1, '"');
      } else if (s->kind == Slice::Reg) {
        range(os << "r" << s->id, s->lo, s->width);
      } else {
        os << (s->kind == Slice::Net ? "v_" : "") << names[s->id];
        range(os, s->lo, s->width);
      }
    }
    if (last - first > 1) os << ")";
  };
  const auto statement = [&](const Statement& st) {
    const Node* n = st.kind == Statement::Net ? &dfg.node(NodeId{st.target})
                                              : nullptr;
    const bool add = n != nullptr && n->kind == OpKind::Add;
    os << "          ";
    if (st.kind == Statement::Load) {
      range(os << "r" << st.target, st.lo, st.width) << " <= ";
    } else if (st.kind == Statement::Latch) {
      os << names[st.target] << "_r <= ";
    } else {
      // A glue run short of the whole net assigns a slice of the variable.
      os << "v_" << names[st.target];
      if (st.width != n->width) range(os, st.lo, st.width);
      os << " := "
         << (add ? "std_logic_vector(" : n->kind == OpKind::Not ? "not " : "");
    }
    // An addition: std_logic_vector(unsigned(a) + unsigned(b) [+ ...]);
    // glue: "a <op> b" or "not a", in VHDL's spelling.
    for (unsigned k = 0; k < st.operands; ++k) {
      if (k > 0) os << " " << (add ? "+" : op_name(n->kind)) << " ";
      os << (add ? "unsigned(" : "");
      operand(st, k);
      os << (add ? ")" : "");
    }
    os << (add ? ");\n" : ";\n");
  };

  const std::string entity = sanitize_id(dfg.name(), "design") + "_rtl";
  os << "library ieee;\nuse ieee.std_logic_1164.all;\n"
     << "use ieee.numeric_std.all;\n\nentity " << entity << " is\n"
     << "port (clk: in std_logic;\n      rst: in std_logic;\n";
  for (const auto& [ports, mode] : {std::pair{dfg.inputs(), ": in "},
                                     std::pair{dfg.outputs(), ": out "}}) {
    for (NodeId id : ports) {
      declare(os << "      " << names[id.index] << mode, dfg.node(id).width);
    }
  }
  os << "      done: out std_logic);\nend " << entity << ";\n\n"
     << "architecture rtl of " << entity << " is\n"
     << "  signal state: natural range 0 to " << nl.states - 1 << " := 0;\n";
  for (std::size_t r = 0; r < dp.regs.size(); ++r) {
    declare(os << "  signal r" << r << ": ", dp.regs[r].width);
  }
  for (NodeId id : dfg.outputs()) {
    declare(os << "  signal " << names[id.index] << "_r: ", dfg.node(id).width);
  }
  os << "begin\n";
  for (NodeId id : dfg.outputs()) {
    os << "  " << names[id.index] << " <= " << names[id.index] << "_r;\n";
  }
  os << "  done <= '1' when state = " << nl.states - 1 << " else '0';\n\n"
     << "  main: process(clk)\n";
  for (std::uint32_t i = 0; i < dfg.size(); ++i) {
    const Node& n = dfg.node(NodeId{i});
    if (n.kind == OpKind::Add || is_glue(n.kind)) {
      declare(os << "    variable v_" << names[i] << ": ", n.width);
    }
  }
  os << "  begin\n    if rising_edge(clk) then\n"
     << "      if rst = '1' then\n        state <= 0;\n      else\n"
     << "        case state is\n";
  for (unsigned c = 0; c < nl.states; ++c) {
    os << "        when " << c << " =>\n";
    for (std::uint32_t i = nl.block[c]; i < nl.block[c + 1]; ++i) {
      statement(nl.statements[i]);
    }
    os << "          state <= " << (c + 1 == nl.states ? 0 : c + 1) << ";\n";
  }
  os << "        end case;\n      end if;\n    end if;\n"
     << "  end process main;\nend rtl;\n";
  return std::move(os.s);
}

} // namespace hls
