#include "rtl/vhdl.hpp"

#include <sstream>

#include "rtl/names.hpp"
#include "support/strings.hpp"

namespace hls {

namespace {

class Emitter {
public:
  explicit Emitter(const Dfg& dfg) : dfg_(dfg), names_(node_names(dfg)) {}

  std::string run(const std::string& architecture);

private:
  std::string slv(unsigned width) const {
    return strformat("std_logic_vector(%u downto 0)", width - 1);
  }

  std::string binary_literal(std::uint64_t v, unsigned w) const {
    std::string bits;
    for (unsigned b = w; b-- > 0;) bits += ((v >> b) & 1) ? '1' : '0';
    return "\"" + bits + "\"";
  }

  /// Operand as a VHDL expression, zero-padded to `target` bits when wider
  /// than the slice ("0" & A(5 downto 0), exactly the paper's style).
  std::string operand(const Operand& o, unsigned target) const {
    const Node& p = dfg_.node(o.node);
    if (p.kind == OpKind::Const) {
      // Constants are inlined as padded literals, never declared.
      const std::uint64_t sliced = (p.value >> o.bits.lo) &
                                   ((o.bits.width >= 64 ? 0 : (std::uint64_t{1} << o.bits.width)) - 1);
      return binary_literal(sliced, target);
    }
    std::string expr = names_[o.node.index];
    if (!(o.bits.lo == 0 && o.bits.width == p.width)) {
      expr += o.bits.width == 1 ? strformat("(%u)", o.bits.lo)
                                : strformat("(%u downto %u)", o.bits.msb(), o.bits.lo);
    }
    if (target > o.bits.width) {
      expr = binary_literal(0, target - o.bits.width) + " & " + expr;
      expr = "(" + expr + ")";
    }
    return expr;
  }

  std::string expression(const Node& n) const {
    auto bin = [&](const char* op) {
      return operand(n.operands[0], n.width) + " " + op + " " +
             operand(n.operands[1], n.width);
    };
    switch (n.kind) {
      case OpKind::Add: {
        std::string e = bin("+");
        if (n.has_carry_in()) e += " + " + operand(n.operands[2], 1);
        return e;
      }
      case OpKind::Sub: return bin("-");
      case OpKind::Mul:
        return operand(n.operands[0], n.operands[0].bits.width) + " * " +
               operand(n.operands[1], n.operands[1].bits.width);
      case OpKind::And: return bin("and");
      case OpKind::Or: return bin("or");
      case OpKind::Xor: return bin("xor");
      case OpKind::Not: return "not " + operand(n.operands[0], n.width);
      case OpKind::Neg: return "-" + operand(n.operands[0], n.width);
      case OpKind::Lt: return bin("<");
      case OpKind::Le: return bin("<=");
      case OpKind::Gt: return bin(">");
      case OpKind::Ge: return bin(">=");
      case OpKind::Eq: return bin("=");
      case OpKind::Ne: return bin("/=");
      case OpKind::Max:
        return "maximum(" + operand(n.operands[0], n.width) + ", " +
               operand(n.operands[1], n.width) + ")";
      case OpKind::Min:
        return "minimum(" + operand(n.operands[0], n.width) + ", " +
               operand(n.operands[1], n.width) + ")";
      case OpKind::Concat: {
        // VHDL concatenation is MSB-first; operands are stored LSB-first.
        std::vector<std::string> parts;
        for (auto it = n.operands.rbegin(); it != n.operands.rend(); ++it) {
          parts.push_back(operand(*it, it->bits.width));
        }
        return join(parts, " & ");
      }
      case OpKind::Const:
        return binary_literal(n.value, n.width);
      default:
        HLS_ASSERT(false, "unexpected node kind in VHDL expression");
    }
  }

  const Dfg& dfg_;
  std::vector<std::string> names_;
};

std::string Emitter::run(const std::string& architecture) {
  const std::string entity = sanitize_id(dfg_.name(), "design");
  std::ostringstream os;
  os << "entity " << entity << " is\n";
  os << "port (clk: in std_logic;\n";
  for (NodeId id : dfg_.inputs()) {
    const Node& n = dfg_.node(id);
    os << "  " << names_[id.index] << ": in " << slv(n.width) << ";\n";
  }
  const std::vector<NodeId> outs = dfg_.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Node& n = dfg_.node(outs[i]);
    os << "  " << names_[outs[i].index] << ": out " << slv(n.width)
       << (i + 1 == outs.size() ? ");\n" : ";\n");
  }
  os << "end " << entity << ";\n\n";
  os << "architecture " << architecture << " of " << entity << " is\n";
  os << "begin\n";
  os << "main: process\n";
  for (std::uint32_t i = 0; i < dfg_.size(); ++i) {
    const Node& n = dfg_.node(NodeId{i});
    if (is_structural(n.kind) && n.kind != OpKind::Concat) continue;
    os << "  variable " << names_[i] << ": " << slv(n.width) << ";\n";
  }
  os << "begin\n";
  for (std::uint32_t i = 0; i < dfg_.size(); ++i) {
    const Node& n = dfg_.node(NodeId{i});
    switch (n.kind) {
      case OpKind::Input:
      case OpKind::Const:
        break;
      case OpKind::Output:
        os << "  " << names_[i] << " <= "
           << operand(n.operands[0], n.operands[0].bits.width) << ";\n";
        break;
      default:
        os << "  " << names_[i] << " := " << expression(n) << ";\n";
        break;
    }
  }
  os << "end process main;\n";
  os << "end " << architecture << ";\n";
  return os.str();
}

} // namespace

std::string emit_vhdl(const Dfg& dfg, const std::string& architecture) {
  Emitter e(dfg);
  return e.run(architecture);
}

} // namespace hls
