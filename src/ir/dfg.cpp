#include "ir/dfg.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace hls {

void Dfg::check_node(const Node& n, std::size_t prefix) const {
  HLS_REQUIRE(n.width > 0, "node width must be positive (node '" + n.name + "')");
  HLS_REQUIRE(n.width <= 64, "node width must be <= 64 for evaluability");

  const int arity = op_arity(n.kind);
  if (arity >= 0) {
    HLS_REQUIRE(static_cast<int>(n.operands.size()) == arity,
                strformat("%s expects %d operands, got %zu",
                          std::string(op_name(n.kind)).c_str(), arity,
                          n.operands.size()));
  } else if (n.kind == OpKind::Add) {
    HLS_REQUIRE(n.operands.size() == 2 || n.operands.size() == 3,
                "add expects 2 operands plus optional carry-in");
    if (n.operands.size() == 3) {
      HLS_REQUIRE(n.operands[2].bits.width == 1, "carry-in must be 1 bit wide");
    }
  } else if (n.kind == OpKind::Concat) {
    HLS_REQUIRE(!n.operands.empty(), "concat needs at least one operand");
    unsigned total = 0;
    for (const Operand& o : n.operands) total += o.bits.width;
    HLS_REQUIRE(total == n.width, "concat width must equal sum of operand widths");
  }

  if (is_comparison(n.kind)) {
    HLS_REQUIRE(n.width == 1, "comparison result must be 1 bit wide");
  }

  for (const Operand& o : n.operands) {
    HLS_REQUIRE(o.node.valid() && o.node.index < prefix,
                "operand references a node that does not exist yet "
                "(topological order violated?)");
    const Node& producer = nodes_[o.node.index];
    HLS_REQUIRE(producer.kind != OpKind::Output, "outputs cannot be read back");
    HLS_REQUIRE(!o.bits.empty(), "operand slice must be non-empty");
    HLS_REQUIRE(o.bits.hi() <= producer.width,
                strformat("operand slice %s exceeds producer '%s' width %u",
                          to_string(o.bits).c_str(), producer.name.c_str(),
                          producer.width));
  }
}

NodeId Dfg::add_node(Node n) {
  check_node(n, nodes_.size());
  nodes_.push_back(std::move(n));
  digest_.clear();
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

NodeId Dfg::add_input(std::string name, unsigned width, bool is_signed) {
  HLS_REQUIRE(!find_port(name).has_value(), "duplicate port name '" + name + "'");
  Node n;
  n.kind = OpKind::Input;
  n.width = width;
  n.is_signed = is_signed;
  n.name = std::move(name);
  return add_node(std::move(n));
}

NodeId Dfg::add_const(std::uint64_t value, unsigned width) {
  HLS_REQUIRE(width == 64 || value < (std::uint64_t{1} << width),
              "constant does not fit its width");
  Node n;
  n.kind = OpKind::Const;
  n.width = width;
  n.value = value;
  return add_node(std::move(n));
}

NodeId Dfg::add_output(std::string name, Operand value) {
  HLS_REQUIRE(!find_port(name).has_value(), "duplicate port name '" + name + "'");
  Node n;
  n.kind = OpKind::Output;
  n.width = value.bits.width;
  n.name = std::move(name);
  n.operands = {value};
  return add_node(std::move(n));
}

NodeId Dfg::add_op(OpKind kind, unsigned width, Operand a, Operand b,
                   bool is_signed) {
  Node n;
  n.kind = kind;
  n.width = width;
  n.is_signed = is_signed;
  n.operands = {a, b};
  return add_node(std::move(n));
}

NodeId Dfg::add_op(OpKind kind, unsigned width, Operand a, bool is_signed) {
  Node n;
  n.kind = kind;
  n.width = width;
  n.is_signed = is_signed;
  n.operands = {a};
  return add_node(std::move(n));
}

NodeId Dfg::add_add_cin(unsigned width, Operand a, Operand b, Operand cin) {
  Node n;
  n.kind = OpKind::Add;
  n.width = width;
  n.operands = {a, b, cin};
  return add_node(std::move(n));
}

NodeId Dfg::add_concat(std::vector<Operand> lsb_first) {
  unsigned total = 0;
  for (const Operand& o : lsb_first) total += o.bits.width;
  Node n;
  n.kind = OpKind::Concat;
  n.width = total;
  n.operands = std::move(lsb_first);
  return add_node(std::move(n));
}

Operand Dfg::slice(NodeId id, BitRange r) const {
  HLS_REQUIRE(r.hi() <= node(id).width, "slice exceeds node width");
  return Operand{id, r};
}

std::vector<NodeId> Dfg::inputs() const {
  std::vector<NodeId> out;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == OpKind::Input) out.push_back(NodeId{i});
  }
  return out;
}

std::vector<NodeId> Dfg::outputs() const {
  std::vector<NodeId> out;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == OpKind::Output) out.push_back(NodeId{i});
  }
  return out;
}

std::vector<NodeId> Dfg::operations() const {
  std::vector<NodeId> out;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const OpKind k = nodes_[i].kind;
    if (!is_structural(k) && !is_glue(k)) out.push_back(NodeId{i});
  }
  return out;
}

std::optional<NodeId> Dfg::find_port(const std::string& name) const {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if ((n.kind == OpKind::Input || n.kind == OpKind::Output) && n.name == name) {
      return NodeId{i};
    }
  }
  return std::nullopt;
}

std::size_t Dfg::additive_op_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const Node& n) { return is_additive(n.kind); }));
}

void Dfg::verify() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) check_node(nodes_[i], i);
}

} // namespace hls
