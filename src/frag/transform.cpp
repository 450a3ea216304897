#include "frag/transform.hpp"

#include <algorithm>

#include "timing/critical_path.hpp"

namespace hls {

namespace {

/// Sub-slice of an already-resolved operand: bits [lo, hi) of the operand's
/// zero-extended value. Returns an empty-width operand when the range lies
/// entirely in the zero-extension region.
Operand subslice(const Operand& o, unsigned lo, unsigned hi) {
  if (lo >= o.bits.width) return Operand{o.node, BitRange{}};
  const unsigned clipped_hi = std::min(hi, o.bits.width);
  return Operand{o.node, BitRange{o.bits.lo + lo, clipped_hi - lo}};
}

class Materializer {
public:
  Materializer(const Dfg& kernel, const std::vector<Fragment>& fragments)
      : in_(kernel), out_(kernel.name() + ".opt"), frags_by_op_(kernel.size()) {
    for (const Fragment& f : fragments) frags_by_op_[f.op.index].push_back(f);
  }

  TransformResult run(unsigned latency, unsigned n_bits, unsigned critical);

private:
  Operand mapped(const Operand& o) const {
    HLS_ASSERT(map_[o.node.index].valid(), "operand not yet materialized");
    return Operand{map_[o.node.index], o.bits};
  }

  NodeId copy_node(const Node& n);
  NodeId materialize_fragments(std::uint32_t idx, const Node& n,
                               const std::vector<Fragment>& frags,
                               std::vector<TransformedAdd>& adds);

  const Dfg& in_;
  Dfg out_;
  std::vector<NodeId> map_;
  std::vector<std::vector<Fragment>> frags_by_op_;  ///< per kernel node
};

NodeId Materializer::copy_node(const Node& n) {
  Node copy;
  copy.kind = n.kind;
  copy.width = n.width;
  copy.is_signed = n.is_signed;
  copy.name = n.name;
  copy.value = n.value;
  copy.operands.reserve(n.operands.size());
  for (const Operand& o : n.operands) copy.operands.push_back(mapped(o));
  return out_.add_node(std::move(copy));
}

NodeId Materializer::materialize_fragments(std::uint32_t idx, const Node& n,
                                           const std::vector<Fragment>& frags,
                                           std::vector<TransformedAdd>& adds) {
  const Operand a = mapped(n.operands[0]);
  const Operand b = mapped(n.operands[1]);

  Operand carry =
      n.has_carry_in() ? mapped(n.operands[2]) : Operand{kInvalidNode, BitRange{}};
  std::vector<Operand> result_parts;
  result_parts.reserve(frags.size());

  for (std::size_t j = 0; j < frags.size(); ++j) {
    const Fragment& f = frags[j];
    const unsigned lo = f.bits.lo;
    const unsigned hi = f.bits.hi();
    const unsigned m = f.bits.width;
    const bool last = j + 1 == frags.size();
    // Non-final fragments expose their carry-out as an extra MSB, the way
    // Fig. 2 a) writes C(6 downto 0) for a 6-bit fragment.
    const unsigned add_width = last ? m : m + 1;

    const Operand as = subslice(a, lo, hi);
    const Operand bs = subslice(b, lo, hi);
    const bool have_carry = carry.node.valid();

    NodeId frag_node;
    if (as.bits.empty() && bs.bits.empty()) {
      // Both operands are zero here: the fragment only propagates carry.
      // 0 + 0 + cin = cin, which is wiring, not an adder.
      const Operand cin_val =
          have_carry ? carry : out_.whole(out_.add_const(0, 1));
      if (add_width == 1) {
        frag_node = out_.add_concat({cin_val});
      } else {
        frag_node = out_.add_concat(
            {cin_val, out_.whole(out_.add_const(0, add_width - 1))});
      }
    } else {
      Node add;
      add.kind = OpKind::Add;
      add.width = add_width;
      const Operand zero1 = as.bits.empty() || bs.bits.empty()
                                ? out_.whole(out_.add_const(0, 1))
                                : Operand{};
      add.operands = {as.bits.empty() ? zero1 : as, bs.bits.empty() ? zero1 : bs};
      if (have_carry) add.operands.push_back(carry);
      if (!n.name.empty()) {
        add.name = n.name + to_string(f.bits);
      }
      frag_node = out_.add_node(std::move(add));
      adds.push_back(TransformedAdd{frag_node, NodeId{idx}, f.bits, f.asap, f.alap});
    }

    result_parts.push_back(Operand{frag_node, BitRange{0, m}});
    if (!last) carry = Operand{frag_node, BitRange{m, 1}};
  }

  if (result_parts.size() == 1) return result_parts.front().node;
  return out_.add_concat(std::move(result_parts));
}

TransformResult Materializer::run(unsigned latency, unsigned n_bits,
                                  unsigned critical) {
  TransformResult result;
  result.latency = latency;
  result.n_bits = n_bits;
  result.critical_time = critical;

  map_.assign(in_.size(), kInvalidNode);
  for (std::uint32_t idx = 0; idx < in_.size(); ++idx) {
    const Node& n = in_.node(NodeId{idx});
    if (n.kind != OpKind::Add) {
      map_[idx] = copy_node(n);
      continue;
    }
    const std::vector<Fragment>& frags = frags_by_op_[idx];
    HLS_ASSERT(!frags.empty(), "every add has at least one fragment");
    if (frags.size() == 1) {
      const NodeId copied = copy_node(n);
      map_[idx] = copied;
      result.adds.push_back(TransformedAdd{copied, NodeId{idx}, frags[0].bits,
                                           frags[0].asap, frags[0].alap});
      continue;
    }
    result.fragmented_op_count++;
    map_[idx] = materialize_fragments(idx, n, frags, result.adds);
  }

  result.spec = std::move(out_);
  result.spec.verify();
  return result;
}

} // namespace

TransformPrep prepare_transform(const Dfg& kernel_in) {
  // Label adds that directly drive output ports with the port name, so the
  // fragments come out as "G(3 downto 0)" in dumps and emitted VHDL, the
  // way the paper's Fig. 2 a) writes them.
  TransformPrep prep;
  prep.kernel = kernel_in;
  Dfg& kernel = prep.kernel;
  for (NodeId out : kernel.outputs()) {
    const Operand& o = kernel.node(out).operands[0];
    if (kernel.node(o.node).kind == OpKind::Add &&
        kernel.node(o.node).name.empty()) {
      kernel.rename_node(o.node, kernel.node(out).name);
    }
  }

  // The §3.2 walk is a path abstraction; floor it with the exact bit-level
  // arrival so the estimated budget is always feasible.
  prep.critical = std::max(critical_path(kernel).time,
                           max_arrival(bit_arrival_times(kernel)));
  return prep;
}

TransformResult transform_prepared(const TransformPrep& prep, unsigned latency,
                                   unsigned n_bits) {
  const BitWindows windows =
      BitWindows::compute(prep.kernel, latency, n_bits);
  const std::vector<Fragment> fragments =
      fragment_operations(prep.kernel, windows);
  Materializer m(prep.kernel, fragments);
  return m.run(latency, n_bits, prep.critical);
}

TransformResult transform_spec(const Dfg& kernel_in, unsigned latency,
                               unsigned n_bits_override,
                               const DelayModel& delay) {
  const TransformPrep prep = prepare_transform(kernel_in);
  const unsigned n_bits =
      n_bits_override != 0
          ? n_bits_override
          : estimate_cycle_budget(prep.critical, latency, delay);
  return transform_prepared(prep, latency, n_bits);
}

} // namespace hls
