#include "rtl/cycle_sim.hpp"

#include "support/strings.hpp"

namespace hls {

namespace {

constexpr unsigned kNever = 0xFFFFFFFFu;

class DatapathSim {
public:
  DatapathSim(const TransformResult& t, const FragSchedule& fs,
              const Datapath& dp, const InputValues& inputs)
      : dfg_(t.spec), runs_(dp.stored, t.spec.size()), latency_(t.latency) {
    values_.assign(dfg_.size(), 0);
    cycle_of_.assign(dfg_.size(), kNever);
    for (const ScheduleRow& r : fs.schedule.rows) {
      cycle_of_[r.op.index] = r.cycle;
    }
    for (std::uint32_t i = 0; i < dfg_.size(); ++i) {
      const Node& n = dfg_.node(NodeId{i});
      if (n.kind == OpKind::Input) {
        auto it = inputs.find(n.name);
        if (it == inputs.end()) {
          throw Error("no value supplied for input port '" + n.name + "'");
        }
        values_[i] = truncate(it->second, n.width);
        cycle_of_[i] = 0;  // ports are stable from the start
      } else if (n.kind == OpKind::Const) {
        values_[i] = truncate(n.value, n.width);
      }
    }
  }

  OutputValues run() {
    for (unsigned c = 0; c < latency_; ++c) {
      for (std::uint32_t i = 0; i < dfg_.size(); ++i) {
        if (dfg_.node(NodeId{i}).kind == OpKind::Add && cycle_of_[i] == c) {
          compute_add(NodeId{i}, c);
        }
      }
    }
    OutputValues out;
    for (NodeId id : dfg_.outputs()) {
      // Output ports latch bits the cycle they are produced (the paper
      // excludes the dedicated port registers from the comparison), so no
      // storage check applies here.
      out[dfg_.node(id).name] =
          operand_value(dfg_.node(id).operands[0], latency_, /*checked=*/false);
    }
    return out;
  }

private:
  /// Value of one bit of `node` as seen from `use_cycle`. Walks through
  /// glue/concat; for Add sources enforces the storage discipline.
  std::uint64_t bit_value(NodeId node, unsigned bit, unsigned use_cycle,
                          bool checked) {
    const Node& n = dfg_.node(node);
    switch (n.kind) {
      case OpKind::Input:
      case OpKind::Const:
        return (values_[node.index] >> bit) & 1;
      case OpKind::Add: {
        const unsigned produced = cycle_of_[node.index];
        if (produced == kNever || produced > use_cycle) {
          throw Error(strformat(
              "datapath reads bit %u of add %%%u in cycle %u, but it is "
              "computed in cycle %s",
              bit, node.index, use_cycle,
              produced == kNever ? "never" : std::to_string(produced).c_str()));
        }
        if (checked && produced < use_cycle &&
            runs_.covering(node, bit, use_cycle) == nullptr) {
          throw Error(strformat(
              "bit %u of add %%%u crosses from cycle %u to cycle %u without "
              "register storage",
              bit, node.index, produced, use_cycle));
        }
        return (values_[node.index] >> bit) & 1;
      }
      case OpKind::And:
      case OpKind::Or:
      case OpKind::Xor: {
        const std::uint64_t a = operand_bit(n.operands[0], bit, use_cycle, checked);
        const std::uint64_t b = operand_bit(n.operands[1], bit, use_cycle, checked);
        if (n.kind == OpKind::And) return a & b;
        if (n.kind == OpKind::Or) return a | b;
        return a ^ b;
      }
      case OpKind::Not:
        return 1 ^ operand_bit(n.operands[0], bit, use_cycle, checked);
      case OpKind::Concat: {
        unsigned base = 0;
        for (const Operand& part : n.operands) {
          if (bit < base + part.bits.width) {
            return operand_bit(part, bit - base, use_cycle, checked);
          }
          base += part.bits.width;
        }
        return 0;
      }
      default:
        throw Error("cycle simulation requires a kernel-form spec");
    }
  }

  std::uint64_t operand_bit(const Operand& o, unsigned rel, unsigned use_cycle,
                            bool checked) {
    if (rel >= o.bits.width) return 0;  // zero extension
    return bit_value(o.node, o.bits.lo + rel, use_cycle, checked);
  }

  std::uint64_t operand_value(const Operand& o, unsigned use_cycle, bool checked) {
    std::uint64_t v = 0;
    for (unsigned b = 0; b < o.bits.width; ++b) {
      v |= operand_bit(o, b, use_cycle, checked) << b;
    }
    return v;
  }

  void compute_add(NodeId id, unsigned cycle) {
    const Node& n = dfg_.node(id);
    const std::uint64_t a = operand_value(n.operands[0], cycle, true);
    const std::uint64_t b = operand_value(n.operands[1], cycle, true);
    const std::uint64_t cin =
        n.has_carry_in() ? operand_value(n.operands[2], cycle, true) : 0;
    values_[id.index] = truncate(a + b + cin, n.width);
  }

  const Dfg& dfg_;
  const StoredRunIndex runs_;  ///< the register plan, bucketed by node
  unsigned latency_;
  std::vector<std::uint64_t> values_;
  std::vector<unsigned> cycle_of_;
};

} // namespace

OutputValues simulate_datapath(const TransformResult& t, const FragSchedule& fs,
                               const Datapath& dp, const InputValues& inputs) {
  DatapathSim sim(t, fs, dp, inputs);
  return sim.run();
}

} // namespace hls
