#include "rtl/cycle_sim.hpp"

#include <bit>

#include "support/strings.hpp"

namespace hls {

OutputValues simulate_netlist(const Netlist& nl, const Dfg& spec,
                              const InputValues& inputs) {
  // `word` with bits [lo, lo + width) replaced by the low bits of `v`.
  const auto assign = [](std::uint64_t& word, const Statement& st,
                         std::uint64_t v) {
    const std::uint64_t m = truncate(~std::uint64_t{0}, st.width) << st.lo;
    word = (word & ~m) | ((v << st.lo) & m);
  };
  // Per node: its value (ports included), the net bits assigned in this
  // state and the bits the additions ever assigned.
  std::vector<std::uint64_t> value(spec.size()), live(value), added(value);
  std::vector<std::uint64_t> reg(nl.registers), loaded;
  for (NodeId id : spec.inputs()) {
    const Node& n = spec.node(id);
    const auto it = inputs.find(n.name);
    if (it == inputs.end()) {
      throw Error("no value supplied for input port '" + n.name + "'");
    }
    value[id.index] = truncate(it->second, n.width);
  }
  unsigned state = 0;
  const auto operand = [&](const Statement& st, unsigned k) {
    std::uint64_t v = 0;
    for (std::uint32_t i = st.at[k], at = 0; i < st.at[k + 1];
         at += nl.slices[i++].width) {
      const Slice& s = nl.slices[i];
      const std::uint64_t m = truncate(~std::uint64_t{0}, s.width);
      const std::uint64_t unset =
          s.kind == Slice::Net ? (~live[s.id] >> s.lo) & m : 0;
      if (unset != 0) {
        const unsigned bit = s.lo + std::countr_zero(unset);
        throw Error(strformat("state %u reads bit %u of net %%%u unassigned",
                              state, bit, s.id),
                    ErrorContext{s.id, bit, state});
      }
      const std::uint64_t word = s.kind == Slice::Reg    ? reg[s.id]
                                 : s.kind >= Slice::Port ? value[s.id]
                                 : s.kind == Slice::One  ? ~std::uint64_t{0}
                                                         : 0;
      v |= ((word >> s.lo) & m) << at;
    }
    return v;
  };
  OutputValues out;
  for (; state <= nl.states; ++state) {
    // The port block also reads the additions' final values.
    live = state == nl.states ? added : std::vector<std::uint64_t>(spec.size());
    loaded = reg;
    for (std::uint32_t i = nl.block[state]; i < nl.block[state + 1]; ++i) {
      const Statement& st = nl.statements[i];
      std::uint64_t v[3] = {0, 0, 0};
      for (unsigned k = 0; k < st.operands; ++k) v[k] = operand(st, k);
      if (st.kind == Statement::Load) {
        assign(loaded[st.target], st, v[0]);
      } else if (st.kind == Statement::Latch) {
        out[spec.node(NodeId{st.target}).name] = v[0];
      } else {
        const OpKind op = spec.node(NodeId{st.target}).kind;
        assign(value[st.target], st,
               op == OpKind::Add   ? v[0] + v[1] + v[2]
               : op == OpKind::And ? v[0] & v[1]
               : op == OpKind::Or  ? v[0] | v[1]
               : op == OpKind::Xor ? v[0] ^ v[1]
                                   : ~v[0]);
        assign(live[st.target], st, ~std::uint64_t{0});
        if (op == OpKind::Add) added[st.target] = live[st.target];
      }
    }
    reg = loaded;  // register loads take effect at the state's end
  }
  return out;
}

OutputValues simulate_datapath(const TransformResult& t, const FragSchedule& fs,
                               const Datapath& dp, const InputValues& inputs) {
  return simulate_netlist(lower_rtl(t, fs, dp), t.spec, inputs);
}

} // namespace hls
