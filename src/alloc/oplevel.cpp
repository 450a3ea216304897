#include "alloc/oplevel.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <set>

namespace hls {

namespace {

/// Operand source key for mux counting: producer node + slice.
using SourceKey = std::tuple<std::uint32_t, unsigned, unsigned>;

SourceKey key_of(const Operand& o) {
  return {o.node.index, o.bits.lo, o.bits.width};
}

/// Resolves an operand through glue/concat wiring to the operation or input
/// nodes that actually produce its bits. A node already stamped `walk` was
/// reached earlier in the same walk and is skipped, so reconvergent glue is
/// expanded once per walk and each source listed once.
void collect_sources(const Dfg& dfg, const Operand& o, std::uint32_t walk,
                     std::vector<std::uint32_t>& stamp,
                     std::vector<NodeId>& out) {
  if (stamp[o.node.index] == walk) return;
  stamp[o.node.index] = walk;
  const Node& p = dfg.node(o.node);
  if (is_glue(p.kind) || p.kind == OpKind::Concat) {
    for (const Operand& q : p.operands) {
      collect_sources(dfg, q, walk, stamp, out);
    }
  } else {
    out.push_back(o.node);
  }
}

unsigned log2_ceil(unsigned v) {
  return v <= 1 ? 0 : static_cast<unsigned>(std::bit_width(v - 1));
}

} // namespace

Datapath allocate_oplevel(const Dfg& spec, const OpSchedule& s) {
  Datapath dp;
  dp.states = s.latency;

  std::map<std::uint32_t, OpSpan> span_of;
  for (const OpSpan& sp : s.spans) span_of[sp.op.index] = sp;

  // ---- functional units: first-fit interval coloring per class ------------
  struct OpRec {
    NodeId op;
    FuClass cls;
    unsigned w1, w2;
    OpSpan span;
  };
  std::vector<OpRec> recs;
  for (const OpSpan& sp : s.spans) {
    const Node& n = spec.node(sp.op);
    OpRec r{sp.op, fu_class_of(n.kind), n.width, 0, sp};
    if (n.kind == OpKind::Mul) {
      r.w1 = n.operands[0].bits.width;
      r.w2 = n.operands[1].bits.width;
    } else if (is_comparison(n.kind)) {
      r.w1 = std::max(n.operands[0].bits.width, n.operands[1].bits.width);
    }
    recs.push_back(r);
  }

  std::map<std::uint32_t, std::size_t> fu_of_op;  // node index -> dp.fus index
  for (const FuClass cls :
       {FuClass::Adder, FuClass::Subtractor, FuClass::Multiplier,
        FuClass::Comparator, FuClass::MinMax}) {
    std::vector<OpRec> group;
    for (const OpRec& r : recs) {
      if (r.cls == cls) group.push_back(r);
    }
    if (group.empty()) continue;
    // Widest first, so shared FUs take the maximum width of their users.
    std::stable_sort(group.begin(), group.end(), [](const OpRec& a, const OpRec& b) {
      return a.w1 * std::max(1u, a.w2) > b.w1 * std::max(1u, b.w2);
    });
    std::vector<std::vector<std::pair<unsigned, unsigned>>> busy;
    busy.reserve(group.size());
    for (const OpRec& r : group) {
      busy.push_back({{r.span.first_cycle, r.span.last_cycle}});
    }
    const std::vector<unsigned> color = color_intervals(busy);
    const std::size_t base = dp.fus.size();
    const unsigned n_fus = *std::max_element(color.begin(), color.end()) + 1;
    for (unsigned k = 0; k < n_fus; ++k) {
      dp.fus.push_back(FuInstance{cls, 0, 0, {}});
    }
    for (std::size_t i = 0; i < group.size(); ++i) {
      FuInstance& fu = dp.fus[base + color[i]];
      fu.width = std::max(fu.width, group[i].w1);
      fu.width2 = std::max(fu.width2, group[i].w2);
      fu.bound.push_back({group[i].span.first_cycle, group[i].op});
      fu_of_op[group[i].op.index] = base + color[i];
    }
  }

  // ---- multiplexers: distinct operand sources per FU input port -----------
  for (const FuInstance& fu : dp.fus) {
    std::map<unsigned, std::set<SourceKey>> port_sources;
    for (const auto& [cycle, op] : fu.bound) {
      const Node& n = spec.node(op);
      for (unsigned p = 0; p < n.operands.size(); ++p) {
        port_sources[p].insert(key_of(n.operands[p]));
      }
    }
    for (const auto& [port, sources] : port_sources) {
      if (sources.size() < 2) continue;
      const unsigned width = port == 2 ? 1 : (port == 1 && fu.width2 ? fu.width2
                                                                     : fu.width);
      dp.muxes.push_back(
          MuxInstance{static_cast<unsigned>(sources.size()), width});
    }
  }

  // ---- registers: whole values crossing cycle boundaries ------------------
  // produced[u] = last cycle of u's span; last_use[u] = latest cycle any
  // consumer needs u held (a multicycle consumer holds operands through its
  // whole span).
  std::map<std::uint32_t, unsigned> last_use;
  std::vector<std::uint32_t> stamp(spec.size(), 0);
  std::uint32_t walk = 0;
  for (const OpSpan& sp : s.spans) {
    ++walk;
    std::vector<NodeId> sources;
    for (const Operand& o : spec.node(sp.op).operands) {
      collect_sources(spec, o, walk, stamp, sources);
    }
    for (NodeId u : sources) {
      const OpKind k = spec.node(u).kind;
      if (k == OpKind::Input || k == OpKind::Const) continue;  // port wiring
      auto [it, _] = last_use.try_emplace(u.index, 0u);
      it->second = std::max(it->second, sp.last_cycle);
    }
  }
  struct LiveValue {
    unsigned width;
    unsigned first_boundary, last_boundary;
  };
  std::vector<LiveValue> values;
  for (const auto& [u, use] : last_use) {
    const auto it = span_of.find(u);
    if (it == span_of.end()) continue;
    const unsigned produced = it->second.last_cycle;
    if (use <= produced) continue;  // consumed in the producing cycle
    values.push_back(LiveValue{spec.node(NodeId{u}).width, produced, use - 1});
  }
  std::stable_sort(values.begin(), values.end(),
                   [](const LiveValue& a, const LiveValue& b) {
                     return a.width > b.width;
                   });
  std::vector<std::vector<std::pair<unsigned, unsigned>>> busy;
  busy.reserve(values.size());
  for (const LiveValue& v : values) {
    busy.push_back({{v.first_boundary, v.last_boundary}});
  }
  const std::vector<unsigned> color = color_intervals(busy);
  if (!values.empty()) {
    const unsigned n_regs = *std::max_element(color.begin(), color.end()) + 1;
    dp.regs.assign(n_regs, RegInstance{0, UINT32_MAX, 0});
    for (std::size_t i = 0; i < values.size(); ++i) {
      RegInstance& r = dp.regs[color[i]];
      r.width = std::max(r.width, values[i].width);
      r.first_boundary = std::min(r.first_boundary, values[i].first_boundary);
      r.last_boundary = std::max(r.last_boundary, values[i].last_boundary);
    }
  }

  // ---- control -------------------------------------------------------------
  for (const MuxInstance& m : dp.muxes) dp.control_signals += log2_ceil(m.inputs);
  dp.control_signals += static_cast<unsigned>(dp.regs.size());
  return dp;
}

} // namespace hls
