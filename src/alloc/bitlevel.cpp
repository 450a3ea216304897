#include "alloc/bitlevel.hpp"

#include <algorithm>
#include <bit>

namespace hls {

namespace {

/// A mux source: producer node and slice, packed (slice bounds are <= 64).
std::uint64_t source_key(const Operand& o) {
  return std::uint64_t{o.node.index} << 16 | o.bits.lo << 8 | o.bits.width;
}

unsigned log2_ceil(unsigned v) {
  return v <= 1 ? 0 : static_cast<unsigned>(std::bit_width(v - 1));
}

/// Real adder bits of a fragment node: result bits within the operand
/// slices (the bits add_bit_is_free is false for); the exposed carry-out and
/// zero-extension bits are wiring.
unsigned real_adder_width(const Node& n) {
  return std::min(n.width, std::max(n.operands[0].bits.width,
                                     n.operands[1].bits.width));
}

/// last_use[offset[u] + b] = latest cycle a scheduled add reads bit b of
/// add u, through glue and concat wiring bit-exactly; 0 when none does (a
/// run needs a use after its producing cycle, so 0 and "never" agree).
std::vector<unsigned> bit_last_uses(const Dfg& dfg, const FragSchedule& fs,
                                    const std::vector<std::uint32_t>& offset) {
  std::vector<unsigned> last_use(offset.back(), 0);
  auto read = [&](const Operand& o, unsigned rel, unsigned cycle) {
    unsigned& u = last_use[offset[o.node.index] + o.bits.lo + rel];
    u = std::max(u, cycle);
  };
  for (const ScheduleRow& r : fs.schedule.rows) {
    for (const Operand& o : dfg.node(r.op).operands) {
      for (unsigned j = 0; j < o.bits.width; ++j) read(o, j, r.cycle);
    }
  }
  // Push each wiring bit's last use onto the bits it reads. The node vector
  // is topological, so walking it backwards finalizes every consumer of a
  // node before the node's own bits are pushed.
  for (std::uint32_t i = dfg.size(); i-- > 0;) {
    const Node& n = dfg.node(NodeId{i});
    if (!is_glue(n.kind) && n.kind != OpKind::Concat) {
      HLS_ASSERT(n.kind == OpKind::Add || is_structural(n.kind),
                 "non-kernel node in bit-level allocation");
      continue;
    }
    for (unsigned b = 0; b < n.width; ++b) {
      const unsigned use = last_use[offset[i] + b];
      if (use == 0) continue;
      if (n.kind == OpKind::Concat) {
        unsigned base = 0;
        for (const Operand& q : n.operands) {
          if (b < base + q.bits.width) {
            read(q, b - base, use);
            break;
          }
          base += q.bits.width;
        }
      } else {
        for (const Operand& q : n.operands) {
          if (b < q.bits.width) read(q, b, use);
        }
      }
    }
  }
  return last_use;
}

} // namespace

Datapath allocate_bitlevel(const TransformResult& t, const FragSchedule& fs) {
  const Dfg& dfg = t.spec;
  Datapath dp;
  dp.states = t.latency;

  // ---- adders: same-operation groups colored over cycle occupancy ---------
  // A group is every fu_op of one original operation, indexed by that kernel
  // node; its width is the widest real adder slice among them.
  std::uint32_t n_orig = 0;
  for (const FragSchedule::FuOp& f : fs.fu_ops) {
    n_orig = std::max(n_orig, f.orig.index + 1);
  }
  std::vector<unsigned> group_width(n_orig, 0);
  for (const FragSchedule::FuOp& f : fs.fu_ops) {
    unsigned w = 0;
    for (NodeId node : f.nodes) w += real_adder_width(dfg.node(node));
    group_width[f.orig.index] = std::max(group_width[f.orig.index], w);
  }
  std::vector<std::uint32_t> ordered;  // groups with adder bits, widest first
  for (std::uint32_t g = 0; g < n_orig; ++g) {
    if (group_width[g] > 0) ordered.push_back(g);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return group_width[a] > group_width[b];
                   });

  // busy[r] = the cycles of group ordered[r]'s fu_ops, in fu_ops order.
  constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> rank(n_orig, kNone);
  for (std::uint32_t r = 0; r < ordered.size(); ++r) rank[ordered[r]] = r;
  std::vector<std::vector<std::pair<unsigned, unsigned>>> busy(ordered.size());
  for (const FragSchedule::FuOp& f : fs.fu_ops) {
    if (rank[f.orig.index] != kNone) {
      busy[rank[f.orig.index]].push_back({f.cycle, f.cycle});
    }
  }
  std::vector<std::uint32_t> fu_of_orig(n_orig, kNone);
  if (!ordered.empty()) {
    const std::vector<unsigned> color = color_intervals(busy);
    const unsigned n_fus = *std::max_element(color.begin(), color.end()) + 1;
    dp.fus.assign(n_fus, FuInstance{FuClass::Adder, 0, 0, {}});
    for (std::size_t r = 0; r < ordered.size(); ++r) {
      FuInstance& fu = dp.fus[color[r]];
      fu.width = std::max(fu.width, group_width[ordered[r]]);
      for (const auto& [cycle, _] : busy[r]) {
        fu.bound.push_back({cycle, NodeId{ordered[r]}});
      }
      fu_of_orig[ordered[r]] = color[r];
    }
  }

  // ---- multiplexers: distinct sources per adder port ----------------------
  // Port 0/1 = data operands, port 2 = carry-in. Carries between fragments
  // merged into one fu_op are internal to the wider adder, not routed.
  // Sorted (FU and port, source) pairs: each distinct source once, grouped
  // by FU and then port.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sources;
  for (const FragSchedule::FuOp& f : fs.fu_ops) {
    const std::uint32_t k = fu_of_orig[f.orig.index];
    if (k == kNone) continue;
    for (NodeId node : f.nodes) {
      const Node& n = dfg.node(node);
      for (unsigned p = 0; p < n.operands.size(); ++p) {
        if (p == 2 && std::find(f.nodes.begin(), f.nodes.end(),
                                n.operands[p].node) != f.nodes.end()) {
          continue;
        }
        sources.push_back({std::uint64_t{k} * 4 + p, source_key(n.operands[p])});
      }
    }
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  for (std::size_t i = 0; i < sources.size();) {
    std::size_t j = i + 1;
    while (j < sources.size() && sources[j].first == sources[i].first) ++j;
    if (j - i >= 2) {
      const unsigned port = sources[i].first % 4;
      dp.muxes.push_back(
          MuxInstance{static_cast<unsigned>(j - i),
                      port == 2 ? 1 : dp.fus[sources[i].first / 4].width});
    }
    i = j;
  }

  // ---- registers: bit-level liveness ---------------------------------------
  std::vector<std::uint32_t> offset(dfg.size() + 1, 0);
  for (std::uint32_t i = 0; i < dfg.size(); ++i) {
    offset[i + 1] = offset[i] + dfg.node(NodeId{i}).width;
  }
  const std::vector<unsigned> last_use = bit_last_uses(dfg, fs, offset);
  constexpr unsigned kUnscheduled = UINT32_MAX;
  std::vector<unsigned> cycle_of_node(dfg.size(), kUnscheduled);
  for (const ScheduleRow& r : fs.schedule.rows) {
    cycle_of_node[r.op.index] = r.cycle;
  }

  // Contiguous bit runs of one node with identical live spans become one
  // register; runs share physical registers across disjoint spans.
  struct Run {
    unsigned width;
    unsigned first_boundary, last_boundary;
    NodeId node;
    BitRange bits;
    unsigned produced, use;
  };
  std::vector<Run> runs;
  for (std::uint32_t node_idx = 0; node_idx < dfg.size(); ++node_idx) {
    const unsigned produced = cycle_of_node[node_idx];
    if (produced == kUnscheduled) continue;
    const unsigned* use_of = &last_use[offset[node_idx]];
    const unsigned width = dfg.node(NodeId{node_idx}).width;
    unsigned b = 0;
    while (b < width) {
      const unsigned use = use_of[b];
      if (use <= produced) {
        ++b;
        continue;
      }
      unsigned run_end = b + 1;
      while (run_end < width && use_of[run_end] == use) ++run_end;
      runs.push_back(Run{run_end - b, produced, use - 1, NodeId{node_idx},
                         BitRange{b, run_end - b}, produced, use});
      b = run_end;
    }
  }
  std::stable_sort(runs.begin(), runs.end(),
                   [](const Run& a, const Run& b) { return a.width > b.width; });
  std::vector<std::vector<std::pair<unsigned, unsigned>>> reg_busy;
  reg_busy.reserve(runs.size());
  for (const Run& r : runs) {
    reg_busy.push_back({{r.first_boundary, r.last_boundary}});
  }
  if (!runs.empty()) {
    const std::vector<unsigned> color = color_intervals(reg_busy);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      dp.stored.push_back(StoredRun{runs[i].node, runs[i].bits,
                                    runs[i].produced, runs[i].use, color[i]});
    }
    const unsigned n_regs = *std::max_element(color.begin(), color.end()) + 1;
    dp.regs.assign(n_regs, RegInstance{0, UINT32_MAX, 0});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      RegInstance& r = dp.regs[color[i]];
      r.width = std::max(r.width, runs[i].width);
      r.first_boundary = std::min(r.first_boundary, runs[i].first_boundary);
      r.last_boundary = std::max(r.last_boundary, runs[i].last_boundary);
    }
  }

  for (const MuxInstance& m : dp.muxes) dp.control_signals += log2_ceil(m.inputs);
  dp.control_signals += static_cast<unsigned>(dp.regs.size());
  return dp;
}

} // namespace hls
