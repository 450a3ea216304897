#include "timing/critical_path.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace hls {

unsigned path_execution_time(const Dfg& dfg, const std::vector<NodeId>& path,
                             const std::vector<unsigned>& truncated_lsbs) {
  HLS_REQUIRE(!path.empty(), "path must be non-empty");
  HLS_REQUIRE(truncated_lsbs.size() + 1 == path.size(),
              "need one truncation count per path edge");
  // time = width(path[n]); then walk towards the input adding 1 per
  // operation, plus the truncated LSBs when the operation is wider than its
  // successor (paper §3.2, transcribed with 0-based indices).
  unsigned time = dfg.node(path.back()).width;
  for (std::size_t i = path.size() - 1; i-- > 0;) {
    if (dfg.node(path[i]).width <= dfg.node(path[i + 1]).width) {
      time += 1;
    } else {
      time += 1 + truncated_lsbs[i];
    }
  }
  return time;
}

namespace {

struct SourceEdge {
  NodeId add;      ///< additive producer reached through glue
  unsigned trunc;  ///< LSBs of that producer's result truncated on the way
};

/// Ripple length of an Add: result bits beyond both operand slices only
/// forward the final carry and cost no delta.
unsigned effective_width(const Node& n) {
  unsigned w = 0;
  while (w < n.width && !n.add_bit_is_free(w)) ++w;
  return w == 0 ? 1 : w;  // a pure-carry add still settles in one delta
}

/// Walk-local memo of resolved slices: `stamp` holds the walk that last
/// reached each node, and only a node met again in the same walk scans the
/// walk's `seen` slices.
struct SliceMemo {
  std::vector<std::uint32_t> stamp;
  std::vector<Operand> seen;
  std::uint32_t walk = 0;
};

/// Resolves the additive sources of an operand slice, walking transparently
/// through glue logic and concats (which neither add delay nor break the
/// paper's notion of a path of additive operations). A slice the walk has
/// already resolved would add only duplicate edges, which never win the
/// strict relaxation in critical_path, so it is skipped: reconvergent glue
/// is expanded once per (node, lo, width), not once per path.
void resolve_sources(const Dfg& dfg, const Operand& op, SliceMemo& memo,
                     std::vector<SourceEdge>& out) {
  if (op.bits.empty()) return;
  std::uint32_t& stamp = memo.stamp[op.node.index];
  std::vector<Operand>& seen = memo.seen;
  if (stamp == memo.walk &&
      std::find(seen.begin(), seen.end(), op) != seen.end()) {
    return;
  }
  stamp = memo.walk;
  seen.push_back(op);
  const Node& producer = dfg.node(op.node);
  switch (producer.kind) {
    case OpKind::Add:
      out.push_back(SourceEdge{op.node, op.bits.lo});
      return;
    case OpKind::Input:
    case OpKind::Const:
      return;
    case OpKind::And:
    case OpKind::Or:
    case OpKind::Xor:
    case OpKind::Not: {
      // Bit j of a bitwise op comes from bit j of each operand slice.
      for (const Operand& g : producer.operands) {
        const BitRange within = op.bits.intersect(BitRange::whole(g.bits.width));
        if (within.empty()) continue;  // slice lies in the zero-extension
        resolve_sources(
            dfg, Operand{g.node, BitRange{g.bits.lo + within.lo, within.width}},
            memo, out);
      }
      return;
    }
    case OpKind::Concat: {
      unsigned base = 0;  // bit position of the current part in the concat
      for (const Operand& part : producer.operands) {
        const BitRange part_span{base, part.bits.width};
        const BitRange within = op.bits.intersect(part_span);
        if (!within.empty()) {
          resolve_sources(dfg,
                          Operand{part.node, BitRange{part.bits.lo + (within.lo - base),
                                                      within.width}},
                          memo, out);
        }
        base += part.bits.width;
      }
      return;
    }
    default:
      throw Error("critical_path: node '" + std::string(op_name(producer.kind)) +
                  "' is not part of the operative kernel; run extract_kernel first");
  }
}

} // namespace

CriticalPathResult critical_path(const Dfg& dfg) {
  const std::size_t n = dfg.size();
  // f[u] = longest paper-time of a path starting at additive op u;
  // next[u]/next_ends[u] reconstruct the chosen continuation.
  std::vector<unsigned> f(n, 0);
  std::vector<NodeId> next(n, kInvalidNode);

  // Edges u -> v (v consumes a slice of u). Built from each consumer v's
  // operands, so iterate v in topological order and scatter to sources.
  std::vector<std::vector<SourceEdge>> in_edges_of(n);
  SliceMemo memo{std::vector<std::uint32_t>(n, UINT32_MAX), {}, 0};
  for (std::uint32_t v = 0; v < n; ++v) {
    const Node& node = dfg.node(NodeId{v});
    if (node.kind != OpKind::Add) continue;
    memo.walk = v;
    memo.seen.clear();
    for (const Operand& op : node.operands) {
      resolve_sources(dfg, op, memo, in_edges_of[v]);
    }
  }

  // A path may end at any additive op u: its effective ripple must settle.
  for (std::uint32_t idx = 0; idx < n; ++idx) {
    if (dfg.node(NodeId{idx}).kind == OpKind::Add) {
      f[idx] = effective_width(dfg.node(NodeId{idx}));
    }
  }

  // out_edges[u] = {(consumer v, edge weight)}: crossing u on the way to v
  // costs 1 delta plus the LSBs of u the edge skips — those bits must ripple
  // before the consumed slice is valid. The paper's walk charges the skipped
  // bits only when u is wider than v, which is equivalent for specifications
  // that slice only to narrow (their VHDL style); charging `lo`
  // unconditionally generalizes it to high-bit slices of equal-width values
  // (carry-in edges of fragmented operations).
  std::vector<std::vector<std::pair<std::uint32_t, unsigned>>> out_edges(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const Node& node = dfg.node(NodeId{v});
    if (node.kind != OpKind::Add) continue;
    for (const SourceEdge& e : in_edges_of[v]) {
      // A slice into the producer's free-carry region waits only for the
      // effective ripple, however high the sliced bit sits.
      const unsigned weight =
          std::min(1 + e.trunc, effective_width(dfg.node(e.add)));
      out_edges[e.add.index].push_back({v, weight});
    }
  }
  // Reverse topological sweep: consumers have larger indices, so f[v] is
  // final by the time u is processed.
  for (std::uint32_t idx = static_cast<std::uint32_t>(n); idx-- > 0;) {
    const NodeId u{idx};
    if (dfg.node(u).kind != OpKind::Add) continue;
    for (const auto& [v, weight] : out_edges[idx]) {
      if (weight + f[v] > f[idx]) {
        f[idx] = weight + f[v];
        next[idx] = NodeId{v};
      }
    }
  }

  CriticalPathResult result;
  NodeId start = kInvalidNode;
  for (std::uint32_t idx = 0; idx < n; ++idx) {
    if (dfg.node(NodeId{idx}).kind == OpKind::Add && f[idx] > result.time) {
      result.time = f[idx];
      start = NodeId{idx};
    }
  }
  for (NodeId cur = start; cur.valid(); cur = next[cur.index]) {
    result.path.push_back(cur);
  }
  return result;
}

unsigned estimate_cycle_duration(unsigned critical_path_time, unsigned latency) {
  HLS_REQUIRE(latency > 0, "latency must be positive");
  return (critical_path_time + latency - 1) / latency;  // ceil division
}

unsigned estimate_cycle_duration(const Dfg& dfg, unsigned latency) {
  return estimate_cycle_duration(critical_path(dfg).time, latency);
}

unsigned estimate_cycle_budget(unsigned critical_path_bits, unsigned latency,
                               const DelayModel& delay) {
  const unsigned floor_bits =
      estimate_cycle_duration(critical_path_bits, latency);
  // Widen within the same adder_depth step (free bits under sublinear
  // styles; a no-op under ripple, where depth(m + 1) = m + 1 > depth(m)).
  // Capped at the whole critical path: a budget beyond it buys nothing.
  const unsigned depth = delay.adder_depth(floor_bits);
  unsigned bits = floor_bits;
  while (bits < critical_path_bits && delay.adder_depth(bits + 1) <= depth) {
    ++bits;
  }
  return bits;
}

} // namespace hls
