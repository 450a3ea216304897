#include "partition/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <set>
#include <tuple>
#include <utility>

#include "kernel/extract.hpp"
#include "support/strings.hpp"
#include "timing/critical_path.hpp"

namespace hls {

namespace {

constexpr unsigned kNone = static_cast<unsigned>(-1);

/// Path-halving union-find over node indices; the representative is always
/// the smallest index of the set, so component ids are deterministic.
struct UnionFind {
  std::vector<std::uint32_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<std::uint32_t>(i);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[b] = a;
  }
};

/// Iterative Tarjan over the (small) kernel-candidate graph. Returns the
/// SCC id of every vertex; ids are then canonicalized to the smallest
/// member, so merging is deterministic.
std::vector<unsigned> scc_of(const std::vector<std::vector<unsigned>>& succ) {
  const std::size_t n = succ.size();
  std::vector<unsigned> index(n, kNone), low(n, 0), comp(n, kNone);
  std::vector<bool> on_stack(n, false);
  std::vector<unsigned> stack;
  unsigned next_index = 0;
  struct Frame {
    unsigned v;
    std::size_t child;
  };
  for (unsigned root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < succ[f.v].size()) {
        const unsigned w = succ[f.v][f.child++];
        if (index[w] == kNone) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          // Pop one SCC; canonical id = smallest member vertex.
          std::vector<unsigned> members;
          for (;;) {
            const unsigned w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            members.push_back(w);
            if (w == f.v) break;
          }
          const unsigned id = *std::min_element(members.begin(), members.end());
          for (const unsigned w : members) comp[w] = id;
        }
        const unsigned v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  return comp;
}

KernelPartition single_partition(const Dfg& g) {
  KernelPartition p;
  PartitionKernel k;
  k.spec = g;  // verbatim: same digest, so cache entries are shared
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    const OpKind kind = g.nodes()[i].kind;
    if (kind == OpKind::Input || kind == OpKind::Const) continue;
    k.nodes.push_back(NodeId{i});
    if (kind == OpKind::Add) ++k.add_count;
  }
  p.kernels.push_back(std::move(k));
  return p;
}

} // namespace

std::vector<std::pair<unsigned, unsigned>> KernelPartition::edges() const {
  std::vector<std::pair<unsigned, unsigned>> out;
  out.reserve(cut_edges.size());
  for (const CutEdge& e : cut_edges) out.emplace_back(e.from, e.to);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

KernelPartition partition_kernel(const Dfg& g) {
  HLS_REQUIRE(is_kernel_form(g),
              "partition_kernel requires a kernel-form specification");
  const std::size_t n = g.size();
  if (g.additive_op_count() == 0) return single_partition(g);

  // 1. Components of Adds under direct Add -> Add operand edges (sum feeds
  //    and carry chains are never cut).
  UnionFind uf(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Node& node = g.nodes()[i];
    if (node.kind != OpKind::Add) continue;
    for (const Operand& op : node.operands) {
      if (g.node(op.node).kind == OpKind::Add) uf.unite(i, op.node.index);
    }
  }

  // 2. Assign every non-Input/Const node a component: Adds by union-find,
  //    glue/concat/output by first assigned producer (forward sweep), else
  //    first assigned consumer (backward sweep), iterated to a fixpoint.
  //    Glue reachable from neither (input-to-output passthrough logic)
  //    falls back to the first component.
  std::vector<std::vector<std::uint32_t>> users(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const Operand& op : g.nodes()[i].operands) {
      users[op.node.index].push_back(i);
    }
  }
  std::vector<unsigned> comp(n, kNone);
  unsigned first_add_comp = kNone;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (g.nodes()[i].kind == OpKind::Add) {
      comp[i] = uf.find(i);
      if (first_add_comp == kNone) first_add_comp = comp[i];
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Node& node = g.nodes()[i];
      if (comp[i] != kNone || node.kind == OpKind::Input ||
          node.kind == OpKind::Const || node.kind == OpKind::Add) {
        continue;
      }
      for (const Operand& op : node.operands) {
        if (comp[op.node.index] != kNone) {
          comp[i] = comp[op.node.index];
          changed = true;
          break;
        }
      }
    }
    for (std::uint32_t i = static_cast<std::uint32_t>(n); i-- > 0;) {
      const Node& node = g.nodes()[i];
      if (comp[i] != kNone || node.kind == OpKind::Input ||
          node.kind == OpKind::Const || node.kind == OpKind::Add) {
        continue;
      }
      for (const std::uint32_t u : users[i]) {
        if (comp[u] != kNone) {
          comp[i] = comp[u];
          changed = true;
          break;
        }
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const OpKind kind = g.nodes()[i].kind;
    if (comp[i] == kNone && kind != OpKind::Input && kind != OpKind::Const) {
      comp[i] = first_add_comp;
    }
  }

  // 3. Collapse kernel-level cycles: glue paths may interleave two Add
  //    components in both directions; kernels in one strongly connected
  //    component merge so the kernel graph is a DAG by construction.
  std::vector<unsigned> dense(n, kNone);  // comp id -> dense vertex
  std::vector<unsigned> dense_to_comp;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (comp[i] == kNone || dense[comp[i]] != kNone) continue;
    dense[comp[i]] = static_cast<unsigned>(dense_to_comp.size());
    dense_to_comp.push_back(comp[i]);
  }
  const std::size_t nv = dense_to_comp.size();
  std::vector<std::vector<unsigned>> succ(nv);
  {
    std::set<std::pair<unsigned, unsigned>> seen;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (comp[i] == kNone) continue;
      for (const Operand& op : g.nodes()[i].operands) {
        const unsigned pc = comp[op.node.index];
        if (pc == kNone || pc == comp[i]) continue;
        const unsigned a = dense[pc], b = dense[comp[i]];
        if (seen.insert({a, b}).second) succ[a].push_back(b);
      }
    }
  }
  const std::vector<unsigned> scc = scc_of(succ);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (comp[i] != kNone) comp[i] = scc[dense[comp[i]]];  // now a dense-space id
  }

  // 4. Topological renumbering over the merged kernels, ties broken by the
  //    smallest member node, so kernel i only feeds kernel j > i and the
  //    numbering is deterministic.
  std::vector<unsigned> merged_ids;  // distinct dense-space ids, by first node
  std::vector<unsigned> slot(nv, kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (comp[i] == kNone || slot[comp[i]] != kNone) continue;
    slot[comp[i]] = static_cast<unsigned>(merged_ids.size());
    merged_ids.push_back(comp[i]);
  }
  const std::size_t nm = merged_ids.size();
  if (nm == 1) return single_partition(g);
  std::vector<unsigned> tiebreak(nm, kNone);  // smallest member node index
  for (std::uint32_t i = 0; i < n; ++i) {
    if (comp[i] == kNone) continue;
    unsigned& t = tiebreak[slot[comp[i]]];
    if (t == kNone) t = i;
  }
  std::vector<std::vector<unsigned>> msucc(nm);
  std::vector<unsigned> indeg(nm, 0);
  {
    std::set<std::pair<unsigned, unsigned>> seen;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (comp[i] == kNone) continue;
      for (const Operand& op : g.nodes()[i].operands) {
        const unsigned pc = comp[op.node.index];
        if (pc == kNone || pc == comp[i]) continue;
        const unsigned a = slot[pc], b = slot[comp[i]];
        if (seen.insert({a, b}).second) {
          msucc[a].push_back(b);
          ++indeg[b];
        }
      }
    }
  }
  std::vector<unsigned> order(nm, kNone);  // merged slot -> final kernel index
  {
    using Item = std::pair<unsigned, unsigned>;  // (tiebreak, slot)
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> ready;
    for (unsigned m = 0; m < nm; ++m) {
      if (indeg[m] == 0) ready.push({tiebreak[m], m});
    }
    unsigned next = 0;
    while (!ready.empty()) {
      const unsigned m = ready.top().second;
      ready.pop();
      order[m] = next++;
      for (const unsigned s : msucc[m]) {
        if (--indeg[s] == 0) ready.push({tiebreak[s], s});
      }
    }
    HLS_ASSERT(next == nm, "kernel graph is not a DAG after SCC collapse");
  }
  std::vector<unsigned> kernel_of(n, kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (comp[i] != kNone) kernel_of[i] = order[slot[comp[i]]];
  }

  // 5. Materialize one self-contained kernel-form Dfg per kernel: primary
  //    inputs/constants replicated, cross-kernel values imported/exported
  //    through "__x<node>" boundary ports (full producer width; consumer
  //    slices stay on the operands).
  KernelPartition p;
  p.kernels.resize(nm);
  std::vector<std::vector<std::uint32_t>> members(nm);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (kernel_of[i] != kNone) members[kernel_of[i]].push_back(i);
  }
  std::vector<std::vector<std::uint32_t>> exports_of(nm);
  {
    std::vector<bool> exported(n, false);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (kernel_of[i] == kNone) continue;
      for (const Operand& op : g.nodes()[i].operands) {
        const std::uint32_t q = op.node.index;
        if (kernel_of[q] != kNone && kernel_of[q] != kernel_of[i] &&
            !exported[q]) {
          exported[q] = true;
          exports_of[kernel_of[q]].push_back(q);
        }
      }
    }
    for (auto& v : exports_of) std::sort(v.begin(), v.end());
  }
  const auto boundary_name = [](std::uint32_t node) {
    return "__x" + std::to_string(node);
  };
  for (unsigned k = 0; k < nm; ++k) {
    PartitionKernel& pk = p.kernels[k];
    Dfg sub(g.name() + ".k" + std::to_string(k));
    std::vector<NodeId> map(n, kInvalidNode);
    // External producers first (no operands, so order is free; ascending
    // parent index keeps construction canonical).
    std::vector<std::uint32_t> externals;
    for (const std::uint32_t m : members[k]) {
      for (const Operand& op : g.nodes()[m].operands) {
        const std::uint32_t q = op.node.index;
        if (kernel_of[q] != k) externals.push_back(q);
      }
    }
    std::sort(externals.begin(), externals.end());
    externals.erase(std::unique(externals.begin(), externals.end()),
                    externals.end());
    for (const std::uint32_t q : externals) {
      const Node& qn = g.nodes()[q];
      if (qn.kind == OpKind::Input) {
        map[q] = sub.add_input(qn.name, qn.width, qn.is_signed);
      } else if (qn.kind == OpKind::Const) {
        map[q] = sub.add_const(qn.value, qn.width);
      } else {
        map[q] = sub.add_input(boundary_name(q), qn.width);
        pk.imports.push_back({boundary_name(q), NodeId{q}});
        p.cut_edges.push_back({NodeId{q}, kernel_of[q], k});
      }
    }
    for (const std::uint32_t m : members[k]) {
      const Node& mn = g.nodes()[m];
      Node clone;
      clone.kind = mn.kind;
      clone.width = mn.width;
      clone.is_signed = mn.is_signed;
      clone.name = mn.name;
      clone.value = mn.value;
      clone.operands.reserve(mn.operands.size());
      for (const Operand& op : mn.operands) {
        clone.operands.push_back({map[op.node.index], op.bits});
      }
      map[m] = sub.add_node(std::move(clone));
      pk.nodes.push_back(NodeId{m});
      if (mn.kind == OpKind::Add) ++pk.add_count;
    }
    for (const std::uint32_t e : exports_of[k]) {
      pk.exports.push_back({boundary_name(e), NodeId{e}});
      sub.add_output(boundary_name(e), sub.whole(map[e]));
    }
    pk.spec = std::move(sub);
  }
  std::sort(p.cut_edges.begin(), p.cut_edges.end(),
            [](const KernelPartition::CutEdge& a,
               const KernelPartition::CutEdge& b) {
              return std::tie(a.from, a.to, a.producer.index) <
                     std::tie(b.from, b.to, b.producer.index);
            });
  return p;
}

void verify_partition(const KernelPartition& p, const Dfg& parent) {
  HLS_REQUIRE(!p.kernels.empty(), "partition has no kernels");
  const std::size_t n = parent.size();
  std::vector<unsigned> owner(n, kNone);
  for (unsigned k = 0; k < p.kernels.size(); ++k) {
    for (const NodeId id : p.kernels[k].nodes) {
      HLS_REQUIRE(id.index < n, "partition references a node out of range");
      const OpKind kind = parent.node(id).kind;
      HLS_REQUIRE(kind != OpKind::Input && kind != OpKind::Const,
                  "inputs and constants are replicated, never assigned");
      HLS_REQUIRE(owner[id.index] == kNone,
                  strformat("node %u assigned to two kernels", id.index));
      owner[id.index] = k;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const OpKind kind = parent.nodes()[i].kind;
    if (kind == OpKind::Input || kind == OpKind::Const) continue;
    HLS_REQUIRE(owner[i] != kNone,
                strformat("node %u is assigned to no kernel", i));
  }
  // Legality: no direct Add -> Add operand edge crosses kernels.
  for (std::uint32_t i = 0; i < n; ++i) {
    const Node& node = parent.nodes()[i];
    if (node.kind != OpKind::Add) continue;
    for (const Operand& op : node.operands) {
      if (parent.node(op.node).kind != OpKind::Add) continue;
      HLS_REQUIRE(owner[i] == owner[op.node.index],
                  strformat("Add -> Add edge %u -> %u crosses kernels",
                            op.node.index, i));
    }
  }
  // Cut edges must run low -> high (topological numbering = acyclic kernel
  // graph) and agree with ownership.
  for (const KernelPartition::CutEdge& e : p.cut_edges) {
    HLS_REQUIRE(e.from < e.to, "cut edge violates topological kernel order");
    HLS_REQUIRE(e.to < p.kernels.size(), "cut edge kernel out of range");
    HLS_REQUIRE(owner[e.producer.index] == e.from,
                "cut edge producer owned by a different kernel");
  }
  // Boundary ports: every import resolves to an export of the owner kernel
  // under the same name, and both ports exist in the sub-specs.
  for (unsigned k = 0; k < p.kernels.size(); ++k) {
    const PartitionKernel& pk = p.kernels[k];
    for (const PartitionKernel::Port& port : pk.imports) {
      const unsigned from = owner[port.parent.index];
      HLS_REQUIRE(from != kNone && from != k, "import from own kernel");
      const auto& ex = p.kernels[from].exports;
      const bool found =
          std::any_of(ex.begin(), ex.end(), [&](const PartitionKernel::Port& e) {
            return e.parent == port.parent && e.name == port.name;
          });
      HLS_REQUIRE(found, "import has no matching export: " + port.name);
      HLS_REQUIRE(pk.spec.find_port(port.name).has_value(),
                  "import port missing from sub-spec: " + port.name);
    }
    for (const PartitionKernel::Port& port : pk.exports) {
      HLS_REQUIRE(owner[port.parent.index] == k, "export of foreign node");
      HLS_REQUIRE(pk.spec.find_port(port.name).has_value(),
                  "export port missing from sub-spec: " + port.name);
    }
    pk.spec.verify();
    HLS_REQUIRE(is_kernel_form(pk.spec), "partition kernel is not kernel-form");
  }
  if (p.single()) {
    HLS_REQUIRE(p.kernels[0].spec.size() == parent.size(),
                "single-kernel partition must hold the parent graph verbatim");
  }
}

BudgetSplit whole_budget(unsigned total_latency) {
  return {{total_latency}, {total_latency}, {0}, total_latency};
}

BudgetSplit split_latency_budget(const KernelPartition& p,
                                 const std::vector<unsigned>& criticals,
                                 unsigned total_latency) {
  const std::size_t K = p.kernels.size();
  HLS_REQUIRE(criticals.size() == K,
              "one critical time per kernel is required");
  HLS_REQUIRE(total_latency >= 1, "latency must be >= 1");
  if (K == 1) return whole_budget(total_latency);
  BudgetSplit s;
  std::vector<std::vector<unsigned>> succ(K), pred(K);
  for (const auto& [a, b] : p.edges()) {
    succ[a].push_back(b);
    pred[b].push_back(a);
  }
  // Heaviest critical-time path through each kernel (kernel order is
  // topological): up = longest ending at k, down = longest starting at k.
  std::vector<std::uint64_t> up(K), down(K);
  for (std::size_t k = 0; k < K; ++k) {
    std::uint64_t best = 0;
    for (const unsigned q : pred[k]) best = std::max(best, up[q]);
    up[k] = best + criticals[k];
  }
  for (std::size_t k = K; k-- > 0;) {
    std::uint64_t best = 0;
    for (const unsigned q : succ[k]) best = std::max(best, down[q]);
    down[k] = best + criticals[k];
  }
  // Proportional share: floor(total * c_k / T_k) with T_k the heaviest path
  // through k. Along any kernel path P, sum_k total*c_k/T_k <= total since
  // T_k >= weight(P) for every k on P — the floors always fit; only the
  // >= 1 bumps (raw == 0) can overrun, which validate_budget_split reports.
  s.raw.resize(K);
  s.latency.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    const std::uint64_t through = up[k] + down[k] - criticals[k];
    s.raw[k] = static_cast<unsigned>(
        static_cast<std::uint64_t>(total_latency) * criticals[k] / through);
    s.latency[k] = std::max(1u, s.raw[k]);
  }
  // Deterministic slack redistribution: +1 to the most starved kernel
  // (largest critical per cycle, ties to the lowest index) whose critical
  // path still fits, until the composed latency meets the constraint.
  std::vector<unsigned> start(K), tail(K);
  for (;;) {
    for (std::size_t k = 0; k < K; ++k) {
      unsigned best = 0;
      for (const unsigned q : pred[k]) {
        best = std::max(best, start[q] + s.latency[q]);
      }
      start[k] = best;
    }
    for (std::size_t k = K; k-- > 0;) {
      unsigned best = 0;
      for (const unsigned q : succ[k]) best = std::max(best, tail[q]);
      tail[k] = s.latency[k] + best;
    }
    unsigned composed = 0;
    for (std::size_t k = 0; k < K; ++k) {
      composed = std::max(composed, start[k] + s.latency[k]);
    }
    s.composed_latency = composed;
    s.start_cycle = start;
    if (composed >= total_latency) break;
    std::size_t best = K;
    for (std::size_t k = 0; k < K; ++k) {
      if (start[k] + tail[k] + 1 > total_latency) continue;
      if (best == K ||
          static_cast<std::uint64_t>(criticals[k]) * s.latency[best] >
              static_cast<std::uint64_t>(criticals[best]) * s.latency[k]) {
        best = k;
      }
    }
    if (best == K) break;
    ++s.latency[best];
  }
  return s;
}

PartitionBound price_partition(const std::vector<unsigned>& criticals,
                               const BudgetSplit& split,
                               unsigned n_bits_override,
                               const DelayModel& delay) {
  HLS_REQUIRE(criticals.size() == split.latency.size(),
              "criticals and split must describe the same kernels");
  PartitionBound b;
  b.composed_latency = split.composed_latency;
  b.n_bits.resize(criticals.size());
  for (std::size_t k = 0; k < criticals.size(); ++k) {
    const unsigned nb =
        n_bits_override != 0
            ? n_bits_override
            : estimate_cycle_budget(criticals[k], split.latency[k], delay);
    b.n_bits[k] = nb;
    b.max_deltas = std::max(b.max_deltas, delay.adder_depth(nb));
  }
  return b;
}

} // namespace hls
