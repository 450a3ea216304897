#include "sched/fragsched.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <tuple>

#include "sched/core.hpp"

namespace hls {

namespace {

/// Collects the Add nodes an operand depends on, walking through glue and
/// concats (conservatively: every reachable add, not only the sliced bits).
void collect_add_deps(const Dfg& dfg, const Operand& o,
                      std::vector<std::uint32_t>& out) {
  const Node& p = dfg.node(o.node);
  if (p.kind == OpKind::Add) {
    out.push_back(o.node.index);
    return;
  }
  if (is_glue(p.kind) || p.kind == OpKind::Concat) {
    for (const Operand& q : p.operands) collect_add_deps(dfg, q, out);
  }
}

/// Per fragment, the fragments producing its operand bits (through glue
/// and concats, carry-in included) — the precedence the list scheduler
/// obeys.
std::vector<std::vector<std::size_t>> fragment_producers(
    const TransformResult& t) {
  const std::size_t n = t.adds.size();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> add_index_of_node(t.spec.size(), kNone);
  for (std::size_t k = 0; k < n; ++k) {
    add_index_of_node[t.adds[k].node.index] = k;
  }
  std::vector<std::vector<std::size_t>> producers(n);
  std::vector<std::uint32_t> producer_adds;
  for (std::size_t k = 0; k < n; ++k) {
    producer_adds.clear();
    for (const Operand& o : t.spec.node(t.adds[k].node).operands) {
      collect_add_deps(t.spec, o, producer_adds);
    }
    for (std::uint32_t p : producer_adds) {
      if (add_index_of_node[p] != kNone) {
        producers[k].push_back(add_index_of_node[p]);
      }
    }
  }
  return producers;
}

/// Places every transformed Add in a cycle of its window. When `balance` is
/// set, fragments are placed in list-scheduling order (fixed fragments
/// first, then by increasing mobility) into the cycle minimizing
/// (marginal merged-row cost, row load, cycle index). Without balancing,
/// every fragment goes to its ASAP cycle, which is feasible by construction
/// of the windows. Returns false when a balanced placement gets stuck.
///
/// Readiness (all producer fragments placed) is tracked by counters fed
/// from the inverse dependency lists, and selection pops a min-heap keyed
/// (mobility, asap, index) — the same fragment order the historical
/// all-fragments rescan produced, without the O(n^2) sweep. Placements in
/// this loop are never undone, so a fragment becomes ready exactly once.
bool place(SchedulerCore& core,
           const std::vector<std::vector<std::size_t>>& producers,
           bool balance) {
  const TransformResult& t = core.transform();
  const std::size_t n = core.size();

  std::vector<std::size_t> pending(n, 0);
  std::vector<std::vector<std::size_t>> dependents(n);
  for (std::size_t k = 0; k < n; ++k) {
    pending[k] = producers[k].size();
    for (std::size_t d : producers[k]) dependents[d].push_back(k);
  }

  using Key = std::tuple<unsigned, unsigned, std::size_t>;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ready;
  auto key_of = [&](std::size_t k) {
    return Key{t.adds[k].alap - t.adds[k].asap, t.adds[k].asap, k};
  };
  for (std::size_t k = 0; k < n; ++k) {
    if (pending[k] == 0) ready.push(key_of(k));
  }

  std::vector<unsigned> candidates;
  CancelCheckpoint cancel(core.options().cancel);
  for (std::size_t done = 0; done < n; ++done) {
    cancel.tick();
    HLS_ASSERT(!ready.empty(), "no ready fragment: dependency cycle?");
    const std::size_t best = std::get<2>(ready.top());
    ready.pop();

    const TransformedAdd& a = t.adds[best];
    candidates.clear();
    for (unsigned c = a.asap; c <= a.alap; ++c) candidates.push_back(c);
    if (balance) {
      std::stable_sort(
          candidates.begin(), candidates.end(), [&](unsigned x, unsigned y) {
            return std::make_pair(core.marginal(best, x), core.load(x)) <
                   std::make_pair(core.marginal(best, y), core.load(y));
          });
    }

    bool ok = false;
    for (unsigned c : candidates) {
      if (core.try_place(best, c)) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      if (!balance) {
        throw Error("ASAP placement of fragment infeasible — window "
                    "computation and simulator disagree");
      }
      return false;
    }
    for (std::size_t u : dependents[best]) {
      if (--pending[u] == 0) ready.push(key_of(u));
    }
  }
  return true;
}

} // namespace

bool FragSchedule::has_unconsecutive_execution() const {
  std::map<std::uint32_t, std::vector<unsigned>> cycles;
  for (const FuOp& f : fu_ops) cycles[f.orig.index].push_back(f.cycle);
  for (auto& [orig, cs] : cycles) {
    std::sort(cs.begin(), cs.end());
    for (std::size_t i = 1; i < cs.size(); ++i) {
      if (cs[i] > cs[i - 1] + 1) return true;
    }
  }
  return false;
}

FragSchedule schedule_transformed(const TransformResult& t,
                                  const SchedulerOptions& options) {
  const std::vector<std::vector<std::size_t>> producers = fragment_producers(t);
  SchedulerCore balanced(t, options);
  if (place(balanced, producers, /*balance=*/true)) return balanced.finish();
  SchedulerCore asap(t, options);
  place(asap, producers, /*balance=*/false);
  return asap.finish();
}

FragSchedule schedule_transformed(const TransformResult& t) {
  return schedule_transformed(t, SchedulerOptions{});
}

} // namespace hls
