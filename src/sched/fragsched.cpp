#include "sched/fragsched.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>
#include <tuple>

#include "sched/core.hpp"

namespace hls {

namespace {

/// Fragment precedence in CSR form: fragment k's producers are
/// producers[producer_begin[k], producer_begin[k + 1]), its dependents
/// likewise.
struct Precedence {
  std::vector<std::size_t> producer_begin{0}, producers;
  std::vector<std::size_t> dependent_begin, dependents;
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Appends the fragments an operand depends on to `out`, walking through
/// glue and concats (conservatively: every reachable add, not only the
/// sliced bits). Nodes already stamped `walk` were expanded earlier in the
/// same walk and are skipped, so a walk visits each node once however much
/// glue reconverges, and lists each producer once, in first-occurrence
/// order.
void collect_add_deps(const Dfg& dfg, const Operand& o,
                      const std::vector<std::size_t>& fragment_of,
                      std::size_t walk, std::vector<std::size_t>& stamp,
                      std::vector<std::size_t>& out) {
  if (stamp[o.node.index] == walk) return;
  stamp[o.node.index] = walk;
  const Node& p = dfg.node(o.node);
  if (p.kind == OpKind::Add) {
    const std::size_t k = fragment_of[o.node.index];
    if (k != kNone) out.push_back(k);
    return;
  }
  if (is_glue(p.kind) || p.kind == OpKind::Concat) {
    for (const Operand& q : p.operands) {
      collect_add_deps(dfg, q, fragment_of, walk, stamp, out);
    }
  }
}

/// Per fragment, the distinct fragments producing its operand bits (through
/// glue and concats, carry-in included) — the precedence the list scheduler
/// obeys — and the inverse lists.
Precedence fragment_producers(const TransformResult& t) {
  const std::size_t n = t.adds.size();
  std::vector<std::size_t> fragment_of(t.spec.size(), kNone);
  for (std::size_t k = 0; k < n; ++k) fragment_of[t.adds[k].node.index] = k;
  Precedence g;
  std::vector<std::size_t> stamp(t.spec.size(), kNone);
  for (std::size_t k = 0; k < n; ++k) {
    for (const Operand& o : t.spec.node(t.adds[k].node).operands) {
      collect_add_deps(t.spec, o, fragment_of, k, stamp, g.producers);
    }
    g.producer_begin.push_back(g.producers.size());
  }

  g.dependent_begin.assign(n + 1, 0);
  for (std::size_t d : g.producers) ++g.dependent_begin[d + 1];
  std::partial_sum(g.dependent_begin.begin(), g.dependent_begin.end(),
                   g.dependent_begin.begin());
  g.dependents.resize(g.producers.size());
  std::vector<std::size_t> fill = g.dependent_begin;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = g.producer_begin[k]; i < g.producer_begin[k + 1];
         ++i) {
      g.dependents[fill[g.producers[i]]++] = k;
    }
  }
  return g;
}

/// Places every transformed Add in a cycle of its window. When `balance` is
/// set, fragments are placed in list-scheduling order (fixed fragments
/// first, then by increasing mobility) into the cycle minimizing
/// (marginal merged-row cost, row load, cycle index); each candidate's key
/// is computed once and the keys sorted. Without balancing, every fragment
/// goes to its ASAP cycle, which is feasible by construction of the
/// windows. Returns false when a balanced placement gets stuck.
///
/// Readiness (every distinct producer fragment placed) is tracked by
/// counters fed from the CSR dependent lists, and selection pops a min-heap
/// keyed (mobility, asap, index) — the same fragment order the historical
/// all-fragments rescan produced, without the O(n^2) sweep. The heap's key
/// is unique, so the pop order depends only on which fragments are ready,
/// not on the order or multiplicity in which they became ready. Placements
/// in this loop are never undone, so a fragment becomes ready exactly once.
bool place(SchedulerCore& core, const Precedence& g, bool balance) {
  const TransformResult& t = core.transform();
  const std::size_t n = core.size();

  std::vector<std::size_t> pending(n);
  for (std::size_t k = 0; k < n; ++k) {
    pending[k] = g.producer_begin[k + 1] - g.producer_begin[k];
  }

  using Key = std::tuple<unsigned, unsigned, std::size_t>;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ready;
  auto key_of = [&](std::size_t k) {
    return Key{t.adds[k].alap - t.adds[k].asap, t.adds[k].asap, k};
  };
  for (std::size_t k = 0; k < n; ++k) {
    if (pending[k] == 0) ready.push(key_of(k));
  }

  using Candidate = std::tuple<unsigned, unsigned, unsigned>;  // m, load, c
  std::vector<Candidate> candidates;
  CancelCheckpoint cancel(core.options().cancel);
  for (std::size_t done = 0; done < n; ++done) {
    cancel.tick();
    HLS_ASSERT(!ready.empty(), "no ready fragment: dependency cycle?");
    const std::size_t best = std::get<2>(ready.top());
    ready.pop();

    const TransformedAdd& a = t.adds[best];
    candidates.clear();
    for (unsigned c = a.asap; c <= a.alap; ++c) {
      candidates.emplace_back(core.marginal(best, c), core.load(c), c);
    }
    if (balance) std::sort(candidates.begin(), candidates.end());

    bool ok = false;
    for (const Candidate& cand : candidates) {
      if (core.try_place(best, std::get<2>(cand))) {
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
    for (std::size_t i = g.dependent_begin[best];
         i < g.dependent_begin[best + 1]; ++i) {
      const std::size_t u = g.dependents[i];
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
  const Precedence precedence = fragment_producers(t);
  SchedulerCore balanced(t, options);
  if (place(balanced, precedence, /*balance=*/true)) return balanced.finish();
  SchedulerCore asap(t, options);
  place(asap, precedence, /*balance=*/false);
  return asap.finish();
}

FragSchedule schedule_transformed(const TransformResult& t) {
  return schedule_transformed(t, SchedulerOptions{});
}

} // namespace hls
