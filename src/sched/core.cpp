#include "sched/core.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace hls {

SchedulerCore::SchedulerCore(const TransformResult& t, SchedulerOptions options)
    : t_(&t),
      options_(options),
      index_(std::make_shared<const DfgIndex>(t.spec)),
      load_(t.latency, 0) {
  const std::size_t n = t.adds.size();
  lo_.resize(n);
  hi_.resize(n);
  placed_.assign(n, false);
  cycle_of_.assign(n, 0);
  prev_.assign(n, npos);
  next_.assign(n, npos);

  // Link each original op's fragments into its carry chain, in index order.
  std::uint32_t max_orig = 0;
  for (const TransformedAdd& a : t.adds) {
    max_orig = std::max(max_orig, a.orig.index);
  }
  std::vector<std::size_t> last_of_orig(n == 0 ? 0 : max_orig + 1, npos);
  for (std::size_t k = 0; k < n; ++k) {
    lo_[k] = t.adds[k].asap;
    hi_[k] = t.adds[k].alap;
    std::size_t& last = last_of_orig[t.adds[k].orig.index];
    if (last != npos) {
      HLS_ASSERT(t.adds[last].bits.hi() <= t.adds[k].bits.lo,
                 "an op's fragments must be disjoint and LSB-first");
      prev_[k] = last;
      next_[last] = k;
    }
    last = k;
  }

  if (options_.feasibility == SchedulerOptions::Feasibility::Incremental) {
    engine_.emplace(t.spec, index_, t.n_bits);
    engine_->set_cross_check(options_.cross_check);
  } else {
    assign_ = BitCycles(*index_);
  }
}

void SchedulerCore::tighten_chain(std::size_t k, unsigned c) {
  HLS_REQUIRE(k < size() && lo_[k] <= c && c <= hi_[k],
              "tighten_chain cycle must lie in the fragment's window");
  for (std::size_t p = prev_[k]; p != npos; p = prev_[p]) {
    HLS_REQUIRE(lo_[p] <= c, "tighten_chain would empty an earlier window");
  }
  for (std::size_t s = next_[k]; s != npos; s = next_[s]) {
    HLS_REQUIRE(c <= hi_[s], "tighten_chain would empty a later window");
  }
  lo_[k] = hi_[k] = c;
  for (std::size_t p = prev_[k]; p != npos; p = prev_[p]) {
    hi_[p] = std::min(hi_[p], c);
  }
  for (std::size_t s = next_[k]; s != npos; s = next_[s]) {
    lo_[s] = std::max(lo_[s], c);
  }
}

void SchedulerCore::distribution(std::vector<double>& dg) const {
  dg.assign(t_->latency, 0.0);
  for (std::size_t k = 0; k < size(); ++k) {
    const double mass = static_cast<double>(width_of(k)) / (hi_[k] - lo_[k] + 1);
    for (unsigned c = lo_[k]; c <= hi_[k]; ++c) dg[c] += mass;
  }
}

unsigned SchedulerCore::marginal(std::size_t k, unsigned c) const {
  // Neighbour j chains with k when placed in c with fragment `below`'s
  // bits ending where fragment `above`'s start.
  const auto chains = [&](std::size_t j, std::size_t below, std::size_t above) {
    return j != npos && placed_[j] && cycle_of_[j] == c &&
           t_->adds[below].bits.abuts_below(t_->adds[above].bits);
  };
  const std::size_t p = prev_[k], s = next_[k];
  return chains(p, p, k) || chains(s, k, s) ? 0 : 1;
}

bool SchedulerCore::try_place(std::size_t k, unsigned c) {
  HLS_ASSERT(k < size() && !placed_[k], "fragment index invalid or placed");
  const TransformedAdd& a = t_->adds[k];
  if (options_.counters) ++options_.counters->candidates_probed;

  if (engine_) {
    if (!engine_->try_place(a.node, c)) {
      if (options_.counters) ++options_.counters->candidates_rejected;
      return false;
    }
  } else {
    const std::uint32_t w = index_->bit_width(a.node.index);
    for (unsigned b = 0; b < w; ++b) assign_[a.node.index][b] = c;
    bool ok = false;
    try {
      ok = simulate_bit_schedule(t_->spec, assign_).max_slot <= t_->n_bits;
    } catch (const Error&) {
      // Operand in a later cycle (or not yet placed) under this choice.
    }
    if (!ok) {
      for (unsigned b = 0; b < w; ++b) {
        assign_[a.node.index][b] = kUnassignedCycle;
      }
      if (options_.counters) ++options_.counters->candidates_rejected;
      return false;
    }
  }
  if (options_.counters) ++options_.counters->candidates_committed;

  const unsigned m = marginal(k, c);
  load_[c] += m;
  placed_[k] = true;
  cycle_of_[k] = c;
  journal_.push_back({k, c, m});
  span_sampler_.tick();
  return true;
}

void SchedulerCore::CommitSpanSampler::emit() {
  const std::uint64_t now = TraceSession::global().now_ns();
  emit_span("sched.commit", "sched", batch_start_, now - batch_start_,
            "commits=%u", pending_);
  pending_ = 0;
}

void SchedulerCore::undo_last() {
  HLS_REQUIRE(!journal_.empty(), "undo_last without a successful try_place");
  const Commit cm = journal_.back();
  journal_.pop_back();
  const TransformedAdd& a = t_->adds[cm.fragment];
  if (engine_) {
    engine_->undo();
  } else {
    const std::uint32_t w = index_->bit_width(a.node.index);
    for (unsigned b = 0; b < w; ++b) {
      assign_[a.node.index][b] = kUnassignedCycle;
    }
  }
  load_[cm.cycle] -= cm.marginal;
  placed_[cm.fragment] = false;
}

FragSchedule SchedulerCore::finish() const {
  HLS_REQUIRE(placed_count() == size(),
              "finish() requires every fragment placed");
  // Close the sampled commit-batch span covering the tail commits, so a
  // traced schedule always carries at least one "sched.commit" span.
  span_sampler_.flush();
  if (options_.counters && engine_) {
    // Words are counted by the engine across its lifetime; flushing at
    // finish() keeps the hot path free of a second counter.
    options_.counters->words_repropagated += engine_->words_repropagated();
  }
  const TransformResult& t = *t_;
  FragSchedule out;
  out.schedule.latency = t.latency;
  out.schedule.cycle_deltas = t.n_bits;
  for (std::size_t k = 0; k < size(); ++k) {
    out.schedule.rows.push_back(
        ScheduleRow{t.adds[k].node, cycle_of_[k],
                    BitRange::whole(t.spec.node(t.adds[k].node).width)});
  }
  validate_schedule(t.spec, *index_, out.schedule);

  // Merge adjacent same-cycle fragments of one original op into one adder
  // op. TransformResult::adds lists fragments LSB-first per op, so a single
  // sweep suffices (fragment order, not placement order): the op's latest
  // adder op is the one its chain predecessor went into.
  std::vector<std::size_t> fu_of(size());
  for (std::size_t k = 0; k < size(); ++k) {
    const TransformedAdd& a = t.adds[k];
    const unsigned c = cycle_of_[k];
    if (prev_[k] != npos) {
      FragSchedule::FuOp& prev = out.fu_ops[fu_of[prev_[k]]];
      if (prev.cycle == c && prev.bits.abuts_below(a.bits)) {
        prev.bits = BitRange{prev.bits.lo, prev.bits.width + a.bits.width};
        prev.nodes.push_back(a.node);
        fu_of[k] = fu_of[prev_[k]];
        continue;
      }
    }
    fu_of[k] = out.fu_ops.size();
    out.fu_ops.push_back(FragSchedule::FuOp{a.orig, a.bits, c, {a.node}});
  }
  return out;
}

// --- SchedulerRegistry -------------------------------------------------------

SchedulerRegistry& SchedulerRegistry::global() {
  // Leaked singleton, for the same reason as FlowRegistry::global():
  // user-registered strategies may live in static-storage objects.
  static SchedulerRegistry* r = [] {
    auto* reg = new SchedulerRegistry;
    reg->add("list", [](const TransformResult& t, const SchedulerOptions& o) {
      return schedule_transformed(t, o);
    });
    reg->add("forcedirected",
             [](const TransformResult& t, const SchedulerOptions& o) {
               return schedule_transformed_forcedirected(t, o);
             });
    return reg;
  }();
  return *r;
}

FragSchedule run_scheduler(const std::string& name, const TransformResult& t,
                           const SchedulerOptions& options) {
  return SchedulerRegistry::global().resolve(name)(t, options);
}

} // namespace hls
