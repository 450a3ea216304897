#include "sched/core.hpp"

#include <algorithm>

#include "support/strings.hpp"

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

} // namespace

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
  producers_.resize(n);

  std::map<std::uint32_t, std::size_t> last_of_orig;
  std::map<std::uint32_t, std::size_t> add_index_of_node;
  for (std::size_t k = 0; k < n; ++k) {
    lo_[k] = t.adds[k].asap;
    hi_[k] = t.adds[k].alap;
    const auto it = last_of_orig.find(t.adds[k].orig.index);
    if (it != last_of_orig.end()) {
      prev_[k] = it->second;
      next_[it->second] = k;
    }
    last_of_orig[t.adds[k].orig.index] = k;
    add_index_of_node[t.adds[k].node.index] = k;
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<std::uint32_t> producer_adds;
    for (const Operand& o : t.spec.node(t.adds[k].node).operands) {
      collect_add_deps(t.spec, o, producer_adds);
    }
    for (std::uint32_t p : producer_adds) {
      const auto it = add_index_of_node.find(p);
      if (it != add_index_of_node.end()) producers_[k].push_back(it->second);
    }
  }

  if (options_.feasibility == SchedulerOptions::Feasibility::Incremental) {
    engine_.emplace(t.spec, index_, t.n_bits);
    engine_->set_cross_check(options_.cross_check);
  } else {
    assign_ = BitCycles(*index_);
  }
}

void SchedulerCore::set_window_bounds(std::vector<unsigned> lo,
                                      std::vector<unsigned> hi) {
  HLS_REQUIRE(lo.size() == size() && hi.size() == size(),
              "window bounds must cover every fragment");
  for (std::size_t k = 0; k < lo.size(); ++k) {
    HLS_REQUIRE(lo[k] <= hi[k] && hi[k] < t_->latency,
                "window bounds must satisfy lo <= hi < latency");
  }
  lo_ = std::move(lo);
  hi_ = std::move(hi);
}

std::vector<double> SchedulerCore::distribution() const {
  std::vector<double> dg(t_->latency, 0.0);
  for (std::size_t k = 0; k < size(); ++k) {
    const double mass = static_cast<double>(width_of(k)) / (hi_[k] - lo_[k] + 1);
    for (unsigned c = lo_[k]; c <= hi_[k]; ++c) dg[c] += mass;
  }
  return dg;
}

unsigned SchedulerCore::marginal(std::size_t k, unsigned c) const {
  const TransformedAdd& a = t_->adds[k];
  const auto it = by_orig_.find(a.orig.index);
  if (it == by_orig_.end()) return 1;
  for (const auto& [bits, cyc] : it->second) {
    if (cyc == c && (bits.abuts_below(a.bits) || a.bits.abuts_below(bits))) {
      return 0;
    }
  }
  return 1;
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
  by_orig_[a.orig.index].push_back({a.bits, c});
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
  by_orig_[a.orig.index].pop_back();
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
  // sweep suffices (fragment order, not placement order).
  std::map<std::uint32_t, std::size_t> last_fu_of_orig;
  for (std::size_t k = 0; k < size(); ++k) {
    const TransformedAdd& a = t.adds[k];
    const unsigned c = cycle_of_[k];
    const auto it = last_fu_of_orig.find(a.orig.index);
    if (it != last_fu_of_orig.end()) {
      FragSchedule::FuOp& prev = out.fu_ops[it->second];
      if (prev.cycle == c && prev.bits.abuts_below(a.bits)) {
        prev.bits = BitRange{prev.bits.lo, prev.bits.width + a.bits.width};
        prev.nodes.push_back(a.node);
        continue;
      }
    }
    out.fu_ops.push_back(FragSchedule::FuOp{a.orig, a.bits, c, {a.node}});
    last_fu_of_orig[a.orig.index] = out.fu_ops.size() - 1;
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
