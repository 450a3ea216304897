#include "rtl/netlist.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "support/strings.hpp"

namespace hls {

namespace {

constexpr unsigned kNever = UINT32_MAX;

std::uint64_t ones(unsigned w) { return w < 64 ? (1ull << w) - 1 : ~0ull; }

class Lowering {
public:
  Lowering(const TransformResult& t, const FragSchedule& fs, const Datapath& dp)
      : dfg_(t.spec), dp_(dp), rows_(fs.schedule.rows),
        runs_(dp.stored, t.spec.size()), outputs_(t.spec.outputs()),
        cycle_of_(t.spec.size(), kNever), need_(t.spec.size()),
        base_(t.spec.size() + 1),
        nl_{t.latency, static_cast<unsigned>(dp.regs.size())} {
    for (const ScheduleRow& r : rows_) cycle_of_[r.op.index] = r.cycle;
    for (std::uint32_t i = 0; i < dfg_.size(); ++i) {
      const Node& n = dfg_.node(NodeId{i});
      base_[i + 1] = base_[i] + (is_glue(n.kind) ? n.width : 0);
    }
    memo_.assign(base_.back(), {kNever, Slice{}});
  }

  Netlist run() {
    for (state_ = 0; state_ <= nl_.states; ++state_) {
      nl_.block.push_back(static_cast<std::uint32_t>(nl_.statements.size()));
      // Latches first: only a latch that resolves reads its glue.
      latches_.clear();
      for (NodeId out : outputs_) {
        const Operand& o = dfg_.node(out).operands[0];
        if (emit({Statement::Latch, out.index, 0, o.bits.width}, {&o, 1})) {
          demand(o, ones(o.bits.width));
        }
      }
      for (const ScheduleRow& r : rows_) {
        if (r.cycle != state_) continue;
        touched_.push_back(r.op.index);
        const Node& n = dfg_.node(r.op);
        for (const Operand& o : n.operands) demand(o, ones(n.width));
      }
      // In node order: the additions, and glue by runs of the bits read.
      std::sort(touched_.begin(), touched_.end());
      for (std::uint32_t i : touched_) {
        const Node& n = dfg_.node(NodeId{i});
        if (n.kind == OpKind::Add) {
          emit({Statement::Net, i, 0, n.width}, n.operands);
        }
        for (std::uint64_t m = is_glue(n.kind) ? need_[i] : 0; m != 0;) {
          const auto lo = static_cast<unsigned>(std::countr_zero(m));
          const auto width = static_cast<unsigned>(std::countr_one(m >> lo));
          emit({Statement::Net, i, lo, width}, n.operands);
          m &= ~(ones(width) << lo);
        }
        need_[i] = 0;
      }
      touched_.clear();
      for (const StoredRun& r : dp_.stored) {
        const Operand held{r.node, r.bits};
        if (r.produced != state_) continue;
        emit({Statement::Load, r.reg, 0, r.bits.width}, {&held, 1});
      }
      nl_.statements.insert(nl_.statements.end(), latches_.begin(),
                            latches_.end());
    }
    nl_.block.push_back(static_cast<std::uint32_t>(nl_.statements.size()));
    nl_.statements.shrink_to_fit();  // it is held while it prints
    nl_.slices.shrink_to_fit();
    return std::move(nl_);
  }

private:
  /// The longest uniform run of at most `max` bits of `node` from `bit` on,
  /// in state_; width 0 with id, lo naming the addition bit if it has none.
  Slice source(std::uint32_t node, unsigned bit, unsigned max) {
    const Node& n = dfg_.node(NodeId{node});
    const unsigned at = cycle_of_[node];
    const std::uint64_t v = n.value >> bit;
    const StoredRun* run = nullptr;
    switch (n.kind) {
      case OpKind::Input:
        return {Slice::Port, node, bit, max};
      case OpKind::Const:
        return {v & 1 ? Slice::One : Slice::Zero, 0, 0,
                std::min<unsigned>(max, std::countr_one(v & 1 ? v : ~v))};
      case OpKind::Add:
        // The port block reads every addition's final value.
        if (at == state_ || (state_ == nl_.states && at != kNever)) {
          return {Slice::Net, node, bit, max};
        }
        run = runs_.covering(NodeId{node}, bit, state_);
        if (run == nullptr) return {Slice::Zero, node, bit, 0};
        return {Slice::Reg, run->reg, bit - run->bits.lo,
                std::min(max, run->bits.hi() - bit)};
      case OpKind::Concat: {
        auto part = n.operands.begin();
        for (; bit >= part->bits.width; ++part) bit -= part->bits.width;
        return source(part->node.index, part->bits.lo + bit,
                      std::min(max, part->bits.width - bit));
      }
      default:
        break;
    }
    HLS_ASSERT(is_glue(n.kind), "RTL lowering needs a kernel-form spec");
    // A glue bit is a net when all bits it reads have a source; memoized,
    // as glue may read one bit along several paths.
    auto& [stamp, memo] = memo_[base_[node] + bit];
    if (stamp == state_) return memo;
    stamp = state_;
    memo = {Slice::Net, node, bit, 1};
    for (const Operand& o : n.operands) {
      if (bit >= o.bits.width) continue;  // zero extension
      const Slice s = source(o.node.index, o.bits.lo + bit, 1);
      if (s.width == 0) return memo = s;
    }
    return memo;
  }

  /// Appends `st`, operand k reading ops[k] bits [st.lo, st.lo + st.width)
  /// zero-extended. When one has no source, a latch of a printed state is
  /// left out (returns false); any other statement throws.
  bool emit(Statement st, std::span<const Operand> ops) {
    const std::size_t mark = nl_.slices.size();
    st.operands = static_cast<unsigned>(ops.size());
    for (unsigned k = 0; k < st.operands; ++k) {
      st.at[k] = static_cast<std::uint32_t>(nl_.slices.size());
      const unsigned end = st.lo + st.width;
      for (unsigned b = st.lo; b < end;) {
        const unsigned read = std::min(end, ops[k].bits.width);
        const Slice s =
            b < read ? source(ops[k].node.index, ops[k].bits.lo + b, read - b)
                     : Slice{Slice::Zero, 0, 0, end - b};
        if (s.width == 0) {
          nl_.slices.resize(mark);
          if (st.kind == Statement::Latch && state_ < nl_.states) return false;
          throw Error(strformat("bit %u of %%%u read in cycle %u has no source",
                                s.lo, s.id, state_),
                      ErrorContext{s.id, s.lo, state_});
        }
        Slice* last = nl_.slices.size() > st.at[k] ? &nl_.slices.back()
                                                   : nullptr;
        if (last != nullptr && last->kind == s.kind &&
            (s.kind <= Slice::One ||
             (last->id == s.id && last->lo + last->width == s.lo))) {
          last->width += s.width;
        } else {
          nl_.slices.push_back(s);
        }
        b += s.width;
      }
    }
    st.at[st.operands] = static_cast<std::uint32_t>(nl_.slices.size());
    (st.kind == Statement::Latch ? latches_ : nl_.statements).push_back(st);
    return true;
  }

  /// Marks bits `mask` of `o`, and through glue and concatenation the bits
  /// those read, as read in this state.
  void demand(const Operand& o, std::uint64_t mask) {
    const Node& n = dfg_.node(o.node);
    if (!is_glue(n.kind) && n.kind != OpKind::Concat) return;
    const std::uint32_t i = o.node.index;
    mask = ((mask & ones(o.bits.width)) << o.bits.lo) & ~need_[i];
    if (mask == 0) return;
    if (need_[i] == 0) touched_.push_back(i);
    need_[i] |= mask;
    unsigned base = 0;
    for (const Operand& p : n.operands) {
      const std::uint64_t read = n.kind == OpKind::Concat ? mask >> base : mask;
      if ((read & ones(p.bits.width)) != 0) demand(p, read);
      base += p.bits.width;
    }
  }

  const Dfg& dfg_;
  const Datapath& dp_;
  const std::vector<ScheduleRow>& rows_;
  const StoredRunIndex runs_;
  const std::vector<NodeId> outputs_;
  std::vector<unsigned> cycle_of_;
  std::vector<std::uint64_t> need_;  ///< per node: the bits this state reads
  std::vector<std::uint32_t> touched_;  ///< this state's adds, need_ != 0
  std::vector<std::uint32_t> base_;  ///< per glue node: first bit in memo_
  std::vector<std::pair<unsigned, Slice>> memo_;  ///< per bit: state, source
  std::vector<Statement> latches_;
  unsigned state_ = 0;
  Netlist nl_;
};

} // namespace

Netlist lower_rtl(const TransformResult& t, const FragSchedule& fs,
                  const Datapath& dp) {
  return Lowering(t, fs, dp).run();
}

} // namespace hls
