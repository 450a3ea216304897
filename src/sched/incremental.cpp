#include "sched/incremental.hpp"

#include <algorithm>
#include <bit>

namespace hls {

IncrementalBitSim::IncrementalBitSim(const Dfg& kernel, unsigned budget)
    : IncrementalBitSim(kernel, std::make_shared<const DfgIndex>(kernel),
                        budget) {}

IncrementalBitSim::IncrementalBitSim(const Dfg& kernel,
                                     std::shared_ptr<const DfgIndex> index,
                                     unsigned budget)
    : dfg_(&kernel),
      index_(std::move(index)),
      budget_(budget),
      assign_(*index_) {
  // The all-unassigned baseline never violates precedence, so the full
  // simulator both seeds the availability state and vets the DFG shape.
  BitSim sim = simulate_bit_schedule(kernel, assign_);
  avail_ = std::move(sim.avail);
  max_slot_ = sim.max_slot;
  dirty_.assign((kernel.size() + 63) / 64, 0);
  // One cone rarely touches more than the bit space; pre-sizing the arena
  // makes steady-state try_place/undo allocation-free from the start.
  journal_.reserve(index_->total_bits());
}

// Mirror of simulate_bit_schedule()'s per-OpKind recurrence (see the note
// in sched/bitsim.cpp): any timing-model change there must land here too.
bool IncrementalBitSim::recompute(std::uint32_t idx, unsigned& new_max,
                                  bool& changed) {
  const Node& n = dfg_->node(NodeId{idx});
  const std::uint32_t self = index_->bit_offset(idx);

  auto operand_avail = [this](const Operand& o, unsigned rel) -> PackedAvail {
    if (rel >= o.bits.width) return kPackedStartOfTime;
    return avail_[index_->bit_offset(o.node.index) + o.bits.lo + rel];
  };
  auto write = [&](unsigned b, PackedAvail v) {
    const std::uint32_t f = self + b;
    if (avail_[f] == v) return;  // no-op writes stay out of the journal
    journal_.push_back({f, 0, avail_[f]});
    avail_[f] = v;
    ++words_repropagated_;
    changed = true;
  };

  switch (n.kind) {
    case OpKind::Input:
    case OpKind::Const:
      break;  // constant availability; never in any cone
    case OpKind::Output:
      for (unsigned b = 0; b < n.width; ++b) {
        write(b, operand_avail(n.operands[0], b));
      }
      break;
    case OpKind::Add: {
      const std::span<const unsigned> cycles = assign_[idx];
      for (unsigned b = 0; b < n.width; ++b) {
        const unsigned c = cycles[b];
        if (c == kUnassignedCycle) continue;  // stays unavailable

        // One compare rejects both "computed after cycle c" and
        // "unassigned": the sentinel is the maximum packed word.
        const PackedAvail reject = pack_avail(c + 1, 0);
        const PackedAvail same_cycle = pack_avail(c, 0);

        PackedAvail carry = kPackedStartOfTime;
        if (b > 0) {
          // Already recomputed this pass.
          carry = avail_[self + b - 1];
        } else if (n.has_carry_in()) {
          carry = operand_avail(n.operands[2], 0);
        }
        unsigned slot = 0;
        for (const PackedAvail in :
             {operand_avail(n.operands[0], b), operand_avail(n.operands[1], b),
              carry}) {
          if (in >= reject) return false;
          if (in >= same_cycle) slot = std::max(slot, packed_slot(in));
        }
        const unsigned cost = n.add_bit_is_free(b) ? 0u : 1u;
        write(b, pack_avail(c, slot + cost));
        new_max = std::max(new_max, slot + cost);
        if (new_max > budget_) return false;  // over budget: reject early
      }
      break;
    }
    case OpKind::And:
    case OpKind::Or:
    case OpKind::Xor:
    case OpKind::Not: {
      // Lane-wise max: an unassigned operand is the maximum word, so it
      // propagates unavailability without a separate flag.
      for (unsigned b = 0; b < n.width; ++b) {
        PackedAvail v = kPackedStartOfTime;
        for (const Operand& o : n.operands) {
          v = std::max(v, operand_avail(o, b));
        }
        write(b, v);
      }
      break;
    }
    case OpKind::Concat: {
      unsigned base = 0;
      for (const Operand& o : n.operands) {
        for (unsigned b = 0; b < o.bits.width; ++b) {
          write(base + b, operand_avail(o, b));
        }
        base += o.bits.width;
      }
      break;
    }
    default:
      return false;  // non-kernel node: the full simulator would throw
  }
  return true;
}

bool IncrementalBitSim::try_place(NodeId add, unsigned cycle) {
  const Node& n = dfg_->node(add);
  HLS_REQUIRE(n.kind == OpKind::Add, "try_place target must be an Add");
  HLS_REQUIRE(cycle != kUnassignedCycle, "try_place cycle is invalid");
  const std::span<unsigned> a = assign_[add.index];
  for (unsigned b = 0; b < n.width; ++b) {
    HLS_REQUIRE(a[b] == kUnassignedCycle, "fragment is already placed");
  }
  const JournalIndex jbegin = journal_.size();
  // try_place writes one uniform cycle across the whole fragment, so ONE
  // journal entry (keyed by node, not bit) rolls the span back.
  journal_.push_back({kAssignBit | add.index, kUnassignedCycle, 0});
  std::fill(a.begin(), a.end(), cycle);

  unsigned new_max = max_slot_;
  bool ok = true;
  // Topological worklist as a bitmap: operands always precede users, so the
  // smallest set index is always safe to recompute, and — because a node's
  // users have strictly larger indices — the pop-min scan never moves
  // backwards. One monotone pass over the words drains the whole cone.
  std::size_t w = add.index >> 6;
  std::size_t hi_w = w;
  dirty_[w] |= std::uint64_t{1} << (add.index & 63);
  while (w <= hi_w) {
    const std::uint64_t word = dirty_[w];
    if (word == 0) {
      ++w;
      continue;
    }
    const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
    dirty_[w] = word & (word - 1);
    const std::uint32_t idx =
        static_cast<std::uint32_t>((w << 6) | bit);
    bool changed = false;
    if (!recompute(idx, new_max, changed)) {
      ok = false;
      break;
    }
    if (changed) {
      for (const std::uint32_t u : index_->users(idx)) {
        const std::size_t uw = u >> 6;
        dirty_[uw] |= std::uint64_t{1} << (u & 63);
        if (uw > hi_w) hi_w = uw;
      }
    }
  }

  if (!ok) {
    // Drain whatever the aborted scan left pending, then replay the journal
    // — availability and assignment writes together, one pass.
    for (std::size_t i = w; i <= hi_w; ++i) dirty_[i] = 0;
    rollback(jbegin);
    return false;
  }
  frames_.push_back({max_slot_, jbegin});
  max_slot_ = new_max;
  if (cross_check_) verify_against_full();
  return true;
}

unsigned IncrementalBitSim::earliest_cycle(NodeId add) const {
  const Node& n = dfg_->node(add);
  PackedAvail latest = kPackedStartOfTime;
  auto fold = [&](const Operand& o, unsigned bits) {
    const PackedAvail* w =
        avail_.data() + index_->bit_offset(o.node.index) + o.bits.lo;
    for (unsigned b = 0; b < std::min(bits, o.bits.width); ++b) {
      latest = std::max(latest, w[b]);
    }
  };
  fold(n.operands[0], n.width);
  fold(n.operands[1], n.width);
  if (n.has_carry_in()) fold(n.operands[2], std::min(n.width, 1u));
  // The unavailable sentinel packs to cycle kUnassignedCycle.
  return packed_cycle(latest);
}

void IncrementalBitSim::undo() {
  HLS_REQUIRE(!frames_.empty(), "undo without a matching try_place");
  const Frame frame = frames_.back();
  frames_.pop_back();
  rollback(frame.journal_begin);
  max_slot_ = frame.old_max_slot;
  if (cross_check_) verify_against_full();
}

void IncrementalBitSim::rollback(JournalIndex begin) {
  // Reverse order restores words journalled twice (impossible today, cheap
  // insurance anyway) to their oldest value.
  for (JournalIndex i = journal_.size(); i-- > begin;) {
    const Touch& t = journal_[i];
    if (t.key & kAssignBit) {
      const std::uint32_t node = t.key & ~kAssignBit;
      const std::span<unsigned> span = assign_[node];
      std::fill(span.begin(), span.end(), t.old_assign);
    } else {
      avail_[t.key] = t.old_avail;
    }
  }
  journal_.resize(begin);
}

void IncrementalBitSim::verify_against_full() const {
  const BitSim sim = simulate_bit_schedule(*dfg_, assign_);
  HLS_ASSERT(sim.max_slot == max_slot_,
             "incremental max_slot diverged from the full simulator");
  HLS_ASSERT(sim.avail == avail_,
             "incremental availability diverged from the full simulator");
}

} // namespace hls
