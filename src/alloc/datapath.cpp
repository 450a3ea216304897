#include "alloc/datapath.hpp"

#include <algorithm>
#include <bit>

namespace hls {

FuClass fu_class_of(OpKind kind) {
  switch (kind) {
    case OpKind::Add:
      return FuClass::Adder;
    case OpKind::Sub:
    case OpKind::Neg:
      return FuClass::Subtractor;
    case OpKind::Mul:
      return FuClass::Multiplier;
    case OpKind::Lt:
    case OpKind::Le:
    case OpKind::Gt:
    case OpKind::Ge:
    case OpKind::Eq:
    case OpKind::Ne:
      return FuClass::Comparator;
    case OpKind::Max:
    case OpKind::Min:
      return FuClass::MinMax;
    default:
      HLS_ASSERT(false, "no functional unit for structural/glue kinds");
  }
}

std::string_view fu_class_name(FuClass c) {
  switch (c) {
    case FuClass::Adder: return "adder";
    case FuClass::Subtractor: return "subtractor";
    case FuClass::Multiplier: return "multiplier";
    case FuClass::Comparator: return "comparator";
    case FuClass::MinMax: return "min/max";
  }
  return "?";
}

unsigned Datapath::total_register_bits() const {
  unsigned bits = 0;
  for (const RegInstance& r : regs) bits += r.width;
  return bits;
}

unsigned Datapath::fu_count(FuClass c) const {
  return static_cast<unsigned>(
      std::count_if(fus.begin(), fus.end(),
                    [c](const FuInstance& f) { return f.cls == c; }));
}

StoredRunIndex::StoredRunIndex(const std::vector<StoredRun>& stored,
                               std::size_t node_count)
    : stored_(stored), offsets_(node_count + 1, 0), runs_(stored.size()) {
  for (const StoredRun& run : stored) ++offsets_[run.node.index + 1];
  for (std::size_t i = 1; i <= node_count; ++i) offsets_[i] += offsets_[i - 1];
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (std::uint32_t r = 0; r < stored.size(); ++r) {
    runs_[fill[stored[r].node.index]++] = r;
  }
}

const StoredRun* StoredRunIndex::covering(NodeId node, unsigned bit,
                                          unsigned cycle) const {
  for (std::uint32_t i = offsets_[node.index]; i < offsets_[node.index + 1];
       ++i) {
    const StoredRun& run = stored_[runs_[i]];
    if (run.bits.contains(bit) && run.produced < cycle &&
        run.last_use >= cycle) {
      return &run;
    }
  }
  return nullptr;
}

std::vector<unsigned> color_intervals(
    const std::vector<std::vector<std::pair<unsigned, unsigned>>>& busy) {
  // Per cycle, a bitset of the colors holding it, stored 64 colors to a
  // block: bit j of occupied[w * cycles + c] is set when color 64w + j holds
  // cycle c. An item fits a color whose bit is clear in the OR over the
  // item's cycles, which for inclusive intervals is exactly "overlaps no
  // interval placed there". Colors not yet opened are clear everywhere, so
  // the lowest clear bit is the first fit: an open color, or the next one.
  unsigned max_cycle = 0;
  for (const auto& item : busy) {
    for (const auto& [first, last] : item) {
      HLS_ASSERT(first <= last, "color_intervals needs first <= last");
      max_cycle = std::max(max_cycle, last);
    }
  }
  const std::size_t cycles = std::size_t{max_cycle} + 1;
  std::vector<std::uint64_t> occupied;
  std::vector<unsigned> color(busy.size(), 0);
  for (std::size_t i = 0; i < busy.size(); ++i) {
    const std::size_t blocks = occupied.size() / cycles;
    std::size_t w = 0;
    std::uint64_t used = 0;
    for (; w < blocks; ++w) {
      const std::uint64_t* block = occupied.data() + w * cycles;
      used = 0;
      for (const auto& [first, last] : busy[i]) {
        for (std::size_t c = first; c <= last; ++c) used |= block[c];
      }
      if (used != ~std::uint64_t{0}) break;
    }
    if (w == blocks) {
      occupied.resize(occupied.size() + cycles, 0);
      used = 0;
    }
    const unsigned bit = static_cast<unsigned>(std::countr_one(used));
    std::uint64_t* block = occupied.data() + w * cycles;
    for (const auto& [first, last] : busy[i]) {
      for (std::size_t c = first; c <= last; ++c) block[c] |= 1ull << bit;
    }
    color[i] = static_cast<unsigned>(64 * w + bit);
  }
  return color;
}

} // namespace hls
