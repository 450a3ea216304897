#pragma once
// Datapath description produced by allocation/binding and consumed by the
// RTL area/performance model.
//
// Two allocators build this structure:
//   * allocate_oplevel()  — classic allocation for conventional / BLC
//     schedules: one functional unit class per operation kind, whole-value
//     registers, value-level multiplexer counting.
//   * allocate_bitlevel() — the paper's allocation for fragmented schedules:
//     adder-only FUs sized to fragment widths with same-operation affinity
//     binding, bit-level register liveness (only bits that cross a cycle
//     boundary are stored), and per-port mux counting.
//
// Both exclude the dedicated registers stabilizing input/output ports, as
// Table I's comparison does ("they coincide in both implementations").

#include <string>
#include <vector>

#include "ir/dfg.hpp"

namespace hls {

/// Functional-unit classes of the conventional component library.
enum class FuClass { Adder, Subtractor, Multiplier, Comparator, MinMax };

FuClass fu_class_of(OpKind kind);
std::string_view fu_class_name(FuClass c);

struct FuInstance {
  FuClass cls = FuClass::Adder;
  unsigned width = 0;   ///< datapath width (ripple length for adders)
  unsigned width2 = 0;  ///< second operand width (multipliers only)
  /// Operations bound to this FU, as (cycle, source op) pairs.
  std::vector<std::pair<unsigned, NodeId>> bound;
};

struct RegInstance {
  unsigned width = 0;
  /// Consecutive-boundary span [first, last] over which this register holds
  /// at least one live value (for reporting only).
  unsigned first_boundary = 0;
  unsigned last_boundary = 0;
};

struct MuxInstance {
  unsigned inputs = 0;  ///< k of a k:1 mux (always >= 2)
  unsigned width = 0;
};

/// One stored value slice: which bits of which node are held in which
/// register, from the boundary after `produced` until `last_use`. The RTL
/// netlist (rtl/netlist.hpp) loads the register in `produced` and reads
/// every cross-cycle bit from the run holding it; a bit that no run holds
/// is an error.
struct StoredRun {
  NodeId node;
  BitRange bits;
  unsigned produced = 0;   ///< cycle in which the bits are computed
  unsigned last_use = 0;   ///< last cycle reading them
  unsigned reg = 0;        ///< index into Datapath::regs
};

/// Datapath::stored bucketed by node (CSR), in Datapath::stored order within
/// each node: the "which register holds this bit in this cycle" lookup of
/// lower_rtl, whose one netlist the RTL emitter prints and the cycle
/// simulator runs. Refers to `stored`, which must outlive the index.
class StoredRunIndex {
public:
  StoredRunIndex(const std::vector<StoredRun>& stored, std::size_t node_count);

  /// The first run, in Datapath::stored order, holding bit `bit` of `node`
  /// into `cycle`: produced in an earlier cycle and last used in `cycle` or
  /// later. nullptr when no run does.
  const StoredRun* covering(NodeId node, unsigned bit, unsigned cycle) const;

private:
  const std::vector<StoredRun>& stored_;
  std::vector<std::uint32_t> offsets_;  ///< size node_count + 1
  std::vector<std::uint32_t> runs_;     ///< indices into stored_, by node
};

struct Datapath {
  std::vector<FuInstance> fus;
  std::vector<RegInstance> regs;
  std::vector<MuxInstance> muxes;
  std::vector<StoredRun> stored;  ///< register plan (bit-level allocator)
  unsigned states = 0;           ///< controller FSM states (= latency)
  unsigned control_signals = 0;  ///< mux selects + register load enables

  unsigned total_register_bits() const;
  unsigned fu_count(FuClass c) const;
};

/// First-fit interval coloring used by both allocators to share FUs and
/// registers across non-overlapping occupancy intervals. Items must be
/// processed widest-first by the caller for sensible widths; returns the
/// color (instance index) per item. `busy[i]` = the item's inclusive cycle
/// intervals, each with first <= last. Each cycle keeps a bitset of the
/// colors holding it, so placing an item costs its cycles times colors/64,
/// not a test against every interval already placed.
std::vector<unsigned> color_intervals(
    const std::vector<std::vector<std::pair<unsigned, unsigned>>>& busy);

} // namespace hls
