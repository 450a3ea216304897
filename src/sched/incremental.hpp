#pragma once
// Incremental bit-slot simulation — the O(touched-bits) feasibility oracle
// behind SchedulerCore.
//
// simulate_bit_schedule() recomputes every bit of every node from scratch;
// the fragment schedulers used to call it once per *candidate* placement,
// which made force-directed scheduling quadratic-times-simulation. This
// engine keeps the per-bit availability of the current partial schedule
// and applies a tentative (fragment, cycle) placement by repropagating
// availability only through the affected cone: the placed Add itself, then
// — worklist-driven, in topological order — every consumer whose bits
// actually changed (carry-chain successors, glue, concats, downstream
// adds). Placements that violate precedence (a bit consumed before it is
// computed, a carry chain running backwards) or exceed the per-cycle slot
// budget are rolled back from a journal in O(touched words); accepted
// placements stack and can be undone LIFO, which is what lets search
// strategies explore.
//
// Data layout (this is the hot path of every scheduler):
//   * availability is one packed uint64_t word per bit — (cycle << 32) |
//     slot over the DfgIndex bit space (see sched/bitsim.hpp for why word
//     order == timing order). The glue max, the Add reject test and the
//     no-op-write test are each ONE word operation instead of a pair of
//     array compares;
//   * fanout is the DfgIndex CSR, walked as contiguous spans;
//   * the topological worklist is a bitmap over node indices: pop-min is a
//     monotone find-first-set scan (users always have larger indices than
//     their producers), push is one OR — no node allocations;
//   * the journal is one arena shared by all frames; the unit of rollback
//     is a touched WORD: an availability entry restores one packed word,
//     an assignment entry restores one fragment's whole uniformly-written
//     cycle span. A frame records only its [begin, end) span; try_place
//     appends, reject/undo replays the span in reverse and truncates.
// try_place/undo is amortized allocation-free: the only heap traffic is
// the arena's geometric growth while committed frames accumulate past the
// initial reserve, and capacity is never given back.
//
// When cross-checking is enabled (SchedulerCore turns it on by default in
// debug builds; see SchedulerOptions) every successful mutation is verified
// against the full simulator bit-for-bit.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/dfg.hpp"
#include "ir/dfg_index.hpp"
#include "sched/bitsim.hpp"

namespace hls {

class IncrementalBitSim {
public:
  /// Builds the all-unassigned state over `kernel`. `budget` is the
  /// per-cycle chained-slot limit try_place checks against (a schedule's
  /// cycle_deltas). The DFG must stay alive and unchanged for the lifetime
  /// of the engine. This overload derives its own DfgIndex; pass a shared
  /// one to amortize it across consumers of the same kernel.
  IncrementalBitSim(const Dfg& kernel, unsigned budget);
  IncrementalBitSim(const Dfg& kernel, std::shared_ptr<const DfgIndex> index,
                    unsigned budget);

  /// Tentatively assigns every result bit of `add` (which must be an
  /// unassigned Add) to `cycle` and repropagates availability through the
  /// affected cone. Keeps the placement and returns true when the schedule
  /// stays consistent and max_slot() <= budget; restores the exact previous
  /// state and returns false otherwise.
  bool try_place(NodeId add, unsigned cycle);

  /// Undoes the most recent successful try_place (LIFO).
  void undo();

  /// Exact lower bound on the cycles try_place(add, c) can accept: the
  /// latest packed cycle among the words recompute() reads for `add` —
  /// operands 0 and 1 over min(width, slice width) bits, plus carry-in
  /// bit 0 — or kUnassignedCycle while any of them is still unavailable.
  /// For every c below it, one of those words is >= pack_avail(c + 1, 0),
  /// so the Add's reject compare fires. O(operand bits), read-only.
  unsigned earliest_cycle(NodeId add) const;

  /// Number of placements currently committed (the undo stack depth).
  std::size_t depth() const { return frames_.size(); }

  unsigned budget() const { return budget_; }
  /// Deepest in-cycle chain anywhere in the current partial schedule.
  unsigned max_slot() const { return max_slot_; }

  const DfgIndex& index() const { return *index_; }
  const BitCycles& assignment() const { return assign_; }
  BitAvail at(NodeId id, unsigned bit) const {
    return unpack_avail(avail_[index_->flat_bit(id, bit)]);
  }
  /// Packed per-bit availability, indexed by DfgIndex flat bits.
  const std::vector<PackedAvail>& avail() const { return avail_; }
  /// Materialized unpacked views (one allocation each — debug/test helpers,
  /// not hot-path accessors).
  std::vector<unsigned> avail_cycles() const {
    std::vector<unsigned> out(avail_.size());
    for (std::size_t i = 0; i < avail_.size(); ++i) {
      out[i] = packed_cycle(avail_[i]);
    }
    return out;
  }
  std::vector<unsigned> avail_slots() const {
    std::vector<unsigned> out(avail_.size());
    for (std::size_t i = 0; i < avail_.size(); ++i) {
      out[i] = packed_slot(avail_[i]);
    }
    return out;
  }

  /// Availability words rewritten by cone repropagation since construction
  /// (monotone; rollbacks do not subtract — it counts work done, and feeds
  /// OracleCounters::words_repropagated via SchedulerCore).
  std::uint64_t words_repropagated() const { return words_repropagated_; }

  /// When on, every successful try_place/undo re-runs the full simulator
  /// and asserts bit-for-bit agreement. Off by default on a bare engine;
  /// SchedulerOptions::cross_check (sched/core.hpp) holds the build-type
  /// default the schedulers apply.
  void set_cross_check(bool on) { cross_check_ = on; }
  bool cross_check() const { return cross_check_; }

  /// Index type of a journal entry / frame boundary. The arena is bounded
  /// by total availability words touched across all committed frames, which
  /// a 32-bit index could overflow on very large kernels under deep search;
  /// frames therefore record size_t spans (tests/incremental_test.cpp
  /// documents the bound).
  using JournalIndex = std::size_t;

private:
  /// One overwritten word. `key` is the flat-bit index for availability
  /// entries; for assignment entries (kAssignBit set) it is the NODE index,
  /// and rollback restores the node's whole uniformly-assigned cycle span.
  struct Touch {
    std::uint32_t key;
    std::uint32_t old_assign;  ///< assignment entries: the span's old cycle
    PackedAvail old_avail;     ///< availability entries: the old packed word
  };
  static constexpr std::uint32_t kAssignBit = 0x80000000u;

  struct Frame {
    unsigned old_max_slot;
    JournalIndex journal_begin; ///< start of this frame's journal span
  };

  /// Recomputes node `idx` from its operands' current availability,
  /// journalling overwritten words and raising `changed` when any bit moved
  /// (the caller then enqueues the node's users). Returns false on a
  /// precedence or budget violation (caller must roll back).
  bool recompute(std::uint32_t idx, unsigned& new_max, bool& changed);

  /// Replays journal entries [begin, end) in reverse and truncates the
  /// arena back to `begin`.
  void rollback(JournalIndex begin);
  void verify_against_full() const;

  const Dfg* dfg_;
  std::shared_ptr<const DfgIndex> index_;
  unsigned budget_;
  unsigned max_slot_ = 0;
  BitCycles assign_;
  std::vector<PackedAvail> avail_;   ///< packed word per flat bit
  std::vector<std::uint64_t> dirty_; ///< worklist bitmap, one bit per node
  std::vector<Touch> journal_;       ///< shared arena, frames hold spans
  std::vector<Frame> frames_;
  std::uint64_t words_repropagated_ = 0;
  bool cross_check_ = false;
};

} // namespace hls
