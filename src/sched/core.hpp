#pragma once
// SchedulerCore — the shared substrate of every fragment-scheduling strategy
// — and the string-keyed SchedulerRegistry that names them.
//
// The core/strategy split: SchedulerCore owns everything the paper's central
// loop needs regardless of *how* placements are chosen — the mobility
// windows of every fragment, the carry-chain structure, the
// probability-weighted distribution graph, merged-row load bookkeeping,
// the exact bit-slot feasibility oracle (incremental by default, full
// re-simulation for baselines), and the final assembly + validation of a
// FragSchedule. A strategy ("list", "forcedirected", or user-registered) is
// only the selection policy: it decides which (fragment, cycle) to try next
// and calls try_place / undo_last; the core guarantees that whatever the
// strategy commits is bit-exactly feasible.
//
// Strategies are registered by name in SchedulerRegistry::global() and
// resolved by FlowRequest::scheduler, `fraghls --scheduler`, the benches and
// run_scheduler(), mirroring the FlowRegistry pattern of flow/session.hpp.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "frag/transform.hpp"
#include "ir/dfg_index.hpp"
#include "obs/trace.hpp"
#include "sched/fragsched.hpp"
#include "sched/incremental.hpp"
#include "support/cancel.hpp"
#include "support/registry.hpp"

namespace hls {

/// Observable work of one scheduler run, accumulated into the sink a caller
/// passes through SchedulerOptions::counters (additive — a strategy that
/// falls back to another strategy keeps accumulating into the same sink).
/// Surfaced per flow run through FlowResult::counters and `fraghls
/// --timing`, so the oracle's behaviour is visible outside the benches.
struct OracleCounters {
  /// Candidates scored per round, by bound or exactly.
  std::uint64_t candidates_evaluated = 0;
  /// (fragment, cycle) pairs inside a fragment's chain-feasible window that
  /// the earliest-cycle bound removed before force evaluation.
  std::uint64_t candidates_filtered = 0;
  /// Force bounds that reached the top of a round's heap and were replaced
  /// by their exact force.
  std::uint64_t candidates_refined = 0;
  std::uint64_t candidates_probed = 0;     ///< oracle try_place attempts
  std::uint64_t candidates_rejected = 0;   ///< probes the oracle rejected
  std::uint64_t candidates_committed = 0;  ///< probes kept in the schedule
  std::uint64_t words_repropagated = 0;    ///< availability words rewritten
};

struct SchedulerOptions {
  enum class Feasibility {
    Incremental,  ///< IncrementalBitSim cone repropagation (the default)
    FullResim,    ///< full simulate_bit_schedule per candidate (baseline)
  };
  Feasibility feasibility = Feasibility::Incremental;
  /// Cross-check every incremental mutation against the full simulator,
  /// and assert that every force-directed force bound is at most its exact
  /// force. This is the single source of the build-type default (a bare
  /// IncrementalBitSim constructs with cross-checking off).
#ifdef NDEBUG
  bool cross_check = false;
#else
  bool cross_check = true;
#endif
  /// Optional counter sink (non-owning; may be nullptr). Must outlive the
  /// scheduler run.
  OracleCounters* counters = nullptr;
  /// Worker threads for the force-directed bound scan: 1 (the default) is
  /// the serial path, 0 resolves to the hardware concurrency, N uses N
  /// threads. Serial is the default because the earliest-cycle pre-filter
  /// leaves too few candidates per round for the spin-barrier pool to pay
  /// for its hand-off on any registry kernel. Workers compute only force
  /// bounds; exact forces and the commit stay on the calling thread.
  /// Schedules are bit-identical for every value — bounds are pure
  /// per-candidate arithmetic and the heap reproduces the serial
  /// (force, fragment, cycle) order exactly.
  unsigned candidate_workers = 1;
  /// Fragment-count floor below which the parallel path is skipped even
  /// when candidate_workers > 1 (thread hand-off costs more than tiny
  /// rounds; tests lower it to pin the parallel path on small suites).
  std::size_t parallel_min_fragments = 192;
  /// Cooperative cancellation (support/cancel.hpp): the builtin strategies
  /// tick a counter-gated checkpoint once per committed fragment and throw
  /// CancelledError when the token trips; the oracle journal has already
  /// rolled back any rejected probe, so unwinding is always clean. Unarmed
  /// by default (a null test per checkpoint).
  CancelToken cancel;
};

class SchedulerCore {
public:
  explicit SchedulerCore(const TransformResult& t, SchedulerOptions options = {});

  const TransformResult& transform() const { return *t_; }
  const SchedulerOptions& options() const { return options_; }
  /// The flat CSR/SoA index over transform().spec, built once here and
  /// shared with the feasibility oracle and final validation.
  const DfgIndex& index() const { return *index_; }
  /// Number of fragments (TransformResult::adds entries) to place.
  std::size_t size() const { return placed_.size(); }
  std::size_t placed_count() const { return journal_.size(); }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// Carry-chain neighbours: the previous / next fragment of the same
  /// original operation, or npos at the chain ends. Chains link fragments
  /// in index order, so prev_fragment(k) < k < next_fragment(k).
  std::size_t prev_fragment(std::size_t k) const { return prev_[k]; }
  std::size_t next_fragment(std::size_t k) const { return next_[k]; }

  // Mobility windows, initialized to every fragment's [asap, alap]. A
  // strategy may tighten them (force-directed carry-chain implication)
  // through tighten_chain, which clamps one chain in place: candidates are
  // evaluated against the implied windows without materializing them.
  unsigned window_lo(std::size_t k) const { return lo_[k]; }
  unsigned window_hi(std::size_t k) const { return hi_[k]; }
  /// Fixes fragment `k`'s window to [c, c] and applies the carry-chain
  /// implication: every earlier fragment of its op ends by c, every later
  /// one starts at c or later. Only `k`'s chain changes. Requires c inside
  /// `k`'s window and every chain window to stay non-empty.
  void tighten_chain(std::size_t k, unsigned c);

  /// Earliest cycle fragment `k` could be placed in under the committed
  /// placements (IncrementalBitSim::earliest_cycle): try_place(k, c)
  /// rejects for every c below it, and for every c while it is
  /// kUnassignedCycle (an operand bit is not scheduled yet). Always 0 under
  /// Feasibility::FullResim, which stays the unfiltered baseline.
  unsigned earliest_cycle(std::size_t k) const {
    return engine_ ? engine_->earliest_cycle(t_->adds[k].node) : 0;
  }

  bool placed(std::size_t k) const { return placed_[k]; }
  unsigned cycle_of(std::size_t k) const { return cycle_of_[k]; }
  /// Adder bits fragment `k` occupies (its mass in the distribution graph).
  unsigned width_of(std::size_t k) const { return t_->adds[k].bits.width; }

  /// Probability-weighted distribution graph in adder bits per cycle: every
  /// fragment spreads width/|window| over its current window. Fills `dg`
  /// (one entry per cycle), so a caller can reuse one buffer across rounds.
  void distribution(std::vector<double>& dg) const;

  /// Marginal merged-row cost of putting fragment `k` into cycle `c`: free
  /// when an already placed, bit-adjacent fragment of the same original op
  /// sits in the same cycle (they chain into one wider adder). O(1): an
  /// op's fragments are disjoint and LSB-first in index order (asserted at
  /// construction), so only prev_fragment(k) and next_fragment(k) can abut
  /// `k`.
  unsigned marginal(std::size_t k, unsigned c) const;
  /// Merged-row count committed to cycle `c` so far.
  unsigned load(unsigned c) const { return load_[c]; }

  /// Places fragment `k` in cycle `c` when the exact bit-slot feasibility
  /// oracle accepts it (in-cycle chaining within the n_bits budget, no
  /// precedence violation against committed placements): commits the
  /// placement and its bookkeeping and returns true. Returns false with all
  /// state unchanged otherwise. Windows are NOT touched — tightening is
  /// strategy policy. Besides the oracle, a commit records the cycle and
  /// adds marginal(k, c) to load(c): O(1) bookkeeping.
  bool try_place(std::size_t k, unsigned c);

  /// Reverts the most recent successful try_place (LIFO), for strategies
  /// that search.
  void undo_last();

  /// Assembles the final FragSchedule once every fragment is placed:
  /// per-fragment rows, bit-exact validation, and merging of adjacent
  /// same-cycle fragments of one original op into one adder op.
  FragSchedule finish() const;

private:
  struct Commit {
    std::size_t fragment;
    unsigned cycle;
    unsigned marginal;  ///< load delta charged at commit time
  };

  /// Stride-sampled "sched.commit" trace spans over successful commits,
  /// gated exactly like CancelCheckpoint: the disarmed tick is a branch on
  /// one relaxed atomic (trace_armed()) and a counter reset. Armed, every
  /// kStride-th commit closes a batch span covering the interval since the
  /// batch opened; finish() flushes the partial batch so every traced
  /// schedule emits at least one commit span.
  class CommitSpanSampler {
  public:
    void tick() {
      if (!trace_armed()) {
        pending_ = 0;
        return;
      }
      if (pending_ == 0) batch_start_ = TraceSession::global().now_ns();
      if (++pending_ >= kStride) emit();
    }
    void flush() {
      if (pending_ > 0 && trace_armed()) emit();
      pending_ = 0;
    }

  private:
    static constexpr unsigned kStride = 64;
    void emit();
    unsigned pending_ = 0;
    std::uint64_t batch_start_ = 0;
  };

  const TransformResult* t_;
  SchedulerOptions options_;
  std::shared_ptr<const DfgIndex> index_;  ///< flat index over t_->spec
  std::vector<unsigned> lo_, hi_;
  std::vector<bool> placed_;
  std::vector<unsigned> cycle_of_;
  std::vector<std::size_t> prev_, next_;
  std::vector<unsigned> load_;
  std::vector<Commit> journal_;
  std::optional<IncrementalBitSim> engine_;  ///< Feasibility::Incremental
  BitCycles assign_;                         ///< Feasibility::FullResim
  mutable CommitSpanSampler span_sampler_;   ///< flushed by finish() const
};

/// A scheduling strategy: TransformResult in, complete FragSchedule out.
using SchedulerFn =
    std::function<FragSchedule(const TransformResult&, const SchedulerOptions&)>;

/// String-keyed strategy registry ("list", "forcedirected" builtin).
/// Thread-safe; registration replaces any previous strategy of the name.
class SchedulerRegistry : public NamedRegistry<SchedulerFn> {
public:
  SchedulerRegistry() : NamedRegistry("scheduler") {}

  /// The process-wide registry, with the builtin strategies pre-registered.
  static SchedulerRegistry& global();
};

/// Resolves `name` in the global registry and runs it over `t`. Throws
/// hls::Error listing the registered names when `name` is unknown.
FragSchedule run_scheduler(const std::string& name, const TransformResult& t,
                           const SchedulerOptions& options = {});

// Options-taking overloads of the builtin strategies (fragsched.hpp and
// forcedir.hpp declare the default-options forms).
FragSchedule schedule_transformed(const TransformResult& t,
                                  const SchedulerOptions& options);
FragSchedule schedule_transformed_forcedirected(const TransformResult& t,
                                                const SchedulerOptions& options);

} // namespace hls
