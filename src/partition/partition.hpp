#pragma once
// Multi-kernel partitioning — splitting an extracted specification into
// maximal operative kernels joined only by glue.
//
// Every layer below the flow engine (transform, SchedulerCore, the bit-slot
// oracle, bit-level allocation) works on ONE operative kernel. Real designs
// are several kernels joined by glue logic: kernel extraction (§3.1) leaves
// a Dfg whose Add nodes fall into connected components under *direct*
// Add -> Add operand edges (sum feeds and carry chains), with bitwise glue
// and concats in between. partition_kernel() materializes that structure:
//
//   * every Add belongs to the component of its direct Add neighbours —
//     a cut never severs an Add -> Add edge (carry chains stay whole);
//   * glue/concat/output nodes are pulled into the component of their first
//     assigned producer (or, for glue feeding a kernel from pure inputs,
//     their first assigned consumer), so every cut edge has glue or a
//     boundary value on at least one side — never Add -> Add;
//   * components whose glue paths form a cycle at kernel granularity are
//     merged (strongly connected components collapse), so the kernel graph
//     is a DAG by construction;
//   * kernels are renumbered topologically (ties by smallest member node),
//     so kernel i only ever feeds kernel j > i.
//
// Each kernel becomes a self-contained kernel-form Dfg: primary inputs and
// constants are replicated, values crossing a cut become an Output named
// "__x<node>" in the producer kernel and an Input of the same name in every
// consumer kernel. A single-component specification is returned VERBATIM
// (kernels[0].spec is the input graph, same digest), which is what keeps
// the partitioned flow bit-identical to the optimized flow — shared
// ArtifactCache keys included — on single-kernel specs.
//
// split_latency_budget() divides one latency constraint across the kernel
// DAG in proportion to each kernel's §3.2 critical time, guaranteeing the
// composed critical path fits the constraint whenever every kernel can get
// at least one cycle; validate_budget_split() reuses the flow engine's
// validate_latency_range on every kernel share and reports ALL infeasible
// kernels at once (satellite: no first-failure diagnostics).

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "ir/dfg.hpp"
#include "timing/delay_model.hpp"

namespace hls {

/// One operative kernel of a partition: a self-contained kernel-form Dfg
/// plus its provenance in the parent graph and its boundary ports.
struct PartitionKernel {
  /// Self-contained kernel-form specification (verbatim parent graph when
  /// the partition is single()).
  Dfg spec;
  /// Parent node ids assigned to this kernel (ascending; computation and
  /// structural members — replicated Inputs/Consts are not listed).
  std::vector<NodeId> nodes;
  std::size_t add_count = 0;

  /// One boundary port: the "__x<node>" port name and the parent node whose
  /// value crosses the cut there.
  struct Port {
    std::string name;
    NodeId parent;
  };
  std::vector<Port> imports;  ///< boundary values this kernel consumes
  std::vector<Port> exports;  ///< boundary values this kernel produces
};

/// The partition of one kernel-form specification into operative kernels.
struct KernelPartition {
  std::vector<PartitionKernel> kernels;

  /// One cut edge per (exported parent value, consumer kernel). The
  /// legality invariant: `from < to` for every edge (the kernel graph is a
  /// renumbered DAG) and the producer is never consumed by a cross-kernel
  /// Add through a direct Add -> Add operand (verify_partition checks it).
  struct CutEdge {
    NodeId producer;    ///< parent node whose value crosses the cut
    unsigned from = 0;  ///< producer kernel index
    unsigned to = 0;    ///< consumer kernel index
  };
  std::vector<CutEdge> cut_edges;

  bool single() const { return kernels.size() == 1; }

  /// Deduplicated kernel-graph edges (from, to), sorted. Derived from
  /// cut_edges; the budget split walks these.
  std::vector<std::pair<unsigned, unsigned>> edges() const;
};

/// Partitions a kernel-form specification. Pure; deterministic. Throws
/// hls::Error when `kernel` is not kernel-form. A specification whose Adds
/// form one component (or that has no Adds at all) comes back as a
/// single-kernel partition holding the input graph verbatim.
KernelPartition partition_kernel(const Dfg& kernel);

/// Re-checks every partition invariant against the parent graph: complete
/// single assignment of all non-Input/Const nodes, no Add -> Add operand
/// edge crossing kernels, topological kernel numbering (every cut edge
/// from < to), boundary port consistency, and structural validity of every
/// per-kernel spec. Throws hls::Error with a description on failure.
void verify_partition(const KernelPartition& p, const Dfg& parent);

/// One shared latency constraint divided over the kernel DAG.
struct BudgetSplit {
  /// Per-kernel cycle budget (>= 1 each).
  std::vector<unsigned> latency;
  /// Proportional share before the >= 1 floor was applied; 0 marks a kernel
  /// the constraint cannot accommodate (validate_budget_split reports it).
  std::vector<unsigned> raw;
  /// Earliest start cycle of each kernel (longest predecessor path).
  std::vector<unsigned> start_cycle;
  /// Critical inter-kernel path in cycles = max_k start_cycle[k]+latency[k].
  unsigned composed_latency = 0;
};

/// The split of one kernel that gets the whole constraint: latency
/// {total_latency}, starting at cycle 0.
BudgetSplit whole_budget(unsigned total_latency);

/// Splits `total_latency` cycles across the kernels in proportion to their
/// §3.2 critical times (`criticals[k]`, chained bits, one per kernel):
/// kernel k's share is floor(total * c_k / T_k) where T_k is the heaviest
/// critical-time path through k — a split under which every kernel-DAG path
/// sums to <= total by construction. Shares are floored at 1 cycle, then
/// leftover slack is redistributed deterministically (+1 to the most
/// starved kernel whose critical path still fits) until the composed
/// latency meets the constraint exactly or no kernel can grow. For a
/// single-kernel partition the split is whole_budget(total_latency).
BudgetSplit split_latency_budget(const KernelPartition& p,
                                 const std::vector<unsigned>& criticals,
                                 unsigned total_latency);

/// The one shared per-kernel feasibility check (satellite: no first-failure
/// diagnostics): runs the flow engine's latency-range validation over every
/// kernel share and, when the composed schedule cannot fit, returns ONE
/// message naming every infeasible kernel with its critical time. nullopt
/// means the split is feasible. Defined in partition/composite.cpp (it
/// reuses validate_latency_range of session.hpp, the one validation path).
std::optional<std::string> validate_budget_split(
    const KernelPartition& p, const std::vector<unsigned>& criticals,
    const BudgetSplit& split, unsigned total_latency);

/// §3.2-sound composed pricing of a partitioned point — the ONE source of
/// truth shared by the partitioned flow's report and the Explorer's bound
/// pruning, so a pruned candidate is priced exactly as running it would.
struct PartitionBound {
  unsigned composed_latency = 0;  ///< critical inter-kernel path, cycles
  unsigned max_deltas = 0;  ///< clock: max over kernels of adder_depth(n_bits)
  std::vector<unsigned> n_bits;  ///< per-kernel resolved cycle budgets
};

/// Prices a feasible split: per-kernel budgets via estimate_cycle_budget
/// (or the override verbatim), clock = the widest kernel window's delta
/// depth under `delay`, latency = the composed critical path.
PartitionBound price_partition(const std::vector<unsigned>& criticals,
                               const BudgetSplit& split,
                               unsigned n_bits_override,
                               const DelayModel& delay);

} // namespace hls
