#pragma once
// CompositeSchedule — every kernel of a KernelPartition run through the
// transform / SchedulerCore / bit-level allocation stages and composed
// under one shared latency constraint. The partitioned flow builds one
// (flow/stages.hpp runs the per-kernel stages) and carries it on
// FlowResult::composite for multi-kernel results.
//
// Each kernel gets its own slice of the latency budget
// (split_latency_budget), its own §3.2 cycle budget (price_partition — the
// same pricing the Explorer's bound pruning uses, through plan_composite),
// and its own TransformResult / FragSchedule / Datapath, exactly as if it
// were a standalone specification. Composition is then pure bookkeeping:
//
//   * the composed latency is the critical inter-kernel path in cycles
//     (kernel k starts after its longest predecessor chain finishes);
//   * the clock is the widest per-kernel chained window's delta depth —
//     every kernel runs on the one shared clock;
//   * area is the SUM of the per-kernel datapath areas (each kernel keeps
//     its own controller — GateModel::controller is nonlinear in states,
//     so summing per-kernel area_of is the honest composition, not
//     area_of over the merged instance lists);
//   * merged_datapath() concatenates the instance lists with cycle/register
//     offsets applied, for reporting.
//
// simulate_composite() closes the verification loop at the composition
// level: kernels execute in topological order, boundary values flow from
// exporter outputs to importer inputs, and the result must equal
// evaluate(parent spec) — the partition-level analogue of the
// evaluator == cycle-sim property the single-kernel tests pin.

#include <memory>
#include <string>
#include <vector>

#include "alloc/datapath.hpp"
#include "flow/stage_cache.hpp"
#include "frag/transform.hpp"
#include "ir/eval.hpp"
#include "partition/partition.hpp"
#include "rtl/area.hpp"
#include "sched/fragsched.hpp"

namespace hls {

/// One kernel's trip through the per-kernel pipeline. Artefacts are shared
/// pointers handed out by the request's stage hook.
struct KernelRun {
  std::shared_ptr<const TransformResult> transform;
  std::shared_ptr<const FragSchedule> schedule;
  std::shared_ptr<const Datapath> datapath;
  unsigned latency = 0;      ///< this kernel's slice of the budget
  unsigned n_bits = 0;       ///< this kernel's §3.2 cycle budget
  unsigned start_cycle = 0;  ///< composed schedule offset
};

/// The composed result: partition + budget split + per-kernel runs.
struct CompositeSchedule {
  /// Null for the optimized flow's one kernel (no partition stage).
  std::shared_ptr<const KernelPartition> partition;
  std::vector<unsigned> criticals;  ///< per-kernel §3.2 critical times
  BudgetSplit split;
  PartitionBound bound;
  std::vector<KernelRun> runs;
};

/// The plan of one kernel that gets the whole latency constraint: one run,
/// starting at cycle 0. The optimized flow and a single-kernel partition
/// run under it; criticals and bound stay empty (the transform resolves
/// the budget).
CompositeSchedule single_kernel_plan(unsigned latency);

/// The partition stage's plan — budget split + price_partition — and the
/// Explorer's §3.2 bound, so a pruned candidate is priced exactly as
/// running it would be. Critical times come from `cache`: per sub-kernel
/// (narrow = false) for a multi-kernel `partition`; for a single-kernel or
/// null partition (the optimized flow), the one kernel of `spec` under
/// `narrow`. Throws hls::Error with the aggregated all-infeasible-kernels
/// message when the constraint cannot fit. Runs carry latency and start
/// cycle; their artefacts are empty.
CompositeSchedule plan_composite(
    StageCache& cache, std::shared_ptr<const KernelPartition> partition,
    const Dfg& spec, bool narrow, unsigned latency, unsigned n_bits_override,
    const DelayModel& delay);

/// Concatenates the per-kernel datapaths into one reporting instance list:
/// FU binding cycles, register boundary spans and stored-run cycles are
/// offset by each kernel's start cycle, register indices are rebased, and
/// the controller states become the composed latency. Area must NOT be
/// priced over this merged structure — use composed_area.
Datapath merged_datapath(const CompositeSchedule& cs);

/// Sum of per-kernel area_of(datapath, gm) — each kernel keeps its own
/// controller, so the composed area is the sum of the per-kernel
/// breakdowns (controller cost is nonlinear in FSM states).
AreaBreakdown composed_area(const CompositeSchedule& cs, const GateModel& gm);

/// Executes the composition: kernels in topological order, each through the
/// cycle-accurate datapath simulator, boundary values wired from exporter
/// to importers. Returns the parent specification's output values. Throws
/// hls::Error when an input value is missing.
OutputValues simulate_composite(const CompositeSchedule& cs,
                                const InputValues& inputs);

} // namespace hls
