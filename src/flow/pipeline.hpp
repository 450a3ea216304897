#pragma once
// Functional pipelining analysis — an extension beyond the paper.
//
// The paper's introduction contrasts its latency reduction with classic
// pipelining, which "improves system performance although it does not
// reduce the circuit latency". This module quantifies how the two compose:
// given a fragmented schedule and its bound datapath, it finds the minimal
// initiation interval II at which consecutive iterations can overlap without
// any functional unit or register being demanded by two iterations in the
// same cycle, and reports the resulting throughput.
//
// Feasibility of an II: for every FU (and every register), the cycles it is
// busy in must be distinct modulo II — the classic modulo-reservation-table
// condition. Fragmented schedules pipeline well because each adder is busy
// in few, evenly spread cycles.

#include "alloc/datapath.hpp"
#include "frag/transform.hpp"
#include "ir/eval.hpp"
#include "sched/fragsched.hpp"
#include "timing/delay_model.hpp"

#include <vector>

namespace hls {

struct PipelineReport {
  unsigned latency = 0;
  unsigned min_ii = 0;          ///< smallest feasible initiation interval
  double cycle_ns = 0;
  /// Iterations per microsecond at the minimal II.
  double throughput_per_us() const {
    return min_ii == 0 ? 0 : 1000.0 / (min_ii * cycle_ns);
  }
  /// Speedup over the unpipelined iteration interval (latency cycles).
  double speedup() const {
    return min_ii == 0 ? 0 : static_cast<double>(latency) / min_ii;
  }
};

/// True when the schedule admits initiation interval `ii` on `dp`.
bool pipeline_feasible(const FragSchedule& fs, const Datapath& dp, unsigned ii);

/// Finds the minimal feasible II (always <= latency).
PipelineReport analyze_pipelining(const FragSchedule& fs, const Datapath& dp,
                                  const DelayModel& delay = {});

/// Functionally verifies pipelined execution: issues one iteration of
/// `inputs` every `ii` cycles on a global timeline, rebuilding the FU and
/// register occupancy cycle by cycle. Throws hls::Error on any structural
/// collision (two iterations demanding one FU or register slot in the same
/// cycle); otherwise returns each iteration's outputs, each a run of the
/// design's one lowered netlist (simulate_netlist), so register-plan
/// discipline is checked per iteration as well.
std::vector<OutputValues> verify_pipelined_execution(
    const TransformResult& t, const FragSchedule& fs, const Datapath& dp,
    const std::vector<InputValues>& inputs, unsigned ii);

} // namespace hls
