#pragma once
// End-to-end synthesis flow vocabulary: ImplementationReport and FlowOptions.
//
// The builtin flows mirror the implementations the paper compares:
//   * "conventional" (report label "original") — the original specification
//     through a conventional scheduler (chaining + multicycle) and classic
//     allocation; this is "Behavioral Compiler on the original spec".
//   * "blc" — kernel extraction, then bit-level chaining with atomic
//     operations (the Fig. 1 d reference point).
//   * "optimized" — the paper's method: kernel extraction (§3.1), cycle
//     estimation (§3.2), fragmentation + transformed spec (§3.3),
//     fragment-aware scheduling, bit-level allocation.
//   * "partitioned" — the optimized pipeline per operative kernel of a
//     multi-kernel specification, composed under one latency constraint.
//
// All of them produce an ImplementationReport with the same cost model so
// the benches can print the paper's tables. The API that runs them is
// hls::Session (flow/session.hpp); the stages they share live in
// flow/stages.hpp.

#include <string>

#include "ir/dfg.hpp"
#include "rtl/area.hpp"
#include "timing/delay_model.hpp"

namespace hls {

struct ImplementationReport {
  /// "original" | "blc" | "optimized" | "partitioned"
  std::string flow;
  std::string target;          ///< resolved technology target (registry name)
  unsigned latency = 0;
  unsigned cycle_deltas = 0;   ///< clock length in deltas
  double cycle_ns = 0;
  double execution_ns = 0;     ///< latency * cycle_ns
  AreaBreakdown area;
  Datapath datapath;
  std::size_t op_count = 0;    ///< schedulable operations in the spec synthesized

  /// Cycle-length saving of `*this` relative to `base` (paper's "Saved %").
  double cycle_saving_vs(const ImplementationReport& base) const {
    return 1.0 - cycle_ns / base.cycle_ns;
  }
  /// Area delta of `*this` relative to `base` (positive = increment).
  double area_delta_vs(const ImplementationReport& base) const {
    return static_cast<double>(area.total()) / base.area.total() - 1.0;
  }
};

struct FlowOptions {
  // The technology (delay + gate models) is no longer an inline knob here:
  // it is a registry-resolved hls::Target named by FlowRequest::target,
  // exactly like flows and schedulers (timing/target.hpp).
  /// Apply value-range width narrowing (kernel/narrow.hpp) between kernel
  /// extraction and the transformation. Off by default (paper-faithful).
  bool narrow = false;
  /// Collect per-stage wall-clock times into FlowResult::timings (plus Note
  /// diagnostics), and run an explicit schedule re-verification stage so
  /// its cost is visible. Off by default so results stay byte-stable.
  bool timing = false;
};

} // namespace hls
