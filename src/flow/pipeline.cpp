#include "flow/pipeline.hpp"

#include <map>
#include <set>

#include "rtl/cycle_sim.hpp"
#include "support/strings.hpp"

namespace hls {

bool pipeline_feasible(const FragSchedule& fs, const Datapath& dp, unsigned ii) {
  HLS_REQUIRE(ii > 0, "initiation interval must be positive");

  // Modulo reservation: each FU's busy cycles must be distinct mod II.
  for (const FuInstance& fu : dp.fus) {
    std::set<unsigned> slots;
    for (const auto& [cycle, op] : fu.bound) {
      if (!slots.insert(cycle % ii).second) return false;
    }
  }
  // Registers: a run occupies its register from `produced` through
  // `last_use - 1` boundaries; overlapped iterations must not collide.
  for (std::size_t r = 0; r < dp.regs.size(); ++r) {
    std::set<unsigned> slots;
    for (const StoredRun& run : dp.stored) {
      if (run.reg != r) continue;
      for (unsigned c = run.produced; c < run.last_use; ++c) {
        if (!slots.insert(c % ii).second) return false;
      }
    }
  }
  // A value must also not need to live longer than II allows when its
  // register is reused by the next iteration: covered by the collision
  // check above (the next iteration's identical run lands on the same
  // register at (c + ii) % ii slots).
  return fs.schedule.latency >= ii;
}

std::vector<OutputValues> verify_pipelined_execution(
    const TransformResult& t, const FragSchedule& fs, const Datapath& dp,
    const std::vector<InputValues>& inputs, unsigned ii) {
  HLS_REQUIRE(ii > 0, "initiation interval must be positive");

  // Global occupancy: (resource, global cycle) -> iteration. Any clash means
  // the II is structurally infeasible for this binding.
  std::map<std::pair<std::size_t, unsigned>, std::size_t> fu_busy;
  std::map<std::pair<std::size_t, unsigned>, std::size_t> reg_busy;
  for (std::size_t iter = 0; iter < inputs.size(); ++iter) {
    const unsigned issue = static_cast<unsigned>(iter) * ii;
    for (std::size_t f = 0; f < dp.fus.size(); ++f) {
      for (const auto& [cycle, op] : dp.fus[f].bound) {
        auto [it, fresh] = fu_busy.try_emplace({f, issue + cycle}, iter);
        if (!fresh) {
          throw Error(strformat(
              "pipelined execution with II=%u: FU %zu needed by iterations "
              "%zu and %zu in global cycle %u",
              ii, f, it->second, iter, issue + cycle));
        }
      }
    }
    for (const StoredRun& run : dp.stored) {
      for (unsigned c = run.produced; c < run.last_use; ++c) {
        auto [it, fresh] = reg_busy.try_emplace({run.reg, issue + c}, iter);
        if (!fresh && it->second != iter) {
          throw Error(strformat(
              "pipelined execution with II=%u: register r%u overwritten by "
              "iteration %zu while iteration %zu still needs it",
              ii, run.reg, iter, it->second));
        }
      }
    }
  }

  // Iterations are data-independent, so with the occupancy clean each one
  // executes exactly as in isolation: one netlist, run once per iteration.
  const Netlist nl = lower_rtl(t, fs, dp);
  std::vector<OutputValues> out;
  out.reserve(inputs.size());
  for (const InputValues& in : inputs) {
    out.push_back(simulate_netlist(nl, t.spec, in));
  }
  return out;
}

PipelineReport analyze_pipelining(const FragSchedule& fs, const Datapath& dp,
                                  const DelayModel& delay) {
  PipelineReport r;
  r.latency = fs.schedule.latency;
  r.cycle_ns = delay.cycle_ns(fs.schedule.cycle_deltas);
  for (unsigned ii = 1; ii <= fs.schedule.latency; ++ii) {
    if (pipeline_feasible(fs, dp, ii)) {
      r.min_ii = ii;
      break;
    }
  }
  HLS_ASSERT(r.min_ii != 0, "II = latency must always be feasible");
  return r;
}

} // namespace hls
