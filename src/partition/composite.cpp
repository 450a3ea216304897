#include "partition/composite.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "flow/session.hpp"
#include "rtl/cycle_sim.hpp"
#include "support/strings.hpp"

namespace hls {

std::optional<std::string> validate_budget_split(
    const KernelPartition& p, const std::vector<unsigned>& criticals,
    const BudgetSplit& split, unsigned total_latency) {
  if (split.composed_latency <= total_latency) return std::nullopt;
  // One aggregated message naming EVERY kernel whose proportional share
  // fails the shared latency-range validation (raw == 0 trips lo >= 1) —
  // never just the first offender.
  std::string bad;
  for (std::size_t k = 0; k < p.kernels.size(); ++k) {
    if (!validate_latency_range(split.raw[k], total_latency)) continue;
    if (!bad.empty()) bad += ", ";
    bad += strformat("%s (critical %u bits, proportional share %u)",
                     p.kernels[k].spec.name().c_str(), criticals[k],
                     split.raw[k]);
  }
  if (bad.empty()) bad = "(every kernel already at its 1-cycle minimum)";
  return strformat(
      "latency %u cannot fit the composed kernel path (needs %u cycles); "
      "infeasible kernels: %s",
      total_latency, split.composed_latency, bad.c_str());
}

CompositeSchedule single_kernel_plan(unsigned latency) {
  CompositeSchedule cs;
  cs.split = whole_budget(latency);
  cs.runs.resize(1);
  cs.runs[0].latency = latency;
  return cs;
}

CompositeSchedule plan_composite(
    StageCache& cache, std::shared_ptr<const KernelPartition> partition,
    const Dfg& spec, bool narrow, unsigned latency, unsigned n_bits_override,
    const DelayModel& delay) {
  CompositeSchedule cs;
  if (!partition || partition->single()) {
    cs = single_kernel_plan(latency);
    cs.criticals = {cache.critical_time(spec, narrow)};
  } else {
    const KernelPartition& p = *partition;
    for (const PartitionKernel& k : p.kernels) {
      cs.criticals.push_back(cache.critical_time(k.spec, false));
    }
    cs.split = split_latency_budget(p, cs.criticals, latency);
    if (const std::optional<std::string> bad =
            validate_budget_split(p, cs.criticals, cs.split, latency)) {
      throw Error(*bad);
    }
    cs.runs.resize(p.kernels.size());
    for (std::size_t k = 0; k < cs.runs.size(); ++k) {
      cs.runs[k].latency = cs.split.latency[k];
      cs.runs[k].start_cycle = cs.split.start_cycle[k];
    }
  }
  cs.partition = std::move(partition);
  cs.bound = price_partition(cs.criticals, cs.split, n_bits_override, delay);
  return cs;
}

Datapath merged_datapath(const CompositeSchedule& cs) {
  Datapath out;
  for (const KernelRun& run : cs.runs) {
    const Datapath& dp = *run.datapath;
    const unsigned off = run.start_cycle;
    const unsigned reg_base = static_cast<unsigned>(out.regs.size());
    for (FuInstance fu : dp.fus) {
      for (auto& [cycle, node] : fu.bound) cycle += off;
      out.fus.push_back(std::move(fu));
    }
    for (RegInstance reg : dp.regs) {
      reg.first_boundary += off;
      reg.last_boundary += off;
      out.regs.push_back(reg);
    }
    out.muxes.insert(out.muxes.end(), dp.muxes.begin(), dp.muxes.end());
    for (StoredRun sr : dp.stored) {
      sr.produced += off;
      sr.last_use += off;
      sr.reg += reg_base;
      out.stored.push_back(sr);
    }
    out.control_signals += dp.control_signals;
  }
  out.states = cs.split.composed_latency;
  return out;
}

AreaBreakdown composed_area(const CompositeSchedule& cs, const GateModel& gm) {
  AreaBreakdown total;
  for (const KernelRun& run : cs.runs) {
    const AreaBreakdown a = area_of(*run.datapath, gm);
    total.fu_gates += a.fu_gates;
    total.reg_gates += a.reg_gates;
    total.mux_gates += a.mux_gates;
    total.controller_gates += a.controller_gates;
  }
  return total;
}

OutputValues simulate_composite(const CompositeSchedule& cs,
                                const InputValues& inputs) {
  const KernelPartition& p = *cs.partition;
  HLS_REQUIRE(cs.runs.size() == p.kernels.size(),
              "composite schedule must carry one run per kernel");
  std::map<std::uint32_t, std::uint64_t> boundary;  // parent node -> value
  OutputValues out;
  for (std::size_t k = 0; k < p.kernels.size(); ++k) {
    const PartitionKernel& pk = p.kernels[k];
    InputValues sub_in;
    std::set<std::string> import_names;
    for (const PartitionKernel::Port& port : pk.imports) {
      const auto it = boundary.find(port.parent.index);
      HLS_REQUIRE(it != boundary.end(),
                  "boundary value not yet produced: " + port.name);
      sub_in[port.name] = it->second;
      import_names.insert(port.name);
    }
    for (const NodeId id : pk.spec.inputs()) {
      const std::string& name = pk.spec.node(id).name;
      if (import_names.count(name) != 0) continue;
      const auto it = inputs.find(name);
      HLS_REQUIRE(it != inputs.end(), "missing input value: " + name);
      sub_in[name] = it->second;
    }
    const KernelRun& run = cs.runs[k];
    const OutputValues sub_out =
        simulate_datapath(*run.transform, *run.schedule, *run.datapath, sub_in);
    std::set<std::string> export_names;
    for (const PartitionKernel::Port& port : pk.exports) {
      boundary[port.parent.index] = sub_out.at(port.name);
      export_names.insert(port.name);
    }
    for (const auto& [name, value] : sub_out) {
      if (export_names.count(name) == 0) out[name] = value;
    }
  }
  return out;
}

} // namespace hls
