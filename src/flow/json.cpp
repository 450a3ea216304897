#include "flow/json.hpp"

#include <sstream>

#include "support/strings.hpp"

namespace hls {

// json_escape lives in support/json.cpp now (the parser needs it too);
// flow/json.hpp re-exports it via support/json.hpp.

std::string to_json(const ImplementationReport& r) {
  std::ostringstream os;
  os << "{";
  os << "\"flow\":\"" << json_escape(r.flow) << "\",";
  if (!r.target.empty()) {
    os << "\"target\":\"" << json_escape(r.target) << "\",";
  }
  os << "\"latency\":" << r.latency << ",";
  os << "\"cycle_deltas\":" << r.cycle_deltas << ",";
  os << "\"cycle_ns\":" << json_number(r.cycle_ns) << ",";
  os << "\"execution_ns\":" << json_number(r.execution_ns) << ",";
  os << "\"op_count\":" << r.op_count << ",";
  os << "\"area\":{";
  os << "\"fu\":" << r.area.fu_gates << ",";
  os << "\"registers\":" << r.area.reg_gates << ",";
  os << "\"muxes\":" << r.area.mux_gates << ",";
  os << "\"controller\":" << r.area.controller_gates << ",";
  os << "\"total\":" << r.area.total() << "},";
  os << "\"datapath\":{";
  os << "\"fus\":" << r.datapath.fus.size() << ",";
  os << "\"register_bits\":" << r.datapath.total_register_bits() << ",";
  os << "\"muxes\":" << r.datapath.muxes.size() << ",";
  os << "\"control_signals\":" << r.datapath.control_signals << "}";
  os << "}";
  return os.str();
}

std::string to_json(const std::vector<ImplementationReport>& rs) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i != 0) os << ",";
    os << to_json(rs[i]);
  }
  os << "]";
  return os.str();
}

std::string to_json(const FlowDiagnostic& d) {
  std::ostringstream os;
  os << "{\"severity\":\"" << to_string(d.severity) << "\",\"stage\":\""
     << json_escape(d.stage) << "\",\"message\":\"" << json_escape(d.message)
     << "\"";
  // Structured location fields, present only when the error located itself.
  if (d.context.has_node()) os << ",\"node\":" << d.context.node;
  if (d.context.has_bit()) os << ",\"bit\":" << d.context.bit;
  if (d.context.has_cycle()) os << ",\"cycle\":" << d.context.cycle;
  os << "}";
  return os.str();
}

std::string to_json(const FlowResult& r) {
  std::ostringstream os;
  os << "{";
  os << "\"flow\":\"" << json_escape(r.flow) << "\",";
  if (!r.scheduler.empty()) {
    os << "\"scheduler\":\"" << json_escape(r.scheduler) << "\",";
  }
  if (!r.target.empty()) {
    os << "\"target\":\"" << json_escape(r.target) << "\",";
  }
  os << "\"ok\":" << (r.ok ? "true" : "false");
  if (r.ok) {
    os << ",\"report\":" << to_json(r.report);
  }
  if (r.kernel_stats) {
    os << ",\"kernel_stats\":{";
    os << "\"ops_before\":" << r.kernel_stats->ops_before << ",";
    os << "\"adds_after\":" << r.kernel_stats->adds_after << ",";
    os << "\"rewritten_muls\":" << r.kernel_stats->rewritten_muls << ",";
    os << "\"rewritten_subs\":" << r.kernel_stats->rewritten_subs << ",";
    os << "\"rewritten_compares\":" << r.kernel_stats->rewritten_compares
       << "}";
  }
  if (r.transform) {
    os << ",\"transform\":{";
    os << "\"n_bits\":" << r.transform->n_bits << ",";
    os << "\"critical_time\":" << r.transform->critical_time << ",";
    os << "\"fragmented_ops\":" << r.transform->fragmented_op_count << ",";
    os << "\"adds\":" << r.transform->adds.size() << "}";
  }
  if (r.schedule) {
    os << ",\"schedule\":{";
    os << "\"latency\":" << r.schedule->schedule.latency << ",";
    os << "\"fu_ops\":" << r.schedule->fu_ops.size() << "}";
  }
  if (r.partition) {
    // Only the "partitioned" flow sets this, so every other flow's JSON is
    // byte-identical to before partitioning existed.
    os << ",\"partition\":{";
    os << "\"cut_edges\":" << r.partition->cut_edges << ",";
    os << "\"composed_latency\":" << r.partition->composed_latency << ",";
    os << "\"kernels\":[";
    for (std::size_t i = 0; i < r.partition->kernels.size(); ++i) {
      const PartitionKernelSummary& k = r.partition->kernels[i];
      if (i != 0) os << ",";
      os << "{\"name\":\"" << json_escape(k.name) << "\",";
      os << "\"nodes\":" << k.node_count << ",";
      os << "\"adds\":" << k.add_count << ",";
      os << "\"critical\":" << k.critical << ",";
      os << "\"latency\":" << k.latency << ",";
      os << "\"n_bits\":" << k.n_bits << ",";
      os << "\"start_cycle\":" << k.start_cycle << "}";
    }
    os << "]}";
  }
  if (!r.timings.empty()) {
    os << ",\"timings\":[";
    for (std::size_t i = 0; i < r.timings.size(); ++i) {
      if (i != 0) os << ",";
      os << "{\"stage\":\"" << json_escape(r.timings[i].stage)
         << "\",\"ms\":" << json_number(r.timings[i].ms) << "}";
    }
    os << "]";
  }
  if (r.counters) {
    os << ",\"oracle\":{";
    os << "\"candidates_evaluated\":" << r.counters->candidates_evaluated
       << ",";
    os << "\"candidates_filtered\":" << r.counters->candidates_filtered
       << ",";
    os << "\"candidates_refined\":" << r.counters->candidates_refined << ",";
    os << "\"candidates_probed\":" << r.counters->candidates_probed << ",";
    os << "\"candidates_rejected\":" << r.counters->candidates_rejected << ",";
    os << "\"candidates_committed\":" << r.counters->candidates_committed
       << ",";
    os << "\"words_repropagated\":" << r.counters->words_repropagated << "}";
  }
  os << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < r.diagnostics.size(); ++i) {
    if (i != 0) os << ",";
    os << to_json(r.diagnostics[i]);
  }
  os << "]}";
  return os.str();
}

std::string to_json(const std::vector<FlowResult>& rs) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i != 0) os << ",";
    os << to_json(rs[i]);
  }
  os << "]";
  return os.str();
}

std::string to_json(const PipelineReport& p) {
  std::ostringstream os;
  os << "{\"latency\":" << p.latency << ",\"min_ii\":" << p.min_ii
     << ",\"cycle_ns\":" << json_number(p.cycle_ns)
     << ",\"throughput_per_us\":" << json_number(p.throughput_per_us())
     << ",\"speedup\":" << json_number(p.speedup()) << "}";
  return os.str();
}

} // namespace hls
