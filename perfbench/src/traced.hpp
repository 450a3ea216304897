#pragma once
// The traced run (--trace 1): one pass of every workload replayed through
// the layers' public functions under the benchmark's own spans, plus the
// off-workload force-directed pool pair. Prints the per-layer metrics and
// writes the spans as a Chrome trace-event file.

#include <cstdint>
#include <string>

namespace perfbench {

/// `workload` names the run (the trace file and the report); every traced
/// run replays all three workloads, because each per-layer metric is taken
/// on the workload where it should move (README.md, "Per-layer metrics").
int run_traced(const std::string& workload, std::uint64_t seed);

} // namespace perfbench
