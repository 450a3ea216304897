// flows::partitioned — the multi-kernel composition pipeline (registered
// under "partitioned" in FlowRegistry::global()).
//
// Stage sequence:
//
//   kernel -> [narrow] -> partition -> per-kernel {transform, schedule,
//   allocate, [verify]} -> composed report
//
// The kernel/narrow stages and the per-kernel pipeline are the optimized
// flow's (flow/stages.hpp). The partition stage splits the kernel into
// maximal operative kernels (partition/partition.hpp), divides the latency
// budget in proportion to each kernel's §3.2 critical time and validates
// EVERY share through the one shared validate_latency_range path — an
// infeasible constraint raises one aggregated FlowStageError("partition")
// naming all offending kernels.
//
// A single-kernel specification is the optimized flow's one job, keyed on
// the request spec, so a shared StageCache serves the same entries to both
// flows and the schedule/report/JSON stay bit-identical to flows::optimized
// (only the flow label differs). Multi-kernel runs key every per-kernel
// stage on the sub-kernel's OWN spec (narrow = false — the sub-specs were
// cut from the already-narrowed kernel): editing one kernel re-runs only
// that kernel's column of the cache.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flow/stages.hpp"
#include "support/strings.hpp"

namespace hls {

namespace flows {

FlowResult partitioned(const FlowRequest& req) {
  FlowResult out;
  out.flow = "partitioned";
  const Target target = resolve_target_stage(out, req);
  const StageHook hook(req);
  StageCache& cache = hook.cache();
  kernel_stages(out, req, cache);
  auto cs = std::make_shared<CompositeSchedule>(
      timed_stage(out, req, "partition", [&] {
        std::shared_ptr<const KernelPartition> p =
            cache.partition(req.spec, req.options.narrow);
        if (!p->single()) {
          return plan_composite(cache, std::move(p), req.spec,
                                req.options.narrow, req.latency,
                                req.n_bits_override, target.delay);
        }
        CompositeSchedule one = single_kernel_plan(req.latency);
        one.partition = std::move(p);
        return one;
      }));
  const KernelPartition& p = *cs->partition;
  note(out, "partition",
       strformat("%zu operative kernel%s, %zu cut edge%s", p.kernels.size(),
                 p.kernels.size() == 1 ? "" : "s", p.cut_edges.size(),
                 p.cut_edges.size() == 1 ? "" : "s"));
  std::vector<const Dfg*> specs;
  if (p.single()) {
    specs.push_back(&req.spec);
  } else {
    for (const PartitionKernel& k : p.kernels) specs.push_back(&k.spec);
  }
  run_kernels(out, req, hook, target, "partitioned", specs,
              p.single() && req.options.narrow, *cs);
  PartitionSummary ps;
  ps.cut_edges = p.cut_edges.size();
  ps.composed_latency = out.report.latency;
  for (std::size_t k = 0; k < p.kernels.size(); ++k) {
    const KernelRun& run = cs->runs[k];
    ps.kernels.push_back({p.kernels[k].spec.name(), p.kernels[k].nodes.size(),
                          p.kernels[k].add_count,
                          run.transform->critical_time, run.latency,
                          run.n_bits, run.start_cycle});
  }
  out.partition = std::move(ps);
  if (!p.single()) out.composite = std::move(cs);
  out.ok = true;
  return out;
}

} // namespace flows

} // namespace hls
