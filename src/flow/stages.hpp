#pragma once
// The stage plumbing every builtin flow shares: stage tagging, timing,
// failpoints and notes; the request's stage hook; and the per-kernel
// pipeline that the optimized and partitioned flows both run.
//
//   optimized:    kernel -> [narrow] -> per-kernel pipeline (one kernel)
//   partitioned:  kernel -> [narrow] -> partition -> per-kernel pipeline
//
// The per-kernel pipeline is transform -> schedule -> allocate -> [verify]
// over a CompositeSchedule's kernels, then one composed report. One kernel
// schedules under stage "schedule"; several under "schedule.k<i>".

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flow/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/composite.hpp"

namespace hls {

/// The per-stage fault-injection site, "flow.<stage>". The armed check
/// happens before the name is built, so the unarmed fast path never
/// allocates.
void stage_failpoint(const char* name);

/// Runs one flow stage, tagging any hls::Error it raises with the stage
/// name so Session can report where the flow failed.
template <typename F>
auto stage(const char* name, F&& f) {
  try {
    return std::forward<F>(f)();
  } catch (const CancelledError&) {
    // Cancellation is not a stage failure: let it unwind untagged so
    // Session::run (and the serve layer) can map it to the dedicated
    // "cancelled" diagnostic / "deadline" envelope.
    throw;
  } catch (const FlowStageError&) {
    throw;
  } catch (const Error& e) {
    throw FlowStageError(name, e.what(), e.context());
  }
}

/// stage() plus wall-clock collection when the request opted in
/// (FlowOptions::timing): the duration lands in FlowResult::timings and as
/// a Note diagnostic of the same stage name.
template <typename F>
auto timed_stage(FlowResult& out, const FlowRequest& req, const char* name,
                 F&& f) {
  // Every stage boundary is a cancellation checkpoint, a failpoint site and
  // a trace-span site; each is a branch-on-null / branch-on-atomic no-op
  // when nothing is armed.
  req.cancel.poll();
  stage_failpoint(name);
  ScopedSpan span(name, "flow");
  const bool metrics = metrics_armed();
  if (!req.options.timing && !metrics) return stage(name, std::forward<F>(f));
  const auto t0 = std::chrono::steady_clock::now();
  auto result = stage(name, std::forward<F>(f));
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (metrics) {
    MetricsRegistry::global()
        .histogram(std::string("flow.stage.") + name + ".ms")
        .record(ms);
  }
  if (req.options.timing) {
    out.timings.push_back({name, ms});
    out.diagnostics.push_back(timing_note(name, ms));
  }
  return result;
}

void note(FlowResult& r, const char* stage_name, std::string message);

/// Resolves the request's target for a builtin flow, recording the resolved
/// name on the result and a note diagnostic. Unknown names throw a
/// "registry"-stage error (Session::run pre-validates, so this only fires
/// when flows:: functions are called directly).
Target resolve_target_stage(FlowResult& out, const FlowRequest& req);

/// The report of a flow that allocates one datapath: ns and area priced
/// under `target`.
ImplementationReport make_report(std::string flow, const Target& target,
                                 unsigned latency, unsigned cycle_deltas,
                                 Datapath dp, std::size_t op_count);

class RequestStageCache;

/// The stage hook of one flow invocation: the request's own StageCache when
/// it brought one, otherwise a non-retaining per-request store that
/// computes each artefact once with the stage functions (memoized per spec
/// object, dropped with the hook) and owns the scheduling stage's oracle
/// counter sink. Every heavyweight stage of the builtin flows goes through
/// cache(), so cached and uncached runs take one code path.
class StageHook {
public:
  explicit StageHook(const FlowRequest& req);
  ~StageHook();
  StageHook(const StageHook&) = delete;
  StageHook& operator=(const StageHook&) = delete;

  StageCache& cache() const { return *cache_; }

  /// Surfaces the oracle counters the per-request store's schedulers
  /// collected: on FlowResult::counters under FlowOptions::timing, and into
  /// the metrics registry when it is armed. A request that brought its own
  /// cache gets neither: its schedules may be hits that ran no oracle, and
  /// a result must not reveal a hit.
  void publish_counters(FlowResult& out, const FlowRequest& req) const;

private:
  std::unique_ptr<RequestStageCache> own_;
  StageCache* cache_;
};

/// The kernel and optional narrow stages of the fragment-scheduling flows,
/// with the kernel note; fills out.kernel and out.kernel_stats.
void kernel_stages(FlowResult& out, const FlowRequest& req, StageCache& cache);

/// The per-kernel pipeline: transform, schedule, allocate and (under
/// FlowOptions::timing) verify every kernel of `cs` — whose runs carry
/// their latency and start cycle — keying kernel k's stage getters on
/// specs[k] with `narrow`, then prices the composed report under `label`.
/// A one-kernel run also surfaces its transform and schedule on `out`.
void run_kernels(FlowResult& out, const FlowRequest& req,
                 const StageHook& hook, const Target& target,
                 const char* label, const std::vector<const Dfg*>& specs,
                 bool narrow, CompositeSchedule& cs);

} // namespace hls
