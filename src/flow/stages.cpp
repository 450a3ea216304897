#include "flow/stages.hpp"

#include <algorithm>
#include <map>

#include "alloc/bitlevel.hpp"
#include "kernel/extract.hpp"
#include "kernel/narrow.hpp"
#include "sched/core.hpp"
#include "sched/schedule.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"
#include "timing/critical_path.hpp"

namespace hls {

void stage_failpoint(const char* name) {
  if (!failpoints_armed()) return;
  failpoint(("flow." + std::string(name)).c_str());
}

void note(FlowResult& r, const char* stage_name, std::string message) {
  r.diagnostics.push_back(
      {DiagSeverity::Note, stage_name, std::move(message), {}});
}

Target resolve_target_stage(FlowResult& out, const FlowRequest& req) {
  try {
    Target t = resolve_target(req.target);
    out.target = t.name;
    note(out, "flow",
         strformat("target '%s': %s adders, delta %.3g ns, overhead %.3g ns",
                   t.name.c_str(), to_string(t.delay.style), t.delay.delta_ns,
                   t.delay.sequential_overhead_ns));
    return t;
  } catch (const Error& e) {
    throw FlowStageError("registry", e.what(), e.context());
  }
}

ImplementationReport make_report(std::string flow, const Target& target,
                                 unsigned latency, unsigned cycle_deltas,
                                 Datapath dp, std::size_t op_count) {
  ImplementationReport r;
  r.flow = std::move(flow);
  r.target = target.name;
  r.latency = latency;
  r.cycle_deltas = cycle_deltas;
  r.cycle_ns = target.delay.cycle_ns(cycle_deltas);
  r.execution_ns = target.delay.execution_ns(latency, cycle_deltas);
  r.area = area_of(dp, target.gates);
  r.datapath = std::move(dp);
  r.op_count = op_count;
  return r;
}

// --- the per-request stage hook ----------------------------------------------

/// The StageCache of a request that brought none. Within one request the
/// flows pass each spec object with one parameter set (stage_cache.hpp), so
/// one memo slot per stage and spec object is exact. Not thread-safe: it
/// serves one flow invocation.
class RequestStageCache final : public StageCache {
public:
  explicit RequestStageCache(bool timing) : timing_(timing) {}

  std::shared_ptr<const KernelArtifact> kernel(const Dfg& spec) override {
    Memo& m = memo_[&spec];
    if (!m.kernel) {
      auto a = std::make_shared<KernelArtifact>();
      a->already_kernel = is_kernel_form(spec);
      a->kernel = a->already_kernel ? spec : extract_kernel(spec, &a->stats);
      m.kernel = std::move(a);
    }
    return m.kernel;
  }

  std::shared_ptr<const Dfg> narrowed(const Dfg& spec) override {
    Memo& m = memo_[&spec];
    if (!m.narrowed) {
      m.narrowed =
          std::make_shared<const Dfg>(narrow_widths(kernel(spec)->kernel));
    }
    return m.narrowed;
  }

  std::shared_ptr<const TransformResult> transform(
      const Dfg& spec, bool narrow, unsigned latency, unsigned n_bits_override,
      const DelayModel& delay, const CancelToken&) override {
    Memo& m = memo_[&spec];
    if (!m.transform) {
      const std::shared_ptr<const TransformPrep> p = prep(spec, narrow);
      const unsigned n_bits =
          n_bits_override != 0
              ? n_bits_override
              : estimate_cycle_budget(p->critical, latency, delay);
      m.transform = std::make_shared<const TransformResult>(
          transform_prepared(*p, latency, n_bits));
    }
    return m.transform;
  }

  std::shared_ptr<const FragSchedule> fragment_schedule(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const DelayModel& delay,
      const CancelToken& cancel) override {
    Memo& m = memo_[&spec];
    if (!m.schedule) {
      const std::shared_ptr<const TransformResult> t =
          transform(spec, narrow, latency, n_bits_override, delay, cancel);
      SchedulerOptions opts;
      opts.cancel = cancel;
      // Counter collection never changes placement, so the schedule stays
      // bit-identical with and without the opt-in.
      if (timing_ || metrics_armed()) opts.counters = &counters_;
      m.schedule = std::make_shared<const FragSchedule>(
          run_scheduler(scheduler, *t, opts));
    }
    return m.schedule;
  }

  std::shared_ptr<const Datapath> bitlevel_datapath(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const DelayModel& delay,
      const CancelToken& cancel) override {
    Memo& m = memo_[&spec];
    if (!m.datapath) {
      const std::shared_ptr<const TransformResult> t =
          transform(spec, narrow, latency, n_bits_override, delay, cancel);
      const std::shared_ptr<const FragSchedule> s = fragment_schedule(
          scheduler, spec, narrow, latency, n_bits_override, delay, cancel);
      m.datapath = std::make_shared<const Datapath>(allocate_bitlevel(*t, *s));
    }
    return m.datapath;
  }

  std::shared_ptr<const KernelPartition> partition(const Dfg& spec,
                                                   bool narrow) override {
    Memo& m = memo_[&spec];
    if (!m.partition) {
      m.partition = std::make_shared<const KernelPartition>(
          partition_kernel(base(spec, narrow)));
    }
    return m.partition;
  }

  unsigned critical_time(const Dfg& spec, bool narrow) override {
    return prep(spec, narrow)->critical;
  }

  const OracleCounters& counters() const { return counters_; }

private:
  struct Memo {
    std::shared_ptr<const KernelArtifact> kernel;
    std::shared_ptr<const Dfg> narrowed;
    std::shared_ptr<const KernelPartition> partition;
    std::shared_ptr<const TransformPrep> prep;
    std::shared_ptr<const TransformResult> transform;
    std::shared_ptr<const FragSchedule> schedule;
    std::shared_ptr<const Datapath> datapath;
  };

  const Dfg& base(const Dfg& spec, bool narrow) {
    return narrow ? *narrowed(spec) : kernel(spec)->kernel;
  }

  std::shared_ptr<const TransformPrep> prep(const Dfg& spec, bool narrow) {
    Memo& m = memo_[&spec];
    if (!m.prep) {
      m.prep = std::make_shared<const TransformPrep>(
          prepare_transform(base(spec, narrow)));
    }
    return m.prep;
  }

  bool timing_;
  OracleCounters counters_;
  std::map<const Dfg*, Memo> memo_;
};

StageHook::StageHook(const FlowRequest& req) : cache_(req.cache.get()) {
  if (cache_ == nullptr) {
    own_ = std::make_unique<RequestStageCache>(req.options.timing);
    cache_ = own_.get();
  }
}

StageHook::~StageHook() = default;

void StageHook::publish_counters(FlowResult& out,
                                 const FlowRequest& req) const {
  if (!own_) return;
  if (req.options.timing) out.counters = own_->counters();
  if (metrics_armed()) {
    publish_oracle_counters(MetricsRegistry::global(), own_->counters());
  }
}

// --- the fragment-scheduling flows' stages -----------------------------------

void kernel_stages(FlowResult& out, const FlowRequest& req, StageCache& cache) {
  const std::shared_ptr<const KernelArtifact> art =
      timed_stage(out, req, "kernel", [&] { return cache.kernel(req.spec); });
  if (req.options.narrow) {
    out.kernel = *timed_stage(out, req, "narrow",
                              [&] { return cache.narrowed(req.spec); });
  } else {
    out.kernel = art->kernel;
  }
  if (art->already_kernel) {
    note(out, "kernel", "specification already in kernel form");
  } else {
    note(out, "kernel",
         strformat("%zu operations -> %zu unsigned additions",
                   art->stats.ops_before, art->stats.adds_after));
  }
  out.kernel_stats = art->stats;
}

namespace {

/// The composed report: latency is the critical inter-kernel path, the
/// clock the widest kernel window's delta depth under the target's adder
/// style (identity for ripple; the composite-window best-case bound for
/// sublinear styles — see DelayModel::adder_depth), area the SUM of
/// per-kernel areas (each kernel keeps its own controller — GateModel::
/// controller is nonlinear, so pricing the merged datapath as one machine
/// would be wrong), and the datapath the offset-merged composition for
/// rendering. One kernel reports exactly its own datapath.
ImplementationReport composed_report(const char* label, const Target& target,
                                     const CompositeSchedule& cs) {
  ImplementationReport r;
  r.flow = label;
  r.target = target.name;
  r.latency = cs.split.composed_latency;
  for (const KernelRun& run : cs.runs) {
    r.cycle_deltas =
        std::max(r.cycle_deltas, target.delay.adder_depth(run.n_bits));
    r.op_count += run.transform->spec.operations().size();
  }
  r.cycle_ns = target.delay.cycle_ns(r.cycle_deltas);
  r.execution_ns = target.delay.execution_ns(r.latency, r.cycle_deltas);
  r.area = composed_area(cs, target.gates);
  r.datapath = merged_datapath(cs);
  return r;
}

} // namespace

void run_kernels(FlowResult& out, const FlowRequest& req,
                 const StageHook& hook, const Target& target,
                 const char* label, const std::vector<const Dfg*>& specs,
                 bool narrow, CompositeSchedule& cs) {
  StageCache& cache = hook.cache();
  const std::size_t K = cs.runs.size();
  timed_stage(out, req, "transform", [&] {
    for (std::size_t k = 0; k < K; ++k) {
      KernelRun& run = cs.runs[k];
      run.transform = cache.transform(*specs[k], narrow, run.latency,
                                      req.n_bits_override, target.delay,
                                      req.cancel);
      run.n_bits = run.transform->n_bits;
    }
    return 0;
  });
  if (K == 1) {
    note(out, "transform",
         strformat("cycle budget %u chained bits%s", cs.runs[0].n_bits,
                   req.n_bits_override == 0 ? " (estimated)" : " (override)"));
  } else {
    std::string budgets;
    for (std::size_t k = 0; k < K; ++k) {
      if (!budgets.empty()) budgets += ", ";
      budgets += strformat("%s %u+%u@%u", specs[k]->name().c_str(),
                           cs.runs[k].start_cycle, cs.runs[k].latency,
                           cs.runs[k].n_bits);
    }
    note(out, "transform",
         strformat("per-kernel start+latency@n_bits: %s", budgets.c_str()));
  }
  out.scheduler = req.scheduler;
  std::size_t fragments = 0, fu_ops = 0;
  for (std::size_t k = 0; k < K; ++k) {
    KernelRun& run = cs.runs[k];
    const std::string stage_name =
        K == 1 ? "schedule" : "schedule.k" + std::to_string(k);
    run.schedule = timed_stage(out, req, stage_name.c_str(), [&] {
      return cache.fragment_schedule(req.scheduler, *specs[k], narrow,
                                     run.latency, req.n_bits_override,
                                     target.delay, req.cancel);
    });
    fragments += run.transform->adds.size();
    fu_ops += run.schedule->fu_ops.size();
  }
  hook.publish_counters(out, req);
  note(out, "schedule",
       strformat("scheduler '%s' placed %zu fragments in %zu adder ops%s",
                 req.scheduler.c_str(), fragments, fu_ops,
                 K == 1 ? "" : strformat(" across %zu kernels", K).c_str()));
  timed_stage(out, req, "allocate", [&] {
    for (std::size_t k = 0; k < K; ++k) {
      KernelRun& run = cs.runs[k];
      run.datapath = cache.bitlevel_datapath(
          req.scheduler, *specs[k], narrow, run.latency, req.n_bits_override,
          target.delay, req.cancel);
    }
    return 0;
  });
  if (req.options.timing) {
    // An explicit re-verification pass, so `--timing` reports what the
    // bit-exact validation of the final schedule costs. Idempotent: the
    // scheduler already validated the schedule it returned.
    timed_stage(out, req, "verify", [&] {
      for (const KernelRun& run : cs.runs) {
        validate_schedule(run.transform->spec, run.schedule->schedule);
      }
      return 0;
    });
  }
  out.report = composed_report(label, target, cs);
  if (K == 1) {
    out.transform = *cs.runs[0].transform;
    out.schedule = *cs.runs[0].schedule;
  }
}

} // namespace hls
