#include "flow/session.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "alloc/oplevel.hpp"
#include "flow/stages.hpp"
#include "sched/blc.hpp"
#include "sched/conventional.hpp"
#include "sched/core.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"

namespace hls {

FlowDiagnostic timing_note(std::string stage, double ms) {
  return {DiagSeverity::Note, std::move(stage),
          strformat("stage wall-clock %.3f ms", ms)};
}

const char* to_string(DiagSeverity s) {
  switch (s) {
    case DiagSeverity::Note: return "note";
    case DiagSeverity::Warning: return "warning";
    case DiagSeverity::Error: return "error";
  }
  return "?";
}

std::string error_text(const std::vector<FlowDiagnostic>& diagnostics) {
  std::string out;
  for (const FlowDiagnostic& d : diagnostics) {
    if (d.severity != DiagSeverity::Error) continue;
    if (!out.empty()) out += "; ";
    out += d.stage + ": " + d.message;
  }
  return out;
}

// --- FlowResult --------------------------------------------------------------

std::string FlowResult::error_text() const {
  return hls::error_text(diagnostics);
}

const FlowResult& FlowResult::require() const& {
  if (!ok) {
    const std::string detail = error_text();
    throw Error("flow '" + flow + "' failed" +
                (detail.empty() ? "" : ": " + detail));
  }
  return *this;
}

FlowResult FlowResult::require() && {
  static_cast<const FlowResult&>(*this).require();
  return std::move(*this);
}

// --- builtin pipelines -------------------------------------------------------

namespace flows {

FlowResult conventional(const FlowRequest& req) {
  FlowResult out;
  out.flow = "conventional";
  const Target target = resolve_target_stage(out, req);
  const OpSchedule s = timed_stage(out, req, "schedule", [&] {
    ConventionalOptions copt;
    copt.delay = target.delay;
    return schedule_conventional(req.spec, req.latency, copt);
  });
  Datapath dp = timed_stage(out, req, "allocate", [&] {
    return allocate_oplevel(req.spec, s);
  });
  out.report = make_report("original", target, req.latency, s.cycle_deltas,
                           std::move(dp), req.spec.operations().size());
  out.ok = true;
  return out;
}

FlowResult blc(const FlowRequest& req) {
  FlowResult out;
  out.flow = "blc";
  const Target target = resolve_target_stage(out, req);
  const StageHook hook(req);
  const std::shared_ptr<const KernelArtifact> art = timed_stage(
      out, req, "kernel", [&] { return hook.cache().kernel(req.spec); });
  const Dfg& kernel = art->kernel;
  const OpSchedule s = timed_stage(out, req, "schedule", [&] {
    return schedule_blc(kernel, req.latency, target.delay);
  });
  Datapath dp = timed_stage(out, req, "allocate", [&] {
    return allocate_oplevel(kernel, s);
  });
  out.report = make_report("blc", target, req.latency, s.cycle_deltas,
                           std::move(dp), kernel.operations().size());
  out.ok = true;
  return out;
}

FlowResult optimized(const FlowRequest& req) {
  FlowResult out;
  out.flow = "optimized";
  const Target target = resolve_target_stage(out, req);
  const StageHook hook(req);
  kernel_stages(out, req, hook.cache());
  CompositeSchedule cs = single_kernel_plan(req.latency);
  run_kernels(out, req, hook, target, "optimized", {&req.spec},
              req.options.narrow, cs);
  out.ok = true;
  return out;
}

} // namespace flows

// --- FlowRegistry ------------------------------------------------------------

FlowRegistry& FlowRegistry::global() {
  // Leaked singleton: flows registered by user code may live in objects with
  // static storage, so never run destructors against them at exit.
  static FlowRegistry* r = [] {
    auto* reg = new FlowRegistry;
    reg->add("conventional", flows::conventional);
    reg->add("original", flows::conventional);  // legacy alias
    reg->add("blc", flows::blc);
    reg->add("optimized", flows::optimized);
    reg->add("partitioned", flows::partitioned);
    return reg;
  }();
  return *r;
}

// --- request validation ------------------------------------------------------

std::vector<FlowDiagnostic> validate_request(const FlowRequest& request,
                                             const FlowRegistry& registry) {
  std::vector<FlowDiagnostic> out;
  const auto check = [&out](const auto& names, const std::string& name) {
    if (std::optional<std::string> message = names.unknown(name)) {
      out.push_back({DiagSeverity::Error, "registry", *std::move(message)});
    }
  };
  check(registry, request.flow);
  if (request.latency == 0) {
    out.push_back({DiagSeverity::Error, "request", "latency must be >= 1"});
  }
  check(SchedulerRegistry::global(), request.scheduler);
  check(TargetRegistry::global(), request.target);
  return out;
}

std::optional<FlowDiagnostic> validate_latency_range(unsigned lo, unsigned hi) {
  if (lo >= 1 && lo <= hi) return std::nullopt;
  return FlowDiagnostic{
      DiagSeverity::Error, "request",
      strformat("latency range must satisfy 1 <= lo <= hi (got lo=%u, hi=%u)",
                lo, hi)};
}

// --- Session -----------------------------------------------------------------

Session::Session(SessionOptions options)
    : registry_(&FlowRegistry::global()), options_(options) {}

Session::Session(FlowRegistry& registry, SessionOptions options)
    : registry_(&registry), options_(options) {}

FlowResult Session::run(const FlowRequest& request) const {
  ScopedSpan span("session.run", "session");
  if (span.live()) {
    span.note("flow=%s latency=%u target=%s", request.flow.c_str(),
              request.latency, request.target.c_str());
  }
  FlowResult out;
  out.flow = request.flow;
  // Failure results echo the requested strategy and target so scripted
  // consumers can group ok:false rows; successful flows overwrite them with
  // what they actually resolved (scheduler stays empty for flows that never
  // schedule fragments).
  out.scheduler = request.scheduler;
  out.target = request.target;
  // One validation path for every malformed-request class (unknown flow /
  // scheduler / target, zero latency); all problems are reported at once.
  std::vector<FlowDiagnostic> problems = validate_request(request, *registry_);
  if (!problems.empty()) {
    out.diagnostics = std::move(problems);
    return out;
  }
  const FlowFn fn = registry_->resolve(request.flow);
  try {
    FlowResult r = fn(request);
    r.flow = request.flow;
    // User flows that never consult the technology still echo the request.
    if (r.target.empty()) r.target = request.target;
    return r;
  } catch (const CancelledError& e) {
    // The request's token tripped at a checkpoint. Partial scheduler state
    // unwound through the oracle journal and no cache insert happened, so
    // the engine is exactly as if the request never ran; report the one
    // structured diagnostic the serve layer keys its "deadline" envelope on.
    out.diagnostics.push_back({DiagSeverity::Error, "cancelled", e.what()});
  } catch (const FlowStageError& e) {
    out.diagnostics.push_back(
        {DiagSeverity::Error, e.stage(), e.what(), e.context()});
  } catch (const Error& e) {
    out.diagnostics.push_back(
        {DiagSeverity::Error, "flow", e.what(), e.context()});
  } catch (const std::exception& e) {
    out.diagnostics.push_back({DiagSeverity::Error, "internal", e.what()});
  } catch (...) {
    // A worker thread must never see an exception (std::terminate), so even
    // non-std::exception values thrown by user flows become diagnostics.
    out.diagnostics.push_back(
        {DiagSeverity::Error, "internal", "unknown exception from flow"});
  }
  out.ok = false;
  return out;
}

std::vector<FlowResult> Session::run_batch(
    const std::vector<FlowRequest>& requests) const {
  std::vector<FlowResult> results(requests.size());
  const unsigned workers = worker_count(requests.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      results[i] = run(requests[i]);
    }
    return results;
  }
  // Self-scheduling pool: each worker claims the next unclaimed request.
  // run() never throws, so no exception can escape a worker. Workers
  // inherit the caller's trace context so per-request spans emitted off
  // the pool still land in the originating trace (two word copies when
  // nothing is being traced).
  const TraceContext trace_ctx = TraceSession::current_context();
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, trace_ctx] {
      TraceContextScope trace_scope(trace_ctx);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests.size()) return;
        results[i] = run(requests[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return results;
}

std::vector<FlowResult> Session::run_sweep(
    const FlowRequest& tmpl, unsigned lo, unsigned hi,
    const std::vector<std::string>& targets) const {
  const std::vector<std::string> target_names =
      targets.empty() ? std::vector<std::string>{tmpl.target} : targets;
  // An empty/inverted range is a malformed request, reported the same way
  // Session::run reports one: a single ok == false result with a
  // "request"-stage Error diagnostic (never a throw, never a silently empty
  // vector). ExploreRequest validation reuses validate_latency_range.
  if (const std::optional<FlowDiagnostic> bad = validate_latency_range(lo, hi)) {
    FlowResult out;
    out.flow = tmpl.flow;
    out.scheduler = tmpl.scheduler;
    out.target = target_names.front();
    out.diagnostics.push_back(*bad);
    return {std::move(out)};
  }
  std::vector<FlowRequest> requests;
  requests.reserve(target_names.size() * (hi - lo + 1));
  for (const std::string& target : target_names) {
    for (unsigned lat = lo; lat <= hi; ++lat) {
      FlowRequest& r = requests.emplace_back(tmpl);
      r.latency = lat;
      r.target = target;
    }
  }
  return run_batch(requests);
}

unsigned Session::worker_count(std::size_t jobs) const {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned configured = options_.workers == 0 ? hw : options_.workers;
  return static_cast<unsigned>(
      std::min<std::size_t>(configured, std::max<std::size_t>(jobs, 1)));
}

} // namespace hls
