#pragma once
// The Session flow engine — the library's primary request/response API.
//
// A FlowRequest names a behavioural specification, a latency constraint (or
// a sweep is built from many requests) and a flow by registry name; a
// Session resolves the name through a FlowRegistry and returns a uniform
// FlowResult: the ImplementationReport every flow produces plus the
// intermediate artefacts (kernel, transform, schedule) for the flows that
// have them, and structured diagnostics instead of bare throws.
//
//   Session session;
//   FlowResult r = session.run({spec, "optimized", 3});
//   if (r.ok) std::cout << r.report.cycle_ns;
//
// Independent jobs fan out through Session::run_batch, which executes on a
// thread pool and is the engine under latency sweeps and multi-spec suite
// runs. Results are positionally stable and bit-identical to sequential
// execution regardless of the worker count (the flows are pure functions of
// the request).
//
// The builtin flows are registered in FlowRegistry::global() under
// "conventional" (alias "original"), "blc", "optimized" and "partitioned";
// user flows can be registered next to them. Flows that fragment-schedule
// resolve FlowRequest::scheduler through SchedulerRegistry::global() the
// same way ("list", "forcedirected", or user-registered strategies).

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "flow/stage_cache.hpp"
#include "frag/transform.hpp"
#include "kernel/extract.hpp"
#include "sched/core.hpp"
#include "sched/fragsched.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/registry.hpp"
#include "timing/target.hpp"

namespace hls {

struct CompositeSchedule;  // partition/composite.hpp

/// One synthesis job: spec + flow name + constraint. Owns its specification
/// so batches of requests are safe to execute concurrently.
struct FlowRequest {
  Dfg spec;
  std::string flow = "optimized";  ///< registry name
  unsigned latency = 0;            ///< time constraint in cycles (>= 1)
  /// Cycle-budget override for the optimized flow (0 = §3.2 estimate).
  unsigned n_bits_override = 0;
  FlowOptions options;
  /// Fragment-scheduling strategy for flows that fragment-schedule,
  /// resolved by name through SchedulerRegistry::global() ("list",
  /// "forcedirected", or user-registered).
  std::string scheduler = "list";
  /// Technology target, resolved by name through TargetRegistry::global()
  /// ("paper-ripple", "cla", "fast-logic", or user-registered). One target
  /// drives §3.2 cycle estimation, the fragment budget, allocation area
  /// and the ns numbers of the report.
  std::string target = kDefaultTargetName;
  /// Optional per-stage artefact cache (flow/stage_cache.hpp) that
  /// outlives the request. When set, the builtin flows obtain their
  /// kernel/transform/schedule/datapath artefacts from it; when unset, from
  /// a per-request hook that computes each once. Results are bit-identical
  /// either way. Shared, so one store serves a whole batch across run_batch
  /// workers — hls::Explorer attaches an ArtifactCache here.
  std::shared_ptr<StageCache> cache;
  /// Cooperative cancellation (support/cancel.hpp). Unarmed by default —
  /// poll sites reduce to a null test and results are byte-stable. When a
  /// serve deadline (or any caller) arms and cancels it, the run aborts at
  /// the next checkpoint; Session::run reports a single Error diagnostic
  /// under stage "cancelled", and a shared StageCache is left exactly as if
  /// the request never arrived.
  CancelToken cancel;
};

enum class DiagSeverity { Note, Warning, Error };

/// One structured diagnostic: which stage of the flow said what. `context`
/// carries the offending node/bit/cycle as fields when the underlying
/// hls::Error located the violation (the bit-slot simulator always does).
struct FlowDiagnostic {
  DiagSeverity severity = DiagSeverity::Note;
  std::string stage;    ///< "registry" | "request" | "kernel" | "narrow" |
                        ///< "partition" | "transform" | "schedule" |
                        ///< "schedule.k<i>" | "allocate" | "verify" |
                        ///< "flow" | "cancelled" | "internal"
  std::string message;
  ErrorContext context;
};

const char* to_string(DiagSeverity s);

/// All Error-severity messages of `diagnostics`, joined with "; " — the one
/// formatter behind FlowResult::error_text and ExploreResult::error_text.
std::string error_text(const std::vector<FlowDiagnostic>& diagnostics);

/// Wall-clock of one flow stage (FlowOptions::timing): "kernel", "narrow",
/// "partition", "transform", "schedule" (or "schedule.k<i>"), "allocate",
/// "verify" — the CLI adds "parse".
struct StageTiming {
  std::string stage;
  double ms = 0;
};

/// The Note diagnostic mirroring one StageTiming — one formatter shared by
/// the flow stages and the CLI's parse stage so the wording cannot drift.
FlowDiagnostic timing_note(std::string stage, double ms);

/// One kernel of a partitioned run, as the result surfaces it (the heavy
/// artefacts stay in the cache / the flow's internals).
struct PartitionKernelSummary {
  std::string name;            ///< sub-spec name ("<spec>.k<i>")
  std::size_t node_count = 0;  ///< nodes assigned to this kernel
  std::size_t add_count = 0;
  unsigned critical = 0;       ///< §3.2 critical time, chained bits
  unsigned latency = 0;        ///< this kernel's slice of the budget
  unsigned n_bits = 0;         ///< resolved per-cycle chained-bit budget
  unsigned start_cycle = 0;    ///< composed schedule offset
};

/// What the "partitioned" flow composed: per-kernel budgets and the
/// composed critical path. Present on FlowResult only for that flow, so
/// every other flow's JSON stays byte-identical.
struct PartitionSummary {
  std::vector<PartitionKernelSummary> kernels;
  std::size_t cut_edges = 0;
  unsigned composed_latency = 0;  ///< critical inter-kernel path, cycles
};

/// Uniform result of any flow. `report` is valid when `ok`; the artefact
/// members are populated by flows that produce them (the optimized flow
/// fills all four; the partitioned flow the kernel pair, plus transform and
/// schedule on single-kernel results; the conventional/BLC flows none).
struct FlowResult {
  std::string flow;       ///< registry name the request asked for
  /// Scheduling strategy used: set by flows that fragment-schedule;
  /// empty on successful flows that never scheduled fragments. Failed
  /// runs echo the requested strategy.
  std::string scheduler;
  /// Technology target the run resolved (every builtin flow consults one);
  /// failed runs and flows that leave it empty echo the requested name.
  std::string target;
  bool ok = false;
  ImplementationReport report;
  std::optional<KernelStats> kernel_stats;
  std::optional<Dfg> kernel;
  std::optional<TransformResult> transform;
  std::optional<FragSchedule> schedule;
  std::vector<FlowDiagnostic> diagnostics;
  /// Per-stage wall-clock, populated when FlowOptions::timing is set (also
  /// mirrored as Note diagnostics and serialized by to_json).
  std::vector<StageTiming> timings;
  /// Feasibility-oracle work counters of the scheduling stage, populated —
  /// like timings — only when FlowOptions::timing is set and the flow ran
  /// a fragment scheduler uncached (a StageCache hit reuses a schedule
  /// without re-running the oracle, so there is no work to count).
  std::optional<OracleCounters> counters;
  /// Composition summary of the "partitioned" flow; absent on every other
  /// flow (and in their serialized results).
  std::optional<PartitionSummary> partition;
  /// The partitioned flow's per-kernel composition on multi-kernel results
  /// (single-kernel results carry `transform` and `schedule` instead):
  /// what simulate_composite executes and composed_area prices. Not
  /// serialized.
  std::shared_ptr<const CompositeSchedule> composite;

  /// All Error-severity diagnostic messages, joined with "; ".
  std::string error_text() const;

  /// Throws hls::Error with error_text() when the flow failed; otherwise
  /// returns the result unchanged. Lets call sites that have no error
  /// handling of their own keep the old throwing behaviour:
  ///   const FlowResult r = session.run(req).require();
  const FlowResult& require() const&;
  FlowResult require() &&;
};

/// A flow: request in, result out. Builtin flows throw hls::Error (with
/// stage information) on infeasible constraints; Session converts any such
/// escape into Error diagnostics, so user flows may either throw or fill
/// result.diagnostics themselves.
using FlowFn = std::function<FlowResult(const FlowRequest&)>;

/// An hls::Error that knows which flow stage raised it; Session turns it
/// into a FlowDiagnostic with that stage (and the original ErrorContext).
class FlowStageError : public Error {
public:
  FlowStageError(std::string stage, const std::string& message,
                 ErrorContext context = {})
      : Error(message, context), stage_(std::move(stage)) {}
  const std::string& stage() const { return stage_; }

private:
  std::string stage_;
};

/// String-keyed flow registry. Thread-safe; registration replaces any
/// previous flow of the same name.
class FlowRegistry : public NamedRegistry<FlowFn> {
public:
  FlowRegistry() : NamedRegistry("flow") {}

  /// The process-wide registry, with the builtin flows pre-registered.
  static FlowRegistry& global();
};

struct SessionOptions {
  /// Worker threads for run_batch; 0 = hardware concurrency.
  unsigned workers = 0;
};

/// The flow engine: resolves requests against a registry and executes them,
/// one at a time (run) or fanned out over a thread pool (run_batch).
/// Stateless between calls; one Session can serve any number of requests.
class Session {
public:
  explicit Session(SessionOptions options = {});
  Session(FlowRegistry& registry, SessionOptions options = {});

  /// Executes one request. Never throws for flow-level failures: unknown
  /// names, bad constraints and infeasible schedules come back as a result
  /// with ok == false and Error diagnostics.
  FlowResult run(const FlowRequest& request) const;

  /// Executes independent requests concurrently. results[i] corresponds to
  /// requests[i] and is bit-identical to run(requests[i]).
  std::vector<FlowResult> run_batch(const std::vector<FlowRequest>& requests) const;

  /// Latency sweep lo..hi (inclusive) of one request template — a
  /// run_batch of (hi - lo + 1) copies of `tmpl` per target, differing only
  /// in latency and target; spec, flow, options, scheduler, budget
  /// override, cache and cancel token ride along. `targets` extends the
  /// sweep across technology targets (registry names); empty means the
  /// template's own target. Results are target-major: all latencies of
  /// targets[0], then all latencies of targets[1], ...
  /// An empty or inverted range (lo < 1 or hi < lo) returns a single
  /// ok == false result carrying the validate_latency_range diagnostic —
  /// structured like every other malformed request, never a bare throw or
  /// a silently empty vector.
  std::vector<FlowResult> run_sweep(
      const FlowRequest& tmpl, unsigned lo, unsigned hi,
      const std::vector<std::string>& targets = {}) const;

  /// Worker threads run_batch would use for `jobs` jobs.
  unsigned worker_count(std::size_t jobs) const;

private:
  FlowRegistry* registry_;
  SessionOptions options_;
};

/// The one request-validation path (Session::run and anything else that
/// wants the same checks): unknown flow, latency == 0, unknown scheduler
/// and unknown target all come back as Error diagnostics — registry-name
/// problems under stage "registry" with the registered names listed,
/// constraint problems under stage "request". Empty means the request is
/// well-formed.
std::vector<FlowDiagnostic> validate_request(const FlowRequest& request,
                                             const FlowRegistry& registry);

/// The one latency-range validation path (Session::run_sweep and
/// ExploreRequest): lo < 1 or hi < lo comes back as an Error diagnostic
/// under stage "request" naming both bounds; nullopt means the range is
/// well-formed.
std::optional<FlowDiagnostic> validate_latency_range(unsigned lo, unsigned hi);

namespace flows {
/// The builtin pipelines behind the registry's "conventional", "blc" and
/// "optimized" entries. They throw FlowStageError on infeasible requests
/// (Session::run converts that into diagnostics; direct calls see it).
FlowResult conventional(const FlowRequest& request);
FlowResult blc(const FlowRequest& request);
/// The paper's pipeline: the per-kernel pipeline of flow/stages.hpp over
/// one kernel, keyed on the request spec.
FlowResult optimized(const FlowRequest& request);
/// The multi-kernel composition (registry name "partitioned", defined in
/// partition/flow.cpp): the optimized flow's kernel stages, partitioning
/// into maximal operative kernels with a latency-budget split, then the
/// same per-kernel pipeline over every kernel and a composed report.
/// Bit-identical to flows::optimized — shared StageCache entries included —
/// when the partition has a single kernel.
FlowResult partitioned(const FlowRequest& request);
} // namespace flows

} // namespace hls
