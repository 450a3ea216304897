#pragma once
// hls::Explorer — design-space exploration over the Session flow engine.
//
// The paper's core claim is a trade-off (fragmentation buys a shorter cycle
// at the same latency for near-zero area), so the interesting output of the
// toolchain is not one implementation but a *frontier*: the non-dominated
// set over (latency, cycle_ns, execution_ns, area gates) across every
// combination of flow x scheduler x target x latency a designer would
// consider. Explorer turns a point evaluator into that frontier engine:
//
//   ExploreRequest req;
//   req.spec = elliptic();
//   req.targets = {"paper-ripple", "cla"};
//   req.latency_lo = 3; req.latency_hi = 15;
//   ExploreResult r = Explorer().run(req);
//   for (std::size_t i : r.frontier) { ... r.points[i] ... }
//
// Three mechanisms keep a large grid affordable:
//   * an ArtifactCache shared by every evaluation, so only stages whose
//     inputs changed re-run (targets with equal budgets share transforms,
//     schedules and datapaths wholesale);
//   * §3.2 bound pruning — for the "optimized" and "partitioned" flows
//     with no budget override, (latency, cycle_ns, execution_ns) of a
//     candidate are known *exactly* before any stage runs (the report
//     prices adder_depth(estimate_cycle_budget(critical, latency)) per
//     kernel, plan_composite computes the same from the memoized critical
//     times), so latency points whose bound is
//     dominated on those axes by another point of the same
//     (flow, scheduler, target) series are skipped — typically the
//     saturated high-latency tail where the budget stops shrinking. If a
//     dominating candidate's own evaluation fails (user-registered
//     schedulers may reject tight latencies), the points it pruned are
//     rescued and evaluated after all, so pruning never loses a feasible
//     point on the timing axes. Area is unknown at bound time, so pruning
//     can still drop a point that would have entered the frontier purely
//     on area — every skipped candidate is therefore recorded in `pruned`
//     with its bound, and `prune = false` restores exhaustive coverage;
//   * the Session::run_batch thread pool fans surviving points out.
//
// Every evaluated point's FlowResult is bit-identical to an uncached
// Session::run of the same request (the StageCache contract; pinned across
// all registry suites by tests/dse_test.cpp).

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "dse/cache.hpp"
#include "flow/session.hpp"

namespace hls {

/// Linear objective weights for ranking frontier points (ExplorePoint::
/// score = latency*latency_w + cycle_ns*cycle_w + execution_ns*execution_w
/// + area_gates*area_w). Only the *relative* magnitudes matter; the default
/// ranks by cycle length, the paper's headline metric. Weights never affect
/// which points are evaluated or which are on the frontier — dominance is
/// weight-free — only the ordering and ExploreResult::best.
struct ObjectiveWeights {
  double latency = 0;
  double cycle_ns = 1;
  double execution_ns = 0;
  double area = 0;
};

/// One exploration job: a spec plus the axes of the grid.
struct ExploreRequest {
  Dfg spec;
  std::vector<std::string> flows = {"optimized"};
  std::vector<std::string> schedulers = {"list"};
  std::vector<std::string> targets = {kDefaultTargetName};
  unsigned latency_lo = 1;
  unsigned latency_hi = 1;
  FlowOptions options;
  ObjectiveWeights weights;
  /// Maximum points to evaluate; 0 = unlimited. Excess candidates (in
  /// coverage order — see Explorer::run) are reported as pruned "budget".
  unsigned budget = 0;
  /// §3.2 dominated-bound pruning (see file comment). On by default.
  bool prune = true;
  /// Worker threads for the evaluation batch; 0 = hardware concurrency.
  unsigned workers = 0;
  /// Artefact store shared by every evaluation. Empty (the default) means
  /// the Explorer creates a private cache for this run — the historical
  /// behaviour. A long-lived caller (the serve daemon) passes its
  /// process-wide cache here so kernels, transforms and schedules are
  /// shared *across* requests; ExploreResult::cache_stats then snapshots
  /// the shared counters after the run.
  std::shared_ptr<ArtifactCache> cache;
  /// Cooperative cancellation (support/cancel.hpp): polled per candidate
  /// during pricing and between evaluation rounds, and threaded into every
  /// per-point FlowRequest. When it trips, Explorer::run throws
  /// CancelledError — unlike malformed requests, cancellation is an abort,
  /// not a result (the serve layer maps it to its "deadline" envelope). A
  /// shared cache is left exactly as if the exploration never started.
  CancelToken cancel;
};

/// The objective tuple of one implementation, all axes minimized.
struct Objectives {
  unsigned latency = 0;
  double cycle_ns = 0;
  double execution_ns = 0;
  unsigned area_gates = 0;
};

/// Pareto dominance: a <= b on every axis and a < b on at least one.
bool dominates(const Objectives& a, const Objectives& b);

/// One evaluated grid point.
struct ExplorePoint {
  std::string flow;
  std::string scheduler;
  std::string target;
  unsigned latency = 0;
  FlowResult result;            ///< bit-identical to uncached Session::run
  Objectives objectives;        ///< from result.report (valid when ok)
  double score = 0;             ///< weighted objective sum (valid when ok)
  bool on_frontier = false;
};

/// One skipped grid point, with why — coverage loss is never silent.
struct PrunedPoint {
  std::string flow;
  std::string scheduler;
  std::string target;
  unsigned latency = 0;
  std::string reason;           ///< "dominated-bound" | "budget"
  /// For "dominated-bound": the exact timing bound that was dominated
  /// (area_gates is 0 = unknown at bound time).
  Objectives bound;
};

struct ExploreResult {
  /// False when the request itself was malformed (see diagnostics); points
  /// may still individually fail (point.result.ok) without clearing this.
  bool ok = false;
  // Echo of the request (spec name + axes + knobs), so a serialized result
  // is self-describing.
  std::string spec_name;
  std::vector<std::string> flows;
  std::vector<std::string> schedulers;
  std::vector<std::string> targets;
  unsigned latency_lo = 0;
  unsigned latency_hi = 0;
  unsigned budget = 0;
  bool prune = true;
  ObjectiveWeights weights;
  /// Every evaluated point, sorted (flow, scheduler, target, latency).
  std::vector<ExplorePoint> points;
  /// Indices into `points` of the non-dominated set (over ok points),
  /// ascending.
  std::vector<std::size_t> frontier;
  /// Frontier index minimizing ExplorePoint::score (ties: first).
  std::optional<std::size_t> best;
  std::vector<PrunedPoint> pruned;
  /// Request-level problems ("registry", "request" stages) plus one
  /// Warning summarizing failed points when any.
  std::vector<FlowDiagnostic> diagnostics;
  CacheStats cache_stats;
  std::size_t evaluated = 0;    ///< points actually run (== points.size())
  std::size_t failed = 0;       ///< evaluated points with result.ok == false
  /// Wall-clock of the whole exploration; only serialized to JSON when the
  /// request set FlowOptions::timing (byte-stable output otherwise).
  double wall_ms = 0;
  bool timing = false;          ///< echo of request.options.timing

  /// All Error-severity diagnostic messages, joined with "; ".
  std::string error_text() const;
};

/// The exploration engine. Stateless between runs; every run creates a
/// fresh ArtifactCache shared by all of its evaluations.
class Explorer {
public:
  explicit Explorer(SessionOptions options = {});

  /// Explores the grid. Never throws for request-level failures: malformed
  /// axes come back as ok == false with Error diagnostics, per-point flow
  /// failures as points with result.ok == false. The one exception is
  /// cooperative cancellation: a tripped ExploreRequest::cancel token
  /// throws CancelledError (an abort is not a result).
  ExploreResult run(const ExploreRequest& request) const;

private:
  SessionOptions options_;
};

/// Machine-readable ExploreResult (schema "fraghls-explore-v1"): axes,
/// per-point objective summaries, frontier indices, pruned points with
/// bounds and reasons, cache hit/miss counters. Deterministic for a
/// deterministic exploration (wall_ms is emitted only when timing was on;
/// run single-worker for reproducible cache counters).
std::string to_json(const ExploreResult& r);

/// CSV of the evaluated points (one row each: axes, objectives, score,
/// frontier flag), for spreadsheet-side plotting of Fig. 3/4-style curves.
std::string to_csv(const ExploreResult& r);

} // namespace hls
