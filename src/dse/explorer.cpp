#include "dse/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "flow/json.hpp"
#include "obs/trace.hpp"
#include "partition/composite.hpp"
#include "sched/core.hpp"
#include "support/strings.hpp"

namespace hls {

namespace {

/// One grid candidate during planning (indices into the request's axes plus
/// the latency), in coverage order.
struct Candidate {
  std::size_t flow = 0, scheduler = 0, target = 0;
  unsigned latency = 0;
  bool priced = false;     ///< bound below is exact (plan_composite)
  Objectives bound;        ///< §3.2 timing bound; area 0 = unknown
  bool keep = true;
  const char* prune_reason = nullptr;
};

/// Latencies of [lo, hi] in coverage order: endpoints first, then recursive
/// interval midpoints — so a point budget that truncates the sequence still
/// samples the whole range instead of only its low end.
std::vector<unsigned> coverage_order(unsigned lo, unsigned hi) {
  std::vector<unsigned> out;
  out.reserve(hi - lo + 1);
  out.push_back(lo);
  if (hi != lo) out.push_back(hi);
  std::vector<std::pair<unsigned, unsigned>> intervals{{lo, hi}};
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const auto [a, b] = intervals[i];
    const unsigned m = a + (b - a) / 2;
    if (m == a || m == b) continue;
    out.push_back(m);
    intervals.push_back({a, m});
    intervals.push_back({m, b});
  }
  return out;
}

/// Copies `axis` with duplicates removed (first occurrence wins), noting
/// each drop so the echo in the result stays honest.
std::vector<std::string> dedup_axis(const char* what,
                                    const std::vector<std::string>& axis,
                                    std::vector<FlowDiagnostic>& diags) {
  std::vector<std::string> out;
  for (const std::string& v : axis) {
    if (std::find(out.begin(), out.end(), v) != out.end()) {
      diags.push_back({DiagSeverity::Note, "request",
                       strformat("duplicate %s '%s' ignored", what,
                                 v.c_str())});
      continue;
    }
    out.push_back(v);
  }
  return out;
}

/// Whether a successful evaluated point of `c`'s (flow, scheduler, target)
/// series delivers a timing bound dominating `c`'s — the condition under
/// which a dominated-bound prune is sound.
bool covered_by(
    const Candidate& c,
    const std::vector<std::pair<const Candidate*, FlowResult>>& done) {
  for (const auto& [d, result] : done) {
    if (!result.ok || d->flow != c.flow || d->scheduler != c.scheduler ||
        d->target != c.target) {
      continue;
    }
    const ImplementationReport& r = result.report;
    if (dominates({r.latency, r.cycle_ns, r.execution_ns, 0}, c.bound)) {
      return true;
    }
  }
  return false;
}

double score_of(const Objectives& o, const ObjectiveWeights& w) {
  return w.latency * static_cast<double>(o.latency) + w.cycle_ns * o.cycle_ns +
         w.execution_ns * o.execution_ns +
         w.area * static_cast<double>(o.area_gates);
}

} // namespace

bool dominates(const Objectives& a, const Objectives& b) {
  if (a.latency > b.latency || a.cycle_ns > b.cycle_ns ||
      a.execution_ns > b.execution_ns || a.area_gates > b.area_gates) {
    return false;
  }
  return a.latency < b.latency || a.cycle_ns < b.cycle_ns ||
         a.execution_ns < b.execution_ns || a.area_gates < b.area_gates;
}

std::string ExploreResult::error_text() const {
  return hls::error_text(diagnostics);
}

Explorer::Explorer(SessionOptions options) : options_(options) {}

ExploreResult Explorer::run(const ExploreRequest& request) const {
  // Root span for the whole sweep; each evaluated grid point shows up as a
  // nested "session.run" span (run_batch workers inherit this context).
  ScopedSpan explore_span("explore", "dse");
  const auto t0 = std::chrono::steady_clock::now();
  ExploreResult out;
  out.spec_name = request.spec.name();
  out.latency_lo = request.latency_lo;
  out.latency_hi = request.latency_hi;
  out.budget = request.budget;
  out.prune = request.prune;
  out.weights = request.weights;
  out.timing = request.options.timing;
  out.flows = dedup_axis("flow", request.flows, out.diagnostics);
  out.schedulers =
      dedup_axis("scheduler", request.schedulers, out.diagnostics);
  out.targets = dedup_axis("target", request.targets, out.diagnostics);

  // --- request validation: every problem at once, Session conventions ----
  for (const auto& [what, axis] :
       {std::pair<const char*, const std::vector<std::string>*>{
            "flows", &out.flows},
        {"schedulers", &out.schedulers},
        {"targets", &out.targets}}) {
    if (axis->empty()) {
      out.diagnostics.push_back(
          {DiagSeverity::Error, "request",
           strformat("%s axis must be non-empty", what)});
    }
  }
  // Axis names are checked against the same three registries, with the
  // same message, as Session::run's validate_request (all problems
  // reported at once).
  const auto check_names = [&](const std::vector<std::string>& names,
                               const auto& registry) {
    for (const std::string& n : names) {
      if (std::optional<std::string> message = registry.unknown(n)) {
        out.diagnostics.push_back(
            {DiagSeverity::Error, "registry", *std::move(message)});
      }
    }
  };
  check_names(out.flows, FlowRegistry::global());
  check_names(out.schedulers, SchedulerRegistry::global());
  check_names(out.targets, TargetRegistry::global());
  if (const std::optional<FlowDiagnostic> bad =
          validate_latency_range(request.latency_lo, request.latency_hi)) {
    out.diagnostics.push_back(*bad);
  }
  for (const FlowDiagnostic& d : out.diagnostics) {
    if (d.severity == DiagSeverity::Error) return out;
  }

  // --- planning: grid in coverage order, §3.2 bound pruning, budget ------
  // One artefact store for every evaluation of this run — private unless
  // the caller supplied a longer-lived (e.g. process-wide serving) cache.
  const auto cache = request.cache ? request.cache
                                   : std::make_shared<ArtifactCache>();
  const std::vector<unsigned> latencies =
      coverage_order(request.latency_lo, request.latency_hi);
  std::vector<Candidate> candidates;
  candidates.reserve(out.flows.size() * out.schedulers.size() *
                     out.targets.size() * latencies.size());
  // Round-robin across (flow, scheduler, target) groups so a budget cut
  // samples every group, with each group's latencies in coverage order.
  std::vector<Target> resolved_targets;
  resolved_targets.reserve(out.targets.size());
  for (const std::string& name : out.targets) {
    resolved_targets.push_back(resolve_target(name));
  }
  const std::size_t groups =
      out.flows.size() * out.schedulers.size() * out.targets.size();
  for (const unsigned lat : latencies) {
    for (std::size_t g = 0; g < groups; ++g) {
      Candidate c;
      c.target = g % out.targets.size();
      c.scheduler = (g / out.targets.size()) % out.schedulers.size();
      c.flow = g / (out.targets.size() * out.schedulers.size());
      c.latency = lat;
      // The §3.2 bound is exact for the builtin optimized and partitioned
      // flows with no budget override: their reports price precisely what
      // plan_composite — the partition stage's own budget split and
      // price_partition — computes from the memoized critical times, before
      // any per-point stage runs.
      const std::string& flow = out.flows[c.flow];
      if (flow == "optimized" || flow == "partitioned") {
        // Pricing walks the whole grid before any evaluation; poll per
        // candidate (outside the try: the catch below is for unpriceable
        // specs and must not swallow a cancellation) so a deadline can
        // abort the planning phase too.
        request.cancel.poll();
        try {
          const Target& target = resolved_targets[c.target];
          std::shared_ptr<const KernelPartition> partition;
          if (flow == "partitioned") {
            partition = cache->partition(request.spec, request.options.narrow);
          }
          const PartitionBound b =
              plan_composite(*cache, std::move(partition), request.spec,
                             request.options.narrow, lat, 0, target.delay)
                  .bound;
          c.priced = true;
          c.bound = {b.composed_latency, target.delay.cycle_ns(b.max_deltas),
                     target.delay.execution_ns(b.composed_latency,
                                               b.max_deltas),
                     0};
        } catch (const Error&) {
          // A spec the prep stages reject (non-kernel node kinds, narrow
          // preconditions) or an infeasible kernel split cannot be priced;
          // leave the candidate unpriced and unprunable — evaluation will
          // fail it with the same staged diagnostics an uncached
          // Session::run produces, keeping the never-throws contract.
        }
      }
      candidates.push_back(c);
    }
  }

  if (request.prune) {
    // Latency-axis pruning: within one (flow, scheduler, target) series, a
    // priced candidate is skipped when another candidate of the same
    // series has an exact timing bound dominating its own (dominance is
    // transitive, so being dominated by anyone implies being dominated by
    // a kept candidate). Area is unknown (0) on both sides, so this is
    // dominance over the three timing axes — a latency point that would
    // have entered the frontier purely on area is lost, which is why every
    // prune lands in the report. Cross-series comparisons are deliberately
    // out: different targets/schedulers price area differently, and
    // pruning ripple points because cla is faster would defeat the targets
    // axis.
    for (Candidate& c : candidates) {
      if (!c.priced) continue;
      for (const Candidate& d : candidates) {
        if (&d == &c || !d.priced || d.flow != c.flow ||
            d.scheduler != c.scheduler || d.target != c.target) {
          continue;
        }
        if (dominates(d.bound, c.bound)) {
          c.keep = false;
          c.prune_reason = "dominated-bound";
          break;
        }
      }
    }
  }
  if (request.budget != 0) {
    unsigned kept = 0;
    for (Candidate& c : candidates) {
      if (!c.keep) continue;
      if (++kept > request.budget) {
        c.keep = false;
        c.prune_reason = "budget";
      }
    }
  }

  // --- evaluation: cached run_batch + rescue of unsound prunes -----------
  std::vector<const Candidate*> to_run;
  std::vector<const Candidate*> pruned_dom;  // dominated-bound prunes
  for (const Candidate& c : candidates) {
    if (c.keep) {
      to_run.push_back(&c);
    } else if (c.prune_reason == std::string("budget")) {
      out.pruned.push_back({out.flows[c.flow], out.schedulers[c.scheduler],
                            out.targets[c.target], c.latency, c.prune_reason,
                            c.bound});
    } else {
      pruned_dom.push_back(&c);
    }
  }
  SessionOptions session_options = options_;
  if (request.workers != 0) session_options.workers = request.workers;
  const Session session(session_options);
  std::vector<std::pair<const Candidate*, FlowResult>> done;
  while (!to_run.empty()) {
    // Between batch rounds is the coarse checkpoint; the fine-grained ones
    // ride each FlowRequest's token into the per-point scheduler loops (a
    // cancelled point comes back as a "cancelled" diagnostic, and the poll
    // here turns the round boundary into a hard stop).
    request.cancel.poll();
    ScopedSpan round_span("explore.round", "dse");
    if (round_span.live()) round_span.note("points=%zu", to_run.size());
    std::vector<FlowRequest> requests;
    requests.reserve(to_run.size());
    for (const Candidate* c : to_run) {
      requests.push_back({request.spec, out.flows[c->flow], c->latency, 0,
                          request.options, out.schedulers[c->scheduler],
                          out.targets[c->target], cache, request.cancel});
    }
    std::vector<FlowResult> results = session.run_batch(requests);
    // A trip *during* a round is folded into its point results by
    // Session::run; re-polling here (the cancelled state is sticky)
    // promotes it to the hard abort the Explorer contract promises, even
    // when the trip landed in the final round.
    request.cancel.poll();
    for (std::size_t i = 0; i < to_run.size(); ++i) {
      done.emplace_back(to_run[i], std::move(results[i]));
    }
    to_run.clear();
    // A dominated-bound prune is sound only while a point of its series
    // actually *delivers* the dominating bound. If the dominating
    // evaluation failed (possible with user-registered schedulers that
    // reject tight latencies), re-enqueue every pruned candidate no longer
    // timing-dominated by a successful point — so pruning never loses a
    // feasible point on the timing axes. Each round evaluates at least one
    // rescued candidate, so the loop terminates.
    for (auto it = pruned_dom.begin(); it != pruned_dom.end();) {
      if (request.budget != 0 && done.size() + to_run.size() >= request.budget) {
        break;  // the point budget is a hard cap, rescued or not
      }
      if (covered_by(**it, done)) {
        ++it;
      } else {
        to_run.push_back(*it);
        it = pruned_dom.erase(it);
      }
    }
  }
  for (const Candidate* c : pruned_dom) {
    // Leftovers are "dominated-bound" only while a successful point really
    // delivers the dominating bound; a candidate the budget cap kept the
    // rescue loop from re-running is honestly a "budget" prune.
    out.pruned.push_back({out.flows[c->flow], out.schedulers[c->scheduler],
                          out.targets[c->target], c->latency,
                          covered_by(*c, done) ? "dominated-bound" : "budget",
                          c->bound});
  }

  // --- assembly: grid-ordered points, frontier, score --------------------
  std::sort(done.begin(), done.end(), [](const auto& a, const auto& b) {
    const Candidate& ca = *a.first;
    const Candidate& cb = *b.first;
    return std::tie(ca.flow, ca.scheduler, ca.target, ca.latency) <
           std::tie(cb.flow, cb.scheduler, cb.target, cb.latency);
  });
  out.points.reserve(done.size());
  for (auto& [c, result] : done) {
    ExplorePoint p;
    p.flow = out.flows[c->flow];
    p.scheduler = out.schedulers[c->scheduler];
    p.target = out.targets[c->target];
    p.latency = c->latency;
    p.result = std::move(result);
    if (p.result.ok) {
      const ImplementationReport& r = p.result.report;
      p.objectives = {r.latency, r.cycle_ns, r.execution_ns, r.area.total()};
      p.score = score_of(p.objectives, request.weights);
    } else {
      ++out.failed;
    }
    out.points.push_back(std::move(p));
  }
  out.evaluated = out.points.size();
  // Sort the pruned report the same grid order for stable output.
  std::sort(out.pruned.begin(), out.pruned.end(),
            [](const PrunedPoint& a, const PrunedPoint& b) {
              return std::tie(a.flow, a.scheduler, a.target, a.latency) <
                     std::tie(b.flow, b.scheduler, b.target, b.latency);
            });

  for (std::size_t i = 0; i < out.points.size(); ++i) {
    if (!out.points[i].result.ok) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < out.points.size() && !dominated; ++j) {
      dominated = j != i && out.points[j].result.ok &&
                  dominates(out.points[j].objectives, out.points[i].objectives);
    }
    if (!dominated) {
      out.points[i].on_frontier = true;
      out.frontier.push_back(i);
    }
  }
  for (const std::size_t i : out.frontier) {
    if (!out.best || out.points[i].score < out.points[*out.best].score) {
      out.best = i;
    }
  }
  if (out.failed != 0) {
    out.diagnostics.push_back(
        {DiagSeverity::Warning, "explore",
         strformat("%zu of %zu evaluated points failed (see their "
                   "diagnostics); they are excluded from the frontier",
                   out.failed, out.evaluated)});
  }
  out.cache_stats = cache->stats();
  out.ok = true;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

// --- serialization -----------------------------------------------------------

namespace {

void append_axis(std::ostringstream& os, const char* name,
                 const std::vector<std::string>& values) {
  os << "\"" << name << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << json_escape(values[i]) << "\"";
  }
  os << "]";
}

void append_objectives(std::ostringstream& os, const Objectives& o,
                       bool with_area) {
  os << "\"cycle_ns\":" << json_number(o.cycle_ns)
     << ",\"execution_ns\":" << json_number(o.execution_ns);
  if (with_area) os << ",\"area_gates\":" << o.area_gates;
}

void append_counter(std::ostringstream& os, const char* name,
                    const CacheStats::Counter& c) {
  os << "\"" << name << "\":{\"hits\":" << c.hits << ",\"misses\":" << c.misses
     << "}";
}

} // namespace

std::string to_json(const ExploreResult& r) {
  std::ostringstream os;
  os << "{\"schema\":\"fraghls-explore-v1\",";
  os << "\"ok\":" << (r.ok ? "true" : "false") << ",";
  os << "\"spec\":\"" << json_escape(r.spec_name) << "\",";
  os << "\"axes\":{";
  append_axis(os, "flows", r.flows);
  os << ",";
  append_axis(os, "schedulers", r.schedulers);
  os << ",";
  append_axis(os, "targets", r.targets);
  os << ",\"latency\":[" << r.latency_lo << "," << r.latency_hi << "]},";
  os << "\"budget\":" << r.budget << ",";
  os << "\"prune\":" << (r.prune ? "true" : "false") << ",";
  os << "\"weights\":{\"latency\":" << json_number(r.weights.latency)
     << ",\"cycle_ns\":" << json_number(r.weights.cycle_ns)
     << ",\"execution_ns\":" << json_number(r.weights.execution_ns)
     << ",\"area\":" << json_number(r.weights.area) << "},";
  os << "\"evaluated\":" << r.evaluated << ",";
  os << "\"failed\":" << r.failed << ",";
  os << "\"points\":[";
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const ExplorePoint& p = r.points[i];
    if (i != 0) os << ",";
    os << "{\"flow\":\"" << json_escape(p.flow) << "\",\"scheduler\":\""
       << json_escape(p.scheduler) << "\",\"target\":\""
       << json_escape(p.target) << "\",\"latency\":" << p.latency
       << ",\"ok\":" << (p.result.ok ? "true" : "false");
    if (p.result.ok) {
      os << ",\"cycle_deltas\":" << p.result.report.cycle_deltas << ",";
      if (p.result.transform) {
        os << "\"n_bits\":" << p.result.transform->n_bits << ",";
      }
      append_objectives(os, p.objectives, /*with_area=*/true);
      os << ",\"score\":" << json_number(p.score)
         << ",\"frontier\":" << (p.on_frontier ? "true" : "false");
    } else {
      os << ",\"error\":\"" << json_escape(p.result.error_text()) << "\"";
    }
    os << "}";
  }
  os << "],\"frontier\":[";
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    if (i != 0) os << ",";
    os << r.frontier[i];
  }
  os << "]";
  if (r.best) os << ",\"best\":" << *r.best;
  os << ",\"pruned\":[";
  for (std::size_t i = 0; i < r.pruned.size(); ++i) {
    const PrunedPoint& p = r.pruned[i];
    if (i != 0) os << ",";
    os << "{\"flow\":\"" << json_escape(p.flow) << "\",\"scheduler\":\""
       << json_escape(p.scheduler) << "\",\"target\":\""
       << json_escape(p.target) << "\",\"latency\":" << p.latency
       << ",\"reason\":\"" << json_escape(p.reason) << "\"";
    if (p.reason == "dominated-bound") {
      os << ",\"bound\":{";
      append_objectives(os, p.bound, /*with_area=*/false);
      os << "}";
    }
    os << "}";
  }
  os << "],\"cache\":{";
  append_counter(os, "kernel", r.cache_stats.kernel);
  os << ",";
  append_counter(os, "narrow", r.cache_stats.narrow);
  os << ",";
  append_counter(os, "prep", r.cache_stats.prep);
  os << ",";
  append_counter(os, "transform", r.cache_stats.transform);
  os << ",";
  append_counter(os, "schedule", r.cache_stats.schedule);
  os << ",";
  append_counter(os, "datapath", r.cache_stats.datapath);
  os << ",";
  append_counter(os, "total", r.cache_stats.total());
  os << ",\"hit_rate\":" << json_number(r.cache_stats.total().hit_rate());
  os << "},\"diagnostics\":[";
  for (std::size_t i = 0; i < r.diagnostics.size(); ++i) {
    if (i != 0) os << ",";
    os << to_json(r.diagnostics[i]);
  }
  os << "]";
  // Wall-clock only on request (FlowOptions::timing), so default output is
  // byte-stable and golden-testable.
  if (r.timing) os << ",\"wall_ms\":" << json_number(r.wall_ms, 3);
  os << "}";
  return os.str();
}

std::string to_csv(const ExploreResult& r) {
  std::ostringstream os;
  os << "flow,scheduler,target,latency,ok,cycle_deltas,cycle_ns,"
        "execution_ns,area_gates,score,frontier\n";
  for (const ExplorePoint& p : r.points) {
    os << p.flow << "," << p.scheduler << "," << p.target << "," << p.latency
       << "," << (p.result.ok ? 1 : 0) << ",";
    if (p.result.ok) {
      os << p.result.report.cycle_deltas << ","
         << strformat("%.4f", p.objectives.cycle_ns) << ","
         << strformat("%.4f", p.objectives.execution_ns) << ","
         << p.objectives.area_gates << "," << strformat("%.4f", p.score) << ","
         << (p.on_frontier ? 1 : 0);
    } else {
      os << ",,,,,0";
    }
    os << "\n";
  }
  return os.str();
}

} // namespace hls
