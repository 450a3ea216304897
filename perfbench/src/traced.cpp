#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "alloc/bitlevel.hpp"
#include "alloc/oplevel.hpp"
#include "dse/explorer.hpp"
#include "flow/json.hpp"
#include "ir/eval.hpp"
#include "ir/hash.hpp"
#include "kernel/extract.hpp"
#include "kernel/narrow.hpp"
#include "parser/parser.hpp"
#include "partition/partition.hpp"
#include "rtl/area.hpp"
#include "rtl/cycle_sim.hpp"
#include "rtl/rtl_emit.hpp"
#include "sched/conventional.hpp"
#include "sched/core.hpp"
#include "spans.hpp"
#include "suites/suites.hpp"
#include "support/json.hpp"
#include "timing/critical_path.hpp"
#include "timing/target.hpp"
#include "workloads.hpp"

namespace perfbench {

using hls::Dfg;

namespace {

/// Counts taken at the same boundaries as the spans, for one workload.
struct LayerCounts {
  std::size_t partition_kernels = 0;
  std::size_t fragments = 0;
  std::size_t registers = 0;
  std::size_t vhdl_bytes = 0;
  hls::OracleCounters list, fd;
  std::size_t fd_max_fragments = 0;
  std::size_t response_bytes = 0;
  std::size_t explore_evaluated = 0, explore_pruned = 0, explore_frontier = 0;
  hls::CacheStats cache_before, cache_after;
};

void accumulate(hls::OracleCounters& into, const hls::OracleCounters& c) {
  into.candidates_evaluated += c.candidates_evaluated;
  into.candidates_probed += c.candidates_probed;
  into.candidates_rejected += c.candidates_rejected;
  into.candidates_committed += c.candidates_committed;
  into.words_repropagated += c.words_repropagated;
}

/// The compile workloads' StageCache: a pass-through that computes every
/// stage with the layer's public function under a span, memoized for one
/// request only — so each artefact is computed once, as in an uncached
/// run, and Session::run's self time is what remains of it after its stage
/// calls. Schedulers run serially (candidate_workers = 1) with an
/// OracleCounters sink.
class TracingStageCache final : public hls::StageCache {
public:
  TracingStageCache(SpanRecorder& rec, LayerCounts& counts)
      : rec_(rec), counts_(counts) {}

  std::shared_ptr<const hls::KernelArtifact> kernel(const Dfg& spec) override {
    Memo& m = memo_[&spec];
    if (!m.kernel) {
      auto a = std::make_shared<hls::KernelArtifact>();
      a->already_kernel = hls::is_kernel_form(spec);
      a->kernel = a->already_kernel
                      ? spec
                      : traced(rec_, "kernel.extract_kernel", [&] {
                          return hls::extract_kernel(spec, &a->stats);
                        });
      m.kernel = std::move(a);
    }
    return m.kernel;
  }

  std::shared_ptr<const Dfg> narrowed(const Dfg& spec) override {
    Memo& m = memo_[&spec];
    if (!m.narrowed) {
      const auto k = kernel(spec);
      m.narrowed = std::make_shared<const Dfg>(
          traced(rec_, "kernel.narrow_widths",
                 [&] { return hls::narrow_widths(k->kernel); }));
    }
    return m.narrowed;
  }

  std::shared_ptr<const hls::TransformResult> transform(
      const Dfg& spec, bool narrow, unsigned latency, unsigned n_bits_override,
      const hls::DelayModel& delay, const hls::CancelToken&) override {
    Memo& m = memo_[&spec];
    if (!m.transform) {
      const auto p = prep(spec, narrow);
      const unsigned n_bits =
          n_bits_override != 0
              ? n_bits_override
              : hls::estimate_cycle_budget(p->critical, latency, delay);
      m.transform = std::make_shared<const hls::TransformResult>(
          traced(rec_, "frag.transform_prepared",
                 [&] { return hls::transform_prepared(*p, latency, n_bits); }));
      counts_.fragments += m.transform->adds.size();
    }
    return m.transform;
  }

  std::shared_ptr<const hls::FragSchedule> fragment_schedule(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const hls::DelayModel& delay,
      const hls::CancelToken& cancel) override {
    Memo& m = memo_[&spec];
    if (!m.schedule) {
      const auto t =
          transform(spec, narrow, latency, n_bits_override, delay, cancel);
      hls::OracleCounters counters;
      hls::SchedulerOptions opts;
      opts.counters = &counters;
      opts.candidate_workers = 1;
      const bool fd = scheduler == "forcedirected";
      m.schedule = std::make_shared<const hls::FragSchedule>(
          traced(rec_, fd ? "sched.forcedirected" : "sched.list",
                 [&] { return hls::run_scheduler(scheduler, *t, opts); }));
      accumulate(fd ? counts_.fd : counts_.list, counters);
      if (fd) {
        counts_.fd_max_fragments =
            std::max(counts_.fd_max_fragments, t->adds.size());
      }
    }
    return m.schedule;
  }

  std::shared_ptr<const hls::Datapath> bitlevel_datapath(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const hls::DelayModel& delay,
      const hls::CancelToken& cancel) override {
    Memo& m = memo_[&spec];
    if (!m.datapath) {
      const auto t =
          transform(spec, narrow, latency, n_bits_override, delay, cancel);
      const auto s = fragment_schedule(scheduler, spec, narrow, latency,
                                       n_bits_override, delay, cancel);
      m.datapath = std::make_shared<const hls::Datapath>(
          traced(rec_, "alloc.allocate_bitlevel",
                 [&] { return hls::allocate_bitlevel(*t, *s); }));
      counts_.registers += m.datapath->regs.size();
    }
    return m.datapath;
  }

  std::shared_ptr<const hls::KernelPartition> partition(const Dfg& spec,
                                                        bool narrow) override {
    Memo& m = memo_[&spec];
    if (!m.partition) {
      const Dfg& base = narrow ? *narrowed(spec) : kernel(spec)->kernel;
      m.partition = std::make_shared<const hls::KernelPartition>(
          traced(rec_, "partition.partition_kernel",
                 [&] { return hls::partition_kernel(base); }));
      counts_.partition_kernels += m.partition->kernels.size();
    }
    return m.partition;
  }

  unsigned critical_time(const Dfg& spec, bool narrow) override {
    return prep(spec, narrow)->critical;
  }

private:
  struct Memo {
    std::shared_ptr<const hls::KernelArtifact> kernel;
    std::shared_ptr<const Dfg> narrowed;
    std::shared_ptr<const hls::KernelPartition> partition;
    std::shared_ptr<const hls::TransformPrep> prep;
    std::shared_ptr<const hls::TransformResult> transform;
    std::shared_ptr<const hls::FragSchedule> schedule;
    std::shared_ptr<const hls::Datapath> datapath;
  };

  std::shared_ptr<const hls::TransformPrep> prep(const Dfg& spec, bool narrow) {
    Memo& m = memo_[&spec];
    if (!m.prep) {
      const Dfg& base = narrow ? *narrowed(spec) : kernel(spec)->kernel;
      m.prep = std::make_shared<const hls::TransformPrep>(
          traced(rec_, "frag.prepare_transform",
                 [&] { return hls::prepare_transform(base); }));
    }
    return m.prep;
  }

  SpanRecorder& rec_;
  LayerCounts& counts_;
  // Keyed by address: within one Session::run every spec the flow passes
  // (the request's, the partition's sub-kernels) outlives the request.
  std::map<const Dfg*, Memo> memo_;
};

/// The serve mirror's StageCache: forwards every getter to the
/// ArtifactCache under a span, classifying it as a hit or a miss from the
/// delta of stats() across the call.
class ForwardingCache final : public hls::StageCache {
  // Defined first: the getters below deduce their return type through it.
  template <typename F>
  auto forward(const char* name, F&& f) {
    const std::uint64_t misses = cache_->stats().total().misses;
    std::size_t index = 0;
    auto out = [&] {
      const SpanScope scope(rec_, name);
      index = scope.index();
      return f();
    }();
    rec_.spans()[index].hit = cache_->stats().total().misses == misses ? 1 : 0;
    return out;
  }

public:
  ForwardingCache(SpanRecorder& rec, std::shared_ptr<hls::ArtifactCache> cache)
      : rec_(rec), cache_(std::move(cache)) {}

  std::shared_ptr<const hls::KernelArtifact> kernel(const Dfg& spec) override {
    return forward("dse.kernel", [&] { return cache_->kernel(spec); });
  }
  std::shared_ptr<const Dfg> narrowed(const Dfg& spec) override {
    return forward("dse.narrowed", [&] { return cache_->narrowed(spec); });
  }
  std::shared_ptr<const hls::TransformResult> transform(
      const Dfg& spec, bool narrow, unsigned latency, unsigned n_bits_override,
      const hls::DelayModel& delay, const hls::CancelToken& cancel) override {
    return forward("dse.transform", [&] {
      return cache_->transform(spec, narrow, latency, n_bits_override, delay,
                               cancel);
    });
  }
  std::shared_ptr<const hls::FragSchedule> fragment_schedule(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const hls::DelayModel& delay,
      const hls::CancelToken& cancel) override {
    return forward("dse.fragment_schedule", [&] {
      return cache_->fragment_schedule(scheduler, spec, narrow, latency,
                                       n_bits_override, delay, cancel);
    });
  }
  std::shared_ptr<const hls::Datapath> bitlevel_datapath(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const hls::DelayModel& delay,
      const hls::CancelToken& cancel) override {
    return forward("dse.bitlevel_datapath", [&] {
      return cache_->bitlevel_datapath(scheduler, spec, narrow, latency,
                                       n_bits_override, delay, cancel);
    });
  }
  std::shared_ptr<const hls::KernelPartition> partition(const Dfg& spec,
                                                        bool narrow) override {
    return forward("dse.partition",
                   [&] { return cache_->partition(spec, narrow); });
  }
  unsigned critical_time(const Dfg& spec, bool narrow) override {
    return forward("dse.critical_time",
                   [&] { return cache_->critical_time(spec, narrow); });
  }

private:
  SpanRecorder& rec_;
  std::shared_ptr<hls::ArtifactCache> cache_;
};

struct WorkloadTrace {
  std::string name;
  LayerCounts counts;
  std::size_t requests = 0;
  std::size_t failed = 0;
  double untraced_rate = 0;  ///< requests per busy second, untraced pass
  std::vector<std::string> messages;
};

double busy_rate(const Measurement& m) {
  double ms = 0;
  for (const double x : m.wall_ms) ms += x;
  return static_cast<double>(m.attempted) / (ms / 1000.0);
}

/// One traced pass of compile-cold / fd-reject.
void trace_compile(SpanRecorder& rec, const CompileRunner& runner,
                   WorkloadTrace& wt) {
  const CompileWorkload& w = runner.workload();
  const hls::Session session(hls::SessionOptions{.workers = 1});
  LayerCounts& counts = wt.counts;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const CompileJob& job = w.jobs[i];
    const SpecSource& src = w.specs[job.spec];
    rec.set_request(i + 1);
    hls::FlowRequest req;
    hls::FlowResult result;
    Fingerprint fp;
    {
      const SpanScope request(rec, "request");
      req.spec = src.dsl.empty()
                     ? *src.graph
                     : traced(rec, "parser.parse_spec",
                              [&] { return hls::parse_spec(src.dsl); });
      if (job.flow == "original") {
        // The conventional flow has no stage hook: its two stage calls are
        // made directly, and priced the way its report is.
        const hls::Target target = hls::resolve_target(job.target);
        const hls::OpSchedule s =
            traced(rec, "sched.schedule_conventional", [&] {
              hls::ConventionalOptions opts;
              opts.delay = target.delay;
              return hls::schedule_conventional(req.spec, job.latency, opts);
            });
        const hls::Datapath dp = traced(rec, "alloc.allocate_oplevel", [&] {
          return hls::allocate_oplevel(req.spec, s);
        });
        fp.ok = true;
        fp.execution_ns =
            target.delay.execution_ns(job.latency, s.cycle_deltas);
        fp.area_gates = hls::area_of(dp, target.gates).total();
      } else {
        req.flow = job.flow;
        req.latency = job.latency;
        req.scheduler = job.scheduler;
        req.target = job.target;
        req.options.narrow = job.narrow;
        req.cache = std::make_shared<TracingStageCache>(rec, counts);
        result = traced(rec, "flow.session_run",
                        [&] { return session.run(req); });
        std::size_t vhdl_bytes = 0;
        if (job.emit_rtl && result.ok && result.transform && result.schedule) {
          vhdl_bytes = traced(rec, "rtl.emit_rtl_vhdl", [&] {
                         return hls::emit_rtl_vhdl(*result.transform,
                                                   *result.schedule,
                                                   result.report.datapath);
                       }).size();
          counts.vhdl_bytes += vhdl_bytes;
        }
        fp = fingerprint_of(result, vhdl_bytes);
      }
    }
    ++wt.requests;
    std::string problem;
    if (!(fp == runner.fingerprints()[i])) {
      problem = "traced result differs from the untraced one";
    } else if (result.transform && result.schedule) {
      // The simulate-vs-evaluate check of this design, outside the request.
      const SpanScope check(rec, "check");
      hls::InputValues in;
      Rng rng(derive_seed(i, 0x7ACE));
      for (const hls::NodeId id : req.spec.inputs()) {
        in[req.spec.node(id).name] = rng.next();
      }
      const hls::OutputValues got = traced(rec, "rtl.simulate_datapath", [&] {
        return hls::simulate_datapath(*result.transform, *result.schedule,
                                      result.report.datapath, in);
      });
      if (got != hls::evaluate(req.spec, in)) {
        problem = "simulate_datapath differs from evaluate";
      }
    }
    if (!problem.empty()) {
      ++wt.failed;
      wt.messages.push_back(job.label(w.specs) + ": " + problem);
    }
  }
}

Dfg resolve_suite(const std::string& name) {
  for (const hls::SuiteEntry& s : hls::registry_suites()) {
    if (s.name == name) return s.build();
  }
  throw hls::Error("unknown suite " + name);
}

/// One traced pass of serve-dse. The runner's server handles each line: the
/// request span holds serve.handle_line alone, so the request time is the
/// served request's. A mirror server that has seen exactly the same
/// requests — so its cache is in the same state — then replays the line's
/// parts through the public API under a separate "replay" span: parse_json,
/// the spec parse, digest_of, the cache getters (through ForwardingCache)
/// under Session::run or Explorer::run, and to_json. What remains of
/// handle_line after the replayed parts is serve.overhead_ms.
void trace_serve(SpanRecorder& rec, ServeRunner& runner, hls::Server& mirror,
                 std::size_t churn_pass, WorkloadTrace& wt) {
  const ServeWorkload& w = runner.workload();
  const std::vector<ServeRequest> churn = churn_requests(w, churn_pass);
  const std::shared_ptr<hls::ArtifactCache> cache = mirror.cache();
  const hls::Session session(hls::SessionOptions{.workers = 1});
  LayerCounts& counts = wt.counts;
  counts.cache_before = cache->stats();
  std::size_t c = 0;
  std::uint64_t id = 0;
  for (const std::size_t slot : w.pass) {
    const ServeRequest& r =
        slot == ServeWorkload::kChurnSlot ? churn[c++] : w.hot[slot];
    rec.set_request(++id);
    std::string response, replayed;
    const auto serve = [&] {
      const SpanScope request(rec, "request");
      response = traced(rec, "serve.handle_line",
                        [&] { return runner.server().handle_line(r.line); });
    };
    // Whichever of the two goes second finds the processor's caches warm
    // with the line's work, so they alternate.
    if (id % 2 == 1) serve();
    {
      const SpanScope replay(rec, "replay");
      traced(rec, "serve.parse_json", [&] { return hls::parse_json(r.line); });
      const Dfg spec =
          r.spec.suite.empty()
              ? traced(rec, "parser.parse_spec",
                       [&] { return hls::parse_spec(r.spec.dsl); })
              : traced(rec, "serve.resolve_suite",
                       [&] { return resolve_suite(r.spec.suite); });
      traced(rec, "dse.digest_of", [&] { return hls::digest_of(spec); });
      if (r.kind == "explore") {
        hls::ExploreRequest er = explore_request(r, spec);
        er.cache = cache;
        const hls::ExploreResult res = traced(rec, "dse.explore", [&] {
          return hls::Explorer(hls::SessionOptions{.workers = 1}).run(er);
        });
        counts.explore_evaluated += res.evaluated;
        counts.explore_pruned += res.pruned.size();
        counts.explore_frontier += res.frontier.size();
        replayed =
            traced(rec, "serve.to_json", [&] { return hls::to_json(res); });
      } else {
        std::vector<hls::FlowResult> runs;
        for (hls::FlowRequest& fr : point_requests(r, spec)) {
          fr.cache = std::make_shared<ForwardingCache>(rec, cache);
          runs.push_back(
              traced(rec, "flow.session_run", [&] { return session.run(fr); }));
        }
        replayed = traced(rec, "serve.to_json", [&] {
          return r.kind == "sweep" ? hls::to_json(runs)
                                   : hls::to_json(runs.front());
        });
      }
    }
    if (id % 2 == 0) serve();
    ++wt.requests;
    counts.response_bytes += response.size();
    if (!response_ok(response) ||
        served_result(response, r.kind) != canonical_result(replayed, r.kind)) {
      ++wt.failed;
      wt.messages.push_back(r.line.substr(0, 120) +
                            ": handle_line differs from its replayed parts");
    }
  }
  counts.cache_after = cache->stats();
}

/// synth-mesh8x8 at L=8 scheduled force-directed with the serial path and
/// with the candidate-worker pool (candidate_workers 1 vs 0), interleaved;
/// medians in ms.
std::pair<double, double> pool_pair(SpanRecorder& rec) {
  Dfg spec;
  for (const hls::SuiteEntry& s : hls::synthetic_suites()) {
    if (s.name == "synth-mesh8x8") spec = s.build();
  }
  const hls::TransformResult t = hls::transform_spec(spec, 8);
  std::vector<double> serial, pool;
  for (int rep = 0; rep < 5; ++rep) {
    for (const unsigned workers : {1u, 0u}) {
      hls::SchedulerOptions opts;
      opts.candidate_workers = workers;
      const SpanScope span(rec,
                           workers == 1 ? "sched.fd_serial" : "sched.fd_pool");
      const Clock::time_point t0 = Clock::now();
      hls::run_scheduler("forcedirected", t, opts);
      (workers == 1 ? serial : pool).push_back(ms_between(t0, Clock::now()));
    }
  }
  return {median(serial), median(pool)};
}

/// Per-workload sums over the recorded spans.
struct SpanTable {
  std::map<std::string, double> self_ms;       ///< by span name
  std::map<std::string, std::size_t> calls;    ///< by span name
  std::map<std::string, double> layer_ms;      ///< by layer, in requests
  std::map<std::string, std::size_t> layer_calls;  ///< by layer, in requests
  double hit_ms = 0, miss_ms = 0;
  double request_ms = 0;  ///< request spans' total duration
  /// Self time of the layers' stage functions: every layer span of a
  /// request or its replay except the flow's and the server's own time
  /// (Session::run and handle_line minus their parts) and digest_of, which
  /// the replay adds. A stage that escapes its span lowers it.
  double covered_ms = 0;
  double serve_overhead_ms = 0;  ///< handle_line minus its replayed parts
  std::size_t requests = 0;
};

SpanTable tabulate(const SpanRecorder& rec, const std::vector<double>& self,
                   const std::string& workload) {
  SpanTable t;
  const std::vector<Span>& spans = rec.spans();
  double handle_ms = 0, replayed_ms = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.workload != workload) continue;
    if (s.name == "request") {
      t.request_ms += s.ms();
      ++t.requests;
      continue;
    }
    if (s.name == "replay" || s.name == "check") continue;
    t.self_ms[s.name] += self[i];
    ++t.calls[s.name];
    if (s.hit == 1) t.hit_ms += s.ms();
    if (s.hit == 0) t.miss_ms += s.ms();
    std::size_t root = i;
    while (spans[root].parent >= 0) {
      root = static_cast<std::size_t>(spans[root].parent);
    }
    const bool in_replay = spans[root].name == "replay";
    if (!in_replay && spans[root].name != "request") continue;  // checks
    if (s.name == "serve.handle_line") {
      // The served request itself: its layer time is the overhead below.
      handle_ms += s.ms();
      continue;
    }
    if (s.name == "dse.digest_of") continue;  // the replay's extra call
    if (in_replay) replayed_ms += self[i];
    t.layer_ms[s.layer()] += self[i];
    ++t.layer_calls[s.layer()];
    if (s.name != "flow.session_run") t.covered_ms += self[i];
  }
  if (handle_ms > 0) {
    t.serve_overhead_ms = handle_ms - replayed_ms;
    t.layer_ms["serve"] += t.serve_overhead_ms;
    t.layer_calls["serve"] += t.calls["serve.handle_line"];
  }
  return t;
}

/// Sum of `key` in `m`, 0 when absent.
template <typename V>
double value_of(const std::map<std::string, V>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : static_cast<double>(it->second);
}

double share(double part, double whole) {
  return whole == 0 ? 0 : part / whole;
}

double hit_rate(const hls::CacheStats::Counter& before,
                const hls::CacheStats::Counter& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  return share(hits, hits + static_cast<double>(after.misses - before.misses));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Every per-layer metric, each taken on the workload where it should move
/// (README.md, "Per-layer metrics").
std::vector<Metric> layer_metrics(
    const std::map<std::string, SpanTable>& tables,
    const std::map<std::string, WorkloadTrace>& traces, double fd_serial_ms,
    double fd_pool_ms) {
  const SpanTable& cc = tables.at("compile-cold");
  const SpanTable& fd = tables.at("fd-reject");
  const SpanTable& sd = tables.at("serve-dse");
  const LayerCounts& ccc = traces.at("compile-cold").counts;
  const LayerCounts& fdc = traces.at("fd-reject").counts;
  const LayerCounts& sdc = traces.at("serve-dse").counts;
  const auto n = [](auto v) { return static_cast<double>(v); };
  std::size_t fd_max = 0;
  for (const auto& [name, wt] : traces) {
    fd_max = std::max(fd_max, wt.counts.fd_max_fragments);
  }
  const hls::CacheStats& cb = sdc.cache_before;
  const hls::CacheStats& ca = sdc.cache_after;
  std::vector<Metric> m = {
      {"parser.parse_ms", value_of(sd.self_ms, "parser.parse_spec"), "ms"},
      {"parser.calls", value_of(sd.layer_calls, "parser"), "count"},
      {"kernel.extract_ms", value_of(cc.self_ms, "kernel.extract_kernel"),
       "ms"},
      {"kernel.narrow_ms", value_of(cc.self_ms, "kernel.narrow_widths"), "ms"},
      {"kernel.calls", value_of(cc.layer_calls, "kernel"), "count"},
      {"partition.partition_ms",
       value_of(cc.self_ms, "partition.partition_kernel"), "ms"},
      {"partition.kernels", n(ccc.partition_kernels), "count"},
      {"partition.calls", value_of(cc.layer_calls, "partition"), "count"},
      {"frag.prepare_ms", value_of(cc.self_ms, "frag.prepare_transform"), "ms"},
      {"frag.transform_ms", value_of(cc.self_ms, "frag.transform_prepared"),
       "ms"},
      {"frag.fragments", n(ccc.fragments), "count"},
      {"frag.calls", value_of(cc.layer_calls, "frag"), "count"},
      {"sched.list_ms", value_of(cc.self_ms, "sched.list"), "ms"},
      {"sched.list.probes", n(ccc.list.candidates_probed), "count"},
      {"sched.list.reject_share",
       share(n(ccc.list.candidates_rejected), n(ccc.list.candidates_probed)),
       "ratio"},
      {"sched.fd_ms", value_of(fd.self_ms, "sched.forcedirected"), "ms"},
      {"sched.fd.evaluated", n(fdc.fd.candidates_evaluated), "count"},
      {"sched.fd.probes", n(fdc.fd.candidates_probed), "count"},
      {"sched.fd.rejected", n(fdc.fd.candidates_rejected), "count"},
      {"sched.fd.reject_share",
       share(n(fdc.fd.candidates_rejected), n(fdc.fd.candidates_probed)),
       "ratio"},
      {"sched.fd.words_repropagated", n(fdc.fd.words_repropagated), "count"},
      {"sched.fd.max_fragments", n(fd_max), "count"},
      {"sched.conventional_ms",
       value_of(cc.self_ms, "sched.schedule_conventional"), "ms"},
      {"sched.fd_serial_ms", fd_serial_ms, "ms"},
      {"sched.fd_pool_ms", fd_pool_ms, "ms"},
      {"sched.calls", value_of(cc.layer_calls, "sched"), "count"},
      {"alloc.bitlevel_ms", value_of(cc.self_ms, "alloc.allocate_bitlevel"),
       "ms"},
      {"alloc.oplevel_ms", value_of(cc.self_ms, "alloc.allocate_oplevel"),
       "ms"},
      {"alloc.registers", n(ccc.registers), "count"},
      {"alloc.calls", value_of(cc.layer_calls, "alloc"), "count"},
      {"rtl.emit_ms", value_of(cc.self_ms, "rtl.emit_rtl_vhdl"), "ms"},
      {"rtl.vhdl_kb", n(ccc.vhdl_bytes) / 1024.0, "KiB"},
      {"rtl.simulate_ms", value_of(cc.self_ms, "rtl.simulate_datapath"), "ms"},
      {"rtl.calls", value_of(cc.layer_calls, "rtl"), "count"},
      {"flow.overhead_ms", value_of(cc.self_ms, "flow.session_run"), "ms"},
      {"flow.calls", value_of(cc.calls, "flow.session_run"), "count"},
      {"dse.digest_ms", value_of(sd.self_ms, "dse.digest_of"), "ms"},
      {"dse.hit_ms", sd.hit_ms, "ms"},
      {"dse.miss_ms", sd.miss_ms, "ms"},
      {"dse.hit_rate.kernel", hit_rate(cb.kernel, ca.kernel), "ratio"},
      {"dse.hit_rate.prep", hit_rate(cb.prep, ca.prep), "ratio"},
      {"dse.hit_rate.transform", hit_rate(cb.transform, ca.transform), "ratio"},
      {"dse.hit_rate.schedule", hit_rate(cb.schedule, ca.schedule), "ratio"},
      {"dse.hit_rate.datapath", hit_rate(cb.datapath, ca.datapath), "ratio"},
      {"dse.evictions", n(ca.total().evictions - cb.total().evictions),
       "count"},
      {"dse.resident_mb", n(ca.total().resident_bytes) / (1024.0 * 1024.0),
       "MB"},
      {"dse.explore_ms", value_of(sd.self_ms, "dse.explore"), "ms"},
      {"dse.explore.evaluated", n(sdc.explore_evaluated), "count"},
      {"dse.explore.pruned", n(sdc.explore_pruned), "count"},
      {"dse.explore.frontier_share",
       share(n(sdc.explore_frontier), n(sdc.explore_evaluated)), "ratio"},
      {"dse.calls", value_of(sd.layer_calls, "dse"), "count"},
      {"serve.handle_ms", value_of(sd.self_ms, "serve.handle_line"), "ms"},
      {"serve.overhead_ms", sd.serve_overhead_ms, "ms"},
      {"serve.json_parse_ms", value_of(sd.self_ms, "serve.parse_json"), "ms"},
      {"serve.render_ms", value_of(sd.self_ms, "serve.to_json"), "ms"},
      {"serve.response_kb", n(sdc.response_bytes) / 1024.0, "KiB"},
      {"serve.calls", value_of(sd.calls, "serve.handle_line"), "count"},
  };
  for (const auto& [name, wt] : traces) {
    const SpanTable& t = tables.at(name);
    const double traced_rate = n(t.requests) / (t.request_ms / 1000.0);
    m.push_back({"trace.overhead." + name, traced_rate / wt.untraced_rate,
                 "ratio"});
    m.push_back({"trace.coverage." + name, share(t.covered_ms, t.request_ms),
                 "ratio"});
  }
  return m;
}

/// Prints each workload's per-layer self-time table and returns the same
/// tables as the trace file's "layers" object.
std::string print_layer_tables(
    const std::map<std::string, SpanTable>& tables,
    const std::map<std::string, WorkloadTrace>& traces) {
  std::string json;
  for (const auto& [name, wt] : traces) {
    const SpanTable& t = tables.at(name);
    for (const std::string& msg : wt.messages) {
      std::printf("CHECK FAILED [%s]: %s\n", name.c_str(), msg.c_str());
    }
    std::printf("%s: %zu traced requests, %.3f ms in requests, stage "
                "coverage %.3f, fd max fragments %zu\n  %-10s %12s %8s %8s\n",
                name.c_str(), t.requests, t.request_ms,
                share(t.covered_ms, t.request_ms), wt.counts.fd_max_fragments,
                "layer", "self_ms", "share", "calls");
    json += (json.empty() ? "\"" : ",\"") + name + "\":{\"request_ms\":" +
            std::to_string(t.request_ms) + ",\"fd_max_fragments\":" +
            std::to_string(wt.counts.fd_max_fragments);
    for (const auto& [layer, ms] : t.layer_ms) {
      const std::size_t calls = t.layer_calls.at(layer);
      std::printf("  %-10s %12.3f %7.1f%% %8zu\n", layer.c_str(), ms,
                  100.0 * ms / t.request_ms, calls);
      json += ",\"" + layer + "\":{\"self_ms\":" + std::to_string(ms) +
              ",\"calls\":" + std::to_string(calls) + "}";
    }
    json += "}";
  }
  return "{" + json + "}";
}

} // namespace

int run_traced(const std::string& workload, std::uint64_t seed) {
  const double load_at_start = loadavg_1m();
  SpanRecorder rec;
  std::map<std::string, WorkloadTrace> traces;
  for (const char* name : {"compile-cold", "fd-reject"}) {
    CompileRunner runner(std::string(name) == "fd-reject");
    runner.setup(seed);
    WorkloadTrace& wt = traces[name];
    wt.name = name;
    wt.untraced_rate = busy_rate(runner.one_pass());
    rec.set_workload(name);
    trace_compile(rec, runner, wt);
  }
  {
    ServeRunner runner;
    runner.setup(seed);
    hls::Server mirror(serve_options(kCacheMaxBytes));
    ServeRunner::fill(mirror, runner.workload(), nullptr);
    ServeRunner::send_pass(mirror, runner.workload(), 0);  // its warm-up
    // Enough passes of churn to fill the bounded cache, so the traced pass
    // sees what most timed passes do: the LRU evicting old churn.
    for (int i = 0; i < 5; ++i) {
      const std::size_t pass = runner.take_churn_pass();
      ServeRunner::send_pass(runner.server(), runner.workload(), pass);
      ServeRunner::send_pass(mirror, runner.workload(), pass);
    }
    WorkloadTrace& wt = traces["serve-dse"];
    wt.name = "serve-dse";
    const std::size_t reference_pass = runner.next_churn_pass();
    wt.untraced_rate = busy_rate(runner.one_pass());
    ServeRunner::send_pass(mirror, runner.workload(), reference_pass);
    rec.set_workload("serve-dse");
    trace_serve(rec, runner, mirror, runner.take_churn_pass(), wt);
  }
  rec.set_workload("pool-pair");
  rec.set_request(0);
  const auto [fd_serial_ms, fd_pool_ms] = pool_pair(rec);

  const std::vector<double> self = rec.self_ms();
  std::map<std::string, SpanTable> tables;
  std::size_t attempted = 0, failed = 0, fd_max = 0;
  for (const auto& [name, wt] : traces) {
    tables[name] = tabulate(rec, self, name);
    attempted += wt.requests;
    failed += wt.failed;
    fd_max = std::max(fd_max, wt.counts.fd_max_fragments);
  }
  const std::string layers = print_layer_tables(tables, traces);
  if (fd_max >= kPoolFloor) {
    std::fprintf(stderr, "perfbench: a force-directed request reached the "
                         "%zu-fragment candidate-pool floor\n", kPoolFloor);
    return 3;
  }

  const std::string other =
      "{\"seed\":" + std::to_string(seed) + ",\"run\":\"" + workload +
      "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"loadavg_1m\":" + std::to_string(load_at_start) +
      ",\"build\":\"" PERFBENCH_BUILD_TYPE "+NDEBUG\",\"layers\":" + layers +
      "}";
  const std::filesystem::path dir = ".perfbench_out";
  std::filesystem::create_directories(dir);
  const std::filesystem::path file =
      dir / ("trace-" + workload + "-seed" + std::to_string(seed) + ".json");
  std::ofstream(file) << rec.chrome_json(other);
  std::printf("trace: %zu spans -> %s\n", rec.spans().size(), file.c_str());

  Result result;
  for (const Metric& m :
       layer_metrics(tables, traces, fd_serial_ms, fd_pool_ms)) {
    result.add(m.name, m.value, m.unit);
  }
  result.print(attempted, failed);
  return 0;
}

} // namespace perfbench
