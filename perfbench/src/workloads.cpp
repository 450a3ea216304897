#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "common.hpp"
#include "flow/json.hpp"
#include "ir/eval.hpp"
#include "rtl/cycle_sim.hpp"
#include "rtl/rtl_emit.hpp"
#include "support/json.hpp"

namespace perfbench {

using hls::FlowRequest;
using hls::FlowResult;

namespace {

/// Distinct designs and their `original` counterparts at the same
/// (spec, latency, target): the paper's headline ratios.
class SpeedupBook {
public:
  void add_design(const std::string& spec, const std::string& flow,
                  const std::string& target, unsigned latency, bool narrow,
                  const hls::ImplementationReport& r) {
    designs_[{spec, flow, target, latency, narrow}] = {r.execution_ns,
                                                        r.area.total()};
  }
  /// Prices every design against its original, running the original flow
  /// uncached where the workload did not already produce it.
  void finish(const std::map<std::string, const SpecSource*>& specs,
              const hls::Session& session, CheckReport& rep) {
    std::map<std::tuple<std::string, std::string, unsigned>,
             std::pair<double, unsigned>> originals;
    for (const auto& [key, v] : designs_) {
      if (std::get<1>(key) == "original") {
        originals[{std::get<0>(key), std::get<2>(key), std::get<3>(key)}] = v;
      }
    }
    std::vector<double> speedups, areas;
    for (const auto& [key, v] : designs_) {
      const auto& [spec, flow, target, latency, narrow] = key;
      if (flow == "original") continue;
      auto it = originals.find({spec, target, latency});
      if (it == originals.end()) {
        FlowRequest req;
        req.spec = specs.at(spec)->build();
        req.flow = "original";
        req.latency = latency;
        req.target = target;
        const FlowResult o = session.run(req);
        if (!o.ok) continue;
        it = originals
                 .emplace(std::make_tuple(spec, target, latency),
                          std::make_pair(o.report.execution_ns,
                                         o.report.area.total()))
                 .first;
      }
      speedups.push_back(it->second.first / v.first);
      areas.push_back(static_cast<double>(v.second) / it->second.second);
    }
    rep.exec_speedup_geomean = geomean(speedups);
    rep.area_ratio_geomean = geomean(areas);
    rep.speedup_designs = speedups.size();
  }

private:
  std::map<std::tuple<std::string, std::string, std::string, unsigned, bool>,
           std::pair<double, unsigned>> designs_;
};

/// simulate_datapath (schedule + binding + register plan) against evaluate
/// of the specification on seeded input vectors; empty when they agree.
std::string simulate_check(const hls::Dfg& spec, const FlowResult& r,
                           std::uint64_t seed) {
  Rng rng(seed);
  try {
    for (int v = 0; v < 4; ++v) {
      hls::InputValues in;
      for (const hls::NodeId id : spec.inputs()) {
        in[spec.node(id).name] = rng.next();
      }
      if (hls::simulate_datapath(*r.transform, *r.schedule, r.report.datapath,
                                 in) != hls::evaluate(spec, in)) {
        return "simulate_datapath differs from evaluate on vector " +
               std::to_string(v);
      }
    }
  } catch (const std::exception& e) {
    return std::string("simulate_datapath failed: ") + e.what();
  }
  return {};
}

/// The first error diagnostic of a failed result, for the check report.
std::string first_error(const FlowResult& r) {
  for (const hls::FlowDiagnostic& d : r.diagnostics) {
    if (d.severity == hls::DiagSeverity::Error) {
      return d.stage + ": " + d.message;
    }
  }
  return "no diagnostic";
}

/// `v` re-rendered, minus the explore envelope's shared cache counters.
std::string canonical(const hls::JsonValue& v, bool strip_cache) {
  if (!strip_cache || !v.is_object()) return hls::write_json(v);
  std::vector<hls::JsonValue::Member> kept;
  for (const hls::JsonValue::Member& m : v.members()) {
    if (m.first != "cache") kept.push_back(m);
  }
  return hls::write_json(hls::JsonValue::object(std::move(kept)));
}

/// Computes a serve request without the server (fresh and uncached) in the
/// canonical form; books its designs at the latency each was requested for
/// (the partitioned report carries the composed one).
std::string fresh_compute(const ServeRequest& r, SpeedupBook& book) {
  const hls::Dfg spec = r.spec.build();
  if (r.kind == "explore") {
    const hls::Explorer explorer(hls::SessionOptions{.workers = 1});
    const hls::ExploreResult res = explorer.run(explore_request(r, spec));
    for (const hls::ExplorePoint& p : res.points) {
      if (p.result.ok) {
        book.add_design(r.spec.name, p.flow, p.target, p.latency, false,
                        p.result.report);
      }
    }
    return canonical_result(hls::to_json(res), r.kind);
  }
  const hls::Session session(hls::SessionOptions{.workers = 1});
  std::vector<FlowResult> runs;
  for (const FlowRequest& fr : point_requests(r, spec)) {
    runs.push_back(session.run(fr));
    if (runs.back().ok) {
      book.add_design(r.spec.name, fr.flow, fr.target, fr.latency, false,
                      runs.back().report);
    }
  }
  return canonical_result(
      r.kind == "sweep" ? hls::to_json(runs) : hls::to_json(runs.front()),
      r.kind);
}

} // namespace

// --- compile-cold / fd-reject ------------------------------------------------

CompileOutput run_compile(const hls::Session& session, const SpecSource& spec,
                          const CompileJob& job) {
  FlowRequest req;
  req.spec = spec.build();
  req.flow = job.flow;
  req.latency = job.latency;
  req.scheduler = job.scheduler;
  req.target = job.target;
  req.options.narrow = job.narrow;
  CompileOutput out;
  out.result = session.run(req);
  const FlowResult& r = out.result;
  if (job.emit_rtl && r.ok && r.transform && r.schedule) {
    out.vhdl_bytes =
        hls::emit_rtl_vhdl(*r.transform, *r.schedule, r.report.datapath).size();
  }
  return out;
}

Fingerprint fingerprint_of(const FlowResult& r, std::size_t vhdl_bytes) {
  Fingerprint f;
  f.ok = r.ok;
  if (!r.ok) return f;
  f.execution_ns = r.report.execution_ns;
  f.area_gates = r.report.area.total();
  f.fragments = r.transform ? r.transform->adds.size() : 0;
  f.vhdl_bytes = vhdl_bytes;
  return f;
}

void CompileRunner::setup(std::uint64_t seed) {
  w_ = fd_reject_ ? make_fd_reject(seed) : make_compile_cold(seed);
  // The warm-up pass: every job once, untimed. Its results are what every
  // timed run of the job must reproduce.
  prints_.clear();
  for (const CompileJob& job : w_.jobs) {
    const CompileOutput out = run_compile(session_, w_.specs[job.spec], job);
    prints_.push_back(fingerprint_of(out.result, out.vhdl_bytes));
  }
  mismatches_.assign(w_.jobs.size(), 0);
  passes_ = 0;
}

void CompileRunner::run_pass(Measurement& m) {
  ++passes_;
  std::size_t ok = 0;
  const Clock::time_point pass0 = Clock::now();
  for (std::size_t i = 0; i < w_.jobs.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    const CompileOutput out = run_compile(session_, w_.specs[w_.jobs[i].spec],
                                          w_.jobs[i]);
    m.latency_ms.push_back(process_cpu_ms() - cpu0);
    m.wall_ms.push_back(ms_between(t0, Clock::now()));
    ++m.attempted;
    if (!out.result.ok) {
      ++m.failed;
    } else if (!(fingerprint_of(out.result, out.vhdl_bytes) == prints_[i])) {
      ++m.failed;
      ++mismatches_[i];
    } else {
      ++ok;
    }
  }
  const double pass_s = ms_between(pass0, Clock::now()) / 1000.0;
  m.pass_throughput.push_back(static_cast<double>(ok) / pass_s);
}

Measurement CompileRunner::measure(double seconds) {
  Measurement m;
  const Clock::time_point start = Clock::now();
  do {
    run_pass(m);
  } while (ms_between(start, Clock::now()) < seconds * 1000.0);
  return m;
}

Measurement CompileRunner::one_pass() {
  Measurement m;
  run_pass(m);
  return m;
}

CheckReport CompileRunner::check() const {
  CheckReport rep;
  SpeedupBook book;
  std::map<std::string, const SpecSource*> by_name;
  for (const SpecSource& s : w_.specs) by_name[s.name] = &s;
  for (std::size_t i = 0; i < w_.jobs.size(); ++i) {
    const CompileJob& job = w_.jobs[i];
    const SpecSource& src = w_.specs[job.spec];
    const CompileOutput out = run_compile(session_, src, job);
    const FlowResult& r = out.result;
    ++rep.designs;
    if (job.scheduler == "forcedirected" && r.transform) {
      const std::size_t frags = r.transform->adds.size();
      rep.fd_max_fragments = std::max(rep.fd_max_fragments, frags);
      if (frags >= kPoolFloor) {
        rep.pool_floor_reached = true;
        rep.messages.push_back(job.label(w_.specs) +
                               ": force-directed kernel of " +
                               std::to_string(frags) +
                               " fragments reaches the candidate-pool floor");
      }
    }
    if (!r.ok) {
      // Counted as failed by every timed run already.
      ++rep.failed_designs;
      rep.messages.push_back(job.label(w_.specs) + ": not ok: " +
                             first_error(r));
      continue;
    }
    std::string problem;
    if (!(fingerprint_of(r, out.vhdl_bytes) == prints_[i]) ||
        mismatches_[i] > 0) {
      problem = "result differs between runs of the same request";
    } else if (r.transform && r.schedule) {
      problem = simulate_check(src.build(), r, derive_seed(i, 0x51));
    }
    if (!problem.empty()) {
      ++rep.failed_designs;
      // Timed runs that already differed counted as failed when they ran;
      // otherwise every timed occurrence of the design was wrong.
      if (mismatches_[i] == 0) rep.failed_requests += passes_;
      rep.messages.push_back(job.label(w_.specs) + ": " + problem);
    }
    book.add_design(src.name, job.flow, job.target, job.latency, job.narrow,
                    r.report);
  }
  book.finish(by_name, session_, rep);
  return rep;
}

// --- serve-dse ---------------------------------------------------------------

hls::ServeOptions serve_options(std::size_t cache_max_bytes) {
  hls::ServeOptions o;
  o.workers = 1;
  o.max_active = 1;
  o.cache_shards = 1;
  o.cache_max_bytes = cache_max_bytes;
  return o;
}

bool response_ok(const std::string& response) {
  // The envelope's "ok" precedes the body, so the first match is it.
  const std::size_t at = response.find("\"ok\":");
  return at != std::string::npos && response.compare(at + 5, 4, "true") == 0;
}

void ServeRunner::fill(hls::Server& server, const ServeWorkload& w,
                       std::vector<std::string>* responses) {
  for (const ServeRequest& r : w.hot) {
    std::string resp = server.handle_line(r.line);
    if (responses != nullptr) responses->push_back(std::move(resp));
  }
}

void ServeRunner::send_pass(hls::Server& server, const ServeWorkload& w,
                            std::size_t churn_pass) {
  const std::vector<ServeRequest> churn = churn_requests(w, churn_pass);
  std::size_t c = 0;
  for (const std::size_t slot : w.pass) {
    server.handle_line(slot == ServeWorkload::kChurnSlot ? churn[c++].line
                                                         : w.hot[slot].line);
  }
}

void ServeRunner::setup(std::uint64_t seed) {
  w_ = make_serve_dse(seed);
  next_churn_pass_ = 0;
  churn_seen_.clear();
  server_ = std::make_unique<hls::Server>(serve_options(kCacheMaxBytes));
  first_response_.clear();
  fill(*server_, w_, &first_response_);
  last_response_.assign(w_.hot.size(), {});
  hot_count_.assign(w_.hot.size(), 0);
  Measurement warm;
  run_pass(warm);
  hot_count_.assign(w_.hot.size(), 0);
  churn_seen_.clear();
}

void ServeRunner::run_pass(Measurement& m) {
  const std::vector<ServeRequest> churn = churn_requests(w_, take_churn_pass());
  std::vector<std::string> churn_responses;
  churn_responses.reserve(churn.size());
  std::size_t ok = 0;
  std::size_t c = 0;
  const Clock::time_point pass0 = Clock::now();
  for (const std::size_t slot : w_.pass) {
    const bool is_churn = slot == ServeWorkload::kChurnSlot;
    const std::string& line = is_churn ? churn[c++].line : w_.hot[slot].line;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    std::string resp = server_->handle_line(line);
    m.latency_ms.push_back(process_cpu_ms() - cpu0);
    m.wall_ms.push_back(ms_between(t0, Clock::now()));
    ++m.attempted;
    if (response_ok(resp)) {
      ++ok;
    } else {
      ++m.failed;
    }
    if (is_churn) {
      churn_responses.push_back(std::move(resp));
    } else {
      last_response_[slot] = std::move(resp);
      ++hot_count_[slot];
    }
  }
  const double pass_s = ms_between(pass0, Clock::now()) / 1000.0;
  m.pass_throughput.push_back(static_cast<double>(ok) / pass_s);
  for (std::size_t j = 0; j < churn.size(); ++j) {
    churn_seen_.emplace_back(churn[j], std::move(churn_responses[j]));
  }
}

Measurement ServeRunner::measure(double seconds) {
  Measurement m;
  const Clock::time_point start = Clock::now();
  do {
    run_pass(m);
  } while (ms_between(start, Clock::now()) < seconds * 1000.0);
  return m;
}

Measurement ServeRunner::one_pass() {
  Measurement m;
  run_pass(m);
  return m;
}

std::vector<FlowRequest> point_requests(const ServeRequest& r,
                                        const hls::Dfg& spec) {
  const bool sweep = r.kind == "sweep";
  std::vector<FlowRequest> out;
  for (const std::string& target : sweep ? r.targets : std::vector{r.target}) {
    const unsigned lo = sweep ? r.lo : r.latency;
    const unsigned hi = sweep ? r.hi : r.latency;
    for (unsigned lat = lo; lat <= hi; ++lat) {
      FlowRequest fr;
      fr.spec = spec;
      fr.flow = r.flow;
      fr.latency = lat;
      fr.target = target;
      out.push_back(std::move(fr));
    }
  }
  return out;
}

hls::ExploreRequest explore_request(const ServeRequest& r,
                                    const hls::Dfg& spec) {
  hls::ExploreRequest er;
  er.spec = spec;
  er.flows = r.flows;
  er.targets = r.targets;
  er.latency_lo = r.lo;
  er.latency_hi = r.hi;
  er.workers = 1;
  return er;
}

std::string canonical_result(const std::string& json, const std::string& kind) {
  return canonical(hls::parse_json(json), kind == "explore");
}

std::string served_result(const std::string& response,
                          const std::string& kind) {
  const hls::JsonValue env = hls::parse_json(response);
  const hls::JsonValue* result = env.find("result");
  return result == nullptr ? std::string()
                           : canonical(*result, kind == "explore");
}

CheckReport ServeRunner::check() const {
  CheckReport rep;
  SpeedupBook book;
  std::map<std::string, const SpecSource*> by_name;
  const auto verify = [&](const ServeRequest& r, const std::string& fresh,
                          const std::string& response, std::size_t occurrences,
                          const char* which) {
    if (response.empty()) return;
    if (!response_ok(response)) {
      // Counted as failed by every timed run already.
      ++rep.failed_designs;
      rep.messages.push_back(std::string(which) + " " + r.line.substr(0, 120) +
                             ": not ok");
      return;
    }
    if (served_result(response, r.kind) != fresh) {
      ++rep.failed_designs;
      rep.failed_requests += occurrences;
      rep.messages.push_back(std::string(which) + " " + r.line.substr(0, 120) +
                             ": served result differs from a fresh run");
    }
  };
  for (std::size_t i = 0; i < w_.hot.size(); ++i) {
    const ServeRequest& r = w_.hot[i];
    by_name[r.spec.name] = &r.spec;
    const std::string fresh = fresh_compute(r, book);
    ++rep.designs;
    verify(r, fresh, first_response_[i], 1, "fill");
    verify(r, fresh, last_response_[i], hot_count_[i], "timed");
  }
  for (const auto& [r, response] : churn_seen_) {
    by_name[r.spec.name] = &r.spec;
    ++rep.designs;
    verify(r, fresh_compute(r, book), response, 1, "churn");
  }
  book.finish(by_name, hls::Session(hls::SessionOptions{.workers = 1}), rep);
  return rep;
}

} // namespace perfbench
