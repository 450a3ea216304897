#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "dse/explorer.hpp"
#include "flow/json.hpp"
#include "obs/trace.hpp"
#include "parser/parser.hpp"
#include "suites/suites.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "timing/target.hpp"

namespace hls {

/// One timer thread multiplexing every armed per-request deadline: arm()
/// registers (deadline, CancelSource), the loop sleeps until the earliest
/// one and fires its source.cancel() — the request then aborts at its next
/// cooperative checkpoint. disarm() (always called, via RAII in
/// handle_line) removes a deadline that completed in time. The thread is
/// started lazily on the first armed deadline, so a server that never sees
/// one never pays for it.
class DeadlineMonitor {
public:
  using Clock = std::chrono::steady_clock;

  ~DeadlineMonitor() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::uint64_t arm(Clock::time_point when, CancelSource source) {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = next_id_++;
    queue_.emplace(when, Entry{id, std::move(source)});
    if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
    cv_.notify_all();
    return id;
  }

  void disarm(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->second.id == id) {
        queue_.erase(it);
        return;
      }
    }
  }

private:
  struct Entry {
    std::uint64_t id;
    CancelSource source;
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (queue_.empty()) {
        cv_.wait(lock);
        continue;
      }
      const Clock::time_point when = queue_.begin()->first;
      if (Clock::now() >= when) {
        auto node = queue_.extract(queue_.begin());
        node.mapped().source.cancel();
        continue;
      }
      cv_.wait_until(lock, when);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::multimap<Clock::time_point, Entry> queue_;
  std::uint64_t next_id_ = 1;
  bool stop_ = false;
  std::thread thread_;
};

namespace {

/// A request-shaped failure, carried to the response envelope as one
/// FlowDiagnostic. `stage` follows the FlowDiagnostic vocabulary plus the
/// serve-specific "protocol" (malformed line / unknown member) and
/// "deadline".
[[noreturn]] void reject(std::string stage, std::string message) {
  throw FlowStageError(std::move(stage), message);
}

/// Strictness: a request object may only carry members the handler reads —
/// a typo like "latencies" must be an error, not a silently ignored knob.
void check_members(const JsonValue& req,
                   std::initializer_list<const char*> allowed) {
  for (const JsonValue::Member& m : req.members()) {
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* k) {
          return m.first == k;
        }) == allowed.end()) {
      reject("protocol", "unknown request member \"" + json_escape(m.first) +
                             "\"");
    }
  }
}

const JsonValue& require_member(const JsonValue& req, const char* key) {
  const JsonValue* v = req.find(key);
  if (v == nullptr) {
    reject("protocol", strformat("request requires a \"%s\" member", key));
  }
  return *v;
}

std::string require_string(const JsonValue& req, const char* key) {
  const JsonValue& v = require_member(req, key);
  if (!v.is_string()) reject("protocol", strformat("\"%s\" must be a string", key));
  return v.as_string();
}

unsigned require_unsigned(const JsonValue& req, const char* key) {
  const JsonValue& v = require_member(req, key);
  if (!v.is_number()) reject("protocol", strformat("\"%s\" must be a number", key));
  try {
    return v.as_unsigned();
  } catch (const Error&) {
    reject("protocol", strformat("\"%s\" must be a non-negative integer "
                                 "(got %s)",
                                 key, v.number_lexeme().c_str()));
  }
}

std::string opt_string(const JsonValue& req, const char* key,
                       std::string fallback) {
  const JsonValue* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) reject("protocol", strformat("\"%s\" must be a string", key));
  return v->as_string();
}

unsigned opt_unsigned(const JsonValue& req, const char* key,
                      unsigned fallback) {
  const JsonValue* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) reject("protocol", strformat("\"%s\" must be a number", key));
  try {
    return v->as_unsigned();
  } catch (const Error&) {
    reject("protocol", strformat("\"%s\" must be a non-negative integer "
                                 "(got %s)",
                                 key, v->number_lexeme().c_str()));
  }
}

bool opt_bool(const JsonValue& req, const char* key, bool fallback) {
  const JsonValue* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) reject("protocol", strformat("\"%s\" must be a boolean", key));
  return v->as_bool();
}

double opt_double(const JsonValue& req, const char* key, double fallback) {
  const JsonValue* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) reject("protocol", strformat("\"%s\" must be a number", key));
  return v->as_double();
}

std::vector<std::string> opt_string_list(const JsonValue& req, const char* key,
                                         std::vector<std::string> fallback) {
  const JsonValue* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_array()) {
    reject("protocol", strformat("\"%s\" must be an array of strings", key));
  }
  std::vector<std::string> out;
  out.reserve(v->as_array().size());
  for (const JsonValue& item : v->as_array()) {
    if (!item.is_string()) {
      reject("protocol", strformat("\"%s\" must be an array of strings", key));
    }
    out.push_back(item.as_string());
  }
  return out;
}

/// The request's specification: exactly one of "suite" (a registry suite
/// name) or "spec" (DSL source text, the same language as a spec file).
Dfg resolve_spec(const JsonValue& req) {
  const JsonValue* suite = req.find("suite");
  const JsonValue* spec = req.find("spec");
  if ((suite != nullptr) == (spec != nullptr)) {
    reject("request", "give exactly one of \"suite\" (registry name) or "
                      "\"spec\" (DSL text)");
  }
  if (suite != nullptr) {
    if (!suite->is_string()) reject("protocol", "\"suite\" must be a string");
    std::vector<std::string> names;
    for (const SuiteEntry& s : registry_suites()) {
      if (s.name == suite->as_string()) return s.build();
      names.push_back(s.name);
    }
    reject("request", "unknown suite '" + suite->as_string() +
                          "' (available: " + join(names, ", ") + ")");
  }
  if (!spec->is_string()) reject("protocol", "\"spec\" must be a string");
  try {
    // The DSL parse is the serve-side "parse" flow stage; span-traced like
    // the CLI's (suite resolution above is a registry lookup, not a parse).
    ScopedSpan span("parse", "flow");
    return parse_spec(spec->as_string());
  } catch (const ParseError& e) {
    reject("parse", e.what());
  }
}

/// One diagnostic as a single-element "diagnostics" array body.
std::string diagnostics_body(const FlowDiagnostic& d) {
  return "[" + to_json(d) + "]";
}

} // namespace

// --- server ------------------------------------------------------------------

Server::Server(ServeOptions options)
    : options_(options),
      session_(SessionOptions{.workers = options.workers}),
      cache_(std::make_shared<ArtifactCache>(ArtifactCacheOptions{
          .shards = options.cache_shards,
          .max_resident_bytes = options.cache_max_bytes})),
      deadlines_(std::make_unique<DeadlineMonitor>()) {
  // Every serve instrument lives in this Server's own registry; the
  // Counters struct caches the stable references so the hot path is one
  // relaxed fetch_add, exactly like the plain atomics it replaced.
  counters_.run = &metrics_.counter("serve.requests.run");
  counters_.sweep = &metrics_.counter("serve.requests.sweep");
  counters_.explore = &metrics_.counter("serve.requests.explore");
  counters_.metrics = &metrics_.counter("serve.requests.metrics");
  counters_.stats = &metrics_.counter("serve.requests.stats");
  counters_.shutdown = &metrics_.counter("serve.requests.shutdown");
  counters_.errors = &metrics_.counter("serve.requests.errors");
  counters_.deadline_exceeded =
      &metrics_.counter("serve.requests.deadline_exceeded");
  counters_.admitted = &metrics_.counter("serve.admitted");
  counters_.shed = &metrics_.counter("serve.shed");
  counters_.cancelled = &metrics_.counter("serve.cancelled");
  counters_.disconnects = &metrics_.counter("serve.disconnects");
  counters_.cache_bypass = &metrics_.counter("serve.cache_bypass");
  latency_ms_ = &metrics_.histogram("serve.request.ms");
}

Server::~Server() = default;

unsigned Server::resolved_max_active() const {
  if (options_.max_active > 0) return options_.max_active;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool Server::admit_heavy() {
  std::unique_lock<std::mutex> lock(admission_.mu);
  const unsigned max_active = resolved_max_active();
  if (admission_.active < max_active) {
    ++admission_.active;
    return true;
  }
  if (admission_.waiting >= options_.max_queue) return false;  // shed
  ++admission_.waiting;
  admission_.cv.wait(lock, [&] { return admission_.active < max_active; });
  --admission_.waiting;
  ++admission_.active;
  return true;
}

void Server::release_heavy() {
  {
    const std::lock_guard<std::mutex> lock(admission_.mu);
    --admission_.active;
  }
  admission_.cv.notify_one();
}

unsigned Server::retry_after_hint() const {
  // No history yet: a small fixed hint beats a zero that invites an
  // immediate hammer-retry.
  double ms = latency_ms_->count() > 0 ? latency_ms_->quantile(0.5) : 10.0;
  unsigned backlog = 1;
  {
    const std::lock_guard<std::mutex> lock(admission_.mu);
    backlog = std::max(1u, admission_.active + admission_.waiting);
  }
  ms *= static_cast<double>(backlog);
  ms = std::min(std::max(ms, 1.0), 60000.0);
  return static_cast<unsigned>(ms);
}

std::shared_ptr<ArtifactCache> Server::request_cache() {
  if (options_.storm_evictions == 0) return cache_;
  const std::uint64_t now = cache_->stats().total().evictions;
  const std::uint64_t before =
      last_evictions_.exchange(now, std::memory_order_acq_rel);
  if (now - before >= options_.storm_evictions) {
    counters_.cache_bypass->add();
    return nullptr;  // degrade: recompute rather than thrash the LRU
  }
  return cache_;
}

std::string Server::stats_json() const {
  std::ostringstream os;
  const auto c = [](const Counter* counter) { return counter->value(); };
  os << "{\"requests\":{\"run\":" << c(counters_.run)
     << ",\"sweep\":" << c(counters_.sweep)
     << ",\"explore\":" << c(counters_.explore)
     << ",\"metrics\":" << c(counters_.metrics)
     << ",\"stats\":" << c(counters_.stats)
     << ",\"shutdown\":" << c(counters_.shutdown)
     << ",\"errors\":" << c(counters_.errors)
     << ",\"deadline_exceeded\":" << c(counters_.deadline_exceeded) << "},";
  os << "\"serve\":{\"admitted\":" << c(counters_.admitted)
     << ",\"shed\":" << c(counters_.shed)
     << ",\"cancelled\":" << c(counters_.cancelled)
     << ",\"disconnects\":" << c(counters_.disconnects)
     << ",\"cache_bypass\":" << c(counters_.cache_bypass)
     << ",\"active_connections\":"
     << active_connections_.load(std::memory_order_relaxed) << "},";
  // The resolved robustness knobs, so a client (or serve_check.py) can
  // assert what deadline/admission policy its requests actually ran under.
  os << "\"config\":{\"deadline_ms\":"
     << json_number(options_.default_deadline_ms, 3)
     << ",\"max_active\":" << resolved_max_active()
     << ",\"max_queue\":" << options_.max_queue
     << ",\"storm_evictions\":" << options_.storm_evictions
     << ",\"workers\":" << options_.workers << "},";
  // p50/p99 read off the log-bucketed histogram (bucket upper bounds, so
  // quantized within one sub-bucket and monotone by construction). The
  // histogram never drops history — the sliding window it replaced
  // silently forgot everything older than its retained capacity.
  const std::uint64_t lat_count = latency_ms_->count();
  os << "\"latency_ms\":{\"count\":" << lat_count
     << ",\"p50\":" << json_number(lat_count ? latency_ms_->quantile(0.5) : 0.0, 3)
     << ",\"p99\":" << json_number(lat_count ? latency_ms_->quantile(0.99) : 0.0, 3)
     << "},";
  // Per-stage cache counters. "lookups" is emitted explicitly so clients
  // (and scripts/serve_check.py) can assert hits + misses == lookups
  // without re-deriving it.
  const CacheStats stats = cache_->stats();
  os << "\"cache\":{";
  const std::pair<const char*, const CacheStats::Counter*> rows[] = {
      {"kernel", &stats.kernel},       {"narrow", &stats.narrow},
      {"prep", &stats.prep},           {"transform", &stats.transform},
      {"schedule", &stats.schedule},   {"datapath", &stats.datapath},
      {"partition", &stats.partition},
  };
  const CacheStats::Counter total = stats.total();
  for (const auto& [name, counter] : rows) {
    os << "\"" << name << "\":{\"hits\":" << counter->hits
       << ",\"misses\":" << counter->misses
       << ",\"lookups\":" << counter->hits + counter->misses
       << ",\"evictions\":" << counter->evictions
       << ",\"resident_bytes\":" << counter->resident_bytes << "},";
  }
  os << "\"total\":{\"hits\":" << total.hits << ",\"misses\":" << total.misses
     << ",\"lookups\":" << total.hits + total.misses
     << ",\"evictions\":" << total.evictions
     << ",\"resident_bytes\":" << total.resident_bytes
     << ",\"hit_rate\":" << json_number(total.hit_rate()) << "}},";
  os << "\"cache_config\":{\"shards\":" << cache_->options().shards
     << ",\"max_resident_bytes\":" << cache_->options().max_resident_bytes
     << "}}";
  return os.str();
}

std::string Server::metrics_body() const {
  // Refresh the cache gauges from the shared store at scrape time — the
  // cache keeps its own atomic ledger; the registry mirrors it so one
  // scrape covers every serve instrument.
  publish_cache_stats(metrics_, cache_->stats());
  metrics_.gauge("serve.active_connections")
      .set(static_cast<double>(
          active_connections_.load(std::memory_order_relaxed)));
  std::ostringstream os;
  os << "{\"exposition\":\"" << json_escape(metrics_.exposition())
     << "\",\"metrics\":" << metrics_.json() << "}";
  return os.str();
}

std::string Server::handle_line(const std::string& line) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::string kind = "error";
  std::string id_json;  // raw JSON echo of the request's "id", empty = none
  bool ok = false;
  std::string body_key = "diagnostics";
  std::string body;
  bool timed = false;  // run/sweep/explore contribute to the latency histogram
  double deadline_ms = 0;
  unsigned retry_after = 0;    // ms; > 0 adds "retry_after_ms" to the envelope
  bool work_cancelled = false; // a checkpoint aborted the work mid-stage
  // Armed only for a heavy request with a deadline; every other request
  // carries a null token, so the no-deadline path is byte-for-byte the
  // pre-cancellation one.
  std::optional<CancelSource> cancel;
  // Per-request tracing ("trace": true on a heavy request): the scope arms
  // the process-wide TraceSession for this thread (run_batch workers
  // inherit the context), the root span covers the request's work, and the
  // envelope gains a "trace" member. Requests without the flag leave both
  // disengaged — their envelopes are byte-identical to an untraced
  // server's.
  std::optional<TraceScope> trace_scope;
  std::optional<ScopedSpan> request_span;

  // Local RAII so every exit path — result, reject(), injected fault —
  // releases its admission slot and retires its deadline entry.
  struct AdmitGuard {
    Server* server = nullptr;
    ~AdmitGuard() {
      if (server != nullptr) server->release_heavy();
    }
  } admit_guard;
  struct DeadlineGuard {
    DeadlineMonitor* monitor = nullptr;
    std::uint64_t id = 0;
    ~DeadlineGuard() {
      if (monitor != nullptr) monitor->disarm(id);
    }
  } deadline_guard;

  try {
    failpoint("serve.parse");
    const JsonValue req = parse_json(line);
    if (!req.is_object()) {
      reject("protocol", "a request must be a JSON object");
    }
    if (const JsonValue* id = req.find("id")) id_json = write_json(*id);
    kind = require_string(req, "kind");
    deadline_ms = opt_double(req, "deadline_ms", options_.default_deadline_ms);

    // Heavy requests pass the bounded admission gate before any per-kind
    // work; beyond the queue bound the request is shed, never queued
    // unboundedly (the per-kind counters below count *processed* requests).
    CancelToken token;
    std::shared_ptr<ArtifactCache> req_cache = cache_;
    if (kind == "run" || kind == "sweep" || kind == "explore") {
      if (opt_bool(req, "trace", false)) {
        trace_scope.emplace(true);
        request_span.emplace("serve.request", "serve");
        request_span->note("kind=%s", kind.c_str());
      }
      failpoint("serve.admit");
      if (!admit_heavy()) {
        counters_.shed->add();
        retry_after = retry_after_hint();
        reject("overloaded",
               strformat("server is at capacity (%u active, %u queued); "
                         "retry after the hinted backoff",
                         resolved_max_active(), options_.max_queue));
      }
      counters_.admitted->add();
      admit_guard.server = this;
      req_cache = request_cache();
      if (deadline_ms > 0) {
        cancel.emplace();
        token = cancel->token();
        deadline_guard.monitor = deadlines_.get();
        deadline_guard.id = deadlines_->arm(
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(deadline_ms)),
            *cancel);
      }
    }

    if (kind == "run") {
      counters_.run->add();
      timed = true;
      check_members(req, {"kind", "id", "deadline_ms", "trace", "suite",
                          "spec", "flow", "latency", "n_bits", "scheduler",
                          "target", "narrow"});
      FlowRequest fr;
      fr.spec = resolve_spec(req);
      fr.flow = opt_string(req, "flow", "optimized");
      fr.latency = require_unsigned(req, "latency");
      fr.n_bits_override = opt_unsigned(req, "n_bits", 0);
      fr.scheduler = opt_string(req, "scheduler", "list");
      fr.target = opt_string(req, "target", kDefaultTargetName);
      fr.options.narrow = opt_bool(req, "narrow", false);
      fr.cache = req_cache;
      fr.cancel = token;
      const FlowResult r = session_.run(fr);
      ok = r.ok;
      body_key = "result";
      body = to_json(r);
    } else if (kind == "sweep") {
      counters_.sweep->add();
      timed = true;
      check_members(req, {"kind", "id", "deadline_ms", "trace", "suite",
                          "spec", "flow", "lo", "hi", "scheduler", "targets",
                          "narrow"});
      // Session::run_sweep with the process-wide cache attached to the
      // template — that attachment is the whole point of serving, and the
      // StageCache contract keeps the results bit-identical to the
      // uncached sweep.
      FlowRequest tmpl;
      tmpl.spec = resolve_spec(req);
      tmpl.flow = opt_string(req, "flow", "optimized");
      const unsigned lo = require_unsigned(req, "lo");
      const unsigned hi = require_unsigned(req, "hi");
      tmpl.scheduler = opt_string(req, "scheduler", "list");
      const std::vector<std::string> targets =
          opt_string_list(req, "targets", {});
      tmpl.options.narrow = opt_bool(req, "narrow", false);
      tmpl.cache = req_cache;
      tmpl.cancel = token;
      const std::vector<FlowResult> results =
          session_.run_sweep(tmpl, lo, hi, targets);
      ok = std::all_of(results.begin(), results.end(),
                       [](const FlowResult& r) { return r.ok; });
      body_key = "result";
      body = to_json(results);
    } else if (kind == "explore") {
      counters_.explore->add();
      timed = true;
      check_members(req, {"kind", "id", "deadline_ms", "trace", "suite",
                          "spec", "flows", "schedulers", "targets", "lo",
                          "hi", "budget", "prune", "narrow"});
      ExploreRequest er;
      er.spec = resolve_spec(req);
      er.flows = opt_string_list(req, "flows", {"optimized"});
      er.schedulers = opt_string_list(req, "schedulers", {"list"});
      er.targets = opt_string_list(req, "targets", {kDefaultTargetName});
      er.latency_lo = require_unsigned(req, "lo");
      er.latency_hi = require_unsigned(req, "hi");
      er.budget = opt_unsigned(req, "budget", 0);
      er.prune = opt_bool(req, "prune", true);
      er.options.narrow = opt_bool(req, "narrow", false);
      er.workers = options_.workers;
      er.cache = req_cache;  // cross-request sharing (empty during a storm)
      er.cancel = token;
      const ExploreResult res =
          Explorer(SessionOptions{.workers = options_.workers}).run(er);
      ok = res.ok;
      body_key = "result";
      body = to_json(res);
    } else if (kind == "metrics") {
      counters_.metrics->add();
      check_members(req, {"kind", "id", "deadline_ms"});
      ok = true;
      body_key = "result";
      body = metrics_body();
    } else if (kind == "stats") {
      counters_.stats->add();
      check_members(req, {"kind", "id", "deadline_ms"});
      ok = true;
      body_key = "result";
      body = stats_json();
    } else if (kind == "shutdown") {
      counters_.shutdown->add();
      check_members(req, {"kind", "id", "deadline_ms"});
      ok = true;
      body_key = "result";
      // The final summary rides on the shutdown response itself.
      body = stats_json();
      shutdown_.store(true, std::memory_order_release);
    } else {
      reject("protocol",
             "unknown kind '" + json_escape(kind) +
                 "' (run | sweep | explore | metrics | stats | shutdown)");
    }

  } catch (const CancelledError&) {
    // The deadline monitor tripped the token and a cooperative checkpoint
    // aborted the work mid-stage (Explorer::run propagates the abort;
    // Session::run folds it into the result instead, handled below). The
    // shared cache holds no partial artefact — get_or_compute inserts only
    // completed values. The uniform "deadline" envelope is built below.
    work_cancelled = true;
  } catch (const JsonParseError& e) {
    counters_.errors->add();
    ok = false;
    body_key = "diagnostics";
    body = diagnostics_body(
        {DiagSeverity::Error, "protocol", e.what(), {}});
  } catch (const FlowStageError& e) {
    // A shed request is back-pressure, not a server error — it already
    // counted in `shed` and the client's cue is the retry_after_ms hint.
    if (e.stage() != "overloaded") {
      counters_.errors->add();
    }
    ok = false;
    body_key = "diagnostics";
    body = diagnostics_body(
        {DiagSeverity::Error, e.stage(), e.what(), e.context()});
  } catch (const Error& e) {
    // Anything else the stack raised: structured, never a crash.
    counters_.errors->add();
    ok = false;
    body_key = "diagnostics";
    body = diagnostics_body(
        {DiagSeverity::Error, "internal", e.what(), {}});
  } catch (const std::exception& e) {
    // Non-Error exceptions (e.g. an injected std::bad_alloc): still one
    // structured envelope, never a dead connection thread.
    counters_.errors->add();
    ok = false;
    body_key = "diagnostics";
    body = diagnostics_body(
        {DiagSeverity::Error, "internal", e.what(), {}});
  }

  // Deadline verdict, mid-stage or post-hoc: the work was aborted at a
  // checkpoint (work_cancelled), the monitor tripped the token while the
  // result raced to completion, or a checkpoint-free stretch overran the
  // budget. All three collapse to the same "deadline" envelope; a partial
  // result is never returned.
  const bool tripped =
      work_cancelled || (cancel.has_value() && cancel->cancelled());
  if (timed && deadline_ms > 0 && (tripped || elapsed_ms() > deadline_ms)) {
    counters_.deadline_exceeded->add();
    if (tripped) counters_.cancelled->add();
    ok = false;
    body_key = "diagnostics";
    retry_after = retry_after_hint();
    body = diagnostics_body(
        {DiagSeverity::Error, "deadline",
         strformat("request exceeded its deadline: %.3f ms > %.3f ms%s",
                   elapsed_ms(), deadline_ms,
                   tripped ? " (aborted at a cooperative checkpoint)" : ""),
         {}});
  }

  const double ms = elapsed_ms();
  if (timed) latency_ms_->record(ms);

  // Close the trace before assembling the envelope: the request span's
  // duration is final only once it is destroyed, and collect() must see it.
  std::string trace_json;
  if (trace_scope.has_value() && trace_scope->enabled()) {
    const std::uint64_t trace_id = trace_scope->trace_id();
    request_span.reset();
    const std::vector<TraceSpan> spans =
        TraceSession::global().collect(trace_id);
    trace_json = strformat("{\"id\":%llu,\"spans\":%zu,\"chrome\":",
                           static_cast<unsigned long long>(trace_id),
                           spans.size()) +
                 TraceSession::chrome_json(spans) + "}";
    trace_scope.reset();  // disarm; prunes retired worker rings when last
  }

  std::ostringstream os;
  os << "{\"schema\":\"fraghls-serve-v1\",\"kind\":\"" << json_escape(kind)
     << "\"";
  if (!id_json.empty()) os << ",\"id\":" << id_json;
  os << ",\"ok\":" << (ok ? "true" : "false");
  os << ",\"" << body_key << "\":" << body;
  if (!trace_json.empty()) os << ",\"trace\":" << trace_json;
  os << ",\"ms\":" << json_number(ms, 3);
  if (retry_after > 0) os << ",\"retry_after_ms\":" << retry_after;
  os << "}";
  return os.str();
}

int Server::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    // Blank lines are keep-alive noise, not requests.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    out << handle_line(line) << '\n' << std::flush;
  }
  return 0;
}

bool Server::send_all(int conn, const std::string& response) {
  // MSG_NOSIGNAL (belt) on top of the loop-level SIG_IGN (braces): a peer
  // that died mid-response must surface as EPIPE here, never as a
  // process-killing SIGPIPE.
  std::size_t sent = 0;
  while (sent < response.size()) {
    failpoint("serve.send");
    const ssize_t w = ::send(conn, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

void Server::begin_drain() {
  // Stop accepting, then unblock every reader parked in recv() so the
  // accept loop's joins cannot hang on an idle connection. SHUT_RD makes
  // the blocked recv return 0 (EOF); in-flight handle_line calls finish
  // and their responses still go out (the write side stays open).
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);
  const std::lock_guard<std::mutex> lock(conns_mu_);
  for (const int conn : conns_) ::shutdown(conn, SHUT_RD);
}

namespace {

/// Ends a connection that saw no clean EOF with FIN instead of RST. Closing
/// a socket whose receive queue still holds unread request bytes makes the
/// kernel reset the connection, and the peer reads ECONNRESET instead of
/// EOF. So half-close first, then read and discard what the peer still
/// sends until its EOF, an error, a receive timeout or an overall bound.
void close_write_and_drain(int conn) {
  ::shutdown(conn, SHUT_WR);
  timeval timeout{};
  timeout.tv_usec = 200 * 1000;
  ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  char buf[4096];
  while (std::chrono::steady_clock::now() < deadline &&
         ::recv(conn, buf, sizeof buf, 0) > 0) {
  }
}

} // namespace

void Server::connection_loop(int conn) {
  active_connections_.fetch_add(1, std::memory_order_relaxed);
  // Byte stream -> lines -> handle_line -> response lines.
  std::string pending;
  char buf[4096];
  bool clean_eof = false;
  for (;;) {
    ssize_t n;
    try {
      failpoint("serve.recv");
      n = ::recv(conn, buf, sizeof buf, 0);
    } catch (...) {
      n = -1;  // injected read fault == peer loss, not an envelope
    }
    if (n == 0) clean_eof = true;
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      std::string request = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (!request.empty() && request.back() == '\r') request.pop_back();
      if (request.find_first_not_of(" \t") == std::string::npos) continue;
      std::string response = handle_line(request);
      response += '\n';
      bool wrote;
      try {
        wrote = send_all(conn, response);
      } catch (...) {
        wrote = false;  // injected write fault, same as a dead peer
      }
      if (!wrote) {
        counters_.disconnects->add();
        clean_eof = true;  // counted once; don't double-count below
        goto done;
      }
      if (shutdown_requested()) {
        begin_drain();
        goto done;
      }
    }
  }
done:
  // A peer that vanished mid-line (reset, or died between request and
  // response) counts once; a clean EOF — or the drain's SHUT_RD — doesn't.
  if (!clean_eof && !shutdown_requested()) {
    counters_.disconnects->add();
  }
  // Still registered while draining, so begin_drain's SHUT_RD cuts it short.
  if (!clean_eof) close_write_and_drain(conn);
  {
    // Deregister before close: once the fd is closed the kernel may reuse
    // its number for a new accept, and a stale registry entry would alias
    // it (begin_drain would SHUT_RD the wrong connection).
    const std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
  }
  ::close(conn);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

int Server::serve_tcp(unsigned port, std::ostream& log) {
  // A client that disconnects mid-response must never kill the daemon:
  // ignore SIGPIPE process-wide (send_all also passes MSG_NOSIGNAL, which
  // covers sends even if another component later restores the default).
  std::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    log << "serve: socket() failed\n";
    return 1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 16) < 0) {
    log << "serve: cannot listen on 127.0.0.1:" << port << '\n';
    ::close(fd);
    return 1;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const unsigned bound = ntohs(addr.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  log << "serving on 127.0.0.1:" << bound << '\n' << std::flush;
  bound_port_.store(bound, std::memory_order_release);

  std::vector<std::thread> connections;
  for (;;) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) break;  // listener closed (shutdown) or fatal error
    if (shutdown_requested()) {
      ::close(conn);
      break;
    }
    {
      const std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    connections.emplace_back([this, conn] { connection_loop(conn); });
  }
  // Shutdown observed (or the listener died): drain. begin_drain unblocks
  // readers idling in recv() on still-open connections, so every join
  // below completes; connections mid-handle_line finish their response
  // first — no accepted request is dropped without a reply.
  begin_drain();
  for (std::thread& t : connections) t.join();
  ::close(fd);
  return 0;
}

} // namespace hls
