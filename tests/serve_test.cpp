// Tests for the serve/ session service: protocol strictness (every failure
// one structured response line, never a crash or a silent drop), the
// bit-identity contract against uncached Session::run / Explorer across all
// registry suites, deadline and stats semantics, the multi-client soak
// (clean under the ASan/UBSan CI job), eviction under contention against a
// bounded cache, and a loopback TCP smoke.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dse/explorer.hpp"
#include "flow/json.hpp"
#include "serve/server.hpp"
#include "suites/suites.hpp"
#include "support/failpoint.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "timing/target.hpp"

namespace hls {
namespace {

/// Every response must parse strictly and carry the envelope.
JsonValue parse_response(const std::string& line) {
  JsonValue v;
  EXPECT_NO_THROW(v = parse_json(line)) << line.substr(0, 200);
  EXPECT_TRUE(v.is_object());
  const JsonValue* schema = v.find("schema");
  EXPECT_NE(schema, nullptr);
  if (schema != nullptr) EXPECT_EQ(schema->as_string(), "fraghls-serve-v1");
  EXPECT_NE(v.find("ok"), nullptr);
  EXPECT_NE(v.find("ms"), nullptr);
  return v;
}

bool response_ok(const JsonValue& v) {
  const JsonValue* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

/// The first diagnostic's stage of a failed response.
std::string failure_stage(const JsonValue& v) {
  const JsonValue* diags = v.find("diagnostics");
  if (diags == nullptr || diags->as_array().empty()) return "";
  const JsonValue* stage = diags->as_array().front().find("stage");
  return stage != nullptr ? stage->as_string() : "";
}

/// `v` minus one member — used to compare explore results modulo the cache
/// counters (the one deliberate non-identity of served explores: they report
/// the shared process-wide cache).
JsonValue without_member(const JsonValue& v, const std::string& key) {
  std::vector<JsonValue::Member> members;
  for (const JsonValue::Member& m : v.members()) {
    if (m.first != key) members.push_back(m);
  }
  return JsonValue::object(std::move(members));
}

// --- bit-identity against the uncached engines -------------------------------

TEST(Serve, RunResponsesAreBitIdenticalToUncachedSessionAcrossSuites) {
  Server server;
  const Session session;
  for (const SuiteEntry& s : registry_suites()) {
    SCOPED_TRACE(s.name);
    const unsigned lat = s.latencies.front();
    const std::string line = strformat(
        "{\"kind\":\"run\",\"suite\":\"%s\",\"latency\":%u}", s.name.c_str(),
        lat);
    // Twice: cold (miss path) and warm (hit path) must both match.
    for (int round = 0; round < 2; ++round) {
      const JsonValue resp = parse_response(server.handle_line(line));
      ASSERT_TRUE(response_ok(resp)) << server.handle_line(line);
      const JsonValue* result = resp.find("result");
      ASSERT_NE(result, nullptr);
      const FlowResult fresh = session.run(
          {s.build(), "optimized", lat, 0, {}, "list", kDefaultTargetName});
      EXPECT_EQ(write_json(*result), to_json(fresh)) << "round " << round;
    }
  }
}

TEST(Serve, SweepMatchesRunSweepIncludingFailureShape) {
  Server server;
  const Session session;
  const JsonValue resp = parse_response(server.handle_line(
      R"({"kind":"sweep","suite":"fir2","lo":3,"hi":6,)"
      R"("targets":["paper-ripple","cla"]})"));
  ASSERT_TRUE(response_ok(resp));
  const std::vector<FlowResult> fresh = session.run_sweep(
      {fir2(), "optimized"}, 3, 6, {"paper-ripple", "cla"});
  EXPECT_EQ(write_json(*resp.find("result")), to_json(fresh));
  // An inverted range comes back as run_sweep's structured single result,
  // with the envelope's ok reflecting the failure.
  const JsonValue bad = parse_response(server.handle_line(
      R"({"kind":"sweep","suite":"fir2","lo":6,"hi":3})"));
  EXPECT_FALSE(response_ok(bad));
  const std::vector<FlowResult> bad_fresh =
      session.run_sweep({fir2(), "optimized"}, 6, 3);
  EXPECT_EQ(write_json(*bad.find("result")), to_json(bad_fresh));
}

TEST(Serve, SweepWithEmptyTargetsIsRunSweepsResult) {
  // "targets":[] means what an empty targets axis means to
  // Session::run_sweep — the template's (default) target — on a valid range
  // and on an inverted one alike; the daemon used to answer the first with
  // an empty result list and crash on the second.
  Server server;
  const Session session;
  const JsonValue inverted = parse_response(server.handle_line(
      R"({"kind":"sweep","suite":"fir2","lo":5,"hi":3,"targets":[]})"));
  EXPECT_FALSE(response_ok(inverted));
  EXPECT_EQ(write_json(*inverted.find("result")),
            to_json(session.run_sweep({fir2(), "optimized"}, 5, 3)));
  const JsonValue valid = parse_response(server.handle_line(
      R"({"kind":"sweep","suite":"fir2","lo":3,"hi":5,"targets":[]})"));
  ASSERT_TRUE(response_ok(valid));
  const std::vector<FlowResult> fresh =
      session.run_sweep({fir2(), "optimized"}, 3, 5);
  ASSERT_EQ(fresh.size(), 3u);
  EXPECT_EQ(write_json(*valid.find("result")), to_json(fresh));
}

TEST(Serve, ExploreMatchesFreshExplorerModuloSharedCacheCounters) {
  // Served explores share the process cache, so their cache counters are a
  // property of the server's history, not the request; everything else —
  // points, frontier, objectives, best — must be byte-identical.
  Server server(ServeOptions{.workers = 1});
  for (const SuiteEntry& s : registry_suites()) {
    SCOPED_TRACE(s.name);
    const unsigned lo = s.latencies.front();
    const std::string line = strformat(
        "{\"kind\":\"explore\",\"suite\":\"%s\",\"lo\":%u,\"hi\":%u,"
        "\"targets\":[\"paper-ripple\",\"cla\"]}",
        s.name.c_str(), lo, lo + 3);
    const JsonValue resp = parse_response(server.handle_line(line));
    ASSERT_TRUE(response_ok(resp));
    ExploreRequest req;
    req.spec = s.build();
    req.targets = {"paper-ripple", "cla"};
    req.latency_lo = lo;
    req.latency_hi = lo + 3;
    req.workers = 1;
    const JsonValue fresh = parse_json(to_json(Explorer().run(req)));
    EXPECT_EQ(write_json(without_member(*resp.find("result"), "cache")),
              write_json(without_member(fresh, "cache")));
  }
}

TEST(Serve, SpecMemberCarriesDslText) {
  Server server;
  const JsonValue resp = parse_response(server.handle_line(
      R"({"kind":"run","latency":3,"spec":)"
      R"("module m { input a: u8; input b: u8; output o: u8; o = a + b; }"})"));
  EXPECT_TRUE(response_ok(resp));
  // Parse errors in the DSL come back under stage "parse" with a location.
  const JsonValue bad = parse_response(server.handle_line(
      R"({"kind":"run","latency":3,"spec":"module m { input a u8; }"})"));
  EXPECT_FALSE(response_ok(bad));
  EXPECT_EQ(failure_stage(bad), "parse");
}

// --- protocol strictness -----------------------------------------------------

TEST(Serve, EveryMalformedShapeGetsAStructuredResponse) {
  Server server;
  const struct {
    const char* line;
    const char* stage;
  } cases[] = {
      {"{oops", "protocol"},                                  // bad JSON
      {"[1,2]", "protocol"},                                  // not an object
      {R"({"id":1})", "protocol"},                            // no kind
      {R"({"kind":"frobnicate"})", "protocol"},               // unknown kind
      {R"({"kind":"run","latency":3})", "request"},           // no suite/spec
      {R"({"kind":"run","suite":"fir2","latency":3,"spec":"x"})",
       "request"},                                            // both
      {R"({"kind":"run","suite":"nope","latency":3})", "request"},
      {R"({"kind":"run","suite":"fir2"})", "protocol"},       // no latency
      {R"({"kind":"run","suite":"fir2","latency":3,"latencies":[4]})",
       "protocol"},                                           // unknown member
      {R"({"kind":"run","suite":"fir2","latency":-2})", "protocol"},
      {R"({"kind":"stats","suite":"fir2"})", "protocol"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    const JsonValue resp = parse_response(server.handle_line(c.line));
    EXPECT_FALSE(response_ok(resp));
    EXPECT_EQ(failure_stage(resp), c.stage);
  }
  // An unknown flow name flows through validate_request: the failure lives
  // inside the FlowResult body (like an uncached run), envelope ok=false.
  const JsonValue typo = parse_response(server.handle_line(
      R"({"kind":"run","suite":"fir2","latency":3,"flow":"typo"})"));
  EXPECT_FALSE(response_ok(typo));
  const JsonValue* diags = typo.find("result")->find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_FALSE(diags->as_array().empty());
  EXPECT_EQ(diags->as_array().front().find("stage")->as_string(), "registry");
  // The server is still healthy afterwards.
  EXPECT_TRUE(response_ok(parse_response(server.handle_line(
      R"({"kind":"run","suite":"fir2","latency":3})"))));
  // A malformed-JSON response names the byte of the violation.
  const std::string parse_fail = server.handle_line("{oops");
  EXPECT_NE(parse_fail.find("at byte"), std::string::npos);
}

TEST(Serve, IdIsEchoedVerbatim) {
  Server server;
  const JsonValue num = parse_response(
      server.handle_line(R"({"kind":"stats","id":42})"));
  ASSERT_NE(num.find("id"), nullptr);
  EXPECT_EQ(write_json(*num.find("id")), "42");
  const JsonValue str = parse_response(
      server.handle_line(R"({"kind":"stats","id":"client-7/a"})"));
  EXPECT_EQ(str.find("id")->as_string(), "client-7/a");
  // Errors echo the id too — a client must be able to correlate failures.
  const JsonValue bad = parse_response(
      server.handle_line(R"({"kind":"nope","id":"x"})"));
  ASSERT_NE(bad.find("id"), nullptr);
  EXPECT_EQ(bad.find("id")->as_string(), "x");
}

TEST(Serve, DeadlineOverrunsAreReportedAndCounted) {
  Server server;
  const JsonValue resp = parse_response(server.handle_line(
      R"({"kind":"explore","suite":"elliptic","lo":8,"hi":12,)"
      R"("deadline_ms":0.001})"));
  EXPECT_FALSE(response_ok(resp));
  EXPECT_EQ(failure_stage(resp), "deadline");
  const JsonValue stats = parse_response(
      server.handle_line(R"({"kind":"stats"})"));
  const JsonValue* reqs = stats.find("result")->find("requests");
  EXPECT_EQ(reqs->find("deadline_exceeded")->as_unsigned(), 1u);
  // Deadline overruns are not protocol errors.
  EXPECT_EQ(reqs->find("errors")->as_unsigned(), 0u);
  // A generous deadline passes untouched.
  EXPECT_TRUE(response_ok(parse_response(server.handle_line(
      R"({"kind":"run","suite":"fir2","latency":3,"deadline_ms":60000})"))));
}

TEST(Serve, DefaultDeadlineAppliesFromOptions) {
  Server server(ServeOptions{.default_deadline_ms = 0.001});
  const JsonValue resp = parse_response(server.handle_line(
      R"({"kind":"run","suite":"fir2","latency":3})"));
  EXPECT_FALSE(response_ok(resp));
  EXPECT_EQ(failure_stage(resp), "deadline");
  // A request-level deadline overrides the default.
  EXPECT_TRUE(response_ok(parse_response(server.handle_line(
      R"({"kind":"run","suite":"fir2","latency":3,"deadline_ms":60000})"))));
}

// --- stats and shutdown ------------------------------------------------------

TEST(Serve, StatsAreConsistentAndShutdownCarriesTheSummary) {
  Server server;
  (void)server.handle_line(R"({"kind":"run","suite":"fir2","latency":3})");
  (void)server.handle_line(R"({"kind":"run","suite":"fir2","latency":3})");
  (void)server.handle_line(
      R"({"kind":"sweep","suite":"diffeq","lo":4,"hi":6})");
  (void)server.handle_line("not json");
  EXPECT_FALSE(server.shutdown_requested());
  const JsonValue resp = parse_response(
      server.handle_line(R"({"kind":"shutdown"})"));
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_TRUE(response_ok(resp));
  const JsonValue* result = resp.find("result");
  const JsonValue* reqs = result->find("requests");
  EXPECT_EQ(reqs->find("run")->as_unsigned(), 2u);
  EXPECT_EQ(reqs->find("sweep")->as_unsigned(), 1u);
  EXPECT_EQ(reqs->find("errors")->as_unsigned(), 1u);
  EXPECT_EQ(reqs->find("shutdown")->as_unsigned(), 1u);
  // Only run/sweep/explore are timed.
  const JsonValue* lat = result->find("latency_ms");
  EXPECT_EQ(lat->find("count")->as_unsigned(), 3u);
  EXPECT_GE(lat->find("p99")->as_double(), lat->find("p50")->as_double());
  // Cache ledger: hits + misses == lookups, per stage and in total.
  const JsonValue* cache = result->find("cache");
  for (const JsonValue::Member& m : cache->members()) {
    const unsigned hits = m.second.find("hits")->as_unsigned();
    const unsigned misses = m.second.find("misses")->as_unsigned();
    EXPECT_EQ(hits + misses, m.second.find("lookups")->as_unsigned())
        << m.first;
  }
  EXPECT_GT(cache->find("total")->find("hits")->as_unsigned(), 0u);
  // The configured sizing is reported back.
  EXPECT_EQ(result->find("cache_config")->find("shards")->as_unsigned(), 8u);
}

TEST(Serve, MetricsKindReturnsExpositionAndSnapshot) {
  Server server;
  EXPECT_TRUE(response_ok(parse_response(server.handle_line(
      R"({"kind":"run","suite":"fir2","latency":3})"))));
  const JsonValue resp = parse_response(
      server.handle_line(R"({"kind":"metrics","id":5})"));
  ASSERT_TRUE(response_ok(resp));
  const JsonValue* result = resp.find("result");
  ASSERT_NE(result, nullptr);
  const std::string exposition = result->find("exposition")->as_string();
  EXPECT_NE(exposition.find("# TYPE serve_requests_run counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("serve_requests_run 1"), std::string::npos);
  EXPECT_NE(exposition.find("# TYPE serve_request_ms histogram"),
            std::string::npos);
  const JsonValue* snapshot = result->find("metrics");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(
      snapshot->find("counters")->find("serve.requests.run")->as_double(),
      1.0);
  // The snapshot and `stats` read the same instruments: the histogram count
  // equals the stats latency count, and the metrics request itself counts.
  const JsonValue stats =
      parse_response(server.handle_line(R"({"kind":"stats"})"));
  const JsonValue* requests = stats.find("result")->find("requests");
  EXPECT_EQ(requests->find("metrics")->as_double(), 1.0);
  EXPECT_EQ(snapshot->find("histograms")
                ->find("serve.request.ms")
                ->find("count")
                ->as_double(),
            stats.find("result")->find("latency_ms")->find("count")
                ->as_double());
}

TEST(Serve, TracedRunCarriesSpanTreeUntracedDoesNot) {
  Server server;
  const JsonValue traced = parse_response(server.handle_line(
      R"({"kind":"run","suite":"synth-2kernel","flow":"partitioned",)"
      R"("latency":4,"trace":true})"));
  ASSERT_TRUE(response_ok(traced));
  const JsonValue* trace = traced.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_GE(trace->find("id")->as_double(), 1.0);
  const JsonValue* events = trace->find("chrome")->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(static_cast<double>(events->as_array().size()),
            trace->find("spans")->as_double());
  std::string names;
  for (const JsonValue& e : events->as_array()) {
    names += e.find("name")->as_string() + " ";
  }
  for (const char* expect : {"serve.request", "session.run", "schedule.k0",
                             "schedule.k1", "sched.commit", "cache."}) {
    EXPECT_NE(names.find(expect), std::string::npos) << expect;
  }
  // Without "trace": true the envelope has no trace member at all — the
  // byte-stability half of the serve tracing contract.
  const std::string untraced = server.handle_line(
      R"({"kind":"run","suite":"synth-2kernel","flow":"partitioned",)"
      R"("latency":4})");
  EXPECT_EQ(untraced.find("\"trace\""), std::string::npos);
}

TEST(Serve, StdinLoopDrainsAfterShutdownLine) {
  Server server;
  std::istringstream in(
      "{\"kind\":\"run\",\"suite\":\"fir2\",\"latency\":3}\n"
      "\n"
      "{\"kind\":\"shutdown\"}\n"
      "{\"kind\":\"run\",\"suite\":\"fir2\",\"latency\":4}\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve(in, out), 0);
  // Two responses: the run and the shutdown; the post-shutdown line and the
  // blank keep-alive are not served.
  std::size_t lines = 0;
  std::istringstream check(out.str());
  for (std::string line; std::getline(check, line);) {
    ++lines;
    (void)parse_response(line);
  }
  EXPECT_EQ(lines, 2u);
}

// --- concurrency -------------------------------------------------------------

TEST(Serve, MultiClientSoakKeepsEveryLedgerExact) {
  // The soak: concurrent clients firing a fixed mix of good and bad
  // requests straight into handle_line (what every TCP connection thread
  // does). Every response parses, and afterwards the counters balance
  // exactly: no lost update, no double count, under ASan/UBSan in CI.
  Server server;
  constexpr unsigned kThreads = 6, kRounds = 5;
  const std::vector<std::string> mix = {
      R"({"kind":"run","suite":"fir2","latency":3})",
      R"({"kind":"run","suite":"diffeq","latency":5})",
      R"({"kind":"sweep","suite":"motivational","lo":2,"hi":5})",
      R"({"kind":"stats"})",
      "malformed {",
      R"({"kind":"run","suite":"nope","latency":1})",
  };
  std::atomic<unsigned> bad_responses{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < mix.size(); ++i) {
          const std::string& line = mix[(i + t) % mix.size()];
          const std::string resp = server.handle_line(line);
          try {
            const JsonValue v = parse_json(resp);
            if (v.find("schema") == nullptr) bad_responses.fetch_add(1);
          } catch (const Error&) {
            bad_responses.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_responses.load(), 0u);
  const JsonValue stats = parse_response(
      server.handle_line(R"({"kind":"stats"})"));
  const JsonValue* result = stats.find("result");
  const JsonValue* reqs = result->find("requests");
  const unsigned per_thread = kRounds;
  EXPECT_EQ(reqs->find("run")->as_unsigned(), kThreads * per_thread * 3u);
  EXPECT_EQ(reqs->find("sweep")->as_unsigned(), kThreads * per_thread);
  EXPECT_EQ(reqs->find("stats")->as_unsigned(), kThreads * per_thread + 1u);
  EXPECT_EQ(reqs->find("errors")->as_unsigned(), kThreads * per_thread * 2u);
  for (const JsonValue::Member& m : result->find("cache")->members()) {
    EXPECT_EQ(m.second.find("hits")->as_unsigned() +
                  m.second.find("misses")->as_unsigned(),
              m.second.find("lookups")->as_unsigned())
        << m.first;
  }
}

TEST(Serve, EvictionUnderContentionStaysBitIdentical) {
  // A bound small enough to thrash while concurrent clients sweep
  // overlapping latency ranges: responses must stay byte-identical to the
  // uncached engine even when the artefacts they were built from are being
  // evicted underneath.
  Server server(ServeOptions{.cache_shards = 2, .cache_max_bytes = 24 * 1024});
  const Session session;
  constexpr unsigned kThreads = 4, kLats = 5;
  std::atomic<unsigned> mismatches{0};
  std::vector<std::string> fresh(kLats);
  for (unsigned l = 0; l < kLats; ++l) {
    fresh[l] = to_json(session.run(
        {elliptic(), "optimized", 8 + l, 0, {}, "list", kDefaultTargetName}));
  }
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned r = 0; r < 6; ++r) {
        const unsigned l = (r + t) % kLats;
        const std::string resp = server.handle_line(strformat(
            "{\"kind\":\"run\",\"suite\":\"elliptic\",\"latency\":%u}",
            8 + l));
        try {
          const JsonValue v = parse_json(resp);
          const JsonValue* result = v.find("result");
          if (result == nullptr || write_json(*result) != fresh[l]) {
            mismatches.fetch_add(1);
          }
        } catch (const Error&) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const JsonValue stats = parse_response(
      server.handle_line(R"({"kind":"stats"})"));
  const JsonValue* total = stats.find("result")->find("cache")->find("total");
  EXPECT_GT(total->find("evictions")->as_unsigned(), 0u);
  EXPECT_LE(total->find("resident_bytes")->as_unsigned(), 24u * 1024u);
}

// --- TCP ---------------------------------------------------------------------

TEST(Serve, TcpLoopServesAndDrainsOnShutdown) {
  Server server(ServeOptions{.workers = 1});
  std::ostringstream log;
  std::thread daemon([&] { EXPECT_EQ(server.serve_tcp(0, log), 0); });
  // Wait for the ephemeral port to be published.
  unsigned port = 0;
  for (int i = 0; i < 2000 && (port = server.bound_port()) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(port, 0u) << log.str();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::string requests =
      "{\"kind\":\"run\",\"id\":\"tcp-1\",\"suite\":\"fir2\",\"latency\":3}\n"
      "{\"kind\":\"shutdown\"}\n";
  ASSERT_EQ(::send(fd, requests.data(), requests.size(), 0),
            static_cast<ssize_t>(requests.size()));
  std::string received;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    received.append(buf, static_cast<std::size_t>(n));
    if (std::count(received.begin(), received.end(), '\n') >= 2) break;
  }
  ::close(fd);
  daemon.join();  // shutdown drained the accept loop

  std::istringstream lines(received);
  std::string run_line, shutdown_line;
  ASSERT_TRUE(std::getline(lines, run_line));
  ASSERT_TRUE(std::getline(lines, shutdown_line));
  const JsonValue run = parse_response(run_line);
  EXPECT_TRUE(response_ok(run));
  EXPECT_EQ(run.find("id")->as_string(), "tcp-1");
  EXPECT_TRUE(response_ok(parse_response(shutdown_line)));
  EXPECT_NE(log.str().find("serving on 127.0.0.1:"), std::string::npos);
}

/// Loopback connection to a serve_tcp daemon; fails the test on error.
int connect_to(unsigned port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Reads until `lines` newline-terminated responses have arrived (or EOF).
std::string recv_lines(int fd, int lines) {
  std::string received;
  char buf[4096];
  while (std::count(received.begin(), received.end(), '\n') < lines) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    received.append(buf, static_cast<std::size_t>(n));
  }
  return received;
}

/// Starts serve_tcp on an ephemeral port in `daemon` and returns the port.
unsigned start_daemon(Server& server, std::thread& daemon,
                      std::ostringstream& log) {
  daemon = std::thread([&] { EXPECT_EQ(server.serve_tcp(0, log), 0); });
  unsigned port = 0;
  for (int i = 0; i < 2000 && (port = server.bound_port()) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(port, 0u) << log.str();
  return port;
}

TEST(Serve, TcpServesConcurrentClientsBitIdentically) {
  // >= 4 clients with their own connections, racing the same mix of runs:
  // every response must be byte-identical to the uncached engine — the
  // shared cache and the admission gate are invisible in the results.
  Server server;
  std::ostringstream log;
  std::thread daemon;
  const unsigned port = start_daemon(server, daemon, log);

  const Session session;
  constexpr unsigned kClients = 5, kLats = 3;
  std::vector<std::string> fresh(kLats);
  for (unsigned l = 0; l < kLats; ++l) {
    fresh[l] = to_json(session.run(
        {diffeq(), "optimized", 4 + l, 0, {}, "list", kDefaultTargetName}));
  }
  std::atomic<unsigned> mismatches{0};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_to(port);
      for (unsigned r = 0; r < 4; ++r) {
        const unsigned l = (c + r) % kLats;
        const std::string req = strformat(
            "{\"kind\":\"run\",\"suite\":\"diffeq\",\"latency\":%u}\n", 4 + l);
        if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) < 0) {
          mismatches.fetch_add(1);
          break;
        }
        const std::string line = recv_lines(fd, 1);
        try {
          const JsonValue v = parse_json(line);
          const JsonValue* result = v.find("result");
          if (result == nullptr || write_json(*result) != fresh[l]) {
            mismatches.fetch_add(1);
          }
        } catch (const Error&) {
          mismatches.fetch_add(1);
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  const int fd = connect_to(port);
  const std::string stats_req = "{\"kind\":\"stats\"}\n{\"kind\":\"shutdown\"}\n";
  ASSERT_GE(::send(fd, stats_req.data(), stats_req.size(), MSG_NOSIGNAL), 0);
  std::istringstream lines(recv_lines(fd, 2));
  std::string stats_line;
  ASSERT_TRUE(std::getline(lines, stats_line));
  const JsonValue stats = parse_response(stats_line);
  const JsonValue* serve = stats.find("result")->find("serve");
  EXPECT_EQ(serve->find("admitted")->as_unsigned(), kClients * 4u);
  EXPECT_EQ(serve->find("shed")->as_unsigned(), 0u);
  ::close(fd);
  daemon.join();
}

TEST(Serve, OverloadShedsWithRetryAfterHintAndWithoutErrorCount) {
  // One slot, no queue; a delay failpoint pins the slot busy long enough
  // for a racing request to be shed deterministically.
  Server server(ServeOptions{.max_active = 1, .max_queue = 0});
  arm_failpoints("flow.schedule=delay:400");
  std::thread holder([&] {
    const JsonValue resp = parse_response(server.handle_line(
        R"({"kind":"run","suite":"fir2","latency":3})"));
    EXPECT_TRUE(response_ok(resp));  // delayed, not failed
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const JsonValue shed = parse_response(server.handle_line(
      R"({"kind":"run","suite":"fir2","latency":3})"));
  holder.join();
  disarm_failpoints();
  EXPECT_FALSE(response_ok(shed));
  EXPECT_EQ(failure_stage(shed), "overloaded");
  const JsonValue* hint = shed.find("retry_after_ms");
  ASSERT_NE(hint, nullptr);
  EXPECT_GE(hint->as_unsigned(), 1u);
  const JsonValue stats = parse_response(
      server.handle_line(R"({"kind":"stats"})"));
  const JsonValue* result = stats.find("result");
  EXPECT_EQ(result->find("serve")->find("shed")->as_unsigned(), 1u);
  EXPECT_EQ(result->find("serve")->find("admitted")->as_unsigned(), 1u);
  // Back-pressure is not an error; and once the slot frees, the same
  // request is admitted and served.
  EXPECT_EQ(result->find("requests")->find("errors")->as_unsigned(), 0u);
  EXPECT_TRUE(response_ok(parse_response(server.handle_line(
      R"({"kind":"run","suite":"fir2","latency":3})"))));
}

TEST(Serve, DeadlineCancelsMidStageWellUnderUncancelledTime) {
  // Reference: the uncancelled wall-clock of the heaviest scheduler run,
  // taken on its own server so the deadline run below starts cold — a warm
  // shared cache would let it finish before any checkpoint fires.
  const std::string line =
      R"({"kind":"run","suite":"synth-mesh8x8","latency":40,)"
      R"("scheduler":"forcedirected"})";
  double clean_ms = 0;
  {
    Server reference;
    const JsonValue clean = parse_response(reference.handle_line(line));
    ASSERT_TRUE(response_ok(clean));
    clean_ms = clean.find("ms")->as_double();
  }

  Server server;
  const JsonValue cut = parse_response(server.handle_line(
      R"({"kind":"run","suite":"synth-mesh8x8","latency":40,)"
      R"("scheduler":"forcedirected","deadline_ms":1})"));
  EXPECT_FALSE(response_ok(cut));
  EXPECT_EQ(failure_stage(cut), "deadline");
  ASSERT_NE(cut.find("retry_after_ms"), nullptr);
  // Mid-stage, not post-hoc: the abort happened at a cooperative
  // checkpoint (named in the message) and well under the uncancelled
  // time.
  const std::string message = cut.find("diagnostics")
                                  ->as_array()
                                  .front()
                                  .find("message")
                                  ->as_string();
  EXPECT_NE(message.find("cooperative checkpoint"), std::string::npos);
  EXPECT_LT(cut.find("ms")->as_double(), std::max(clean_ms / 2.0, 10.0));

  const JsonValue stats = parse_response(
      server.handle_line(R"({"kind":"stats"})"));
  const JsonValue* result = stats.find("result");
  EXPECT_EQ(result->find("serve")->find("cancelled")->as_unsigned(), 1u);
  EXPECT_EQ(
      result->find("requests")->find("deadline_exceeded")->as_unsigned(), 1u);
}

TEST(Serve, RecvFaultEndsTheConnectionWithEofNotAReset) {
  // An injected read fault sacrifices the connection before its request is
  // read. The daemon must end it with FIN, so the client reads EOF rather
  // than ECONNRESET; it counts one disconnect and serves the next client.
  Server server;
  std::ostringstream log;
  std::thread daemon;
  const unsigned port = start_daemon(server, daemon, log);

  arm_failpoints("serve.recv=error");
  const int victim = connect_to(port);
  const std::string req =
      "{\"kind\":\"run\",\"suite\":\"fir2\",\"latency\":3}\n";
  ASSERT_GE(::send(victim, req.data(), req.size(), MSG_NOSIGNAL), 0);
  char buf[256];
  errno = 0;
  const ssize_t n = ::recv(victim, buf, sizeof buf, 0);
  EXPECT_EQ(n, 0) << "recv: " << std::strerror(errno);
  ::close(victim);
  disarm_failpoints();

  const int fd = connect_to(port);
  const std::string next =
      req + "{\"kind\":\"stats\"}\n{\"kind\":\"shutdown\"}\n";
  ASSERT_GE(::send(fd, next.data(), next.size(), MSG_NOSIGNAL), 0);
  std::istringstream lines(recv_lines(fd, 3));
  std::string run_line, stats_line;
  ASSERT_TRUE(std::getline(lines, run_line));
  ASSERT_TRUE(std::getline(lines, stats_line));
  EXPECT_TRUE(response_ok(parse_response(run_line)));
  const JsonValue stats = parse_response(stats_line);
  EXPECT_EQ(stats.find("result")
                ->find("serve")
                ->find("disconnects")
                ->as_unsigned(),
            1u);
  ::close(fd);
  daemon.join();
}

TEST(Serve, KillingAClientMidResponseCountsADisconnectNotACrash) {
  Server server;
  std::ostringstream log;
  std::thread daemon;
  const unsigned port = start_daemon(server, daemon, log);

  // The victim fires a request and dies without reading the response: the
  // daemon's send hits a dead peer (EPIPE — fatal before SIGPIPE was
  // ignored and MSG_NOSIGNAL set).
  const int victim = connect_to(port);
  const std::string req =
      "{\"kind\":\"sweep\",\"suite\":\"elliptic\",\"lo\":8,\"hi\":14}\n";
  ASSERT_GE(::send(victim, req.data(), req.size(), MSG_NOSIGNAL), 0);
  struct linger hard_close {.l_onoff = 1, .l_linger = 0};
  ::setsockopt(victim, SOL_SOCKET, SO_LINGER, &hard_close, sizeof hard_close);
  ::close(victim);  // RST — the response write must fail, not kill us

  // The daemon keeps serving other clients.
  const int fd = connect_to(port);
  const std::string good =
      "{\"kind\":\"run\",\"suite\":\"fir2\",\"latency\":3}\n";
  ASSERT_GE(::send(fd, good.data(), good.size(), MSG_NOSIGNAL), 0);
  EXPECT_TRUE(response_ok(parse_response(recv_lines(fd, 1))));

  // The lost peer shows up in the ledger (possibly after a short race
  // while its connection thread finishes the failed send).
  unsigned disconnects = 0;
  for (int i = 0; i < 2000; ++i) {
    const JsonValue stats = parse_response(
        server.handle_line(R"({"kind":"stats"})"));
    disconnects = static_cast<unsigned>(stats.find("result")
                                            ->find("serve")
                                            ->find("disconnects")
                                            ->as_unsigned());
    if (disconnects >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(disconnects, 1u);

  const std::string bye = "{\"kind\":\"shutdown\"}\n";
  ASSERT_GE(::send(fd, bye.data(), bye.size(), MSG_NOSIGNAL), 0);
  (void)recv_lines(fd, 1);
  ::close(fd);
  daemon.join();
}

TEST(Serve, DrainUnblocksIdleConnections) {
  // An idle connection is parked in recv() with no bytes in flight; a
  // shutdown from another client must still drain the daemon — the joins
  // cannot wait for the idle peer to say anything.
  Server server;
  std::ostringstream log;
  std::thread daemon;
  const unsigned port = start_daemon(server, daemon, log);

  const int idle = connect_to(port);
  const int active = connect_to(port);
  const std::string bye = "{\"kind\":\"shutdown\"}\n";
  ASSERT_GE(::send(active, bye.data(), bye.size(), MSG_NOSIGNAL), 0);
  EXPECT_TRUE(response_ok(parse_response(recv_lines(active, 1))));
  daemon.join();  // would hang here if drain did not unblock `idle`
  // The drained daemon closed the idle connection's stream.
  char buf[16];
  EXPECT_LE(::recv(idle, buf, sizeof buf, 0), 0);
  ::close(idle);
  ::close(active);
}

} // namespace
} // namespace hls
