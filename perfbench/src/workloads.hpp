#pragma once
// The three workloads, run untraced through the library's public API:
// set-up (input generation + warm-up / cache fill), the timed closed loop
// (one client thread, whole passes over the seeded request list) and the
// output checks made after it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "flow/session.hpp"
#include "inputs.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// What one timed phase observed.
struct Measurement {
  std::vector<double> latency_ms;  ///< every request's process CPU time
  std::vector<double> wall_ms;          ///< every request's wall time, in order
  std::vector<double> pass_throughput;  ///< ok requests per second, per pass
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< not ok, or output differing from its first run
};

/// Outcome of the output checks (made outside the timed phase).
struct CheckReport {
  std::size_t designs = 0;         ///< distinct designs checked
  std::size_t failed_designs = 0;
  /// Timed requests whose design failed a check (counted per occurrence).
  std::size_t failed_requests = 0;
  std::vector<std::string> messages;  ///< one per failed check, names it
  double exec_speedup_geomean = 0;
  double area_ratio_geomean = 0;
  std::size_t speedup_designs = 0;  ///< designs in the geomeans
  /// Largest force-directed kernel of the workload, in fragments (0 when
  /// it runs no force-directed request).
  std::size_t fd_max_fragments = 0;
  bool pool_floor_reached = false;
};

/// Cheap identity of one compile result, compared across every timed
/// occurrence of the request (the compile is a pure function of it).
struct Fingerprint {
  bool ok = false;
  double execution_ns = 0;
  unsigned area_gates = 0;
  std::size_t fragments = 0;
  std::size_t vhdl_bytes = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct CompileOutput {
  hls::FlowResult result;
  std::size_t vhdl_bytes = 0;
};

/// One compile, untraced: parse (DSL specs), Session::run, RTL emission on
/// designs that carry a schedule.
CompileOutput run_compile(const hls::Session& session, const SpecSource& spec,
                          const CompileJob& job);
Fingerprint fingerprint_of(const hls::FlowResult& r, std::size_t vhdl_bytes);

/// compile-cold and fd-reject.
class CompileRunner {
public:
  explicit CompileRunner(bool fd_reject) : fd_reject_(fd_reject) {}

  /// Generates the inputs and runs the untimed warm-up pass.
  void setup(std::uint64_t seed);
  Measurement measure(double seconds);
  /// One timed pass (the traced run's untraced reference).
  Measurement one_pass();
  CheckReport check() const;

  const CompileWorkload& workload() const { return w_; }
  /// The first-seen fingerprint of every job (the traced run compares its
  /// results against them).
  const std::vector<Fingerprint>& fingerprints() const { return prints_; }

private:
  void run_pass(Measurement& m);

  bool fd_reject_;
  hls::Session session_{hls::SessionOptions{.workers = 1}};
  CompileWorkload w_;
  std::vector<Fingerprint> prints_;
  std::vector<std::size_t> mismatches_;  ///< per job, timed occurrences
  std::size_t passes_ = 0;               ///< timed passes run
};

/// The serve-dse server options: one worker, one admission slot and one
/// cache shard, so the LRU byte bound is exact.
hls::ServeOptions serve_options(std::size_t cache_max_bytes);

/// serve-dse's cache bound, fixed (README.md gives its derivation). It
/// holds the hot set of every seed plus more than one pass of churn: every
/// hot request recurs within a pass, so the LRU victims are old churn
/// artefacts, churn keeps evicting, and a hot artefact is recomputed only if
/// the artefacts grow.
constexpr std::size_t kCacheMaxBytes = std::size_t{14} << 20;

bool response_ok(const std::string& response);

/// serve-dse.
class ServeRunner {
public:
  /// Generates the inputs, fills the server's cache with the hot set and
  /// runs one warm-up pass.
  void setup(std::uint64_t seed);
  Measurement measure(double seconds);
  Measurement one_pass();
  CheckReport check() const;

  const ServeWorkload& workload() const { return w_; }
  /// Next unused churn pass number (the traced run draws from it too).
  std::size_t take_churn_pass() { return next_churn_pass_++; }
  std::size_t next_churn_pass() const { return next_churn_pass_; }
  hls::Server& server() { return *server_; }

  /// Sends every hot request once, keeping the responses if asked.
  static void fill(hls::Server& server, const ServeWorkload& w,
                   std::vector<std::string>* responses);
  /// Sends one pass of `w` (churn pass number `churn_pass`) untimed.
  static void send_pass(hls::Server& server, const ServeWorkload& w,
                        std::size_t churn_pass);

private:
  void run_pass(Measurement& m);

  ServeWorkload w_;
  std::unique_ptr<hls::Server> server_;
  std::size_t next_churn_pass_ = 0;
  std::vector<std::string> first_response_;  ///< per hot request (the fill)
  std::vector<std::string> last_response_;   ///< per hot request (timed)
  std::vector<std::size_t> hot_count_;       ///< timed occurrences
  std::vector<std::pair<ServeRequest, std::string>> churn_seen_;
};

/// The flow requests a run (one) or sweep (targets x latencies, in
/// Session::run_sweep's order) of `r` makes, as the server builds them.
std::vector<hls::FlowRequest> point_requests(const ServeRequest& r,
                                             const hls::Dfg& spec);
/// The exploration an explore request `r` makes (one worker, no cache).
hls::ExploreRequest explore_request(const ServeRequest& r,
                                    const hls::Dfg& spec);

/// A result rendering in the form checks compare: re-rendered through the
/// JSON parser, an explore result without its shared cache counters.
std::string canonical_result(const std::string& json, const std::string& kind);
/// The served envelope's "result", in the same canonical form.
std::string served_result(const std::string& response, const std::string& kind);

} // namespace perfbench
