#pragma once
// Seeded input generation of the three workloads. Everything the program
// under test receives — DSL text, prebuilt specifications, requests — is a
// pure function of the workload seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/dfg.hpp"

namespace perfbench {

/// Generator parameters, fixed per workload so every seed sees the same
/// mix and sizes; the seed only chooses the generated contents and the
/// order. README.md lists them next to each workload's reason.
struct DslShape {
  unsigned inputs = 6;
  unsigned ops = 12;
  unsigned width = 16;
};

/// A random behavioural specification as DSL text with the paper's op mix:
/// additions and subtractions, constant and (narrow) variable
/// multiplications, max/min, comparisons and bitwise glue.
std::string generate_dsl(const std::string& module, const DslShape& shape,
                         std::uint64_t seed);

/// The specification of one request: DSL text (parsed per request, like a
/// spec file), or a prebuilt graph (paper, extended and synthetic circuits).
/// `suite` is the registry name when the circuit has one.
struct SpecSource {
  std::string name;
  std::string dsl;
  std::shared_ptr<const hls::Dfg> graph;
  std::string suite;
  std::vector<unsigned> latencies;    ///< ascending; the latencies visited
  std::vector<unsigned> partitioned;  ///< the partitioned flow's latencies

  hls::Dfg build() const;  ///< parse_spec(dsl) or a copy of graph
};

// --- compile-cold / fd-reject ------------------------------------------------

/// One uncached one-shot compile, as `fraghls spec --latency N` runs it.
struct CompileJob {
  std::size_t spec = 0;  ///< index into CompileWorkload::specs
  std::string flow;
  std::string scheduler;
  std::string target;
  unsigned latency = 0;
  bool narrow = false;
  bool emit_rtl = false;

  std::string label(const std::vector<SpecSource>& specs) const;
};

struct CompileWorkload {
  std::vector<SpecSource> specs;
  std::vector<CompileJob> jobs;  ///< one pass, in timed order
  std::size_t pass_size() const { return jobs.size(); }
};

/// Fragment count at which force-directed scheduling starts its
/// candidate-worker pool (SchedulerOptions::parallel_min_fragments): the
/// benchmark fails (exit 3) if a request reaches it.
constexpr std::size_t kPoolFloor = 192;

CompileWorkload make_compile_cold(std::uint64_t seed);
CompileWorkload make_fd_reject(std::uint64_t seed);

// --- serve-dse ---------------------------------------------------------------

/// One distinct serve request (a JSON line plus what the checks need to
/// replay it without the server).
struct ServeRequest {
  std::string kind;  ///< "run" | "sweep" | "explore"
  SpecSource spec;   ///< suite name or inline DSL
  std::string flow = "optimized";
  std::vector<std::string> flows;    ///< explore
  std::string target = "paper-ripple";
  std::vector<std::string> targets;  ///< sweep / explore
  unsigned latency = 0;              ///< run
  unsigned lo = 0, hi = 0;           ///< sweep / explore
  std::string line;                  ///< the request line sent
};

struct ServeWorkload {
  std::uint64_t seed = 0;
  std::vector<ServeRequest> hot;  ///< distinct hot requests, by popularity
  /// One pass: hot-request indices, with kChurnSlot where a churn request
  /// (a spec not seen earlier in the run) goes.
  std::vector<std::size_t> pass;
  static constexpr std::size_t kChurnSlot = static_cast<std::size_t>(-1);
  std::size_t churn_per_pass = 0;
  std::size_t pass_size() const { return pass.size(); }
};

ServeWorkload make_serve_dse(std::uint64_t seed);

/// The churn requests of pass number `pass` (0 = the warm-up pass): fresh
/// generated specs, unique per (seed, pass, slot).
std::vector<ServeRequest> churn_requests(const ServeWorkload& w,
                                         std::size_t pass);

/// Renders the request line of `r` (fills r.line).
void render_line(ServeRequest& r);

} // namespace perfbench
