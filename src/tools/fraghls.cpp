// fraghls — command-line driver for the presynthesis transformation flow.
//
//   fraghls <spec.hls> --latency N [options]
//
// Reads a behavioural specification in the DSL (see examples/specs/), runs
// the requested flows through hls::Session and prints schedules, reports,
// and optionally the transformed behavioural VHDL or the structural RTL.
//
// The option list lives in ONE table (kOptions) that drives both the parser
// and the usage text, so the help cannot drift from the implementation.

#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dse/explorer.hpp"
#include "flow/flow.hpp"
#include "flow/json.hpp"
#include "flow/pipeline.hpp"
#include "flow/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ir/dot.hpp"
#include "ir/print.hpp"
#include "parser/parser.hpp"
#include "rtl/rtl_emit.hpp"
#include "serve/server.hpp"
#include "suites/suites.hpp"
#include "support/failpoint.hpp"
#include "rtl/testbench.hpp"
#include "rtl/vhdl.hpp"
#include "sched/core.hpp"
#include "sched/schedule.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "timing/target.hpp"

using namespace hls;

namespace {

struct Args {
  std::string spec_path;
  std::string suite;  ///< registry suite instead of a spec file (--suite)
  unsigned latency = 0;
  unsigned sweep_lo = 0, sweep_hi = 0;
  std::string flow = "all";
  // Exploration mode (--explore): axes + knobs of an ExploreRequest.
  bool explore = false;
  std::string flows_csv, schedulers_csv, targets_csv;
  unsigned budget = 0;
  ObjectiveWeights weights;
  bool objective_set = false;  ///< --objective given (resets the defaults)
  bool csv = false;
  bool no_prune = false;
  unsigned n_bits = 0;
  bool dump_dfg = false;
  bool dump_schedule = false;
  bool emit_behavioural = false;
  bool emit_rtl = false;
  bool emit_dot_graph = false;
  unsigned emit_tb_vectors = 0;
  bool narrow = false;
  std::string scheduler = "list";
  std::string target = kDefaultTargetName;
  bool pipeline = false;
  bool partition = false;
  bool timing = false;
  bool json = false;
  unsigned workers = 0;
  /// --delta / --overhead derive a modified copy of --target's delay model,
  /// registered as "<target>+cli" (the user-registration idiom, from the
  /// command line).
  std::optional<double> delta_override;
  std::optional<double> overhead_override;
  bool list_registries = false;  ///< any --list-* flag was given
  // Serving mode (--serve): JSON-lines session service (serve/server.hpp).
  bool serve = false;
  std::optional<unsigned> serve_port;  ///< TCP instead of stdin
  unsigned cache_mb = 0;               ///< serving-cache bound (0 = unbounded)
  unsigned cache_shards = 8;
  double deadline_ms = 0;              ///< default per-request deadline
  // Overload policy (serve): admission bound + queue + storm threshold.
  std::optional<unsigned> admit_max;
  std::optional<unsigned> admit_queue;
  std::optional<unsigned> storm_evictions;
  // Fault injection (support/failpoint.hpp): any mode, for chaos testing.
  std::string failpoints;              ///< --failpoints spec, "" = none
  bool list_failpoints = false;
  // Observability (obs/): whole-invocation span capture + metrics dump.
  std::string trace_path;              ///< --trace FILE, "" = tracing off
  bool metrics = false;                ///< --metrics: arm + print exposition
};

/// The three name registries the CLI fronts, as one table: drives the
/// --list-flows / --list-schedulers / --list-targets modes AND the registry
/// summary in the usage text, so neither can drift from the registries.
struct RegistryListing {
  const char* kind;  ///< "flows" | "schedulers" | "targets"
  bool selected = false;
  /// (name, description) rows; empty description for kinds without one.
  std::vector<std::pair<std::string, std::string>> (*entries)();
};

std::vector<std::pair<std::string, std::string>> names_only(
    std::vector<std::string> names) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(names.size());
  for (std::string& n : names) out.push_back({std::move(n), ""});
  return out;
}

RegistryListing kRegistries[] = {
    {"flows", false,
     [] { return names_only(FlowRegistry::global().names()); }},
    {"schedulers", false,
     [] { return names_only(SchedulerRegistry::global().names()); }},
    {"targets", false, [] {
       std::vector<std::pair<std::string, std::string>> out;
       for (const std::string& n : TargetRegistry::global().names()) {
         out.push_back({n, resolve_target(n).description});
       }
       return out;
     }},
};

/// Sorted names of one registry kind, joined for help/error text.
std::string registry_names(const char* kind) {
  for (const RegistryListing& r : kRegistries) {
    if (std::string(r.kind) == kind) {
      std::vector<std::string> names;
      for (const auto& [name, desc] : r.entries()) names.push_back(name);
      return join(names, ", ");
    }
  }
  return "";
}

void print_registry(std::ostream& os, const RegistryListing& r) {
  os << r.kind << ":\n";
  for (const auto& [name, desc] : r.entries()) {
    os << "  " << name;
    if (!desc.empty()) os << "  - " << desc;
    os << '\n';
  }
}

[[noreturn]] void usage(const char* msg = nullptr);

unsigned parse_unsigned(const std::string& v) {
  // Strict: the whole string must be digits (stoul would wrap "-1" and
  // accept trailing garbage like "3x").
  unsigned out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size()) {
    usage(("expected a non-negative number, got '" + v + "'").c_str());
  }
  return out;
}

double parse_double(const std::string& v) {
  double out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size() || out < 0) {
    usage(("expected a non-negative number, got '" + v + "'").c_str());
  }
  return out;
}

/// One CLI option: flags have a null metavar; `apply` receives the value
/// (empty for flags). The usage text is generated from this same table.
struct OptionSpec {
  const char* name;
  const char* metavar;  ///< nullptr for boolean flags
  const char* help;
  void (*apply)(Args&, const std::string&);
};

const OptionSpec kOptions[] = {
    {"--latency", "N", "time constraint in cycles (this or --sweep required)",
     [](Args& a, const std::string& v) { a.latency = parse_unsigned(v); }},
    {"--sweep", "LO..HI", "latency sweep (Fig. 4 style) instead of one latency",
     [](Args& a, const std::string& v) {
       const std::size_t dots = v.find("..");
       if (dots == std::string::npos) usage("--sweep expects LO..HI");
       a.sweep_lo = parse_unsigned(v.substr(0, dots));
       a.sweep_hi = parse_unsigned(v.substr(dots + 2));
       if (a.sweep_lo == 0 || a.sweep_hi < a.sweep_lo) {
         usage("--sweep bounds must satisfy 1 <= LO <= HI");
       }
     }},
    {"--flow", "F", "original | blc | optimized | all, or a registered flow "
                    "name (default: all)",
     [](Args& a, const std::string& v) { a.flow = v; }},
    {"--n-bits", "N", "override the cycle budget estimate (optimized flow)",
     [](Args& a, const std::string& v) { a.n_bits = parse_unsigned(v); }},
    {"--dump-dfg", nullptr, "print the parsed DFG and its kernel form",
     [](Args& a, const std::string&) { a.dump_dfg = true; }},
    {"--dump-schedule", nullptr,
     "print the optimized schedule (Fig. 2 b style)",
     [](Args& a, const std::string&) { a.dump_schedule = true; }},
    {"--emit-vhdl", nullptr,
     "print the transformed behavioural VHDL (Fig. 2 a)",
     [](Args& a, const std::string&) { a.emit_behavioural = true; }},
    {"--emit-rtl", nullptr, "print the structural RTL (FSM + datapath)",
     [](Args& a, const std::string&) { a.emit_rtl = true; }},
    {"--emit-dot", nullptr, "print the transformed DFG as Graphviz dot",
     [](Args& a, const std::string&) { a.emit_dot_graph = true; }},
    {"--emit-tb", "N", "print a self-checking VHDL testbench with N vectors",
     [](Args& a, const std::string& v) {
       a.emit_tb_vectors = parse_unsigned(v);
     }},
    {"--narrow", nullptr, "width-narrow the kernel before transforming",
     [](Args& a, const std::string&) { a.narrow = true; }},
    {"--scheduler", "S",
     "fragment scheduler by registry name (--list-schedulers; default: list)",
     [](Args& a, const std::string& v) { a.scheduler = v; }},
    {"--target", "T",
     "technology target by registry name (--list-targets; default: "
     "paper-ripple)",
     [](Args& a, const std::string& v) { a.target = v; }},
    {"--list-flows", nullptr, "list the flow registry and exit",
     [](Args& a, const std::string&) {
       a.list_registries = kRegistries[0].selected = true;
     }},
    {"--list-schedulers", nullptr, "list the scheduler registry and exit",
     [](Args& a, const std::string&) {
       a.list_registries = kRegistries[1].selected = true;
     }},
    {"--list-targets", nullptr, "list the target registry and exit",
     [](Args& a, const std::string&) {
       a.list_registries = kRegistries[2].selected = true;
     }},
    {"--pipeline", nullptr,
     "report the minimal initiation interval (optimized)",
     [](Args& a, const std::string&) { a.pipeline = true; }},
    {"--partition", nullptr,
     "run the multi-kernel 'partitioned' flow and print the per-kernel "
     "composition summary (latency split, budgets, cut edges)",
     [](Args& a, const std::string&) { a.partition = true; }},
    {"--timing", nullptr,
     "report per-stage wall-clock (parse/kernel/transform/schedule/"
     "allocate/verify)",
     [](Args& a, const std::string&) { a.timing = true; }},
    {"--json", nullptr, "machine-readable FlowResult output",
     [](Args& a, const std::string&) { a.json = true; }},
    {"--workers", "N", "worker threads for sweeps/batches (default: all cores)",
     [](Args& a, const std::string& v) { a.workers = parse_unsigned(v); }},
    {"--delta", "NS",
     "override the target's 1-bit adder delay in ns (registers a derived "
     "'<target>+cli' target)",
     [](Args& a, const std::string& v) { a.delta_override = parse_double(v); }},
    {"--overhead", "NS",
     "override the target's register/clock overhead in ns (same derived "
     "target)",
     [](Args& a, const std::string& v) {
       a.overhead_override = parse_double(v);
     }},
    {"--suite", "NAME",
     "synthesize a registry suite instead of a spec file (see suite names "
     "in the error on a typo)",
     [](Args& a, const std::string& v) { a.suite = v; }},
    {"--explore", nullptr,
     "design-space exploration over flows x schedulers x targets x "
     "latencies (needs --sweep or --latency; cached + pruned Pareto front)",
     [](Args& a, const std::string&) { a.explore = true; }},
    {"--flows", "LIST", "explore: comma-separated flow axis (default: "
                        "optimized)",
     [](Args& a, const std::string& v) { a.flows_csv = v; }},
    {"--schedulers", "LIST",
     "explore: comma-separated scheduler axis (default: --scheduler)",
     [](Args& a, const std::string& v) { a.schedulers_csv = v; }},
    {"--targets", "LIST",
     "explore: comma-separated target axis (default: --target)",
     [](Args& a, const std::string& v) { a.targets_csv = v; }},
    {"--budget", "N", "explore: evaluate at most N points (0 = unlimited)",
     [](Args& a, const std::string& v) { a.budget = parse_unsigned(v); }},
    {"--objective", "SPEC",
     "explore: ranking weights 'latency=0,cycle=1,exec=0,area=0' (unnamed "
     "keys are 0; dominance is weight-free)",
     [](Args& a, const std::string& v) {
       // Giving --objective replaces the whole default weighting (cycle=1):
       // naming only 'exec=1' must not silently keep ranking by cycle too.
       if (!a.objective_set) {
         a.weights = ObjectiveWeights{0, 0, 0, 0};
         a.objective_set = true;
       }
       if (split(v, ',').empty()) {
         usage("--objective expects KEY=WEIGHT[,KEY=WEIGHT...]");
       }
       for (const std::string& part : split(v, ',')) {
         const std::size_t eq = part.find('=');
         if (eq == std::string::npos) {
           usage("--objective expects KEY=WEIGHT[,KEY=WEIGHT...]");
         }
         const std::string key = part.substr(0, eq);
         const double w = parse_double(part.substr(eq + 1));
         if (key == "latency") {
           a.weights.latency = w;
         } else if (key == "cycle") {
           a.weights.cycle_ns = w;
         } else if (key == "exec") {
           a.weights.execution_ns = w;
         } else if (key == "area") {
           a.weights.area = w;
         } else {
           usage(("--objective keys are latency|cycle|exec|area, got '" +
                  key + "'")
                     .c_str());
         }
       }
     }},
    {"--no-prune", nullptr,
     "explore: disable dominated-bound pruning (exhaustive grid)",
     [](Args& a, const std::string&) { a.no_prune = true; }},
    {"--csv", nullptr, "explore: CSV point listing instead of tables",
     [](Args& a, const std::string&) { a.csv = true; }},
    {"--serve", nullptr,
     "session service: one JSON request per stdin line, one response line "
     "(run|sweep|explore|stats|shutdown; see README 'Serving')",
     [](Args& a, const std::string&) { a.serve = true; }},
    {"--serve-port", "P",
     "serve: listen on TCP 127.0.0.1:P instead of stdin (0 = ephemeral, "
     "port printed to stderr)",
     [](Args& a, const std::string& v) {
       a.serve_port = parse_unsigned(v);
     }},
    {"--cache-mb", "N",
     "serve: bound the artifact cache to ~N MiB, LRU-evicted (default: "
     "unbounded)",
     [](Args& a, const std::string& v) { a.cache_mb = parse_unsigned(v); }},
    {"--cache-shards", "N",
     "serve: cache lock stripes, rounded up to a power of two (default: 8)",
     [](Args& a, const std::string& v) {
       a.cache_shards = parse_unsigned(v);
     }},
    {"--deadline-ms", "MS",
     "serve: default per-request deadline (requests may override; 0 = none)",
     [](Args& a, const std::string& v) { a.deadline_ms = parse_double(v); }},
    {"--admit-max", "N",
     "serve: max concurrent run/sweep/explore requests (default: all cores)",
     [](Args& a, const std::string& v) { a.admit_max = parse_unsigned(v); }},
    {"--admit-queue", "N",
     "serve: heavy requests allowed to wait for a slot; beyond this the "
     "server sheds with an 'overloaded' envelope (default: 16)",
     [](Args& a, const std::string& v) { a.admit_queue = parse_unsigned(v); }},
    {"--storm-evictions", "N",
     "serve: cache evictions between heavy requests that trigger degraded "
     "cache-bypass mode (default: 0 = never)",
     [](Args& a, const std::string& v) {
       a.storm_evictions = parse_unsigned(v);
     }},
    {"--trace", "FILE",
     "write a Chrome trace-event JSON of this invocation's spans to FILE "
     "(open in chrome://tracing or Perfetto); --json gains a \"trace\" key",
     [](Args& a, const std::string& v) { a.trace_path = v; }},
    {"--metrics", nullptr,
     "arm the metrics registry (obs/metrics.hpp) and print its Prometheus "
     "text exposition to stderr after the run",
     [](Args& a, const std::string&) { a.metrics = true; }},
    {"--failpoints", "SPEC",
     "arm fault injection: NAME=error|delay:MS|alloc[*N],... (also the "
     "FRAGHLS_FAILPOINTS env var; see --list-failpoints)",
     [](Args& a, const std::string& v) { a.failpoints = v; }},
    {"--list-failpoints", nullptr,
     "print the failpoint registry (one name per line) and exit",
     [](Args& a, const std::string&) { a.list_failpoints = true; }},
};

[[noreturn]] void usage(const char* msg) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr << "usage: fraghls <spec.hls> (--latency N | --sweep LO..HI) "
               "[options]\n\noptions:\n";
  std::size_t width = 0;
  for (const OptionSpec& o : kOptions) {
    std::size_t w = std::string(o.name).size();
    if (o.metavar) w += 1 + std::string(o.metavar).size();
    width = std::max(width, w);
  }
  for (const OptionSpec& o : kOptions) {
    std::string left = o.name;
    if (o.metavar) left += std::string(" ") + o.metavar;
    std::cerr << "  " << left << std::string(width - left.size() + 2, ' ')
              << o.help << '\n';
  }
  // Printed from the live registries (the same table as --list-*), so the
  // help cannot drift from what is actually registered.
  std::cerr << "\nregistries:\n";
  for (const RegistryListing& r : kRegistries) {
    std::cerr << "  " << r.kind << ":"
              << std::string(12 - std::string(r.kind).size(), ' ')
              << registry_names(r.kind) << '\n';
  }
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage();
    const OptionSpec* spec = nullptr;
    for (const OptionSpec& o : kOptions) {
      if (arg == o.name) spec = &o;
    }
    if (spec) {
      std::string value;
      if (spec->metavar) {
        if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
        value = argv[++i];
      }
      spec->apply(a, value);
    } else if (!arg.empty() && arg[0] == '-') {
      usage(("unknown option " + arg).c_str());
    } else if (a.spec_path.empty()) {
      a.spec_path = arg;
    } else {
      usage("more than one spec file given");
    }
  }
  if (a.list_failpoints) {
    for (const std::string& name : failpoint_names()) {
      std::cout << name << '\n';
    }
    std::exit(0);
  }
  if (a.list_registries) {
    // Self-description mode: print the selected registries and exit
    // successfully; no spec or constraint is required.
    for (const RegistryListing& r : kRegistries) {
      if (r.selected) print_registry(std::cout, r);
    }
    std::exit(0);
  }
  if (a.serve) {
    // Serving mode: requests arrive on the protocol, so the spec/latency
    // requirements (and every point-mode flag) do not apply.
    if (!a.spec_path.empty() || !a.suite.empty() || a.latency != 0 ||
        a.sweep_lo != 0 || a.explore) {
      usage("--serve takes requests on stdin (or --serve-port); spec files, "
            "--latency/--sweep and --explore do not apply");
    }
    if (!a.trace_path.empty() || a.metrics) {
      usage("--serve observability is per-request: send \"trace\": true in a "
            "request, or the 'metrics' request kind (--trace/--metrics apply "
            "to point/sweep/explore invocations)");
    }
    return a;
  }
  if (a.serve_port || a.cache_mb != 0 || a.cache_shards != 8 ||
      a.deadline_ms != 0 || a.admit_max || a.admit_queue ||
      a.storm_evictions) {
    usage("--serve-port/--cache-mb/--cache-shards/--deadline-ms/--admit-max/"
          "--admit-queue/--storm-evictions require --serve");
  }
  if (!a.suite.empty() && !a.spec_path.empty()) {
    usage("give a spec file or --suite, not both");
  }
  if (a.spec_path.empty() && a.suite.empty()) {
    usage("no spec file (or --suite) given");
  }
  if (a.latency == 0 && a.sweep_lo == 0) {
    usage("--latency N or --sweep LO..HI is required");
  }
  if (!a.explore &&
      (a.csv || a.no_prune || a.budget != 0 || a.objective_set ||
       !a.flows_csv.empty() || !a.schedulers_csv.empty() ||
       !a.targets_csv.empty())) {
    usage("--flows/--schedulers/--targets/--budget/--objective/--no-prune/"
          "--csv require --explore");
  }
  // The converse: point-mode-only flags are rejected (not silently
  // ignored) in explore mode — the axes are --flows, the budget override
  // has no explore equivalent, and the emitters feed on one point.
  if (a.explore &&
      (a.flow != "all" || a.n_bits != 0 || a.pipeline || a.partition ||
       a.dump_dfg || a.dump_schedule || a.emit_behavioural || a.emit_rtl ||
       a.emit_dot_graph || a.emit_tb_vectors != 0)) {
    usage("--explore takes its flow axis from --flows and evaluates whole "
          "grids: --flow/--n-bits/--pipeline/--partition/--dump-*/--emit-* "
          "do not apply (name 'partitioned' in --flows instead)");
  }
  if (a.partition && a.flow != "all") {
    usage("--partition already selects the 'partitioned' flow; drop --flow");
  }
  if (a.partition && a.sweep_lo != 0) {
    usage("--partition is a point mode; use --latency N (or --explore with "
          "--flows ...,partitioned for sweeps)");
  }
  // --delta/--overhead derive a single '<target>+cli' target from --target;
  // with an explicit --targets axis that derivation would be silently
  // bypassed, so the combination is rejected (name the derived target in
  // --targets-less explore, or register a custom target in code, instead).
  if (a.explore && !a.targets_csv.empty() &&
      (a.delta_override || a.overhead_override)) {
    usage("--delta/--overhead modify --target only; with --explore use them "
          "without --targets (the derived '<target>+cli' becomes the axis)");
  }
  if (a.json && a.csv) usage("--json and --csv are mutually exclusive");
  if (a.flow != "all" && !FlowRegistry::global().contains(a.flow)) {
    usage(("--flow must be one of: all, " + registry_names("flows")).c_str());
  }
  if (!SchedulerRegistry::global().contains(a.scheduler)) {
    usage(("--scheduler must be one of: " + registry_names("schedulers"))
              .c_str());
  }
  if (!TargetRegistry::global().contains(a.target)) {
    usage(("--target must be one of: " + registry_names("targets")).c_str());
  }
  return a;
}

/// Builds the named registry suite's specification, or exits with the
/// available names (the registry_suites() list the tests and benches use).
Dfg suite_spec(const std::string& name) {
  std::vector<std::string> names;
  for (const SuiteEntry& s : registry_suites()) {
    if (s.name == name) return s.build();
    names.push_back(s.name);
  }
  usage(("unknown suite '" + name + "' (available: " + join(names, ", ") + ")")
            .c_str());
}

void print_report(const ImplementationReport& r) {
  TextTable t({"flow", "target", "latency", "cycle (deltas)", "cycle (ns)",
               "exec (ns)", "FU", "regs", "muxes", "ctrl", "total gates"});
  t.add_row({r.flow, r.target, std::to_string(r.latency),
             std::to_string(r.cycle_deltas), fixed(r.cycle_ns, 2),
             fixed(r.execution_ns, 2), std::to_string(r.area.fu_gates),
             std::to_string(r.area.reg_gates),
             std::to_string(r.area.mux_gates),
             std::to_string(r.area.controller_gates),
             std::to_string(r.area.total())});
  std::cout << t;
  std::cout << "datapath: " << describe(r.datapath) << "\n\n";
}

/// Prepends the CLI-side parse wall-clock to every result's timings (and a
/// matching note diagnostic), so `--timing --json` carries the full
/// parse/kernel/.../verify breakdown, not only the flow-side stages.
void add_parse_timing(std::vector<FlowResult>& results, double parse_ms) {
  for (FlowResult& r : results) {
    r.timings.insert(r.timings.begin(), {"parse", parse_ms});
    r.diagnostics.insert(r.diagnostics.begin(),
                         timing_note("parse", parse_ms));
  }
}

/// Prints the scheduling stage's feasibility-oracle work counters (one line
/// under the --timing stage table) for results that carry them.
void print_oracle_counters(const FlowResult& r) {
  if (!r.counters) return;
  const OracleCounters& c = *r.counters;
  std::cout << "oracle (" << r.flow << "): " << c.candidates_evaluated
            << " candidates evaluated, " << c.candidates_filtered
            << " filtered, " << c.candidates_refined << " refined, "
            << c.candidates_probed << " probed, "
            << c.candidates_rejected << " rejected, " << c.candidates_committed
            << " committed, " << c.words_repropagated
            << " words repropagated\n";
}

/// --trace FILE: the whole invocation runs under one TraceScope with a root
/// "cli" span, so every flow stage, scheduler commit batch and cache access
/// nests below it. finish() closes the root, writes the Chrome trace-event
/// document to FILE and yields the {"id":..,"spans":..} fragment the --json
/// output embeds; the destructor finishes the non-JSON paths (one stderr
/// note instead of the fragment). Without --trace every member is inert —
/// stdout is byte-identical to an untraced build.
class CliTrace {
public:
  explicit CliTrace(const std::string& path) : path_(path) {
    if (path_.empty()) return;
    scope_.emplace(true);
    root_.emplace("cli", "cli");
  }
  ~CliTrace() { finish(); }
  CliTrace(const CliTrace&) = delete;
  CliTrace& operator=(const CliTrace&) = delete;

  bool armed() const { return !path_.empty(); }

  std::string finish() {
    if (!scope_) return fragment_;
    root_.reset();
    const std::uint64_t id = scope_->trace_id();
    const std::vector<TraceSpan> spans = TraceSession::global().collect(id);
    scope_.reset();
    std::ofstream out(path_);
    out << TraceSession::chrome_json(spans) << '\n';
    if (!out) {
      std::cerr << "warning: cannot write trace to '" << path_ << "'\n";
    } else {
      std::cerr << "trace: " << spans.size() << " spans -> " << path_ << '\n';
    }
    fragment_ = strformat("{\"id\":%llu,\"spans\":%zu}",
                          static_cast<unsigned long long>(id), spans.size());
    return fragment_;
  }

private:
  std::string path_;
  std::string fragment_;  ///< cached so finish() is idempotent
  std::optional<TraceScope> scope_;
  std::optional<ScopedSpan> root_;
};

/// --metrics: dumps the process-global registry as Prometheus text
/// exposition to stderr when the invocation ends, whatever the exit path
/// (stderr so --json stdout stays a single parseable document).
struct MetricsDump {
  bool armed = false;
  ~MetricsDump() {
    if (armed) std::cerr << MetricsRegistry::global().exposition();
  }
};

/// Emits a --json document: the plain body, or — under --trace —
/// {"results":<body>,"trace":{"id":..,"spans":..}} so scripted consumers get
/// the trace handle in-band. Byte-stable (the body alone) when tracing is
/// off.
void print_json_doc(CliTrace& trace, const std::string& body) {
  if (trace.armed()) {
    std::cout << "{\"results\":" << body << ",\"trace\":" << trace.finish()
              << "}\n";
  } else {
    std::cout << body << '\n';
  }
}

/// Prints Error diagnostics to stderr; returns false when any are present.
bool check(const std::vector<FlowResult>& results) {
  bool ok = true;
  for (const FlowResult& r : results) {
    if (r.ok) continue;
    ok = false;
    for (const FlowDiagnostic& d : r.diagnostics) {
      if (d.severity == DiagSeverity::Error) {
        std::cerr << "error: flow '" << r.flow << "' [" << d.stage
                  << "]: " << d.message << '\n';
      }
    }
  }
  return ok;
}

} // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);

  // Fault injection arms before any work: env first (the chaos harness's
  // channel into subprocesses), then the explicit flag on top.
  try {
    arm_failpoints_from_env();
    if (!args.failpoints.empty()) arm_failpoints(args.failpoints);
  } catch (const Error& e) {
    usage(e.what());
  }

  // More workers than cores adds scheduling contention, not throughput —
  // worth a note (run_batch still clamps its pool to the job count).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (args.workers > hw) {
    std::cerr << "note: --workers " << args.workers
              << " exceeds hardware concurrency (" << hw
              << "); extra threads add contention, not throughput\n";
  }

  if (args.serve) {
    Server server(ServeOptions{
        .workers = args.workers,
        .cache_shards = args.cache_shards,
        .cache_max_bytes = static_cast<std::size_t>(args.cache_mb) << 20,
        .default_deadline_ms = args.deadline_ms,
        .max_active = args.admit_max.value_or(0),
        .max_queue = args.admit_queue.value_or(16),
        .storm_evictions = args.storm_evictions.value_or(0)});
    if (args.serve_port) {
      return server.serve_tcp(*args.serve_port, std::cerr);
    }
    return server.serve(std::cin, std::cout);
  }

  // Observability arms before any flow work: --metrics flips the process-
  // global registry live, --trace opens the invocation-wide scope (the root
  // "cli" span every stage span nests under). Both default off, and off
  // means every instrumented site is a relaxed-load no-op.
  if (args.metrics) MetricsRegistry::arm_global();
  const MetricsDump metrics_dump{args.metrics};
  CliTrace trace(args.trace_path);

  // --delta / --overhead derive a modified target and register it next to
  // the builtins — the same registration path user code uses.
  if (args.delta_override || args.overhead_override) {
    Target derived = resolve_target(args.target);
    derived.name = args.target + "+cli";
    derived.description = "CLI-derived from '" + args.target + "'";
    if (args.delta_override) derived.delay.delta_ns = *args.delta_override;
    if (args.overhead_override) {
      derived.delay.sequential_overhead_ns = *args.overhead_override;
    }
    TargetRegistry::global().register_target(derived);
    args.target = derived.name;
  }
  const Target target = resolve_target(args.target);

  std::stringstream buffer;
  if (args.suite.empty()) {
    std::ifstream file(args.spec_path);
    if (!file) {
      std::cerr << "error: cannot open '" << args.spec_path << "'\n";
      return 1;
    }
    buffer << file.rdbuf();
  }

  try {
    const auto parse_t0 = std::chrono::steady_clock::now();
    const Dfg spec = [&] {
      // Spans the spec-obtaining step (DSL parse or suite build) so a traced
      // invocation carries the same "parse" stage the --timing table does.
      ScopedSpan span("parse", "flow");
      return args.suite.empty() ? parse_spec(buffer.str())
                                : suite_spec(args.suite);
    }();
    const double parse_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - parse_t0)
            .count();
    if (!args.json && !args.csv) {
      std::cout << "parsed '" << spec.name() << "': " << summarize(spec);
      if (args.timing) std::cout << strformat(" (%.3f ms)", parse_ms);
      std::cout << "\n\n";
    }
    if (args.dump_dfg) {
      std::cout << to_string(spec) << '\n';
    }

    FlowOptions opt;
    opt.narrow = args.narrow;
    opt.timing = args.timing;
    const Session session({.workers = args.workers});

    if (args.explore) {
      // Design-space exploration: flows x schedulers x targets x latencies
      // through hls::Explorer (shared ArtifactCache + §3.2 bound pruning +
      // live Pareto front). Emitter/dump flags are point-mode only.
      ExploreRequest ereq;
      ereq.spec = spec;
      if (!args.flows_csv.empty()) ereq.flows = split(args.flows_csv, ',');
      ereq.schedulers = args.schedulers_csv.empty()
                            ? std::vector<std::string>{args.scheduler}
                            : split(args.schedulers_csv, ',');
      ereq.targets = args.targets_csv.empty()
                         ? std::vector<std::string>{args.target}
                         : split(args.targets_csv, ',');
      ereq.latency_lo = args.sweep_lo != 0 ? args.sweep_lo : args.latency;
      ereq.latency_hi = args.sweep_lo != 0 ? args.sweep_hi : args.latency;
      ereq.options = opt;
      ereq.weights = args.weights;
      ereq.budget = args.budget;
      ereq.prune = !args.no_prune;
      ereq.workers = args.workers;
      const ExploreResult er = Explorer().run(ereq);
      if (args.json) {
        print_json_doc(trace, to_json(er));
      } else if (args.csv) {
        std::cout << to_csv(er);
      } else {
        std::size_t budget_pruned = 0;
        for (const PrunedPoint& p : er.pruned) {
          if (p.reason == "budget") ++budget_pruned;
        }
        std::cout << "explored " << er.evaluated << " points (" << er.failed
                  << " failed, " << er.pruned.size() - budget_pruned
                  << " pruned as dominated, " << budget_pruned
                  << " over budget)";
        if (args.timing) std::cout << strformat(" in %.1f ms", er.wall_ms);
        std::cout << "\n\n";
        if (!er.frontier.empty()) {
          TextTable t({"flow", "scheduler", "target", "latency", "cycle (ns)",
                       "exec (ns)", "area (gates)", "score", ""});
          for (const std::size_t i : er.frontier) {
            const ExplorePoint& p = er.points[i];
            t.add_row({p.flow, p.scheduler, p.target,
                       std::to_string(p.latency),
                       fixed(p.objectives.cycle_ns, 2),
                       fixed(p.objectives.execution_ns, 1),
                       std::to_string(p.objectives.area_gates),
                       fixed(p.score, 2),
                       er.best && *er.best == i ? "<- best" : ""});
          }
          std::cout << "Pareto frontier (" << er.frontier.size() << " of "
                    << er.evaluated << " points):\n"
                    << t;
        }
        const CacheStats::Counter total = er.cache_stats.total();
        std::cout << "\nartifact cache: " << total.hits << " hits, "
                  << total.misses << " misses ("
                  << pct(total.hit_rate()) << " hit rate)\n";
      }
      for (const FlowDiagnostic& d : er.diagnostics) {
        if (d.severity == DiagSeverity::Error) {
          std::cerr << "error: explore [" << d.stage << "]: " << d.message
                    << '\n';
        }
      }
      return er.ok && !er.frontier.empty() ? 0 : 1;
    }

    if (args.sweep_lo != 0) {
      // Latency sweep (Fig. 4): original vs optimized per latency, executed
      // as one concurrent batch of 2 * (hi - lo + 1) independent jobs.
      std::vector<FlowRequest> requests;
      for (unsigned lat = args.sweep_lo; lat <= args.sweep_hi; ++lat) {
        requests.push_back(
            {spec, "original", lat, 0, opt, args.scheduler, args.target});
        // --n-bits is a single-latency override; a fixed budget across the
        // sweep would make the low-latency points infeasible.
        requests.push_back(
            {spec, "optimized", lat, 0, opt, args.scheduler, args.target});
      }
      std::vector<FlowResult> results = session.run_batch(requests);
      if (args.timing) add_parse_timing(results, parse_ms);
      const bool all_ok = check(results);
      if (args.json) {
        // Failed jobs still serialize (ok:false + diagnostics) so scripted
        // consumers see the structured error, not just the exit status.
        print_json_doc(trace, to_json(results));
        return all_ok ? 0 : 1;
      }
      if (!all_ok) return 1;
      TextTable t({"latency", "orig cycle (ns)", "opt cycle (ns)", "saved",
                   "opt exec (ns)", "opt area (gates)"});
      for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        const ImplementationReport& orig = results[i].report;
        const ImplementationReport& o = results[i + 1].report;
        t.add_row({std::to_string(orig.latency), fixed(orig.cycle_ns, 2),
                   fixed(o.cycle_ns, 2), pct(o.cycle_saving_vs(orig)),
                   fixed(o.execution_ns, 1), std::to_string(o.area.total())});
      }
      std::cout << t;
      if (args.timing) {
        TextTable tt({"flow", "latency", "stage", "wall-clock (ms)"});
        for (const FlowResult& r : results) {
          for (const StageTiming& st : r.timings) {
            tt.add_row({r.flow, std::to_string(r.report.latency), st.stage,
                        fixed(st.ms, 3)});
          }
        }
        std::cout << '\n' << tt;
        for (const FlowResult& r : results) print_oracle_counters(r);
      }
      return 0;
    }

    std::vector<FlowRequest> requests;
    const std::vector<std::string> flow_names =
        args.partition
            ? std::vector<std::string>{"partitioned"}
        : args.flow == "all"
            ? std::vector<std::string>{"original", "blc", "optimized"}
            : std::vector<std::string>{args.flow};
    for (const std::string& name : flow_names) {
      const bool budgeted = name == "optimized" || name == "partitioned";
      requests.push_back({spec, name, args.latency,
                          budgeted ? args.n_bits : 0, opt, args.scheduler,
                          args.target});
    }
    std::vector<FlowResult> results = session.run_batch(requests);
    if (args.timing) add_parse_timing(results, parse_ms);

    // Print every successful flow before reporting failures, so one
    // infeasible flow does not hide the others' reports.
    for (const FlowResult& r : results) {
      if (!r.ok) continue;
      if (!args.json) print_report(r.report);
      if (r.partition && !args.json) {
        // The composition summary of the partitioned flow: how the shared
        // latency budget was split over the kernel DAG.
        std::cout << "partition: " << r.partition->kernels.size()
                  << " operative kernel"
                  << (r.partition->kernels.size() == 1 ? "" : "s") << ", "
                  << r.partition->cut_edges << " cut edge"
                  << (r.partition->cut_edges == 1 ? "" : "s")
                  << ", composed latency " << r.partition->composed_latency
                  << " cycles\n";
        TextTable pt({"kernel", "nodes", "adds", "critical (bits)", "latency",
                      "n_bits", "start cycle"});
        for (const PartitionKernelSummary& k : r.partition->kernels) {
          pt.add_row({k.name, std::to_string(k.node_count),
                      std::to_string(k.add_count), std::to_string(k.critical),
                      std::to_string(k.latency), std::to_string(k.n_bits),
                      std::to_string(k.start_cycle)});
        }
        std::cout << pt << '\n';
      }
      if (args.timing && !args.json && !r.timings.empty()) {
        TextTable t({"flow", "stage", "wall-clock (ms)"});
        for (const StageTiming& st : r.timings) {
          t.add_row({r.flow, st.stage, fixed(st.ms, 3)});
        }
        std::cout << t;
        print_oracle_counters(r);
        std::cout << '\n';
      }
      if (r.flow != "optimized") continue;

      // The optimized flow carries artefacts the emitters feed on.
      if (args.pipeline && r.schedule) {
        const PipelineReport p =
            analyze_pipelining(*r.schedule, r.report.datapath, target.delay);
        if (args.json) {
          std::cout << to_json(p) << '\n';
        } else {
          std::cout << "pipelining: min II = " << p.min_ii << " cycles, "
                    << strformat("%.2f", p.throughput_per_us())
                    << " iterations/us, speedup x"
                    << strformat("%.2f", p.speedup()) << "\n\n";
        }
      }
      if (args.dump_dfg && r.kernel) {
        std::cout << "kernel form:\n" << to_string(*r.kernel) << '\n';
      }
      if (args.dump_schedule && r.transform && r.schedule) {
        std::cout << to_string(r.transform->spec, r.schedule->schedule)
                  << '\n';
      }
      if (args.emit_behavioural && r.transform) {
        std::cout << emit_vhdl(r.transform->spec, "beh_opt") << '\n';
      }
      if (args.emit_rtl && r.transform && r.schedule) {
        std::cout << emit_rtl_vhdl(*r.transform, *r.schedule,
                                   r.report.datapath)
                  << '\n';
      }
      if (args.emit_dot_graph && r.transform) {
        std::cout << emit_dot(r.transform->spec) << '\n';
      }
      if (args.emit_tb_vectors > 0 && r.transform) {
        std::cout << emit_testbench(*r.transform, args.emit_tb_vectors, 1)
                  << '\n';
      }
    }
    if (args.json) {
      print_json_doc(trace, to_json(results));
    }
    if (!check(results)) return 1;
  } catch (const ParseError& e) {
    std::cerr << args.spec_path << ":" << e.what() << '\n';
    return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
