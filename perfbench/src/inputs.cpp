#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common.hpp"
#include "parser/parser.hpp"
#include "suites/suites.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace perfbench {

using hls::Dfg;

namespace {

const std::vector<std::string> kTargets = {"paper-ripple", "cla", "fast-logic"};

// Salts of the independent generator streams derived from the workload seed.
enum Salt : std::uint64_t {
  kSaltDsl = 1,
  kSaltSynthetic,
  kSaltOrder,
  kSaltServe,
  kSaltChurn,
};

/// Picks an operand: mostly one of the latest values, so the generated
/// specs have chains (critical paths) as well as fan-in.
std::string pick(Rng& rng, const std::vector<std::string>& values,
                 std::vector<bool>& used) {
  std::size_t i;
  if (values.size() > 3 && rng.next() % 100 < 60) {
    i = values.size() - 1 - rng.next() % 3;
  } else {
    i = rng.next() % values.size();
  }
  used[i] = true;
  return values[i];
}

/// A registry circuit and the latencies a workload visits. The tables are
/// frozen at the commit that defines the benchmark, so the request list never
/// depends on the code under test: a request that stops being feasible
/// counts against ok_share instead of leaving the list.
struct FrozenCircuit {
  const char* suite;
  std::vector<unsigned> latencies;
  /// Latencies of the partitioned flow, when they differ from `latencies`.
  std::vector<unsigned> partitioned = {};
};

/// The paper circuits and the extended ones at the latencies the registry
/// lists for them (Tables II/III). dct4's composed kernel path needs three
/// cycles, so its partitioned flow skips L=2.
const std::vector<FrozenCircuit> kPaperCircuits = {
    {"motivational", {3}},     {"fig3", {3}},
    {"elliptic", {4, 6, 11}},  {"diffeq", {4, 5, 6}},
    {"iir4", {5, 6}},          {"fir2", {3, 5}},
    {"IAQ", {3}},              {"TTD", {5}},
    {"OPFC + SCA", {12}},      {"ar_lattice", {4, 6, 8}},
    {"fir8", {2, 4, 6}},       {"dct4", {2, 3, 4}, {3, 4}},
};

/// fd-reject's circuits: 2x..5x each one's lowest listed latency where the
/// kernel stays under the pool floor on every target, and 1x where even 2x
/// reaches it (elliptic, diffeq, iir4). ar_lattice has 207 fragments at 1x
/// and stays out. The largest kernel is OPFC + SCA's, 188 fragments.
const std::vector<FrozenCircuit> kForceDirectedCircuits = {
    {"motivational", {6, 9, 12, 15}}, {"fig3", {6, 9, 12, 15}},
    {"elliptic", {4}},                {"diffeq", {4}},
    {"iir4", {5}},                    {"fir2", {6, 9, 12, 15}},
    {"IAQ", {6, 9, 12, 15}},          {"TTD", {10, 15, 20, 25}},
    {"OPFC + SCA", {24, 36}},         {"fir8", {4, 6}},
    {"dct4", {4, 6}},
};

/// serve-dse's registry synthetic suites, hot beside kPaperCircuits.
const std::vector<FrozenCircuit> kServeSynthetic = {
    {"synth-chain32", {4, 8}},
    {"synth-tree64", {3, 5}},
    {"synth-2kernel", {4, 7}},
};

SpecSource frozen_spec(const FrozenCircuit& c) {
  for (const hls::SuiteEntry& e : hls::registry_suites()) {
    if (e.name != c.suite) continue;
    SpecSource s;
    s.name = s.suite = e.name;
    s.graph = std::make_shared<const Dfg>(e.build());
    s.latencies = c.latencies;
    s.partitioned = c.partitioned.empty() ? c.latencies : c.partitioned;
    return s;
  }
  throw hls::Error(std::string("no registry suite named ") + c.suite);
}

std::vector<SpecSource> frozen_specs(const std::vector<FrozenCircuit>& table) {
  std::vector<SpecSource> out;
  for (const FrozenCircuit& c : table) out.push_back(frozen_spec(c));
  return out;
}

/// Latencies of the generated DSL specs. Their partitioned flow runs at
/// kDslPartitioned: the composed kernel path of a generated spec needs up to
/// 8 cycles (seen in 5000 seeds of each shape), and every spec of 3000 seeds
/// per shape was feasible at 10 on every target, narrowed or not.
const std::vector<unsigned> kDslLatencies = {3, 5};
const std::vector<unsigned> kDslPartitioned = {10};

SpecSource dsl_spec(const std::string& name, const DslShape& shape,
                    std::uint64_t seed) {
  SpecSource s;
  s.name = name;
  s.dsl = generate_dsl(name, shape, seed);
  s.latencies = kDslLatencies;
  s.partitioned = kDslPartitioned;
  return s;
}

SpecSource graph_spec(Dfg g, std::vector<unsigned> latencies) {
  SpecSource s;
  s.name = g.name();
  s.graph = std::make_shared<const Dfg>(std::move(g));
  s.partitioned = latencies;
  s.latencies = std::move(latencies);
  return s;
}

const DslShape kDslShapes[] = {{6, 10, 12}, {6, 14, 16}, {8, 18, 16}};

/// compile-cold's seed-generated specifications: DSL text with the paper's
/// op mix plus synthetic chain/tree/mesh/multi-kernel instances, all of
/// fixed size. Every generated spec is feasible at its latencies on every
/// target and flow for each of 3000 seeds checked.
std::vector<SpecSource> generated_specs(std::uint64_t seed) {
  std::vector<SpecSource> out;
  Rng dsl_rng(derive_seed(seed, kSaltDsl));
  for (unsigned i = 0; i < 9; ++i) {
    out.push_back(dsl_spec("cc_g" + std::to_string(i), kDslShapes[i % 3],
                           dsl_rng.next()));
  }
  const std::uint64_t s = derive_seed(seed, kSaltSynthetic);
  out.push_back(graph_spec(hls::synthetic_chain(24, 12, s), {4, 8}));
  out.push_back(graph_spec(hls::synthetic_tree(32, 10, s + 1), {3, 5}));
  out.push_back(graph_spec(hls::synthetic_mesh(4, 4, 10, s + 2), {4, 6}));
  out.push_back(
      graph_spec(hls::synthetic_multi_kernel(3, 6, 10, s + 3), {6, 9}));
  return out;
}

// serve-dse's traffic. No trace of real traffic to this server exists, so
// the shares are set, each to put a layer where README.md's layer map says
// it moves an end-to-end metric.
/// Hot requests per pass.
constexpr std::size_t kHotPerPass = 400;
/// Shares of run, sweep and explore. Runs are the majority, so the median
/// request is a one-point cache hit (dse.hit_ms -> latency_p50_ms); sweeps
/// and explores split the rest, and the explores carry the Explorer's
/// pruning and most of a pass's busy time (dse.explore_* -> latency_tail_ms,
/// requests_per_s).
constexpr double kKindShare[] = {0.6, 0.2, 0.2};
/// Share of requests carrying an inline DSL spec rather than a suite name:
/// a majority, so the median request parses its spec (parser.parse_ms ->
/// latency_p50_ms).
constexpr double kInlineShare = 0.6;
/// Popularity within a (kind, source) cell: Zipf with YCSB's default
/// exponent (Cooper et al., SoCC 2010).
constexpr double kZipfExponent = 0.99;
/// One churn request per this many hot ones: 4% misses, so cache writes and
/// LRU evictions run beside the hits while the median request stays a hit.
constexpr std::size_t kChurnEvery = 25;

/// `total` requests over `n` templates ranked by popularity: each at least
/// once, the rest by largest remainder over Zipf(kZipfExponent) weights.
std::vector<std::size_t> zipf_quotas(std::size_t n, std::size_t total) {
  std::vector<double> weight(n);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    weight[i] = std::pow(static_cast<double>(i + 1), -kZipfExponent);
    sum += weight[i];
  }
  std::vector<std::size_t> quota(n, 1);
  const std::size_t rest = total - n;
  std::size_t given = 0;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t i = 0; i < n; ++i) {
    const double exact = static_cast<double>(rest) * weight[i] / sum;
    const auto whole = static_cast<std::size_t>(exact);
    quota[i] += whole;
    given += whole;
    remainders.emplace_back(exact - static_cast<double>(whole), i);
  }
  std::stable_sort(
      remainders.begin(), remainders.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t j = 0; given < rest; ++j, ++given) {
    ++quota[remainders[j].second];
  }
  return quota;
}

/// The hot request templates of one kind over `specs`, most popular first:
/// spec order, a spec's optimized run before its partitioned one. Fixed
/// points, so the artefacts a hit copies are the same every seed: optimized
/// at the lowest latency on paper-ripple, partitioned at its highest on cla.
std::vector<ServeRequest> templates(const std::string& kind,
                                    const std::vector<SpecSource>& specs) {
  std::vector<ServeRequest> out;
  for (const SpecSource& s : specs) {
    const unsigned lo = s.latencies.front();
    const unsigned hi = s.latencies.back();
    ServeRequest r;
    r.kind = kind;
    r.spec = s;
    if (kind == "run") {
      r.flow = "optimized";
      r.target = "paper-ripple";
      r.latency = lo;
      out.push_back(r);
      r.flow = "partitioned";
      r.target = "cla";
      r.latency = s.partitioned.back();
    } else if (kind == "sweep") {
      r.flow = "optimized";
      r.targets = {"fast-logic"};
      r.lo = lo;
      r.hi = hi + 1;
    } else {
      r.flows = {"optimized", "partitioned"};
      r.targets = {"paper-ripple", "cla"};
      r.lo = lo;
      r.hi = hi + 2;
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string json_string(const std::string& s) {
  return "\"" + hls::json_escape(s) + "\"";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += json_string(items[i]);
  }
  return out + "]";
}

} // namespace

std::string generate_dsl(const std::string& module, const DslShape& shape,
                         std::uint64_t seed) {
  Rng rng(seed);
  const std::string w = "u" + std::to_string(shape.width);
  std::ostringstream os;
  os << "module " << module << " {\n";
  std::vector<std::string> values;
  for (unsigned i = 0; i < shape.inputs; ++i) {
    values.push_back("a" + std::to_string(i));
    os << "  input " << values.back() << ": " << w << ";\n";
  }
  os << "  output o0: " << w << ";\n  output o1: " << w << ";\n"
     << "  output f: u1;\n";
  std::vector<bool> used(values.size(), false);
  std::vector<std::string> flags;
  // The op mix is an exact quota per spec (largest remainder over these
  // shares), so every seed gets the same mix; the seed orders and wires it.
  enum Op { kAdd, kSub, kConstMul, kMul, kMaxMin, kGlue, kCompare, kOpCount };
  const unsigned percent[kOpCount] = {30, 20, 15, 7, 10, 8, 10};
  std::vector<Op> mix;
  std::vector<std::pair<unsigned, Op>> remainders;
  for (unsigned o = 0; o < kOpCount; ++o) {
    const unsigned scaled = shape.ops * percent[o];
    mix.insert(mix.end(), scaled / 100, static_cast<Op>(o));
    remainders.emplace_back(scaled % 100, static_cast<Op>(o));
  }
  std::stable_sort(
      remainders.begin(), remainders.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; mix.size() < shape.ops; ++i) {
    mix.push_back(remainders[i].second);
  }
  rng.shuffle(mix);
  for (unsigned k = 0; k < shape.ops; ++k) {
    const std::string x = pick(rng, values, used);
    std::string y = pick(rng, values, used);
    if (y == x) y = values[(std::find(values.begin(), values.end(), x) -
                            values.begin() + 1) % values.size()];
    std::string expr;
    if (mix[k] == kAdd) {
      expr = x + " + " + y;
    } else if (mix[k] == kSub) {
      expr = x + " - " + y;
    } else if (mix[k] == kConstMul) {
      const unsigned bits = rng.range(2, 4);
      expr = x + " * " + std::to_string(rng.range(3, (1u << bits) - 1)) +
             ":u" + std::to_string(bits);
    } else if (mix[k] == kMul) {
      expr = x + "[5:0] * " + y + "[5:0]";
    } else if (mix[k] == kMaxMin) {
      expr = std::string(rng.next() % 2 ? "max(" : "min(") + x + ", " + y + ")";
    } else if (mix[k] == kGlue) {
      const char* ops[] = {" & ", " | ", " ^ "};
      expr = x + ops[rng.next() % 3] + y;
    } else {
      // A comparison feeds the 1-bit flag output; the value stream still
      // grows by one addition so every spec has `ops` arithmetic values.
      flags.push_back("(" + x + " < " + y + ")");
      expr = x + " + " + y;
    }
    values.push_back("v" + std::to_string(k));
    used.push_back(false);
    os << "  let " << values.back() << ": " << w << " = " << expr << ";\n";
  }
  // Every value stays live: the unused ones fold into o0.
  std::string sinks;
  for (std::size_t i = shape.inputs; i + 1 < values.size(); ++i) {
    if (used[i]) continue;
    sinks += (sinks.empty() ? "" : " ^ ") + values[i];
  }
  if (sinks.empty()) sinks = values[shape.inputs] + " ^ a0";
  os << "  o0 = " << sinks << ";\n  o1 = " << values.back() << ";\n";
  if (flags.empty()) flags.push_back("(" + values.back() + " < a0)");
  std::string flag_expr;
  for (const std::string& f : flags) {
    flag_expr += (flag_expr.empty() ? "" : " ^ ") + f;
  }
  os << "  f = " << flag_expr << ";\n}\n";
  return os.str();
}

Dfg SpecSource::build() const {
  return dsl.empty() ? *graph : hls::parse_spec(dsl);
}

std::string CompileJob::label(const std::vector<SpecSource>& specs) const {
  return specs[spec].name + "/" + flow + "/" + scheduler + "/" + target +
         "/L" + std::to_string(latency) + (narrow ? "/narrow" : "");
}

CompileWorkload make_compile_cold(std::uint64_t seed) {
  CompileWorkload w;
  w.specs = frozen_specs(kPaperCircuits);
  for (SpecSource& s : generated_specs(seed)) w.specs.push_back(std::move(s));
  // The full grid flows x targets x latencies over every spec, so each seed
  // sees the same mix; narrowing alternates over the grid deterministically.
  const char* flows[] = {"original", "optimized", "partitioned"};
  for (std::size_t s = 0; s < w.specs.size(); ++s) {
    for (const char* flow : flows) {
      const bool partitioned = std::string(flow) == "partitioned";
      const std::vector<unsigned>& lats =
          partitioned ? w.specs[s].partitioned : w.specs[s].latencies;
      for (std::size_t li = 0; li < lats.size(); ++li) {
        for (std::size_t ti = 0; ti < kTargets.size(); ++ti) {
          CompileJob j;
          j.spec = s;
          j.flow = flow;
          j.scheduler = "list";
          j.target = kTargets[ti];
          j.latency = lats[li];
          j.narrow = j.flow != "original" && (li + ti) % 2 == 1;
          j.emit_rtl = true;
          w.jobs.push_back(std::move(j));
        }
      }
    }
  }
  Rng(derive_seed(seed, kSaltOrder)).shuffle(w.jobs);
  return w;
}

CompileWorkload make_fd_reject(std::uint64_t seed) {
  CompileWorkload w;
  w.specs = frozen_specs(kForceDirectedCircuits);
  // Three seeded instances of each synthetic family, at latencies where no
  // instance of 3000 seeds came within 59 fragments of the pool floor
  // (largest: 120 chain, 133 tree, 110 mesh, 125 multi-kernel), lighter than
  // the heaviest paper circuits so the tail is the same design every seed.
  const std::vector<unsigned> family_latencies[] = {{4, 6}, {2, 3}, {3, 4},
                                                    {6, 8}};
  for (unsigned k = 0; k < 3; ++k) {
    const std::uint64_t s = derive_seed(seed, kSaltSynthetic + 16 * (k + 1));
    const std::string suffix = "_" + std::to_string(k);
    Dfg family[] = {hls::synthetic_chain(24, 12, s),
                    hls::synthetic_tree(32, 10, s + 1),
                    hls::synthetic_mesh(4, 4, 10, s + 2),
                    hls::synthetic_multi_kernel(3, 6, 10, s + 3)};
    for (unsigned f = 0; f < 4; ++f) {
      family[f].set_name(family[f].name() + suffix);
      w.specs.push_back(graph_spec(std::move(family[f]), family_latencies[f]));
    }
  }
  for (std::size_t s = 0; s < w.specs.size(); ++s) {
    for (const unsigned latency : w.specs[s].latencies) {
      for (const std::string& target : kTargets) {
        CompileJob j;
        j.spec = s;
        j.flow = "optimized";
        j.scheduler = "forcedirected";
        j.target = target;
        j.latency = latency;
        w.jobs.push_back(std::move(j));
      }
    }
  }
  Rng(derive_seed(seed, kSaltOrder)).shuffle(w.jobs);
  return w;
}

void render_line(ServeRequest& r) {
  std::string line = "{\"kind\":" + json_string(r.kind) + ",";
  line += r.spec.suite.empty() ? "\"spec\":" + json_string(r.spec.dsl)
                               : "\"suite\":" + json_string(r.spec.suite);
  if (r.kind == "run") {
    line += ",\"flow\":" + json_string(r.flow) +
            ",\"target\":" + json_string(r.target) +
            ",\"latency\":" + std::to_string(r.latency);
  } else if (r.kind == "sweep") {
    line += ",\"flow\":" + json_string(r.flow) +
            ",\"targets\":" + json_list(r.targets) +
            ",\"lo\":" + std::to_string(r.lo) +
            ",\"hi\":" + std::to_string(r.hi);
  } else {
    line += ",\"flows\":" + json_list(r.flows) +
            ",\"targets\":" + json_list(r.targets) +
            ",\"lo\":" + std::to_string(r.lo) +
            ",\"hi\":" + std::to_string(r.hi);
  }
  r.line = line + "}";
}

ServeWorkload make_serve_dse(std::uint64_t seed) {
  ServeWorkload w;
  w.seed = seed;
  std::vector<SpecSource> suites = frozen_specs(kPaperCircuits);
  for (SpecSource& s : frozen_specs(kServeSynthetic)) {
    suites.push_back(std::move(s));
  }
  std::vector<SpecSource> inline_specs;
  Rng rng(derive_seed(seed, kSaltServe));
  for (unsigned i = 0; i < 6; ++i) {
    inline_specs.push_back(dsl_spec("sd_g" + std::to_string(i),
                                    kDslShapes[i % 3], rng.next()));
  }
  // One cell per (kind, source) with an exact request count, Zipf-popular
  // within the cell, so every seed sees the same mix.
  const char* kinds[] = {"run", "sweep", "explore"};
  for (std::size_t k = 0; k < 3; ++k) {
    for (const bool inline_dsl : {true, false}) {
      std::vector<ServeRequest> cell =
          templates(kinds[k], inline_dsl ? inline_specs : suites);
      const double share =
          kKindShare[k] * (inline_dsl ? kInlineShare : 1 - kInlineShare);
      const std::vector<std::size_t> quotas = zipf_quotas(
          cell.size(),
          static_cast<std::size_t>(std::lround(kHotPerPass * share)));
      for (std::size_t i = 0; i < cell.size(); ++i) {
        w.pass.insert(w.pass.end(), quotas[i], w.hot.size());
        w.hot.push_back(std::move(cell[i]));
      }
    }
  }
  for (ServeRequest& r : w.hot) render_line(r);
  rng.shuffle(w.pass);
  const std::size_t hot_count = w.pass.size();
  std::vector<std::size_t> with_churn;
  for (std::size_t i = 0; i < hot_count; ++i) {
    with_churn.push_back(w.pass[i]);
    if (i % kChurnEvery == kChurnEvery - 1) {
      with_churn.push_back(ServeWorkload::kChurnSlot);
      ++w.churn_per_pass;
    }
  }
  w.pass = std::move(with_churn);
  return w;
}

std::vector<ServeRequest> churn_requests(const ServeWorkload& w,
                                         std::size_t pass) {
  std::vector<ServeRequest> out;
  Rng rng(derive_seed(w.seed, kSaltChurn + 1000 * pass));
  for (std::size_t j = 0; j < w.churn_per_pass; ++j) {
    ServeRequest r;
    const std::string name =
        "churn_p" + std::to_string(pass) + "_" + std::to_string(j);
    const unsigned lo = rng.range(2, 4);
    r.spec = dsl_spec(name, {6, 12, 16}, rng.next());
    // Only the optimized flow: it is feasible at every latency.
    if (j == 0) {
      // One cold exploration per pass: a new design explored, so the
      // Explorer's miss path writes to the cache beside the runs'.
      r.kind = "explore";
      r.flows = {"optimized"};
      r.targets = {"paper-ripple", "cla"};
      r.lo = 2;
      r.hi = 6;
    } else {
      r.kind = "run";
      r.flow = "optimized";
      r.target = kTargets[rng.next() % kTargets.size()];
      r.latency = lo;
    }
    render_line(r);
    out.push_back(std::move(r));
  }
  return out;
}

} // namespace perfbench
