// Repository-wide property and fuzz tests: random specifications through the
// whole pipeline, scheduler cross-checks, emitter robustness, parser fuzz.

#include <gtest/gtest.h>

#include <random>

#include "alloc/bitlevel.hpp"
#include "testutil.hpp"
#include "ir/builder.hpp"
#include "ir/dot.hpp"
#include "ir/print.hpp"
#include "parser/parser.hpp"
#include "rtl/cycle_sim.hpp"
#include "rtl/rtl_emit.hpp"
#include "rtl/vhdl.hpp"
#include "sched/forcedir.hpp"
#include "suites/suites.hpp"

namespace hls {
namespace {

/// Random mixed-operation specification. Sizes stay modest so the whole
/// pipeline (including multiplier decomposition) remains fast per case.
Dfg random_spec(std::mt19937_64& rng, unsigned n_ops) {
  SpecBuilder b("fuzz");
  std::vector<Val> pool;
  const unsigned n_in = 2 + rng() % 3;
  for (unsigned i = 0; i < n_in; ++i) {
    const unsigned w = 2 + rng() % 14;
    pool.push_back(rng() % 4 == 0 ? b.signed_in("i" + std::to_string(i), w)
                                  : b.in("i" + std::to_string(i), w));
  }
  for (unsigned i = 0; i < n_ops; ++i) {
    const Val& x = pool[rng() % pool.size()];
    const Val& y = pool[rng() % pool.size()];
    const unsigned w = std::max(x.width(), y.width());
    switch (rng() % 10) {
      case 0: pool.push_back(x + y); break;
      case 1: pool.push_back(x - y); break;
      case 2:
        pool.push_back(b.mul(x, y, std::min(16u, x.width() + y.width()),
                             rng() % 2 == 0));
        break;
      case 3: pool.push_back(b.max(x, y, rng() % 2 == 0)); break;
      case 4: pool.push_back(b.min(x, y, rng() % 2 == 0)); break;
      case 5:
        pool.push_back(b.zext(
            b.cmp(static_cast<OpKind>(static_cast<int>(OpKind::Lt) + rng() % 6),
                  x, y, rng() % 2 == 0),
            1 + rng() % 4));
        break;
      case 6: pool.push_back(x ^ y); break;
      case 7: pool.push_back(b.add(x, y, w + 1)); break;
      case 8:
        if (x.width() > 2) {
          const unsigned lsb = rng() % (x.width() - 1);
          const unsigned msb = lsb + rng() % (x.width() - lsb);
          pool.push_back(x.slice(msb, lsb) + y);
          break;
        }
        [[fallthrough]];
      default: pool.push_back(b.neg(x)); break;
    }
  }
  // A couple of outputs keep more of the graph live.
  b.out("o0", pool.back());
  b.out("o1", pool[pool.size() / 2]);
  return std::move(b).take();
}

InputValues random_inputs(const Dfg& d, std::mt19937_64& rng) {
  InputValues in;
  for (NodeId id : d.inputs()) in[d.node(id).name] = rng();
  return in;
}

TEST(PipelineProperty, RandomSpecsSurviveTheWholeFlow) {
  std::mt19937_64 rng(0xF5A6);
  for (unsigned trial = 0; trial < 60; ++trial) {
    const Dfg original = random_spec(rng, 4 + rng() % 10);
    const unsigned latency = 1 + rng() % 8;
    FlowResult o;
    try {
      o = testutil::run_optimized(original, latency);
    } catch (const Error& e) {
      FAIL() << "flow failed on trial " << trial << ": " << e.what();
    }
    const Netlist nl = lower_rtl(*o.transform, *o.schedule, o.report.datapath);
    for (int i = 0; i < 25; ++i) {
      const InputValues in = random_inputs(original, rng);
      const OutputValues expect = evaluate(original, in);
      EXPECT_EQ(evaluate(o.transform->spec, in), expect) << "trial " << trial;
      EXPECT_EQ(simulate_netlist(nl, o.transform->spec, in), expect)
          << "trial " << trial;
    }
  }
}

TEST(PipelineProperty, SchedulersAgreeOnSemantics) {
  // List and force-directed schedules may differ, but allocation + cycle
  // simulation over either must compute the same outputs.
  std::mt19937_64 rng(0xBEEF);
  for (unsigned trial = 0; trial < 15; ++trial) {
    const Dfg original = random_spec(rng, 4 + rng() % 6);
    const unsigned latency = 2 + rng() % 5;
    const Dfg kernel = extract_kernel(original);
    const TransformResult t = transform_spec(kernel, latency);
    const FragSchedule ls = schedule_transformed(t);
    const FragSchedule fd = schedule_transformed_forcedirected(t);
    const Netlist nls = lower_rtl(t, ls, allocate_bitlevel(t, ls));
    const Netlist nfd = lower_rtl(t, fd, allocate_bitlevel(t, fd));
    for (int i = 0; i < 10; ++i) {
      const InputValues in = random_inputs(original, rng);
      EXPECT_EQ(simulate_netlist(nls, t.spec, in),
                simulate_netlist(nfd, t.spec, in))
          << "trial " << trial;
    }
  }
}

TEST(PipelineProperty, OpCountNeverShrinksAndBudgetIsMet) {
  std::mt19937_64 rng(0xCAFE);
  for (unsigned trial = 0; trial < 30; ++trial) {
    const Dfg original = random_spec(rng, 3 + rng() % 8);
    const Dfg kernel = extract_kernel(original);
    const unsigned latency = 1 + rng() % 6;
    const TransformResult t = transform_spec(kernel, latency);
    EXPECT_GE(t.spec.additive_op_count(), kernel.additive_op_count());
    const FragSchedule fs = schedule_transformed(t);
    // The defining guarantee: the schedule meets the estimated budget.
    EXPECT_EQ(fs.schedule.cycle_deltas, t.n_bits);
    EXPECT_NO_THROW(validate_schedule(t.spec, fs.schedule));
  }
}

TEST(EmitterProperty, EmittersNeverCrashOnRandomSpecs) {
  std::mt19937_64 rng(0xD00D);
  for (unsigned trial = 0; trial < 25; ++trial) {
    const Dfg original = random_spec(rng, 3 + rng() % 8);
    const FlowResult o = testutil::run_optimized(original, 1 + rng() % 5);
    EXPECT_FALSE(emit_vhdl(o.transform->spec).empty());
    EXPECT_FALSE(emit_dot(o.transform->spec).empty());
    EXPECT_FALSE(
        emit_rtl_vhdl(*o.transform, *o.schedule, o.report.datapath).empty());
    EXPECT_FALSE(to_string(o.transform->spec).empty());
  }
}

TEST(Dot, RendersStructure) {
  const std::string dot = emit_dot(motivational());
  EXPECT_NE(dot.find("digraph \"example\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // ports
  EXPECT_NE(dot.find("palegreen"), std::string::npos);      // adds
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Carry edges of a transformed spec are dashed red.
  const FlowResult o = testutil::run_optimized(motivational(), 3);
  const std::string dot2 = emit_dot(o.transform->spec);
  EXPECT_NE(dot2.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot2.find("color=red"), std::string::npos);
}

TEST(ParserFuzz, GarbageNeverCrashesOnlyThrows) {
  std::mt19937_64 rng(0x5EED);
  const char* fragments[] = {"module", "input", "output", "let", "{", "}",
                             "(",      ")",     "[",      "]",   ":",  ";",
                             "u8",     "s4",    "x",      "y",   "+",  "*",
                             "-",      "<",     "==",     "5",   "0x2", ",",
                             "=",      "zext",  "max",    "cat", "~",  "|"};
  for (unsigned trial = 0; trial < 400; ++trial) {
    std::string src;
    const unsigned len = rng() % 40;
    for (unsigned i = 0; i < len; ++i) {
      src += fragments[rng() % std::size(fragments)];
      src += ' ';
    }
    try {
      const Dfg d = parse_spec(src);
      d.verify();  // if it parsed, it must be a well-formed DFG
    } catch (const ParseError&) {
      // expected for almost every sample
    } catch (const Error&) {
      // semantic rejection is fine too
    }
  }
}

TEST(ParserFuzz, RandomBytesNeverCrash) {
  std::mt19937_64 rng(0xB17E);
  for (unsigned trial = 0; trial < 300; ++trial) {
    std::string src;
    const unsigned len = rng() % 60;
    for (unsigned i = 0; i < len; ++i) {
      src += static_cast<char>(32 + rng() % 95);  // printable ASCII
    }
    try {
      parse_spec(src);
    } catch (const Error&) {
      // any hls::Error (incl. ParseError) is acceptable; crashes are not
    }
  }
}

TEST(ExtendedSuites, ProfilesAndEquivalence) {
  EXPECT_EQ(extended_suites().size(), 3u);
  std::mt19937_64 rng(0xAB);
  for (const SuiteEntry& s : extended_suites()) {
    const Dfg d = s.build();
    d.verify();
    const FlowResult o = testutil::run_optimized(d, s.latencies.front());
    const Netlist nl = lower_rtl(*o.transform, *o.schedule, o.report.datapath);
    for (int i = 0; i < 20; ++i) {
      const InputValues in = random_inputs(d, rng);
      EXPECT_EQ(simulate_netlist(nl, o.transform->spec, in), evaluate(d, in))
          << s.name;
    }
  }
}

TEST(ExtendedSuites, Fir8ComputesConvolution) {
  const Dfg d = fir8();
  InputValues in;
  for (int i = 0; i < 8; ++i) in["x" + std::to_string(i)] = (i == 3) ? 1 : 0;
  // Impulse at tap 3 picks out coefficient 31.
  EXPECT_EQ(evaluate(d, in).at("y"), 31u);
}

TEST(ExtendedSuites, Dct4DcInput) {
  const Dfg d = dct4();
  const InputValues in{{"x0", 10}, {"x1", 10}, {"x2", 10}, {"x3", 10}};
  const OutputValues out = evaluate(d, in);
  EXPECT_EQ(out.at("X2"), 0u);  // flat input has no X2 component
  EXPECT_EQ(out.at("X1"), 0u);  // d03 = d12 = 0 kills the odd outputs
  EXPECT_EQ(out.at("X3"), 0u);
  EXPECT_EQ(out.at("X0"), truncate(40u * 23u, 16));
}

} // namespace
} // namespace hls
