// Regression tests for reconvergent glue. In the ladder below every level
// reads the level under it twice, so it has 2^depth glue paths but one
// node per level: a walk that expands glue once per path instead of once
// per node (operand sources, critical-path edges, fragment precedence)
// never finishes at depth 64. Every flow, the RTL emitter and the served
// path must handle it promptly.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "flow/session.hpp"
#include "rtl/rtl_emit.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"

namespace hls {
namespace {

constexpr unsigned kDepth = 64;

/// x_0 = A + B; x_k = x_{k-1} ^ x_{k-1} for odd k and & for even k; and
/// Y = x_64 + C.
Dfg ladder() {
  Dfg d("ladder");
  const NodeId a = d.add_input("A", 16), b = d.add_input("B", 16);
  const NodeId c = d.add_input("C", 16);
  NodeId x = d.add_op(OpKind::Add, 16, d.whole(a), d.whole(b));
  for (unsigned k = 1; k <= kDepth; ++k) {
    x = d.add_op(k % 2 == 1 ? OpKind::Xor : OpKind::And, 16, d.whole(x),
                 d.whole(x));
  }
  d.add_output("Y", d.whole(d.add_op(OpKind::Add, 16, d.whole(x), d.whole(c))));
  return d;
}

/// The same ladder as one line of the spec DSL.
std::string ladder_dsl() {
  std::string s = "module ladder { input A: u16; input B: u16; input C: u16; "
                  "output Y: u16; let x0 = A + B; ";
  for (unsigned k = 1; k <= kDepth; ++k) {
    const std::string prev = "x" + std::to_string(k - 1);
    s += "let x" + std::to_string(k) + " = " + prev +
         (k % 2 == 1 ? " ^ " : " & ") + prev + "; ";
  }
  return s + "Y = x" + std::to_string(kDepth) + " + C; }";
}

TEST(Ladder, EveryFlowAndSchedulerCompilesIt) {
  const Session session(SessionOptions{.workers = 1});
  const Dfg spec = ladder();
  for (const std::string& flow : FlowRegistry::global().names()) {
    for (const std::string scheduler : {"list", "forcedirected"}) {
      FlowRequest req{spec, flow, 2};
      req.scheduler = scheduler;
      const FlowResult r = session.run(req);
      ASSERT_TRUE(r.ok) << flow << "/" << scheduler << ": " << r.error_text();
      if (r.transform && r.schedule) {
        EXPECT_FALSE(
            emit_rtl_vhdl(*r.transform, *r.schedule, r.report.datapath).empty())
            << flow << "/" << scheduler;
      }
    }
  }
}

TEST(Ladder, ServedInlineWellWithinTwiceItsDeadline) {
  Server server(ServeOptions{.workers = 1});
  for (const std::string& flow : FlowRegistry::global().names()) {
    const std::string line = R"({"kind":"run","flow":")" + flow +
                             R"(","latency":2,"deadline_ms":200,"spec":")" +
                             json_escape(ladder_dsl()) + R"("})";
    const auto start = std::chrono::steady_clock::now();
    const std::string response = server.handle_line(line);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    const JsonValue v = parse_json(response);
    const JsonValue* ok = v.find("ok");
    ASSERT_NE(ok, nullptr) << response.substr(0, 300);
    EXPECT_TRUE(ok->as_bool()) << flow << ": " << response.substr(0, 300);
    EXPECT_LT(ms, 400.0) << flow;
  }
}

} // namespace
} // namespace hls
