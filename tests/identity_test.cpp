// Flow-identity golden: every registry suite through every builtin flow,
// scheduler, target, latency and narrow setting, pinned as one 128-bit
// digest of the uncached results' JSON per (suite, flow), and checked
// uncached == cached-cold == cached-warm at every point. Refactors of the
// flow machinery must leave every byte of every result unchanged; this is
// the property that says so.
//
// The scheduler and narrow axes apply only to the flows that
// fragment-schedule (conventional and blc ignore both). Failed points
// (infeasible latencies) are part of the grid: their JSON is pinned too.
//
// The JSON carries only datapath counts, so the same loop also pins every
// uncached result's full Datapath (bindings, registers, muxes, the stored-run
// register plan) and, where the result carries a transform and a schedule,
// the emitted RTL VHDL, in tests/golden/rtl_digests.txt. A second test pins
// force-directed schedules at relaxed latencies, where candidate windows are
// wide, in tests/golden/forcedir_wide_digests.txt.
//
// Regenerate deliberately with FRAGHLS_REGEN_GOLDEN=1, which rewrites every
// golden file a run compares against from the current build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dse/cache.hpp"
#include "flow/json.hpp"
#include "flow/session.hpp"
#include "ir/hash.hpp"
#include "rtl/rtl_emit.hpp"
#include "suites/suites.hpp"
#include "support/strings.hpp"

namespace hls {
namespace {

const char* const kGolden = "identity_digests.txt";
const char* const kRtlGolden = "rtl_digests.txt";
const char* const kWideGolden = "forcedir_wide_digests.txt";

void mix_datapath(Digest& d, const Datapath& dp) {
  d.mix(dp.fus.size());
  for (const FuInstance& fu : dp.fus) {
    d.mix(static_cast<unsigned>(fu.cls));
    d.mix(fu.width);
    d.mix(fu.width2);
    d.mix(fu.bound.size());
    for (const auto& [cycle, op] : fu.bound) {
      d.mix(cycle);
      d.mix(op.index);
    }
  }
  d.mix(dp.regs.size());
  for (const RegInstance& r : dp.regs) {
    d.mix(r.width);
    d.mix(r.first_boundary);
    d.mix(r.last_boundary);
  }
  d.mix(dp.muxes.size());
  for (const MuxInstance& m : dp.muxes) {
    d.mix(m.inputs);
    d.mix(m.width);
  }
  d.mix(dp.stored.size());
  for (const StoredRun& run : dp.stored) {
    d.mix(run.node.index);
    d.mix(run.bits.lo);
    d.mix(run.bits.width);
    d.mix(run.produced);
    d.mix(run.last_use);
    d.mix(run.reg);
  }
  d.mix(dp.states);
  d.mix(dp.control_signals);
}

std::string hex(const Digest& d) {
  return strformat("%016llx%016llx", static_cast<unsigned long long>(d.a),
                   static_cast<unsigned long long>(d.b));
}

/// Compares `lines` with the golden file `name`, rewriting it first when
/// FRAGHLS_REGEN_GOLDEN is set.
void expect_golden(const std::string& lines, const char* name) {
  const std::string path = std::string(FRAGHLS_GOLDEN_DIR) + "/" + name;
  if (std::getenv("FRAGHLS_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << lines;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f) << "golden file not found: " << path;
  std::ostringstream golden;
  golden << f.rdbuf();
  EXPECT_EQ(lines, golden.str()) << name;
}

TEST(Identity, EveryFlowPointIsByteIdenticalAndPinned) {
  const Session session(SessionOptions{.workers = 1});
  std::string lines, rtl_lines;
  std::size_t points = 0, ok = 0;
  for (const SuiteEntry& suite : registry_suites()) {
    const Dfg spec = suite.build();
    for (const std::string flow :
         {"conventional", "blc", "optimized", "partitioned"}) {
      const bool fragments = flow == "optimized" || flow == "partitioned";
      const std::vector<std::string> schedulers =
          fragments ? std::vector<std::string>{"list", "forcedirected"}
                    : std::vector<std::string>{"list"};
      const std::vector<bool> narrows =
          fragments ? std::vector<bool>{false, true} : std::vector<bool>{false};
      Digest d, datapath, vhdl;
      std::size_t emitted = 0;
      for (const std::string& scheduler : schedulers) {
        for (const unsigned latency : suite.latencies) {
          for (const std::string target : {"paper-ripple", "cla"}) {
            for (const bool narrow : narrows) {
              FlowRequest req;
              req.spec = spec;
              req.flow = flow;
              req.latency = latency;
              req.scheduler = scheduler;
              req.target = target;
              req.options.narrow = narrow;
              const FlowResult uncached = session.run(req);
              const std::string json = to_json(uncached);
              req.cache = std::make_shared<ArtifactCache>();
              const std::string cold = to_json(session.run(req));
              const std::string warm = to_json(session.run(req));
              const std::string where =
                  strformat("%s/%s/%s/L%u/%s/narrow=%d", suite.name.c_str(),
                            flow.c_str(), scheduler.c_str(), latency,
                            target.c_str(), narrow ? 1 : 0);
              EXPECT_EQ(cold, json) << where;
              EXPECT_EQ(warm, json) << where;
              d.mix_bytes(json.data(), json.size());
              mix_datapath(datapath, uncached.report.datapath);
              if (uncached.transform && uncached.schedule) {
                const std::string rtl = emit_rtl_vhdl(
                    *uncached.transform, *uncached.schedule,
                    uncached.report.datapath);
                vhdl.mix_bytes(rtl.data(), rtl.size());
                ++emitted;
              }
              ++points;
              if (uncached.ok) ++ok;
            }
          }
        }
      }
      lines += suite.name + " " + flow + " " + hex(d) + "\n";
      rtl_lines += suite.name + " " + flow + " datapath " + hex(datapath) + "\n";
      if (emitted > 0) {
        rtl_lines += suite.name + " " + flow + " vhdl " + hex(vhdl) + "\n";
      }
    }
  }
  EXPECT_GT(ok, points / 2) << ok << " of " << points << " points ok";

  expect_golden(lines, kGolden);
  expect_golden(rtl_lines, kRtlGolden);
}

TEST(Identity, ForceDirectedWideWindowsArePinned) {
  // The registry latencies above leave force-directed scheduling narrow
  // windows; relaxed latencies give every fragment many candidate cycles.
  // Pin the optimized flow's force-directed schedules at 2x and 3x each
  // suite's lowest latency: the result JSON plus every schedule row and
  // merged adder op, one digest per suite.
  const Session session(SessionOptions{.workers = 1});
  std::string lines;
  for (const SuiteEntry& suite : registry_suites()) {
    const Dfg spec = suite.build();
    const unsigned lowest =
        *std::min_element(suite.latencies.begin(), suite.latencies.end());
    Digest d;
    for (const unsigned factor : {2u, 3u}) {
      for (const std::string target : {"paper-ripple", "cla"}) {
        for (const bool narrow : {false, true}) {
          FlowRequest req;
          req.spec = spec;
          req.flow = "optimized";
          req.latency = factor * lowest;
          req.scheduler = "forcedirected";
          req.target = target;
          req.options.narrow = narrow;
          const FlowResult r = session.run(req);
          const std::string json = to_json(r);
          d.mix_bytes(json.data(), json.size());
          ASSERT_TRUE(r.schedule) << suite.name << " L" << req.latency;
          for (const ScheduleRow& row : r.schedule->schedule.rows) {
            d.mix(row.op.index);
            d.mix(row.cycle);
            d.mix(row.bits.lo);
            d.mix(row.bits.width);
          }
          for (const FragSchedule::FuOp& op : r.schedule->fu_ops) {
            d.mix(op.orig.index);
            d.mix(op.bits.lo);
            d.mix(op.bits.width);
            d.mix(op.cycle);
            d.mix(op.nodes.size());
            for (const NodeId n : op.nodes) d.mix(n.index);
          }
        }
      }
    }
    lines += suite.name + " " + hex(d) + "\n";
  }
  expect_golden(lines, kWideGolden);
}

} // namespace
} // namespace hls
