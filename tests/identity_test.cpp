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
// Regenerate deliberately with FRAGHLS_REGEN_GOLDEN=1, which rewrites
// tests/golden/identity_digests.txt from the current build.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dse/cache.hpp"
#include "flow/json.hpp"
#include "flow/session.hpp"
#include "ir/hash.hpp"
#include "suites/suites.hpp"
#include "support/strings.hpp"

namespace hls {
namespace {

const char* const kGolden = "identity_digests.txt";

TEST(Identity, EveryFlowPointIsByteIdenticalAndPinned) {
  const Session session(SessionOptions{.workers = 1});
  std::string lines;
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
      Digest d;
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
              ++points;
              if (uncached.ok) ++ok;
            }
          }
        }
      }
      lines += strformat("%s %s %016llx%016llx\n", suite.name.c_str(),
                         flow.c_str(), static_cast<unsigned long long>(d.a),
                         static_cast<unsigned long long>(d.b));
    }
  }
  EXPECT_GT(ok, points / 2) << ok << " of " << points << " points ok";

  const std::string path = std::string(FRAGHLS_GOLDEN_DIR) + "/" + kGolden;
  if (std::getenv("FRAGHLS_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << lines;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f) << "golden file not found: " << path;
  std::ostringstream golden;
  golden << f.rdbuf();
  EXPECT_EQ(lines, golden.str());
}

} // namespace
} // namespace hls
