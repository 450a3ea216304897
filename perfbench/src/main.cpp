// perfbench — end-to-end and per-layer benchmark of the fraghls library.
//
//   perfbench --workload <compile-cold|fd-reject|serve-dse> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 sets the workload up several times (reporting the median set-up
// time), times whole passes over its seeded request list for --seconds in a
// closed loop on one client thread, checks every output and prints the
// eight end-to-end metrics. --trace 1 replays one traced pass of every
// workload through the layers' public functions and prints the per-layer
// metrics (traced.cpp). The last line of standard output is the result
// object; everything before it is a human-readable report.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<compile-cold|fd-reject|serve-dse> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload != "compile-cold" && a.workload != "fd-reject" &&
      a.workload != "serve-dse") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// Sets the workload up kSetupReps times and times it; the first repetition
/// is timed from process start, so it also carries the registries' lazy
/// initialisation.
template <typename Runner>
double timed_setup(Runner& runner, std::uint64_t seed) {
  std::vector<double> reps;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = i == 0 ? kProcessStart : Clock::now();
    runner.setup(seed);
    reps.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  std::printf("setup_s reps:");
  for (const double s : reps) std::printf(" %.4f", s);
  std::printf("\n");
  return median(reps);
}

template <typename Runner>
int run_end_to_end(Runner& runner, const Args& args) {
  const double setup_s = timed_setup(runner, args.seed);
  std::printf("requests per pass: %zu\n", runner.workload().pass_size());
  const Measurement m = runner.measure(args.seconds);
  const double rss = peak_rss_mb();
  const CheckReport check = runner.check();
  for (const std::string& msg : check.messages) {
    std::printf("CHECK FAILED: %s\n", msg.c_str());
  }
  if (check.pool_floor_reached) {
    std::fprintf(stderr,
                 "perfbench: a force-directed request reached the %zu-fragment "
                 "candidate-pool floor\n", kPoolFloor);
    return 3;
  }
  const std::size_t failed =
      std::min(m.attempted, m.failed + check.failed_requests);
  const Tail tail = tail_of(m.latency_ms);
  std::vector<double> passes = m.pass_throughput;
  std::sort(passes.begin(), passes.end());
  std::printf("pass throughput (1/s): min %.1f, median %.1f, max %.1f\n",
              passes.front(), median(passes), passes.back());
  std::printf("wall time per request (ms): median %.4f, tail %.3f\n",
              median(m.wall_ms), tail_of(m.wall_ms).value);
  std::printf("timed: %zu passes, %zu requests; tail = p%.3f of %zu samples; "
              "checked %zu designs (%zu failed), %zu priced against original; "
              "fd max fragments %zu\n",
              m.pass_throughput.size(), m.attempted, tail.percentile,
              tail.samples, check.designs, check.failed_designs,
              check.speedup_designs, check.fd_max_fragments);
  Result result;
  result.add("setup_s", setup_s, "s");
  result.add("requests_per_s", median(m.pass_throughput), "1/s");
  result.add("latency_p50_ms", median(m.latency_ms), "ms");
  result.add("latency_tail_ms", tail.value, "ms");
  result.add("peak_rss_mb", rss, "MB");
  result.add("ok_share",
             static_cast<double>(m.attempted - failed) /
                 static_cast<double>(m.attempted),
             "ratio");
  result.add("exec_speedup_geomean", check.exec_speedup_geomean, "ratio");
  result.add("area_ratio_geomean", check.area_ratio_geomean, "ratio");
  result.print(m.attempted, failed);
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
#ifndef NDEBUG
  // A build without NDEBUG turns on SchedulerOptions::cross_check, which
  // re-simulates every oracle mutation: a different program.
  std::fprintf(stderr, "perfbench: refusing a build without NDEBUG (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  std::printf("run stamp: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "loadavg_1m=%.2f build=%s+NDEBUG\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, std::thread::hardware_concurrency(),
              loadavg_1m(), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);
  try {
    if (args.trace == 1) return run_traced(args.workload, args.seed);
    if (args.workload == "serve-dse") {
      ServeRunner runner;
      return run_end_to_end(runner, args);
    }
    CompileRunner runner(args.workload == "fd-reject");
    return run_end_to_end(runner, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
