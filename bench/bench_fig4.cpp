// Fig. 4 — cycle length of the schedules obtained from the original and the
// optimized specification as a function of the circuit latency (3..15).
//
// The paper's claim: the curves diverge as latency grows, because the
// conventional cycle bottoms out at the slowest atomic operation while the
// fragmented cycle keeps shrinking (~critical_path / latency). We plot
// diffeq (multiplier-bound baseline: the clearest divergence) and elliptic.
//
// Each series is one Session::run_sweep — a concurrent batch of independent
// (spec, latency) jobs.

#include <iostream>

#include "flow/session.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "suites/suites.hpp"

using namespace hls;

namespace {

bool plot_series(const Session& session, const Dfg& d, const char* name) {
  std::cout << "--- " << name << " ---\n";
  const std::vector<FlowResult> orig = session.run_sweep({d, "original"}, 3, 15);
  const std::vector<FlowResult> opt = session.run_sweep({d, "optimized"}, 3, 15);

  TextTable t({"Latency", "Original (ns)", "Optimized (ns)", "Gap (ns)"});
  std::vector<double> gap;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const ImplementationReport& o = orig[i].require().report;
    const ImplementationReport& p = opt[i].require().report;
    gap.push_back(o.cycle_ns - p.cycle_ns);
    t.add_row({std::to_string(o.latency), fixed(o.cycle_ns, 2),
               fixed(p.cycle_ns, 2), fixed(gap.back(), 2)});
  }
  std::cout << t;

  // ASCII rendering of the two curves, paper-style.
  std::cout << "\n  cycle length (each # ~ 2 ns; O = original, + = optimized)\n";
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const unsigned o =
        static_cast<unsigned>(orig[i].report.cycle_ns / 2.0 + 0.5);
    const unsigned p =
        static_cast<unsigned>(opt[i].report.cycle_ns / 2.0 + 0.5);
    std::string line(std::max(o, p) + 1, ' ');
    for (unsigned k = 0; k < p; ++k) line[k] = '+';
    line[o] = 'O';
    std::cout << strformat("  %2u |", orig[i].report.latency) << line << '\n';
  }
  std::cout << '\n';

  // Divergence check over the flat region of the baseline.
  const bool diverges = gap.back() > gap.front() * 0.5 &&
                        gap[gap.size() - 1] >= gap[gap.size() - 6];
  return diverges;
}

} // namespace

int main() {
  std::cout << "=== Fig. 4: cycle length vs latency ===\n\n";
  const Session session;
  const bool d1 =
      plot_series(session, diffeq(), "diffeq (multiplier-bound baseline)");
  plot_series(session, elliptic(), "elliptic");

  std::cout << (d1 ? "Fig. 4 divergence check PASSED.\n"
                   : "Fig. 4 divergence check FAILED.\n");
  return d1 ? 0 : 1;
}
