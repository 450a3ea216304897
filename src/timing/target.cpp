#include "timing/target.hpp"

namespace hls {

namespace {

Target make_paper_ripple() {
  Target t;
  t.name = kDefaultTargetName;
  t.description =
      "Table I ripple-carry library (the paper's model): 1 delta per "
      "chained bit";
  return t;  // default DelayModel/GateModel are the calibrated constants
}

Target make_cla() {
  Target t;
  t.name = "cla";
  t.description =
      "carry-lookahead adders: a w-bit chained window settles in "
      "~2+log2(w) deltas, prefix network costs extra adder area";
  t.delay.style = AdderStyle::CarryLookahead;
  // The prefix-tree PG/carry network roughly half-again the ripple cell:
  // coarse, but keeps the area comparison honest (faster adders are not
  // free) without pretending to a gate-accurate CLA netlist.
  t.gates.adder_gates_per_bit = 14;
  return t;
}

Target make_fast_logic() {
  Target t;
  t.name = "fast-logic";
  t.description =
      "scaled-delta example: the ripple structure on a 2x faster logic "
      "family (same schedules, shorter ns)";
  t.delay.delta_ns = 0.25;
  t.delay.sequential_overhead_ns = 0.7;
  return t;
}

} // namespace

TargetRegistry& TargetRegistry::global() {
  // Leaked singleton, mirroring FlowRegistry/SchedulerRegistry: targets
  // registered by user code may live in static-storage objects, so never
  // run destructors against them at exit.
  static TargetRegistry* r = [] {
    auto* reg = new TargetRegistry;
    reg->register_target(make_paper_ripple());
    reg->register_target(make_cla());
    reg->register_target(make_fast_logic());
    return reg;
  }();
  return *r;
}

Target resolve_target(const std::string& name) {
  return TargetRegistry::global().resolve(name);
}

} // namespace hls
