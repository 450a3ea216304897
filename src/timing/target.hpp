#pragma once
// hls::Target — the technology model as a first-class, registry-resolved
// value, mirroring the Flow/Scheduler registry conventions.
//
// A Target bundles everything the flows need to know about the implementation
// technology: the DelayModel (delta length, sequential overhead, adder style)
// that drives §3.2 cycle estimation and the delta interpretation of chained
// windows, and the GateModel that prices the allocated datapath. Requests
// name a target (`FlowRequest::target`, `fraghls --target`) and the resolved
// name is carried into every ImplementationReport and its JSON rendering, so
// one suite run under two targets is two comparable experiments.
//
// Builtins in TargetRegistry::global():
//   * "paper-ripple" (the default) — Table I's ripple-carry library, 1 delta
//     per chained bit. Reproduces the paper's numbers bit-identically.
//   * "cla"          — carry-lookahead adders: a chained window of w bits
//     settles in ~2 + log2(w) deltas (the conclusion's faster-adder case)
//     and pays extra adder area for the prefix network.
//   * "fast-logic"   — a scaled-delta example: the ripple structure on a 2x
//     faster logic family (smaller delta and overhead, same schedules).
//
// User targets register next to the builtins:
//   hls::Target t = hls::resolve_target(hls::kDefaultTargetName);
//   t.name = "my-asic"; t.delay.delta_ns = 0.35;
//   hls::TargetRegistry::global().register_target(t);

#include <string>

#include "rtl/area.hpp"
#include "support/registry.hpp"
#include "timing/delay_model.hpp"

namespace hls {

/// Registry name of the builtin default target (the paper's model).
inline constexpr char kDefaultTargetName[] = "paper-ripple";

/// One implementation technology: timing and area models plus the adder
/// style (carried inside DelayModel), keyed by registry name.
struct Target {
  std::string name;         ///< registry key; carried into every report
  std::string description;  ///< one-liner for `fraghls --list-targets`
  DelayModel delay;
  GateModel gates;
};

/// String-keyed target registry ("paper-ripple", "cla", "fast-logic"
/// builtin). Thread-safe; registration replaces any previous target of the
/// same name.
class TargetRegistry : public NamedRegistry<Target> {
public:
  TargetRegistry() : NamedRegistry("target") {}

  /// The process-wide registry, with the builtin targets pre-registered.
  static TargetRegistry& global();

  /// Registers `target` under target.name (must be non-empty).
  void register_target(Target target) {
    std::string name = target.name;
    add(std::move(name), std::move(target));
  }
};

/// Resolves `name` in the global registry. Throws hls::Error listing the
/// registered names when `name` is unknown (Session turns that into the
/// same structured diagnostic as unknown flows and schedulers).
Target resolve_target(const std::string& name);

} // namespace hls
