#pragma once
// Shared test plumbing: route one-shot flow requests through hls::Session
// (the library's flow API), throwing via require() so tests fail loudly on
// flow errors.

#include "flow/session.hpp"

namespace hls::testutil {

inline FlowResult run_flow(FlowRequest req) {
  static const Session session;
  return session.run(req).require();
}

inline FlowResult run_optimized(const Dfg& spec, unsigned latency,
                                const FlowOptions& opt = {},
                                unsigned n_bits_override = 0,
                                const std::string& scheduler = "list") {
  return run_flow({spec, "optimized", latency, n_bits_override, opt, scheduler});
}

} // namespace hls::testutil
