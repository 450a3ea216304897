#pragma once
// VHDL testbench generator.
//
// Emits a self-checking testbench for the structural RTL of emit_rtl_vhdl():
// it drives the input ports with seeded vectors, waits the schedule's
// latency, and asserts the output ports against expected values computed by
// the reference evaluator. Its port map names the entity's ports through the
// same node_names. simulate_datapath, which the test suite runs, executes
// the RTL's printed additions, glue and register loads but reads the output
// ports from the additions' final values. The printed RTL latches a port
// only in a state where all of its bits resolve, so on designs where some
// port never gets there these assertions fail until output latching is
// completed.

#include <string>
#include <vector>

#include "frag/transform.hpp"
#include "ir/eval.hpp"

namespace hls {

/// Generates `vectors` random stimulus/response pairs with `rng_seed` and
/// returns the testbench source. Expected responses come from evaluating
/// the transformed specification (== the original, by the equivalence
/// property).
std::string emit_testbench(const TransformResult& t, unsigned vectors,
                           std::uint64_t rng_seed);

} // namespace hls
