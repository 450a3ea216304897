#pragma once
// Cycle-accurate simulation: an interpreter of the lowered RTL netlist
// (rtl/netlist.hpp), so it runs exactly the statements emit_rtl_vhdl prints,
// with VHDL semantics: a state's statements in order, a variable bit read
// only after a statement of its state assigned it, register loads at the
// state's end. evaluate == simulate_datapath thus certifies the printed
// additions, glue and register loads on the vectors run. Not the output
// ports: the printed RTL latches a port only in a state where all its bits
// resolve, which many ports never reach, so the unprinted port block reads
// them from the additions' final values.

#include "ir/eval.hpp"
#include "rtl/netlist.hpp"

namespace hls {

/// Runs `nl`, lowered from a transform of `spec`, from reset. Throws
/// hls::Error for an input port without a value, or with ErrorContext{node,
/// bit, state} for a net bit read before its state assigned it.
OutputValues simulate_netlist(const Netlist& nl, const Dfg& spec,
                              const InputValues& inputs);

/// simulate_netlist(lower_rtl(t, fs, dp), t.spec, inputs).
OutputValues simulate_datapath(const TransformResult& t, const FragSchedule& fs,
                               const Datapath& dp, const InputValues& inputs);

} // namespace hls
