#pragma once
// Structural RTL emitter: prints the lowered netlist (rtl/netlist.hpp) as a
// clocked VHDL architecture with an FSM state counter, a signal per
// allocated register and a process variable v_<node> per addition and glue
// net. The output targets the ieee.numeric_std subset and is meant to be
// read (and dropped into a synthesis flow) rather than consumed by this
// library; rtl/cycle_sim.hpp says what simulating it certifies.

#include <string>

#include "alloc/datapath.hpp"
#include "frag/transform.hpp"
#include "sched/fragsched.hpp"

namespace hls {

/// Throws hls::Error as lower_rtl does.
std::string emit_rtl_vhdl(const TransformResult& t, const FragSchedule& fs,
                          const Datapath& dp);

} // namespace hls
