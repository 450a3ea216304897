#pragma once
// Structural RTL emitter.
//
// Turns a fragmented schedule plus its datapath (register plan) into a
// clocked VHDL architecture: one FSM counter, one register signal per
// allocated register, and per-state combinational computation of exactly the
// fragment additions scheduled in that state. Operand expressions are
// assembled from maximal uniform segments — port slices, same-cycle nets,
// register slices and zero padding — i.e. the emitter performs the same
// source resolution the cycle simulator checks, through the same
// StoredRunIndex. So `simulate_datapath` passing implies that every add and
// register load of the emitted RTL reads only values that exist in
// hardware. It does not cover output ports: the simulator reads outputs
// unchecked after the last cycle, while the RTL latches a port only in a
// state where all of its bits are live, so a port whose bits are never all
// live in one state is never assigned. Glue nets are emitted, whole, in
// every state whose sources they can read.
//
// The output targets the ieee.numeric_std subset and is meant to be read
// (and dropped into a synthesis flow) rather than consumed by this library.

#include <string>

#include "alloc/datapath.hpp"
#include "frag/transform.hpp"
#include "sched/fragsched.hpp"

namespace hls {

std::string emit_rtl_vhdl(const TransformResult& t, const FragSchedule& fs,
                          const Datapath& dp);

} // namespace hls
