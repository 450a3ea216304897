#pragma once
// The lowered RTL netlist, which emit_rtl_vhdl prints and simulate_datapath
// runs. Each FSM state lists, in execution order, the additions scheduled
// there and the glue bit runs the state reads (in node order), the loads of
// the register runs produced there, and the output latches whose every bit
// resolves there. lower_rtl resolves every operand bit once into slices of
// ports, constants, nets (process variables) assigned earlier in the state
// and registers of the allocator's plan (Datapath::stored). An unprinted
// port block after the last state reads the output ports from the
// additions' final values, like the port registers the paper omits.

#include <array>
#include <cstdint>
#include <vector>

#include "alloc/datapath.hpp"
#include "frag/transform.hpp"
#include "sched/fragsched.hpp"

namespace hls {

/// A maximal uniform run of operand bits; operands list them LSB-first.
struct Slice {
  enum Kind : std::uint8_t { Zero, One, Port, Net, Reg } kind = Zero;
  std::uint32_t id = 0;  ///< node (Port, Net) or register (Reg)
  unsigned lo : 8 = 0, width : 8 = 0;  ///< source bits (Port, Net, Reg)
};

/// Assigns bits [lo, lo + width) of its target: Net applies the target
/// node's operation (Add or glue); Load and Latch copy operand 0.
struct Statement {
  enum Kind : std::uint8_t { Net, Load, Latch } kind = Net;
  std::uint32_t target = 0;  ///< node (Net, Latch) or register (Load)
  unsigned lo : 8 = 0, width : 8 = 0, operands : 8 = 0;  ///< each <= 64
  /// Operand k is Netlist::slices[at[k], at[k + 1]), `width` bits in all.
  std::array<std::uint32_t, 4> at{};
};

struct Netlist {
  unsigned states = 0;     ///< FSM states (the schedule's latency)
  unsigned registers = 0;  ///< Datapath::regs.size()
  /// statements[block[s], block[s + 1]): state s; s == states: port block.
  std::vector<std::uint32_t> block{};
  std::vector<Statement> statements{};
  std::vector<Slice> slices{};
};

/// Throws hls::Error with ErrorContext{node, bit, cycle} when a state reads
/// an addition bit that it neither computes nor holds in a stored run.
Netlist lower_rtl(const TransformResult& t, const FragSchedule& fs,
                  const Datapath& dp);

} // namespace hls
