#pragma once
// VHDL identifiers for a specification's nodes.
//
// Every emitter names ports, variables and the entity through this one
// helper, so the behavioural VHDL, the structural RTL and its testbench
// agree on every name: a testbench port map names exactly the ports the
// RTL entity declares.

#include <string>
#include <string_view>
#include <vector>

#include "ir/dfg.hpp"

namespace hls {

/// `s` as a VHDL basic identifier: alphanumerics kept, every run of other
/// characters collapsed to one '_', none leading or trailing, and an 'n'
/// prefixed when the result would start with a digit; `fallback` when
/// nothing is left.
std::string sanitize_id(std::string_view s, std::string_view fallback);

/// One identifier per node, indexed by node: the sanitized node name
/// ("n<index>" when it sanitizes to nothing), suffixed with "_<index>" until
/// it is free. Free means, compared case-insensitively as VHDL compares
/// identifiers: no VHDL reserved word; none of the names the emitted VHDL
/// declares or uses itself (clk, rst, done, state, r<k>, the process and
/// testbench labels, the ieee names); no lower-indexed node's identifier;
/// and no clash through the RTL's derived names v_<id> of additions and glue
/// and <id>_r of output ports.
std::vector<std::string> node_names(const Dfg& dfg);

} // namespace hls
