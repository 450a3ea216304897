#include "rtl/names.hpp"

#include <cctype>
#include <charconv>
#include <memory_resource>
#include <unordered_set>

namespace hls {

namespace {

/// Lowercase identifiers no node may take: the VHDL-2008 reserved words, and
/// the names the emitted VHDL declares or uses itself.
const char* const kTaken[] = {
    "abs", "access", "after", "alias", "all", "and", "architecture", "array",
    "assert", "assume", "assume_guarantee", "attribute", "begin", "block",
    "body", "buffer", "bus", "case", "component", "configuration", "constant",
    "context", "cover", "default", "disconnect", "downto", "else", "elsif",
    "end", "entity", "exit", "fairness", "file", "for", "force", "function",
    "generate", "generic", "group", "guarded", "if", "impure", "in",
    "inertial", "inout", "is", "label", "library", "linkage", "literal",
    "loop", "map", "mod", "nand", "new", "next", "nor", "not", "null", "of",
    "on", "open", "or", "others", "out", "package", "parameter", "port",
    "postponed", "procedure", "process", "property", "protected", "pure",
    "range", "record", "register", "reject", "release", "rem", "report",
    "restrict", "restrict_guarantee", "return", "rol", "ror", "select",
    "sequence", "severity", "shared", "signal", "sla", "sll", "sra", "srl",
    "strong", "subtype", "then", "to", "transport", "type", "unaffected",
    "units", "until", "use", "variable", "vmode", "vprop", "vunit", "wait",
    "when", "while", "with", "xnor", "xor",
    // Ports, signals and labels of the RTL and its testbench, and the
    // library names they use.
    "clk", "rst", "done", "state", "main", "dut", "stimulus", "ieee", "work",
    "std_logic", "std_logic_vector", "unsigned", "natural", "rising_edge",
    "maximum", "minimum"};

/// r<k>: the RTL's register signals.
bool is_register_name(std::string_view low) {
  return low.size() > 1 && low[0] == 'r' &&
         low.find_first_not_of("0123456789", 1) == std::string_view::npos;
}

/// Whether `low` is taken by VHDL or the emitted code; none of those names
/// has a digit except r<k>.
bool is_reserved(std::string_view low) {
  static const std::unordered_set<std::string_view> reserved(
      std::begin(kTaken), std::end(kTaken));
  if (low.find_first_of("0123456789") != std::string_view::npos) {
    return is_register_name(low);
  }
  return reserved.count(low) != 0;
}

/// Appends the decimal digits of `i` to `s`.
std::string& append_index(std::string& s, std::uint32_t i) {
  char buf[10];
  return s.append(buf, std::to_chars(buf, buf + sizeof buf, i).ptr);
}

} // namespace

std::string sanitize_id(std::string_view s, std::string_view fallback) {
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty()) return std::string(fallback);
  // A basic identifier starts with a letter.
  if (std::isdigit(static_cast<unsigned char>(out.front()))) {
    out.insert(0, 1, 'n');
  }
  return out;
}

std::vector<std::string> node_names(const Dfg& dfg) {
  std::vector<std::string> names(dfg.size());
  // Lowercase: every identifier named so far, and the v_<id> and <id>_r the
  // RTL derives from them. Its nodes come from one pool freed at the end.
  std::pmr::monotonic_buffer_resource pool;
  std::pmr::unordered_set<std::string> taken(&pool);
  taken.reserve(2 * dfg.size());
  std::string low, derived;
  for (std::uint32_t i = 0; i < dfg.size(); ++i) {
    const Node& n = dfg.node(NodeId{i});
    // The RTL declares v_<id> for additions and glue, <id>_r for outputs.
    const bool var = n.kind == OpKind::Add || is_glue(n.kind);
    const bool port = n.kind == OpKind::Output;
    std::string name = sanitize_id(n.name, "");
    if (name.empty()) append_index(name.assign(1, 'n'), i);
    for (;;) {
      low.assign(name);
      for (char& c : low) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      derived.assign(var ? "v_" : "").append(low).append(port ? "_r" : "");
      if (!is_reserved(low)) {
        const auto [at, fresh] = taken.insert(low);
        if (fresh && (derived == low || taken.insert(derived).second)) break;
        if (fresh) taken.erase(at);
      }
      append_index(name += '_', i);
    }
    names[i] = std::move(name);
  }
  return names;
}

} // namespace hls
