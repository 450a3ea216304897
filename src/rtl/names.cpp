#include "rtl/names.hpp"

#include <cctype>
#include <unordered_set>

namespace hls {

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
  return out.empty() ? std::string(fallback) : out;
}

std::vector<std::string> node_names(const Dfg& dfg) {
  std::vector<std::string> names(dfg.size());
  std::unordered_set<std::string> used;
  used.reserve(dfg.size());
  for (std::uint32_t i = 0; i < dfg.size(); ++i) {
    const std::string suffix = "_" + std::to_string(i);
    std::string name =
        sanitize_id(dfg.node(NodeId{i}).name, "n" + std::to_string(i));
    while (used.count(name) != 0) name += suffix;
    used.insert(name);
    names[i] = std::move(name);
  }
  return names;
}

} // namespace hls
