#pragma once
// NamedRegistry<T> — the one string-keyed registry behind flows
// (FlowRegistry), scheduling strategies (SchedulerRegistry) and technology
// targets (TargetRegistry): a mutex-guarded name -> value map with a sorted
// name listing and the one "unknown <kind> '<name>' (registered: ...)"
// lookup message every request-validation path reports.

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hls {

template <typename T>
class NamedRegistry {
public:
  /// `kind` names the entries in messages: "flow", "scheduler", "target".
  explicit NamedRegistry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers `value` under `name`, replacing any previous entry of the
  /// name. Throws hls::Error on an empty name or an empty callable.
  void add(std::string name, T value) {
    HLS_REQUIRE(!name.empty(), kind_ + " name must be non-empty");
    if constexpr (std::is_constructible_v<bool, const T&>) {
      HLS_REQUIRE(static_cast<bool>(value),
                  kind_ + " function must be callable");
    }
    const std::lock_guard<std::mutex> lock(mu_);
    entries_[std::move(name)] = std::move(value);
  }

  bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_.count(name) != 0;
  }

  /// All registered names, sorted.
  std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return names_locked();
  }

  /// nullopt when `name` is registered; otherwise the message
  /// "unknown <kind> '<name>' (registered: a, b, ...)".
  std::optional<std::string> unknown(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(name) != 0) return std::nullopt;
    return unknown_locked(name);
  }

  /// The registered value; throws hls::Error with unknown()'s message.
  T resolve(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) throw Error(unknown_locked(name));
    return it->second;
  }

private:
  std::string unknown_locked(const std::string& name) const {
    return "unknown " + kind_ + " '" + name +
           "' (registered: " + join(names_locked(), ", ") + ")";
  }

  std::vector<std::string> names_locked() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& entry : entries_) out.push_back(entry.first);
    return out;  // std::map iterates in sorted order
  }

  std::string kind_;
  mutable std::mutex mu_;
  std::map<std::string, T> entries_;
};

} // namespace hls
