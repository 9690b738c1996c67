// Byte oracle: the benchmark's correctness gate.
//
// Every engine that executes bodies must leave every data object
// byte-identical to the sequential run. The benchmark snapshots all data
// objects of a flow before the first run (to reset between runs) and after
// the sequential run (the oracle), and compares after each timed run. All
// of this happens outside the timed region.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <optional>
#include <vector>

#include "stf/data_registry.hpp"
#include "stf/types.hpp"

namespace perfbench {

/// The bytes of every data object of a registry, by DataId.
using Snapshot = std::vector<std::vector<unsigned char>>;

inline Snapshot snapshot(const rio::stf::DataRegistry& reg) {
  Snapshot s(reg.size());
  for (std::size_t id = 0; id < reg.size(); ++id) {
    const auto d = static_cast<rio::stf::DataId>(id);
    const auto* p = static_cast<const unsigned char*>(reg.raw(d));
    s[id].assign(p, p + reg.bytes(d));
  }
  return s;
}

/// Writes `s` back into the registry's objects (the between-runs reset).
inline void restore(const rio::stf::DataRegistry& reg, const Snapshot& s) {
  for (std::size_t id = 0; id < s.size(); ++id)
    if (!s[id].empty())
      std::memcpy(reg.raw(static_cast<rio::stf::DataId>(id)), s[id].data(),
                  s[id].size());
}

/// First data object whose bytes differ from `oracle` (also a size or
/// object-count mismatch); nullopt when the registry matches exactly.
inline std::optional<std::size_t> first_mismatch(
    const rio::stf::DataRegistry& reg, const Snapshot& oracle) {
  if (reg.size() != oracle.size()) return std::min(reg.size(), oracle.size());
  for (std::size_t id = 0; id < oracle.size(); ++id) {
    const auto d = static_cast<rio::stf::DataId>(id);
    if (reg.bytes(d) != oracle[id].size()) return id;
    if (!oracle[id].empty() &&
        std::memcmp(reg.raw(d), oracle[id].data(), oracle[id].size()) != 0)
      return id;
  }
  return std::nullopt;
}

/// Proves the comparison can fail: flips one byte of the first non-empty
/// object in the registry, checks first_mismatch() reports that object,
/// and restores the byte. False means the gate is blind.
inline bool self_check(const rio::stf::DataRegistry& reg,
                       const Snapshot& oracle) {
  if (first_mismatch(reg, oracle).has_value()) return false;
  for (std::size_t id = 0; id < oracle.size(); ++id) {
    if (oracle[id].empty()) continue;
    auto* p = static_cast<unsigned char*>(
        reg.raw(static_cast<rio::stf::DataId>(id)));
    const std::size_t at = oracle[id].size() / 2;
    p[at] ^= 0x01;
    const std::optional<std::size_t> hit = first_mismatch(reg, oracle);
    p[at] ^= 0x01;
    return hit == id && !first_mismatch(reg, oracle).has_value();
  }
  return false;
}

}  // namespace perfbench
