// In-memory span log for the traced run.
//
// The harness opens a span around each call it makes into a layer
// (generate, compile, plan probe, each engine run, each oracle check).
// Spans carry their parent, so a layer's self time is its duration minus
// the part its children cover. Nothing is written until the run ends
// (write_json); a disabled log records nothing and costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  static constexpr std::uint32_t kNone = ~0u;

  struct Span {
    std::string name;
    std::uint32_t parent = kNone;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested in the innermost open one; returns its id.
  std::uint32_t open(std::string name) {
    if (!enabled_) return kNone;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{std::move(name),
                          stack_.empty() ? kNone : stack_.back(), now_ns(),
                          0});
    stack_.push_back(id);
    return id;
  }

  void close(std::uint32_t id) {
    if (id == kNone) return;
    spans_[id].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name)
        : log_(log), id_(log.open(std::move(name))) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { log_.close(id_); }

   private:
    SpanLog& log_;
    std::uint32_t id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time of every span: its duration minus its direct children's
  /// durations (children never overlap each other: one caller thread).
  [[nodiscard]] std::vector<std::uint64_t> self_ns() const {
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].begin_ns;
    for (const Span& s : spans_)
      if (s.parent != kNone) self[s.parent] -= s.end_ns - s.begin_ns;
    return self;
  }

  /// Total and self time per span name.
  [[nodiscard]] std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
  by_name() const {
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> out;
    const std::vector<std::uint64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [total, own] = out[spans_[i].name];
      total += spans_[i].end_ns - spans_[i].begin_ns;
      own += self[i];
    }
    return out;
  }

  /// {"spans": [{id, parent, name, begin_ns, end_ns, self_ns}...],
  ///  "by_name": {name: {total_ns, self_ns, count}}}. Times are relative to
  /// the first span's start.
  void write_json(std::ostream& os) const {
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
    const std::vector<std::uint64_t> self = self_ns();
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"parent\": ";
      if (s.parent == kNone)
        os << "null";
      else
        os << s.parent;
      os << ", \"name\": \"" << s.name << "\", \"begin_ns\": "
         << s.begin_ns - t0 << ", \"end_ns\": " << s.end_ns - t0
         << ", \"self_ns\": " << self[i] << "}";
    }
    os << "\n], \"by_name\": {";
    std::map<std::string, std::size_t> counts;
    for (const Span& s : spans_) ++counts[s.name];
    bool first = true;
    for (const auto& [name, tot] : by_name()) {
      os << (first ? "\n  " : ",\n  ") << "\"" << name
         << "\": {\"total_ns\": " << tot.first << ", \"self_ns\": "
         << tot.second << ", \"count\": " << counts[name] << "}";
      first = false;
    }
    os << "\n}}\n";
  }

 private:
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

}  // namespace perfbench
