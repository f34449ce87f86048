// In-memory span recorder for the traced run.
//
// A span is a named interval with a parent span and a request id; spans of
// one request share the id. Spans stay in memory while the workload runs and
// are written out once at the end. A layer's self time is its spans' total
// duration minus the part of each span its child spans cover.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record one finished span; returns its index (the parent handle of its
  /// children), or kNoParent when tracing is off.
  std::int64_t record(const char* name, std::uint64_t request, std::int64_t parent,
                      Clock::time_point start, Clock::time_point end, bool failed = false) {
    if (!enabled_) return kNoParent;
    spans_.push_back({name, request, parent, ns(start), ns(end), failed});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// A root span open for the lifetime of the object: children recorded
  /// meanwhile name it as their parent (it converts to its span index).
  class Section {
   public:
    Section(Tracer& tracer, const char* name)
        : tracer_(tracer),
          index_(tracer.record(name, 0, kNoParent, Clock::now(), Clock::now())) {}
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;
    ~Section() {
      if (index_ >= 0) tracer_.spans_[static_cast<std::size_t>(index_)].end = tracer_.ns(Clock::now());
    }
    operator std::int64_t() const noexcept { return index_; }  // NOLINT: a span handle

   private:
    Tracer& tracer_;
    std::int64_t index_;
  };

  struct LayerStat {
    std::uint64_t calls = 0;
    std::uint64_t failures = 0;
    double busy_us = 0.0;  // summed span durations
    double self_us = 0.0;  // busy minus the time child spans cover
  };

  /// Per-name call count, busy time, self time and failures.
  [[nodiscard]] std::map<std::string, LayerStat> layers() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t p = spans_[i].parent;
      if (p >= 0) children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::map<std::string, LayerStat> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // Union of the children's intervals clipped to the parent's.
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const std::size_t c : children[i]) {
        iv.emplace_back(std::max(spans_[c].start, s.start), std::min(spans_[c].end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t reach = s.start;
      for (const auto& [a, b] : iv) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) {
          covered += b - from;
          reach = b;
        }
      }
      LayerStat& st = out[s.name];
      st.calls += 1;
      st.failures += s.failed ? 1 : 0;
      st.busy_us += static_cast<double>(s.end - s.start) / 1e3;
      st.self_us += static_cast<double>(s.end - s.start - covered) / 1e3;
    }
    return out;
  }

  /// Write every span (JSON lines) followed by the per-layer summary.
  void write(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"span\": " << i << ", \"name\": \"" << s.name << "\", \"request\": " << s.request
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start
        << ", \"end_ns\": " << s.end << ", \"failed\": " << (s.failed ? "true" : "false")
        << "}\n";
    }
    for (const auto& [name, st] : layers()) {
      f << "{\"layer\": \"" << name << "\", \"calls\": " << st.calls
        << ", \"failures\": " << st.failures << ", \"busy_us\": " << st.busy_us
        << ", \"self_us\": " << st.self_us << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::int64_t parent;
    std::int64_t start;
    std::int64_t end;
    bool failed;
  };

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
