// Shared helpers of the perfbench program: clocks, order statistics, seeded
// payloads, the metric sink and the options every workload reads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Uniform random bytes.
inline std::vector<std::uint8_t> random_payload(mhhea::util::Xoshiro256& rng,
                                                std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Synthetic service log lines: the compressible shape the lzss pre-stage
/// targets.
inline std::vector<std::uint8_t> text_payload(mhhea::util::Xoshiro256& rng,
                                              std::size_t n) {
  static const char* const kLevels[] = {"INFO", "WARN", "DEBUG", "ERROR"};
  static const char* const kMsgs[] = {"request sealed", "request opened",
                                      "conn accepted", "replay rejected"};
  std::string text;
  while (text.size() < n) {
    text += "2026-10-17T02:" + std::to_string(10 + rng.below(50)) + ":" +
            std::to_string(10 + rng.below(50)) + "." + std::to_string(rng.below(1000)) +
            "Z svc=mhhead level=" + kLevels[rng.below(4)] + " msg=\"" +
            kMsgs[rng.below(4)] + "\" conn=" + std::to_string(rng.below(4096)) +
            " bytes=" + std::to_string(rng.below(65536)) +
            " latency_us=" + std::to_string(rng.below(20000)) + "\n";
  }
  return {text.begin(), text.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// A 16-byte session master drawn from `rng`.
inline std::vector<std::uint8_t> make_master(mhhea::util::Xoshiro256& rng) {
  return random_payload(rng, 16);
}

/// Named metrics in insertion order, printed as the result's `metrics`.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(items_[i].value) ? items_[i].value : 0.0);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// CPU time counters of the host (/proc/stat): steal is the time the
/// hypervisor ran something else while a vCPU wanted to run.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;

  static CpuTimes now() {
    CpuTimes t;
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
      double v = 0.0;
      f >> v;
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }
};

/// Share of the host's CPU time stolen between `a` and `b`, in percent.
inline double steal_pct(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? 100.0 * (b.steal - a.steal) / (b.total - a.total) : 0.0;
}

/// Workload constants, the same in every run (perfbench/NOTES.md says why).
/// The rates and limits are fixed numbers taken from the seed build, never
/// re-probed per run: a probe would hand the parent and a change different
/// loads.
inline constexpr int kConns = 4;                      // rpc_small connections
inline constexpr std::size_t kPayloadBytes = 256;     // rpc_small message size
inline constexpr std::size_t kReconnectEvery = 1000;  // requests per connection
inline constexpr double kRpcQps = 25000.0;            // rpc_small offered rate
inline constexpr double kRpcLimitMs = 5.0;            // rpc_small latency limit
inline constexpr std::size_t kBulkBytes = 64 * 1024;  // bulk_stream message size
inline constexpr int kMasters = 8;                    // bulk_stream session masters
inline constexpr double kBulkLimitMs = 12.0;          // bulk_stream latency limit
/// Each window runs as back-to-back phases of at most kPhaseS seconds. The
/// host's speed drifts by a fifth within seconds, so set-up is repeated
/// before every phase and setup_s is the median over the whole run.
inline constexpr double kPhaseS = 2.0;
inline constexpr int kRpcSetupRepsPerPhase = 4;
inline constexpr int kBulkSetupRepsPerPhase = 2;

/// Number of phases a window of `seconds` runs as.
inline std::size_t phase_count(double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::ceil(seconds / kPhaseS - 1e-9)));
}

/// Daemon sockets and trace files, relative to the checkout root. Kept
/// short: a UNIX socket path must fit in 108 bytes.
inline const std::string kRunDir = ".bench_build/run";

/// The command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Outcome counters shared by every workload.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // error statuses, wrong bytes, unanswered
  bool correct = true;       // every checked output matched, self-check held
};

}  // namespace perfbench
