// "Parallel is never slower": the sharded MHHEA-sealed-v2 seal and open of a
// 64 KiB message must not lose to the single-shard path. Both ciphers share
// the key and seed, so they seal identical bytes; the timings interleave
// the two variants rep by rep (alternating which goes first), so host drift
// hits both alike, and the check compares medians.
//
// Labelled `bench` and run serially (CMakeLists.txt): a timing check must
// not share the host with the rest of the suite. Skipped on one core, where
// the adapters clamp sharding away — and, for the same reason, when the
// host cannot run two threads at once right now (a shared host under load):
// a spin probe before, every kProbeEvery reps during and after the timings
// must show two threads running together.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/util/rng.hpp"

namespace mhhea {
namespace {

using Clock = std::chrono::steady_clock;

/// How much slower than one shard the sharded median may be before the
/// check fails. Set from the run-to-run spread of the sharded/one-shard
/// median ratio measured on a shared 4-vCPU host (see CHANGES.md): 0.58 to
/// 0.84 when it is quiet, up to about 1.10 under load.
constexpr double kTolerance = 0.20;

/// Two threads spinning on a fixed job each must finish in less than this
/// many times one thread's time, or the host is not running them at once.
constexpr double kTwoThreadSlack = 1.3;

constexpr std::size_t kMessageBytes = 64 * 1024;
constexpr int kReps = 61;
/// Reps between two spin probes: load that starts and ends between the
/// probes before and after the timings would otherwise go unseen.
constexpr int kProbeEvery = 20;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <class F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Whether two threads run at once here now: the same spin on two threads
/// takes about as long as on one. The median of three paired tries, as
/// one-thread times alone swing by 2x on a shared host.
bool runs_two_threads_at_once() {
  const auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 20'000'000; ++i) x = x + i;
  };
  std::vector<double> ratios;
  for (int t = 0; t < 3; ++t) {
    const double one = time_us(spin);
    const double two = time_us([&] {
      std::thread other(spin);
      spin();
      other.join();
    });
    ratios.push_back(two / one);
  }
  return median(ratios) < kTwoThreadSlack;
}

TEST(ParallelNeverSlower, ShardedSealAndOpenDoNotLoseToOneShard) {
  if (std::thread::hardware_concurrency() < 2) GTEST_SKIP() << "needs at least two cores";
  if (!runs_two_threads_at_once()) GTEST_SKIP() << "the host is not running two threads at once";
  const core::BlockParams params = core::BlockParams::hardware();
  util::Xoshiro256 rng(0x5A4D5EED);
  const core::Key key = core::Key::random(rng, 8, params);
  std::vector<std::uint8_t> msg(kMessageBytes);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  using Framing = crypto::MhheaCipher::Framing;
  crypto::MhheaCipher one(key, 0xC0FFEE, params, Framing::sealed_v2, 1);
  crypto::MhheaCipher four(key, 0xC0FFEE, params, Framing::sealed_v2, 4);

  std::vector<std::uint8_t> sealed(one.max_ciphertext_size(kMessageBytes));
  std::vector<std::uint8_t> opened(kMessageBytes);
  const std::size_t n = one.encrypt_into(msg, sealed);
  ASSERT_EQ(four.encrypt_into(msg, sealed), n);
  const std::span<const std::uint8_t> container(sealed.data(), n);

  std::vector<double> seal1, seal4, open1, open4;
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep > 0 && rep % kProbeEvery == 0 && !runs_two_threads_at_once()) {
      GTEST_SKIP() << "the host stopped running two threads at once";
    }
    const auto seal_one = [&] { seal1.push_back(time_us([&] { one.encrypt_into(msg, sealed); })); };
    const auto seal_four = [&] {
      seal4.push_back(time_us([&] { four.encrypt_into(msg, sealed); }));
    };
    const auto open_one = [&] {
      open1.push_back(time_us([&] { one.decrypt_into(container, kMessageBytes, opened); }));
    };
    const auto open_four = [&] {
      open4.push_back(time_us([&] { four.decrypt_into(container, kMessageBytes, opened); }));
    };
    if (rep % 2 == 0) {
      seal_one();
      seal_four();
      open_one();
      open_four();
    } else {
      seal_four();
      seal_one();
      open_four();
      open_one();
    }
  }
  ASSERT_EQ(opened, msg);
  if (!runs_two_threads_at_once()) GTEST_SKIP() << "the host stopped running two threads at once";
  const double seal_ratio = median(seal4) / median(seal1);
  const double open_ratio = median(open4) / median(open1);
  RecordProperty("seal_ratio", std::to_string(seal_ratio));
  RecordProperty("open_ratio", std::to_string(open_ratio));
  EXPECT_LE(seal_ratio, 1.0 + kTolerance)
      << "sharded seal median " << median(seal4) << " us vs one shard " << median(seal1) << " us";
  EXPECT_LE(open_ratio, 1.0 + kTolerance)
      << "sharded open median " << median(open4) << " us vs one shard " << median(open1) << " us";
  std::printf("seal_ratio %.3f open_ratio %.3f seal %.0f/%.0f us open %.0f/%.0f us\n",
              seal_ratio, open_ratio, median(seal4), median(seal1), median(open4),
              median(open1));
}

}  // namespace
}  // namespace mhhea
