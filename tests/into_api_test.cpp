// The span-based zero-allocation cipher surface: encrypt_into/decrypt_into
// bit-equivalence against the allocating APIs across every registry cipher,
// the exact/upper-bound size queries, buffer failure paths, YAEA-S in-place
// aliasing, and a counting-operator-new check that a warmed encrypt_into
// loop is heap-allocation-free for MHHEA and YAEA-S.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/core/shard.hpp"
#include "src/crypto/cipher.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/yaea.hpp"
#include "src/util/rng.hpp"
#include "src/exec/executor.hpp"

// ----------------------------------------------------------------------
// Counting global allocator: replaces the program-wide operator new/delete
// with malloc/free wrappers that count allocations, so the steady-state
// test below can assert a warmed encrypt_into loop never touches the heap.
// Counting is atomic — other suites in this binary run worker threads.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// GCC inlines these replacements at STL call sites and then flags the
// malloc-backed new against the free-backed delete as a mismatch — but that
// pairing is exactly what a counting replacement allocator is.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mhhea::crypto {
namespace {

constexpr core::Scheme kHhea = core::Scheme::hhea;

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

/// The acceptance sweep sizes: boundary lengths (empty, sub-frame, frame,
/// shard cutoffs) up to 20000 bytes.
const std::vector<std::size_t>& sweep_lengths() {
  static const std::vector<std::size_t> lens = {
      0, 1, 2, 3, 15, 16, 17, 255, 256, 1000, 1023, 1024, 1025,
      2048, 4096, 8191, 10000, 16384, 20000};
  return lens;
}

class IntoApiTest : public ::testing::TestWithParam<std::string> {};

// encrypt_into / decrypt_into / ciphertext_size / max_ciphertext_size agree
// with the allocating APIs for every registry cipher x shard count x size.
TEST_P(IntoApiTest, IntoMatchesAllocatingAcrossShardsAndSizes) {
  util::Xoshiro256 rng(0x1A70);
  const auto reference = CipherRegistry::builtin().make(GetParam(), 0xACE1, 1);
  for (const std::size_t len : sweep_lengths()) {
    const auto msg = random_message(rng, len);
    const auto ct = reference->encrypt(msg);
    ASSERT_EQ(reference->ciphertext_size(len), ct.size()) << GetParam() << " len=" << len;
    ASSERT_GE(reference->max_ciphertext_size(len), ct.size())
        << GetParam() << " len=" << len;
    for (const int shards : {1, 2, 4, 8}) {
      const auto cipher = CipherRegistry::builtin().make(GetParam(), 0xACE1, shards);
      // Oversized buffer: encrypt_into must report the exact byte count.
      std::vector<std::uint8_t> buf(cipher->max_ciphertext_size(len) + 7, 0xEE);
      const std::size_t n = cipher->encrypt_into(msg, buf);
      ASSERT_EQ(n, ct.size()) << GetParam() << " len=" << len << " shards=" << shards;
      ASSERT_TRUE(std::equal(ct.begin(), ct.end(), buf.begin()))
          << GetParam() << " len=" << len << " shards=" << shards;
      // Exact-size buffer round-trips too.
      std::vector<std::uint8_t> exact(ct.size());
      ASSERT_EQ(cipher->encrypt_into(msg, exact), ct.size());
      ASSERT_EQ(exact, ct);
      std::vector<std::uint8_t> back(len + 3, 0xEE);
      ASSERT_EQ(cipher->decrypt_into(ct, len, back), len)
          << GetParam() << " len=" << len << " shards=" << shards;
      ASSERT_TRUE(std::equal(msg.begin(), msg.end(), back.begin()))
          << GetParam() << " len=" << len << " shards=" << shards;
    }
  }
}

TEST_P(IntoApiTest, OutputBufferTooSmallThrows) {
  util::Xoshiro256 rng(0x0B5E);
  auto cipher = CipherRegistry::builtin().make(GetParam(), 0xACE1, 1);
  const auto msg = random_message(rng, 257);
  const auto ct = cipher->encrypt(msg);
  // One byte short, and the empty span, both fail loudly on encrypt...
  std::vector<std::uint8_t> small(ct.size() - 1);
  EXPECT_THROW((void)cipher->encrypt_into(msg, small), std::length_error);
  EXPECT_THROW((void)cipher->encrypt_into(msg, std::span<std::uint8_t>{}),
               std::length_error);
  // ...and on decrypt.
  std::vector<std::uint8_t> short_out(msg.size() - 1);
  EXPECT_THROW((void)cipher->decrypt_into(ct, msg.size(), short_out), std::length_error);
  EXPECT_THROW((void)cipher->decrypt_into(ct, msg.size(), std::span<std::uint8_t>{}),
               std::length_error);
  // The empty message needs no payload bytes — only sealed framing's header.
  std::vector<std::uint8_t> header(cipher->ciphertext_size(0));
  EXPECT_EQ(cipher->encrypt_into({}, header), header.size());
  EXPECT_EQ(cipher->decrypt_into(header, 0, {}), 0u);
}

// The strict ciphertext contracts survive the `_into` route: truncation and
// trailing blocks throw std::invalid_argument at every shard count.
TEST_P(IntoApiTest, StrictContractsThroughInto) {
  util::Xoshiro256 rng(0x57C7);
  const auto msg = random_message(rng, 4096);
  for (const int shards : {1, 2, 8}) {
    auto cipher = CipherRegistry::builtin().make(GetParam(), 0xACE1, shards);
    const auto ct = cipher->encrypt(msg);
    std::vector<std::uint8_t> out(msg.size());
    const std::size_t unit = GetParam() == "YAEA-S" ? 1 : 2;
    std::vector<std::uint8_t> shorter(ct.begin(), ct.end() - static_cast<long>(unit));
    EXPECT_THROW((void)cipher->decrypt_into(shorter, msg.size(), out),
                 std::invalid_argument)
        << GetParam() << " shards=" << shards;
    std::vector<std::uint8_t> longer = ct;
    for (std::size_t i = 0; i < unit; ++i) longer.push_back(0);
    EXPECT_THROW((void)cipher->decrypt_into(longer, msg.size(), out),
                 std::invalid_argument)
        << GetParam() << " shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCiphers, IntoApiTest,
                         ::testing::ValuesIn(CipherRegistry::builtin().names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// YAEA-S is a keystream XOR, so `in == out` must work: encrypt a buffer over
// itself, decrypt it over itself, recover the original message.
TEST(YaeaAliasing, InPlaceRoundTrip) {
  util::Xoshiro256 rng(0xA11A);
  auto cipher = CipherRegistry::builtin().make("YAEA-S", 0xACE1, 1);
  for (const std::size_t len : {std::size_t{1}, std::size_t{7}, std::size_t{513},
                                std::size_t{4096}, std::size_t{20000}}) {
    const auto msg = random_message(rng, len);
    const auto expected_ct = cipher->encrypt(msg);
    std::vector<std::uint8_t> buf = msg;
    ASSERT_EQ(cipher->encrypt_into(buf, buf), len) << len;
    ASSERT_EQ(buf, expected_ct) << len;
    ASSERT_EQ(cipher->decrypt_into(buf, len, buf), len) << len;
    ASSERT_EQ(buf, msg) << len;
  }
}

// Core-level sharded `_into` equivalence with an explicit pool, so the
// parallel planners/workers run regardless of host core count (the adapters
// clamp their shard count to hardware concurrency).
class ShardedIntoPolicy : public ::testing::TestWithParam<core::BlockParams> {};

TEST_P(ShardedIntoPolicy, CoreShardedIntoMatchesSequential) {
  const core::BlockParams params = GetParam();
  util::Xoshiro256 rng(0x5A4E);
  const core::Key key = core::Key::random(rng, 8, params);
  const core::LfsrCover cover(params.vector_bits, 0xACE1);
  exec::Executor pool(4);
  // 1 and 17 bytes end in a short final frame under every framed width.
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                std::size_t{17}, std::size_t{257}, std::size_t{5000},
                                std::size_t{16384}}) {
    const auto msg = random_message(rng, len);
    const auto expected = core::encrypt(msg, key, 0xACE1, params);
    for (const int shards : {2, 4, 8}) {
      std::vector<std::uint8_t> ct(expected.size() + 4, 0xEE);
      const std::size_t n =
          core::encrypt_sharded_into(msg, key, cover, shards, &pool, ct, params);
      ASSERT_EQ(n, expected.size()) << "len=" << len << " shards=" << shards;
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(), ct.begin()))
          << "len=" << len << " shards=" << shards;
      // Covers are generated straight into `ct`: nothing past the exact
      // ciphertext end may be touched.
      EXPECT_TRUE(std::all_of(ct.begin() + static_cast<std::ptrdiff_t>(n), ct.end(),
                              [](std::uint8_t b) { return b == 0xEE; }))
          << "len=" << len << " shards=" << shards;
      std::vector<std::uint8_t> back(len, 0xEE);
      ASSERT_EQ(core::decrypt_sharded_into(expected, key, len, shards, &pool, back, params),
                len)
          << "len=" << len << " shards=" << shards;
      ASSERT_EQ(back, msg) << "len=" << len << " shards=" << shards;
      // Too-small buffers fail loudly on both directions.
      if (!expected.empty()) {
        std::vector<std::uint8_t> small(expected.size() - 1);
        EXPECT_THROW((void)core::encrypt_sharded_into(msg, key, cover, shards, &pool,
                                                      small, params),
                     std::length_error);
        std::vector<std::uint8_t> short_out(len - 1);
        EXPECT_THROW((void)core::decrypt_sharded_into(expected, key, len, shards, &pool,
                                                      short_out, params),
                     std::length_error);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ShardedIntoPolicy,
    ::testing::Values(core::BlockParams::paper(), core::BlockParams::hardware(),
                      core::BlockParams{32, core::FramePolicy::continuous},
                      core::BlockParams{32, core::FramePolicy::framed},
                      core::BlockParams{64, core::FramePolicy::continuous},
                      core::BlockParams{64, core::FramePolicy::framed}),
    [](const auto& info) {
      return std::string(info.param.policy == core::FramePolicy::framed ? "framed"
                                                                        : "continuous") +
             std::to_string(info.param.vector_bits);
    });

TEST(ShardedInto, HheaShardedIntoMatchesSequential) {
  util::Xoshiro256 rng(0x5A4F);
  for (const core::BlockParams params :
       {core::BlockParams::paper(), core::BlockParams::hardware()}) {
    const core::Key key = core::Key::random(rng, 8, params);
    const core::LfsrCover cover(params.vector_bits, 0xACE1);
    exec::Executor pool(4);
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{257}, std::size_t{5000}, std::size_t{16384}}) {
      const auto msg = random_message(rng, len);
      const auto expected = core::encrypt(msg, key, 0xACE1, params, kHhea);
      core::Encryptor sizer(key, core::make_lfsr_cover(params.vector_bits, 0xACE1), params,
                            kHhea);
      ASSERT_EQ(sizer.one_shot_cipher_bytes(static_cast<std::uint64_t>(len) * 8),
                expected.size())
          << "len=" << len;
      for (const int shards : {2, 8}) {
        std::vector<std::uint8_t> ct(expected.size(), 0xEE);
        ASSERT_EQ(core::encrypt_sharded_into(msg, key, cover, shards, &pool, ct, params, kHhea),
                  expected.size())
            << "len=" << len << " shards=" << shards;
        ASSERT_EQ(ct, expected) << "len=" << len << " shards=" << shards;
        std::vector<std::uint8_t> back(len, 0xEE);
        ASSERT_EQ(
            core::decrypt_sharded_into(expected, key, len, shards, &pool, back, params, kHhea),
            len)
            << "len=" << len << " shards=" << shards;
        ASSERT_EQ(back, msg) << "len=" << len << " shards=" << shards;
      }
    }
  }
}

// The headline contract of this surface: once warmed, an encrypt_into loop
// performs ZERO heap allocations for the plain-MHHEA and YAEA-S single-shard
// paths (the adapters' resettable cores emit straight into the caller's
// buffer through resident scratch only).
TEST(ZeroAllocation, WarmedEncryptIntoLoop) {
  util::Xoshiro256 rng(0x0A11);
  const auto msg = random_message(rng, 16384);
  // MHHEA-sealed-v2 rides the same contract: header write + SipHash trailer
  // stay on the stack, so authentication adds no allocations.
  for (const char* name : {"MHHEA", "YAEA-S", "MHHEA-sealed-v2"}) {
    auto cipher = CipherRegistry::builtin().make(name, 0xACE1, 1);
    std::vector<std::uint8_t> out(cipher->max_ciphertext_size(msg.size()));
    // Warm: first calls may build lazy LFSR leap tables and grow scratch.
    const std::size_t expected = cipher->encrypt_into(msg, out);
    (void)cipher->encrypt_into(msg, out);
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    std::size_t n = 0;
    for (int i = 0; i < 16; ++i) n = cipher->encrypt_into(msg, out);
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << name << ": warmed encrypt_into loop allocated";
    EXPECT_EQ(n, expected) << name;
  }
}

// HheaCipher size queries run the resident encryptor's width walk over its
// cached tables and cover buffer — repeated calls must stay allocation-free.
TEST(ZeroAllocation, HheaSizeQueriesUseCachedCycle) {
  util::Xoshiro256 rng(0x51CE);
  for (const auto params : {core::BlockParams::paper(), core::BlockParams::hardware()}) {
    core::Key key = core::Key::random(rng, 8, params);
    HheaCipher cipher(std::move(key), 0xACE1, params, 1);
    (void)cipher.ciphertext_size(1024);  // nothing lazy left after one call
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    std::size_t total = 0;
    for (std::size_t len = 1; len <= 4096; len *= 2) {
      total += cipher.ciphertext_size(len);
      total += cipher.max_ciphertext_size(len);
    }
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "HheaCipher size query allocated";
    EXPECT_GT(total, 0u);
  }
}

}  // namespace
}  // namespace mhhea::crypto
