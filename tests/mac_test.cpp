// The keyed-MAC primitive behind sealed format v2: SipHash-2-4 pinned to the
// reference vectors from the SipHash paper, the 128-bit variant and the
// streaming state (any split of the input) checked against an independent
// in-test reimplementation, and the constant-time comparator's contract.
#include "src/crypto/mac.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/util/rng.hpp"

namespace mhhea::crypto {
namespace {

MacKey sequential_key() {
  MacKey k;
  for (std::size_t i = 0; i < k.size(); ++i) k[i] = static_cast<std::uint8_t>(i);
  return k;
}

// ----------------------------------------------------------------------
// Independent reference implementation, written from the SipHash paper's
// round description rather than ported from mac.cpp, so the two can only
// agree by both being SipHash.

struct RefSip {
  std::uint64_t v[4];

  static std::uint64_t rot(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

  explicit RefSip(const MacKey& key, bool wide) {
    std::uint64_t k0 = 0, k1 = 0;
    for (int i = 7; i >= 0; --i) k0 = (k0 << 8) | key[static_cast<std::size_t>(i)];
    for (int i = 15; i >= 8; --i) k1 = (k1 << 8) | key[static_cast<std::size_t>(i)];
    v[0] = k0 ^ 0x736f6d6570736575ULL;
    v[1] = k1 ^ 0x646f72616e646f6dULL;
    v[2] = k0 ^ 0x6c7967656e657261ULL;
    v[3] = k1 ^ 0x7465646279746573ULL;
    if (wide) v[1] ^= 0xee;
  }

  void sipround() {
    v[0] += v[1];
    v[1] = rot(v[1], 13) ^ v[0];
    v[0] = rot(v[0], 32);
    v[2] += v[3];
    v[3] = rot(v[3], 16) ^ v[2];
    v[0] += v[3];
    v[3] = rot(v[3], 21) ^ v[0];
    v[2] += v[1];
    v[1] = rot(v[1], 17) ^ v[2];
    v[2] = rot(v[2], 32);
  }

  void compress(const std::vector<std::uint8_t>& msg) {
    const std::size_t full = msg.size() / 8;
    for (std::size_t w = 0; w <= full; ++w) {
      std::uint64_t m = 0;
      if (w == full) {
        m = static_cast<std::uint64_t>(msg.size() & 0xff) << 56;
        for (std::size_t j = w * 8; j < msg.size(); ++j) {
          m |= static_cast<std::uint64_t>(msg[j]) << (8 * (j - w * 8));
        }
      } else {
        for (int j = 7; j >= 0; --j) m = (m << 8) | msg[w * 8 + static_cast<std::size_t>(j)];
      }
      v[3] ^= m;
      sipround();
      sipround();
      v[0] ^= m;
    }
  }

  std::uint64_t finalize() {
    for (int r = 0; r < 4; ++r) sipround();
    return v[0] ^ v[1] ^ v[2] ^ v[3];
  }
};

std::uint64_t ref_siphash64(const MacKey& key, const std::vector<std::uint8_t>& msg) {
  RefSip s(key, /*wide=*/false);
  s.compress(msg);
  s.v[2] ^= 0xff;
  return s.finalize();
}

MacTag ref_siphash128(const MacKey& key, const std::vector<std::uint8_t>& msg) {
  RefSip s(key, /*wide=*/true);
  s.compress(msg);
  s.v[2] ^= 0xee;
  const std::uint64_t lo = s.finalize();
  s.v[1] ^= 0xdd;
  const std::uint64_t hi = s.finalize();
  MacTag tag;
  for (int i = 0; i < 8; ++i) tag[static_cast<std::size_t>(i)] = (lo >> (8 * i)) & 0xFF;
  for (int i = 0; i < 8; ++i) {
    tag[8 + static_cast<std::size_t>(i)] = (hi >> (8 * i)) & 0xFF;
  }
  return tag;
}

// ----------------------------------------------------------------------

TEST(SipHash, PaperTestVector64) {
  // Appendix A of the SipHash paper: key 00..0f, message 00..0e.
  const MacKey key = sequential_key();
  std::vector<std::uint8_t> msg(15);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(siphash64(key, msg), 0xa129ca6149be45e5ULL);
}

TEST(SipHash, MatchesReferenceAcrossLengths) {
  // Every message length through several words, plus larger random ones —
  // exercises the full/partial-word boundary at each offset.
  util::Xoshiro256 rng(0x51b);
  const MacKey key = sequential_key();
  for (std::size_t len = 0; len <= 40; ++len) {
    std::vector<std::uint8_t> msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(siphash64(key, msg), ref_siphash64(key, msg)) << len;
    EXPECT_EQ(siphash128(key, msg), ref_siphash128(key, msg)) << len;
  }
  for (std::size_t len : {100u, 1000u, 10000u}) {
    std::vector<std::uint8_t> msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(siphash64(key, msg), ref_siphash64(key, msg)) << len;
    EXPECT_EQ(siphash128(key, msg), ref_siphash128(key, msg)) << len;
  }
}

TEST(SipHash, VariantsAreDomainSeparated) {
  // The 128-bit variant's low word must differ from the 64-bit output for
  // the same (key, message) — the v1 ^= 0xee initialization separates them.
  const MacKey key = sequential_key();
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  const MacTag tag = siphash128(key, msg);
  std::uint64_t lo = 0;
  for (int i = 7; i >= 0; --i) lo = (lo << 8) | tag[static_cast<std::size_t>(i)];
  EXPECT_NE(lo, siphash64(key, msg));
}

TEST(SipHash, KeyAndMessageSensitivity) {
  const MacKey key = sequential_key();
  std::vector<std::uint8_t> msg(33, 0xAB);
  const MacTag base = siphash128(key, msg);
  // Any single-bit key change flips the tag.
  for (std::size_t byte = 0; byte < kMacKeyBytes; ++byte) {
    MacKey k2 = key;
    k2[byte] ^= 1;
    EXPECT_NE(siphash128(k2, msg), base) << byte;
  }
  // Any single-bit message change flips the tag.
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    msg[byte] ^= 0x80;
    EXPECT_NE(siphash128(key, msg), base) << byte;
    msg[byte] ^= 0x80;
  }
  // Length extension by a zero byte flips the tag (length is tagged).
  msg.push_back(0);
  EXPECT_NE(siphash128(key, msg), base);
}

TEST(SipHash, EmptyMessage) {
  // The empty span (possibly with a null data pointer) is a valid input:
  // one length-tagged final word.
  const MacKey key = sequential_key();
  EXPECT_EQ(siphash64(key, {}), ref_siphash64(key, {}));
  EXPECT_EQ(siphash128(key, {}), ref_siphash128(key, {}));
}

// ----------------------------------------------------------------------
// The streaming state: any split of a message across update() calls gives
// the one-shot tag, which the reference confirms independently.

/// The tags of `msg` fed to a streaming state in pieces of `sizes` (the
/// remainder, if any, as a last piece): {128-bit, 64-bit}.
std::pair<MacTag, std::uint64_t> streamed(const MacKey& key, const std::vector<std::uint8_t>& msg,
                                          const std::vector<std::size_t>& sizes) {
  SipHash wide(key, /*wide=*/true);
  SipHash narrow(key, /*wide=*/false);
  std::size_t at = 0;
  const auto feed = [&](std::size_t n) {
    const auto piece = std::span(msg).subspan(at, n);
    wide.update(piece);
    narrow.update(piece);
    at += n;
  };
  for (const std::size_t n : sizes) feed(n);
  feed(msg.size() - at);
  return {wide.finish128(), narrow.finish64()};
}

std::vector<std::uint8_t> random_bytes(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

TEST(SipHashStreaming, EverySplitOfShortMessages) {
  // Two pieces split at every point, and three pieces at every pair of
  // points, for every length through eight words.
  util::Xoshiro256 rng(0x5711);
  const MacKey key = sequential_key();
  for (std::size_t len = 0; len <= 64; ++len) {
    const auto msg = random_bytes(rng, len);
    const MacTag want128 = ref_siphash128(key, msg);
    const std::uint64_t want64 = ref_siphash64(key, msg);
    ASSERT_EQ(siphash128(key, msg), want128) << len;
    ASSERT_EQ(siphash64(key, msg), want64) << len;
    for (std::size_t a = 0; a <= len; ++a) {
      for (std::size_t b = a; b <= len; ++b) {
        const auto [tag, word] = streamed(key, msg, {a, b - a});
        EXPECT_EQ(tag, want128) << len << " split " << a << "," << b;
        EXPECT_EQ(word, want64) << len << " split " << a << "," << b;
      }
    }
  }
}

TEST(SipHashStreaming, LargeMessageAtRandomSplits) {
  util::Xoshiro256 rng(0x300c);
  const MacKey key = sequential_key();
  const auto msg = random_bytes(rng, 300 * 1000);
  const MacTag want = ref_siphash128(key, msg);
  ASSERT_EQ(siphash128(key, msg), want);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::size_t> sizes;
    for (std::size_t left = msg.size(); left > 0;) {
      // Mostly short pieces, so partial words meet at many offsets.
      const std::size_t n = std::min<std::size_t>(left, rng.below(trial % 2 == 0 ? 20 : 20000));
      sizes.push_back(n);
      left -= n;
    }
    EXPECT_EQ(streamed(key, msg, sizes).first, want) << "trial " << trial;
  }
}

TEST(SipHashStreaming, PipelinePatternMatchesOneShot) {
  // What the sealed path feeds: the 24-byte header, then runs of chunks of
  // 2048 four-byte blocks, then a ragged last chunk.
  util::Xoshiro256 rng(0x91e);
  const MacKey key = sequential_key();
  for (const std::size_t len : {24u + 8192u, 24u + 3 * 8192u + 4u, 24u + 5 * 8192u + 12340u}) {
    const auto msg = random_bytes(rng, len);
    std::vector<std::size_t> sizes = {24};
    for (std::size_t at = 24; at + 8192 <= len; at += 8192) sizes.push_back(8192);
    const MacTag want = ref_siphash128(key, msg);
    EXPECT_EQ(streamed(key, msg, sizes).first, want) << len;
    EXPECT_EQ(siphash128(key, msg), want) << len;
  }
}

TEST(ConstantTimeEqual, Contract) {
  const std::vector<std::uint8_t> a = {1, 2, 3, 4};
  std::vector<std::uint8_t> b = a;
  EXPECT_TRUE(constant_time_equal(a, b));
  b[3] ^= 0x40;
  EXPECT_FALSE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, std::span(a).first(3)));  // length mismatch
  EXPECT_TRUE(constant_time_equal({}, {}));
}

TEST(V2KeySchedule, DeterministicAndDomainSeparated) {
  const V2KeySchedule a = V2KeySchedule::derive(0xACE1);
  const V2KeySchedule b = V2KeySchedule::derive(0xACE1);
  EXPECT_EQ(a.mac_key, b.mac_key);
  EXPECT_EQ(a.seed_key, b.seed_key);
  EXPECT_NE(a.mac_key, a.seed_key);  // independent subkeys
  const V2KeySchedule c = V2KeySchedule::derive(0xACE2);
  EXPECT_NE(c.mac_key, a.mac_key);
  EXPECT_NE(c.seed_key, a.seed_key);
}

TEST(V2KeySchedule, MasterLengthsAndRejectsEmpty) {
  // 16-byte masters are used verbatim as the root; other lengths compress.
  std::vector<std::uint8_t> m16(16, 0x42);
  std::vector<std::uint8_t> m32(32, 0x42);
  const auto s16 = V2KeySchedule::derive(m16);
  const auto s32 = V2KeySchedule::derive(m32);
  EXPECT_NE(s16.mac_key, s32.mac_key);
  EXPECT_THROW((void)V2KeySchedule::derive(std::span<const std::uint8_t>{}),
               std::invalid_argument);
}

TEST(V2KeySchedule, CoverSeedsAreNonZeroAndNonceSensitive) {
  const V2KeySchedule s = V2KeySchedule::derive(0xACE1);
  std::uint64_t prev = ~0ULL;
  int collisions = 0;
  for (std::uint64_t nonce = 0; nonce < 1000; ++nonce) {
    for (int bits : {16, 32}) {
      const std::uint64_t seed = s.cover_seed(nonce, bits);
      EXPECT_NE(seed, 0u);
      EXPECT_EQ(seed >> bits, 0u) << "seed exceeds " << bits << " bits";
    }
    const std::uint64_t seed32 = s.cover_seed(nonce, 32);
    if (seed32 == prev) ++collisions;
    prev = seed32;
  }
  // Consecutive nonces essentially never share a 32-bit seed.
  EXPECT_EQ(collisions, 0);
}

}  // namespace
}  // namespace mhhea::crypto
