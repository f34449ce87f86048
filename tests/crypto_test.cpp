// Tests for the baseline ciphers: HHEA (no scrambling) and YAEA-S (Geffe).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>

#include "src/core/mhhea.hpp"
#include "src/crypto/yaea.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"

namespace mhhea::crypto {
namespace {

constexpr core::Scheme kHhea = core::Scheme::hhea;

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

TEST(Hhea, RoundTripAcrossLengthsAndPolicies) {
  util::Xoshiro256 rng(21);
  for (auto policy : {core::FramePolicy::continuous, core::FramePolicy::framed}) {
    const core::BlockParams params{16, policy};
    const core::Key key = core::Key::random(rng, 8);
    for (std::size_t len : {0u, 1u, 7u, 16u, 100u}) {
      const auto msg = random_message(rng, len);
      const auto cipher = core::encrypt(msg, key, 0xACE1, params, kHhea);
      EXPECT_EQ(core::decrypt(cipher, key, len, params, kHhea), msg) << len;
    }
  }
}

TEST(Hhea, LocationsAreFixedPerPair) {
  // The defining weakness: with a single pair, every block hides its bits at
  // exactly [K1, K2] — outside that range the cover passes through.
  util::Xoshiro256 rng(22);
  const core::Key key = core::Key::parse("2-5");
  const auto msg = random_message(rng, 64);

  // Replay the cover so pass-through bits are predictable.
  std::vector<std::uint64_t> cover_blocks(200);
  (void)core::LfsrCover(16, 0x5EED).next_blocks(16, cover_blocks);
  core::Encryptor enc(key, core::LfsrCover(16, 0x5EED), core::BlockParams::paper(), kHhea);
  std::vector<std::uint8_t> ct(enc.one_shot_cipher_bytes(msg.size() * 8));
  ASSERT_EQ(enc.encrypt_into(msg, ct), ct.size());
  for (std::size_t i = 0; i < ct.size() / 2; ++i) {
    const std::uint64_t diff = util::load_le(ct.data() + 2 * i, 2) ^ cover_blocks[i];
    EXPECT_EQ(diff & ~std::uint64_t{0b111100}, 0u) << "block " << i;
  }
}

TEST(Hhea, NoDataScrambling) {
  // Message bits appear verbatim (not XORed) at the key locations.
  const core::Key key = core::Key::parse("0-7");
  const std::vector<std::uint8_t> zeros(16, 0x00);
  core::Encryptor enc(key, core::LfsrCover(16, 0xFF00), core::BlockParams::paper(), kHhea);
  std::vector<std::uint8_t> ct(enc.one_shot_cipher_bytes(zeros.size() * 8));
  ASSERT_EQ(enc.encrypt_into(zeros, ct), ct.size());
  core::LfsrCover cover(16, 0xFF00);
  for (std::size_t i = 0; i < ct.size() / 2; ++i) {
    const std::uint64_t b = util::load_le(ct.data() + 2 * i, 2);
    EXPECT_EQ(b & 0xFF, 0u);  // all-zero plaintext -> low byte all zero
    EXPECT_EQ(b >> 8, cover.next_block(16) >> 8);  // high byte: the cover's
  }
}

TEST(Hhea, ExpansionMatchesKeySpan) {
  // Pair (0,7): 8 bits per 16-bit block -> exactly 2x expansion.
  util::Xoshiro256 rng(23);
  const core::Key key = core::Key::parse("0-7");
  const auto msg = random_message(rng, 128);
  const auto cipher = core::encrypt(msg, key, 0xACE1, core::BlockParams::paper(), kHhea);
  EXPECT_EQ(cipher.size(), msg.size() * 2);
  // Pair (0,0): 1 bit per block -> 16x expansion.
  const core::Key slow = core::Key::parse("0-0");
  EXPECT_EQ(core::encrypt(msg, slow, 0xACE1, core::BlockParams::paper(), kHhea).size(),
            msg.size() * 8 * 2);
}

TEST(Geffe, KeystreamIsDeterministicAndBalanced) {
  GeffeKeystream a(0x1ACE, 0x2BEEF, 0x3CAFE);
  GeffeKeystream b(0x1ACE, 0x2BEEF, 0x3CAFE);
  int ones = 0;
  for (int i = 0; i < 20000; ++i) {
    const bool bit = a.next_bit();
    EXPECT_EQ(bit, b.next_bit());
    ones += bit;
  }
  EXPECT_NEAR(ones / 20000.0, 0.5, 0.02);
}

TEST(Geffe, RejectsZeroSeeds) {
  EXPECT_THROW(GeffeKeystream(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(GeffeKeystream(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(GeffeKeystream(1, 1, 0), std::invalid_argument);
}

TEST(Geffe, CombinerTruthTable) {
  // z = (a & b) | (~a & c): verify the 75% agreement with b and c that the
  // correlation attack exploits — over all 8 input combos, z == b in 6 and
  // z == c in 6.
  int agree_b = 0, agree_c = 0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int c = 0; c < 2; ++c) {
        const int z = (a & b) | ((1 - a) & c);
        agree_b += (z == b);
        agree_c += (z == c);
      }
    }
  }
  EXPECT_EQ(agree_b, 6);
  EXPECT_EQ(agree_c, 6);
}

TEST(Yaea, RoundTripAndDeterminism) {
  util::Xoshiro256 rng(24);
  Yaea cipher({0x1ACE, 0x2BEEF, 0x3CAFE});
  const auto msg = random_message(rng, 1000);
  const auto ct = cipher.encrypt(msg);
  EXPECT_EQ(ct.size(), msg.size());  // expansion 1.0
  EXPECT_NE(ct, msg);
  Yaea cipher2({0x1ACE, 0x2BEEF, 0x3CAFE});
  EXPECT_EQ(cipher2.decrypt(ct, msg.size()), msg);
  EXPECT_DOUBLE_EQ(cipher.expansion(), 1.0);
  EXPECT_EQ(cipher.name(), "YAEA-S");
}

TEST(Yaea, DifferentKeysDiverge) {
  util::Xoshiro256 rng(25);
  const auto msg = random_message(rng, 100);
  Yaea a({0x1ACE, 0x2BEEF, 0x3CAFE});
  Yaea b({0x1ACF, 0x2BEEF, 0x3CAFE});
  EXPECT_NE(a.encrypt(msg), b.encrypt(msg));
}

}  // namespace
}  // namespace mhhea::crypto
