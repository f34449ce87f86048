// End-to-end encrypt/decrypt properties of the MHHEA library: round-trips
// across policies, vector sizes, key sizes and message lengths; nonce
// independence; steganography mode; failure injection.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"

namespace mhhea::core {
namespace {

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

using Case = std::tuple<int /*vector_bits*/, FramePolicy, int /*key pairs*/, int /*msg len*/>;

class RoundTrip : public ::testing::TestWithParam<Case> {};

TEST_P(RoundTrip, DecryptRecoversMessage) {
  const auto [bits, policy, n_pairs, msg_len] = GetParam();
  const BlockParams params{bits, policy};
  util::Xoshiro256 rng(static_cast<std::uint64_t>(bits) * 1000003 +
                       static_cast<std::uint64_t>(n_pairs) * 131 +
                       static_cast<std::uint64_t>(msg_len));
  const Key key = Key::random(rng, n_pairs, params);
  const auto msg = random_message(rng, static_cast<std::size_t>(msg_len));
  const std::uint64_t seed = 0xACE1;

  const auto cipher = encrypt(msg, key, seed, params);
  // Expansion: every block carries at least 1 and at most half() bits.
  if (!msg.empty()) {
    EXPECT_GE(cipher.size(), msg.size() * 2u);
  }
  const auto back = decrypt(cipher, key, msg.size(), params);
  EXPECT_EQ(back, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundTrip,
    ::testing::Combine(::testing::Values(16, 32, 64),
                       ::testing::Values(FramePolicy::continuous, FramePolicy::framed),
                       ::testing::Values(1, 2, 16),
                       ::testing::Values(0, 1, 2, 3, 4, 15, 16, 17, 64, 1000)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "N" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == FramePolicy::continuous ? "Cont" : "Framed") +
             "K" + std::to_string(std::get<2>(info.param)) + "Len" +
             std::to_string(std::get<3>(info.param));
    });

TEST(RoundTripEdge, EmptyMessageProducesNoBlocks) {
  const Key key = Key::parse("0-3");
  const auto cipher = encrypt({}, key, 1);
  EXPECT_TRUE(cipher.empty());
  EXPECT_TRUE(decrypt(cipher, key, 0).empty());
}

TEST(RoundTripEdge, DecryptDoesNotNeedTheSeed) {
  // The seed is a nonce: Decryptor is constructed from key + length only.
  util::Xoshiro256 rng(5);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 64);
  for (std::uint64_t seed : {0x1ull, 0xACE1ull, 0xFFFFull, 0x1234ull}) {
    const auto cipher = encrypt(msg, key, seed);
    EXPECT_EQ(decrypt(cipher, key, msg.size()), msg) << seed;
  }
}

TEST(RoundTripEdge, DifferentSeedsGiveDifferentCiphertext) {
  util::Xoshiro256 rng(6);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 64);
  EXPECT_NE(encrypt(msg, key, 0x1111), encrypt(msg, key, 0x2222));
}

TEST(RoundTripEdge, SameInputsAreDeterministic) {
  util::Xoshiro256 rng(7);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 64);
  EXPECT_EQ(encrypt(msg, key, 0xBEEF), encrypt(msg, key, 0xBEEF));
}

TEST(RoundTripEdge, WrongKeyGarblesMessage) {
  util::Xoshiro256 rng(8);
  const Key key = Key::parse("0-3,2-5,7-1,4-4");
  const Key wrong = Key::parse("1-3,2-5,7-1,4-4");
  const auto msg = random_message(rng, 256);
  const auto cipher = encrypt(msg, key, 0xACE1);
  // Wrong key may even misparse block widths; any path must NOT yield msg.
  try {
    const auto back = decrypt(cipher, wrong, msg.size());
    EXPECT_NE(back, msg);
  } catch (const std::invalid_argument&) {
    SUCCEED();  // ran out of blocks — also an acceptable failure mode
  }
}

TEST(RoundTripEdge, TruncatedCiphertextThrows) {
  util::Xoshiro256 rng(9);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 64);
  auto cipher = encrypt(msg, key, 0xACE1);
  cipher.resize(cipher.size() / 2);
  cipher.resize(cipher.size() & ~std::size_t{1});  // keep block alignment
  EXPECT_THROW((void)decrypt(cipher, key, msg.size()), std::invalid_argument);
}

TEST(RoundTripEdge, MisalignedCiphertextThrows) {
  const Key key = Key::parse("0-3");
  std::vector<std::uint8_t> cipher(3, 0);  // not a multiple of block_bytes
  EXPECT_THROW((void)decrypt(cipher, key, 1), std::invalid_argument);
}

TEST(RoundTripEdge, PolicyMismatchCorruptsBeyondFirstFrame) {
  // Continuous vs framed differ once a frame boundary truncates a block, so
  // decrypting framed ciphertext with continuous accounting must diverge for
  // messages long enough to cross a frame.
  util::Xoshiro256 rng(10);
  const Key key = Key::parse("0-7");  // wide pair: blocks usually carry >4 bits
  const auto msg = random_message(rng, 64);
  const BlockParams framed{16, FramePolicy::framed};
  const BlockParams cont{16, FramePolicy::continuous};
  const auto cipher = encrypt(msg, key, 0xACE1, framed);
  bool diverged = false;
  try {
    diverged = decrypt(cipher, key, msg.size(), cont) != msg;
  } catch (const std::invalid_argument&) {
    diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Steganography, BufferCoverRoundTrip) {
  // Hide the message in known cover blocks and recover it with the key
  // alone (the receiver never needs the cover).
  util::Xoshiro256 rng(11);
  const Key key = Key::parse("0-3,2-5");
  const auto msg = random_message(rng, 32);
  std::vector<std::uint64_t> cover_blocks(1000);
  const std::uint64_t seed = 1 + rng.below(0xFFFF);
  (void)LfsrCover(16, seed).next_blocks(16, cover_blocks);

  Encryptor enc(key, LfsrCover(16, seed));
  std::vector<std::uint8_t> cipher(enc.one_shot_cipher_bytes(msg.size() * 8));
  ASSERT_EQ(enc.encrypt_into(msg, cipher), cipher.size());
  // Every stego block differs from its cover only in the low byte.
  for (std::size_t i = 0; i < cipher.size() / 2; ++i) {
    EXPECT_EQ(util::load_le(cipher.data() + 2 * i, 2) >> 8, cover_blocks[i] >> 8) << i;
  }
  std::vector<std::uint8_t> back(msg.size());
  const Decryptor dec(key, 0);
  EXPECT_EQ(dec.decrypt_into(cipher, msg.size() * 8, back), msg.size());
  EXPECT_EQ(back, msg);
}

TEST(Encryptor, RejectsBadConstruction) {
  const Key key = Key::parse("0-3");
  // A cover of another width than the vectors.
  EXPECT_THROW(Encryptor(key, LfsrCover(32, 1)), std::invalid_argument);
  // Key valid for N=32 but not for N=16.
  const BlockParams p32{32, FramePolicy::continuous};
  const Key wide = Key::parse("0-12", p32);
  EXPECT_THROW(Encryptor(wide, make_lfsr_cover(16, 1), BlockParams::paper()),
               std::invalid_argument);
}

TEST(Encryptor, ResetReplaysTheSameStream) {
  // Every encryption rewinds the cover, so a reused core encrypting
  // messages of different lengths, in both policies, is bit-identical to a
  // fresh core each time.
  util::Xoshiro256 rng(14);
  const Key key = Key::random(rng, 8);
  for (auto policy : {FramePolicy::continuous, FramePolicy::framed}) {
    const BlockParams params{16, policy};
    Encryptor reused(key, make_lfsr_cover(16, 0xACE1), params);
    for (std::size_t len : {5u, 96u, 1u, 0u, 333u, 3u, 41u}) {
      const auto msg = random_message(rng, len);
      std::vector<std::uint8_t> ct(reused.one_shot_cipher_bytes(len * 8));
      ASSERT_EQ(reused.encrypt_into(msg, ct), ct.size()) << len;
      EXPECT_EQ(ct, encrypt(msg, key, 0xACE1, params)) << len;
    }
  }
}

TEST(Encryptor, ResetRewindsBufferCover) {
  // Every encryption restarts from the first cover block.
  util::Xoshiro256 rng(15);
  const Key key = Key::parse("0-3,2-5");
  const auto msg = random_message(rng, 16);
  Encryptor enc(key, LfsrCover(16, 1 + rng.below(0xFFFF)));
  std::vector<std::uint8_t> first(enc.one_shot_cipher_bytes(msg.size() * 8));
  ASSERT_EQ(enc.encrypt_into(msg, first), first.size());
  std::vector<std::uint8_t> again(first.size());
  ASSERT_EQ(enc.encrypt_into(msg, again), again.size());
  EXPECT_EQ(again, first);
}

TEST(Decryptor, ResetDecodesANewMessageLength) {
  // One Decryptor serves messages of any length: each call names its own.
  util::Xoshiro256 rng(17);
  const Key key = Key::random(rng, 8);
  const Decryptor dec(key, 0);
  for (std::size_t len : {64u, 3u, 0u, 200u}) {
    const auto msg = random_message(rng, len);
    const auto ct = encrypt(msg, key, 0xBEEF);
    std::vector<std::uint8_t> back(len);
    EXPECT_EQ(dec.decrypt_into(ct, len * 8, back), len);
    EXPECT_EQ(back, msg) << len;
  }
}

}  // namespace
}  // namespace mhhea::core
