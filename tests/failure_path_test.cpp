// Failure-path tests for the engine layer: every documented
// std::invalid_argument — truncated or misaligned ciphertext, zero LFSR
// seeds, keys mismatched against vector geometry — must actually throw, at
// the earliest layer that can detect it.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/core/shard.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/crypto/yaea.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"

namespace mhhea {
namespace {

const core::BlockParams kPaper = core::BlockParams::paper();
const core::BlockParams kWide{32, core::FramePolicy::continuous};

std::vector<std::uint8_t> some_message(std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  util::Xoshiro256 rng(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

// ---------------------------------------------------------------- zero seed

TEST(ZeroSeed, CoreEncryptThrows) {
  const core::Key key = core::Key::parse("0-3");
  EXPECT_THROW((void)core::encrypt(some_message(8), key, 0), std::invalid_argument);
}

TEST(ZeroSeed, SeedZeroInLowDegreeBitsThrows) {
  // Only the low `degree` bits seed the LFSR — 0x10000 is effectively zero
  // for the paper's degree-16 register.
  EXPECT_THROW(core::LfsrCover(16, 0x10000), std::invalid_argument);
}

TEST(ZeroSeed, CipherAdaptersThrowAtConstruction) {
  const core::Key key = core::Key::parse("0-3");
  EXPECT_THROW(crypto::MhheaCipher(key, 0), std::invalid_argument);
  EXPECT_THROW(crypto::HheaCipher(key, 0), std::invalid_argument);
}

// ------------------------------------------------------- truncated cipher

TEST(TruncatedCiphertext, MhheaAdapterThrows) {
  const core::Key key = core::Key::parse("0-3,2-5");
  crypto::MhheaCipher cipher(key, 0xACE1);
  const auto msg = some_message(64);
  auto ct = cipher.encrypt(msg);
  ct.resize(ct.size() / 2 & ~std::size_t{1});  // halve, keep block alignment
  EXPECT_THROW((void)cipher.decrypt(ct, msg.size()), std::invalid_argument);
}

TEST(TruncatedCiphertext, HheaAdapterThrows) {
  const core::Key key = core::Key::parse("0-3,2-5");
  crypto::HheaCipher cipher(key, 0xACE1);
  const auto msg = some_message(64);
  auto ct = cipher.encrypt(msg);
  ct.resize(ct.size() / 2 & ~std::size_t{1});
  EXPECT_THROW((void)cipher.decrypt(ct, msg.size()), std::invalid_argument);
}

TEST(TruncatedCiphertext, MisalignedBufferThrows) {
  const core::Key key = core::Key::parse("0-3");
  const std::vector<std::uint8_t> odd(5, 0);  // not a multiple of block_bytes
  EXPECT_THROW((void)core::decrypt(odd, key, 1), std::invalid_argument);
  EXPECT_THROW((void)core::decrypt(odd, key, 1, kPaper, core::Scheme::hhea),
               std::invalid_argument);
}

// ------------------------------------------------------- trailing cipher

TEST(TrailingCiphertext, CoreDecryptRejectsExtraBlocks) {
  // A too-long ciphertext must not round-trip silently: blocks after the
  // message end carry no message bits and mean corruption or padding.
  util::Xoshiro256 rng(31);
  const core::Key key = core::Key::random(rng, 4);
  const auto msg = some_message(32);
  for (auto policy : {core::FramePolicy::continuous, core::FramePolicy::framed}) {
    const core::BlockParams params{16, policy};
    auto ct = core::encrypt(msg, key, 0xACE1, params);
    EXPECT_EQ(core::decrypt(ct, key, msg.size(), params), msg);  // exact: fine
    ct.push_back(0xAA);  // one whole extra block
    ct.push_back(0x55);
    EXPECT_THROW((void)core::decrypt(ct, key, msg.size(), params),
                 std::invalid_argument);
  }
}

TEST(TrailingCiphertext, HheaDecryptRejectsExtraBlocks) {
  const core::Key key = core::Key::parse("0-3,2-5");
  const auto msg = some_message(32);
  auto ct = core::encrypt(msg, key, 0xACE1, kPaper, core::Scheme::hhea);
  ct.insert(ct.end(), {0xAA, 0x55});
  EXPECT_THROW((void)core::decrypt(ct, key, msg.size(), kPaper, core::Scheme::hhea),
               std::invalid_argument);
}

TEST(TrailingCiphertext, ZeroLengthMessageWithPayloadThrows) {
  const core::Key key = core::Key::parse("0-3");
  const std::vector<std::uint8_t> two_blocks = {0x12, 0x34, 0x56, 0x78};
  EXPECT_THROW((void)core::decrypt(two_blocks, key, 0), std::invalid_argument);
}

TEST(TruncatedCiphertext, YaeaThrowsInsteadOfZeroPadding) {
  // Regression: a short YAEA-S buffer used to be resized up, silently
  // fabricating plaintext zeros for the missing tail.
  crypto::Yaea cipher({0x1ACE, 0x2BEEF, 0x3CAFE});
  const auto msg = some_message(64);
  auto ct = cipher.encrypt(msg);
  ct.resize(40);
  EXPECT_THROW((void)cipher.decrypt(ct, msg.size()), std::invalid_argument);
  EXPECT_THROW((void)cipher.decrypt({}, 1), std::invalid_argument);
}

TEST(TrailingCiphertext, YaeaRejectsExtraBytes) {
  // Regression: trailing YAEA-S bytes used to be dropped without complaint —
  // a stream cipher's ciphertext is exactly as long as its plaintext.
  crypto::Yaea cipher({0x1ACE, 0x2BEEF, 0x3CAFE});
  const auto msg = some_message(64);
  auto ct = cipher.encrypt(msg);
  ct.push_back(0x00);
  EXPECT_THROW((void)cipher.decrypt(ct, msg.size()), std::invalid_argument);
  const std::vector<std::uint8_t> payload = {0x42};
  EXPECT_THROW((void)cipher.decrypt(payload, 0), std::invalid_argument);
}

// -------------------------------------------------- key/params mismatches

TEST(KeyParamsMismatch, WideKeyOnNarrowVectorThrowsEverywhere) {
  // Legal for N=32 (values up to 15), illegal for the paper's N=16.
  const core::Key wide = core::Key::parse("0-12", kWide);
  EXPECT_THROW(core::Encryptor(wide, core::make_lfsr_cover(16, 1), kPaper),
               std::invalid_argument);
  EXPECT_THROW(core::Decryptor(wide, 8, kPaper), std::invalid_argument);
  EXPECT_THROW(core::Encryptor(wide, core::make_lfsr_cover(16, 1), kPaper, core::Scheme::hhea),
               std::invalid_argument);
  EXPECT_THROW(core::Decryptor(wide, 8, kPaper, core::Scheme::hhea), std::invalid_argument);
  EXPECT_THROW(crypto::MhheaCipher(wide, 0xACE1, kPaper), std::invalid_argument);
  EXPECT_THROW(crypto::HheaCipher(wide, 0xACE1, kPaper), std::invalid_argument);
}

TEST(KeyParamsMismatch, KeyConstructionRejectsOutOfRangeValues) {
  EXPECT_THROW(core::Key({core::KeyPair{0, 8}}, kPaper), std::invalid_argument);
  EXPECT_THROW(core::Key({core::KeyPair{0, 16}}, kWide), std::invalid_argument);
}

TEST(KeyParamsMismatch, BadVectorSizeRejected) {
  core::BlockParams bad;
  bad.vector_bits = 24;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_THROW(core::LfsrCover(24, 1), std::invalid_argument);
}

// ----------------------------------------------------------- bulk Geffe API

TEST(GeffeBulk, EmptySpanIsANoOp) {
  crypto::GeffeKeystream bulk(0x1ACE, 0x2BEEF, 0x3CAFE);
  crypto::GeffeKeystream serial(0x1ACE, 0x2BEEF, 0x3CAFE);
  bulk.next_bytes(std::span<std::uint8_t>());
  std::vector<std::uint8_t> none;
  bulk.next_bytes(none);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(bulk.next_byte(), serial.next_byte()) << "byte " << i;
  }
}

TEST(GeffeBulk, JumpThenBulkConsistentAcrossPeriodBoundaries) {
  // Jump distances straddling the degree-17 register's full period
  // (2^17 - 1 = 131071 steps): register A wraps to its seed while B and C
  // land mid-period. The bulk pull after the jump must equal the serial
  // stream that walked there bit by bit.
  const std::uint64_t period_a = (std::uint64_t{1} << 17) - 1;
  for (const std::uint64_t n : {period_a - 3, period_a, period_a + 7}) {
    crypto::GeffeKeystream jumped(0x1ACE, 0x2BEEF, 0x3CAFE);
    jumped.jump(n);
    std::array<std::uint8_t, 32> bulk{};
    jumped.next_bytes(bulk);

    crypto::GeffeKeystream walked(0x1ACE, 0x2BEEF, 0x3CAFE);
    for (std::uint64_t i = 0; i < n; ++i) (void)walked.next_bit();
    for (std::size_t i = 0; i < bulk.size(); ++i) {
      ASSERT_EQ(bulk[i], walked.next_byte()) << "jump " << n << " byte " << i;
    }
  }
}

// ------------------------------------------------- framed-batch strictness

TEST(FramedBatchStrictness, TruncatedFinalFrameThrowsEverywhere) {
  // Dropping the final frame's last block must fail exactly like the
  // one-block-at-a-time path did: core decrypt, every shard count, and the
  // sealed adapter.
  const core::BlockParams params = core::BlockParams::hardware();
  util::Xoshiro256 rng(47);
  const core::Key key = core::Key::random(rng, 4, params);
  const auto msg = some_message(33);  // short final frame (264 = 16*16 + 8 bits)
  auto ct = core::encrypt(msg, key, 0xACE1, params);
  ct.resize(ct.size() - static_cast<std::size_t>(params.block_bytes()));
  EXPECT_THROW((void)core::decrypt(ct, key, msg.size(), params), std::invalid_argument);
  const core::LfsrCover proto(params.vector_bits, 0xACE1);
  for (const int shards : {2, 4, 8}) {
    EXPECT_THROW(
        (void)core::decrypt_sharded(ct, key, msg.size(), shards, nullptr, params),
        std::invalid_argument)
        << "shards " << shards;
  }
  // Through the sealed adapter: drop the last block ahead of the MAC trailer
  // and re-tag the container under the right MAC key, so the strict length
  // check — not the MAC — is what rejects it.
  crypto::MhheaCipher sealed(key, 0xACE1, params, crypto::MhheaCipher::Framing::sealed_v2);
  auto framed = sealed.encrypt(msg);
  framed.resize(framed.size() - core::FrameHeader::kMacBytesV2 -
                static_cast<std::size_t>(params.block_bytes()));
  const crypto::MacTag tag =
      crypto::siphash128(crypto::V2KeySchedule::derive(0xACE1).mac_key, framed);
  framed.insert(framed.end(), tag.begin(), tag.end());
  EXPECT_THROW((void)sealed.decrypt(framed, msg.size()), std::invalid_argument);
}

TEST(FramedBatchStrictness, TrailingCiphertextThrowsEverywhere) {
  const core::BlockParams params = core::BlockParams::hardware();
  util::Xoshiro256 rng(48);
  const core::Key key = core::Key::random(rng, 4, params);
  const auto msg = some_message(32);  // exact frame multiple: no slack at all
  auto ct = core::encrypt(msg, key, 0xACE1, params);
  ct.insert(ct.end(), {0xAA, 0x55});  // one whole extra block
  EXPECT_THROW((void)core::decrypt(ct, key, msg.size(), params), std::invalid_argument);
  for (const int shards : {2, 4, 8}) {
    EXPECT_THROW(
        (void)core::decrypt_sharded(ct, key, msg.size(), shards, nullptr, params),
        std::invalid_argument)
        << "shards " << shards;
  }
  // The reusable core: the kernel walk must reject the extra block too,
  // and still decode the exact ciphertext afterwards.
  const core::Decryptor dec(key, 0, params);
  std::vector<std::uint8_t> out(msg.size());
  EXPECT_THROW((void)dec.decrypt_into(ct, msg.size() * 8, out), std::invalid_argument);
  ct.resize(ct.size() - 2);
  EXPECT_EQ(dec.decrypt_into(ct, msg.size() * 8, out), msg.size());
  EXPECT_EQ(out, msg);
}

}  // namespace
}  // namespace mhhea
