// Intra-message sharding tests: cover jump-ahead (skip_blocks/clone), the
// sharded MHHEA/HHEA/YAEA paths' bit-equivalence with the sequential cores
// at every shard count, the strict decryption contract under sharding, and
// the registry-level shards knob. These suites (with cipher_registry_test)
// are the ThreadSanitizer CI target — they exercise every concurrent path.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/core/shard.hpp"
#include "src/crypto/hhea.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/yaea.hpp"
#include "src/util/rng.hpp"
#include "src/exec/executor.hpp"

namespace mhhea {
namespace {

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

/// Message sizes spanning the shard planner's regimes: sub-chunk, a few
/// chunks, and many chunks per shard.
const std::size_t kSizes[] = {0, 1, 3, 16, 64, 257, 1024, 5000, 16384};

// --------------------------------------------------------- cover jump-ahead

TEST(CoverSkip, LfsrCoverMatchesDiscardedReads) {
  for (const int bits : {16, 32, 64}) {
    for (const std::uint64_t skip : {0ull, 1ull, 7ull, 100ull, 4096ull}) {
      core::LfsrCover jumped(bits, 0xACE1);
      core::LfsrCover stepped(bits, 0xACE1);
      for (std::uint64_t i = 0; i < skip; ++i) (void)stepped.next_block(bits);
      jumped.skip_blocks(bits, skip);
      EXPECT_EQ(jumped.next_block(bits), stepped.next_block(bits))
          << "bits=" << bits << " skip=" << skip;
    }
  }
}

TEST(CoverSkip, BufferCoverClampsAtEnd) {
  core::BufferCover cover({1, 2, 3, 4, 5});
  cover.skip_blocks(16, 3);
  EXPECT_EQ(cover.next_block(16), 4u);
  cover.skip_blocks(16, 100);  // past the end: not an error
  EXPECT_EQ(cover.remaining(), 0u);
  EXPECT_THROW((void)cover.next_block(16), std::runtime_error);
  cover.reset();
  EXPECT_EQ(cover.next_block(16), 1u);
}

TEST(CoverSkip, CountingCoverSkips) {
  core::CountingCover cover(10);
  cover.skip_blocks(16, 5);
  EXPECT_EQ(cover.next_block(16), 15u);
}

TEST(CoverClone, IndependentStateSharedDefinition) {
  core::LfsrCover cover(16, 0xBEEF);
  (void)cover.next_block(16);
  const auto copy = cover.clone();
  // The clone carries the current state...
  EXPECT_EQ(copy->next_block(16), cover.next_block(16));
  // ...but advances independently thereafter.
  (void)cover.next_block(16);
  copy->reset();
  core::LfsrCover fresh(16, 0xBEEF);
  EXPECT_EQ(copy->next_block(16), fresh.next_block(16));
}

TEST(CoverClone, DefaultIsNotClonable) {
  class Opaque : public core::CoverSource {
    std::uint64_t next_block(int) override { return 0; }
  };
  Opaque cover;
  EXPECT_THROW((void)cover.clone(), std::logic_error);
}

TEST(GeffeJump, MatchesSteppedKeystream) {
  crypto::GeffeKeystream jumped(0x1ACE, 0x2BEEF, 0x3CAFE);
  crypto::GeffeKeystream stepped(0x1ACE, 0x2BEEF, 0x3CAFE);
  for (int i = 0; i < 1000; ++i) (void)stepped.next_bit();
  jumped.jump(1000);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(jumped.next_bit(), stepped.next_bit()) << i;
}

// -------------------------------------------------- core MHHEA equivalence

class ShardPolicy : public ::testing::TestWithParam<core::BlockParams> {};

TEST_P(ShardPolicy, EncryptShardedMatchesSequential) {
  const core::BlockParams params = GetParam();
  util::Xoshiro256 rng(0x5A4D);
  const core::Key key = core::Key::random(rng, 8, params);
  const core::LfsrCover cover(params.vector_bits, 0xACE1);
  exec::Executor pool(4);
  for (const std::size_t len : kSizes) {
    const auto msg = random_message(rng, len);
    const auto expected = core::encrypt(msg, key, 0xACE1, params);
    for (const int shards : {1, 2, 4, 8}) {
      // With and without a pool: same plan, same bytes.
      EXPECT_EQ(core::encrypt_sharded(msg, key, cover, shards, &pool, params), expected)
          << "len=" << len << " shards=" << shards;
      EXPECT_EQ(core::encrypt_sharded(msg, key, cover, shards, nullptr, params), expected)
          << "len=" << len << " shards=" << shards << " inline";
    }
  }
}

TEST_P(ShardPolicy, DecryptShardedMatchesSequential) {
  const core::BlockParams params = GetParam();
  util::Xoshiro256 rng(0xD0C);
  const core::Key key = core::Key::random(rng, 8, params);
  exec::Executor pool(4);
  for (const std::size_t len : kSizes) {
    const auto msg = random_message(rng, len);
    const auto ct = core::encrypt(msg, key, 0xACE1, params);
    for (const int shards : {1, 2, 4, 8}) {
      EXPECT_EQ(core::decrypt_sharded(ct, key, len, shards, &pool, params), msg)
          << "len=" << len << " shards=" << shards;
      EXPECT_EQ(core::decrypt_sharded(ct, key, len, shards, nullptr, params), msg)
          << "len=" << len << " shards=" << shards << " inline";
    }
  }
}

TEST_P(ShardPolicy, DecryptShardedKeepsTheStrictContract) {
  const core::BlockParams params = GetParam();
  util::Xoshiro256 rng(0xBAD);
  const core::Key key = core::Key::random(rng, 4, params);
  exec::Executor pool(4);
  const auto msg = random_message(rng, 300);
  auto ct = core::encrypt(msg, key, 0xACE1, params);
  const auto bb = static_cast<std::size_t>(params.block_bytes());
  for (const int shards : {2, 8}) {
    // Truncated: drop the final block.
    std::vector<std::uint8_t> shorter(ct.begin(), ct.end() - bb);
    EXPECT_THROW((void)core::decrypt_sharded(shorter, key, msg.size(), shards, &pool, params),
                 std::invalid_argument);
    // Trailing: append one extra block.
    std::vector<std::uint8_t> longer = ct;
    longer.insert(longer.end(), bb, 0x00);
    EXPECT_THROW((void)core::decrypt_sharded(longer, key, msg.size(), shards, &pool, params),
                 std::invalid_argument);
    // Misaligned: chop one byte.
    std::vector<std::uint8_t> ragged(ct.begin(), ct.end() - 1);
    EXPECT_THROW((void)core::decrypt_sharded(ragged, key, msg.size(), shards, &pool, params),
                 std::invalid_argument);
    // A zero-length message with payload is trailing ciphertext.
    EXPECT_THROW((void)core::decrypt_sharded(ct, key, 0, shards, &pool, params),
                 std::invalid_argument);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ShardPolicy,
                         ::testing::Values(core::BlockParams::paper(),
                                           core::BlockParams::hardware(),
                                           core::BlockParams{32, core::FramePolicy::continuous},
                                           core::BlockParams{64, core::FramePolicy::framed}),
                         [](const ::testing::TestParamInfo<core::BlockParams>& info) {
                           return std::string("N") + std::to_string(info.param.vector_bits) +
                                  (info.param.policy == core::FramePolicy::framed
                                       ? "framed"
                                       : "continuous");
                         });

TEST(ShardStego, BufferCoverDrainsExactlyLikeSequential) {
  // Steganography mode: a finite cover must be consumed block-for-block
  // identically, and exhaustion mid-message must still throw.
  const core::BlockParams params = core::BlockParams::paper();
  util::Xoshiro256 rng(0x57E60);
  const core::Key key = core::Key::random(rng, 8, params);
  std::vector<std::uint64_t> blocks;
  for (int i = 0; i < 4096; ++i) blocks.push_back(rng.next() & 0xFFFF);
  const core::BufferCover cover(blocks);
  const auto msg = random_message(rng, 700);

  core::Encryptor enc(key, cover.clone(), params);
  std::vector<std::uint8_t> expected(enc.one_shot_cipher_bytes(msg.size() * 8));
  ASSERT_EQ(enc.encrypt_into(msg, expected), expected.size());
  exec::Executor pool(4);
  for (const int shards : {2, 4, 8}) {
    EXPECT_EQ(core::encrypt_sharded(msg, key, cover, shards, &pool, params), expected)
        << shards;
  }

  // A cover too short for the message: sequential and sharded agree on the
  // failure mode.
  const core::BufferCover tiny(std::vector<std::uint64_t>(blocks.begin(), blocks.begin() + 20));
  EXPECT_THROW((void)core::encrypt_sharded(msg, key, tiny, 4, &pool, params),
               std::runtime_error);
}

// ---------------------------------------------------------- HHEA equivalence

TEST(ShardHhea, MatchesSequentialBothPolicies) {
  util::Xoshiro256 rng(0x44EA);
  exec::Executor pool(4);
  for (const core::BlockParams params :
       {core::BlockParams::paper(), core::BlockParams::hardware()}) {
    const core::Key key = core::Key::random(rng, 8, params);
    const core::LfsrCover cover(params.vector_bits, 0xACE1);
    for (const std::size_t len : kSizes) {
      const auto msg = random_message(rng, len);
      const auto expected = crypto::hhea_encrypt(msg, key, 0xACE1, params);
      for (const int shards : {1, 2, 4, 8}) {
        EXPECT_EQ(crypto::hhea_encrypt_sharded(msg, key, cover, shards, &pool, params),
                  expected)
            << "len=" << len << " shards=" << shards;
        EXPECT_EQ(crypto::hhea_decrypt_sharded(expected, key, len, shards, &pool, params),
                  msg)
            << "len=" << len << " shards=" << shards;
      }
    }
  }
}

TEST(ShardHhea, StrictContractUnderSharding) {
  const core::BlockParams params = core::BlockParams::paper();
  util::Xoshiro256 rng(0x44EB);
  const core::Key key = core::Key::random(rng, 4, params);
  exec::Executor pool(2);
  const auto msg = random_message(rng, 120);
  auto ct = crypto::hhea_encrypt(msg, key, 0xACE1, params);
  const auto bb = static_cast<std::size_t>(params.block_bytes());
  std::vector<std::uint8_t> shorter(ct.begin(), ct.end() - bb);
  EXPECT_THROW((void)crypto::hhea_decrypt_sharded(shorter, key, msg.size(), 4, &pool, params),
               std::invalid_argument);
  ct.insert(ct.end(), bb, 0x00);
  EXPECT_THROW((void)crypto::hhea_decrypt_sharded(ct, key, msg.size(), 4, &pool, params),
               std::invalid_argument);
}

// ------------------------------------------------------- registry-level knob

class ShardedRegistryCipher : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedRegistryCipher, ShardSweepIsBitIdentical) {
  // The acceptance sweep: shards in {1, 2, 4, 8} must produce byte-identical
  // ciphertext and round-trip for every registered cipher.
  util::Xoshiro256 rng(0x5A51);
  const auto reference = crypto::CipherRegistry::builtin().make(GetParam(), 0xACE1, 1);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{257},
                                std::size_t{4096}, std::size_t{20000}}) {
    const auto msg = random_message(rng, len);
    const auto expected = reference->encrypt(msg);
    for (const int shards : {2, 4, 8}) {
      const auto sharded = crypto::CipherRegistry::builtin().make(GetParam(), 0xACE1, shards);
      EXPECT_EQ(sharded->encrypt(msg), expected)
          << GetParam() << " len=" << len << " shards=" << shards;
      EXPECT_EQ(sharded->decrypt(expected, len), msg)
          << GetParam() << " len=" << len << " shards=" << shards;
    }
  }
}

TEST_P(ShardedRegistryCipher, NegativeShardsThrow) {
  EXPECT_THROW((void)crypto::CipherRegistry::builtin().make(GetParam(), 0xACE1, -1),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, ShardedRegistryCipher,
                         ::testing::ValuesIn(crypto::CipherRegistry::builtin().names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace mhhea
