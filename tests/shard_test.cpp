// Intra-message sharding tests: cover jump-ahead (skip_blocks/copies), the
// chunk pipeline's bit-equivalence with the sequential cores at every shard
// count, at tiny chunk sizes that cut chunks mid-frame and at chunk sizes
// around the kernels' batches and the covers-once bound (MHHEA, HHEA,
// YAEA), the strict decryption contract under sharding, and the
// registry-level shards knob. These suites (with cipher_registry_test)
// are the ThreadSanitizer CI target — they exercise every concurrent path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/core/shard.hpp"
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

TEST(CoverClone, IndependentStateSharedDefinition) {
  core::LfsrCover cover(16, 0xBEEF);
  (void)cover.next_block(16);
  core::LfsrCover copy = cover;
  // The copy carries the current state...
  EXPECT_EQ(copy.next_block(16), cover.next_block(16));
  // ...but advances independently thereafter.
  (void)cover.next_block(16);
  copy.reset();
  core::LfsrCover fresh(16, 0xBEEF);
  EXPECT_EQ(copy.next_block(16), fresh.next_block(16));
  // Warming builds tables without moving the position.
  core::LfsrCover warmed = fresh;
  warmed.warm();
  EXPECT_EQ(warmed.next_block(16), fresh.next_block(16));
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

/// The planner's edge inputs: lengths 1..24 B on top of kSizes, a random
/// key and the all-odd-width key (HHEA spans + 1 = 3, 5, 1, 5, so
/// cumulative bit offsets hit byte boundaries only at some block edges).
std::vector<std::size_t> edge_lengths() {
  std::vector<std::size_t> lens(std::begin(kSizes), std::end(kSizes));
  for (std::size_t len = 2; len <= 24; ++len) lens.push_back(len);
  return lens;
}
std::vector<core::Key> edge_keys(util::Xoshiro256& rng, const core::BlockParams& params) {
  return {core::Key::random(rng, 8, params), core::Key::parse("0-2,1-5,3-3,2-6", params)};
}

/// Chunk sizes for the pipeline's test seam: 1, 2, 3 and 17 blocks put
/// chunk edges mid-frame and inside the short final frame.
constexpr std::uint64_t kTinyChunks[] = {1, 2, 3, 17};
constexpr std::size_t kTinyChunkMaxLen = 24;

/// Kilobyte messages and the chunk sizes around the kernels' 16-block
/// sub-batch and the 256-block apply batch.
constexpr std::size_t kKilobyteLens[] = {1000, 2048, 4096};
constexpr std::uint64_t kBatchEdgeChunks[] = {15, 16, 17, 255, 256, 257};

/// encrypt_chunked and decrypt_chunked of `msg` under `key` at the batch
/// edge chunk sizes and at the covers-once bound (the first chunk ends
/// exactly at it, or one block past it), 1/2/4 shards: the ciphertext is
/// `expected` with the 0xEE sentinel intact past it, and the message comes
/// back.
void expect_chunk_edges(const core::Key& key, const core::BlockParams& params,
                        core::Scheme scheme, const std::vector<std::uint8_t>& msg,
                        const std::vector<std::uint8_t>& expected, exec::Executor* pool) {
  const auto tables = core::detail::pair_tables(key, params, scheme);
  const core::LfsrCover cover(params.vector_bits, 0xACE1);
  const std::uint64_t bound = core::detail::certain_blocks(tables, msg.size() * 8);
  std::vector<std::uint64_t> chunks(std::begin(kBatchEdgeChunks), std::end(kBatchEdgeChunks));
  chunks.push_back(bound);
  chunks.push_back(bound + 1);
  for (const std::uint64_t chunk : chunks) {
    for (const int shards : {1, 2, 4}) {
      std::vector<std::uint8_t> ct(expected.size() + 16, 0xEE);
      EXPECT_EQ(core::detail::encrypt_chunked(tables, params, cover, msg, msg.size() * 8, ct,
                                              shards, pool, chunk, "test"),
                expected.size())
          << "len=" << msg.size() << " chunk=" << chunk << " shards=" << shards;
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), ct.begin()) &&
                  std::all_of(ct.end() - 16, ct.end(), [](std::uint8_t b) { return b == 0xEE; }))
          << "len=" << msg.size() << " chunk=" << chunk << " shards=" << shards;
      std::vector<std::uint8_t> back(msg.size(), 0xEE);
      EXPECT_EQ(core::detail::decrypt_chunked(tables, params, expected, msg.size() * 8,
                                              [&] { return std::span(back); }, shards, pool,
                                              chunk, "test"),
                msg.size());
      EXPECT_EQ(back, msg) << "len=" << msg.size() << " chunk=" << chunk << " shards=" << shards;
    }
  }
}

/// encrypt_chunked at every tiny chunk size and shard count must write
/// exactly `expected` and nothing past it.
void expect_chunked_encrypt(const core::Key& key, const core::BlockParams& params,
                            core::Scheme scheme, const std::vector<std::uint8_t>& msg,
                            const std::vector<std::uint8_t>& expected, exec::Executor* pool) {
  const auto pairs = core::detail::pair_tables(key, params, scheme);
  const core::LfsrCover cover(params.vector_bits, 0xACE1);
  for (const std::uint64_t chunk : kTinyChunks) {
    for (const int shards : {1, 2, 4, 8}) {
      std::vector<std::uint8_t> ct(expected.size() + 3, 0xEE);
      EXPECT_EQ(core::detail::encrypt_chunked(pairs, params, cover, msg, msg.size() * 8, ct,
                                              shards, pool, chunk, "test"),
                expected.size())
          << "len=" << msg.size() << " chunk=" << chunk << " shards=" << shards;
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), ct.begin()) &&
                  std::all_of(ct.end() - 3, ct.end(), [](std::uint8_t b) { return b == 0xEE; }))
          << "len=" << msg.size() << " chunk=" << chunk << " shards=" << shards;
    }
  }
}

/// decrypt_chunked at every tiny chunk size and shard count.
void expect_chunked_decrypt(const core::Key& key, const core::BlockParams& params,
                            core::Scheme scheme, const std::vector<std::uint8_t>& ct,
                            const std::vector<std::uint8_t>& msg, exec::Executor* pool) {
  const auto pairs = core::detail::pair_tables(key, params, scheme);
  for (const std::uint64_t chunk : kTinyChunks) {
    for (const int shards : {1, 2, 4, 8}) {
      std::vector<std::uint8_t> back(msg.size(), 0xEE);
      EXPECT_EQ(core::detail::decrypt_chunked(pairs, params, ct, msg.size() * 8,
                                              [&] { return std::span(back); }, shards, pool,
                                              chunk, "test"),
                msg.size());
      EXPECT_EQ(back, msg) << "len=" << msg.size() << " chunk=" << chunk << " shards=" << shards;
    }
  }
}

TEST_P(ShardPolicy, EncryptShardedMatchesSequential) {
  const core::BlockParams params = GetParam();
  util::Xoshiro256 rng(0x5A4D);
  const core::LfsrCover cover(params.vector_bits, 0xACE1);
  exec::Executor pool(4);
  for (const core::Key& key : edge_keys(rng, params)) {
    for (const std::size_t len : edge_lengths()) {
      const auto msg = random_message(rng, len);
      const auto expected = core::encrypt(msg, key, 0xACE1, params);
      for (const int shards : {1, 2, 4, 8}) {
        // With and without a pool: same plan, same bytes.
        EXPECT_EQ(core::encrypt_sharded(msg, key, cover, shards, &pool, params), expected)
            << "len=" << len << " shards=" << shards;
        EXPECT_EQ(core::encrypt_sharded(msg, key, cover, shards, nullptr, params), expected)
            << "len=" << len << " shards=" << shards << " inline";
      }
      if (len <= kTinyChunkMaxLen) {
        expect_chunked_encrypt(key, params, core::Scheme::mhhea, msg, expected, &pool);
      }
    }
  }
}

TEST_P(ShardPolicy, DecryptShardedMatchesSequential) {
  const core::BlockParams params = GetParam();
  util::Xoshiro256 rng(0xD0C);
  exec::Executor pool(4);
  for (const core::Key& key : edge_keys(rng, params)) {
    for (const std::size_t len : edge_lengths()) {
      const auto msg = random_message(rng, len);
      const auto ct = core::encrypt(msg, key, 0xACE1, params);
      for (const int shards : {1, 2, 4, 8}) {
        EXPECT_EQ(core::decrypt_sharded(ct, key, len, shards, &pool, params), msg)
            << "len=" << len << " shards=" << shards;
        EXPECT_EQ(core::decrypt_sharded(ct, key, len, shards, nullptr, params), msg)
            << "len=" << len << " shards=" << shards << " inline";
      }
      if (len <= kTinyChunkMaxLen) {
        expect_chunked_decrypt(key, params, core::Scheme::mhhea, ct, msg, &pool);
      }
    }
  }
}

TEST_P(ShardPolicy, KilobyteChunkEdgesMatchSequential) {
  const core::BlockParams params = GetParam();
  util::Xoshiro256 rng(0xC4E);
  exec::Executor pool(4);
  for (const core::Key& key : edge_keys(rng, params)) {
    for (const core::Scheme scheme : {core::Scheme::mhhea, core::Scheme::hhea}) {
      for (const std::size_t len : kKilobyteLens) {
        const auto msg = random_message(rng, len);
        expect_chunk_edges(key, params, scheme, msg,
                           core::encrypt(msg, key, 0xACE1, params, scheme), &pool);
      }
    }
  }
}

TEST(CoversOnce, BoundHoldsOnlyBlocksTheMessageSurelyReaches) {
  // certain_blocks against a direct count: block j is surely in the
  // ciphertext while the widest ranges of blocks 0..j-1 sum to fewer bits
  // than the message. The bound stays at or below that count, by less
  // than one key cycle.
  util::Xoshiro256 rng(0xB0D);
  for (const core::BlockParams params :
       {core::BlockParams::hardware(), core::BlockParams{64, core::FramePolicy::continuous}}) {
    for (int pairs = 1; pairs <= core::Key::kMaxPairs; pairs += 5) {
      const core::Key key = core::Key::random(rng, pairs, params);
      const auto tables = core::detail::pair_tables(key, params, core::Scheme::mhhea);
      for (const std::uint64_t bits : {1ull, 7ull, 8ull, 100ull, 4096ull, 524288ull}) {
        std::uint64_t reached = 0;
        for (std::uint64_t most = 0; most < bits; ++reached) {
          const auto& range = tables.pairs[reached % tables.pairs.size()].range;
          most += std::max_element(range.begin(), range.begin() + params.half(),
                                   [](auto a, auto b) { return a.width < b.width; })
                      ->width;
        }
        const std::uint64_t bound = core::detail::certain_blocks(tables, bits);
        EXPECT_LE(bound, reached) << "pairs=" << pairs << " bits=" << bits;
        EXPECT_LE(reached - bound, tables.pairs.size()) << "pairs=" << pairs << " bits=" << bits;
      }
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
  const auto pairs = core::detail::pair_tables(key, params, core::Scheme::mhhea);
  for (const int shards : {2, 8}) {
    // Tiny chunks: the strict checks hold wherever the chunk edges fall.
    for (const std::uint64_t chunk : kTinyChunks) {
      std::vector<std::uint8_t> out(msg.size());
      const auto chunked = [&](std::span<const std::uint8_t> c, std::size_t len) {
        return core::detail::decrypt_chunked(pairs, params, c, len * 8,
                                             [&] { return std::span(out); }, shards, &pool,
                                             chunk, "test");
      };
      EXPECT_THROW((void)chunked(std::span(ct).first(ct.size() - bb), msg.size()),
                   std::invalid_argument);
      std::vector<std::uint8_t> longer = ct;
      longer.insert(longer.end(), bb, 0x00);
      EXPECT_THROW((void)chunked(longer, msg.size()), std::invalid_argument);
      EXPECT_THROW((void)chunked(ct, 0), std::invalid_argument);
    }
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
                                           core::BlockParams{32, core::FramePolicy::framed},
                                           core::BlockParams{64, core::FramePolicy::continuous},
                                           core::BlockParams{64, core::FramePolicy::framed}),
                         [](const ::testing::TestParamInfo<core::BlockParams>& info) {
                           return std::string("N") + std::to_string(info.param.vector_bits) +
                                  (info.param.policy == core::FramePolicy::framed
                                       ? "framed"
                                       : "continuous");
                         });

// ---------------------------------------------------------- HHEA equivalence

constexpr core::Scheme kHhea = core::Scheme::hhea;

TEST(ShardHhea, MatchesSequentialBothPolicies) {
  util::Xoshiro256 rng(0x44EA);
  exec::Executor pool(4);
  for (const int bits : {16, 32, 64}) {
    for (const core::FramePolicy policy :
         {core::FramePolicy::continuous, core::FramePolicy::framed}) {
      const core::BlockParams params{bits, policy};
      const core::LfsrCover cover(params.vector_bits, 0xACE1);
      for (const core::Key& key : edge_keys(rng, params)) {
        for (const std::size_t len : edge_lengths()) {
          const auto msg = random_message(rng, len);
          const auto expected = core::encrypt(msg, key, 0xACE1, params, kHhea);
          for (int shards = 1; shards <= 8; ++shards) {
            EXPECT_EQ(core::encrypt_sharded(msg, key, cover, shards, &pool, params, kHhea),
                      expected)
                << "N=" << bits << " len=" << len << " shards=" << shards;
            EXPECT_EQ(core::decrypt_sharded(expected, key, len, shards, &pool, params, kHhea),
                      msg)
                << "N=" << bits << " len=" << len << " shards=" << shards;
          }
          if (len <= kTinyChunkMaxLen) {
            expect_chunked_encrypt(key, params, kHhea, msg, expected, &pool);
            expect_chunked_decrypt(key, params, kHhea, expected, msg, &pool);
          }
        }
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
  auto ct = core::encrypt(msg, key, 0xACE1, params, kHhea);
  const auto bb = static_cast<std::size_t>(params.block_bytes());
  std::vector<std::uint8_t> shorter(ct.begin(), ct.end() - bb);
  EXPECT_THROW(
      (void)core::decrypt_sharded(shorter, key, msg.size(), 4, &pool, params, kHhea),
      std::invalid_argument);
  ct.insert(ct.end(), bb, 0x00);
  EXPECT_THROW((void)core::decrypt_sharded(ct, key, msg.size(), 4, &pool, params, kHhea),
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
