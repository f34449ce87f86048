// Tests of the per-block transform against the paper's worked example
// (Fig. 8) and its algebraic properties.
#include "src/core/block.hpp"

#include <gtest/gtest.h>

#include "src/core/key.hpp"
#include "src/core/walk.hpp"
#include "src/util/rng.hpp"

namespace mhhea::core {
namespace {

// ---------------------------------------------------------------------
// The Fig. 8 worked example, line by line (paper §IV).

TEST(ScrambleRange, Fig8KeyPair03VectorCA06) {
  // K = (0,3), V = 0xCA06: field = V[11..8] = 1010b, KN1 = (1010b ^ 000b)
  // mod 8 = 2, KN2 = 2 + 3 = 5.
  const ScrambledRange r = scramble_range(0xCA06, KeyPair{0, 3});
  EXPECT_EQ(r.kn1, 2);
  EXPECT_EQ(r.kn2, 5);
  EXPECT_EQ(r.width(), 4);
}

TEST(EmbedBits, Fig8ProducesCipherTextCA02) {
  // Message 0x48D0: its first four bits (LSB-first) are 0,0,0,0. With
  // K1 = 0 the XOR pattern is zero, so V[5..2] is replaced by 0000:
  // 0xCA06 -> 0xCA02.
  const KeyPair pair{0, 3};
  const ScrambledRange r = scramble_range(0xCA06, pair);
  const std::uint64_t msg_bits = 0x48D0 & 0xF;  // low 4 bits of the frame
  EXPECT_EQ(embed_bits(0xCA06, r, pair, msg_bits, 4), 0xCA02u);
}

TEST(ExtractBits, Fig8RecoversMessageBits) {
  const KeyPair pair{0, 3};
  const ScrambledRange r = scramble_range(0xCA02, pair);  // receiver's view
  EXPECT_EQ(r.kn1, 2);
  EXPECT_EQ(r.kn2, 5);  // high byte unchanged -> same range
  EXPECT_EQ(extract_bits(0xCA02, r, pair, 4), 0x0u);
}

// ---------------------------------------------------------------------
// Structural properties.

TEST(ScrambleRange, PairOrderDoesNotMatter) {
  for (std::uint64_t v : {0x0000ull, 0xCA06ull, 0xFFFFull, 0x1234ull}) {
    EXPECT_EQ(scramble_range(v, KeyPair{3, 0}), scramble_range(v, KeyPair{0, 3})) << v;
    EXPECT_EQ(scramble_range(v, KeyPair{7, 2}), scramble_range(v, KeyPair{2, 7})) << v;
  }
}

TEST(ScrambleRange, DependsOnlyOnHighHalf) {
  const KeyPair pair{1, 4};
  for (std::uint64_t high = 0; high < 256; high += 37) {
    const std::uint64_t v1 = (high << 8) | 0x00;
    const std::uint64_t v2 = (high << 8) | 0xFF;
    EXPECT_EQ(scramble_range(v1, pair), scramble_range(v2, pair));
  }
}

TEST(ScrambleRange, WrapChangesWidth) {
  // Pair (6,7): d = 1, field = V[15..14]. If KN1 = 7 then KN2 = (7+1) mod 8
  // = 0 and the canonicalised range is [0,7] — width 8, not 2. The wrap is
  // part of the spec (both sides compute it identically).
  const KeyPair pair{6, 7};
  // field ^ 6 == 7  =>  field == 1 (2-bit field at bits 14..15).
  const std::uint64_t v = std::uint64_t{1} << 14;
  const ScrambledRange r = scramble_range(v, pair);
  EXPECT_EQ(r.kn1, 0);
  EXPECT_EQ(r.kn2, 7);
  EXPECT_EQ(r.width(), 8);
}

TEST(ScrambleRange, ZeroSpanPairAlwaysWidthOne) {
  for (int k = 0; k < 8; ++k) {
    const KeyPair pair{static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(k)};
    util::Xoshiro256 rng(99);
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t v = rng.below(0x10000);
      const ScrambledRange r = scramble_range(v, pair);
      EXPECT_EQ(r.width(), 1);
      EXPECT_LT(r.kn2, 8);
    }
  }
}

TEST(ScrambleRange, RangeAlwaysInsideLowHalf) {
  util::Xoshiro256 rng(123);
  for (int i = 0; i < 2000; ++i) {
    const KeyPair pair{static_cast<std::uint8_t>(rng.below(8)),
                       static_cast<std::uint8_t>(rng.below(8))};
    const std::uint64_t v = rng.below(0x10000);
    const ScrambledRange r = scramble_range(v, pair);
    EXPECT_GE(r.kn1, 0);
    EXPECT_LE(r.kn1, r.kn2);
    EXPECT_LT(r.kn2, 8);
  }
}

TEST(KeyScrambleBit, CyclesThroughKeyBits) {
  // K1 = 5 = 101b: pattern bit0,bit1,bit2,bit0,... = 1,0,1,1,0,1,1,0.
  const KeyPair pair{5, 7};
  const int expect[8] = {1, 0, 1, 1, 0, 1, 1, 0};
  for (int t = 0; t < 8; ++t) EXPECT_EQ(key_scramble_bit(pair, t), expect[t]) << t;
}

TEST(EmbedExtract, InverseForRandomInputs) {
  util::Xoshiro256 rng(2024);
  for (int i = 0; i < 5000; ++i) {
    const KeyPair pair{static_cast<std::uint8_t>(rng.below(8)),
                       static_cast<std::uint8_t>(rng.below(8))};
    const std::uint64_t v = rng.below(0x10000);
    const ScrambledRange r = scramble_range(v, pair);
    const int w = static_cast<int>(rng.below(static_cast<std::uint64_t>(r.width()) + 1));
    const std::uint64_t msg = rng.below(std::uint64_t{1} << w);
    const std::uint64_t ct = embed_bits(v, r, pair, msg, w);
    // High byte must be untouched (self-synchronisation invariant).
    EXPECT_EQ(ct >> 8, v >> 8);
    // Receiver recomputes the range from the ciphertext block itself.
    const ScrambledRange r2 = scramble_range(ct, pair);
    EXPECT_EQ(r2, r);
    EXPECT_EQ(extract_bits(ct, r2, pair, w), msg);
  }
}

TEST(EmbedBits, PartialWidthLeavesTailBitsUntouched) {
  // Framed mode can embed w < width(); positions kn1+w .. kn2 keep V's bits.
  // The scramble field of this vector is 000b, so the range is the full
  // unwrapped [0,7] and w is strictly positive.
  const KeyPair pair{0, 7};
  const std::uint64_t v = 0xA0C3;
  const ScrambledRange r = scramble_range(v, pair);
  ASSERT_EQ(r.width(), 8);
  const int w = r.width() - 3;
  const std::uint64_t ct = embed_bits(v, r, pair, 0, w);
  for (int j = r.kn1 + w; j <= r.kn2; ++j) {
    EXPECT_EQ((ct >> j) & 1, (v >> j) & 1) << "tail bit " << j;
  }
}

TEST(EmbedExtract, GeneralizedVectors) {
  const BlockParams p32{32, FramePolicy::continuous};
  const BlockParams p64{64, FramePolicy::continuous};
  util::Xoshiro256 rng(31337);
  for (int i = 0; i < 1000; ++i) {
    for (const auto& params : {p32, p64}) {
      const auto maxv = static_cast<std::uint64_t>(params.max_key_value());
      const KeyPair pair{static_cast<std::uint8_t>(rng.below(maxv + 1)),
                         static_cast<std::uint8_t>(rng.below(maxv + 1))};
      const std::uint64_t v = rng.next() & util::mask64(params.vector_bits);
      const ScrambledRange r = scramble_range(v, pair, params);
      EXPECT_LT(r.kn2, params.half());
      const int w = r.width();
      const std::uint64_t msg = rng.below(std::uint64_t{1} << w);
      const std::uint64_t ct = embed_bits(v, r, pair, msg, w, params);
      EXPECT_EQ(ct >> params.half(), v >> params.half());
      EXPECT_EQ(extract_bits(ct, scramble_range(ct, pair, params), pair, w, params), msg);
    }
  }
}

// ---------------------------------------------------------------------
// The hot loops' per-key range table (walk.hpp) against scramble_range,
// which stays the normative reference.

TEST(RangeTable, MatchesScrambleRangeForEveryPairFieldAndRandomVectors) {
  util::Xoshiro256 rng(0x7AB1E);
  for (const int n : {16, 32, 64}) {
    const BlockParams params{n, FramePolicy::framed};
    const int h = params.half();
    const int lb = params.loc_bits();
    const auto lookup = [&](const detail::PairCtx& pc, std::uint64_t v) {
      return util::with_vector_bits(n, [&]<int N>() { return detail::range_of<N>(pc, v); });
    };
    const auto same = [](const detail::RangeEntry& e, const ScrambledRange& ref) {
      return e.kn1 == ref.kn1 && e.kn1 + e.width - 1 == ref.kn2;
    };
    for (int a = 0; a <= params.max_key_value(); ++a) {
      for (int b = 0; b <= params.max_key_value(); ++b) {
        const KeyPair pair{static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)};
        const Key key({pair}, params);
        const std::vector<detail::PairCtx> ctx = detail::make_pair_ctx(key, params);
        const detail::PairCtx& pc = ctx[0];
        for (int field = 0; field < h; ++field) {
          // A vector whose scramble field reads `field`: bit j of the field
          // sits at V[(K1 + j) mod H + H]; every other bit random.
          std::uint64_t v = rng.next() & util::mask64(n);
          for (int j = 0; j < lb; ++j) {
            v = util::set_bit(v, (pair.lo() + j) % h + h, util::get_bit(field, j) != 0);
          }
          const ScrambledRange ref = scramble_range(v, pair, params);
          ASSERT_TRUE(same(pc.range[static_cast<std::size_t>(field)], ref))
              << "N=" << n << " pair=" << a << "-" << b << " field=" << field;
          ASSERT_TRUE(same(lookup(pc, v), ref))
              << "N=" << n << " pair=" << a << "-" << b << " v=" << v;
        }
        for (int i = 0; i < 64; ++i) {
          const std::uint64_t v = rng.next() & util::mask64(n);
          ASSERT_TRUE(same(lookup(pc, v), scramble_range(v, pair, params)))
              << "N=" << n << " pair=" << a << "-" << b << " v=" << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mhhea::core
