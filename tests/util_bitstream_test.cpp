// Unit tests for the LSB-first bit stream convention (DESIGN.md §3) — the
// glue between byte files and the bit-oriented cipher.
#include "src/util/bitstream.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/util/rng.hpp"

namespace mhhea::util {
namespace {

// The BitWriter suite covers SpanBitWriter, the bit writer the library
// keeps: its bulk writes and splices are checked against a bit-by-bit
// reference at every in-byte start offset.

/// Bits packed LSB-first into bytes, the final partial byte zero-padded.
std::vector<std::uint8_t> pack(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> out((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out[i / 8] = static_cast<std::uint8_t>(out[i / 8] | (1u << (i % 8)));
  }
  return out;
}

TEST(BitWriter, WriteBitsMatchesBitByBit) {
  std::array<std::uint8_t, 2> a{}, b{};
  SpanBitWriter bulk(a), stepped(b);
  bulk.write_bits(0xCA06, 16);
  for (int i = 0; i < 16; ++i) stepped.write_bits((0xCA06 >> i) & 1, 1);
  bulk.flush();
  stepped.flush();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], 0x06);  // LSB-first: the low byte lands first
  EXPECT_EQ(a[1], 0xCA);
}

TEST(BitWriter, BulkWritesMatchBitByBitAcrossAlignments) {
  // For every start offset 0-7, a random run of write_bits (widths 0-64,
  // garbage above the width) and append_bits splices (any bit count of a
  // random buffer) must equal the same bits written one at a time.
  Xoshiro256 rng(0x3117);
  for (int offset = 0; offset < 8; ++offset) {
    std::vector<bool> ref;
    std::vector<std::uint8_t> out(4096, 0xEE);
    SpanBitWriter w(out);
    const std::uint64_t lead = rng.next();
    w.write_bits(lead, offset);
    for (int i = 0; i < offset; ++i) ref.push_back(((lead >> i) & 1) != 0);
    for (int trial = 0; trial < 200; ++trial) {
      if (rng.below(2) == 0) {
        const int n = static_cast<int>(rng.below(65));
        const std::uint64_t v = rng.next();  // bits above n must be ignored
        w.write_bits(v, n);
        for (int i = 0; i < n; ++i) ref.push_back(((v >> i) & 1) != 0);
      } else {
        std::vector<std::uint8_t> part(rng.below(12) + 1);
        for (auto& byte : part) byte = static_cast<std::uint8_t>(rng.next());
        const std::size_t n = rng.below(part.size() * 8 + 1);
        w.append_bits(part, n);
        for (std::size_t i = 0; i < n; ++i) ref.push_back(((part[i / 8] >> (i % 8)) & 1) != 0);
      }
      ASSERT_EQ(w.size_bits(), ref.size()) << "offset " << offset << " trial " << trial;
    }
    w.flush();
    const std::vector<std::uint8_t> want = pack(ref);
    ASSERT_LE(want.size(), out.size());
    EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + want.size()), want)
        << "offset " << offset;
    // Nothing past the last (zero-padded) byte is touched.
    for (std::size_t i = want.size(); i < out.size(); ++i) ASSERT_EQ(out[i], 0xEE) << i;
  }
}

TEST(BitWriter, AlignToBytePadsWithZeros) {
  // flush() completes the final partial byte with zero bits, whatever the
  // target held before.
  std::array<std::uint8_t, 2> out{0xFF, 0xFF};
  SpanBitWriter w(out);
  w.write_bits(0xFFFF'FFFF, 11);  // 8 bits + 3 pending
  w.flush();
  EXPECT_EQ(out[0], 0xFF);
  EXPECT_EQ(out[1], 0x07);  // the 5 slack bits are zero, not stale
}

TEST(BitWriter, ShortBufferThrows) {
  std::array<std::uint8_t, 2> out{};
  SpanBitWriter w(out);
  w.write_bits(0xABCD, 16);
  EXPECT_THROW(w.write_bits(0xFF, 8), std::length_error);
  SpanBitWriter pending(out);
  pending.write_bits(0xFFFF, 16);
  pending.write_bits(1, 1);
  EXPECT_THROW(pending.flush(), std::length_error);  // the padded byte has no room
}

TEST(Words16, RoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x34, 0x12, 0xCD, 0xAB, 0x99};
  const auto words = to_words16(bytes);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], 0x1234u);  // little-endian pairs
  EXPECT_EQ(words[1], 0xABCDu);
  EXPECT_EQ(words[2], 0x0099u);  // zero-padded tail
  EXPECT_EQ(from_words16(words, bytes.size()), bytes);
}

TEST(Words16, EmptyInput) {
  EXPECT_TRUE(to_words16({}).empty());
  EXPECT_TRUE(from_words16({}, 0).empty());
}

TEST(Words16, PaperPlaintextWordOrder) {
  // The simulation loads "ABCD1234": as a little-endian 32-bit value its
  // low word 0x1234 is the first frame ("the least significant 16 bits are
  // placed in the buffer", §IV).
  const std::vector<std::uint8_t> bytes = {0x34, 0x12, 0xCD, 0xAB};
  const auto words = to_words16(bytes);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], 0x1234u);
  EXPECT_EQ(words[1], 0xABCDu);
}

}  // namespace
}  // namespace mhhea::util
