// Tests of the self-describing ciphertext container's keyless structural
// layer (frame_encode_header/frame_decode) and its failure modes.
#include "src/core/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/core/mhhea.hpp"
#include "src/core/shard.hpp"
#include "src/util/rng.hpp"

namespace mhhea::core {
namespace {

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

// A container around core ciphertext: header, blocks and an all-zero MAC
// trailer. frame_decode is keyless and never checks the tag, so the
// structural tests need no key schedule.
std::vector<std::uint8_t> seal_shell(std::span<const std::uint8_t> msg, const Key& key,
                                     std::uint64_t seed,
                                     BlockParams params = BlockParams::paper()) {
  const auto cipher = encrypt(msg, key, seed, params);
  FrameHeader h;
  h.params = params;
  h.message_bits = static_cast<std::uint64_t>(msg.size()) * 8;
  std::vector<std::uint8_t> framed(FrameHeader::kOverheadV2 + cipher.size(), 0);
  frame_encode_header(h, framed);
  std::copy(cipher.begin(), cipher.end(),
            framed.begin() + static_cast<std::ptrdiff_t>(FrameHeader::kSizeV2));
  return framed;
}

// The keyless half of an open: parse, then decrypt the payload.
std::vector<std::uint8_t> open_shell(std::span<const std::uint8_t> framed, const Key& key) {
  std::span<const std::uint8_t> payload;
  const FrameHeader h = frame_decode(framed, &payload);
  // frame_decode bounds message_bits by the payload, so this allocation is
  // too.
  std::vector<std::uint8_t> msg(static_cast<std::size_t>((h.message_bits + 7) / 8));
  (void)Decryptor(key, 0, h.params).decrypt_into(payload, h.message_bits, msg);
  return msg;
}

TEST(Frame, SealOpenRoundTrip) {
  util::Xoshiro256 rng(1);
  const Key key = Key::random(rng, 8);
  for (std::size_t len : {0u, 1u, 5u, 100u}) {
    const auto msg = random_message(rng, len);
    const auto framed = seal_shell(msg, key, 0xACE1);
    EXPECT_EQ(open_shell(framed, key), msg) << len;
  }
}

TEST(Frame, RoundTripAllParamCombos) {
  util::Xoshiro256 rng(2);
  for (int bits : {16, 32, 64}) {
    for (auto policy : {FramePolicy::continuous, FramePolicy::framed}) {
      const BlockParams params{bits, policy};
      const Key key = Key::random(rng, 4, params);
      const auto msg = random_message(rng, 40);
      const auto framed = seal_shell(msg, key, 0x77, params);
      EXPECT_EQ(open_shell(framed, key), msg) << bits;
      // Header survives the trip.
      std::span<const std::uint8_t> payload;
      const FrameHeader h = frame_decode(framed, &payload);
      EXPECT_EQ(h.params, params);
      EXPECT_EQ(h.message_bits, msg.size() * 8);
    }
  }
}

TEST(Frame, HeaderLayoutIsStable) {
  const Key key = Key::parse("0-3");
  const std::vector<std::uint8_t> msg = {0xAA};
  const auto framed = seal_shell(msg, key, 1);
  ASSERT_GE(framed.size(), FrameHeader::kOverheadV2);
  EXPECT_EQ(framed[0], 'M');
  EXPECT_EQ(framed[1], 'H');
  EXPECT_EQ(framed[2], 'E');
  EXPECT_EQ(framed[3], 'A');
  EXPECT_EQ(framed[4], 2);    // version
  EXPECT_EQ(framed[8], 8);    // 8 bits, little-endian u64
  EXPECT_EQ(framed[9], 0);
}

TEST(Frame, RejectsBadMagicVersionReserved) {
  const Key key = Key::parse("0-3");
  const std::vector<std::uint8_t> msg = {0x42};
  auto framed = seal_shell(msg, key, 1);

  auto corrupt = framed;
  corrupt[0] = 'X';
  EXPECT_THROW((void)open_shell(corrupt, key), std::invalid_argument);

  corrupt = framed;
  corrupt[4] = 9;
  EXPECT_THROW((void)open_shell(corrupt, key), std::invalid_argument);

  corrupt = framed;
  corrupt[6] = 1;
  EXPECT_THROW((void)open_shell(corrupt, key), std::invalid_argument);
}

TEST(Frame, RejectsVersionOneHeader) {
  // The retired unauthenticated layout: the same first 16 header bytes with
  // version 1, then the blocks — no nonce, no MAC. The message is long
  // enough that the buffer passes every size, alignment and length check
  // of the current layout too, so only the version byte can reject it.
  const Key key = Key::parse("0-3");
  util::Xoshiro256 rng(24);
  const auto msg = random_message(rng, 64);  // 512 bits: 0x200, little-endian
  const auto cipher = encrypt(msg, key, 1);
  std::vector<std::uint8_t> v1 = {'M', 'H', 'E', 'A', 1, 0, 0, 0, 0x00, 0x02, 0, 0, 0, 0, 0, 0};
  v1.insert(v1.end(), cipher.begin(), cipher.end());
  // Read as the current layout, the 24 bytes of nonce + MAC come out of the
  // blocks and what is left still carries 512 bits.
  ASSERT_GE((v1.size() - FrameHeader::kOverheadV2) / 2 * 8, 512u);
  EXPECT_THROW((void)frame_decode(v1, nullptr), std::invalid_argument);
  // A current container relabelled as version 1 is rejected the same way.
  auto relabelled = seal_shell(msg, key, 1);
  relabelled[4] = 1;
  EXPECT_THROW((void)frame_decode(relabelled, nullptr), std::invalid_argument);
}

TEST(Frame, RejectsShortAndMisalignedBuffers) {
  const Key key = Key::parse("0-3");
  EXPECT_THROW((void)open_shell(std::vector<std::uint8_t>(8, 0), key), std::invalid_argument);
  auto framed = seal_shell(std::vector<std::uint8_t>{0x42}, key, 1);
  framed.push_back(0);  // breaks 2-byte block alignment
  EXPECT_THROW((void)open_shell(framed, key), std::invalid_argument);
}

TEST(Frame, RejectsInconsistentLength) {
  const Key key = Key::parse("0-3");
  auto framed = seal_shell(std::vector<std::uint8_t>{0x42}, key, 1);
  // Claim a message far larger than the payload could carry.
  framed[8] = 0xFF;
  framed[9] = 0xFF;
  EXPECT_THROW((void)open_shell(framed, key), std::invalid_argument);
  // Claim zero bits while blocks are present.
  framed[8] = 0;
  framed[9] = 0;
  EXPECT_THROW((void)open_shell(framed, key), std::invalid_argument);
}

TEST(Frame, RejectsReservedFlagBits) {
  // Bits 7..4 of the flags byte are reserved-zero (a parser that ignores
  // them would silently accept frames a future version means differently),
  // and bit 3, the compressed flag, is invalid without its method byte.
  const Key key = Key::parse("0-3");
  const auto framed = seal_shell(std::vector<std::uint8_t>{0x42}, key, 1);
  for (int bit = 3; bit < 8; ++bit) {
    auto corrupt = framed;
    corrupt[5] = static_cast<std::uint8_t>(corrupt[5] | (1u << bit));
    EXPECT_THROW((void)frame_decode(corrupt, nullptr), std::invalid_argument) << bit;
  }
}

TEST(Frame, RejectsBadVectorSizeCode) {
  const Key key = Key::parse("0-3");
  auto framed = seal_shell(std::vector<std::uint8_t>{0x42}, key, 1);
  framed[5] = static_cast<std::uint8_t>((framed[5] & ~0x06) | (0x3 << 1));  // code 3
  EXPECT_THROW((void)frame_decode(framed, nullptr), std::invalid_argument);
}

TEST(Frame, MalformedHeaderFuzz) {
  // Systematic malformation sweep: every single-byte corruption of a
  // strictly structural header byte (magic, version, method, reserved) must
  // throw — version 1 and every other byte but 2 included. Byte 5 (flags)
  // is covered separately — its low bits encode legitimate parameter
  // variation.
  util::Xoshiro256 rng(17);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 33);
  const auto framed = seal_shell(msg, key, 0xACE1);
  for (std::size_t pos : {0u, 1u, 2u, 3u, 4u, 6u, 7u}) {
    for (int delta = 1; delta < 256; ++delta) {
      auto corrupt = framed;
      corrupt[pos] = static_cast<std::uint8_t>(corrupt[pos] ^ delta);
      EXPECT_THROW((void)frame_decode(corrupt, nullptr), std::invalid_argument)
          << "pos=" << pos << " delta=" << delta;
    }
  }
}

TEST(Frame, TruncatedHeaderFuzz) {
  // Every prefix shorter than the 24-byte header must be rejected, not read
  // out of bounds or misparsed.
  util::Xoshiro256 rng(18);
  const Key key = Key::random(rng, 4);
  const auto framed = seal_shell(random_message(rng, 20), key, 0xACE1);
  for (std::size_t len = 0; len < FrameHeader::kSizeV2; ++len) {
    const std::vector<std::uint8_t> prefix(framed.begin(),
                                           framed.begin() + static_cast<long>(len));
    EXPECT_THROW((void)frame_decode(prefix, nullptr), std::invalid_argument) << len;
  }
}

TEST(Frame, LengthFieldFuzz) {
  // Randomly perturbed message-length fields must never round-trip: either
  // the header bounds check, the trailing-block check or the
  // too-short check fires.
  util::Xoshiro256 rng(19);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 40);
  const auto framed = seal_shell(msg, key, 0xACE1);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupt = framed;
    const std::uint64_t bogus = rng.next();
    for (int i = 0; i < 8; ++i) {
      corrupt[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((bogus >> (8 * i)) & 0xFF);
    }
    if (bogus == msg.size() * 8) continue;  // astronomically unlikely
    EXPECT_THROW((void)open_shell(corrupt, key), std::invalid_argument) << bogus;
  }
}

TEST(Frame, TruncatedPayloadThrows) {
  util::Xoshiro256 rng(3);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 50);
  auto framed = seal_shell(msg, key, 0xACE1);
  // Drop the last block ahead of the MAC trailer, keeping alignment.
  const auto tag = framed.end() - static_cast<std::ptrdiff_t>(FrameHeader::kMacBytesV2);
  framed.erase(tag - 2, tag);
  EXPECT_THROW((void)open_shell(framed, key), std::invalid_argument);
}

// A structurally valid v2 container shell: 24-byte header + `body` zero
// blocks + 16-byte (unverified here — frame_decode is keyless) MAC trailer.
std::vector<std::uint8_t> v2_shell(std::uint64_t message_bits, std::size_t body,
                                   std::uint64_t nonce) {
  FrameHeader h;
  h.nonce = nonce;
  h.message_bits = message_bits;
  std::vector<std::uint8_t> buf(FrameHeader::kSizeV2 + body + FrameHeader::kMacBytesV2);
  frame_encode_header(h, buf);
  return buf;
}

TEST(FrameV2, HeaderRoundTrip) {
  const auto buf = v2_shell(/*message_bits=*/16, /*body=*/8, /*nonce=*/0x0123456789ABCDEF);
  std::span<const std::uint8_t> payload;
  const FrameHeader h = frame_decode(buf, &payload);
  EXPECT_EQ(h.nonce, 0x0123456789ABCDEFu);
  EXPECT_EQ(h.message_bits, 16u);
  EXPECT_EQ(payload.size(), 8u);  // the MAC trailer is not part of the payload
  EXPECT_EQ(payload.data(), buf.data() + FrameHeader::kSizeV2);
}

TEST(FrameV2, LayoutIsStable) {
  const auto buf = v2_shell(16, 8, 0xAABBCCDDEEFF0011);
  EXPECT_EQ(buf[4], 2);     // version
  EXPECT_EQ(buf[8], 16);    // message bits, little-endian u64
  EXPECT_EQ(buf[16], 0x11); // nonce, little-endian u64 at offset 16
  EXPECT_EQ(buf[17], 0x00);
  EXPECT_EQ(buf[18], 0xFF);
  EXPECT_EQ(buf[23], 0xAA);
}

TEST(FrameV2, RejectsBufferShorterThanOverhead) {
  // Everything from empty up to one byte short of header+MAC must throw —
  // there is no valid v2 container below kOverheadV2 bytes.
  const auto buf = v2_shell(16, 8, 7);
  for (std::size_t len = 0; len < FrameHeader::kOverheadV2; ++len) {
    const std::vector<std::uint8_t> prefix(buf.begin(),
                                           buf.begin() + static_cast<long>(len));
    EXPECT_THROW((void)frame_decode(prefix, nullptr), std::invalid_argument) << len;
  }
}

TEST(FrameV2, StructuralChecksStillApply) {
  // The structural sweep (reserved bits/bytes, vector code, alignment,
  // length bounds) applies to zero-length-payload shells too.
  auto corrupt = v2_shell(16, 8, 7);
  corrupt[6] = 1;
  EXPECT_THROW((void)frame_decode(corrupt, nullptr), std::invalid_argument);
  corrupt = v2_shell(16, 8, 7);
  corrupt[5] |= 0x08;
  EXPECT_THROW((void)frame_decode(corrupt, nullptr), std::invalid_argument);
  // Misaligned body: one extra byte between blocks and MAC.
  auto misaligned = v2_shell(16, 9, 7);
  EXPECT_THROW((void)frame_decode(misaligned, nullptr), std::invalid_argument);
  // Length bounds: more message bits than the blocks can carry.
  auto bogus = v2_shell(16 * 64, 8, 7);
  EXPECT_THROW((void)frame_decode(bogus, nullptr), std::invalid_argument);
}

TEST(Frame, ExceptionTypeConvention) {
  // Pin the error-type convention across encode/decode: malformed *input* is
  // std::invalid_argument; an *output* buffer too small for the request is
  // std::length_error. (Regression guard — the two were at risk of drifting
  // as v2 added paths.)
  FrameHeader h;
  std::vector<std::uint8_t> small(FrameHeader::kSizeV2 - 1);
  EXPECT_THROW(frame_encode_header(h, small), std::length_error);
  EXPECT_THROW((void)frame_decode(small, nullptr), std::invalid_argument);
}

TEST(Frame, OpenZeroesSlackBits) {
  // A message whose bit length is not a whole number of bytes: the slack
  // bits past message_bits in the final byte must come back zero even when
  // every embedded bit was 1 and the output buffer held stale 0xFF bytes
  // (decrypt_into must not leak them). The library only encrypts whole
  // bytes, so the test drives the pipeline itself with a 13-bit message of
  // all-one bits.
  util::Xoshiro256 rng(23);
  const Key key = Key::random(rng, 4);
  const BlockParams params = BlockParams::paper();
  const std::vector<std::uint8_t> dirty = {0xFF, 0xFF};
  std::vector<std::uint8_t> cipher(13 * 2);  // >= 1 bit per block
  cipher.resize(detail::encrypt_chunked(detail::make_pair_ctx(key, params), params,
                                        LfsrCover(params.vector_bits, 0xACE1), dirty, 13, cipher,
                                        1, nullptr, 0, "test"));
  std::vector<std::uint8_t> msg(2, 0xFF);
  ASSERT_EQ(Decryptor(key, 0, params).decrypt_into(cipher, 13, msg), 2u);
  EXPECT_EQ(msg[0], 0xFF);
  EXPECT_EQ(msg[1] & 0x1F, 0x1F);  // the 5 real bits survive
  EXPECT_EQ(msg[1] & 0xE0, 0);     // the 3 slack bits are zero
}

}  // namespace
}  // namespace mhhea::core
