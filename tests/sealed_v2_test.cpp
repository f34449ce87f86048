// Sealed format v2 tamper matrix: every header byte, every MAC byte, sampled
// ciphertext bits, truncation at every boundary, and a retired version-1
// container — each rejected with a typed error before any message bit is
// extracted, never surfacing garbage plaintext. The matrix runs on a
// single-chunk container and on a multi-chunk one whose open runs its MAC
// beside the plan round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/mac.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/util/rng.hpp"

namespace mhhea::crypto {
namespace {

using core::FrameHeader;

/// The tamper matrix's inputs: a 96-byte container opened by a one-shard
/// cipher (the single-chunk walk), and a 24 KiB one opened by a 4-shard
/// cipher, whose open runs the MAC beside a plan round and whose seal
/// absorbed chunks at the MAC frontier. The large container's per-byte
/// sweeps visit every `stride`-th byte plus the first and last 48.
struct V2Input {
  int shards;
  std::size_t msg_bytes;
  std::size_t stride;
};
constexpr V2Input kSingleChunk{1, 96, 1};
constexpr V2Input kMultiChunk{4, 24 * 1024, 89};
constexpr V2Input kInputs[] = {kSingleChunk, kMultiChunk};

struct V2Fixture {
  core::BlockParams params = core::BlockParams::hardware();
  core::Key key;
  MhheaCipher cipher;
  std::vector<std::uint8_t> msg;
  std::vector<std::uint8_t> sealed;
  std::size_t stride;

  explicit V2Fixture(V2Input in = kSingleChunk)
      : key(make_key(params)),
        cipher(key, 0xACE1, params, MhheaCipher::Framing::sealed_v2, in.shards),
        stride(in.stride) {
    util::Xoshiro256 rng(0x7a39);
    msg.resize(in.msg_bytes);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
    sealed = cipher.encrypt(msg);  // seals under nonce 0
  }

  static core::Key make_key(const core::BlockParams& params) {
    util::Xoshiro256 rng(0x11d7);
    return core::Key::random(rng, 8, params);
  }

  /// Whether the per-byte sweeps visit byte `i` of a `size`-byte range.
  [[nodiscard]] bool sampled(std::size_t i, std::size_t size) const {
    return i % stride == 0 || i < 48 || i + 48 >= size;
  }

  // Opening must fail with `E` and must not touch the output buffer.
  template <typename E>
  void expect_rejected(std::span<const std::uint8_t> container, const std::string& what,
                       std::size_t out_bytes) {
    std::vector<std::uint8_t> out(out_bytes, 0xCD);
    EXPECT_THROW((void)cipher.decrypt_into(container, msg.size(), out), E) << what;
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](std::uint8_t b) { return b == 0xCD; }))
        << what << ": output buffer written despite rejection";
  }
  template <typename E>
  void expect_rejected(std::span<const std::uint8_t> container, const std::string& what) {
    expect_rejected<E>(container, what, msg.size());
  }
};

/// Run `body` on a fixture of every tamper-matrix input.
template <class Body>
void for_each_input(Body body) {
  for (const V2Input& in : kInputs) {
    SCOPED_TRACE("shards " + std::to_string(in.shards) + ", " + std::to_string(in.msg_bytes) +
                 " B");
    V2Fixture fx(in);
    body(fx);
  }
}

/// Open `framed` with `cipher` into `back` (sized to the plaintext),
/// reporting the authenticated nonce through `nonce`.
std::size_t open_reporting_nonce(MhheaCipher& cipher, std::span<const std::uint8_t> framed,
                                 std::vector<std::uint8_t>& back, std::uint64_t* nonce) {
  return cipher.open_v2_into(
      framed, [&](const FrameHeader& h) { *nonce = h.nonce; },
      [&](std::uint64_t bits) {
        back.resize(static_cast<std::size_t>((bits + 7) / 8));
        return std::span(back);
      });
}

TEST(SealedV2, RoundTripThroughCipherInterface) {
  for_each_input([](V2Fixture& fx) {
    ASSERT_EQ(fx.sealed.size(), fx.cipher.ciphertext_size(fx.msg.size()));
    ASSERT_GE(fx.sealed.size(), FrameHeader::kOverheadV2);
    const FrameHeader h = core::frame_decode(fx.sealed, nullptr);
    EXPECT_EQ(fx.sealed[4], 2);  // the version byte
    EXPECT_EQ(h.nonce, 0u);
    EXPECT_EQ(h.message_bits, static_cast<std::uint64_t>(fx.msg.size()) * 8);
    EXPECT_EQ(fx.cipher.decrypt(fx.sealed, fx.msg.size()), fx.msg);
  });
}

TEST(SealedV2, ExplicitNonceRoundTrip) {
  V2Fixture fx;
  for (std::uint64_t nonce : {std::uint64_t{1}, std::uint64_t{77},
                              std::uint64_t{0xFFFFFFFFFFFFFFFFULL}}) {
    std::vector<std::uint8_t> out(fx.cipher.sealed_v2_size(fx.msg.size(), nonce));
    const std::size_t n = fx.cipher.seal_v2_into(fx.msg, nonce, out);
    ASSERT_EQ(n, out.size());
    std::vector<std::uint8_t> back;
    std::uint64_t seen = 0;
    ASSERT_EQ(open_reporting_nonce(fx.cipher, out, back, &seen), fx.msg.size());
    EXPECT_EQ(seen, nonce);
    EXPECT_EQ(back, fx.msg);
  }
}

TEST(SealedV2, EveryHeaderBitFlipIsRejected) {
  for_each_input([](V2Fixture& fx) {
    auto t = fx.sealed;
    for (std::size_t byte = 0; byte < FrameHeader::kSizeV2; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        t[byte] ^= static_cast<std::uint8_t>(1u << bit);
        fx.expect_rejected<std::invalid_argument>(
            t, "header byte " + std::to_string(byte) + " bit " + std::to_string(bit));
        t[byte] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
  });
}

TEST(SealedV2, NonceTamperFailsTheMacSpecifically) {
  // Bytes 16..23 are structurally unconstrained, so a flipped nonce must be
  // caught by the MAC itself, not by header validation.
  for_each_input([](V2Fixture& fx) {
    auto t = fx.sealed;
    for (std::size_t byte = 16; byte < FrameHeader::kSizeV2; ++byte) {
      t[byte] ^= 0x01;
      fx.expect_rejected<MacError>(t, "nonce byte " + std::to_string(byte));
      t[byte] ^= 0x01;
    }
  });
}

TEST(SealedV2, EveryMacBitFlipIsRejected) {
  for_each_input([](V2Fixture& fx) {
    auto t = fx.sealed;
    const std::size_t tag_at = t.size() - FrameHeader::kMacBytesV2;
    for (std::size_t byte = 0; byte < FrameHeader::kMacBytesV2; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        t[tag_at + byte] ^= static_cast<std::uint8_t>(1u << bit);
        fx.expect_rejected<MacError>(
            t, "MAC byte " + std::to_string(byte) + " bit " + std::to_string(bit));
        t[tag_at + byte] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
  });
}

TEST(SealedV2, SampledCiphertextBitFlipsAreRejected) {
  // One rotating bit position per sampled ciphertext byte, plus all eight
  // bits of the first and last payload bytes.
  for_each_input([](V2Fixture& fx) {
    auto t = fx.sealed;
    const std::size_t begin = FrameHeader::kSizeV2;
    const std::size_t end = t.size() - FrameHeader::kMacBytesV2;
    ASSERT_GT(end, begin);
    for (std::size_t byte = begin; byte < end; ++byte) {
      if (!fx.sampled(byte - begin, end - begin)) continue;
      const auto flip = static_cast<std::uint8_t>(1u << (byte % 8));
      t[byte] ^= flip;
      fx.expect_rejected<MacError>(t, "ciphertext byte " + std::to_string(byte));
      t[byte] ^= flip;
    }
    for (std::size_t byte : {begin, end - 1}) {
      for (int bit = 0; bit < 8; ++bit) {
        t[byte] ^= static_cast<std::uint8_t>(1u << bit);
        fx.expect_rejected<MacError>(
            t, "ciphertext byte " + std::to_string(byte) + " bit " + std::to_string(bit));
        t[byte] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
  });
}

TEST(SealedV2, TruncationAtEveryBoundaryIsRejected) {
  for_each_input([](V2Fixture& fx) {
    for (std::size_t len = 0; len < fx.sealed.size(); ++len) {
      if (!fx.sampled(len, fx.sealed.size())) continue;
      fx.expect_rejected<std::invalid_argument>(std::span(fx.sealed).first(len),
                                                "truncated to " + std::to_string(len));
    }
    // Trailing garbage is a malformation too, not extra ciphertext.
    auto t = fx.sealed;
    t.push_back(0x00);
    fx.expect_rejected<std::invalid_argument>(t, "one trailing byte");
  });
}

TEST(SealedV2, ForgedContainerIntoShortBufferIsMacError) {
  // Error precedence: authentication comes before the output-size check,
  // so a forged container reports the forgery, whatever the buffer.
  for_each_input([](V2Fixture& fx) {
    auto t = fx.sealed;
    t[t.size() / 2] ^= 0x20;
    fx.expect_rejected<MacError>(t, "forged, one byte short", fx.msg.size() - 1);
    fx.expect_rejected<MacError>(t, "forged, empty buffer", 0);
    // The genuine container into the short buffer is a length error.
    fx.expect_rejected<std::length_error>(fx.sealed, "genuine, one byte short",
                                          fx.msg.size() - 1);
  });
}

TEST(SealedV2, AcceptCheckRunsOnlyOnAuthenticContainers) {
  // The accept check (Session's replay window) sees only authenticated
  // headers, and a rejection there leaves the destination untouched.
  for_each_input([](V2Fixture& fx) {
    std::vector<std::uint8_t> out(fx.msg.size(), 0xCD);
    const auto dest = [&](std::uint64_t) { return std::span(out); };
    int accepts = 0;
    const auto reject = [&](const FrameHeader&) {
      ++accepts;
      throw std::invalid_argument("rejected by the accept check");
    };
    auto forged = fx.sealed;
    forged[FrameHeader::kSizeV2] ^= 0x01;
    EXPECT_THROW((void)fx.cipher.open_v2_into(forged, reject, dest), MacError);
    EXPECT_EQ(accepts, 0);
    EXPECT_THROW((void)fx.cipher.open_v2_into(fx.sealed, reject, dest), std::invalid_argument);
    EXPECT_EQ(accepts, 1);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](std::uint8_t b) { return b == 0xCD; }));
    ASSERT_EQ(fx.cipher.open_v2_into(fx.sealed, [&](const FrameHeader&) { ++accepts; }, dest),
              fx.msg.size());
    EXPECT_EQ(accepts, 2);
    EXPECT_EQ(out, fx.msg);
  });
}

TEST(SealedV2, CrossVersionConfusionIsRejected) {
  // A hand-built version-1 container — the retired unauthenticated layout:
  // the first 16 header bytes with version 1, then the blocks, no nonce and
  // no MAC — over the fixture's own ciphertext. Opening it unauthenticated
  // would defeat the format, so it must fail structurally, before any MAC
  // or decryption work.
  V2Fixture fx;
  std::vector<std::uint8_t> v1(fx.sealed.begin(), fx.sealed.begin() + 16);
  v1[4] = 1;
  v1.insert(v1.end(), fx.sealed.begin() + FrameHeader::kSizeV2,
            fx.sealed.end() - FrameHeader::kMacBytesV2);
  EXPECT_THROW((void)core::frame_decode(v1, nullptr), std::invalid_argument);
  try {
    std::vector<std::uint8_t> back;
    std::uint64_t nonce = 0;
    (void)open_reporting_nonce(fx.cipher, v1, back, &nonce);
    ADD_FAILURE() << "v1 container authenticated";
  } catch (const MacError&) {
    ADD_FAILURE() << "rejected by the MAC, not by the structural parse";
  } catch (const std::invalid_argument&) {
  }
  fx.expect_rejected<std::invalid_argument>(v1, "v1 container");
}

TEST(SealedV2, WrongScheduleFailsTheMac) {
  // Same hiding key, different master secret: parsing succeeds, the MAC does
  // not — there is no unauthenticated decryption path to fall through to.
  V2Fixture fx;
  MhheaCipher other(fx.key, 0xACE2, fx.params, MhheaCipher::Framing::sealed_v2);
  std::vector<std::uint8_t> out(fx.msg.size(), 0xCD);
  EXPECT_THROW((void)other.decrypt_into(fx.sealed, fx.msg.size(), out), MacError);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint8_t b) { return b == 0xCD; }));
}

TEST(SealedV2, DeclaredLengthMustMatchHeader) {
  V2Fixture fx;
  std::vector<std::uint8_t> out(fx.msg.size() + 1, 0xCD);
  EXPECT_THROW((void)fx.cipher.decrypt_into(fx.sealed, fx.msg.size() + 1, out),
               std::invalid_argument);
  EXPECT_THROW((void)fx.cipher.decrypt_into(fx.sealed, fx.msg.size() - 1, out),
               std::invalid_argument);
}

TEST(SealedV2, V2EntryPointsRequireV2Framing) {
  V2Fixture fx;
  MhheaCipher raw(fx.key, 0xBEEF, fx.params, MhheaCipher::Framing::raw);
  std::vector<std::uint8_t> out(raw.max_ciphertext_size(fx.msg.size()));
  EXPECT_THROW((void)raw.seal_v2_into(fx.msg, 1, out), std::logic_error);
  EXPECT_THROW((void)raw.sealed_v2_size(fx.msg.size(), 1), std::logic_error);
  std::vector<std::uint8_t> back;
  std::uint64_t nonce = 0;
  EXPECT_THROW((void)open_reporting_nonce(raw, fx.sealed, back, &nonce), std::logic_error);
}

TEST(SealedV2, ShardInvarianceUnderExplicitNonce) {
  // The sharded sealer is bit-exact with the sequential one for every nonce,
  // and either side opens the other's containers.
  V2Fixture fx;
  MhheaCipher sharded(fx.key, 0xACE1, fx.params, MhheaCipher::Framing::sealed_v2, 4);
  util::Xoshiro256 rng(0x57a6);
  std::vector<std::uint8_t> big(40000);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.below(256));
  for (std::uint64_t nonce : {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{99}}) {
    std::vector<std::uint8_t> a(fx.cipher.sealed_v2_size(big.size(), nonce));
    std::vector<std::uint8_t> b(sharded.sealed_v2_size(big.size(), nonce));
    ASSERT_EQ(a.size(), b.size()) << nonce;
    (void)fx.cipher.seal_v2_into(big, nonce, a);
    (void)sharded.seal_v2_into(big, nonce, b);
    EXPECT_EQ(a, b) << nonce;
    std::vector<std::uint8_t> back;
    std::uint64_t seen = 0;
    (void)open_reporting_nonce(sharded, a, back, &seen);
    EXPECT_EQ(seen, nonce);
    EXPECT_EQ(back, big) << nonce;
  }
}

TEST(SealedV2, DistinctNoncesDistinctKeystream) {
  V2Fixture fx;
  std::vector<std::uint8_t> a(fx.cipher.sealed_v2_size(fx.msg.size(), 5));
  (void)fx.cipher.seal_v2_into(fx.msg, 5, a);
  std::vector<std::uint8_t> b(fx.cipher.sealed_v2_size(fx.msg.size(), 6));
  (void)fx.cipher.seal_v2_into(fx.msg, 6, b);
  std::span<const std::uint8_t> p1, p2;
  (void)core::frame_decode(a, &p1);
  (void)core::frame_decode(b, &p2);
  const bool same = p1.size() == p2.size() &&
                    std::equal(p1.begin(), p1.end(), p2.begin());
  EXPECT_FALSE(same);
}

}  // namespace
}  // namespace mhhea::crypto
