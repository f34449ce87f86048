// Self-describing, authenticated container for MHHEA ciphertext.
//
// The paper transports the message length out of band ("EOF"); for a usable
// library we define a small framed format so a receiver holding only the key
// (and the MAC key) can decrypt a byte blob. Encrypt-then-MAC — sealed by
// crypto::Session or MhheaCipher in Framing::sealed_v2:
//
//   offset  size  field
//   0       4     magic "MHEA"
//   4       1     format version (always 2)
//   5       1     flags: bit0 = framed policy, bits 2..1 = log2(N/16),
//                 bit3 = compressed envelope, bits 7..4 reserved (0)
//   6       1     compression method tag (nonzero iff flags bit3 is set —
//                 compress::Method)
//   7       1     reserved (0)
//   8       8     message length in bits (little-endian)
//   16      8     nonce / message counter (little-endian)
//   24      ...   ciphertext blocks (N/8 bytes each, little-endian)
//   end-16  16    SipHash-2-4-128 tag over header || ciphertext
//
// frame_decode rejects every other version byte, including 1: that
// layout (the first 16 bytes alone, no nonce, no MAC) was unauthenticated.
//
// When the compressed flag is set, the sealed "message" is a compression
// envelope (src/compress: method tag, varint raw size, stream) rather than
// the plaintext, `message length in bits` counts the envelope's bits, and
// the header's method byte repeats the envelope's tag — the opener
// cross-checks the two after MAC verification and decryption, so neither can
// be swapped independently. An uncompressed container (flag clear, method
// byte 0) is byte-identical to the pre-compression format, which is what
// keeps the existing known-answer vectors valid.
//
// The header is integrity-checked on parse (magic, version, vector size,
// length vs payload). The nonce is carried in-band because the cover seed is
// *derived* from key + nonce by the session key schedule (see
// crypto/session.hpp). The MAC is verified before any message bit is
// extracted — only the decrypt plan, which reads the blocks' unmodified
// cover halves, runs beside it — so tampering can never surface as garbage
// plaintext. Every header field is known before the ciphertext, so the
// sealer encodes the header first and MACs it ahead of the blocks.
#pragma once

#include <cstdint>
#include <span>

#include "src/core/params.hpp"

namespace mhhea::core {

struct FrameHeader {
  BlockParams params;
  std::uint64_t message_bits = 0;
  std::uint64_t nonce = 0;
  // Compression method tag of the embedded envelope (0 = the payload is the
  // plaintext itself).
  std::uint8_t compression = 0;

  static constexpr std::size_t kSizeV2 = 24;     // header bytes
  static constexpr std::size_t kMacBytesV2 = 16; // trailer tag bytes
  // Total non-ciphertext bytes of a container.
  static constexpr std::size_t kOverheadV2 = kSizeV2 + kMacBytesV2;
};

/// Serialize the 24-byte header into the front of `out` (std::length_error
/// when shorter). The sealed path writes the header here before the walk,
/// streams blocks straight after it in the caller's buffer and appends the
/// MAC trailer.
void frame_encode_header(const FrameHeader& header, std::span<std::uint8_t> out);

/// Parse and validate a container. Throws std::invalid_argument with a
/// specific message on any malformation, including a version byte other
/// than 2. On success, `payload` receives the ciphertext span (view into
/// `framed`, excluding the 16-byte MAC trailer, which is NOT verified here —
/// structural parsing is keyless, authentication needs the MAC key (see
/// crypto::MhheaCipher / crypto::Session).
[[nodiscard]] FrameHeader frame_decode(std::span<const std::uint8_t> framed,
                                       std::span<const std::uint8_t>* payload);

}  // namespace mhhea::core
