#include "src/core/frame.hpp"

#include <cstring>
#include <stdexcept>

#include "src/util/bits.hpp"

namespace mhhea::core {

namespace {
constexpr std::uint8_t kMagic[4] = {'M', 'H', 'E', 'A'};
constexpr std::uint8_t kVersion = 2;

int log2_vector_scale(int vector_bits) {
  switch (vector_bits) {
    case 16: return 0;
    case 32: return 1;
    case 64: return 2;
    default: throw std::invalid_argument("frame: unsupported vector size");
  }
}
}  // namespace

void frame_encode_header(const FrameHeader& header, std::span<std::uint8_t> out) {
  header.params.validate();
  if (out.size() < FrameHeader::kSizeV2) {
    throw std::length_error("frame: output buffer shorter than header");
  }
  std::memcpy(out.data(), kMagic, 4);
  out[4] = kVersion;
  const std::uint8_t policy_bit = header.params.policy == FramePolicy::framed ? 1 : 0;
  const std::uint8_t z_bit = header.compression != 0 ? 0x08 : 0;
  out[5] = static_cast<std::uint8_t>(
      policy_bit | (log2_vector_scale(header.params.vector_bits) << 1) | z_bit);
  out[6] = header.compression;
  out[7] = 0;
  util::store_le(out.data() + 8, header.message_bits, 8);
  util::store_le(out.data() + 16, header.nonce, 8);
}

FrameHeader frame_decode(std::span<const std::uint8_t> framed,
                         std::span<const std::uint8_t>* payload) {
  if (framed.size() < FrameHeader::kOverheadV2) {
    throw std::invalid_argument("frame: buffer shorter than header + MAC");
  }
  if (std::memcmp(framed.data(), kMagic, 4) != 0) {
    throw std::invalid_argument("frame: bad magic");
  }
  if (framed[4] != kVersion) {
    throw std::invalid_argument("frame: unsupported version");
  }
  if ((framed[5] & ~0x0F) != 0) {
    throw std::invalid_argument("frame: reserved flag bits must be zero");
  }
  const bool compressed = (framed[5] & 0x08) != 0;
  if (compressed && framed[6] == 0) {
    throw std::invalid_argument("frame: compressed flag without a method byte");
  }
  if (!compressed && framed[6] != 0) {
    throw std::invalid_argument("frame: compression method byte without its flag");
  }
  if (framed[7] != 0) {
    throw std::invalid_argument("frame: reserved bytes must be zero");
  }
  FrameHeader h;
  h.compression = framed[6];
  h.params.policy = (framed[5] & 1) != 0 ? FramePolicy::framed : FramePolicy::continuous;
  switch ((framed[5] >> 1) & 0x3) {
    case 0: h.params.vector_bits = 16; break;
    case 1: h.params.vector_bits = 32; break;
    case 2: h.params.vector_bits = 64; break;
    default: throw std::invalid_argument("frame: bad vector-size code");
  }
  h.message_bits = util::load_le(framed.data() + 8, 8);
  h.nonce = util::load_le(framed.data() + 16, 8);
  const std::size_t body = framed.size() - FrameHeader::kOverheadV2;
  const auto bb = static_cast<std::size_t>(h.params.block_bytes());
  if (body % bb != 0) throw std::invalid_argument("frame: payload not block-aligned");
  // Each block carries at least one message bit while bits remain, so the
  // block count gives hard bounds on the message length.
  const std::size_t n_blocks = body / bb;
  if (h.message_bits > n_blocks * static_cast<std::size_t>(h.params.half())) {
    throw std::invalid_argument("frame: message length too large for payload");
  }
  if (h.message_bits > 0 && n_blocks > h.message_bits) {
    throw std::invalid_argument("frame: more blocks than message bits");
  }
  if (h.message_bits == 0 && n_blocks != 0) {
    throw std::invalid_argument("frame: empty message with nonempty payload");
  }
  if (payload != nullptr) *payload = framed.subspan(FrameHeader::kSizeV2, body);
  return h;
}

}  // namespace mhhea::core
