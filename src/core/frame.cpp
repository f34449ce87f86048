#include "src/core/frame.hpp"

#include <cstring>
#include <stdexcept>

#include "src/core/mhhea.hpp"
#include "src/util/bits.hpp"

namespace mhhea::core {

namespace {
constexpr std::uint8_t kMagic[4] = {'M', 'H', 'E', 'A'};

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
  if (header.version != 1 && header.version != 2) {
    throw std::invalid_argument("frame: unsupported version");
  }
  if (header.version == 1 && header.nonce != 0) {
    throw std::invalid_argument("frame: v1 header cannot carry a nonce");
  }
  if (header.version == 1 && header.compression != 0) {
    throw std::invalid_argument("frame: v1 header cannot carry a compression method");
  }
  if (out.size() < header.header_size()) {
    throw std::length_error("frame: output buffer shorter than header");
  }
  std::memcpy(out.data(), kMagic, 4);
  out[4] = static_cast<std::uint8_t>(header.version);
  const std::uint8_t policy_bit = header.params.policy == FramePolicy::framed ? 1 : 0;
  const std::uint8_t z_bit = header.compression != 0 ? 0x08 : 0;
  out[5] = static_cast<std::uint8_t>(
      policy_bit | (log2_vector_scale(header.params.vector_bits) << 1) | z_bit);
  out[6] = header.compression;
  out[7] = 0;
  util::store_le(out.data() + 8, header.message_bits, 8);
  if (header.version == 2) util::store_le(out.data() + 16, header.nonce, 8);
}

std::vector<std::uint8_t> frame_encode(const FrameHeader& header,
                                       std::span<const std::uint8_t> cipher) {
  // v2 callers (Session / MhheaCipher) append the MAC themselves; this
  // helper only lays out header + ciphertext.
  std::vector<std::uint8_t> out(header.header_size() + cipher.size());
  frame_encode_header(header, out);
  if (!cipher.empty()) {
    std::memcpy(out.data() + header.header_size(), cipher.data(), cipher.size());
  }
  return out;
}

FrameHeader frame_decode(std::span<const std::uint8_t> framed,
                         std::span<const std::uint8_t>* payload) {
  if (framed.size() < FrameHeader::kSize) {
    throw std::invalid_argument("frame: buffer shorter than header");
  }
  if (std::memcmp(framed.data(), kMagic, 4) != 0) {
    throw std::invalid_argument("frame: bad magic");
  }
  if (framed[4] != 1 && framed[4] != 2) {
    throw std::invalid_argument("frame: unsupported version");
  }
  // v2 grew the compressed-envelope flag (bit 3) and method byte; in v1 both
  // stay reserved-zero, so a v1 container can never smuggle one in.
  const bool v2 = framed[4] == 2;
  if ((framed[5] & (v2 ? ~0x0F : ~0x07)) != 0) {
    throw std::invalid_argument("frame: reserved flag bits must be zero");
  }
  const bool compressed = v2 && (framed[5] & 0x08) != 0;
  if (compressed && framed[6] == 0) {
    throw std::invalid_argument("frame: compressed flag without a method byte");
  }
  if (!compressed && framed[6] != 0) {
    throw std::invalid_argument(v2 ? "frame: compression method byte without its flag"
                                   : "frame: reserved bytes must be zero");
  }
  if (framed[7] != 0) {
    throw std::invalid_argument("frame: reserved bytes must be zero");
  }
  FrameHeader h;
  h.version = framed[4];
  h.compression = compressed ? framed[6] : 0;
  h.params.policy = (framed[5] & 1) != 0 ? FramePolicy::framed : FramePolicy::continuous;
  switch ((framed[5] >> 1) & 0x3) {
    case 0: h.params.vector_bits = 16; break;
    case 1: h.params.vector_bits = 32; break;
    case 2: h.params.vector_bits = 64; break;
    default: throw std::invalid_argument("frame: bad vector-size code");
  }
  h.message_bits = util::load_le(framed.data() + 8, 8);
  if (h.version == 2) {
    if (framed.size() < FrameHeader::kOverheadV2) {
      throw std::invalid_argument("frame: v2 buffer shorter than header + MAC");
    }
    h.nonce = util::load_le(framed.data() + 16, 8);
  }
  const std::size_t trailer = h.version == 2 ? FrameHeader::kMacBytesV2 : 0;
  const std::size_t body = framed.size() - h.header_size() - trailer;
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
  if (payload != nullptr) *payload = framed.subspan(h.header_size(), body);
  return h;
}

std::vector<std::uint8_t> seal(std::span<const std::uint8_t> msg, const Key& key,
                               std::uint64_t seed, BlockParams params) {
  FrameHeader h;
  h.params = params;
  h.message_bits = static_cast<std::uint64_t>(msg.size()) * 8;
  return frame_encode(h, encrypt(msg, key, seed, params));
}

std::vector<std::uint8_t> open(std::span<const std::uint8_t> framed, const Key& key) {
  std::span<const std::uint8_t> payload;
  const FrameHeader h = frame_decode(framed, &payload);
  if (h.version != 1) {
    throw std::invalid_argument("frame: v2 container requires authenticated open");
  }
  // frame_decode bounds message_bits by the payload, so this allocation is
  // too; the length need not be a whole number of bytes.
  std::vector<std::uint8_t> msg(static_cast<std::size_t>((h.message_bits + 7) / 8));
  (void)Decryptor(key, 0, h.params).decrypt_into(payload, h.message_bits, msg);
  return msg;
}

}  // namespace mhhea::core
