#include "src/util/bitstream.hpp"

#include <algorithm>
#include <cassert>

#include "src/util/bits.hpp"

namespace mhhea::util {

void SpanBitWriter::write_bits(std::uint64_t v, int n) {
  assert(n >= 0 && n <= 64);
  v &= mask64(n);
  bits_ += static_cast<std::size_t>(n);
  while (n > 0) {
    const int take = std::min(n, 64 - fill_);
    acc_ |= v << fill_;  // bits past 64 are dropped; only `take` are kept
    fill_ += take;
    v = take >= 64 ? 0 : v >> take;
    n -= take;
    while (fill_ >= 8) {
      put_byte(static_cast<std::uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }
}

void SpanBitWriter::append_bits(std::span<const std::uint8_t> bytes, std::size_t n_bits) {
  assert(n_bits <= bytes.size() * 8);
  for (const std::uint8_t* p = bytes.data(); n_bits > 0; p += 8) {
    const int k = static_cast<int>(std::min<std::size_t>(64, n_bits));
    write_bits(load_le(p, (k + 7) / 8), k);
    n_bits -= static_cast<std::size_t>(k);
  }
}

void SpanBitWriter::flush() {
  if (fill_ > 0) {
    put_byte(static_cast<std::uint8_t>(acc_ & 0xFF));
    acc_ = 0;
    fill_ = 0;
  }
}

std::vector<std::uint16_t> to_words16(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint16_t> words((bytes.size() + 1) / 2, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    words[i / 2] = static_cast<std::uint16_t>(words[i / 2] |
                                              (static_cast<std::uint16_t>(bytes[i]) << (8 * (i % 2))));
  }
  return words;
}

std::vector<std::uint8_t> from_words16(std::span<const std::uint16_t> words,
                                       std::size_t n_bytes) {
  assert(n_bytes <= words.size() * 2);
  std::vector<std::uint8_t> bytes(n_bytes, 0);
  for (std::size_t i = 0; i < n_bytes; ++i) {
    bytes[i] = static_cast<std::uint8_t>((words[i / 2] >> (8 * (i % 2))) & 0xFF);
  }
  return bytes;
}

}  // namespace mhhea::util
