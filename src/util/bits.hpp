// Bit-manipulation primitives shared by every layer of the MHHEA stack.
//
// Conventions used throughout this repository (normative):
//   * bit index 0 is the least-significant bit ("location zero refers to the
//     least significant bit" — paper, §IV);
//   * multi-bit fields are written `value[hi..lo]` with `lo` at the LSB;
//   * rotations are defined on an explicit width so that 16-bit hardware
//     rotates and 64-bit software values never get mixed up;
//   * message bit streams over byte buffers are LSB-first: within a byte,
//     bit 0 is consumed (and produced) first;
//   * multi-byte words — hiding vectors, ciphertext blocks, header fields —
//     are little-endian (byte[0] = bits 7..0), so the software bit stream is
//     identical to the hardware's view of its 16-bit message cache.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

namespace mhhea::util {

/// The unsigned integer of B bytes (B = 1, 2, 4 or 8).
template <int B>
using UintOf = std::conditional_t<
    B == 1, std::uint8_t,
    std::conditional_t<B == 2, std::uint16_t,
                       std::conditional_t<B == 4, std::uint32_t, std::uint64_t>>>;

/// Run `f.template operator()<N>()` for a runtime hiding-vector width of 16,
/// 32 or 64 — the one dispatch per call that lets the block loops inside run
/// width-specialized.
template <class F>
decltype(auto) with_vector_bits(int vector_bits, F&& f) {
  switch (vector_bits) {
    case 16:
      return std::forward<F>(f).template operator()<16>();
    case 32:
      return std::forward<F>(f).template operator()<32>();
    default:
      return std::forward<F>(f).template operator()<64>();
  }
}

/// A mask with the low `n` bits set. `n` may be 0..64.
[[nodiscard]] constexpr std::uint64_t mask64(int n) noexcept {
  assert(n >= 0 && n <= 64);
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Bit `i` (0 = LSB) of `v` as 0/1.
[[nodiscard]] constexpr std::uint64_t get_bit(std::uint64_t v, int i) noexcept {
  assert(i >= 0 && i < 64);
  return (v >> i) & 1u;
}

/// `v` with bit `i` forced to `b`.
[[nodiscard]] constexpr std::uint64_t set_bit(std::uint64_t v, int i, bool b) noexcept {
  assert(i >= 0 && i < 64);
  const std::uint64_t m = std::uint64_t{1} << i;
  return b ? (v | m) : (v & ~m);
}

/// The field `v[hi..lo]` shifted down to bit 0. Requires `lo <= hi`.
[[nodiscard]] constexpr std::uint64_t extract(std::uint64_t v, int hi, int lo) noexcept {
  assert(lo >= 0 && hi >= lo && hi < 64);
  return (v >> lo) & mask64(hi - lo + 1);
}

/// `v` with the field `[hi..lo]` replaced by the low bits of `field`.
[[nodiscard]] constexpr std::uint64_t deposit(std::uint64_t v, int hi, int lo,
                                              std::uint64_t field) noexcept {
  assert(lo >= 0 && hi >= lo && hi < 64);
  const std::uint64_t m = mask64(hi - lo + 1) << lo;
  return (v & ~m) | ((field << lo) & m);
}

/// Rotate the low `width` bits of `v` left by `n` (mod width). Bits above
/// `width` must be zero and stay zero.
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t v, int n, int width) noexcept {
  assert(width > 0 && width <= 64);
  assert((v & ~mask64(width)) == 0);
  n %= width;
  if (n < 0) n += width;
  if (n == 0) return v;
  return ((v << n) | (v >> (width - n))) & mask64(width);
}

/// Rotate the low `width` bits of `v` right by `n` (mod width).
[[nodiscard]] constexpr std::uint64_t rotr(std::uint64_t v, int n, int width) noexcept {
  return rotl(v, width - (n % width + width) % width, width);
}

/// 16-bit convenience rotates, matching the Message Alignment module.
[[nodiscard]] constexpr std::uint16_t rotl16(std::uint16_t v, int n) noexcept {
  return static_cast<std::uint16_t>(rotl(v, n, 16));
}
[[nodiscard]] constexpr std::uint16_t rotr16(std::uint16_t v, int n) noexcept {
  return static_cast<std::uint16_t>(rotr(v, n, 16));
}

/// Number of set bits.
[[nodiscard]] constexpr int popcount64(std::uint64_t v) noexcept {
  return std::popcount(v);
}

/// XOR-reduction (parity) of `v`: 1 if an odd number of bits are set.
[[nodiscard]] constexpr std::uint64_t parity64(std::uint64_t v) noexcept {
  return static_cast<std::uint64_t>(std::popcount(v) & 1);
}

/// Reverse the low `width` bits of `v` (bit 0 <-> bit width-1).
[[nodiscard]] constexpr std::uint64_t reverse_bits(std::uint64_t v, int width) noexcept {
  assert(width > 0 && width <= 64);
  std::uint64_t r = 0;
  for (int i = 0; i < width; ++i) r |= get_bit(v, i) << (width - 1 - i);
  return r;
}

/// Ceil(log2(n)) for n >= 1: the number of bits needed to index n items.
[[nodiscard]] constexpr int clog2(std::uint64_t n) noexcept {
  assert(n >= 1);
  return n <= 1 ? 0 : 64 - std::countl_zero(n - 1);
}

/// True if `v` fits in `width` bits.
[[nodiscard]] constexpr bool fits(std::uint64_t v, int width) noexcept {
  return (v & ~mask64(width)) == 0;
}

/// Read a little-endian unsigned integer of `n_bytes` (<= 8) bytes.
[[nodiscard]] constexpr std::uint64_t load_le(const std::uint8_t* p, int n_bytes) noexcept {
  assert(n_bytes >= 0 && n_bytes <= 8);
  std::uint64_t v = 0;
  for (int i = 0; i < n_bytes; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Write the low `n_bytes` (<= 8) bytes of `v` little-endian.
constexpr void store_le(std::uint8_t* p, std::uint64_t v, int n_bytes) noexcept {
  assert(n_bytes >= 0 && n_bytes <= 8);
  for (int i = 0; i < n_bytes; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

/// Widen the little-endian `Width`-byte values packed at the start of
/// `words`' own bytes to one word each. Value i's bytes end at or below
/// word i, so going back to front reads every value before it is
/// overwritten.
template <int Width>
void widen_le(std::span<std::uint64_t> words) noexcept {
  const auto* p = reinterpret_cast<const std::uint8_t*>(words.data());
  for (std::size_t i = words.size(); i-- > 0;) {
    std::uint64_t v = 0;
    std::memcpy(&v, p + i * Width, Width);
    words[i] = std::endian::native == std::endian::little ? v : load_le(p + i * Width, Width);
  }
}

/// Narrowing cast that asserts the value is representable (Core Guidelines
/// ES.46 flavour without GSL).
template <typename To, typename From>
[[nodiscard]] constexpr To narrow(From v) noexcept {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>);
  const To r = static_cast<To>(v);
  assert(static_cast<From>(r) == v && "narrow: value out of range");
  return r;
}

}  // namespace mhhea::util
