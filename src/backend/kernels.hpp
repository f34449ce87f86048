// Scalar reference kernels for the backend seam — shared, header-only.
//
// scalar.cpp wraps these verbatim; avx2.cpp reuses them for lane counts
// below a full vector (the remainder passes), so the SIMD engine never
// needs a second scalar implementation to keep in sync.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/backend/backend.hpp"
#include "src/backend/tables.hpp"
#include "src/core/block.hpp"
#include "src/util/bits.hpp"

namespace mhhea::backend::detail {

template <int Bytes>
inline void lfsr_blocks_scalar(const LinearMapTables& leap,
                               std::uint32_t* states, std::size_t n_lanes,
                               std::uint64_t* out, std::size_t per_lane) {
  for (std::size_t l = 0; l < n_lanes; ++l) {
    std::uint32_t s = states[l];
    std::uint64_t* dst = out + l * per_lane;
    for (std::size_t t = 0; t < per_lane; ++t) {
      s = leap.apply<Bytes>(s);
      dst[t] = s;
    }
    states[l] = s;
  }
}

inline void lfsr_blocks_scalar_any(const LinearMapTables& leap, int degree,
                                   std::uint32_t* states, std::size_t n_lanes,
                                   std::uint64_t* out, std::size_t per_lane) {
  switch (state_bytes(degree)) {
    case 1:
    case 2:
      lfsr_blocks_scalar<2>(leap, states, n_lanes, out, per_lane);
      break;
    case 3:
      lfsr_blocks_scalar<3>(leap, states, n_lanes, out, per_lane);
      break;
    default:
      lfsr_blocks_scalar<4>(leap, states, n_lanes, out, per_lane);
      break;
  }
}

/// The next 64 output bits of a Fibonacci register starting at state `s`
/// (bits LSB-first), advancing `s` by 64 steps. A Fibonacci state of a
/// degree-d register IS the next d output bits (the PR-2/PR-4 invariant
/// behind step_bits), so the window is the state plus deg-leapt copies of
/// it ORed in at d-bit offsets; bits past 64 fall off the shift. One
/// upd-map application (M^64) then replaces 64 serial steps.
inline std::uint64_t geffe_window64(std::uint32_t& s,
                                    const LinearMapTables& deg,
                                    const LinearMapTables& upd,
                                    int d) noexcept {
  std::uint64_t w = s;
  std::uint32_t cur = s;
  for (int filled = d; filled < 64; filled += d) {
    cur = deg.apply<3>(cur);  // Geffe degrees are 17/19/23 -> 3 state bytes
    w |= static_cast<std::uint64_t>(cur) << filled;
  }
  s = upd.apply<3>(s);
  return w;
}

inline void geffe_units_scalar(const GeffeKernel& k, std::uint32_t* a,
                               std::uint32_t* b, std::uint32_t* c,
                               std::size_t n_lanes, const std::uint8_t* in,
                               std::uint8_t* out, std::size_t per_lane) {
  for (std::size_t l = 0; l < n_lanes; ++l) {
    for (std::size_t t = 0; t < per_lane; ++t) {
      const std::uint64_t za = geffe_window64(a[l], *k.deg[0], *k.upd[0], k.degree[0]);
      const std::uint64_t zb = geffe_window64(b[l], *k.deg[1], *k.upd[1], k.degree[1]);
      const std::uint64_t zc = geffe_window64(c[l], *k.deg[2], *k.upd[2], k.degree[2]);
      std::uint64_t z = (za & zb) | (~za & zc);
      const std::size_t off = (l * per_lane + t) * 8;
      if (in != nullptr) z ^= util::load_le(in + off, 8);
      util::store_le(out + off, z, 8);
    }
  }
}

/// Up to 64 bits of `msg` from bit `pos` on (LSB-first); bytes past the
/// end read as zero. One unaligned 8-byte load away from the tail.
inline std::uint64_t peek_bits(std::span<const std::uint8_t> msg, std::uint64_t pos) noexcept {
  const auto byte = static_cast<std::size_t>(pos / 8);
  std::uint64_t v = 0;
  if (byte + 8 <= msg.size() && std::endian::native == std::endian::little) {
    std::memcpy(&v, msg.data() + byte, 8);
  } else {
    for (std::size_t i = byte; i < msg.size() && i < byte + 8; ++i) {
      v |= std::uint64_t{msg[i]} << (8 * (i - byte));
    }
  }
  return v >> (pos % 8);
}

/// Block i of N-bit serialized blocks, little-endian, as one move.
template <int N>
inline std::uint64_t load_block(const std::uint8_t* blocks, std::size_t i) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    util::UintOf<N / 8> w;
    std::memcpy(&w, blocks + i * (N / 8), N / 8);
    return w;
  } else {
    return util::load_le(blocks + i * (N / 8), N / 8);
  }
}
template <int N>
inline void store_block(std::uint8_t* blocks, std::size_t i, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    const auto w = static_cast<util::UintOf<N / 8>>(v);
    std::memcpy(blocks + i * (N / 8), &w, N / 8);
  } else {
    util::store_le(blocks + i * (N / 8), v, N / 8);
  }
}

/// Blocks [from, b.n) of Backend::embed_blocks, one at a time.
template <int N>
inline void embed_blocks_scalar(const ApplyBatch& b, const std::uint64_t* covers,
                                std::span<const std::uint8_t> msg, std::uint8_t* out,
                                std::size_t from = 0) noexcept {
  for (std::size_t i = from; i < b.n; ++i) {
    const std::uint64_t v = core::embed_bits_with_pattern(
        covers[i], b.kn1[i], b.pattern[i], peek_bits(msg, b.offset[i]), b.width[i]);
    store_block<N>(out, i, v);
  }
}

/// Blocks [from, b.n) of Backend::extract_blocks, one at a time.
template <int N>
inline void extract_blocks_scalar(const ApplyBatch& b, const std::uint8_t* blocks,
                                  std::uint32_t* bits, std::size_t from = 0) noexcept {
  for (std::size_t i = from; i < b.n; ++i) {
    bits[i] = static_cast<std::uint32_t>(core::extract_bits_with_pattern(
        load_block<N>(blocks, i), b.kn1[i], b.pattern[i], b.width[i]));
  }
}

}  // namespace mhhea::backend::detail
