// Scalar reference kernels for the backend seam — shared, header-only.
//
// scalar.cpp wraps these verbatim; avx2.cpp reuses them for lane counts
// below a full vector, for the widths it has no vector form for and for
// every ragged tail, so the SIMD engine never needs a second scalar
// implementation to keep in sync.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
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

/// Run `f.template operator()<N, Framed>()` for the vector width and framing
/// policy of `k` — the one dispatch per kernel call.
template <class F>
decltype(auto) with_layout(const KeyTables& k, F&& f) {
  return util::with_vector_bits(k.vector_bits, [&]<int N>() -> decltype(auto) {
    if (k.framed) return f.template operator()<N, true>();
    return f.template operator()<N, false>();
  });
}

/// The table lookup for block `v`: read the loc_bits-wide field at K1 of
/// V's high half (wrapping within it: a rotate of the N/2-bit half) and
/// index the pair's range table.
template <int N>
[[nodiscard]] inline RangeEntry range_of(const PairCtx& pc, std::uint64_t v) noexcept {
  const auto high = static_cast<util::UintOf<N / 16>>(v >> (N / 2));
  return pc.range[static_cast<std::size_t>(std::rotr(high, pc.lo) & (N / 2 - 1))];
}

/// Backend::plan_blocks, one block at a time. Framed: one frame budget per
/// entry phase — N lanes of u8 stepped together, a compare, a select and a
/// subtract per block — and a count of the frames each lane closes (each
/// closed frame took N bits; the rest is the entry budget minus the exit
/// budget). Continuous: a width sum.
template <int N, bool Framed>
void plan_blocks_scalar(const KeyTables& k, std::uint64_t first, const std::uint8_t* blocks,
                        std::size_t n, Transfer& t) noexcept {
  const PairCtx* const head = k.pairs.data();
  const PairCtx* const last = head + k.pairs.size() - 1;
  const PairCtx* pc = head + first % k.pairs.size();
  if constexpr (!Framed) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += range_of<N>(*pc, load_block<N>(blocks, i)).width;
      pc = pc == last ? head : pc + 1;
    }
    t.bits[0] += sum;
  } else {
    using U8x16 = std::uint8_t __attribute__((vector_size(16)));
    constexpr int kVecs = N / 16;
    const U8x16 full = U8x16{} + static_cast<std::uint8_t>(N);
    U8x16 budget[kVecs];
    U8x16 closes[kVecs] = {};
    std::array<std::uint8_t, N> entry;
    std::array<std::uint64_t, N> closed{};
    for (int p = 0; p < N; ++p) {
      const auto u = static_cast<std::size_t>(p);
      entry[u] = static_cast<std::uint8_t>(N - ((p + t.bits[u]) & (N - 1)));
      budget[p / 16][p % 16] = entry[u];
    }
    const auto flush = [&] {
      for (int p = 0; p < N; ++p) closed[static_cast<std::size_t>(p)] += closes[p / 16][p % 16];
      for (U8x16& c : closes) c = U8x16{};
    };
    for (std::size_t i = 0; i < n; ++i) {
      const U8x16 w = U8x16{} + range_of<N>(*pc, load_block<N>(blocks, i)).width;
      pc = pc == last ? head : pc + 1;
      for (int v = 0; v < kVecs; ++v) {
        // A lane whose budget the block meets or exceeds closes its frame
        // (and reopens a full one); the others spend the block's width.
        const auto spent = reinterpret_cast<U8x16>(budget[v] <= w);
        budget[v] = ((budget[v] - w) & ~spent) | (full & spent);
        closes[v] -= spent;
      }
      if (i % 255 == 254) flush();  // u8 close counts stay exact
    }
    flush();
    for (int p = 0; p < N; ++p) {
      const auto u = static_cast<std::size_t>(p);
      t.bits[u] += closed[u] * N + entry[u] - budget[p / 16][p % 16];
    }
  }
}

/// Backend::schedule_blocks from block `from` of the batch on, one block at
/// a time: `at` is the cursor at that block, and offsets count from bit
/// `base` (a multiple of 8; batch entries below `from` are kept).
///
/// The loop-carried state is the open frame's budget, so its update is kept
/// to a compare and a select: a block that spends the frame reopens the
/// next one at once. While two or more frames remain the next frame is
/// known to be full, so the message end stays off the budget's dependency
/// chain; only the last two frames pay for sizing the short final frame.
template <int N, bool Framed>
std::size_t schedule_blocks_scalar(const KeyTables& k, Cursor& at, std::uint64_t end,
                                   const std::uint8_t* blocks, std::size_t n, ApplyBatch& batch,
                                   std::size_t from, std::uint64_t base) noexcept {
  assert(n <= kApplyBatch);
  const PairCtx* const head = k.pairs.data();
  const PairCtx* const last = head + k.pairs.size() - 1;
  const PairCtx* pc = head + at.block % k.pairs.size();
  std::uint64_t bit = at.bit;
  std::uint64_t budget = end - bit;
  if constexpr (Framed) budget = std::min<std::uint64_t>(budget, N - (bit & (N - 1)));
  std::size_t i = from;
  const auto step = [&]<bool kTail>() {
    const RangeEntry r = range_of<N>(*pc, load_block<N>(blocks, i));
    const bool spent = r.width >= budget;
    const std::uint64_t w = spent ? budget : r.width;
    batch.kn1[i] = r.kn1;
    batch.width[i] = static_cast<std::uint8_t>(w);
    batch.pattern[i] = static_cast<std::uint32_t>(pc->pattern);
    batch.offset[i] = static_cast<std::uint32_t>(bit - base);
    bit += w;
    if constexpr (Framed) {
      const std::uint64_t next = kTail ? std::min<std::uint64_t>(end - bit, N) : N;
      budget = spent ? next : budget - r.width;
    } else {
      budget -= w;  // continuous: the budget is what is left of the message
    }
    pc = pc == last ? head : pc + 1;
  };
  if constexpr (Framed) {
    for (; i < n && end - bit >= 2 * N; ++i) step.template operator()<false>();
  }
  for (; i < n && bit < end; ++i) step.template operator()<true>();
  batch.n = i;
  at = {at.block + (i - from), bit};
  return i;
}

/// Blocks [from, b.n) of Backend::embed_blocks, one at a time.
template <int N>
inline void embed_blocks_scalar(const ApplyBatch& b, const std::uint8_t* covers,
                                std::span<const std::uint8_t> msg, std::uint8_t* out,
                                std::size_t from = 0) noexcept {
  for (std::size_t i = from; i < b.n; ++i) {
    const std::uint64_t v = core::embed_bits_with_pattern(
        load_block<N>(covers, i), b.kn1[i], b.pattern[i], peek_bits(msg, b.offset[i]), b.width[i]);
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
