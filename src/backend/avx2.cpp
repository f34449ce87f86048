// The AVX2 engine. The cover kernel steps 32 interleaved register lanes
// byte-planar, evaluating the lane stride map as vpshufb nibble lookups;
// the Geffe kernel steps 8 independent 32-bit register states per ymm, its
// table applications vpgatherdd lookups into the same LinearMapTables the
// scalar engine reads — identical XOR algebra, different evaluation width —
// so the engines are bit-identical by construction. The apply kernels
// evaluate core/block.hpp's per-block embed/extract formula eight blocks
// wide (see below), handing ragged tails to the shared scalar kernels.
//
// This is the only TU compiled with -mavx2 (see CMakeLists.txt); nothing
// here executes unless dispatch's runtime cpuid check admitted the engine,
// so the compile flag never leaks illegal instructions onto pre-AVX2 hosts.
// When the toolchain lacks -mavx2 entirely, the TU degrades to a stub that
// reports the engine absent.

#include "src/backend/backend.hpp"
#include "src/backend/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace mhhea::backend {
namespace {

inline const int* table_base(const LinearMapTables& m, int byte) noexcept {
  return reinterpret_cast<const int*>(m.t[static_cast<std::size_t>(byte)].data());
}

/// map(s) for 8 states at once; Bytes as in LinearMapTables::apply. The top
/// index of the widest byte in use needs no mask — states are confined below
/// the byte boundary only for the partial-byte cases the callers pass.
template <int Bytes>
inline __m256i apply_map8(const LinearMapTables& m, __m256i s) noexcept {
  const __m256i ff = _mm256_set1_epi32(0xFF);
  __m256i r = _mm256_i32gather_epi32(table_base(m, 0), _mm256_and_si256(s, ff), 4);
  if constexpr (Bytes >= 2) {
    const __m256i i1 = _mm256_and_si256(_mm256_srli_epi32(s, 8), ff);
    r = _mm256_xor_si256(r, _mm256_i32gather_epi32(table_base(m, 1), i1, 4));
  }
  if constexpr (Bytes >= 3) {
    const __m256i i2 = _mm256_and_si256(_mm256_srli_epi32(s, 16), ff);
    r = _mm256_xor_si256(r, _mm256_i32gather_epi32(table_base(m, 2), i2, 4));
  }
  if constexpr (Bytes >= 4) {
    const __m256i i3 = _mm256_srli_epi32(s, 24);
    r = _mm256_xor_si256(r, _mm256_i32gather_epi32(table_base(m, 3), i3, 4));
  }
  return r;
}

// ------------------------------------------------------------------ covers
//
// Lane j of a call starts j + 1 leaps past the register (the first 32
// blocks, from the serial chain) and steps by the stride map S = leap^32,
// so step g writes blocks 32g..32g+31 in lane order. The lanes' states are
// byte-planar, plane q holding byte q of all 32, and a step computes each
// output plane as the XOR over the 2P source nibbles of one vpshufb into
// that (nibble, plane) row of the CoverTables. The planes then interleave
// into P-byte little-endian blocks.

/// Store the 32 blocks of `plane` (one state byte per plane) at `out`.
template <int P>
inline void store_planes(const __m256i (&plane)[P], std::uint8_t* out) noexcept {
  auto* dst = reinterpret_cast<__m256i*>(out);
  // Per 128-bit half h, unpacking pairs byte j of two planes for blocks
  // 16h + j; lo holds j < 8, hi j >= 8.
  const __m256i lo = _mm256_unpacklo_epi8(plane[0], plane[1]);
  const __m256i hi = _mm256_unpackhi_epi8(plane[0], plane[1]);
  if constexpr (P == 2) {
    _mm256_storeu_si256(dst, _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
  } else {
    const __m256i lo2 = _mm256_unpacklo_epi8(plane[2], plane[3]);
    const __m256i hi2 = _mm256_unpackhi_epi8(plane[2], plane[3]);
    // Blocks 16h + 0..3, 4..7, 8..11 and 12..15.
    const __m256i c0 = _mm256_unpacklo_epi16(lo, lo2);
    const __m256i c1 = _mm256_unpackhi_epi16(lo, lo2);
    const __m256i c2 = _mm256_unpacklo_epi16(hi, hi2);
    const __m256i c3 = _mm256_unpackhi_epi16(hi, hi2);
    _mm256_storeu_si256(dst, _mm256_permute2x128_si256(c0, c1, 0x20));
    _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(c2, c3, 0x20));
    _mm256_storeu_si256(dst + 2, _mm256_permute2x128_si256(c0, c1, 0x31));
    _mm256_storeu_si256(dst + 3, _mm256_permute2x128_si256(c2, c3, 0x31));
  }
}

/// Backend::cover_blocks for registers of P (2 or 4) state bytes.
template <int P>
void cover_blocks_avx2(const CoverTables& t, std::uint32_t& state, std::uint8_t* out,
                       std::size_t n) noexcept {
  if (n < 2 * kCoverLanes) {
    detail::cover_blocks_scalar<P>(*t.leap, state, out, n);
    return;
  }
  // The lanes' seeds are the first 32 blocks, from the serial chain.
  const LinearMapTables& leap = *t.leap;
  alignas(32) std::uint8_t seeds[P][kCoverLanes];
  for (std::uint32_t j = 0, s = state; j < kCoverLanes; ++j) {
    s = leap.apply<P>(s);
    for (int q = 0; q < P; ++q) seeds[q][j] = static_cast<std::uint8_t>(s >> (8 * q));
  }
  __m256i plane[P];
  for (int q = 0; q < P; ++q) {
    plane[q] = _mm256_load_si256(reinterpret_cast<const __m256i*>(seeds[q]));
  }
  // Held in locals: stores through `out` may alias any table memory.
  __m256i row[2 * P][P];
  for (int k = 0; k < 2 * P; ++k) {
    for (int q = 0; q < P; ++q) {
      row[k][q] = _mm256_broadcastsi128_si256(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(t.stride[static_cast<std::size_t>(k * P + q)].data())));
    }
  }
  const __m256i low4 = _mm256_set1_epi8(0x0F);
  store_planes<P>(plane, out);
  std::size_t i = kCoverLanes;
  for (; i + kCoverLanes <= n; i += kCoverLanes) {
    __m256i nib[2 * P];
    for (int q = 0; q < P; ++q) {
      nib[2 * q] = _mm256_and_si256(plane[q], low4);
      nib[2 * q + 1] = _mm256_and_si256(_mm256_srli_epi16(plane[q], 4), low4);
    }
    for (int q = 0; q < P; ++q) {
      __m256i acc = _mm256_shuffle_epi8(row[0][q], nib[0]);
      for (int k = 1; k < 2 * P; ++k) {
        acc = _mm256_xor_si256(acc, _mm256_shuffle_epi8(row[k][q], nib[k]));
      }
      plane[q] = acc;
    }
    store_planes<P>(plane, out + i * P);
  }
  // The last block written is lane 31's state; the serial chain finishes.
  state = static_cast<std::uint32_t>(util::load_le(out + (i - 1) * P, P));
  detail::cover_blocks_scalar<P>(leap, state, out + i * P, n - i);
}

/// 4+4 zero-extension of the 8 32-bit lanes to two 4x64 halves (lanes 0-3
/// and 4-7), so 64-bit window shifts and the Geffe combine stay vertical.
inline void widen(__m256i v, __m256i& lo, __m256i& hi) noexcept {
  lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v));
  hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1));
}

struct Win {
  __m256i lo, hi;
};

/// geffe_window64 (kernels.hpp) for 8 lanes: same D-chain / M^64 update,
/// with the shift-and-OR window composition running on widened halves.
inline Win geffe_window8(__m256i& s, const LinearMapTables& deg,
                         const LinearMapTables& upd, int d) noexcept {
  Win w;
  __m256i cur = s;
  widen(cur, w.lo, w.hi);
  for (int filled = d; filled < 64; filled += d) {
    cur = apply_map8<3>(deg, cur);
    __m256i lo, hi;
    widen(cur, lo, hi);
    const __m128i shift = _mm_cvtsi32_si128(filled);
    w.lo = _mm256_or_si256(w.lo, _mm256_sll_epi64(lo, shift));
    w.hi = _mm256_or_si256(w.hi, _mm256_sll_epi64(hi, shift));
  }
  s = apply_map8<3>(upd, s);
  return w;
}

inline __m256i combine(__m256i a, __m256i b, __m256i c) noexcept {
  return _mm256_or_si256(_mm256_and_si256(a, b), _mm256_andnot_si256(a, c));
}

// ------------------------------------------------------------ apply kernels
//
// Eight blocks per step for N = 16/32 (one 32-bit lane per block: widths
// are <= 16, so a 4-byte message gather shifted by up to 7 bits still holds
// them), four for N = 64 (64-bit lanes: widths reach 32). Each step is the
// per-block formula of core/block.hpp evaluated vertically: gather the
// message word at offset / 8, shift right by offset % 8, XOR the pattern,
// shift to kn1, and blend under the range mask. A step whose gather would
// read past the message span runs the scalar kernel for the rest of the
// batch (offsets only grow, so that is the batch's tail).

inline __m256i load_u8x8(const std::uint8_t* p) noexcept {
  return _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
inline __m256i load_u8x4_64(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(v)));
}
inline __m256i load_u32x8(const std::uint32_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline __m128i load_u32x4(const std::uint32_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// (1 << w) - 1 per lane.
inline __m256i low_mask32(__m256i w) noexcept {
  const __m256i one = _mm256_set1_epi32(1);
  return _mm256_sub_epi32(_mm256_sllv_epi32(one, w), one);
}
inline __m256i low_mask64(__m256i w) noexcept {
  const __m256i one = _mm256_set1_epi64x(1);
  return _mm256_sub_epi64(_mm256_sllv_epi64(one, w), one);
}

template <int N>
void embed_blocks_avx2(const ApplyBatch& b, const std::uint8_t* covers,
                       std::span<const std::uint8_t> msg, std::uint8_t* out) noexcept {
  constexpr std::size_t kStep = N == 64 ? 4 : 8;
  constexpr std::size_t kRead = N == 64 ? 8 : 4;  // bytes one gather lane reads
  const auto* base = msg.data();
  std::size_t i = 0;
  for (; i + kStep <= b.n; i += kStep) {
    if (b.offset[i + kStep - 1] / 8 + kRead > msg.size()) break;
    if constexpr (N == 64) {
      const __m128i off = load_u32x4(&b.offset[i]);
      const __m256i word = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(base),
                                                  _mm_srli_epi32(off, 3), 1);
      const __m256i bits = _mm256_srlv_epi64(
          word, _mm256_cvtepu32_epi64(_mm_and_si128(off, _mm_set1_epi32(7))));
      const __m256i kn1 = load_u8x4_64(&b.kn1[i]);
      const __m256i m = _mm256_sllv_epi64(low_mask64(load_u8x4_64(&b.width[i])), kn1);
      const __m256i pat = _mm256_cvtepu32_epi64(load_u32x4(&b.pattern[i]));
      const __m256i ins = _mm256_and_si256(_mm256_sllv_epi64(_mm256_xor_si256(bits, pat), kn1), m);
      const __m256i cov = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(covers + i * 8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * 8),
                          _mm256_or_si256(_mm256_andnot_si256(m, cov), ins));
    } else {
      const __m256i off = load_u32x8(&b.offset[i]);
      const __m256i word = _mm256_i32gather_epi32(reinterpret_cast<const int*>(base),
                                                  _mm256_srli_epi32(off, 3), 1);
      const __m256i bits = _mm256_srlv_epi32(word, _mm256_and_si256(off, _mm256_set1_epi32(7)));
      const __m256i kn1 = load_u8x8(&b.kn1[i]);
      const __m256i m = _mm256_sllv_epi32(low_mask32(load_u8x8(&b.width[i])), kn1);
      const __m256i ins = _mm256_and_si256(
          _mm256_sllv_epi32(_mm256_xor_si256(bits, load_u32x8(&b.pattern[i])), kn1), m);
      __m256i cov;
      if constexpr (N == 16) {
        cov = _mm256_cvtepu16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(covers + i * 2)));
      } else {
        cov = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(covers + i * 4));
      }
      const __m256i v = _mm256_or_si256(_mm256_andnot_si256(m, cov), ins);
      if constexpr (N == 16) {
        // Values fit 16 bits, so the saturating pack is exact; it packs
        // within 128-bit halves, and the permute gathers both halves' words.
        const __m256i packed = _mm256_permute4x64_epi64(_mm256_packus_epi32(v, v), 0x08);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 2),
                         _mm256_castsi256_si128(packed));
      } else {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * 4), v);
      }
    }
  }
  detail::embed_blocks_scalar<N>(b, covers, msg, out, i);
}

template <int N>
void extract_blocks_avx2(const ApplyBatch& b, const std::uint8_t* blocks,
                         std::uint32_t* bits) noexcept {
  constexpr std::size_t kStep = N == 64 ? 4 : 8;
  std::size_t i = 0;
  for (; i + kStep <= b.n; i += kStep) {
    if constexpr (N == 64) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blocks + i * 8));
      const __m256i x = _mm256_and_si256(
          _mm256_xor_si256(_mm256_srlv_epi64(v, load_u8x4_64(&b.kn1[i])),
                           _mm256_cvtepu32_epi64(load_u32x4(&b.pattern[i]))),
          low_mask64(load_u8x4_64(&b.width[i])));
      const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(bits + i),
                       _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(x, even)));
    } else {
      __m256i v;
      if constexpr (N == 16) {
        v = _mm256_cvtepu16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + i * 2)));
      } else {
        v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blocks + i * 4));
      }
      const __m256i x = _mm256_and_si256(
          _mm256_xor_si256(_mm256_srlv_epi32(v, load_u8x8(&b.kn1[i])),
                           load_u32x8(&b.pattern[i])),
          low_mask32(load_u8x8(&b.width[i])));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(bits + i), x);
    }
  }
  detail::extract_blocks_scalar<N>(b, blocks, bits, i);
}

// ------------------------------------------------------ plan and schedule
//
// N=16, both policies. Sixteen blocks form a sub-batch, and the widths of a
// sub-batch are looked up in registers from the key's LaneTable: the field
// is bits 8..10 of (high byte * mul) for each block's pair, and a variable
// shift picks its nibble of the width and low-end rows (one 32-bit shift
// for the even block in its low half, one for the odd block in its high
// half).
//
// Framed, the scan steps the frame budget for all sixteen entry phases at
// once as u8 positions: a block of width w takes a lane at position pos to
// min(pos + w, (pos | 15) + 1) — it spends its width or closes the frame.
// After sixteen steps a lane holds its entry phase plus the bits the
// sub-batch takes from that phase (at most 15 + 16 * 8 < 256), and its
// exit phase is that position mod 16: the sub-batch's transfer function.
// Two sub-batches share one ymm (one per 128-bit half) and a step scans R
// such registers, so 2R dependency chains overlap. Plan folds each
// sub-batch's transfer into the chunk's (two pshufb and a u16 add).
// Schedule carries the live phase from sub-batch to sub-batch as a splat
// through the exit phases (one pshufb each), keeps every step's positions,
// and reads the live phase's out afterwards (one shuffle and one palignr
// per block). Continuous, a sub-batch's offsets are a prefix sum of its
// widths.
//
// Schedule keeps a sub-batch only when it ends at or before the message
// end, so no block in it is capped by the message end; the scalar kernel
// schedules the rest, and plan's scalar kernel takes the blocks past the
// last whole step.

constexpr std::size_t kSub = 16;  // blocks per sub-batch

/// The lane-table rows of one sub-batch: [0] for its even blocks, [1] for
/// its odd ones.
struct Rows16 {
  const std::uint16_t* mul;
  const std::uint32_t* pattern;
  const std::uint32_t* width[2];
  const std::uint32_t* kn1[2];
};

/// Walks the pair phase of consecutive sub-batches through the key cycle.
class LanePhase {
 public:
  LanePhase(const KeyTables& k, std::uint64_t block) noexcept
      : t_(k.lanes),
        n_(k.pairs.size()),
        step_(kSub % k.pairs.size()),
        at_(static_cast<std::size_t>(block % k.pairs.size())) {}
  Rows16 next() noexcept {
    // Block 2j of the run is entry at + 2j, block 2j + 1 entry at + 2j + 1.
    const std::size_t p = at_;
    const std::size_t odd = p % 2;
    at_ += step_;
    if (at_ >= n_) at_ -= n_;
    return {t_.mul.data() + p,
            t_.pattern.data() + p,
            {t_.width[odd].data() + p / 2, t_.width[odd ^ 1].data() + (p + 1) / 2},
            {t_.kn1[odd].data() + p / 2, t_.kn1[odd ^ 1].data() + (p + 1) / 2}};
  }

 private:
  const LaneTable& t_;
  std::size_t n_;
  std::size_t step_;
  std::size_t at_;
};

/// The nibbles of sixteen blocks' rows (`rows[0]` for the even blocks,
/// `rows[1]` for the odd) picked by their fields times four, the u16 lanes
/// of `f4`: as u16 lanes in block order.
inline __m256i pick_nibbles(const std::uint32_t* const (&rows)[2], __m256i f4) noexcept {
  const __m256i even =
      _mm256_srlv_epi32(load_u32x8(rows[0]), _mm256_and_si256(f4, _mm256_set1_epi32(0xFFFF)));
  const __m256i odd = _mm256_srlv_epi32(load_u32x8(rows[1]), _mm256_srli_epi32(f4, 16));
  return _mm256_and_si256(
      _mm256_or_si256(_mm256_and_si256(even, _mm256_set1_epi32(15)), _mm256_slli_epi32(odd, 16)),
      _mm256_set1_epi16(15));
}

/// Four times the scramble field of the sixteen blocks at `blocks` (N=16
/// serialized) under the pairs of `r`, as u16 lanes.
inline __m256i fields4(const Rows16& r, const std::uint8_t* blocks) noexcept {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blocks));
  const __m256i mul = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r.mul));
  return _mm256_and_si256(_mm256_srli_epi16(_mm256_mullo_epi16(_mm256_srli_epi16(v, 8), mul), 6),
                          _mm256_set1_epi16(7 << 2));
}

/// Two sub-batches' u16 lanes (below 256) as u8, one sub-batch per half.
inline __m256i narrow_pair(__m256i a, __m256i b) noexcept {
  return _mm256_permute4x64_epi64(_mm256_packus_epi16(a, b), 0xD8);
}

/// Sixteen framed budget steps over R registers of widths `w` from
/// positions `pos`. `rows`, when given, receives the positions after every
/// step.
template <int R>
inline void scan16(__m256i (&pos)[R], const __m256i (&w)[R], __m256i (*rows)[16]) noexcept {
  const __m256i f15 = _mm256_set1_epi8(15);
  const __m256i one = _mm256_set1_epi8(1);
  for (int j = 0; j < 16; ++j) {
    const __m256i at = _mm256_set1_epi8(static_cast<char>(j));
    for (int r = 0; r < R; ++r) {
      pos[r] = _mm256_min_epu8(_mm256_add_epi8(pos[r], _mm256_shuffle_epi8(w[r], at)),
                               _mm256_add_epi8(_mm256_or_si256(pos[r], f15), one));
      if (rows != nullptr) rows[r][j] = pos[r];
    }
  }
}

inline __m256i entry_phases() noexcept {
  return _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5,
                          6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
}

/// The ranges of the 32 blocks at `blocks` under the next two pair phases:
/// widths and low ends as u8, one sub-batch per ymm half.
struct Ranges32 {
  Rows16 rows[2];
  __m256i width;
  __m256i kn1;
};

inline Ranges32 ranges32(LanePhase& phase, const std::uint8_t* blocks) noexcept {
  const Rows16 ra = phase.next();
  const Rows16 rb = phase.next();
  const __m256i fa = fields4(ra, blocks);
  const __m256i fb = fields4(rb, blocks + 2 * kSub);
  return {{ra, rb},
          narrow_pair(pick_nibbles(ra.width, fa), pick_nibbles(rb.width, fb)),
          narrow_pair(pick_nibbles(ra.kn1, fa), pick_nibbles(rb.kn1, fb))};
}

/// Backend::plan_blocks over whole steps of 32R blocks; returns the blocks
/// planned. Framed: cur[p] is the phase chunk entry phase p has reached,
/// acc[p] the bits it has taken since the last fold into t (u16: folded
/// every 255 / R steps, each 2R takes of at most 128 bits).
template <bool Framed, int R>
std::size_t plan16(const KeyTables& k, std::uint64_t first, const std::uint8_t* blocks,
                   std::size_t n, Transfer& t) noexcept {
  constexpr std::size_t kStep = 2 * kSub * R;
  LanePhase phase(k, first);
  std::size_t i = 0;
  if constexpr (!Framed) {
    __m256i sum = _mm256_setzero_si256();
    for (; i + kStep <= n; i += kStep) {
      for (int r = 0; r < R; ++r) {
        const __m256i w = ranges32(phase, blocks + (i + 32 * r) * 2).width;
        sum = _mm256_add_epi64(sum, _mm256_sad_epu8(w, _mm256_setzero_si256()));
      }
    }
    alignas(32) std::uint64_t s[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(s), sum);
    t.bits[0] += s[0] + s[1] + s[2] + s[3];
  } else {
    alignas(16) std::uint8_t c[16];
    for (std::size_t p = 0; p < 16; ++p) c[p] = static_cast<std::uint8_t>((p + t.bits[p]) & 15);
    __m128i cur = _mm_load_si128(reinterpret_cast<const __m128i*>(c));
    __m256i acc = _mm256_setzero_si256();
    const auto fold = [&] {
      alignas(32) std::uint16_t a[16];
      _mm256_store_si256(reinterpret_cast<__m256i*>(a), acc);
      for (std::size_t p = 0; p < 16; ++p) t.bits[p] += a[p];
      acc = _mm256_setzero_si256();
    };
    const __m256i pos0 = entry_phases();
    const __m256i f15 = _mm256_set1_epi8(15);
    const auto take = [&](__m128i taken, __m128i exit) {
      acc = _mm256_add_epi16(acc, _mm256_cvtepu8_epi16(_mm_shuffle_epi8(taken, cur)));
      cur = _mm_shuffle_epi8(exit, cur);
    };
    int steps = 0;
    for (; i + kStep <= n; i += kStep) {
      __m256i w[R];
      for (int r = 0; r < R; ++r) w[r] = ranges32(phase, blocks + (i + 32 * r) * 2).width;
      __m256i pos[R];
      for (int r = 0; r < R; ++r) pos[r] = pos0;
      scan16<R>(pos, w, nullptr);
      for (int r = 0; r < R; ++r) {
        const __m256i taken = _mm256_sub_epi8(pos[r], pos0);
        const __m256i exit = _mm256_and_si256(pos[r], f15);
        take(_mm256_castsi256_si128(taken), _mm256_castsi256_si128(exit));
        take(_mm256_extracti128_si256(taken, 1), _mm256_extracti128_si256(exit, 1));
      }
      if (++steps == 255 / R) {
        fold();
        steps = 0;
      }
    }
    fold();
  }
  return i;
}

/// Backend::schedule_blocks over whole steps of 32R blocks, from block
/// `from` of the batch, up to the first sub-batch that would run past the
/// message end; returns the batch entries filled. Offsets count from
/// `base`.
template <bool Framed, int R>
std::size_t schedule16(const KeyTables& k, Cursor& at, std::uint64_t end,
                       const std::uint8_t* blocks, std::size_t n, ApplyBatch& b,
                       std::size_t from, std::uint64_t base) noexcept {
  constexpr std::size_t kStep = 2 * kSub * R;
  LanePhase phase(k, at.block);
  std::uint64_t bit = at.bit;
  std::size_t i = from;
  const auto store_offsets = [&](__m128i rel, std::uint64_t start, std::size_t to) {
    const __m256i add = _mm256_set1_epi32(static_cast<int>(start - base));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&b.offset[to]),
                        _mm256_add_epi32(_mm256_cvtepu8_epi32(rel), add));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&b.offset[to + 8]),
                        _mm256_add_epi32(_mm256_cvtepu8_epi32(_mm_srli_si128(rel, 8)), add));
  };
  // The live phase, splat over a 128-bit half.
  __m128i live = _mm_set1_epi8(static_cast<char>(bit & 15));
  while (i + kStep <= n && bit < end) {
    const std::size_t i0 = i;
    std::uint8_t takes[2 * R];  // bits each sub-batch takes
    __m256i w[R];
    for (int r = 0; r < R; ++r) {
      const std::size_t to = i0 + 2 * kSub * r;
      const Ranges32 g = ranges32(phase, blocks + to * 2);
      w[r] = g.width;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(&b.kn1[to]), g.kn1);
      for (std::size_t h = 0; h < 2; ++h) {
        const std::size_t o = to + kSub * h;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(&b.pattern[o]),
                            load_u32x8(g.rows[h].pattern));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(&b.pattern[o + 8]),
                            load_u32x8(g.rows[h].pattern + 8));
      }
    }
    // Every step's positions for every entry phase (framed).
    __m256i pos[R];
    __m256i rows[R][16];
    if constexpr (Framed) {
      for (int r = 0; r < R; ++r) pos[r] = entry_phases();
      scan16<R>(pos, w, rows);
    }
    std::uint64_t start = bit;
    for (int r = 0; r < R; ++r) {
      const std::size_t to = i0 + 2 * kSub * r;
      __m256i rel;
      __m256i after;
      if constexpr (Framed) {
        // The live phases of both halves, then every block's position
        // after it in the live lane.
        const __m256i exit = _mm256_and_si256(pos[r], _mm256_set1_epi8(15));
        const __m128i live_b = _mm_shuffle_epi8(_mm256_castsi256_si128(exit), live);
        const __m256i live2 = _mm256_set_m128i(live_b, live);
        live = _mm_shuffle_epi8(_mm256_extracti128_si256(exit, 1), live_b);
        after = _mm256_setzero_si256();
        for (int j = 0; j < 16; ++j) {
          after = _mm256_alignr_epi8(_mm256_shuffle_epi8(rows[r][j], live2), after, 1);
        }
        const __m256i before = _mm256_alignr_epi8(after, live2, 15);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(&b.width[to]),
                            _mm256_sub_epi8(after, before));
        rel = _mm256_sub_epi8(before, live2);
        after = _mm256_sub_epi8(after, live2);  // bits taken through each block
      } else {
        // Inclusive prefix sums per half.
        after = _mm256_add_epi8(w[r], _mm256_slli_si256(w[r], 1));
        after = _mm256_add_epi8(after, _mm256_slli_si256(after, 2));
        after = _mm256_add_epi8(after, _mm256_slli_si256(after, 4));
        after = _mm256_add_epi8(after, _mm256_slli_si256(after, 8));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(&b.width[to]), w[r]);
        rel = _mm256_sub_epi8(after, w[r]);
      }
      takes[2 * r] = static_cast<std::uint8_t>(_mm256_extract_epi8(after, 15));
      takes[2 * r + 1] = static_cast<std::uint8_t>(_mm256_extract_epi8(after, 31));
      store_offsets(_mm256_castsi256_si128(rel), start, to);
      start += takes[2 * r];
      store_offsets(_mm256_extracti128_si256(rel, 1), start, to + kSub);
      start += takes[2 * r + 1];
    }
    if (start <= end) {
      bit = start;
      i += kStep;
      continue;
    }
    // The sub-batches from the first that would run past the message end
    // are left to the scalar kernel, which caps their blocks there.
    for (const std::uint8_t take : takes) {
      if (bit + take > end) break;
      bit += take;
      i += kSub;
    }
    break;
  }
  b.n = i;
  at = {at.block + (i - from), bit};
  return i;
}

class Avx2Backend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "avx2"; }
  [[nodiscard]] std::size_t lanes() const noexcept override { return 8; }

  void cover_blocks(const CoverTables& t, std::uint32_t& state, std::uint8_t* out,
                    std::size_t n) const override {
    with_state_bytes(t.degree, [&]<int P>() {
      if constexpr (P == 2 || P == 4) {
        cover_blocks_avx2<P>(t, state, out, n);
      } else {  // no vector form for 1- and 3-byte states
        detail::cover_blocks_scalar<P>(*t.leap, state, out, n);
      }
    });
  }

  void geffe_units(const GeffeKernel& k, std::uint32_t* a, std::uint32_t* b,
                   std::uint32_t* c, std::size_t n_lanes,
                   const std::uint8_t* in, std::uint8_t* out,
                   std::size_t per_lane) const override {
    if (n_lanes != 8) {
      detail::geffe_units_scalar(k, a, b, c, n_lanes, in, out, per_lane);
      return;
    }
    __m256i sa = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i sb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    __m256i sc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c));
    alignas(32) std::uint64_t z[8];
    for (std::size_t t = 0; t < per_lane; ++t) {
      const Win wa = geffe_window8(sa, *k.deg[0], *k.upd[0], k.degree[0]);
      const Win wb = geffe_window8(sb, *k.deg[1], *k.upd[1], k.degree[1]);
      const Win wc = geffe_window8(sc, *k.deg[2], *k.upd[2], k.degree[2]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(z), combine(wa.lo, wb.lo, wc.lo));
      _mm256_store_si256(reinterpret_cast<__m256i*>(z + 4), combine(wa.hi, wb.hi, wc.hi));
      for (std::size_t l = 0; l < 8; ++l) {
        const std::size_t off = (l * per_lane + t) * 8;
        std::uint64_t v = z[l];
        if (in != nullptr) v ^= util::load_le(in + off, 8);
        util::store_le(out + off, v, 8);
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a), sa);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b), sb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c), sc);
  }

  void plan_blocks(const KeyTables& k, std::uint64_t first, const std::uint8_t* blocks,
                   std::size_t n, Transfer& t) const override {
    detail::with_layout(k, [&]<int N, bool Framed>() {
      std::size_t done = 0;
      if constexpr (N == 16) {
        done = plan16<Framed, 2>(k, first, blocks, n, t);
        done += plan16<Framed, 1>(k, first + done, blocks + done * 2, n - done, t);
      }
      detail::plan_blocks_scalar<N, Framed>(k, first + done, blocks + done * (N / 8), n - done,
                                            t);
    });
  }

  std::size_t schedule_blocks(const KeyTables& k, Cursor& at, std::uint64_t end,
                              const std::uint8_t* blocks, std::size_t n,
                              ApplyBatch& b) const override {
    const std::uint64_t base = at.bit & ~std::uint64_t{7};
    return detail::with_layout(k, [&]<int N, bool Framed>() {
      std::size_t done = 0;
      if constexpr (N == 16) {
        // Short calls (the tail refills of a walk) skip the vector set-up.
        if (n >= 4 * kSub) done = schedule16<Framed, 2>(k, at, end, blocks, n, b, 0, base);
        if (n - done >= 2 * kSub) {
          done = schedule16<Framed, 1>(k, at, end, blocks, n, b, done, base);
        }
      }
      return detail::schedule_blocks_scalar<N, Framed>(k, at, end, blocks, n, b, done, base);
    });
  }

  void embed_blocks(int vector_bits, const ApplyBatch& b, const std::uint8_t* covers,
                    std::span<const std::uint8_t> msg, std::uint8_t* out) const override {
    util::with_vector_bits(vector_bits,
                             [&]<int N>() { embed_blocks_avx2<N>(b, covers, msg, out); });
  }

  void extract_blocks(int vector_bits, const ApplyBatch& b, const std::uint8_t* blocks,
                      std::uint32_t* bits) const override {
    util::with_vector_bits(vector_bits,
                             [&]<int N>() { extract_blocks_avx2<N>(b, blocks, bits); });
  }
};

}  // namespace

namespace detail {
const Backend* avx2_backend_compiled() noexcept {
  static const Avx2Backend instance;
  return &instance;
}
}  // namespace detail

bool avx2_compiled() noexcept { return true; }

}  // namespace mhhea::backend

#else  // !__AVX2__: toolchain without -mavx2 — engine absent, scalar serves.

namespace mhhea::backend {
namespace detail {
const Backend* avx2_backend_compiled() noexcept { return nullptr; }
}  // namespace detail
bool avx2_compiled() noexcept { return false; }
}  // namespace mhhea::backend

#endif
