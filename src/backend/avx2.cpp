// The AVX2 engine: 8 independent 32-bit register states per ymm, stepped
// vertically in lockstep. Table applications become vpgatherdd lookups into
// the same LinearMapTables the scalar engine reads — identical XOR algebra,
// different evaluation width — so the engines are bit-identical by
// construction. The apply kernels evaluate core/block.hpp's per-block
// embed/extract formula eight blocks wide (see below), handing ragged tails
// to the shared scalar kernels.
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

template <int Bytes>
inline void lfsr_blocks8(const LinearMapTables& leap, std::uint32_t* states,
                         std::uint64_t* out, std::size_t per_lane) noexcept {
  __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states));
  alignas(32) std::uint32_t tmp[8];
  for (std::size_t t = 0; t < per_lane; ++t) {
    s = apply_map8<Bytes>(leap, s);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), s);
    for (std::size_t l = 0; l < 8; ++l) out[l * per_lane + t] = tmp[l];
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states), s);
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

/// The low 32 bits of eight 64-bit cover words, one per 32-bit lane.
inline __m256i narrow_covers(const std::uint64_t* c) noexcept {
  const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i lo = _mm256_permutevar8x32_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c)), even);
  const __m256i hi = _mm256_permutevar8x32_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 4)), even);
  return _mm256_permute2x128_si256(lo, hi, 0x20);
}

template <int N>
void embed_blocks_avx2(const ApplyBatch& b, const std::uint64_t* covers,
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
      const __m256i cov = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(covers + i));
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
      const __m256i v = _mm256_or_si256(_mm256_andnot_si256(m, narrow_covers(covers + i)), ins);
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

class Avx2Backend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "avx2"; }
  [[nodiscard]] std::size_t lanes() const noexcept override { return 8; }

  void lfsr_blocks(const LinearMapTables& leap, int degree,
                   std::uint32_t* states, std::size_t n_lanes,
                   std::uint64_t* out, std::size_t per_lane) const override {
    if (n_lanes != 8) {  // partial passes go through the shared scalar kernel
      detail::lfsr_blocks_scalar_any(leap, degree, states, n_lanes, out, per_lane);
      return;
    }
    switch (state_bytes(degree)) {
      case 1:
      case 2:
        lfsr_blocks8<2>(leap, states, out, per_lane);
        break;
      case 3:
        lfsr_blocks8<3>(leap, states, out, per_lane);
        break;
      default:
        lfsr_blocks8<4>(leap, states, out, per_lane);
        break;
    }
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

  void embed_blocks(int vector_bits, const ApplyBatch& b, const std::uint64_t* covers,
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
