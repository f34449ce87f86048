// The per-key tables and the bit sink of the chunk pipeline (shard.hpp) —
// every whole-message pass of both hiding ciphers runs on them: one-shot
// and sharded encrypt and decrypt, and the ciphertext sizers. MHHEA and
// HHEA differ only in the pair tables built here (Scheme): HHEA's tables
// map every field value to a fixed range.
//
// The software analogue of the paper's improved datapath: everything that
// depends only on the key is precomputed per pair, so the per-block work is
// one table lookup and one masked word operation, with no key- or
// data-dependent branches in the loops. make_pair_ctx tabulates
// scramble_range (block.hpp, the normative reference) for every value of
// the loc_bits-wide scramble field — 8 entries per pair at the paper's
// N=16, 32 at N=64 — and pair_tables lays the same tables out per vector
// lane for sixteen consecutive blocks at N=16, so a vector engine looks up
// sixteen blocks' ranges in registers. Everything that depends only on the
// key and the cover is then worked out apart from the message bits, like
// the paper's locating logic that does not wait on the data path, by the
// backend's block kernels (backend.hpp; kernels.hpp holds the scalar
// reference):
//   * plan — a chunk's block widths become its transfer function: for every
//     entry frame phase, the message bits the chunk takes, so chunks plan
//     independently;
//   * schedule — for a chunk whose entry bit is known, every block's range
//     low end, capped width, pattern and message bit offset;
//   * apply — embed or extract the bits of a whole scheduled batch, and
//     BitSink packs extracted bits into the message.
// Message bits form one contiguous bit run (the frame budget only caps
// per-block widths), so the framed policy needs no nested per-frame loop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/backend/backend.hpp"
#include "src/backend/kernels.hpp"
#include "src/core/block.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/util/bits.hpp"

namespace mhhea::core {

/// Which hiding cipher a walk runs: the choice of pair tables, nothing else.
enum class Scheme {
  /// The paper's MHHEA: location and data scrambling (block.hpp).
  mhhea,
  /// The original Hybrid Hiding Encryption Algorithm [SHAAR03], the baseline
  /// the paper improves upon. Block i uses pair (K1, K2) = key[i mod L] and
  /// writes message bits directly (no XOR) into V[K1 .. K2]: no location
  /// scrambling and no data scrambling, so every ciphertext bit outside the
  /// key ranges is the cover's own bit and a constant plaintext shows up
  /// verbatim at the key locations (the Hhea.LocationsAreFixedPerPair /
  /// NoDataScrambling tests pin both) — which is why the paper added the two
  /// scrambling steps. Every scramble-field value maps to the pair's fixed
  /// range and the pattern is zero, so the MHHEA walks embed and extract
  /// HHEA unchanged, with the same covers and framing.
  hhea,
};

namespace detail {

using backend::KeyTables;
using backend::PairCtx;

/// Build the per-pair range tables (~L * N/2 entries: well under a
/// microsecond, so Session set-up and every sharded call can afford it).
inline std::vector<PairCtx> make_pair_ctx(const Key& key, const BlockParams& params) {
  const int h = params.half();
  std::vector<PairCtx> ctx(static_cast<std::size_t>(key.size()));
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    PairCtx& c = ctx[i];
    const KeyPair pair = key.pair(static_cast<int>(i));
    c.lo = pair.lo();
    c.pattern = key_pattern(pair, params);
    const int d = pair.span();
    for (int field = 0; field < h; ++field) {
      // scramble_range's step 2 with the field already read: h is a power
      // of two, so field ^ lo stays below h.
      const int kn1 = field ^ c.lo;
      const int kn2 = kn1 + d >= h ? kn1 + d - h : kn1 + d;
      const int a = std::min(kn1, kn2);
      c.range[static_cast<std::size_t>(field)] = {static_cast<std::uint8_t>(a),
                                                  static_cast<std::uint8_t>(kn1 + kn2 - 2 * a + 1)};
    }
  }
  return ctx;
}

/// HHEA's tables: every field value maps to the pair's fixed range [K1, K2]
/// (span + 1 bits wide) and the data pattern is zero.
inline std::vector<PairCtx> fixed_range_ctx(const Key& key) {
  std::vector<PairCtx> ctx(static_cast<std::size_t>(key.size()));
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const KeyPair pair = key.pair(static_cast<int>(i));
    ctx[i].range.fill({pair.lo(), static_cast<std::uint8_t>(pair.span() + 1)});
  }
  return ctx;
}

/// The N=16 lane layout of `pairs`.
inline backend::LaneTable lane_table(std::span<const PairCtx> pairs) {
  backend::LaneTable t;
  for (std::size_t e = 0; e < t.mul.size(); ++e) {
    if (e >= pairs.size()) {  // the entries repeat with the key cycle
      const std::size_t from = e - pairs.size();
      t.mul[e] = t.mul[from];
      t.pattern[e] = t.pattern[from];
      t.width[e % 2][e / 2] = t.width[from % 2][from / 2];
      t.kn1[e % 2][e / 2] = t.kn1[from % 2][from / 2];
      continue;
    }
    const PairCtx& pc = pairs[e];
    t.mul[e] = static_cast<std::uint16_t>(0x0101u << (8 - pc.lo));
    t.pattern[e] = static_cast<std::uint32_t>(pc.pattern);
    for (std::size_t field = 0; field < 8; ++field) {
      t.width[e % 2][e / 2] |= std::uint32_t{pc.range[field].width} << (4 * field);
      t.kn1[e % 2][e / 2] |= std::uint32_t{pc.range[field].kn1} << (4 * field);
    }
  }
  return t;
}

/// The tables `scheme` walks with under `params`.
inline KeyTables pair_tables(const Key& key, const BlockParams& params, Scheme scheme) {
  KeyTables k;
  k.vector_bits = params.vector_bits;
  k.framed = params.policy == FramePolicy::framed;
  k.pairs = scheme == Scheme::hhea ? fixed_range_ctx(key) : make_pair_ctx(key, params);
  if (k.vector_bits == 16) k.lanes = lane_table(k.pairs);
  return k;
}

/// Message bits out, LSB-first from the start of `out`, zero-padding the
/// final partial byte on flush(). The caller sizes `out` to exactly the
/// bytes the walk fills; nothing outside it is written.
class BitSink {
 public:
  explicit BitSink(std::span<std::uint8_t> out) noexcept
      : p_(out.data()), end_(out.data() + out.size()) {}
  void put(std::uint64_t bits, int w) noexcept {
    acc_ |= bits << n_;
    n_ += static_cast<unsigned>(w);
    // Store a whole word every time and step past the completed bytes (no
    // data-dependent branch). Within the last 7 bytes the bits wait for
    // flush() instead.
    if (end_ - p_ >= 8) {
      backend::detail::store_block<64>(p_, 0, acc_);
      p_ += n_ / 8;
      acc_ >>= n_ & ~7u;
      n_ &= 7;
    }
  }
  void flush() noexcept { util::store_le(p_, acc_, static_cast<int>((n_ + 7) / 8)); }

 private:
  std::uint8_t* p_;
  std::uint8_t* end_;
  std::uint64_t acc_ = 0;
  unsigned n_ = 0;  // pending bits in acc_
};

}  // namespace detail
}  // namespace mhhea::core
