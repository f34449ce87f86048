// The block kernels of the chunk pipeline (shard.hpp) — every
// whole-message pass of both hiding ciphers runs them: one-shot and sharded
// encrypt and decrypt, and the ciphertext sizers. MHHEA and HHEA differ
// only in the pair tables the kernels are given (Scheme): HHEA's tables map
// every field value to a fixed range.
//
// The software analogue of the paper's improved datapath: everything that
// depends only on the key is precomputed per pair, so the per-block work is
// one table lookup and one masked word operation, with no key- or
// data-dependent branches in the loops. make_pair_ctx tabulates
// scramble_range (block.hpp, the normative reference) for every value of
// the loc_bits-wide scramble field — 8 entries per pair at the paper's
// N=16, 32 at N=64. Everything that depends only on the key and the cover
// is then worked out apart from the message bits, like the paper's
// locating logic that does not wait on the data path:
//   * plan — ChunkPlanner turns a chunk's block widths into its transfer
//     function: for every entry frame phase, the message bits the chunk
//     takes (N u8 lanes stepped together), so chunks plan independently;
//   * schedule — for a chunk whose entry bit is known, schedule() fixes
//     every block's range low end, capped width, pattern and message bit
//     offset into a backend::ApplyBatch: field -> {kn1, width};
//     w = min(width, frame budget); a spent frame reopens by select;
//   * apply — the backend's embed_blocks/extract_blocks kernels move the
//     bits of a whole batch (eight blocks per AVX2 instruction), and
//     BitSink packs extracted bits into the message.
// Message bits form one contiguous bit run (the frame budget only caps
// per-block widths), so the framed policy needs no nested per-frame loop.
// The kernels are templated on the vector width N, dispatched once per call
// (util::with_vector_bits), so block loads and stores are 2/4/8-byte moves.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
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

/// One range-table entry: the scrambled range's low end and its width.
struct RangeEntry {
  std::uint8_t kn1 = 0;
  std::uint8_t width = 0;
};

/// Per-pair constants of the cipher hot loops: the pair, its data-scramble
/// pattern, and its range table — scramble_range(v, pair) for every value
/// of v's scramble field. Shared by every walk so they cannot drift.
struct PairCtx {
  KeyPair pair;
  int lo = 0;  // canonical K1: where the scramble field starts in V's high half
  std::uint64_t pattern = 0;
  std::array<RangeEntry, 32> range{};  // first N/2 entries used
};

/// Build the per-key tables (~L * N/2 entries: well under a microsecond,
/// so Session set-up and every sharded call can afford it).
inline std::vector<PairCtx> make_pair_ctx(const Key& key, const BlockParams& params) {
  const int h = params.half();
  std::vector<PairCtx> ctx(static_cast<std::size_t>(key.size()));
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    PairCtx& c = ctx[i];
    c.pair = key.pair(static_cast<int>(i));
    c.lo = c.pair.lo();
    c.pattern = key_pattern(c.pair, params);
    const int d = c.pair.span();
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
    ctx[i].pair = key.pair(static_cast<int>(i));
    ctx[i].range.fill({ctx[i].pair.lo(), static_cast<std::uint8_t>(ctx[i].pair.span() + 1)});
  }
  return ctx;
}

/// The pair tables `scheme` walks with.
inline std::vector<PairCtx> pair_tables(const Key& key, const BlockParams& params,
                                        Scheme scheme) {
  return scheme == Scheme::hhea ? fixed_range_ctx(key) : make_pair_ctx(key, params);
}

/// The table lookup for block `v`: read the loc_bits-wide field at K1 of
/// V's high half (wrapping within it: a rotate of the N/2-bit half) and
/// index the pair's range table.
template <int N>
[[nodiscard]] inline RangeEntry range_of(const PairCtx& pc, std::uint64_t v) noexcept {
  const auto high = static_cast<util::UintOf<N / 16>>(v >> (N / 2));
  return pc.range[static_cast<std::size_t>(std::rotr(high, pc.lo) & (N / 2 - 1))];
}

/// Serialized block access: block_bytes() little-endian bytes per block, as
/// one move (the byte loops of util::load_le are not reliably merged into
/// one in the hot loops).
template <int N>
[[nodiscard]] inline std::uint64_t load_block(const std::uint8_t* blocks, std::size_t i) noexcept {
  return backend::detail::load_block<N>(blocks, i);
}
/// Cover vectors as LfsrCover::next_blocks hands them out.
template <int N>
[[nodiscard]] inline std::uint64_t load_block(const std::uint64_t* words, std::size_t i) noexcept {
  return words[i];
}

/// Where a walk stands at a block edge: the block index and the message
/// bits placed before it — the whole walk state. Under the framed policy
/// frames are vector_bits wide and start at multiples of vector_bits from
/// the message start, so the open frame's budget at bit b is N - b mod N
/// (the message end caps it further); under the continuous policy only the
/// message end caps a block. Nothing else is carried from block to block.
struct Cursor {
  std::uint64_t block = 0;
  std::uint64_t bit = 0;
};

/// Schedule step of the apply stage: for up to `n` blocks from `blocks`
/// (serialized bytes or cover words, block `at.block` first), stopping once
/// `end` message bits are placed, write each block's range low end, capped
/// width, pattern and message bit offset into `batch` and advance `at`.
/// Offsets count from bit 8 * (at.bit / 8), so the batch's message span
/// starts at byte at.bit / 8. Returns the blocks scheduled (batch.n).
///
/// The loop-carried state is the open frame's budget, so its update is kept
/// to a compare and a select: a block that spends the frame reopens the
/// next one at once. While two or more frames remain the next frame is
/// known to be full, so the message end stays off the budget's dependency
/// chain; only the last two frames pay for sizing the short final frame.
template <int N, bool Framed, class Block>
std::size_t schedule(std::span<const PairCtx> pairs, Cursor& at, std::uint64_t end,
                     const Block* blocks, std::size_t n, backend::ApplyBatch& batch) noexcept {
  assert(n <= backend::kApplyBatch);
  const PairCtx* const first = pairs.data();
  const PairCtx* const last = first + pairs.size() - 1;
  const PairCtx* pc = first + at.block % pairs.size();
  const std::uint64_t base = at.bit & ~std::uint64_t{7};
  std::uint64_t bit = at.bit;
  std::uint64_t budget = end - bit;
  if constexpr (Framed) budget = std::min<std::uint64_t>(budget, N - (bit & (N - 1)));
  std::size_t i = 0;
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
    pc = pc == last ? first : pc + 1;
  };
  if constexpr (Framed) {
    for (; i < n && end - bit >= 2 * N; ++i) step.template operator()<false>();
  }
  for (; i < n && bit < end; ++i) step.template operator()<true>();
  batch.n = i;
  at = {at.block + i, bit};
  return i;
}

/// A block chunk's transfer function, the plan stage's output: bits[p] is
/// the message bits the chunk's blocks take when the chunk is entered at
/// frame phase p (message bit mod N) and the message does not end inside
/// it. Under the continuous policy there is no phase and bits[0] is the
/// plain width sum.
struct Transfer {
  std::array<std::uint64_t, 64> bits{};
};

/// The plan stage over one chunk, fed its blocks in order: every entry
/// phase at once, so no chunk waits for the one before it. Framed chunks
/// track one frame budget per entry phase — N lanes of u8 stepped together,
/// a compare, a select and a subtract per block — and count the frames each
/// lane closes; continuous chunks just sum widths.
template <int N, bool Framed>
class ChunkPlanner {
 public:
  /// `first_block`: the chunk's first block index (picks its key pair).
  ChunkPlanner(std::span<const PairCtx> pairs, std::uint64_t first_block) noexcept
      : first_(pairs.data()),
        last_(pairs.data() + pairs.size() - 1),
        pc_(pairs.data() + first_block % pairs.size()) {
    if constexpr (Framed) {
      // Lane p enters at phase p: N - p bits left in its frame.
      const U8x16 phase = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
      for (int v = 0; v < kVecs; ++v) {
        budget_[v] = kFull - (phase + static_cast<std::uint8_t>(16 * v));
      }
    }
  }

  /// The next `n` blocks of the chunk.
  template <class Block>
  void feed(const Block* blocks, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t w = range_of<N>(*pc_, load_block<N>(blocks, i)).width;
      pc_ = pc_ == last_ ? first_ : pc_ + 1;
      if constexpr (Framed) {
        const U8x16 wv = U8x16{} + w;
        for (int v = 0; v < kVecs; ++v) {
          // A lane whose budget the block meets or exceeds closes its frame
          // (and reopens a full one); the others spend the block's width.
          const auto spent = reinterpret_cast<U8x16>(budget_[v] <= wv);
          budget_[v] = ((budget_[v] - wv) & ~spent) | (kFull & spent);
          closes_[v] -= spent;
        }
        if (++pending_ == 255) flush();  // u8 close counts stay exact
      } else {
        sum_ += w;
      }
    }
  }

  /// The chunk's transfer function (call once, after the last feed).
  [[nodiscard]] Transfer finish() noexcept {
    Transfer t;
    if constexpr (Framed) {
      flush();
      for (int p = 0; p < N; ++p) {
        // Each closed frame took N bits; the rest is the entry budget
        // minus the exit budget.
        t.bits[static_cast<std::size_t>(p)] =
            closed_[static_cast<std::size_t>(p)] * N + static_cast<std::uint64_t>(N - p) -
            budget_[p / 16][p % 16];
      }
    } else {
      t.bits[0] = sum_;
    }
    return t;
  }

 private:
  using U8x16 = std::uint8_t __attribute__((vector_size(16)));
  static constexpr int kVecs = N / 16;
  static constexpr U8x16 kFull = U8x16{} + static_cast<std::uint8_t>(N);

  void flush() noexcept {
    for (int p = 0; p < N; ++p) closed_[static_cast<std::size_t>(p)] += closes_[p / 16][p % 16];
    for (U8x16& c : closes_) c = U8x16{};
    pending_ = 0;
  }

  const PairCtx* first_;
  const PairCtx* last_;
  const PairCtx* pc_;
  U8x16 budget_[kVecs] = {};
  U8x16 closes_[kVecs] = {};
  std::array<std::uint64_t, N> closed_{};
  int pending_ = 0;
  std::uint64_t sum_ = 0;
};

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
