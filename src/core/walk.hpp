// The frame-walk kernel: the one loop every whole-message pass of both
// hiding ciphers runs — one-shot encrypt and decrypt, the ciphertext sizer,
// the shard planners' width walks and continuous-policy capacity scans, and
// the shard workers. MHHEA and HHEA differ only in the pair tables a walk
// is given (Scheme): HHEA's tables map every field value to a fixed range.
//
// The software analogue of the paper's improved datapath: everything that
// depends only on the key is precomputed per pair, so the per-block work is
// one table lookup and one masked word operation, with no key- or
// data-dependent branches in the loop. make_pair_ctx tabulates
// scramble_range (block.hpp, the normative reference) for every value of
// the loc_bits-wide scramble field — 8 entries per pair at the paper's
// N=16, 32 at N=64 — so a block step is:
//
//   field -> {kn1, width}; w = min(width, frame budget); embed or extract w
//   bits at kn1 with the pair's pattern; a spent frame reopens by select.
//
// Message bits stream through BitSource/BitSink as one contiguous bit run
// (the frame budget only caps per-block widths), so the framed policy needs
// no nested per-frame loop: continuous is the framed walk with an unbounded
// frame. The walk is templated on the vector width N and dispatched once
// per call (with_width), so block loads and stores are 2/4/8-byte moves.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/block.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/util/bits.hpp"

namespace mhhea::core {

class CoverSource;

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

/// The unsigned integer of B bytes (B = 1, 2, 4 or 8).
template <int B>
using UintOf = std::conditional_t<
    B == 1, std::uint8_t,
    std::conditional_t<B == 2, std::uint16_t,
                       std::conditional_t<B == 4, std::uint32_t, std::uint64_t>>>;

/// The table lookup for block `v`: read the loc_bits-wide field at K1 of
/// V's high half (wrapping within it: a rotate of the N/2-bit half) and
/// index the pair's range table.
template <int N>
[[nodiscard]] inline RangeEntry range_of(const PairCtx& pc, std::uint64_t v) noexcept {
  const auto high = static_cast<UintOf<N / 16>>(v >> (N / 2));
  return pc.range[static_cast<std::size_t>(std::rotr(high, pc.lo) & (N / 2 - 1))];
}

/// B-byte little-endian load and store as one move (the byte loops of
/// util::load_le/store_le are not reliably merged into one in the hot
/// loop); big-endian hosts keep the byte loops.
template <int B>
[[nodiscard]] inline std::uint64_t load_bytes(const std::uint8_t* p) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    UintOf<B> w;
    std::memcpy(&w, p, B);
    return w;
  } else {
    return util::load_le(p, B);
  }
}
template <int B>
inline void store_bytes(std::uint8_t* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    const auto w = static_cast<UintOf<B>>(v);
    std::memcpy(p, &w, B);
  } else {
    util::store_le(p, v, B);
  }
}

/// Serialized block access: block_bytes() little-endian bytes per block.
template <int N>
[[nodiscard]] inline std::uint64_t load_block(const std::uint8_t* blocks, std::size_t i) noexcept {
  return load_bytes<N / 8>(blocks + i * (N / 8));
}
/// Cover vectors as a CoverSource hands them out.
template <int N>
[[nodiscard]] inline std::uint64_t load_block(const std::uint64_t* words, std::size_t i) noexcept {
  return words[i];
}
template <int N>
inline void store_block(std::uint8_t* blocks, std::size_t i, std::uint64_t v) noexcept {
  store_bytes<N / 8>(blocks + i * (N / 8), v);
}

/// Run `f.template operator()<N>()` for the runtime vector width — the one
/// dispatch per call that lets every walk inside run width-specialized.
template <class F>
decltype(auto) with_width(int vector_bits, F&& f) {
  switch (vector_bits) {
    case 16:
      return std::forward<F>(f).template operator()<16>();
    case 32:
      return std::forward<F>(f).template operator()<32>();
    default:
      return std::forward<F>(f).template operator()<64>();
  }
}

/// A frame budget / bit count no walk reaches: the continuous policy's
/// frame size, and the message length of an uncapped capacity scan (whose
/// width sum is then kUnbounded - remaining).
inline constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();

/// Message bits per frame: vector_bits under the framed policy, unbounded
/// under the continuous one (only the message end caps a block).
[[nodiscard]] constexpr std::uint64_t frame_bits(const BlockParams& params) noexcept {
  return params.policy == FramePolicy::framed ? static_cast<std::uint64_t>(params.vector_bits)
                                              : kUnbounded;
}

/// Fill `buf` with the next cover vectors of `cover` that a walk with
/// `remaining_bits` message bits left is certain to consume (each block
/// carries at most N/2 bits), at most buf.size(), and return how many it
/// produced. Never fetching more keeps finite covers drained exactly as
/// block-at-a-time consumption would, and makes a chunk-granular
/// output-space check exact. Throws std::runtime_error ("<who>: cover
/// source exhausted") when it produced none. Defined in mhhea.cpp.
std::size_t next_covers(CoverSource& cover, const BlockParams& params,
                        std::uint64_t remaining_bits, std::span<std::uint64_t> buf,
                        const char* who);

/// The one-shot encrypt walk: covers fetched through `buf`, the whole of
/// `msg` embedded into consecutive blocks of `out`. Returns the ciphertext
/// bytes; throws std::length_error when `out` cannot hold them and
/// std::runtime_error when `cover` runs dry (messages prefixed with `who`).
/// Defined in mhhea.cpp.
std::size_t embed_message(std::span<const PairCtx> pairs, const BlockParams& params,
                          CoverSource& cover, std::span<std::uint64_t> buf,
                          std::span<const std::uint8_t> msg, std::span<std::uint8_t> out,
                          const char* who);

/// The one-shot decrypt walk: the `message_bits`-bit message of `cipher`
/// into `out` (zero-padded to whole bytes). Returns ceil(message_bits / 8);
/// throws std::invalid_argument on misaligned, truncated or trailing
/// ciphertext and std::length_error when `out` is too small. Defined in
/// mhhea.cpp.
std::size_t extract_message(std::span<const PairCtx> pairs, const BlockParams& params,
                            std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                            std::span<std::uint8_t> out, const char* who);

/// Message bits in, LSB-first from any bit offset. peek() returns at least
/// 32 upcoming bits (fewer only at the message end, where the walk's bit
/// budget never asks for more than remain) as one unaligned 8-byte load:
/// the only loop-carried state is the bit position.
class BitSource {
 public:
  BitSource(std::span<const std::uint8_t> bytes, std::uint64_t bit_begin) noexcept
      : base_(bytes.data()),
        size_(bytes.size()),
        pos_(bit_begin),
        fast_end_(bytes.size() >= 8 ? (bytes.size() - 7) * 8 : 0) {}
  [[nodiscard]] std::uint64_t peek() const noexcept {
    const std::size_t byte = static_cast<std::size_t>(pos_ / 8);
    if (pos_ < fast_end_) return load_bytes<8>(base_ + byte) >> (pos_ % 8);
    std::uint64_t v = 0;  // the last 8 bytes: gather what is left
    for (std::size_t i = byte; i < size_; ++i) v |= std::uint64_t{base_[i]} << (8 * (i - byte));
    return v >> (pos_ % 8);
  }
  void skip(int w) noexcept { pos_ += static_cast<std::uint64_t>(w); }

 private:
  const std::uint8_t* base_;
  std::size_t size_;
  std::uint64_t pos_;
  std::uint64_t fast_end_;  // bit positions below this have 8 readable bytes
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
      store_bytes<8>(p_, acc_);
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

/// Where a walk stands; carried across calls so a walk resumes exactly at a
/// chunk or shard edge.
struct FrameWalk {
  std::size_t pair = 0;         // key pair of the next block (block index mod L)
  std::uint64_t remaining = 0;  // message bits still to place
  std::uint64_t budget = 0;     // bits left in the open frame; 0: none open yet
};

/// The walk's three passes. Each sees block i of the call with its vector,
/// scrambled range and capped width. Passes carry their message cursor by
/// value: walk() works on a local copy (so the cursor lives in registers,
/// not behind a pointer the block stores might alias) and writes it back.
struct Measure {
  void operator()(std::size_t, std::uint64_t, int, std::uint64_t, int) const noexcept {}
};

/// Embed message bits and store the ciphertext block into slot i of `out`
/// (which may be the block source itself: in-place covers).
template <int N>
struct Embed {
  std::uint8_t* out;
  BitSource msg;
  void operator()(std::size_t i, std::uint64_t v, int kn1, std::uint64_t pattern,
                  int w) noexcept {
    store_block<N>(out, i, embed_bits_with_pattern(v, kn1, pattern, msg.peek(), w));
    msg.skip(w);
  }
};

/// Extract each block's message bits into `sink`.
struct Extract {
  BitSink sink;
  void operator()(std::size_t, std::uint64_t v, int kn1, std::uint64_t pattern,
                  int w) noexcept {
    sink.put(extract_bits_with_pattern(v, kn1, pattern, w), w);
  }
};

/// The kernel: walk up to `n_blocks` blocks from `blocks` (serialized bytes
/// or cover words), stopping early once st.remaining reaches 0. Returns the
/// blocks walked. `frame` is frame_bits(params) (or kUnbounded for an
/// uncapped capacity scan).
///
/// The frame budget is the loop-carried state, so its update is kept to a
/// compare and two selects: a block that spends the open frame reopens the
/// next one at once (no nested per-frame loop, no data-dependent branch).
/// While two or more frames remain the next frame is known to be full, so
/// the remaining count stays off the budget's dependency chain; only the
/// last two frames pay for sizing the short final frame.
template <int N, class Block, class Pass>
std::size_t walk(std::span<const PairCtx> pairs, std::uint64_t frame, FrameWalk& st,
                 const Block* blocks, std::size_t n_blocks, Pass&& pass_state) {
  std::remove_cvref_t<Pass> pass = pass_state;
  const PairCtx* const first = pairs.data();
  const PairCtx* const last = first + pairs.size() - 1;
  const PairCtx* pair = first + st.pair;
  std::uint64_t remaining = st.remaining;
  std::uint64_t budget = st.budget != 0 ? st.budget : std::min(remaining, frame);
  std::size_t i = 0;
  const auto step = [&]<bool kTail>() {
    const std::uint64_t v = load_block<N>(blocks, i);
    const PairCtx& pc = *pair;
    pair = pair == last ? first : pair + 1;
    const RangeEntry r = range_of<N>(pc, v);
    const bool spent = r.width >= budget;
    const std::uint64_t w = spent ? budget : r.width;
    pass(i, v, r.kn1, pc.pattern, static_cast<int>(w));
    remaining -= w;
    const std::uint64_t next = kTail ? std::min(remaining, frame) : frame;
    budget = spent ? next : budget - r.width;
  };
  const std::uint64_t two_frames = frame > kUnbounded / 2 ? kUnbounded : 2 * frame;
  for (; i < n_blocks && remaining >= two_frames; ++i) step.template operator()<false>();
  for (; i < n_blocks && remaining > 0; ++i) step.template operator()<true>();
  st = {static_cast<std::size_t>(pair - first), remaining, budget};
  pass_state = pass;
  return i;
}

}  // namespace detail
}  // namespace mhhea::core
