// The backend seam: bulk keystream and block work behind a swappable engine.
//
// The source paper's FPGA advances a whole hiding vector per clock. The
// software analogue is *lane* parallelism: a serial keystream is cut into
// lanes seeded through a precomputed stride power of the GF(2) transition
// matrix, and the lanes step in lockstep. Cover lanes interleave: lane j of
// cover_blocks starts j + 1 degree-leaps in and steps 32 leaps at a time,
// so each step yields 32 *consecutive* blocks. The AVX2 engine keeps the
// 32 states byte-planar (one ymm per state byte), steps them by vpshufb
// nibble lookups and interleaves the planes straight into serialized
// blocks. Geffe lanes are contiguous ranges of 64-bit units, eight per
// 256-bit register.
//
// Everything a backend executes is expressed over tables built outside it —
// LinearMapTables and CoverTables built by `Lfsr` from the normative
// bit-serial register, and the per-key KeyTables built by core/walk.hpp
// from block.hpp's scramble_range — so every engine is bit-identical *by
// construction*: there is no second implementation of the cipher math to
// drift, only a different evaluation order of the same linear maps. The
// reference-model sweep and the KAT fixtures run under both forced engines
// in CI to pin this.
//
// Call sites routed through the seam: GeffeKeystream::next_bytes /
// xor_bytes (the YAEA-S datapath, which the sharded and batch forms feed
// per worker), Lfsr::step_bits' whole-degree runs (via next_block's leap
// tables), and every block kernel of the MHHEA/HHEA chunk pipeline
// (core/shard.hpp):
//   * cover_blocks — the serialized covers (Lfsr::write_blocks, behind
//     LfsrCover::next_covers and the widening next_blocks);
//   * plan_blocks — a chunk's transfer function (message bits taken for
//     every entry frame phase);
//   * schedule_blocks — every block's range, capped width, data pattern
//     and message bit offset for a walk whose entry bit is known;
//   * embed_blocks / extract_blocks — the bits of a scheduled batch, where
//     nothing is carried from block to block.
// The AVX2 engine runs covers 32 blocks per step, plan and schedule sixteen
// blocks per step at the paper's N=16 and the apply kernels eight blocks
// per instruction; the scalar kernels (kernels.hpp) are the reference and
// serve every other width and every ragged tail. The per-block formula is
// the one of core/block.hpp, which the scalar kernels call directly.
//
// Engine selection happens once, at first use: cpuid picks the widest
// supported engine, and the MHHEA_BACKEND environment variable
// ({auto, scalar, avx2}) or an explicit set_active() call forces one —
// forcing an engine the host cannot run falls back to scalar rather than
// faulting. Future engines (NEON, GPU, a batch server offload) plug in as
// new Backend implementations behind the same kernels.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/backend/tables.hpp"

namespace mhhea::backend {

/// Hard upper bound on Geffe lanes any engine may request (AVX2 = 8 x
/// 32-bit states per register; a future AVX-512 engine would still fit).
inline constexpr std::size_t kMaxLanes = 8;

/// Blocks per cover_blocks step: the interleaved lanes, one per byte of a
/// 256-bit register.
inline constexpr std::size_t kCoverLanes = 32;

/// 64-bit keystream units each lane produces per geffe_units() pass
/// (128 units = 1 KiB of keystream per lane, 8 KiB per full AVX2 pass).
inline constexpr std::size_t kGeffeLaneUnits = 128;

/// Blocks per apply batch (see ApplyBatch).
inline constexpr std::size_t kApplyBatch = 256;

/// One scheduled batch of hiding-vector blocks for the apply kernels, laid
/// out per field so a vector engine loads eight blocks' worth at once. Block
/// i carries width[i] message bits that start at bit offset[i] of the
/// batch's message span (LSB-first from its byte 0), XORed with pattern[i]
/// and placed at bits [kn1[i], kn1[i] + width[i]) of the block. Widths are
/// at most 32 (N/2), as are the patterns' significant bits.
struct ApplyBatch {
  std::size_t n = 0;
  std::array<std::uint8_t, kApplyBatch> kn1{};
  std::array<std::uint8_t, kApplyBatch> width{};
  std::array<std::uint32_t, kApplyBatch> pattern{};
  std::array<std::uint32_t, kApplyBatch> offset{};
};

/// One range-table entry: the scrambled range's low end and its width.
struct RangeEntry {
  std::uint8_t kn1 = 0;
  std::uint8_t width = 0;
};

/// Per-pair constants of the block kernels: the pair's canonical K1 (where
/// the scramble field starts in V's high half), its data-scramble pattern,
/// and its range table — the range for every value of the scramble field
/// (the first N/2 entries are used).
struct PairCtx {
  int lo = 0;
  std::uint64_t pattern = 0;
  std::array<RangeEntry, 32> range{};
};

/// The pair tables laid out per vector lane at N=16, so the AVX2 engine
/// looks up sixteen blocks' ranges in registers. Entry e holds pair e mod L
/// (L <= 16 pairs), so the sixteen blocks of a run whose first block has
/// pair phase p read entries p..p+15. Per entry: the multiplier that
/// rotates a block's high byte right by the pair's K1 (the field is bits
/// 8..10 of high byte * mul, mod 2^16), the pattern, and the range widths
/// and low ends nibble-packed by field value (nibble f is range[f]). The
/// nibble rows are split by entry parity — entry e at [e % 2][e / 2] — so
/// the rows of a run's even and of its odd blocks each lie together.
struct LaneTable {
  std::array<std::uint16_t, 32> mul{};
  std::array<std::uint32_t, 32> pattern{};
  std::array<std::array<std::uint32_t, 16>, 2> width{};
  std::array<std::array<std::uint32_t, 16>, 2> kn1{};
};

/// Everything the block kernels know about one key, built once per key
/// (core/walk.hpp's pair_tables): block i uses pairs[i mod L]; `lanes` is
/// filled at N=16.
struct KeyTables {
  int vector_bits = 16;
  bool framed = false;
  std::vector<PairCtx> pairs;
  LaneTable lanes;
};

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

/// A block chunk's transfer function, the plan kernel's output: bits[p] is
/// the message bits the chunk's blocks take when the chunk is entered at
/// frame phase p (message bit mod N) and the message does not end inside
/// it. Under the continuous policy there is no phase and bits[0] is the
/// plain width sum.
struct Transfer {
  std::array<std::uint64_t, 64> bits{};
};

/// What cover_blocks reads of one register (built by Lfsr::cover_tables):
/// its degree-leap map and the lane stride S = M^(kCoverLanes * degree) as
/// nibble tables. With planes = state_bytes(degree), row n * planes + q
/// holds byte q of S(v << 4n) at entry v: 128 B at degree 16, 512 B at
/// degree 32.
struct CoverTables {
  std::shared_ptr<const LinearMapTables> leap;  // M^degree
  int degree = 0;
  std::vector<std::array<std::uint8_t, 16>> stride;
};

/// The three Geffe component registers' maps, borrowed from the owning
/// GeffeKeystream (which keeps them alive): per register, the degree-step
/// leap map D (one next_block) used to slide the 64-bit output window, and
/// the 64-step update map U = M^64 that advances a lane's register past one
/// emitted unit. Degrees are <= 24, so three-byte table application covers
/// the states.
struct GeffeKernel {
  const LinearMapTables* deg[3];  // D = M^degree   (A, B, C order)
  const LinearMapTables* upd[3];  // U = M^64
  int degree[3];
};

/// A bulk keystream engine. Implementations are stateless singletons; all
/// cipher state lives in the caller, so one engine serves every thread.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Geffe lanes this engine steps per geffe_units pass. Callers seed up
  /// to this many; 1 means the seam adds no lane machinery.
  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;

  /// Covers: write the `n` successive degree-leap states of the register at
  /// `state` to `out`, little-endian, state_bytes(t.degree) bytes each, and
  /// leave `state` at the last one.
  virtual void cover_blocks(const CoverTables& t, std::uint32_t& state, std::uint8_t* out,
                            std::size_t n) const = 0;

  /// Produce `per_lane` 64-bit Geffe keystream units for each of `n_lanes`
  /// lanes, XOR them with `in` (or use them raw when `in` is null), and
  /// store little-endian at out + (l * per_lane + t) * 8. a/b/c hold the
  /// three component-register states per lane and are advanced 64 *
  /// per_lane steps each on return. `in`, when given, covers the same
  /// extent as `out` and may alias it exactly (in == out).
  virtual void geffe_units(const GeffeKernel& k, std::uint32_t* a,
                           std::uint32_t* b, std::uint32_t* c,
                           std::size_t n_lanes, const std::uint8_t* in,
                           std::uint8_t* out, std::size_t per_lane) const = 0;

  /// Plan: extend `t` by `n` blocks (vector_bits / 8 little-endian bytes
  /// each, block index `first` first). For every entry phase p, t.bits[p]
  /// grows by the bits the blocks take when entered at the phase reached
  /// from p so far, (p + t.bits[p]) mod N; under the continuous policy
  /// t.bits[0] grows by their width sum. A zeroed Transfer starts a chunk.
  virtual void plan_blocks(const KeyTables& k, std::uint64_t first, const std::uint8_t* blocks,
                           std::size_t n, Transfer& t) const = 0;

  /// Schedule: for up to `n` blocks from `blocks` (block at.block first),
  /// stopping once `end` message bits are placed, write each block's range
  /// low end, capped width, pattern and message bit offset into `b` and
  /// advance `at`. Offsets count from bit 8 * (at.bit / 8), so the batch's
  /// message span starts at byte at.bit / 8. n <= kApplyBatch. Returns the
  /// blocks scheduled (b.n).
  virtual std::size_t schedule_blocks(const KeyTables& k, Cursor& at, std::uint64_t end,
                                      const std::uint8_t* blocks, std::size_t n,
                                      ApplyBatch& b) const = 0;

  /// Embed a batch: block i of `out` (vector_bits / 8 little-endian bytes
  /// per block) becomes cover block i of `covers` (same layout; it may be
  /// `out` itself) with its message bits embedded. `msg` holds every bit
  /// the batch reads; nothing past it is read.
  virtual void embed_blocks(int vector_bits, const ApplyBatch& b, const std::uint8_t* covers,
                            std::span<const std::uint8_t> msg, std::uint8_t* out) const = 0;

  /// Extract a batch: block i of `blocks` yields its width[i] message bits,
  /// LSB-aligned in bits[i] (offset[] is not read).
  virtual void extract_blocks(int vector_bits, const ApplyBatch& b, const std::uint8_t* blocks,
                              std::uint32_t* bits) const = 0;
};

/// The engine every routed call site uses. Resolved once on first call:
/// MHHEA_BACKEND if set (unknown values fall back to auto with a one-line
/// stderr note), else the widest engine cpuid reports the host can run.
[[nodiscard]] const Backend& active();

/// Engine lookup by name ("scalar", "avx2"). Returns nullptr when the
/// engine is not compiled in or the host cpu cannot run it — a non-null
/// result is always safe to use.
[[nodiscard]] const Backend* by_name(std::string_view name) noexcept;

/// Force the active engine ("auto", "scalar", "avx2") for this process —
/// how the bench --backend flag and the parity tests switch engines
/// in-process. Returns false (and leaves the engine unchanged) when the
/// name is unknown or the host cannot run the requested engine.
bool set_active(std::string_view name) noexcept;

/// The selection rule, factored pure for unit tests: what engine name an
/// MHHEA_BACKEND value (may be null) resolves to on a host with/without
/// AVX2. Returns "scalar" or "avx2".
[[nodiscard]] std::string_view resolve_backend_choice(const char* env,
                                                      bool have_avx2) noexcept;

/// Runtime cpuid: does this host execute AVX2? (False on non-x86 builds.)
[[nodiscard]] bool cpu_has_avx2() noexcept;

/// True when the avx2 TU was compiled with AVX2 support (the build found
/// -mavx2); independent of whether the host cpu can run it.
[[nodiscard]] bool avx2_compiled() noexcept;

namespace detail {
/// The singletons. avx2_backend_compiled() is null when the TU was built
/// without -mavx2; dispatch layers the cpuid gate on top.
[[nodiscard]] const Backend& scalar_backend() noexcept;
[[nodiscard]] const Backend* avx2_backend_compiled() noexcept;
}  // namespace detail

}  // namespace mhhea::backend
