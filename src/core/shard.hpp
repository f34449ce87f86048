// Intra-message parallelism for the MHHEA core — the software analogue of
// the paper's spatial parallelism (many hiding-vector operations in flight
// per clock): a message is planned as independent block-range shards that
// encrypt/decrypt concurrently and splice into bit-identical output.
//
// Why shards can be independent at all: every ciphertext block occupies a
// fixed block_bytes slot, block capacities depend only on the cover vector
// and the cyclic key pair (never on message data), and the cover stream is
// random-access (CoverSource::skip_blocks over the O(log n) Lfsr::jump). So
// once the message bit offset and cover of a shard's first block are known,
// the shard works entirely within its own slice of the output.
//
// Finding those offsets is the plan phase. Every walk below — plan, scan
// and worker — is the table-driven frame-walk kernel of walk.hpp:
//   * framed policy, encrypt — the frame budget feeds back into per-block
//     widths, so one serial walk generates the cover stream once, writes
//     each cover vector into its ciphertext slot of the caller's buffer and
//     pins the block index at each shard's first frame. Workers then embed
//     in place over those slots: no cover clone, no jump, no second cover
//     generation.
//   * framed policy, decrypt — the same serial width walk, over the
//     ciphertext blocks' unmodified high halves (it doubles as the strict
//     length validation); frame starts are byte-aligned, so workers extract
//     straight into their slices of the caller's output.
//   * continuous policy — capacities are scanned in parallel chunks (each
//     chunk worker jumps a cover clone to its block range and sums widths);
//     a prefix walk over chunk capacities yields shard boundaries, and each
//     worker clones and jumps its own cover. Decryption runs the same shape
//     of pre-scan over the ciphertext blocks and snaps shard boundaries to
//     byte-aligned bit offsets, so every worker extracts straight into its
//     disjoint slice of the caller's output span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/core/walk.hpp"
#include "src/exec/executor.hpp"

namespace mhhea::core {

namespace detail {

/// Cover vectors / ciphertext blocks a shard worker pulls per refill
/// (mirrors the sequential cores' bounded look-ahead, which is likewise
/// sized so LFSR covers engage the backend's multi-lane next_blocks path).
inline constexpr std::size_t kShardFetchChunk = 2048;

/// The shared precondition check of every sharded entry point (MHHEA and
/// HHEA, both forms): valid params, key-vs-params fit, n_shards >= 1.
inline void validate_sharded(const Key& key, int n_shards, const BlockParams& params,
                             const char* who) {
  params.validate();
  key.require_fits(params, who);
  if (n_shards < 1) {
    throw std::invalid_argument(std::string(who) + ": n_shards must be >= 1");
  }
}

/// A derived per-worker cover positioned at `block_begin` — the
/// clone + reset + jump sequence every sharded path starts from.
inline std::unique_ptr<CoverSource> cover_at(const CoverSource& proto,
                                             const BlockParams& params,
                                             std::uint64_t block_begin) {
  auto cover = proto.clone();
  cover->reset();
  cover->skip_blocks(params.vector_bits, block_begin);
  return cover;
}

/// One shard of a message: a contiguous block range plus the message bits it
/// carries. `max_blocks` is exact for every shard except the trailing
/// continuous-policy one, where it is an upper bound (the final block lands
/// somewhere inside the last capacity chunk).
struct ShardRange {
  std::uint64_t block_begin = 0;
  std::uint64_t bit_begin = 0;
  std::uint64_t n_bits = 0;
  std::uint64_t max_blocks = 0;
};

/// The framed policy's shard bit ranges: an even split of whole frames
/// (exactly vector_bits message bits each, short final frame aside), so
/// every shard starts on a frame start — byte-aligned, with the frame
/// budget freshly open. Sets bit_begin and n_bits; the caller's width walk
/// pins block_begin and max_blocks (exact for every framed shard). Shared by
/// the MHHEA and HHEA planners.
[[nodiscard]] std::vector<ShardRange> split_frames(const BlockParams& params,
                                                   std::uint64_t total_bits,
                                                   std::size_t n_shards);

/// One shard's embed over a cover clone jumped to its first block — the
/// continuous-policy MHHEA worker and every HHEA worker: message bits
/// [bit_begin, bit_begin + n_bits) into blocks serialized at out +
/// block_begin * block_bytes. Returns the blocks emitted (max_blocks, or
/// fewer for a trailing shard whose max_blocks is an upper bound); throws
/// std::length_error past `capacity_blocks` slots.
std::uint64_t encrypt_shard(const ShardRange& r, std::span<const std::uint8_t> msg,
                            std::span<const PairCtx> pairs, const CoverSource& proto,
                            const BlockParams& params, std::uint8_t* out,
                            std::uint64_t capacity_blocks);

/// The sharded decrypt driver over prebuilt pair tables — MHHEA's
/// make_pair_ctx or HHEA's fixed-range tables: extract the `msg_bytes`-byte
/// message of `cipher` into the first msg_bytes bytes of `out` (the caller
/// checks that `out` is long enough). Strict like the sequential decrypt:
/// std::invalid_argument on misaligned, truncated or trailing ciphertext.
/// Every shard starts on a byte-aligned bit offset (see
/// decrypt_sharded_into), so workers extract straight into their slices.
void run_decrypt_sharded(std::span<const std::uint8_t> cipher, std::span<const PairCtx> pairs,
                         std::size_t msg_bytes, int n_shards, exec::Executor* ex,
                         std::span<std::uint8_t> out, const BlockParams& params);

}  // namespace detail

/// Sharded one-shot encryption, bit-identical to Encryptor::encrypt_into
/// for every shard count (core::encrypt is its single-shard LFSR case).
/// `cover` is a prototype the walks derive their own covers from via
/// clone() + reset() (+ skip_blocks for continuous-policy workers), so the
/// source must be clonable and resettable (LfsrCover and BufferCover are).
/// `ex` may be null — shards then run inline on the calling thread, same
/// bytes, no parallelism. `n_shards` >= 1; the planner may use fewer shards
/// than requested on short messages.
[[nodiscard]] std::vector<std::uint8_t> encrypt_sharded(
    std::span<const std::uint8_t> msg, const Key& key, const CoverSource& cover,
    int n_shards, exec::Executor* ex, BlockParams params = BlockParams::paper());

/// encrypt_sharded into caller storage: every worker writes its disjoint
/// block-range slice of `out` directly — no per-worker buffers, no splice,
/// no allocation for the ciphertext itself (the plan scratch remains).
/// Nothing past the returned ciphertext end is written. Returns the
/// ciphertext bytes written; throws std::length_error when `out` cannot
/// hold them (partial contents are then unspecified).
std::size_t encrypt_sharded_into(std::span<const std::uint8_t> msg, const Key& key,
                                 const CoverSource& cover, int n_shards,
                                 exec::Executor* ex, std::span<std::uint8_t> out,
                                 BlockParams params = BlockParams::paper());

/// Sharded decryption, bit-identical to core::decrypt including its strict
/// contract: throws std::invalid_argument on misaligned buffers, truncated
/// ciphertext, and trailing blocks past the message end.
[[nodiscard]] std::vector<std::uint8_t> decrypt_sharded(
    std::span<const std::uint8_t> cipher, const Key& key, std::size_t msg_bytes,
    int n_shards, exec::Executor* ex, BlockParams params = BlockParams::paper());

/// decrypt_sharded into caller storage (same strict contract; additionally
/// std::length_error when `out` is shorter than `msg_bytes`). Framed-policy
/// shards start on frame boundaries — whole multiples of vector_bits bits,
/// hence byte-aligned — so each worker writes its slice of `out` directly.
/// Continuous-policy decryption first runs a parallel capacity pre-scan over
/// the ciphertext blocks and snaps shard boundaries to byte-aligned bit
/// offsets, so its workers likewise write disjoint slices of `out` with no
/// per-worker buffers and no splice. Returns `msg_bytes`.
std::size_t decrypt_sharded_into(std::span<const std::uint8_t> cipher, const Key& key,
                                 std::size_t msg_bytes, int n_shards,
                                 exec::Executor* ex, std::span<std::uint8_t> out,
                                 BlockParams params = BlockParams::paper());

}  // namespace mhhea::core
