// Intra-message parallelism for both hiding ciphers (MHHEA and, with
// Scheme::hhea, HHEA) — the software analogue of the paper's spatial
// parallelism (many hiding-vector operations in flight per clock): a
// message is planned as independent block-range shards that encrypt/decrypt
// concurrently and splice into bit-identical output.
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
#include <span>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/core/walk.hpp"
#include "src/exec/executor.hpp"

namespace mhhea::core {

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
    int n_shards, exec::Executor* ex, BlockParams params = BlockParams::paper(),
    Scheme scheme = Scheme::mhhea);

/// encrypt_sharded into caller storage: every worker writes its disjoint
/// block-range slice of `out` directly — no per-worker buffers, no splice,
/// no allocation for the ciphertext itself (the plan scratch remains).
/// Nothing past the returned ciphertext end is written. Returns the
/// ciphertext bytes written; throws std::length_error when `out` cannot
/// hold them (partial contents are then unspecified).
std::size_t encrypt_sharded_into(std::span<const std::uint8_t> msg, const Key& key,
                                 const CoverSource& cover, int n_shards,
                                 exec::Executor* ex, std::span<std::uint8_t> out,
                                 BlockParams params = BlockParams::paper(),
                                 Scheme scheme = Scheme::mhhea);

/// Sharded decryption, bit-identical to core::decrypt including its strict
/// contract: throws std::invalid_argument on misaligned buffers, truncated
/// ciphertext, and trailing blocks past the message end.
[[nodiscard]] std::vector<std::uint8_t> decrypt_sharded(
    std::span<const std::uint8_t> cipher, const Key& key, std::size_t msg_bytes,
    int n_shards, exec::Executor* ex, BlockParams params = BlockParams::paper(),
    Scheme scheme = Scheme::mhhea);

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
                                 BlockParams params = BlockParams::paper(),
                                 Scheme scheme = Scheme::mhhea);

}  // namespace mhhea::core
