// The one pipeline every whole-message pass of both hiding ciphers runs
// (MHHEA and, with Scheme::hhea, HHEA): sequential and sharded encrypt and
// decrypt, and the ciphertext sizers. It is the software form of the
// paper's improved datapath, where the locating logic does not wait on the
// data path and bits are replaced in parallel.
//
// Why it can run in parallel at all: every ciphertext block occupies a
// fixed block_bytes slot, a block's range and width depend only on its key
// pair, its cover vector and the frame budget, and the frame budget depends
// only on the message bit offset (frames are vector_bits wide from the
// message start). None of it depends on message data. A message is cut
// into block chunks, and each chunk goes through up to three steps:
//   1. plan (parallel) — the chunk computes its widths on its own: on
//      encrypt from an LfsrCover copy jumped to the chunk's first block, on
//      decrypt from the ciphertext blocks' unmodified high halves. From them
//      the backend's plan kernel builds a transfer function: for every
//      entry frame phase, the message bits the chunk takes. Under the
//      continuous policy that is a width sum.
//   2. compose (serial) — one step per chunk turns the previous chunk's
//      exit into this chunk's entry bit, and finds the chunk the message
//      ends in.
//   3. apply (parallel) — the chunk walks from its entry bit: the backend's
//      schedule kernel fixes every block's range, width and bit offset, and
//      its embed/extract kernels move the bits.
// Each step is one round over the chunks: plan fans out on the executor,
// compose runs on the calling thread, apply fans out again. Chunks outnumber
// shards and the calling thread claims them alongside the helpers, so a
// helper that wakes late finds the work done. With one shard (or no
// executor) the whole message is one chunk: the sequential walk, with no
// plan. Plan scratch is one transfer table per chunk.
//
// Encrypt generates each cover once. The ciphertext is sure to hold every
// whole key cycle whose widest ranges cannot take the whole message
// (certain_blocks), so the plan of a chunk that ends below that count
// writes its covers straight into the output, and its apply embeds them in
// place. The other chunks' applies regenerate their covers
// from a cover copy, so nothing past the ciphertext is ever written.
//
// The sealed container's MAC rides the same rounds, while core stays
// MAC-agnostic: an encrypt takes an in-order ByteSink that the apply round
// feeds each run of finished chunks, and a decrypt takes an OutputGate that
// the calling thread runs while the plan round is in flight — the sealed
// open verifies its MAC and replay window there, and nothing is composed or
// extracted until the gate has returned the destination.
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
#include "src/util/function_ref.hpp"

namespace mhhea::core {

/// An in-order consumer of the ciphertext bytes an encrypt writes (the
/// sealed container's MAC). It sees every byte once and in order: the
/// single-chunk walk hands it the whole ciphertext when it finishes, and a
/// sharded apply hands it each run of finished chunks from the thread that
/// completed the run's first chunk — never from two threads at once. Empty:
/// nothing consumes.
using ByteSink = util::FunctionRef<void(std::span<const std::uint8_t>)>;

/// Where a decrypt writes, asked for once on the calling thread before any
/// message bit is composed or extracted — while the plan round runs, when
/// the pipeline has one. It may throw to reject the call (the sealed open
/// runs its MAC and replay checks here); the output is then untouched and
/// the plan round is joined first.
using OutputGate = util::FunctionRef<std::span<std::uint8_t>()>;

/// Sharded one-shot encryption, bit-identical to Encryptor::encrypt_into
/// for every shard count (core::encrypt is its single-shard case). The
/// cover is used from its seed (a copy is rewound; `cover` itself is not
/// touched). `ex` may be null — chunks then run inline on the calling
/// thread, same bytes, no parallelism. `n_shards` >= 1.
[[nodiscard]] std::vector<std::uint8_t> encrypt_sharded(
    std::span<const std::uint8_t> msg, const Key& key, const LfsrCover& cover, int n_shards,
    exec::Executor* ex, BlockParams params = BlockParams::paper(),
    Scheme scheme = Scheme::mhhea);

/// encrypt_sharded into caller storage: every chunk writes its disjoint
/// block range of `out` directly. Nothing past the returned ciphertext end
/// is written. Returns the ciphertext bytes written; throws
/// std::length_error when `out` cannot hold them (partial contents are then
/// unspecified).
std::size_t encrypt_sharded_into(std::span<const std::uint8_t> msg, const Key& key,
                                 const LfsrCover& cover, int n_shards, exec::Executor* ex,
                                 std::span<std::uint8_t> out,
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
/// std::length_error when `out` is shorter than `msg_bytes`). Each chunk
/// writes its own whole bytes of `out`. Returns `msg_bytes`.
std::size_t decrypt_sharded_into(std::span<const std::uint8_t> cipher, const Key& key,
                                 std::size_t msg_bytes, int n_shards, exec::Executor* ex,
                                 std::span<std::uint8_t> out,
                                 BlockParams params = BlockParams::paper(),
                                 Scheme scheme = Scheme::mhhea);

namespace detail {

/// The pipeline's encrypt: the first `message_bits` bits of `msg` under
/// `k`, covers from `cover`'s seed, into `out`, each finished stretch of
/// ciphertext handed to `absorb`. Returns the ciphertext bytes; throws
/// std::length_error ("<who>: output buffer too small"). `chunk_blocks` > 0
/// forces the chunk size (tests cut chunks mid-frame with it); 0 picks it
/// from `n_shards`.
std::uint64_t encrypt_chunked(const KeyTables& k, const BlockParams& params,
                              const LfsrCover& cover, std::span<const std::uint8_t> msg,
                              std::uint64_t message_bits, std::span<std::uint8_t> out,
                              int n_shards, exec::Executor* ex, std::uint64_t chunk_blocks,
                              const char* who, ByteSink absorb = {});

/// The exact ciphertext bytes encrypt_chunked writes: the single-shard
/// pipeline with the embed left out (cover generation plus the schedule
/// step — cheap enough to size a buffer, not free).
std::uint64_t cipher_bytes(const KeyTables& k, const BlockParams& params,
                           const LfsrCover& cover, std::uint64_t message_bits);

/// Blocks certain to be in the ciphertext of a `message_bits`-bit message
/// (> 0) under `k`: the whole key cycles whose widest ranges sum to fewer
/// bits than the message. A chunk that ends at or below it is planned with
/// its covers written into the output.
std::uint64_t certain_blocks(const KeyTables& k, std::uint64_t message_bits);

/// The pipeline's decrypt: the `message_bits`-bit message of `cipher` into
/// the span `out()` returns (zero-padded to whole bytes). Returns
/// ceil(message_bits / 8). Throws, in this order: std::invalid_argument on
/// misaligned ciphertext; whatever `out()` throws; std::length_error when
/// the span is too small; std::invalid_argument on truncated or trailing
/// ciphertext (messages prefixed with `who`). `chunk_blocks` as for
/// encrypt_chunked.
std::size_t decrypt_chunked(const KeyTables& k, const BlockParams& params,
                            std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                            OutputGate out, int n_shards, exec::Executor* ex,
                            std::uint64_t chunk_blocks, const char* who);

}  // namespace detail

}  // namespace mhhea::core
