// The MHHEA encryptor / decryptor — the paper's primary contribution as a
// clean software library.
//
// Encryption hides the message bit stream inside successive hiding-vector
// blocks (see block.hpp for the per-block transform and params.hpp for the
// two framing policies). Each block embeds between 1 and N/2 message bits,
// so ciphertext is larger than plaintext (expansion >= 2x for uniform random
// keys — the price of the steganographic construction; analysis.hpp computes
// the exact expansion for a given key).
//
// Decryption needs only the key and the plaintext bit length: the scrambled
// locations are recomputed from each ciphertext block's unmodified high
// half. In particular the encryptor's LFSR seed (or cover data) is NOT
// required — it acts as a nonce.
//
// The one-shot paths (encrypt_into, one_shot_cipher_bytes, decrypt_into) run
// the table-driven frame-walk kernel of walk.hpp, mirroring the FPGA's
// whole-vector-per-clock datapath: cover vectors are prefetched in chunks
// through CoverSource::next_blocks, and each block costs one range-table
// lookup and one masked word operation. The incremental feed paths keep
// their block-at-a-time replay logic. Both cores are resettable so adapters
// can amortize construction across messages.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/block.hpp"
#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/core/walk.hpp"
#include "src/util/bitstream.hpp"

namespace mhhea::core {

/// Streaming encryptor. Feed message bytes/bits; collect N-bit ciphertext
/// blocks. One instance encrypts one message at a time; reset() rewinds the
/// cover source and starts a fresh message without reallocating.
///
/// Incremental feeds are equivalent to one shot: blocks()/cipher_bytes()
/// always reflect the ciphertext of the message fed so far *as if it were
/// complete*. Feeding more data may therefore re-emit the stream's tail —
/// the final block when it was partially filled (continuous policy), or the
/// whole final frame when it was opened undersized (framed policy) — with
/// the same cover vectors but more message bits packed in.
class Encryptor {
 public:
  /// Takes ownership of the cover source (LFSR for encryption mode, buffer
  /// for steganography mode).
  Encryptor(Key key, std::unique_ptr<CoverSource> cover,
            BlockParams params = BlockParams::paper());

  /// Encrypt all bits of `msg` (appended to any previously fed data).
  void feed(std::span<const std::uint8_t> msg);
  /// Encrypt `n_bits` bits from `reader`.
  void feed_bits(util::BitReader& reader, std::size_t n_bits);
  /// One-shot fast path: encrypt the whole of `msg` into the caller's buffer
  /// and return the ciphertext bytes written. The message length is known up
  /// front, so blocks are planned and emitted final-sized straight into
  /// `out` — no re-openable tail bookkeeping, no replay, no internal
  /// ciphertext storage — which is both the zero-allocation contract (the
  /// only buffer touched is the resident cover prefetch chunk) and the
  /// single-thread speedup over reset()+feed(). Byte-identical to
  /// reset()+feed(msg) -> cipher_bytes() for both framing policies. Throws
  /// std::length_error if `out` cannot hold the ciphertext (bytes already
  /// written are unspecified). Implies reset(): afterwards the streaming
  /// accessors see a fresh, empty stream.
  std::size_t encrypt_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out);
  /// Exact ciphertext bytes a one-shot encryption of an `n_bits`-bit message
  /// would produce: encrypt_into's walk with the embed left out (cover
  /// generation plus a width walk — cheap enough to size a buffer, not
  /// free). Implies reset(), like encrypt_into.
  [[nodiscard]] std::uint64_t one_shot_cipher_bytes(std::uint64_t n_bits);
  /// Start a new message: drops all produced blocks (keeping their storage)
  /// and rewinds the cover source. Requires a resettable cover
  /// (std::logic_error otherwise — see CoverSource::reset).
  void reset();
  /// Re-seed the cover source and start a new message — the per-nonce entry
  /// point of the sealed-v2 session (one derived seed per message keeps the
  /// long-lived core from ever reusing cover keystream). Requires a
  /// reseedable cover (std::logic_error otherwise — see CoverSource::reseed).
  void reseed(std::uint64_t seed);
  /// Total message bits consumed so far.
  [[nodiscard]] std::uint64_t message_bits() const noexcept { return msg_bits_; }
  /// Ciphertext blocks produced so far (deserialized view of the stream,
  /// extended lazily — the stream itself is stored serialized).
  [[nodiscard]] const std::vector<std::uint64_t>& blocks() const;
  /// Ciphertext blocks serialized little-endian, block_bytes() per block.
  [[nodiscard]] const std::vector<std::uint8_t>& cipher_bytes() const noexcept {
    return cipher_;
  }

  [[nodiscard]] const BlockParams& params() const noexcept { return params_; }
  [[nodiscard]] const Key& key() const noexcept { return key_; }

 private:
  /// A block that may be rolled back and re-embedded when more data arrives.
  struct TailBlock {
    std::uint64_t v = 0;     // cover vector, reused verbatim on re-embed
    std::uint64_t bits = 0;  // message bits embedded (low `w` bits)
    int w = 0;
  };

  /// Scramble outcome for one block: where the message word lands (kn1),
  /// the block's capacity, and the width actually embedded this feed.
  struct BlockPlan {
    int kn1 = 0;
    int cap = 0;
    int w = 0;
  };

  void encrypt_frame_bit_run(util::BitReader& reader, std::size_t n_bits);
  /// Frame-batched steady state of the framed policy: plans and emits a
  /// whole frame's block run per pass — one bulk message-word read (a frame
  /// is <= vector_bits <= 64 bits), the frame budget resolved up front, and
  /// msg_bits_/frame bookkeeping written back once per frame instead of once
  /// per block. frame_log_ is maintained only for the frame this feed ends
  /// in — the only one the tail-replay can ever re-open. Bit-identical to
  /// the block-at-a-time walk (pinned by mhhea_hardware.kat/mhhea_sealed.kat
  /// and the reference-model sweep).
  void encrypt_framed_frames(util::BitReader& reader, std::size_t remaining,
                             TailBlock& last, int& last_cap);
  /// Append one serialized ciphertext block (block_bytes() little-endian
  /// bytes; push_back beats resize+store — resize value-initializes).
  void append_block(std::uint64_t ct);
  [[nodiscard]] BlockPlan plan_block(std::uint64_t v, std::size_t remaining,
                                     bool framed) const;
  /// Embed a planned block and update stream/frame bookkeeping; fills `tb`
  /// with the re-openable description of the block.
  void emit_block(std::uint64_t v, const BlockPlan& plan, std::uint64_t msg_word,
                  bool framed, TailBlock& tb);
  /// Refill the prefetched cover-vector chunk. Never fetches more blocks
  /// than `remaining_bits` can consume, so finite covers are drained exactly
  /// as in the block-at-a-time formulation.
  void refill_cover(std::size_t remaining_bits);

  Key key_;
  std::unique_ptr<CoverSource> cover_;
  BlockParams params_;
  std::vector<detail::PairCtx> pair_ctx_;
  /// The ciphertext, kept serialized (block_bytes() little-endian bytes per
  /// block): the hot loop stores 2 bytes per paper-sized block instead of a
  /// widened uint64 — a 4x cut in store traffic on large messages.
  std::vector<std::uint8_t> cipher_;
  /// Decoded prefix of cipher_ for blocks(); extended on demand, trimmed by
  /// the tail-replay rollback.
  mutable std::vector<std::uint64_t> blocks_cache_;
  std::uint64_t block_index_ = 0;  // the algorithm's i (before mod L)
  std::size_t pair_idx_ = 0;       // block_index_ mod L, maintained cyclically
  std::uint64_t msg_bits_ = 0;
  int frame_remaining_ = 0;  // framed policy: bits left in the current frame
  int frame_size_ = 0;       // framed policy: size the current frame opened with
  std::vector<TailBlock> tail_;       // re-openable tail of the stream
  bool tail_whole_frame_ = false;     // tail_ spans the whole (short) frame
  std::vector<TailBlock> frame_log_;  // framed: blocks of the current frame
  std::vector<std::uint64_t> cover_buf_;  // prefetched hiding vectors
  std::size_t cover_pos_ = 0;
  std::size_t cover_len_ = 0;
};

/// Streaming decryptor: feed ciphertext blocks, collect message bits.
/// `message_bits` must be known (transported by the framed file format in
/// frame.hpp, or out of band as the paper's EOF). reset() rewinds the core
/// for a new ciphertext without reallocating.
class Decryptor {
 public:
  Decryptor(Key key, std::uint64_t message_bits, BlockParams params = BlockParams::paper());

  /// Consume one ciphertext block. Returns the number of message bits
  /// recovered from it (0 once the message is complete).
  int feed_block(std::uint64_t block);
  /// Consume serialized blocks (little-endian, block_bytes() each). Throws
  /// std::invalid_argument if blocks remain in `cipher` after the message is
  /// complete — a too-long ciphertext must not round-trip silently.
  void feed_bytes(std::span<const std::uint8_t> cipher);
  /// One-shot fast path: decrypt the whole ciphertext of a `message_bits`-bit
  /// message straight into the caller's buffer (zero-padded to whole bytes)
  /// and return the bytes written, i.e. ceil(message_bits / 8). Same strict
  /// contract as feed_bytes plus completeness: std::invalid_argument on
  /// misaligned, truncated or trailing ciphertext; std::length_error if `out`
  /// is too small (bytes already written are unspecified). Zero heap
  /// allocations; implies reset(message_bits), so the streaming accessors see
  /// a fresh core afterwards.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                           std::span<std::uint8_t> out);
  /// Start over, expecting a `message_bits`-bit message.
  void reset(std::uint64_t message_bits);

  /// True once message_bits bits have been recovered.
  [[nodiscard]] bool done() const noexcept { return recovered_ == total_bits_; }
  /// Recovered message so far, zero-padded to whole bytes.
  [[nodiscard]] const std::vector<std::uint8_t>& message() const;
  [[nodiscard]] std::uint64_t recovered_bits() const noexcept { return recovered_; }

 private:
  Key key_;
  BlockParams params_;
  std::vector<detail::PairCtx> pair_ctx_;
  std::uint64_t total_bits_;
  std::uint64_t recovered_ = 0;
  std::uint64_t block_index_ = 0;
  std::size_t pair_idx_ = 0;
  int frame_remaining_ = 0;
  util::BitWriter out_;
  mutable std::vector<std::uint8_t> message_cache_;
  mutable bool cache_valid_ = false;
};

// ----------------------------------------------------------------------
// One-shot helpers (the quickstart API).

/// Encrypt `msg` with an LFSR cover seeded by `seed` (non-zero nonce).
[[nodiscard]] std::vector<std::uint8_t> encrypt(std::span<const std::uint8_t> msg,
                                                const Key& key, std::uint64_t seed,
                                                BlockParams params = BlockParams::paper());

/// Decrypt ciphertext produced by encrypt(); `msg_bytes` is the plaintext
/// length. Throws std::invalid_argument if the ciphertext is too short or
/// carries blocks beyond the message end.
[[nodiscard]] std::vector<std::uint8_t> decrypt(std::span<const std::uint8_t> cipher,
                                                const Key& key, std::size_t msg_bytes,
                                                BlockParams params = BlockParams::paper());

}  // namespace mhhea::core
