// The MHHEA encryptor / decryptor — the paper's primary contribution as a
// clean software library — and, with Scheme::hhea, the HHEA baseline it
// improves upon (walk.hpp).
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
// half. In particular the encryptor's LFSR seed is NOT required — it acts
// as a nonce.
//
// Every encrypt, decrypt and size query runs the chunk pipeline of
// shard.hpp with one shard (the sharded entry points run it with more):
// cover vectors come from the LFSR in bounded refills, each block costs one
// range-table lookup in the schedule step, and the backend's apply kernels
// embed or extract eight blocks per AVX2 instruction. Both cores are
// reusable across messages, so adapters amortize construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/block.hpp"
#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/core/walk.hpp"
#include "src/exec/executor.hpp"

namespace mhhea::core {

/// Whole-message encryptor: the message length is known up front, so every
/// block is planned and emitted final-sized straight into the caller's
/// buffer. One instance encrypts one message at a time and keeps its key
/// tables and cover across messages.
class Encryptor {
 public:
  /// Every message is encrypted from the cover's seed. The cover's tables
  /// are built here, so the per-call copies share them.
  Encryptor(Key key, LfsrCover cover, BlockParams params = BlockParams::paper(),
            Scheme scheme = Scheme::mhhea);

  /// Encrypt the whole of `msg` into the caller's buffer and return the
  /// ciphertext bytes written. Zero heap allocations. Throws
  /// std::length_error if `out` cannot hold the ciphertext (bytes already
  /// written are unspecified).
  std::size_t encrypt_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out);
  /// The same bytes with the pipeline cut for `n_shards` workers on `ex`
  /// (shard.hpp; null runs the chunks inline).
  std::size_t encrypt_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out,
                           int n_shards, exec::Executor* ex);
  /// Exact ciphertext bytes encrypt_into would produce for an `n_bits`-bit
  /// message: the pipeline with the embed left out (cover generation plus
  /// the schedule step — cheap enough to size a buffer, not free).
  [[nodiscard]] std::uint64_t one_shot_cipher_bytes(std::uint64_t n_bits) const;
  /// Re-seed the cover — the per-nonce entry point of the sealed-v2 session
  /// (one derived seed per message keeps the long-lived core from ever
  /// reusing cover keystream).
  void reseed(std::uint64_t seed);
  [[nodiscard]] const BlockParams& params() const noexcept { return params_; }
  [[nodiscard]] const Key& key() const noexcept { return key_; }

 private:
  Key key_;
  LfsrCover cover_;
  BlockParams params_;
  std::vector<detail::PairCtx> pair_ctx_;
};

/// Whole-message decryptor. The message bit length must be known
/// (transported by the framed file format in frame.hpp, or out of band as
/// the paper's EOF) and is passed per call, so one instance decrypts any
/// number of messages of any lengths.
class Decryptor {
 public:
  /// `message_bits` is unused: each decrypt_into call takes the length of
  /// its own message. The parameter stays for source compatibility.
  Decryptor(Key key, std::uint64_t message_bits, BlockParams params = BlockParams::paper(),
            Scheme scheme = Scheme::mhhea);

  /// Decrypt the whole ciphertext of a `message_bits`-bit message straight
  /// into the caller's buffer (zero-padded to whole bytes) and return the
  /// bytes written, i.e. ceil(message_bits / 8). Strict:
  /// std::invalid_argument on misaligned, truncated or trailing ciphertext
  /// (a too-long ciphertext must not round-trip silently);
  /// std::length_error if `out` is too small (bytes already written are
  /// unspecified). Zero heap allocations.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                           std::span<std::uint8_t> out) const;
  /// The same with the pipeline cut for `n_shards` workers on `ex`.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                           std::span<std::uint8_t> out, int n_shards, exec::Executor* ex) const;

 private:
  BlockParams params_;
  std::vector<detail::PairCtx> pair_ctx_;
};

// ----------------------------------------------------------------------
// One-shot helpers (the quickstart API).

/// Encrypt `msg` with an LFSR cover seeded by `seed` (non-zero nonce): the
/// single-shard encrypt_sharded (shard.hpp), which sizes the ciphertext and
/// then fills it.
[[nodiscard]] std::vector<std::uint8_t> encrypt(std::span<const std::uint8_t> msg,
                                                const Key& key, std::uint64_t seed,
                                                BlockParams params = BlockParams::paper(),
                                                Scheme scheme = Scheme::mhhea);

/// Decrypt ciphertext produced by encrypt(); `msg_bytes` is the plaintext
/// length. Throws std::invalid_argument on misaligned ciphertext, or if it
/// is too short or carries blocks beyond the message end.
[[nodiscard]] std::vector<std::uint8_t> decrypt(std::span<const std::uint8_t> cipher,
                                                const Key& key, std::size_t msg_bytes,
                                                BlockParams params = BlockParams::paper(),
                                                Scheme scheme = Scheme::mhhea);

}  // namespace mhhea::core
