// Cipher adapter for the baseline HHEA (src/crypto/hhea.hpp), mirroring
// MhheaCipher: one instance = one (key, nonce, params) configuration with
// resettable reusable cores, so per-call work is the message itself, not
// engine construction. Deterministic per call; share one instance per
// thread.
#pragma once

#include <cstdint>
#include <memory>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/cipher.hpp"
#include "src/crypto/hhea.hpp"
#include "src/exec/executor.hpp"

namespace mhhea::crypto {

class HheaCipher final : public Cipher {
 public:
  /// Validates seed, params and key-vs-params eagerly (std::invalid_argument).
  ///
  /// `shards` > 1 turns on intra-message parallelism (hhea_encrypt_sharded /
  /// hhea_decrypt_sharded): block-range shards run concurrently on the shared
  /// process executor, bit-identical to the single-shard path. 0 picks
  /// hardware concurrency; negative counts throw std::invalid_argument.
  HheaCipher(core::Key key, std::uint64_t seed,
             core::BlockParams params = core::BlockParams::paper(), int shards = 1);

  [[nodiscard]] std::string name() const override { return "HHEA"; }
  /// Straight into the caller's buffer (single-shard path is allocation-free
  /// when warmed); the allocating encrypt()/decrypt() are the base-class
  /// thin wrappers over these.
  std::size_t encrypt_into(std::span<const std::uint8_t> msg,
                           std::span<std::uint8_t> out) override;
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::size_t msg_bytes,
                           std::span<std::uint8_t> out) override;
  /// Exact and cover-free: HHEA block widths are fixed by the key alone
  /// (hhea_cipher_bytes), so the exact size doubles as the upper bound.
  /// Runs over the width cycle cached at construction — no per-call
  /// allocation (pinned by a counting test), just closed-form arithmetic
  /// (plus an O(blocks) walk under framed params).
  [[nodiscard]] std::size_t ciphertext_size(std::size_t msg_bytes) override {
    return static_cast<std::size_t>(
        hhea_cipher_bytes(wc_, static_cast<std::uint64_t>(msg_bytes) * 8, params_));
  }
  [[nodiscard]] std::size_t max_ciphertext_size(std::size_t msg_bytes) const override {
    return static_cast<std::size_t>(
        hhea_cipher_bytes(wc_, static_cast<std::uint64_t>(msg_bytes) * 8, params_));
  }
  /// HHEA embeds exactly span+1 bits per block, so the expansion is the
  /// closed form vector_bits / mean(span_i + 1) — no scramble averaging.
  [[nodiscard]] double expansion() const override { return expansion_; }

  [[nodiscard]] const core::Key& key() const noexcept { return key_; }
  [[nodiscard]] const core::BlockParams& params() const noexcept { return params_; }
  [[nodiscard]] int shards() const noexcept { return shards_; }

 private:
  core::Key key_;
  std::uint64_t seed_;
  core::BlockParams params_;
  int shards_;
  detail::WidthCycle wc_;  // key's width cycle, built once for size queries
  HheaEncryptor enc_;  // reusable core, reset per encrypt()
  HheaDecryptor dec_;  // reusable core, shared by every decrypt()
  double expansion_;
  // Sharded-mode state (null when the shard clamp resolves to 1).
  std::unique_ptr<core::CoverSource> cover_proto_;
  exec::Executor* exec_ = nullptr;  // Executor::shared() when fan-out pays off
  int workers_ = 1;                 // shard clamp: min(shards_, hardware)
};

}  // namespace mhhea::crypto
