// Cipher adapters for the two hiding ciphers of src/core — the paper's MHHEA
// and (HheaCipher, below) the HHEA baseline — so they are sweepable through
// the uniform crypto::Cipher interface alongside YAEA-S (Table 1's
// comparison set).
//
// One adapter instance = one (key, nonce, params, framing) configuration.
// The instance keeps one Encryptor/Decryptor core instead of constructing a
// fresh engine per call — per-message setup (cover construction, key range
// tables, LFSR leap and jump tables) is paid once. Calls remain
// deterministic and independent: every encrypt starts from the cover's
// seed, so encrypt() is a pure function of the configuration and the
// message. The reusable core makes calls STATEFUL internally (the
// sealed-v2 nonce reseeds it) — share one instance per thread (the batch
// API already builds one cipher per worker).
//
// Framing::sealed_v2 is the authenticated container (frame.hpp's wire
// layout): a 24-byte header carrying an explicit nonce, encrypt-then-MAC
// with a SipHash-2-4-128 trailer over header || ciphertext, and a per-nonce
// cover seed derived by the V2KeySchedule so no two nonces share keystream.
// Through the uniform Cipher interface every message is sealed under nonce 0
// (calls stay deterministic, as the sweep harness requires); the seal_v2 /
// open_v2 entry points take explicit nonces and are what crypto::Session
// drives with its auto-incrementing counter and replay window.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/compress/compress.hpp"
#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/crypto/cipher.hpp"
#include "src/crypto/mac.hpp"
#include "src/exec/executor.hpp"

namespace mhhea::crypto {

class MhheaCipher : public Cipher {
 public:
  /// Ciphertext layout produced by encrypt().
  enum class Framing {
    raw,        ///< bare ciphertext blocks (the paper's out-of-band-EOF mode)
    sealed_v2,  ///< authenticated container: 24-byte header + blocks + MAC
  };

  /// `seed` is the LFSR nonce; must be non-zero in the low LFSR-degree bits
  /// and `key` must fit `params` — both are validated eagerly
  /// (std::invalid_argument), so a registry sweep fails at construction, not
  /// mid-benchmark.
  ///
  /// `shards` > 1 turns on intra-message parallelism (core/shard.hpp): each
  /// message's block chunks are planned and applied by up to that many
  /// threads of the shared executor, bit-identical to the single-shard
  /// path. 0 picks hardware concurrency; negative counts throw
  /// std::invalid_argument. shards == 1 (the default) runs the single-shard
  /// pipeline with zero added overhead.
  /// For Framing::sealed_v2 the `seed` doubles as the schedule master: the
  /// V2KeySchedule expands it into MAC and seed-derivation subkeys, and the
  /// cover is seeded for nonce 0 (the seed's low bits are not used directly,
  /// so the non-zero constraint does not apply to this framing).
  MhheaCipher(core::Key key, std::uint64_t seed,
              core::BlockParams params = core::BlockParams::paper(),
              Framing framing = Framing::raw, int shards = 1);

  /// Sealed-v2 with an explicit key schedule (how crypto::Session builds its
  /// cipher from a caller-provided master secret). `framing` must be
  /// sealed_v2 — std::invalid_argument otherwise.
  MhheaCipher(core::Key key, const V2KeySchedule& schedule, core::BlockParams params,
              Framing framing, int shards = 1);

  MhheaCipher(MhheaCipher&&) noexcept = default;
  MhheaCipher& operator=(MhheaCipher&&) noexcept = default;
  /// Wipes the stored seed — under sealed_v2 it is the schedule master, so
  /// it must not outlive the cipher (key_ and sched_ wipe themselves; copies
  /// were already excluded by the unique_ptr shard state).
  ~MhheaCipher() override;

  [[nodiscard]] std::string name() const override {
    if (framing_ == Framing::raw) return "MHHEA";
    return compression_ == compress::Method::raw ? "MHHEA-sealed-v2" : "MHHEA-sealed-v2-z";
  }
  /// One-shot encryption straight into the caller's buffer: the core's
  /// chunk pipeline, one chunk for shards == 1 and disjoint block ranges in
  /// parallel for shards > 1; sealed_v2 seals under nonce 0 (header +
  /// blocks + MAC trailer). The warmed single-shard path performs zero heap
  /// allocations.
  std::size_t encrypt_into(std::span<const std::uint8_t> msg,
                           std::span<std::uint8_t> out) override;
  /// Under sealed_v2, `msg_bytes` must agree with the container's plaintext
  /// length (std::invalid_argument otherwise, `out` untouched), and the MAC
  /// is verified in constant time BEFORE any decryption — MacError (an
  /// invalid_argument) on any tampered bit, so garbage plaintext is never
  /// produced.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::size_t msg_bytes,
                           std::span<std::uint8_t> out) override;
  /// Via the pipeline without the embed (~half an encryption); includes the
  /// constant container overhead under sealed_v2. Exact unless the cipher
  /// compresses (MHHEA-sealed-v2-z): then it is the size of the
  /// uncompressed fallback, an upper bound on what encrypt() writes.
  [[nodiscard]] std::size_t ciphertext_size(std::size_t msg_bytes) override;
  /// Cheap closed-form worst case from the key's per-pair minimum table
  /// widths (each pair embeds at least that many bits when uncapped:
  /// min(d+1, H-d+1) for MHHEA, span+1 for HHEA).
  [[nodiscard]] std::size_t max_ciphertext_size(std::size_t msg_bytes) const override;
  /// Expected expansion for this key: vector_bits over the mean width of the
  /// key's pair tables under a uniform scramble field — for MHHEA the
  /// analytical core::expected_expansion, for HHEA vector_bits / mean(span+1).
  /// Excludes the constant container overhead under sealed_v2.
  [[nodiscard]] double expansion() const override { return expansion_; }

  // --- sealed_v2 entry points (std::logic_error under other framings) ---

  /// Compression pre-stage for outbound seals (src/compress): when not raw,
  /// seal_v2_into first compresses the message into a self-describing
  /// envelope and seals that instead — strictly-smaller-or-fallback, so a
  /// frame is never larger than its uncompressed twin and incompressible
  /// messages produce byte-identical uncompressed containers. Opening is
  /// always method-agnostic (the wire format self-describes), so this knob
  /// only shapes what THIS cipher sends.
  void set_compression(compress::Method method);
  [[nodiscard]] compress::Method compression() const noexcept { return compression_; }

  /// Seal `msg` under an explicit `nonce`: v2 header + ciphertext blocks +
  /// MAC over everything before the tag, written into `out` (std::length_error
  /// when it cannot fit). Returns the container bytes. The cover is re-seeded
  /// from the schedule's per-nonce derivation, so distinct nonces never share
  /// keystream. Zero heap allocations once warmed (single-shard).
  std::size_t seal_v2_into(std::span<const std::uint8_t> msg, std::uint64_t nonce,
                           std::span<std::uint8_t> out);
  /// Container bytes seal_v2_into would produce (nonce-independent: the
  /// ciphertext length depends on cover content, so this re-seeds for the
  /// queried nonce and scans).
  [[nodiscard]] std::size_t sealed_v2_size(std::size_t msg_bytes, std::uint64_t nonce);

  /// The authenticated-but-not-yet-decrypted view of a v2 container.
  struct V2Opened {
    core::FrameHeader header;
    std::span<const std::uint8_t> payload;  // ciphertext blocks, MAC excluded
  };
  /// Structural parse + constant-time MAC verification, no decryption:
  /// std::invalid_argument on malformation (any version byte but 2 included)
  /// or a params mismatch, MacError on tag mismatch. What Session calls
  /// first so replay checks run on authenticated nonces only.
  [[nodiscard]] V2Opened open_v2_authenticate(std::span<const std::uint8_t> framed) const;
  /// Decrypt an authenticated container's payload into `out` (zero-padded to
  /// whole bytes), returning the plaintext bytes: ceil(message_bits/8) for an
  /// uncompressed container, the envelope's declared raw size after
  /// decompression for a compressed one. std::length_error when `out` is too
  /// small; std::invalid_argument on an unknown method tag, a tag/header
  /// mismatch or a corrupt envelope (all post-MAC — `out` is untouched).
  std::size_t decrypt_v2_payload(const V2Opened& opened, std::span<std::uint8_t> out);
  /// Allocating open of an authenticated container: sizes the plaintext from
  /// the header (or the envelope's raw size once decrypted) and returns it —
  /// what Session::open drives, since a compressed container's plaintext
  /// size is only known after the envelope is decrypted.
  [[nodiscard]] std::vector<std::uint8_t> open_v2_alloc(const V2Opened& opened);

  [[nodiscard]] const core::Key& key() const noexcept { return key_; }
  [[nodiscard]] const core::BlockParams& params() const noexcept { return params_; }
  [[nodiscard]] Framing framing() const noexcept { return framing_; }
  [[nodiscard]] int shards() const noexcept { return shards_; }

 protected:
  /// Raw framing over `scheme`'s pair tables — what HheaCipher fixes.
  MhheaCipher(core::Key key, std::uint64_t seed, core::BlockParams params, int shards,
              core::Scheme scheme);

 private:
  /// Delegation target of the public constructors: `schedule` is live only
  /// under Framing::sealed_v2.
  MhheaCipher(core::Key key, std::uint64_t seed, const V2KeySchedule& schedule,
              core::BlockParams params, Framing framing, int shards, core::Scheme scheme);

  /// Cover seed for sealed_v2 under `nonce` (other framings use seed_).
  [[nodiscard]] std::uint64_t v2_cover_seed(std::uint64_t nonce) const;
  /// Lazily built engine for `tag` (any known method — the opener must be
  /// able to decode whatever a peer negotiated, not just compression_).
  /// std::invalid_argument on an unknown tag.
  [[nodiscard]] compress::Compressor& compressor_for(std::uint8_t tag);
  /// Compress `msg` into the z_buf_ envelope when compression is on and
  /// wins; returns the bytes to seal (the envelope, or `msg` on fallback)
  /// plus the header method tag (0 on fallback).
  struct SealBody {
    std::span<const std::uint8_t> bytes;
    std::uint8_t method = 0;
  };
  [[nodiscard]] SealBody make_seal_body(std::span<const std::uint8_t> msg);
  /// The one sharded-or-sequential choice per direction: the core's
  /// pipeline cut for several workers when the message is long enough to
  /// split, one chunk otherwise.
  std::size_t encrypt_blocks(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out);
  std::size_t decrypt_blocks(std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                             std::span<std::uint8_t> out);
  /// The one open path of an authenticated container: decrypt the payload
  /// (and decompress a compressed envelope, decrypted into z_open_buf_ and
  /// validated first) into `dest(plain_bits)`, which returns the destination
  /// span for that many plaintext bits — or throws to reject the length.
  /// `dest` runs only after every structural check has passed, so a
  /// rejected container never touches the caller's storage.
  template <class Dest>
  std::size_t open_payload(const V2Opened& opened, Dest&& dest);
  /// Point the encryptor core at `nonce`'s derived cover seed. No-op when
  /// already there — consecutive same-nonce calls (size query then seal)
  /// pay one derivation, zero reseeds.
  void set_nonce(std::uint64_t nonce);
  void require_v2(const char* what) const;

  core::Key key_;       // [[mhhea::secret]] the hiding key (self-wiping)
  std::uint64_t seed_;  // [[mhhea::secret]] v2 schedule master; a nonce otherwise
  core::BlockParams params_;
  Framing framing_;
  core::Scheme scheme_;
  int shards_;
  V2KeySchedule sched_;       // sealed_v2 only; zeroed otherwise
  std::uint64_t cur_nonce_ = 0;  // nonce enc_ is seeded for
  core::Encryptor enc_;  // reusable core, reset per encrypt()
  core::Decryptor dec_;  // reusable core, shared by every decrypt()
  // Compression pre-stage (sealed_v2 only): the outbound method knob, the
  // lazily built per-method engines (indexed by tag — openers may need any
  // of them), and the grow-only envelope scratch for each direction. The
  // scratch holds plaintext-derived bytes, so the destructor wipes it along
  // with the other secrets.
  compress::Method compression_ = compress::Method::raw;
  std::array<std::unique_ptr<compress::Compressor>, compress::kMethodCount> compressors_;
  std::vector<std::uint8_t> z_seal_buf_;
  std::vector<std::uint8_t> z_open_buf_;
  double expansion_ = 0.0;
  std::uint64_t cycle_min_bits_ = 0;  // sum of per-pair minimum widths (for the bound)
  // Sharded-mode state (null when the shards knob or the host resolves to a
  // single worker — the budget is clamped to hardware concurrency): a handle
  // to the process-wide work-stealing executor the chunks fan out on. The
  // chunks copy enc_'s cover.
  exec::Executor* exec_ = nullptr;  // Executor::shared() when fan-out pays off
  int workers_ = 1;                 // shard clamp: min(shards_, hardware)
};

/// The HHEA baseline (core::Scheme::hhea) through the same adapter: raw
/// framing, the same cores, size queries and shard clamp as MhheaCipher.
/// Validates seed, params and key-vs-params eagerly (std::invalid_argument).
class HheaCipher final : public MhheaCipher {
 public:
  HheaCipher(core::Key key, std::uint64_t seed,
             core::BlockParams params = core::BlockParams::paper(), int shards = 1)
      : MhheaCipher(std::move(key), seed, params, shards, core::Scheme::hhea) {}

  [[nodiscard]] std::string name() const override { return "HHEA"; }
};

}  // namespace mhhea::crypto
