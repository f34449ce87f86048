// The original (unmodified) Hybrid Hiding Encryption Algorithm — HHEA
// [SHAAR03], the baseline the paper improves upon.
//
// HHEA hides message bits at FIXED key locations: block i uses pair
// (K1, K2) = key[i mod L] and writes message bits directly (no XOR) into
// V[K1 .. K2]. There is no location scrambling and no data scrambling, so
// every ciphertext bit outside the key ranges is the cover's own bit and a
// constant plaintext shows up verbatim at the key locations (the
// Hhea.LocationsAreFixedPerPair / NoDataScrambling tests pin both) — which
// is why the paper added the two scrambling steps.
//
// The same CoverSource / framing machinery as the core cipher is reused so
// HHEA and MHHEA are compared on equal footing: every encrypt and decrypt
// runs the MHHEA walk kernel over fixed-range tables, and both cores are
// reusable across messages.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/core/walk.hpp"
#include "src/exec/executor.hpp"

namespace mhhea::crypto {

namespace detail {

/// The key's per-pair embed widths (span+1 each) as a prefix-sum table —
/// the closed-form backbone of HHEA size queries and shard planning. Build
/// once per key and reuse: HheaCipher caches one so its size queries stop
/// reallocating the table per call.
struct WidthCycle {
  std::vector<std::uint64_t> prefix;  // prefix[i] = widths of pairs [0, i)
  std::uint64_t period = 0;           // prefix[L]
  std::size_t L = 0;

  explicit WidthCycle(const core::Key& key) : L(static_cast<std::size_t>(key.size())) {
    prefix.reserve(L + 1);
    prefix.push_back(0);
    for (const core::KeyPair& p : key.pairs()) {
      prefix.push_back(prefix.back() + static_cast<std::uint64_t>(p.span() + 1));
    }
    period = prefix.back();
  }

  /// Message bit offset where block `b` begins (continuous policy).
  [[nodiscard]] std::uint64_t bit_at_block(std::uint64_t b) const {
    return b / L * period + prefix[static_cast<std::size_t>(b % L)];
  }

  /// Smallest block count whose capacity covers `bits` (continuous policy).
  [[nodiscard]] std::uint64_t blocks_for_bits(std::uint64_t bits) const {
    const std::uint64_t full = bits / period;
    const std::uint64_t rem = bits % period;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), rem);
    return full * static_cast<std::uint64_t>(L) +
           static_cast<std::uint64_t>(it - prefix.begin());
  }
};

/// HHEA as the degenerate case of the MHHEA walk kernel (core/walk.hpp):
/// every scramble-field value maps to the pair's fixed range [K1, K2] and
/// the data pattern is zero, so the same walks embed and extract HHEA.
[[nodiscard]] std::vector<core::detail::PairCtx> fixed_range_ctx(const core::Key& key);

}  // namespace detail

/// Whole-message HHEA encryptor (API mirrors core::Encryptor).
class HheaEncryptor {
 public:
  HheaEncryptor(core::Key key, std::unique_ptr<core::CoverSource> cover,
                core::BlockParams params = core::BlockParams::paper());

  /// Encrypt the whole of `msg` straight into the caller's buffer (zero
  /// heap allocations) and return the ciphertext bytes written —
  /// hhea_cipher_bytes of its bit length. Throws std::length_error when
  /// `out` is too small (partial contents unspecified). Implies reset().
  std::size_t encrypt_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out);
  /// Rewind the cover source; requires a resettable cover.
  void reset();

 private:
  std::unique_ptr<core::CoverSource> cover_;
  core::BlockParams params_;
  std::vector<core::detail::PairCtx> ctx_;  // the walk's fixed-range tables
};

/// Whole-message HHEA decryptor (API mirrors core::Decryptor, minus its
/// unused length argument).
class HheaDecryptor {
 public:
  explicit HheaDecryptor(core::Key key, core::BlockParams params = core::BlockParams::paper());

  /// Decrypt the whole ciphertext of a `message_bits`-bit message into the
  /// caller's buffer (zero-padded to whole bytes, ceil(message_bits/8)
  /// bytes written — the return value). Strict: std::invalid_argument on
  /// misaligned, truncated or trailing ciphertext; std::length_error when
  /// `out` is too small. Zero heap allocations.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                           std::span<std::uint8_t> out) const;

 private:
  core::BlockParams params_;
  std::vector<core::detail::PairCtx> ctx_;  // the walk's fixed-range tables
};

/// Exact ciphertext bytes for an `msg_bits`-bit message: HHEA block widths
/// are fixed by the key alone (span+1 per pair, frame/message caps aside),
/// so the size query is closed-form arithmetic over the key's width cycle
/// for the continuous policy and one cover-free frame walk for the framed
/// policy — never a cover scan.
[[nodiscard]] std::uint64_t hhea_cipher_bytes(const core::Key& key, std::uint64_t msg_bits,
                                              core::BlockParams params = core::BlockParams::paper());

/// Allocation-free form over a prebuilt width cycle (must be the key's —
/// unchecked, and params/key validation is the caller's: HheaCipher
/// validates both at construction and reuses its cached cycle here).
[[nodiscard]] std::uint64_t hhea_cipher_bytes(const detail::WidthCycle& wc,
                                              std::uint64_t msg_bits,
                                              const core::BlockParams& params);

/// One-shot helpers with an LFSR cover (seed = nonce), like core::encrypt:
/// hhea_encrypt is the single-shard hhea_encrypt_sharded, hhea_decrypt the
/// allocating form of HheaDecryptor::decrypt_into.
[[nodiscard]] std::vector<std::uint8_t> hhea_encrypt(
    std::span<const std::uint8_t> msg, const core::Key& key, std::uint64_t seed,
    core::BlockParams params = core::BlockParams::paper());
[[nodiscard]] std::vector<std::uint8_t> hhea_decrypt(
    std::span<const std::uint8_t> cipher, const core::Key& key, std::size_t msg_bytes,
    core::BlockParams params = core::BlockParams::paper());

// ----------------------------------------------------------------------
// Intra-message sharding (see src/core/shard.hpp for the design). HHEA's
// block widths are fixed by the key alone — block i always embeds
// span(key[i mod L]) + 1 bits — so the continuous-policy plan is pure
// arithmetic over the key's width cycle (no capacity scan at all), and the
// framed plan is one cover-free frame walk. Workers then run fully parallel:
// each clones `cover`, jumps to its block range (Lfsr::jump underneath) and
// embeds/extracts its own slice.

/// Sharded one-shot encryption, bit-identical to HheaEncryptor::encrypt_into
/// for every shard count: the output is sized by hhea_cipher_bytes and
/// filled by hhea_encrypt_sharded_into. `cover` is a clonable, resettable
/// prototype; `ex` may be null (shards run inline). n_shards >= 1.
[[nodiscard]] std::vector<std::uint8_t> hhea_encrypt_sharded(
    std::span<const std::uint8_t> msg, const core::Key& key,
    const core::CoverSource& cover, int n_shards, exec::Executor* ex,
    core::BlockParams params = core::BlockParams::paper());

/// Sharded decryption, bit-identical to hhea_decrypt including strictness:
/// std::invalid_argument on misaligned, truncated or trailing ciphertext.
[[nodiscard]] std::vector<std::uint8_t> hhea_decrypt_sharded(
    std::span<const std::uint8_t> cipher, const core::Key& key, std::size_t msg_bytes,
    int n_shards, exec::Executor* ex,
    core::BlockParams params = core::BlockParams::paper());

/// hhea_encrypt_sharded into caller storage: the block count is known
/// exactly up front (hhea_cipher_bytes), the buffer is checked once, and
/// every worker writes its disjoint slice of `out` directly. Returns the
/// ciphertext bytes written; std::length_error when `out` is too small.
std::size_t hhea_encrypt_sharded_into(
    std::span<const std::uint8_t> msg, const core::Key& key,
    const core::CoverSource& cover, int n_shards, exec::Executor* ex,
    std::span<std::uint8_t> out, core::BlockParams params = core::BlockParams::paper());

/// hhea_decrypt_sharded into caller storage (std::length_error when `out` is
/// shorter than `msg_bytes`). Framed shards start byte-aligned and write
/// their slices directly; continuous shard boundaries fall on arbitrary bit
/// offsets, so those workers keep private bit buffers spliced into `out`.
/// Returns `msg_bytes`.
std::size_t hhea_decrypt_sharded_into(
    std::span<const std::uint8_t> cipher, const core::Key& key, std::size_t msg_bytes,
    int n_shards, exec::Executor* ex, std::span<std::uint8_t> out,
    core::BlockParams params = core::BlockParams::paper());

}  // namespace mhhea::crypto
