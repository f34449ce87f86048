// YAEA-S — the stand-in for the YAEA comparator of Table 1.
//
// The original YAEA ("Yet Another Encryption Algorithm", Saeb/Zewail/Seif,
// ICEENG 2002) is cited by the paper but its specification is not publicly
// available, so — per the reproduction rules (DESIGN.md §2) — we substitute
// a cipher of the same architectural class: a compact, fast LFSR-based
// stream cipher that XORs a keystream byte per cycle. We use the classic
// Geffe construction: three maximal-length LFSRs (degrees 17, 19, 23 —
// pairwise-coprime periods) combined per bit as
//
//     z = (a & b) | (~a & c)
//
// i.e. LFSR A multiplexes between B and C. This preserves exactly what
// Table 1 needs from YAEA: a conventional (non-hiding) stream cipher with a
// short critical path and small area, hence the highest functional density.
// Its known weakness (75% correlation of z with both b and c — the classic
// Geffe correlation attack; not implemented here) stands in for the paper's
// caveat that "different algorithms have different degrees of security".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/backend/backend.hpp"
#include "src/crypto/cipher.hpp"
#include "src/lfsr/lfsr.hpp"
#include "src/exec/executor.hpp"

namespace mhhea::crypto {

/// The Geffe keystream generator at the heart of YAEA-S.
class GeffeKeystream {
 public:
  /// Degrees of the three component LFSRs (A selects, B/C feed).
  static constexpr int kDegreeA = 17;
  static constexpr int kDegreeB = 19;
  static constexpr int kDegreeC = 23;

  /// Seeds must be non-zero in the low degree bits. Throws otherwise.
  GeffeKeystream(std::uint32_t seed_a, std::uint32_t seed_b, std::uint32_t seed_c);

  // The three register states ARE the 96-bit YAEA-S key (unlike the MHHEA
  // cover seed, which is a nonce — cover.hpp), so every keystream instance
  // wipes them on destruction. Copies are the per-call/per-shard working
  // pattern and each wipes its own states; the shared leap tables they
  // carry are key-independent public data.
  GeffeKeystream(const GeffeKeystream&) = default;
  GeffeKeystream& operator=(const GeffeKeystream&) = default;
  GeffeKeystream(GeffeKeystream&&) noexcept = default;
  GeffeKeystream& operator=(GeffeKeystream&&) noexcept = default;
  ~GeffeKeystream();

  /// One keystream bit.
  [[nodiscard]] bool next_bit() noexcept;
  /// One keystream byte (8 bits, LSB first).
  [[nodiscard]] std::uint8_t next_byte() noexcept;

  /// Fill `out` with the next out.size() keystream bytes — the word-wide
  /// hot path. Runs of at least two lane-passes route through the active
  /// backend as independent lanes (each lane's three registers seeded by
  /// one lane-stride table application, then all lanes stepped in
  /// lockstep); the remainder pulls 64 bits per register through the
  /// Lfsr::step_bits leap machinery and combines them with one word-wise
  /// z = (a & b) | (~a & c), emitting 8 bytes at a time (LSB-first bit
  /// order makes byte k of the combined word keystream byte k). Bit-exact
  /// with repeated next_byte() calls, including the register states left
  /// behind, so bulk and serial pulls can be interleaved freely. An empty
  /// span is a no-op.
  void next_bytes(std::span<std::uint8_t> out);

  /// out = in XOR keystream, fused into the backend kernels (the YAEA-S
  /// datapath: no intermediate keystream buffer). `in` and `out` must be
  /// the same size (std::invalid_argument otherwise) and may be the same
  /// span (in-place); partial overlap is not supported. Advances the
  /// stream exactly like next_bytes(out).
  void xor_bytes(std::span<const std::uint8_t> in, std::span<std::uint8_t> out);

  /// Advance the keystream by `n_bits` positions in O(log n) — every output
  /// bit consumes exactly one step of each component register, so the jump
  /// is three Lfsr::jump calls. This is what lets a shard worker seed its
  /// keystream at an arbitrary byte offset without replaying the stream.
  void jump(std::uint64_t n_bits);

  /// Build the component registers' leap tables, jump matrices, and the
  /// backend lane tables in place without advancing the stream. Copies
  /// share the built tables, so warming one long-lived prototype makes
  /// per-message/per-shard copies start on the fast path immediately — the
  /// same amortization MhheaCipher applies to its cover prototype.
  void warm();

 private:
  /// Precomputed linear maps for the backend Geffe kernel, shared across
  /// copies: per component register, the 64-step window update U = M^64 and
  /// the lane-stride seeding map M^(64 * backend::kGeffeLaneUnits); plus
  /// borrowed pointers to the registers' own degree-leap tables, packaged
  /// as the kernel argument.
  struct LaneTables {
    backend::LinearMapTables upd[3];
    backend::LinearMapTables lane[3];
    std::shared_ptr<const backend::LinearMapTables> deg[3];
    backend::GeffeKernel kernel{};
  };

  void ensure_lane_tables();
  /// Shared body of next_bytes (in == nullptr: raw keystream) and
  /// xor_bytes (in: XOR source of out.size() bytes).
  void run(const std::uint8_t* in, std::span<std::uint8_t> out);

  lfsr::Lfsr a_, b_, c_;  // [[mhhea::secret]] register states are the key
  std::shared_ptr<const LaneTables> lanes_;  // built by warm(), shared by copies
};

/// 96-bit-keyed stream cipher: ciphertext = plaintext XOR keystream.
///
/// `shards` > 1 splits each message into that many contiguous byte ranges
/// XORed in parallel on the shared process executor, each range's keystream
/// seeded independently by GeffeKeystream::jump — bit-identical to the
/// sequential stream for every shard count. 0 picks hardware concurrency;
/// negative counts throw std::invalid_argument.
class Yaea final : public Cipher {
 public:
  struct KeyType {
    std::uint32_t seed_a = 0;
    std::uint32_t seed_b = 0;
    std::uint32_t seed_c = 0;
  };

  explicit Yaea(KeyType key, int shards = 1);
  Yaea(Yaea&&) noexcept = default;
  Yaea& operator=(Yaea&&) noexcept = default;
  /// Wipes the stored key seeds (the keystream prototype wipes its own
  /// register states).
  ~Yaea() override;

  [[nodiscard]] std::string name() const override { return "YAEA-S"; }
  /// Keystream XOR straight from `msg` to `out`, chunked through a stack
  /// buffer so it is aliasing-safe: `out` may be the same span as `msg`
  /// (in-place encryption) or disjoint from it; partial overlap is not
  /// supported. Zero heap allocations on the single-shard path.
  std::size_t encrypt_into(std::span<const std::uint8_t> msg,
                           std::span<std::uint8_t> out) override;
  /// Strict contract: a stream cipher's ciphertext is exactly as long as the
  /// plaintext, so both truncated and over-long ciphertext throw
  /// std::invalid_argument instead of fabricating zero bytes or silently
  /// dropping the tail. Aliasing-safe like encrypt_into.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::size_t msg_bytes,
                           std::span<std::uint8_t> out) override;
  /// Exact: a stream cipher's ciphertext is its plaintext's size.
  [[nodiscard]] std::size_t ciphertext_size(std::size_t msg_bytes) override {
    return msg_bytes;
  }
  [[nodiscard]] std::size_t max_ciphertext_size(std::size_t msg_bytes) const override {
    return msg_bytes;
  }
  [[nodiscard]] double expansion() const override { return 1.0; }
  [[nodiscard]] int shards() const noexcept { return shards_; }

 private:
  KeyType key_;  // [[mhhea::secret]] the three Geffe seeds
  int shards_;
  /// Pristine keystream at the seed state with warmed tables; every call
  /// copies it (cheap — tables are shared) instead of re-deriving them.
  GeffeKeystream ks_proto_;
  exec::Executor* exec_ = nullptr;  // Executor::shared() when fan-out pays off
  int workers_ = 1;                 // shard clamp: min(shards_, hardware)
};

}  // namespace mhhea::crypto
