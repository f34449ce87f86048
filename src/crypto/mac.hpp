// Keyed message authentication for the sealed container format v2.
//
// The MAC is SipHash-2-4 with 128-bit output (Aumasson & Bernstein) —
// a keyed PRF designed exactly for short-to-medium authenticated inputs,
// fast enough in portable C++ that authenticating a sealed container costs
// a few percent of the hiding cipher itself (the bench's MAC-overhead
// column tracks it). The container uses encrypt-then-MAC: the tag covers
// header || ciphertext, and open() verifies it in constant time before any
// message bit is extracted, so a tampered container can never yield garbage
// plaintext (see frame.hpp for the v2 wire layout and session.hpp for the
// key schedule built on the same primitive).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "src/util/secret.hpp"

namespace mhhea::crypto {

/// Thrown when an authenticated container's MAC does not verify. Derives
/// std::invalid_argument so generic malformed-ciphertext handling still
/// rejects the message, while authentication-aware callers can distinguish
/// a forged/corrupted container from a structurally malformed one.
class MacError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

inline constexpr std::size_t kMacKeyBytes = 16;  // SipHash key size
inline constexpr std::size_t kMacBytes = 16;     // 128-bit tag on the wire

using MacKey = std::array<std::uint8_t, kMacKeyBytes>;
using MacTag = std::array<std::uint8_t, kMacBytes>;

/// SipHash-2-4 over a message fed in pieces: any split of the bytes across
/// update() calls gives the tag of the whole. The sealed path feeds it the
/// header, then the ciphertext chunk by chunk as the pipeline finishes
/// them. `wide` picks the 128-bit variant (finish128, the container MAC);
/// otherwise finish64 gives the classic 64-bit output.
class SipHash {
 public:
  SipHash(const MacKey& key, bool wide);

  void update(std::span<const std::uint8_t> bytes);
  [[nodiscard]] MacTag finish128() const;
  [[nodiscard]] std::uint64_t finish64() const;

 private:
  std::array<std::uint64_t, 4> v_;
  std::uint64_t tail_ = 0;    // the bytes of a partial word, little-endian
  std::uint64_t length_ = 0;  // bytes fed so far
};

/// SipHash-2-4 with 128-bit output over `msg` (the v2 container MAC).
[[nodiscard]] MacTag siphash128(const MacKey& key, std::span<const std::uint8_t> msg);

/// SipHash-2-4 with the classic 64-bit output — used by the v2 key schedule
/// to derive per-message cover seeds, and pinned by the reference test
/// vector from the SipHash paper.
[[nodiscard]] std::uint64_t siphash64(const MacKey& key, std::span<const std::uint8_t> msg);

/// Constant-time byte-span comparison: the run time depends only on the
/// lengths, never on where the first mismatch sits, so MAC verification
/// leaks no tag prefix through timing. Unequal lengths compare unequal.
[[nodiscard]] bool constant_time_equal(std::span<const std::uint8_t> a,
                                       std::span<const std::uint8_t> b);

/// Key schedule of the sealed-v2 format (owned by crypto::Session, shared
/// with MhheaCipher's sealed_v2 framing): one master secret expands into
/// independent MAC and seed-derivation subkeys through SipHash under fixed
/// domain-separation labels, and each message's cover seed is derived from
/// the seed subkey plus the message nonce — so a long-lived key seals many
/// messages without ever reusing cover keystream.
/// Key material passed into / produced by the schedule. Subkeys live in
/// SecretBytes so they are wiped wherever a schedule (or a cipher holding
/// one) is destroyed; SecretBytes converts to `const MacKey&`, so the
/// siphash entry points below are unchanged.
using SecretMacKey = util::SecretBytes<kMacKeyBytes>;

struct V2KeySchedule {
  SecretMacKey mac_key{};   // [[mhhea::secret]] authenticates header || ciphertext
  SecretMacKey seed_key{};  // [[mhhea::secret]] derives the per-nonce cover seed

  /// Expand a caller-provided master secret (non-empty, any length;
  /// compressed to 128 bits first when longer than kMacKeyBytes).
  [[nodiscard]] static V2KeySchedule derive(std::span<const std::uint8_t> master);
  /// Context-separated variant: `context` (public — e.g. a direction label
  /// plus a per-connection salt) is mixed into the root before the subkeys
  /// split, so schedules under the same master but different contexts share
  /// no key material and their containers do not cross-verify. An empty
  /// context yields exactly the plain derive(master) schedule.
  [[nodiscard]] static V2KeySchedule derive(std::span<const std::uint8_t> master,
                                            std::span<const std::uint8_t> context);
  /// Convenience for 64-bit seeds (registry, tests): the seed is expanded to
  /// a 16-byte master with SplitMix64, then derived as above.
  [[nodiscard]] static V2KeySchedule derive(std::uint64_t seed);

  /// The cover seed for message `nonce`, masked to the low `seed_bits` bits
  /// (the cover LFSR degree) and forced non-zero (LFSR constraint).
  [[nodiscard]] std::uint64_t cover_seed(std::uint64_t nonce, int seed_bits) const;
};

}  // namespace mhhea::crypto
