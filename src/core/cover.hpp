// The hiding-vector source: the paper's Random Number Generator module.
//
// Every MHHEA output block starts from an N-bit vector V read from a
// maximal-length LFSR (paper §3.6). LfsrCover is that register as a value
// type: copyable (copies share the register's immutable lookup tables) and
// jumpable — skip_blocks seeks any block index in O(log n) through
// Lfsr::jump. That random access is what the chunked pipeline of shard.hpp
// stands on: a plan worker positions its own copy at its chunk's first
// block and generates that chunk's covers without replaying the stream.
//
// The receiver never needs the cover: scrambling reads only the high half
// of V, which encryption never modifies, so KN1/KN2 are recomputable from
// the ciphertext block itself. The LFSR seed is therefore a *nonce*, not
// key material (tested in core_roundtrip_test.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "src/lfsr/lfsr.hpp"

namespace mhhea::core {

/// Maximal-length LFSR cover. For `bits` = 16 or 32 a single primitive LFSR
/// of that degree is stepped `bits` positions per block; for 64 two
/// degree-32 blocks are concatenated (our polynomial table tops out at
/// degree 32 — documented substitution). Every call takes the block width
/// and throws std::invalid_argument when it differs from the construction
/// width.
class LfsrCover {
 public:
  /// `seed` must be non-zero (LFSR constraint).
  LfsrCover(int bits, std::uint64_t seed);

  /// The next hiding vector; exactly the low `bits` bits are significant.
  [[nodiscard]] std::uint64_t next_block(int bits);
  /// Fill `out` with the next out.size() vectors (identical to repeated
  /// next_block() calls; long spans run the backend's multi-lane path).
  /// Returns out.size().
  std::size_t next_blocks(int bits, std::span<std::uint64_t> out);
  /// O(log n) jump-ahead: one cover block consumes a fixed number of LFSR
  /// steps, so skipping `n` blocks collapses to Lfsr::jump.
  void skip_blocks(int bits, std::uint64_t n);
  /// Rewind to the seed (the register's tables are kept, so this is cheap).
  void reset();
  /// Replace the seed (must be non-zero) and rewind to it; later reset()
  /// calls land on the new seed. The tables are reused.
  void reseed(std::uint64_t seed);
  /// Build the register's lazily built tables now (leap, jump and lane
  /// seeding), leaving the position unchanged, so that every copy taken
  /// afterwards shares them instead of building its own. Free once done.
  void warm();

  [[nodiscard]] int bits() const noexcept { return bits_; }

 private:
  lfsr::Lfsr lfsr_;
  int bits_;
  std::uint64_t seed_;
  bool warm_ = false;  // tables built (copies inherit the flag with them)
};

/// Convenience factory for an LFSR cover (the paper's is 16-bit).
[[nodiscard]] LfsrCover make_lfsr_cover(int bits, std::uint64_t seed);

}  // namespace mhhea::core
