#include "src/core/cover.hpp"

#include <array>
#include <stdexcept>

#include "src/backend/backend.hpp"

namespace mhhea::core {

namespace {
lfsr::Lfsr make_lfsr_for(int bits, std::uint64_t seed) {
  const int degree = bits >= 64 ? 32 : bits;
  return lfsr::Lfsr(lfsr::primitive_polynomial(degree), seed);
}

void check_width(int bits, int expected) {
  if (bits != expected) throw std::invalid_argument("LfsrCover: block width mismatch");
}
}  // namespace

LfsrCover::LfsrCover(int bits, std::uint64_t seed)
    : lfsr_(make_lfsr_for(bits, seed)), bits_(bits), seed_(seed) {
  if (bits != 16 && bits != 32 && bits != 64) {
    throw std::invalid_argument("LfsrCover: bits must be 16, 32 or 64");
  }
}

std::uint64_t LfsrCover::next_block(int bits) {
  check_width(bits, bits_);
  if (bits_ == 64) {
    const std::uint64_t lo = lfsr_.next_block();
    const std::uint64_t hi = lfsr_.next_block();
    return lo | (hi << 32);
  }
  return lfsr_.next_block();
}

std::size_t LfsrCover::next_blocks(int bits, std::span<std::uint64_t> out) {
  check_width(bits, bits_);
  if (bits_ == 64) {
    // Delegate the two-register composition to next_block — one source of
    // truth for the 64-bit layout (this is the cold configuration).
    for (std::uint64_t& b : out) b = next_block(bits);
  } else {
    lfsr_.next_blocks(out);
  }
  return out.size();
}

void LfsrCover::skip_blocks(int bits, std::uint64_t n) {
  check_width(bits, bits_);
  // Every cover block consumes exactly `bits_` register steps: the degree
  // matches the width for 16/32, and the 64-bit composition draws two
  // 32-step blocks from its degree-32 register.
  lfsr_.jump(n * static_cast<std::uint64_t>(bits_));
}

void LfsrCover::reset() { lfsr_.set_state(seed_); }

void LfsrCover::reseed(std::uint64_t seed) {
  if (seed == 0) throw std::invalid_argument("LfsrCover: seed must be non-zero");
  seed_ = seed;
  lfsr_.set_state(seed_);
}

void LfsrCover::warm() {
  if (warm_) return;
  const std::uint64_t state = lfsr_.state();
  // A span long enough for the multi-lane path builds the leap and lane
  // tables; a jump builds the step matrix.
  std::array<std::uint64_t, 2 * backend::kLfsrLaneBlocks> scratch;
  (void)next_blocks(bits_, scratch);
  skip_blocks(bits_, 1);
  lfsr_.set_state(state);
  warm_ = true;
}

LfsrCover make_lfsr_cover(int bits, std::uint64_t seed) { return LfsrCover(bits, seed); }

}  // namespace mhhea::core
