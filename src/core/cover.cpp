#include "src/core/cover.hpp"

#include <stdexcept>

#include "src/util/bits.hpp"

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
  std::uint64_t v = 0;
  (void)next_blocks(bits, std::span(&v, 1));
  return v;
}

void LfsrCover::next_covers(std::uint8_t* out, std::size_t n) {
  lfsr_.write_blocks(out, bits_ == 64 ? 2 * n : n);
}

std::size_t LfsrCover::next_blocks(int bits, std::span<std::uint64_t> out) {
  check_width(bits, bits_);
  next_covers(reinterpret_cast<std::uint8_t*>(out.data()), out.size());
  util::with_vector_bits(bits_, [&]<int N>() { util::widen_le<N / 8>(out); });
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
  // Building the cover tables builds the step matrix a jump uses.
  (void)lfsr_.cover_tables();
}

LfsrCover make_lfsr_cover(int bits, std::uint64_t seed) { return LfsrCover(bits, seed); }

}  // namespace mhhea::core
