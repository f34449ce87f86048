// Linear Feedback Shift Registers (Fibonacci and Galois forms).
//
// This is the paper's "Random Number Generator" module (§3.6): the hiding
// vector V is read from a maximal-length LFSR. step() is the normative
// bit-serial register; every faster path (the leap tables behind
// next_block, the jump matrices, the backend's cover and Geffe kernels) is
// derived from it by probing, so LfsrCover's covers are bit-exact with it
// (lfsr_test.cpp and the reference-model sweep pin this).
//
// Stepping conventions (derived from the polynomial, see lfsr_test.cpp):
//   state bit i holds sequence element s_{n+i}; the oldest bit (s_n) is
//   bit 0 and is emitted by step(); the new bit s_{n+d} enters at bit d-1.
//   Fibonacci: s_{n+d} = parity(state & (mask & ~x^d term)).
//   Galois:    out = bit 0; state >>= 1; if out, state ^= (mask >> 1).
// Both forms realise a sequence whose period is the order of x mod the
// polynomial — 2^d - 1 when the polynomial is primitive.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "src/backend/backend.hpp"
#include "src/lfsr/polynomials.hpp"

namespace mhhea::lfsr {

class Lfsr {
 public:
  enum class Form { fibonacci, galois };

  /// Construct with a feedback polynomial and a non-zero seed (low `degree`
  /// bits are used). Throws std::invalid_argument on a zero seed or a
  /// malformed polynomial (an LFSR parked at state 0 never leaves it).
  Lfsr(Polynomial poly, std::uint64_t seed, Form form = Form::fibonacci);

  /// Shift once; returns the output bit (the oldest state bit).
  bool step() noexcept;

  /// Shift `n` (<=64) times; output bits packed LSB-first (first bit out at
  /// bit 0 of the result).
  ///
  /// Fibonacci registers take the word-wide fast path: state bit i holds
  /// sequence element s_{n+i} (see the stepping conventions above), so the
  /// next `degree` output bits ARE the current state and a whole
  /// degree-sized run costs one leap-table application (next_block) instead
  /// of `degree` serial shifts. Galois registers fall back to bit-serial
  /// stepping — their state is not a window of the output sequence. Both
  /// paths are bit-identical to n plain step() calls; the leap tables are
  /// built lazily on first use (hence not noexcept).
  [[nodiscard]] std::uint64_t step_bits(int n);

  /// Advance `n` steps, discarding output.
  void advance(std::uint64_t n) noexcept;

  /// Advance `n` steps in O(log n) time — bit-identical to advance(n).
  ///
  /// The single-step transition is GF(2)-linear for both register forms, so
  /// jumping is multiplication by the n-th power of the transition matrix,
  /// computed by square-and-multiply. Like the leap tables, the matrix is
  /// derived by probing step() on basis states, so the two fast paths can
  /// never drift from the normative bit-serial register. This is what lets a
  /// shard worker seed its cover/keystream state at an arbitrary block
  /// offset without replaying the stream (~2.5k word ops per call for the
  /// paper's degree-16 register vs. n sequential steps).
  void jump(std::uint64_t n);

  /// Advance `degree` steps and return the new state — one "fresh" block.
  /// This is the hiding-vector source: for the paper's 16-bit LFSR, each
  /// call yields the next V ("Generate 16-bit randomly and set them in V").
  ///
  /// Implemented as a GF(2) leap: the `degree`-step transition is linear, so
  /// it collapses to a handful of byte-indexed table lookups (built lazily on
  /// first use and shared across copies). Bit-identical to advance(degree) —
  /// the table is derived by running step() on basis states.
  [[nodiscard]] std::uint64_t next_block();

  /// Write the next `n` next_block() values to `out`, little-endian, in
  /// backend::state_bytes(degree) bytes each — the hiding-vector port the
  /// cover walk reads. Runs the active backend's cover_blocks kernel over
  /// cover_tables(); bit-identical to the serial chain for every n and
  /// backend, including the state left behind.
  void write_blocks(std::uint8_t* out, std::size_t n);

  /// Fill `out` with successive next_block() values: write_blocks into the
  /// words' own bytes, widened in place.
  void next_blocks(std::span<std::uint64_t> out);

  /// Jump to an explicit state (low `degree` bits; must be non-zero after
  /// masking, or std::invalid_argument). Lets a resettable cover source
  /// re-seed without rebuilding the leap tables.
  void set_state(std::uint64_t state);

  /// Zero the register state with a non-elidable store (util::secure_wipe).
  /// For key-bearing registers (the Geffe components, whose seeds ARE the
  /// YAEA-S key) the owner calls this on destruction; cover registers don't
  /// need it — their seed is a nonce, not key material (see cover.hpp). The
  /// register is unusable afterwards (state 0 is the parked state) until
  /// set_state() re-seeds it.
  void wipe_state() noexcept;

  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }
  [[nodiscard]] int degree() const noexcept { return poly_.degree; }
  [[nodiscard]] Form form() const noexcept { return form_; }
  [[nodiscard]] const Polynomial& polynomial() const noexcept { return poly_; }

  /// Maximum period for this degree: 2^degree - 1.
  [[nodiscard]] std::uint64_t max_period() const noexcept {
    return (std::uint64_t{1} << poly_.degree) - 1;
  }

  /// The degree-step leap tables as shared plain data — what the backend
  /// kernels gather from. Built lazily (first call pays the probe +
  /// expansion; copies share the result). The paper's normative register is
  /// still step(): these tables are derived from it, never the reverse.
  [[nodiscard]] std::shared_ptr<const backend::LinearMapTables> shared_leap_tables();

  /// Byte tables of the `steps`-step transition map M^steps, built by
  /// square-and-multiply on the probed one-step matrix — the general form
  /// of the leap tables (steps == degree). This is how the Geffe kernel's
  /// 64-step update map and the lane-stride maps are made; each call builds
  /// fresh tables (callers cache what they keep).
  [[nodiscard]] backend::LinearMapTables power_tables(std::uint64_t steps);

  /// What backend::cover_blocks reads: the leap tables plus the nibble
  /// tables of the lane stride M^(kCoverLanes * degree), from
  /// power_tables. Built lazily, with the step matrix and leap tables on
  /// the way, and shared by copies.
  const backend::CoverTables& cover_tables();

 private:
  /// Per-byte leap tables: state after `degree` steps is the XOR of
  /// leap[b][byte b of state] over the (up to 4) state bytes.
  using LeapTables = backend::LinearMapTables;
  /// Columns of the one-step transition matrix (jump's starting point).
  using StepMatrix = std::array<std::uint32_t, 32>;

  const LeapTables& leap_tables();
  const StepMatrix& step_matrix();
  /// M applied to basis columns: r[j] <- a * v for each state bit j.
  static std::uint32_t mat_vec(const StepMatrix& a, std::uint32_t v, int d) noexcept;

  Polynomial poly_;
  Form form_;
  std::uint64_t fib_mask_;     // taps for the Fibonacci feedback parity
  std::uint64_t galois_mask_;  // XOR constant for the Galois form
  std::uint64_t state_;
  std::shared_ptr<const LeapTables> leap_;    // built lazily, shared by copies
  std::shared_ptr<const StepMatrix> step_m_;  // built lazily, shared by copies
  std::shared_ptr<const backend::CoverTables> cover_;  // built lazily, shared by copies
};

/// The paper's hiding-vector generator: degree-16 primitive LFSR, Fibonacci
/// form. Seed must be non-zero in the low 16 bits.
[[nodiscard]] Lfsr make_hiding_vector_lfsr(std::uint16_t seed);

}  // namespace mhhea::lfsr
