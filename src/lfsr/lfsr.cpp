#include "src/lfsr/lfsr.hpp"

#include <stdexcept>

#include "src/backend/backend.hpp"
#include "src/util/bits.hpp"
#include "src/util/secret.hpp"

namespace mhhea::lfsr {
namespace {

/// Expand transition-matrix columns (basis[b] = image of state bit b) to
/// per-byte XOR tables by linearity: T[v] = T[v minus lowest bit] XOR
/// basis[lowest bit]. Shared by the degree-leap and arbitrary-power builds.
void expand_columns(const std::array<std::uint32_t, 32>& basis, int degree,
                    backend::LinearMapTables& tables) {
  for (int byte = 0; byte < 4; ++byte) {
    auto& t = tables.t[static_cast<std::size_t>(byte)];
    t[0] = 0;
    for (unsigned v = 1; v < 256; ++v) {
      const int bit = byte * 8 + std::countr_zero(v);
      const std::uint32_t col = bit < degree ? basis[static_cast<std::size_t>(bit)] : 0;
      t[v] = t[v & (v - 1)] ^ col;
    }
  }
}

}  // namespace

Lfsr::Lfsr(Polynomial poly, std::uint64_t seed, Form form)
    : poly_(poly),
      form_(form),
      fib_mask_(poly.mask & util::mask64(poly.degree)),
      galois_mask_(poly.mask >> 1),
      state_(seed & util::mask64(poly.degree)) {
  if (poly.degree < 2 || poly.degree > 32 || util::get_bit(poly.mask, 0) == 0 ||
      util::get_bit(poly.mask, poly.degree) == 0) {
    throw std::invalid_argument("Lfsr: malformed feedback polynomial");
  }
  if (state_ == 0) {
    throw std::invalid_argument("Lfsr: seed must be non-zero in the low degree bits");
  }
}

bool Lfsr::step() noexcept {
  const bool out = (state_ & 1) != 0;
  if (form_ == Form::fibonacci) {
    const std::uint64_t fb = util::parity64(state_ & fib_mask_);
    state_ = (state_ >> 1) | (fb << (poly_.degree - 1));
  } else {
    state_ >>= 1;
    if (out) state_ ^= galois_mask_;
  }
  return out;
}

std::uint64_t Lfsr::step_bits(int n) {
  std::uint64_t v = 0;
  int filled = 0;
  if (form_ == Form::fibonacci) {
    // Whole-degree runs: the Fibonacci state is the next `degree` output
    // bits, so emit it verbatim and leap the register forward in one
    // table-lookup chain. (next_block() is bit-identical to advance(degree).)
    while (n - filled >= poly_.degree) {
      v |= state_ << filled;
      filled += poly_.degree;
      (void)next_block();
    }
    // Sub-degree tail: emit the low bits of the state, then advance the
    // register by exactly that many serial steps so interleaved callers see
    // the same stream as n plain step() calls.
    if (filled < n) {
      v |= (state_ & util::mask64(n - filled)) << filled;
      for (int i = filled; i < n; ++i) (void)step();
    }
    return v;
  }
  for (int i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(step()) << i;
  return v;
}

void Lfsr::advance(std::uint64_t n) noexcept {
  for (std::uint64_t i = 0; i < n; ++i) (void)step();
}

const Lfsr::StepMatrix& Lfsr::step_matrix() {
  if (step_m_ == nullptr) {
    // Column b: where basis state 1<<b lands after a single step() — probing
    // the register keeps both forms bit-exact. Cached and shared by copies
    // (like the leap tables) since sharded covers jump once per worker.
    auto m = std::make_shared<StepMatrix>();
    for (int b = 0; b < poly_.degree; ++b) {
      Lfsr probe(poly_, std::uint64_t{1} << b, form_);
      (void)probe.step();
      (*m)[static_cast<std::size_t>(b)] = static_cast<std::uint32_t>(probe.state_);
    }
    step_m_ = std::move(m);
  }
  return *step_m_;
}

std::uint32_t Lfsr::mat_vec(const StepMatrix& a, std::uint32_t v, int d) noexcept {
  std::uint32_t r = 0;
  while (v != 0) {
    const int b = std::countr_zero(v);
    if (b >= d) break;  // state is confined to the low d bits
    r ^= a[static_cast<std::size_t>(b)];
    v &= v - 1;
  }
  return r;
}

void Lfsr::jump(std::uint64_t n) {
  const int d = poly_.degree;
  StepMatrix m = step_matrix();
  // Square-and-multiply: fold M^(2^k) into the state for each set bit of n.
  std::uint32_t s = static_cast<std::uint32_t>(state_);
  while (n != 0) {
    if ((n & 1) != 0) s = mat_vec(m, s, d);
    n >>= 1;
    if (n != 0) {
      StepMatrix sq{};
      for (int j = 0; j < d; ++j) {
        sq[static_cast<std::size_t>(j)] = mat_vec(m, m[static_cast<std::size_t>(j)], d);
      }
      m = sq;
    }
  }
  state_ = s;
}

backend::LinearMapTables Lfsr::power_tables(std::uint64_t steps) {
  const int d = poly_.degree;
  StepMatrix m = step_matrix();
  // Square-and-multiply on whole matrices: r starts as the identity and
  // accumulates M^(2^k) for each set bit of `steps`.
  std::array<std::uint32_t, 32> r{};
  for (int b = 0; b < d; ++b) r[static_cast<std::size_t>(b)] = std::uint32_t{1} << b;
  while (steps != 0) {
    if ((steps & 1) != 0) {
      for (int j = 0; j < d; ++j) {
        r[static_cast<std::size_t>(j)] = mat_vec(m, r[static_cast<std::size_t>(j)], d);
      }
    }
    steps >>= 1;
    if (steps != 0) {
      StepMatrix sq{};
      for (int j = 0; j < d; ++j) {
        sq[static_cast<std::size_t>(j)] = mat_vec(m, m[static_cast<std::size_t>(j)], d);
      }
      m = sq;
    }
  }
  backend::LinearMapTables out;
  expand_columns(r, d, out);
  return out;
}

const Lfsr::LeapTables& Lfsr::leap_tables() {
  if (leap_ == nullptr) {
    auto tables = std::make_shared<LeapTables>();
    // Column b of the degree-step transition matrix: the state a single-bit
    // start state reaches after `degree` plain steps. Deriving the tables
    // from step() itself guarantees bit-exactness for both register forms.
    std::array<std::uint32_t, 32> basis{};
    for (int b = 0; b < poly_.degree; ++b) {
      Lfsr probe(poly_, std::uint64_t{1} << b, form_);
      probe.advance(static_cast<std::uint64_t>(poly_.degree));
      basis[static_cast<std::size_t>(b)] = static_cast<std::uint32_t>(probe.state_);
    }
    expand_columns(basis, poly_.degree, *tables);
    leap_ = std::move(tables);
  }
  return *leap_;
}

std::shared_ptr<const backend::LinearMapTables> Lfsr::shared_leap_tables() {
  (void)leap_tables();
  return leap_;
}

std::uint64_t Lfsr::next_block() {
  const LeapTables& t = leap_tables();
  const auto s = static_cast<std::uint32_t>(state_);
  state_ = poly_.degree <= 16 ? t.apply<2>(s) : t.apply<4>(s);
  return state_;
}

const backend::CoverTables& Lfsr::cover_tables() {
  if (cover_ == nullptr) {
    auto c = std::make_shared<backend::CoverTables>();
    c->leap = shared_leap_tables();
    c->degree = poly_.degree;
    // Row n * planes + q: byte q of the stride map's image of every value
    // of state nibble n, by linearity from the byte tables.
    const int planes = backend::state_bytes(poly_.degree);
    const backend::LinearMapTables stride =
        power_tables(backend::kCoverLanes * static_cast<std::uint64_t>(poly_.degree));
    c->stride.resize(static_cast<std::size_t>(2 * planes * planes));
    for (int n = 0; n < 2 * planes; ++n) {
      const auto& bytes = stride.t[static_cast<std::size_t>(n / 2)];
      for (int q = 0; q < planes; ++q) {
        auto& row = c->stride[static_cast<std::size_t>(n * planes + q)];
        for (unsigned v = 0; v < 16; ++v) {
          row[v] = static_cast<std::uint8_t>(bytes[v << (4 * (n % 2))] >> (8 * q));
        }
      }
    }
    cover_ = std::move(c);
  }
  return *cover_;
}

void Lfsr::write_blocks(std::uint8_t* out, std::size_t n) {
  const backend::CoverTables& t = cover_tables();
  auto s = static_cast<std::uint32_t>(state_);
  backend::active().cover_blocks(t, s, out, n);
  state_ = s;
}

void Lfsr::next_blocks(std::span<std::uint64_t> out) {
  write_blocks(reinterpret_cast<std::uint8_t*>(out.data()), out.size());
  backend::with_state_bytes(poly_.degree, [&]<int Bytes>() { util::widen_le<Bytes>(out); });
}

void Lfsr::set_state(std::uint64_t state) {
  state &= util::mask64(poly_.degree);
  if (state == 0) {
    throw std::invalid_argument("Lfsr: state must be non-zero in the low degree bits");
  }
  state_ = state;
}

void Lfsr::wipe_state() noexcept { util::secure_wipe_object(state_); }

Lfsr make_hiding_vector_lfsr(std::uint16_t seed) {
  return Lfsr(primitive_polynomial(16), seed, Lfsr::Form::fibonacci);
}

}  // namespace mhhea::lfsr
