// LFSR library tests: every table polynomial is *proved* primitive via the
// GF(2) order test, and for tractable degrees the maximal period is also
// verified empirically for both stepping forms — so the paper's "primitive
// feedback polynomial ensures a maximal-length sequence" claim is grounded.
#include "src/lfsr/lfsr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/cover.hpp"
#include "src/lfsr/polynomials.hpp"

namespace mhhea::lfsr {
namespace {

TEST(Gf2, MulKnownProducts) {
  // (x+1)(x+1) = x^2+1 over GF(2).
  EXPECT_EQ(gf2_mul(0b11, 0b11), 0b101u);
  // (x^2+x)(x+1) = x^3 + x.
  EXPECT_EQ(gf2_mul(0b110, 0b11), 0b1010u);
  EXPECT_EQ(gf2_mul(0, 0b1011), 0u);
  EXPECT_EQ(gf2_mul(1, 0b1011), 0b1011u);
}

TEST(Gf2, ModReduces) {
  const Polynomial m{3, 0b1011};  // x^3 + x + 1
  EXPECT_EQ(gf2_mod(0b1000, m), 0b011u);  // x^3 = x + 1
  EXPECT_EQ(gf2_mod(0b0101, m), 0b101u);  // already reduced
  EXPECT_EQ(gf2_mod(0, m), 0u);
}

TEST(Gf2, PowXCyclesWithOrder) {
  const Polynomial m{3, 0b1011};  // primitive, ord(x) = 7
  EXPECT_EQ(gf2_pow_x(0, m), 1u);
  EXPECT_EQ(gf2_pow_x(1, m), 0b10u);
  EXPECT_EQ(gf2_pow_x(7, m), 1u);
  EXPECT_NE(gf2_pow_x(3, m), 1u);
  EXPECT_EQ(gf2_pow_x(8, m), 0b10u);  // x^8 = x^(7+1) = x
}

TEST(Primitivity, RejectsReducible) {
  // x^4 + x^2 + 1 = (x^2+x+1)^2 — reducible.
  EXPECT_FALSE(is_primitive(Polynomial{4, 0b10101}));
}

TEST(Primitivity, RejectsIrreducibleButNotPrimitive) {
  // x^4+x^3+x^2+x+1 is irreducible but ord(x) = 5 != 15.
  EXPECT_FALSE(is_primitive(Polynomial{4, 0b11111}));
}

TEST(Primitivity, RejectsMissingConstantTerm) {
  EXPECT_FALSE(is_primitive(Polynomial{4, 0b11000}));  // x^4 + x^3
}

class PolynomialTable : public ::testing::TestWithParam<int> {};

TEST_P(PolynomialTable, EveryEntryIsPrimitive) {
  const int degree = GetParam();
  const Polynomial p = primitive_polynomial(degree);
  EXPECT_EQ(p.degree, degree);
  EXPECT_TRUE(is_primitive(p)) << "table entry for degree " << degree
                               << " is not primitive (mask 0x" << std::hex << p.mask << ")";
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, PolynomialTable, ::testing::Range(2, 33));

TEST(PolynomialTable, RejectsOutOfRangeDegrees) {
  EXPECT_THROW((void)primitive_polynomial(1), std::out_of_range);
  EXPECT_THROW((void)primitive_polynomial(33), std::out_of_range);
  EXPECT_THROW((void)prime_factors_2d_minus_1(0), std::out_of_range);
}

TEST(PolynomialTable, FactorsMultiplyBack) {
  // Each factor must divide 2^d - 1 (distinct primes; multiplicities vary).
  for (int d = 2; d <= 32; ++d) {
    const std::uint64_t n = (std::uint64_t{1} << d) - 1;
    for (std::uint64_t f : prime_factors_2d_minus_1(d)) {
      EXPECT_EQ(n % f, 0u) << "degree " << d << " factor " << f;
    }
  }
}

TEST(PolynomialFromExponents, BuildsMask) {
  const Polynomial p = polynomial_from_exponents(std::vector<int>{16, 15, 13, 4, 0});
  EXPECT_EQ(p.degree, 16);
  EXPECT_EQ(p.mask, (1u << 16) | (1u << 15) | (1u << 13) | (1u << 4) | 1u);
  EXPECT_THROW((void)polynomial_from_exponents(std::vector<int>{40}), std::out_of_range);
}

TEST(Lfsr, RejectsZeroSeedAndBadPoly) {
  EXPECT_THROW(Lfsr(primitive_polynomial(16), 0), std::invalid_argument);
  EXPECT_THROW(Lfsr(primitive_polynomial(16), 0x10000), std::invalid_argument);
  EXPECT_THROW(Lfsr(Polynomial{4, 0b11000}, 1), std::invalid_argument);
}

struct PeriodCase {
  int degree;
  Lfsr::Form form;
};

class LfsrPeriod : public ::testing::TestWithParam<PeriodCase> {};

TEST_P(LfsrPeriod, FullPeriodFromAnySmallSeed) {
  const auto [degree, form] = GetParam();
  Lfsr l(primitive_polynomial(degree), 1, form);
  const std::uint64_t start = l.state();
  std::uint64_t period = 0;
  do {
    (void)l.step();
    ++period;
  } while (l.state() != start && period <= l.max_period() + 1);
  EXPECT_EQ(period, l.max_period());
}

INSTANTIATE_TEST_SUITE_P(
    SmallDegreesBothForms, LfsrPeriod,
    ::testing::Values(PeriodCase{2, Lfsr::Form::fibonacci}, PeriodCase{2, Lfsr::Form::galois},
                      PeriodCase{3, Lfsr::Form::fibonacci}, PeriodCase{3, Lfsr::Form::galois},
                      PeriodCase{4, Lfsr::Form::fibonacci}, PeriodCase{4, Lfsr::Form::galois},
                      PeriodCase{5, Lfsr::Form::fibonacci}, PeriodCase{5, Lfsr::Form::galois},
                      PeriodCase{8, Lfsr::Form::fibonacci}, PeriodCase{8, Lfsr::Form::galois},
                      PeriodCase{12, Lfsr::Form::fibonacci}, PeriodCase{12, Lfsr::Form::galois},
                      PeriodCase{16, Lfsr::Form::fibonacci}, PeriodCase{16, Lfsr::Form::galois},
                      PeriodCase{17, Lfsr::Form::fibonacci},
                      PeriodCase{19, Lfsr::Form::fibonacci},
                      PeriodCase{20, Lfsr::Form::galois}),
    [](const auto& info) {
      return std::string("deg") + std::to_string(info.param.degree) +
             (info.param.form == Lfsr::Form::fibonacci ? "Fib" : "Gal");
    });

TEST(Lfsr, VisitsEveryNonZeroState) {
  Lfsr l(primitive_polynomial(8), 0xAB);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < l.max_period(); ++i) {
    seen.insert(l.state());
    (void)l.step();
  }
  EXPECT_EQ(seen.size(), 255u);
  EXPECT_EQ(seen.count(0), 0u);  // zero state is unreachable
}

TEST(Lfsr, StepBitsMatchesIndividualSteps) {
  Lfsr a(primitive_polynomial(16), 0xACE1);
  Lfsr b(primitive_polynomial(16), 0xACE1);
  const std::uint64_t packed = a.step_bits(16);
  std::uint64_t expect = 0;
  for (int i = 0; i < 16; ++i) expect |= static_cast<std::uint64_t>(b.step()) << i;
  EXPECT_EQ(packed, expect);
  EXPECT_EQ(a.state(), b.state());
}

TEST(Lfsr, NextBlockAdvancesDegreeSteps) {
  Lfsr a = make_hiding_vector_lfsr(0xACE1);
  Lfsr b = make_hiding_vector_lfsr(0xACE1);
  const std::uint64_t block = a.next_block();
  b.advance(16);
  EXPECT_EQ(block, b.state());
  EXPECT_LE(block, 0xFFFFu);
  EXPECT_NE(block, 0u);
}

TEST(LfsrJump, MatchesAdvanceForBothForms) {
  for (const Lfsr::Form form : {Lfsr::Form::fibonacci, Lfsr::Form::galois}) {
    for (const int degree : {2, 7, 16, 17, 23, 32}) {
      for (const std::uint64_t n : {0ull, 1ull, 2ull, 15ull, 16ull, 100ull, 12345ull}) {
        // 0x5EED is non-zero in the low bits of every degree in the sweep.
        Lfsr jumped(primitive_polynomial(degree), 0x5EED, form);
        Lfsr stepped = jumped;
        jumped.jump(n);
        stepped.advance(n);
        EXPECT_EQ(jumped.state(), stepped.state())
            << "degree=" << degree << " n=" << n << " form=" << static_cast<int>(form);
      }
    }
  }
}

TEST(LfsrJump, FullPeriodIsIdentity) {
  // Jumping by the register period (astronomically expensive to step) must
  // land back on the start state — the O(log n) distance is the point.
  for (const Lfsr::Form form : {Lfsr::Form::fibonacci, Lfsr::Form::galois}) {
    Lfsr l(primitive_polynomial(32), 0xDEADBEEF, form);
    const std::uint64_t start = l.state();
    l.jump(l.max_period());
    EXPECT_EQ(l.state(), start);
    // One full period plus a few: equivalent to the few alone.
    Lfsr few = l;
    few.advance(5);
    l.jump(l.max_period() + 5);
    EXPECT_EQ(l.state(), few.state());
  }
}

TEST(LfsrJump, ComposesWithNextBlock) {
  // Jump-ahead by k blocks == discarding k next_block() calls: the contract
  // LfsrCover::skip_blocks builds on.
  Lfsr jumped = make_hiding_vector_lfsr(0xACE1);
  Lfsr stepped = make_hiding_vector_lfsr(0xACE1);
  for (int i = 0; i < 37; ++i) (void)stepped.next_block();
  jumped.jump(37 * 16);
  EXPECT_EQ(jumped.state(), stepped.state());
  EXPECT_EQ(jumped.next_block(), stepped.next_block());
}

TEST(Lfsr, BlocksLookBalanced) {
  // Sanity check of the hiding-vector source: over many blocks, ones and
  // zeros should be near 50/50 (full statistical battery in attack tests).
  Lfsr l = make_hiding_vector_lfsr(0xBEEF);
  int ones = 0;
  const int kBlocks = 4096;
  for (int i = 0; i < kBlocks; ++i) {
    std::uint64_t v = l.next_block();
    for (int j = 0; j < 16; ++j) ones += (v >> j) & 1;
  }
  const double frac = static_cast<double>(ones) / (16.0 * kBlocks);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

TEST(LfsrCoverCopies, WarmedBaseSharesTablesAcrossThreads) {
  // The chunk pipeline's pattern: warm one cover, then take copies on
  // several threads, each seeking its own block and generating covers. The
  // copies share the base's cover tables, which warm() built before any
  // copy existed; afterwards they are only read (TSan runs this in CI).
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBlocks = 1000;
  for (const int bits : {16, 32, 64}) {
    core::LfsrCover base(bits, 0xACE1);
    base.warm();
    core::LfsrCover serial = base;
    std::vector<std::uint64_t> want(kThreads * kBlocks);
    for (auto& b : want) b = serial.next_block(bits);
    std::vector<std::vector<std::uint64_t>> got(kThreads, std::vector<std::uint64_t>(kBlocks));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        core::LfsrCover copy = base;
        copy.skip_blocks(bits, t * kBlocks);
        (void)copy.next_blocks(bits, got[t]);
      });
    }
    for (auto& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(std::equal(got[t].begin(), got[t].end(), want.begin() + t * kBlocks))
          << "bits=" << bits << " thread=" << t;
    }
  }
}

}  // namespace
}  // namespace mhhea::lfsr
