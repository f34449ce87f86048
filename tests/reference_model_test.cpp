// Differential reference-model harness (in the spirit of SMAC's golden-
// output corpus tests): deliberately naive, bit-at-a-time reference
// implementations of the LFSR stepping, the Geffe keystream, the MHHEA
// scramble/embed block walk (continuous and framed), the seal container and
// HHEA — written independently from first principles (the paper's
// conventions), NOT by calling into src/. The production word-wide paths
// (leap-table step_bits, bulk Geffe, frame-batched cores, sharded planners)
// must reproduce the naive streams bit for bit over randomized seeds, keys,
// message sizes 0..20000 and shard counts {1, 2, 4, 8}.
//
// If one of these sweeps fails, the *production* fast path drifted: the
// reference models are the executable spec. Keep them naive — their value is
// that they share no code (and no bugs) with the word-wide formulations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/core/shard.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/yaea.hpp"
#include "src/lfsr/lfsr.hpp"
#include "src/lfsr/polynomials.hpp"
#include "src/exec/executor.hpp"

namespace mhhea {
namespace {

// ---------------------------------------------------------------------
// Reference models (independent naive code — do not "fix" by delegating to
// src/, that would defeat the differential check).

namespace ref {

/// Polynomial exponent sets transcribed independently from the standard
/// tables (Xilinx XAPP052 / Peterson & Weldon) for every degree the
/// production ciphers use.
std::vector<int> exponents_for(int degree) {
  switch (degree) {
    case 3: return {3, 1, 0};
    case 16: return {16, 15, 13, 4, 0};
    case 17: return {17, 3, 0};
    case 19: return {19, 5, 2, 1, 0};
    case 23: return {23, 5, 0};
    case 32: return {32, 22, 2, 1, 0};
    default: throw std::logic_error("ref: no polynomial for this degree");
  }
}

/// Naive LFSR over an explicit bit array. Conventions per the repo spec:
/// bit i holds sequence element s_{n+i}; step() emits bit 0; Fibonacci
/// feedback is the XOR of the tap bits (every exponent below the degree,
/// including x^0) and enters at bit degree-1; Galois shifts down and XORs
/// the reduced mask into bits e-1 for every exponent e >= 1 when the output
/// bit was set.
struct Lfsr {
  int degree = 0;
  bool galois = false;
  std::vector<int> exponents;
  std::vector<int> bits;

  Lfsr(int d, std::uint64_t seed, bool galois_form = false)
      : degree(d), galois(galois_form), exponents(exponents_for(d)) {
    bits.resize(static_cast<std::size_t>(d));
    for (int i = 0; i < d; ++i) bits[static_cast<std::size_t>(i)] = (seed >> i) & 1;
  }

  int step() {
    const int out = bits[0];
    if (!galois) {
      int fb = 0;
      for (int e : exponents) {
        if (e < degree) fb ^= bits[static_cast<std::size_t>(e)];
      }
      for (int i = 0; i + 1 < degree; ++i) bits[static_cast<std::size_t>(i)] = bits[static_cast<std::size_t>(i) + 1];
      bits[static_cast<std::size_t>(degree) - 1] = fb;
      return out;
    }
    for (int i = 0; i + 1 < degree; ++i) bits[static_cast<std::size_t>(i)] = bits[static_cast<std::size_t>(i) + 1];
    bits[static_cast<std::size_t>(degree) - 1] = 0;
    if (out != 0) {
      for (int e : exponents) {
        if (e >= 1) bits[static_cast<std::size_t>(e) - 1] ^= 1;
      }
    }
    return out;
  }

  [[nodiscard]] std::uint64_t state() const {
    std::uint64_t s = 0;
    for (int i = 0; i < degree; ++i) {
      s |= static_cast<std::uint64_t>(bits[static_cast<std::size_t>(i)]) << i;
    }
    return s;
  }
};

/// Naive Geffe generator: one step of each register per keystream bit,
/// z = (a & b) | (~a & c); bytes are 8 bits LSB-first.
struct Geffe {
  Lfsr a, b, c;
  Geffe(std::uint64_t sa, std::uint64_t sb, std::uint64_t sc)
      : a(17, sa), b(19, sb), c(23, sc) {}

  int bit() {
    const int av = a.step();
    const int bv = b.step();
    const int cv = c.step();
    return (av & bv) | ((1 - av) & cv);
  }

  std::uint8_t byte() {
    std::uint8_t v = 0;
    for (int i = 0; i < 8; ++i) v = static_cast<std::uint8_t>(v | (bit() << i));
    return v;
  }

  std::vector<std::uint8_t> bytes(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& o : out) o = byte();
    return out;
  }
};

/// Naive hiding-vector source: the degree-N register (degree 32 for the
/// 64-bit composition) stepped `width` positions per block, state read out
/// as the next vector.
struct Cover {
  Lfsr reg;
  int width;
  Cover(int vector_bits, std::uint64_t seed)
      : reg(vector_bits >= 64 ? 32 : vector_bits, seed), width(vector_bits) {}

  /// The next hiding vector as vector of bit values, LSB first.
  std::vector<int> next_v() {
    std::vector<int> v(static_cast<std::size_t>(width));
    if (width == 64) {
      for (int i = 0; i < 32; ++i) reg.step();
      for (int i = 0; i < 32; ++i) v[static_cast<std::size_t>(i)] = static_cast<int>((reg.state() >> i) & 1);
      for (int i = 0; i < 32; ++i) reg.step();
      for (int i = 0; i < 32; ++i) v[32 + static_cast<std::size_t>(i)] = static_cast<int>((reg.state() >> i) & 1);
      return v;
    }
    for (int i = 0; i < width; ++i) reg.step();
    for (int i = 0; i < width; ++i) v[static_cast<std::size_t>(i)] = static_cast<int>((reg.state() >> i) & 1);
    return v;
  }
};

std::vector<int> bits_of(std::span<const std::uint8_t> bytes) {
  std::vector<int> bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 0; i < 8; ++i) bits.push_back((b >> i) & 1);
  }
  return bits;
}

std::vector<std::uint8_t> bytes_of(const std::vector<int>& bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bytes[i / 8] = static_cast<std::uint8_t>(bytes[i / 8] | (bits[i] << (i % 8)));
  }
  return bytes;
}

/// One raw key pair as supplied (a, b); canonicalised at use.
using KeyPairs = std::vector<std::pair<int, int>>;

struct Range {
  int kn1 = 0;
  int kn2 = 0;
};

/// Paper §II step 2, bit by bit: read the loc_bits-wide scramble field from
/// V's high half (bit j = V[(K1+j) mod H + H]), XOR with K1, shift by d with
/// wraparound, canonicalise.
Range scramble(const std::vector<int>& v, int k1, int k2, int h, int lb) {
  const int lo = std::min(k1, k2);
  const int d = std::max(k1, k2) - lo;
  int field = 0;
  for (int j = 0; j < lb; ++j) {
    field |= v[static_cast<std::size_t>((lo + j) % h + h)] << j;
  }
  int kn1 = field ^ lo;
  int kn2 = (kn1 + d) % h;
  if (kn1 > kn2) std::swap(kn1, kn2);
  return {kn1, kn2};
}

int log2h(int h) {
  int lb = 0;
  while ((1 << lb) < h) ++lb;
  return lb;
}

/// The naive MHHEA block walk, continuous or framed: one bit at a time into
/// successive hiding vectors, the frame budget (vector_bits message bits per
/// frame) replayed longhand.
std::vector<std::uint8_t> mhhea_encrypt(std::span<const std::uint8_t> msg,
                                        const KeyPairs& key, std::uint64_t seed,
                                        int vector_bits, bool framed) {
  const int h = vector_bits / 2;
  const int lb = log2h(h);
  Cover cover(vector_bits, seed);
  const std::vector<int> mbits = bits_of(msg);
  std::vector<std::uint8_t> ct;
  std::size_t m = 0;
  std::size_t block = 0;
  int frame_rem = 0;
  while (m < mbits.size()) {
    const std::size_t remaining = mbits.size() - m;
    if (framed && frame_rem == 0) {
      frame_rem = static_cast<int>(std::min<std::size_t>(
          remaining, static_cast<std::size_t>(vector_bits)));
    }
    std::vector<int> v = cover.next_v();
    const auto [k1, k2] = key[block % key.size()];
    const int lo = std::min(k1, k2);
    const Range r = scramble(v, k1, k2, h, lb);
    const int width = r.kn2 - r.kn1 + 1;
    const int cap = framed ? std::min(width, frame_rem) : width;
    const int w = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(cap), remaining));
    for (int t = 0; t < w; ++t) {
      v[static_cast<std::size_t>(r.kn1 + t)] = mbits[m + static_cast<std::size_t>(t)] ^ ((lo >> (t % lb)) & 1);
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(vector_bits); i += 8) {
      std::uint8_t b = 0;
      for (std::size_t j = 0; j < 8; ++j) b = static_cast<std::uint8_t>(b | (v[i + j] << j));
      ct.push_back(b);
    }
    m += static_cast<std::size_t>(w);
    if (framed) frame_rem -= w;
    ++block;
  }
  return ct;
}

/// The inverse naive walk: recompute the range from each ciphertext block's
/// high half and pull the bits back out.
std::vector<std::uint8_t> mhhea_decrypt(std::span<const std::uint8_t> ct,
                                        const KeyPairs& key, std::size_t msg_bytes,
                                        int vector_bits, bool framed) {
  const int h = vector_bits / 2;
  const int lb = log2h(h);
  const std::size_t bb = static_cast<std::size_t>(vector_bits) / 8;
  const std::size_t total = msg_bytes * 8;
  std::vector<int> mbits;
  std::size_t block = 0;
  int frame_rem = 0;
  std::size_t pos = 0;
  while (mbits.size() < total) {
    if (pos + bb > ct.size()) throw std::invalid_argument("ref: ciphertext too short");
    std::vector<int> v(static_cast<std::size_t>(vector_bits));
    for (std::size_t i = 0; i < bb; ++i) {
      for (std::size_t j = 0; j < 8; ++j) v[i * 8 + j] = (ct[pos + i] >> j) & 1;
    }
    pos += bb;
    const std::size_t remaining = total - mbits.size();
    if (framed && frame_rem == 0) {
      frame_rem = static_cast<int>(std::min<std::size_t>(
          remaining, static_cast<std::size_t>(vector_bits)));
    }
    const auto [k1, k2] = key[block % key.size()];
    const int lo = std::min(k1, k2);
    const Range r = scramble(v, k1, k2, h, lb);
    const int width = r.kn2 - r.kn1 + 1;
    const int cap = framed ? std::min(width, frame_rem) : width;
    const int w = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(cap), remaining));
    for (int t = 0; t < w; ++t) {
      mbits.push_back(v[static_cast<std::size_t>(r.kn1 + t)] ^ ((lo >> (t % lb)) & 1));
    }
    if (framed) frame_rem -= w;
    ++block;
  }
  return bytes_of(mbits);
}

/// The naive HHEA walk: the fixed (unscrambled) range [lo, lo+span], message
/// bits deposited verbatim (no data XOR).
std::vector<std::uint8_t> hhea_encrypt(std::span<const std::uint8_t> msg,
                                       const KeyPairs& key, std::uint64_t seed,
                                       int vector_bits, bool framed) {
  Cover cover(vector_bits, seed);
  const std::vector<int> mbits = bits_of(msg);
  std::vector<std::uint8_t> ct;
  std::size_t m = 0;
  std::size_t block = 0;
  int frame_rem = 0;
  while (m < mbits.size()) {
    const std::size_t remaining = mbits.size() - m;
    if (framed && frame_rem == 0) {
      frame_rem = static_cast<int>(std::min<std::size_t>(
          remaining, static_cast<std::size_t>(vector_bits)));
    }
    std::vector<int> v = cover.next_v();
    const auto [k1, k2] = key[block % key.size()];
    const int lo = std::min(k1, k2);
    const int n = std::max(k1, k2) - lo + 1;
    const int cap = framed ? std::min(n, frame_rem) : n;
    const int w = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(cap), remaining));
    for (int t = 0; t < w; ++t) v[static_cast<std::size_t>(lo + t)] = mbits[m + static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < static_cast<std::size_t>(vector_bits); i += 8) {
      std::uint8_t b = 0;
      for (std::size_t j = 0; j < 8; ++j) b = static_cast<std::uint8_t>(b | (v[i + j] << j));
      ct.push_back(b);
    }
    m += static_cast<std::size_t>(w);
    if (framed) frame_rem -= w;
    ++block;
  }
  return ct;
}

/// The naive sealed container minus its MAC trailer: 24-byte header
/// ("MHEA", version 2, flags, method and reserved zero bytes, message bit
/// length LE64, nonce LE64 = 0) ahead of the blocks under cover seed `seed`.
std::vector<std::uint8_t> seal(std::span<const std::uint8_t> msg, const KeyPairs& key,
                               std::uint64_t seed, int vector_bits, bool framed) {
  std::vector<std::uint8_t> out = {'M', 'H', 'E', 'A', 2};
  int code = 0;
  if (vector_bits == 32) code = 1;
  if (vector_bits == 64) code = 2;
  out.push_back(static_cast<std::uint8_t>((framed ? 1 : 0) | (code << 1)));
  out.push_back(0);
  out.push_back(0);
  const std::uint64_t nbits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>((nbits >> (8 * i)) & 0xFF));
  out.insert(out.end(), 8, 0);  // nonce 0
  const std::vector<std::uint8_t> ct = mhhea_encrypt(msg, key, seed, vector_bits, framed);
  out.insert(out.end(), ct.begin(), ct.end());
  return out;
}

}  // namespace ref

// ---------------------------------------------------------------------
// Shared sweep scaffolding.

constexpr int kShardCounts[] = {1, 2, 4, 8};

/// Message sizes 0..20000 (bytes): every boundary shape — empty, sub-frame,
/// exact/crossing frame multiples, shard-threshold neighbours, big.
const std::vector<std::size_t> kSizes = {0,  1,  2,   3,   5,    8,    15,   16,   17,
                                         31, 64, 127, 333, 1024, 4099, 20000};

std::vector<std::uint8_t> random_message(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return msg;
}

/// A random raw key: L pairs of values legal for `params`, as both the
/// reference's pair list and the production core::Key.
std::pair<ref::KeyPairs, core::Key> random_key(std::mt19937_64& rng,
                                               const core::BlockParams& params) {
  const int L = 1 + static_cast<int>(rng() % 8);
  ref::KeyPairs raw;
  std::vector<core::KeyPair> pairs;
  for (int i = 0; i < L; ++i) {
    const int a = static_cast<int>(rng() % static_cast<std::uint64_t>(params.half()));
    const int b = static_cast<int>(rng() % static_cast<std::uint64_t>(params.half()));
    raw.emplace_back(a, b);
    pairs.push_back({static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)});
  }
  return {raw, core::Key(pairs, params)};
}

std::uint64_t nonzero_seed(std::mt19937_64& rng, int bits) {
  const std::uint64_t v = rng() & ((std::uint64_t{1} << bits) - 1);
  return v != 0 ? v : 1;
}

// ---------------------------------------------------------------------
// LFSR word machinery vs naive stepping.

TEST(ReferenceLfsr, StepBitsMatchesNaiveBitSerial) {
  std::mt19937_64 rng(0x5EED0001);
  for (const int degree : {3, 16, 17, 19, 23, 32}) {
    for (const bool galois : {false, true}) {
      const std::uint64_t seed = nonzero_seed(rng, degree);
      lfsr::Lfsr prod(lfsr::primitive_polynomial(degree), seed,
                      galois ? lfsr::Lfsr::Form::galois : lfsr::Lfsr::Form::fibonacci);
      ref::Lfsr naive(degree, seed, galois);
      // Interleave random-width bulk pulls with single steps so every
      // word/tail split of the leap path is exercised mid-stream.
      for (int round = 0; round < 200; ++round) {
        if (rng() % 4 == 0) {
          ASSERT_EQ(prod.step(), naive.step() != 0)
              << "degree " << degree << " galois " << galois << " round " << round;
          continue;
        }
        const int n = static_cast<int>(rng() % 65);
        std::uint64_t want = 0;
        for (int i = 0; i < n; ++i) {
          want |= static_cast<std::uint64_t>(naive.step()) << i;
        }
        ASSERT_EQ(prod.step_bits(n), want)
            << "degree " << degree << " galois " << galois << " round " << round
            << " n " << n;
      }
    }
  }
}

TEST(ReferenceLfsr, NextBlockMatchesNaiveBitSerial) {
  std::mt19937_64 rng(0x5EED0002);
  for (const int degree : {16, 17, 32}) {
    const std::uint64_t seed = nonzero_seed(rng, degree);
    lfsr::Lfsr prod(lfsr::primitive_polynomial(degree), seed);
    ref::Lfsr naive(degree, seed);
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < degree; ++i) naive.step();
      ASSERT_EQ(prod.next_block(), naive.state()) << "degree " << degree;
    }
  }
}

// ---------------------------------------------------------------------
// Geffe keystream vs naive per-bit combiner.

TEST(ReferenceGeffe, BulkBytesMatchNaiveKeystream) {
  std::mt19937_64 rng(0x5EED0010);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint32_t sa = static_cast<std::uint32_t>(nonzero_seed(rng, 17));
    const std::uint32_t sb = static_cast<std::uint32_t>(nonzero_seed(rng, 19));
    const std::uint32_t sc = static_cast<std::uint32_t>(nonzero_seed(rng, 23));
    ref::Geffe naive(sa, sb, sc);
    const std::vector<std::uint8_t> want = naive.bytes(5000);
    crypto::GeffeKeystream ks(sa, sb, sc);
    std::vector<std::uint8_t> got(want.size());
    // Random chunking, including empty pulls and serial next_byte calls, so
    // bulk/serial interleavings stay on one stream.
    std::size_t at = 0;
    while (at < got.size()) {
      const std::uint64_t kind = rng() % 8;
      if (kind == 0) {
        ks.next_bytes(std::span<std::uint8_t>());  // no-op
      } else if (kind == 1) {
        got[at++] = ks.next_byte();
      } else {
        const std::size_t n = std::min<std::size_t>(rng() % 50, got.size() - at);
        ks.next_bytes(std::span(got.data() + at, n));
        at += n;
      }
    }
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(ReferenceGeffe, YaeaMatchesNaiveXorAtEveryShardCount) {
  std::mt19937_64 rng(0x5EED0011);
  const std::uint32_t sa = static_cast<std::uint32_t>(nonzero_seed(rng, 17));
  const std::uint32_t sb = static_cast<std::uint32_t>(nonzero_seed(rng, 19));
  const std::uint32_t sc = static_cast<std::uint32_t>(nonzero_seed(rng, 23));
  for (const std::size_t size : kSizes) {
    const std::vector<std::uint8_t> msg = random_message(rng, size);
    ref::Geffe naive(sa, sb, sc);
    std::vector<std::uint8_t> want = naive.bytes(size);
    for (std::size_t i = 0; i < size; ++i) want[i] ^= msg[i];
    for (const int shards : kShardCounts) {
      crypto::Yaea yaea({sa, sb, sc}, shards);
      const auto ct = yaea.encrypt(msg);
      EXPECT_EQ(ct, want) << "size " << size << " shards " << shards;
      EXPECT_EQ(yaea.decrypt(ct, size), msg) << "size " << size << " shards " << shards;
    }
  }
}

// ---------------------------------------------------------------------
// MHHEA block walks vs the naive reference, both policies, core and sharded.

class ReferenceMhhea : public ::testing::TestWithParam<core::BlockParams> {};

TEST_P(ReferenceMhhea, EncryptMatchesNaiveWalkAtEveryShardCount) {
  const core::BlockParams params = GetParam();
  std::mt19937_64 rng(0x5EED0020 + static_cast<std::uint64_t>(params.vector_bits) +
                      (params.policy == core::FramePolicy::framed ? 1 : 0));
  const auto [raw, key] = random_key(rng, params);
  const std::uint64_t seed = nonzero_seed(rng, std::min(params.vector_bits, 32));
  const bool framed = params.policy == core::FramePolicy::framed;
  exec::Executor pool(3);
  const core::LfsrCover proto(params.vector_bits, seed);
  for (const std::size_t size : kSizes) {
    const std::vector<std::uint8_t> msg = random_message(rng, size);
    const std::vector<std::uint8_t> want =
        ref::mhhea_encrypt(msg, raw, seed, params.vector_bits, framed);
    EXPECT_EQ(core::encrypt(msg, key, seed, params), want) << "size " << size;
    for (const int shards : kShardCounts) {
      EXPECT_EQ(core::encrypt_sharded(msg, key, proto, shards, &pool, params), want)
          << "size " << size << " shards " << shards;
      EXPECT_EQ(core::decrypt_sharded(want, key, size, shards, &pool, params), msg)
          << "size " << size << " shards " << shards;
    }
    // Cross-decryption in both directions: production decrypt of the naive
    // ciphertext and naive decrypt of the production ciphertext.
    EXPECT_EQ(core::decrypt(want, key, size, params), msg) << "size " << size;
    EXPECT_EQ(ref::mhhea_decrypt(core::encrypt(msg, key, seed, params), raw, size,
                                 params.vector_bits, framed),
              msg)
        << "size " << size;
  }
  // The chunk pipeline at chunk sizes that cut chunks mid-frame and inside
  // the short final frame: lengths 1..24 B under this random key and the
  // all-odd-width key, at every shard count.
  const ref::KeyPairs odd_raw = {{0, 2}, {1, 5}, {3, 3}, {2, 6}};
  const core::Key odd_key = core::Key::parse("0-2,1-5,3-3,2-6", params);
  for (const auto& [pairs_raw, k] :
       {std::pair<ref::KeyPairs, core::Key>{raw, key}, {odd_raw, odd_key}}) {
    const auto pairs = core::detail::pair_tables(k, params, core::Scheme::mhhea);
    for (std::size_t size = 1; size <= 24; ++size) {
      const std::vector<std::uint8_t> msg = random_message(rng, size);
      const std::vector<std::uint8_t> want =
          ref::mhhea_encrypt(msg, pairs_raw, seed, params.vector_bits, framed);
      for (const std::uint64_t chunk : {1u, 2u, 3u, 17u}) {
        for (const int shards : kShardCounts) {
          std::vector<std::uint8_t> ct(want.size());
          EXPECT_EQ(core::detail::encrypt_chunked(pairs, params, proto, msg, size * 8, ct,
                                                  shards, &pool, chunk, "test"),
                    want.size())
              << "size " << size << " chunk " << chunk << " shards " << shards;
          EXPECT_EQ(ct, want) << "size " << size << " chunk " << chunk << " shards " << shards;
          std::vector<std::uint8_t> back(size);
          (void)core::detail::decrypt_chunked(pairs, params, want, size * 8, back, shards, &pool,
                                              chunk, "test");
          EXPECT_EQ(back, msg) << "size " << size << " chunk " << chunk << " shards " << shards;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, ReferenceMhhea,
    ::testing::Values(core::BlockParams::paper(), core::BlockParams::hardware(),
                      core::BlockParams{32, core::FramePolicy::continuous},
                      core::BlockParams{32, core::FramePolicy::framed},
                      core::BlockParams{64, core::FramePolicy::continuous},
                      core::BlockParams{64, core::FramePolicy::framed}),
    [](const ::testing::TestParamInfo<core::BlockParams>& info) {
      std::string name = "v";
      name += std::to_string(info.param.vector_bits);
      name += info.param.policy == core::FramePolicy::framed ? "_framed" : "_continuous";
      return name;
    });

TEST(ReferenceSealed, AdapterMatchesNaiveContainerAtEveryShardCount) {
  const core::BlockParams params = core::BlockParams::hardware();
  std::mt19937_64 rng(0x5EED0030);
  const auto [raw, key] = random_key(rng, params);
  const std::uint64_t master = rng();
  // The key schedule and SipHash are production primitives pinned by their
  // own reference vectors (mac_test); the naive part here is the container
  // layout and the block walk under the derived nonce-0 cover seed.
  const crypto::V2KeySchedule sched = crypto::V2KeySchedule::derive(master);
  const std::uint64_t cover_seed = sched.cover_seed(0, params.vector_bits);
  for (const std::size_t size : kSizes) {
    const std::vector<std::uint8_t> msg = random_message(rng, size);
    std::vector<std::uint8_t> want = ref::seal(msg, raw, cover_seed, params.vector_bits, true);
    const crypto::MacTag tag = crypto::siphash128(sched.mac_key, want);
    want.insert(want.end(), tag.begin(), tag.end());
    for (const int shards : kShardCounts) {
      crypto::MhheaCipher cipher(key, master, params, crypto::MhheaCipher::Framing::sealed_v2,
                                 shards);
      const auto ct = cipher.encrypt(msg);
      EXPECT_EQ(ct, want) << "size " << size << " shards " << shards;
      EXPECT_EQ(cipher.decrypt(ct, size), msg) << "size " << size << " shards " << shards;
    }
  }
}

// ---------------------------------------------------------------------
// HHEA vs the naive fixed-range walk.

TEST(ReferenceHhea, EncryptMatchesNaiveWalkAtEveryShardCount) {
  constexpr core::Scheme kHhea = core::Scheme::hhea;
  for (const bool framed : {false, true}) {
    const core::BlockParams params{16, framed ? core::FramePolicy::framed
                                              : core::FramePolicy::continuous};
    std::mt19937_64 rng(0x5EED0040 + (framed ? 1 : 0));
    const auto [raw, key] = random_key(rng, params);
    const std::uint64_t seed = nonzero_seed(rng, params.vector_bits);
    exec::Executor pool(3);
    const core::LfsrCover proto(params.vector_bits, seed);
    for (const std::size_t size : kSizes) {
      const std::vector<std::uint8_t> msg = random_message(rng, size);
      const std::vector<std::uint8_t> want =
          ref::hhea_encrypt(msg, raw, seed, params.vector_bits, framed);
      EXPECT_EQ(core::encrypt(msg, key, seed, params, kHhea), want)
          << "size " << size << " framed " << framed;
      EXPECT_EQ(core::decrypt(want, key, size, params, kHhea), msg)
          << "size " << size << " framed " << framed;
      for (const int shards : kShardCounts) {
        EXPECT_EQ(core::encrypt_sharded(msg, key, proto, shards, &pool, params, kHhea), want)
            << "size " << size << " framed " << framed << " shards " << shards;
        EXPECT_EQ(core::decrypt_sharded(want, key, size, shards, &pool, params, kHhea), msg)
            << "size " << size << " framed " << framed << " shards " << shards;
      }
    }
  }
}

// ---------------------------------------------------------------------
// The full registry: every cipher the bench sweeps, every shard count,
// differential against its own shards=1 stream plus round-trip (the per-
// algorithm naive references above pin the shards=1 stream itself).

TEST(ReferenceRegistry, AllCiphersShardInvariantAndRoundTrip) {
  std::mt19937_64 rng(0x5EED0050);
  for (const auto& name : crypto::CipherRegistry::builtin().names()) {
    for (const std::uint64_t seed : {0xB0A710ADULL, 0x5EEDC0DEULL}) {
      std::vector<std::vector<std::uint8_t>> baselines;
      for (const std::size_t size : kSizes) {
        baselines.push_back(random_message(rng, size));
      }
      std::vector<std::vector<std::uint8_t>> want;
      {
        auto base = crypto::CipherRegistry::builtin().make(name, seed, 1);
        for (const auto& msg : baselines) want.push_back(base->encrypt(msg));
      }
      for (const int shards : kShardCounts) {
        auto cipher = crypto::CipherRegistry::builtin().make(name, seed, shards);
        for (std::size_t i = 0; i < baselines.size(); ++i) {
          const auto ct = cipher->encrypt(baselines[i]);
          EXPECT_EQ(ct, want[i]) << name << " size " << baselines[i].size() << " shards "
                                 << shards;
          EXPECT_EQ(cipher->decrypt(ct, baselines[i].size()), baselines[i])
              << name << " size " << baselines[i].size() << " shards " << shards;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mhhea
