// Backend seam tests: dispatch rules (cpuid gating, MHHEA_BACKEND override,
// graceful fallback), and differential parity between the forced scalar and
// SIMD engines — raw Lfsr block generation, the Geffe keystream (bulk,
// fused-XOR, serial interleaving), the MHHEA/HHEA apply kernels (embed and
// extract, byte for byte), every registry cipher across sizes and shard
// counts with cross-backend encrypt/decrypt, and the continuous sharded
// decrypt on an explicit pool. SIMD-side cases skip
// cleanly when the host (or build) has no AVX2 engine, so the suite is
// green on any runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/backend/backend.hpp"
#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/core/shard.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/yaea.hpp"
#include "src/lfsr/lfsr.hpp"
#include "src/util/rng.hpp"
#include "src/exec/executor.hpp"

namespace mhhea {
namespace {

/// Force an engine for one scope, restoring the previously active engine on
/// exit (whatever it was — tests must not leak a forced engine).
class ScopedBackend {
 public:
  explicit ScopedBackend(std::string_view name) : prev_(backend::active().name()) {
    ok_ = backend::set_active(name);
  }
  ~ScopedBackend() { backend::set_active(prev_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  std::string_view prev_;
  bool ok_ = false;
};

bool avx2_usable() { return backend::by_name("avx2") != nullptr; }

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

// ------------------------------------------------------------- dispatch

TEST(BackendDispatch, ResolveChoiceRules) {
  const bool compiled = backend::avx2_compiled();
  // Auto (unset, empty, explicit) picks the widest usable engine.
  for (const char* env : {static_cast<const char*>(nullptr), "", "auto"}) {
    EXPECT_EQ(backend::resolve_backend_choice(env, true),
              compiled ? "avx2" : "scalar");
    EXPECT_EQ(backend::resolve_backend_choice(env, false), "scalar");
  }
  // Forcing scalar always honored.
  EXPECT_EQ(backend::resolve_backend_choice("scalar", true), "scalar");
  EXPECT_EQ(backend::resolve_backend_choice("scalar", false), "scalar");
  // Forcing avx2 degrades gracefully when the host cannot run it.
  EXPECT_EQ(backend::resolve_backend_choice("avx2", true),
            compiled ? "avx2" : "scalar");
  EXPECT_EQ(backend::resolve_backend_choice("avx2", false), "scalar");
  // Unknown values resolve like auto (with a stderr note, not a throw).
  EXPECT_EQ(backend::resolve_backend_choice("neon", false), "scalar");
}

TEST(BackendDispatch, ByNameIsCpuidGated) {
  ASSERT_NE(backend::by_name("scalar"), nullptr);
  EXPECT_EQ(backend::by_name("scalar")->name(), "scalar");
  EXPECT_EQ(backend::by_name("sse9"), nullptr);
  const backend::Backend* v = backend::by_name("avx2");
  if (backend::cpu_has_avx2() && backend::avx2_compiled()) {
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->name(), "avx2");
    EXPECT_GT(v->lanes(), 1u);
  } else {
    // No AVX2 host/build: the engine must be unreachable, never crash-y.
    EXPECT_EQ(v, nullptr);
  }
}

TEST(BackendDispatch, SetActiveForcesAndRejects) {
  const std::string prev(backend::active().name());
  EXPECT_TRUE(backend::set_active("scalar"));
  EXPECT_EQ(backend::active().name(), "scalar");
  EXPECT_FALSE(backend::set_active("bogus"));
  EXPECT_EQ(backend::active().name(), "scalar");  // unchanged on failure
  EXPECT_EQ(backend::set_active("avx2"), avx2_usable());
  EXPECT_TRUE(backend::set_active("auto"));
  EXPECT_TRUE(backend::set_active(prev));
}

TEST(BackendDispatch, EnvOverrideHonored) {
  // Meaningful under the CI forced-backend jobs: when MHHEA_BACKEND is set
  // and no test forced an engine first, lazy resolution must have applied
  // the documented rule. (ScopedBackend restores whatever was active, so
  // test order cannot break this.)
  const char* env = std::getenv("MHHEA_BACKEND");
  if (env == nullptr) GTEST_SKIP() << "MHHEA_BACKEND not set";
  EXPECT_EQ(backend::active().name(),
            backend::resolve_backend_choice(env, backend::cpu_has_avx2()));
}

// ------------------------------------------------------------- lfsr lanes

TEST(BackendParity, LfsrNextBlocksMatchesSerialOnBothEngines) {
  // Sizes straddle the lane threshold (2 * kLfsrLaneBlocks) and leave
  // ragged lane/scalar tails; degrees cover 2..4 state bytes.
  const std::size_t sizes[] = {0, 1, 255, 511, 512, 513, 2048, 4099, 10000};
  for (const int degree : {16, 17, 23, 32}) {
    for (const std::size_t n : sizes) {
      // Serial reference: next_block() one at a time, scalar engine pinned.
      std::vector<std::uint64_t> ref(n);
      lfsr::Lfsr serial(lfsr::primitive_polynomial(degree), 0xACE1);
      for (auto& b : ref) b = serial.next_block();
      for (const char* engine : {"scalar", "avx2"}) {
        if (engine == std::string_view("avx2") && !avx2_usable()) continue;
        ScopedBackend forced(engine);
        ASSERT_TRUE(forced.ok());
        lfsr::Lfsr reg(lfsr::primitive_polynomial(degree), 0xACE1);
        std::vector<std::uint64_t> got(n);
        reg.next_blocks(got);
        EXPECT_EQ(got, ref) << "degree=" << degree << " n=" << n << " " << engine;
        // The state left behind must match too (bulk/serial interleaving).
        EXPECT_EQ(reg.state(), serial.state())
            << "degree=" << degree << " n=" << n << " " << engine;
      }
    }
  }
}

// ------------------------------------------------------------ apply kernels

/// A well-formed random apply batch of `n` blocks for N-bit vectors: widths
/// 0..N/2 with kn1 + width <= N/2, patterns of N/2 bits, and offsets that
/// run on from bit `first` (0..7) of the message span.
backend::ApplyBatch random_batch(util::Xoshiro256& rng, int n_bits, std::size_t n,
                                 std::uint32_t first) {
  const auto h = static_cast<std::uint64_t>(n_bits / 2);
  backend::ApplyBatch b;
  b.n = n;
  std::uint32_t off = first;
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::uint8_t>(rng.below(h + 1));
    b.width[i] = w;
    b.kn1[i] = static_cast<std::uint8_t>(rng.below(h - w + 1));
    b.pattern[i] = static_cast<std::uint32_t>(rng.next() & ((std::uint64_t{1} << h) - 1));
    b.offset[i] = off;
    off += w;
  }
  return b;
}

TEST(BackendParity, ApplyKernelsMatchScalarByteForByte) {
  if (!avx2_usable()) GTEST_SKIP() << "no avx2 engine on this host/build";
  const backend::Backend& scalar = *backend::by_name("scalar");
  const backend::Backend& avx2 = *backend::by_name("avx2");
  util::Xoshiro256 rng(0xA991);
  // Sizes straddle the 8- and 4-block vector steps and leave ragged tails.
  const std::size_t sizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33, 100, 255, 256};
  for (const int n_bits : {16, 32, 64}) {
    const auto bb = static_cast<std::size_t>(n_bits / 8);
    for (const std::size_t n : sizes) {
      for (const std::uint32_t first : {0u, 3u, 7u}) {
        const backend::ApplyBatch b = random_batch(rng, n_bits, n, first);
        std::vector<std::uint64_t> covers(n);
        for (auto& c : covers) c = rng.next() & (n_bits == 64 ? ~0ull : (1ull << n_bits) - 1);
        // The message span ends right after the batch's last bit, so the
        // vector engine's gathers meet the span end and must fall back.
        const std::uint32_t end_bit = n > 0 ? b.offset[n - 1] + b.width[n - 1] : first;
        const auto msg = random_message(rng, (end_bit + 7) / 8);
        std::vector<std::uint8_t> out_s(n * bb + 8, 0xEE);
        std::vector<std::uint8_t> out_a(n * bb + 8, 0xEE);
        scalar.embed_blocks(n_bits, b, covers.data(), msg, out_s.data());
        avx2.embed_blocks(n_bits, b, covers.data(), msg, out_a.data());
        EXPECT_EQ(out_a, out_s) << "embed N=" << n_bits << " n=" << n << " first=" << first;
        // Nothing past the batch's blocks is written.
        EXPECT_TRUE(std::all_of(out_a.end() - 8, out_a.end(),
                                [](std::uint8_t x) { return x == 0xEE; }));
        std::vector<std::uint32_t> bits_s(n, 0xDEAD);
        std::vector<std::uint32_t> bits_a(n, 0xBEEF);
        scalar.extract_blocks(n_bits, b, out_s.data(), bits_s.data());
        avx2.extract_blocks(n_bits, b, out_s.data(), bits_a.data());
        EXPECT_EQ(bits_a, bits_s) << "extract N=" << n_bits << " n=" << n << " first=" << first;
        // And extract inverts embed: block i yields its message bits.
        for (std::size_t i = 0; i < n; ++i) {
          std::uint64_t want = 0;
          for (int t = 0; t < b.width[i]; ++t) {
            const std::uint32_t pos = b.offset[i] + static_cast<std::uint32_t>(t);
            want |= static_cast<std::uint64_t>((msg[pos / 8] >> (pos % 8)) & 1) << t;
          }
          ASSERT_EQ(bits_s[i], want) << "N=" << n_bits << " n=" << n << " block " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------------- geffe lanes

TEST(BackendParity, GeffeKeystreamMatchesBitSerialOnBothEngines) {
  const std::size_t sizes[] = {0, 1, 7, 8, 63, 2047, 2048, 2049, 16384, 20000};
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> ref(n);
    crypto::GeffeKeystream serial(0x1ACE, 0x2BEEF, 0x3CAFE);
    for (auto& b : ref) b = serial.next_byte();
    const std::uint8_t ref_after = serial.next_byte();  // byte n, for interleaving
    for (const char* engine : {"scalar", "avx2"}) {
      if (engine == std::string_view("avx2") && !avx2_usable()) continue;
      ScopedBackend forced(engine);
      ASSERT_TRUE(forced.ok());
      crypto::GeffeKeystream ks(0x1ACE, 0x2BEEF, 0x3CAFE);
      std::vector<std::uint8_t> got(n);
      ks.next_bytes(got);
      EXPECT_EQ(got, ref) << "n=" << n << " " << engine;
      // Bulk then serial: the registers must sit exactly where the
      // bit-serial generator's do.
      EXPECT_EQ(ks.next_byte(), ref_after) << "n=" << n << " " << engine;
      // xor_bytes == next_bytes XOR input, in place.
      util::Xoshiro256 rng(0xF00D + n);
      std::vector<std::uint8_t> msg = random_message(rng, n);
      std::vector<std::uint8_t> inplace = msg;
      crypto::GeffeKeystream fused(0x1ACE, 0x2BEEF, 0x3CAFE);
      fused.xor_bytes(inplace, inplace);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(inplace[i], static_cast<std::uint8_t>(msg[i] ^ ref[i]))
            << "i=" << i << " n=" << n << " " << engine;
      }
    }
  }
}

TEST(BackendParity, GeffeXorBytesRejectsMismatchedSpans) {
  crypto::GeffeKeystream ks(1, 2, 3);
  std::vector<std::uint8_t> in(8), out(9);
  EXPECT_THROW(ks.xor_bytes(in, out), std::invalid_argument);
}

// ------------------------------------------------------------- ciphers

TEST(BackendParity, RegistryCiphersBitIdenticalAcrossEnginesAndShards) {
  if (!avx2_usable()) GTEST_SKIP() << "no avx2 engine on this host/build";
  const auto& reg = crypto::CipherRegistry::builtin();
  const std::size_t sizes[] = {0, 64, 1024, 4096, 20000};
  for (const std::string& name : reg.names()) {
    for (const std::size_t len : sizes) {
      util::Xoshiro256 rng(0xC0FFEE ^ len);
      const auto msg = random_message(rng, len);
      std::vector<std::uint8_t> ct_scalar;
      {
        ScopedBackend forced("scalar");
        ct_scalar = reg.make(name, 0xD00D)->encrypt(msg);
      }
      for (const int shards : {1, 2, 4, 8}) {
        std::vector<std::uint8_t> ct_vec;
        {
          ScopedBackend forced("avx2");
          ct_vec = reg.make(name, 0xD00D, shards)->encrypt(msg);
        }
        EXPECT_EQ(ct_vec, ct_scalar) << name << " len=" << len << " shards=" << shards;
        // Cross-engine round trips: bytes sealed by one engine open under
        // the other, both shard counts.
        ScopedBackend forced("scalar");
        EXPECT_EQ(reg.make(name, 0xD00D, shards)->decrypt(ct_vec, len), msg)
            << name << " len=" << len << " shards=" << shards;
      }
      {
        ScopedBackend forced("avx2");
        EXPECT_EQ(reg.make(name, 0xD00D)->decrypt(ct_scalar, len), msg)
            << name << " len=" << len;
      }
    }
  }
}

// --------------------------------------------- continuous sharded decrypt

TEST(ShardedDecrypt, ContinuousIntoMatchesSequentialOnExplicitPool) {
  // Drives the chunk pipeline's plan and apply with real workers regardless
  // of host core count (the adapters would clamp to the sequential path on
  // a 1-core box). The ragged size sweep lands chunk edges at many bit
  // offsets, so the byte edges between chunk writes are exercised.
  util::Xoshiro256 rng(0xA11);
  exec::Executor pool(4);
  for (const core::BlockParams params :
       {core::BlockParams::paper(), core::BlockParams{32, core::FramePolicy::continuous}}) {
    const core::Key key = core::Key::random(rng, 8, params);
    for (std::size_t len = 0; len <= 2000; len += 129) {
      const auto msg = random_message(rng, len);
      const auto ct = core::encrypt(msg, key, 0xACE1, params);
      for (const int shards : {2, 3, 4, 8}) {
        std::vector<std::uint8_t> out(msg.size());
        core::decrypt_sharded_into(ct, key, msg.size(), shards, &pool, out, params);
        EXPECT_EQ(out, msg) << "len=" << len << " shards=" << shards;
      }
    }
  }
}

TEST(ShardedDecrypt, ContinuousStrictContractSurvivesThePreScan) {
  util::Xoshiro256 rng(0xB22);
  exec::Executor pool(4);
  const core::BlockParams params = core::BlockParams::paper();
  const core::Key key = core::Key::random(rng, 8, params);
  const auto msg = random_message(rng, 600);
  const auto ct = core::encrypt(msg, key, 0xACE1, params);
  const std::size_t bb = static_cast<std::size_t>(params.block_bytes());
  // Truncated: drop the final block.
  std::vector<std::uint8_t> short_ct(ct.begin(), ct.end() - static_cast<long>(bb));
  EXPECT_THROW(
      (void)core::decrypt_sharded(short_ct, key, msg.size(), 4, &pool, params),
      std::invalid_argument);
  // Trailing: append one extra block.
  std::vector<std::uint8_t> long_ct = ct;
  long_ct.insert(long_ct.end(), bb, std::uint8_t{0x5A});
  EXPECT_THROW(
      (void)core::decrypt_sharded(long_ct, key, msg.size(), 4, &pool, params),
      std::invalid_argument);
}

}  // namespace
}  // namespace mhhea
