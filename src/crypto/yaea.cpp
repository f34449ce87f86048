#include "src/crypto/yaea.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/util/bits.hpp"
#include "src/util/secret.hpp"

namespace mhhea::crypto {


GeffeKeystream::~GeffeKeystream() {
  a_.wipe_state();
  b_.wipe_state();
  c_.wipe_state();
}

GeffeKeystream::GeffeKeystream(std::uint32_t seed_a, std::uint32_t seed_b,
                               std::uint32_t seed_c)
    : a_(lfsr::primitive_polynomial(kDegreeA), seed_a),
      b_(lfsr::primitive_polynomial(kDegreeB), seed_b),
      c_(lfsr::primitive_polynomial(kDegreeC), seed_c) {}

bool GeffeKeystream::next_bit() noexcept {
  const bool a = a_.step();
  const bool b = b_.step();
  const bool c = c_.step();
  return (a && b) || (!a && c);
}

std::uint8_t GeffeKeystream::next_byte() noexcept {
  std::uint8_t v = 0;
  for (int i = 0; i < 8; ++i) v = static_cast<std::uint8_t>(v | (next_bit() << i));
  return v;
}

void GeffeKeystream::next_bytes(std::span<std::uint8_t> out) { run(nullptr, out); }

void GeffeKeystream::xor_bytes(std::span<const std::uint8_t> in,
                               std::span<std::uint8_t> out) {
  if (in.size() != out.size()) {
    throw std::invalid_argument("GeffeKeystream::xor_bytes: span sizes differ");
  }
  run(in.data(), out);
}

void GeffeKeystream::ensure_lane_tables() {
  if (lanes_ != nullptr) return;
  auto lt = std::make_shared<LaneTables>();
  lfsr::Lfsr* regs[3] = {&a_, &b_, &c_};
  for (int r = 0; r < 3; ++r) {
    lt->upd[r] = regs[r]->power_tables(64);
    lt->lane[r] = regs[r]->power_tables(64 * backend::kGeffeLaneUnits);
    lt->deg[r] = regs[r]->shared_leap_tables();
    lt->kernel.deg[r] = lt->deg[r].get();
    lt->kernel.upd[r] = &lt->upd[r];
    lt->kernel.degree[r] = regs[r]->degree();
  }
  lanes_ = std::move(lt);
}

void GeffeKeystream::run(const std::uint8_t* in, std::span<std::uint8_t> out) {
  static_assert(kDegreeA <= 24 && kDegreeB <= 24 && kDegreeC <= 24,
                "the backend Geffe kernel applies three state bytes");
  std::size_t done = 0;
  // Lane route: split the run into contiguous lane-pass ranges and step all
  // lanes' registers in lockstep on the active backend. Worth it from two
  // lane-passes up; engages at 2 KiB runs and covers a 16 KiB message with
  // exactly two full 8-lane passes.
  const backend::Backend& be = backend::active();
  const std::size_t lane_cap = be.lanes();
  constexpr std::size_t kPassBytes = backend::kGeffeLaneUnits * 8;
  if (lane_cap > 1 && out.size() >= 2 * kPassBytes) {
    ensure_lane_tables();
    std::uint32_t a[backend::kMaxLanes], b[backend::kMaxLanes], c[backend::kMaxLanes];
    while (out.size() - done >= 2 * kPassBytes) {
      const std::size_t lanes = std::min(lane_cap, (out.size() - done) / kPassBytes);
      a[0] = static_cast<std::uint32_t>(a_.state());
      b[0] = static_cast<std::uint32_t>(b_.state());
      c[0] = static_cast<std::uint32_t>(c_.state());
      // Lane l starts where lane l-1 will end: one lane-stride application
      // per register, exact by GF(2) linearity.
      for (std::size_t l = 1; l < lanes; ++l) {
        a[l] = lanes_->lane[0].apply<3>(a[l - 1]);
        b[l] = lanes_->lane[1].apply<3>(b[l - 1]);
        c[l] = lanes_->lane[2].apply<3>(c[l - 1]);
      }
      be.geffe_units(lanes_->kernel, a, b, c, lanes, in != nullptr ? in + done : nullptr,
                     out.data() + done, backend::kGeffeLaneUnits);
      a_.set_state(a[lanes - 1]);
      b_.set_state(b[lanes - 1]);
      c_.set_state(c[lanes - 1]);
      done += lanes * kPassBytes;
    }
  }
  // Word-wise remainder: 64 bits per register through the step_bits leap
  // machinery, one word-wise combine, XOR fused when `in` is given.
  std::size_t i = done;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t a = a_.step_bits(64);
    const std::uint64_t b = b_.step_bits(64);
    const std::uint64_t c = c_.step_bits(64);
    std::uint64_t z = (a & b) | (~a & c);
    if (in != nullptr) z ^= util::load_le(in + i, 8);
    util::store_le(out.data() + i, z, 8);
  }
  if (i < out.size()) {
    const int n = static_cast<int>(out.size() - i) * 8;
    const std::uint64_t a = a_.step_bits(n);
    const std::uint64_t b = b_.step_bits(n);
    const std::uint64_t c = c_.step_bits(n);
    std::uint64_t z = (a & b) | (~a & c);
    if (in != nullptr) z ^= util::load_le(in + i, static_cast<int>(out.size() - i));
    util::store_le(out.data() + i, z, static_cast<int>(out.size() - i));
  }
}

void GeffeKeystream::jump(std::uint64_t n_bits) {
  a_.jump(n_bits);
  b_.jump(n_bits);
  c_.jump(n_bits);
}

void GeffeKeystream::warm() {
  for (lfsr::Lfsr* r : {&a_, &b_, &c_}) {
    const std::uint64_t s = r->state();
    (void)r->next_block();  // builds the leap tables
    r->jump(0);             // builds the one-step jump matrix
    r->set_state(s);
  }
  // Lane tables only pay off on a multi-lane backend; a later backend
  // switch still works — run() builds them lazily per instance then.
  if (backend::active().lanes() > 1) ensure_lane_tables();
}

Yaea::Yaea(KeyType key, int shards)
    : key_(key),
      shards_(exec::resolve_parallelism(shards, "Yaea")),
      // Constructing the prototype validates the seeds eagerly (the registry
      // contract: bad configurations fail at construction, not mid-sweep).
      ks_proto_(key.seed_a, key.seed_b, key.seed_c) {
  ks_proto_.warm();
  // The worker count is clamped to hardware concurrency: sharding a message
  // across more workers than cores only buys dispatch overhead, and a fan-out
  // of one would always run inline anyway. Work goes to the process-wide
  // executor — constructing a cipher no longer spawns threads.
  workers_ = std::min(shards_, exec::resolve_parallelism(0, "Yaea"));
  if (shards_ > 1 && workers_ > 1) exec_ = &exec::Executor::shared();
}

Yaea::~Yaea() { util::secure_wipe_object(key_); }

std::size_t Yaea::encrypt_into(std::span<const std::uint8_t> msg,
                               std::span<std::uint8_t> out) {
  if (out.size() < msg.size()) {
    throw std::length_error("Yaea::encrypt_into: output buffer too small");
  }
  // Contiguous byte ranges, each with an independently jumped keystream —
  // one keystream byte consumes 8 steps of each register, so the shard at
  // byte offset o starts from jump(8 * o). The shard count is additionally
  // clamped to the worker budget: on a host where that resolved to one
  // worker, the plan runs inline as a single range.
  const auto n = static_cast<std::size_t>(
      std::min(effective_shards(shards_, msg.size()), workers_));
  exec::run_indexed(n > 1 ? exec_ : nullptr, n, [&](std::size_t s) {
    const std::size_t begin = msg.size() * s / n;
    const std::size_t end = msg.size() * (s + 1) / n;
    GeffeKeystream ks = ks_proto_;
    ks.jump(static_cast<std::uint64_t>(begin) * 8);
    // Fused keystream-XOR straight between the caller's spans (no staging
    // buffer): every kernel reads its input word before writing the output
    // word at the same offset, so `out` may alias `msg` exactly.
    ks.xor_bytes(msg.subspan(begin, end - begin), out.subspan(begin, end - begin));
  });
  return msg.size();
}

std::size_t Yaea::decrypt_into(std::span<const std::uint8_t> cipher, std::size_t msg_bytes,
                               std::span<std::uint8_t> out) {
  if (cipher.size() < msg_bytes) {
    throw std::invalid_argument("Yaea::decrypt: ciphertext shorter than message length");
  }
  if (cipher.size() > msg_bytes) {
    throw std::invalid_argument("Yaea::decrypt: trailing ciphertext bytes after message end");
  }
  return encrypt_into(cipher, out);  // XOR stream cipher: decrypt == encrypt
}

}  // namespace mhhea::crypto
