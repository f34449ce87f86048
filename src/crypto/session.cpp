#include "src/crypto/session.hpp"

#include <string_view>

#include "src/util/rng.hpp"

namespace mhhea::crypto {

namespace {

/// Deterministic hiding key drawn from the schedule, under its own domain
/// label so it is independent of the MAC and seed subkeys.
core::Key derive_hiding_key(const V2KeySchedule& sched, int n_pairs,
                            const core::BlockParams& params) {
  constexpr std::string_view label = "mhhea-v2 hiding key";
  const std::uint64_t seed = siphash64(
      sched.seed_key,
      std::span(reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
  util::Xoshiro256 rng(seed);
  return core::Key::random(rng, n_pairs, params);
}

}  // namespace

Session::Session(std::span<const std::uint8_t> master, core::Key key,
                 core::BlockParams params, int shards)
    : Session(master, {}, std::move(key), params, shards) {}

Session::Session(std::span<const std::uint8_t> master,
                 std::span<const std::uint8_t> context, core::Key key,
                 core::BlockParams params, int shards)
    : cipher_(std::move(key), V2KeySchedule::derive(master, context), params,
              MhheaCipher::Framing::sealed_v2, shards) {}

Session Session::from_master(std::span<const std::uint8_t> master, int n_pairs,
                             core::BlockParams params, int shards) {
  return from_master(master, {}, n_pairs, params, shards);
}

Session Session::from_master(std::span<const std::uint8_t> master,
                             std::span<const std::uint8_t> context, int n_pairs,
                             core::BlockParams params, int shards) {
  // The context feeds the schedule before the hiding key is drawn, so the
  // hiding key (not just the MAC/seed subkeys) differs per context too.
  const V2KeySchedule sched = V2KeySchedule::derive(master, context);
  return Session(master, context, derive_hiding_key(sched, n_pairs, params), params,
                 shards);
}

void Session::require_nonce_available() const {
  // Checked BEFORE the cipher is touched: at the sentinel every usable nonce
  // has been consumed, and an unchecked ++next_nonce_ would wrap to 0 and
  // re-derive already-used cover seeds — keystream reuse under one key.
  if (next_nonce_ == kNonceExhausted) {
    throw NonceExhaustedError(
        "Session: nonce space exhausted — sealing again would wrap the counter and "
        "reuse keystream; rekey the session");
  }
}

void Session::skip_to_nonce(std::uint64_t nonce) {
  if (nonce < next_nonce_) {
    throw std::invalid_argument(
        "Session: skip_to_nonce cannot rewind — earlier nonces were already sealed");
  }
  next_nonce_ = nonce;
}

std::vector<std::uint8_t> Session::seal(std::span<const std::uint8_t> msg) {
  // One walk: seal into the reusable scratch sized by the cheap bound, then
  // hand back exactly the written bytes (sizing the result with
  // sealed_v2_size would walk the cover a second time).
  const std::size_t bound = max_sealed_size(msg.size());
  if (seal_buf_.size() < bound) seal_buf_.resize(bound);
  const std::size_t n = seal_into(msg, seal_buf_);
  return {seal_buf_.begin(), seal_buf_.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::size_t Session::seal_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out) {
  require_nonce_available();
  const std::size_t n = cipher_.seal_v2_into(msg, next_nonce_, out);
  ++next_nonce_;  // only after the seal fully succeeded
  return n;
}

void Session::check_replay(std::uint64_t nonce) const {
  if (!any_seen_) return;
  if (nonce > highest_) return;
  const std::uint64_t age = highest_ - nonce;
  if (age >= kReplayWindow) {
    throw ReplayError("Session: nonce older than the replay window");
  }
  if ((seen_ >> age) & 1u) throw ReplayError("Session: replayed nonce");
}

void Session::commit_replay(std::uint64_t nonce) {
  if (!any_seen_) {
    any_seen_ = true;
    highest_ = nonce;
    seen_ = 1;
    return;
  }
  if (nonce > highest_) {
    const std::uint64_t advance = nonce - highest_;
    seen_ = advance >= 64 ? 0 : seen_ << advance;
    seen_ |= 1;
    highest_ = nonce;
    return;
  }
  seen_ |= std::uint64_t{1} << (highest_ - nonce);
}

std::vector<std::uint8_t> Session::open(std::span<const std::uint8_t> framed) {
  // The plaintext is sized from the container: for a compressed one the
  // header counts envelope bits, not message bytes.
  std::vector<std::uint8_t> msg;
  (void)open_to(framed, [&](std::uint64_t plain_bits) {
    msg.resize(static_cast<std::size_t>((plain_bits + 7) / 8));
    return std::span(msg);
  });
  return msg;
}

std::size_t Session::open_into(std::span<const std::uint8_t> framed,
                               std::span<std::uint8_t> out) {
  return open_to(framed, [&](std::uint64_t plain_bits) {
    const auto n = static_cast<std::size_t>((plain_bits + 7) / 8);
    if (out.size() < n) throw std::length_error("Session::open_into: output buffer too small");
    return out.first(n);
  });
}

std::size_t Session::open_to(std::span<const std::uint8_t> framed, MhheaCipher::Dest dest) {
  std::uint64_t nonce = 0;
  const std::size_t n = cipher_.open_v2_into(
      framed,
      [&](const core::FrameHeader& h) {
        check_replay(h.nonce);
        nonce = h.nonce;
      },
      dest);
  commit_replay(nonce);
  return n;
}

}  // namespace mhhea::crypto
