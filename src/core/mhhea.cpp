#include "src/core/mhhea.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/core/shard.hpp"

namespace mhhea::core {

namespace {
/// Cover vectors prefetched per refill. Sized so LFSR covers cross the
/// multi-lane threshold of Lfsr::next_blocks (2 * backend::kLfsrLaneBlocks
/// blocks) and a full 8-lane pass fits per fetch; still bounded, so an
/// Encryptor never holds more than ~16 KiB of look-ahead.
constexpr std::size_t kCoverChunk = 2048;
}  // namespace

std::size_t detail::next_covers(CoverSource& cover, const BlockParams& params,
                                std::uint64_t remaining_bits, std::span<std::uint64_t> buf,
                                const char* who) {
  const auto h = static_cast<std::uint64_t>(params.half());
  const auto want = static_cast<std::size_t>(
      std::min<std::uint64_t>(buf.size(), std::max<std::uint64_t>(remaining_bits / h, 1)));
  const std::size_t got = cover.next_blocks(params.vector_bits, buf.first(want));
  if (got == 0) throw std::runtime_error(std::string(who) + ": cover source exhausted");
  return got;
}

std::size_t detail::embed_message(std::span<const PairCtx> pairs, const BlockParams& params,
                                  CoverSource& cover, std::span<std::uint64_t> buf,
                                  std::span<const std::uint8_t> msg,
                                  std::span<std::uint8_t> out, const char* who) {
  const auto bb = static_cast<std::size_t>(params.block_bytes());
  const std::size_t room = out.size() / bb;
  FrameWalk st{0, static_cast<std::uint64_t>(msg.size()) * 8, 0};
  std::size_t blocks = 0;
  with_width(params.vector_bits, [&]<int N>() {
    Embed<N> embed{nullptr, BitSource(msg, 0)};
    while (st.remaining > 0) {
      // Every fetched vector is consumed (next_covers never over-fetches),
      // so this chunk-granular space check is exact, not pessimistic.
      const std::size_t got = next_covers(cover, params, st.remaining, buf, who);
      if (room - blocks < got) {
        throw std::length_error(std::string(who) + ": output buffer too small");
      }
      embed.out = out.data() + blocks * bb;
      blocks += walk<N>(pairs, frame_bits(params), st, buf.data(), got, embed);
    }
  });
  return blocks * bb;
}

std::size_t detail::extract_message(std::span<const PairCtx> pairs, const BlockParams& params,
                                    std::span<const std::uint8_t> cipher,
                                    std::uint64_t message_bits, std::span<std::uint8_t> out,
                                    const char* who) {
  const auto bb = static_cast<std::size_t>(params.block_bytes());
  if (cipher.size() % bb != 0) {
    throw std::invalid_argument(std::string(who) + ": ciphertext not block-aligned");
  }
  const auto out_bytes = static_cast<std::size_t>((message_bits + 7) / 8);
  if (out.size() < out_bytes) {
    throw std::length_error(std::string(who) + ": output buffer too small");
  }
  const std::size_t n_blocks = cipher.size() / bb;
  Extract extract{BitSink(out.first(out_bytes))};
  FrameWalk st{0, message_bits, 0};
  const std::size_t used = with_width(params.vector_bits, [&]<int N>() {
    return walk<N>(pairs, frame_bits(params), st, cipher.data(), n_blocks, extract);
  });
  if (st.remaining > 0) {
    throw std::invalid_argument(std::string(who) + ": ciphertext too short for message length");
  }
  if (used < n_blocks) {
    throw std::invalid_argument(std::string(who) +
                                ": trailing ciphertext blocks after message end");
  }
  extract.sink.flush();
  return out_bytes;
}

Encryptor::Encryptor(Key key, std::unique_ptr<CoverSource> cover, BlockParams params)
    : key_(std::move(key)), cover_(std::move(cover)), params_(params) {
  params_.validate();
  if (cover_ == nullptr) throw std::invalid_argument("Encryptor: null cover source");
  key_.require_fits(params_, "Encryptor");
  pair_ctx_ = detail::make_pair_ctx(key_, params_);
  cover_buf_.resize(kCoverChunk);
}

std::size_t Encryptor::encrypt_into(std::span<const std::uint8_t> msg,
                                    std::span<std::uint8_t> out) {
  reset();
  return detail::embed_message(pair_ctx_, params_, *cover_, cover_buf_, msg, out,
                               "Encryptor::encrypt_into");
}

std::uint64_t Encryptor::one_shot_cipher_bytes(std::uint64_t n_bits) {
  reset();
  detail::FrameWalk st{0, n_bits, 0};
  std::uint64_t blocks = 0;
  detail::with_width(params_.vector_bits, [&]<int N>() {
    while (st.remaining > 0) {
      const std::size_t got =
          detail::next_covers(*cover_, params_, st.remaining, cover_buf_, "Encryptor");
      blocks += detail::walk<N>(pair_ctx_, detail::frame_bits(params_), st, cover_buf_.data(),
                                got, detail::Measure{});
    }
  });
  return blocks * static_cast<std::uint64_t>(params_.block_bytes());
}

void Encryptor::reset() { cover_->reset(); }

void Encryptor::reseed(std::uint64_t seed) {
  cover_->reseed(seed);  // also rewinds onto the new seed
}

Decryptor::Decryptor(Key key, std::uint64_t /*message_bits*/, BlockParams params)
    : params_(params) {
  params_.validate();
  key.require_fits(params_, "Decryptor");
  pair_ctx_ = detail::make_pair_ctx(key, params_);
}

std::size_t Decryptor::decrypt_into(std::span<const std::uint8_t> cipher,
                                    std::uint64_t message_bits,
                                    std::span<std::uint8_t> out) const {
  return detail::extract_message(pair_ctx_, params_, cipher, message_bits, out,
                                 "Decryptor::decrypt_into");
}

std::vector<std::uint8_t> encrypt(std::span<const std::uint8_t> msg, const Key& key,
                                  std::uint64_t seed, BlockParams params) {
  return encrypt_sharded(msg, key, LfsrCover(params.vector_bits, seed), 1, nullptr, params);
}

std::vector<std::uint8_t> decrypt(std::span<const std::uint8_t> cipher, const Key& key,
                                  std::size_t msg_bytes, BlockParams params) {
  std::vector<std::uint8_t> msg(msg_bytes);
  (void)Decryptor(key, 0, params).decrypt_into(cipher, static_cast<std::uint64_t>(msg_bytes) * 8,
                                               msg);
  return msg;
}

}  // namespace mhhea::core
