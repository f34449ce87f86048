#include "src/crypto/hhea.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "src/core/shard.hpp"

namespace mhhea::crypto {

using core::BlockParams;
using core::FramePolicy;

HheaEncryptor::HheaEncryptor(core::Key key, std::unique_ptr<core::CoverSource> cover,
                             BlockParams params)
    : cover_(std::move(cover)), params_(params) {
  params_.validate();
  if (cover_ == nullptr) throw std::invalid_argument("HheaEncryptor: null cover source");
  key.require_fits(params_, "HheaEncryptor");
  ctx_ = detail::fixed_range_ctx(key);
}

std::size_t HheaEncryptor::encrypt_into(std::span<const std::uint8_t> msg,
                                        std::span<std::uint8_t> out) {
  reset();
  std::array<std::uint64_t, core::detail::kShardFetchChunk> covers;
  return core::detail::embed_message(ctx_, params_, *cover_, covers, msg, out,
                                     "HheaEncryptor::encrypt_into");
}

void HheaEncryptor::reset() { cover_->reset(); }

HheaDecryptor::HheaDecryptor(core::Key key, BlockParams params) : params_(params) {
  params_.validate();
  key.require_fits(params_, "HheaDecryptor");
  ctx_ = detail::fixed_range_ctx(key);
}

std::size_t HheaDecryptor::decrypt_into(std::span<const std::uint8_t> cipher,
                                        std::uint64_t message_bits,
                                        std::span<std::uint8_t> out) const {
  return core::detail::extract_message(ctx_, params_, cipher, message_bits, out,
                                       "HheaDecryptor::decrypt_into");
}

namespace {

using core::detail::ShardRange;  // max_blocks is exact for every HHEA shard

/// The key's fixed width cycle: block i embeds widths[i mod L] bits (capped
/// only by frame/message budgets), so bit offsets of block boundaries are
/// closed-form.
// WidthCycle moved to hhea.hpp (detail::) so adapters can cache one per key;
// alias it into this file's historical spelling.
using WidthCycle = detail::WidthCycle;

/// Continuous plan: an even block split, bit offsets by closed form.
std::vector<ShardRange> plan_continuous(const WidthCycle& wc, std::uint64_t total_bits,
                                        std::size_t n_shards) {
  const std::uint64_t total_blocks = wc.blocks_for_bits(total_bits);
  const std::uint64_t n_eff =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(n_shards), total_blocks);
  std::vector<ShardRange> ranges;
  for (std::uint64_t s = 0; s < n_eff; ++s) {
    ShardRange r;
    r.block_begin = total_blocks * s / n_eff;
    r.max_blocks = total_blocks * (s + 1) / n_eff - r.block_begin;
    r.bit_begin = wc.bit_at_block(r.block_begin);
    // Only the message-final block has its width capped, so only the last
    // shard's bit budget needs the clamp.
    r.n_bits = std::min(wc.bit_at_block(r.block_begin + r.max_blocks), total_bits) -
               r.bit_begin;
    ranges.push_back(r);
  }
  return ranges;
}

/// Blocks the framed policy needs for `n_bits` message bits starting on a
/// frame start at pair `pair_idx` (advanced past them): the cover-free
/// frame walk over the width cycle (frame budgets feed back into per-block
/// widths, so there is no closed form).
std::uint64_t framed_blocks(const WidthCycle& wc, const BlockParams& params,
                            std::uint64_t n_bits, std::size_t& pair_idx) {
  std::uint64_t blocks = 0;
  int frame_remaining = 0;
  while (n_bits > 0) {
    if (frame_remaining == 0) frame_remaining = params.frame_budget(n_bits);
    const auto n = static_cast<int>(wc.prefix[pair_idx + 1] - wc.prefix[pair_idx]);
    if (++pair_idx == wc.L) pair_idx = 0;
    const int w = std::min(n, frame_remaining);
    n_bits -= static_cast<std::uint64_t>(w);
    frame_remaining -= w;
    ++blocks;
  }
  return blocks;
}

/// Framed plan: the shared frame split, each shard's block count walked
/// over the width cycle (widths don't depend on V, so no cover is read).
std::vector<ShardRange> plan_framed(const WidthCycle& wc, const BlockParams& params,
                                    std::uint64_t total_bits, std::size_t n_shards) {
  std::vector<ShardRange> ranges = core::detail::split_frames(params, total_bits, n_shards);
  std::uint64_t block = 0;
  std::size_t pair_idx = 0;
  for (ShardRange& r : ranges) {
    r.block_begin = block;
    r.max_blocks = framed_blocks(wc, params, r.n_bits, pair_idx);
    block += r.max_blocks;
  }
  return ranges;
}

std::vector<ShardRange> plan_shards(const WidthCycle& wc, const BlockParams& params,
                                    std::uint64_t total_bits, std::size_t n_shards,
                                    std::uint64_t* total_blocks) {
  std::vector<ShardRange> ranges = params.policy == FramePolicy::framed
                                       ? plan_framed(wc, params, total_bits, n_shards)
                                       : plan_continuous(wc, total_bits, n_shards);
  *total_blocks =
      ranges.empty() ? 0 : ranges.back().block_begin + ranges.back().max_blocks;
  return ranges;
}

}  // namespace

std::vector<core::detail::PairCtx> detail::fixed_range_ctx(const core::Key& key) {
  std::vector<core::detail::PairCtx> ctx(static_cast<std::size_t>(key.size()));
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const core::KeyPair& p = key.pair(static_cast<int>(i));
    ctx[i].pair = p;
    ctx[i].range.fill({p.lo(), static_cast<std::uint8_t>(p.span() + 1)});
  }
  return ctx;
}

std::uint64_t hhea_cipher_bytes(const core::Key& key, std::uint64_t msg_bits,
                                BlockParams params) {
  params.validate();
  key.require_fits(params, "hhea_cipher_bytes");
  return hhea_cipher_bytes(WidthCycle(key), msg_bits, params);
}

std::uint64_t hhea_cipher_bytes(const detail::WidthCycle& wc, std::uint64_t msg_bits,
                                const BlockParams& params) {
  if (msg_bits == 0) return 0;
  const auto bb = static_cast<std::uint64_t>(params.block_bytes());
  if (params.policy != FramePolicy::framed) return wc.blocks_for_bits(msg_bits) * bb;
  std::size_t pair_idx = 0;
  return framed_blocks(wc, params, msg_bits, pair_idx) * bb;
}

std::vector<std::uint8_t> hhea_encrypt_sharded(std::span<const std::uint8_t> msg,
                                               const core::Key& key,
                                               const core::CoverSource& cover, int n_shards,
                                               exec::Executor* ex, BlockParams params) {
  core::detail::validate_sharded(key, n_shards, params, "hhea_encrypt_sharded");
  std::vector<std::uint8_t> out(static_cast<std::size_t>(
      hhea_cipher_bytes(key, static_cast<std::uint64_t>(msg.size()) * 8, params)));
  (void)hhea_encrypt_sharded_into(msg, key, cover, n_shards, ex, out, params);
  return out;
}

std::size_t hhea_encrypt_sharded_into(std::span<const std::uint8_t> msg,
                                      const core::Key& key, const core::CoverSource& cover,
                                      int n_shards, exec::Executor* ex,
                                      std::span<std::uint8_t> out, BlockParams params) {
  core::detail::validate_sharded(key, n_shards, params, "hhea_encrypt_sharded_into");
  if (msg.empty()) return 0;
  if (n_shards == 1) {
    auto c = cover.clone();
    c->reset();
    HheaEncryptor enc(key, std::move(c), params);
    return enc.encrypt_into(msg, out);
  }
  const WidthCycle wc(key);
  const auto total_bits = static_cast<std::uint64_t>(msg.size()) * 8;
  std::uint64_t total_blocks = 0;
  const std::vector<ShardRange> ranges =
      plan_shards(wc, params, total_bits, static_cast<std::size_t>(n_shards), &total_blocks);
  const std::size_t need = static_cast<std::size_t>(total_blocks) *
                           static_cast<std::size_t>(params.block_bytes());
  if (out.size() < need) {
    throw std::length_error("hhea_encrypt_sharded_into: output buffer too small");
  }
  const std::vector<core::detail::PairCtx> ctx = detail::fixed_range_ctx(key);
  exec::run_indexed(ex, ranges.size(), [&](std::size_t s) {
    (void)core::detail::encrypt_shard(ranges[s], msg, ctx, cover, params, out.data(),
                                      ranges[s].max_blocks);
  });
  return need;
}

std::vector<std::uint8_t> hhea_decrypt_sharded(std::span<const std::uint8_t> cipher,
                                               const core::Key& key, std::size_t msg_bytes,
                                               int n_shards, exec::Executor* ex,
                                               BlockParams params) {
  std::vector<std::uint8_t> msg(msg_bytes);
  (void)hhea_decrypt_sharded_into(cipher, key, msg_bytes, n_shards, ex, msg, params);
  return msg;
}

std::size_t hhea_decrypt_sharded_into(std::span<const std::uint8_t> cipher,
                                      const core::Key& key, std::size_t msg_bytes,
                                      int n_shards, exec::Executor* ex,
                                      std::span<std::uint8_t> out, BlockParams params) {
  core::detail::validate_sharded(key, n_shards, params, "hhea_decrypt_sharded_into");
  if (out.size() < msg_bytes) {
    throw std::length_error("hhea_decrypt_sharded_into: output buffer too small");
  }
  if (n_shards == 1) {
    return HheaDecryptor(key, params)
        .decrypt_into(cipher, static_cast<std::uint64_t>(msg_bytes) * 8, out);
  }
  // Core's driver over the fixed-range tables: the same byte-snapped shard
  // boundaries and strict length checks as MHHEA's sharded decrypt.
  core::detail::run_decrypt_sharded(cipher, detail::fixed_range_ctx(key), msg_bytes, n_shards,
                                    ex, out, params);
  return msg_bytes;
}

std::vector<std::uint8_t> hhea_encrypt(std::span<const std::uint8_t> msg,
                                       const core::Key& key, std::uint64_t seed,
                                       BlockParams params) {
  return hhea_encrypt_sharded(msg, key, core::LfsrCover(params.vector_bits, seed), 1, nullptr,
                              params);
}

std::vector<std::uint8_t> hhea_decrypt(std::span<const std::uint8_t> cipher,
                                       const core::Key& key, std::size_t msg_bytes,
                                       BlockParams params) {
  std::vector<std::uint8_t> msg(msg_bytes);
  (void)HheaDecryptor(key, params)
      .decrypt_into(cipher, static_cast<std::uint64_t>(msg_bytes) * 8, msg);
  return msg;
}

}  // namespace mhhea::crypto
