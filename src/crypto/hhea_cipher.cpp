#include "src/crypto/hhea_cipher.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/core/cover.hpp"

namespace mhhea::crypto {

HheaCipher::HheaCipher(core::Key key, std::uint64_t seed, core::BlockParams params,
                       int shards)
    : key_(std::move(key)),
      seed_(seed),
      params_(params),
      shards_(exec::resolve_parallelism(shards, "HheaCipher")),
      wc_(key_),
      enc_(key_, core::make_lfsr_cover(params_.vector_bits, seed_), params_),
      dec_(key_, params_) {
  double mean_bits = 0.0;
  for (const auto& p : key_.pairs()) mean_bits += static_cast<double>(p.span() + 1);
  mean_bits /= static_cast<double>(key_.size());
  expansion_ = static_cast<double>(params_.vector_bits) / mean_bits;
  // Worker budget clamped to hardware concurrency; a single resolved worker
  // means no executor handle and the sequential cores run inline (see
  // MhheaCipher). Constructing an adapter never spawns threads.
  workers_ = std::min(shards_, exec::resolve_parallelism(0, "HheaCipher"));
  if (shards_ > 1 && workers_ > 1) {
    cover_proto_ = core::make_lfsr_cover(params_.vector_bits, seed_);
    // Warm the LFSR's lazily built leap tables and jump matrix once, so
    // every shard worker's clone shares them instead of rebuilding per call.
    (void)cover_proto_->next_block(params_.vector_bits);
    cover_proto_->skip_blocks(params_.vector_bits, 1);
    cover_proto_->reset();
    exec_ = &exec::Executor::shared();
  }
}

std::size_t HheaCipher::encrypt_into(std::span<const std::uint8_t> msg,
                                     std::span<std::uint8_t> out) {
  const int eff = std::min(effective_shards(shards_, msg.size()), workers_);
  if (eff > 1) {
    return hhea_encrypt_sharded_into(msg, key_, *cover_proto_, eff, exec_, out, params_);
  }
  return enc_.encrypt_into(msg, out);
}

std::size_t HheaCipher::decrypt_into(std::span<const std::uint8_t> cipher,
                                     std::size_t msg_bytes, std::span<std::uint8_t> out) {
  const int eff = std::min(effective_shards(shards_, msg_bytes), workers_);
  if (eff > 1) {
    return hhea_decrypt_sharded_into(cipher, key_, msg_bytes, eff, exec_, out, params_);
  }
  return dec_.decrypt_into(cipher, static_cast<std::uint64_t>(msg_bytes) * 8, out);
}

}  // namespace mhhea::crypto
