#include "src/core/mhhea.hpp"

#include <stdexcept>

#include "src/core/shard.hpp"

namespace mhhea::core {

Encryptor::Encryptor(Key key, LfsrCover cover, BlockParams params, Scheme scheme)
    : key_(std::move(key)), cover_(std::move(cover)), params_(params) {
  params_.validate();
  if (cover_.bits() != params_.vector_bits) {
    throw std::invalid_argument("Encryptor: cover width differs from vector_bits");
  }
  key_.require_fits(params_, "Encryptor");
  pair_ctx_ = detail::pair_tables(key_, params_, scheme);
  cover_.warm();
}

std::size_t Encryptor::encrypt_into(std::span<const std::uint8_t> msg,
                                    std::span<std::uint8_t> out) {
  return encrypt_into(msg, out, 1, nullptr);
}

std::size_t Encryptor::encrypt_into(std::span<const std::uint8_t> msg,
                                    std::span<std::uint8_t> out, int n_shards,
                                    exec::Executor* ex) {
  return static_cast<std::size_t>(
      detail::encrypt_chunked(pair_ctx_, params_, cover_, msg,
                              static_cast<std::uint64_t>(msg.size()) * 8, out, n_shards, ex, 0,
                              "Encryptor::encrypt_into"));
}

std::uint64_t Encryptor::one_shot_cipher_bytes(std::uint64_t n_bits) const {
  return detail::cipher_bytes(pair_ctx_, params_, cover_, n_bits);
}

void Encryptor::reseed(std::uint64_t seed) { cover_.reseed(seed); }

Decryptor::Decryptor(Key key, std::uint64_t /*message_bits*/, BlockParams params,
                     Scheme scheme)
    : params_(params) {
  params_.validate();
  key.require_fits(params_, "Decryptor");
  pair_ctx_ = detail::pair_tables(key, params_, scheme);
}

std::size_t Decryptor::decrypt_into(std::span<const std::uint8_t> cipher,
                                    std::uint64_t message_bits,
                                    std::span<std::uint8_t> out) const {
  return decrypt_into(cipher, message_bits, out, 1, nullptr);
}

std::size_t Decryptor::decrypt_into(std::span<const std::uint8_t> cipher,
                                    std::uint64_t message_bits, std::span<std::uint8_t> out,
                                    int n_shards, exec::Executor* ex) const {
  return detail::decrypt_chunked(pair_ctx_, params_, cipher, message_bits, out, n_shards, ex, 0,
                                 "Decryptor::decrypt_into");
}

std::vector<std::uint8_t> encrypt(std::span<const std::uint8_t> msg, const Key& key,
                                  std::uint64_t seed, BlockParams params, Scheme scheme) {
  return encrypt_sharded(msg, key, LfsrCover(params.vector_bits, seed), 1, nullptr, params,
                         scheme);
}

std::vector<std::uint8_t> decrypt(std::span<const std::uint8_t> cipher, const Key& key,
                                  std::size_t msg_bytes, BlockParams params, Scheme scheme) {
  std::vector<std::uint8_t> msg(msg_bytes);
  (void)Decryptor(key, 0, params, scheme)
      .decrypt_into(cipher, static_cast<std::uint64_t>(msg_bytes) * 8, msg);
  return msg;
}

}  // namespace mhhea::core
