// Batched multi-message cipher API — the engine's first scaling primitive.
//
// A server encrypting independent packets for many users is embarrassingly
// parallel: each message is a separate cipher invocation. encrypt_batch /
// decrypt_batch fan a span of messages over the persistent process-wide
// work-stealing executor (src/exec/executor.hpp), giving one cipher instance
// per worker so no cipher state is shared. Results are bit-identical to a
// sequential loop
// (verified by tests/cipher_registry_test.cpp) because Cipher adapters are
// deterministic per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/crypto/cipher.hpp"

namespace mhhea::crypto {

/// Builds one cipher instance per worker thread. Every instance must be
/// configured identically (same key/nonce) — e.g. bind a registry factory to
/// a fixed seed.
using CipherMaker = std::function<std::unique_ptr<Cipher>()>;

/// Encrypt each message independently. `n_threads` == 1 runs inline on the
/// calling thread; 0 picks std::thread::hardware_concurrency(); negative
/// counts throw std::invalid_argument, as does a null maker. Exceptions
/// thrown by the cipher are rethrown on the calling thread.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> encrypt_batch(
    const CipherMaker& make_cipher, std::span<const std::vector<std::uint8_t>> msgs,
    int n_threads = 0);

/// Decrypt each ciphertext independently; `msg_bytes[i]` is the plaintext
/// length of `ciphers[i]`. Throws std::invalid_argument if the spans differ
/// in length or the maker is null.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> decrypt_batch(
    const CipherMaker& make_cipher, std::span<const std::vector<std::uint8_t>> ciphers,
    std::span<const std::size_t> msg_bytes, int n_threads = 0);

}  // namespace mhhea::crypto
