// Analytical model of MHHEA's rate and location statistics.
//
// MhheaCipher reports its expected expansion from it (Table 1's rate
// model), and the location statistics quantify how well the location
// scrambling spreads the hidden bits (the property that defeats the
// constant chosen-plaintext attack, §II/§VI).
#pragma once

#include <array>
#include <vector>

#include "src/core/key.hpp"
#include "src/core/params.hpp"

namespace mhhea::core {

/// Exact expected number of message bits embedded per block for one key
/// pair, averaging over a uniform scramble field (what a maximal-length LFSR
/// delivers asymptotically). Enumerates all 2^loc_bits field values.
[[nodiscard]] double expected_bits_per_block(const KeyPair& pair,
                                             const BlockParams& params = BlockParams::paper());

/// Average of expected_bits_per_block over the key's pairs (pairs are used
/// round-robin, so the long-run rate is the arithmetic mean).
[[nodiscard]] double expected_bits_per_block(const Key& key,
                                             const BlockParams& params = BlockParams::paper());

/// Expected ciphertext expansion: vector_bits / expected_bits_per_block.
[[nodiscard]] double expected_expansion(const Key& key,
                                        const BlockParams& params = BlockParams::paper());

/// Probability that location j (0 <= j < N/2) is replaced by a message bit,
/// for one key pair under a uniform scramble field. The flatter this
/// distribution, the less a ciphertext-only attacker learns (HHEA without
/// scrambling concentrates all mass on [K1, K2]).
[[nodiscard]] std::vector<double> location_replacement_probability(
    const KeyPair& pair, const BlockParams& params = BlockParams::paper());

/// Same, averaged over the key's pairs.
[[nodiscard]] std::vector<double> location_replacement_probability(
    const Key& key, const BlockParams& params = BlockParams::paper());

/// Expected bits/block for a uniformly random key (closed-form enumeration
/// over all pairs) — 3.625 for the paper's N=16. Used as the "expected
/// information bits" in throughput formulas.
[[nodiscard]] double expected_bits_per_block_random_key(
    const BlockParams& params = BlockParams::paper());

}  // namespace mhhea::core
