#include "src/core/shard.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/core/mhhea.hpp"
#include "src/core/walk.hpp"

namespace mhhea::core {

namespace {

using detail::FrameWalk;
using detail::PairCtx;
using detail::kUnbounded;
using Pairs = std::span<const PairCtx>;

/// Cover vectors / ciphertext blocks a shard worker pulls per refill
/// (mirrors the sequential cores' bounded look-ahead, which is likewise
/// sized so LFSR covers engage the backend's multi-lane next_blocks path).
constexpr std::size_t kShardFetchChunk = 2048;
using CoverChunk = std::array<std::uint64_t, kShardFetchChunk>;

/// The shared precondition check of every sharded entry point: valid
/// params, key-vs-params fit, n_shards >= 1.
void validate_sharded(const Key& key, int n_shards, const BlockParams& params,
                      const char* who) {
  params.validate();
  key.require_fits(params, who);
  if (n_shards < 1) {
    throw std::invalid_argument(std::string(who) + ": n_shards must be >= 1");
  }
}

/// A derived per-worker cover positioned at `block_begin` — the
/// clone + reset + jump sequence every sharded path starts from.
std::unique_ptr<CoverSource> cover_at(const CoverSource& proto, const BlockParams& params,
                                      std::uint64_t block_begin) {
  auto cover = proto.clone();
  cover->reset();
  cover->skip_blocks(params.vector_bits, block_begin);
  return cover;
}

/// One shard of a message: a contiguous block range plus the message bits it
/// carries. `max_blocks` is exact for every shard except the trailing
/// continuous-policy one, where it is an upper bound (the final block lands
/// somewhere inside the last capacity chunk).
struct ShardRange {
  std::uint64_t block_begin = 0;
  std::uint64_t bit_begin = 0;
  std::uint64_t n_bits = 0;
  std::uint64_t max_blocks = 0;
};

/// The framed policy's shard bit ranges: an even split of whole frames
/// (exactly vector_bits message bits each, short final frame aside), so
/// every shard starts on a frame start — byte-aligned, with the frame
/// budget freshly open. Sets bit_begin and n_bits; the caller's width walk
/// pins block_begin and max_blocks (exact for every framed shard).
std::vector<ShardRange> split_frames(const BlockParams& params, std::uint64_t total_bits,
                                     std::size_t n_shards) {
  const auto vb = static_cast<std::uint64_t>(params.vector_bits);
  const std::uint64_t n_frames = (total_bits + vb - 1) / vb;
  std::vector<ShardRange> ranges;
  for (std::size_t s = 0; s < n_shards; ++s) {
    const std::uint64_t b = n_frames * s / n_shards * vb;
    if (ranges.empty() || b > ranges.back().bit_begin) ranges.push_back({0, b, 0, 0});
  }
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const bool last = i + 1 == ranges.size();
    ranges[i].n_bits = (last ? total_bits : ranges[i + 1].bit_begin) - ranges[i].bit_begin;
  }
  return ranges;
}

/// The walk state of a shard's first block: its key pair, its bit budget,
/// and (shards start on frame starts or the message start) no open frame.
FrameWalk shard_start(Pairs pairs, std::uint64_t block_begin, std::uint64_t n_bits) {
  return {static_cast<std::size_t>(block_begin % pairs.size()), n_bits, 0};
}

// ------------------------------------------------------------- encryption

/// Capacity of one block range: how many blocks the cover yielded (fewer
/// than asked only when a finite cover ran dry) and how many message bits
/// they can hold. Runs independently per chunk — this is the parallel half
/// of the continuous-policy plan.
struct ChunkCap {
  std::uint64_t blocks = 0;
  std::uint64_t bits = 0;
};

template <int N>
ChunkCap scan_chunk(const CoverSource& proto, Pairs pairs, const BlockParams& params,
                    std::uint64_t block_begin, std::uint64_t want_blocks) {
  const auto cover = cover_at(proto, params, block_begin);
  FrameWalk st = shard_start(pairs, block_begin, kUnbounded);
  ChunkCap cap;
  CoverChunk buf;
  while (cap.blocks < want_blocks) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf.size(), want_blocks - cap.blocks));
    const std::size_t got = cover->next_blocks(N, std::span(buf.data(), want));
    (void)detail::walk<N>(pairs, kUnbounded, st, buf.data(), got, detail::Measure{});
    cap.blocks += got;
    if (got < want) break;  // finite cover exhausted inside this chunk
  }
  cap.bits = kUnbounded - st.remaining;
  return cap;
}

/// Continuous-policy plan: scan block capacities in parallel chunks until
/// they cover the message, then walk the chunk sums into <= n_shards
/// balanced shard ranges (boundaries at chunk granularity, so every shard's
/// n_bits is exactly the capacity of its blocks).
template <int N>
std::vector<ShardRange> plan_continuous(const CoverSource& proto, Pairs pairs,
                                        const BlockParams& params, std::uint64_t total_bits,
                                        std::size_t n_shards, exec::Executor* ex) {
  // Chunk size: aim for a few chunks per shard (balance) without degrading
  // to per-block dispatch; ~3 bits/block is the seed-measured mean capacity.
  const std::uint64_t est_blocks = total_bits / 3 + 1;
  const std::uint64_t chunk_blocks =
      std::clamp<std::uint64_t>(est_blocks / (4 * n_shards) + 1, 16, 4096);

  std::vector<ChunkCap> chunks;
  std::uint64_t cap_sum = 0;
  bool exhausted = false;
  while (cap_sum < total_bits && !exhausted) {
    const std::uint64_t deficit = total_bits - cap_sum;
    const auto n_new = static_cast<std::size_t>(deficit / (3 * chunk_blocks) + 1);
    const std::size_t base = chunks.size();
    chunks.resize(base + n_new);
    exec::run_indexed(ex, n_new, [&](std::size_t i) {
      const std::uint64_t begin = static_cast<std::uint64_t>(base + i) * chunk_blocks;
      chunks[base + i] = scan_chunk<N>(proto, pairs, params, begin, chunk_blocks);
    });
    for (std::size_t i = base; i < chunks.size(); ++i) {
      cap_sum += chunks[i].bits;
      if (chunks[i].blocks < chunk_blocks) {
        // The cover ran dry in this chunk; later chunks saw nothing.
        exhausted = true;
        chunks.resize(i + 1);
        break;
      }
    }
  }
  if (cap_sum < total_bits) {
    throw std::runtime_error("encrypt_sharded: cover source exhausted");
  }

  // Greedy balanced grouping: each shard accumulates whole chunks until it
  // holds its (recomputed) fair share of the remaining bits.
  std::vector<ShardRange> ranges;
  std::uint64_t bit = 0;
  std::uint64_t block = 0;
  std::size_t c = 0;
  while (bit < total_bits) {
    const std::size_t shards_left = n_shards - ranges.size();
    const std::uint64_t remaining = total_bits - bit;
    const std::uint64_t goal =
        shards_left <= 1 ? remaining : (remaining + shards_left - 1) / shards_left;
    ShardRange r{block, bit, 0, 0};
    while (c < chunks.size() && r.n_bits < goal && bit < total_bits) {
      r.max_blocks += chunks[c].blocks;
      r.n_bits += chunks[c].bits;
      bit += chunks[c].bits;
      block += chunks[c].blocks;
      ++c;
    }
    if (bit > total_bits) {
      // Only the message-final shard overshoots (within its last chunk).
      r.n_bits -= bit - total_bits;
      bit = total_bits;
    }
    ranges.push_back(r);
  }
  return ranges;
}

/// Framed-policy encrypt plan: the serial width walk over one sequentially
/// generated cover stream, which also writes every cover vector into its
/// ciphertext slot of `out` — the workers then embed in place. Only vectors
/// the walk is certain to use are fetched (detail::next_covers), so
/// nothing past the exact ciphertext end is written and the chunk-granular
/// space check is exact.
template <int N>
std::vector<ShardRange> plan_framed(const CoverSource& proto, Pairs pairs,
                                    const BlockParams& params, std::uint64_t total_bits,
                                    std::size_t n_shards, std::span<std::uint8_t> out) {
  std::vector<ShardRange> ranges = split_frames(params, total_bits, n_shards);
  const auto cover = cover_at(proto, params, 0);
  const std::uint64_t room = out.size() / static_cast<std::size_t>(N / 8);
  CoverChunk buf;
  std::size_t pos = 0;
  std::size_t len = 0;
  std::uint64_t block = 0;
  FrameWalk st;
  for (ShardRange& r : ranges) {
    r.block_begin = block;
    st.remaining = r.n_bits;
    while (st.remaining > 0) {
      if (pos == len) {
        const std::uint64_t left = total_bits - (r.bit_begin + r.n_bits) + st.remaining;
        len = detail::next_covers(*cover, params, left, buf, "encrypt_sharded");
        pos = 0;
        if (room - block < len) {
          throw std::length_error("encrypt_sharded_into: output buffer too small");
        }
        std::uint8_t* slots = out.data() + block * static_cast<std::uint64_t>(N / 8);
        for (std::size_t i = 0; i < len; ++i) detail::store_block<N>(slots, i, buf[i]);
      }
      const std::size_t used = detail::walk<N>(pairs, detail::frame_bits(params), st,
                                               buf.data() + pos, len - pos, detail::Measure{});
      pos += used;
      block += used;
    }
    r.max_blocks = block - r.block_begin;
  }
  return ranges;
}

/// Framed-policy worker: embed the shard's message bits in place over the
/// cover vectors the plan walk left in its slots.
template <int N>
void embed_in_place(const ShardRange& r, std::span<const std::uint8_t> msg, Pairs pairs,
                    const BlockParams& params, std::uint8_t* out) {
  FrameWalk st = shard_start(pairs, r.block_begin, r.n_bits);
  std::uint8_t* slots = out + r.block_begin * static_cast<std::uint64_t>(N / 8);
  (void)detail::walk<N>(pairs, detail::frame_bits(params), st, slots, r.max_blocks,
                        detail::Embed<N>{slots, detail::BitSource(msg, r.bit_begin)});
}

/// Continuous-policy worker: embed the shard's message bits over a cover
/// clone jumped to its first block. Returns the blocks emitted (max_blocks,
/// or fewer for the trailing shard, whose max_blocks is an upper bound);
/// throws std::length_error past `capacity_blocks` slots.
template <int N>
std::uint64_t encrypt_range(const ShardRange& r, std::span<const std::uint8_t> msg,
                            Pairs pairs, const CoverSource& proto, const BlockParams& params,
                            std::uint8_t* out, std::uint64_t capacity_blocks) {
  const auto cover = cover_at(proto, params, r.block_begin);
  FrameWalk st = shard_start(pairs, r.block_begin, r.n_bits);
  detail::Embed<N> embed{nullptr, detail::BitSource(msg, r.bit_begin)};
  std::uint8_t* dst = out + r.block_begin * static_cast<std::uint64_t>(N / 8);
  std::uint64_t emitted = 0;
  CoverChunk buf;
  while (st.remaining > 0) {
    const std::size_t got =
        detail::next_covers(*cover, params, st.remaining, buf, "encrypt_sharded");
    if (capacity_blocks - emitted < got) {
      throw std::length_error("encrypt_sharded_into: output buffer too small");
    }
    embed.out = dst + emitted * (N / 8);
    emitted += detail::walk<N>(pairs, detail::frame_bits(params), st, buf.data(), got, embed);
  }
  return emitted;
}

/// The whole sharded encrypt for one vector width: plan, then run the
/// workers into `out`. Returns the ciphertext bytes written.
template <int N>
std::size_t run_encrypt_sharded(std::span<const std::uint8_t> msg, Pairs pairs,
                                const CoverSource& cover, std::size_t n_shards,
                                exec::Executor* ex, std::span<std::uint8_t> out,
                                const BlockParams& params) {
  constexpr std::uint64_t bb = N / 8;
  const auto total_bits = static_cast<std::uint64_t>(msg.size()) * 8;
  if (params.policy == FramePolicy::framed) {
    const std::vector<ShardRange> ranges =
        plan_framed<N>(cover, pairs, params, total_bits, n_shards, out);
    exec::run_indexed(ex, ranges.size(), [&](std::size_t s) {
      embed_in_place<N>(ranges[s], msg, pairs, params, out.data());
    });
    return static_cast<std::size_t>((ranges.back().block_begin + ranges.back().max_blocks) * bb);
  }
  const std::vector<ShardRange> ranges =
      plan_continuous<N>(cover, pairs, params, total_bits, n_shards, ex);
  const std::uint64_t out_blocks = static_cast<std::uint64_t>(out.size()) / bb;
  std::vector<std::uint64_t> emitted(ranges.size(), 0);
  exec::run_indexed(ex, ranges.size(), [&](std::size_t s) {
    const std::uint64_t capacity =
        out_blocks > ranges[s].block_begin ? out_blocks - ranges[s].block_begin : 0;
    emitted[s] = encrypt_range<N>(ranges[s], msg, pairs, cover, params, out.data(), capacity);
  });
  for (std::size_t s = 0; s + 1 < ranges.size(); ++s) {
    assert(emitted[s] == ranges[s].max_blocks);
    (void)s;
  }
  return static_cast<std::size_t>((ranges.back().block_begin + emitted.back()) * bb);
}

// ------------------------------------------------------------- decryption

/// Framed-policy decrypt plan: the serial width walk over the ciphertext
/// blocks' unmodified high halves. Doubles as the strict truncated/trailing
/// validation.
template <int N>
std::vector<ShardRange> plan_framed_decrypt(std::span<const std::uint8_t> cipher, Pairs pairs,
                                            const BlockParams& params,
                                            std::uint64_t total_bits, std::size_t n_shards) {
  std::vector<ShardRange> ranges = split_frames(params, total_bits, n_shards);
  const std::uint64_t n_blocks = cipher.size() / static_cast<std::size_t>(N / 8);
  std::uint64_t block = 0;
  FrameWalk st;
  for (ShardRange& r : ranges) {
    r.block_begin = block;
    st.remaining = r.n_bits;
    block += detail::walk<N>(pairs, detail::frame_bits(params), st,
                             cipher.data() + block * (N / 8),
                             static_cast<std::size_t>(n_blocks - block), detail::Measure{});
    if (st.remaining > 0) {
      throw std::invalid_argument("decrypt_sharded: ciphertext too short for message length");
    }
    r.max_blocks = block - r.block_begin;
  }
  if (block < n_blocks) {
    throw std::invalid_argument(
        "decrypt_sharded: trailing ciphertext blocks after message end");
  }
  return ranges;
}

/// One shard's extract: its n_bits message bits from blocks [block_begin,
/// block_begin + max_blocks) of `cipher`, LSB-first from the start of
/// `slice` (sized to exactly ceil(n_bits / 8) bytes).
template <int N>
void extract_range_into(std::span<const std::uint8_t> cipher, const ShardRange& r, Pairs pairs,
                        const BlockParams& params, std::span<std::uint8_t> slice) {
  detail::Extract extract{detail::BitSink(slice)};
  FrameWalk st = shard_start(pairs, r.block_begin, r.n_bits);
  (void)detail::walk<N>(pairs, detail::frame_bits(params), st,
                        cipher.data() + r.block_begin * (N / 8),
                        static_cast<std::size_t>(r.max_blocks), extract);
  assert(st.remaining == 0);
  extract.sink.flush();
}

/// The byte slice of `out` a byte-aligned shard's bits land in.
std::span<std::uint8_t> slice_of(std::span<std::uint8_t> out, const ShardRange& r) {
  assert(r.bit_begin % 8 == 0);
  return out.subspan(static_cast<std::size_t>(r.bit_begin / 8),
                     static_cast<std::size_t>((r.n_bits + 7) / 8));
}

/// Continuous policy: no encrypt-side plan survives — widths are
/// recomputed from the ciphertext blocks themselves. A parallel capacity
/// pre-scan (the decrypt-side mirror of plan_continuous's scan_chunk, but
/// reading blocks instead of stepping a cover) sums widths per chunk;
/// shard boundaries are then walked to the nearest block edge whose
/// cumulative bit offset is byte-aligned, so every worker extracts
/// straight into its disjoint slice of the caller's span — no private bit
/// buffers, no serial splice. The scan also yields the strict
/// truncated/trailing validation up front.
template <int N>
void decrypt_continuous(std::span<const std::uint8_t> cipher, Pairs pairs,
                        const BlockParams& params, std::uint64_t total_bits,
                        std::size_t n_shards, exec::Executor* ex, std::span<std::uint8_t> out) {
  const std::uint64_t n_blocks = cipher.size() / static_cast<std::size_t>(N / 8);
  if (n_blocks == 0) {
    throw std::invalid_argument("decrypt_sharded: ciphertext too short for message length");
  }
  const std::uint64_t n_eff = std::min<std::uint64_t>(n_shards, n_blocks);
  const auto width_at = [&](std::uint64_t block) -> std::uint64_t {
    return detail::range_of<N>(pairs[static_cast<std::size_t>(block % pairs.size())],
                               detail::load_block<N>(cipher.data(), block))
        .width;
  };

  const std::uint64_t chunk_blocks =
      std::clamp<std::uint64_t>(n_blocks / (4 * n_eff) + 1, 64, 8192);
  const auto n_chunks = static_cast<std::size_t>((n_blocks + chunk_blocks - 1) / chunk_blocks);
  std::vector<std::uint64_t> cum(n_chunks + 1, 0);  // bits before chunk i
  exec::run_indexed(ex, n_chunks, [&](std::size_t i) {
    const std::uint64_t begin = static_cast<std::uint64_t>(i) * chunk_blocks;
    const std::uint64_t end = std::min(n_blocks, begin + chunk_blocks);
    FrameWalk st = shard_start(pairs, begin, kUnbounded);
    (void)detail::walk<N>(pairs, kUnbounded, st, cipher.data() + begin * (N / 8),
                          static_cast<std::size_t>(end - begin), detail::Measure{});
    cum[i + 1] = kUnbounded - st.remaining;  // chunk sums first; prefixed below
  });
  for (std::size_t i = 0; i < n_chunks; ++i) cum[i + 1] += cum[i];

  const std::uint64_t total_sum = cum[n_chunks];
  if (total_sum < total_bits) {
    throw std::invalid_argument("decrypt_sharded: ciphertext too short for message length");
  }
  if (total_sum - width_at(n_blocks - 1) >= total_bits) {
    // Bits before the final block already complete the message, so that
    // block (at least) is trailing — mirror the sequential strictness.
    throw std::invalid_argument(
        "decrypt_sharded: trailing ciphertext blocks after message end");
  }

  // Shard starts: (block index, cumulative bit offset) pairs with the
  // offset byte-aligned. Each target is located by chunk prefix sum, then
  // walked block-by-block to the first edge at or past it with offset % 8
  // == 0; a boundary that cannot align before the message ends folds into
  // the final shard instead.
  struct DecStart {
    std::uint64_t block = 0;
    std::uint64_t bit = 0;
  };
  std::vector<DecStart> starts{{0, 0}};
  for (std::uint64_t s = 1; s < n_eff; ++s) {
    const std::uint64_t target = total_bits * s / n_eff;
    if (target <= starts.back().bit) continue;
    const auto ci = static_cast<std::size_t>(
        std::upper_bound(cum.begin(), cum.end(), target) - cum.begin() - 1);
    std::uint64_t bits = cum[ci];
    std::uint64_t block = static_cast<std::uint64_t>(ci) * chunk_blocks;
    while (block < n_blocks && (bits < target || bits % 8 != 0) && bits < total_bits) {
      bits += width_at(block);
      ++block;
    }
    if (bits % 8 != 0 || bits >= total_bits || block >= n_blocks) break;
    starts.push_back({block, bits});
  }

  exec::run_indexed(ex, starts.size(), [&](std::size_t s) {
    const bool last = s + 1 == starts.size();
    const ShardRange r{starts[s].block, starts[s].bit,
                       (last ? total_bits : starts[s + 1].bit) - starts[s].bit,
                       (last ? n_blocks : starts[s + 1].block) - starts[s].block};
    extract_range_into<N>(cipher, r, pairs, params, slice_of(out, r));
  });
}

}  // namespace

std::vector<std::uint8_t> encrypt_sharded(std::span<const std::uint8_t> msg, const Key& key,
                                          const CoverSource& cover, int n_shards,
                                          exec::Executor* ex, BlockParams params,
                                          Scheme scheme) {
  validate_sharded(key, n_shards, params, "encrypt_sharded");
  if (msg.empty()) return {};
  // Sized exactly by the sequential core's width walk; the single-shard
  // path IS the sequential core.
  auto c = cover.clone();
  c->reset();
  Encryptor enc(key, std::move(c), params, scheme);
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(enc.one_shot_cipher_bytes(static_cast<std::uint64_t>(msg.size()) * 8)));
  if (n_shards == 1) {
    (void)enc.encrypt_into(msg, out);
  } else {
    (void)encrypt_sharded_into(msg, key, cover, n_shards, ex, out, params, scheme);
  }
  return out;
}

std::size_t encrypt_sharded_into(std::span<const std::uint8_t> msg, const Key& key,
                                 const CoverSource& cover, int n_shards,
                                 exec::Executor* ex, std::span<std::uint8_t> out,
                                 BlockParams params, Scheme scheme) {
  validate_sharded(key, n_shards, params, "encrypt_sharded_into");
  if (msg.empty()) return 0;
  if (n_shards == 1) {
    auto c = cover.clone();
    c->reset();
    Encryptor enc(key, std::move(c), params, scheme);
    return enc.encrypt_into(msg, out);
  }
  const std::vector<PairCtx> pairs = detail::pair_tables(key, params, scheme);
  return detail::with_width(params.vector_bits, [&]<int N>() {
    return run_encrypt_sharded<N>(msg, pairs, cover, static_cast<std::size_t>(n_shards), ex,
                                  out, params);
  });
}

std::vector<std::uint8_t> decrypt_sharded(std::span<const std::uint8_t> cipher,
                                          const Key& key, std::size_t msg_bytes,
                                          int n_shards, exec::Executor* ex,
                                          BlockParams params, Scheme scheme) {
  std::vector<std::uint8_t> msg(msg_bytes);
  (void)decrypt_sharded_into(cipher, key, msg_bytes, n_shards, ex, msg, params, scheme);
  return msg;
}

std::size_t decrypt_sharded_into(std::span<const std::uint8_t> cipher, const Key& key,
                                 std::size_t msg_bytes, int n_shards,
                                 exec::Executor* ex, std::span<std::uint8_t> out,
                                 BlockParams params, Scheme scheme) {
  validate_sharded(key, n_shards, params, "decrypt_sharded_into");
  if (out.size() < msg_bytes) {
    throw std::length_error("decrypt_sharded_into: output buffer too small");
  }
  const auto total_bits = static_cast<std::uint64_t>(msg_bytes) * 8;
  if (n_shards == 1) {
    return Decryptor(key, total_bits, params, scheme).decrypt_into(cipher, total_bits, out);
  }
  const auto bb = static_cast<std::size_t>(params.block_bytes());
  if (cipher.size() % bb != 0) {
    throw std::invalid_argument("decrypt_sharded: ciphertext not block-aligned");
  }
  if (total_bits == 0) {
    if (!cipher.empty()) {
      throw std::invalid_argument(
          "decrypt_sharded: trailing ciphertext blocks after message end");
    }
    return 0;
  }
  const std::vector<PairCtx> pairs = detail::pair_tables(key, params, scheme);
  const auto shards = static_cast<std::size_t>(n_shards);
  detail::with_width(params.vector_bits, [&]<int N>() {
    if (params.policy != FramePolicy::framed) {
      decrypt_continuous<N>(cipher, pairs, params, total_bits, shards, ex, out);
      return;
    }
    // The plan walk fixes every shard's bit range and block count (and
    // doubles as the strict length validation), and frame-aligned shard
    // starts are byte-aligned, so workers write disjoint slices of `out`
    // directly — no private buffers, no splice.
    const std::vector<ShardRange> ranges =
        plan_framed_decrypt<N>(cipher, pairs, params, total_bits, shards);
    exec::run_indexed(ex, ranges.size(), [&](std::size_t s) {
      extract_range_into<N>(cipher, ranges[s], pairs, params, slice_of(out, ranges[s]));
    });
  });
  return msg_bytes;
}

}  // namespace mhhea::core
