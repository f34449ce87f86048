#include "src/core/shard.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/backend/backend.hpp"

namespace mhhea::core {

namespace {

using backend::ApplyBatch;
using backend::Cursor;
using backend::KeyTables;
using backend::PairCtx;
using backend::Transfer;

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }
constexpr std::uint64_t ceil8(std::uint64_t bit) { return (bit + 7) & ~std::uint64_t{7}; }

/// Cover vectors generated per refill: a whole number of apply batches,
/// and long enough for the LFSR's multi-lane path.
constexpr std::size_t kCoverRefill = 2048;
using CoverBuf = std::array<std::uint64_t, kCoverRefill>;

/// The next `n` (<= kCoverRefill) vectors of `cover`, generated into
/// `buf` and serialized as N-bit blocks at `dst` — which may be `buf`'s own
/// bytes: a block is no wider than its word, so serializing front to back
/// never overwrites a word before it is read.
template <int N>
void next_covers(LfsrCover& cover, CoverBuf& buf, std::uint8_t* dst, std::size_t n) {
  (void)cover.next_blocks(N, std::span(buf.data(), n));
  for (std::size_t i = 0; i < n; ++i) backend::detail::store_block<N>(dst, i, buf[i]);
}

/// Automatic chunking: this many chunks per shard, so the claiming threads
/// share the work evenly, and never fewer than kMinChunkBlocks blocks per
/// chunk, so the fixed cost of a chunk (a cover jump, a transfer table)
/// stays small.
constexpr std::uint64_t kChunksPerShard = 4;
constexpr std::uint64_t kMinChunkBlocks = 2048;

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

/// Blocks a message of `bits` bits is expected to take, each block's width
/// drawn evenly from every (pair, field) table entry. Under the framed
/// policy a frame's last block is capped to the bits left in it, so a frame
/// of `budget` bits takes blocks(budget) = 1 + mean over widths w of
/// blocks(budget - w), with blocks(b <= 0) = 0.
std::uint64_t expected_blocks(const KeyTables& k, const BlockParams& params, std::uint64_t bits) {
  const auto entries = static_cast<double>(k.pairs.size()) * params.half();
  const auto mean_over_widths = [&](auto&& f) {
    double sum = 0;
    for (const PairCtx& pc : k.pairs) {
      for (int i = 0; i < params.half(); ++i) sum += f(pc.range[static_cast<std::size_t>(i)].width);
    }
    return sum / entries;
  };
  if (params.policy == FramePolicy::continuous) {
    return static_cast<std::uint64_t>(static_cast<double>(bits) /
                                      mean_over_widths([](int w) { return double(w); })) +
           1;
  }
  const int n = params.vector_bits;
  std::array<double, 65> frame{};  // expected blocks per frame budget
  for (int b = 1; b <= n; ++b) {
    frame[static_cast<std::size_t>(b)] = 1 + mean_over_widths([&](int w) {
      return b > w ? frame[static_cast<std::size_t>(b - w)] : 0.0;
    });
  }
  const double blocks = static_cast<double>(bits / n) * frame[static_cast<std::size_t>(n)] +
                        frame[static_cast<std::size_t>(bits % n)];
  return static_cast<std::uint64_t>(blocks) + 1;
}

/// How one call is cut: `limit` blocks at most, in chunks of `chunk`
/// blocks, `window` chunks planned per plan round.
struct Shape {
  std::uint64_t total_bits = 0;
  std::uint64_t limit = 0;
  std::uint64_t chunk = 0;
  std::uint64_t window = 0;
};

/// The shape for `n_shards` workers on `ex`: kChunksPerShard chunks per
/// shard over the blocks `expected()` returns plus a 1/32 margin, which the
/// first plan round covers — or one chunk spanning everything for a single
/// shard, no executor, or a message expected to fit one chunk.
/// `chunk_blocks` > 0 forces the chunk size and the plan (tests cut chunks
/// mid-frame with it).
template <class Expected>
Shape make_shape(std::uint64_t total_bits, std::uint64_t limit, int n_shards, exec::Executor* ex,
                 std::uint64_t chunk_blocks, const Expected& expected) {
  const bool sharded = n_shards > 1 && ex != nullptr;
  if (!sharded && (chunk_blocks == 0 || chunk_blocks >= limit)) {
    return {total_bits, limit, limit, 1};
  }
  const std::uint64_t blocks = expected();
  const std::uint64_t planned = blocks + blocks / 32;
  const std::uint64_t chunk =
      chunk_blocks > 0 ? chunk_blocks
                       : std::max(kMinChunkBlocks,
                                  ceil_div(planned, kChunksPerShard *
                                                      static_cast<std::uint64_t>(n_shards)));
  const std::uint64_t window = ceil_div(planned, chunk);
  if (chunk >= limit || (chunk_blocks == 0 && window == 1)) return {total_bits, limit, limit, 1};
  return {total_bits, limit, chunk, window};
}

/// What runs beside a pipeline, each optional: `gate` on the calling thread
/// while the first plan round is in flight (before the walk when there is
/// a single chunk), and `absorb` on the blocks [first, end) of finished
/// chunks, in chunk order.
struct Hooks {
  util::FunctionRef<void()> gate;
  util::FunctionRef<void(std::uint64_t first, std::uint64_t end)> absorb;
};

/// The pipeline over `job`'s chunks: chunk c is blocks [c * chunk,
/// (c + 1) * chunk) of the output. A chunk's walk needs its entry bit,
/// which depends on every chunk before it, but its transfer function does
/// not. So the chunks run in two rounds on `ex`, each fanned out with the
/// calling thread claiming chunks alongside the helpers:
///   1. plan — the first `window` chunks compute their transfer functions
///      while the calling thread runs the gate; compose then fixes each
///      chunk's entry bit, one step per chunk, up to the chunk the message
///      ends in (if the message runs past them, another round plans the
///      chunks its remaining bits are expected to take at the rate so far,
///      and one more);
///   2. apply — every chunk the message reaches walks from its entry bit,
///      and finished chunks go to `absorb` in order (see hand_off below).
/// A single chunk is the sequential walk, with no plan. `job` supplies
/// plan(first, count, state) and walk(at, count, end, state, through); see
/// EncryptJob and DecryptJob. Returns where the message-final walk stopped:
/// bit < total_bits when `limit` blocks cannot hold the message.
template <int N, bool Framed, class Job>
Cursor run_pipeline(const Job& job, const Shape& s, exec::Executor* ex, const Hooks& hooks) {
  const std::uint64_t total = s.total_bits;
  const std::uint64_t k = s.chunk;
  using State = typename Job::State;
  const auto gate = [&] {
    if (hooks.gate) hooks.gate();
  };
  if (k >= s.limit) {
    gate();
    State state{};
    const Cursor exit = job.walk(Cursor{}, s.limit, total, &state, total);
    if (hooks.absorb) hooks.absorb(0, exit.block);
    return exit;
  }

  struct Chunk {
    Transfer transfer;
    State state{};
    std::uint64_t entry = 0;
    Cursor exit;
    bool done = false;  // walked; guarded by `frontier` below
  };
  const std::uint64_t n_chunks = ceil_div(s.limit, k);
  const auto blocks_of = [&](std::uint64_t c) { return std::min(k, s.limit - c * k); };
  std::vector<Chunk> chunks;
  std::uint64_t bit = 0;           // the next composed chunk's entry bit
  std::size_t used = 0;            // chunks composed: those the message reaches
  std::uint64_t round = s.window;  // chunks the next plan round takes
  while (bit < total && used < n_chunks) {
    const std::size_t from = chunks.size();
    chunks.resize(static_cast<std::size_t>(std::min(n_chunks, from + round)));
    const auto plan = [&](std::size_t i) {
      Chunk& ch = chunks[from + i];
      ch.transfer = job.plan((from + i) * k, blocks_of(from + i), ch.state);
    };
    if (from == 0) {
      exec::run_indexed(ex, chunks.size(), plan, gate);
    } else {
      exec::run_indexed(ex, chunks.size() - from, plan);
    }
    for (; used < chunks.size() && bit < total; ++used) {
      chunks[used].entry = bit;
      bit += chunks[used].transfer.bits[Framed ? bit % N : 0];
    }
    // bit > 0 here: every block takes at least one bit.
    if (bit < total) round = ceil_div((total - bit) * used, bit) + 1;
  }
  // Finished chunks go to `absorb` in chunk order while others are still
  // walking. The task that finishes the chunk at the frontier absorbs it
  // and every finished chunk after it; a task that finishes any other
  // chunk, or finds an absorb in progress, marks its chunk done and leaves
  // (the absorbing task rechecks before it stops). No task waits for
  // another. Used chunks tile the blocks, so a run of them is one span.
  std::mutex frontier;
  std::size_t next_absorb = 0;
  bool absorbing = false;
  const auto hand_off = [&](std::size_t c) {
    std::unique_lock lock(frontier);
    chunks[c].done = true;
    if (absorbing) return;
    absorbing = true;
    while (next_absorb < used && chunks[next_absorb].done) {
      const std::uint64_t first = next_absorb * k;
      while (next_absorb < used && chunks[next_absorb].done) ++next_absorb;
      const std::uint64_t end = chunks[next_absorb - 1].exit.block;
      lock.unlock();
      hooks.absorb(first, end);
      lock.lock();
    }
    absorbing = false;
  };
  exec::run_indexed(ex, used, [&](std::size_t c) {
    Chunk& ch = chunks[c];
    const std::uint64_t next = c + 1 < used ? chunks[c + 1].entry : bit;
    ch.exit = job.walk(Cursor{c * k, ch.entry}, blocks_of(c), total, &ch.state,
                       std::min(total, ceil8(next)));
    if (hooks.absorb) hand_off(c);
  });
  if (bit < total) return {s.limit, bit};
  return chunks[used - 1].exit;
}

// ------------------------------------------------------------- encryption

/// Encrypt (or, with a null `out`, size): covers from the LFSR, each chunk's
/// plan from its own cover copy jumped to the chunk's first block, and its
/// apply embedding into the chunk's disjoint block range of `out`.
template <int N>
struct EncryptJob {
  const KeyTables& k;
  const LfsrCover& base;  // at block 0, warmed
  std::span<const std::uint8_t> msg;
  std::uint8_t* out;
  std::uint64_t certain;  // a chunk ending at or below this block plans into `out`

  /// What a chunk's plan leaves its apply: its covers in `out`, or the
  /// cover at its first block (the single-chunk walk, which has no plan,
  /// seeks its own).
  struct State {
    bool in_place = false;
    std::optional<LfsrCover> cover;
  };

  Transfer plan(std::uint64_t first, std::uint64_t count, State& state) const {
    LfsrCover cover = base;
    cover.skip_blocks(N, first);
    state.in_place = out != nullptr && first + count <= certain;
    if (!state.in_place) state.cover = cover;
    const backend::Backend& engine = backend::active();
    Transfer t;
    CoverBuf buf;
    for (std::uint64_t done = 0; done < count;) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kCoverRefill, count - done));
      std::uint8_t* covers = state.in_place ? out + (first + done) * (N / 8)
                                            : reinterpret_cast<std::uint8_t*>(buf.data());
      next_covers<N>(cover, buf, covers, n);
      engine.plan_blocks(k, first + done, covers, n, t);
      done += n;
    }
    return t;
  }

  /// Embed blocks [at.block, at.block + count) from message bit at.bit,
  /// stopping at bit `end`; a regenerating walk leaves its cover where it
  /// stopped in `state`.
  Cursor walk(Cursor at, std::uint64_t count, std::uint64_t end, State* state,
              std::uint64_t /*through*/) const {
    const backend::Backend& engine = backend::active();
    ApplyBatch batch;
    const std::uint64_t stop = at.block + count;
    // Schedule and embed `n` blocks whose covers are at `covers`.
    const auto apply = [&](const std::uint8_t* covers, std::uint64_t n) {
      for (std::uint64_t i = 0; i < n && at.bit < end; i += batch.n) {
        const Cursor from = at;
        const std::uint8_t* c = covers + i * (N / 8);
        (void)engine.schedule_blocks(k, at, end, c,
                                     static_cast<std::size_t>(std::min<std::uint64_t>(
                                         backend::kApplyBatch, n - i)),
                                     batch);
        if (out != nullptr) {
          engine.embed_blocks(N, batch, c, msg.subspan(from.bit / 8), out + from.block * (N / 8));
        }
      }
    };
    if (state->in_place) {
      apply(out + at.block * (N / 8), count);
      return at;
    }
    if (!state->cover) {
      state->cover = base;
      state->cover->skip_blocks(N, at.block);
    }
    CoverBuf buf;
    const auto* covers = reinterpret_cast<std::uint8_t*>(buf.data());
    while (at.block < stop && at.bit < end) {
      // Only covers certain to be used (a block takes at most N/2 bits), so
      // short messages do not pay for a whole refill.
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
          {kCoverRefill, stop - at.block, std::max<std::uint64_t>((end - at.bit) / (N / 2), 1)}));
      next_covers<N>(*state->cover, buf, reinterpret_cast<std::uint8_t*>(buf.data()), n);
      apply(covers, n);
    }
    return at;
  }
};

/// The encrypt pipeline. `out` null: size only. Returns the ciphertext
/// blocks; throws std::length_error (`who`) when `room` blocks cannot hold
/// them.
std::uint64_t encrypt_blocks(const KeyTables& k, const BlockParams& params, const LfsrCover& cover,
                             std::span<const std::uint8_t> msg, std::uint64_t bits,
                             std::uint8_t* out, std::uint64_t room, int n_shards,
                             exec::Executor* ex, std::uint64_t chunk_blocks, const char* who,
                             ByteSink absorb) {
  if (bits == 0) return 0;
  // Every block takes at least one bit, so `bits` blocks always suffice.
  const std::uint64_t limit = std::min(room, bits);
  const Shape shape = make_shape(bits, limit, n_shards, ex, chunk_blocks,
                                 [&] { return expected_blocks(k, params, bits); });
  LfsrCover base = cover;
  base.reset();
  if (shape.chunk < limit) base.warm();  // the chunks' copies share its tables
  const auto bb = static_cast<std::uint64_t>(params.block_bytes());
  const auto absorb_blocks = [&](std::uint64_t first, std::uint64_t end) {
    absorb(std::span<const std::uint8_t>(out + first * bb, (end - first) * bb));
  };
  Hooks hooks;
  if (absorb) hooks.absorb = absorb_blocks;
  const std::uint64_t certain =
      out != nullptr && shape.chunk < limit ? std::min(limit, detail::certain_blocks(k, bits)) : 0;
  const Cursor end = backend::detail::with_layout(k, [&]<int N, bool Framed>() {
    return run_pipeline<N, Framed>(EncryptJob<N>{k, base, msg, out, certain}, shape, ex, hooks);
  });
  if (end.bit < bits) throw std::length_error(std::string(who) + ": output buffer too small");
  return end.block;
}

// ------------------------------------------------------------- decryption

/// Decrypt: each chunk's plan reads the ciphertext blocks' unmodified high
/// halves, and its walk extracts into whole bytes of `out`. Chunk edges
/// fall mid-byte, so a walk deposits the bits from its entry rounded up to
/// a byte boundary through the next chunk's entry rounded up likewise (it
/// walks on a few blocks past its own to get there): every byte of `out`
/// has exactly one writer.
template <int N>
struct DecryptJob {
  const KeyTables& k;
  std::span<const std::uint8_t> cipher;
  const std::span<std::uint8_t>& out;  // ceil(total bits / 8) bytes, set by the gate
  std::uint64_t n_blocks;

  struct State {};

  Transfer plan(std::uint64_t first, std::uint64_t count, State& /*state*/) const {
    Transfer t;
    backend::active().plan_blocks(k, first, cipher.data() + first * (N / 8),
                                  static_cast<std::size_t>(count), t);
    return t;
  }

  /// Extract blocks [at.block, at.block + count) from message bit at.bit,
  /// stopping at bit `end`, then walk on to bit min(end, ceil8(exit));
  /// deposit the bits in [ceil8(at.bit), that bit) — `through` bounds
  /// them. Returns the cursor after the `count` blocks.
  Cursor walk(Cursor at, std::uint64_t count, std::uint64_t end, State* /*state*/,
              std::uint64_t through) const {
    const std::uint64_t lo = ceil8(at.bit);
    detail::BitSink sink(out.subspan(static_cast<std::size_t>(lo / 8),
                                     static_cast<std::size_t>(ceil_div(through, 8) - lo / 8)));
    const Cursor exit = extract(at, at.block + count, end, lo, sink);
    if (exit.bit < end) (void)extract(exit, n_blocks, std::min(end, ceil8(exit.bit)), lo, sink);
    sink.flush();
    return exit;
  }

  /// Extract until block `stop` or bit `end`, depositing bits from `lo` on.
  /// The sink is worked on as a local copy, so its state stays in registers
  /// rather than behind a pointer its own byte stores might alias.
  Cursor extract(Cursor at, std::uint64_t stop, std::uint64_t end, std::uint64_t lo,
                 detail::BitSink& sink_state) const {
    detail::BitSink sink = sink_state;
    const backend::Backend& engine = backend::active();
    ApplyBatch batch;
    std::array<std::uint32_t, backend::kApplyBatch> vals;
    while (at.block < stop && at.bit < end) {
      const Cursor from = at;
      const std::uint8_t* blocks = cipher.data() + from.block * (N / 8);
      const auto n = std::min<std::uint64_t>(backend::kApplyBatch, stop - from.block);
      (void)engine.schedule_blocks(k, at, end, blocks, static_cast<std::size_t>(n), batch);
      engine.extract_blocks(N, batch, blocks, vals.data());
      std::size_t i = 0;
      const std::uint64_t base = from.bit & ~std::uint64_t{7};
      for (; i < batch.n && base + batch.offset[i] < lo; ++i) {
        // Bits below `lo` belong to the previous chunk's walk.
        const std::uint64_t skip = lo - (base + batch.offset[i]);
        if (skip < batch.width[i]) {
          sink.put(vals[i] >> skip, static_cast<int>(batch.width[i] - skip));
        }
      }
      // Blocks go into the sink in groups whose bits span at most 56: each
      // block's bits shift to their known offset within the group on their
      // own, so only one sink step per group is serial.
      constexpr std::size_t kGroup = 56 / (N / 2);
      for (; i + kGroup <= batch.n; i += kGroup) {
        std::uint64_t bits = 0;
        for (std::size_t j = 0; j < kGroup; ++j) {
          bits |= std::uint64_t{vals[i + j]} << (batch.offset[i + j] - batch.offset[i]);
        }
        const std::size_t e = i + kGroup - 1;
        sink.put(bits, static_cast<int>(batch.offset[e] + batch.width[e] - batch.offset[i]));
      }
      for (; i < batch.n; ++i) sink.put(vals[i], batch.width[i]);
    }
    sink_state = sink;
    return at;
  }
};

}  // namespace

std::uint64_t detail::certain_blocks(const KeyTables& k, std::uint64_t message_bits) {
  std::uint64_t cycle = 0;  // the most bits one key cycle can take
  for (const PairCtx& pc : k.pairs) {
    const auto h = static_cast<std::ptrdiff_t>(k.vector_bits / 2);
    cycle += std::max_element(pc.range.begin(), pc.range.begin() + h,
                              [](const auto& a, const auto& b) { return a.width < b.width; })
                 ->width;
  }
  return (message_bits - 1) / cycle * k.pairs.size();
}

std::uint64_t detail::encrypt_chunked(const KeyTables& k, const BlockParams& params,
                                      const LfsrCover& cover, std::span<const std::uint8_t> msg,
                                      std::uint64_t message_bits, std::span<std::uint8_t> out,
                                      int n_shards, exec::Executor* ex, std::uint64_t chunk_blocks,
                                      const char* who, ByteSink absorb) {
  const auto bb = static_cast<std::size_t>(params.block_bytes());
  return bb * encrypt_blocks(k, params, cover, msg, message_bits, out.data(),
                             out.size() / bb, n_shards, ex, chunk_blocks, who, absorb);
}

std::uint64_t detail::cipher_bytes(const KeyTables& k, const BlockParams& params,
                                   const LfsrCover& cover, std::uint64_t message_bits) {
  return static_cast<std::uint64_t>(params.block_bytes()) *
         encrypt_blocks(k, params, cover, {}, message_bits, nullptr, message_bits, 1,
                        nullptr, 0, "cipher_bytes", {});
}

std::size_t detail::decrypt_chunked(const KeyTables& k, const BlockParams& params,
                                    std::span<const std::uint8_t> cipher,
                                    std::uint64_t message_bits, OutputGate out, int n_shards,
                                    exec::Executor* ex, std::uint64_t chunk_blocks,
                                    const char* who) {
  const auto bb = static_cast<std::size_t>(params.block_bytes());
  if (cipher.size() % bb != 0) {
    throw std::invalid_argument(std::string(who) + ": ciphertext not block-aligned");
  }
  const auto out_bytes = static_cast<std::size_t>((message_bits + 7) / 8);
  std::span<std::uint8_t> dest;
  const auto gate = [&] {
    dest = out();
    if (dest.size() < out_bytes) {
      throw std::length_error(std::string(who) + ": output buffer too small");
    }
    dest = dest.first(out_bytes);
  };
  // The strict length contract: the blocks must hold exactly the message.
  const std::uint64_t n_blocks = cipher.size() / bb;
  Cursor end;
  if (message_bits > 0 && n_blocks > 0) {
    const Shape shape =
        make_shape(message_bits, n_blocks, n_shards, ex, chunk_blocks, [&] { return n_blocks; });
    end = backend::detail::with_layout(k, [&]<int N, bool Framed>() {
      return run_pipeline<N, Framed>(DecryptJob<N>{k, cipher, dest, n_blocks}, shape, ex,
                                     Hooks{gate, {}});
    });
  } else {
    gate();
  }
  if (end.bit < message_bits) {
    throw std::invalid_argument(std::string(who) + ": ciphertext too short for message length");
  }
  if (end.block < n_blocks) {
    throw std::invalid_argument(std::string(who) +
                                ": trailing ciphertext blocks after message end");
  }
  return out_bytes;
}

std::vector<std::uint8_t> encrypt_sharded(std::span<const std::uint8_t> msg, const Key& key,
                                          const LfsrCover& cover, int n_shards,
                                          exec::Executor* ex, BlockParams params,
                                          Scheme scheme) {
  validate_sharded(key, n_shards, params, "encrypt_sharded");
  const KeyTables k = detail::pair_tables(key, params, scheme);
  const auto bits = static_cast<std::uint64_t>(msg.size()) * 8;
  // Sized exactly by the single-shard pipeline (plan only).
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(detail::cipher_bytes(k, params, cover, bits)));
  (void)detail::encrypt_chunked(k, params, cover, msg, bits, out, n_shards, ex, 0,
                                "encrypt_sharded");
  return out;
}

std::size_t encrypt_sharded_into(std::span<const std::uint8_t> msg, const Key& key,
                                 const LfsrCover& cover, int n_shards, exec::Executor* ex,
                                 std::span<std::uint8_t> out, BlockParams params,
                                 Scheme scheme) {
  validate_sharded(key, n_shards, params, "encrypt_sharded_into");
  return static_cast<std::size_t>(detail::encrypt_chunked(
      detail::pair_tables(key, params, scheme), params, cover, msg,
      static_cast<std::uint64_t>(msg.size()) * 8, out, n_shards, ex, 0, "encrypt_sharded_into"));
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
                                 std::size_t msg_bytes, int n_shards, exec::Executor* ex,
                                 std::span<std::uint8_t> out, BlockParams params,
                                 Scheme scheme) {
  validate_sharded(key, n_shards, params, "decrypt_sharded_into");
  return detail::decrypt_chunked(detail::pair_tables(key, params, scheme), params, cipher,
                                 static_cast<std::uint64_t>(msg_bytes) * 8, [&] { return out; },
                                 n_shards, ex, 0, "decrypt_sharded");
}

}  // namespace mhhea::core
