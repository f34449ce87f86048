#include "src/core/mhhea.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "src/util/bits.hpp"

namespace mhhea::core {

namespace {
/// Cover vectors prefetched per refill. Sized so LFSR covers cross the
/// multi-lane threshold of Lfsr::next_blocks (2 * backend::kLfsrLaneBlocks
/// blocks) and a full 8-lane pass fits per fetch; still bounded, so a
/// streaming feed never holds more than ~16 KiB of look-ahead.
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

void Encryptor::feed(std::span<const std::uint8_t> msg) {
  util::BitReader reader(msg);
  feed_bits(reader, reader.size_bits());
}

void Encryptor::feed_bits(util::BitReader& reader, std::size_t n_bits) {
  if (n_bits > reader.remaining_bits()) {
    throw std::invalid_argument("Encryptor::feed_bits: not enough bits in reader");
  }
  encrypt_frame_bit_run(reader, n_bits);
}

std::size_t Encryptor::encrypt_into(std::span<const std::uint8_t> msg,
                                    std::span<std::uint8_t> out) {
  reset();
  const std::size_t n = detail::embed_message(pair_ctx_, params_, *cover_, cover_buf_, msg, out,
                                              "Encryptor::encrypt_into");
  // Rewind the cover so the core sits in the full reset state again (all
  // other members were never touched past reset()).
  cover_->reset();
  return n;
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
  cover_->reset();
  return blocks * static_cast<std::uint64_t>(params_.block_bytes());
}

void Encryptor::reset() {
  cover_->reset();
  cipher_.clear();
  blocks_cache_.clear();
  block_index_ = 0;
  pair_idx_ = 0;
  msg_bits_ = 0;
  frame_remaining_ = 0;
  frame_size_ = 0;
  tail_.clear();
  tail_whole_frame_ = false;
  frame_log_.clear();
  cover_pos_ = 0;
  cover_len_ = 0;
}

void Encryptor::reseed(std::uint64_t seed) {
  cover_->reseed(seed);  // reset() below rewinds onto the new seed
  reset();
}

Encryptor::BlockPlan Encryptor::plan_block(std::uint64_t v, std::size_t remaining,
                                           bool framed) const {
  const detail::PairCtx& pc = pair_ctx_[pair_idx_];
  const ScrambledRange r = scramble_range(v, pc.pair, params_);
  // Capacity: what this block could hold given unlimited message data — the
  // frame budget caps it in framed mode. A block that ends a feed below
  // capacity is the re-openable tail.
  const int cap = framed ? std::min(r.width(), frame_remaining_) : r.width();
  const int w = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(cap), remaining));
  return BlockPlan{r.kn1, cap, w};
}

void Encryptor::append_block(std::uint64_t ct) {
  const int bb = params_.block_bytes();
  for (int i = 0; i < bb; ++i) {
    cipher_.push_back(static_cast<std::uint8_t>((ct >> (8 * i)) & 0xFF));
  }
}

void Encryptor::emit_block(std::uint64_t v, const BlockPlan& plan, std::uint64_t msg_word,
                           bool framed, TailBlock& tb) {
  const detail::PairCtx& pc = pair_ctx_[pair_idx_];
  if (++pair_idx_ == pair_ctx_.size()) pair_idx_ = 0;
  append_block(embed_bits_with_pattern(v, plan.kn1, pc.pattern, msg_word, plan.w));
  ++block_index_;
  msg_bits_ += static_cast<std::uint64_t>(plan.w);
  tb = TailBlock{v, msg_word & util::mask64(plan.w), plan.w};
  if (framed) {
    frame_remaining_ -= plan.w;
    frame_log_.push_back(tb);
  }
}

void Encryptor::encrypt_frame_bit_run(util::BitReader& reader, std::size_t n_bits) {
  if (n_bits == 0) return;
  const bool framed = params_.policy == FramePolicy::framed;

  // Roll back the re-openable tail: its blocks are replayed ahead of the new
  // bits so the resulting stream is identical to a single one-shot feed.
  // Replayed message bits fit one word (a whole frame is <= vector_bits
  // <= 64 bits; a partial block is < N/2).
  const std::vector<TailBlock> replay = std::move(tail_);
  const bool replay_whole_frame = tail_whole_frame_;
  tail_.clear();
  tail_whole_frame_ = false;
  std::uint64_t replay_bits = 0;
  int replay_n = 0;
  if (!replay.empty()) {
    cipher_.resize(cipher_.size() -
                   replay.size() * static_cast<std::size_t>(params_.block_bytes()));
    // The popped blocks will be re-embedded with different contents: drop
    // any cached decode of them (earlier blocks never change, so the cache
    // prefix stays valid).
    const std::size_t n_blocks =
        cipher_.size() / static_cast<std::size_t>(params_.block_bytes());
    if (blocks_cache_.size() > n_blocks) blocks_cache_.resize(n_blocks);
    for (const TailBlock& tb : replay) {
      --block_index_;
      pair_idx_ = (pair_idx_ == 0 ? pair_ctx_.size() : pair_idx_) - 1;
      msg_bits_ -= static_cast<std::uint64_t>(tb.w);
      replay_bits |= tb.bits << replay_n;
      replay_n += tb.w;
    }
    if (framed) {
      if (replay_whole_frame) {
        frame_remaining_ = 0;  // the short frame re-opens at the right size
        frame_size_ = 0;
      } else {
        frame_remaining_ += replay.front().w;  // re-open the partial block
        assert(!frame_log_.empty());
        frame_log_.pop_back();  // keep frame_log_ mirroring the open frame
      }
    }
  }

  std::size_t remaining = static_cast<std::size_t>(replay_n) + n_bits;
  cipher_.reserve(cipher_.size() +
                  (remaining / 3 + 4) * static_cast<std::size_t>(params_.block_bytes()));
  TailBlock last{};
  int last_cap = 0;

  // Framed policy: a frame is one alignment-buffer fill — vector_bits
  // message bits (16 for the paper's hardware).
  const auto open_frame_if_needed = [&] {
    if (framed && frame_remaining_ == 0) {
      frame_size_ = params_.frame_budget(remaining);
      frame_remaining_ = frame_size_;
      frame_log_.clear();
    }
  };

  // Replayed covers first: their message words mix rolled-back bits with
  // fresh bits from the reader. Re-embedding with more data available always
  // re-consumes at least the rolled-back bits, so every replayed cover is
  // used before `remaining` runs out.
  for (const TailBlock& rb : replay) {
    assert(remaining > 0);
    open_frame_if_needed();
    const BlockPlan plan = plan_block(rb.v, remaining, framed);
    const int from_replay = std::min(plan.w, replay_n);
    std::uint64_t msg_word = replay_bits & util::mask64(from_replay);
    replay_bits >>= from_replay;
    replay_n -= from_replay;
    if (plan.w > from_replay) {
      msg_word |= reader.read_bits(plan.w - from_replay) << from_replay;
    }
    emit_block(rb.v, plan, msg_word, framed, last);
    last_cap = plan.cap;
    remaining -= static_cast<std::size_t>(plan.w);
  }
  assert(replay_n == 0);

  // Steady state. Framed policy: whole-frame batches (one message-word read
  // and one round of bookkeeping per frame). Continuous policy: prefetched
  // covers, one whole-word read + embed per block.
  if (framed) {
    encrypt_framed_frames(reader, remaining, last, last_cap);
    remaining = 0;
  }
  while (remaining > 0) {
    if (cover_pos_ == cover_len_) refill_cover(remaining);
    const std::uint64_t v = cover_buf_[cover_pos_++];
    const BlockPlan plan = plan_block(v, remaining, framed);
    emit_block(v, plan, reader.read_bits(plan.w), framed, last);
    last_cap = plan.cap;
    remaining -= static_cast<std::size_t>(plan.w);
  }

  // Decide what the next feed may re-open.
  if (framed) {
    if (frame_size_ < params_.vector_bits) {
      // The final frame was opened undersized: with more data, a one-shot
      // encryption would have sized it larger, so the whole frame re-opens.
      tail_ = frame_log_;
      tail_whole_frame_ = true;
    } else if (frame_remaining_ > 0 && last.w < last_cap) {
      tail_.push_back(last);
    }
  } else if (last.w < last_cap) {
    tail_.push_back(last);
  }
}

void Encryptor::encrypt_framed_frames(util::BitReader& reader, std::size_t remaining,
                                      TailBlock& last, int& last_cap) {
  while (remaining > 0) {
    if (frame_remaining_ == 0) {
      frame_size_ = params_.frame_budget(remaining);
      frame_remaining_ = frame_size_;
      frame_log_.clear();
    }
    // This feed's contribution to the open frame, read in one bulk pull.
    const int take = static_cast<int>(std::min<std::size_t>(
        remaining, static_cast<std::size_t>(frame_remaining_)));
    const bool feed_ends_here = static_cast<std::size_t>(take) == remaining;
    const std::uint64_t word = reader.read_bits(take);
    int budget = frame_remaining_;
    int consumed = 0;
    try {
      while (consumed < take) {
        if (cover_pos_ == cover_len_) {
          refill_cover(remaining - static_cast<std::size_t>(consumed));
        }
        const std::uint64_t v = cover_buf_[cover_pos_++];
        const detail::PairCtx& pc = pair_ctx_[pair_idx_];
        if (++pair_idx_ == pair_ctx_.size()) pair_idx_ = 0;
        const ScrambledRange r = scramble_range(v, pc.pair, params_);
        const int cap = std::min(r.width(), budget);
        const int w = std::min(cap, take - consumed);
        const std::uint64_t bits = (word >> consumed) & util::mask64(w);
        append_block(embed_bits_with_pattern(v, r.kn1, pc.pattern, bits, w));
        ++block_index_;
        budget -= w;
        consumed += w;
        last = TailBlock{v, bits, w};
        last_cap = cap;
        // Only the frame the feed ends in can re-open, so only it needs the
        // replay log (blocks this frame received in earlier feeds are
        // already logged — each earlier feed ended in it too).
        if (feed_ends_here) frame_log_.push_back(last);
      }
    } catch (...) {
      // Cover exhaustion mid-frame: leave the same observable state as the
      // block-at-a-time walk — bits already embedded are accounted and the
      // caller's reader sits exactly past them, not past the bulk read.
      reader.seek(reader.position() - static_cast<std::size_t>(take - consumed));
      msg_bits_ += static_cast<std::uint64_t>(consumed);
      frame_remaining_ = budget;
      throw;
    }
    msg_bits_ += static_cast<std::uint64_t>(take);
    frame_remaining_ = budget;
    remaining -= static_cast<std::size_t>(take);
  }
}

void Encryptor::refill_cover(std::size_t remaining_bits) {
  cover_len_ = detail::next_covers(*cover_, params_, remaining_bits, cover_buf_, "Encryptor");
  cover_pos_ = 0;
}

const std::vector<std::uint64_t>& Encryptor::blocks() const {
  // The cache is always a decoded prefix of cipher_ (the tail-replay
  // rollback trims it), so only newly emitted blocks are decoded here —
  // feed-then-inspect loops stay linear.
  const int bb = params_.block_bytes();
  const std::size_t n_blocks = cipher_.size() / static_cast<std::size_t>(bb);
  blocks_cache_.reserve(n_blocks);
  for (std::size_t i = blocks_cache_.size(); i < n_blocks; ++i) {
    blocks_cache_.push_back(
        util::load_le(cipher_.data() + i * static_cast<std::size_t>(bb), bb));
  }
  return blocks_cache_;
}

Decryptor::Decryptor(Key key, std::uint64_t message_bits, BlockParams params)
    : key_(std::move(key)), params_(params), total_bits_(message_bits) {
  params_.validate();
  key_.require_fits(params_, "Decryptor");
  pair_ctx_ = detail::make_pair_ctx(key_, params_);
  out_.reserve_bits(message_bits);
}

int Decryptor::feed_block(std::uint64_t block) {
  if (done()) return 0;
  const bool framed = params_.policy == FramePolicy::framed;
  if (framed && frame_remaining_ == 0) {
    frame_remaining_ = params_.frame_budget(total_bits_ - recovered_);
  }
  const detail::PairCtx& pc = pair_ctx_[pair_idx_];
  if (++pair_idx_ == pair_ctx_.size()) pair_idx_ = 0;
  const ScrambledRange range = scramble_range(block, pc.pair, params_);
  const std::uint64_t cap = framed ? static_cast<std::uint64_t>(frame_remaining_)
                                   : total_bits_ - recovered_;
  const int w = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(range.width()), cap));
  // Whole-word extract: one shift + pattern XOR (write_bits keeps only the
  // low w bits, so the unmasked high bits are discarded).
  out_.write_bits(extract_bits_with_pattern(block, range.kn1, pc.pattern, w), w);
  recovered_ += static_cast<std::uint64_t>(w);
  ++block_index_;
  if (framed) frame_remaining_ -= w;
  cache_valid_ = false;
  return w;
}

void Decryptor::feed_bytes(std::span<const std::uint8_t> cipher) {
  const auto bb = static_cast<std::size_t>(params_.block_bytes());
  if (cipher.size() % bb != 0) {
    throw std::invalid_argument("Decryptor::feed_bytes: ciphertext not block-aligned");
  }
  if (cipher.empty()) return;
  if (params_.policy != FramePolicy::framed) {
    for (std::size_t i = 0; i < cipher.size(); i += bb) {
      if (done()) {
        // Every block must carry message bits; blocks beyond the message end
        // mean a corrupted or padded ciphertext and must not pass silently.
        throw std::invalid_argument(
            "Decryptor::feed_bytes: trailing ciphertext blocks after message end");
      }
      feed_block(util::load_le(cipher.data() + i, static_cast<int>(bb)));
    }
    return;
  }
  // Framed policy, frame-batched: a frame's budget can only hit zero at a
  // frame boundary (every block carries >= 1 bit), so the walk extracts a
  // whole frame's bits into one word and writes them out in a single
  // write_bits, with recovered_/frame bookkeeping updated once per frame.
  // Bit-identical to repeated feed_block, including mid-frame state when the
  // buffer ends inside a frame (streaming feeds).
  std::size_t i = 0;
  while (i < cipher.size()) {
    if (done()) {
      throw std::invalid_argument(
          "Decryptor::feed_bytes: trailing ciphertext blocks after message end");
    }
    if (frame_remaining_ == 0) {
      frame_remaining_ = params_.frame_budget(total_bits_ - recovered_);
    }
    int budget = frame_remaining_;
    std::uint64_t word = 0;
    int consumed = 0;
    while (budget > 0 && i < cipher.size()) {
      const std::uint64_t v = util::load_le(cipher.data() + i, static_cast<int>(bb));
      i += bb;
      const detail::PairCtx& pc = pair_ctx_[pair_idx_];
      if (++pair_idx_ == pair_ctx_.size()) pair_idx_ = 0;
      const ScrambledRange range = scramble_range(v, pc.pair, params_);
      const int w = std::min(range.width(), budget);
      word |= extract_bits_with_pattern(v, range.kn1, pc.pattern, w) << consumed;
      consumed += w;
      budget -= w;
      ++block_index_;
    }
    out_.write_bits(word, consumed);
    recovered_ += static_cast<std::uint64_t>(consumed);
    frame_remaining_ = budget;
    // Invalidate per frame, not after the loop: the trailing-ciphertext
    // throw above must not leave message() serving a stale pre-throw
    // snapshot of frames this call already extracted.
    cache_valid_ = false;
  }
}

std::size_t Decryptor::decrypt_into(std::span<const std::uint8_t> cipher,
                                    std::uint64_t message_bits,
                                    std::span<std::uint8_t> out) {
  reset(message_bits);
  return detail::extract_message(pair_ctx_, params_, cipher, message_bits, out,
                                 "Decryptor::decrypt_into");
}

void Decryptor::reset(std::uint64_t message_bits) {
  total_bits_ = message_bits;
  recovered_ = 0;
  block_index_ = 0;
  pair_idx_ = 0;
  frame_remaining_ = 0;
  out_.clear();
  out_.reserve_bits(message_bits);
  message_cache_.clear();
  cache_valid_ = false;
}

const std::vector<std::uint8_t>& Decryptor::message() const {
  if (!cache_valid_) {
    message_cache_ = out_.bytes();
    cache_valid_ = true;
  }
  return message_cache_;
}

std::vector<std::uint8_t> encrypt(std::span<const std::uint8_t> msg, const Key& key,
                                  std::uint64_t seed, BlockParams params) {
  Encryptor enc(key, make_lfsr_cover(params.vector_bits, seed), params);
  enc.feed(msg);
  return enc.cipher_bytes();
}

std::vector<std::uint8_t> decrypt(std::span<const std::uint8_t> cipher, const Key& key,
                                  std::size_t msg_bytes, BlockParams params) {
  Decryptor dec(key, static_cast<std::uint64_t>(msg_bytes) * 8, params);
  dec.feed_bytes(cipher);
  if (!dec.done()) {
    throw std::invalid_argument("decrypt: ciphertext too short for message length");
  }
  std::vector<std::uint8_t> msg = dec.message();
  msg.resize(msg_bytes);
  return msg;
}

}  // namespace mhhea::core
