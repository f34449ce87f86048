#include "src/crypto/mhhea_cipher.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/util/secret.hpp"

namespace mhhea::crypto {

MhheaCipher::MhheaCipher(core::Key key, std::uint64_t seed, core::BlockParams params,
                         Framing framing, int shards)
    : MhheaCipher(std::move(key), seed,
                  framing == Framing::sealed_v2 ? V2KeySchedule::derive(seed)
                                                : V2KeySchedule{},
                  params, framing, shards, core::Scheme::mhhea) {}

MhheaCipher::MhheaCipher(core::Key key, const V2KeySchedule& schedule,
                         core::BlockParams params, Framing framing, int shards)
    : MhheaCipher(std::move(key), 0, schedule, params, framing, shards, core::Scheme::mhhea) {
  if (framing != Framing::sealed_v2) {
    throw std::invalid_argument("MhheaCipher: a key schedule requires Framing::sealed_v2");
  }
}

MhheaCipher::MhheaCipher(core::Key key, std::uint64_t seed, core::BlockParams params,
                         int shards, core::Scheme scheme)
    : MhheaCipher(std::move(key), seed, V2KeySchedule{}, params, Framing::raw, shards, scheme) {}

MhheaCipher::MhheaCipher(core::Key key, std::uint64_t seed, const V2KeySchedule& schedule,
                         core::BlockParams params, Framing framing, int shards,
                         core::Scheme scheme)
    : key_(std::move(key)),
      seed_(seed),
      params_(params),
      framing_(framing),
      scheme_(scheme),
      shards_(exec::resolve_parallelism(shards, "MhheaCipher")),
      sched_(schedule),
      // Core construction validates params, seed and key-vs-params eagerly.
      // sealed_v2 seeds the cover for nonce 0 from the schedule (cur_nonce_
      // starts at 0 to match); the raw seed is then only schedule input.
      enc_(key_,
           core::LfsrCover(params_.vector_bits,
                           framing == Framing::sealed_v2 ? v2_cover_seed(0) : seed),
           params_, scheme_),
      dec_(key_, params_, scheme_) {
  // expansion() and max_ciphertext_size() read the walk's own tables: the
  // mean width over every (pair, field) entry, and per pair the minimum.
  const auto h = static_cast<std::size_t>(params_.half());
  std::uint64_t width_sum = 0;
  const core::detail::KeyTables tables = core::detail::pair_tables(key_, params_, scheme_);
  for (const backend::PairCtx& pc : tables.pairs) {
    std::uint64_t min_width = pc.range[0].width;
    for (std::size_t field = 0; field < h; ++field) {
      width_sum += pc.range[field].width;
      min_width = std::min<std::uint64_t>(min_width, pc.range[field].width);
    }
    cycle_min_bits_ += min_width;
  }
  const double mean_bits = static_cast<double>(width_sum) / static_cast<double>(h) /
                           static_cast<double>(key_.size());
  expansion_ = static_cast<double>(params_.vector_bits) / mean_bits;

  // The worker budget is clamped to hardware concurrency — sharding across
  // more workers than cores measures dispatch overhead, not parallelism (the
  // PR-4 bench recorded exactly that regression on a 1-core host). When the
  // clamp resolves to a single worker no executor handle exists at all and
  // every message runs the single-shard pipeline inline. Fan-out goes to the
  // process-wide executor, so constructing a cipher spawns nothing.
  workers_ = std::min(shards_, exec::resolve_parallelism(0, "MhheaCipher"));
  if (shards_ > 1 && workers_ > 1) exec_ = &exec::Executor::shared();
}

namespace {
/// Messages below this never attempt compression: the envelope's tag +
/// varint (and Huffman's 128-byte table) cannot win much, the probe's sample
/// is too small to mean anything, and even the probe itself is measurable
/// next to a sub-2us seal — the 64-byte bench cell sits below this floor so
/// incompressible small-message throughput is untouched by construction.
constexpr std::size_t kMinCompressBytes = 96;
}  // namespace

MhheaCipher::~MhheaCipher() {
  util::secure_wipe_object(seed_);
  // The envelope scratch held (compressed) plaintext.
  util::secure_wipe(z_seal_buf_.data(), z_seal_buf_.size());
  util::secure_wipe(z_open_buf_.data(), z_open_buf_.size());
}

void MhheaCipher::set_compression(compress::Method method) {
  require_v2("set_compression");
  if (!compress::method_known(static_cast<std::uint8_t>(method))) {
    throw std::invalid_argument("MhheaCipher::set_compression: unknown method");
  }
  compression_ = method;
}

compress::Compressor& MhheaCipher::compressor_for(std::uint8_t tag) {
  if (!compress::method_known(tag)) {
    throw std::invalid_argument("MhheaCipher: unknown compression method tag");
  }
  auto& slot = compressors_[tag];
  if (!slot) slot = compress::make_compressor(static_cast<compress::Method>(tag));
  return *slot;
}

MhheaCipher::SealBody MhheaCipher::make_seal_body(std::span<const std::uint8_t> msg) {
  if (compression_ == compress::Method::raw || msg.size() < kMinCompressBytes ||
      !compress::probably_compressible(msg)) {
    return {msg, 0};
  }
  const auto tag = static_cast<std::uint8_t>(compression_);
  compress::Compressor& comp = compressor_for(tag);
  const std::size_t head = 1 + compress::varint_size(msg.size());
  const std::size_t cap = head + comp.max_compressed_size(msg.size());
  if (z_seal_buf_.size() < cap) z_seal_buf_.resize(cap);
  z_seal_buf_[0] = tag;
  (void)compress::varint_encode(msg.size(), std::span(z_seal_buf_).subspan(1));
  const std::size_t stream =
      comp.compress_into(msg, std::span(z_seal_buf_).subspan(head));
  // Strictly smaller or fall back: a compressed frame must never be larger
  // than (or equal to) its uncompressed twin, and the fallback keeps
  // incompressible output byte-identical to a compression-disabled cipher.
  if (head + stream >= msg.size()) return {msg, 0};
  return {std::span<const std::uint8_t>(z_seal_buf_).first(head + stream), tag};
}

std::uint64_t MhheaCipher::v2_cover_seed(std::uint64_t nonce) const {
  // The cover LFSR's degree caps the usable seed bits (64-bit vectors run a
  // degree-32 register — cover.hpp).
  const int degree = params_.vector_bits >= 64 ? 32 : params_.vector_bits;
  return sched_.cover_seed(nonce, degree);
}

void MhheaCipher::set_nonce(std::uint64_t nonce) {
  if (nonce == cur_nonce_) return;
  enc_.reseed(v2_cover_seed(nonce));
  cur_nonce_ = nonce;
}

void MhheaCipher::require_v2(const char* what) const {
  if (framing_ != Framing::sealed_v2) {
    throw std::logic_error(std::string("MhheaCipher::") + what +
                           ": requires Framing::sealed_v2");
  }
}

std::size_t MhheaCipher::encrypt_blocks(std::span<const std::uint8_t> msg,
                                        std::span<std::uint8_t> out, core::ByteSink absorb) {
  const int eff = std::min(effective_shards(shards_, msg.size()), workers_);
  return enc_.encrypt_into(msg, out, eff, eff > 1 ? exec_ : nullptr, absorb);
}

std::size_t MhheaCipher::decrypt_blocks(std::span<const std::uint8_t> cipher,
                                        std::uint64_t message_bits, core::OutputGate out) {
  const int eff = std::min(
      effective_shards(shards_, static_cast<std::size_t>(message_bits / 8)), workers_);
  return dec_.decrypt_into(cipher, message_bits, out, eff, eff > 1 ? exec_ : nullptr);
}

std::size_t MhheaCipher::encrypt_into(std::span<const std::uint8_t> msg,
                                      std::span<std::uint8_t> out) {
  // Through the uniform interface every sealed_v2 message goes out under
  // nonce 0 — deterministic, like every other cipher in the sweep. Callers
  // that need distinct nonces drive seal_v2_into (crypto::Session does).
  if (framing_ == Framing::sealed_v2) return seal_v2_into(msg, 0, out);
  return encrypt_blocks(msg, out);
}

std::size_t MhheaCipher::decrypt_into(std::span<const std::uint8_t> cipher,
                                      std::size_t msg_bytes, std::span<std::uint8_t> out) {
  const std::uint64_t message_bits = static_cast<std::uint64_t>(msg_bytes) * 8;
  if (framing_ == Framing::raw) return decrypt_blocks(cipher, message_bits, [&] { return out; });
  return open_v2_into(cipher, {}, [&](std::uint64_t plain_bits) {
    if (plain_bits != message_bits) {
      throw std::invalid_argument("MhheaCipher: sealed header length mismatch");
    }
    if (out.size() < msg_bytes) {
      throw std::length_error("MhheaCipher::decrypt_into: output buffer too small");
    }
    return out.first(msg_bytes);
  });
}

std::size_t MhheaCipher::ciphertext_size(std::size_t msg_bytes) {
  if (framing_ == Framing::sealed_v2) return sealed_v2_size(msg_bytes, 0);
  return static_cast<std::size_t>(
      enc_.one_shot_cipher_bytes(static_cast<std::uint64_t>(msg_bytes) * 8));
}

std::size_t MhheaCipher::max_ciphertext_size(std::size_t msg_bytes) const {
  const auto bits = static_cast<std::uint64_t>(msg_bytes) * 8;
  const auto L = static_cast<std::uint64_t>(key_.size());
  // Any L consecutive uncapped blocks embed at least cycle_min_bits_ bits,
  // and only caps (the message end, or one block per frame boundary) break
  // that — both covered by the trailing +L per capped region.
  std::uint64_t blocks = 0;
  if (bits > 0) {
    if (params_.policy == core::FramePolicy::framed) {
      const auto vb = static_cast<std::uint64_t>(params_.vector_bits);
      const std::uint64_t frames = (bits + vb - 1) / vb;
      blocks = frames * (vb / cycle_min_bits_ * L + L);
    } else {
      blocks = bits / cycle_min_bits_ * L + L;
    }
  }
  const std::size_t overhead =
      framing_ == Framing::sealed_v2 ? core::FrameHeader::kOverheadV2 : 0;
  return static_cast<std::size_t>(blocks) * static_cast<std::size_t>(params_.block_bytes()) +
         overhead;
}

std::size_t MhheaCipher::seal_v2_into(std::span<const std::uint8_t> msg, std::uint64_t nonce,
                                      std::span<std::uint8_t> out) {
  require_v2("seal_v2_into");
  if (out.size() < core::FrameHeader::kOverheadV2) {
    throw std::length_error("MhheaCipher::seal_v2_into: output buffer too small");
  }
  // Compression pre-stage: seal the envelope when it wins, the message
  // itself otherwise (body.method == 0 then, and the frame is byte-identical
  // to a compression-disabled seal).
  const SealBody body = make_seal_body(msg);
  set_nonce(nonce);
  // Everything in the header is known before the walk, so the MAC takes it
  // first and then the ciphertext as the pipeline finishes it.
  core::FrameHeader h;
  h.nonce = nonce;
  h.params = params_;
  h.message_bits = static_cast<std::uint64_t>(body.bytes.size()) * 8;
  h.compression = body.method;
  core::frame_encode_header(h, out);
  SipHash mac(sched_.mac_key, /*wide=*/true);
  mac.update(out.first(core::FrameHeader::kSizeV2));
  // Blocks land between the header and the trailer; the block encrypt's own
  // length_error covers a payload slice that cannot hold them.
  const std::size_t authed =
      core::FrameHeader::kSizeV2 +
      encrypt_blocks(body.bytes,
                     out.subspan(core::FrameHeader::kSizeV2,
                                 out.size() - core::FrameHeader::kOverheadV2),
                     [&](std::span<const std::uint8_t> blocks) { mac.update(blocks); });
  const MacTag tag = mac.finish128();
  std::copy(tag.begin(), tag.end(), out.begin() + static_cast<std::ptrdiff_t>(authed));
  return authed + core::FrameHeader::kMacBytesV2;
}

std::size_t MhheaCipher::sealed_v2_size(std::size_t msg_bytes, std::uint64_t nonce) {
  require_v2("sealed_v2_size");
  // Ciphertext length depends on cover content, so the scan must run under
  // the queried nonce's derived seed.
  set_nonce(nonce);
  return static_cast<std::size_t>(
             enc_.one_shot_cipher_bytes(static_cast<std::uint64_t>(msg_bytes) * 8)) +
         core::FrameHeader::kOverheadV2;
}

std::size_t MhheaCipher::open_v2_into(std::span<const std::uint8_t> framed, Accept accept,
                                      Dest dest) {
  require_v2("open_v2_into");
  std::span<const std::uint8_t> payload;
  const core::FrameHeader h = core::frame_decode(framed, &payload);
  if (h.params != params_) {
    throw std::invalid_argument("MhheaCipher: sealed header params mismatch");
  }
  const std::uint64_t bits = h.message_bits;
  // The gate: the core runs it on this thread while the plan round reads
  // the cover halves, and extracts nothing until it returns. A compressed
  // envelope is decrypted into instance scratch and checked before `dest`
  // sees its raw size.
  compress::Compressor* comp = nullptr;
  const auto gate = [&]() -> std::span<std::uint8_t> {
    const std::size_t authed = framed.size() - core::FrameHeader::kMacBytesV2;
    const MacTag tag = siphash128(sched_.mac_key, framed.first(authed));
    if (!constant_time_equal(tag, framed.subspan(authed))) {
      throw MacError("MhheaCipher: sealed-v2 MAC verification failed");
    }
    if (accept) accept(h);
    if (h.compression == 0) return dest(bits);
    comp = &compressor_for(h.compression);  // rejects unknown tags
    if (bits % 8 != 0) {
      throw std::invalid_argument("MhheaCipher: compressed envelope not byte-aligned");
    }
    const auto env_bytes = static_cast<std::size_t>(bits / 8);
    if (z_open_buf_.size() < env_bytes) z_open_buf_.resize(env_bytes);
    return std::span(z_open_buf_).first(env_bytes);
  };
  const std::size_t n = decrypt_blocks(payload, bits, gate);
  if (comp == nullptr) return n;
  const std::span<const std::uint8_t> env = std::span(z_open_buf_).first(n);
  if (env.empty() || env[0] != h.compression) {
    throw std::invalid_argument("MhheaCipher: envelope method does not match the header");
  }
  std::uint64_t raw_size = 0;
  const std::size_t varint = compress::varint_decode(env.subspan(1), &raw_size);
  const std::span<const std::uint8_t> stream = env.subspan(1 + varint);
  // The declared size is MAC-covered, but cap it against the stream's best
  // possible ratio anyway — a hard bound beats trusting arithmetic.
  if (raw_size > comp->max_decoded_size(stream.size())) {
    throw std::invalid_argument("MhheaCipher: envelope declares an impossible size");
  }
  return comp->decompress_into(stream, static_cast<std::size_t>(raw_size), dest(raw_size * 8));
}

}  // namespace mhhea::crypto
