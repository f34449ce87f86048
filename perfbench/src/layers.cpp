// The traced run's per-layer suite.
//
// Layers a client can reach are timed where the workload calls them (the
// rpc spans recorded by rpc.cpp, the bulk seal/open spans of bulk.cpp).
// Layers inside the daemon, or below the Session API, are timed here by
// replaying the workload's own inputs through each module's public
// functions: server (FrameParser, the handshake, a short daemon probe when
// the workload has no daemon), exec (the shared executor), crypto (Session,
// SipHash), compress, core (Encryptor/Decryptor and the shard planners) and
// lfsr (LfsrCover). Every replayed call is checked and recorded as a span.
#include <unistd.h>

#include <atomic>
#include <cstring>

#include "daemon.hpp"
#include "src/compress/compress.hpp"
#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/shard.hpp"
#include "src/crypto/mac.hpp"
#include "src/exec/executor.hpp"
#include "src/server/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace srv = mhhea::server;
using mhhea::crypto::Session;

constexpr int kSmallReps = 2000;  // calls per small-message figure
constexpr std::size_t kKeys = 8;  // hiding keys of the core figures

/// Time `fn` once, record it as a span under `parent`, return microseconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, std::uint64_t id, std::int64_t parent, Fn&& fn,
             bool* ok = nullptr) {
  const auto t0 = Clock::now();
  const bool good = fn();
  const auto t1 = Clock::now();
  tracer.record(name, id, parent, t0, t1, !good);
  if (ok != nullptr) *ok = *ok && good;
  return us_between(t0, t1);
}

std::uint64_t cover_seed(mhhea::util::Xoshiro256& rng) { return rng.next() % 65535 + 1; }

/// A cover prototype for the shard planners, warmed the way a sharded
/// Session warms its own: the lazily built leap tables and jump matrix exist
/// before the first call, so the shard clones share them instead of each
/// rebuilding them per call.
mhhea::core::LfsrCover warm_cover(int bits, std::uint64_t seed) {
  mhhea::core::LfsrCover cover(bits, seed);
  (void)cover.next_block(bits);
  cover.skip_blocks(bits, 1);
  cover.reset();
  return cover;
}

/// Blocking request/response on a connected link.
srv::Frame roundtrip(int fd, srv::FrameParser& parser, const std::vector<std::uint8_t>& frame) {
  if (!write_all(fd, frame)) throw std::runtime_error("probe: write failed");
  for (;;) {
    if (auto f = parser.next()) return std::move(*f);
    std::uint8_t buf[8192];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("probe: connection closed");
    parser.feed(std::span(buf, static_cast<std::size_t>(n)));
  }
}

/// Daemon figures for a workload that has no daemon: a short closed-loop
/// probe of pings, seals and opens on one connection, plus handshakes.
void probe_daemon(const Options& opt, WorkloadResult& ref, Tracer& tracer, bool& ok) {
  mhhea::util::Xoshiro256 rng(opt.seed ^ 0xD1CE);
  const auto master = make_master(rng);
  const Placement placement = Placement::for_host();
  Daemon daemon(PERFBENCH_MHHEAD, kRunDir + "/p" + std::to_string(::getpid()) + ".sock", master,
                placement.daemon_cpus);
  const Tracer::Section root(tracer, "layers.server_probe");
  for (int i = 0; i < 20; ++i) {
    ref.handshake_us.push_back(connect_link(daemon.socket_path(), master).handshake_us);
  }
  Link link = connect_link(daemon.socket_path(), master);
  srv::FrameParser parser;
  std::vector<double> ping, crypto;
  for (int i = 0; i < 300; ++i) {
    const auto msg = random_payload(rng, kPayloadBytes);
    const auto container = link.c2s->seal(msg);
    const std::vector<std::vector<std::uint8_t>> frames = {
        srv::encode_request(srv::Op::kPing, {}), srv::encode_request(srv::Op::kSeal, msg),
        srv::encode_request(srv::Op::kOpen, container)};
    for (std::size_t k = 0; k < frames.size(); ++k) {
      srv::Frame reply;
      const double us = timed(tracer, k == 0 ? "server.ping" : "server.crypto_request", i, root,
                              [&] {
                                reply = roundtrip(link.fd, parser, frames[k]);
                                return reply.tag == static_cast<std::uint8_t>(srv::Status::kOk);
                              },
                              &ok);
      (k == 0 ? ping : crypto).push_back(us);
      if (reply.tag == static_cast<std::uint8_t>(srv::Status::kOverloaded)) ref.shed += 1;
      else if (reply.tag != static_cast<std::uint8_t>(srv::Status::kOk)) ref.errors += 1;
      if (k == 2) ok = ok && reply.body == msg;
      if (k == 1) {
        std::vector<std::uint8_t> out(msg.size() + 64);
        try {
          const std::size_t n = link.s2c->open_into(reply.body, out);
          ok = ok && n == msg.size() && std::memcmp(out.data(), msg.data(), n) == 0;
        } catch (const std::exception&) {
          ok = false;
        }
      }
    }
  }
  ref.ping_rtt_us = median(ping);
  ref.crypto_p50_us = median(crypto);
  ref.backlog_max = 1;
}

}  // namespace

bool run_layers(const Options& opt, const WorkloadResult& untraced,
                const WorkloadResult& traced, Tracer& tracer, Metrics& out) {
  bool ok = true;
  WorkloadResult ref = traced;
  if (!ref.has_rpc) probe_daemon(opt, ref, tracer, ok);
  mhhea::util::Xoshiro256 rng(opt.seed ^ 0x1A7E45);
  const int nproc = bulk_shards();
  auto& ex = mhhea::exec::Executor::shared();
  const auto params = mhhea::core::BlockParams::hardware();

  // The 64 KiB messages the per-byte stages replay (bulk_stream's shape).
  std::vector<std::vector<std::uint8_t>> bulk[2];
  for (int i = 0; i < 4; ++i) {
    bulk[0].push_back(random_payload(rng, kBulkBytes));
    bulk[1].push_back(text_payload(rng, kBulkBytes));
  }
  if (!ref.has_rpc) {
    // bulk_stream's requests, as a client would frame them for the daemon.
    for (const auto& kind : bulk) {
      for (const auto& msg : kind) ref.request_frames.push_back(srv::encode_request(srv::Op::kSeal, msg));
    }
  }

  // --- server: frame parsing of the workload's request frames ------------
  double parse_ns = 0.0;
  {
    const Tracer::Section root(tracer, "layers.server");
    double us = 0.0;
    std::size_t frames = 0;
    for (int rep = 0; rep < 20; ++rep) {
      srv::FrameParser parser(std::size_t{1} << 24);
      us += timed(tracer, "server.frame_parse", rep, root, [&] {
        for (const auto& f : ref.request_frames) {
          parser.feed(f);
          if (!parser.next()) return false;
        }
        return true;
      }, &ok);
      frames += ref.request_frames.size();
    }
    out.set("server.ping_rtt_us", ref.ping_rtt_us, "us");
    parse_ns = us * 1e3 / static_cast<double>(std::max<std::size_t>(1, frames));
    out.set("server.frame_parse_ns", parse_ns, "ns");
    out.set("server.handshake_us", median(ref.handshake_us), "us");
    out.set("server.shed_count", static_cast<double>(ref.shed), "count");
    out.set("server.error_count", static_cast<double>(ref.errors), "count");
    out.set("server.backlog_max", static_cast<double>(ref.backlog_max), "count");
    out.set("server.failed_ratio", ref.failed_ratio, "ratio");
  }

  // --- exec: one hop and one nproc-wide fan-out on the shared executor ---
  double hop_us = 0.0;
  {
    const Tracer::Section root(tracer, "layers.exec");
    std::vector<double> hops, fans;
    std::atomic<int> flag{0};
    for (int i = 0; i < kSmallReps; ++i) {
      hops.push_back(timed(tracer, "exec.hop", i, root, [&] {
        flag.store(0);
        ex.submit([&flag] {
          flag.store(1, std::memory_order_release);
          flag.notify_one();
        });
        while (flag.load(std::memory_order_acquire) == 0) flag.wait(0);
        return true;
      }));
      fans.push_back(timed(tracer, "exec.fanout", i, root, [&] {
        std::atomic<int> ran{0};
        mhhea::exec::run_indexed(&ex, static_cast<std::size_t>(nproc),
                                 [&ran](std::size_t) { ran.fetch_add(1); });
        return ran.load() == nproc;
      }, &ok));
    }
    hop_us = median(hops);
    out.set("exec.hop_us", hop_us, "us");
    out.set("exec.fanout_us", median(fans), "us");
  }

  // --- crypto at the daemon's message size: Session seal/open -------------
  double seal_us = 0.0, open_us = 0.0;
  {
    const Tracer::Section root(tracer, "layers.crypto_small");
    std::vector<std::unique_ptr<Session>> sealers, openers;
    for (std::size_t k = 0; k < kKeys; ++k) {
      const auto m = make_master(rng);
      sealers.push_back(std::make_unique<Session>(Session::from_master(m)));
      openers.push_back(std::make_unique<Session>(Session::from_master(m)));
    }
    std::vector<std::vector<std::uint8_t>> msgs;
    for (int i = 0; i < 64; ++i) msgs.push_back(random_payload(rng, kPayloadBytes));
    std::size_t sealed_max = 0;  // the bound depends on the hiding key
    for (const auto& sealer : sealers) sealed_max = std::max(sealed_max, sealer->max_sealed_size(kPayloadBytes));
    std::vector<std::uint8_t> sealed(sealed_max);
    std::vector<std::uint8_t> opened(kPayloadBytes);
    std::vector<double> seals, opens;
    for (int i = 0; i < kSmallReps; ++i) {
      const auto k = static_cast<std::size_t>(i) % kKeys;
      const auto& msg = msgs[static_cast<std::size_t>(i) % msgs.size()];
      std::size_t n = 0;
      seals.push_back(timed(tracer, "crypto.seal", i, root, [&] {
        n = sealers[k]->seal_into(msg, sealed);
        return n > 0;
      }));
      opens.push_back(timed(tracer, "crypto.open", i, root, [&] {
        return openers[k]->open_into(std::span(sealed.data(), n), opened) == msg.size() &&
               std::memcmp(opened.data(), msg.data(), msg.size()) == 0;
      }, &ok));
    }
    seal_us = median(seals);
    open_us = median(opens);
    out.set("crypto.seal_us", seal_us, "us");
    out.set("crypto.open_us", open_us, "us");
  }

  // --- the 64 KiB path of bulk_stream, stage by stage --------------------
  // The same messages go through the whole Session call and through each
  // stage's own public function: the compress probe and lzss (text half),
  // the sharded core, and the MAC over the container.
  double bulk_layers_us = 0.0;  // per message: every stage of seal + open
  double bulk_calls_us = 0.0;   // per message: Session seal_into + open_into
  {
    const Tracer::Section root(tracer, "layers.bulk");
    // The sessions run on a hiding key drawn here, so the stage replays
    // below use the very key the Session calls ran on.
    const auto m = make_master(rng);
    const auto key = mhhea::core::Key::random(rng, 8, params);
    Session sealer(m, key, params, nproc);
    sealer.set_compression(mhhea::compress::Method::lzss);
    Session opener(m, key, params, nproc);
    // SipHash's cost does not depend on its key, so the MAC replay draws one.
    mhhea::crypto::MacKey mac_key{};
    for (auto& b : mac_key) b = static_cast<std::uint8_t>(rng.next());
    auto lzss = mhhea::compress::make_compressor(mhhea::compress::Method::lzss);
    const auto cover = warm_cover(params.vector_bits, cover_seed(rng));
    std::vector<std::uint8_t> sealed(sealer.max_sealed_size(kBulkBytes));
    std::vector<std::uint8_t> opened(kBulkBytes);
    std::vector<std::uint8_t> stream(lzss->max_compressed_size(kBulkBytes));
    std::vector<std::uint8_t> core_out(kBulkBytes * 20);
    // mac_total counts one MAC per message; seal and open each compute one.
    double seal_total = 0, open_total = 0, mac_total = 0, mac_bytes = 0, lz_total = 0,
           unlz_total = 0, lz_bytes = 0, lz_out = 0, probe_total = 0, enc_total = 0,
           dec_total = 0;
    std::size_t probes = 0, shipped = 0, sealed_msgs = 0, bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      for (int kind = 0; kind < 2; ++kind) {
        for (const auto& msg : bulk[kind]) {
          const std::uint64_t id = sealed_msgs++;
          std::size_t n = 0;
          seal_total += timed(tracer, "crypto.seal_64k", id, root, [&] {
            n = sealer.seal_into(msg, sealed);
            return n > 0;
          });
          open_total += timed(tracer, "crypto.open_64k", id, root, [&] {
            return opener.open_into(std::span(sealed.data(), n), opened) == msg.size() &&
                   std::memcmp(opened.data(), msg.data(), msg.size()) == 0;
          }, &ok);
          bytes += msg.size();
          std::span<const std::uint8_t> payload;
          const auto header = mhhea::core::frame_decode(std::span(sealed.data(), n), &payload);
          shipped += header.compression != 0 ? 1 : 0;
          // The MAC covers header + ciphertext; time it over the container.
          mac_total += timed(tracer, "crypto.mac", id, root, [&] {
            (void)mhhea::crypto::siphash128(mac_key, std::span(sealed.data(), n - 16));
            return true;
          });
          mac_bytes += static_cast<double>(n - 16);
          probes += 1;
          bool compressible = false;
          probe_total += timed(tracer, "compress.probe", id, root, [&] {
            compressible = mhhea::compress::probably_compressible(msg);
            return true;
          });
          std::span<const std::uint8_t> core_in = msg;
          if (kind == 1 && compressible) {
            std::size_t z = 0;
            lz_total += timed(tracer, "compress.lzss", id, root, [&] {
              z = lzss->compress_into(msg, stream);
              return z > 0;
            });
            unlz_total += timed(tracer, "compress.unlzss", id, root, [&] {
              return lzss->decompress_into(std::span(stream.data(), z), msg.size(), opened) ==
                         msg.size() &&
                     std::memcmp(opened.data(), msg.data(), msg.size()) == 0;
            }, &ok);
            lz_bytes += static_cast<double>(msg.size());
            lz_out += static_cast<double>(z);
            if (z < msg.size()) core_in = std::span(stream.data(), z);
          }
          std::size_t c = 0;
          enc_total += timed(tracer, "core.encrypt_sharded", id, root, [&] {
            c = mhhea::core::encrypt_sharded_into(core_in, key, cover, nproc, &ex, core_out, params);
            return c > 0;
          });
          dec_total += timed(tracer, "core.decrypt_sharded", id, root, [&] {
            return mhhea::core::decrypt_sharded_into(std::span(core_out.data(), c), key,
                                                     core_in.size(), nproc, &ex, opened,
                                                     params) == core_in.size() &&
                   std::memcmp(opened.data(), core_in.data(), core_in.size()) == 0;
          }, &ok);
        }
      }
    }
    const double msgs = static_cast<double>(sealed_msgs);
    const double b = static_cast<double>(bytes);
    out.set("crypto.seal_ns_per_byte", seal_total * 1e3 / b, "ns/B");
    out.set("crypto.open_ns_per_byte", open_total * 1e3 / b, "ns/B");
    // The MAC over the workload's own containers: the rpc sample, or the
    // 64 KiB containers sealed above.
    double mac_ns = mac_total * 1e3 / mac_bytes;
    if (ref.has_rpc) {
      double us = 0.0, mac_bytes_rpc = 0.0;
      for (std::size_t i = 0; i < ref.containers.size(); ++i) {
        const auto& c = ref.containers[i];
        us += timed(tracer, "crypto.mac", i, root, [&] {
          (void)mhhea::crypto::siphash128(mac_key, std::span(c).first(c.size() - 16));
          return true;
        });
        mac_bytes_rpc += static_cast<double>(c.size() - 16);
      }
      mac_ns = us * 1e3 / mac_bytes_rpc;
    }
    out.set("crypto.mac_ns_per_byte", mac_ns, "ns/B");
    bulk_layers_us = (probe_total + lz_total + unlz_total + enc_total + dec_total + 2 * mac_total) / msgs;
    bulk_calls_us = (seal_total + open_total) / msgs;
    // Seal minus its stages: the probe, lzss (text half), the sharded core
    // encrypt and one MAC.
    out.set("crypto.framing_residual_us",
            (seal_total - probe_total - lz_total - enc_total - mac_total) / msgs, "us");
    out.set("compress.lzss_ns_per_byte", lz_bytes > 0 ? lz_total * 1e3 / lz_bytes : 0.0, "ns/B");
    out.set("compress.unlzss_ns_per_byte", lz_bytes > 0 ? unlz_total * 1e3 / lz_bytes : 0.0, "ns/B");
    out.set("compress.probe_ns", probe_total * 1e3 / static_cast<double>(probes), "ns");
    out.set("compress.shipped_ratio", static_cast<double>(shipped) / msgs, "ratio");
    out.set("compress.ratio", lz_bytes > 0 ? lz_out / lz_bytes : 1.0, "ratio");
  }

  // --- core: sequential vs sharded over the seed's hiding keys -----------
  {
    const Tracer::Section root(tracer, "layers.core");
    mhhea::util::Xoshiro256 krng(opt.seed ^ 0xC07E);
    std::vector<double> key_ns;
    double enc = 0, dec = 0, senc = 0, sdec = 0, plain = 0, cipher = 0;
    std::vector<std::uint8_t> ct(kBulkBytes * 20), pt(kBulkBytes);
    for (std::size_t k = 0; k < kKeys; ++k) {
      const auto key = mhhea::core::Key::random(krng, 8, params);
      const std::uint64_t seed = cover_seed(krng);
      mhhea::core::Encryptor encryptor(key, mhhea::core::make_lfsr_cover(params.vector_bits, seed), params);
      mhhea::core::Decryptor decryptor(key, 0, params);
      const auto proto = warm_cover(params.vector_bits, seed);
      double key_us = 0.0, key_bytes = 0.0;
      for (const auto& msg : bulk[0]) {
        const std::uint64_t bits = msg.size() * 8;
        std::size_t n = 0;
        const double e = timed(tracer, "core.encrypt", k, root, [&] {
          n = encryptor.encrypt_into(msg, ct);
          return n > 0;
        });
        enc += e;
        key_us += e;
        key_bytes += static_cast<double>(msg.size());
        dec += timed(tracer, "core.decrypt", k, root, [&] {
          return decryptor.decrypt_into(std::span(ct.data(), n), bits, pt) == msg.size() &&
                 std::memcmp(pt.data(), msg.data(), msg.size()) == 0;
        }, &ok);
        std::size_t s = 0;
        senc += timed(tracer, "core.encrypt_sharded", k, root, [&] {
          s = mhhea::core::encrypt_sharded_into(msg, key, proto, nproc, &ex, ct, params);
          return s == n;
        }, &ok);
        sdec += timed(tracer, "core.decrypt_sharded", k, root, [&] {
          return mhhea::core::decrypt_sharded_into(std::span(ct.data(), s), key, msg.size(),
                                                   nproc, &ex, pt, params) == msg.size() &&
                 std::memcmp(pt.data(), msg.data(), msg.size()) == 0;
        }, &ok);
        plain += static_cast<double>(msg.size());
        cipher += static_cast<double>(n);
      }
      key_ns.push_back(key_us * 1e3 / key_bytes);
    }
    out.set("core.encrypt_ns_per_byte", enc * 1e3 / plain, "ns/B");
    out.set("core.decrypt_ns_per_byte", dec * 1e3 / plain, "ns/B");
    out.set("core.shard_encrypt_ns_per_byte", senc * 1e3 / plain, "ns/B");
    out.set("core.shard_decrypt_ns_per_byte", sdec * 1e3 / plain, "ns/B");
    out.set("core.shard_speedup", (enc + dec) / (senc + sdec), "ratio");
    out.set("core.expansion", cipher / plain, "ratio");
    const auto [lo, hi] = std::minmax_element(key_ns.begin(), key_ns.end());
    out.set("core.key_spread", (*hi - *lo) / median(key_ns), "ratio");
  }

  // --- lfsr: cover generation in 2048-block chunks ----------------------
  {
    const Tracer::Section root(tracer, "layers.lfsr");
    mhhea::core::LfsrCover cover(params.vector_bits, cover_seed(rng));
    std::vector<std::uint64_t> blocks(2048);
    double us = 0.0;
    for (int i = 0; i < 512; ++i) {
      us += timed(tracer, "lfsr.next_blocks", i, root, [&] {
        return cover.next_blocks(params.vector_bits, blocks) == blocks.size();
      }, &ok);
    }
    out.set("lfsr.cover_ns_per_block", us * 1e3 / (512.0 * 2048.0), "ns");
  }

  // --- closure and tracing overhead --------------------------------------
  // rpc: a crypto request's layers are the socket/io-loop round trip (a
  // ping), the parse, the executor hop and the crypto itself.
  const double rpc_layers = ref.ping_rtt_us + hop_us + (seal_us + open_us) / 2 +
                            parse_ns / 1e3;
  out.set("server.unattributed_us", ref.crypto_p50_us - (ref.ping_rtt_us + (seal_us + open_us) / 2), "us");
  out.set("closure.rpc_ratio", rpc_layers / ref.crypto_p50_us, "ratio");
  const double bulk_e2e = ref.has_bulk ? ref.bulk_roundtrip_us : bulk_calls_us;
  out.set("closure.bulk_ratio", bulk_layers_us / bulk_e2e, "ratio");
  out.set("trace.overhead_ratio", traced.overhead_ref_ms / untraced.overhead_ref_ms, "ratio");
  return ok;
}

}  // namespace perfbench
