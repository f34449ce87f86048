// bulk_stream: library-level, no daemon. One caller thread round-trips
// 64 KiB messages through Session::seal_into then open_into, alternating
// random and text payloads. The sealing side negotiates lzss, both sides
// shard over every core on the shared executor, and consecutive message
// pairs rotate over kMasters session masters drawn from the seed. Each phase
// of the window draws a fresh set of masters, so one run averages over
// many hiding keys.
#include <cstring>
#include <thread>

#include "daemon.hpp"
#include "src/crypto/mac.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mhhea::crypto::Session;

constexpr std::size_t kPoolPerKind = 8;

/// The round-trip check: the opened bytes equal the message.
bool same_bytes(std::span<const std::uint8_t> opened, std::span<const std::uint8_t> msg) {
  return opened.size() == msg.size() && std::memcmp(opened.data(), msg.data(), msg.size()) == 0;
}

struct SessionPair {
  std::unique_ptr<Session> seal;
  std::unique_ptr<Session> open;
};

}  // namespace

int bulk_shards() { return static_cast<int>(std::max(1u, std::thread::hardware_concurrency())); }

WorkloadResult run_bulk(const Options& opt, Tracer& tracer) {
  mhhea::util::Xoshiro256 rng(opt.seed);
  std::vector<std::vector<std::uint8_t>> masters;
  std::vector<std::vector<std::uint8_t>> pool[2];
  for (std::size_t i = 0; i < kPoolPerKind; ++i) {
    pool[0].push_back(random_payload(rng, kBulkBytes));
    pool[1].push_back(text_payload(rng, kBulkBytes));
  }
  const int shards = bulk_shards();
  std::vector<std::uint8_t> sealed;
  std::vector<std::uint8_t> opened(kBulkBytes);

  // setup_s: derive every session pair of the phase's masters and warm
  // each with one round trip. The host's speed drifts within seconds, so
  // the set-up is repeated before every phase of the window and setup_s is
  // the median over the whole run; the last set built serves the phase.
  // No spinners here: the
  // set-up keeps every vCPU busy itself, and a spinner would share a core
  // with the work.
  std::vector<SessionPair> sessions;
  std::vector<double> setups;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    sessions.clear();
    for (const auto& m : masters) {
      SessionPair sp;
      sp.seal = std::make_unique<Session>(
          Session::from_master(m, 8, mhhea::core::BlockParams::hardware(), shards));
      sp.seal->set_compression(mhhea::compress::Method::lzss);
      sp.open = std::make_unique<Session>(
          Session::from_master(m, 8, mhhea::core::BlockParams::hardware(), shards));
      // The bound depends on the hiding key; one buffer serves every session.
      sealed.resize(std::max(sealed.size(), sp.seal->max_sealed_size(kBulkBytes)));
      const std::size_t n = sp.seal->seal_into(pool[0][0], sealed);
      sp.open->open_into(std::span(sealed.data(), n), opened);
      sessions.push_back(std::move(sp));
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  };

  WorkloadResult res;
  res.has_bulk = true;
  std::vector<double> msg_ms;
  std::vector<double> pair_ms;
  std::uint64_t attempted = 0, failed = 0, in_window = 0, in_limit = 0;
  std::uint64_t wire = 0, plain = 0;
  double plain_in_window = 0.0;
  double cpu_s = 0.0;
  const std::size_t n_phases = phase_count(opt.seconds);
  const double phase_secs = opt.seconds / static_cast<double>(n_phases);
  std::uint64_t i = 0;  // message index over the whole run
  for (std::size_t phase = 0; phase < n_phases; ++phase) {
    masters.clear();
    for (int k = 0; k < kMasters; ++k) masters.push_back(make_master(rng));
    for (int rep = 0; rep < kBulkSetupRepsPerPhase; ++rep) set_up();
    const double cpu_before = cpu_seconds(0);
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(phase_secs));
    // A phase ends on a whole random + text pair.
    for (; Clock::now() < end || i % 2 == 1; ++i) {
      const std::uint64_t pair = i / 2;
      SessionPair& sp = sessions[pair % sessions.size()];
      const auto& msg = pool[i % 2][(pair / sessions.size()) % kPoolPerKind];
      attempted += 1;
      const auto t_a = Clock::now();
      const std::size_t n = sp.seal->seal_into(msg, sealed);
      const auto t_mid = Clock::now();
      std::size_t m = 0;
      try {
        m = sp.open->open_into(std::span(sealed.data(), n), opened);
      } catch (const std::exception&) {
        m = 0;  // a rejected container counts as a failed round trip
      }
      const auto t_b = Clock::now();
      const bool ok = same_bytes(std::span(opened.data(), m), msg);
      if (tracer.enabled()) {
        const std::int64_t root = tracer.record("bulk.roundtrip", i, Tracer::kNoParent, t_a, t_b, !ok);
        tracer.record("crypto.seal", i, root, t_a, t_mid);
        tracer.record("crypto.open", i, root, t_mid, t_b);
      }
      const double ms = std::chrono::duration<double, std::milli>(t_b - t_a).count();
      msg_ms.push_back(ms);
      if (i % 2 == 1) pair_ms.push_back(ms + msg_ms[msg_ms.size() - 2]);
      wire += n;
      plain += msg.size();
      if (!ok) {
        failed += 1;
        continue;
      }
      if (ms <= kBulkLimitMs) in_limit += 1;
      if (t_b <= end) {
        in_window += 1;
        plain_in_window += static_cast<double>(m);
      }
    }
    cpu_s += cpu_seconds(0) - cpu_before;
  }


  // Negative self-check on fresh sessions of the first master: the opener
  // must reject a fresh container with one byte flipped at authentication
  // (MacError, before any plaintext) and then open the genuine container,
  // and the opened bytes with one byte flipped must fail the round-trip
  // check. Only the corruption can make a check fail.
  bool self_ok = false;
  {
    Session sealer = Session::from_master(masters.front(), 8, mhhea::core::BlockParams::hardware(), shards);
    sealer.set_compression(mhhea::compress::Method::lzss);
    Session opener = Session::from_master(masters.front(), 8, mhhea::core::BlockParams::hardware(), shards);
    const auto& msg = pool[1][0];
    sealed.resize(std::max(sealed.size(), sealer.max_sealed_size(msg.size())));
    const std::size_t n = sealer.seal_into(msg, sealed);
    std::vector<std::uint8_t> forged(sealed.begin(), sealed.begin() + static_cast<std::ptrdiff_t>(n));
    forged[n / 2] ^= 0x04;
    bool rejected = false;
    try {
      opener.open_into(forged, opened);
    } catch (const mhhea::crypto::MacError&) {
      rejected = true;
    } catch (const std::exception&) {
    }
    try {
      const std::size_t m = opener.open_into(std::span(sealed.data(), n), opened);
      const bool genuine_ok = same_bytes(std::span(opened.data(), m), msg);
      opened[m / 3] ^= 0x01;
      self_ok = rejected && genuine_ok && !same_bytes(std::span(opened.data(), m), msg);
    } catch (const std::exception&) {
      self_ok = false;
    }
  }

  res.e2e.set("setup_s", median(setups), "s");
  res.unbounded.set("served_qps", static_cast<double>(in_window) / opt.seconds, "1/s");
  res.unbounded.set("goodput_mb_s", plain_in_window / opt.seconds / 1e6, "MB/s");
  res.e2e.set("slo_met_ratio", static_cast<double>(in_limit) / static_cast<double>(attempted), "ratio");
  res.e2e.set("wire_expansion", static_cast<double>(wire) / static_cast<double>(plain), "ratio");
  res.e2e.set("peak_rss_mb", vm_hwm_mb(0), "MB");
  res.unbounded.set("p50_ms", quantile(pair_ms, 0.5), "ms");
  res.unbounded.set("p99_ms", quantile(pair_ms, 0.99), "ms");
  res.unbounded.set("failed_ratio", static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  res.unbounded.set("cpu_us_per_op", cpu_s * 1e6 / static_cast<double>(attempted), "us");
  res.tally.attempted = attempted;
  res.tally.failed = failed;
  res.tally.correct = failed == 0 && self_ok;
  res.overhead_ref_ms = quantile(pair_ms, 0.5);
  double sum = 0.0;
  for (const double v : msg_ms) sum += v;
  res.bulk_roundtrip_us = sum / static_cast<double>(msg_ms.size()) * 1e3;

  char info[384];
  std::snprintf(info, sizeof(info),
                "\"message_bytes\": %zu, \"masters_per_phase\": %d, \"shards\": %d, \"limit_ms\": %.3f, "
                "\"phases\": %zu, "
                "\"messages\": %llu, \"latency_unit\": \"random+text message pair\", "
                "\"latency_samples\": %zu, \"message_p50_ms\": %.4f, \"message_p99_ms\": %.4f, "
                "\"setup_samples\": %zu",
                kBulkBytes, kMasters, shards, kBulkLimitMs, n_phases,
                static_cast<unsigned long long>(attempted), pair_ms.size(),
                quantile(msg_ms, 0.5), quantile(msg_ms, 0.99), setups.size());
  res.info = info;
  return res;
}

}  // namespace perfbench
