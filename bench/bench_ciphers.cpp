// Benchmark harness: sweep every registry cipher across message sizes,
// thread counts, both directions and both API forms, and emit
// BENCH_ciphers.json — the repo's reproduction of the paper's Table 1
// throughput comparison, plus the batch-scaling axis the ROADMAP's "as fast
// as the hardware allows" goal needs a baseline for.
//
// Method: for each (cipher, msg_bytes, column) cell, process a batch of
// independent messages (total plaintext ~ kTargetBatchBytes) repeatedly;
// each repetition is one sample of MB/s (plaintext MB/s for both
// directions, so encrypt and decrypt rows are directly comparable).
// Sequential columns measure four cells each — dir in {encrypt, decrypt} x
// api in {alloc, into} — so the allocating-vs-in-place overhead and the
// decrypt datapath are both visible; the thread and shard columns sweep
// encrypt/alloc only. The JSON records the median throughput with its
// quartiles (a shared host bursts; the median and the quartile spread say
// what a mean or max hides), the measured expansion factor, and the median
// per-block latency. A decrypt
// round-trip of the first message guards against benchmarking a broken
// configuration.
//
// Two payload corpora run per cipher: `random` (incompressible, the
// historical sweep) over every column, and `text` (deterministic synthetic
// log lines) over the sequential encrypt/decrypt cells — the compressible
// shape that feeds the per-corpus "expansion" and
// "effective_wire_mb_per_s" aggregates separating MHHEA-sealed-v2-z's
// compress-then-encrypt pipeline from its uncompressed twin.
//
// Under the cipher cells, a "stages" block breaks the MHHEA datapath down
// layer by layer: the per-block cost of cover generation, plan, schedule,
// embed and extract at the paper's hardware configuration (N=16, framed) on
// one 64 KiB random message, each stage timed alone over the message's
// ciphertext blocks on the active engine (median and quartiles).
//
// Usage: bench_ciphers [--out FILE] [--quick] [--reps N] [--threads N]
//                      [--shards N] [--seed S] [--backend auto|scalar|avx2]
//   --reps N     repetitions per cell (default 9, or 2 with --quick; the
//                bench_smoke ctest runs --reps 1 so harness breakage fails
//                CI instead of only the artifact step)
//   --threads N  multi-thread column to sweep alongside 1 (default: hardware
//                concurrency; the sweep is {1} only on a single-core host —
//                oversubscribing one core measures scheduler noise, not the
//                cipher)
//   --shards N   intra-message shard counts to sweep at threads=1: {2,4,8}
//                clamped to N (default: hardware concurrency, so the shard
//                sweep is empty on a single-core host; pass --shards
//                explicitly — note the adapters additionally clamp their
//                worker pools to hardware concurrency, so on a 1-core host
//                the shard columns measure the clamp itself: they run the
//                sequential path and should match the shards=1 row)
//   --seed S     registry key/nonce derivation seed (decimal or 0x hex), for
//                reproducible runs
//   --backend B  force the keystream engine for the whole run (default
//                auto: cpuid picks). Forcing an engine the host cannot run
//                is an error — a bench must never silently measure scalar
//                while labelled avx2. Every JSON row records the engine,
//                and a "host" block records the cpu capabilities, so perf
//                trajectories across BENCH_ciphers.json artifacts are
//                attributable to hardware.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/backend/backend.hpp"
#include "src/core/mhhea.hpp"
#include "src/crypto/batch.hpp"
#include "src/crypto/registry.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace {

using mhhea::crypto::CipherRegistry;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultCipherSeed = 0xB0A710ADULL;  // registry key/nonce seed
std::uint64_t g_cipher_seed = kDefaultCipherSeed;
constexpr std::size_t kTargetBatchBytes = 1 << 20;  // ~1 MiB plaintext per batch

/// Which half of the cipher a cell times, and through which API form.
enum class Dir { encrypt, decrypt };
enum class Api { alloc, into };

/// Payload corpus a cell runs over. `random` is the incompressible
/// worst case every cipher has always been swept with; `text` is a
/// deterministic synthetic log-line corpus — the compressible shape the
/// compression pre-stage exists for, where the wire-expansion aggregates
/// separate MHHEA-sealed-v2-z from its uncompressed twin.
enum class Corpus { random, text };

const char* dir_name(Dir d) { return d == Dir::encrypt ? "encrypt" : "decrypt"; }
const char* api_name(Api a) { return a == Api::alloc ? "alloc" : "into"; }
const char* corpus_name(Corpus c) { return c == Corpus::random ? "random" : "text"; }

/// One sweep column: how many batch workers, how many intra-message shards
/// per cipher instance, the direction and the API form. The thread sweep
/// runs at shards=1 and the shard sweep at threads=1, so each axis is
/// measured in isolation; dir/api variants run on the sequential column.
struct SweepColumn {
  int threads = 1;
  int shards = 1;
  Dir dir = Dir::encrypt;
  Api api = Api::alloc;
};

struct CellResult {
  std::string cipher;
  std::size_t msg_bytes = 0;
  int threads = 0;
  int shards = 1;
  Dir dir = Dir::encrypt;
  Api api = Api::alloc;
  Corpus corpus = Corpus::random;
  std::size_t batch_size = 0;
  std::size_t reps = 0;
  mhhea::util::Quartiles mb_per_s;
  double expansion = 0.0;
  double ns_per_block = 0.0;
};

void cell_fill(CellResult& cell, const std::string& name, std::size_t msg_bytes,
               SweepColumn col, Corpus corpus, std::size_t batch_size,
               std::size_t reps) {
  cell.cipher = name;
  cell.msg_bytes = msg_bytes;
  cell.threads = col.threads;
  cell.shards = col.shards;
  cell.dir = col.dir;
  cell.api = col.api;
  cell.corpus = corpus;
  cell.batch_size = batch_size;
  cell.reps = reps;
}

std::vector<std::vector<std::uint8_t>> make_messages(std::size_t msg_bytes,
                                                     std::size_t batch_size,
                                                     Corpus corpus) {
  mhhea::util::Xoshiro256 rng(msg_bytes * 1000003 + batch_size);
  std::vector<std::vector<std::uint8_t>> msgs(batch_size);
  for (auto& m : msgs) {
    m.reserve(msg_bytes);
    if (corpus == Corpus::random) {
      m.resize(msg_bytes);
      for (auto& b : m) b = static_cast<std::uint8_t>(rng.below(256));
      continue;
    }
    // Deterministic structured log lines: varied counters over a fixed
    // template, the redundancy profile of real service telemetry.
    static const char* const kLevels[] = {"INFO", "WARN", "DEBUG"};
    while (m.size() < msg_bytes) {
      const std::string line =
          "2026-08-08T12:00:" + std::to_string(rng.below(60)) +
          "Z svc=mhhead level=" + kLevels[rng.below(3)] +
          " msg=\"request sealed\" conn=" + std::to_string(rng.below(1024)) +
          " bytes=" + std::to_string(rng.below(65536)) +
          " latency_us=" + std::to_string(rng.below(10000)) + " status=ok\n";
      m.insert(m.end(), line.begin(), line.end());
    }
    m.resize(msg_bytes);
  }
  return msgs;
}

/// Measure one (cipher, msg_bytes) pair at every sweep column, interleaving
/// the repetitions across columns so clock drift and cache warm-up bias no
/// single column. Returns one cell per column.
std::vector<CellResult> run_cells(const std::string& name, std::size_t msg_bytes,
                                  const std::vector<SweepColumn>& columns,
                                  Corpus corpus, std::size_t reps) {
  int max_threads = 1;
  int max_shards = 1;
  for (const SweepColumn& c : columns) {
    max_threads = std::max(max_threads, c.threads);
    max_shards = std::max(max_shards, c.shards);
  }
  const std::size_t batch_size =
      std::max<std::size_t>(kTargetBatchBytes / std::max<std::size_t>(msg_bytes, 1),
                            static_cast<std::size_t>(max_threads) * 4);
  const auto msgs = make_messages(msg_bytes, batch_size, corpus);
  const auto maker_for = [&](int shards) {
    return [&, shards] { return CipherRegistry::builtin().make(name, g_cipher_seed, shards); };
  };

  // Correctness guard + warm-up: round-trip the first message once (through
  // both API forms), and pin the sharded column to the sequential bytes
  // before timing it.
  {
    auto cipher = maker_for(1)();
    const auto ct = cipher->encrypt(msgs[0]);
    if (cipher->decrypt(ct, msgs[0].size()) != msgs[0]) {
      throw std::runtime_error("bench: " + name + " failed its round-trip check");
    }
    std::vector<std::uint8_t> buf(cipher->max_ciphertext_size(msgs[0].size()));
    const std::size_t n = cipher->encrypt_into(msgs[0], buf);
    buf.resize(n);
    if (buf != ct) {
      throw std::runtime_error("bench: " + name + " encrypt_into diverged from encrypt");
    }
    if (max_shards > 1 && maker_for(max_shards)()->encrypt(msgs[0]) != ct) {
      throw std::runtime_error("bench: " + name + " sharded ciphertext diverged");
    }
  }

  std::vector<CellResult> cells(columns.size());
  std::vector<std::vector<double>> mbps(columns.size());
  std::vector<std::vector<double>> nspb(columns.size());
  // Pre-built cipher per threads=1 column: cipher construction (which for a
  // sharded cipher spawns and later joins its worker pool) must not sit
  // inside the timed window, or the shard columns carry a fixed per-rep cost
  // the shards=1 baseline doesn't and shard_speedup reads biased low.
  // Multi-thread columns go through encrypt_batch, which necessarily
  // constructs its per-worker ciphers inside the window for every column.
  std::vector<std::unique_ptr<mhhea::crypto::Cipher>> col_cipher(columns.size());
  bool wants_decrypt = false;
  bool wants_into = false;
  for (std::size_t t = 0; t < columns.size(); ++t) {
    cell_fill(cells[t], name, msg_bytes, columns[t], corpus, batch_size, reps);
    if (columns[t].threads == 1) col_cipher[t] = maker_for(columns[t].shards)();
    wants_decrypt = wants_decrypt || columns[t].dir == Dir::decrypt;
    wants_into = wants_into || columns[t].api == Api::into;
  }
  // Decrypt columns consume pre-encrypted ciphertexts; `_into` columns write
  // into pre-sized reusable buffers (the arena discipline a zero-allocation
  // caller would use) — both prepared outside every timed window.
  std::vector<std::vector<std::uint8_t>> cts;
  std::size_t ct_bytes_total = 0;
  if (wants_decrypt) {
    auto cipher = maker_for(1)();
    cts.reserve(msgs.size());
    for (const auto& m : msgs) {
      cts.push_back(cipher->encrypt(m));
      ct_bytes_total += cts.back().size();
    }
  }
  std::vector<std::uint8_t> enc_buf;
  std::vector<std::uint8_t> dec_buf;
  if (wants_into) {
    enc_buf.resize(maker_for(1)()->max_ciphertext_size(msg_bytes));
    dec_buf.resize(msg_bytes);
  }
  const double plain_mb =
      static_cast<double>(msg_bytes) * static_cast<double>(batch_size) / 1.0e6;
  // Per-block latency denominator (for YAEA-S a "block" is one keystream
  // byte).
  const double block_bytes = name == "YAEA-S" ? 1.0 : 2.0;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t t = 0; t < columns.size(); ++t) {
      const SweepColumn col = columns[t];
      const auto maker = maker_for(col.shards);
      mhhea::crypto::Cipher* cipher = col_cipher[t].get();
      std::size_t cipher_bytes_total = 0;
      const auto t0 = Clock::now();
      if (col.dir == Dir::encrypt && col.api == Api::alloc) {
        if (col.threads == 1) {
          // Same work as encrypt_batch at one thread, minus the construction.
          for (const auto& m : msgs) cipher_bytes_total += cipher->encrypt(m).size();
        } else {
          for (const auto& ct : mhhea::crypto::encrypt_batch(maker, msgs, col.threads)) {
            cipher_bytes_total += ct.size();
          }
        }
      } else if (col.dir == Dir::encrypt) {
        // One reusable output buffer — the discipline a zero-allocation
        // caller (network send buffer, arena slot) actually runs with.
        for (const auto& m : msgs) cipher_bytes_total += cipher->encrypt_into(m, enc_buf);
      } else if (col.api == Api::alloc) {
        for (std::size_t i = 0; i < cts.size(); ++i) {
          (void)cipher->decrypt(cts[i], msgs[i].size());
        }
        cipher_bytes_total = ct_bytes_total;
      } else {
        for (std::size_t i = 0; i < cts.size(); ++i) {
          (void)cipher->decrypt_into(cts[i], msgs[i].size(), dec_buf);
        }
        cipher_bytes_total = ct_bytes_total;
      }
      const auto t1 = Clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      mbps[t].push_back(plain_mb / secs);
      nspb[t].push_back(secs * 1.0e9 * block_bytes / static_cast<double>(cipher_bytes_total));
      cells[t].expansion =
          static_cast<double>(cipher_bytes_total) /
          (static_cast<double>(msg_bytes) * static_cast<double>(batch_size));
    }
  }
  for (std::size_t t = 0; t < columns.size(); ++t) {
    cells[t].mb_per_s = mhhea::util::quartiles(mbps[t]);
    cells[t].ns_per_block = mhhea::util::quartiles(nspb[t]).median;
  }
  return cells;
}

/// The stage breakdown: per-block ns of each chunk-pipeline stage.
struct StageRows {
  std::uint64_t blocks = 0;
  std::map<std::string, mhhea::util::Quartiles> ns_per_block;
};

constexpr std::size_t kStageBytes = 64 * 1024;
volatile std::uint64_t g_stage_sink = 0;  // keeps the stages' outputs live

/// Time every stage over one message at N=16 framed, `reps` x 8 samples
/// per stage, the stages interleaved within each rep. The key and cover
/// seed come from the registry seed.
StageRows run_stages(std::size_t reps) {
  namespace core = mhhea::core;
  namespace be = mhhea::backend;
  constexpr int kN = 16;
  constexpr std::size_t kRefill = 2048;  // the pipeline's cover refill
  const core::BlockParams params = core::BlockParams::hardware();
  mhhea::util::Xoshiro256 rng(g_cipher_seed);
  const core::Key key = core::Key::random(rng, 8, params);
  const std::uint64_t seed = (rng.next() & 0xFFFF) | 1;
  const auto msg = make_messages(kStageBytes, 1, Corpus::random)[0];
  const auto ct = core::encrypt(msg, key, seed, params);
  const std::uint64_t blocks = ct.size() / 2;
  const std::uint64_t bits = msg.size() * 8;
  const core::detail::KeyTables k = core::detail::pair_tables(key, params, core::Scheme::mhhea);
  const be::Backend& engine = be::active();

  // The whole message's schedule, kept for the apply stages.
  std::vector<be::ApplyBatch> batches;
  std::vector<be::Cursor> starts;
  for (be::Cursor at; at.bit < bits;) {
    starts.push_back(at);
    batches.emplace_back();
    (void)engine.schedule_blocks(k, at, bits, ct.data() + at.block * 2,
                                 std::min<std::uint64_t>(be::kApplyBatch, blocks - at.block),
                                 batches.back());
  }
  core::LfsrCover cover(kN, seed);
  cover.warm();
  std::vector<std::uint8_t> covers(kRefill * (kN / 8));
  std::vector<std::uint8_t> out(ct.size());
  std::vector<std::uint32_t> vals(be::kApplyBatch);
  std::uint64_t sink = 0;
  const std::map<std::string, std::function<void()>> stages = {
      {"cover",
       [&] {
         cover.reset();
         for (std::uint64_t b = 0; b < blocks; b += kRefill) {
           const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kRefill, blocks - b));
           cover.next_covers(covers.data(), n);
           sink += covers[0];
         }
       }},
      {"plan",
       [&] {
         be::Transfer t;
         for (std::uint64_t b = 0; b < blocks; b += kRefill) {
           const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kRefill, blocks - b));
           engine.plan_blocks(k, b, ct.data() + b * 2, n, t);
         }
         sink += t.bits[0];
       }},
      {"schedule",
       [&] {
         be::ApplyBatch batch;
         for (be::Cursor at; at.bit < bits;) {
           sink += engine.schedule_blocks(
               k, at, bits, ct.data() + at.block * 2,
               std::min<std::uint64_t>(be::kApplyBatch, blocks - at.block), batch);
         }
       }},
      {"embed",
       [&] {
         for (std::size_t i = 0; i < batches.size(); ++i) {
           const std::size_t at = starts[i].block * 2;
           engine.embed_blocks(kN, batches[i], ct.data() + at,
                               std::span(msg).subspan(starts[i].bit / 8), out.data() + at);
         }
         sink += out[0];
       }},
      {"extract",
       [&] {
         for (std::size_t i = 0; i < batches.size(); ++i) {
           engine.extract_blocks(kN, batches[i], ct.data() + starts[i].block * 2, vals.data());
           sink += vals[0];
         }
       }},
  };
  std::map<std::string, std::vector<double>> samples;
  for (std::size_t r = 0; r < reps * 8; ++r) {
    for (const auto& [name, run] : stages) {
      const auto t0 = Clock::now();
      run();
      const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      samples[name].push_back(ns / static_cast<double>(blocks));
    }
  }
  g_stage_sink = sink;
  StageRows rows;
  rows.blocks = blocks;
  for (auto& [name, v] : samples) rows.ns_per_block[name] = mhhea::util::quartiles(v);
  return rows;
}

/// Strict decimal/0x-hex u64 parse: the whole string must be consumed and
/// the value must fit — trailing garbage ("4x") and overflow are errors, so
/// a recorded --seed always reproduces the run.
bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_json(const std::string& path, const std::vector<CellResult>& cells,
                const StageRows& stages, int max_threads, int max_shards) {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"bench\": \"ciphers\",\n";
  os << "  \"seed\": " << g_cipher_seed << ",\n";
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"max_threads\": " << max_threads << ",\n";
  os << "  \"max_shards\": " << max_shards << ",\n";
  // Host capabilities: which keystream engine produced these numbers and
  // what the silicon could have run, so artifacts from different runners
  // compare like with like.
  const std::string backend_name(mhhea::backend::active().name());
  os << "  \"host\": {\"backend\": \"" << backend_name << "\", \"cpu_avx2\": "
     << (mhhea::backend::cpu_has_avx2() ? "true" : "false") << ", \"avx2_compiled\": "
     << (mhhea::backend::avx2_compiled() ? "true" : "false")
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency() << "},\n";
  // Speedups are ratios of median-throughput totals across message sizes,
  // each with its quartile spread beside it under "<name>_spread": the
  // ratio of the numerator's lower-quartile total to the denominator's
  // upper-quartile total, and the other way round.
  struct Totals {
    double q25 = 0.0, median = 0.0, q75 = 0.0;
    void add(const mhhea::util::Quartiles& q) {
      q25 += q.q25;
      median += q.median;
      q75 += q.q75;
    }
  };
  struct Ratio {
    double median = 1.0, lo = 1.0, hi = 1.0;
  };
  const auto ratio_of = [](const Totals& num, const Totals& den) {
    Ratio r;
    r.median = den.median > 0.0 ? num.median / den.median : 0.0;
    r.lo = den.q75 > 0.0 ? num.q25 / den.q75 : 0.0;
    r.hi = den.q25 > 0.0 ? num.q75 / den.q25 : 0.0;
    return r;
  };
  const auto write_ratios = [&](const char* key, const std::map<std::string, Ratio>& ratios) {
    os << "  \"" << key << "\": {";
    bool first = true;
    for (const auto& [name, r] : ratios) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": " << r.median;
      first = false;
    }
    os << "},\n  \"" << key << "_spread\": {";
    first = true;
    for (const auto& [name, r] : ratios) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"lo\": " << r.lo
         << ", \"hi\": " << r.hi << "}";
      first = false;
    }
    os << "},\n";
  };
  // Aggregate batch scaling per cipher: throughput across message sizes at
  // max_threads over the same at one thread (both at shards=1). When the
  // thread sweep clamped to a single column (1-core host), each cipher
  // reports the exact single-thread ratio 1.0 and the sibling
  // "batch_speedup_clamped" flag is true — downstream tooling gets every
  // cipher key on every host instead of a silently empty object.
  {
    std::map<std::string, std::array<Totals, 2>> sums;
    for (const auto& c : cells) {
      if (c.shards != 1 || c.dir != Dir::encrypt || c.api != Api::alloc ||
          c.corpus != Corpus::random)
        continue;
      sums[c.cipher][c.threads == 1 ? 0 : 1].add(c.mb_per_s);
    }
    std::map<std::string, Ratio> ratios;
    for (const auto& [name, s] : sums) {
      ratios[name] = max_threads > 1 ? ratio_of(s[1], s[0]) : Ratio{};
    }
    write_ratios("batch_speedup", ratios);
  }
  os << "  \"batch_speedup_clamped\": " << (max_threads > 1 ? "false" : "true")
     << ",\n";
  // Aggregate intra-message scaling per cipher: for each shard count,
  // throughput over the shards=1 throughput across the SAME message sizes,
  // at threads=1; report the best count's ratio. A (size, shards) cell only
  // counts when size >= shards * kMinShardMsgBytes — below that the
  // adapters' per-shard minimum clamps the effective count, so the cell
  // times a partly or fully sequential path and would dilute the metric
  // toward 1. Same single-column treatment as batch_speedup: a clamped sweep
  // reports 1.0 per cipher plus "shard_speedup_clamped": true.
  {
    // cipher -> shards -> msg_bytes -> quartiles (threads=1 cells only)
    std::map<std::string, std::map<int, std::map<std::size_t, mhhea::util::Quartiles>>> grid;
    for (const auto& c : cells) {
      if (c.threads == 1 && c.dir == Dir::encrypt && c.api == Api::alloc &&
          c.corpus == Corpus::random) {
        grid[c.cipher][c.shards][c.msg_bytes] = c.mb_per_s;
      }
    }
    std::map<std::string, Ratio> ratios;
    for (const auto& [name, by_shards] : grid) {
      Ratio best{0.0, 0.0, 0.0};
      const auto base_it = by_shards.find(1);
      for (const auto& [shards, by_size] : by_shards) {
        if (shards == 1 || base_it == by_shards.end()) continue;
        Totals num, den;
        for (const auto& [size, q] : by_size) {
          if (size < static_cast<std::size_t>(shards) * mhhea::crypto::kMinShardMsgBytes)
            continue;
          const auto b = base_it->second.find(size);
          if (b == base_it->second.end()) continue;
          num.add(q);
          den.add(b->second);
        }
        if (den.median > 0.0) {
          const Ratio r = ratio_of(num, den);
          if (r.median > best.median) best = r;
        }
      }
      ratios[name] = max_shards > 1 ? best : Ratio{};
    }
    write_ratios("shard_speedup", ratios);
  }
  os << "  \"shard_speedup_clamped\": " << (max_shards > 1 ? "false" : "true") << ",\n";
  // Per-cipher decrypt throughput (sequential alloc column, mean of the
  // cell medians across sizes): the decrypt counterpart of the headline
  // encrypt rows.
  os << "  \"decrypt_mb_per_s\": {";
  {
    std::map<std::string, std::array<double, 2>> sums;  // {total, count}
    for (const auto& c : cells) {
      if (c.threads == 1 && c.shards == 1 && c.dir == Dir::decrypt &&
          c.api == Api::alloc && c.corpus == Corpus::random) {
        sums[c.cipher][0] += c.mb_per_s.median;
        sums[c.cipher][1] += 1.0;
      }
    }
    bool first = true;
    for (const auto& [name, s] : sums) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": "
         << (s[1] > 0.0 ? s[0] / s[1] : 0.0);
      first = false;
    }
  }
  os << "},\n";
  // In-place over allocating encrypt throughput (sequential column, median
  // totals across sizes): what the span-based API buys over the vector one.
  os << "  \"into_speedup\": {";
  {
    std::map<std::string, std::array<double, 2>> sums;  // {alloc, into}
    for (const auto& c : cells) {
      if (c.threads == 1 && c.shards == 1 && c.dir == Dir::encrypt &&
          c.corpus == Corpus::random) {
        sums[c.cipher][c.api == Api::alloc ? 0 : 1] += c.mb_per_s.median;
      }
    }
    bool first = true;
    for (const auto& [name, s] : sums) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": "
         << (s[0] > 0.0 ? s[1] / s[0] : 0.0);
      first = false;
    }
  }
  os << "},\n";
  // Authenticated-container cost: MHHEA-sealed-v2 over raw MHHEA
  // throughput (sequential encrypt cells, median totals across sizes and
  // both API forms). The ratio prices the header, the MAC and the framed
  // hardware configuration together; 1.0 would make all three free.
  os << "  \"mac_overhead\": {";
  {
    std::map<std::string, double> sums;  // cipher -> total median MB/s
    for (const auto& c : cells) {
      if (c.threads == 1 && c.shards == 1 && c.dir == Dir::encrypt &&
          c.corpus == Corpus::random) {
        sums[c.cipher] += c.mb_per_s.median;
      }
    }
    const auto raw = sums.find("MHHEA");
    const auto v2 = sums.find("MHHEA-sealed-v2");
    if (raw != sums.end() && v2 != sums.end() && raw->second > 0.0) {
      os << "\"sealed_v2_vs_raw\": " << v2->second / raw->second;
    }
  }
  os << "},\n";
  // Wire-cost aggregates per cipher per corpus (sequential encrypt/alloc
  // cells, means across sizes). `expansion` is wire bytes per plaintext
  // byte AFTER the compression pre-stage — the number the compress-then-
  // encrypt pipeline exists to cut on the text corpus (the random corpus
  // pins the incompressible fallback at the raw container ratio).
  // `effective_wire_mb_per_s` is the wire-byte emission rate (plaintext
  // MB/s x expansion): what a link carrying this cipher's frames must
  // sustain per MB/s of goodput.
  os << "  \"expansion\": {";
  {
    // cipher -> corpus index {random, text} -> {sum, count}
    std::map<std::string, std::array<std::array<double, 2>, 2>> sums;
    for (const auto& c : cells) {
      if (c.threads == 1 && c.shards == 1 && c.dir == Dir::encrypt &&
          c.api == Api::alloc) {
        auto& slot = sums[c.cipher][c.corpus == Corpus::random ? 0 : 1];
        slot[0] += c.expansion;
        slot[1] += 1.0;
      }
    }
    bool first = true;
    for (const auto& [name, by_corpus] : sums) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"random\": "
         << (by_corpus[0][1] > 0.0 ? by_corpus[0][0] / by_corpus[0][1] : 0.0)
         << ", \"text\": "
         << (by_corpus[1][1] > 0.0 ? by_corpus[1][0] / by_corpus[1][1] : 0.0) << "}";
      first = false;
    }
  }
  os << "},\n";
  os << "  \"effective_wire_mb_per_s\": {";
  {
    // cipher -> corpus index -> {sum of mbps*expansion, count}
    std::map<std::string, std::array<std::array<double, 2>, 2>> sums;
    for (const auto& c : cells) {
      if (c.threads == 1 && c.shards == 1 && c.dir == Dir::encrypt &&
          c.api == Api::alloc) {
        auto& slot = sums[c.cipher][c.corpus == Corpus::random ? 0 : 1];
        slot[0] += c.mb_per_s.median * c.expansion;
        slot[1] += 1.0;
      }
    }
    bool first = true;
    for (const auto& [name, by_corpus] : sums) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"random\": "
         << (by_corpus[0][1] > 0.0 ? by_corpus[0][0] / by_corpus[0][1] : 0.0)
         << ", \"text\": "
         << (by_corpus[1][1] > 0.0 ? by_corpus[1][0] / by_corpus[1][1] : 0.0) << "}";
      first = false;
    }
  }
  os << "},\n";
  os << "  \"stages\": {\"vector_bits\": 16, \"policy\": \"framed\", \"msg_bytes\": "
     << kStageBytes << ", \"blocks\": " << stages.blocks << ", \"ns_per_block\": {";
  {
    bool first = true;
    for (const auto& [name, q] : stages.ns_per_block) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"median\": " << q.median
         << ", \"q25\": " << q.q25 << ", \"q75\": " << q.q75 << "}";
      first = false;
    }
  }
  os << "}},\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    os << "    {\"cipher\": \"" << json_escape(c.cipher) << "\", \"backend\": \""
       << backend_name << "\", \"msg_bytes\": "
       << c.msg_bytes << ", \"threads\": " << c.threads << ", \"shards\": " << c.shards
       << ", \"dir\": \"" << dir_name(c.dir) << "\", \"api\": \"" << api_name(c.api)
       << "\", \"corpus\": \"" << corpus_name(c.corpus) << "\", \"batch_size\": "
       << c.batch_size << ", \"reps\": " << c.reps << ", \"mb_per_s_median\": "
       << c.mb_per_s.median << ", \"mb_per_s_q25\": " << c.mb_per_s.q25
       << ", \"mb_per_s_q75\": " << c.mb_per_s.q75 << ", \"expansion\": "
       << c.expansion << ", \"ns_per_block\": " << c.ns_per_block << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::ofstream f(path);
  if (!f) throw std::runtime_error("bench: cannot write " + path);
  f << os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  std::string out_path = "BENCH_ciphers.json";
  bool quick = false;
  int threads_flag = 0;    // 0 = derive from hardware
  int shards_flag = 0;     // 0 = derive from hardware
  std::size_t reps_flag = 0;  // 0 = derive from --quick
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      std::uint64_t v = 0;
      if (!parse_u64(argv[++i], &v) || v < 1 || v > 1000) {
        std::cerr << "bench_ciphers: --reps must be an integer in [1, 1000]\n";
        return 2;
      }
      reps_flag = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      std::uint64_t v = 0;
      if (!parse_u64(argv[++i], &v) || v < 1 || v > 1024) {
        std::cerr << "bench_ciphers: --threads must be an integer in [1, 1024]\n";
        return 2;
      }
      threads_flag = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      std::uint64_t v = 0;
      if (!parse_u64(argv[++i], &v) || v < 1 || v > 1024) {
        std::cerr << "bench_ciphers: --shards must be an integer in [1, 1024]\n";
        return 2;
      }
      shards_flag = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], &g_cipher_seed) || g_cipher_seed == 0) {
        std::cerr << "bench_ciphers: --seed must be a non-zero 64-bit integer\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      // Forcing an engine the host cannot run is a hard error: a bench must
      // never silently measure scalar while its artifact is labelled avx2.
      const char* name = argv[++i];
      if (!mhhea::backend::set_active(name)) {
        std::cerr << "bench_ciphers: backend \"" << name
                  << "\" is not available on this host (try auto or scalar)\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_ciphers [--out FILE] [--quick] [--reps N] "
                   "[--threads N] [--shards N] [--seed S] "
                   "[--backend auto|scalar|avx2]\n";
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  // The multi-thread column, clamped to real parallelism: oversubscribing a
  // single-core host only measures scheduler noise (the seed run recorded a
  // meaningless ~0.99 "speedup" for threads=2 on 1 core). --threads
  // overrides the clamp for deliberate oversubscription experiments.
  const int max_threads =
      threads_flag > 0 ? threads_flag : static_cast<int>(hw > 0 ? hw : 1);
  // The shard sweep gets the same clamp-to-hardware treatment (sharding one
  // core measures dispatch overhead, not parallelism) and, like --threads,
  // --shards overrides it for deliberate overhead measurements.
  const int max_shards =
      shards_flag > 0 ? shards_flag : static_cast<int>(hw > 0 ? hw : 1);
  // The sequential column measures all four dir x api cells; the thread and
  // shard columns measure encrypt/alloc (the batch server shape).
  std::vector<SweepColumn> columns = {{1, 1, Dir::encrypt, Api::alloc},
                                      {1, 1, Dir::encrypt, Api::into},
                                      {1, 1, Dir::decrypt, Api::alloc},
                                      {1, 1, Dir::decrypt, Api::into}};
  if (max_threads > 1) columns.push_back({max_threads, 1, Dir::encrypt, Api::alloc});
  for (int s : {2, 4, 8}) {
    if (s <= max_shards) columns.push_back({1, s, Dir::encrypt, Api::alloc});
  }
  const std::vector<std::size_t> sizes = {64, 1024, 16384};
  const std::size_t reps = reps_flag > 0 ? reps_flag : (quick ? 2 : 9);

  // The text corpus sweeps the sequential encrypt/decrypt alloc cells only:
  // its purpose is the wire-expansion and effective-wire-throughput
  // aggregates, not a second copy of the thread/shard scaling axes.
  const std::vector<SweepColumn> text_columns = {{1, 1, Dir::encrypt, Api::alloc},
                                                 {1, 1, Dir::decrypt, Api::alloc}};

  std::vector<CellResult> cells;
  for (const auto& name : CipherRegistry::builtin().names()) {
    for (Corpus corpus : {Corpus::random, Corpus::text}) {
      const auto& cols = corpus == Corpus::random ? columns : text_columns;
      for (std::size_t msg_bytes : sizes) {
        for (auto& cell : run_cells(name, msg_bytes, cols, corpus, reps)) {
          std::cout << cell.cipher << " msg=" << cell.msg_bytes << "B threads="
                    << cell.threads << " shards=" << cell.shards << " "
                    << dir_name(cell.dir) << "/" << api_name(cell.api) << " corpus="
                    << corpus_name(cell.corpus) << " batch="
                    << cell.batch_size << ": "
                    << cell.mb_per_s.median << " MB/s median (quartiles "
                    << cell.mb_per_s.q25 << ".." << cell.mb_per_s.q75 << "), expansion "
                    << cell.expansion << ", " << cell.ns_per_block << " ns/block\n";
          cells.push_back(std::move(cell));
        }
      }
    }
  }

  const StageRows stages = run_stages(reps);
  for (const auto& [name, q] : stages.ns_per_block) {
    std::cout << "stage " << name << " (N=16 framed, " << kStageBytes << " B random): " << q.median
              << " ns/block median (quartiles " << q.q25 << ".." << q.q75 << ")\n";
  }
  write_json(out_path, cells, stages, max_threads, max_shards);
  std::cout << "wrote " << out_path << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_ciphers: " << e.what() << "\n";
  return 1;
}
