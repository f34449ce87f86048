// rpc_small: the mhhead daemon over a UNIX-domain socket, driven by ONE
// client thread over kConns connections.
//
// Arrivals are an open-loop Poisson stream at a fixed offered rate: the
// whole schedule (send times, op mix, payloads, target connection) is drawn
// from the seed before the window starts, and latency counts from the
// SCHEDULED send time to the verified reply, so a stall also delays every
// request due behind it. Each connection is replaced after
// kReconnectEvery requests, so one run averages over many per-connection
// hiding keys. All connections of a phase finish their handshake and all
// open-request containers are sealed during set-up; seal replies are
// verified after the window. The timed loop only writes frames, reads
// replies and compares open replies with their plaintext.
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "daemon.hpp"
#include "src/crypto/mac.hpp"
#include "src/exec/executor.hpp"
#include "src/server/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace srv = mhhea::server;
using mhhea::crypto::Session;

constexpr std::uint8_t kUnanswered = 0xFF;
constexpr double kSealShare = 0.45;
constexpr double kOpenShare = 0.45;  // the remaining 10% are pings
constexpr std::size_t kPayloadPool = 512;
constexpr double kSpinWindowS = 0.002;
// How long after the window replies are still collected; a request still
// unanswered then is a failure, not a late reply.
constexpr double kDrainCapS = 30.0;
constexpr double kSubWindowS = 0.5;
// The traced run records the spans of one request in this many, which keeps
// a 20 s trace to a few MB.
constexpr std::uint32_t kTraceEvery = 16;

struct Req {
  double due_s = 0.0;  // scheduled send time, seconds after the window opens
  std::uint32_t conn = 0;
  std::uint32_t payload = 0;
  srv::Op op = srv::Op::kPing;
};

struct SealReply {
  std::uint32_t id;
  std::size_t offset;
  std::size_t size;
};

struct Conn {
  Link link;
  std::vector<std::uint32_t> ids;        // global request ids, send order
  std::vector<std::uint8_t> frames;      // request frames, send order
  std::vector<std::size_t> frame_end;    // end offset of each frame
  std::size_t due = 0;                   // requests whose send time passed
  std::size_t sent_frames = 0;
  std::size_t sent_bytes = 0;
  std::size_t answered = 0;
  bool blocked = false;                  // last write hit EAGAIN
  bool live = false;
  bool done = false;
  std::vector<std::uint8_t> rbuf = std::vector<std::uint8_t>(64 * 1024);
  std::size_t rlen = 0;
  std::vector<std::uint8_t> seal_bodies;  // seal reply containers, verified later
  std::vector<SealReply> seals;
};

/// One phase's outcome.
struct Phase {
  double secs = 0.0;
  std::vector<Req> reqs;
  std::vector<float> lat_ms;    // scheduled -> reply
  std::vector<double> sent_s;   // when the frame's last byte was written
  std::vector<float> rtt_us;    // actual send -> reply
  std::vector<double> done_s;
  std::vector<std::uint8_t> status;
  std::vector<std::uint8_t> bad;  // wrong bytes
  std::uint64_t backlog_max = 0;  // largest per-connection outstanding count
  std::uint64_t wire_bytes = 0;   // sealed container bytes (both directions)
  std::uint64_t wire_plain = 0;   // plaintext bytes those containers carry
  std::vector<double> handshake_us;
  std::vector<double> lateness_us;  // how late the generator sent
  std::vector<std::vector<std::uint8_t>> sample_frames;      // request frames
  std::vector<std::vector<std::uint8_t>> sample_containers;  // open-request bodies
  std::vector<std::uint8_t> open_reply;  // the first correct open reply body
  std::uint32_t open_reply_id = 0;
  bool self_check_ok = true;
};

bool verify_open_reply(std::span<const std::uint8_t> body,
                       std::span<const std::uint8_t> plain) {
  return body.size() == plain.size() && std::memcmp(body.data(), plain.data(), plain.size()) == 0;
}

bool verify_seal_reply(Session& s2c, std::span<const std::uint8_t> body,
                       std::span<const std::uint8_t> plain, std::vector<std::uint8_t>& scratch) {
  scratch.resize(plain.size() + 64);
  try {
    const std::size_t n = s2c.open_into(body, scratch);
    return verify_open_reply(std::span(scratch.data(), n), plain);
  } catch (const std::exception&) {
    return false;
  }
}

/// The Poisson schedule of one window, assigned round robin to kConns
/// slots, each slot moving to a fresh connection every kReconnectEvery
/// requests. Returns the number of connections the schedule uses.
std::size_t make_schedule(mhhea::util::Xoshiro256& rng, double rate, double secs,
                          std::vector<Req>& out) {
  const auto slots = static_cast<std::size_t>(kConns);
  std::vector<std::size_t> per_slot(slots, 0);
  std::size_t n_conns = 0;
  double t = 0.0;
  for (std::size_t i = 0;; ++i) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= secs) break;
    Req r;
    r.due_s = t;
    const double u = rng.uniform();
    r.op = u < kSealShare ? srv::Op::kSeal
                          : (u < kSealShare + kOpenShare ? srv::Op::kOpen : srv::Op::kPing);
    r.payload = static_cast<std::uint32_t>(rng.below(kPayloadPool));
    const std::size_t slot = i % slots;
    const std::size_t gen = per_slot[slot]++ / kReconnectEvery;
    r.conn = static_cast<std::uint32_t>(slot + gen * slots);
    n_conns = std::max<std::size_t>(n_conns, r.conn + 1);
    out.push_back(r);
  }
  return n_conns;
}

/// Read what is available on `c` and account every complete reply frame.
/// Returns false when the connection died.
bool read_replies(Conn& c, Phase& ph, const std::vector<std::vector<std::uint8_t>>& payloads,
                  Clock::time_point start, Tracer& tracer) {
  for (;;) {
    if (c.rlen == c.rbuf.size()) c.rbuf.resize(c.rbuf.size() * 2);
    const ssize_t n = ::read(c.link.fd, c.rbuf.data() + c.rlen, c.rbuf.size() - c.rlen);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    c.rlen += static_cast<std::size_t>(n);
    const auto now = Clock::now();
    const double now_s = seconds_between(start, now);
    std::size_t pos = 0;
    while (c.rlen - pos >= srv::kLenPrefixBytes) {
      const std::uint32_t len = srv::get_u32le(c.rbuf.data() + pos);
      if (len == 0) return false;
      if (c.rlen - pos < srv::kLenPrefixBytes + len) {
        if (srv::kLenPrefixBytes + len > c.rbuf.size()) c.rbuf.resize(srv::kLenPrefixBytes + len);
        break;
      }
      const std::uint8_t tag = c.rbuf[pos + srv::kLenPrefixBytes];
      const std::span<const std::uint8_t> body(c.rbuf.data() + pos + srv::kLenPrefixBytes + 1,
                                               len - 1);
      pos += srv::kLenPrefixBytes + len;
      if (c.answered >= c.sent_frames) return false;  // a reply to nothing sent
      const std::uint32_t id = c.ids[c.answered++];
      const Req& r = ph.reqs[id];
      ph.status[id] = tag;
      ph.done_s[id] = now_s;
      ph.lat_ms[id] = static_cast<float>((now_s - r.due_s) * 1e3);
      ph.rtt_us[id] = static_cast<float>((now_s - ph.sent_s[id]) * 1e6);
      if (static_cast<srv::Status>(tag) != srv::Status::kOk) continue;
      if (r.op == srv::Op::kSeal) {
        c.seals.push_back({id, c.seal_bodies.size(), body.size()});
        c.seal_bodies.insert(c.seal_bodies.end(), body.begin(), body.end());
      } else if (r.op == srv::Op::kOpen) {
        if (!verify_open_reply(body, payloads[r.payload])) {
          ph.bad[id] = 1;
        } else if (ph.open_reply.empty()) {
          ph.open_reply.assign(body.begin(), body.end());
          ph.open_reply_id = id;
        }
      } else if (!body.empty()) {
        ph.bad[id] = 1;
      }
      if (tracer.enabled() && id % kTraceEvery == 0) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(r.due_s));
        const auto sent = now - std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::micro>(ph.rtt_us[id]));
        const std::int64_t parent = tracer.record("rpc.request", id, Tracer::kNoParent, due, now);
        tracer.record(r.op == srv::Op::kPing ? "server.ping" : "server.crypto_request", id,
                      parent, sent, now);
      }
    }
    std::memmove(c.rbuf.data(), c.rbuf.data() + pos, c.rlen - pos);
    c.rlen -= pos;
  }
}

/// Write every due frame of `c` that the socket accepts; a frame counts as
/// sent once its last byte is written.
bool flush_due(Conn& c, Phase& ph, Clock::time_point start) {
  const std::size_t target = c.frame_end[c.due - 1];
  c.blocked = false;
  while (c.sent_bytes < target) {
    const ssize_t w =
        ::write(c.link.fd, c.frames.data() + c.sent_bytes, target - c.sent_bytes);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN) return false;
      c.blocked = true;
      break;
    }
    c.sent_bytes += static_cast<std::size_t>(w);
  }
  const double now_s = seconds_between(start, Clock::now());
  while (c.sent_frames < c.due && c.frame_end[c.sent_frames] <= c.sent_bytes) {
    const std::uint32_t id = c.ids[c.sent_frames++];
    ph.sent_s[id] = now_s;
    ph.lateness_us.push_back((now_s - ph.reqs[id].due_s) * 1e6);
  }
  return true;
}

/// The negative self-check, on the first connection with a seal reply: a
/// fresh s2c session (nothing committed to its replay window) must reject
/// the reply with one byte flipped at authentication (MacError, before any
/// plaintext) and then accept the genuine reply, and a real open reply with
/// one byte flipped must not match its plaintext while the genuine one does.
/// Only the corruption can make a check fail.
bool self_check(const Phase& ph, const std::vector<Conn>& conns,
                std::span<const std::uint8_t> master,
                const std::vector<std::vector<std::uint8_t>>& payloads) {
  bool ok = false;
  for (const Conn& c : conns) {
    if (c.seals.empty()) continue;
    const SealReply& s = c.seals.front();
    const auto& plain = payloads[ph.reqs[s.id].payload];
    const std::span<const std::uint8_t> genuine(c.seal_bodies.data() + s.offset, s.size);
    std::vector<std::uint8_t> forged(genuine.begin(), genuine.end());
    forged[forged.size() / 2] ^= 0x10;
    Session fresh = Session::from_master(master, srv::s2c_context(c.link.salt));
    std::vector<std::uint8_t> scratch(plain.size() + 64);
    try {
      (void)fresh.open_into(forged, scratch);
    } catch (const mhhea::crypto::MacError&) {
      ok = verify_seal_reply(fresh, genuine, plain, scratch);
    } catch (const std::exception&) {
    }
    break;
  }
  if (ph.open_reply.empty()) return false;
  const auto& plain = payloads[ph.reqs[ph.open_reply_id].payload];
  std::vector<std::uint8_t> forged = ph.open_reply;
  forged[forged.size() / 3] ^= 0x01;
  return ok && !verify_open_reply(forged, plain) && verify_open_reply(ph.open_reply, plain);
}

/// Set up, run and verify one phase against the daemon at `path`.
Phase run_phase(const std::string& path, std::span<const std::uint8_t> master, double secs,
                std::uint64_t phase_seed, const Placement& placement, Tracer& tracer,
                const std::vector<std::vector<std::uint8_t>>& payloads) {
  Phase ph;
  ph.secs = secs;
  mhhea::util::Xoshiro256 rng(phase_seed);
  const std::size_t n_conns = make_schedule(rng, kRpcQps, secs, ph.reqs);
  const std::size_t n = ph.reqs.size();
  ph.lat_ms.assign(n, 0.0f);
  ph.sent_s.assign(n, 0.0);
  ph.rtt_us.assign(n, 0.0f);
  ph.done_s.assign(n, 0.0);
  ph.status.assign(n, kUnanswered);
  ph.bad.assign(n, 0);
  ph.lateness_us.reserve(n);

  // Set-up: every connection of the window handshakes now, and each
  // open request's container is sealed under its connection's c2s session.
  std::vector<Conn> conns(n_conns);
  for (std::size_t i = 0; i < n; ++i) conns[ph.reqs[i].conn].ids.push_back(static_cast<std::uint32_t>(i));
  for (auto& c : conns) {
    c.link = connect_link(path, master);
    ph.handshake_us.push_back(c.link.handshake_us);
  }
  mhhea::exec::run_indexed(&mhhea::exec::Executor::shared(), n_conns, [&](std::size_t k) {
    Conn& c = conns[k];
    std::vector<std::uint8_t> sealed;
    for (const std::uint32_t id : c.ids) {
      const Req& r = ph.reqs[id];
      std::span<const std::uint8_t> body;
      if (r.op == srv::Op::kSeal) {
        body = payloads[r.payload];
      } else if (r.op == srv::Op::kOpen) {
        sealed = c.link.c2s->seal(payloads[r.payload]);
        body = sealed;
      }
      const auto frame = srv::encode_request(r.op, body);
      c.frames.insert(c.frames.end(), frame.begin(), frame.end());
      c.frame_end.push_back(c.frames.size());
    }
  });
  constexpr std::size_t kSample = 256;
  for (const auto& c : conns) {
    for (std::size_t j = 0; j < c.ids.size(); ++j) {
      const std::size_t begin = j == 0 ? 0 : c.frame_end[j - 1];
      const auto frame = std::span(c.frames).subspan(begin, c.frame_end[j] - begin);
      if (ph.sample_frames.size() < kSample) ph.sample_frames.emplace_back(frame.begin(), frame.end());
      if (ph.reqs[c.ids[j]].op != srv::Op::kOpen) continue;
      const auto body = frame.subspan(srv::kLenPrefixBytes + 1);
      if (ph.sample_containers.size() < kSample) ph.sample_containers.emplace_back(body.begin(), body.end());
      ph.wire_bytes += body.size();
      ph.wire_plain += kPayloadBytes;
    }
  }
  for (auto& c : conns) ::fcntl(c.link.fd, F_SETFL, ::fcntl(c.link.fd, F_GETFL) | O_NONBLOCK);

  // The timed window, the generator alone on its CPU.
  std::optional<Warmers> warmers;
  warmers.emplace(placement.daemon_cpus);
  const std::vector<int> previous_cpus = pin_thread(placement.client_cpu >= 0
                                                        ? std::vector<int>{placement.client_cpu}
                                                        : std::vector<int>{});
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const double hard_end_s = secs + kRpcLimitMs / 1e3 + kDrainCapS;
  std::vector<std::size_t> live;
  std::vector<pollfd> pfds;
  std::size_t next = 0;
  auto kill_conn = [&](Conn& c) {
    c.done = true;
    c.link.close();
  };
  for (;;) {
    double now_s = seconds_between(start, Clock::now());
    while (next < n && ph.reqs[next].due_s <= now_s) {
      Conn& c = conns[ph.reqs[next].conn];
      ++c.due;
      if (!c.live) {
        c.live = true;
        live.push_back(ph.reqs[next].conn);
      }
      ph.backlog_max = std::max<std::uint64_t>(ph.backlog_max, c.due - c.answered);
      ++next;
    }
    for (const std::size_t k : live) {
      Conn& c = conns[k];
      if (!c.done && !c.blocked && c.sent_frames < c.due && !flush_due(c, ph, start)) kill_conn(c);
    }
    // Retire finished connections (the reconnect cadence) and dead ones.
    std::erase_if(live, [&](std::size_t k) {
      Conn& c = conns[k];
      if (!c.done && c.answered == c.ids.size()) kill_conn(c);
      return c.done;
    });
    if (next == n && live.empty()) break;
    if (now_s > hard_end_s) break;
    pfds.clear();
    for (const std::size_t k : live) {
      pfds.push_back({conns[k].link.fd,
                      static_cast<short>(POLLIN | (conns[k].blocked ? POLLOUT : 0)), 0});
    }
    // Waking from a sleep can take milliseconds on a virtualised host, so
    // the generator only sleeps on long gaps and otherwise polls without
    // blocking until the next send is due.
    now_s = seconds_between(start, Clock::now());
    const double wait_s = (next < n ? ph.reqs[next].due_s - now_s : 0.001) - kSpinWindowS;
    timespec ts{0, 0};
    if (wait_s > 0) {
      ts.tv_sec = static_cast<time_t>(wait_s);
      ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
    }
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      Conn& c = conns[live[i]];
      if (pfds[i].revents & POLLOUT) c.blocked = false;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) &&
          !read_replies(c, ph, payloads, start, tracer)) {
        kill_conn(c);
      }
    }
  }
  warmers.reset();
  pin_thread(previous_cpus);
  for (auto& c : conns) c.link.close();

  ph.self_check_ok = self_check(ph, conns, master, payloads);
  // Verify every seal reply under its connection's s2c session.
  mhhea::exec::run_indexed(&mhhea::exec::Executor::shared(), n_conns, [&](std::size_t k) {
    Conn& c = conns[k];
    std::vector<std::uint8_t> scratch;
    for (const SealReply& s : c.seals) {
      const std::span<const std::uint8_t> body(c.seal_bodies.data() + s.offset, s.size);
      if (!verify_seal_reply(*c.link.s2c, body, payloads[ph.reqs[s.id].payload], scratch)) {
        ph.bad[s.id] = 1;
      }
    }
  });
  for (const auto& c : conns) {
    for (const SealReply& s : c.seals) {
      ph.wire_bytes += s.size;
      ph.wire_plain += kPayloadBytes;
    }
  }
  return ph;
}

/// Outcome counts of a set of phases.
struct Summary {
  std::uint64_t attempted = 0, correct = 0, failed = 0, shed = 0, errors = 0;
  std::uint64_t in_window = 0, in_limit = 0;
  double plain_in_window = 0.0;
  std::vector<double> lat_ms, crypto_lat_ms, ping_rtt_us;
};

void summarize(const Phase& ph, Summary& s) {
  for (std::size_t i = 0; i < ph.reqs.size(); ++i) {
    s.attempted += 1;
    const auto st = static_cast<srv::Status>(ph.status[i]);
    const bool ok = ph.status[i] != kUnanswered && st == srv::Status::kOk && !ph.bad[i];
    if (st == srv::Status::kOverloaded) s.shed += 1;
    if (ph.status[i] != kUnanswered && st != srv::Status::kOk &&
        st != srv::Status::kOverloaded) {
      s.errors += 1;
    }
    if (!ok) {
      s.failed += 1;
      continue;
    }
    s.correct += 1;
    s.lat_ms.push_back(ph.lat_ms[i]);
    if (ph.reqs[i].op == srv::Op::kPing) {
      s.ping_rtt_us.push_back(ph.rtt_us[i]);
    } else {
      s.crypto_lat_ms.push_back(ph.lat_ms[i]);
    }
    if (ph.lat_ms[i] <= kRpcLimitMs) s.in_limit += 1;
    if (ph.done_s[i] <= ph.secs) {
      s.in_window += 1;
      if (ph.reqs[i].op != srv::Op::kPing) s.plain_in_window += static_cast<double>(kPayloadBytes);
    }
  }
}

/// p99 of every kSubWindowS slice of the windows (by scheduled send time),
/// then the median over slices: the host's episodic stalls then move one
/// slice's figure instead of the whole run's. `slices_used` receives the number
/// of slices the median is taken over.
double windowed_p99(const std::vector<Phase>& phases, std::size_t& slices_used) {
  std::vector<double> p99s;
  for (const Phase& ph : phases) {
    const auto slices = std::max<std::size_t>(1, static_cast<std::size_t>(ph.secs / kSubWindowS));
    std::vector<std::vector<double>> lat(slices);
    for (std::size_t i = 0; i < ph.reqs.size(); ++i) {
      if (ph.status[i] != static_cast<std::uint8_t>(srv::Status::kOk) || ph.bad[i]) continue;
      const auto k = std::min(slices - 1, static_cast<std::size_t>(ph.reqs[i].due_s / ph.secs *
                                                                   static_cast<double>(slices)));
      lat[k].push_back(ph.lat_ms[i]);
    }
    for (auto& v : lat) {
      if (!v.empty()) p99s.push_back(quantile(std::move(v), 0.99));
    }
  }
  slices_used = p99s.size();
  return median(std::move(p99s));
}

}  // namespace

WorkloadResult run_rpc(const Options& opt, Tracer& tracer) {
  // Precise wakeups for the open-loop generator.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  mhhea::util::Xoshiro256 rng(opt.seed);
  const auto master = make_master(rng);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < kPayloadPool; ++i) payloads.push_back(random_payload(rng, kPayloadBytes));

  // setup_s: daemon start -> READY -> every connection through the hello.
  // The first daemon serves the workload; before each phase the set-up is
  // repeated with daemons that are stopped again at once. Phases also keep
  // the pre-sealed requests and unverified replies held in memory small.
  // No spinners here: with them, set-up took 1.0-3.0 ms against a steady
  // 1.0 ms without (medians of repetitions alternating in one process).
  WorkloadResult res;
  res.has_rpc = true;
  const Placement placement = Placement::for_host();
  const std::string socket_stem = kRunDir + "/d" + std::to_string(::getpid());
  std::vector<double> setups;
  auto set_up = [&](const std::string& path) {
    const auto t0 = Clock::now();
    auto d = std::make_unique<Daemon>(PERFBENCH_MHHEAD, path, master, placement.daemon_cpus);
    std::vector<Link> links;
    for (int c = 0; c < kConns; ++c) links.push_back(connect_link(path, master));
    setups.push_back(seconds_between(t0, Clock::now()));
    for (const auto& l : links) res.handshake_us.push_back(l.handshake_us);
    return d;
  };
  const std::unique_ptr<Daemon> daemon = set_up(socket_stem + ".sock");

  const std::size_t n_phases = phase_count(opt.seconds);
  const double phase_secs = opt.seconds / static_cast<double>(n_phases);
  std::vector<Phase> phases;
  double daemon_cpu_s = 0.0;
  for (std::size_t k = 0; k < n_phases; ++k) {
    for (int rep = 0; rep < kRpcSetupRepsPerPhase; ++rep) set_up(socket_stem + "_s.sock")->stop();
    const double cpu_before = daemon->cpu_seconds();
    phases.push_back(run_phase(daemon->socket_path(), master, phase_secs,
                               opt.seed * 1000003ULL + k, placement, tracer, payloads));
    daemon_cpu_s += daemon->cpu_seconds() - cpu_before;
  }

  const double peak_rss = daemon->peak_rss_mb();
  const std::string served_line = daemon->stop();

  Summary all;
  std::uint64_t wire = 0, wire_plain = 0;
  bool self_ok = true;
  std::vector<double> lateness;
  for (const Phase& ph : phases) {
    summarize(ph, all);
    wire += ph.wire_bytes;
    wire_plain += ph.wire_plain;
    self_ok = self_ok && ph.self_check_ok;
    res.backlog_max = std::max(res.backlog_max, ph.backlog_max);
    res.handshake_us.insert(res.handshake_us.end(), ph.handshake_us.begin(), ph.handshake_us.end());
    lateness.insert(lateness.end(), ph.lateness_us.begin(), ph.lateness_us.end());
  }

  const double attempted = static_cast<double>(all.attempted);
  res.e2e.set("setup_s", median(setups), "s");
  res.unbounded.set("served_qps", static_cast<double>(all.in_window) / opt.seconds, "1/s");
  res.unbounded.set("goodput_mb_s", all.plain_in_window / opt.seconds / 1e6, "MB/s");
  res.e2e.set("slo_met_ratio", static_cast<double>(all.in_limit) / attempted, "ratio");
  res.e2e.set("wire_expansion", static_cast<double>(wire) / static_cast<double>(wire_plain), "ratio");
  res.e2e.set("peak_rss_mb", peak_rss, "MB");
  res.unbounded.set("p50_ms", quantile(all.lat_ms, 0.5), "ms");
  std::size_t p99_slices = 0;
  res.unbounded.set("p99_ms", windowed_p99(phases, p99_slices), "ms");
  res.unbounded.set("failed_ratio", static_cast<double>(all.failed) / attempted, "ratio");
  res.unbounded.set("cpu_us_per_op", daemon_cpu_s * 1e6 / attempted, "us");

  res.tally.attempted = all.attempted;
  res.tally.failed = all.failed;
  res.tally.correct = self_ok && all.failed == 0;
  res.overhead_ref_ms = quantile(all.lat_ms, 0.5);
  res.ping_rtt_us = median(all.ping_rtt_us);
  res.crypto_p50_us = quantile(all.crypto_lat_ms, 0.5) * 1e3;
  res.shed = all.shed;
  res.errors = all.errors;
  res.failed_ratio = static_cast<double>(all.failed) / attempted;

  // Inputs the layer suite replays: a sample of this run's request frames
  // and open-request containers.
  res.request_frames = std::move(phases.front().sample_frames);
  res.containers = std::move(phases.front().sample_containers);

  char info[640];
  std::snprintf(info, sizeof(info),
                "\"offered_qps\": %.0f, \"conns\": %d, \"reconnect_every\": %zu, "
                "\"limit_ms\": %.3f, \"phases\": %zu, \"latency_samples\": %zu, "
                "\"ping_samples\": %zu, \"p99_slices\": %zu, \"setup_samples\": %zu, "
                "\"connections\": %zu, \"send_delay_p99_us\": %.1f, \"shed\": %llu, "
                "\"errors\": %llu, \"daemon\": \"%s\"",
                kRpcQps, kConns, kReconnectEvery, kRpcLimitMs, phases.size(), all.lat_ms.size(),
                all.ping_rtt_us.size(), p99_slices, setups.size(),
                res.handshake_us.size(), quantile(lateness, 0.99),
                static_cast<unsigned long long>(all.shed),
                static_cast<unsigned long long>(all.errors), served_line.c_str());
  res.info = info;
  return res;
}

}  // namespace perfbench
