// The mhhead child process and the client side of its connection handshake.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/crypto/session.hpp"

namespace perfbench {

/// CPU placement of the daemon workloads: the load generator's one thread
/// gets the last CPU to itself and the daemon runs on the others, so the
/// generator is never descheduled by the daemon it measures. Empty sets on a
/// one-CPU host (no pinning).
struct Placement {
  std::vector<int> daemon_cpus;
  int client_cpu = -1;
  static Placement for_host();
};

/// Pin the calling thread to `cpus` (no-op when empty); returns the
/// previous mask's CPUs so it can be restored.
std::vector<int> pin_thread(const std::vector<int>& cpus);

/// While alive, one SCHED_IDLE spinning thread per CPU in `cpus`. On a
/// virtualised host an idle vCPU is halted and often loses its physical
/// core for milliseconds, so a daemon thread woken on it waits that long; a
/// busy vCPU is not halted, and any woken daemon thread preempts a
/// SCHED_IDLE thread at once. This keeps the daemon's wake-ups, and with
/// them its latency figures, from following the host's idle handling.
class Warmers {
 public:
  explicit Warmers(const std::vector<int>& cpus);
  Warmers(const Warmers&) = delete;
  Warmers& operator=(const Warmers&) = delete;
  ~Warmers();

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One mhhead daemon on a UNIX-domain socket, started with default flags on
/// `cpus` (all CPUs when empty). The constructor returns once the daemon
/// printed READY; the destructor stops it with SIGINT and waits for it to
/// exit.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         std::span<const std::uint8_t> master, const std::vector<int>& cpus = {});
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon();

  /// Graceful stop (SIGINT, then SIGKILL after 10 s); returns the daemon's
  /// final "served" line. Idempotent.
  std::string stop();

  /// Peak resident set (VmHWM) of the running daemon, in MB.
  [[nodiscard]] double peak_rss_mb() const;
  /// CPU time (user + system) the daemon has used so far, in seconds.
  [[nodiscard]] double cpu_seconds() const;
  [[nodiscard]] const std::string& socket_path() const noexcept { return path_; }

 private:
  std::string path_;
  pid_t pid_ = -1;
  int out_fd_ = -1;  // the daemon's stdout
};

/// A connected client: socket plus the direction sessions derived from the
/// server hello (requests sealed under c2s, responses opened under s2c).
struct Link {
  int fd = -1;
  std::unique_ptr<mhhea::crypto::Session> c2s;
  std::unique_ptr<mhhea::crypto::Session> s2c;
  std::vector<std::uint8_t> salt;  // the hello's per-connection salt
  double handshake_us = 0.0;  // connect -> hello parsed -> both sessions derived

  Link() = default;
  Link(Link&& other) noexcept;
  Link& operator=(Link&& other) noexcept;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;
  ~Link();
  void close();
};

/// Connect to `socket_path`, read the hello and derive both sessions.
/// Throws std::runtime_error on any failure.
Link connect_link(const std::string& socket_path, std::span<const std::uint8_t> master);

/// Blocking write of all of `bytes`; false on error.
bool write_all(int fd, std::span<const std::uint8_t> bytes);

/// Peak resident set (VmHWM) of process `pid` ("self" when 0), in MB.
double vm_hwm_mb(pid_t pid);

/// CPU time (user + system, every thread) of process `pid` ("self" when
/// 0), in seconds. The kernel does not charge a task for time the
/// hypervisor stole from its vCPU, so unlike wall time this does not follow
/// the host's load.
double cpu_seconds(pid_t pid);

}  // namespace perfbench
