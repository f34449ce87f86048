#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "src/server/protocol.hpp"
#include "src/util/hex.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// Read from `fd` until `needle` shows up or `timeout_s` passes.
bool read_until(int fd, const std::string& needle, double timeout_s, std::string& seen) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_s));
  while (seen.find(needle) == std::string::npos) {
    const double left = seconds_between(Clock::now(), deadline);
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    seen.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

Placement Placement::for_host() {
  Placement p;
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 2) return p;
  for (int c = 0; c < n - 1; ++c) p.daemon_cpus.push_back(c);
  p.client_cpu = n - 1;
  return p;
}

std::vector<int> pin_thread(const std::vector<int>& cpus) {
  std::vector<int> previous;
  cpu_set_t old_set;
  CPU_ZERO(&old_set);
  if (::pthread_getaffinity_np(::pthread_self(), sizeof(old_set), &old_set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &old_set)) previous.push_back(c);
    }
  }
  if (cpus.empty()) return previous;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
  return previous;
}

Warmers::Warmers(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      pin_thread({cpu});
      const sched_param idle{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

Warmers::~Warmers() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

Daemon::Daemon(const std::string& binary, const std::string& socket_path,
               std::span<const std::uint8_t> master, const std::vector<int>& cpus)
    : path_(socket_path) {
  ::unlink(path_.c_str());
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("daemon: pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, pipe_fds[1], STDOUT_FILENO);
  const std::string master_hex = mhhea::util::bytes_to_hex(master);
  std::vector<std::string> args = {binary, "--uds", path_, "--master", master_hex};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  // The child inherits the spawning thread's CPU mask.
  const std::vector<int> previous = pin_thread(cpus);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
  if (!cpus.empty()) pin_thread(previous);
  posix_spawn_file_actions_destroy(&fa);
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(out_fd_);
    throw std::runtime_error("daemon: cannot start " + binary);
  }
  std::string seen;
  if (!read_until(out_fd_, "READY", 10.0, seen)) {
    stop();
    throw std::runtime_error("daemon: no READY line from " + binary);
  }
}

Daemon::~Daemon() { stop(); }

std::string Daemon::stop() {
  if (pid_ <= 0) return {};
  ::kill(pid_, SIGINT);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: mhhead ended abnormally (status 0x%x)\n", status);
  }
  std::string seen;
  read_until(out_fd_, "accepted=", 0.5, seen);
  ::close(out_fd_);
  out_fd_ = -1;
  ::unlink(path_.c_str());
  const auto at = seen.find("mhhead: served");
  return at == std::string::npos ? std::string{} : seen.substr(at, seen.find('\n', at) - at);
}

double Daemon::peak_rss_mb() const { return vm_hwm_mb(pid_); }

double Daemon::cpu_seconds() const { return perfbench::cpu_seconds(pid_); }

double cpu_seconds(pid_t pid) {
  std::ifstream f(pid > 0 ? "/proc/" + std::to_string(pid) + "/stat"
                          : std::string("/proc/self/stat"));
  std::string stat((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15, in clock ticks.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream f(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                          : std::string("/proc/self/status"));
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

Link::Link(Link&& other) noexcept
    : fd(other.fd),
      c2s(std::move(other.c2s)),
      s2c(std::move(other.s2c)),
      salt(std::move(other.salt)),
      handshake_us(other.handshake_us) {
  other.fd = -1;
}

Link& Link::operator=(Link&& other) noexcept {
  if (this != &other) {
    close();
    fd = other.fd;
    other.fd = -1;
    c2s = std::move(other.c2s);
    s2c = std::move(other.s2c);
    salt = std::move(other.salt);
    handshake_us = other.handshake_us;
  }
  return *this;
}

Link::~Link() { close(); }

void Link::close() {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

Link connect_link(const std::string& socket_path, std::span<const std::uint8_t> master) {
  namespace srv = mhhea::server;
  const auto t0 = Clock::now();
  Link link;
  link.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (link.fd < 0) throw std::runtime_error("connect: socket failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("connect: socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(link.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("connect: " + socket_path + ": " + std::strerror(errno));
  }
  // The hello is the only frame the server sends before the first request,
  // so everything read here belongs to it.
  srv::FrameParser parser;
  std::optional<srv::Frame> hello;
  while (!(hello = parser.next())) {
    std::uint8_t buf[256];
    const ssize_t n = ::read(link.fd, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("connect: no hello");
    parser.feed(std::span(buf, static_cast<std::size_t>(n)));
  }
  if (static_cast<srv::Status>(hello->tag) != srv::Status::kHello) {
    throw std::runtime_error("connect: first frame is not a hello");
  }
  const srv::HelloInfo info = srv::parse_hello_body(hello->body);
  link.salt.assign(info.salt.begin(), info.salt.end());
  link.c2s = std::make_unique<mhhea::crypto::Session>(
      mhhea::crypto::Session::from_master(master, srv::c2s_context(info.salt)));
  link.s2c = std::make_unique<mhhea::crypto::Session>(
      mhhea::crypto::Session::from_master(master, srv::s2c_context(info.salt)));
  link.handshake_us = us_between(t0, Clock::now());
  return link;
}

}  // namespace perfbench
