#include "src/exec/executor.hpp"

#include <stdexcept>
#include <utility>


namespace mhhea::exec {

namespace {

/// Identity of the current thread within its executor, so submit() lands on
/// the caller's own deque and try_run_one() knows which deque to pop LIFO.
struct WorkerIdentity {
  Executor* ex = nullptr;
  std::size_t index = 0;
};

thread_local WorkerIdentity tls_worker;

constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

}  // namespace

Executor::Executor(int n_workers) {
  if (n_workers < 1) throw std::invalid_argument("Executor: need >= 1 worker");
  worker_queues_.reserve(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    worker_queues_.push_back(std::make_unique<TaskDeque>());
  }
  workers_.reserve(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard lock(sleep_mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void Executor::submit(std::function<void()> task) {
  TaskDeque* target = &injection_;
  if (tls_worker.ex == this) target = worker_queues_[tls_worker.index].get();
  {
    // sleep_mu_ spans the stopping check, the push and the epoch bump: a
    // task is either rejected or visible to every worker's pre-sleep epoch
    // test, so drain-on-shutdown cannot strand it.
    std::lock_guard lock(sleep_mu_);
    if (stopping_) throw std::runtime_error("Executor: submit after shutdown");
    {
      std::lock_guard qlock(target->mu);
      target->tasks.push_back(std::move(task));
    }
    ++epoch_;
  }
  wake_.notify_one();
}

bool Executor::pop_or_steal(std::size_t self, std::function<void()>& out) {
  if (self != kNotAWorker) {
    TaskDeque& own = *worker_queues_[self];
    std::lock_guard lock(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  {
    std::lock_guard lock(injection_.mu);
    if (!injection_.tasks.empty()) {
      out = std::move(injection_.tasks.front());
      injection_.tasks.pop_front();
      return true;
    }
  }
  // Steal scan: start one past self so victims rotate instead of every
  // thief hammering worker 0.
  const std::size_t n = worker_queues_.size();
  const std::size_t start = self == kNotAWorker ? 0 : (self + 1) % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == self) continue;
    TaskDeque& q = *worker_queues_[victim];
    std::lock_guard lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

bool Executor::try_run_one() {
  const std::size_t self = tls_worker.ex == this ? tls_worker.index : kNotAWorker;
  std::function<void()> task;
  if (!pop_or_steal(self, task)) return false;
  task();
  return true;
}

void Executor::worker_loop(std::size_t index) {
  tls_worker.ex = this;
  tls_worker.index = index;
  for (;;) {
    std::uint64_t seen;
    {
      std::lock_guard lock(sleep_mu_);
      seen = epoch_;
    }
    std::function<void()> task;
    if (pop_or_steal(index, task)) {
      task();
      continue;
    }
    std::unique_lock lock(sleep_mu_);
    // A submission landed after the pre-scan epoch read: rescan before
    // sleeping or exiting, or the task could be stranded.
    if (epoch_ != seen) continue;
    if (stopping_) return;  // epoch unchanged since the scan — truly drained
    wake_.wait(lock, [this, seen] { return epoch_ != seen || stopping_; });
  }
}

Executor& Executor::shared() {
  static Executor instance(resolve_parallelism(0, "Executor::shared"));
  return instance;
}

}  // namespace mhhea::exec
